"""Exception types shared across the package, and the parameter dataclasses' finiteness check."""

import math
import numbers


def require_finite(params) -> None:
    """Raise ValueError naming the first field of the dataclass params that is not a finite number."""
    for name, value in vars(params).items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


class SkySchedError(Exception):
    """Base class for all package-specific errors."""


class MalformedTraceError(SkySchedError):
    """Trace file cannot be parsed (bad header, bad row, empty file)."""


class InconsistentTraceError(SkySchedError):
    """Trace parses but violates structural invariants (missing slots or ids)."""


class InvalidGeometryError(SkySchedError):
    """Degenerate link geometry, e.g. zero transmitter-receiver distance."""


class InvalidStateError(SkySchedError):
    """Stale or mismatched internal state, e.g. a tape reused after an update."""


class NonFiniteActionError(SkySchedError):
    """A raw action holds NaN or infinite entries; the message names them."""


class NonFiniteRewardError(SkySchedError):
    """A slot's reward is NaN or infinite; the message names the episode and slot."""


class NonFiniteLossError(SkySchedError):
    """A learner update returned a NaN or infinite loss or mean Q; the message names it and the update."""


class EpisodeExhaustedError(SkySchedError):
    """step() called after the episode's final slot."""


class ConfigError(SkySchedError):
    """Experiment configuration failed validation; message names the field."""
