"""Exception types shared across the package, and the parameter dataclasses' field check."""

import dataclasses
import math
import numbers


def require_finite(params) -> None:
    """Raise ValueError naming the first field of the dataclass params that is
    not a finite number, or that is declared int but holds a float or a bool."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if f.type in (int, "int") and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
