"""Per-layer tracing of skysched from outside the package.

`Tracer.install()` replaces each traced public function or method with a
timing wrapper wherever a caller looks it up: every `skysched.*` module
attribute bound to the original function object is rebound, so both
`skysched.env.assemble_gains` and `skysched.channel.assemble_gains` are
wrapped. Methods are wrapped on the classes of the named module that define
them (`*.update` wraps `update` on every agent class). A target that no
longer exists is reported absent, never an error. `uninstall()` restores every
binding; a tracer can be installed again and keeps counting.

Spans nest: a span's self time is its duration minus the time of the spans
it encloses, and a layer's time is the sum of the self times of its spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (metric prefix, module, target). A target is a function name, "Class.method",
# or "*.method" for every class of the module that defines the method.
SPANS = (
    ("agents.train", "agents", "train"),
    ("agents.update", "agents", "*.update"),
    ("agents.critic_td_update", "agents", "critic_td_update"),
    ("agents.actor_pg_update", "agents", "actor_pg_update"),
    ("agents.ddqn_update", "agents", "ddqn_update"),
    ("agents.replay", "agents", "ReplayBuffer.push"),
    ("agents.replay", "agents", "ReplayBuffer.sample"),
    ("agents.hungarian_assign", "agents", "hungarian_assign"),
    ("neural.forward", "neural", "forward"),
    ("neural.backward", "neural", "backward"),
    ("neural.forward_only", "neural", "forward_only"),
    ("neural.adam_step", "neural", "adam_step"),
    ("neural.soft_update", "neural", "soft_update"),
    ("diffusion.sample_action", "diffusion", "sample_action"),
    ("diffusion.sample_action_with_tape", "diffusion", "sample_action_with_tape"),
    ("diffusion.chain_backward", "diffusion", "chain_backward"),
    ("env.step", "env", "*.step"),
    ("env.reset", "env", "*.reset"),
    ("env.amend_action", "env", "amend_action"),
    ("env.estimate_outage", "env", "estimate_outage"),
    ("env.build_state", "env", "build_state"),
    ("channel.assemble_gains", "channel", "assemble_gains"),
    ("channel.draw_fading", "channel", "draw_fading"),
    ("channel.rates", "channel", "v2u_sinr"),
    ("channel.rates", "channel", "v2u_rate"),
    ("mobility.frame", "mobility", "*.frame"),
    ("mobility.generate_platoon", "mobility", "generate_platoon"),
    ("energy.propulsion_power", "energy", "propulsion_power"),
    ("lyapunov.queue_update", "lyapunov", "queue_update"),
    ("experiment.run_experiment", "experiment", "run_experiment"),
)

# Scalar per-link helpers: called hundreds of times per slot, so they are
# counted without timing; their time stays in the caller's self time.
COUNTS = (
    ("channel.scalar_link_calls", "channel", "v2u_path_loss"),
    ("channel.scalar_link_calls", "channel", "v2v_path_loss"),
    ("channel.scalar_link_calls", "channel", "aging_correlation"),
    ("channel.scalar_link_calls", "channel", "age_fading"),
)

LAYERS = ("agents", "neural", "diffusion", "env", "channel", "mobility", "energy", "lyapunov", "experiment")
TOTAL_SPAN = "experiment.run_experiment"


def _span_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in SPANS))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in _span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    for name in dict.fromkeys(name for name, _, _ in COUNTS):
        units[name] = "count"
    for layer in LAYERS:
        units[f"layer.{layer}.ms"] = "ms"
    units["neural.madds"] = "count"
    units["neural.madds_per_call"] = "count"
    units["experiment.output_bytes"] = "bytes"
    units["trace.overhead_pct"] = "%"
    return units


def _net_madds(net, n_values: int, per_sample: int) -> int:
    """Multiply-adds of one dense pass over n_values // per_sample samples."""
    layer_madds = sum(w.shape[0] * w.shape[1] for w in net.weights)
    return (n_values // per_sample) * layer_madds


def _forward_madds(net, x, *_args, **_kwargs) -> int:
    return _net_madds(net, getattr(x, "size", len(x)), net.n_in)


def _backward_madds(net, _tape, output_gradient, *_args, **_kwargs) -> int:
    # weight gradients plus input gradients: two products per weight
    return 2 * _net_madds(net, getattr(output_gradient, "size", len(output_gradient)), net.n_out)


MADDS = {"neural.forward": _forward_madds, "neural.forward_only": _forward_madds, "neural.backward": _backward_madds}


class Tracer:
    """Call counts, total and self time per span, and multiply-adds."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in _span_names()}
        self.counts: dict[str, list] = {name: [0] for name, _, _ in COUNTS}
        self.madds = [0]
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn):
        stats, stack, madds_total = self.stats[name], self._stack, self.madds
        madds_of = MADDS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if madds_of is not None:
                try:
                    madds_total[0] += madds_of(*args, **kwargs)
                except (AttributeError, IndexError, TypeError, ZeroDivisionError):
                    pass  # a changed signature loses the count, not the run
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _counted(self, name: str, fn):
        count = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for key, m in list(sys.modules.items()) if key == "skysched" or key.startswith("skysched.")]
        for table, make in ((SPANS, self._timed), (COUNTS, self._counted)):
            for name, module_name, target in table:
                if not self._wrap(modules, module_name, target, functools.partial(make, name)):
                    self.absent.append(f"{module_name}.{target}")

    def _wrap(self, modules, module_name: str, target: str, make) -> bool:
        module = sys.modules.get(f"skysched.{module_name}")
        if module is None:
            return False
        if "." in target:
            class_name, method = target.split(".")
            classes = [
                obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
                and (class_name == "*" or obj.__name__ == class_name) and method in vars(obj)
            ]
            for cls in classes:
                original = vars(cls)[method]
                self._rebind(cls, method, original, make(original))
            return bool(classes)
        original = getattr(module, target, None)
        if not callable(original):
            return False
        wrapper = make(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, original, wrapper)
        return True

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round metric values (without output bytes and overhead)."""
        values: dict[str, float] = {}
        layer_ms = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, total, self_s) in self.stats.items():
            values[f"{name}.calls"] = calls / rounds
            values[f"{name}.ms"] = total * 1e3 / rounds
            values[f"{name}.self_ms"] = self_s * 1e3 / rounds
            layer_ms[name.split(".")[0]] += self_s * 1e3 / rounds
        for name, (count,) in self.counts.items():
            values[name] = count / rounds
        for layer, ms in layer_ms.items():
            values[f"layer.{layer}.ms"] = ms
        neural_calls = sum(self.stats[name][0] for name in MADDS)
        values["neural.madds"] = self.madds[0] / rounds
        values["neural.madds_per_call"] = self.madds[0] / neural_calls if neural_calls else 0.0
        return values
