"""Experiment orchestration: config parsing and validation, seeded runs,
metrics persistence, and figure-ready tables.

A config is one YAML document with blocks for the scenario, channel, energy
model, Lyapunov weights, agents, mobility source, env options, an optional
sweep (lists over k_links / v_weight / t_delay / denoise_steps, crossed), and
seeds. Every run is fully determined by (config, seed): metrics.csv, eval.csv
and summary.json are byte-reproducible; wall-clock inference times go to
timing.csv, which is the one non-reproducible output (consumed only by the
runtime_table figure).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from functools import partial, reduce
from pathlib import Path

import yaml

from .agents import AGENT_KINDS, AgentHyperparams, SlotRecord, desk_scale_hyperparams, train
from .channel import ChannelParams, bessel_j0
from .energy import PowerModelParams
from .env import NetworkScenario, VehicularEnv
from .errors import ConfigError
from .lyapunov import LyapunovConfig
from .mobility import MobilityTrace, generate_platoon, load_trace

# Sweep key -> the ExperimentConfig block whose field of the same name it overrides.
SWEEP_KEYS = {"k_links": "scenario", "v_weight": "lyapunov", "t_delay": "channel", "denoise_steps": "hyperparams"}
PRESETS = {"desk": desk_scale_hyperparams, "full": AgentHyperparams}
FIGURE_KINDS = ("reward_curve", "rate_vs_K", "rate_vs_delay", "energy_vs_slot", "tradeoff_vs_V", "runtime_table")

METRICS_FIELDS = SlotRecord._fields[:-1]
TIMING_FIELDS = SlotRecord._fields[:4] + SlotRecord._fields[-1:]


@dataclass
class ExperimentConfig:
    """Validated, resolved experiment description."""

    output_dir: Path
    seeds: list[int]
    agent_kinds: list[str]
    episodes: int
    scenario: NetworkScenario
    channel: ChannelParams
    energy: PowerModelParams
    lyapunov: LyapunovConfig
    hyperparams: AgentHyperparams
    mobility: dict
    outage_samples: int
    normalizer_warmup: int
    sweep: dict[str, list]
    resolved: dict  # plain-dict echo persisted into summary.json


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build_block(cls, block, name: str):
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(block).__name__}")
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_config(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a loaded YAML mapping; error messages name the failing field."""
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a mapping")
    known = {"output_dir", "seeds", "scenario", "channel", "energy", "lyapunov", "agents", "mobility", "env", "sweep"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")

    if "output_dir" not in data:
        raise ConfigError("output_dir: required")
    if not isinstance(data["output_dir"], str):
        raise ConfigError(f"output_dir: expected a path string, got {data['output_dir']!r}")
    output_dir = Path(data["output_dir"])
    if base_dir is not None and not output_dir.is_absolute():
        output_dir = base_dir / output_dir

    seeds = data.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: required non-empty list of integers")
    bad = [s for s in seeds if not (_is_int(s) and s >= 0)]
    if bad:
        raise ConfigError(f"seeds: each must be an integer >= 0, got {bad[0]!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: must be distinct")

    if isinstance(data.get("scenario"), dict) and "pairing" in data["scenario"]:
        raise ConfigError("scenario.pairing: not a config key; runs use the default pairing")
    scenario = _build_block(NetworkScenario, data.get("scenario"), "scenario")
    channel = _build_block(ChannelParams, data.get("channel"), "channel")
    energy = _build_block(PowerModelParams, data.get("energy"), "energy")
    lyapunov = _build_block(LyapunovConfig, data.get("lyapunov"), "lyapunov")

    agents_block = data.get("agents")
    if not isinstance(agents_block, dict):
        raise ConfigError("agents: required mapping with 'kinds' and 'episodes'")
    kinds = agents_block.get("kinds")
    if not isinstance(kinds, list) or not kinds:
        raise ConfigError("agents.kinds: required non-empty list")
    for kind in kinds:
        if kind not in AGENT_KINDS:
            raise ConfigError(f"agents.kinds: unknown agent {kind!r}; choose from {AGENT_KINDS}")
    if len(set(kinds)) != len(kinds):
        raise ConfigError("agents.kinds: must be distinct")
    episodes = agents_block.get("episodes")
    if not _is_int(episodes) or episodes < 1:
        raise ConfigError(f"agents.episodes: required integer >= 1, got {episodes!r}")
    hp_block = agents_block.get("hyperparams") or {}
    if not isinstance(hp_block, dict):
        raise ConfigError(f"agents.hyperparams: expected a mapping, got {type(hp_block).__name__}")
    hp_block = dict(hp_block)
    preset = hp_block.pop("preset", "full")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigError(f"agents.hyperparams.preset: unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    hyperparams = _build_block(PRESETS[preset], hp_block, "agents.hyperparams")
    extra = set(agents_block) - {"kinds", "episodes", "hyperparams"}
    if extra:
        raise ConfigError(f"agents: unknown keys {sorted(extra)}")

    mobility = data.get("mobility")
    if not isinstance(mobility, dict) or ("platoon" in mobility) == ("trace" in mobility):
        raise ConfigError("mobility: required mapping with exactly one of 'platoon' or 'trace'")
    if "trace" in mobility:
        if not isinstance(mobility["trace"], str):
            raise ConfigError(f"mobility.trace: expected a path string, got {mobility['trace']!r}")
        trace_path = Path(mobility["trace"])
        if base_dir is not None and not trace_path.is_absolute():
            trace_path = base_dir / trace_path
        if not trace_path.is_file():
            raise ConfigError(f"mobility.trace: not a file: {trace_path}")
        mobility = {"trace": str(trace_path)}
    else:
        if not isinstance(mobility["platoon"], dict):
            raise ConfigError("mobility.platoon: expected a mapping")
        platoon = dict(mobility["platoon"])
        required = {"n_vehicles", "mean_speed", "spacing", "seed"}
        missing = required - set(platoon)
        if missing:
            raise ConfigError(f"mobility.platoon: missing keys {sorted(missing)}")
        allowed = required | {"position_jitter", "speed_jitter", "lane_y"}
        unknown = set(platoon) - allowed
        if unknown:
            raise ConfigError(f"mobility.platoon: unknown keys {sorted(unknown)}")
        for key, value in platoon.items():
            kind = "an integer" if key in ("n_vehicles", "seed") else "a real number"
            types = int if kind == "an integer" else (int, float)
            if isinstance(value, bool) or not isinstance(value, types) or not math.isfinite(value):
                raise ConfigError(f"mobility.platoon.{key}: expected {kind}, got {value!r}")
        if not platoon["spacing"] > 0.0:
            raise ConfigError(f"mobility.platoon.spacing: must be positive, got {platoon['spacing']!r}")
        if platoon["seed"] < 0:
            raise ConfigError(f"mobility.platoon.seed: must be >= 0, got {platoon['seed']!r}")
        mobility = {"platoon": platoon}

    env_block = data.get("env") or {}
    if not isinstance(env_block, dict) or set(env_block) - {"outage_samples", "normalizer_warmup"}:
        raise ConfigError("env: accepts only 'outage_samples' and 'normalizer_warmup'")
    outage_samples = env_block.get("outage_samples", 500)
    normalizer_warmup = env_block.get("normalizer_warmup", 1000)
    if not _is_int(outage_samples) or outage_samples < 1:
        raise ConfigError(f"env.outage_samples: must be an integer >= 1, got {outage_samples!r}")
    if not _is_int(normalizer_warmup) or normalizer_warmup < 0:
        raise ConfigError(f"env.normalizer_warmup: must be an integer >= 0, got {normalizer_warmup!r}")

    sweep_block = data.get("sweep") or {}
    if not isinstance(sweep_block, dict):
        raise ConfigError("sweep: expected a mapping of parameter -> list of values")
    sweep: dict[str, list] = {}
    for key, values in sweep_block.items():
        if key not in SWEEP_KEYS:
            raise ConfigError(f"sweep.{key}: unknown sweep key; choose from {tuple(SWEEP_KEYS)}")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key}: must be a non-empty list")
        sweep[key] = values

    resolved = {
        "output_dir": str(output_dir),
        "seeds": list(seeds),
        "scenario": {**asdict(scenario), "pairing": None},  # summary-v1 echoes the (always default) pairing
        "channel": asdict(channel),
        "energy": asdict(energy),
        "lyapunov": asdict(lyapunov),
        "agents": {"kinds": list(kinds), "episodes": episodes, "hyperparams": asdict(hyperparams)},
        "mobility": mobility,
        "env": {"outage_samples": outage_samples, "normalizer_warmup": normalizer_warmup},
        "sweep": {k: list(v) for k, v in sweep.items()},
    }
    cfg = ExperimentConfig(
        output_dir=output_dir,
        seeds=list(seeds),
        agent_kinds=list(kinds),
        episodes=episodes,
        scenario=scenario,
        channel=channel,
        energy=energy,
        lyapunov=lyapunov,
        hyperparams=hyperparams,
        mobility=mobility,
        outage_samples=outage_samples,
        normalizer_warmup=normalizer_warmup,
        sweep=sweep,
        resolved=resolved,
    )
    for key, values in sweep.items():
        for value in values:  # each value alone, through the same replace a run applies
            _build_block(partial(_at_point, cfg), {key: value}, f"sweep.{key}")

    max_k = max([scenario.k_links, *sweep.get("k_links", [])])
    if "platoon" in mobility:
        needed = scenario.m_links + 2 * max_k
        if mobility["platoon"]["n_vehicles"] < needed:
            raise ConfigError(
                f"mobility.platoon.n_vehicles: need at least {needed} vehicles for M={scenario.m_links}, K={max_k}"
            )
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config: file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config: YAML parse error: {exc}") from None
    return parse_config(data, base_dir=path.parent)


def _sweep_points(sweep: dict[str, list]) -> list[dict]:
    """Every combination of the swept values; one empty point without a sweep."""
    return [dict(zip(sweep, combo)) for combo in itertools.product(*sweep.values())]


def _run_id(kind: str, point: dict) -> str:
    return "__".join([kind] + [f"{k}={v}" for k, v in point.items()])


def _at_point(cfg: ExperimentConfig, **point) -> ExperimentConfig:
    """cfg with each swept field of the point replaced in its block."""
    for key, value in point.items():
        block = SWEEP_KEYS[key]
        cfg = replace(cfg, **{block: replace(getattr(cfg, block), **{key: value})})
    return cfg


def _build_trace(cfg: ExperimentConfig) -> MobilityTrace:
    if "trace" in cfg.mobility:
        return load_trace(cfg.mobility["trace"])
    return generate_platoon(
        n_slots=cfg.scenario.n_slots + 1, slot_duration=cfg.scenario.slot_duration, **cfg.mobility["platoon"]
    )


def _write_rows(fh, rows) -> None:
    for row in rows:  # floats as plain-float repr, also numpy scalars
        fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        _write_rows(fh, [header, *rows])


def _sum(values):
    """Left-to-right sum from 0, as the builtin sum() adds before CPython 3.12;
    from 3.12 its float sum is compensated, so outputs would depend on the
    interpreter."""
    return reduce(operator.add, values, 0)


def _mean(values) -> float:
    values = list(values)
    return _sum(values) / len(values)


def _stderr(values) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    var = _sum((v - mu) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var / len(values))


@dataclass
class ExperimentResult:
    output_dir: Path
    metrics_path: Path
    eval_path: Path
    timing_path: Path
    summary_path: Path
    summary: dict


def run_experiment(cfg: ExperimentConfig, *, progress=None) -> ExperimentResult:
    """Train and evaluate every (agent, sweep point, seed) combination and
    persist metrics.csv, eval.csv, timing.csv, and summary.json.

    Each seed's rows are appended to <name>.partial files as soon as its
    train() returns, so memory holds one seed's rows at most. The files take
    their final names when every seed has run, summary.json last; a failed
    run leaves only the .partial files, holding the completed seeds' rows. An
    earlier run's final-named files are deleted first, so a failed rerun
    leaves none of them to be read as its own.
    """
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    trace = _build_trace(cfg)
    paths = [out / name for name in ("metrics.csv", "eval.csv", "timing.csv", "summary.json")]
    partials = [path.with_name(path.name + ".partial") for path in paths]
    for path in paths:
        path.unlink(missing_ok=True)
    runs_summary: dict[str, dict] = {}

    with ExitStack() as stack:
        metrics_fh, eval_fh, timing_fh = files = [
            stack.enter_context(open(path, "w", newline="\n", encoding="utf-8")) for path in partials[:3]
        ]
        for fh, header in zip(files, (METRICS_FIELDS, METRICS_FIELDS, TIMING_FIELDS)):
            _write_rows(fh, [header])
        for point in _sweep_points(cfg.sweep):
            run_cfg = _at_point(cfg, **point)
            for kind in cfg.agent_kinds:
                run_id = _run_id(kind, point)
                per_seed: dict[str, dict] = {}
                for seed in cfg.seeds:
                    if progress is not None:
                        progress(f"run {run_id} seed {seed}")
                    env = VehicularEnv(
                        run_cfg.scenario,
                        run_cfg.channel,
                        run_cfg.energy,
                        run_cfg.lyapunov,
                        trace,
                        seed=seed,
                        observe_aged=(kind != "d3pg_wcsi"),
                        outage_samples=run_cfg.outage_samples,
                        normalizer_warmup=run_cfg.normalizer_warmup,
                    )
                    result = train(kind, env, run_cfg.hyperparams, seed, cfg.episodes, run_id=run_id)
                    _write_rows(metrics_fh, (r[:-1] for r in result.records))
                    _write_rows(eval_fh, (r[:-1] for r in result.eval_records))
                    _write_rows(timing_fh, (r[:4] + r[-1:] for r in result.records + result.eval_records))
                    for fh in files:
                        fh.flush()  # a killed run keeps every completed seed's rows
                    per_seed[str(seed)] = _seed_summary(result, run_cfg.scenario)
                    del env, result  # so the next seed trains without this one's rows and agent
                mean_summary = {
                    key: _mean(stats[key] for stats in per_seed.values()) for key in next(iter(per_seed.values()))
                }
                runs_summary[run_id] = {
                    "agent": kind,
                    "sweep": point,
                    "per_seed": per_seed,
                    "mean": mean_summary,
                }

    summary = {
        "schema": "skysched-summary-v1",
        "config": cfg.resolved,
        "sweep_keys": sorted(cfg.sweep),
        "runs": runs_summary,
    }
    with open(partials[3], "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for partial, path in zip(partials, paths):
        partial.replace(path)
    return ExperimentResult(out, *paths, summary)


def _seed_summary(result, scenario: NetworkScenario) -> dict:
    """Per-seed aggregates used by summary.json and the figure emitters."""
    tail = result.episode_rewards[-10:]
    train_records = result.records
    eval_records = result.eval_records
    eval_rates = [r.mean_v2u_rate_mbps for r in eval_records]
    eval_energy = [r.energy_j for r in eval_records]
    return {
        "reward_final10_mean": _mean(tail),
        "reward_final_episode": result.episode_rewards[-1],
        "eval_mean_rate_mbps": _mean(eval_rates),
        "eval_sum_rate_mbps": _mean(eval_rates) * scenario.m_links,
        "eval_energy_avg_j": _mean(eval_energy),
        "eval_final_moving_avg_energy_j": eval_records[-1].moving_avg_energy_j,
        "eval_final_queue_j": eval_records[-1].queue_j,
        "train_final_moving_avg_energy_j": train_records[-1].moving_avg_energy_j,
        "train_final_queue_j": train_records[-1].queue_j,
        "outage_violation_rate": _mean(r.outage_violations for r in train_records) / scenario.k_links,
    }


# -- figure emitters ---------------------------------------------------------


def _column_sums(path: Path, key_names, value_names, key=tuple) -> dict:
    """Stream a CSV into {key(key columns as strings): [sum of each value column, row count]}.
    Sums run from 0.0 in row order, as _sum adds, so sum / count equals _mean
    of the same values."""
    acc: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        keys, values = ([header.index(name) for name in names] for names in (key_names, value_names))
        for row in reader:
            sums = acc.setdefault(key([row[i] for i in keys]), [0.0] * len(values) + [0])
            for j, i in enumerate(values):
                sums[j] += float(row[i])
            sums[-1] += 1
    return acc


def _load_summary(metrics_dir: Path) -> dict:
    path = metrics_dir / "summary.json"
    if not path.exists():
        raise ConfigError(f"figure: no summary.json under {metrics_dir}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _require_sweep(summary: dict, key: str, figure: str) -> None:
    available = summary.get("sweep_keys", [])
    if key not in available:
        raise ConfigError(
            f"figure {figure} requires a sweep over {key}; available sweep dimensions: {available or 'none'}"
        )


def emit_figure_data(metrics_dir, kind: str) -> Path:
    """Write one figure-ready table under <metrics_dir>/figures/<kind>.csv."""
    metrics_dir = Path(metrics_dir)
    if kind not in FIGURE_KINDS:
        raise ConfigError(f"figure: unknown kind {kind!r}; choose from {FIGURE_KINDS}")
    summary = _load_summary(metrics_dir)
    fig_dir = metrics_dir / "figures"
    fig_dir.mkdir(exist_ok=True)
    out_path = fig_dir / f"{kind}.csv"

    if kind == "reward_curve":
        per_episode = _column_sums(metrics_dir / "metrics.csv", ("run_id", "seed", "episode"), ("reward",))
        grouped: dict[tuple[str, int], list[float]] = {}
        for (run_id, _seed, episode), (total, _count) in per_episode.items():
            grouped.setdefault((run_id, int(episode)), []).append(total)
        out_rows = [
            (run_id, episode, _mean(vals), _stderr(vals))
            for (run_id, episode), vals in sorted(grouped.items())
        ]
        _write_csv(out_path, ("run_id", "episode", "reward_mean", "reward_stderr"), out_rows)

    elif kind == "rate_vs_K":
        _require_sweep(summary, "k_links", kind)
        out_rows = _sweep_rows(summary, "k_links", "eval_sum_rate_mbps")
        _write_csv(out_path, ("agent", "k_links", "sum_rate_mbps_mean", "sum_rate_mbps_stderr"), out_rows)

    elif kind == "rate_vs_delay":
        _require_sweep(summary, "t_delay", kind)
        chan = summary["config"]["channel"]
        base = 2.0 * math.pi * chan["carrier_frequency"] * chan["s_rel_min"] / chan["light_speed"]
        out_rows = []
        for agent, value, mean, err in _sweep_rows(summary, "t_delay", "eval_sum_rate_mbps"):
            out_rows.append((agent, value, bessel_j0(base * value), mean, err))
        _write_csv(
            out_path,
            ("agent", "t_delay", "j0_correlation", "sum_rate_mbps_mean", "sum_rate_mbps_stderr"),
            out_rows,
        )

    elif kind == "energy_vs_slot":
        sums = _column_sums(metrics_dir / "eval.csv", ("run_id", "slot"), ("energy_j", "moving_avg_energy_j"))
        if not sums:
            raise ConfigError("figure energy_vs_slot: eval.csv has no rows")
        out_rows = sorted((run_id, int(slot), e / n, m / n) for (run_id, slot), (e, m, n) in sums.items())
        _write_csv(out_path, ("run_id", "slot", "energy_j_mean", "moving_avg_energy_j_mean"), out_rows)

    elif kind == "tradeoff_vs_V":
        _require_sweep(summary, "v_weight", kind)
        rate_rows = {(a, v): (m, e) for a, v, m, e in _sweep_rows(summary, "v_weight", "eval_sum_rate_mbps")}
        energy_rows = {(a, v): m for a, v, m, _ in _sweep_rows(summary, "v_weight", "eval_energy_avg_j")}
        queue_rows = {(a, v): m for a, v, m, _ in _sweep_rows(summary, "v_weight", "eval_final_queue_j")}
        out_rows = [
            (a, v, rate[0], rate[1], energy_rows[(a, v)], queue_rows[(a, v)])
            for (a, v), rate in sorted(rate_rows.items())
        ]
        _write_csv(
            out_path,
            ("agent", "v_weight", "sum_rate_mbps_mean", "sum_rate_mbps_stderr", "energy_avg_j_mean", "final_queue_j_mean"),
            out_rows,
        )

    else:  # runtime_table
        base_k = summary["config"]["scenario"]["k_links"]
        agent_k = {
            run_id: (info["agent"], int(info["sweep"].get("k_links", base_k)))
            for run_id, info in summary["runs"].items()
        }
        sums = _column_sums(
            metrics_dir / "timing.csv", ("run_id",), ("inference_ms",), key=lambda cols: agent_k[cols[0]]
        )
        if not sums:
            raise ConfigError("figure runtime_table: timing.csv has no rows")
        means = {key: total / n for key, (total, n) in sums.items()}
        k_values = sorted({k for _, k in means})
        header = ("agent", *(f"k_{k}" for k in k_values))
        out_rows = [(agent, *(means.get((agent, k), "") for k in k_values)) for agent in sorted({a for a, _ in means})]
        _write_csv(out_path, header, out_rows)

    return out_path


def _sweep_rows(summary: dict, sweep_key: str, stat: str) -> list[tuple]:
    """(agent, sweep value, mean across seeds, stderr across seeds) rows."""
    out = []
    for run_id, info in sorted(summary["runs"].items()):
        if sweep_key not in info["sweep"]:
            continue
        values = [stats[stat] for stats in info["per_seed"].values()]
        out.append((info["agent"], info["sweep"][sweep_key], _mean(values), _stderr(values)))
    return sorted(out)
