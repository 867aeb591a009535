"""Property checks on the documented outputs of one `run_experiment` call.

The checks read only `metrics.csv`, `eval.csv` and `summary.json` (columns by
name, the constants from the config echo in `summary.json`), so a refactor of
the program's internals cannot break them. Each expected slot row is one
operation: a row that is missing or fails a check counts as failed. Problems
that are not tied to one slot (row counts, summary aggregates) are reported
separately and make the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

HASHED_FILES = ("metrics.csv", "eval.csv", "summary.json")
FLOAT_FIELDS = ("reward", "mean_v2u_rate_mbps", "energy_j", "moving_avg_energy_j", "queue_j")
REL_TOL = 1e-9
MAX_LISTED = 20


@dataclass
class CheckReport:
    """Outcome of checking one output directory."""

    attempted: int = 0
    failed: int = 0
    slot_problems: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # not tied to one slot

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail_slot(self, key, why: str) -> None:
        self.failed += 1
        if len(self.slot_problems) < MAX_LISTED:
            self.slot_problems.append(f"{key}: {why}")


def output_hash(out_dir: Path) -> str:
    """sha256 over the byte-reproducible outputs (timing.csv is excluded)."""
    digest = hashlib.sha256()
    for name in HASHED_FILES:
        digest.update(name.encode())
        digest.update((Path(out_dir) / name).read_bytes())
    return digest.hexdigest()


def level_flight_power(energy: dict, speed: float) -> float:
    """Rotary-wing power at horizontal speed `speed` with no climb: blade
    profile + induced (divided by the squared speed, as the model prints it) +
    parasite."""
    vh2 = speed * speed
    blade = energy["p0_hover_blade"] * (1.0 + 3.0 * vh2 / (energy["omega"] ** 2 * energy["rotor_radius"] ** 2))
    induced = energy["p1_hover_induced"] * energy["v0_induced"] / max(vh2, energy["v_h_epsilon"] ** 2)
    parasite = (
        0.5 * energy["d0_drag_ratio"] * energy["air_density"] * energy["rotor_solidity"]
        * energy["rotor_disc_area"] * vh2 ** 1.5
    )
    return blade + induced + parasite


def energy_bounds(config: dict) -> tuple[float, float]:
    """Per-slot energy range: P_level*dt -/+ W*dh_max. Altitude changes by at
    most dh_max per slot and the vertical term is W*v_z."""
    scenario, energy = config["scenario"], config["energy"]
    level = level_flight_power(energy, scenario["uav_speed"]) * scenario["slot_duration"]
    swing = energy["weight"] * scenario["dh_max"]
    low = level if energy["clamp_descent"] else level - swing
    return low, level + swing


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _parse_row(row: dict, k_links: int):
    """Typed values of one CSV row, or a reason it is malformed."""
    try:
        values = {name: float(row[name]) for name in FLOAT_FIELDS}
        violations = int(row["outage_violations"])
    except (KeyError, TypeError, ValueError) as exc:
        return None, f"malformed row ({exc})"
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        return None, f"non-finite {bad}"
    if not 0 <= violations <= k_links:
        return None, f"outage_violations {violations} outside [0, {k_links}]"
    if values["mean_v2u_rate_mbps"] < 0.0:
        return None, f"negative rate {values['mean_v2u_rate_mbps']}"
    values["outage_violations"] = violations
    return values, None


def _check_file(path: Path, expected_keys: list, config: dict, report: CheckReport) -> dict:
    """Check every row of one metrics-format CSV against the expected
    (run_id, seed, episode, slot) keys; returns the rows that passed, by
    episode, in slot order."""
    scenario = config["scenario"]
    k_links, n_slots = scenario["k_links"], scenario["n_slots"]
    e_th = scenario["e_th"]
    low, high = energy_bounds(config)

    expected = set(expected_keys)
    by_key: dict = {}
    for row in _read_rows(path):
        try:
            key = (row["run_id"], int(row["seed"]), int(row["episode"]), int(row["slot"]))
        except (KeyError, TypeError, ValueError):
            report.problems.append(f"{path.name}: row without a valid key: {row}")
            continue
        if key not in expected:
            report.problems.append(f"{path.name}: unexpected row {key}")
        elif key in by_key:
            report.problems.append(f"{path.name}: duplicate row {key}")
        else:
            by_key[key] = row

    passed: dict = {}
    episodes = sorted({key[:3] for key in expected_keys})
    for episode in episodes:
        queue = 0.0
        cum_energy = 0.0
        good_rows = []
        broken = None  # once a row is missing, later rows cannot be verified
        for slot in range(n_slots):
            key = (*episode, slot)
            if broken is not None:
                report.fail_slot(key, f"{path.name}: unverifiable after {broken}")
                continue
            row = by_key.get(key)
            if row is None:
                report.fail_slot(key, f"{path.name}: row missing")
                broken = f"missing slot {slot}"
                continue
            values, why = _parse_row(row, k_links)
            if values is None:
                report.fail_slot(key, f"{path.name}: {why}")
                broken = f"bad slot {slot}"
                continue
            energy = values["energy_j"]
            cum_energy += energy
            want_queue = max(queue + energy - e_th, 0.0)
            if not low - 1e-9 <= energy <= high + 1e-9:
                why = f"energy_j {energy} outside [{low}, {high}]"
            elif not _close(values["moving_avg_energy_j"], cum_energy / (slot + 1)):
                why = f"moving_avg_energy_j {values['moving_avg_energy_j']} != running mean {cum_energy / (slot + 1)}"
            elif not _close(values["queue_j"], want_queue, e_th):
                why = f"queue_j {values['queue_j']} != max(q + E - E_th, 0) = {want_queue}"
            else:
                why = None
            if why is not None:
                report.fail_slot(key, f"{path.name}: {why}")
                broken = f"bad slot {slot}"
                continue
            queue = values["queue_j"]
            good_rows.append(values)
        passed[episode] = good_rows
    return passed


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _seed_aggregates(train: dict, evaluation: list, n_episodes: int, config: dict) -> dict:
    """The per-seed summary aggregates, recomputed from CSV rows."""
    scenario = config["scenario"]
    episode_rewards = []
    for ep in range(n_episodes):
        total = 0.0
        for row in train[ep]:
            total += row["reward"]
        episode_rewards.append(total)
    all_train = [row for ep in range(n_episodes) for row in train[ep]]
    final_train = train[n_episodes - 1]
    eval_rates = [row["mean_v2u_rate_mbps"] for row in evaluation]
    return {
        "reward_final10_mean": _mean(episode_rewards[-10:]),
        "reward_final_episode": episode_rewards[-1],
        "eval_mean_rate_mbps": _mean(eval_rates),
        "eval_sum_rate_mbps": _mean(eval_rates) * scenario["m_links"],
        "eval_energy_avg_j": _mean(row["energy_j"] for row in evaluation),
        "eval_final_moving_avg_energy_j": evaluation[-1]["moving_avg_energy_j"],
        "eval_final_queue_j": evaluation[-1]["queue_j"],
        "train_final_moving_avg_energy_j": final_train[-1]["moving_avg_energy_j"],
        "train_final_queue_j": final_train[-1]["queue_j"],
        "outage_violation_rate": _mean(row["outage_violations"] for row in all_train) / scenario["k_links"],
    }


def _check_summary(summary: dict, train: dict, evaluation: dict, config: dict, report: CheckReport) -> None:
    n_episodes = config["agents"]["episodes"]
    n_slots = config["scenario"]["n_slots"]
    for run_id, info in summary["runs"].items():
        per_seed = info.get("per_seed", {})
        if sorted(per_seed) != sorted(str(s) for s in config["seeds"]):
            report.problems.append(f"summary {run_id}: per_seed keys {sorted(per_seed)} != seeds")
            continue
        for seed in config["seeds"]:
            stats = per_seed[str(seed)]
            rows = {ep: train.get((run_id, seed, ep), []) for ep in range(n_episodes)}
            eval_rows = evaluation.get((run_id, seed, n_episodes), [])
            if any(len(r) != n_slots for r in rows.values()) or len(eval_rows) != n_slots:
                continue  # failed slots are already counted; nothing to recompute from
            for key, want in _seed_aggregates(rows, eval_rows, n_episodes, config).items():
                got = stats.get(key)
                if not isinstance(got, (int, float)) or not _close(got, want):
                    report.problems.append(f"summary {run_id} seed {seed}: {key} = {got}, CSV gives {want}")
        mean = info.get("mean", {})
        for key in next(iter(per_seed.values()), {}):
            want = _mean(per_seed[str(s)][key] for s in config["seeds"])
            got = mean.get(key)
            if not isinstance(got, (int, float)) or not _close(got, want):
                report.problems.append(f"summary {run_id}: mean {key} = {got}, per_seed mean is {want}")


def check_outputs(out_dir) -> CheckReport:
    """Check one run_experiment output directory against the method's
    properties: the queue recurrence, the running-mean energy, the energy
    range, finiteness, outage counts in [0, K], non-negative rates, the row
    counts, and the summary aggregates recomputed from the CSVs."""
    out_dir = Path(out_dir)
    report = CheckReport()
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    config = summary["config"]
    n_episodes, n_slots = config["agents"]["episodes"], config["scenario"]["n_slots"]
    run_ids = sorted(summary["runs"])
    if len(run_ids) != len(config["agents"]["kinds"]) * _n_points(config["sweep"]):
        report.problems.append(f"summary lists {len(run_ids)} runs for kinds {config['agents']['kinds']}")
    train_keys = [
        (run_id, seed, ep, slot)
        for run_id in run_ids for seed in config["seeds"] for ep in range(n_episodes) for slot in range(n_slots)
    ]
    eval_keys = [(run_id, seed, n_episodes, slot) for run_id in run_ids for seed in config["seeds"] for slot in range(n_slots)]
    report.attempted = len(train_keys) + len(eval_keys)
    train = _check_file(out_dir / "metrics.csv", train_keys, config, report)
    evaluation = _check_file(out_dir / "eval.csv", eval_keys, config, report)
    _check_summary(summary, train, evaluation, config, report)
    return report


def _n_points(sweep: dict) -> int:
    n = 1
    for values in sweep.values():
        n *= len(values)
    return n


def expected_update_calls(config: dict) -> int:
    """Agent update calls the config implies: each training slot s (1-based
    global step) with s >= warmup_steps and s % update_every == 0 runs one,
    for every (kind, sweep point, seed)."""
    hp = config["agents"]["hyperparams"]
    steps = config["agents"]["episodes"] * config["scenario"]["n_slots"]
    per_run = sum(1 for s in range(1, steps + 1) if s >= hp["warmup_steps"] and s % hp["update_every"] == 0)
    return per_run * len(config["agents"]["kinds"]) * len(config["seeds"]) * _n_points(config["sweep"])
