"""Tests of the benchmark's own machinery: each output check fails on the
fault it guards against, planted into the outputs of a seconds-long run; the
tracer is transparent; the command refuses to run without the program."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_checks
import bench_trace
from skysched import experiment

HERE = Path(__file__).resolve().parent
SEEDS = [0, 1]
EPISODES = 2
SLOTS = 6
KINDS = ["ddpg", "h_ddqn"]


def run_tiny(workdir):
    """Run the tiny config with a relative output_dir, as the benchmark does,
    so the config echo in summary.json does not depend on workdir."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        experiment.run_experiment(tiny_config())
    finally:
        os.chdir(cwd)
    return Path(workdir) / "out"


def tiny_config():
    return experiment.parse_config({
        "output_dir": "out",
        "seeds": SEEDS,
        "scenario": {"m_links": 3, "k_links": 2, "n_slots": SLOTS},
        "agents": {
            "kinds": KINDS,
            "episodes": EPISODES,
            "hyperparams": {"preset": "desk", "hidden_width": 8, "batch_size": 4, "warmup_steps": 4},
        },
        "mobility": {"platoon": {"n_vehicles": 8, "mean_speed": 13.89, "spacing": 25.0, "seed": 7}},
        "env": {"outage_samples": 20},
    })


@pytest.fixture(scope="module")
def clean_outputs(tmp_path_factory):
    return run_tiny(tmp_path_factory.mktemp("clean"))


@pytest.fixture
def outputs(clean_outputs, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(clean_outputs, out)
    return out


def edit_csv(path, row_index, column, value):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    if column is None:
        del rows[row_index]
    else:
        rows[row_index][column] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def edit_summary(path, edit):
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


def test_clean_outputs_pass(clean_outputs):
    report = bench_checks.check_outputs(clean_outputs)
    assert report.ok, report.slot_problems + report.problems
    assert report.attempted == len(KINDS) * len(SEEDS) * (EPISODES + 1) * SLOTS


@pytest.mark.parametrize(
    "file, row, column, value, fragment",
    [
        ("metrics.csv", 3, "queue_j", "5.0", "queue_j"),  # broken queue step
        ("metrics.csv", 2, "reward", "nan", "non-finite"),
        ("eval.csv", 4, "energy_j", "250.0", "energy_j"),
        ("metrics.csv", 1, "moving_avg_energy_j", "1.0", "moving_avg_energy_j"),
        ("metrics.csv", 5, "outage_violations", "3", "outage_violations"),
        ("eval.csv", 0, "mean_v2u_rate_mbps", "-0.5", "negative rate"),
        ("metrics.csv", 7, None, None, "row missing"),
    ],
)
def test_planted_row_fault_fails_its_slot(outputs, file, row, column, value, fragment):
    edit_csv(outputs / file, row, column, value)
    report = bench_checks.check_outputs(outputs)
    assert not report.ok
    assert report.failed >= 1
    assert any(fragment in p for p in report.slot_problems), report.slot_problems


def test_duplicate_row_is_a_problem(outputs):
    with open(outputs / "metrics.csv", encoding="utf-8") as fh:
        lines = fh.readlines()
    (outputs / "metrics.csv").write_text("".join(lines + [lines[1]]))
    report = bench_checks.check_outputs(outputs)
    assert any("duplicate row" in p for p in report.problems)


def test_summary_per_seed_aggregate_disagreeing_with_csv_fails(outputs):
    def bump(summary):
        stats = summary["runs"]["ddpg"]["per_seed"]["1"]
        stats["eval_mean_rate_mbps"] *= 1.0 + 1e-6

    edit_summary(outputs / "summary.json", bump)
    report = bench_checks.check_outputs(outputs)
    assert report.failed == 0
    assert any("eval_mean_rate_mbps" in p and "CSV gives" in p for p in report.problems)


def test_summary_mean_disagreeing_with_per_seed_fails(outputs):
    def bump(summary):
        summary["runs"]["h_ddqn"]["mean"]["reward_final10_mean"] += 1.0

    edit_summary(outputs / "summary.json", bump)
    report = bench_checks.check_outputs(outputs)
    assert any("mean reward_final10_mean" in p for p in report.problems)


def test_hash_covers_reproducible_outputs_only(outputs):
    before = bench_checks.output_hash(outputs)
    (outputs / "timing.csv").write_text("changed\n")
    assert bench_checks.output_hash(outputs) == before
    edit_csv(outputs / "eval.csv", 0, "reward", "1.0")
    assert bench_checks.output_hash(outputs) != before


def test_level_flight_energy_range_at_defaults(clean_outputs):
    config = json.loads((clean_outputs / "summary.json").read_text())["config"]
    low, high = bench_checks.energy_bounds(config)
    assert low == pytest.approx(-2.70, abs=0.01)
    assert high == pytest.approx(197.30, abs=0.01)


def test_tracing_is_transparent_and_counts_updates(clean_outputs, tmp_path):
    originals = {name: getattr(experiment, name) for name in ("run_experiment", "train")}
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert experiment.run_experiment is not originals["run_experiment"]
        run_tiny(tmp_path)
    finally:
        tracer.uninstall()
    assert {name: getattr(experiment, name) for name in originals} == originals
    assert tracer.absent == []
    assert bench_checks.output_hash(tmp_path / "out") == bench_checks.output_hash(clean_outputs)
    values = tracer.metrics(rounds=1)
    config = json.loads((clean_outputs / "summary.json").read_text())["config"]
    assert values["agents.update.calls"] == bench_checks.expected_update_calls(config) == 2 * 2 * 9
    assert values["experiment.run_experiment.calls"] == 1
    assert values["agents.hungarian_assign.calls"] == len(SEEDS) * (EPISODES + 1) * SLOTS
    assert values["diffusion.sample_action.calls"] == 0
    assert values["neural.madds"] > 0
    layer_total = sum(values[f"layer.{layer}.ms"] for layer in bench_trace.LAYERS)
    assert layer_total == pytest.approx(values["experiment.run_experiment.ms"], rel=1e-6)


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == bench_trace.metric_units()
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads == {p.stem for p in (HERE / "workloads").glob("*.yaml")}


def test_command_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "skybench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "skybench/run.py", "--workload", "rollout_full", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "skysched" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "skybench"]
