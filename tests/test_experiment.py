import csv
import json
import math
import tracemalloc
from pathlib import Path

import pytest
import scipy.special
import yaml

from skysched import agents, env as env_module, experiment
from skysched.cli import main as cli_main
from skysched.env import VehicularEnv
from skysched.errors import ConfigError, NonFiniteActionError, NonFiniteLossError, NonFiniteRewardError
from skysched.experiment import (
    _build_trace,
    emit_figure_data,
    load_config,
    parse_config,
    run_experiment,
)


def base_config(output_dir, **overrides):
    cfg = {
        "output_dir": str(output_dir),
        "seeds": [0],
        "scenario": {"m_links": 3, "k_links": 3, "n_slots": 8},
        "channel": {"t_delay": 0.01},
        "lyapunov": {"v_weight": 100.0},
        "agents": {
            "kinds": ["random"],
            "episodes": 2,
            "hyperparams": {"preset": "desk", "hidden_width": 16, "batch_size": 4, "warmup_steps": 4},
        },
        "mobility": {"platoon": {"n_vehicles": 9, "mean_speed": 13.89, "spacing": 25.0, "seed": 5}},
        "env": {"outage_samples": 50},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- validation ---------------------------------------------------------------

# Non-finite values each dataclass must reject by name; before these checks a
# run failed at its first slot instead.
NON_FINITE_CASES = [
    (lambda c: c.update(energy={"weight": math.nan}), "energy: weight must be finite"),
    (lambda c: c["lyapunov"].update(v_weight=math.nan), "lyapunov: v_weight must be finite"),
    (lambda c: c["lyapunov"].update(gamma_pen=math.inf), "lyapunov: gamma_pen must be finite"),
    (lambda c: c["scenario"].update(e_th=math.inf), "scenario: e_th must be finite"),
    (lambda c: c["scenario"].update(p_max=math.nan), "scenario: p_max must be finite"),
    (lambda c: c["scenario"].update(slot_duration=math.nan), "scenario: slot_duration must be finite"),
    (lambda c: c["scenario"].update(dh_max=math.nan), "scenario: dh_max must be finite"),
    (lambda c: c["agents"]["hyperparams"].update(lr_actor=math.nan), "agents.hyperparams: lr_actor must be finite"),
]

# Integer fields given a float, a bool or a negative seed; before these checks
# validation passed them and the run failed, or wrote True as a seed.
INTEGER_CASES = [
    (lambda c: c.update(seeds=[-1]), "seeds: each must be an integer >= 0, got -1"),
    (lambda c: c.update(seeds=[True]), "seeds: each must be an integer >= 0, got True"),
    (lambda c: c["agents"]["hyperparams"].update(hidden_width=8.5), "agents.hyperparams: hidden_width must be an integer"),
    (lambda c: c["agents"]["hyperparams"].update(batch_size=2.5), "agents.hyperparams: batch_size must be an integer"),
    (lambda c: c["agents"]["hyperparams"].update(batch_size=True), "agents.hyperparams: batch_size must be an integer, got True"),
    (lambda c: c["agents"]["hyperparams"].update(warmup_steps=1.5), "agents.hyperparams: warmup_steps must be an integer"),
    (lambda c: c["agents"]["hyperparams"].update(denoise_steps=2.0), "agents.hyperparams: denoise_steps must be an integer"),
    (lambda c: c.update(sweep={"denoise_steps": [2.0]}), "sweep.denoise_steps: denoise_steps must be an integer"),
    (lambda c: c["agents"].update(episodes=True), "agents.episodes: required integer >= 1, got True"),
    (lambda c: c.update(env={"outage_samples": True}), "env.outage_samples: must be an integer >= 1, got True"),
    (lambda c: c.update(env={"normalizer_warmup": False}), "env.normalizer_warmup: must be an integer >= 0, got False"),
]


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(base_config(tmp_path / "out"))
    assert cfg.episodes == 2
    assert cfg.agent_kinds == ["random"]


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda c: c.pop("seeds"), "seeds"),
        (lambda c: c.update(seeds=[0, 0]), "seeds"),
        (lambda c: c["scenario"].update(k_links=9), "k_links"),
        (lambda c: c["agents"].update(kinds=["bogus"]), "agents.kinds"),
        (lambda c: c["agents"].pop("episodes"), "agents.episodes"),
        (lambda c: c["agents"]["hyperparams"].update(preset="x"), "preset"),
        (lambda c: c.update(mobility={}), "mobility"),
        (lambda c: c["mobility"]["platoon"].pop("spacing"), "mobility.platoon"),
        (lambda c: c["mobility"]["platoon"].update(n_vehicles=5), "n_vehicles"),
        (lambda c: c.update(sweep={"bogus_key": [1]}), "sweep.bogus_key"),
        (lambda c: c.update(sweep={"k_links": []}), "sweep.k_links"),
        (lambda c: c.update(sweep={"k_links": [9]}), "k_links"),
        (lambda c: c["scenario"].update(nonsense=1), "scenario"),
        (lambda c: c.update(env={"outage_samples": 0}), "outage_samples"),
        (lambda c: c.update(unknown_block={}), "unknown"),
        (lambda c: c["scenario"].update(pairing={"v2u_tx": [0, 1, 2]}), "scenario.pairing"),
        (lambda c: c["agents"]["hyperparams"].update(update_every=0), "agents.hyperparams: update_every"),
        (lambda c: c["agents"]["hyperparams"].update(power_levels=1), "agents.hyperparams: power_levels"),
        (lambda c: c["agents"]["hyperparams"].update(altitude_levels=0), "agents.hyperparams: altitude_levels"),
        # values a run would reject with a traceback; parse rejects them first
        (lambda c: c.update(sweep={"t_delay": [0.01, -1.0]}), "sweep.t_delay"),
        (lambda c: c.update(sweep={"v_weight": [0.0]}), "sweep.v_weight"),
        (lambda c: c.update(sweep={"k_links": [0]}), "sweep.k_links: m_links, k_links and n_slots"),
        (lambda c: c.update(sweep={"denoise_steps": [2, 0]}), "sweep.denoise_steps"),
        (lambda c: c["scenario"].update(k_links=0), "scenario: m_links, k_links and n_slots"),
        (lambda c: c["agents"]["hyperparams"].update(denoise_steps=0), "agents.hyperparams: denoise_steps"),
        (lambda c: c["agents"]["hyperparams"].update(buffer_capacity=0), "agents.hyperparams: buffer_capacity"),
        (lambda c: c["agents"]["hyperparams"].update(beta_min=20.0), "agents.hyperparams: need 0 < beta_min < beta_max"),
        (lambda c: c["agents"]["hyperparams"].update(hidden_width=0), "agents.hyperparams: hidden_width"),
        (lambda c: c["mobility"]["platoon"].update(spacing=0.0), "mobility.platoon.spacing"),
        (lambda c: c["mobility"]["platoon"].update(n_vehicles="6"), "mobility.platoon.n_vehicles: expected an integer"),
        (lambda c: c["mobility"]["platoon"].update(seed=True), "mobility.platoon.seed: expected an integer"),
        (lambda c: c["mobility"]["platoon"].update(seed=-1), "mobility.platoon.seed: must be >= 0"),
        (lambda c: c["mobility"]["platoon"].update(mean_speed="fast"), "mobility.platoon.mean_speed"),
        (lambda c: c["mobility"].update(platoon=5), "mobility.platoon: expected a mapping"),
        (lambda c: c["scenario"].update(k_links=2.5), "scenario: k_links must be an integer"),
        (lambda c: c["scenario"].update(n_slots=True), "scenario: n_slots must be an integer"),
        (lambda c: c.update(sweep={"k_links": [2.5]}), "sweep.k_links: k_links must be an integer"),
        (lambda c: c["agents"].update(hyperparams=5), "agents.hyperparams: expected a mapping"),
        (lambda c: c.update(output_dir=None), "output_dir: expected a path string"),
        (lambda c: c["channel"].update(t_delay=math.nan), "channel: t_delay must be finite"),
        (lambda c: c["channel"].update(bandwidth_per_channel=math.nan), "channel: bandwidth_per_channel must be finite"),
        (lambda c: c["channel"].update(s_rel_min=-1.0), "channel: s_rel_min must be >= 0"),
        (lambda c: c["lyapunov"].update(v_weight="big"), "lyapunov: v_weight must be finite, got 'big'"),
        (lambda c: c["scenario"].update(p_max=None), "scenario: p_max must be finite, got None"),
        *NON_FINITE_CASES,
        *INTEGER_CASES,
    ],
)
def test_validation_errors_name_the_field(tmp_path, mutate, needle):
    cfg = base_config(tmp_path / "out")
    mutate(cfg)
    with pytest.raises(ConfigError, match=needle):
        parse_config(cfg)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_builds_and_resets_an_env(path):
    cfg = load_config(path)
    env = VehicularEnv(cfg.scenario, cfg.channel, cfg.energy, cfg.lyapunov, _build_trace(cfg), seed=cfg.seeds[0])
    state, info = env.reset()
    assert state.shape == (cfg.scenario.state_dim,)
    assert info["slot"] == 0


def test_shipped_configs_are_found():
    assert {p.name for p in SHIPPED_CONFIGS} >= {"toy.yaml", "full_scale.yaml", "delay_sweep.yaml"}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_load_config_trace_file_checked(tmp_path):
    cfg = base_config(tmp_path / "out", mobility={"trace": "missing.csv"})
    with pytest.raises(ConfigError, match="mobility.trace"):
        parse_config(cfg, base_dir=tmp_path)


# -- run_experiment ------------------------------------------------------------


def test_run_writes_expected_schema(tmp_path):
    cfg = parse_config(base_config(tmp_path / "out"))
    result = run_experiment(cfg)
    metrics_header = (
        "run_id,seed,episode,slot,reward,mean_v2u_rate_mbps,energy_j,moving_avg_energy_j,queue_j,outage_violations\n"
    )
    with open(result.metrics_path) as fh_metrics, open(result.eval_path) as fh_eval, open(result.timing_path) as fh_timing:
        assert fh_metrics.readline() == metrics_header
        assert fh_eval.readline() == metrics_header
        assert fh_timing.readline() == "run_id,seed,episode,slot,inference_ms\n"
    rows = read_rows(result.metrics_path)
    assert len(rows) == 2 * 8  # episodes * slots, training rows only
    eval_rows = read_rows(result.eval_path)
    assert len(eval_rows) == 8
    assert all(int(r["episode"]) == 2 for r in eval_rows)
    summary = json.loads(result.summary_path.read_text())
    assert summary["schema"] == "skysched-summary-v1"
    assert "random" in summary["runs"]
    timing = read_rows(result.timing_path)
    assert len(timing) == 3 * 8


def _nan_on_call(fn, call):
    """fn, except that its result is multiplied by NaN on the given call."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return out * math.nan if len(calls) == call else out

    return patched


@pytest.mark.parametrize(
    "owner, name, error",
    [(env_module, "propulsion_power", NonFiniteRewardError), (agents.RandomAgent, "act", NonFiniteActionError)],
    ids=["reward", "action"],
)
def test_run_fails_loudly_naming_run_episode_and_slot(tmp_path, monkeypatch, owner, name, error):
    """A NaN flight power (so a NaN reward) or a NaN action in the 4th slot
    stops the run with an error naming the run, seed, episode and slot."""
    monkeypatch.setattr(owner, name, _nan_on_call(getattr(owner, name), 4))
    cfg = parse_config(base_config(tmp_path / "out"))
    with pytest.raises(error, match="run random, seed 0: episode 0, slot 3"):
        run_experiment(cfg)
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize(
    "kind, rule, value",
    [
        ("ddpg", "critic_td_update", "critic loss"),
        ("ddpg", "actor_pg_update", "mean Q"),
        ("h_ddqn", "ddqn_update", "double-Q loss"),
    ],
)
def test_non_finite_loss_fails_loudly_naming_run_seed_and_update(tmp_path, monkeypatch, kind, rule, value):
    """An update rule returning NaN on its 3rd call stops the run with an
    error naming the run, seed, update count and which value it was."""
    monkeypatch.setattr(agents, rule, _nan_on_call(getattr(agents, rule), 3))
    raw = base_config(tmp_path / "out")
    raw["agents"]["kinds"] = [kind]
    with pytest.raises(NonFiniteLossError, match=f"run {kind}, seed 0: update 3: {value} is nan"):
        run_experiment(parse_config(raw))
    assert not (tmp_path / "out" / "metrics.csv").exists()


FINAL_NAMES = ("metrics.csv", "eval.csv", "timing.csv", "summary.json")


def test_interrupted_run_keeps_completed_seeds_and_reruns_identically(tmp_path, monkeypatch):
    """A run that fails in the 2nd seed's train() leaves no final-named file,
    and metrics.csv.partial holds exactly seed 0's rows. A rerun into the same
    directory is byte-identical to an uninterrupted run."""
    whole = run_experiment(parse_config(base_config(tmp_path / "whole", seeds=[0, 1])))
    calls = []

    def failing_train(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return agents.train(*args, **kwargs)

    cfg = parse_config(base_config(tmp_path / "out", seeds=[0, 1]))
    monkeypatch.setattr(experiment, "train", failing_train)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_experiment(cfg)
    out = tmp_path / "out"
    assert not any((out / name).exists() for name in FINAL_NAMES)
    header, *lines = whole.metrics_path.read_text().splitlines(keepends=True)
    seed0 = [line for line in lines if line.split(",")[1] == "0"]
    assert len(seed0) == 2 * 8
    assert (out / "metrics.csv.partial").read_text() == header + "".join(seed0)

    monkeypatch.setattr(experiment, "train", agents.train)
    rerun = run_experiment(cfg)
    assert sorted(p.name for p in out.iterdir()) == sorted(FINAL_NAMES)
    for name in ("metrics_path", "eval_path"):
        assert getattr(rerun, name).read_bytes() == getattr(whole, name).read_bytes()
    assert rerun.summary_path.read_text().replace(str(out), "") == whole.summary_path.read_text().replace(
        str(tmp_path / "whole"), ""
    )


def test_failed_rerun_leaves_no_earlier_final_files(tmp_path, monkeypatch):
    """A rerun into the directory of a finished run that fails on its 4th
    action leaves only .partial files: none of the earlier run's final-named
    files survive to be read as the rerun's."""
    cfg = parse_config(base_config(tmp_path / "out"))
    run_experiment(cfg)
    monkeypatch.setattr(agents.RandomAgent, "act", _nan_on_call(agents.RandomAgent.act, 4))
    with pytest.raises(NonFiniteActionError):
        run_experiment(cfg)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        ["metrics.csv.partial", "eval.csv.partial", "timing.csv.partial"]
    )


def _rows_only_train(kind, env, hp, seed, episodes, *, run_id):
    """Stands in for train(): fresh rows of a 25-episode, 100-slot run, without env steps."""

    def episode_rows(episode):
        return [
            agents.SlotRecord(run_id, seed, episode, t, -1.0 - t, 2.0 + t, 3.0 + t, 4.0 + t, 5.0 + t, 0, 0.5 + t)
            for t in range(100)
        ]

    records = [row for episode in range(25) for row in episode_rows(episode)]
    return agents.TrainResult([-1.0] * 25, records, None, episode_rows(25))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_holds_one_seed_of_rows(tmp_path, monkeypatch):
    """Each seed's rows go to disk when its train() returns, so a 4-seed run
    peaks within 10% of a 1-seed run (2,600 rows per seed)."""
    monkeypatch.setattr(experiment, "train", _rows_only_train)
    peaks = [
        _traced_peak(run_experiment, parse_config(base_config(tmp_path / f"s{len(seeds)}", seeds=seeds)))
        for seeds in ([0], [0, 1, 2, 3])
    ]
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert len(read_rows(tmp_path / "s4" / "metrics.csv")) == 4 * 25 * 100


def test_row_order_under_a_sweep_and_several_seeds(tmp_path):
    """Rows come in (sweep point, kind, seed) order: metrics.csv holds the
    training rows, eval.csv the evaluation rows, and timing.csv each run's
    training rows followed by its evaluation rows."""
    raw = base_config(tmp_path / "out", seeds=[0, 1], sweep={"t_delay": [0.004, 0.01]})
    raw["agents"]["kinds"] = ["random", "ddpg"]
    result = run_experiment(parse_config(raw))
    runs = [(f"{kind}__t_delay={t}", seed) for t in (0.004, 0.01) for kind in ("random", "ddpg") for seed in (0, 1)]

    def keys(path):
        return [(r["run_id"], int(r["seed"]), int(r["episode"]), int(r["slot"])) for r in read_rows(path)]

    assert keys(result.metrics_path) == [(run, seed, ep, t) for run, seed in runs for ep in (0, 1) for t in range(8)]
    assert keys(result.eval_path) == [(run, seed, 2, t) for run, seed in runs for t in range(8)]
    assert keys(result.timing_path) == [(run, seed, ep, t) for run, seed in runs for ep in (0, 1, 2) for t in range(8)]


def test_summary_means_are_seed_averages(tmp_path):
    cfg = parse_config(base_config(tmp_path / "out", seeds=[0, 1]))
    result = run_experiment(cfg)
    info = result.summary["runs"]["random"]
    for key, mean_value in info["mean"].items():
        per_seed = [info["per_seed"][s][key] for s in ("0", "1")]
        assert mean_value == pytest.approx(sum(per_seed) / 2.0, rel=1e-12)


def test_mean_and_stderr_sum_left_to_right():
    """CPython 3.12's compensated sum() gives 1/3 here; the outputs sum in
    order on every interpreter, so summary.json does not depend on it."""
    assert experiment._mean([1e16, 1.0, -1e16]) == 0.0
    assert experiment._mean([0.1] * 10) == 0.09999999999999999
    assert experiment._mean([1, 2, 4]) == 7 / 3


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = parse_config(base_config(tmp_path / "a"))
    cfg_b = parse_config(base_config(tmp_path / "b"))
    ra, rb = run_experiment(cfg_a), run_experiment(cfg_b)
    for name in ("metrics_path", "eval_path"):
        assert getattr(ra, name).read_bytes() == getattr(rb, name).read_bytes()
    sa = json.loads(ra.summary_path.read_text())
    sb = json.loads(rb.summary_path.read_text())
    sa["config"].pop("output_dir")
    sb["config"].pop("output_dir")
    assert sa == sb


def test_trace_file_config_runs(tmp_path):
    from skysched.mobility import generate_platoon, write_trace

    trace = generate_platoon(9, 13.89, 25.0, 9, seed=1)
    trace_path = tmp_path / "trace.csv"
    write_trace(trace, trace_path)
    cfg = base_config(tmp_path / "out", mobility={"trace": str(trace_path)})
    result = run_experiment(parse_config(cfg))
    assert result.metrics_path.exists()


# -- figures -------------------------------------------------------------------


@pytest.fixture(scope="module")
def delay_sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = base_config(
        out / "metrics",
        sweep={"t_delay": [0.002, 0.004, 0.006, 0.008, 0.010]},
        agents={
            "kinds": ["random"],
            "episodes": 1,
            "hyperparams": {"preset": "desk", "hidden_width": 16, "batch_size": 4},
        },
    )
    result = run_experiment(parse_config(cfg))
    return result.output_dir


def test_energy_figure_moving_average_recomputation(tmp_path):
    cfg = parse_config(base_config(tmp_path / "out"))
    result = run_experiment(cfg)
    path = emit_figure_data(result.output_dir, "energy_vs_slot")
    fig_rows = read_rows(path)
    eval_rows = read_rows(result.eval_path)
    cumulative = 0.0
    for row in fig_rows:
        slot = int(row["slot"])
        energy = float(eval_rows[slot]["energy_j"])
        cumulative += energy
        assert float(row["moving_avg_energy_j_mean"]) == pytest.approx(cumulative / (slot + 1), rel=1e-9)


def test_reward_curve_figure(tmp_path):
    cfg = parse_config(base_config(tmp_path / "out"))
    result = run_experiment(cfg)
    path = emit_figure_data(result.output_dir, "reward_curve")
    rows = read_rows(path)
    metrics = read_rows(result.metrics_path)
    ep0 = sum(float(r["reward"]) for r in metrics if r["episode"] == "0")
    got = next(r for r in rows if r["episode"] == "0")
    assert float(got["reward_mean"]) == pytest.approx(ep0, rel=1e-9)
    assert float(got["reward_stderr"]) == 0.0  # single seed


def test_delay_figure_emits_decreasing_j0(delay_sweep_dir):
    path = emit_figure_data(delay_sweep_dir, "rate_vs_delay")
    rows = read_rows(path)
    delays = [float(r["t_delay"]) for r in rows]
    j0s = [float(r["j0_correlation"]) for r in rows]
    assert delays == sorted(delays)
    assert all(a > b for a, b in zip(j0s, j0s[1:]))
    base = 2.0 * math.pi * 5.9e9 * 1.5 / 299_792_458.0
    for d, j in zip(delays, j0s):
        assert j == float(scipy.special.j0(base * d))


def test_missing_sweep_dimension_is_diagnosed(tmp_path):
    cfg = parse_config(base_config(tmp_path / "out"))
    result = run_experiment(cfg)
    with pytest.raises(ConfigError, match="available sweep dimensions"):
        emit_figure_data(result.output_dir, "rate_vs_K")


def test_runtime_table_shape(delay_sweep_dir):
    path = emit_figure_data(delay_sweep_dir, "runtime_table")
    rows = read_rows(path)
    assert len(rows) == 1  # one agent
    assert rows[0]["agent"] == "random"
    assert "k_3" in rows[0]
    inference_ms = [float(r["inference_ms"]) for r in read_rows(delay_sweep_dir / "timing.csv")]
    assert float(rows[0]["k_3"]) == pytest.approx(sum(inference_ms) / len(inference_ms), rel=1e-12)


def _synthetic_outputs(directory, slots):
    """summary.json plus metrics.csv, eval.csv and timing.csv of one run with
    2 seeds x 10 episodes x the given slots."""
    directory.mkdir()
    summary = {"config": {"scenario": {"k_links": 3}}, "runs": {"random": {"agent": "random", "sweep": {}}}}
    (directory / "summary.json").write_text(json.dumps(summary))
    keys = [(seed, episode, t) for seed in (0, 1) for episode in range(10) for t in range(slots)]
    with open(directory / "metrics.csv", "w") as fh:
        fh.write("run_id,seed,episode,slot,reward,mean_v2u_rate_mbps,energy_j,moving_avg_energy_j,queue_j,outage_violations\n")
        fh.writelines(f"random,{s},{e},{t},-{t}.5,1.5,2.5,3.5,4.5,0\n" for s, e, t in keys)
    with open(directory / "timing.csv", "w") as fh:
        fh.write("run_id,seed,episode,slot,inference_ms\n")
        fh.writelines(f"random,{s},{e},{t},0.{t}\n" for s, e, t in keys)


@pytest.mark.parametrize("kind", ["reward_curve", "runtime_table"])
def test_streamed_figure_peak_does_not_grow_with_rows(tmp_path, kind):
    """The emitters stream their CSV, so 4x the rows (20,000 against 5,000)
    leaves the tracemalloc peak within 10%."""
    peaks = []
    for slots in (250, 1000):
        _synthetic_outputs(tmp_path / str(slots), slots)
        peaks.append(_traced_peak(emit_figure_data, tmp_path / str(slots), kind))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_rate_vs_k_figure(tmp_path):
    cfg = base_config(
        tmp_path / "out",
        sweep={"k_links": [2, 3]},
        mobility={"platoon": {"n_vehicles": 9, "mean_speed": 13.89, "spacing": 25.0, "seed": 5}},
    )
    result = run_experiment(parse_config(cfg))
    path = emit_figure_data(result.output_dir, "rate_vs_K")
    rows = read_rows(path)
    assert [int(r["k_links"]) for r in rows] == [2, 3]


def test_tradeoff_figure(tmp_path):
    cfg = base_config(tmp_path / "out", sweep={"v_weight": [10.0, 100.0]})
    result = run_experiment(parse_config(cfg))
    path = emit_figure_data(result.output_dir, "tradeoff_vs_V")
    rows = read_rows(path)
    assert [float(r["v_weight"]) for r in rows] == [10.0, 100.0]
    assert all("sum_rate_mbps_mean" in r and "energy_avg_j_mean" in r for r in rows)


def test_unknown_figure_kind(tmp_path):
    with pytest.raises(ConfigError, match="unknown kind"):
        emit_figure_data(tmp_path, "pie_chart")


# -- CLI ------------------------------------------------------------------------


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli_main(["validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg.pop("seeds")
    path = write_config(tmp_path, cfg)
    assert cli_main(["validate", str(path)]) == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda c: c["channel"].update(t_delay=math.nan), "channel: t_delay"),
        (lambda c: c.update(output_dir=None), "output_dir"),
        *NON_FINITE_CASES,
        *INTEGER_CASES,
    ],
)
def test_cli_validate_exits_2_naming_the_field(tmp_path, capsys, mutate, needle):
    """YAML's .nan and null reach the checks as written and give exit 2."""
    cfg = base_config(tmp_path / "out")
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    assert cli_main(["validate", str(path)]) == 2
    assert needle in capsys.readouterr().err


def test_cli_run_and_figure(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli_main(["run", "--quiet", str(path)]) == 0
    out = capsys.readouterr().out
    assert "metrics" in out
    assert cli_main(["figure", "reward_curve", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "figures" / "reward_curve.csv").exists()


def test_cli_figure_missing_dir(tmp_path):
    assert cli_main(["figure", "reward_curve", str(tmp_path / "nope")]) == 2
