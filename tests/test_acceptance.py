"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured runtime against the stated budget.

The training-based criteria share one module-scoped fixture (11 seeded runs on
the toy scenario); each criterion's runtime assertion covers the wall time of
the runs it actually needs.
"""

import copy
import itertools
import math
import time

import numpy as np
import pytest

from skysched.agents import desk_scale_hyperparams, hungarian_assign, train
from skysched.channel import ChannelParams, age_fading, aging_correlation, bessel_j0
from skysched.diffusion import build_schedule
from skysched.energy import PowerModelParams, propulsion_power
from skysched.env import NetworkScenario, VehicularEnv, amend_action, build_state
from skysched.experiment import emit_figure_data, parse_config, run_experiment
from skysched.lyapunov import (
    LyapunovConfig,
    VirtualQueue,
    check_queue_step_bound,
    check_quadratic_drift_bound,
    queue_update,
)
from skysched.mobility import generate_platoon
from skysched.neural import backward, forward, forward_only, init_dense

E_TH = 120.0
CRUISE = 50.0 / 3.6


def report(number: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget:.0f}s"


def j0_series(x: float, terms: int = 30) -> float:
    total, term = 0.0, 1.0
    for k in range(terms):
        if k > 0:
            term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


# -- shared toy-scenario training runs ----------------------------------------

TOY_SCENARIO = NetworkScenario(m_links=4, k_links=4, n_slots=100)
TOY_EPISODES = 50
RUN_PLAN = (
    [("d3pg", s) for s in (0, 1, 2)]
    + [("ddpg", s) for s in (0, 1, 2)]
    + [("random", s) for s in (0, 1, 2)]
    + [("d3pg_wcsi", 0), ("h_ddqn", 0)]
)


@pytest.fixture(scope="module")
def toy_runs():
    trace = generate_platoon(12, 13.89, 25.0, TOY_SCENARIO.n_slots + 1, seed=7)
    hp = desk_scale_hyperparams()
    runs = {}
    for kind, seed in RUN_PLAN:
        env = VehicularEnv(
            TOY_SCENARIO,
            ChannelParams(),
            PowerModelParams(),
            LyapunovConfig(),
            trace,
            seed=seed,
            observe_aged=(kind != "d3pg_wcsi"),
        )
        start = time.perf_counter()
        result = train(kind, env, hp, seed=seed, episodes=TOY_EPISODES, run_id=f"{kind}")
        runs[(kind, seed)] = {"result": result, "wall_s": time.perf_counter() - start}
    return runs


def final10_mean(result) -> float:
    return float(np.mean(result.episode_rewards[-10:]))


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_physics_oracles():
    start = time.perf_counter()
    ok = True

    xs = np.linspace(-12.0, 12.0, 1201)
    ok &= all(abs(bessel_j0(float(x)) - j0_series(float(x))) <= 1e-10 for x in xs)

    # Path loss: free-space recomputation, LoS and NLoS branches.
    from skysched.channel import v2u_path_loss, v2v_path_loss
    from skysched.mobility import UavState, VehicleState

    params = ChannelParams()
    uav = UavState(x=0.0, y=0.0, altitude=100.0)
    veh = VehicleState(id=0, x=0.0, y=0.0, speed=13.89)
    fspl = 20.0 * math.log10(4.0 * math.pi * params.carrier_frequency * 100.0 / params.light_speed)
    ok &= abs(v2u_path_loss(uav, veh, params, pr_los=1.0) / (fspl + 1.0) - 1.0) <= 1e-6
    ok &= abs(v2u_path_loss(uav, veh, params, pr_los=0.0) / (fspl + 20.0) - 1.0) <= 1e-6
    rx = VehicleState(id=1, x=50.0, y=0.0, speed=13.89)
    ok &= abs(v2v_path_loss(veh, rx) / (44.23 + 16.7 * math.log10(50.0)) - 1.0) <= 1e-6

    # Noise power: N0*B from first principles, and the documented 7.96e-15 W.
    noise_oracle = 10.0 ** (-174.0 / 10.0) * 1e-3 * 2e6
    ok &= abs(params.noise_power / noise_oracle - 1.0) <= 1e-6
    ok &= abs(params.noise_power / 7.96e-15 - 1.0) <= 1e-3  # printed value is rounded

    # Propulsion at 50 km/h level flight, term-by-term oracle.
    p = PowerModelParams()
    vh2 = CRUISE**2
    oracle = (
        p.p0_hover_blade * (1.0 + 3.0 * vh2 / (p.omega**2 * p.rotor_radius**2))
        + p.p1_hover_induced * p.v0_induced / vh2
        + 0.5 * p.d0_drag_ratio * p.air_density * p.rotor_solidity * p.rotor_disc_area * vh2**1.5
    )
    power = propulsion_power((CRUISE, 0.0, 0.0), p)
    ok &= abs(power / oracle - 1.0) <= 1e-6
    ok &= abs(power - 97.3) <= 0.1

    report(1, "physics oracles", bool(ok), time.perf_counter() - start, 1.0)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_lyapunov_inequalities():
    start = time.perf_counter()
    ok = True

    rng = np.random.default_rng(0)
    queue = VirtualQueue(0.0, E_TH, 1.0)
    for _ in range(100_000):
        power = rng.uniform(-10.0, 400.0)
        nxt = queue_update(queue, power)
        ok &= check_queue_step_bound(queue.q, nxt.q, power, E_TH, 1.0)
        ok &= check_quadratic_drift_bound(queue.q, nxt.q, power, E_TH, 1.0)
        queue = nxt if rng.random() > 0.01 else VirtualQueue(float(rng.uniform(0, 500)), E_TH, 1.0)
        if not ok:
            break

    # Pathwise telescoped bound on closed-loop simulated runs.
    scenario = TOY_SCENARIO
    trace = generate_platoon(12, 13.89, 25.0, 101, seed=7)
    for seed in (0, 1):
        env = VehicularEnv(scenario, ChannelParams(), PowerModelParams(), LyapunovConfig(), trace, seed=seed)
        result = train("random", env, desk_scale_hyperparams(), seed=seed, episodes=2)
        for episode in (0, 1):
            rows = [r for r in result.records if r.episode == episode]
            avg_energy = float(np.mean([r.energy_j for r in rows]))
            q_final = rows[-1].queue_j
            ok &= avg_energy <= E_TH + q_final / len(rows) + 1e-9

    report(2, "Lyapunov inequality suite", bool(ok), time.perf_counter() - start, 5.0)


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_energy_constraint(toy_runs):
    needed = [("d3pg", 0), ("d3pg_wcsi", 0), ("ddpg", 0), ("h_ddqn", 0)]
    ok = True
    for key in needed:
        result = toy_runs[key]["result"]
        train_final = result.records[-1].moving_avg_energy_j
        eval_final = result.eval_records[-1].moving_avg_energy_j
        print(f"  {key[0]}: final moving-average energy train={train_final:.1f} J eval={eval_final:.1f} J")
        ok &= train_final <= E_TH and eval_final <= E_TH
    elapsed = sum(toy_runs[key]["wall_s"] for key in needed)
    report(3, "energy constraint on trained agents", bool(ok), elapsed, 600.0)


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_csi_aging(tmp_path):
    start = time.perf_counter()
    ok = True

    # Figure route: delay sweep below the first Bessel zero.
    cfg = parse_config(
        {
            "output_dir": str(tmp_path / "out"),
            "seeds": [0],
            "scenario": {"m_links": 3, "k_links": 3, "n_slots": 10},
            "agents": {"kinds": ["random"], "episodes": 1, "hyperparams": {"preset": "desk"}},
            "mobility": {"platoon": {"n_vehicles": 9, "mean_speed": 13.89, "spacing": 25.0, "seed": 5}},
            "sweep": {"t_delay": [0.002, 0.004, 0.006, 0.008, 0.010]},
        }
    )
    result = run_experiment(cfg)
    fig = emit_figure_data(result.output_dir, "rate_vs_delay")
    import csv as _csv

    with open(fig, newline="") as fh:
        rows = list(_csv.DictReader(fh))
    delays = [float(r["t_delay"]) for r in rows]
    j0s = [float(r["j0_correlation"]) for r in rows]
    params = ChannelParams()
    args = [2.0 * math.pi * params.carrier_frequency * params.s_rel_min * d / params.light_speed for d in delays]
    ok &= all(a < 2.405 for a in args)
    ok &= all(a > b for a, b in zip(j0s, j0s[1:]))  # strictly decreasing

    # Empirical Gauss-Markov correlation matches J0 within 3 standard errors.
    aging_params = ChannelParams(t_delay=0.010)
    rho = aging_correlation(1.5, aging_params)
    n = 100_000
    rng = np.random.default_rng(11)
    g_hat = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(0.5)
    aged = age_fading(g_hat, 1.5, aging_params, rng)
    corr = np.real(aged * np.conj(g_hat))
    se = float(np.std(corr, ddof=1) / math.sqrt(n))
    ok &= abs(float(np.mean(corr)) - rho) < 3 * se

    report(4, "CSI-aging behavior", bool(ok), time.perf_counter() - start, 30.0)


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_feasibility():
    start = time.perf_counter()
    ok = True
    sc = TOY_SCENARIO
    rng = np.random.default_rng(0)
    for _ in range(100_000):
        act = amend_action(rng.uniform(-1.0, 1.0, sc.action_dim), sc)
        if not (
            np.all((act.x == 0) | (act.x == 1))
            and np.all(act.x.sum(axis=1) == 1)
            and np.all(act.x.sum(axis=0) <= 1)
            and np.all((act.p_m >= 0.0) & (act.p_m <= sc.p_max))
            and np.all((act.p_k >= 0.0) & (act.p_k <= sc.p_max))
            and abs(act.delta_h) <= sc.dh_max
        ):
            ok = False
            break

    # Closed loop: altitude stays within [h_min, h_max] under bound-pushing actions.
    trace = generate_platoon(12, 13.89, 25.0, 101, seed=7)
    env = VehicularEnv(TOY_SCENARIO, ChannelParams(), PowerModelParams(), LyapunovConfig(), trace, seed=3,
                       outage_samples=50)
    env.reset(0)
    for t in range(env.n_slots):
        raw = rng.uniform(-1.0, 1.0, sc.action_dim)
        raw[-1] = 1.0 if t < 60 else -1.0
        _, _, _, info = env.step(raw)
        ok &= sc.h_min <= info["uav"].altitude <= sc.h_max

    report(5, "action feasibility", bool(ok), time.perf_counter() - start, 10.0)


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_learning_machinery():
    start = time.perf_counter()
    ok = True

    # Finite-difference gradient check over 20 random nets (central differences,
    # subsampled parameters, draws re-rolled when a ReLU pre-activation sits
    # within 10h of its kink where the FD oracle is invalid).
    rng = np.random.default_rng(2025)
    checked = 0
    attempt = 0
    while checked < 20:
        attempt += 1
        sizes = (
            int(rng.integers(3, 30)),
            int(rng.integers(8, 64)),
            int(rng.integers(8, 64)),
            int(rng.integers(1, 8)),
        )
        net = init_dense(sizes, np.random.default_rng(attempt))
        x = rng.standard_normal(net.n_in)
        y, tape = forward(net, x)
        if min(float(np.min(np.abs(z))) for z in tape.pre) < 1e-4:
            continue
        grad_out = rng.standard_normal(net.n_out)
        grads, _ = backward(net, tape, grad_out)
        h = 1e-5
        for _ in range(15):
            layer = int(rng.integers(len(net.weights)))
            r = int(rng.integers(net.weights[layer].shape[0]))
            c = int(rng.integers(net.weights[layer].shape[1]))
            orig = net.weights[layer][r, c]
            net.weights[layer][r, c] = orig + h
            up = float(grad_out @ forward_only(net, x))
            net.weights[layer][r, c] = orig - h
            down = float(grad_out @ forward_only(net, x))
            net.weights[layer][r, c] = orig
            fd = (up - down) / (2.0 * h)
            rel = abs(net.views(grads)[0][layer][r, c] - fd) / max(abs(fd), 1e-6)
            ok &= rel < 1e-5
        checked += 1

    # Diffusion schedule identities, exact.
    for steps in (1, 4, 8):
        sched = build_schedule(steps, 0.1, 10.0)
        running = 1.0
        for j in range(steps):
            running *= sched.phi[j]
            ok &= sched.phi_bar[j] == running
        ok &= sched.beta_bar[0] == 0.0
        for j in range(1, steps):
            ok &= sched.beta_bar[j] == (1.0 - sched.phi_bar[j - 1]) / (1.0 - sched.phi_bar[j]) * sched.beta[j]
        ok &= bool(np.all(sched.beta > 0) and np.all(sched.beta < 1) and np.all(np.diff(sched.beta) > 0))

    # Forward-marginal Monte-Carlo agreement within 3 sigma.
    sched = build_schedule(4, 0.1, 10.0)
    n = 100_000
    mc_rng = np.random.default_rng(5)
    samples = np.full(n, 0.8)
    for j in range(4):
        samples = math.sqrt(1 - sched.beta[j]) * samples + math.sqrt(sched.beta[j]) * mc_rng.standard_normal(n)
    mean_se = samples.std(ddof=1) / math.sqrt(n)
    ok &= abs(samples.mean() - math.sqrt(sched.phi_bar[3]) * 0.8) < 3 * mean_se
    var_se = samples.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    ok &= abs(samples.var(ddof=1) - (1.0 - sched.phi_bar[3])) < 3 * var_se

    # Hungarian vs brute force on 1e3 random instances with K <= 6.
    hug_rng = np.random.default_rng(6)
    for _ in range(1000):
        k = int(hug_rng.integers(1, 7))
        m = int(hug_rng.integers(k, 7))
        cost = hug_rng.uniform(-5.0, 5.0, size=(k, m))
        assignment, total = hungarian_assign(cost)
        best = min(
            sum(cost[r, c] for r, c in enumerate(cols)) for cols in itertools.permutations(range(m), k)
        )
        ok &= len(set(assignment)) == k
        ok &= abs(total - best) <= 1e-9 * max(1.0, abs(best))

    report(6, "learning machinery", bool(ok), time.perf_counter() - start, 60.0)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_directional_training(toy_runs):
    d3pg = [final10_mean(toy_runs[("d3pg", s)]["result"]) for s in (0, 1, 2)]
    ddpg = [final10_mean(toy_runs[("ddpg", s)]["result"]) for s in (0, 1, 2)]
    rand = [final10_mean(toy_runs[("random", s)]["result"]) for s in (0, 1, 2)]
    print(f"  d3pg final-10 rewards:   {[round(v) for v in d3pg]}")
    print(f"  ddpg final-10 rewards:   {[round(v) for v in ddpg]}")
    print(f"  random final-10 rewards: {[round(v) for v in rand]}")
    ok = min(d3pg) > max(rand)  # positive margin, non-overlapping seed ranges
    ok &= float(np.mean(d3pg)) >= float(np.mean(ddpg))
    needed = [(k, s) for k in ("d3pg", "ddpg", "random") for s in (0, 1, 2)]
    elapsed = sum(toy_runs[key]["wall_s"] for key in needed)
    report(7, "directional training result", bool(ok), elapsed, 1800.0)


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_wcsi_equivalence():
    start = time.perf_counter()
    ok = True

    scenario = NetworkScenario(m_links=3, k_links=3, n_slots=10)
    trace = generate_platoon(9, 13.89, 25.0, 11, seed=4)
    hp = desk_scale_hyperparams(hidden_width=16, batch_size=4, warmup_steps=5)

    def run(observe_aged, t_delay, kind):
        env = VehicularEnv(
            scenario, ChannelParams(t_delay=t_delay), PowerModelParams(), LyapunovConfig(), trace,
            seed=1, observe_aged=observe_aged, outage_samples=50,
        )
        return train(kind, env, hp, seed=1, episodes=2, run_id="x")

    res_aware = run(True, 0.0, "d3pg")
    res_blind = run(False, 0.0, "d3pg_wcsi")
    ok &= [r.reward for r in res_aware.records] == [r.reward for r in res_blind.records]
    ok &= [r.queue_j for r in res_aware.records] == [r.queue_j for r in res_blind.records]
    for wa, wb in zip(res_aware.agent.policy.net.weights, res_blind.agent.policy.net.weights):
        ok &= bool(np.array_equal(wa, wb))

    # With a 10 ms delay the two observation modes differ exactly on the V2V
    # gain entries of the state.
    env = VehicularEnv(
        scenario, ChannelParams(t_delay=0.010), PowerModelParams(), LyapunovConfig(), trace,
        seed=1, outage_samples=50,
    )
    _, info = env.reset(0)
    queue = VirtualQueue(0.0, scenario.e_th, 1.0)
    aged = build_state(info["gains"], queue, scenario, True, copy.deepcopy(env.normalizer))
    blind = build_state(info["gains"], queue, scenario, False, copy.deepcopy(env.normalizer))
    v2u_len = scenario.m_links + scenario.k_links
    ok &= bool(np.array_equal(aged[:v2u_len], blind[:v2u_len]))
    ok &= aged[-1] == blind[-1]
    ok &= bool(np.any(aged[v2u_len:-1] != blind[v2u_len:-1]))

    report(8, "delayed-CSI observation equivalence", bool(ok), time.perf_counter() - start, 60.0)


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    cfg_dict = {
        "output_dir": str(tmp_path / "out"),
        "seeds": [0, 1],
        "scenario": {"m_links": 3, "k_links": 3, "n_slots": 8},
        "agents": {
            "kinds": ["d3pg"],
            "episodes": 2,
            "hyperparams": {"preset": "desk", "hidden_width": 16, "batch_size": 4, "warmup_steps": 4},
        },
        "mobility": {"platoon": {"n_vehicles": 9, "mean_speed": 13.89, "spacing": 25.0, "seed": 5}},
        "env": {"outage_samples": 50},
    }
    first = run_experiment(parse_config(cfg_dict))
    snapshot = {
        name: getattr(first, name).read_bytes() for name in ("metrics_path", "eval_path", "summary_path")
    }
    second = run_experiment(parse_config(cfg_dict))  # same config, same output dir
    ok = all(getattr(second, name).read_bytes() == snapshot[name] for name in snapshot)
    report(9, "byte-identical rerun", bool(ok), time.perf_counter() - start, 120.0)
