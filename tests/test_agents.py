import itertools
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import skysched
import skysched.agents
from skysched.agents import (
    AgentHyperparams,
    ReplayBuffer,
    actor_pg_update,
    critic_td_update,
    ddqn_update,
    desk_scale_hyperparams,
    hungarian_assign,
    make_agent,
    train,
)
from skysched.channel import ChannelParams
from skysched.energy import PowerModelParams
from skysched.env import NetworkScenario, VehicularEnv
from skysched.lyapunov import LyapunovConfig
from skysched.mobility import generate_platoon
from skysched.neural import AdamState, DenseNet, clone, forward_only, init_dense


def brute_force_assignment(cost: np.ndarray):
    """Oracle: exhaustive minimum over injective row->column maps."""
    k, m = cost.shape
    best_cost, best = np.inf, None
    for cols in itertools.permutations(range(m), k):
        total = sum(cost[r, c] for r, c in enumerate(cols))
        if total < best_cost:
            best_cost, best = total, cols
    return np.array(best), best_cost


def toy_env(seed=0, t_delay=0.01, n_slots=10, observe_aged=True):
    scenario = NetworkScenario(m_links=3, k_links=3, n_slots=n_slots)
    trace = generate_platoon(9, 13.89, 25.0, n_slots + 1, seed=42)
    return VehicularEnv(
        scenario,
        ChannelParams(t_delay=t_delay),
        PowerModelParams(),
        LyapunovConfig(),
        trace,
        seed=seed,
        observe_aged=observe_aged,
        outage_samples=50,
    )


def tiny_hp(**kw):
    base = dict(hidden_width=16, batch_size=4, warmup_steps=5)
    base.update(kw)
    return desk_scale_hyperparams(**base)


# -- replay buffer ------------------------------------------------------------


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(3, np.random.default_rng(0))
    for i in range(5):
        buf.push(i)
    assert len(buf) == 3
    assert sorted(buf._items) == [2, 3, 4]


def test_buffer_uniform_seeded_sampling():
    buf = ReplayBuffer(100, np.random.default_rng(7))
    for i in range(50):
        buf.push(i)
    sample = buf.sample(32)
    assert len(sample) == 32
    assert all(0 <= s < 50 for s in sample)
    buf2 = ReplayBuffer(100, np.random.default_rng(7))
    for i in range(50):
        buf2.push(i)
    assert buf2.sample(32) == sample


# -- hungarian ----------------------------------------------------------------


def test_hungarian_documented_examples():
    assignment, cost = hungarian_assign(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert list(assignment) == [0, 1] and cost == 5.0
    assignment, cost = hungarian_assign(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert list(assignment) == [1, 0] and cost == 3.0


def test_hungarian_tied_costs_give_valid_assignment():
    assignment, cost = hungarian_assign(np.full((3, 3), 2.5))
    assert sorted(assignment) == [0, 1, 2]
    assert cost == pytest.approx(7.5)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError, match=r"need rows <= cols, got \(3, 2\)"):
        hungarian_assign(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        hungarian_assign(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        hungarian_assign(np.array([[0.0, np.nan], [1.0, 2.0]]))


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(k, 7))
        cost = rng.uniform(-5.0, 5.0, size=(k, m))
        assignment, total = hungarian_assign(cost)
        _, expected = brute_force_assignment(cost)
        assert sorted(set(assignment)) == sorted(assignment)  # injective
        assert total == pytest.approx(expected, rel=1e-12)


def test_hungarian_equals_scipy_optimize_bit_for_bit():
    """The compiled solver loaded without scipy.optimize gives scipy.optimize's
    assignment and a bitwise-equal total: 2,500 matrices each of continuous
    square, integer-valued with ties, rectangular K < M and 1 x M costs."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(15)
    draws = (
        lambda: rng.normal(size=(int(rng.integers(1, 13)),) * 2) * 10.0 ** rng.integers(-3, 4),
        lambda: rng.integers(-3, 4, size=(int(rng.integers(2, 9)),) * 2).astype(np.float64),
        lambda: rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 10)), int(rng.integers(10, 16)))),
        lambda: rng.integers(0, 3, size=(1, int(rng.integers(1, 21)))).astype(np.float64),
    )
    for draw in draws:
        for _ in range(2500):
            cost = draw()
            assignment, total = hungarian_assign(cost)
            rows, cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, np.arange(len(cost)))
            assert np.array_equal(assignment, cols)
            assert total.hex() == float(cost[rows, cols].sum()).hex()
    assert linear_sum_assignment is skysched.agents._lsap_solver()


def test_missing_lsap_extension_raises_import_error(monkeypatch):
    """No fallback: a scipy without the optimize/_lsap extension fails loudly,
    naming the paths tried and the scipy version."""
    import scipy

    monkeypatch.setattr(skysched.agents, "EXTENSION_SUFFIXES", [".missing-suffix"])
    skysched.agents._lsap_solver.cache_clear()
    try:
        with pytest.raises(ImportError, match=rf"scipy {scipy.__version__} .*_lsap\.missing-suffix"):
            hungarian_assign(np.zeros((2, 2)))
    finally:
        skysched.agents._lsap_solver.cache_clear()


# -- update rules -------------------------------------------------------------


def lin_critic(state_dim, action_dim, w_state=0.0, w_action=0.0):
    """Single-layer linear critic Q = w_s . s + w_a . a."""
    w = np.concatenate([np.full(state_dim, w_state), np.full(action_dim, w_action)])
    return DenseNet(weights=[w[None, :].copy()], biases=[np.zeros(1)])


def test_critic_update_regresses_to_reward_with_zero_discount():
    rng = np.random.default_rng(0)
    state_dim, action_dim = 3, 2
    critic = init_dense((state_dim + action_dim, 16, 1), rng)
    adam = AdamState.for_net(critic, lr=1e-2)
    hp = AgentHyperparams(discount=0.0, reward_scale=1.0)
    target_critic = clone(critic)
    batch = [
        (rng.standard_normal(state_dim), rng.standard_normal(action_dim), 1.7, rng.standard_normal(state_dim))
        for _ in range(8)
    ]
    losses = [
        critic_td_update(critic, adam, target_critic, lambda s: np.zeros((len(s), action_dim)), batch, hp)
        for _ in range(300)
    ]
    assert losses[-1] < losses[0] * 0.05
    q = forward_only(critic, np.concatenate([batch[0][0], batch[0][1]]))[0]
    assert q == pytest.approx(1.7, abs=0.2)


def test_critic_update_zero_loss_leaves_parameters():
    state_dim, action_dim = 2, 1
    critic = lin_critic(state_dim, action_dim, w_state=0.0, w_action=0.0)
    adam = AdamState.for_net(critic, lr=1e-2)
    hp = AgentHyperparams(discount=0.0, reward_scale=1.0)
    s, a = np.ones(state_dim), np.ones(action_dim)
    batch = [(s, a, 0.0, s)]  # Q(s, a) = 0 = y
    loss = critic_td_update(critic, adam, clone(critic), lambda s2: np.tile(a, (len(s2), 1)), batch, hp)
    assert loss == 0.0
    assert np.all(critic.weights[0] == 0.0)


def test_critic_update_loss_decreases_on_fixed_batch():
    rng = np.random.default_rng(1)
    state_dim, action_dim = 4, 3
    critic = init_dense((state_dim + action_dim, 24, 24, 1), rng)
    adam = AdamState.for_net(critic, lr=3e-3)
    hp = AgentHyperparams(discount=0.9, reward_scale=1.0)
    target_critic = clone(critic)
    target_actor = init_dense((state_dim, 8, action_dim), rng, output_activation="tanh")
    batch = [
        (rng.standard_normal(state_dim), np.tanh(rng.standard_normal(action_dim)), float(rng.normal()), rng.standard_normal(state_dim))
        for _ in range(16)
    ]
    policy = lambda s: forward_only(target_actor, s)
    first = critic_td_update(critic, adam, target_critic, policy, batch, hp)
    for _ in range(99):
        last = critic_td_update(critic, adam, target_critic, policy, batch, hp)
    assert last < first


def test_critic_update_loss_is_mean_of_per_sample_losses():
    rng = np.random.default_rng(9)
    state_dim, action_dim = 4, 3
    critic = init_dense((state_dim + action_dim, 16, 16, 1), rng)
    target_critic = init_dense((state_dim + action_dim, 16, 16, 1), rng)
    target_actor = init_dense((state_dim, 8, action_dim), rng, output_activation="tanh")
    policy = lambda s: forward_only(target_actor, s)
    hp = AgentHyperparams(discount=0.9, reward_scale=0.5)
    batch = [
        (rng.standard_normal(state_dim), np.tanh(rng.standard_normal(action_dim)), float(rng.normal()), rng.standard_normal(state_dim))
        for _ in range(10)
    ]

    def loss_on(transitions):
        net = clone(critic)
        return critic_td_update(net, AdamState.for_net(net, 1e-3), target_critic, policy, transitions, hp)

    per_sample = [loss_on([t]) for t in batch]
    assert loss_on(batch) == pytest.approx(np.mean(per_sample), rel=1e-12)


def test_ddqn_update_loss_is_mean_of_per_sample_losses():
    rng = np.random.default_rng(10)
    state_dim = 5
    heads = [(0, 4), (4, 4), (8, 5)]
    qnet = init_dense((state_dim, 16, 13), rng)
    target = init_dense((state_dim, 16, 13), rng)
    hp = AgentHyperparams(discount=0.9, reward_scale=0.5)
    batch = [
        (rng.standard_normal(state_dim), np.array([rng.integers(4), rng.integers(4), rng.integers(5)]), float(rng.normal()), rng.standard_normal(state_dim))
        for _ in range(10)
    ]

    def loss_on(transitions):
        net = clone(qnet)
        return ddqn_update(net, AdamState.for_net(net, 1e-3), target, transitions, hp, heads)

    per_sample = [loss_on([t]) for t in batch]
    assert loss_on(batch) == pytest.approx(np.mean(per_sample), rel=1e-12)


class _MlpPolicyForTest:
    def __init__(self, net, lr=1e-2):
        self.net = net
        self.adam = AdamState.for_net(net, lr=lr)

    def sample_for_training(self, state):
        from skysched.neural import backward, forward

        action, tape = forward(self.net, state)
        return action, lambda d: backward(self.net, tape, d)[0]


def test_actor_update_no_gradient_when_critic_ignores_action():
    rng = np.random.default_rng(2)
    state_dim, action_dim = 3, 2
    actor = init_dense((state_dim, 8, action_dim), rng, output_activation="tanh")
    policy = _MlpPolicyForTest(actor)
    before = [w.copy() for w in actor.weights]
    critic = lin_critic(state_dim, action_dim, w_state=0.7, w_action=0.0)
    states = [rng.standard_normal(state_dim) for _ in range(6)]
    actor_pg_update(policy, critic, states, AgentHyperparams())
    assert all(np.array_equal(a, b) for a, b in zip(before, actor.weights))


def test_actor_update_ascends_when_critic_rewards_action():
    rng = np.random.default_rng(3)
    state_dim, action_dim = 2, 1
    actor = init_dense((state_dim, 8, action_dim), rng, output_activation="tanh")
    policy = _MlpPolicyForTest(actor)
    critic = lin_critic(state_dim, action_dim, w_action=1.0)  # Q = a
    state = np.array([0.4, -0.2])
    before = forward_only(actor, state)[0]
    actor_pg_update(policy, critic, [state], AgentHyperparams())
    after = forward_only(actor, state)[0]
    assert after > before


def test_actor_update_mean_q_increases_on_frozen_critic():
    rng = np.random.default_rng(4)
    state_dim, action_dim = 3, 2
    actor = init_dense((state_dim, 16, action_dim), rng, output_activation="tanh")
    policy = _MlpPolicyForTest(actor, lr=5e-3)
    critic = init_dense((state_dim + action_dim, 16, 1), rng)
    states = [rng.standard_normal(state_dim) for _ in range(8)]
    values = [actor_pg_update(policy, critic, states, AgentHyperparams()) for _ in range(50)]
    assert values[-1] > values[0]


def test_ddqn_update_regression_and_double_q_target():
    rng = np.random.default_rng(5)
    state_dim = 3
    heads = [(0, 4), (4, 5)]
    qnet = init_dense((state_dim, 16, 9), rng)
    adam = AdamState.for_net(qnet, lr=3e-3)
    hp = AgentHyperparams(discount=0.0, reward_scale=1.0)
    batch = [(rng.standard_normal(state_dim), np.array([1, 3]), 0.5, rng.standard_normal(state_dim))]
    first = ddqn_update(qnet, adam, clone(qnet), batch, hp, heads)
    for _ in range(200):
        last = ddqn_update(qnet, adam, clone(qnet), batch, hp, heads)
    assert last < first
    q = forward_only(qnet, batch[0][0])
    assert q[0 + 1] == pytest.approx(0.5, abs=0.1)
    assert q[4 + 3] == pytest.approx(0.5, abs=0.1)


def test_ddqn_target_reduces_to_dqn_when_nets_equal():
    rng = np.random.default_rng(6)
    state_dim = 2
    heads = [(0, 3)]
    qnet = init_dense((state_dim, 8, 3), rng)
    target = clone(qnet)
    hp = AgentHyperparams(discount=0.9, reward_scale=1.0)
    s, s2 = rng.standard_normal(state_dim), rng.standard_normal(state_dim)
    r = 0.3
    q_next = forward_only(qnet, s2)
    expected_y = r + 0.9 * np.max(q_next)  # argmax online == max target when equal
    q_before = forward_only(qnet, s)
    idx = 1
    loss = ddqn_update(qnet, AdamState.for_net(qnet, 1e-3), target, [(s, np.array([idx]), r, s2)], hp, heads)
    assert loss == pytest.approx((q_before[idx] - expected_y) ** 2, rel=1e-9)


# -- agents and the training loop --------------------------------------------


def test_train_warmup_gates_learning():
    env = toy_env(n_slots=5)
    hp = tiny_hp(warmup_steps=6)
    result = train("d3pg", env, hp, seed=0, episodes=1)
    agent = result.agent
    assert len(agent.buffer) == 5
    assert agent.critic_adam.step == 0
    assert agent.policy.adam.step == 0


def test_train_updates_after_warmup():
    env = toy_env(n_slots=8)
    hp = tiny_hp(warmup_steps=4)
    result = train("d3pg", env, hp, seed=0, episodes=1)
    assert result.agent.critic_adam.step == 5  # slots 4..8


def test_train_deterministic_metric_series():
    def run():
        env = toy_env(seed=3)
        return train("ddpg", env, tiny_hp(), seed=3, episodes=2, run_id="det")

    a, b = run(), run()
    assert [r.reward for r in a.records] == [r.reward for r in b.records]
    assert [r.queue_j for r in a.records] == [r.queue_j for r in b.records]
    assert [r.reward for r in a.eval_records] == [r.reward for r in b.eval_records]


def test_train_rejects_mismatched_wcsi_env():
    env = toy_env(observe_aged=True)
    with pytest.raises(ValueError):
        train("d3pg_wcsi", env, tiny_hp(), seed=0, episodes=1)


def test_wcsi_identical_with_zero_delay():
    """With no feedback delay the delay-aware and delay-blind observation modes
    produce bit-identical seeded trajectories and final weights."""
    env_a = toy_env(seed=1, t_delay=0.0, observe_aged=True)
    env_b = toy_env(seed=1, t_delay=0.0, observe_aged=False)
    res_a = train("d3pg", env_a, tiny_hp(), seed=1, episodes=2, run_id="x")
    res_b = train("d3pg_wcsi", env_b, tiny_hp(), seed=1, episodes=2, run_id="x")
    assert [r.reward for r in res_a.records] == [r.reward for r in res_b.records]
    for wa, wb in zip(res_a.agent.policy.net.weights, res_b.agent.policy.net.weights):
        assert np.array_equal(wa, wb)


def test_all_agent_kinds_run_and_record():
    for kind in ("d3pg", "ddpg", "h_ddqn", "random"):
        env = toy_env(seed=2, n_slots=6)
        result = train(kind, env, tiny_hp(), seed=2, episodes=1, run_id=kind)
        assert len(result.records) == 6
        assert len(result.eval_records) == 6
        assert all(np.isfinite(r.reward) for r in result.records)
        assert all(r.inference_ms >= 0.0 for r in result.records)


def split_raw_action(raw, scenario):
    """Reference slicing of a raw vector into (scores (K,M), p_k raw, p_m raw, delta_h raw)."""
    k, m = scenario.k_links, scenario.m_links
    return raw[: k * m].reshape(k, m), raw[k * m : k * m + k], raw[k * m + k : k * m + k + m], raw[-1]


def test_hddqn_actions_follow_hungarian_and_grids():
    env = toy_env(seed=4, n_slots=6)
    hp = tiny_hp(epsilon_start=0.0, epsilon_end=0.0)  # pure greedy for determinism
    agent = make_agent("h_ddqn", env.scenario, env.channel_params, hp, seed=4)
    state, info = env.reset(0)
    raw = agent.act(state, info)
    sc = env.scenario
    from skysched.env import amend_action

    scores, p_k_raw, p_m_raw, dh_raw = split_raw_action(raw, sc)
    # scores are +/-1 one-hot rows reproducing an injective assignment
    assert set(np.unique(scores)) <= {-1.0, 1.0}
    assert np.all(scores.max(axis=1) == 1.0)
    act = amend_action(raw, sc)
    cols = act.x.argmax(axis=1)
    assert np.array_equal(np.sort(cols), np.unique(cols))  # injective
    assert np.array_equal(act.x[np.arange(sc.k_links), cols], np.ones(sc.k_links, dtype=np.int64))
    # power raws sit exactly on the 4-level grid, altitude on the 5-level grid
    levels = {-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0}
    assert all(any(abs(v - l) < 1e-12 for l in levels) for v in np.concatenate([p_k_raw, p_m_raw]))
    assert any(abs(dh_raw - g) < 1e-12 for g in np.linspace(-1, 1, hp.altitude_levels))
    # the slices are the ones amend_action maps: powers affinely, delta_h by dh_max
    assert np.array_equal(act.p_k, (p_k_raw + 1.0) * (sc.p_max / 2.0))
    assert np.array_equal(act.p_m, (p_m_raw + 1.0) * (sc.p_max / 2.0))
    assert act.delta_h == dh_raw * sc.dh_max
    assert np.array_equal(cols, scores.argmax(axis=1))


def test_make_agent_maps_actor_critic_kinds():
    env = toy_env(seed=7, n_slots=4)
    for kind, agent_kind in (("d3pg", "d3pg"), ("d3pg_wcsi", "d3pg"), ("ddpg", "ddpg")):
        agent = make_agent(kind, env.scenario, env.channel_params, tiny_hp(), seed=7)
        assert agent.kind == agent_kind


def test_evaluation_policy_is_pure_function_of_state():
    env = toy_env(seed=6, n_slots=6)
    result = train("d3pg", env, tiny_hp(), seed=6, episodes=1)
    agent = result.agent
    state, info = env.reset(42)
    a1 = agent.act(state, info, evaluation=True)
    a2 = agent.act(state, info, evaluation=True)
    assert np.array_equal(a1, a2)


def test_full_size_ddpg_update_peaks_below_2_2_actor_vectors():
    """A steady-state DDPG update at the published sizes (M=K=10, width 256,
    batch 64) holds no parameter-sized Adam or soft-update temporary, and the
    critic's tape is gone before the policy's backward: the traced peak was
    3.29x the actor's parameter bytes before, 2.05x after."""
    scenario, hp = NetworkScenario(m_links=10, k_links=10), AgentHyperparams()
    agent = make_agent("ddpg", scenario, ChannelParams(), hp, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(hp.batch_size):
        s, s2 = rng.standard_normal(scenario.state_dim), rng.standard_normal(scenario.state_dim)
        agent.buffer.push((s, rng.uniform(-1.0, 1.0, scenario.action_dim), 1.0, s2))
    for _ in range(3):
        agent.update()  # steady state: Adam moments and BLAS buffers exist
    tracemalloc.start()
    try:
        agent.update()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * agent.policy.net.params.nbytes


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        AgentHyperparams(discount=1.0)
    with pytest.raises(ValueError):
        AgentHyperparams(tau=0.0)
    with pytest.raises(ValueError):
        make_agent("nope", NetworkScenario(m_links=2, k_links=1), ChannelParams(), AgentHyperparams(), 0)


def test_h_ddqn_build_and_act_load_no_scipy_subpackage():
    """The experiment and CLI modules load no scipy module. Building an H-DDQN
    agent loads its compiled solver, before its first act(); the act runs it.
    Neither loads scipy.optimize or the subpackages its init pulls in."""
    script = f"""
import sys
sys.path.insert(0, {str(Path(skysched.__file__).resolve().parent.parent)!r})
import skysched.cli, skysched.experiment
from skysched.agents import _lsap_solver, desk_scale_hyperparams, make_agent
from skysched.channel import ChannelParams
from skysched.energy import PowerModelParams
from skysched.env import NetworkScenario, VehicularEnv
from skysched.lyapunov import LyapunovConfig
from skysched.mobility import generate_platoon
print(any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
scenario = NetworkScenario(m_links=3, k_links=3, n_slots=4)
trace = generate_platoon(9, 13.89, 25.0, 5, seed=42)
env = VehicularEnv(scenario, ChannelParams(), PowerModelParams(), LyapunovConfig(), trace, seed=0, outage_samples=50)
agent = make_agent("h_ddqn", scenario, env.channel_params, desk_scale_hyperparams(), 0)
print(_lsap_solver.cache_info().misses, _lsap_solver.cache_info().hits)
state, info = env.reset(0)
agent.act(state, info)
print(_lsap_solver.cache_info().misses, _lsap_solver.cache_info().hits)
print([name for name in ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.linalg") if name in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "1 0", "1 1", "[]"]


def test_runs_without_an_h_ddqn_agent_load_no_scipy(tmp_path):
    """A D3PG, DDPG and random sweep, `validate` and four figure emitters load
    no scipy module at all; building an H-DDQN agent then loads no scipy
    subpackage."""
    config = {
        "output_dir": str(tmp_path / "out"),
        "seeds": [0],
        "scenario": {"m_links": 3, "k_links": 3, "n_slots": 6},
        "agents": {
            "kinds": ["d3pg", "ddpg", "random"],
            "episodes": 1,
            "hyperparams": {"preset": "desk", "hidden_width": 16, "batch_size": 4, "warmup_steps": 4},
        },
        "mobility": {"platoon": {"n_vehicles": 9, "mean_speed": 13.89, "spacing": 25.0, "seed": 5}},
        "sweep": {"t_delay": [0.005, 0.01]},
    }
    script = f"""
import sys
sys.path.insert(0, {str(Path(skysched.__file__).resolve().parent.parent)!r})
import skysched.cli
from skysched.experiment import emit_figure_data, parse_config, run_experiment
result = run_experiment(parse_config({config!r}))
assert skysched.cli.main(["validate", {str(tmp_path / "config.yaml")!r}]) == 0
for kind in ("reward_curve", "rate_vs_delay", "energy_vs_slot", "runtime_table"):
    emit_figure_data(result.output_dir, kind)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
from skysched.agents import desk_scale_hyperparams, make_agent
from skysched.channel import ChannelParams
from skysched.env import NetworkScenario
make_agent("h_ddqn", NetworkScenario(m_links=3, k_links=3), ChannelParams(), desk_scale_hyperparams(), 0)
print([name for name in ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.linalg") if name in sys.modules])
"""
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
