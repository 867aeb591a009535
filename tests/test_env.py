import copy
import itertools
import math

import numpy as np
import pytest

from skysched.channel import (
    ChannelParams,
    aging_correlation,
    assemble_gains,
    db_to_linear,
    draw_fading,
    link_geometry,
    v2v_path_loss,
)
from skysched.energy import PowerModelParams
from skysched.errors import EpisodeExhaustedError, InvalidGeometryError, NonFiniteActionError
from skysched.env import (
    FeasibleAction,
    NetworkScenario,
    StateNormalizer,
    VehicularEnv,
    amend_action,
    build_state,
    default_pairing,
    estimate_outage,
)
from skysched.lyapunov import LyapunovConfig, VirtualQueue
from skysched.mobility import MobilityTrace, UavState, VehicleState, generate_platoon


def toy_scenario(m=4, k=4, n_slots=20, **kw):
    return NetworkScenario(m_links=m, k_links=k, n_slots=n_slots, **kw)


def make_env(scenario=None, channel=None, seed=0, **kw):
    scenario = scenario or toy_scenario()
    trace = generate_platoon(
        scenario.m_links + 2 * scenario.k_links, 13.89, 25.0, scenario.n_slots + 1, seed=99
    )
    return VehicularEnv(
        scenario,
        channel or ChannelParams(),
        PowerModelParams(),
        kw.pop("lyapunov", LyapunovConfig()),
        trace,
        seed=seed,
        **kw,
    )


def raw_action(scenario, rng=None, fill=0.0):
    if rng is None:
        return np.full(scenario.action_dim, fill)
    return rng.uniform(-1.0, 1.0, scenario.action_dim)


# -- amend_action -------------------------------------------------------------


def test_amender_power_endpoints():
    sc = toy_scenario()
    raw = raw_action(sc, fill=1.0)
    act = amend_action(raw, sc)
    assert np.allclose(act.p_m, sc.p_max) and np.allclose(act.p_k, sc.p_max)
    assert sc.p_max == pytest.approx(0.1995, abs=1e-4)  # 23 dBm
    act = amend_action(raw_action(sc, fill=-1.0), sc)
    assert np.all(act.p_m == 0.0) and np.all(act.p_k == 0.0)
    act = amend_action(raw_action(sc, fill=0.0), sc)
    assert np.allclose(act.p_m, sc.p_max / 2.0) and np.allclose(act.p_k, sc.p_max / 2.0)


def test_amender_delta_h_scaling():
    sc = toy_scenario()
    raw = raw_action(sc, fill=0.0)
    raw[-1] = -0.4
    assert amend_action(raw, sc).delta_h == pytest.approx(-0.4 * sc.dh_max)


def test_amender_greedy_example():
    sc = toy_scenario(m=2, k=2)
    raw = raw_action(sc, fill=0.0)
    raw[:4] = [0.9, 0.1, 0.8, 0.7]  # scores [[0.9, 0.1], [0.8, 0.7]]
    act = amend_action(raw, sc)
    assert act.x[0, 0] == 1 and act.x[1, 1] == 1
    # Enumeration oracle: among injective assignments, the greedy rule's
    # result is the stated one.
    feasible = [p for p in itertools.permutations(range(2))]
    assert (0, 1) in feasible and act.x[0, 0] == 1


def test_amender_feasibility_properties():
    sc = toy_scenario()
    rng = np.random.default_rng(0)
    for _ in range(20_000):
        act = amend_action(raw_action(sc, rng), sc)
        assert np.all((act.x == 0) | (act.x == 1))
        assert np.all(act.x.sum(axis=1) == 1)  # each V2V link gets one channel
        assert np.all(act.x.sum(axis=0) <= 1)  # each channel shared at most once
        assert np.all((act.p_m >= 0.0) & (act.p_m <= sc.p_max))
        assert np.all((act.p_k >= 0.0) & (act.p_k <= sc.p_max))
        assert abs(act.delta_h) <= sc.dh_max


def test_amender_clamps_out_of_range_input():
    sc = toy_scenario()
    raw = raw_action(sc, fill=3.5)
    act = amend_action(raw, sc)
    assert np.allclose(act.p_m, sc.p_max)
    assert act.delta_h == pytest.approx(sc.dh_max)


def test_amender_channel_relabeling_equivariance():
    sc = toy_scenario(m=5, k=4)
    rng = np.random.default_rng(1)
    for _ in range(200):
        raw = raw_action(sc, rng)
        scores = raw[: sc.k_links * sc.m_links].reshape(sc.k_links, sc.m_links)
        perm = rng.permutation(sc.m_links)
        raw_perm = raw.copy()
        raw_perm[: sc.k_links * sc.m_links] = scores[:, perm].ravel()
        x = amend_action(raw, sc).x
        x_perm = amend_action(raw_perm, sc).x
        assert np.array_equal(x_perm, x[:, perm])


def test_amender_rejects_nan_power():
    sc = toy_scenario()
    raw = raw_action(sc, fill=0.0)
    p_k_0 = sc.k_links * sc.m_links
    raw[[p_k_0, p_k_0 + sc.k_links + 1]] = np.nan  # first V2V power, second V2U power
    with pytest.raises(NonFiniteActionError, match=rf"\[{p_k_0}, {p_k_0 + sc.k_links + 1}\]"):
        amend_action(raw, sc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_amender_rejects_non_finite_delta_h(bad):
    sc = toy_scenario()
    raw = raw_action(sc, fill=0.0)
    raw[-1] = bad
    with pytest.raises(NonFiniteActionError, match=rf"\[{sc.action_dim - 1}\]"):
        amend_action(raw, sc)


def test_step_names_episode_and_slot_of_non_finite_action():
    env = make_env()
    env.reset(3)
    env.step(raw_action(env.scenario, fill=0.0))
    raw = raw_action(env.scenario, fill=0.0)
    raw[env.scenario.k_links * env.scenario.m_links] = np.nan
    with pytest.raises(NonFiniteActionError, match="episode 3, slot 1"):
        env.step(raw)


# -- estimate_outage ----------------------------------------------------------


def v2v_sinr(gains, action, params: ChannelParams) -> np.ndarray:
    """Reference (K,) V2V SINR under the action (aged gains): link k hears the
    V2U transmitter of every channel m with x[k, m] = 1."""
    interference = (action.x.T * (action.p_m[:, None] * gains.h_v_mk)).sum(axis=0)
    return action.p_k * gains.h_v_k / (interference + params.noise_power)


def outage_fixture(t_delay):
    env = make_env(channel=ChannelParams(t_delay=t_delay), outage_samples=500)
    _, info = env.reset(0)
    return env, info["gains"]


def test_outage_zero_delay_is_indicator():
    env, gains = outage_fixture(0.0)
    sc = env.scenario
    strong = FeasibleAction(
        x=np.eye(sc.k_links, sc.m_links, dtype=np.int64),
        p_m=np.zeros(sc.m_links),
        p_k=np.full(sc.k_links, sc.p_max),
        delta_h=0.0,
    )
    rng = np.random.default_rng(0)
    for k in range(sc.k_links):
        prob = estimate_outage(gains, strong, env.channel_params, sc.gamma_v_th, 500, rng)[k]
        gamma = v2v_sinr(gains, strong, env.channel_params)[k]
        assert prob == (1.0 if gamma < sc.gamma_v_th else 0.0)


def test_outage_zero_delay_is_exactly_the_sinr_indicator():
    """At zero delay rho = J0(0) = 1, so every Monte-Carlo redraw is the
    pre-delay value: on random gains and actions the estimate is only ever 0.0
    or 1.0, and it is the indicator of the SINR against the threshold."""
    env = make_env(toy_scenario(m=6, k=6), channel=ChannelParams(t_delay=0.0))
    sc = env.scenario
    rng = np.random.default_rng(3)
    _, info = env.reset(0)
    seen = set()
    for _ in range(sc.n_slots):
        act = amend_action(raw_action(sc, rng), sc)
        prob = estimate_outage(info["gains"], act, env.channel_params, sc.gamma_v_th, 50, rng)
        indicator = v2v_sinr(info["gains"], act, env.channel_params) < sc.gamma_v_th
        np.testing.assert_array_equal(prob, indicator.astype(float))
        seen.update(prob.tolist())
        _, _, _, info = env.step(raw_action(sc, rng))
    assert seen == {0.0, 1.0}


def test_outage_zero_desired_power_is_certain():
    for t_delay in (0.0, 0.01):
        env, gains = outage_fixture(t_delay)
        sc = env.scenario
        act = FeasibleAction(
            x=np.eye(sc.k_links, sc.m_links, dtype=np.int64),
            p_m=np.full(sc.m_links, sc.p_max / 2),
            p_k=np.zeros(sc.k_links),
            delta_h=0.0,
        )
        prob = estimate_outage(gains, act, env.channel_params, sc.gamma_v_th, 200, np.random.default_rng(0))[0]
        assert prob == 1.0


def test_outage_estimator_consistency():
    """A 500-sample estimate sits within 3*sqrt(p(1-p)/500) of a 5000-sample one."""
    env, gains = outage_fixture(0.01)
    sc = env.scenario
    # Pick a marginal power so the outage probability is interior.
    act = FeasibleAction(
        x=np.eye(sc.k_links, sc.m_links, dtype=np.int64),
        p_m=np.full(sc.m_links, sc.p_max),
        p_k=np.full(sc.k_links, sc.p_max / 50.0),
        delta_h=0.0,
    )
    small = estimate_outage(gains, act, env.channel_params, sc.gamma_v_th, 500, np.random.default_rng(1))[0]
    big = estimate_outage(gains, act, env.channel_params, sc.gamma_v_th, 5000, np.random.default_rng(2))[0]
    if 0.0 < big < 1.0:
        se = np.sqrt(big * (1 - big) / 500)
        assert abs(small - big) <= 3 * se + 1e-9
    else:
        assert small == big


def per_link_outage(gains, action, params, gamma_threshold, n_samples, rng):
    """Reference: link by link, n normals each for the desired re and im parts,
    then for each interferer's re and im parts."""

    def power_samples(rho, g_hat, pl_linear, tx_power):
        scale = math.sqrt(max(0.0, 1.0 - rho * rho) / 2.0)
        re = rho * g_hat.real + scale * rng.standard_normal(n_samples)
        im = rho * g_hat.imag + scale * rng.standard_normal(n_samples)
        return tx_power * (re * re + im * im) / pl_linear

    def link(i):  # position i of the V2V block
        return gains.rho_v[i], complex(gains.g_v_hat[i]), gains.pl_v_linear[i]

    probs = []
    k_links = action.x.shape[0]
    for k in range(k_links):
        desired = power_samples(*link(k), action.p_k[k])
        interference = np.zeros(n_samples)
        for m in np.flatnonzero(action.x[k]):
            interference += power_samples(*link(k_links + m * k_links + k), action.p_m[m])
        probs.append(np.mean(desired / (interference + params.noise_power) < gamma_threshold))
    return np.array(probs)


@pytest.mark.parametrize("links", [4, 10])
def test_outage_matches_per_link_reference_bit_for_bit(links):
    env = make_env(toy_scenario(m=links, k=links), channel=ChannelParams(t_delay=0.01))
    sc = env.scenario
    act_rng = np.random.default_rng(3)
    _, info = env.reset(0)
    for slot in range(10):
        act = amend_action(act_rng.uniform(-1.0, 1.0, sc.action_dim), sc)
        act = FeasibleAction(x=act.x, p_m=act.p_m, p_k=act.p_k / 10.0 ** (slot % 4), delta_h=0.0)
        rng, ref_rng = np.random.default_rng(slot), np.random.default_rng(slot)
        probs = estimate_outage(info["gains"], act, env.channel_params, sc.gamma_v_th, 300, rng)
        ref = per_link_outage(info["gains"], act, env.channel_params, sc.gamma_v_th, 300, ref_rng)
        assert np.array_equal(probs, ref)
        assert rng.standard_normal() == ref_rng.standard_normal()
        _, _, _, info = env.step(act_rng.uniform(-1.0, 1.0, sc.action_dim))


def test_outage_rejects_links_without_exactly_one_channel():
    env, gains = outage_fixture(0.01)
    sc = env.scenario
    x = np.eye(sc.k_links, sc.m_links, dtype=np.int64)
    x[1] = 0
    x[3, 0] = 1
    act = FeasibleAction(x=x, p_m=np.full(sc.m_links, sc.p_max), p_k=np.full(sc.k_links, sc.p_max), delta_h=0.0)
    with pytest.raises(ValueError, match=r"rows \[1, 3\]"):
        estimate_outage(gains, act, env.channel_params, sc.gamma_v_th, 100, np.random.default_rng(0))


def test_outage_requires_samples():
    env, gains = outage_fixture(0.01)
    sc = env.scenario
    act = amend_action(raw_action(sc, fill=0.0), sc)
    with pytest.raises(ValueError):
        estimate_outage(gains, act, env.channel_params, sc.gamma_v_th, 0, np.random.default_rng(0))[0]


# -- build_state --------------------------------------------------------------


def test_state_length_matches_element_count():
    sc = toy_scenario(m=10, k=10, n_slots=5)
    env = make_env(scenario=sc)
    state, _ = env.reset(0)
    assert state.shape == (131,)  # MK + 2K + M + 1


def test_state_flag_identical_with_zero_delay():
    env = make_env(channel=ChannelParams(t_delay=0.0))
    _, info = env.reset(0)
    gains = info["gains"]
    queue = VirtualQueue(0.0, env.scenario.e_th, 1.0)
    aged = build_state(gains, queue, env.scenario, True, copy.deepcopy(env.normalizer))
    blind = build_state(gains, queue, env.scenario, False, copy.deepcopy(env.normalizer))
    assert np.array_equal(aged, blind)


def test_state_flag_differs_only_on_v2v_entries_with_delay():
    env = make_env(channel=ChannelParams(t_delay=0.01))
    _, info = env.reset(0)
    gains = info["gains"]
    sc = env.scenario
    queue = VirtualQueue(0.0, sc.e_th, 1.0)
    aged = build_state(gains, queue, sc, True, copy.deepcopy(env.normalizer))
    blind = build_state(gains, queue, sc, False, copy.deepcopy(env.normalizer))
    v2u_len = sc.m_links + sc.k_links
    assert np.array_equal(aged[:v2u_len], blind[:v2u_len])
    assert aged[-1] == blind[-1]
    assert np.any(aged[v2u_len:-1] != blind[v2u_len:-1])


def test_state_queue_entry_zero_at_reset():
    env = make_env()
    state, _ = env.reset(0)
    assert state[-1] == 0.0


def test_normalizer_freezes_after_warmup():
    norm = StateNormalizer(3, freeze_after=2)
    norm.observe(np.array([1.0, 2.0, 3.0]))
    norm.observe(np.array([2.0, 3.0, 4.0]))
    frozen_mean = norm.mean.copy()
    norm.observe(np.array([100.0, 100.0, 100.0]))
    assert np.array_equal(norm.mean, frozen_mean)


# -- env stepping -------------------------------------------------------------


def test_step_all_zero_action_midscale_powers():
    env = make_env()
    env.reset(0)
    _, rb, _, info = env.step(raw_action(env.scenario, fill=0.0))
    act = info["feasible"]
    assert np.allclose(act.p_m, env.scenario.p_max / 2)
    assert act.delta_h == 0.0
    assert np.isfinite(rb.reward)


def test_step_reward_decomposition_identity():
    env = make_env()
    env.reset(0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        _, rb, _, _ = env.step(raw_action(env.scenario, rng))
        assert rb.reward == pytest.approx(rb.rate_term - rb.queue_term - rb.penalty_applied, rel=1e-12)
        assert rb.penalty_applied == rb.outage_violations * env.lyapunov_cfg.gamma_pen


def test_step_reward_equals_rate_term_when_queue_zero_and_no_penalty():
    env = make_env(lyapunov=LyapunovConfig(v_weight=100.0, gamma_pen=0.0))
    env.reset(0)
    _, rb, _, _ = env.step(raw_action(env.scenario, fill=0.0))
    # First slot: Q = 0, so the queue term vanishes and gamma_pen = 0.
    assert rb.queue_term == 0.0
    assert rb.reward == pytest.approx(
        env.lyapunov_cfg.v_weight * rb.mean_v2u_rate * env.lyapunov_cfg.rate_scale, rel=1e-12
    )


def test_step_deterministic_across_instances():
    rewards = []
    for _ in range(2):
        env = make_env(seed=5)
        env.reset(0)
        rng = np.random.default_rng(3)
        seq = []
        for _ in range(10):
            state, rb, _, _ = env.step(raw_action(env.scenario, rng))
            seq.append((state.tobytes(), rb.reward))
        rewards.append(seq)
    assert rewards[0] == rewards[1]


def test_episode_exhausted_error():
    sc = toy_scenario(n_slots=3)
    env = make_env(scenario=sc)
    env.reset(0)
    for _ in range(3):
        _, _, done, _ = env.step(raw_action(sc, fill=0.0))
    assert done
    with pytest.raises(EpisodeExhaustedError):
        env.step(raw_action(sc, fill=0.0))


def test_closed_loop_altitude_stays_in_bounds():
    env = make_env(scenario=toy_scenario(n_slots=50))
    rng = np.random.default_rng(4)
    for ep in range(2):
        env.reset(ep)
        for _ in range(env.n_slots):
            raw = raw_action(env.scenario, rng)
            raw[-1] = 1.0 if rng.random() < 0.7 else -1.0  # push against the bounds
            _, _, _, info = env.step(raw)
            assert env.scenario.h_min <= info["uav"].altitude <= env.scenario.h_max


def test_queue_dynamics_follow_update_rule():
    env = make_env()
    env.reset(0)
    q = 0.0
    for _ in range(env.n_slots):
        _, rb, _, info = env.step(raw_action(env.scenario, fill=0.5))
        q = max(q + rb.power * env.scenario.slot_duration - env.scenario.e_th, 0.0)
        assert info["queue"] == pytest.approx(q, rel=1e-12)
        assert info["queue"] >= 0.0


def test_default_pairing_and_validation():
    v2u_tx, v2v_pairs = default_pairing(range(12), 4, 4)
    assert v2u_tx == (0, 1, 2, 3)
    assert v2v_pairs[0] == (4, 5)
    with pytest.raises(ValueError):
        default_pairing(range(11), 4, 4)


def test_pairing_resolves_ids_to_trace_columns():
    """The default pairing over shuffled, non-contiguous ids picks the right
    trace columns for the UAV start and for every link endpoint."""
    platoon = generate_platoon(9, 13.89, 25.0, 6, seed=3)
    ids = [30, 12, 7, 41, 5, 26, 18, 2, 9]
    trace = MobilityTrace(ids, platoon.x, platoon.y, platoon.speed)
    v2u_tx, v2v_pairs = default_pairing(ids, 3, 3)
    assert v2u_tx == (2, 5, 7) and v2v_pairs == ((9, 12), (18, 26), (30, 41))
    scenario = toy_scenario(m=3, k=3, n_slots=5)
    env = VehicularEnv(scenario, ChannelParams(), PowerModelParams(), LyapunovConfig(), trace, seed=4)
    _state, info = env.reset()

    column = {vid: i for i, vid in enumerate(ids)}
    v2u = [column[vid] for vid in v2u_tx]
    assert info["uav"].x == np.mean(trace.x[0, v2u])
    rng = np.random.default_rng((4, 0, 0, 0))
    pairs = np.array([[column[tx], column[rx]] for tx, rx in v2v_pairs])
    geometry = link_geometry(trace, np.array(v2u), pairs, 1, ChannelParams())
    uav = UavState(x=info["uav"].x, y=info["uav"].y, altitude=scenario.uav_initial_altitude)
    expected = assemble_gains(uav, geometry, 0, draw_fading(3, 3, rng), ChannelParams(), rng)
    for name in ("h_u_m", "h_u_k", "h_v_k", "h_v_mk"):
        assert np.array_equal(getattr(info["gains"], name), getattr(expected, name)), name


@pytest.mark.parametrize("t_delay", [0.010, 0.025])
def test_env_tables_equal_the_one_link_helpers(t_delay):
    """At every slot of a 101-slot platoon the V2V block's path loss and rho
    equal the one-link helpers at that slot's frame, bit for bit. The dB values
    go through db_to_linear as an array, as in the env: numpy's array power and
    the scalar pow of a Python float can differ in the last bit."""
    params = ChannelParams(t_delay=t_delay)
    sc = toy_scenario(m=3, k=3, n_slots=100)
    trace = generate_platoon(9, 13.89, 25.0, 101, seed=11)
    env = VehicularEnv(sc, params, PowerModelParams(), LyapunovConfig(), trace, seed=1, outage_samples=1)
    v2u_ids, pair_ids = default_pairing(trace.vehicle_ids, 3, 3)
    _, info = env.reset(0)
    for t in range(trace.n_slots):
        vehicle = {int(row[0]): VehicleState(int(row[0]), *row[1:]) for row in trace.frame(t).tolist()}
        links = [(vehicle[tx], vehicle[rx]) for tx, rx in pair_ids]
        links += [(vehicle[tx], vehicle[rx]) for tx in v2u_ids for _, rx in pair_ids]
        pl = db_to_linear(np.array([v2v_path_loss(tx, rx) for tx, rx in links])).tolist()
        rho = [aging_correlation(max(abs(tx.speed - rx.speed), params.s_rel_min), params) for tx, rx in links]
        assert info["slot"] == t
        assert info["gains"].pl_v_linear.tolist() == pl
        assert info["gains"].rho_v.tolist() == rho
        if t < env.n_slots:
            _, _, _, info = env.step(raw_action(sc, fill=0.0))


def test_zero_distance_pair_fails_when_the_env_is_built():
    trace = generate_platoon(12, 13.89, 25.0, 21, seed=99)
    x = trace.x.copy()
    x[7, 5] = x[7, 4]  # pair (4, 5) meets at slot 7
    met = MobilityTrace(trace.ids, x, trace.y, trace.speed)
    with pytest.raises(InvalidGeometryError, match=r"slot 7: V2V link 4->5 has zero distance"):
        VehicularEnv(toy_scenario(), ChannelParams(), PowerModelParams(), LyapunovConfig(), met)


def test_scenario_validation():
    with pytest.raises(ValueError):
        NetworkScenario(m_links=4, k_links=5)
    with pytest.raises(ValueError):
        NetworkScenario(pr_v_th=0.0)
    with pytest.raises(ValueError):
        NetworkScenario(h_min=300.0)
