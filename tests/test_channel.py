import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special  # oracle only: the package computes J0 and expit without scipy
import yaml

from skysched import channel
from skysched.channel import (
    ChannelParams,
    FadingState,
    LinkGains,
    _los_probability,
    age_fading,
    aging_correlation,
    assemble_gains,
    bessel_j0,
    db_to_linear,
    draw_fading,
    expit,
    link_geometry,
    v2u_family_gains,
    v2u_path_loss,
    v2u_rate,
    v2u_sinr,
    v2v_path_loss,
)
from skysched.env import FeasibleAction, VehicularEnv
from skysched.errors import InvalidGeometryError
from skysched.experiment import _build_trace, parse_config
from skysched.mobility import MobilityTrace, UavState, VehicleState, generate_platoon


def j0_series(x: float, terms: int = 30) -> float:
    """Independent oracle: alternating power series sum_k (-1)^k (x/2)^(2k)/(k!)^2."""
    total, term = 0.0, 1.0
    for k in range(terms):
        if k > 0:
            term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


# -- Bessel J0 ----------------------------------------------------------------


def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_first_zero():
    assert abs(bessel_j0(2.404826)) < 1e-5
    assert abs(j0_series(2.404826)) < 1e-5


def test_j0_at_one_matches_series_oracle():
    assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, abs=1e-10)
    assert bessel_j0(1.0) == pytest.approx(j0_series(1.0), abs=1e-10)


def test_j0_matches_series_over_range():
    xs = np.linspace(-12.0, 12.0, 2401)
    worst = max(abs(bessel_j0(float(x)) - j0_series(float(x))) for x in xs)
    assert worst <= 1e-10


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_j0_equals_scipy_bit_for_bit_over_range():
    xs = np.random.default_rng(2024).uniform(0.0, 200.0, 1_000_000)
    assert same_bits(bessel_j0(xs), scipy.special.j0(xs))


J0_EDGES = [
    0.0,
    *(np.nextafter(1e-5, d) for d in (0.0, 1.0)),
    1e-5,
    *(np.nextafter(5.0, d) for d in (0.0, 10.0)),
    5.0,
    *scipy.special.jn_zeros(0, 3),
    1e-300,
    7.25,
    199.99,
]


@pytest.mark.parametrize("x", [*J0_EDGES, *(-x for x in J0_EDGES)])
def test_j0_equals_scipy_at_edges_and_negative_arguments(x):
    got = bessel_j0(float(x))
    assert isinstance(got, float)
    assert same_bits(got, scipy.special.j0(x))
    assert same_bits(bessel_j0(np.array([x, -x])), scipy.special.j0(np.array([x, -x])))


WORKLOADS = sorted((Path(__file__).resolve().parent.parent / "skybench" / "workloads").glob("*.yaml"))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_workload_rho_table_equals_scipy_j0_table(workload, monkeypatch, tmp_path):
    """For each benchmark workload the env's rho table equals, byte for byte,
    the table built with scipy.special.j0 in place of bessel_j0."""
    data = yaml.safe_load(workload.read_text(encoding="utf-8"))
    cfg = parse_config({**data, "output_dir": str(tmp_path), "seeds": [0]})  # as skybench/run.py completes it
    trace = _build_trace(cfg)

    def tables():
        env = VehicularEnv(cfg.scenario, cfg.channel, cfg.energy, cfg.lyapunov, trace, seed=0, outage_samples=1)
        return env._geometry

    ours = tables()
    monkeypatch.setattr(channel, "bessel_j0", scipy.special.j0)
    reference = tables()
    assert ours.rho_v.shape == (cfg.scenario.n_slots + 1, cfg.scenario.k_links * (cfg.scenario.m_links + 1))
    assert ours.rho_v.tobytes() == reference.rho_v.tobytes()
    assert ours.s_rel_v.tobytes() == reference.s_rel_v.tobytes()


# -- LoS probability ----------------------------------------------------------


def make_uav(x=0.0, y=0.0, altitude=100.0):
    return UavState(x=x, y=y, altitude=altitude)


def make_vehicle(x=0.0, y=0.0, speed=13.89, vid=0):
    return VehicleState(id=vid, x=x, y=y, speed=speed)


def one_slot_geometry(v2u, pairs, params):
    """The link tables of one slot with the V2U transmitters v2u and the V2V
    (tx, rx) pairs, from a one-slot trace of the distinct vehicles."""
    vehicles = {v.id: v for v in [*v2u, *(v for pair in pairs for v in pair)]}
    rows = ([[getattr(v, name) for v in vehicles.values()]] for name in ("x", "y", "speed"))
    trace = MobilityTrace(list(vehicles), *rows)
    column = {vid: i for i, vid in enumerate(vehicles)}
    v2u_cols = np.array([column[v.id] for v in v2u])
    pair_cols = np.array([[column[tx.id], column[rx.id]] for tx, rx in pairs])
    return link_geometry(trace, v2u_cols, pair_cols, 1, params)


def test_los_probability_at_angle_equal_to_a():
    params = ChannelParams()
    horiz = 100.0
    alt = horiz * math.tan(math.radians(params.env_a))
    pr = float(_los_probability(make_uav(altitude=alt), horiz, params))
    assert pr == pytest.approx(1.0 / (1.0 + params.env_a), rel=1e-9)
    assert pr == pytest.approx(0.07645, abs=5e-6)


def test_los_probability_overhead():
    pr = float(_los_probability(make_uav(altitude=100.0), 0.0, ChannelParams()))
    assert pr == pytest.approx(0.997716247081094, rel=1e-9)


def test_los_probability_saturates_with_large_b():
    params = ChannelParams(env_b=100.0)
    pr = float(_los_probability(make_uav(altitude=100.0), 100.0, params))  # 45 deg > a
    assert pr == pytest.approx(1.0, abs=1e-10)


def test_los_probability_steep_sigmoid_far_vehicle_is_zero():
    # b*(theta - a) is about -922 here; the sigmoid must saturate, not overflow.
    params = ChannelParams(env_b=100.0)
    pr = float(_los_probability(make_uav(altitude=50.0), 1000.0, params))
    assert 0.0 <= pr <= 1e-12


def test_expit_equals_scipy_bit_for_bit():
    v = np.random.default_rng(7).uniform(-40.0, 40.0, 200_000)
    assert same_bits(expit(v), scipy.special.expit(v))
    band = np.linspace(-745.0, -709.0, 20_001)  # exp(-v) near and past overflow; subnormal sigmoids
    assert same_bits(expit(band), scipy.special.expit(band))
    assert same_bits(expit(np.array([-1000.0, 1000.0])), [0.0, 1.0])
    assert expit(np.array(-3.5)).shape == ()
    assert same_bits(expit(np.array(-3.5)), scipy.special.expit(-3.5))
    assert same_bits(expit(v.reshape(400, 500)), scipy.special.expit(v).reshape(400, 500))


def test_los_probability_equals_scipy_expit_form():
    params = ChannelParams()
    uav = make_uav(x=3.0, y=-2.0, altitude=87.5)
    horiz = np.random.default_rng(5).uniform(0.0, 2000.0, 5000)
    theta_deg = np.degrees(np.arctan2(uav.altitude, horiz))
    expected = scipy.special.expit(params.env_b * (theta_deg - params.env_a) - math.log(params.env_a))
    assert same_bits(_los_probability(uav, horiz, params), expected)


# -- path loss ----------------------------------------------------------------


def free_space_db(d: float, fc: float, c: float = 299_792_458.0) -> float:
    """Independent free-space recomputation."""
    return 20.0 * math.log10(4.0 * math.pi * fc * d / c)


def test_v2u_path_loss_forced_los():
    params = ChannelParams()
    pl = v2u_path_loss(make_uav(altitude=100.0), make_vehicle(x=0.0), params, pr_los=1.0)
    assert pl == pytest.approx(free_space_db(100.0, 5.9e9) + 1.0, rel=1e-9)
    assert pl == pytest.approx(88.86482345472626, rel=1e-6)


def test_v2u_path_loss_forced_nlos():
    params = ChannelParams()
    pl = v2u_path_loss(make_uav(altitude=100.0), make_vehicle(x=0.0), params, pr_los=0.0)
    assert pl == pytest.approx(107.86482345472626, rel=1e-6)


def test_v2u_path_loss_even_mix_is_db_mean():
    params = ChannelParams()
    uav, veh = make_uav(altitude=100.0), make_vehicle(x=0.0)
    lo = v2u_path_loss(uav, veh, params, pr_los=1.0)
    hi = v2u_path_loss(uav, veh, params, pr_los=0.0)
    mid = v2u_path_loss(uav, veh, params, pr_los=0.5)
    assert mid == pytest.approx((lo + hi) / 2.0, rel=1e-12)


def test_v2u_path_loss_bounded_by_components():
    params = ChannelParams()
    rng = np.random.default_rng(0)
    uav, veh = make_uav(altitude=80.0, x=30.0), make_vehicle(x=-50.0)
    lo = v2u_path_loss(uav, veh, params, pr_los=1.0)
    hi = v2u_path_loss(uav, veh, params, pr_los=0.0)
    for _ in range(100):
        p = rng.uniform(0.0, 1.0)
        pl = v2u_path_loss(uav, veh, params, pr_los=p)
        assert lo <= pl <= hi


def test_v2v_path_loss_values():
    tx, rx50 = make_vehicle(x=0.0), make_vehicle(x=50.0, vid=1)
    assert v2v_path_loss(tx, rx50) == pytest.approx(72.6027990724115, rel=1e-6)
    assert v2v_path_loss(tx, make_vehicle(x=1.0, vid=1)) == pytest.approx(44.23, rel=1e-12)
    assert v2v_path_loss(tx, make_vehicle(x=100.0, vid=1)) == pytest.approx(77.63, rel=1e-6)


def test_v2v_path_loss_zero_distance():
    tx = make_vehicle(x=0.0)
    with pytest.raises(InvalidGeometryError):
        v2v_path_loss(tx, make_vehicle(x=0.0, vid=1))


# -- CSI aging ----------------------------------------------------------------


def test_age_fading_identity_with_zero_delay():
    params = ChannelParams(t_delay=0.0)
    rng = np.random.default_rng(0)
    g = complex(0.3, -1.2)
    assert age_fading(g, 5.0, params, rng) == g


def test_age_fading_identity_with_zero_relative_speed():
    params = ChannelParams(t_delay=0.01)
    rng = np.random.default_rng(0)
    g = complex(-0.7, 0.4)
    assert age_fading(g, 0.0, params, rng) == g


def test_channel_params_accept_zero_delay_and_speed_floor():
    params = ChannelParams(t_delay=0.0, s_rel_min=0.0)
    assert (params.t_delay, params.s_rel_min) == (0.0, 0.0)


def test_age_fading_array_equals_per_coefficient_loop():
    params = ChannelParams(t_delay=0.01)
    rng = np.random.default_rng(5)
    g_hat = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * math.sqrt(0.5)
    s_rel = rng.uniform(0.0, 40.0, 40)
    s_rel[::3] = 0.0  # unaged entries draw nothing
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    aged = age_fading(g_hat.reshape(5, 8), s_rel.reshape(5, 8), params, rng)
    expected = [age_fading(complex(g), float(s), params, ref_rng) for g, s in zip(g_hat, s_rel)]
    assert aged.shape == (5, 8)
    assert aged.ravel().tolist() == expected
    assert np.array_equal(aged.ravel()[::3], g_hat[::3])
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_age_fading_statistics():
    """Empirical correlation E[g conj(g_hat)] -> J0(arg) and Var(g) -> 1."""
    params = ChannelParams(t_delay=0.01)
    s_rel = 1.5
    rho = aging_correlation(s_rel, params)
    assert rho == pytest.approx(
        j0_series(2 * math.pi * params.carrier_frequency * s_rel * params.t_delay / params.light_speed),
        abs=1e-10,
    )
    n = 100_000
    rng = np.random.default_rng(42)
    g_hat = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(0.5)
    aged = age_fading(g_hat, s_rel, params, rng)
    corr = np.real(aged * np.conj(g_hat))
    corr_se = np.std(corr, ddof=1) / math.sqrt(n)
    assert abs(np.mean(corr) - rho) < 3 * corr_se
    power = np.abs(aged) ** 2
    power_se = np.std(power, ddof=1) / math.sqrt(n)
    assert abs(np.mean(power) - 1.0) < 3 * power_se
    assert np.mean(power) == pytest.approx(1.0, abs=0.02)


# -- gain assembly ------------------------------------------------------------


def unit_fading(m: int, k: int) -> FadingState:
    return FadingState(
        g_u=np.ones(m + k, dtype=complex), g_u_power=np.ones(m + k), g_v_hat=np.ones(k + m * k, dtype=complex)
    )


@pytest.mark.parametrize("m, k", [(1, 1), (3, 2), (10, 10)])
def test_draw_fading_is_the_per_family_stream(m, k):
    """The one draw equals drawing each family's real parts, then its
    imaginary parts, family by family, bit for bit."""
    rng, reference = np.random.default_rng((m, k)), np.random.default_rng((m, k))

    def cn01(shape):
        return (reference.standard_normal(shape) + 1j * reference.standard_normal(shape)) * math.sqrt(0.5)

    g_u_m, g_u_k, g_v_k_hat, g_v_mk_hat = cn01(m), cn01(k), cn01(k), cn01((m, k))
    fading = draw_fading(m, k, rng)
    g_u = np.concatenate([g_u_m, g_u_k])
    assert np.array_equal(fading.g_u, g_u)
    assert np.array_equal(fading.g_u_power, np.abs(g_u) ** 2)
    assert np.array_equal(fading.g_v_hat, np.concatenate([g_v_k_hat, g_v_mk_hat.ravel()]))
    assert rng.standard_normal() == reference.standard_normal()


def test_gain_is_pathloss_inverse_for_unit_fading():
    # V2V distance chosen so the ground path loss is exactly 20 dB.
    params = ChannelParams(t_delay=0.0)
    d = 10.0 ** ((20.0 - 44.23) / 16.7)
    uav = make_uav(altitude=100.0)
    tx = make_vehicle(x=0.0, vid=10)
    rx = make_vehicle(x=d, vid=11)
    geometry = one_slot_geometry([tx], [(tx, rx)], params)
    gains = assemble_gains(uav, geometry, 0, unit_fading(1, 1), params, np.random.default_rng(0))
    assert gains.h_v_k[0] == pytest.approx(0.01, rel=1e-9)


def test_zero_delay_makes_aged_equal_predelay():
    params = ChannelParams(t_delay=0.0)
    rng = np.random.default_rng(7)
    uav = make_uav(altitude=120.0, x=10.0)
    vehicles = [make_vehicle(x=20.0 * i, vid=i, speed=13.0 + i) for i in range(4)]
    pairs = [(vehicles[2], vehicles[3])]
    fading = draw_fading(2, 1, rng)
    gains = assemble_gains(uav, one_slot_geometry(vehicles[:2], pairs, params), 0, fading, params, rng)
    assert np.array_equal(gains.h_v_k, gains.h_v_k_hat)
    assert np.array_equal(gains.h_v_mk, gains.h_v_mk_hat)


def test_assemble_matches_hand_composition():
    """Compose per-link gains from the path-loss and fading primitives."""
    params = ChannelParams(t_delay=0.0)
    rng = np.random.default_rng(3)
    uav = make_uav(altitude=90.0, x=5.0)
    v2u = [make_vehicle(x=0.0, vid=0), make_vehicle(x=40.0, vid=1)]
    pair = (make_vehicle(x=80.0, vid=2), make_vehicle(x=105.0, vid=3))
    fading = draw_fading(2, 1, rng)
    gains = assemble_gains(uav, one_slot_geometry(v2u, [pair], params), 0, fading, params, rng)
    for m in range(2):
        expected = abs(fading.g_u[m]) ** 2 / db_to_linear(v2u_path_loss(uav, v2u[m], params))
        assert gains.h_u_m[m] == pytest.approx(expected, rel=1e-12)
    expected_uk = abs(fading.g_u[2]) ** 2 / db_to_linear(v2u_path_loss(uav, pair[0], params))
    assert gains.h_u_k[0] == pytest.approx(expected_uk, rel=1e-12)
    expected_vk = abs(fading.g_v_hat[0]) ** 2 / db_to_linear(v2v_path_loss(*pair))
    assert gains.h_v_k[0] == pytest.approx(expected_vk, rel=1e-12)
    for m in range(2):
        expected_mk = abs(fading.g_v_hat[1 + m]) ** 2 / db_to_linear(v2v_path_loss(v2u[m], pair[1]))
        assert gains.h_v_mk[m, 0] == pytest.approx(expected_mk, rel=1e-12)


def per_link_gains(uav, v2u, pairs, fading, params, rng):
    """Reference: every gain composed link by link from the scalar primitives,
    aging the desired links first and then the interference links row-major,
    with one scalar normal per real and imaginary part. Path loss and rho are
    returned as V2V blocks, desired links first."""
    m_links, k_links = len(v2u), len(pairs)
    g_u, g_v_hat = fading.g_u.tolist(), fading.g_v_hat.tolist()

    def v2u_gain(g, veh):
        return abs(g) ** 2 / db_to_linear(v2u_path_loss(uav, veh, params))

    def v2v_gains(g_hat, tx, rx):
        pl = db_to_linear(v2v_path_loss(tx, rx))
        s_rel = max(abs(tx.speed - rx.speed), params.s_rel_min)
        rho = aging_correlation(s_rel, params)
        scale = math.sqrt(max(0.0, 1.0 - rho * rho) / 2.0)
        aged = rho * g_hat + complex(rng.standard_normal() * scale, rng.standard_normal() * scale)
        return abs(aged) ** 2 / pl, abs(g_hat) ** 2 / pl, pl, rho

    desired = [v2v_gains(g_v_hat[k], tx, rx) for k, (tx, rx) in enumerate(pairs)]
    interference = [
        [v2v_gains(g_v_hat[k_links + m * k_links + k], veh, rx) for k, (_tx, rx) in enumerate(pairs)]
        for m, veh in enumerate(v2u)
    ]
    ref = {
        "h_u_m": [v2u_gain(g_u[m], veh) for m, veh in enumerate(v2u)],
        "h_u_k": [v2u_gain(g_u[m_links + k], tx) for k, (tx, _rx) in enumerate(pairs)],
    }
    for i, name in enumerate(("h_v{}", "h_v{}_hat")):
        ref[name.format("_k")] = [row[i] for row in desired]
        ref[name.format("_mk")] = [[cell[i] for cell in row] for row in interference]
    for i, name in ((2, "pl_v_linear"), (3, "rho_v")):
        ref[name] = [row[i] for row in desired] + [cell[i] for row in interference for cell in row]
    return {name: np.array(value) for name, value in ref.items()}


@pytest.mark.parametrize("links", [4, 10])
def test_assemble_and_reprice_match_per_link_composition(links):
    params = ChannelParams()
    trace = generate_platoon(3 * links, 13.89, 25.0, 200, seed=4)
    columns = np.arange(3 * links)
    geometry = link_geometry(trace, columns[:links], columns[links:].reshape(-1, 2), trace.n_slots, params)
    geo_rng = np.random.default_rng(links)
    for t in range(trace.n_slots):
        frame = [VehicleState(int(vid), x, y, speed) for vid, x, y, speed in trace.frame(t).tolist()]
        v2u = list(frame[:links])
        pairs = [(frame[links + 2 * k], frame[links + 2 * k + 1]) for k in range(links)]
        uav = make_uav(x=frame[0].x + geo_rng.uniform(-300.0, 300.0), altitude=geo_rng.uniform(50.0, 200.0))
        fading = draw_fading(links, links, np.random.default_rng((t, 0)))
        rng, ref_rng = np.random.default_rng((t, 1)), np.random.default_rng((t, 1))
        gains = assemble_gains(uav, geometry, t, fading, params, rng)
        ref = per_link_gains(uav, v2u, pairs, fading, params, ref_rng)
        for name, expected in ref.items():
            np.testing.assert_allclose(getattr(gains, name), expected, rtol=1e-12, atol=0.0, err_msg=name)
        assert rng.standard_normal() == ref_rng.standard_normal()
        # The reprice: the V2U family alone at another altitude, same fading.
        moved = make_uav(x=uav.x, altitude=geo_rng.uniform(50.0, 200.0))
        ref = per_link_gains(moved, v2u, pairs, fading, params, np.random.default_rng(0))
        h_u_m, h_u_k = v2u_family_gains(moved, geometry, t, fading, params)
        np.testing.assert_allclose(h_u_m, ref["h_u_m"], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(h_u_k, ref["h_u_k"], rtol=1e-12, atol=0.0)


# -- SINR and rate ------------------------------------------------------------


def make_gains(h_u_m, h_u_k, h_v_k, h_v_mk) -> LinkGains:
    h_u_m = np.asarray(h_u_m, dtype=float)
    h_u_k = np.asarray(h_u_k, dtype=float)
    h_v_k = np.asarray(h_v_k, dtype=float)
    h_v_mk = np.asarray(h_v_mk, dtype=float)
    m, k = h_u_m.size, h_u_k.size
    return LinkGains(
        h_u_m=h_u_m,
        h_u_k=h_u_k,
        h_v_k=h_v_k,
        h_v_mk=h_v_mk,
        h_v_k_hat=h_v_k.copy(),
        h_v_mk_hat=h_v_mk.copy(),
        pl_v_linear=np.ones(k + m * k),
        rho_v=np.ones(k + m * k),
        g_v_hat=np.ones(k + m * k, dtype=complex),
    )


def v2v_sinr(gains: LinkGains, action, params: ChannelParams) -> np.ndarray:
    """Reference (K,) V2V SINR under the action (aged gains): link k hears the
    V2U transmitter of every channel m with x[k, m] = 1. test_env checks the
    same reference against estimate_outage at zero delay."""
    interference = (action.x.T * (action.p_m[:, None] * gains.h_v_mk)).sum(axis=0)
    return action.p_k * gains.h_v_k / (interference + params.noise_power)


def action_for(x, p_m, p_k) -> FeasibleAction:
    return FeasibleAction(
        x=np.asarray(x, dtype=np.int64),
        p_m=np.asarray(p_m, dtype=float),
        p_k=np.asarray(p_k, dtype=float),
        delta_h=0.0,
    )


def test_v2u_sinr_without_sharing():
    params = ChannelParams()
    noise = params.noise_power
    assert noise == pytest.approx(7.96e-15, rel=1e-3)  # independent: 10^(-174/10)*1e-3*2e6
    gains = make_gains([3.0 * noise], [1.0], [1.0], [[1.0]])
    act = action_for([[0]], [1.0], [1.0])
    assert v2u_sinr(gains, act, params)[0] == pytest.approx(3.0, rel=1e-12)


def test_v2u_sinr_zero_power():
    params = ChannelParams()
    gains = make_gains([1e-12], [1.0], [1.0], [[1.0]])
    act = action_for([[0]], [0.0], [1.0])
    assert v2u_sinr(gains, act, params)[0] == 0.0


def test_v2u_sinr_one_sharer_halves():
    params = ChannelParams()
    noise = params.noise_power
    gains = make_gains([3.0 * noise], [noise], [1.0], [[1.0]])
    shared = action_for([[1]], [1.0], [1.0])
    unshared = action_for([[0]], [1.0], [1.0])
    assert v2u_sinr(gains, shared, params)[0] == pytest.approx(
        v2u_sinr(gains, unshared, params)[0] / 2.0, rel=1e-12
    )


def test_v2v_sinr_mirrors_v2u():
    params = ChannelParams()
    noise = params.noise_power
    gains = make_gains([1.0], [1.0], [3.0 * noise], [[noise]])
    no_share = action_for([[0]], [1.0], [1.0])
    share = action_for([[1]], [1.0], [1.0])
    assert v2v_sinr(gains, no_share, params)[0] == pytest.approx(3.0, rel=1e-12)
    assert v2v_sinr(gains, share, params)[0] == pytest.approx(1.5, rel=1e-12)
    zero_p = action_for([[0]], [1.0], [0.0])
    assert v2v_sinr(gains, zero_p, params)[0] == 0.0


def test_sinr_monotonicity():
    params = ChannelParams()
    rng = np.random.default_rng(1)
    for _ in range(50):
        h = rng.uniform(0.1, 2.0, size=4) * params.noise_power
        gains = make_gains([h[0]], [h[1]], [h[2]], [[h[3]]])
        p_m, p_k = rng.uniform(0.01, 0.2, size=2)
        act = action_for([[1]], [p_m], [p_k])
        base = v2u_sinr(gains, act, params)[0]
        more_own = action_for([[1]], [p_m * 1.5], [p_k])
        more_interf = action_for([[1]], [p_m], [p_k * 1.5])
        assert v2u_sinr(gains, more_own, params)[0] > base
        assert v2u_sinr(gains, more_interf, params)[0] <= base


def test_all_link_sinr_matches_per_index_formulas():
    params = ChannelParams()
    rng = np.random.default_rng(8)
    m_links, k_links = 5, 3
    for trial in range(50):
        gains = make_gains(*(rng.uniform(0.1, 3.0, size=shape) * params.noise_power
                             for shape in (m_links, k_links, k_links, (m_links, k_links))))
        x = (rng.uniform(size=(k_links, m_links)) < 0.4).astype(np.int64)
        x[:, trial % m_links] = 1  # a channel several V2V links share
        x[trial % k_links] = 0  # a V2V link on no channel
        act = action_for(x, rng.uniform(0.0, 0.2, m_links), rng.uniform(0.0, 0.2, k_links))
        noise = params.noise_power
        v2u = [
            act.p_m[m] * gains.h_u_m[m]
            / (sum(act.p_k[k] * gains.h_u_k[k] for k in range(k_links) if x[k, m]) + noise)
            for m in range(m_links)
        ]
        v2v = [
            act.p_k[k] * gains.h_v_k[k]
            / (sum(act.p_m[m] * gains.h_v_mk[m, k] for m in range(m_links) if x[k, m]) + noise)
            for k in range(k_links)
        ]
        np.testing.assert_allclose(v2u_sinr(gains, act, params), v2u, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(v2v_sinr(gains, act, params), v2v, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(v2u_rate(v2u_sinr(gains, act, params), params), [v2u_rate(g, params) for g in v2u],
                                   rtol=1e-12, atol=0.0)


def test_v2u_rate_values():
    params = ChannelParams()
    assert v2u_rate(0.0, params) == 0.0
    assert v2u_rate(1.0, params) == pytest.approx(2e6, rel=1e-12)
    assert v2u_rate(3.0, params) == pytest.approx(4e6, rel=1e-12)
    with pytest.raises(ValueError):
        v2u_rate(-0.1, params)


def test_rate_monotone_in_sinr():
    params = ChannelParams()
    gammas = np.linspace(0.0, 50.0, 200)
    rates = [v2u_rate(float(g), params) for g in gammas]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert all(r >= 0.0 for r in rates)
