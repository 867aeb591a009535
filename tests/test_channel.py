import math

import numpy as np
import pytest

from skysched.channel import (
    ChannelParams,
    FadingState,
    LinkGains,
    age_fading,
    aging_correlation,
    assemble_gains,
    bessel_j0,
    db_to_linear,
    draw_fading,
    los_probability,
    v2u_family_gains,
    v2u_path_loss,
    v2u_rate,
    v2u_sinr,
    v2v_path_loss,
    v2v_sinr,
)
from skysched.env import FeasibleAction
from skysched.errors import InvalidGeometryError
from skysched.mobility import UavState, VehicleState, generate_platoon


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


# -- LoS probability ----------------------------------------------------------


def make_uav(x=0.0, y=0.0, altitude=100.0):
    return UavState(x=x, y=y, altitude=altitude)


def make_vehicle(x=0.0, y=0.0, speed=13.89, vid=0):
    return VehicleState(id=vid, x=x, y=y, speed=speed)


def test_los_probability_at_angle_equal_to_a():
    params = ChannelParams()
    horiz = 100.0
    alt = horiz * math.tan(math.radians(params.env_a))
    pr = los_probability(make_uav(altitude=alt), make_vehicle(x=horiz), params)
    assert pr == pytest.approx(1.0 / (1.0 + params.env_a), rel=1e-9)
    assert pr == pytest.approx(0.07645, abs=5e-6)


def test_los_probability_overhead():
    pr = los_probability(make_uav(altitude=100.0), make_vehicle(x=0.0), ChannelParams())
    assert pr == pytest.approx(0.997716247081094, rel=1e-9)


def test_los_probability_saturates_with_large_b():
    params = ChannelParams(env_b=100.0)
    pr = los_probability(make_uav(altitude=100.0), make_vehicle(x=100.0), params)  # 45 deg > a
    assert pr == pytest.approx(1.0, abs=1e-10)


def test_los_probability_steep_sigmoid_far_vehicle_is_zero():
    # b*(theta - a) is about -922 here; the sigmoid must saturate, not overflow.
    params = ChannelParams(env_b=100.0)
    pr = los_probability(make_uav(altitude=50.0), make_vehicle(x=1000.0), params)
    assert 0.0 <= pr <= 1e-12


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
    aged = np.array([age_fading(complex(g), s_rel, params, rng) for g in g_hat])
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
        g_u_m=np.ones(m, dtype=complex),
        g_u_k=np.ones(k, dtype=complex),
        g_v_k_hat=np.ones(k, dtype=complex),
        g_v_mk_hat=np.ones((m, k), dtype=complex),
    )


def test_gain_is_pathloss_inverse_for_unit_fading():
    # V2V distance chosen so the ground path loss is exactly 20 dB.
    params = ChannelParams(t_delay=0.0)
    d = 10.0 ** ((20.0 - 44.23) / 16.7)
    uav = make_uav(altitude=100.0)
    tx = make_vehicle(x=0.0, vid=10)
    rx = make_vehicle(x=d, vid=11)
    gains = assemble_gains(uav, [tx], [(tx, rx)], unit_fading(1, 1), params, np.random.default_rng(0))
    assert gains.h_v_k[0] == pytest.approx(0.01, rel=1e-9)


def test_zero_delay_makes_aged_equal_predelay():
    params = ChannelParams(t_delay=0.0)
    rng = np.random.default_rng(7)
    uav = make_uav(altitude=120.0, x=10.0)
    vehicles = [make_vehicle(x=20.0 * i, vid=i, speed=13.0 + i) for i in range(4)]
    pairs = [(vehicles[2], vehicles[3])]
    from skysched.channel import draw_fading

    fading = draw_fading(2, 1, rng)
    gains = assemble_gains(uav, vehicles[:2], pairs, fading, params, rng)
    assert np.array_equal(gains.h_v_k, gains.h_v_k_hat)
    assert np.array_equal(gains.h_v_mk, gains.h_v_mk_hat)


def test_assemble_matches_hand_composition():
    """Compose per-link gains from the path-loss and fading primitives."""
    params = ChannelParams(t_delay=0.0)
    rng = np.random.default_rng(3)
    uav = make_uav(altitude=90.0, x=5.0)
    v2u = [make_vehicle(x=0.0, vid=0), make_vehicle(x=40.0, vid=1)]
    pair = (make_vehicle(x=80.0, vid=2), make_vehicle(x=105.0, vid=3))
    from skysched.channel import draw_fading

    fading = draw_fading(2, 1, rng)
    gains = assemble_gains(uav, v2u, [pair], fading, params, rng)
    for m in range(2):
        expected = abs(fading.g_u_m[m]) ** 2 / db_to_linear(v2u_path_loss(uav, v2u[m], params))
        assert gains.h_u_m[m] == pytest.approx(expected, rel=1e-12)
    expected_uk = abs(fading.g_u_k[0]) ** 2 / db_to_linear(v2u_path_loss(uav, pair[0], params))
    assert gains.h_u_k[0] == pytest.approx(expected_uk, rel=1e-12)
    expected_vk = abs(fading.g_v_k_hat[0]) ** 2 / db_to_linear(v2v_path_loss(*pair))
    assert gains.h_v_k[0] == pytest.approx(expected_vk, rel=1e-12)
    for m in range(2):
        expected_mk = abs(fading.g_v_mk_hat[m, 0]) ** 2 / db_to_linear(v2v_path_loss(v2u[m], pair[1]))
        assert gains.h_v_mk[m, 0] == pytest.approx(expected_mk, rel=1e-12)


def per_link_gains(uav, v2u, pairs, fading, params, rng):
    """Reference: every gain composed link by link from the scalar primitives,
    aging the desired links first and then the interference links row-major,
    with one scalar normal per real and imaginary part."""

    def v2u_gain(g, veh):
        return abs(g) ** 2 / db_to_linear(v2u_path_loss(uav, veh, params))

    def v2v_gains(g_hat, tx, rx):
        pl = db_to_linear(v2v_path_loss(tx, rx))
        s_rel = max(abs(tx.speed - rx.speed), params.s_rel_min)
        rho = aging_correlation(s_rel, params)
        scale = math.sqrt(max(0.0, 1.0 - rho * rho) / 2.0)
        aged = rho * g_hat + complex(rng.standard_normal() * scale, rng.standard_normal() * scale)
        return abs(aged) ** 2 / pl, abs(g_hat) ** 2 / pl, pl, rho

    desired = [v2v_gains(complex(fading.g_v_k_hat[k]), tx, rx) for k, (tx, rx) in enumerate(pairs)]
    interference = [
        [v2v_gains(complex(fading.g_v_mk_hat[m, k]), veh, rx) for k, (_tx, rx) in enumerate(pairs)]
        for m, veh in enumerate(v2u)
    ]
    ref = {
        "h_u_m": [v2u_gain(fading.g_u_m[m], veh) for m, veh in enumerate(v2u)],
        "h_u_k": [v2u_gain(fading.g_u_k[k], tx) for k, (tx, _rx) in enumerate(pairs)],
    }
    for i, name in enumerate(("h_v{}", "h_v{}_hat", "pl_v{}_linear", "rho_v{}")):
        ref[name.format("_k")] = [row[i] for row in desired]
        ref[name.format("_mk")] = [[cell[i] for cell in row] for row in interference]
    return {name: np.array(value) for name, value in ref.items()}


@pytest.mark.parametrize("links", [4, 10])
def test_assemble_and_reprice_match_per_link_composition(links):
    params = ChannelParams()
    trace = generate_platoon(3 * links, 13.89, 25.0, 200, seed=4)
    geo_rng = np.random.default_rng(links)
    for t in range(trace.n_slots):
        frame = trace.slots[t]
        v2u = list(frame[:links])
        pairs = [(frame[links + 2 * k], frame[links + 2 * k + 1]) for k in range(links)]
        uav = make_uav(x=frame[0].x + geo_rng.uniform(-300.0, 300.0), altitude=geo_rng.uniform(50.0, 200.0))
        fading = draw_fading(links, links, np.random.default_rng((t, 0)))
        rng, ref_rng = np.random.default_rng((t, 1)), np.random.default_rng((t, 1))
        gains = assemble_gains(uav, v2u, pairs, fading, params, rng)
        ref = per_link_gains(uav, v2u, pairs, fading, params, ref_rng)
        for name, expected in ref.items():
            np.testing.assert_allclose(getattr(gains, name), expected, rtol=1e-12, atol=0.0, err_msg=name)
        assert rng.standard_normal() == ref_rng.standard_normal()
        # The reprice: the V2U family alone at another altitude, same fading.
        moved = make_uav(x=uav.x, altitude=geo_rng.uniform(50.0, 200.0))
        ref = per_link_gains(moved, v2u, pairs, fading, params, np.random.default_rng(0))
        h_u_m, h_u_k = v2u_family_gains(moved, v2u, pairs, fading, params)
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
        pl_v_k_linear=np.ones(k),
        pl_v_mk_linear=np.ones((m, k)),
        rho_v_k=np.ones(k),
        rho_v_mk=np.ones((m, k)),
        g_v_k_hat=np.ones(k, dtype=complex),
        g_v_mk_hat=np.ones((m, k), dtype=complex),
    )


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
