"""Per-slot channel physics: path loss, fading, CSI aging, SINR, and rate.

Vehicle-to-UAV links use an elevation-angle LoS-probability path loss with the
LoS/NLoS mix averaged in dB; vehicle-to-vehicle links use the ground model
44.23 + 16.7*log10(d). Feedback delay on V2V small-scale fading follows a
first-order Gauss-Markov step with correlation J0(2*pi*f_c*s_rel*T_delay/c).
All SINR and rate math is linear SI; dB is converted exactly once when gains
are assembled.

Each formula is written once over numpy arrays of links. What depends only
on the mobility trace (V2V path loss, relative speed, J0, and the positions of
the transmitters the UAV hears) is tabled once per trace by link_geometry, so
a slot's gains take the slot's table rows, its fading, and one array pass for
the V2U family at the UAV's position. The scalar functions wrap the same
formulas for one link.

Only numpy is needed: J0 is a port of the Cephes rational approximation that
scipy.special.j0 evaluates, and the LoS sigmoid uses libm's exp through the
math module, so both equal scipy's values bit for bit without loading scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError, require_finite
from .mobility import MobilityTrace, UavState, VehicleState


@dataclass(frozen=True)
class ChannelParams:
    """Radio constants. Defaults follow a 5.9 GHz, 2 MHz-channel highway setup."""

    carrier_frequency: float = 5.9e9
    bandwidth_per_channel: float = 2e6
    noise_psd: float = 10.0 ** (-174.0 / 10.0) * 1e-3  # -174 dBm/Hz, linear W/Hz
    alpha_los: float = 1.0
    alpha_nlos: float = 20.0
    env_a: float = 12.08
    env_b: float = 0.11
    light_speed: float = 299_792_458.0
    t_delay: float = 0.010
    s_rel_min: float = 1.5  # floor on per-link relative speed, m/s

    def __post_init__(self):
        require_finite(self)
        for name in ("carrier_frequency", "bandwidth_per_channel", "noise_psd", "env_a", "env_b", "light_speed"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        # s_rel_min may be 0: _age then leaves links with zero relative speed unaged.
        for name in ("alpha_los", "alpha_nlos", "t_delay", "s_rel_min"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def noise_power(self) -> float:
        """Thermal noise power per channel, N0*B, in watts."""
        return self.noise_psd * self.bandwidth_per_channel


@dataclass(frozen=True)
class FadingState:
    """One slot's small-scale fading draws, all CN(0,1).

    g_u feeds the V2U-family gains (no aging): the M V2U transmitters, then
    the K V2V transmitters, heard at the UAV. g_v_hat is the V2V block of
    pre-delay coefficients that the Gauss-Markov step ages: the K desired
    links, then the M x K interference family row-major.
    """

    g_u: np.ndarray  # (M + K,) complex
    g_u_power: np.ndarray  # (M + K,) |g_u|^2
    g_v_hat: np.ndarray  # (K + M*K,) complex


@dataclass(frozen=True)
class LinkGeometry:
    """The trace-only part of every link, one row per slot, read-only.

    Columns of the V2V tables follow the V2V block (K desired links, then the
    M x K interference family row-major: V2U transmitter m to the receiver of
    pair k); columns of tx_x / tx_y follow the V2U family (the M V2U
    transmitters, then the K V2V transmitters).
    """

    m_links: int
    k_links: int
    pl_v_linear: np.ndarray  # (T, K + M*K) V2V path loss, linear
    s_rel_v: np.ndarray  # (T, K + M*K) relative speed floored at s_rel_min, m/s
    rho_v: np.ndarray  # (T, K + M*K) aging correlation
    tx_x: np.ndarray  # (T, M + K) V2U-family transmitter x, m
    tx_y: np.ndarray  # (T, M + K) V2U-family transmitter y, m


@dataclass(frozen=True)
class LinkGains:
    """All per-slot linear power gains plus the pieces needed to re-age them.

    h_v_k / h_v_mk are built from aged fading; the *_hat variants from the
    pre-delay fading (used by the delay-blind observation mode). pl_v_linear,
    rho_v and g_v_hat are the V2V block (K desired links, then the M x K
    interference family row-major) and support outage Monte-Carlo redraws of
    the discrepancy term with path loss and pre-delay fading held fixed.
    """

    h_u_m: np.ndarray  # (M,)
    h_u_k: np.ndarray  # (K,)
    h_v_k: np.ndarray  # (K,)
    h_v_mk: np.ndarray  # (M, K)
    h_v_k_hat: np.ndarray  # (K,)
    h_v_mk_hat: np.ndarray  # (M, K)
    pl_v_linear: np.ndarray  # (K + M*K,)
    rho_v: np.ndarray  # (K + M*K,) aging correlation per V2V link
    g_v_hat: np.ndarray  # (K + M*K,) complex


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


# Cephes j0 coefficients (j0.c, also scipy.special's): RP/RQ with the squared
# zeros DR1, DR2 for |x| <= 5; PP/PQ and QP/QQ of the asymptotic phase form
# in q = 25/x^2 beyond. p1evl tables omit their leading coefficient 1.
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
          5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
          5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
          -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
          7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14,
          9.70862251047306323952e15)
_J0_RQ = (4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
          1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)


def _polevl(x, coef, leading_one=False):
    """Horner sum in Cephes' order: polevl, or p1evl when leading_one."""
    acc = x + coef[0] if leading_one else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def bessel_j0(x):
    """Zero-order Bessel function of the first kind, for a float or an array.

    A numpy port of Cephes' j0 (the routine scipy.special.j0 evaluates), with
    its branches, coefficients and operation order, so its values equal
    scipy's bit for bit where numpy's sin, cos and sqrt equal libm's.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x <= 5.0
    z = x[near] * x[near]
    out[near] = np.where(
        x[near] < 1e-5,
        1.0 - z / 4.0,
        (z - _J0_DR1) * (z - _J0_DR2) * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ, leading_one=True),
    )
    far = x[~near]
    q = 25.0 / (far * far)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ, leading_one=True)
    xn = far - math.pi / 4.0
    out[~near] = (p * np.cos(xn) - 5.0 / far * q * np.sin(xn)) * _SQ2OPI / np.sqrt(far)
    return float(out) if out.ndim == 0 else out


def expit(x):
    """Logistic sigmoid 1/(1 + exp(-x)) per element of a float or an array.

    math.exp is libm's exp, as in scipy.special.expit, so the values equal
    scipy's bit for bit; numpy's SIMD exp differs from libm's in the last bit
    on some inputs. Where exp(-x) overflows the sigmoid is 0.0.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for v in x.ravel().tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(-v)))
        except OverflowError:
            out.append(0.0)
    return np.array(out).reshape(x.shape)


def _horizontal(uav: UavState, x, y):
    """Horizontal UAV-to-ground distance to points (x, y); scalars or arrays."""
    return np.hypot(uav.x - x, uav.y - y)


def _los_probability(uav: UavState, horiz, params: ChannelParams):
    """Elevation-angle sigmoid Pr_LoS = 1/(1 + a*exp(-b*(theta_deg - a))) at
    horizontal distances horiz, as expit(b*(theta_deg - a) - ln a) so a steep
    sigmoid saturates at 0 or 1 instead of overflowing.

    expit goes through math.exp, not numpy's exp: numpy's SIMD exp differs
    from libm's in the last bit on some inputs, and one such bit would change
    every gain, rate and reward after it.
    """
    theta_deg = np.degrees(np.arctan2(uav.altitude, horiz))  # horiz = 0 -> 90 deg
    return expit(params.env_b * (theta_deg - params.env_a) - math.log(params.env_a))


def _v2u_path_loss(uav: UavState, horiz, params: ChannelParams, pr_los=None):
    """Air-ground path loss in dB at horizontal distances horiz: LoS/NLoS
    free-space variants mixed in dB by pr_los (default: the elevation-angle
    probability)."""
    d = np.sqrt(uav.altitude**2 + horiz**2)
    if not (d > 0.0).all():
        raise InvalidGeometryError("V2U link has zero 3-D distance")
    if pr_los is None:
        pr_los = _los_probability(uav, horiz, params)
    fspl = 20.0 * np.log10(4.0 * math.pi * params.carrier_frequency * d / params.light_speed)
    return pr_los * (fspl + params.alpha_los) + (1.0 - pr_los) * (fspl + params.alpha_nlos)


def _v2v_path_loss(d):
    """Ground-to-ground path loss in dB, 44.23 + 16.7*log10(d), at distances d."""
    return 44.23 + 16.7 * np.log10(d)


def _age(g_hat: np.ndarray, s_rel: np.ndarray, rho: np.ndarray, params: ChannelParams, rng) -> np.ndarray:
    """Gauss-Markov step g = rho*g_hat + delta, delta ~ CN(0, 1 - rho^2), per link.

    The links with nonzero delay and relative speed draw one (n, 2) block of
    (re, im) normals in link order; the others draw nothing and keep g_hat bit
    for bit.
    """
    g = np.array(g_hat, dtype=complex)
    aged = (s_rel != 0.0) & (params.t_delay != 0.0)
    r = rho[aged]
    scale = np.sqrt(np.maximum(0.0, 1.0 - r * r) / 2.0)
    g[aged] = r * g[aged] + (rng.standard_normal((r.size, 2)) * scale[:, None]).view(complex)[:, 0]
    return g


def v2u_path_loss(uav: UavState, vehicle: VehicleState, params: ChannelParams, *, pr_los=None) -> float:
    """Air-ground path loss in dB of one V2U link.

    pr_los overrides the elevation-angle probability (test hook).
    """
    return float(_v2u_path_loss(uav, _horizontal(uav, vehicle.x, vehicle.y), params, pr_los))


def v2v_path_loss(tx: VehicleState, rx: VehicleState) -> float:
    """Ground-to-ground path loss in dB of one V2V link: 44.23 + 16.7*log10(d)."""
    d = np.hypot(tx.x - rx.x, tx.y - rx.y)
    if not d > 0.0:
        raise InvalidGeometryError(f"V2V link {tx.id}->{rx.id} has zero distance")
    return float(_v2v_path_loss(d))


def aging_correlation(s_rel, params: ChannelParams):
    """Gauss-Markov correlation J0(2*pi*f_c*s_rel*T_delay/c) for one link or an array of links."""
    return bessel_j0(2.0 * math.pi * params.carrier_frequency * s_rel * params.t_delay / params.light_speed)


def age_fading(g_hat, s_rel, params: ChannelParams, rng: np.random.Generator):
    """Age pre-delay fading coefficients across the feedback delay: one
    coefficient (returns a complex) or an array (broadcast against s_rel).

    g = rho*g_hat + delta with delta ~ CN(0, 1 - rho^2); with zero delay (or
    zero relative speed) a coefficient is returned unchanged, bit for bit. An
    array draws what the same coefficients aged one by one in order would.
    """
    g, s = np.broadcast_arrays(np.asarray(g_hat, dtype=complex), np.asarray(s_rel, dtype=float))
    aged = _age(g.ravel(), s.ravel(), aging_correlation(s.ravel(), params), params, rng).reshape(g.shape)
    return complex(aged) if aged.ndim == 0 else aged


def draw_fading(m_links: int, k_links: int, rng: np.random.Generator) -> FadingState:
    """Draw one slot's i.i.d. CN(0,1) coefficients (real/imag each N(0, 1/2)).

    One draw of 2*(M + 2K + M*K) normals holds, family by family (g_u_m,
    g_u_k, g_v_k_hat, g_v_mk_hat), its real parts and then its imaginary
    parts: the stream of drawing each family's parts in turn.
    """
    sizes = (m_links, k_links, k_links, m_links * k_links)
    draws = rng.standard_normal(2 * sum(sizes))
    families, start = [], 0
    for n in sizes:
        families.append(draws[start : start + 2 * n].reshape(2, n))
        start += 2 * n
    re, im = np.concatenate(families, axis=1)
    g = (re + 1j * im) * math.sqrt(0.5)
    g_u = g[: m_links + k_links]
    return FadingState(g_u=g_u, g_u_power=np.abs(g_u) ** 2, g_v_hat=g[m_links + k_links :])


def link_geometry(
    trace: MobilityTrace, v2u_cols: np.ndarray, pair_cols: np.ndarray, n_slots: int, params: ChannelParams
) -> LinkGeometry:
    """Table slots 0..n_slots-1 of the links between the V2U transmitters in
    trace columns v2u_cols (M,) and the V2V (tx, rx) pairs in pair_cols (K, 2).

    Raises InvalidGeometryError naming the first slot and V2V link whose
    endpoints coincide.
    """
    m_links, k_links = len(v2u_cols), len(pair_cols)
    x, y, speed = (a[:n_slots] for a in (trace.x, trace.y, trace.speed))
    tx = np.concatenate([pair_cols[:, 0], np.repeat(v2u_cols, k_links)])
    rx = np.tile(pair_cols[:, 1], m_links + 1)
    d = np.hypot(x[:, tx] - x[:, rx], y[:, tx] - y[:, rx])
    if not np.all(d > 0.0):
        t, i = np.argwhere(~(d > 0.0))[0]
        raise InvalidGeometryError(f"slot {t}: V2V link {trace.ids[tx[i]]}->{trace.ids[rx[i]]} has zero distance")
    s_rel = np.maximum(np.abs(speed[:, tx] - speed[:, rx]), params.s_rel_min)
    heard = np.concatenate([v2u_cols, pair_cols[:, 0]])
    tables = (db_to_linear(_v2v_path_loss(d)), s_rel, aging_correlation(s_rel, params), x[:, heard], y[:, heard])
    for table in tables:
        table.flags.writeable = False
    return LinkGeometry(m_links, k_links, *tables)


def v2u_family_gains(uav: UavState, geometry: LinkGeometry, slot: int, fading: FadingState, params: ChannelParams):
    """(h_u_m, h_u_k): |g|^2 / PL_linear from the M V2U transmitters and the K
    V2V transmitters to the UAV, the only gains that depend on its altitude."""
    horiz = _horizontal(uav, geometry.tx_x[slot], geometry.tx_y[slot])
    h = fading.g_u_power / db_to_linear(_v2u_path_loss(uav, horiz, params))
    return h[: geometry.m_links], h[geometry.m_links :]


def assemble_gains(
    uav: UavState,
    geometry: LinkGeometry,
    slot: int,
    fading: FadingState,
    params: ChannelParams,
    rng: np.random.Generator,
) -> LinkGains:
    """Compose |g|^2 / PL_linear for every link family from the slot's rows of
    the geometry tables and the UAV's position.

    The aged V2V gains apply the Gauss-Markov step to the V2V block in block
    order; the pre-delay gains use the raw coefficients.
    """
    m_links, k_links = geometry.m_links, geometry.k_links
    if fading.g_u.shape != (m_links + k_links,) or fading.g_v_hat.shape != (k_links + m_links * k_links,):
        raise ValueError("fading dimensions do not match link counts")
    pl, rho = geometry.pl_v_linear[slot], geometry.rho_v[slot]
    h = np.abs(_age(fading.g_v_hat, geometry.s_rel_v[slot], rho, params, rng)) ** 2 / pl
    h_hat = np.abs(fading.g_v_hat) ** 2 / pl

    def split(block):
        return block[:k_links], block[k_links:].reshape(m_links, k_links)

    h_u = v2u_family_gains(uav, geometry, slot, fading, params)
    return LinkGains(*h_u, *split(h), *split(h_hat), pl, rho, fading.g_v_hat)


def v2u_sinr(gains: LinkGains, action, params: ChannelParams) -> np.ndarray:
    """(M,) SINR of every V2U link under the action (true gains): channel m
    hears every V2V link k with x[k, m] = 1."""
    interference = (action.p_k * gains.h_u_k) @ action.x
    return action.p_m * gains.h_u_m / (interference + params.noise_power)


def v2u_rate(gamma, params: ChannelParams):
    """Shannon rate B*log2(1+gamma) in bits/second, for one SINR or an array."""
    gamma = np.asarray(gamma, dtype=float)
    if (gamma < 0.0).any():
        raise ValueError(f"SINR must be >= 0, got {gamma}")
    return params.bandwidth_per_channel * np.log2(1.0 + gamma)
