"""Per-slot channel physics: path loss, fading, CSI aging, SINR, and rate.

Vehicle-to-UAV links use an elevation-angle LoS-probability path loss with the
LoS/NLoS mix averaged in dB; vehicle-to-vehicle links use the ground model
44.23 + 16.7*log10(d). Feedback delay on V2V small-scale fading follows a
first-order Gauss-Markov step with correlation J0(2*pi*f_c*s_rel*T_delay/c).
All SINR and rate math is linear SI; dB is converted exactly once when gains
are assembled.

Each formula is written once over numpy arrays of links, so a slot's gains,
SINRs and rates take one array pass per link family and J0 is evaluated once
per link; the scalar functions are one-link wrappers over the same formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.special import j0 as _scipy_j0

from .errors import InvalidGeometryError
from .mobility import UavState, VehicleState


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
        for name in ("carrier_frequency", "bandwidth_per_channel", "noise_psd", "env_a", "env_b", "light_speed"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.alpha_los < 0.0 or self.alpha_nlos < 0.0:
            raise ValueError("alpha_los and alpha_nlos must be >= 0")
        if self.t_delay < 0.0:
            raise ValueError("t_delay must be >= 0")

    @property
    def noise_power(self) -> float:
        """Thermal noise power per channel, N0*B, in watts."""
        return self.noise_psd * self.bandwidth_per_channel


@dataclass(frozen=True)
class FadingState:
    """One slot's small-scale fading draws, all CN(0,1).

    g_u_m / g_u_k feed the V2U-family gains (no aging). g_v_k_hat / g_v_mk_hat
    are the pre-delay V2V coefficients that the Gauss-Markov step ages.
    """

    g_u_m: np.ndarray  # (M,) complex
    g_u_k: np.ndarray  # (K,) complex
    g_v_k_hat: np.ndarray  # (K,) complex
    g_v_mk_hat: np.ndarray  # (M, K) complex


@dataclass(frozen=True)
class LinkGains:
    """All per-slot linear power gains plus the pieces needed to re-age them.

    h_v_k / h_v_mk are built from aged fading; the *_hat variants from the
    pre-delay fading (used by the delay-blind observation mode). pl_*_linear,
    rho_* and g_*_hat support outage Monte-Carlo redraws of the discrepancy
    term with path loss and pre-delay fading held fixed.
    """

    h_u_m: np.ndarray  # (M,)
    h_u_k: np.ndarray  # (K,)
    h_v_k: np.ndarray  # (K,)
    h_v_mk: np.ndarray  # (M, K)
    h_v_k_hat: np.ndarray  # (K,)
    h_v_mk_hat: np.ndarray  # (M, K)
    pl_v_k_linear: np.ndarray  # (K,)
    pl_v_mk_linear: np.ndarray  # (M, K)
    rho_v_k: np.ndarray  # (K,) aging correlation per V2V desired link
    rho_v_mk: np.ndarray  # (M, K)
    g_v_k_hat: np.ndarray  # (K,) complex
    g_v_mk_hat: np.ndarray  # (M, K) complex


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def bessel_j0(x):
    """Zero-order Bessel function of the first kind (scipy-backed)."""
    return float(_scipy_j0(x)) if np.isscalar(x) else _scipy_j0(x)


def _kinematics(vehicles) -> np.ndarray:
    """(n, 4) rows of (id, x, y, speed): the array form of a vehicle sequence."""
    return np.array([(v.id, v.x, v.y, v.speed) for v in vehicles], dtype=float).reshape(-1, 4)


def _horizontal(uav: UavState, x, y):
    """Horizontal UAV-to-ground distance to points (x, y); scalars or arrays."""
    return np.hypot(uav.x - x, uav.y - y)


def _los_probability(uav: UavState, horiz, params: ChannelParams):
    """Elevation-angle sigmoid Pr_LoS = 1/(1 + a*exp(-b*(theta_deg - a))) at
    horizontal distances horiz, as expit(b*(theta_deg - a) - ln a) so a steep
    sigmoid saturates at 0 or 1 instead of overflowing."""
    theta_deg = np.degrees(np.arctan2(uav.altitude, horiz))  # horiz = 0 -> 90 deg
    return expit(params.env_b * (theta_deg - params.env_a) - math.log(params.env_a))


def _v2u_path_loss(uav: UavState, horiz, params: ChannelParams, pr_los=None):
    """Air-ground path loss in dB at horizontal distances horiz: LoS/NLoS
    free-space variants mixed in dB by pr_los (default: the elevation-angle
    probability)."""
    d = np.sqrt(uav.altitude**2 + horiz**2)
    if not np.all(d > 0.0):
        raise InvalidGeometryError("V2U link has zero 3-D distance")
    if pr_los is None:
        pr_los = _los_probability(uav, horiz, params)
    fspl = 20.0 * np.log10(4.0 * math.pi * params.carrier_frequency * d / params.light_speed)
    return pr_los * (fspl + params.alpha_los) + (1.0 - pr_los) * (fspl + params.alpha_nlos)


def _v2v_path_loss(tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Ground-to-ground path loss in dB, 44.23 + 16.7*log10(d), between
    matching rows of two (n, 4) kinematics arrays."""
    d = np.hypot(tx[:, 1] - rx[:, 1], tx[:, 2] - rx[:, 2])
    if not np.all(d > 0.0):
        i = np.argmin(d)
        raise InvalidGeometryError(f"V2V link {int(tx[i, 0])}->{int(rx[i, 0])} has zero distance")
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


def los_probability(uav: UavState, vehicle: VehicleState, params: ChannelParams) -> float:
    """Elevation-angle LoS probability of one V2U link."""
    return float(_los_probability(uav, _horizontal(uav, vehicle.x, vehicle.y), params))


def v2u_path_loss(uav: UavState, vehicle: VehicleState, params: ChannelParams, *, pr_los=None) -> float:
    """Air-ground path loss in dB of one V2U link.

    pr_los overrides the elevation-angle probability (test hook).
    """
    return float(_v2u_path_loss(uav, _horizontal(uav, vehicle.x, vehicle.y), params, pr_los))


def v2v_path_loss(tx: VehicleState, rx: VehicleState) -> float:
    """Ground-to-ground path loss in dB of one V2V link: 44.23 + 16.7*log10(d)."""
    return float(_v2v_path_loss(_kinematics([tx]), _kinematics([rx]))[0])


def aging_correlation(s_rel, params: ChannelParams):
    """Gauss-Markov correlation J0(2*pi*f_c*s_rel*T_delay/c) for one link or an array of links."""
    return bessel_j0(2.0 * math.pi * params.carrier_frequency * s_rel * params.t_delay / params.light_speed)


def age_fading(g_hat: complex, s_rel: float, params: ChannelParams, rng: np.random.Generator) -> complex:
    """Age one pre-delay fading coefficient across the feedback delay.

    g = rho*g_hat + delta with delta ~ CN(0, 1 - rho^2); with zero delay (or
    zero relative speed) the coefficient is returned unchanged, bit for bit.
    """
    s = np.array([s_rel], dtype=float)
    return complex(_age(np.array([g_hat]), s, aging_correlation(s, params), params, rng)[0])


def draw_fading(m_links: int, k_links: int, rng: np.random.Generator) -> FadingState:
    """Draw one slot's i.i.d. CN(0,1) coefficients (real/imag each N(0, 1/2))."""

    def cn01(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)

    return FadingState(
        g_u_m=cn01(m_links),
        g_u_k=cn01(k_links),
        g_v_k_hat=cn01(k_links),
        g_v_mk_hat=cn01((m_links, k_links)),
    )


def v2u_family_gains(uav: UavState, v2u_tx, v2v_pairs, fading: FadingState, params: ChannelParams):
    """(h_u_m, h_u_k): |g|^2 / PL_linear from the M V2U transmitters and the K
    V2V transmitters to the UAV, the only gains that depend on its altitude."""
    kin = _kinematics([*v2u_tx, *(tx for tx, _rx in v2v_pairs)])
    pl = db_to_linear(_v2u_path_loss(uav, _horizontal(uav, kin[:, 1], kin[:, 2]), params))
    h = np.abs(np.concatenate([fading.g_u_m, fading.g_u_k])) ** 2 / pl
    return h[: len(v2u_tx)], h[len(v2u_tx) :]


def assemble_gains(
    uav: UavState,
    v2u_tx: list[VehicleState],
    v2v_pairs: list[tuple[VehicleState, VehicleState]],
    fading: FadingState,
    params: ChannelParams,
    rng: np.random.Generator,
) -> LinkGains:
    """Compose |g|^2 / PL_linear for every link family at the given geometry.

    v2u_tx holds the M V2U transmitters; v2v_pairs the K (tx, rx) vehicle
    pairs. The V2V families form one block of K + M*K links, the desired links
    first and then the M x K interference family row-major; the aged gains
    apply the Gauss-Markov step to it in that order, and the pre-delay gains
    use the raw coefficients.
    """
    m_links, k_links = len(v2u_tx), len(v2v_pairs)
    if fading.g_u_m.shape != (m_links,) or fading.g_v_mk_hat.shape != (m_links, k_links):
        raise ValueError("fading dimensions do not match link counts")
    pair_rx = _kinematics(rx for _tx, rx in v2v_pairs)
    tx = np.concatenate([_kinematics(tx for tx, _rx in v2v_pairs), np.repeat(_kinematics(v2u_tx), k_links, axis=0)])
    rx = np.concatenate([pair_rx, np.tile(pair_rx, (m_links, 1))])
    pl = db_to_linear(_v2v_path_loss(tx, rx))
    s_rel = np.maximum(np.abs(tx[:, 3] - rx[:, 3]), params.s_rel_min)
    rho = aging_correlation(s_rel, params)
    g_hat = np.concatenate([fading.g_v_k_hat, fading.g_v_mk_hat.ravel()])
    h = np.abs(_age(g_hat, s_rel, rho, params, rng)) ** 2 / pl

    def split(block):
        return block[:k_links], block[k_links:].reshape(m_links, k_links)

    # LinkGains lists each V2V quantity as its (K,) desired part, then its (M, K) interference part.
    h_u = v2u_family_gains(uav, v2u_tx, v2v_pairs, fading, params)
    return LinkGains(*h_u, *split(h), *split(np.abs(g_hat) ** 2 / pl), *split(pl), *split(rho), *split(g_hat))


def v2u_sinr(gains: LinkGains, action, params: ChannelParams) -> np.ndarray:
    """(M,) SINR of every V2U link under the action (true gains): channel m
    hears every V2V link k with x[k, m] = 1."""
    interference = (action.p_k * gains.h_u_k) @ action.x
    return action.p_m * gains.h_u_m / (interference + params.noise_power)


def v2v_sinr(gains: LinkGains, action, params: ChannelParams) -> np.ndarray:
    """(K,) SINR of every V2V link under the action (aged gains): link k hears
    the V2U transmitter of every channel m with x[k, m] = 1."""
    interference = (action.x.T * (action.p_m[:, None] * gains.h_v_mk)).sum(axis=0)
    return action.p_k * gains.h_v_k / (interference + params.noise_power)


def v2u_rate(gamma, params: ChannelParams):
    """Shannon rate B*log2(1+gamma) in bits/second, for one SINR or an array."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError(f"SINR must be >= 0, got {gamma}")
    return params.bandwidth_per_channel * np.log2(1.0 + gamma)
