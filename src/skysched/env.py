"""The per-slot decision environment: state assembly, action feasibility
projection, outage checking, reward, and world stepping.

Raw policy outputs live in [-1, 1]^(K*M + K + M + 1), laid out as K*M channel
preference scores (row-major by V2V link), K V2V powers, M V2U powers, and one
altitude delta. The amender projects them onto the feasible set: binary
channel matrix with one channel per V2V link and at most one V2V link per
channel, powers in [0, p_max], |delta_h| <= dh_max.

States are MK+2K+M+1 vectors: log10 channel gains (V2U family, then the V2V
family, which switches to pre-delay gains when observe_aged is off) under a
running per-entry standardization frozen after a warm-up, then Q(t)/E_th.

A step scores the decision over all links at once: one gain reprice for the
V2U family, one (M,) SINR and rate array, and one (K,) outage Monte Carlo.
Everything that depends only on the trace (V2V path loss, aging correlation,
the positions of the transmitters the UAV hears, the V2U centroid) is tabled
once when the env is built, at the default pairing's trace columns; a slot
adds only its fading draw, the UAV's position and the action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelParams,
    LinkGains,
    assemble_gains,
    draw_fading,
    link_geometry,
    v2u_family_gains,
    v2u_rate,
    v2u_sinr,
)
from .energy import PowerModelParams, propulsion_power
from .errors import EpisodeExhaustedError, NonFiniteActionError, NonFiniteRewardError, require_finite
from .lyapunov import LyapunovConfig, VirtualQueue, drift_plus_penalty_objective, queue_update
from .mobility import MobilityTrace, UavState, advance_uav


def default_pairing(vehicle_ids, m_links: int, k_links: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(V2U transmitter ids, V2V (tx, rx) id pairs): in sorted id order, the
    first M ids transmit to the UAV and the next 2K form adjacent V2V pairs."""
    ids = sorted(vehicle_ids)
    needed = m_links + 2 * k_links
    if len(ids) < needed:
        raise ValueError(f"need at least {needed} vehicles for M={m_links}, K={k_links}, trace has {len(ids)}")
    v2u = tuple(ids[:m_links])
    pairs = tuple((ids[m_links + 2 * i], ids[m_links + 2 * i + 1]) for i in range(k_links))
    return v2u, pairs


@dataclass(frozen=True)
class NetworkScenario:
    """Counts, spectrum-sharing limits, thresholds, and UAV kinematic bounds."""

    m_links: int = 10
    k_links: int = 10
    n_slots: int = 100
    slot_duration: float = 1.0
    p_max: float = 10.0 ** (23.0 / 10.0) * 1e-3  # 23 dBm in watts
    h_min: float = 50.0
    h_max: float = 200.0
    dh_max: float = 5.0
    gamma_v_th: float = 10.0  # linear SINR threshold (10 dB)
    pr_v_th: float = 0.01
    e_th: float = 120.0  # J per slot
    uav_speed: float = 50.0 / 3.6  # m/s
    uav_initial_altitude: float = 100.0

    def __post_init__(self):
        require_finite(self)
        if self.k_links > self.m_links:
            raise ValueError(f"k_links ({self.k_links}) must be <= m_links ({self.m_links})")
        if min(self.m_links, self.k_links, self.n_slots) < 1:
            raise ValueError("m_links, k_links and n_slots must be >= 1")
        if self.p_max <= 0.0:
            raise ValueError("p_max must be positive")
        if not self.h_min < self.h_max:
            raise ValueError("need h_min < h_max")
        if not 0.0 < self.pr_v_th < 1.0:
            raise ValueError("pr_v_th must be in (0, 1)")
        if not self.h_min <= self.uav_initial_altitude <= self.h_max:
            raise ValueError("uav_initial_altitude must lie within [h_min, h_max]")

    @property
    def state_dim(self) -> int:
        return self.m_links * self.k_links + 2 * self.k_links + self.m_links + 1

    @property
    def action_dim(self) -> int:
        return self.k_links * self.m_links + self.k_links + self.m_links + 1


@dataclass(frozen=True)
class FeasibleAction:
    """Projected action: binary channel matrix, powers in [0, p_max], bounded delta_h."""

    x: np.ndarray  # (K, M) 0/1
    p_m: np.ndarray  # (M,)
    p_k: np.ndarray  # (K,)
    delta_h: float


@dataclass(frozen=True)
class RewardBreakdown:
    """One slot's reward and the quantities it was scored on:
    reward = -drift_plus_penalty_objective(Q, power, mean_v2u_rate) - outage_violations * gamma_pen."""

    reward: float
    mean_v2u_rate: float  # bits/s
    outage_violations: int
    power: float  # W


def amend_action(raw: np.ndarray, scenario: NetworkScenario) -> FeasibleAction:
    """Project a raw [-1,1] vector onto the feasible set.

    Powers map affinely ((raw+1)/2 * p_max), delta_h scales by dh_max, and the
    channel matrix is built greedily: V2V links in descending order of their
    best preference score each take their highest-scoring still-free channel
    (ties broken by lowest index). Out-of-range entries are clamped; NaN or
    infinite entries raise NonFiniteActionError naming their indices.
    """
    raw = np.asarray(raw, dtype=np.float64)
    k_links, m_links = scenario.k_links, scenario.m_links
    if raw.shape != (scenario.action_dim,):
        raise ValueError(f"raw action shape {raw.shape} != ({scenario.action_dim},)")
    if not np.isfinite(raw).all():
        bad = np.flatnonzero(~np.isfinite(raw)).tolist()
        raise NonFiniteActionError(f"raw action has non-finite entries at indices {bad}")
    clipped = np.maximum(raw, -1.0)
    np.minimum(clipped, 1.0, out=clipped)
    n_scores = k_links * m_links
    half = scenario.p_max / 2.0  # halving is exact, so this is (raw+1)/2 * p_max bit for bit
    powers = (clipped[n_scores:-1] + 1.0) * half  # p_k, then p_m

    scores = clipped[:n_scores].tolist()
    rows = [scores[i : i + m_links] for i in range(0, n_scores, m_links)]
    # sorted() is stable also with reverse=True, so ties keep the lower link first.
    order = sorted(range(k_links), key=[max(row) for row in rows].__getitem__, reverse=True)
    free = list(range(m_links))  # ascending, so max() keeps the lowest index on ties
    cells = []
    for k in order:
        best = max(free, key=rows[k].__getitem__)
        free.remove(best)
        cells.append(k * m_links + best)
    x = np.zeros((k_links, m_links), dtype=np.int64)
    x.put(cells, 1)
    delta_h = float(clipped[-1]) * scenario.dh_max
    return FeasibleAction(x=x, p_m=powers[k_links:], p_k=powers[:k_links], delta_h=delta_h)


def estimate_outage(
    gains: LinkGains,
    action: FeasibleAction,
    params: ChannelParams,
    gamma_threshold: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(K,) Monte-Carlo Pr{V2V SINR_k < threshold} over redraws of the aging
    discrepancy term, holding pre-delay fading, path loss, and the action
    fixed. Exact (0 or 1) with zero feedback delay: there rho = J0(0) = 1, so
    the redraws have zero scale and every sample is the pre-delay value.

    Every V2V link must hold exactly one channel (one interferer). The redraws
    are one (K, 2, 2, n_samples) block: per link, desired re, desired im,
    interferer re, interferer im.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    bad = np.flatnonzero(action.x.sum(axis=1) != 1)
    if bad.size:
        raise ValueError(f"rows {bad.tolist()} of action.x do not hold exactly one channel")
    k_links = len(action.p_k)
    channel = action.x.argmax(axis=1)
    # (K, 2) positions in the V2V block: link k, then its one interferer (channel m, link k) at K + m*K + k.
    pick = np.zeros((k_links, 2), dtype=np.intp)
    pick[:, 1] = (channel + 1) * k_links
    pick += np.arange(k_links)[:, None]
    rho, pl_linear = gains.rho_v[pick], gains.pl_v_linear[pick]
    tx_power = np.empty((k_links, 2))
    tx_power[:, 0] = action.p_k
    tx_power[:, 1] = action.p_m[channel]

    scale = np.sqrt(np.maximum(0.0, 1.0 - rho * rho) / 2.0)
    mean = rho[..., None] * gains.g_v_hat[pick].view(np.float64).reshape(k_links, 2, 2)  # re, im
    # In place on the draw, so the only other large buffer is the (K, 2, n) power.
    samples = rng.standard_normal((k_links, 2, 2, n_samples))
    samples *= scale[..., None, None]
    samples += mean[..., None]
    np.square(samples, out=samples)
    power = np.add(samples[:, :, 0], samples[:, :, 1], out=np.empty((k_links, 2, n_samples)))  # |g|^2
    power *= tx_power[..., None]
    power /= pl_linear[..., None]
    gamma = power[:, 0] / (power[:, 1] + params.noise_power)
    return np.count_nonzero(gamma < gamma_threshold, axis=-1) / n_samples


class StateNormalizer:
    """Running per-entry standardization (Welford), frozen after a warm-up."""

    def __init__(self, dim: int, freeze_after: int = 1000):
        self.dim = dim
        self.freeze_after = freeze_after
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    def observe(self, x: np.ndarray) -> None:
        if self.count >= self.freeze_after:
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim)
        return np.maximum(np.sqrt(self._m2 / (self.count - 1)), 1e-2)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std()


def build_state(
    gains: LinkGains,
    queue: VirtualQueue,
    scenario: NetworkScenario,
    observe_aged: bool,
    normalizer: StateNormalizer,
) -> np.ndarray:
    """Flat state: [h_u_m, h_u_k, h_v_mk (row-major by m), h_v_k] as
    standardized log10 gains, then Q/E_th. The log gains update the normalizer
    before it standardizes them. With observe_aged off the V2V families come
    from the pre-delay fading (the delay-blind observation)."""
    v_mk = gains.h_v_mk if observe_aged else gains.h_v_mk_hat
    v_k = gains.h_v_k if observe_aged else gains.h_v_k_hat
    raw = np.concatenate([gains.h_u_m, gains.h_u_k, v_mk.ravel(), v_k])
    logs = np.log10(raw)
    normalizer.observe(logs)
    z = normalizer.normalize(logs)
    return np.concatenate([z, [queue.q / scenario.e_th]])


class VehicularEnv:
    """One seeded world: mobility replay, per-slot fading, queue, and reward.

    Episodes are time-limit truncations of a continuing task; the environment
    always exposes a next-state observation, so it runs
    min(scenario.n_slots, trace slots - 1) slots per episode. Per-slot rng
    streams derive from (seed, episode, slot), so draw counts never depend on
    the action taken.
    """

    def __init__(
        self,
        scenario: NetworkScenario,
        channel_params: ChannelParams,
        power_params: PowerModelParams,
        lyapunov_cfg: LyapunovConfig,
        trace: MobilityTrace,
        *,
        seed: int = 0,
        observe_aged: bool = True,
        outage_samples: int = 500,
        normalizer_warmup: int = 1000,
    ):
        if trace.n_slots < 2:
            raise ValueError("trace must contain at least 2 slots")
        self.scenario = scenario
        self.channel_params = channel_params
        self.power_params = power_params
        self.lyapunov_cfg = lyapunov_cfg
        self.trace = trace
        self.seed = seed
        self.observe_aged = observe_aged
        self.outage_samples = outage_samples
        self.n_slots = min(scenario.n_slots, trace.n_slots - 1)
        ids = trace.ids.tolist()
        v2u_tx, v2v_pairs = default_pairing(ids, scenario.m_links, scenario.k_links)
        columns = {vid: i for i, vid in enumerate(ids)}
        endpoints = (*v2u_tx, *(vid for pair in v2v_pairs for vid in pair))
        # Trace columns of the M V2U transmitters and of the K (tx, rx) pairs, resolved once.
        cols = np.array([columns[vid] for vid in endpoints], dtype=np.intp)
        self._v2u_cols, pair_cols = cols[: scenario.m_links], cols[scenario.m_links :].reshape(-1, 2)
        self._geometry = link_geometry(trace, self._v2u_cols, pair_cols, self.n_slots + 1, channel_params)
        # Row by row: a 1-D mean sums pairwise, an axis=1 mean of a 2-D table need not.
        self._centroid_x = [float(np.mean(row)) for row in self._geometry.tx_x[:, : scenario.m_links]]
        self.normalizer = StateNormalizer(scenario.state_dim - 1, normalizer_warmup)
        self._episode = -1
        self._slot = 0
        self._done = True
        self._uav: UavState | None = None
        self._queue: VirtualQueue | None = None
        self._gains: LinkGains | None = None
        self._fading = None

    def _slot_rng(self, slot: int, stream: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, self._episode, slot, stream))

    def _observe(self) -> tuple[np.ndarray, dict]:
        """Draw the current slot's fading and gains (the fading is kept for the
        step's reprice), then build the state and the info dict."""
        rng = self._slot_rng(self._slot, 0)
        self._fading = draw_fading(self.scenario.m_links, self.scenario.k_links, rng)
        self._gains = assemble_gains(self._uav, self._geometry, self._slot, self._fading, self.channel_params, rng)
        state = build_state(self._gains, self._queue, self.scenario, self.observe_aged, self.normalizer)
        return state, dict(episode=self._episode, slot=self._slot, gains=self._gains, queue=self._queue.q, uav=self._uav)

    # -- gym-style API -----------------------------------------------------

    def reset(self, episode: int | None = None) -> tuple[np.ndarray, dict]:
        self._episode = self._episode + 1 if episode is None else episode
        self._slot = 0
        self._done = False
        self._uav = UavState(
            x=self._centroid_x[0],
            y=float(np.mean(self.trace.y[0, self._v2u_cols])),
            altitude=self.scenario.uav_initial_altitude,
            velocity=(self.scenario.uav_speed, 0.0, 0.0),
        )
        self._queue = VirtualQueue(0.0, self.scenario.e_th, self.scenario.slot_duration)
        return self._observe()

    def step(self, raw_action: np.ndarray) -> tuple[np.ndarray, RewardBreakdown, bool, dict]:
        if self._done:
            raise EpisodeExhaustedError(f"episode {self._episode} already ran {self.n_slots} slots")
        scenario = self.scenario
        try:
            feasible = amend_action(raw_action, scenario)
        except NonFiniteActionError as exc:
            raise NonFiniteActionError(f"episode {self._episode}, slot {self._slot}: {exc}") from exc

        # Horizontal: fixed-magnitude step toward the V2U transmitter centroid.
        signed_speed = math.copysign(scenario.uav_speed, self._centroid_x[self._slot] - self._uav.x)
        uav_next = advance_uav(
            self._uav,
            signed_speed,
            feasible.delta_h,
            scenario.slot_duration,
            h_min=scenario.h_min,
            h_max=scenario.h_max,
            dh_max=scenario.dh_max,
        )
        # Rates are earned under the commanded altitude (same-slot geometry and
        # fading); only the V2U family depends on it.
        commanded = replace(self._uav, altitude=uav_next.altitude)
        h_u_m, h_u_k = v2u_family_gains(commanded, self._geometry, self._slot, self._fading, self.channel_params)
        realized = replace(self._gains, h_u_m=h_u_m, h_u_k=h_u_k)

        rates = v2u_rate(v2u_sinr(realized, feasible, self.channel_params), self.channel_params)
        mean_rate = float(np.mean(rates))

        outage_rng = self._slot_rng(self._slot, 1)
        outage = estimate_outage(
            realized, feasible, self.channel_params, scenario.gamma_v_th, self.outage_samples, outage_rng
        )
        violations = int(np.count_nonzero(outage > scenario.pr_v_th))

        power = propulsion_power(uav_next.velocity, self.power_params)
        cfg = self.lyapunov_cfg
        reward = -drift_plus_penalty_objective(self._queue, power, mean_rate, cfg) - violations * cfg.gamma_pen
        if not math.isfinite(reward):
            raise NonFiniteRewardError(f"episode {self._episode}, slot {self._slot}: reward {reward} is not finite")
        breakdown = RewardBreakdown(reward=reward, mean_v2u_rate=mean_rate, outage_violations=violations, power=power)

        self._queue = queue_update(self._queue, power)
        self._uav = uav_next
        self._slot += 1
        self._done = self._slot >= self.n_slots
        state, info = self._observe()
        info.update(power=power, feasible=feasible)
        return state, breakdown, self._done, info
