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
    v2u_path_loss,
    db_to_linear,
    v2u_rate,
    v2u_sinr,
    v2v_sinr,
)
from .energy import PowerModelParams, propulsion_power
from .errors import EpisodeExhaustedError, NonFiniteActionError
from .lyapunov import LyapunovConfig, VirtualQueue, queue_update
from .mobility import MobilityTrace, UavState, VehicleState, advance_uav


@dataclass(frozen=True)
class LinkPairing:
    """Which vehicles transmit: M V2U transmitter ids and K V2V (tx, rx) id pairs."""

    v2u_tx: tuple[int, ...]
    v2v_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for tx, rx in self.v2v_pairs:
            if tx == rx:
                raise ValueError(f"V2V pair ({tx}, {rx}) has identical endpoints")


def default_pairing(vehicle_ids, m_links: int, k_links: int) -> LinkPairing:
    """First M ids transmit to the UAV; the next 2K form adjacent V2V pairs."""
    ids = sorted(vehicle_ids)
    needed = m_links + 2 * k_links
    if len(ids) < needed:
        raise ValueError(f"need at least {needed} vehicles for M={m_links}, K={k_links}, trace has {len(ids)}")
    v2u = tuple(ids[:m_links])
    pairs = tuple((ids[m_links + 2 * i], ids[m_links + 2 * i + 1]) for i in range(k_links))
    return LinkPairing(v2u_tx=v2u, v2v_pairs=pairs)


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
    pairing: LinkPairing | None = None

    def __post_init__(self):
        if self.k_links > self.m_links:
            raise ValueError(f"k_links ({self.k_links}) must be <= m_links ({self.m_links})")
        if self.m_links < 1 or self.n_slots < 1:
            raise ValueError("m_links and n_slots must be >= 1")
        if self.p_max <= 0.0:
            raise ValueError("p_max must be positive")
        if not self.h_min < self.h_max:
            raise ValueError("need h_min < h_max")
        if not 0.0 < self.pr_v_th < 1.0:
            raise ValueError("pr_v_th must be in (0, 1)")
        if not self.h_min <= self.uav_initial_altitude <= self.h_max:
            raise ValueError("uav_initial_altitude must lie within [h_min, h_max]")
        if self.pairing is not None:
            if len(self.pairing.v2u_tx) != self.m_links:
                raise ValueError("pairing.v2u_tx length must equal m_links")
            if len(self.pairing.v2v_pairs) != self.k_links:
                raise ValueError("pairing.v2v_pairs length must equal k_links")

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
    """Reward and its exact decomposition for one slot."""

    reward: float
    mean_v2u_rate: float  # bits/s
    rate_term: float  # V * mean rate (scaled)
    queue_term: float  # Q * (P*dt - E_th)
    outage_violations: int
    penalty_applied: float
    power: float  # W


def split_raw_action(raw: np.ndarray, scenario: NetworkScenario):
    """Slice a raw vector into (scores (K,M), p_k raw, p_m raw, delta_h raw)."""
    k, m = scenario.k_links, scenario.m_links
    scores = raw[: k * m].reshape(k, m)
    p_k = raw[k * m : k * m + k]
    p_m = raw[k * m + k : k * m + k + m]
    return scores, p_k, p_m, raw[-1]


def amend_action(raw: np.ndarray, scenario: NetworkScenario) -> FeasibleAction:
    """Project a raw [-1,1] vector onto the feasible set.

    Powers map affinely ((raw+1)/2 * p_max), delta_h scales by dh_max, and the
    channel matrix is built greedily: V2V links in descending order of their
    best preference score each take their highest-scoring still-free channel
    (ties broken by lowest index). Out-of-range entries are clamped; NaN or
    infinite entries raise NonFiniteActionError naming their indices.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (scenario.action_dim,):
        raise ValueError(f"raw action shape {raw.shape} != ({scenario.action_dim},)")
    if not np.isfinite(raw).all():
        bad = np.flatnonzero(~np.isfinite(raw)).tolist()
        raise NonFiniteActionError(f"raw action has non-finite entries at indices {bad}")
    raw = np.clip(raw, -1.0, 1.0)
    k_links, m_links = scenario.k_links, scenario.m_links
    n_scores = k_links * m_links
    powers = (raw[n_scores:-1] + 1.0) / 2.0 * scenario.p_max
    delta_h = float(raw[-1]) * scenario.dh_max

    rows = raw[:n_scores].reshape(k_links, m_links).tolist()
    order = sorted(range(k_links), key=lambda k: -max(rows[k]))
    free = list(range(m_links))  # ascending, so max() keeps the lowest index on ties
    channels = []
    for k in order:
        best = max(free, key=rows[k].__getitem__)
        channels.append(best)
        free.remove(best)
    x = np.zeros((k_links, m_links), dtype=np.int64)
    x[order, channels] = 1
    return FeasibleAction(x=x, p_m=powers[k_links:], p_k=powers[:k_links], delta_h=delta_h)


def estimate_outage(
    k: int,
    gains: LinkGains,
    action: FeasibleAction,
    params: ChannelParams,
    gamma_threshold: float,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo Pr{V2V SINR_k < threshold} over redraws of the aging
    discrepancy term, holding pre-delay fading, path loss, and the action
    fixed. Exact (0 or 1) with zero feedback delay."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    interferers = [m for m in range(gains.m_links) if action.x[k, m]]
    if params.t_delay == 0.0:
        gamma = v2v_sinr(k, gains, action, params)
        return 1.0 if gamma < gamma_threshold else 0.0

    def power_samples(rho: float, g_hat: complex, pl_linear: float, tx_power: float) -> np.ndarray:
        scale = math.sqrt(max(0.0, 1.0 - rho * rho) / 2.0)
        re = rho * g_hat.real + scale * rng.standard_normal(n_samples)
        im = rho * g_hat.imag + scale * rng.standard_normal(n_samples)
        return tx_power * (re * re + im * im) / pl_linear

    desired = power_samples(
        float(gains.rho_v_k[k]), complex(gains.g_v_k_hat[k]), float(gains.pl_v_k_linear[k]), float(action.p_k[k])
    )
    interference = np.zeros(n_samples)
    for m in interferers:
        interference += power_samples(
            float(gains.rho_v_mk[m, k]),
            complex(gains.g_v_mk_hat[m, k]),
            float(gains.pl_v_mk_linear[m, k]),
            float(action.p_m[m]),
        )
    gamma = desired / (interference + params.noise_power)
    return float(np.mean(gamma < gamma_threshold))


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

    def copy(self) -> "StateNormalizer":
        out = StateNormalizer(self.dim, self.freeze_after)
        out.count = self.count
        out.mean = self.mean.copy()
        out._m2 = self._m2.copy()
        return out


def build_state(
    gains: LinkGains,
    queue: VirtualQueue,
    scenario: NetworkScenario,
    observe_aged: bool,
    normalizer: StateNormalizer,
    *,
    update_normalizer: bool = True,
) -> np.ndarray:
    """Flat state: [h_u_m, h_u_k, h_v_mk (row-major by m), h_v_k] as
    standardized log10 gains, then Q/E_th. With observe_aged off the V2V
    families come from the pre-delay fading (the delay-blind observation)."""
    v_mk = gains.h_v_mk if observe_aged else gains.h_v_mk_hat
    v_k = gains.h_v_k if observe_aged else gains.h_v_k_hat
    raw = np.concatenate([gains.h_u_m, gains.h_u_k, v_mk.ravel(), v_k])
    logs = np.log10(raw)
    if update_normalizer:
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
        self.pairing = scenario.pairing or default_pairing(trace.vehicle_ids, scenario.m_links, scenario.k_links)
        missing = [
            vid
            for vid in (*self.pairing.v2u_tx, *(v for pair in self.pairing.v2v_pairs for v in pair))
            if vid not in trace.vehicle_ids
        ]
        if missing:
            raise ValueError(f"pairing references vehicle ids missing from trace: {sorted(set(missing))}")
        self.normalizer = StateNormalizer(scenario.state_dim - 1, normalizer_warmup)
        self._episode = -1
        self._slot = 0
        self._done = True
        self._uav: UavState | None = None
        self._queue: VirtualQueue | None = None
        self._gains: LinkGains | None = None
        self._fading = None

    # -- geometry helpers -------------------------------------------------

    def _frame(self, t: int) -> dict[int, VehicleState]:
        return self.trace.frame(t)

    def _v2u_vehicles(self, frame) -> list[VehicleState]:
        return [frame[vid] for vid in self.pairing.v2u_tx]

    def _v2v_vehicle_pairs(self, frame) -> list[tuple[VehicleState, VehicleState]]:
        return [(frame[tx], frame[rx]) for tx, rx in self.pairing.v2v_pairs]

    def _centroid_x(self, frame) -> float:
        return float(np.mean([frame[vid].x for vid in self.pairing.v2u_tx]))

    def _slot_rng(self, slot: int, stream: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, self._episode, slot, stream))

    def _observe_gains(self, frame, uav: UavState, slot: int) -> LinkGains:
        rng = self._slot_rng(slot, 0)
        self._fading = draw_fading(self.scenario.m_links, self.scenario.k_links, rng)
        return assemble_gains(
            uav, self._v2u_vehicles(frame), self._v2v_vehicle_pairs(frame), self._fading, self.channel_params, rng
        )

    def _reprice_v2u_family(self, gains: LinkGains, frame, uav: UavState) -> LinkGains:
        """Rebuild only the altitude-dependent V2U-family gains at the adjusted
        geometry, keeping the slot's fading and aging draws."""
        h_u_m = np.empty(self.scenario.m_links)
        for m, veh in enumerate(self._v2u_vehicles(frame)):
            pl = db_to_linear(v2u_path_loss(uav, veh, self.channel_params))
            h_u_m[m] = abs(self._fading.g_u_m[m]) ** 2 / pl
        h_u_k = np.empty(self.scenario.k_links)
        for k, (tx, _rx) in enumerate(self._v2v_vehicle_pairs(frame)):
            pl = db_to_linear(v2u_path_loss(uav, tx, self.channel_params))
            h_u_k[k] = abs(self._fading.g_u_k[k]) ** 2 / pl
        return replace(gains, h_u_m=h_u_m, h_u_k=h_u_k)

    # -- gym-style API -----------------------------------------------------

    def reset(self, episode: int | None = None) -> tuple[np.ndarray, dict]:
        self._episode = self._episode + 1 if episode is None else episode
        self._slot = 0
        self._done = False
        frame = self._frame(0)
        self._uav = UavState(
            x=self._centroid_x(frame),
            y=float(np.mean([frame[vid].y for vid in self.pairing.v2u_tx])),
            altitude=self.scenario.uav_initial_altitude,
            velocity=(self.scenario.uav_speed, 0.0, 0.0),
        )
        self._queue = VirtualQueue(0.0, self.scenario.e_th, self.scenario.slot_duration)
        self._gains = self._observe_gains(frame, self._uav, 0)
        state = build_state(self._gains, self._queue, self.scenario, self.observe_aged, self.normalizer)
        info = {"episode": self._episode, "slot": 0, "gains": self._gains, "queue": self._queue.q, "uav": self._uav}
        return state, info

    def step(self, raw_action: np.ndarray) -> tuple[np.ndarray, RewardBreakdown, bool, dict]:
        if self._done:
            raise EpisodeExhaustedError(f"episode {self._episode} already ran {self.n_slots} slots")
        scenario = self.scenario
        frame = self._frame(self._slot)
        try:
            feasible = amend_action(raw_action, scenario)
        except NonFiniteActionError as exc:
            raise NonFiniteActionError(f"episode {self._episode}, slot {self._slot}: {exc}") from exc

        # Horizontal: fixed-magnitude step toward the V2U transmitter centroid.
        signed_speed = math.copysign(scenario.uav_speed, self._centroid_x(frame) - self._uav.x)
        uav_next = advance_uav(
            self._uav,
            signed_speed,
            feasible.delta_h,
            scenario.slot_duration,
            h_min=scenario.h_min,
            h_max=scenario.h_max,
            dh_max=scenario.dh_max,
        )
        # Rates are earned under the commanded altitude (same-slot geometry);
        # only the V2U family depends on it.
        realized = self._reprice_v2u_family(
            self._gains, frame, replace(self._uav, altitude=uav_next.altitude)
        )

        rates = np.array(
            [v2u_rate(v2u_sinr(m, realized, feasible, self.channel_params), self.channel_params) for m in range(scenario.m_links)]
        )
        mean_rate = float(np.mean(rates))

        outage_rng = self._slot_rng(self._slot, 1)
        violations = 0
        for k in range(scenario.k_links):
            prob = estimate_outage(
                k, realized, feasible, self.channel_params, scenario.gamma_v_th, self.outage_samples, outage_rng
            )
            if prob > scenario.pr_v_th:
                violations += 1

        power = propulsion_power(uav_next.velocity, self.power_params)
        cfg = self.lyapunov_cfg
        rate_term = cfg.v_weight * mean_rate * cfg.rate_scale
        queue_term = self._queue.q * (power * scenario.slot_duration - scenario.e_th)
        penalty = violations * cfg.gamma_pen
        breakdown = RewardBreakdown(
            reward=rate_term - queue_term - penalty,
            mean_v2u_rate=mean_rate,
            rate_term=rate_term,
            queue_term=queue_term,
            outage_violations=violations,
            penalty_applied=penalty,
            power=power,
        )

        self._queue = queue_update(self._queue, power)
        self._uav = uav_next
        self._slot += 1
        self._done = self._slot >= self.n_slots
        next_frame = self._frame(self._slot)
        self._gains = self._observe_gains(next_frame, self._uav, self._slot)
        state = build_state(self._gains, self._queue, self.scenario, self.observe_aged, self.normalizer)
        info = {
            "episode": self._episode,
            "slot": self._slot,
            "gains": self._gains,
            "queue": self._queue.q,
            "uav": self._uav,
            "power": power,
            "feasible": feasible,
        }
        return state, breakdown, self._done, info
