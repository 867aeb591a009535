"""Virtual energy queue and drift-plus-penalty bookkeeping.

The queue tracks cumulative propulsion energy spent beyond the per-slot
budget; bounding it enforces the long-term average energy constraint. The
check_* predicates are the executable forms of the sample-path and quadratic
drift inequalities and must hold on every observed transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import require_finite


@dataclass(frozen=True)
class VirtualQueue:
    """Energy backlog state: Q in joules, per-slot budget, slot duration."""

    q: float = 0.0
    e_threshold: float = 120.0  # J per slot
    slot_duration: float = 1.0  # s

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q >= 0.0):
            raise ValueError(f"queue backlog must be finite and >= 0, got {self.q}")
        if self.e_threshold <= 0.0 or self.slot_duration <= 0.0:
            raise ValueError("e_threshold and slot_duration must be positive")


@dataclass(frozen=True)
class LyapunovConfig:
    """Reward/objective weights: rate weight V, outage penalty, rate unit scale.

    rate_scale converts bits/s into the unit used by the drift-plus-penalty
    objective and the reward (default 1e-6, i.e. Mbps), keeping the rate term
    commensurate with the queue term and the outage penalty at V ~ 100.
    """

    v_weight: float = 100.0
    gamma_pen: float = 10.0
    rate_scale: float = 1e-6

    def __post_init__(self):
        require_finite(self)
        if self.v_weight <= 0.0:
            raise ValueError("v_weight must be positive")
        if self.gamma_pen < 0.0 or self.rate_scale <= 0.0:
            raise ValueError("gamma_pen must be >= 0 and rate_scale positive")


def queue_update(queue: VirtualQueue, power: float) -> VirtualQueue:
    """Advance the queue one slot: q' = max(q + P*dt - E_th, 0).

    power may be negative (descent credits energy in the flight power model);
    the update is total. The expression must stay textually identical to the
    one in check_queue_step_bound so the inequality holds bit-exactly.
    """
    q_next = max(queue.q + power * queue.slot_duration - queue.e_threshold, 0.0)
    return replace(queue, q=q_next)


def drift_plus_penalty_objective(
    queue: VirtualQueue, power: float, mean_v2u_rate: float, cfg: LyapunovConfig
) -> float:
    """Per-slot minimand Q*(P*dt - E_th) - V*rate; VehicularEnv.step's reward is
    its negation minus the outage penalty. mean_v2u_rate is in bits/s and is
    scaled by cfg.rate_scale here."""
    queue_term = queue.q * (power * queue.slot_duration - queue.e_threshold)
    return queue_term - cfg.v_weight * mean_v2u_rate * cfg.rate_scale


def check_queue_step_bound(
    q_before: float, q_after: float, power: float, e_threshold: float, slot_duration: float
) -> bool:
    """Sample-path step bound: q_after >= q_before + P*dt - E_th.

    Exact for transitions produced by queue_update because both sides compute
    the same expression in the same order.
    """
    return q_after >= q_before + power * slot_duration - e_threshold


def check_quadratic_drift_bound(
    q_before: float, q_after: float, power: float, e_threshold: float, slot_duration: float
) -> bool:
    """Quadratic drift bound: (q'^2 - q^2)/2 <= q*(P*dt - E_th) + (P*dt - E_th)^2/2.

    A small scale-relative slack absorbs the one-ulp rounding the algebraic
    rearrangement can introduce; the mathematical inequality is exact.
    """
    x = power * slot_duration - e_threshold
    lhs = 0.5 * (q_after * q_after - q_before * q_before)
    rhs = q_before * x + 0.5 * x * x
    tol = 1e-9 * (1.0 + q_before * q_before + x * x)
    return lhs <= rhs + tol
