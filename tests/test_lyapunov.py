import numpy as np
import pytest

from skysched.lyapunov import (
    LyapunovConfig,
    VirtualQueue,
    check_queue_step_bound,
    check_quadratic_drift_bound,
    drift_plus_penalty_objective,
    queue_update,
)


def q(value: float, e_th: float = 120.0, dt: float = 1.0) -> VirtualQueue:
    return VirtualQueue(q=value, e_threshold=e_th, slot_duration=dt)


def test_queue_update_accumulates_overspend():
    assert queue_update(q(0.0), 130.0).q == pytest.approx(10.0)


def test_queue_update_clips_at_zero():
    assert queue_update(q(5.0), 100.0).q == 0.0


def test_queue_update_fixed_point_at_exact_budget():
    assert queue_update(q(10.0), 120.0).q == pytest.approx(10.0)


def test_queue_update_accepts_negative_power():
    # Descent can make flight power slightly negative; the update stays total.
    assert queue_update(q(1.0), -3.0).q == 0.0


def test_queue_rejects_negative_backlog():
    with pytest.raises(ValueError):
        VirtualQueue(q=-1.0)


@pytest.mark.parametrize("backlog", [float("nan"), float("inf")])
def test_queue_rejects_non_finite_backlog(backlog):
    with pytest.raises(ValueError, match="finite"):
        VirtualQueue(q=backlog)


def test_objective_reduces_to_rate_term_when_queue_empty():
    cfg = LyapunovConfig(v_weight=100.0, rate_scale=1.0)
    assert drift_plus_penalty_objective(q(0.0), 130.0, 2.0, cfg) == pytest.approx(-200.0)


def test_objective_balances_queue_and_rate():
    cfg = LyapunovConfig(v_weight=100.0, rate_scale=1.0)
    # Q=10, P*dt - E_th = 10, rate 1 -> 100 - 100 = 0
    assert drift_plus_penalty_objective(q(10.0), 130.0, 1.0, cfg) == pytest.approx(0.0)


def test_objective_queue_only():
    cfg = LyapunovConfig(v_weight=100.0, rate_scale=1.0)
    assert drift_plus_penalty_objective(q(10.0), 100.0, 0.0, cfg) == pytest.approx(-200.0)


def test_objective_affine_slopes():
    cfg = LyapunovConfig(v_weight=37.0, rate_scale=1.0)
    base = drift_plus_penalty_objective(q(4.0), 130.0, 1.0, cfg)
    bumped_rate = drift_plus_penalty_objective(q(4.0), 130.0, 2.0, cfg)
    assert bumped_rate - base == pytest.approx(-cfg.v_weight)
    bumped_power = drift_plus_penalty_objective(q(4.0), 131.0, 1.0, cfg)  # (P*dt - E_th) += 1
    assert bumped_power - base == pytest.approx(q(4.0).q * 1.0)


def test_queue_step_bound_examples():
    assert check_queue_step_bound(0.0, 10.0, 130.0, 120.0, 1.0)
    assert check_queue_step_bound(5.0, 0.0, 100.0, 120.0, 1.0)  # 0 >= -15


def test_quadratic_drift_bound_examples():
    # Equality when the max does not bind: LHS (400-100)/2 = 150 <= 100 + 50.
    assert check_quadratic_drift_bound(10.0, 20.0, 130.0, 120.0, 1.0)
    # Clip case: q 5 -> 0 with P*dt - E_th = -20: -12.5 <= -100 + 200.
    assert check_quadratic_drift_bound(5.0, 0.0, 100.0, 120.0, 1.0)


def test_inequalities_hold_on_randomized_transitions():
    rng = np.random.default_rng(0)
    queue = q(0.0)
    for _ in range(100_000):
        power = rng.uniform(-10.0, 400.0)
        nxt = queue_update(queue, power)
        assert check_queue_step_bound(queue.q, nxt.q, power, queue.e_threshold, queue.slot_duration)
        assert check_quadratic_drift_bound(queue.q, nxt.q, power, queue.e_threshold, queue.slot_duration)
        # Occasionally restart from a random backlog to cover more state space.
        queue = nxt if rng.random() > 0.01 else q(rng.uniform(0.0, 500.0))


def test_telescoped_energy_bound_pathwise():
    rng = np.random.default_rng(1)
    for _ in range(20):
        queue = q(0.0)
        powers = rng.uniform(0.0, 300.0, size=200)
        for p in powers:
            queue = queue_update(queue, p)
        t = len(powers)
        avg_energy = float(np.mean(powers)) * queue.slot_duration
        assert avg_energy <= queue.e_threshold + queue.q / t + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        LyapunovConfig(v_weight=0.0)
    with pytest.raises(ValueError):
        LyapunovConfig(rate_scale=0.0)
