import numpy as np
import pytest

from skysched.errors import InconsistentTraceError, MalformedTraceError
from skysched.mobility import (
    MobilityTrace,
    UavState,
    VehicleState,
    advance_uav,
    generate_platoon,
    load_trace,
    write_trace,
)

CSV_2X2 = """slot,vehicle_id,x_m,y_m,speed_mps
0,0,0.0,0.0,13.89
0,1,-25.0,0.0,13.89
1,0,13.89,0.0,13.89
1,1,-11.11,0.0,13.89
"""


def test_load_trace_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(CSV_2X2)
    trace = load_trace(path)
    assert trace.n_slots == 2
    assert trace.vehicle_ids == (0, 1)
    assert trace.x[1, 0] == 13.89

    out = tmp_path / "copy.csv"
    write_trace(trace, out)
    again = load_trace(out)
    assert_same_trace(again, trace)


def assert_same_trace(a, b):
    for name in ("ids", "x", "y", "speed"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_load_write_round_trip_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(generate_platoon(5, 13.89, 25.0, 7, seed=2, lane_y=3.5), first)
    trace = load_trace(first)
    write_trace(trace, second)
    assert second.read_bytes() == first.read_bytes()
    assert_same_trace(load_trace(second), trace)


def test_load_trace_names_slot_with_differing_ids(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "slot,vehicle_id,x_m,y_m,speed_mps\n0,0,0.0,0.0,10.0\n0,1,5.0,0.0,10.0\n1,0,10.0,0.0,10.0\n1,2,1.0,0.0,1.0\n"
    )
    with pytest.raises(InconsistentTraceError, match=r"slot 1: vehicle ids \[0, 2\]"):
        load_trace(path)


def test_load_trace_vehicle_missing_from_slot(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "slot,vehicle_id,x_m,y_m,speed_mps\n0,0,0.0,0.0,10.0\n0,1,5.0,0.0,10.0\n1,0,10.0,0.0,10.0\n"
    )
    with pytest.raises(InconsistentTraceError):
        load_trace(path)


def test_load_trace_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MalformedTraceError):
        load_trace(path)


def test_load_trace_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slot,id,x,y,v\n0,0,0,0,1\n")
    with pytest.raises(MalformedTraceError, match="line 1"):
        load_trace(path)


def test_load_trace_bad_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slot,vehicle_id,x_m,y_m,speed_mps\n0,0,0.0,0.0,10.0\n0,1,oops,0.0,10.0\n")
    with pytest.raises(MalformedTraceError, match="line 3"):
        load_trace(path)


def test_load_trace_missing_slot(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(
        "slot,vehicle_id,x_m,y_m,speed_mps\n0,0,0.0,0.0,10.0\n0,1,1.0,0.0,10.0\n"
        "2,0,2.0,0.0,10.0\n2,1,3.0,0.0,10.0\n"
    )
    with pytest.raises(InconsistentTraceError, match="missing slots"):
        load_trace(path)


def test_platoon_determinism(tmp_path):
    a = generate_platoon(4, 13.89, 25.0, 10, seed=1)
    b = generate_platoon(4, 13.89, 25.0, 10, seed=1)
    assert_same_trace(a, b)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, pa)
    write_trace(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_platoon_zero_jitter_exact_kinematics():
    trace = generate_platoon(3, 13.89, 25.0, 8, seed=5, position_jitter=0.0, speed_jitter=0.0)
    for t in range(8):
        for i in range(3):
            assert trace.x[t, i] == pytest.approx(-25.0 * i + 13.89 * t, abs=1e-12)
            assert trace.speed[t, i] == 13.89


def test_platoon_gap_stays_within_jitter_band():
    jitter = 1.0
    trace = generate_platoon(2, 13.89, 25.0, 100, seed=3, position_jitter=jitter)
    gaps = [trace.x[t, 0] - trace.x[t, 1] for t in range(100)]
    assert all(25.0 - 2 * jitter <= g <= 25.0 + 2 * jitter for g in gaps)


def test_platoon_equals_per_vehicle_composition():
    n_vehicles, n_slots, mean_speed, spacing, dt = 6, 9, 13.89, 25.0, 0.5
    trace = generate_platoon(n_vehicles, mean_speed, spacing, n_slots, seed=8, slot_duration=dt, lane_y=-2.0)
    rng = np.random.default_rng(8)
    pos_noise = rng.uniform(-1.0, 1.0, size=(n_slots, n_vehicles)) * 1.0
    spd_noise = rng.uniform(-1.0, 1.0, size=(n_slots, n_vehicles)) * 1.0
    for t in range(n_slots):
        for i in range(n_vehicles):
            assert trace.x[t, i] == -i * spacing + mean_speed * t * dt + pos_noise[t, i]
            assert trace.speed[t, i] == max(0.0, mean_speed + spd_noise[t, i])
            assert trace.y[t, i] == -2.0
    assert trace.vehicle_ids == tuple(range(n_vehicles))


def test_platoon_argument_errors():
    with pytest.raises(ValueError):
        generate_platoon(4, 13.89, 0.0, 10, seed=1)
    with pytest.raises(ValueError):
        generate_platoon(1, 13.89, 25.0, 10, seed=1)


def test_advance_uav_clamps_at_ceiling():
    uav = UavState(x=0.0, y=0.0, altitude=199.0)
    out = advance_uav(uav, 13.89, 5.0, 1.0, h_min=50.0, h_max=200.0, dh_max=5.0)
    assert out.altitude == 200.0
    assert out.velocity[2] == pytest.approx(1.0)


def test_advance_uav_zero_delta_is_identity_in_altitude():
    uav = UavState(x=10.0, y=0.0, altitude=120.0)
    out = advance_uav(uav, 13.89, 0.0, 1.0, h_min=50.0, h_max=200.0, dh_max=5.0)
    assert out.altitude == 120.0
    assert out.velocity[2] == 0.0
    assert out.x == pytest.approx(10.0 + 13.89)


def test_advance_uav_descent():
    uav = UavState(x=0.0, y=0.0, altitude=100.0)
    out = advance_uav(uav, 13.89, -5.0, 1.0, h_min=50.0, h_max=200.0, dh_max=5.0)
    assert out.altitude == 95.0
    assert out.velocity[2] == pytest.approx(-5.0)


def test_advance_uav_rejects_oversized_delta():
    uav = UavState(x=0.0, y=0.0, altitude=100.0)
    with pytest.raises(ValueError):
        advance_uav(uav, 13.89, 5.5, 1.0, h_min=50.0, h_max=200.0, dh_max=5.0)


def test_closed_loop_altitude_and_vz_invariants():
    rng = np.random.default_rng(0)
    uav = UavState(x=0.0, y=0.0, altitude=60.0)
    for _ in range(500):
        delta = rng.uniform(-5.0, 5.0)
        prev_alt = uav.altitude
        uav = advance_uav(uav, 13.89, delta, 1.0, h_min=50.0, h_max=200.0, dh_max=5.0)
        assert 50.0 <= uav.altitude <= 200.0
        assert uav.velocity[2] == pytest.approx((uav.altitude - prev_alt) / 1.0, abs=1e-12)


def test_vehicle_state_invariants():
    with pytest.raises(ValueError):
        VehicleState(id=0, x=0.0, y=0.0, speed=-1.0)
    with pytest.raises(ValueError):
        VehicleState(id=0, x=float("nan"), y=0.0, speed=1.0)


def test_trace_requires_matching_ids():
    with pytest.raises(InconsistentTraceError, match=r"\(2,\)"):
        MobilityTrace(ids=[0, 1], x=np.zeros((3, 2)), y=np.zeros((3, 1)), speed=np.ones((3, 2)))


def trace_arrays(n_slots=3):
    return {"ids": [4, 7], "x": np.zeros((n_slots, 2)), "y": np.zeros((n_slots, 2)), "speed": np.ones((n_slots, 2))}


@pytest.mark.parametrize(
    "field, where, value, needle",
    [
        ("x", (2, 1), float("nan"), "slot 2, vehicle 7: position"),
        ("y", (0, 0), float("inf"), "slot 0, vehicle 4: position"),
        ("speed", (1, 1), -0.5, "slot 1, vehicle 7: speed"),
        ("speed", (1, 0), float("nan"), "slot 1, vehicle 4: speed"),
    ],
)
def test_trace_value_errors_name_slot_and_vehicle(field, where, value, needle):
    arrays = trace_arrays()
    arrays[field][where] = value
    with pytest.raises(ValueError, match=needle):
        MobilityTrace(**arrays)


def test_trace_structure_errors():
    with pytest.raises(InconsistentTraceError, match=r"vehicle ids \[4\]"):
        MobilityTrace(**(trace_arrays() | {"ids": [4, 4]}))
    with pytest.raises(InconsistentTraceError, match="no slots"):
        MobilityTrace(**trace_arrays(n_slots=0))


def test_trace_arrays_are_read_only_copies():
    arrays = trace_arrays()
    trace = MobilityTrace(**arrays)
    arrays["x"][0, 0] = 9.0  # the caller's array is not the trace's
    assert trace.x[0, 0] == 0.0
    for name in ("ids", "x", "y", "speed"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(trace, name)[0] = 1
    assert trace.frame(1).tolist() == [[4.0, 0.0, 0.0, 1.0], [7.0, 0.0, 0.0, 1.0]]
