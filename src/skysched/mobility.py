"""Vehicle and UAV mobility: trace files, a synthetic platoon generator, and UAV kinematics.

The highway is modeled as a 1-D axis embedded in 2-D coordinates; x advances
along the road and y carries the lane offset. A trace stores each slot's
geometry once, as read-only (T, N) position and speed arrays indexed by slot
and vehicle column, so it is immutable and safe to share across parallel runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InconsistentTraceError, MalformedTraceError

TRACE_HEADER = ("slot", "vehicle_id", "x_m", "y_m", "speed_mps")


@dataclass(frozen=True)
class VehicleState:
    """Per-slot kinematic snapshot of one vehicle."""

    id: int
    x: float
    y: float
    speed: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"vehicle {self.id}: position must be finite")
        if not (math.isfinite(self.speed) and self.speed >= 0.0):
            raise ValueError(f"vehicle {self.id}: speed must be finite and >= 0")


@dataclass(frozen=True)
class UavState:
    """UAV kinematic snapshot: horizontal position, altitude, and 3-D velocity."""

    x: float
    y: float
    altitude: float
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.velocity):
            raise ValueError("UAV velocity must be finite")
        if not math.isfinite(self.altitude) or self.altitude <= 0.0:
            raise ValueError("UAV altitude must be finite and positive")


@dataclass(frozen=True)
class MobilityTrace:
    """Per-slot vehicle kinematics as read-only arrays: column i of the (T, N)
    float arrays x, y and speed is vehicle ids[i] in every slot, so a slot's
    geometry is one row of each. Construction copies and write-locks them."""

    ids: np.ndarray  # (N,) distinct vehicle ids
    x: np.ndarray  # (T, N) along-road position, m
    y: np.ndarray  # (T, N) lane offset, m
    speed: np.ndarray  # (T, N) m/s, >= 0

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int64)
        x, y, speed = (np.array(a, dtype=np.float64) for a in (self.x, self.y, self.speed))
        if ids.ndim != 1 or x.ndim != 2 or not x.shape == y.shape == speed.shape == (len(x), len(ids)):
            raise InconsistentTraceError(
                f"ids {ids.shape}, x {x.shape}, y {y.shape} and speed {speed.shape} must be (N,) and (T, N)"
            )
        if len(x) == 0:
            raise InconsistentTraceError("trace has no slots")
        unique, counts = np.unique(ids, return_counts=True)
        if np.any(counts > 1):
            raise InconsistentTraceError(f"vehicle ids {unique[counts > 1].tolist()} appear more than once")
        bad_position, bad_speed = ~(np.isfinite(x) & np.isfinite(y)), ~(np.isfinite(speed) & (speed >= 0.0))
        if bad_position.any() or bad_speed.any():
            t, i = np.argwhere(bad_position | bad_speed)[0]
            rule = "position must be finite" if bad_position[t, i] else "speed must be finite and >= 0"
            raise ValueError(f"slot {t}, vehicle {ids[i]}: {rule}")
        for name, array in zip(("ids", "x", "y", "speed"), (ids, x, y, speed)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_slots(self) -> int:
        return len(self.x)

    @property
    def vehicle_ids(self) -> tuple[int, ...]:
        return tuple(self.ids.tolist())

    def frame(self, t: int) -> np.ndarray:
        """Slot t as (N, 4) rows of (id, x, y, speed)."""
        return np.array([self.ids, self.x[t], self.y[t], self.speed[t]]).T


def load_trace(path) -> MobilityTrace:
    """Parse a trace CSV (header ``slot,vehicle_id,x_m,y_m,speed_mps``).

    Slots must be contiguous 0..T-1 and every slot must contain the same
    vehicle ids; the trace's columns are sorted by id. Raises
    MalformedTraceError naming the offending line on parse failures and
    InconsistentTraceError on structural violations.
    """
    rows: dict[int, dict[int, VehicleState]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedTraceError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != TRACE_HEADER:
            raise MalformedTraceError(
                f"{path} line 1: header {header!r} != {','.join(TRACE_HEADER)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise MalformedTraceError(f"{path} line {lineno}: expected 5 fields, got {len(row)}")
            try:
                slot = int(row[0])
                vid = int(row[1])
                state = VehicleState(id=vid, x=float(row[2]), y=float(row[3]), speed=float(row[4]))
            except ValueError as exc:
                raise MalformedTraceError(f"{path} line {lineno}: {exc}") from None
            if slot < 0:
                raise MalformedTraceError(f"{path} line {lineno}: negative slot {slot}")
            frame = rows.setdefault(slot, {})
            if vid in frame:
                raise InconsistentTraceError(f"{path} line {lineno}: duplicate vehicle {vid} in slot {slot}")
            frame[vid] = state
    if not rows:
        raise MalformedTraceError(f"{path}: no data rows")
    n_slots = max(rows) + 1
    missing = [t for t in range(n_slots) if t not in rows]
    if missing:
        raise InconsistentTraceError(f"{path}: missing slots {missing}")
    ids = sorted(rows[0])
    for t in range(n_slots):
        if sorted(rows[t]) != ids:
            raise InconsistentTraceError(f"{path}: slot {t}: vehicle ids {sorted(rows[t])} differ from slot 0's {ids}")
    kin = np.array([[(v.x, v.y, v.speed) for v in map(rows[t].get, ids)] for t in range(n_slots)])
    return MobilityTrace(np.array(ids), kin[..., 0], kin[..., 1], kin[..., 2])


def write_trace(trace: MobilityTrace, path) -> None:
    """Write a trace in the CSV schema accepted by load_trace (UTF-8, LF)."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for t, columns in enumerate(zip(trace.x.tolist(), trace.y.tolist(), trace.speed.tolist())):
            for vid, x, y, speed in zip(trace.vehicle_ids, *columns):
                fh.write(f"{t},{vid},{x!r},{y!r},{speed!r}\n")


def generate_platoon(
    n_vehicles: int,
    mean_speed: float,
    spacing: float,
    n_slots: int,
    seed: int,
    *,
    slot_duration: float = 1.0,
    position_jitter: float = 1.0,
    speed_jitter: float = 1.0,
    lane_y: float = 0.0,
) -> MobilityTrace:
    """Synthetic platoon on a 1-D highway, deterministic for a fixed seed.

    Vehicle i starts at x = -i*spacing and advances at mean_speed; per-slot
    position offsets are bounded by position_jitter (they do not accumulate,
    so inter-vehicle gaps stay within +/- 2*position_jitter of spacing) and
    reported speeds vary within +/- speed_jitter of mean_speed.
    """
    if n_vehicles < 2:
        raise ValueError(f"n_vehicles must be >= 2, got {n_vehicles}")
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    rng = np.random.default_rng(seed)
    pos_noise = rng.uniform(-1.0, 1.0, size=(n_slots, n_vehicles)) * position_jitter
    spd_noise = rng.uniform(-1.0, 1.0, size=(n_slots, n_vehicles)) * speed_jitter
    i, t = np.arange(n_vehicles), np.arange(n_slots)[:, None]
    return MobilityTrace(
        ids=i,
        x=(-i * spacing + mean_speed * t * slot_duration) + pos_noise,
        y=np.full((n_slots, n_vehicles), float(lane_y)),
        speed=np.maximum(0.0, mean_speed + spd_noise),
    )


def advance_uav(
    state: UavState,
    horizontal_speed: float,
    delta_h: float,
    dt: float,
    *,
    h_min: float,
    h_max: float,
    dh_max: float,
) -> UavState:
    """Advance the UAV one slot: signed horizontal step plus clamped altitude change.

    The reported vertical speed is always (new altitude - old altitude)/dt, so
    clamping at the altitude bounds is reflected in v_z. |delta_h| > dh_max is
    rejected; the action amender guarantees this never fires in closed loop.
    """
    if abs(delta_h) > dh_max + 1e-12:
        raise ValueError(f"|delta_h| = {abs(delta_h)} exceeds dh_max = {dh_max}")
    new_alt = min(max(state.altitude + delta_h, h_min), h_max)
    v_z = (new_alt - state.altitude) / dt
    return replace(
        state,
        x=state.x + horizontal_speed * dt,
        altitude=new_alt,
        velocity=(horizontal_speed, 0.0, v_z),
    )
