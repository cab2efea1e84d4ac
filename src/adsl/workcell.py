"""Deterministic kinematic workcell simulation.

Stands in for real hardware: a point TCP moving through a scene of
axis-aligned boxes, each optionally pierced by a rectangular through-hole.
Touching a solid region halts motion at the surface and makes the force
sensor report a fixed contact force; readings pass through a running-average
filter over the last `filter_window` samples. Each reading's mean adds the
window left to right from 0.0 (`_sum`), so a reading costs O(filter_window),
at most `MAX_FILTER_WINDOW` (1,024) additions. Everything is seeded and
single-threaded, so identical call sequences produce bit-identical states.

A `WorkcellConfig` checks its invariants when it is built, and each
`Obstacle` its geometry, so no invalid config exists; `speed_map` is
read-only, so none becomes invalid. `workcell_config_from_dict` is where JSON
values are type-checked and made floats and tuples; direct constructors take
them as given (a bool is still no number), and a run's state
(`WorkcellState`) makes the home joints floats.

The cell's `JOINT_COUNT` (six) joints are the TCP pose: the position
(x, y, z) in metres, then the ZYX Euler orientation (roll, pitch, yaw) in
radians, so motion in joint space and in Cartesian space is the same motion.
The workcell keeps no other form of the pose: the position is
`state.joints[:3]` and the orientation `state.joints[3:]`. The tool is its
orientation on the flange (`tool_orientation`), which the `toolmount` frame
undoes. The I/O bits are `state.io_bits`, a tuple that the controller's
I/O writes replace.

One control cycle (`Workcell.step_motion`) moves the TCP from the current
joints straight toward the target, a tuple of six floats in the joints'
order, by at most speed*dt, less when an obstacle surface comes first
(tested exactly only for obstacles whose widened box meets the step's). A
point is in a hole's aperture when `c - h <= p <= c + h` on both of its
cross axes (`Obstacle.aperture`), the floats at which the channel's walls
stop a move. The orientation interpolates by the same fraction. Only at
distance 0 does a cycle snap to the target untested, so a target inside a
solid, however shallow, is blocked at its surface. The clock advances by
dt. No run calls `step_motion`: the controller's one move loop,
`ExecutionContext._move`, runs its arithmetic on local variables for moves
and guarded attempts alike, is tested against it, the one-cycle reference,
and tests obstacles only on cycles that start in `_padded_hull`. A force
reading (`read_force`) is the tuple `(raw, filtered)`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional

from .model import JOINT_COUNT, Direction, Frame, SpeedLevel, Value, _set


class WorkcellConfigError(ValueError):
    """A workcell description violates its schema or invariants."""


# ---------------------------------------------------------------------------
# Geometry


def rotation_matrix(orientation) -> tuple[tuple[float, float, float], ...]:
    """Rows of Rz(yaw) @ Ry(pitch) @ Rx(roll) for orientation (roll, pitch, yaw)."""
    roll, pitch, yaw = orientation
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return (
        (cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr),
        (sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr),
        (-sp, cp * sr, cp * cr),
    )


class HoleAxis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


# Cross-section axes for a hole along each axis, in (u, v) order.
_CROSS_AXES = {HoleAxis.X: (1, 2), HoleAxis.Y: (0, 2), HoleAxis.Z: (0, 1)}
# How far `Obstacle.bounds` widens a box, in metres. When `_segment_hit` finds
# a step of at most 1 m per axis entering a box, the step's far end as
# `Workcell._first_hit` rounds it lies less than 5e-16 m outside the box.
_MARGIN = 1e-9


class Hole(Value):
    axis: HoleAxis
    center: tuple[float, float]
    half_extents: tuple[float, float]


class Obstacle(Value):
    """Axis-aligned box, solid except for an optional rectangular through-hole.
    It checks its geometry when it is built, and keeps two values that are not
    fields: `bounds`, the box's minima then maxima, each moved `_MARGIN`
    outward, and `aperture`, `(axis, c - h, c + h)` for each cross-section
    axis of the hole (empty without one): the one extent of the hole, which
    `_segment_hit` both tests points against and stops moves at."""

    box_min: tuple[float, float, float]
    box_max: tuple[float, float, float]
    hole: Optional[Hole] = None

    def __post_init__(self):
        for lo, hi in zip(self.box_min, self.box_max):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise WorkcellConfigError("obstacle box min must be strictly below max")
        _set(self, "bounds", tuple([b - _MARGIN for b in self.box_min]
                                   + [b + _MARGIN for b in self.box_max]))
        aperture = ()
        if self.hole is not None:
            for axis, c, h in zip(_CROSS_AXES[self.hole.axis], self.hole.center,
                                  self.hole.half_extents):
                if not (math.isfinite(h) and h > 0):
                    raise WorkcellConfigError("hole half-extents must be positive")
                lo, hi = c - h, c + h
                if not (self.box_min[axis] <= lo and hi <= self.box_max[axis]):
                    raise WorkcellConfigError("hole must lie within the obstacle face")
                aperture += ((axis, lo, hi),)
        _set(self, "aperture", aperture)


# ---------------------------------------------------------------------------
# Configuration

DEFAULT_SPEED_MAP = {
    SpeedLevel.VERY_FAST: 0.5,
    SpeedLevel.FAST: 0.25,
    SpeedLevel.NORMAL: 0.1,
    SpeedLevel.SLOW: 0.05,
    SpeedLevel.VERY_SLOW: 0.01,
}

DEFAULT_SPEED = SpeedLevel.NORMAL
MAX_RNG_SEED = 0xFFFFFFFFFFFFFFFF  # a seed fits in 64 unsigned bits
MAX_BIT_COUNT = 1024  # each event snapshots the bits, so they stay few
MAX_FILTER_WINDOW = 1024  # each reading sums its window, so the window stays short
#: A control cycle adds dt to the clock: MAX_CONTROL_CYCLES (600,000) cycles
#: of 1 s make 6e5 s, and 1 s added to any finite clock leaves it finite.
MAX_DT = 1.0  # s
#: A reading is the contact force plus random.gauss noise, which lies within
#: 8.6 sigmas of 0: at most 1e6 + 8.6e6 N in size, so the MAX_FILTER_WINDOW
#: (1,024) readings a filtered value sums add up to under 1e10 N.
MAX_CONTACT_FORCE = 1e6  # N
MAX_NOISE_SIGMA = 1e6  # N
#: A cycle moves at most MAX_SPEED x MAX_DT, 1 km, so the distance a guarded
#: move sums over MAX_CONTROL_CYCLES cycles stays under 6e8 m.
MAX_SPEED = 1e3  # m/s, every speed_map value


class WorkcellConfig(Value):
    #: (x, y, z, roll, pitch, yaw): the joints are the TCP pose.
    home_joints: tuple[float, ...] = (0.0,) * JOINT_COUNT
    bit_count: int = 8
    obstacles: tuple[Obstacle, ...] = ()
    contact_force: float = 50.0
    noise_sigma: float = 0.5
    filter_window: int = 5
    dt: float = 0.008
    #: Read-only: stored as a `MappingProxyType` over the config's own copy.
    speed_map: Mapping[SpeedLevel, float] = DEFAULT_SPEED_MAP
    perturbation_radius: float = 0.01
    rng_seed: int = 0
    #: The tool's (roll, pitch, yaw) on the flange: what the `toolmount` frame undoes.
    tool_orientation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    __hash__ = None  # a mapping (`speed_map`) has no hash, so neither has a config

    def __post_init__(self):
        """Check every invariant once, here: an invalid config is never built.
        Keeps `hull` (not a field): the box spanning its obstacles' `bounds`, or None."""
        _set(self, "speed_map", MappingProxyType(dict(self.speed_map)))
        for what, values, count in (("home_joints", self.home_joints, JOINT_COUNT),
                                    ("tool_orientation", self.tool_orientation, 3)):
            if len(values) != count:
                raise WorkcellConfigError(f"{what} must hold {count} values")
            if bool in map(type, values):
                raise WorkcellConfigError(f"{what} entry must be a number")
            if not all(map(math.isfinite, values)):
                raise WorkcellConfigError(f"{what} must be finite")
        if self.bit_count < 1:
            raise WorkcellConfigError("bit_count must be positive")
        if self.bit_count > MAX_BIT_COUNT:
            raise WorkcellConfigError(f"bit_count must be at most {MAX_BIT_COUNT}")
        if not (math.isfinite(self.contact_force) and self.contact_force > 0):
            raise WorkcellConfigError("contact_force must be positive")
        if self.contact_force > MAX_CONTACT_FORCE:
            raise WorkcellConfigError(f"contact_force must be at most {MAX_CONTACT_FORCE}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise WorkcellConfigError("noise_sigma must be non-negative")
        if self.noise_sigma > MAX_NOISE_SIGMA:
            raise WorkcellConfigError(f"noise_sigma must be at most {MAX_NOISE_SIGMA}")
        if self.filter_window < 1:
            raise WorkcellConfigError("filter_window must be positive")
        if self.filter_window > MAX_FILTER_WINDOW:
            raise WorkcellConfigError(f"filter_window must be at most {MAX_FILTER_WINDOW}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise WorkcellConfigError("dt must be positive")
        if self.dt > MAX_DT:
            raise WorkcellConfigError(f"dt must be at most {MAX_DT}")
        if not (math.isfinite(self.perturbation_radius) and self.perturbation_radius >= 0):
            raise WorkcellConfigError("perturbation_radius must be non-negative")
        if not 0 <= self.rng_seed <= MAX_RNG_SEED:
            raise WorkcellConfigError("rng_seed must fit in 64 unsigned bits")
        missing = [s.value for s in SpeedLevel if s not in self.speed_map]
        if missing:
            raise WorkcellConfigError(f"speed_map missing levels: {missing}")
        values = [self.speed_map[s] for s in SpeedLevel]  # declared fastest first
        if any(not (math.isfinite(v) and v > 0) for v in values):
            raise WorkcellConfigError("speed values must be positive")
        if max(values) > MAX_SPEED:
            raise WorkcellConfigError(f"speed values must be at most {MAX_SPEED}")
        if any(slower >= faster for slower, faster in zip(values[1:], values)):
            raise WorkcellConfigError(
                "speed_map must strictly decrease from very_fast to very_slow"
            )
        if values[-1] * self.dt == 0.0:  # the tool could never move at very_slow
            raise WorkcellConfigError("dt is too small: very_slow speed * dt is 0.0")
        sides = tuple(zip(*[o.bounds for o in self.obstacles]))  # each bound's values
        _set(self, "hull", tuple(map(min, sides[:3])) + tuple(map(max, sides[3:]))
             if sides else None)


def _number(value, what: str) -> float:
    """A JSON number as a float; booleans, strings and the like are rejected."""
    if type(value) not in (int, float):
        raise WorkcellConfigError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise WorkcellConfigError(f"{what} is out of range") from None


def _floats(values, length: int, what: str) -> tuple[float, ...]:
    """A JSON list of `length` numbers as floats."""
    if not isinstance(values, list) or len(values) != length:
        raise WorkcellConfigError(f"{what} must be a list of {length} numbers")
    return tuple(_number(v, f"{what} entry") for v in values)


def _obstacle_from_dict(raw) -> Obstacle:
    if not isinstance(raw, dict):
        raise WorkcellConfigError("obstacle must be an object")
    unknown = set(raw) - {"box", "hole"}
    if unknown:
        raise WorkcellConfigError(f"unknown obstacle keys: {sorted(unknown)}")
    box = raw.get("box")
    if not isinstance(box, dict) or set(box) != {"min", "max"}:
        raise WorkcellConfigError("obstacle box must have exactly min and max")
    hole = None
    if raw.get("hole") is not None:
        h = raw["hole"]
        if not isinstance(h, dict) or set(h) != {"axis", "center", "half_extents"}:
            raise WorkcellConfigError(
                "hole must have exactly axis, center, and half_extents"
            )
        try:
            axis = HoleAxis(h["axis"])
        except ValueError:
            raise WorkcellConfigError(f"unknown hole axis: {h['axis']!r}") from None
        hole = Hole(axis, _floats(h["center"], 2, "hole center"),
                    _floats(h["half_extents"], 2, "hole half_extents"))
    return Obstacle(_floats(box["min"], 3, "box min"), _floats(box["max"], 3, "box max"), hole)


def workcell_config_from_dict(raw: dict) -> WorkcellConfig:
    """Build a config from parsed JSON: the one place where config values are
    type-checked and coerced to floats and tuples. Unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise WorkcellConfigError("workcell config must be a JSON object")
    unknown = set(raw) - set(WorkcellConfig._fields)
    if unknown:
        raise WorkcellConfigError(f"unknown workcell config keys: {sorted(unknown)}")
    kwargs = {}
    for key in ("bit_count", "filter_window", "rng_seed"):
        if key in raw:
            if type(raw[key]) is not int:
                raise WorkcellConfigError(f"{key} must be an integer")
            kwargs[key] = raw[key]
    for key in ("contact_force", "noise_sigma", "dt", "perturbation_radius"):
        if key in raw:
            kwargs[key] = _number(raw[key], key)
    if "home_joints" in raw:
        kwargs["home_joints"] = _floats(raw["home_joints"], JOINT_COUNT, "home_joints")
    if "tool_orientation" in raw:
        kwargs["tool_orientation"] = _floats(raw["tool_orientation"], 3, "tool_orientation")
    if "obstacles" in raw:
        if not isinstance(raw["obstacles"], list):
            raise WorkcellConfigError("obstacles must be a list")
        kwargs["obstacles"] = tuple(_obstacle_from_dict(o) for o in raw["obstacles"])
    if "speed_map" in raw:
        if not isinstance(raw["speed_map"], dict):
            raise WorkcellConfigError("speed_map must be an object")
        sm = {}
        for key, value in raw["speed_map"].items():
            try:
                level = SpeedLevel(key)
            except ValueError:
                raise WorkcellConfigError(f"unknown speed level: {key!r}") from None
            sm[level] = _number(value, f"speed_map {key}")
        kwargs["speed_map"] = sm
    return WorkcellConfig(**kwargs)


def load_workcell_config(path) -> WorkcellConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, an over-long integer, or not UTF-8
            raise WorkcellConfigError(f"invalid JSON in {path}: {exc}") from None
        except RecursionError:
            raise WorkcellConfigError(f"invalid JSON in {path}: nested too deeply") from None
    return workcell_config_from_dict(raw)


# ---------------------------------------------------------------------------
# State and sensing


def _sum(values) -> float:
    """Add floats left to right from 0.0, as `sum` does before Python 3.12
    (which compensates), so every Python writes the same trace."""
    total = 0.0
    for v in values:
        total += v
    return total


class WorkcellState:
    """Mutable snapshot of the simulated cell; single writer at a time."""

    __slots__ = ("joints", "io_bits", "clock", "force_history", "in_contact")

    def __init__(self, joints, bit_count: int, filter_window: int):
        self.joints: tuple[float, ...] = tuple(map(float, joints))  # where home joints enter
        #: Immutable; a write replaces it, so a snapshot is a reference.
        self.io_bits: tuple[bool, ...] = (False,) * bit_count
        self.clock: float = 0.0
        self.force_history: deque[float] = deque(maxlen=filter_window)
        self.in_contact: bool = False

    def bits(self) -> tuple[bool, ...]:  # kept for `bench/`, which calls it by name
        return self.io_bits


class Workcell:
    """Config + mutable state, with the simulation verbs."""

    def __init__(self, config: WorkcellConfig):
        self.config = config
        self.state = WorkcellState(config.home_joints, config.bit_count, config.filter_window)

    # -- motion -----------------------------------------------------------

    def step_motion(self, target: tuple[float, ...], speed: float):
        """Advance one control cycle toward `target`, six floats as the joints.

        Moves the TCP along the straight position segment by at most
        speed * config.dt, halting at the first solid surface on the way. The
        orientation interpolates in lockstep; only at distance 0 (a pure
        rotation) does it snap untested. Returns (contact, meters advanced).
        """
        state = self.state
        dt = self.config.dt
        px, py, pz, o0x, o0y, o0z = state.joints
        tx, ty, tz, o1x, o1y, o1z = target
        dx, dy, dz = tx - px, ty - py, tz - pz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        contact = False
        if dist == 0.0:
            advanced = 0.0
        else:
            advanced = speed * dt
            if dist < advanced:
                advanced = dist
            ux, uy, uz = dx / dist, dy / dist, dz / dist
            if self.config.obstacles:
                hit = self._first_hit((px, py, pz), (ux, uy, uz), advanced)
                if hit is not None:
                    advanced = hit if hit > 0.0 else 0.0
                    contact = True
        if dist == 0.0 or not contact and advanced >= dist - 1e-15:
            joints = target
        else:
            # Kept as written even when o0 == o1: -0.0 + 0.0 is 0.0.
            frac = advanced / dist
            x, y, z = px + ux * advanced, py + uy * advanced, pz + uz * advanced
            a, b, c = o0x + (o1x - o0x) * frac, o0y + (o1y - o0y) * frac, o0z + (o1z - o0z) * frac
            joints = (x, y, z, a, b, c)
        state.joints = joints
        state.clock += dt
        state.in_contact = contact
        return contact, advanced

    def _first_hit(self, origin, unit_dir, length):
        """Distance along the segment to the first solid surface, or None.
        Only obstacles whose `bounds` meet the segment's bounding box get the
        exact test; that box is all of space unless every coordinate is
        finite and the step is at most 1 m on each axis."""
        ox, oy, oz = origin
        ux, uy, uz = unit_dir
        sx, sy, sz = ux * length, uy * length, uz * length
        if -1.0 <= sx <= 1.0 and -1.0 <= sy <= 1.0 and -1.0 <= sz <= 1.0 \
                and -math.inf < ox + oy + oz < math.inf:
            x0, x1 = ox, ox + sx
            if sx < 0.0:
                x0, x1 = x1, x0
            y0, y1 = oy, oy + sy
            if sy < 0.0:
                y0, y1 = y1, y0
            z0, z1 = oz, oz + sz
            if sz < 0.0:
                z0, z1 = z1, z0
        else:
            x0 = y0 = z0 = -math.inf
            x1 = y1 = z1 = math.inf
        best = None
        for obs in self.config.obstacles:
            b = obs.bounds
            if x1 < b[0] or x0 > b[3] or y1 < b[1] or y0 > b[4] or z1 < b[2] or z0 > b[5]:
                continue
            hit = _segment_hit(origin, unit_dir, length, obs)
            if hit is not None and (best is None or hit < best):
                best = hit
        return best

    # -- sensing ----------------------------------------------------------

    def read_force(self, rng) -> tuple[float, float]:
        """Sample the force sensor and push the raw value through the filter:
        `(raw, filtered)`, the sample and the filter's mean."""
        state = self.state
        raw = self.config.contact_force if state.in_contact else 0.0
        raw += rng.gauss(0.0, self.config.noise_sigma)
        history = state.force_history
        history.append(raw)
        return raw, _sum(history) / len(history)

    def filtered_force(self) -> float:
        """The mean of the filter's readings, 0.0 when it has none."""
        history = self.state.force_history
        if not history:
            return 0.0
        return _sum(history) / len(history)

    def clear_force_filter(self) -> None:
        """Drop the filter's readings: the next reading starts a new mean."""
        self.state.force_history.clear()

    # -- frames ----------------------------------------------------------

    def direction_vector(self, direction: Direction, frame: Frame):
        """Unit vector for a symbolic direction, expressed in base coordinates."""
        if frame is Frame.BASE:
            rows = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        else:
            rows = rotation_matrix(self.state.joints[3:])
            if frame is Frame.TOOLMOUNT:
                tool = rotation_matrix(self.config.tool_orientation)
                # Flange orientation: the TCP rotation composed with the
                # inverse (i.e. transpose) of the tool rotation.
                rows = tuple(
                    tuple(
                        _sum(rows[i][k] * tool[j][k] for k in range(3))
                        for j in range(3)
                    )
                    for i in range(3)
                )
        axis, sign = _DIRECTION_AXES[direction]
        vec = (rows[0][axis] * sign, rows[1][axis] * sign, rows[2][axis] * sign)
        norm = math.sqrt(vec[0] ** 2 + vec[1] ** 2 + vec[2] ** 2)
        return (vec[0] / norm, vec[1] / norm, vec[2] / norm)


_DIRECTION_AXES = {
    Direction.FORWARD: (0, 1.0),
    Direction.X: (0, 1.0),
    Direction.BACKWARDS: (0, -1.0),
    Direction.LEFT: (1, 1.0),
    Direction.Y: (1, 1.0),
    Direction.RIGHT: (1, -1.0),
    Direction.UP: (2, 1.0),
    Direction.Z: (2, 1.0),
    Direction.DOWN: (2, -1.0),
}


def _padded_hull(hull, step):
    """`WorkcellConfig.hull` widened by `step` and a pad: a step of at most
    `step` from outside meets no obstacle, so `_first_hit` returns None. With
    u = 2**-53 and M the hull's largest magnitude, the pad 4 ulp(M) > 4uM pays
    the widening's rounding: such a start lies D > step*(1 + 2**-40)*(1 - u)**3
    + pad/2 outside every box on one axis, where `_segment_hit`'s direction d
    points away or is under 1e-15 (None) or enters at fl(fl(D)/d) > step, as
    |d| <= 1 + 5u if |(dx, dy, dz)| >= 2**-500, and else the advance is under
    2**-499, |d| < 1.5 and pad/2 > 2**-82 (`bounds`' 1 nm makes M > 5e-10)."""
    x0, y0, z0, x1, y1, z1 = hull  # so M is max(x1, -x0, ...): x0 <= x1 on each axis
    w = step * (1.0 + 2.0 ** -40) + 4.0 * math.ulp(max(x1, y1, z1, -x0, -y0, -z0))
    return x0 - w, y0 - w, z0 - w, x1 + w, y1 + w, z1 + w


def _segment_hit(origin, unit_dir, length, obs: Obstacle):
    """Entry distance of a segment into an obstacle's solid region, or None.

    Solid region is the box minus the hole prism. Zero-length grazing
    contacts (sliding exactly on a face while leaving) do not count.
    """
    r0 = -math.inf
    r1 = math.inf
    for axis in range(3):
        o = origin[axis]
        d = unit_dir[axis]
        lo = obs.box_min[axis] - o
        hi = obs.box_max[axis] - o
        if abs(d) < 1e-15:
            if lo > 0.0 or hi < 0.0:
                return None
        else:
            ta = lo / d
            tb = hi / d
            if ta > tb:
                ta, tb = tb, ta
            if ta > r0:
                r0 = ta
            if tb < r1:
                r1 = tb
            if r0 > r1:
                return None
    enter = max(r0, 0.0)
    exit_ = min(r1, length)
    if exit_ <= enter:
        return None

    if not obs.aperture:
        return enter

    # The aperture and the channel walls are the same floats, so a move that
    # stops on a wall stands in the aperture, and the next one starts there.
    (u, ulo, uhi), (v, vlo, vhi) = obs.aperture
    pu = origin[u] + unit_dir[u] * enter
    pv = origin[v] + unit_dir[v] * enter
    if not (ulo <= pu <= uhi and vlo <= pv <= vhi):
        return enter

    # Entered through the aperture; find where the ray leaves the hole
    # cross-section. Still inside the box at that point means hitting the
    # channel's side wall.
    g1 = math.inf
    for axis, lo, hi in obs.aperture:
        o = origin[axis]
        d = unit_dir[axis]
        if abs(d) < 1e-15:
            continue
        ta = (lo - o) / d
        tb = (hi - o) / d
        if ta > tb:
            ta, tb = tb, ta
        if tb < g1:
            g1 = tb
    if g1 < exit_:
        return g1
    return None
