import copy
import hashlib
import importlib.resources
import json
import math
import pickle
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from adsl import controller as controller_module, workcell as workcell_module
from adsl.controller import Controller, ControllerOptions
from adsl.model import Direction, Frame, SpeedLevel
from adsl.parser import parse_program
from adsl.reverse import RunAborted, reverse_execute
from adsl.workcell import (
    DEFAULT_SPEED_MAP,
    MAX_CONTACT_FORCE,
    MAX_DT,
    MAX_FILTER_WINDOW,
    MAX_NOISE_SIGMA,
    MAX_SPEED,
    Hole,
    HoleAxis,
    Obstacle,
    Workcell,
    WorkcellConfig,
    WorkcellConfigError,
    load_workcell_config,
    workcell_config_from_dict,
    _CROSS_AXES,
    _segment_hit,
)


def make_cell(**overrides):
    defaults = dict(noise_sigma=0.0, home_joints=(0.0,) * 6)
    defaults.update(overrides)
    return Workcell(WorkcellConfig(**defaults))


WALL = Obstacle((0.15, -0.5, -0.5), (0.25, 0.5, 0.5))
WALL_WITH_HOLE = Obstacle(
    (0.15, -0.5, -0.5),
    (0.25, 0.5, 0.5),
    Hole(HoleAxis.X, (0.0, 0.0), (0.02, 0.02)),
)


class TestStepMotion:
    def test_free_space_step(self):
        cell = make_cell()
        target = (0.30, 0.0, 0.0, 0.0, 0.0, 0.0)
        contact, advanced = cell.step_motion(target, speed=0.05)
        assert not contact
        assert advanced == pytest.approx(0.0004, abs=1e-15)
        assert cell.state.clock == pytest.approx(0.008)

    def test_wall_halts_at_face(self):
        # Wall face 0.15 m ahead; hand-computed entry: segment param where
        # x reaches 0.15, so the total advance over repeated steps is 0.15.
        cell = make_cell(obstacles=(WALL,))
        target = (0.40, 0.0, 0.0, 0.0, 0.0, 0.0)
        total = 0.0
        contact = False
        for _ in range(10000):
            contact, advanced = cell.step_motion(target, speed=0.05)
            total += advanced
            if contact and advanced <= 1e-15:
                break
        assert contact
        assert total == pytest.approx(0.15, abs=1e-9)
        assert cell.state.joints[0] <= 0.15 + 1e-9

    def test_hole_lets_the_ray_through(self):
        # Ray along +x through the aperture center: hand-computed membership
        # |y|<=0.02, |z|<=0.02 holds the whole transit, so no contact.
        cell = make_cell(obstacles=(WALL_WITH_HOLE,))
        target = (0.40, 0.0, 0.0, 0.0, 0.0, 0.0)
        total = 0.0
        for _ in range(10000):
            contact, advanced = cell.step_motion(target, speed=0.5)
            assert not contact
            total += advanced
            if total >= 0.40 - 1e-12:
                break
        assert cell.state.joints[0] == pytest.approx(0.40)

    def test_offset_ray_hits_wall_next_to_hole(self):
        cell = make_cell(home_joints=(0.0, 0.05, 0.0, 0.0, 0.0, 0.0),
                         obstacles=(WALL_WITH_HOLE,))
        target = (0.40, 0.05, 0.0, 0.0, 0.0, 0.0)
        total = 0.0
        contact = False
        for _ in range(10000):
            contact, advanced = cell.step_motion(target, speed=0.5)
            total += advanced
            if contact and advanced <= 1e-15:
                break
        assert contact
        assert total == pytest.approx(0.15, abs=1e-9)

    def test_hole_side_wall_blocks_diagonal_ray(self):
        # Enter through the aperture (y=0.015 at the face), drift sideways,
        # and hit the channel side wall where y reaches 0.02 (at x=0.2).
        cell = make_cell(obstacles=(WALL_WITH_HOLE,))
        target = (0.30, 0.03, 0.0, 0.0, 0.0, 0.0)
        contact = False
        for _ in range(10000):
            contact, advanced = cell.step_motion(target, speed=0.5)
            if contact and advanced <= 1e-15:
                break
        assert contact
        pos = cell.state.joints[:3]
        assert pos[0] == pytest.approx(0.20, abs=1e-9)
        assert pos[1] == pytest.approx(0.02, abs=1e-9)
        # It stops inside the hole prism (y and z within the hole's
        # half-extents), not in the solid.
        hole = WALL_WITH_HOLE.hole
        assert all(abs(p - c) <= h for p, c, h in zip(pos[1:], hole.center, hole.half_extents))

    def test_a_step_off_a_channel_wall_leaves_it(self):
        """A point on a channel wall, at z = c + h as the obstacle rounds it,
        is in the aperture: a step from it down into the channel is free, and
        one up into the wall is blocked at once. With these c and h (those of
        `generated_walls` seed 112), `abs(z - c) > h` holds there."""
        c, h = 0.09284172483170414, 0.023836262240942426
        wall = Obstacle((0.2, -0.5, -0.5), (0.23, 0.5, 0.5), Hole(HoleAxis.X, (0.0, c), (0.02, h)))
        top = c + h
        assert abs(top - c) > h and wall.aperture[1] == (2, c - h, top)
        origin = (0.21, 0.0, top)
        assert _segment_hit(origin, (0.0, 0.0, -1.0), 0.002, wall) is None
        assert _segment_hit(origin, (0.0, 0.0, 1.0), 0.002, wall) == 0.0

    def test_non_penetration_invariant(self):
        rng = random.Random(99)
        cell = make_cell(obstacles=(WALL_WITH_HOLE,))
        for _ in range(300):
            target = (rng.uniform(-0.3, 0.5), rng.uniform(-0.3, 0.3),
                      rng.uniform(-0.3, 0.3), 0.0, 0.0, 0.0)
            for _ in range(40):
                cell.step_motion(target, speed=0.5)
                assert _signed_outside(cell.state.joints[:3], WALL_WITH_HOLE)

    def test_clock_monotone(self):
        cell = make_cell(obstacles=(WALL,))
        last = cell.state.clock
        target = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for _ in range(50):
            cell.step_motion(target, speed=0.5)
            assert cell.state.clock >= last
            last = cell.state.clock

    def test_orientation_only_motion_snaps(self):
        cell = make_cell()
        target = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        contact, advanced = cell.step_motion(target, speed=0.1)
        assert advanced == 0.0
        assert cell.state.joints[3:] == (0.0, 0.0, 1.0)
        assert cell.state.joints is target  # on arrival the target is the joints


def _signed_outside(point, obs, tol=1e-9):
    """Point may touch the surface but not sit deeper than tol inside."""
    x, y, z = point
    inside = [
        min(x - obs.box_min[0], obs.box_max[0] - x),
        min(y - obs.box_min[1], obs.box_max[1] - y),
        min(z - obs.box_min[2], obs.box_max[2] - z),
    ]
    depth = min(inside)
    if depth <= tol:
        return True
    if obs.hole is not None:
        cu, cv = obs.hole.center
        hu, hv = obs.hole.half_extents
        if abs(y - cu) <= hu + tol and abs(z - cv) <= hv + tol:
            return True
    return False


class _Noise:
    """An rng whose Gaussian noise is `values` in turn: a free-space cell
    without noise of its own reads exactly them."""

    def __init__(self, values):
        self._values = iter(values)

    def gauss(self, mu, sigma):
        return next(self._values)


class TestForceSensing:
    def test_zero_noise_free_space(self):
        cell = make_cell()
        rng = random.Random(0)
        for _ in range(5):
            raw, filtered = cell.read_force(rng)
        assert raw == 0.0
        assert filtered == 0.0

    def test_running_average_mixes_contact(self):
        cell = make_cell(contact_force=50.0)
        rng = random.Random(0)
        for _ in range(2):
            cell.read_force(rng)
        cell.state.in_contact = True
        for _ in range(3):
            _, filtered = cell.read_force(rng)
        # History ring is [0, 0, 50, 50, 50].
        assert filtered == pytest.approx(30.0)

    def test_filter_window_exact_mean(self):
        cell = make_cell(filter_window=5)
        rng = random.Random(3)
        raws = []
        for k in range(1, 40):
            cell.state.in_contact = rng.random() < 0.3
            raw, filtered = cell.read_force(rng)
            raws.append(raw)
            assert filtered == sum(raws[-5:]) / len(raws[-5:])

    def test_filter_adds_left_to_right_on_every_python(self):
        # From Python 3.12 `sum` compensates: it gives 1e16 + 2 for 0, 1e16, 1, 1,
        # so its mean would differ in the last bit and so would every trace. The
        # window's sum adds left to right while it fills and once it is full
        # (the fifth reading drops the 0.0).
        cell = make_cell(filter_window=4)
        rng = _Noise([0.0, 1e16, 1.0, 1.0, 1.0])
        filtered = [cell.read_force(rng)[1] for _ in range(5)]
        assert filtered == [0.0, 5e15, 1e16 / 3, 2.5e15, 2.5e15]
        assert cell.filtered_force() == 2.5e15
        cell.clear_force_filter()
        assert cell.filtered_force() == 0.0
        assert cell.read_force(_Noise([1.0]))[1] == 1.0

    def test_a_long_guarded_move_sums_at_most_the_window_bound_a_reading(self, monkeypatch):
        # A reading sums its whole window, so the bound on the window bounds
        # each reading's work: a guarded move at the largest window, run well
        # past filling it, adds at most `MAX_FILTER_WINDOW` values a reading.
        # Counted, not timed, so it does not flake on a busy machine.
        bound = workcell_module.MAX_FILTER_WINDOW
        with pytest.raises(WorkcellConfigError, match=f"filter_window must be at most {bound}"):
            WorkcellConfig(filter_window=bound + 1)
        cycles = 4_000  # fills the window, then reads on with it full
        summed = []
        real_sum = workcell_module._sum

        def counting_sum(values):
            summed.append(len(values))
            return real_sum(values)

        monkeypatch.setattr(workcell_module, "_sum", counting_sum)
        distance = cycles * 0.01 * 0.008  # at very_slow, one 8e-5 m step a cycle
        program = parse_program(
            f'advanced_move "probe" {{ specification {{ distance {distance} direction x frame base;'
            " speed very_slow; } evaluation { distance_covered(more_than, 1.5); }"
            " on_fail { return_to_initial_position; } }\n"
            'sequence "s" { adv_move "probe"; }\nentry "s";\n'
        )
        controller = Controller(program, WorkcellConfig(noise_sigma=0.0, filter_window=bound),
                                options=ControllerOptions(record_motion_samples=False))
        result = controller.run()
        assert result.completed and result.stats.errors == 0
        assert controller.ctx.cycles >= cycles
        assert len(summed) >= cycles and max(summed) == bound

    def test_reading_is_a_read_only_raw_filtered_tuple(self):
        reading = make_cell(noise_sigma=0.5).read_force(random.Random(0))
        raw, filtered = reading
        assert type(reading) is tuple and reading == (raw, filtered)
        assert type(raw) is float and type(filtered) is float
        with pytest.raises(TypeError):
            reading[0] = 1.0
        assert hash((raw, filtered)) == hash(reading)
        for clone in (copy.copy(reading), copy.deepcopy(reading),
                      pickle.loads(pickle.dumps(reading))):
            assert type(clone) is tuple and clone == reading

    def test_largest_bit_count_and_window_build_a_cell(self):
        config = WorkcellConfig(bit_count=workcell_module.MAX_BIT_COUNT,
                                filter_window=workcell_module.MAX_FILTER_WINDOW)
        cell = Workcell(config)
        assert len(cell.state.io_bits) == 1024
        assert cell.state.force_history.maxlen == 1024

    def test_seeded_noise_statistics(self):
        # Sample mean of 1000 free-space raws stays within 3 sigma/sqrt(n).
        cell = make_cell(noise_sigma=0.5)
        rng = random.Random(1234)
        raws = [cell.read_force(rng)[0] for _ in range(1000)]
        assert abs(sum(raws) / len(raws)) < 3 * 0.5 / math.sqrt(1000)

    def test_determinism_bit_identical(self):
        def trajectory(seed):
            cell = make_cell(noise_sigma=0.5, obstacles=(WALL,))
            rng = random.Random(seed)
            out = []
            target = (0.4, 0.0, 0.0, 0.0, 0.0, 0.0)
            for _ in range(200):
                cell.step_motion(target, speed=0.5)
                raw, filtered = cell.read_force(rng)
                out.append((cell.state.joints, raw, filtered, cell.state.clock))
            return out

        assert trajectory(42) == trajectory(42)
        assert trajectory(42) != trajectory(43)


class TestDirectionVector:
    def test_base_axes(self):
        cell = make_cell()
        assert cell.direction_vector(Direction.Z, Frame.BASE) == (0.0, 0.0, 1.0)
        assert cell.direction_vector(Direction.BACKWARDS, Frame.BASE) == (-1.0, 0.0, 0.0)
        assert cell.direction_vector(Direction.RIGHT, Frame.BASE) == (0.0, -1.0, 0.0)

    def test_tcp_identity_orientation(self):
        cell = make_cell()
        assert cell.direction_vector(Direction.FORWARD, Frame.TCP) == (1.0, 0.0, 0.0)

    def test_tcp_yawed(self):
        # Rotation-matrix evaluation: yaw pi/2 turns +x into +y.
        cell = make_cell(home_joints=(0, 0, 0, 0, 0, math.pi / 2))
        vec = cell.direction_vector(Direction.FORWARD, Frame.TCP)
        assert vec[0] == pytest.approx(0.0, abs=1e-12)
        assert vec[1] == pytest.approx(1.0, abs=1e-12)
        assert vec[2] == pytest.approx(0.0, abs=1e-12)

    def test_toolmount_defaults_to_tcp(self):
        cell = make_cell(home_joints=(0, 0, 0, 0.3, -0.2, 0.9))
        a = cell.direction_vector(Direction.UP, Frame.TCP)
        b = cell.direction_vector(Direction.UP, Frame.TOOLMOUNT)
        assert a == pytest.approx(b, abs=1e-12)

    def test_toolmount_compensates_tool_rotation(self):
        cell = Workcell(
            WorkcellConfig(
                home_joints=(0, 0, 0, 0.0, 0.0, math.pi / 2),
                tool_orientation=(0.0, 0.0, math.pi / 2),
                noise_sigma=0.0,
            )
        )
        vec = cell.direction_vector(Direction.FORWARD, Frame.TOOLMOUNT)
        # Flange frame = tcp composed with the inverse tool rotation: identity.
        assert vec == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    @given(
        st.sampled_from(list(Direction)),
        st.sampled_from(list(Frame)),
        st.lists(st.floats(-3, 3), min_size=6, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_unit_norm(self, direction, frame, joints):
        cell = make_cell(home_joints=tuple(joints))
        vec = cell.direction_vector(direction, frame)
        norm = math.sqrt(sum(c * c for c in vec))
        assert abs(norm - 1.0) <= 1e-12


class TestConfigLoading:
    def test_unknown_keys_rejected(self):
        with pytest.raises(WorkcellConfigError):
            workcell_config_from_dict({"dt": 0.008, "gravity": 9.81})

    def test_speed_map_must_decrease(self):
        with pytest.raises(WorkcellConfigError):
            workcell_config_from_dict(
                {
                    "speed_map": {
                        "very_fast": 0.1,
                        "fast": 0.25,
                        "normal": 0.1,
                        "slow": 0.05,
                        "very_slow": 0.01,
                    }
                }
            )

    def test_hole_must_fit_face(self):
        with pytest.raises(WorkcellConfigError):
            workcell_config_from_dict(
                {
                    "obstacles": [
                        {
                            "box": {"min": [0, 0, 0], "max": [1, 0.01, 0.01]},
                            "hole": {
                                "axis": "x",
                                "center": [0.0, 0.0],
                                "half_extents": [0.5, 0.5],
                            },
                        }
                    ]
                }
            )

    def test_defaults_round_out_partial_config(self):
        cfg = workcell_config_from_dict({"noise_sigma": 0.0})
        assert cfg.dt == 0.008
        assert cfg.contact_force == 50.0
        assert cfg.filter_window == 5
        assert cfg.speed_map[SpeedLevel.SLOW] == 0.05
        assert cfg.perturbation_radius == 0.01

    BOX = {"min": [0, 0, 0], "max": [1, 1, 1]}

    @pytest.mark.parametrize("raw, message", [
        ({"dt": "abc"}, "dt must be a number"),
        ({"dt": True}, "dt must be a number"),
        ({"dt": 10 ** 400}, "dt is out of range"),
        ({"home_joints": ["x", 0, 0, 0, 0, 0]}, "home_joints entry must be a number"),
        ({"home_joints": 5}, "home_joints must be a list of 6 numbers"),
        ({"home_joints": [0, 0, 0, 0, 0]}, "home_joints must be a list of 6 numbers"),
        ({"home_joints": [0, 0, 0, 0, 0, 0, 0]}, "home_joints must be a list of 6 numbers"),
        ({"home_joints": [math.nan, 0, 0, 0, 0, 0]}, "home_joints must be finite"),
        ({"dof": 6}, "unknown workcell config keys: ['dof']"),
        ({"bit_count": 2.5}, "bit_count must be an integer"),
        ({"filter_window": 2.5}, "filter_window must be an integer"),
        ({"rng_seed": 1.5}, "rng_seed must be an integer"),
        ({"speed_map": []}, "speed_map must be an object"),
        ({"speed_map": {"fast": "1"}}, "speed_map fast must be a number"),
        ({"obstacles": 3}, "obstacles must be a list"),
        ({"obstacles": [{"box": {"min": [0, 0], "max": [1, 1, 1]}}]},
         "box min must be a list of 3 numbers"),
        ({"obstacles": [{"box": BOX, "hole": {"axis": "x", "center": [0.5],
                                               "half_extents": [0.1, 0.1]}}]},
         "hole center must be a list of 2 numbers"),
        ({"tool_orientation": [1, 2]}, "tool_orientation must be a list of 3 numbers"),
        ({"tool_orientation": [0, math.inf, 0]}, "tool_orientation must be finite"),
        ({"tool_orientation": [0, True, 0]}, "tool_orientation entry must be a number"),
        ({"obstacles": [{"box": BOX, "hole": {"axis": "z", "center": [math.nan, 0.5],
                                               "half_extents": [0.1, 0.1]}}]},
         "hole must lie within the obstacle face"),
        ({"bit_count": 0}, "bit_count must be positive"),
        ({"bit_count": 1025}, "bit_count must be at most 1024"),
        ({"bit_count": 10 ** 11}, "bit_count must be at most 1024"),
        ({"contact_force": 0}, "contact_force must be positive"),
        ({"noise_sigma": -1}, "noise_sigma must be non-negative"),
        ({"filter_window": 0}, "filter_window must be positive"),
        ({"filter_window": 2 ** 31}, "filter_window must be at most 1024"),
        ({"filter_window": 10 ** 30}, "filter_window must be at most 1024"),
        ({"perturbation_radius": -0.1}, "perturbation_radius must be non-negative"),
        ({"dt": 1e308}, "dt must be at most 1.0"),
        ({"dt": 1.0000000000000002}, "dt must be at most 1.0"),
        ({"noise_sigma": 1e308}, "noise_sigma must be at most 1000000.0"),
        ({"contact_force": 1e308}, "contact_force must be at most 1000000.0"),
        ({"speed_map": {"very_fast": 1e308, "fast": 0.25, "normal": 0.1, "slow": 0.05,
                        "very_slow": 0.01}}, "speed values must be at most 1000.0"),
        ({"rng_seed": 2 ** 64}, "rng_seed must fit in 64 unsigned bits"),
        ({"speed_map": {"very_fast": 2.0, "fast": 1.0}},
         "speed_map missing levels: ['normal', 'slow', 'very_slow']"),
        ({"speed_map": {"warp": 1.0}}, "unknown speed level: 'warp'"),
        ({"tool_orientation": {"yaw": 1}}, "tool_orientation must be a list of 3 numbers"),
        ({"tool_transform": {"orientation": [0, 0, 0]}},
         "unknown workcell config keys: ['tool_transform']"),
        ({"obstacles": [5]}, "obstacle must be an object"),
        ({"obstacles": [{"box": BOX, "colour": "red"}]}, "unknown obstacle keys: ['colour']"),
        ({"obstacles": [{"box": {"min": [0, 0, 0]}}]},
         "obstacle box must have exactly min and max"),
        ({"obstacles": [{"box": BOX, "hole": {"axis": "x"}}]},
         "hole must have exactly axis, center, and half_extents"),
        ({"obstacles": [{"box": BOX, "hole": {"axis": "w", "center": [0.5, 0.5],
                                               "half_extents": [0.1, 0.1]}}]},
         "unknown hole axis: 'w'"),
        ([], "workcell config must be a JSON object"),
    ])
    def test_mistyped_fields_rejected(self, raw, message):
        with pytest.raises(WorkcellConfigError) as info:
            workcell_config_from_dict(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize("home_joints, message", [
        ((math.nan, 0.0, 0.1, 0.0, 0.0, 0.0), "home_joints must be finite"),
        ((True, 0, 0, 0, 0, 0), "home_joints entry must be a number"),
    ], ids=["nan", "bool"])
    def test_non_finite_home_joints_rejected_when_constructed_directly(self, home_joints,
                                                                       message):
        # The messages a JSON config gets: a bool is no number there either.
        with pytest.raises(WorkcellConfigError, match=f"^{message}$"):
            make_cell(home_joints=home_joints)

    @pytest.mark.parametrize("tool_orientation, message", [
        ((0.0, math.inf, 0.0), "tool_orientation must be finite"),
        ((0, 0, False), "tool_orientation entry must be a number"),
        ((0.0, 0.0), "tool_orientation must hold 3 values"),
    ], ids=["inf", "bool", "two_angles"])
    def test_tool_orientation_checked_when_constructed_directly(self, tool_orientation,
                                                                message):
        with pytest.raises(WorkcellConfigError, match=f"^{message}$"):
            make_cell(tool_orientation=tool_orientation)

    @pytest.mark.parametrize("count", [5, 7])
    def test_home_joints_count_checked_when_constructed_directly(self, count):
        with pytest.raises(WorkcellConfigError, match="home_joints must hold 6 values"):
            WorkcellConfig(home_joints=(0.0,) * count)

    def test_integers_accepted_for_reals(self):
        cfg = workcell_config_from_dict({"contact_force": 50, "home_joints": [0, 0, 1, 0, 0, 0]})
        assert type(cfg.contact_force) is float
        assert cfg.home_joints == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        assert all(type(j) is float for j in cfg.home_joints)

    def test_integer_over_the_conversion_limit_is_a_config_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"bit_count": ' + "1" * 5000 + "}")
        with pytest.raises(WorkcellConfigError, match="invalid JSON"):
            load_workcell_config(str(path))

    def test_loaded_examples_validate(self, aligned_config, blocked_config, free_config):
        for cfg in (aligned_config, blocked_config, free_config):
            assert cfg.replace() == cfg  # rebuilding runs the checks again

    def test_config_checks_itself_when_built(self):
        with pytest.raises(WorkcellConfigError, match="dt must be positive"):
            WorkcellConfig(dt=0.0)

    @pytest.mark.parametrize("changes, message", [
        ({"bit_count": 2.5}, "bit_count must be an integer"),
        ({"filter_window": 2.5}, "filter_window must be an integer"),
        ({"rng_seed": 2.5}, "rng_seed must be an integer"),
        ({"bit_count": True}, "bit_count must be an integer"),
        ({"rng_seed": True}, "rng_seed must be an integer"),
        ({"dt": True}, "dt must be a number"),
        ({"contact_force": True}, "contact_force must be a number"),
        ({"noise_sigma": "0.5"}, "noise_sigma must be a number"),
        ({"perturbation_radius": None}, "perturbation_radius must be a number"),
        ({"home_joints": ("0",) * 6}, "home_joints entry must be a number"),
        ({"speed_map": {**DEFAULT_SPEED_MAP, SpeedLevel.SLOW: True}},
         "speed_map slow must be a number"),
        ({"obstacles": ({"box": {"min": [0, 0, 0], "max": [1, 1, 1]}},)},
         "obstacles must hold Obstacles"),
    ])
    def test_mistyped_fields_rejected_when_constructed_directly(self, changes, message):
        """The JSON loader's messages: no config of a wrong type is built, so
        none fails later in a run."""
        with pytest.raises(WorkcellConfigError) as info:
            WorkcellConfig(**changes)
        assert str(info.value) == message

    @pytest.mark.parametrize("field, bound", [
        ("dt", MAX_DT), ("noise_sigma", MAX_NOISE_SIGMA), ("contact_force", MAX_CONTACT_FORCE),
    ])
    def test_upper_bound_holds_when_constructed_directly(self, field, bound):
        assert getattr(WorkcellConfig(**{field: bound}), field) == bound
        with pytest.raises(WorkcellConfigError) as info:
            WorkcellConfig(**{field: math.nextafter(bound, math.inf)})
        assert str(info.value) == f"{field} must be at most {bound}"

    def test_speed_bound_holds_when_constructed_directly(self):
        speeds = dict(zip(SpeedLevel, (MAX_SPEED, 0.25, 0.1, 0.05, 0.01)))
        WorkcellConfig(speed_map=speeds)
        speeds[SpeedLevel.VERY_FAST] = math.nextafter(MAX_SPEED, math.inf)
        with pytest.raises(WorkcellConfigError) as info:
            WorkcellConfig(speed_map=speeds)
        assert str(info.value) == f"speed values must be at most {MAX_SPEED}"

    def test_filter_stays_finite_at_the_bounds(self):
        cell = Workcell(WorkcellConfig(contact_force=MAX_CONTACT_FORCE,
                                       noise_sigma=MAX_NOISE_SIGMA,
                                       filter_window=MAX_FILTER_WINDOW))
        cell.state.in_contact = True
        rng = random.Random(0)
        for _ in range(MAX_FILTER_WINDOW + 10):
            raw, filtered = cell.read_force(rng)
            assert abs(raw) < 1e7 and abs(filtered) < 1e7

    @pytest.mark.parametrize("dt", [5e-324, 1e-322])
    def test_dt_that_cannot_move_the_tool_is_rejected(self, dt):
        # At 1e-322 only very_slow (0.01 m/s) rounds to no motion at all.
        with pytest.raises(WorkcellConfigError, match="dt is too small"):
            WorkcellConfig(dt=dt)
        WorkcellConfig(dt=1e-320)

    def test_obstacle_checks_itself_when_built(self):
        with pytest.raises(WorkcellConfigError, match="strictly below"):
            Obstacle((0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
        with pytest.raises(WorkcellConfigError, match="within the obstacle face"):
            Obstacle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), Hole(HoleAxis.X, (0.5, 0.5), (0.6, 0.1)))

    def test_speed_map_is_read_only(self):
        c = WorkcellConfig(noise_sigma=0.0)
        with pytest.raises(TypeError):
            c.speed_map[SpeedLevel.NORMAL] = -0.1
        bad = dict(c.speed_map)
        bad[SpeedLevel.NORMAL] = -0.1
        with pytest.raises(WorkcellConfigError, match="speed values must be positive"):
            c.replace(speed_map=bad)
        assert c.speed_map[SpeedLevel.NORMAL] == 0.1
        assert c == WorkcellConfig(noise_sigma=0.0) == c.replace()
        assert c == WorkcellConfig(noise_sigma=0.0, speed_map=dict(c.speed_map))


# ---------------------------------------------------------------------------
# Broad phase: `Workcell._first_hit` against the exact test of every obstacle


def reference_first_hit(self, origin, unit_dir, length):
    """`Workcell._first_hit` with no broad phase: the nearest hit of all."""
    hits = [_segment_hit(origin, unit_dir, length, obs) for obs in self.config.obstacles]
    return min([h for h in hits if h is not None], default=None)


@st.composite
def coordinate_pools(draw):
    """A few shared coordinates at one scale, up to 1e300, so that faces,
    hole edges and segment ends often coincide."""
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6, 1e300]))
    return [scale * p for p in draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6))]


def _near(rng, value):
    """`value`, or a few ulps off it, so that a point grazes a face."""
    for _ in range(rng.choice((0, 0, 1, 2))):
        value = math.nextafter(value, rng.choice((-math.inf, math.inf)))
    return value


def random_obstacles(rng, pools, count):
    """`count` boxes with their x, y and z coordinates from `pools`, each with
    no hole or a hole along x, y or z, whose sides may touch the box's edges."""
    obstacles = []
    for _ in range(count):
        corners = [sorted((rng.choice(pool), rng.choice(pool))) for pool in pools]
        lo = tuple(c[0] for c in corners)
        hi = tuple(b if a < b else math.nextafter(a, math.inf) for a, b in corners)
        axis = rng.choice([None, *HoleAxis])
        hole = None
        if axis is not None:
            center, half = [], []
            for k in _CROSS_AXES[axis]:  # halves first: hi - lo can overflow at 1e300
                f0, f1 = sorted(rng.choice((0.0, 1.0, rng.random())) for _ in range(2))
                a = lo[k] + (hi[k] / 2 - lo[k] / 2) * 2 * f0
                b = lo[k] + (hi[k] / 2 - lo[k] / 2) * 2 * f1
                center.append(a / 2 + b / 2)
                half.append(b / 2 - a / 2)
            hole = Hole(axis, tuple(center), tuple(half))
        try:
            obstacles.append(Obstacle(lo, hi, hole))
        except WorkcellConfigError:  # a zero-width hole, or rounding put it off the face
            obstacles.append(Obstacle(lo, hi))
    return tuple(obstacles)


def _aimed(origin, target, stretch):
    """The segment from `origin` toward `target`, `stretch` times as long."""
    dist = math.dist(origin, target)
    if not 0.0 < dist < math.inf:
        return origin, (1.0, 0.0, 0.0), stretch
    return origin, tuple((t - o) / dist for t, o in zip(target, origin)), dist * stretch


def random_segment(rng, pool, obstacles):
    """(origin, unit direction, length): from pool points and box centres,
    along an axis, nearly along one, diagonal or at random, of zero, tiny,
    per-cycle, 1 m or huge length; or aimed at a pool point, or from outside
    a box at a point on one of its faces, ending on or near it."""
    box = rng.choice(obstacles)
    inside = [lo / 2 + hi / 2 for lo, hi in zip(box.box_min, box.box_max)]
    origin = tuple(_near(rng, rng.choice(pool + [inside[k]])) for k in range(3))
    length = rng.choice((0.0, 5e-324, 1e-9, 0.002, 0.5, 1.0, 1.5, 1e300, 2 * rng.random()))
    stretch = rng.choice((1.0, 1.0, 1.0 - 1e-15, 1.0 + 1e-15, 0.5, 2.0))
    kind = rng.choice(("axis", "near_axis", "diagonal", "random", "aimed", "face", "face"))
    if kind == "aimed":
        return _aimed(origin, tuple(_near(rng, rng.choice(pool)) for _ in range(3)), stretch)
    if kind == "face":
        axis, side = rng.randrange(3), rng.choice((0, 1))
        lo, hi = box.box_min, box.box_max
        point = [lo[k] + (hi[k] / 2 - lo[k] / 2) * 2 * rng.choice((0.0, 0.5, 1.0, rng.random()))
                 for k in range(3)]
        point[axis] = (lo, hi)[side][axis]
        start = [p + (hi[k] / 2 - lo[k] / 2) * rng.uniform(-4.0, 4.0) for k, p in enumerate(point)]
        start[axis] = point[axis] + (2 * side - 1) * abs(rng.choice(pool) - point[axis]) \
            * rng.choice((1e-12, 1.0, rng.random()))
        return _aimed(tuple(start), tuple(point), stretch)
    if kind == "axis":
        axis, sign = rng.randrange(3), rng.choice((-1.0, 1.0))
        return origin, tuple(sign if k == axis else 0.0 for k in range(3)), length
    if kind == "near_axis":
        return origin, (rng.choice((-1.0, 1.0)), 1e-16, -5e-16), length
    if kind == "diagonal":
        raw = [rng.choice((-1.0, 0.0, 1.0)) for _ in range(2)] + [1.0]
    else:
        raw = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in raw))
    return origin, tuple(c / norm for c in raw), length


@st.composite
def obstacle_lists(draw, pools, max_size=20):
    """Strategy: `random_obstacles` of 1-`max_size` boxes."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_obstacles(rng, pools, draw(st.integers(1, max_size)))


class TestBroadPhase:
    @given(st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_first_hit_equals_the_exact_test_of_every_obstacle(self, data, seed):
        pool = data.draw(coordinate_pools())
        obstacles = data.draw(obstacle_lists([pool] * 3))
        cell = make_cell(obstacles=obstacles)
        rng = random.Random(seed)
        for _ in range(20):
            origin, unit_dir, length = random_segment(rng, pool, obstacles)
            assert cell._first_hit(origin, unit_dir, length) == \
                reference_first_hit(cell, origin, unit_dir, length), (origin, unit_dir, length)

    #: Steps whose far end, as `_first_hit` rounds it, falls short of a box
    #: the exact test enters: a 0.25 m step, and a 2e300 m step at 1e300.
    SHORT_ENDS = [
        (WALL, (-0.016, 0.285, 0.0), (0.669856024139719, -0.7424910147090861, 0.0),
         0.24781444671366515),
        (Obstacle((-7.508706973136405e+299, 5.917142373428151e+299, -7.508706973136405e+299),
                  (9.529747764121172e+299,) * 3),
         (-7.508706973136405e+299, -7.508706973136405e+299, 4.216435220119861e+299),
         (0.7629037370211684, 0.6011478621227311, 0.23790572902812956), 2.2333688918323923e+300),
    ]

    @pytest.mark.parametrize("obstacle, origin, unit_dir, length", SHORT_ENDS)
    def test_a_far_end_rounded_short_of_the_box_still_hits(self, obstacle, origin, unit_dir,
                                                           length):
        end = [o + u * length for o, u in zip(origin, unit_dir)]
        assert any(max(o, e) < lo or min(o, e) > hi for o, e, lo, hi
                   in zip(origin, end, obstacle.box_min, obstacle.box_max))
        cell = make_cell(obstacles=(obstacle,))
        hit = reference_first_hit(cell, origin, unit_dir, length)
        assert hit is not None and cell._first_hit(origin, unit_dir, length) == hit

    @pytest.mark.parametrize("origin, unit_dir, length", [
        ((0.0, 0.0, 0.0), (math.nan, 0.0, 0.0), 0.002),  # the exact test: contact at 0
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), math.nan),
        ((math.inf, 0.0, 0.0), (-1.0, 0.0, 0.0), 0.002),
        ((math.nan, 0.6, 0.0), (1.0, 0.0, 0.0), 0.002),
        ((0.2, 0.0, 0.0), (1.0, 0.0, 0.0), 1e300),
        ((0.15 - 0.002, 0.5, 0.0), (1.0, 0.0, 0.0), 0.002),  # ends on the face, on its edge
        ((0.15, 0.5 + 1e-12, 0.0), (1.0, 1e-16, 0.0), 0.002),  # parallel, just outside
        ((0.2, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0),  # zero length inside the box
        ((1e300, 0.5, 0.5), (-1.0, 0.0, 0.0), 1e-3),  # on a face at 1e300
    ])
    def test_edge_segments_keep_the_exact_answer(self, origin, unit_dir, length):
        cell = make_cell(obstacles=(WALL, Obstacle((1e300, 0.0, 0.0), (2e300, 1.0, 1.0))))
        assert cell._first_hit(origin, unit_dir, length) == \
            reference_first_hit(cell, origin, unit_dir, length)

    def test_bounds_and_aperture_stay_out_of_the_fields(self):
        assert WALL_WITH_HOLE.bounds == (0.15 - 1e-9, -0.5 - 1e-9, -0.5 - 1e-9,
                                         0.25 + 1e-9, 0.5 + 1e-9, 0.5 + 1e-9)
        assert WALL_WITH_HOLE.aperture == ((1, -0.02, 0.02), (2, -0.02, 0.02))
        assert WALL.aperture == ()
        assert "bounds" not in repr(WALL_WITH_HOLE) and "aperture" not in repr(WALL_WITH_HOLE)
        assert WALL_WITH_HOLE.replace().bounds == WALL_WITH_HOLE.bounds
        assert WALL_WITH_HOLE.replace().aperture == WALL_WITH_HOLE.aperture

    def test_the_hull_spans_the_bounds_and_stays_out_of_the_fields(self):
        side = Obstacle((-1.0, 0.5, -2.0), (1.0, 0.6, 0.25))
        config = WorkcellConfig(obstacles=(WALL, side))
        assert config.hull == (-1.0 - 1e-9, -0.5 - 1e-9, -2.0 - 1e-9,
                               1.0 + 1e-9, 0.6 + 1e-9, 0.5 + 1e-9)
        assert config.replace(obstacles=(WALL,)).hull == WALL.bounds
        assert WorkcellConfig().hull is None and "hull" not in repr(config)
        assert config == config.replace() and "hull" not in WorkcellConfig._fields

    def test_a_wall_far_to_the_side_is_never_tested(self, monkeypatch):
        calls = []
        monkeypatch.setattr(workcell_module, "_segment_hit",
                            lambda *args: calls.append(args) or _segment_hit(*args))
        cell = make_cell(obstacles=(Obstacle((-1.0, 0.5, -1.0), (1.0, 0.6, 1.0)),))
        for _ in range(100):
            assert cell.step_motion((0.3, 0.0, 0.0, 0.0, 0.0, 0.0), speed=0.25)[0] is False
        assert cell.state.joints[0] == pytest.approx(0.2) and calls == []


# ---------------------------------------------------------------------------
# Generated workcells: whole runs with and without the broad phase

EXAMPLES = importlib.resources.files("adsl") / "examples"
STATS = parse_program((EXAMPLES / "stats_insert.adsl").read_text(encoding="utf-8"))
PEG = parse_program((EXAMPLES / "peg_in_hole.adsl").read_text(encoding="utf-8"))
#: name -> (program, home joints, centre and half-sizes of the box its moves cross)
PATHS = {
    "stats": (STATS, (0.0, 0.0, 0.1, 0.0, 0.0, 0.0), (0.04, 0.0, 0.1), (0.06, 0.02, 0.02)),
    "peg": (PEG, (3.425, -1.0, 0.5, 0.0, 0.0, 0.0), (3.55, -1.0, 0.3), (0.2, 0.1, 0.1)),
}


@st.composite
def generated_cells(draw):
    """(program, config): a shipped program among 1-4 boxes, each side of its
    path alike, with random holes, at a fine or a coarse control cycle."""
    program, home, centre, half = PATHS[draw(st.sampled_from(sorted(PATHS)))]
    fractions = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5)
    pools = [[c + h * sign * f for f in draw(fractions) for sign in (1.0, -1.0)]
             for c, h in zip(centre, half)]
    config = WorkcellConfig(home_joints=home, obstacles=draw(obstacle_lists(pools, 4)),
                            dt=draw(st.sampled_from([0.008, 0.04])))
    return program, config


def _trace(program, config, seed):
    controller = Controller(program, config, seed=seed)
    controller.run()
    return controller.trace.serialize()


# Each example is two whole runs, so shrinking a failure would take minutes;
# the failing example is reported as found.
@given(generated_cells(), st.integers(0, 1000))
@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_generated_cells_trace_as_without_the_broad_phase(cell, seed):
    program, config = cell
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller_module, "MAX_CONTROL_CYCLES", 2000)
        trace = _trace(program, config, seed)
        mp.setattr(Workcell, "_first_hit", reference_first_hit)
        assert _trace(program, config, seed) == trace


def test_the_stats_wall_is_tested_only_near_it(monkeypatch):
    """The guarded insertion into `stats.json`'s wall makes contact on the same
    cycles as before (the trace digest), and only steps that reach the
    widened wall run the exact test."""
    calls = []

    def counting(origin, unit_dir, length, obs):
        calls.append((origin, length))
        return _segment_hit(origin, unit_dir, length, obs)

    monkeypatch.setattr(workcell_module, "_segment_hit", counting)
    config = load_workcell_config(str(EXAMPLES / "stats.json"))
    trace = _trace(STATS, config, 0)
    assert hashlib.sha256(trace.encode()).hexdigest() == \
        "4f987ff1a5529825050af8b6301ac5f3b31532c921bc968ed5026736f139fa1f"
    wall = config.obstacles[0]
    cycles = trace.count('"kind":"motion_sample"')
    assert 0 < len(calls) < cycles / 5
    for origin, length in calls:
        gap = max(max(lo - o, o - hi) for o, lo, hi in zip(origin, wall.box_min, wall.box_max))
        assert gap <= length + 1e-9


# ---------------------------------------------------------------------------
# Config bounds: a cell at its bounds writes only numbers JSON can read


def _reject_constant(name):
    raise ValueError(f"non-finite number in a trace line: {name}")


@pytest.mark.parametrize("name", ["aligned.json", "blocked.json", "free_space.json", "stats.json"])
def test_cells_at_the_bounds_write_only_finite_numbers(name):
    """Every shipped program, run and then fully reversed, on a shipped cell
    whose `dt`, `noise_sigma`, `contact_force` and speeds are each at their
    bound or as shipped: every trace line parses under strict JSON."""
    raw = json.loads((EXAMPLES / name).read_text(encoding="utf-8"))
    programs = [parse_program(p.read_text(encoding="utf-8"))
                for p in sorted(EXAMPLES.iterdir(), key=lambda p: p.name)
                if p.name.endswith(".adsl")]
    rng = random.Random(name)
    bounds = {"dt": MAX_DT, "noise_sigma": MAX_NOISE_SIGMA, "contact_force": MAX_CONTACT_FORCE,
              "speed_map": {level.value: MAX_SPEED * share
                            for level, share in zip(SpeedLevel, (1.0, 0.5, 0.2, 0.1, 0.02))}}
    for _ in range(4):
        cell = dict(raw, **{k: v for k, v in bounds.items() if rng.random() < 0.5})
        config = workcell_config_from_dict(cell)
        for program in programs:
            controller = Controller(program, config, seed=rng.randrange(1000))
            if controller.run().completed:
                try:
                    reverse_execute(controller.trace, None, controller.ctx,
                                    registry=controller.registry)
                except RunAborted:
                    pass
            for line in controller.trace.serialize().splitlines():
                json.loads(line, parse_constant=_reject_constant)
