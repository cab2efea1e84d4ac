import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from adsl.model import Direction, Frame, SpeedLevel
from adsl.workcell import (
    BitOutOfRange,
    Hole,
    HoleAxis,
    Obstacle,
    Pose,
    Workcell,
    WorkcellConfig,
    TranslationEulerModel,
    WorkcellConfigError,
    load_workcell_config,
    workcell_config_from_dict,
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


class TestKinematics:
    model = TranslationEulerModel()

    def test_fk_identity(self):
        pose = self.model.fk((0.0,) * 6)
        assert pose.position == (0.0, 0.0, 0.0)
        assert pose.orientation == (0.0, 0.0, 0.0)

    def test_fk_coordinate_mapping(self):
        pose = self.model.fk((0.1, 0.2, 0.3, 0.0, 0.0, 0.0))
        assert pose.position == (0.1, 0.2, 0.3)

    def test_ik_inverts_fk_exactly(self):
        rng = random.Random(7)
        for _ in range(1000):
            joints = tuple(rng.uniform(-3, 3) for _ in range(6))
            assert self.model.ik(self.model.fk(joints)) == joints

    def test_fk_of_ik(self):
        pose = Pose((1.0, -2.0, 0.5), (0.1, 0.2, 0.3))
        assert self.model.fk(self.model.ik(pose)) == pose


class TestStepMotion:
    def test_free_space_step(self):
        cell = make_cell()
        target = Pose((0.30, 0.0, 0.0))
        contact, advanced = cell.step_motion(target, speed=0.05)
        assert not contact
        assert advanced == pytest.approx(0.0004, abs=1e-15)
        assert cell.state.clock == pytest.approx(0.008)

    def test_wall_halts_at_face(self):
        # Wall face 0.15 m ahead; hand-computed entry: segment param where
        # x reaches 0.15, so the total advance over repeated steps is 0.15.
        cell = make_cell(obstacles=(WALL,))
        target = Pose((0.40, 0.0, 0.0))
        total = 0.0
        contact = False
        for _ in range(10000):
            contact, advanced = cell.step_motion(target, speed=0.05)
            total += advanced
            if contact and advanced <= 1e-15:
                break
        assert contact
        assert total == pytest.approx(0.15, abs=1e-9)
        assert cell.tcp_pose().position[0] <= 0.15 + 1e-9

    def test_hole_lets_the_ray_through(self):
        # Ray along +x through the aperture center: hand-computed membership
        # |y|<=0.02, |z|<=0.02 holds the whole transit, so no contact.
        cell = make_cell(obstacles=(WALL_WITH_HOLE,))
        target = Pose((0.40, 0.0, 0.0))
        total = 0.0
        for _ in range(10000):
            contact, advanced = cell.step_motion(target, speed=0.5)
            assert not contact
            total += advanced
            if total >= 0.40 - 1e-12:
                break
        assert cell.tcp_pose().position[0] == pytest.approx(0.40)

    def test_offset_ray_hits_wall_next_to_hole(self):
        cell = make_cell(home_joints=(0.0, 0.05, 0.0, 0.0, 0.0, 0.0),
                         obstacles=(WALL_WITH_HOLE,))
        target = Pose((0.40, 0.05, 0.0))
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
        target = Pose((0.30, 0.03, 0.0))
        contact = False
        for _ in range(10000):
            contact, advanced = cell.step_motion(target, speed=0.5)
            if contact and advanced <= 1e-15:
                break
        assert contact
        pos = cell.tcp_pose().position
        assert pos[0] == pytest.approx(0.20, abs=1e-9)
        assert pos[1] == pytest.approx(0.02, abs=1e-9)
        # It stops inside the hole prism (y and z within the hole's
        # half-extents), not in the solid.
        hole = WALL_WITH_HOLE.hole
        assert all(abs(p - c) <= h for p, c, h in zip(pos[1:], hole.center, hole.half_extents))

    def test_non_penetration_invariant(self):
        rng = random.Random(99)
        cell = make_cell(obstacles=(WALL_WITH_HOLE,))
        for _ in range(300):
            target = Pose((rng.uniform(-0.3, 0.5), rng.uniform(-0.3, 0.3),
                           rng.uniform(-0.3, 0.3)))
            for _ in range(40):
                cell.step_motion(target, speed=0.5)
                assert _signed_outside(cell.tcp_pose().position, WALL_WITH_HOLE)

    def test_clock_monotone(self):
        cell = make_cell(obstacles=(WALL,))
        last = cell.state.clock
        target = Pose((1.0, 0.0, 0.0))
        for _ in range(50):
            cell.step_motion(target, speed=0.5)
            assert cell.state.clock >= last
            last = cell.state.clock

    def test_orientation_only_motion_snaps(self):
        cell = make_cell()
        target = Pose((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        contact, advanced = cell.step_motion(target, speed=0.1)
        assert advanced == 0.0
        assert cell.tcp_pose().orientation == (0.0, 0.0, 1.0)


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


class TestForceSensing:
    def test_zero_noise_free_space(self):
        cell = make_cell()
        rng = random.Random(0)
        for _ in range(5):
            reading = cell.read_force(rng)
        assert reading.raw == 0.0
        assert reading.filtered == 0.0

    def test_running_average_mixes_contact(self):
        cell = make_cell(contact_force=50.0)
        rng = random.Random(0)
        for _ in range(2):
            cell.read_force(rng)
        cell.state.in_contact = True
        for _ in range(3):
            reading = cell.read_force(rng)
        # History ring is [0, 0, 50, 50, 50].
        assert reading.filtered == pytest.approx(30.0)

    def test_filter_window_exact_mean(self):
        cell = make_cell(filter_window=5)
        rng = random.Random(3)
        raws = []
        for k in range(1, 40):
            cell.state.in_contact = rng.random() < 0.3
            reading = cell.read_force(rng)
            raws.append(reading.raw)
            assert reading.filtered == sum(raws[-5:]) / len(raws[-5:])

    def test_seeded_noise_statistics(self):
        # Sample mean of 1000 free-space raws stays within 3 sigma/sqrt(n).
        cell = make_cell(noise_sigma=0.5)
        rng = random.Random(1234)
        raws = [cell.read_force(rng).raw for _ in range(1000)]
        assert abs(sum(raws) / len(raws)) < 3 * 0.5 / math.sqrt(1000)

    def test_determinism_bit_identical(self):
        def trajectory(seed):
            cell = make_cell(noise_sigma=0.5, obstacles=(WALL,))
            rng = random.Random(seed)
            out = []
            target = Pose((0.4, 0.0, 0.0))
            for _ in range(200):
                cell.step_motion(target, speed=0.5)
                r = cell.read_force(rng)
                out.append((cell.state.joints, r.raw, r.filtered, cell.state.clock))
            return out

        assert trajectory(42) == trajectory(42)
        assert trajectory(42) != trajectory(43)


class TestIo:
    def test_set_and_idempotence(self):
        cell = make_cell()
        cell.set_io(0, True)
        first = cell.state.bits()
        cell.set_io(0, True)
        assert cell.state.bits() == first
        assert cell.state.io_bits[0] is True
        assert all(not b for b in cell.state.io_bits[1:])

    def test_bit_out_of_range(self):
        cell = make_cell(bit_count=8)
        with pytest.raises(BitOutOfRange):
            cell.set_io(8, True)
        with pytest.raises(BitOutOfRange):
            cell.set_io(-1, False)


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
        tool = Pose((0, 0, 0), (0.0, 0.0, math.pi / 2))
        cell = Workcell(
            WorkcellConfig(
                home_joints=(0, 0, 0, 0.0, 0.0, math.pi / 2),
                tool_transform=tool,
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
        ({"home_joints": 5}, "home_joints must be a list of dof numbers"),
        ({"home_joints": [math.nan, 0, 0, 0, 0, 0]}, "home_joints must be finite"),
        ({"dof": "6"}, "dof must be an integer"),
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
        ({"tool_transform": {"position": [1, 2]}}, "pose position must be a list of 3 numbers"),
        ({"tool_transform": {"orientation": [0, math.inf, 0]}}, "tool_transform must be finite"),
        ({"obstacles": [{"box": BOX, "hole": {"axis": "z", "center": [math.nan, 0.5],
                                               "half_extents": [0.1, 0.1]}}]},
         "hole must lie within the obstacle face"),
    ])
    def test_mistyped_fields_rejected(self, raw, message):
        with pytest.raises(WorkcellConfigError) as info:
            workcell_config_from_dict(raw)
        assert str(info.value) == message

    def test_non_finite_home_joints_rejected_when_constructed_directly(self):
        with pytest.raises(WorkcellConfigError, match="home_joints must be finite"):
            make_cell(home_joints=(math.nan, 0.0, 0.1, 0.0, 0.0, 0.0))

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
            assert dataclasses.replace(cfg) == cfg  # rebuilding runs the checks again

    def test_config_checks_itself_when_built(self):
        with pytest.raises(WorkcellConfigError, match="dt must be positive"):
            WorkcellConfig(dt=0.0)

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
            dataclasses.replace(c, speed_map=bad)
        assert c.speed_map[SpeedLevel.NORMAL] == 0.1
        assert c == WorkcellConfig(noise_sigma=0.0) == dataclasses.replace(c)
        assert c == WorkcellConfig(noise_sigma=0.0, speed_map=dict(c.speed_map))

    def test_pluggable_model_dof_mismatch(self):
        class TwoAxis:
            dof = 2

            def fk(self, joints):
                return Pose((joints[0], joints[1], 0.0))

            def ik(self, pose):
                return pose.position[:2]

        with pytest.raises(WorkcellConfigError):
            Workcell(WorkcellConfig(), model=TwoAxis())
