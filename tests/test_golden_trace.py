"""Golden traces for leaf execution in every role it plays, and for motion.

One program runs each leaf kind forward, carries each primitive kind as a
`@reverse_with` payload, and recovers by progressive reversal from an error
signaled by a registered action. The sha256 of the serialized trace pins the
bytes: forward runs, payloads, and undo steps must keep executing exactly as
these digests record.

The motion cases pin the control cycle's edge cases the same way: signed
zeros in orientations, rotation-only moves, a last step that lands exactly
on the target, contact at distance 0, a blocked unguarded move, and a
custom kinematic model whose `fk(ik(p))` is not exactly `p`.
"""

import hashlib
import importlib.resources

import pytest

from adsl.cli import EXIT_ABORTED, main
from adsl.controller import Controller, ControllerOptions, default_registry
from adsl.reverse import PolicyMode, ResumePolicy, StopReason, reverse_execute
from adsl.trace import EventKind
from adsl.workcell import Pose, Workcell

from _helpers import build, of_kind, quiet_config


GOLDEN_PROGRAM = """
io_operation "on" { set_high; bit 1; sleep 0.01; }
io_operation "off" { set_low; bit 1; }
io_operation "mark" { set_high; bit 2; }
joint_configuration a = { 0.02, 0.0, 0.1, 0.0, 0.0, 0.0 };
joint_configuration b = { 0.02, 0.02, 0.11, 0.0, 0.0, 0.0 };
error "glitch" { }
advanced_move "probe" {
  specification { distance 0.01 direction forward frame tcp; speed slow; }
  evaluation { distance_covered(more_than, 0.005); }
  on_fail { return_to_initial_position; }
}
sequence "inner" { wait 0.01; call "noop" (); }
sequence "main" {
  io "on";
  move to a;
  wait 0.02;
  call "noop" ();
  adv_move "probe";
  seq "inner";
  @reverse_with(move to a) move to b;
  @reverse_with(io "off") io "mark";
  @reverse_with(wait 0.03) wait 0.01;
  @reverse_with(call "noop" ()) call "flaky" ();
  wait 0.01;
}
entry "main";
"""

#: sha256 of the trace of a forward run followed by a full reversal.
GOLDEN_DIGESTS = {
    PolicyMode.LINEAR: "548b1efd7978b630d3d80655559f0b4edf714275be4708f04d71b2d048b14729",
    PolicyMode.EXPONENTIAL: "6a3ded1edb83e4311f51428f869bb25148f95a6471067c23b63822072757f533",
}


def golden_run(mode):
    """Forward run (the action fails four times), then full reversal."""
    registry = default_registry()
    runs = {"n": 0}

    def flaky(ctx, items):
        runs["n"] += 1
        if runs["n"] <= 4:
            ctx.signal_error("glitch")

    registry.register("flaky", flaky)
    options = ControllerOptions(resume_policy=ResumePolicy(mode=mode))
    controller = Controller(
        build(GOLDEN_PROGRAM), quiet_config(), seed=0, options=options, registry=registry
    )
    result = controller.run()
    plan = reverse_execute(
        controller.trace, None, controller.ctx, registry=controller.registry
    )
    return controller, result, plan


@pytest.mark.parametrize("mode", list(PolicyMode))
def test_golden_trace_digest(mode):
    controller, result, plan = golden_run(mode)
    assert result.completed, result.reason
    assert result.stats.errors == 4
    assert plan.stop_reason is StopReason.TRACE_START
    depths = [e.data["depth"] for e in of_kind(controller.trace, EventKind.REVERSE_BEGIN)]
    expected = [1, 2, 3, 4] if mode is PolicyMode.LINEAR else [1, 2, 4, 8]
    assert depths == expected + ["full"]
    digest = hashlib.sha256(controller.trace.serialize().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DIGESTS[mode]


def test_unregistered_reverse_with_payload_aborts_reversal(capsys, tmp_path):
    prog = tmp_path / "nope.adsl"
    prog.write_text('sequence "s" { @reverse_with(call "nope"()) wait 0.2; }\nentry "s";')
    workcell = importlib.resources.files("adsl") / "examples" / "free_space.json"
    code = main(["reverse", str(prog), "--workcell", str(workcell)])
    err = capsys.readouterr().err
    assert code == EXIT_ABORTED
    assert "reversal failed: unregistered action 'nope'" in err


# ---------------------------------------------------------------------------
# Motion: the control cycle's edge cases

NEG_ZERO = """
joint_configuration a = { 0.01, 0.0, 0.1, -0.0, 0.0, -0.0 };
joint_configuration b = { 0.01, -0.01, 0.1, 0.0, -0.0, 0.0 };
sequence "main" { move to a; move to b; move to a; }
entry "main";
"""

ROTATION_ONLY = """
joint_configuration turned = { 0.0, 0.0, 0.1, 0.0, 0.0, 0.5 };
joint_configuration tilted = { 0.0, 0.0, 0.1, 0.1, -0.2, 0.5 };
joint_configuration away = { 0.003, 0.0, 0.1, 0.1, -0.2, 0.5 };
sequence "main" { move to turned; move to tilted; move to away; move to tilted; }
entry "main";
"""

# Steps of 2**-10 m (speed 0.125 m/s, dt 2**-7 s) from z = 0.125: `up` is
# exactly four steps away, so the last step covers exactly the remaining
# distance; `side` is a diagonal whose steps round.
EXACT_LANDING = """
joint_configuration up = { 0.0, 0.0, 0.12890625, 0.0, 0.0, 0.0 };
joint_configuration side = { 0.0025, 0.001, 0.12890625, 0.0, 0.0, 0.25 };
sequence "main" { move to up; move to side; move to up; }
entry "main";
"""

# The TCP starts on the back face of one wall and pushes back into it, then
# moves to the front face of another and pushes forward: each guarded move
# touches at distance 0 (the first at -0.0 along the ray) and the force
# guard stops it.
CONTACT_AT_ZERO = """
joint_configuration on_front = { 0.05, 0.0, 0.1, 0.0, 0.0, 0.0 };
advanced_move "back" {
  specification {
    distance 0.01 direction backwards frame base;
    stop_if forces_exceed(10);
    speed slow;
  }
  evaluation { forces_exceed(10); }
  on_success { return_to_initial_position; }
  on_fail { return_to_initial_position; }
}
advanced_move "push" {
  specification {
    distance 0.01 direction forward frame base;
    stop_if forces_exceed(10);
    speed slow;
  }
  evaluation { forces_exceed(10); }
  on_success { return_to_initial_position; }
  on_fail { return_to_initial_position; }
}
sequence "main" { adv_move "back"; move to on_front; adv_move "push"; }
entry "main";
"""

BLOCKED = """
joint_configuration through = { 0.1, 0.0, 0.1, 0.0, 0.0, 0.2 };
sequence "main" { wait 0.01; move to through; }
entry "main";
"""

WALL = {"box": {"min": [0.05, -0.5, -0.5], "max": [0.08, 0.5, 0.5]}}
BACK_WALL = {"box": {"min": [-0.03, -0.5, -0.5], "max": [0.0, 0.5, 0.5]}}


class ScaledModel:
    """A 6-dof model whose position joints are positions in decimetres."""

    dof = 6

    def fk(self, joints):
        j = tuple(map(float, joints))
        return Pose((j[0] * 0.1, j[1] * 0.1, j[2] * 0.1), j[3:6])

    def ik(self, pose):
        x, y, z = pose.position
        return (x / 0.1, y / 0.1, z / 0.1) + pose.orientation


SCALED = """
joint_configuration a = { 0.3, -0.2, 1.1, 0.0, 0.1, 0.0 };
joint_configuration b = { 0.7, 0.1, 1.3, 0.2, 0.1, -0.3 };
sequence "main" { move to a; move to b; }
entry "main";
"""

#: name -> (program, config overrides, model, run completes, sha256 of the
#: trace of the forward run followed, when it completes, by a full reversal).
MOTION_CASES = {
    "negative_zero": (
        NEG_ZERO, {"home_joints": [0.0, 0.0, 0.1, -0.0, 0.0, -0.0]}, None, True,
        "e291097c83097742c7790cfd84f4c3f62d37ae6977dd2cfcb2c15d481658eb2e",
    ),
    "rotation_only": (
        ROTATION_ONLY, {}, None, True,
        "10b09889ced94a2a07253dd9efde3aff18e958c55f8c34ea4dba3ae2d1ea8042",
    ),
    "exact_landing": (
        EXACT_LANDING,
        {
            "home_joints": [0.0, 0.0, 0.125, 0.0, 0.0, 0.0],
            "dt": 0.0078125,
            "speed_map": {"very_fast": 0.5, "fast": 0.25, "normal": 0.125,
                          "slow": 0.05, "very_slow": 0.01},
        },
        None, True,
        "71d95f48577e8909a179a71863115947d740e04cb322f1fa12007c42a5a22374",
    ),
    "contact_at_zero": (
        CONTACT_AT_ZERO,
        {"obstacles": [WALL, BACK_WALL]},
        None, True,
        "02cdecffe5e75f4ae9f428a01c824df20eb9c9b147e9d70709478b02d8d97408",
    ),
    "blocked": (
        BLOCKED, {"obstacles": [WALL]}, None, False,
        "dd8723aa19dce320ec645ce91662cb42551734805a3a5f9279df40888774a438",
    ),
    "scaled_model": (
        SCALED, {"home_joints": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]}, ScaledModel(), True,
        "641a45a405ecf945b6d57ba10bc49f7eb14834166c86a3a959584cc5c01a5b32",
    ),
}


def motion_run(name):
    text, overrides, model, _, _ = MOTION_CASES[name]
    controller = Controller(build(text), quiet_config(**overrides), seed=0, model=model)
    result = controller.run()
    if result.completed:
        reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
    return controller, result


@pytest.mark.parametrize("name", list(MOTION_CASES))
def test_motion_golden_trace_digest(name):
    controller, result = motion_run(name)
    assert result.completed is MOTION_CASES[name][3], result.reason
    if not result.completed:
        assert result.reason.startswith("collision during move: blocked at")
    digest = hashlib.sha256(controller.trace.serialize().encode("utf-8")).hexdigest()
    assert digest == MOTION_CASES[name][4]


@pytest.mark.parametrize("name", list(MOTION_CASES))
def test_one_step_motion_call_per_motion_sample(name, monkeypatch):
    original = Workcell.step_motion
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Workcell, "step_motion", counting)
    controller, _ = motion_run(name)
    samples = of_kind(controller.trace, EventKind.MOTION_SAMPLE)
    assert samples and len(calls) == len(samples)
