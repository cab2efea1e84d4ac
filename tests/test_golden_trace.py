"""Golden traces for leaf execution in every role it plays, and for motion.

One program runs each leaf kind forward, carries each primitive kind as a
`@reverse_with` payload, and recovers by progressive reversal from an error
signaled by a registered action. The sha256 of the serialized trace pins the
bytes: forward runs, payloads, and undo steps must keep executing exactly as
these digests record.

The motion cases pin the control cycle's edge cases the same way: signed
zeros in orientations, rotation-only moves, a last step that lands exactly
on the target, contact at distance 0 and a blocked unguarded move. Every
shipped example on every shipped config, and generated programs that touch
a wall and retry, are pinned by digest as well: run forward and then fully
reversed. Goals on a wall's face are reached; goals inside it, by 1e-17 m or
a few ulps, are blocked at the face, and a move off a hole channel's wall
leaves it. No run calls `Workcell.step_motion`: the one move loop steps on
local variables, and must write the bytes that the step_motion twin
(`_helpers`), one `step_motion` call a cycle, writes. A
free cell, which tests no step against an obstacle, must write the bytes of
the same cell plus an obstacle out of reach.
"""

import hashlib
import importlib.resources
import json
import math
import random

import pytest

from adsl.cli import EXIT_ABORTED, main
from adsl.controller import Controller, ControllerOptions, ExecutionContext, default_registry
from adsl.parser import parse_program
from adsl.reverse import PolicyMode, ResumePolicy, RunAborted, StopReason, reverse_execute
from adsl.trace import EventKind, ExecutionTrace
from adsl.workcell import (
    MAX_DT, MAX_SPEED, Hole, HoleAxis, Obstacle, Workcell, WorkcellConfig, _padded_hull,
    _segment_hit, load_workcell_config,
)

from _helpers import (
    bench_generator, build, of_kind, quiet_config, random_reversible_program,
    run_forward_and_reversed, step_motion_move, step_motion_twin, with_far_obstacle,
)


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


#: name -> (program, config overrides, run completes, sha256 of the
#: trace of the forward run followed, when it completes, by a full reversal).
MOTION_CASES = {
    "negative_zero": (
        NEG_ZERO, {"home_joints": [0.0, 0.0, 0.1, -0.0, 0.0, -0.0]}, True,
        "e291097c83097742c7790cfd84f4c3f62d37ae6977dd2cfcb2c15d481658eb2e",
    ),
    "rotation_only": (
        ROTATION_ONLY, {}, True,
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
        True,
        "71d95f48577e8909a179a71863115947d740e04cb322f1fa12007c42a5a22374",
    ),
    "contact_at_zero": (
        CONTACT_AT_ZERO,
        {"obstacles": [WALL, BACK_WALL]},
        True,
        "02cdecffe5e75f4ae9f428a01c824df20eb9c9b147e9d70709478b02d8d97408",
    ),
    "blocked": (
        BLOCKED, {"obstacles": [WALL]}, False,
        "dd8723aa19dce320ec645ce91662cb42551734805a3a5f9279df40888774a438",
    ),
}


def motion_run(name, far_obstacle=False):
    text, overrides, _, _ = MOTION_CASES[name]
    config = quiet_config(**overrides)
    if far_obstacle:
        config = with_far_obstacle(config)
    controller = Controller(build(text), config, seed=0)
    result = controller.run()
    if result.completed:
        reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
    return controller, result


@pytest.mark.parametrize("name", list(MOTION_CASES))
def test_motion_golden_trace_digest(name):
    controller, result = motion_run(name)
    assert result.completed is MOTION_CASES[name][2], result.reason
    if not result.completed:
        assert result.reason.startswith("collision during move: blocked at")
    digest = hashlib.sha256(controller.trace.serialize().encode("utf-8")).hexdigest()
    assert digest == MOTION_CASES[name][3]


@pytest.mark.parametrize("name", list(MOTION_CASES))
def test_one_motion_sample_per_cycle_without_step_motion(name, monkeypatch):
    """Each control cycle writes one motion sample, and no run calls
    `Workcell.step_motion`, with obstacles (here `FAR_OBSTACLES`) or without.
    Every cycle short of its goal in the far obstacles' cell calls `_first_hit`."""
    calls, tests = [], []
    original = Workcell._first_hit
    monkeypatch.setattr(Workcell, "step_motion", lambda *args: calls.append(args))
    monkeypatch.setattr(Workcell, "_first_hit",
                        lambda *args: tests.append(args) or original(*args))
    for far_obstacle in (False, True):
        del tests[:]
        controller, _ = motion_run(name, far_obstacle=far_obstacle)
        samples = of_kind(controller.trace, EventKind.MOTION_SAMPLE)
        assert samples and len(samples) == controller.ctx.cycles
    # A cycle short of its goal moves or stops in contact; only one at it does neither.
    assert len(tests) == sum(s.data["advanced"] > 0 or s.data["contact"] for s in samples)
    assert calls == []


@pytest.mark.parametrize("far_obstacle", [False, True], ids=["own_cell", "far_obstacle"])
@pytest.mark.parametrize("name", list(MOTION_CASES))
def test_motion_case_writes_its_step_motion_twins_bytes(name, far_obstacle):
    text, overrides, completes, _ = MOTION_CASES[name]
    config = quiet_config(**overrides)
    if far_obstacle:
        config = with_far_obstacle(config)
    _, reasons = step_motion_twin(build(text), config, 0)
    assert (reasons[0] is None) is completes


# ---------------------------------------------------------------------------
# Motion in a free cell: pose moves test no step against an obstacle. The
# same cell plus `FAR_OBSTACLES` tests every step against them, so the two
# must write the same bytes, forward and reversed.

FREE_MOTION_CASES = [name for name, case in MOTION_CASES.items() if "obstacles" not in case[1]]


def far_obstacle_twin_samples(program, config, seed):
    """Run `program` on the free cell `config` and on its far-obstacle twin,
    each then fully reversed, samples on; check that both traces are the same
    bytes, and return how many motion samples each holds."""
    assert not config.obstacles
    texts = []
    for cell in (config, with_far_obstacle(config)):
        controller = Controller(program, cell, seed=seed)
        assert controller.run().completed
        reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
        texts.append(controller.trace.serialize())
    assert texts[0] == texts[1]
    return len(of_kind(controller.trace, EventKind.MOTION_SAMPLE))


@pytest.mark.parametrize("name", FREE_MOTION_CASES)
def test_free_motion_case_writes_its_far_obstacle_twins_bytes(name):
    text, overrides, _, _ = MOTION_CASES[name]
    assert far_obstacle_twin_samples(build(text), quiet_config(**overrides), 0)


@pytest.mark.parametrize("program", ["reverse_demo.adsl", "barrier_demo.adsl"])
def test_free_space_demo_writes_its_far_obstacle_twins_bytes(program):
    assert far_obstacle_twin_samples(
        parse_program((EXAMPLES / program).read_text(encoding="utf-8")),
        load_workcell_config(EXAMPLES / "free_space.json"), 0)


def test_generated_reversible_programs_write_their_far_obstacle_twins_bytes():
    """The generated programs criterion 7 and the benchmark's reverse_roundtrip run."""
    rng = random.Random(2718)
    free_space = load_workcell_config(EXAMPLES / "free_space.json")
    generate = bench_generator()
    samples = []
    for _ in range(10):
        text, _ = random_reversible_program(rng)
        samples.append(far_obstacle_twin_samples(build(text), quiet_config(),
                                                 rng.randrange(1 << 31)))
        text, _, _ = generate.reversible_program(rng, 40)
        samples.append(far_obstacle_twin_samples(build(text), free_space,
                                                 rng.randrange(1 << 31)))
    assert sum(map(bool, samples)) >= 15


# ---------------------------------------------------------------------------
# Motion: the shipped examples, and generated programs in front of a wall

EXAMPLES = importlib.resources.files("adsl") / "examples"

#: (program, config) -> sha256 of `run_forward_and_reversed` at seed 3, for every
#: shipped example on every shipped config.
SHIPPED_DIGESTS = {
    ("barrier_demo.adsl", "aligned.json"):
        "2c77ed5991a098ada65079cc452dec33ea019ce8ca72d332852c8e1ee0bcf004",
    ("barrier_demo.adsl", "blocked.json"):
        "2c77ed5991a098ada65079cc452dec33ea019ce8ca72d332852c8e1ee0bcf004",
    ("barrier_demo.adsl", "free_space.json"):
        "7d312bd8c18c0d649a5ed1adc687485b5ddd366fb72388e02d94452fc479fcc0",
    ("barrier_demo.adsl", "stats.json"):
        "900acefb33713fdbfa1d975cffe28de0bc9f5a29727df003bd8865a6bcf1ac22",
    ("peg_in_hole.adsl", "aligned.json"):
        "f406e8c16d7ef70b56cb83a677595e4c31183323562e5e3dd46b2092497d741b",
    ("peg_in_hole.adsl", "blocked.json"):
        "1aa726218aa41b75d70bca664905242a6dbf2c15a44e4c0ac132652ccab74cc5",
    ("peg_in_hole.adsl", "free_space.json"):
        "9d4e029b093882011d613915d60306a3f555a90d62dd2db0e532a0970514a4d2",
    ("peg_in_hole.adsl", "stats.json"):
        "f839891caae08eb29d37926bdc7bf0a18bb212826f2b07609b6b28a9532a9340",
    ("reverse_demo.adsl", "aligned.json"):
        "681352df50785da9b4247fab7d354b44fd9f6bee462f7e6649b3af96e0441de2",
    ("reverse_demo.adsl", "blocked.json"):
        "681352df50785da9b4247fab7d354b44fd9f6bee462f7e6649b3af96e0441de2",
    ("reverse_demo.adsl", "free_space.json"):
        "9bc063284480bcee41dcdb7d86fe4fc6a636dbb3167b1b936405690c739c54ca",
    ("reverse_demo.adsl", "stats.json"):
        "900acefb33713fdbfa1d975cffe28de0bc9f5a29727df003bd8865a6bcf1ac22",
    ("stats_insert.adsl", "aligned.json"):
        "5d7a7207d99ca01ef738fde9e91b6a823cee08b35271f39cf262b0eec7ce08e9",
    ("stats_insert.adsl", "blocked.json"):
        "5d7a7207d99ca01ef738fde9e91b6a823cee08b35271f39cf262b0eec7ce08e9",
    ("stats_insert.adsl", "free_space.json"):
        "ae59355e519cb04e73c1c9c5c0dd742e9684594cc0d0ff3a1501d97028475fe3",
    ("stats_insert.adsl", "stats.json"):
        "86325e1b79978739126c26ba03dae90a2982a275a0276e65f1f7ca14a806a5ba",
}


def test_every_shipped_pair_has_a_digest():
    programs = sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".adsl"))
    configs = sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".json"))
    assert sorted(SHIPPED_DIGESTS) == [(p, c) for p in programs for c in configs]


@pytest.mark.parametrize("program,config", list(SHIPPED_DIGESTS),
                         ids=[f"{p}-{c}" for p, c in SHIPPED_DIGESTS])
def test_shipped_example_golden_trace_digest(program, config):
    parsed = parse_program((EXAMPLES / program).read_text(encoding="utf-8"))
    trace = run_forward_and_reversed(parsed, load_workcell_config(EXAMPLES / config), 3)[0].trace
    digest = hashlib.sha256(trace.serialize().encode("utf-8")).hexdigest()
    assert digest == SHIPPED_DIGESTS[program, config]


#: A wall at 0.15 <= x <= 0.25 with a square hole along x at (y, z) = (0, 0.1).
HOLED_WALL = {"box": {"min": [0.15, -0.5, -0.5], "max": [0.25, 0.5, 0.5]},
              "hole": {"axis": "x", "center": [0.0, 0.1], "half_extents": [0.008, 0.008]}}


def generated_program(rng):
    """Plain and guarded moves in front of `HOLED_WALL`: starts scattered
    around the hole, some turned, guarded moves forward in the base or tool
    frame that stop on contact force, retry with perturbation and raise an
    error with a recovery sequence."""
    lines = ['error "missed" { recovery_sequence "back"; respond_after current_action;'
             ' return_to sequence; }']
    for k in range(3):
        x, y, z = rng.uniform(0.0, 0.12), rng.gauss(0.0, 0.01), rng.gauss(0.1, 0.01)
        turn = [round(rng.uniform(-0.2, 0.2), 4) if rng.random() < 0.4 else 0.0 for _ in range(3)]
        coords = [round(x, 4), round(y, 4), round(z, 4)] + turn
        lines.append(f"joint_configuration c{k} = {{ {', '.join(map(str, coords))} }};")
    lines.append('sequence "back" { move to c0; }')
    for k in range(2):
        frame = rng.choice(["base", "tcp"])
        stop = "stop_if forces_exceed(5); " if rng.random() < 0.7 else ""
        lines.append(
            f'advanced_move "m{k}" {{ specification {{ distance {rng.choice([0.2, 0.3])}'
            f' direction forward frame {frame}; {stop}speed {rng.choice(["fast", "normal"])}; }}'
            f' evaluation {{ distance_covered(more_than, 0.12); }}'
            f' on_fail {{ return_to_initial_position; repeat_with_perturbation({rng.randint(1, 4)});'
            ' throw_error("missed"); } }'
        )
    body = [rng.choice(["move to c0;", "move to c1;", "move to c2;", 'adv_move "m0";',
                        'adv_move "m1";']) for _ in range(rng.randint(3, 7))]
    lines.append(f'sequence "main" {{ move to c0; {" ".join(body)} }}')
    lines.append('entry "main";')
    return build("\n".join(lines))


def test_generated_wall_programs_golden_trace_digest():
    digest = hashlib.sha256()
    contacts = retries = 0
    for seed in range(40):
        rng = random.Random(seed)
        program = generated_program(rng)
        config = quiet_config(obstacles=[HOLED_WALL], noise_sigma=rng.choice([0.0, 0.5]))
        trace = run_forward_and_reversed(program, config, seed)[0].trace
        digest.update(trace.serialize().encode("utf-8"))
        contacts += any(e.data["contact"] for e in of_kind(trace, EventKind.MOTION_SAMPLE))
        retries += any(e.data["attempt"] > 1 for e in of_kind(trace, EventKind.ATTEMPT_BEGIN))
    # The cases reach what they are for: contact with the wall, and retries.
    assert contacts >= 10 and retries >= 10, (contacts, retries)
    # Recorded when a point on a channel wall (z = c +- h) became a point of
    # the aperture: seeds 12 and 26, whose moves off or along such a wall were
    # blocked.
    assert digest.hexdigest() == "6e1a1ccae403d80326bff664f2fd6ca4877a3e9209abc359ebc8e48957fb7824"


# ---------------------------------------------------------------------------
# Motion against the step_motion twin: the shipped examples at two seeds, and
# generated walls that the moves reach

@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("program,config", list(SHIPPED_DIGESTS),
                         ids=[f"{p}-{c}" for p, c in SHIPPED_DIGESTS])
def test_shipped_example_writes_its_step_motion_twins_bytes(program, config, seed):
    step_motion_twin(parse_program((EXAMPLES / program).read_text(encoding="utf-8")),
                     load_workcell_config(EXAMPLES / config), seed)


def strictly_inside(point, wall):
    """Whether `point` lies strictly inside the box of `wall` (a config dict)."""
    return all(lo < p < hi for p, lo, hi in zip(point, wall["box"]["min"], wall["box"]["max"]))


def face_program(x, distance):
    """A guarded reach and a move toward goals at `x`, on or inside `WALL`'s
    face at x = 0.05, then a guarded push and a rotation in place there."""
    return f"""
joint_configuration near = {{ 0.04, -0.02, 0.09, 0.0, 0.0, 0.0 }};
joint_configuration face = {{ {x}, 0.013, 0.1037, 0.0, 0.1, 0.3 }};
joint_configuration turned = {{ {x}, 0.013, 0.1037, 0.2, 0.1, 0.3 }};
advanced_move "reach" {{
  specification {{ distance {distance} direction forward frame base; }}
  evaluation {{ distance_covered(more_than, 0.005); }}
  on_success {{ return_to_initial_position; }}
  on_fail {{ return_to_initial_position; }}
}}
advanced_move "push" {{
  specification {{ distance 0.01 direction forward frame base; stop_if forces_exceed(10); }}
  evaluation {{ forces_exceed(10); }}
  on_fail {{ return_to_initial_position; }}
}}
sequence "main" {{ move to near; adv_move "reach"; move to face; adv_move "push"; move to turned; }}
entry "main";
"""


#: Goals a rounding error (1e-17 m) inside `WALL`: the reach's last step stops
#: at the surface in contact, short of its goal. So does the move's, and its
#: next step, still 1e-17 m from its goal, tests the wall, is blocked at
#: distance 0 and aborts the run.
FACE_GOAL = face_program("0.05000000000000001", "0.01000000000000001")
#: The same goals on the surface: the reach and the move arrive there out of
#: contact, the push touches at distance 0, a rotation in place follows, and
#: the full reversal completes.
SURFACE_GOAL = face_program("0.05", "0.01")


def samples_by_instruction(text):
    """The motion samples of a trace's text by forward instruction index."""
    samples = {}
    for line in text.splitlines():
        event = json.loads(line)
        if event["kind"] == "motion_sample" and event["stack"]:
            samples.setdefault(event["stack"][0][1], []).append(event)
    return samples


def test_goals_inside_a_wall_write_their_step_motion_twins_bytes():
    text, reasons = step_motion_twin(build(FACE_GOAL), quiet_config(obstacles=[WALL]), 0)
    samples = samples_by_instruction(text)
    reach = [s for s in samples[1] if "covered" in s["data"]]
    assert reach[-1]["data"]["contact"] and reach[-1]["post_joints"][0] == 0.05
    assert [s["data"]["contact"] for s in samples[2][-3:]] == [False, True, True]
    assert samples[2][-1]["data"]["advanced"] == 0 and samples[2][-1]["post_joints"][0] == 0.05
    assert 3 not in samples
    assert reasons == [
        "collision during move: blocked at (0.05, 0.012999999999999977, 0.10369999999999999)"
        " moving to (0.05000000000000001, 0.013, 0.1037)"
    ]
    assert not any(strictly_inside(s["post_joints"][:3], WALL)
                   for run in samples.values() for s in run)


def test_goals_inside_a_wall_test_the_wall_on_every_cycle_in_its_reach(monkeypatch):
    """No cycle near the wall reaches its goal without the obstacle test:
    `_first_hit` is called on exactly the cycles of `FACE_GOAL` that start
    inside the wall's hull widened by the cycle's step and pad, which hold
    every cycle starting within one step of the box, the blocking one among
    them, and the run aborts there."""
    original = Workcell._first_hit
    calls = []

    def counting(self, origin, unit_dir, length):
        calls.append(origin)
        return original(self, origin, unit_dir, length)

    monkeypatch.setattr(Workcell, "_first_hit", counting)
    config = quiet_config(obstacles=[WALL])
    controller = Controller(build(FACE_GOAL), config, seed=0)
    result = controller.run()
    assert result.reason.startswith("collision during move: blocked at")
    samples = of_kind(controller.trace, EventKind.MOTION_SAMPLE)
    assert len(samples) == controller.ctx.cycles
    inside, near = [], []
    for sample in samples:
        start, step = sample.pre_joints[:3], config.speed_map[sample.speed] * config.dt
        x0, y0, z0, x1, y1, z1 = _padded_hull(config.hull, step)
        if x0 <= start[0] <= x1 and y0 <= start[1] <= y1 and z0 <= start[2] <= z1:
            inside.append(start)
        if all(lo - step <= p <= hi + step
               for p, lo, hi in zip(start, WALL["box"]["min"], WALL["box"]["max"])):
            near.append(start)
    assert calls == inside and set(near) <= set(inside)
    assert 5 <= len(near) and len(inside) < len(samples) // 2
    blocked = samples[-1]
    assert blocked.data == {"advanced": 0.0, "contact": True}
    assert blocked.pre_joints[:3] == calls[-1]


def test_goals_on_a_wall_write_their_step_motion_twins_bytes():
    text, reasons = step_motion_twin(build(SURFACE_GOAL), quiet_config(obstacles=[WALL]), 0)
    samples = samples_by_instruction(text)
    contacts = {index: [s["data"]["contact"] for s in run] for index, run in samples.items()}
    assert True not in contacts[1] and True not in contacts[2]
    assert samples[2][-1]["post_joints"][0] == 0.05
    assert contacts[3][0] is True and samples[3][0]["data"]["advanced"] == 0
    assert contacts[4] == [False] and samples[4][0]["post_joints"][:3] == [0.05, 0.013, 0.1037]
    assert reasons == [None]
    assert not any(strictly_inside(s["post_joints"][:3], WALL)
                   for run in samples.values() for s in run)


@pytest.mark.parametrize("walls", [[WALL], []], ids=["wall", "free"])
def test_attempt_cycle_a_rounding_error_from_its_goal_tests_the_wall(walls):
    """An attempt's cycle that starts on `WALL`'s face, 1e-17 m short of a
    goal inside the wall, is blocked there; in free space it steps onto the
    goal and counts that step as covered. The twin writes the same."""
    program = build(FACE_GOAL)
    spec = program.adv_moves["reach"]
    start = (0.04, 0.013, 0.1037, 0.0, 0.0, 0.0)
    goal = (start[0] + spec.distance,) + start[1:]  # as `_execute_adv_move` forms it
    outcomes = []
    for move in (ExecutionContext._move, step_motion_move):
        controller = Controller(program, quiet_config(obstacles=walls), seed=0)
        state = controller.ctx.workcell.state
        state.joints = (0.05,) + start[1:]
        covered, stopped = move(controller.ctx, goal, 0.1, (spec.stop_if, spec.distance))
        outcomes.append((covered, stopped, state.joints, state.in_contact,
                         controller.trace.serialize()))
    assert outcomes[0] == outcomes[1]
    covered, stopped, joints, contact, _ = outcomes[0]
    goal_x = start[0] + spec.distance
    assert goal_x > 0.05 and not stopped
    if walls:
        assert (covered, joints[0], contact) == (0.0, 0.05, True)
    else:
        assert (covered, joints[0], contact) == (goal_x - 0.05, goal_x, False)


def ulps_inside_wall_program(rng):
    """(program, config, wall, face, goal) for a turn in place, then a
    guarded reach and a move along a face's normal to one goal 1 to 16 ulps
    inside a generated wall's front or back face, from 2 to 40 mm outside."""
    x0 = rng.uniform(0.1, 0.3)
    wall = {"box": {"min": [x0, -0.5, -0.5], "max": [x0 + rng.uniform(0.001, 0.05), 0.5, 0.5]}}
    front = rng.random() < 0.5
    face = wall["box"]["min" if front else "max"][0]
    x = face
    for _ in range(rng.randint(1, 16)):
        x = math.nextafter(x, math.inf if front else -math.inf)
    gap = rng.uniform(0.002, 0.04)
    home = [face - gap if front else face + gap, rng.uniform(-0.1, 0.1), rng.uniform(0.0, 0.2)]
    turn = [round(rng.uniform(-0.2, 0.2), 4) for _ in range(3)]
    goal = [x] + home[1:]
    stop = "stop_if forces_exceed(10); " if rng.random() < 0.5 else ""
    text = f"""
joint_configuration start = {{ {", ".join(map(repr, home + turn))} }};
joint_configuration goal = {{ {", ".join(map(repr, goal + turn))} }};
advanced_move "reach" {{
  specification {{ distance {abs(x - home[0])!r} direction {"forward" if front else "backwards"}
    frame base; {stop}speed {rng.choice(["fast", "normal", "slow"])}; }}
  evaluation {{ distance_covered(more_than, 0.001); }}
  on_success {{ return_to_initial_position; }}
  on_fail {{ return_to_initial_position; }}
}}
sequence "main" {{ move to start; adv_move "reach"; move to goal; }}
entry "main";
"""
    config = quiet_config(obstacles=[wall], home_joints=home + [0.0, 0.0, 0.0])
    return build(text), config, wall, face, goal


def test_goals_ulps_inside_a_generated_wall_stop_at_its_face():
    """A guarded reach and a move whose goals lie 1 to 16 ulps inside a
    wall's face end on the face, and the move is then blocked there."""
    for seed in range(40):
        program, config, wall, face, goal = ulps_inside_wall_program(random.Random(seed))
        start = config.home_joints[0]
        sign = 1.0 if goal[0] > start else -1.0
        reach_goal = start + sign * abs(goal[0] - start)  # as `_execute_adv_move` forms it
        assert strictly_inside(goal, wall) and strictly_inside([reach_goal] + goal[1:], wall)
        text, reasons = step_motion_twin(program, config, seed)
        samples = samples_by_instruction(text)
        reach = [s for s in samples[1] if "covered" in s["data"]]
        for last in (reach[-1], samples[2][-1]):  # the reach's, then the move's
            assert last["data"]["contact"] and last["post_joints"][0] == face, seed
        assert reasons[0].startswith("collision during move: blocked at"), seed
        assert not any(strictly_inside(s["post_joints"][:3], wall)
                       for run in samples.values() for s in run), seed


def generated_walls(rng):
    """One to three walls across `generated_program`'s guarded moves, at
    random depths, most pierced along x near the moves' line."""
    walls = []
    for x0 in sorted(rng.uniform(0.13, 0.3) for _ in range(rng.randint(1, 3))):
        wall = {"box": {"min": [x0, -0.5, -0.5], "max": [x0 + rng.uniform(0.001, 0.05), 0.5, 0.5]}}
        if rng.random() < 0.8:
            wall["hole"] = {"axis": "x",
                            "center": [rng.uniform(-0.01, 0.01), rng.uniform(0.09, 0.11)],
                            "half_extents": [rng.uniform(0.005, 0.025), rng.uniform(0.005, 0.025)]}
        walls.append(wall)
    return walls


def test_generated_walls_write_their_step_motion_twins_bytes():
    """The moves touch the walls, pass through their holes and are blocked."""
    contacts = throughs = blocked = 0
    for seed in range(24):
        rng = random.Random(seed)
        program = generated_program(rng)
        walls = generated_walls(rng)
        config = quiet_config(obstacles=walls, noise_sigma=rng.choice([0.0, 0.5]))
        text, reasons = step_motion_twin(program, config, seed)
        samples = [json.loads(line) for line in text.splitlines() if '"motion_sample"' in line]
        contacts += any(s["data"]["contact"] for s in samples)
        beyond = min(wall["box"]["max"][0] for wall in walls)  # reached through a hole
        throughs += any(s["post_joints"][0] > beyond for s in samples)
        blocked += any(r is not None and r.startswith("collision during move") for r in reasons)
    assert contacts >= 12 and throughs >= 4 and blocked >= 3, (contacts, throughs, blocked)


def generated_wall_run(seed):
    """(walls, controller, abort reasons) of `generated_program` before the
    `generated_walls` of `seed`, run forward and then fully reversed."""
    rng = random.Random(seed)
    program = generated_program(rng)
    walls = generated_walls(rng)
    config = quiet_config(obstacles=walls, noise_sigma=rng.choice([0.0, 0.5]))
    return (walls,) + run_forward_and_reversed(program, config, seed)


def in_solid(point, obstacle):
    """Whether `point` lies strictly inside `obstacle`'s solid, by
    `_segment_hit`'s own rule: strictly inside the box, a step along the
    holes' axis x from it enters the solid at once."""
    return (all(lo < p < hi for p, lo, hi in zip(point, obstacle.box_min, obstacle.box_max))
            and _segment_hit(point, (1.0, 0.0, 0.0), 1e-3, obstacle) == 0.0)


def test_generated_walls_hold_no_motion_sample_inside_a_solid():
    for seed in range(300):
        _, controller, _ = generated_wall_run(seed)
        obstacles = controller.ctx.workcell.config.obstacles
        for event in of_kind(controller.trace, EventKind.MOTION_SAMPLE):
            assert not any(in_solid(event.post_joints[:3], o) for o in obstacles), (seed, event)


def hull_case(rng):
    """A cell of one to five boxes, some pierced, at a random scale around a
    random point within 1e6 m of the origin (1e15 m in one cell of five, where
    rounding leaves `bounds` no margin), and the moves to drive in it:
    `(goal, speed, guarded)` moves, at a step of up to MAX_SPEED x MAX_DT,
    and `("place", joints)` jumps. Among them are moves parallel to a face at
    exactly one step's distance and moves heading into a face from a few
    steps out, give or take a few ulps."""
    reach = 1e6 if rng.random() < 0.8 else 1e15  # where rounding eats `bounds`' 1 nm
    scale = max(10.0 ** rng.uniform(-3.0, 3.0), 1e4 * math.ulp(reach))
    center = [rng.uniform(-reach, reach) for _ in range(3)]
    obstacles = []
    for _ in range(rng.randint(1, 5)):
        lo = [c + rng.uniform(-4.0, 4.0) * scale for c in center]
        hi = [v + rng.uniform(0.1, 3.0) * scale for v in lo]
        hole = None
        if rng.random() < 0.4:
            axis = rng.choice(list(HoleAxis))
            cross = [a for a in range(3) if a != "xyz".index(axis.value)]
            widths = [hi[a] - lo[a] for a in cross]
            hole = Hole(axis,
                        tuple(lo[a] + w * rng.uniform(0.35, 0.65) for a, w in zip(cross, widths)),
                        tuple(w * rng.uniform(0.05, 0.3) for w in widths))
        obstacles.append(Obstacle(tuple(lo), tuple(hi), hole))
    step = min(scale * 10.0 ** rng.uniform(-2.0, 0.5), MAX_SPEED * MAX_DT)
    dt = rng.uniform(max(step / MAX_SPEED, 1e-3), MAX_DT)
    speed = step / dt
    step = speed * dt  # as `_move` forms it

    def pose(position):
        return tuple(position) + tuple(rng.uniform(-1.0, 1.0) for _ in range(3))

    moves = []
    for _ in range(rng.randint(3, 6)):
        box = rng.choice(obstacles)
        axis = rng.randrange(3)
        out = rng.choice((-1.0, 1.0))
        face = box.box_max[axis] if out > 0 else box.box_min[axis]
        start = [rng.uniform(lo, hi) for lo, hi in zip(box.box_min, box.box_max)]
        goal = list(start)
        kind = rng.random()
        if kind < 0.35:  # along the face, one step out
            start[axis] = goal[axis] = face + out * step
            along = rng.choice([a for a in range(3) if a != axis])
            goal[along] += rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 6.0) * step
        elif kind < 0.7:  # into the face from a few steps out
            ulps = rng.randint(-4, 4) * math.ulp(face)
            start[axis] = face + out * (rng.randint(1, 4) * step + ulps)
            goal[axis] = face - out * rng.uniform(0.1, 2.0) * step
        else:  # anywhere among the boxes
            goal = [c + rng.uniform(-6.0, 6.0) * scale for c in center]
        if kind < 0.7:
            moves.append(("place", pose(start)))
        moves.append((pose(goal), speed, rng.random() < 0.3))
    config = WorkcellConfig(home_joints=pose(center), obstacles=tuple(obstacles), dt=dt,
                            noise_sigma=rng.choice([0.0, 0.5]))
    return config, moves


def drive_hull_case(move, config, moves, log):
    """Drive `moves` through `move` (`ExecutionContext._move` or the twin's)
    on a fresh context, appending each move's goal and speed to `log`.
    Returns the trace text, the abort reasons and the final state."""
    controller = Controller(build('sequence "main" { wait 1.0; }\nentry "main";\n'), config)
    ctx, state = controller.ctx, controller.ctx.workcell.state
    reasons = []
    for entry in moves:
        if entry[0] == "place":
            state.joints = entry[1]
            continue
        goal, speed, guarded = entry
        log.append(("move", goal, speed))
        try:
            move(ctx, goal, speed, (None, math.dist(state.joints[:3], goal[:3])) if guarded else None)
        except RunAborted as exc:
            reasons.append(str(exc))
    return ctx.trace.serialize(), reasons, ctx.cycles, (state.joints, state.clock, state.in_contact)


def test_a_cycle_outside_the_padded_hull_would_hit_nothing():
    """Over generated cells, a cycle of `_move` that makes no `_first_hit`
    call gets None from it, and `_move` writes its step_motion twin's bytes."""
    skipped = near = tested = 0
    original = Workcell._first_hit
    log = []  # a move's ("move", goal, speed), then per cycle ("hit",) if tested, ("cycle", start)

    def logged(sample):
        def wrapper(self, clock, stack, speed, pre_joints, *rest):
            log.append(("cycle", pre_joints))
            return sample(self, clock, stack, speed, pre_joints, *rest)
        return wrapper

    for seed in range(150):
        config, moves = hull_case(random.Random(seed))
        log.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Workcell, "_first_hit",
                          lambda *args: log.append(("hit",)) or original(*args))
            patch.setattr(ExecutionTrace, "move_sample", logged(ExecutionTrace.move_sample))
            patch.setattr(ExecutionTrace, "attempt_sample", logged(ExecutionTrace.attempt_sample))
            shipped = drive_hull_case(ExecutionContext._move, config, moves, log)
        assert shipped == drive_hull_case(step_motion_move, config, moves, []), seed
        cell = Workcell(config)
        hit = False
        for entry in log:
            if entry[0] == "move":
                (tx, ty, tz), step = entry[1][:3], entry[2] * config.dt
            elif entry[0] == "hit":
                hit = True
            elif hit:
                hit, tested = False, tested + 1
            else:
                px, py, pz = entry[1][:3]
                dx, dy, dz = tx - px, ty - py, tz - pz
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                if dist == 0.0:
                    continue
                advanced = dist if dist < step else step
                assert original(cell, (px, py, pz), (dx / dist, dy / dist, dz / dist),
                                advanced) is None, (seed, entry)
                skipped += 1
                near += any(all(lo - 2 * step <= p <= hi + 2 * step
                                for p, lo, hi in zip((px, py, pz), o.box_min, o.box_max))
                            for o in config.obstacles)
    assert skipped >= 5000 and near >= 150 and tested >= 4000, (skipped, near, tested)


def test_a_move_off_a_hole_channels_wall_leaves_it():
    """`generated_walls` seed 112: guarded move m1 stops in contact on the top
    wall of the first wall's hole channel, z = c + h, and m0, reaching along
    the same line, is blocked there. Its return to the initial position heads
    down into the channel and moves; it was blocked at distance 0 while the
    aperture test, `abs(z - c) > h`, put the stop 3.5e-18 m outside the hole.
    The run aborts later, on the retry's move up into the wall."""
    walls, controller, reasons = generated_wall_run(112)
    hole = walls[0]["hole"]
    top = hole["center"][1] + hole["half_extents"][1]
    events = controller.trace.events
    blocked = next(i for i, e in enumerate(events)
                   if e.kind is EventKind.ATTEMPT_END and e.data["move"] == "m0")
    stop = events[blocked].post_joints
    assert stop[2] == top and events[blocked].data["covered"] == 0
    back = events[blocked + 1]
    assert back.kind is EventKind.MOTION_SAMPLE and "covered" not in back.data
    assert back.data == {"advanced": 0.002, "contact": False} and back.post_joints[2] < top
    assert reasons == [
        f"collision during move: blocked at {stop[:3]} moving to"
        " (0.20859946072844024, 0.002584996311580736, 0.12173801323411163)"
    ]
