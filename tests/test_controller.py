import contextlib
import gc
import hashlib
import importlib.resources
import io
import json
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from adsl import cli, controller as controller_module, model as model_module
from adsl.controller import (
    Controller,
    ControllerOptions,
    InvalidProgramError,
    RunAborted,
    default_registry,
    evaluate_query,
)
from adsl.model import (
    JOINT_COUNT,
    AdvMoveSpec,
    Comparison,
    Direction,
    DistanceCovered,
    ForcesExceed,
    Frame,
    Item,
    Keyframe,
    MoveJoint,
    Program,
    Sequence,
    SelectBit,
    SetHigh,
    SpeedLevel,
    Value,
    validate_program,
)
from adsl.parser import parse_program
from adsl.printer import format_query
from adsl.reverse import PolicyMode, ResumePolicy, reverse_execute
from adsl.trace import EventKind
from adsl.workcell import (
    MAX_RNG_SEED, Obstacle, Workcell, WorkcellConfig, load_workcell_config,
)


from _helpers import (
    ATTEMPT_SAMPLE_KEYS, MOVE_SAMPLE_KEYS, build, max_overshoot_past_first_contact, of_kind,
    quiet_config, with_far_obstacle,
)


EXAMPLES = importlib.resources.files("adsl") / "examples"

GRIPPER_OPS = """
io_operation "gripper_open" { set_low; bit 0; sleep 0.5; }
io_operation "gripper_close" { set_high; bit 0; sleep 0.5; }
"""

GUARDED = (
    'advanced_move "m" {{ specification {{ distance {} direction forward frame tcp; }}'
    ' evaluation {{ {}; }} on_fail {{ {} }} }}\nsequence "s" {{ adv_move "m"; }}'
)


def _program(text='sequence "s" { wait 0.1; }', **tables):
    """A parsed program with declaration tables replaced: inputs the parser cannot build."""
    return parse_program(text).replace(**tables)


class TestEvaluateQuery:
    def test_forces_exceed(self):
        assert evaluate_query(ForcesExceed(5.0), 0.0, 50.0)
        assert not evaluate_query(ForcesExceed(5.0), 0.0, 5.0)

    def test_distance_boundary_is_strict(self):
        q = DistanceCovered(Comparison.MORE_THAN, 0.20)
        assert not evaluate_query(q, 0.20, 0.0)
        assert evaluate_query(q, 0.2000001, 0.0)

    def test_less_than(self):
        q = DistanceCovered(Comparison.LESS_THAN, 0.20)
        assert evaluate_query(q, 0.15, 0.0)
        assert not evaluate_query(q, 0.20, 0.0)


class TestBasicInstructions:
    def test_io_open_then_close(self):
        program = build(
            GRIPPER_OPS + 'sequence "s" { io "gripper_close"; io "gripper_open"; }'
        )
        controller = Controller(program, quiet_config(), seed=0)
        result = controller.run()
        assert result.completed
        writes = of_kind(controller.trace, EventKind.IO_WRITE)
        assert [w.data for w in writes] == [
            {"bit": 0, "level": True},
            {"bit": 0, "level": False},
        ]
        # Two sleeps of 0.5 s each.
        assert result.stats.simulated_time == pytest.approx(1.0)
        assert controller.ctx.workcell.state.io_bits[0] is False

    def test_io_write_sets_one_bit_and_repeats_idempotently(self):
        program = build('io_operation "on" { set_high; bit 0; set_high; bit 0; }\n'
                        'sequence "s" { io "on"; }')
        controller = Controller(program, quiet_config(), seed=0)
        assert controller.run().completed
        first, second = of_kind(controller.trace, EventKind.IO_WRITE)
        assert first.post_bits == (True,) + (False,) * 7
        assert second.pre_bits == second.post_bits == first.post_bits
        assert controller.ctx.workcell.state.io_bits == first.post_bits

    @pytest.mark.parametrize("bit", [8, -1])
    def test_io_write_outside_the_cell_aborts_and_writes_nothing(self, bit):
        controller = Controller(build('sequence "s" { wait 0.1; }'), quiet_config(), seed=0)
        ctx = controller.ctx
        with pytest.raises(RunAborted, match=rf"^io bit out of range: bit {bit} outside 0\.\.7$"):
            ctx.apply_primitives((SetHigh(), SelectBit(bit)))
        assert ctx.workcell.state.io_bits == (False,) * 8
        assert len(controller.trace) == 0

    def test_wait_advances_clock_only(self):
        program = build('sequence "s" { wait 1.0; }')
        controller = Controller(program, quiet_config(), seed=0)
        before = controller.ctx.workcell.state.joints
        result = controller.run()
        assert result.completed
        assert controller.ctx.workcell.state.clock == pytest.approx(1.0)
        assert controller.ctx.workcell.state.joints == before
        assert controller.ctx.workcell.state.bits() == (False,) * 8

    def test_move_through_waypoints_lands_exactly(self):
        program = build(
            "joint_configuration a = { 0.05, 0.0, 0.1, 0.0, 0.0, 0.0 };\n"
            "joint_configuration b = { 0.05, 0.08, 0.1, 0.0, 0.0, 0.0 };\n"
            'sequence "s" { move to a, b; }'
        )
        controller = Controller(program, quiet_config(), seed=0)
        assert controller.run().completed
        assert controller.ctx.workcell.state.joints == (0.05, 0.08, 0.1, 0.0, 0.0, 0.0)

    def test_unregistered_action_aborts(self):
        program = build('sequence "s" { call "glue" (); }')
        result = Controller(program, quiet_config(), seed=0).run()
        assert not result.completed
        assert "unregistered action" in result.reason

    def test_registered_stub_runs(self):
        program = build('sequence "s" { call "noop" (); call "log" (); }')
        assert Controller(program, quiet_config(), seed=0).run().completed

    def test_sequence_call_brackets(self):
        program = build(
            'sequence "inner" { wait 0.1; }\n'
            'sequence "outer" { seq "inner"; wait 0.1; }\n'
            'entry "outer";'
        )
        controller = Controller(program, quiet_config(), seed=0)
        assert controller.run().completed
        texts = [e.data["text"] for e in of_kind(controller.trace, EventKind.INSTR_END)]
        assert texts == ["wait 0.1;", 'seq "inner";', "wait 0.1;"]

    def test_call_depth_guard(self):
        chain = "\n".join(
            f'sequence "s{i}" {{ seq "s{i + 1}"; }}' for i in range(40)
        )
        program = build(chain + '\nsequence "s40" { wait 0.01; }\nentry "s0";')
        result = Controller(program, quiet_config(), seed=0).run()
        assert not result.completed
        assert "depth" in result.reason

    @pytest.mark.parametrize(
        "body, message, name",
        [
            ("move to nowhere;", "unresolved joint configuration", "nowhere"),
            ('io "nothere";', "unresolved io operation", "nothere"),
            ('call "noop" ("ghost");', "unresolved item", "ghost"),
            ('adv_move "ghost";', "unresolved advanced move", "ghost"),
            (_program('io_operation "o" { set_high; set_low; bit 0; }\nsequence "s" { io "o"; }'),
             "level primitive not followed by exactly one select", "o"),
            (_program('io_operation "o" { set_high; bit -1; }\nsequence "s" { io "o"; }'),
             "negative bit index", "o"),
            (_program('io_operation "o" { sleep 0; }\nsequence "s" { io "o"; }'),
             "sleep duration must be a positive finite number", "o"),
            (_program('error "e" { recovery_sequence "ghost"; }\nsequence "s" { wait 0.1; }'),
             "unresolved recovery sequence", "ghost"),
            (_program('item "i" { keyframe k { (1' + "0" * 400 + ', 0, 0); } }\n'
                      'sequence "s" { wait 0.1; }'),
             "non-finite keyframe coordinate", "i.k"),
            (_program(GUARDED.format("0.1", "distance_covered(more_than, -1.0)",
                                     "return_to_initial_position;")),
             "distance value must be a non-negative finite number", "m"),
            (_program(GUARDED.format("-0.1", "forces_exceed(1.0)", "return_to_initial_position;")),
             "move distance must be a non-negative finite number", "m"),
            (_program(GUARDED.format("0.1", "forces_exceed(1.0)", "repeat_with_perturbation(0);")),
             "retry count must be a positive integer", "m"),
            (_program(items={"i": Item("i", ())}), "item has no keyframes", "i"),
            (_program(items={"i": Item("i", (Keyframe("k", ()),))}),
             "keyframe has no coordinates", "i.k"),
            (_program(sequences={"s": Sequence("s", (MoveJoint(()),))}),
             "move has no waypoints", "s"),
            (_program(adv_moves={"m": AdvMoveSpec("m", 0.1, Direction.FORWARD, Frame.TCP,
                                                  (ForcesExceed(1.0),), ())}),
             "advanced move needs at least one on_fail behavior", "m"),
        ],
    )
    def test_unvalidated_program_rejected_with_diagnostics(self, body, message, name):
        # A text `body` is the one instruction of sequence "s".
        program = body if isinstance(body, Program) else parse_program(f'sequence "s" {{ {body} }}')
        with pytest.raises(InvalidProgramError) as info:
            Controller(program, quiet_config(), seed=0)
        assert isinstance(info.value, ValueError)
        assert [(d.message, d.name) for d in info.value.diagnostics] == [(message, name)]


ADV_MOVE_TEMPLATE = """
joint_configuration start = {{ 0.0, 0.0, 0.1, 0.0, 0.0, 0.0 }};
error "stuck" {{ recovery_sequence "rec"; }}
sequence "rec" {{ wait 0.01; }}
advanced_move "probe" {{
  specification {{
    distance {distance} direction forward frame tcp;
    stop_if forces_exceed(5);
    speed slow;
  }}
  evaluation {{
    distance_covered(more_than, {threshold});
  }}
  on_success {{
    return_to_initial_position;
  }}
  on_fail {{
    return_to_initial_position;
    repeat_with_perturbation(3);
    throw_error("stuck");
  }}
}}
sequence "main" {{
  move to start;
  adv_move "probe";
}}
entry "main";
"""

WALL_AT_15CM = {
    "box": {"min": [0.15, -0.5, -0.4], "max": [0.25, 0.5, 0.6]},
}


class TestRunOnce:
    """A controller runs once: a second `run()` raises RuntimeError and leaves
    the trace and the state as the first run left them."""

    PROGRAM = ('sequence "main" { seq "sub"; wait 1.0; }\n'
               'sequence "sub" { call "boom" (); wait 0.5; }\nentry "main";')

    @pytest.mark.parametrize("aborts", [True, False], ids=["after_an_abort", "after_completion"])
    def test_a_second_run_raises_and_changes_nothing(self, aborts):
        calls = []

        def boom(ctx, items):
            calls.append(items)
            if aborts and len(calls) == 1:
                raise RunAborted("boom")

        registry = default_registry()
        registry.register("boom", boom)
        controller = Controller(build(self.PROGRAM), quiet_config(), seed=0, registry=registry)
        ctx = controller.ctx
        state = ctx.workcell.state

        def snapshot():
            return (controller.trace.serialize(), ctx.stack, len(ctx.frames), ctx.cycles,
                    controller.stats_instructions, state.joints, state.io_bits, state.clock)

        result = controller.run()
        assert result.completed is not aborts
        # An aborted run leaves its frames open, where a second run would resume.
        assert ctx.stack == ((("main", 0), ("sub", 0)) if aborts else ())
        before = snapshot()
        with pytest.raises(RuntimeError, match="^a Controller runs once"):
            controller.run()
        assert snapshot() == before
        assert len(calls) == 1


class TestOneProgramManyRuns:
    """A program is checked once, and each of its instructions and failed
    queries written once, however many runs it makes; the runs write the
    bytes that runs of fresh parses write."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """Counts the validation passes, through one of their checks."""
        calls = []
        check = model_module._check_sequence_cycles
        monkeypatch.setattr(model_module, "_check_sequence_cycles",
                            lambda *args: calls.append(1) or check(*args))
        return calls

    def test_a_program_is_validated_once_for_all_its_runs(self, checks):
        program = parse_program(EXAMPLES.joinpath("stats_insert.adsl").read_text("utf-8"))
        config = load_workcell_config(str(EXAMPLES / "stats.json"))
        assert validate_program(program) == [] and checks == [1]
        for seed in range(4):
            assert Controller(program, config, seed=seed).run().completed
        assert validate_program(program) == validate_program(program) == []
        assert validate_program(program) is not validate_program(program)
        assert checks == [1]
        # `adsl run` validates its program and then builds a Controller of it.
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(EXAMPLES / "stats_insert.adsl"),
                             "--workcell", str(EXAMPLES / "stats.json")])
        assert code == 0 and checks == [1, 1]

    def test_an_invalid_program_raises_on_every_construction(self, checks):
        program = _program('sequence "s" { seq "missing"; }')
        for runs in range(1, 4):
            with pytest.raises(InvalidProgramError, match="unresolved sequence call"):
                Controller(program, quiet_config(), seed=0)
            assert len(checks) == runs

    def test_each_instruction_and_query_is_written_once(self, monkeypatch, blocked_config):
        written = []
        for name in ("format_instruction", "format_query"):
            write = getattr(controller_module, name)
            monkeypatch.setattr(controller_module, name,
                                lambda node, write=write: written.append(node) or write(node))
        program = parse_program(EXAMPLES.joinpath("peg_in_hole.adsl").read_text("utf-8"))
        Controller(program, blocked_config, seed=0).run()
        first = len(written)
        assert len({id(node) for node in written}) == first
        assert any(isinstance(node, DistanceCovered) for node in written)  # a failed query
        Controller(program, blocked_config, seed=1).run()
        assert len(written) == first

    @pytest.mark.parametrize("name", ["peg_in_hole.adsl", "reverse_demo.adsl",
                                      "barrier_demo.adsl", "stats_insert.adsl"])
    def test_runs_of_one_program_write_the_bytes_of_fresh_parses(self, name, blocked_config):
        text = EXAMPLES.joinpath(name).read_text("utf-8")
        program = parse_program(text)

        def trace_text(program):
            controller = Controller(program, blocked_config, seed=3)
            controller.run()
            return controller.trace.serialize()

        fresh = trace_text(parse_program(text))
        assert fresh == trace_text(parse_program(text))
        assert trace_text(program) == fresh and trace_text(program) == fresh


class TestAdvancedMove:
    def test_free_path_success_returns_to_start(self):
        program = build(ADV_MOVE_TEMPLATE.format(distance=0.30, threshold=0.20))
        controller = Controller(program, quiet_config(), seed=0)
        result = controller.run()
        assert result.completed and result.stats.errors == 0
        ends = of_kind(controller.trace, EventKind.ATTEMPT_END)
        assert len(ends) == 1
        assert ends[0].data["outcome"] == "success"
        assert ends[0].data["covered"] > 0.20
        # on_success return_to_initial_position restored the pose.
        assert controller.ctx.workcell.state.joints == (0.0, 0.0, 0.1, 0.0, 0.0, 0.0)

    def test_wall_trips_guard_and_fails_evaluation(self):
        # Hand-simulated with zero noise: the TCP reaches the wall at
        # covered=0.15, the next read averages 50 into the window and the
        # guard trips; 0.15 < 0.20 so the attempt fails.
        program = build(ADV_MOVE_TEMPLATE.format(distance=0.30, threshold=0.20))
        controller = Controller(program, quiet_config(obstacles=[WALL_AT_15CM]), seed=0)
        result = controller.run()
        ends = of_kind(controller.trace, EventKind.ATTEMPT_END)
        assert len(ends) == 4  # 1 + 3 perturbation retries
        for e in ends:
            assert e.data["guard_stopped"] is True
            assert e.data["covered"] == pytest.approx(0.15, abs=1e-9)
            assert e.data["outcome"] == "fail"
        errors = of_kind(controller.trace, EventKind.ERROR_SIGNALED)
        assert [e.data["error"] for e in errors] == ["stuck"]
        assert result.completed  # recovery ran, sequence resumed

    def test_wall_ends_an_unguarded_attempt_short_of_its_distance(self):
        # No stop_if: the wall stops the motion at covered=0.15 and the
        # attempt ends there instead of stepping in place to the cycle cap.
        program = build(
            'advanced_move "m" {\n'
            "  specification { distance 0.30 direction forward frame tcp; }\n"
            "  evaluation { distance_covered(more_than, 0.20); }\n"
            "  on_fail { return_to_initial_position; }\n"
            "}\n"
            'sequence "main" { adv_move "m"; }'
        )
        controller = Controller(program, quiet_config(obstacles=[WALL_AT_15CM]), seed=0)
        assert controller.run().completed
        (end,) = of_kind(controller.trace, EventKind.ATTEMPT_END)
        assert end.data["guard_stopped"] is False
        assert end.data["covered"] == pytest.approx(0.15, abs=1e-9)
        assert end.data["outcome"] == "fail"
        guarded = [e.data for e in of_kind(controller.trace, EventKind.MOTION_SAMPLE)
                   if "covered" in e.data]
        assert [d["advanced"] == 0.0 for d in guarded].count(True) == 1
        assert guarded[-1]["contact"] and guarded[-1]["advanced"] == 0.0

    def test_attempt_bound_without_repeat(self):
        program = build(
            'error "stuck" { recovery_sequence "rec"; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'advanced_move "m" {\n'
            "  specification { distance 0.05 direction forward frame tcp; }\n"
            "  evaluation { distance_covered(more_than, 0.2); }\n"
            '  on_fail { throw_error("stuck"); }\n'
            "}\n"
            'sequence "main" { adv_move "m"; }\n'
            'entry "main";'
        )
        controller = Controller(program, quiet_config(), seed=0)
        controller.run()
        assert len(of_kind(controller.trace, EventKind.ATTEMPT_BEGIN)) == 1

    def test_guard_overshoot_bound(self):
        # speed slow (0.05), dt 0.008, window 5: advance past first contact
        # must stay within speed*dt*(window+1).
        program = build(ADV_MOVE_TEMPLATE.format(distance=0.30, threshold=0.20))
        controller = Controller(program, quiet_config(obstacles=[WALL_AT_15CM]), seed=0)
        controller.run()
        worst = max_overshoot_past_first_contact(controller.trace)
        assert worst is not None
        assert worst <= 0.05 * 0.008 * 6

    def test_adv_speed_is_a_lasting_setting(self):
        program = build(ADV_MOVE_TEMPLATE.format(distance=0.02, threshold=0.01))
        controller = Controller(program, quiet_config(), seed=0)
        controller.run()
        changes = of_kind(controller.trace, EventKind.SETTING_CHANGE)
        assert changes and changes[0].data["speed"] == "slow"
        assert controller.ctx.active_speed.value == "slow"

    def test_condition_false_is_failed_attempt_without_motion(self):
        program = build(
            'error "stuck" { recovery_sequence "rec"; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'advanced_move "m" {\n'
            "  condition forces_exceed(1.0);\n"
            "  specification { distance 0.05 direction forward frame tcp; }\n"
            "  evaluation { distance_covered(more_than, 0.01); }\n"
            '  on_fail { throw_error("stuck"); }\n'
            "}\n"
            'sequence "main" { adv_move "m"; }\n'
            'entry "main";'
        )
        controller = Controller(program, quiet_config(), seed=0)
        controller.run()
        ends = of_kind(controller.trace, EventKind.ATTEMPT_END)
        assert len(ends) == 1
        assert ends[0].data["covered"] == 0.0
        assert ends[0].data["failed"] == ["condition"]

    def test_failed_queries_are_program_text(self):
        # Their reprs, 5e-05 and 2e+16, are not adsl: the grammar has no exponent.
        program = build(GUARDED.format(
            "0.01", "forces_exceed(0.00005); distance_covered(more_than, 20000000000000000.0)",
            "return_to_initial_position;"))
        controller = Controller(program, quiet_config(), seed=0)
        assert controller.run().completed
        [end] = of_kind(controller.trace, EventKind.ATTEMPT_END)
        queries = program.adv_moves["m"].eval_queries
        assert end.data["failed"] == [format_query(q) for q in queries]
        for text, query in zip(end.data["failed"], queries):
            reread = build(GUARDED.format("0.01", text, "return_to_initial_position;"))
            assert reread.adv_moves["m"].eval_queries == (query,)


def _noop(ctx, items):
    pass


def _failing_call_registry(fail_times, error_name="flaky", reverse=None):
    """Stub action that signals `error_name` on its first `fail_times` runs;
    `reverse` makes it undoable."""
    registry = default_registry()
    state = {"runs": 0}

    def flaky(ctx, items):
        state["runs"] += 1
        if state["runs"] <= fail_times:
            ctx.signal_error(error_name)

    registry.register("flaky", flaky, reverse)
    return registry, state


class TestErrorHandling:
    def test_recovery_then_sequence_resume(self):
        # respond_after current_action + return_to sequence: recovery runs
        # after the failing instruction, then the sequence resumes.
        program = build(
            GRIPPER_OPS
            + 'error "flaky" { recovery_sequence "rec"; respond_after current_action; return_to sequence; }\n'
            'sequence "rec" { io "gripper_open"; }\n'
            'sequence "main" { call "flaky" (); io "gripper_close"; }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(1)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        result = controller.run()
        assert result.completed
        assert state["runs"] == 1  # resumed after the call, not at it
        assert result.stats.errors == 1
        assert result.stats.recoveries == 1
        kinds = [e.kind for e in controller.trace.events]
        sig = kinds.index(EventKind.ERROR_SIGNALED)
        rec = kinds.index(EventKind.RECOVERY_BEGIN)
        assert rec > sig
        assert controller.ctx.workcell.state.io_bits[0] is True

    def test_return_to_action_retries_until_success(self):
        program = build(
            'error "flaky" { recovery_sequence "rec"; return_to action; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { call "flaky" (); wait 0.1; }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(2)
        result = Controller(program, quiet_config(), seed=0, registry=registry).run()
        assert result.completed
        assert state["runs"] == 3  # two failures, then success
        assert result.stats.errors == 2

    def test_loop_guard_aborts_after_six_failures(self):
        program = build(
            'error "flaky" { recovery_sequence "rec"; return_to action; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { call "flaky" (); }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(10**9)
        result = Controller(program, quiet_config(), seed=0, registry=registry).run()
        assert not result.completed
        assert "loop guard" in result.reason
        assert result.stats.errors == 6

    def test_restart_program(self):
        program = build(
            'error "flaky" { recovery_sequence "rec"; return_to restart_program; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { wait 0.02; call "flaky" (); }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(1)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        result = controller.run()
        assert result.completed
        begins = [
            e.data["text"]
            for e in of_kind(controller.trace, EventKind.INSTR_BEGIN)
        ]
        assert begins.count("wait 0.02;") == 2

    def test_respond_after_current_sequence_defers(self):
        program = build(
            'error "flaky" { recovery_sequence "rec"; respond_after current_sequence; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { call "flaky" (); wait 0.1; wait 0.2; }\n'
            'entry "main";'
        )
        registry, _ = _failing_call_registry(1)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        assert controller.run().completed
        events = controller.trace.events
        sig = next(i for i, e in enumerate(events) if e.kind is EventKind.ERROR_SIGNALED)
        rec = next(i for i, e in enumerate(events) if e.kind is EventKind.RECOVERY_BEGIN)
        later_instrs = [
            e.data["text"]
            for e in events[sig:rec]
            if e.kind is EventKind.INSTR_END
        ]
        # The rest of the sequence ran before recovery started.
        assert "wait 0.1;" in later_instrs and "wait 0.2;" in later_instrs

    def test_respond_immediately_aborts_instruction(self):
        program = build(
            'error "flaky" { recovery_sequence "rec"; respond_after immediately; return_to action; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { call "flaky" (); }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(1)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        assert controller.run().completed
        aborted = [
            e
            for e in of_kind(controller.trace, EventKind.INSTR_END)
            if e.data.get("aborted")
        ]
        assert len(aborted) == 1
        assert state["runs"] == 2

    @pytest.mark.parametrize("handler", [
        'error "flaky" { recovery_sequence "rec"; return_to action; }\n',
        'error "flaky" { return_to action; }\n',  # one step of reversal
    ], ids=["recovery_sequence", "reversal"])
    def test_seq_call_end_keeps_entry_state_after_error_inside(self, handler):
        # The error inside the call rebuilds its frames; the call's end event
        # still reports the state at the call's entry, with bit 0 low.
        program = build(
            'io_operation "on" { set_high; bit 0; }\n'
            + handler
            + 'sequence "rec" { wait 0.01; }\n'
            'sequence "sub" { io "on"; call "flaky" (); wait 0.1; }\n'
            'sequence "main" { seq "sub"; }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(1, reverse=lambda ctx, items: None)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        assert controller.run().completed
        assert state["runs"] == 2
        begin, end = [e for e in controller.trace.events if e.data.get("text") == 'seq "sub";']
        assert (end.kind, end.pre_bits[0], end.post_bits[0]) == (EventKind.INSTR_END, False, True)
        assert end.pre_joints == begin.post_joints

    def test_error_during_recovery_aborts(self):
        program = build(
            'error "flaky" { recovery_sequence "rec"; }\n'
            'sequence "rec" { call "flaky" (); }\n'
            'sequence "main" { call "flaky" (); }\n'
            'entry "main";'
        )
        registry, _ = _failing_call_registry(10**9)
        result = Controller(program, quiet_config(), seed=0, registry=registry).run()
        assert not result.completed
        assert "during recovery" in result.reason

    @pytest.mark.parametrize("respond", ["immediately", "current_action"])
    def test_error_from_reverse_callback_during_reversal_aborts(self, respond):
        # Reversal undoes the failed call itself, and its reverse callback
        # signals again while the first error is being resolved.
        program = build(
            f'error "flaky" {{ respond_after {respond}; return_to action; }}\n'
            'sequence "main" { wait 0.01; call "flaky" (); }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(
            1, reverse=lambda ctx, items: ctx.signal_error("flaky")
        )
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        result = controller.run()
        assert not result.completed
        assert result.reason == "error 'flaky' during recovery"
        assert state["runs"] == 1

    @pytest.mark.parametrize("respond,abort", [
        ("immediately", False), ("current_action", False), ("current_action", True),
    ])
    def test_error_from_reverse_callback_after_the_run_aborts_the_reversal(self, respond, abort):
        # No run is open to respond to the error, whether the run completed
        # or aborted (here at an undeclared error, with its frame left open).
        program = build(
            f'error "oops" {{ recovery_sequence "rec"; respond_after {respond}; }}\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { call "undoable" (); call "stop" (); }\n'
            'entry "main";'
        )
        def stop(ctx, items):
            if abort:
                ctx.signal_error("ghost")

        registry = default_registry()
        registry.register("undoable", _noop, lambda ctx, items: ctx.signal_error("oops"))
        registry.register("stop", stop, _noop)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        assert controller.run().completed is not abort
        with pytest.raises(RunAborted, match="^error 'oops' during reversal$"):
            reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
        assert controller.ctx.pending == []

    def test_collision_in_a_reversal_after_the_run_aborts_it(self):
        # The reverse callback drives through a wall; the blocked move is the
        # same `RunAborted` that a run reports as its reason.
        program = build('sequence "main" { call "undoable" (); }\nentry "main";')
        registry = default_registry()
        registry.register(
            "undoable", _noop, lambda ctx, items: ctx.move_joints_to((0.3, 0, 0, 0, 0, 0))
        )
        config = WorkcellConfig(
            noise_sigma=0.0, obstacles=(Obstacle((0.15, -0.5, -0.5), (0.25, 0.5, 0.5)),)
        )
        controller = Controller(program, config, seed=0, registry=registry)
        assert controller.run().completed
        with pytest.raises(RunAborted, match=r"^collision during move: blocked at \(0\.15, "):
            reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)

    def test_reversal_into_a_recovery_sequence_resumes_outside_it(self):
        # "flaky"'s second reversal also undoes the wait of "late"'s recovery
        # sequence, which ran at the end of "main". Forward execution resumes
        # at "flaky", not inside "rec", whose frame is not a call.
        program = build(
            'error "late" { recovery_sequence "rec"; respond_after current_sequence; }\n'
            'error "flaky" { return_to action; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { call "late" (); call "flaky" (); }\n'
            'entry "main";'
        )
        runs = []

        def flaky(ctx, items):
            runs.append(ctx.stack)
            if len(runs) in (2, 3):
                ctx.signal_error("flaky")

        registry = default_registry()
        registry.register("late", lambda ctx, items: ctx.signal_error("late"))
        registry.register("flaky", flaky, _noop)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        result = controller.run()
        assert result.completed, result.reason
        assert (result.stats.errors, result.stats.recoveries) == (3, 3)
        assert runs == [(("main", 1),)] * 4
        undone = [e.data["indices"] for e in of_kind(controller.trace, EventKind.REVERSE_END)]
        assert [len(indices) for indices in undone] == [1, 2]
        assert controller.trace.events[undone[1][1]].stack == (("main", 2), ("rec", 0))

    def test_deferred_error_survives_another_resolution(self):
        # "late" waits for the end of "main"; "flaky" is resolved before
        # that, and "main" keeps its frame, so "late" is still handled.
        program = build(
            'error "late" { recovery_sequence "rec"; respond_after current_sequence; }\n'
            'error "flaky" { recovery_sequence "rec"; respond_after immediately; return_to action; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { call "late" (); call "flaky" (); wait 0.1; }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(1)
        registry.register("late", lambda ctx, items: ctx.signal_error("late"))
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        result = controller.run()
        assert result.completed
        assert (result.stats.errors, result.stats.recoveries) == (2, 2)
        begins = of_kind(controller.trace, EventKind.RECOVERY_BEGIN)
        assert [e.data["error"] for e in begins] == ["flaky", "late"]
        assert controller.ctx.pending == []

    def test_waiting_error_goes_with_the_frame_a_resume_drops(self):
        # The third "e" waits on "sub"'s frame; the second reversal undoes
        # back into "main" and resumes there, dropping that frame. The bytes
        # are those of a run that never handles the third "e", and nothing
        # is left waiting.
        program = build(
            'error "e" { respond_after current_sequence; }\n'
            'sequence "sub" { call "f" (); call "f" (); }\n'
            'sequence "main" { wait 0.01; seq "sub"; }\n'
            'entry "main";'
        )
        runs = []

        def f(ctx, items):
            runs.append(ctx.stack)
            if len(runs) <= 3:
                ctx.signal_error("e")

        registry = default_registry()
        registry.register("f", f, _noop)
        options = ControllerOptions(resume_policy=ResumePolicy(PolicyMode.EXPONENTIAL, 2))
        controller = Controller(
            program, WorkcellConfig(noise_sigma=0.0), seed=0, registry=registry, options=options
        )
        result = controller.run()
        assert result.completed
        assert (result.stats.errors, result.stats.recoveries) == (3, 2)
        assert len(controller.trace.events) == 26
        digest = hashlib.sha256(controller.trace.serialize().encode()).hexdigest()
        assert digest == "c2ba8e3708dc3dc13a027d8f62b843c6beb7fa183e506efca57df2de6480ee40"
        assert controller.ctx.pending == []
        assert controller.ctx.frames == []

    def test_restart_program_discards_waiting_errors(self):
        # "late" waits on "sub"'s frame and "later" on "main"'s; the restart
        # after "boom" discards both, so only "boom" is ever handled.
        program = build(
            'error "late" { recovery_sequence "rec"; respond_after current_sequence; }\n'
            'error "later" { recovery_sequence "rec"; respond_after current_sequence; }\n'
            'error "boom" { recovery_sequence "rec"; return_to restart_program; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "sub" { call "late" (); call "flaky" (); }\n'
            'sequence "main" { call "later" (); seq "sub"; }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(1, error_name="boom")
        signaled = []

        def once(name):
            def action(ctx, items):
                if name not in signaled:
                    signaled.append(name)
                    ctx.signal_error(name)
            return action

        registry.register("late", once("late"))
        registry.register("later", once("later"))
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        result = controller.run()
        assert result.completed, result.reason
        begins = of_kind(controller.trace, EventKind.RECOVERY_BEGIN)
        assert [e.data["error"] for e in begins] == ["boom"]
        assert state["runs"] == 2
        assert (controller.ctx.pending, controller.ctx.frames) == ([], [])

    def test_shared_options_give_identical_traces(self):
        # The resume policy's occurrence counts belong to the run, so a
        # second run with the same options reverses exactly as the first.
        program = build(
            'error "flaky" { return_to action; }\n'
            'sequence "main" { wait 0.01; wait 0.02; wait 0.03; call "flaky" (); }\n'
            'entry "main";'
        )
        options = ControllerOptions(resume_policy=ResumePolicy(mode=PolicyMode.LINEAR))
        traces = []
        for _ in range(2):
            registry, _ = _failing_call_registry(3, reverse=lambda ctx, items: None)
            controller = Controller(
                program, quiet_config(), seed=0, registry=registry, options=options
            )
            assert controller.run().completed
            depths = [e.data["depth"] for e in of_kind(controller.trace, EventKind.REVERSE_BEGIN)]
            assert depths == [1, 2, 3]
            traces.append(controller.trace.serialize())
        assert traces[0] == traces[1]
        with pytest.raises(AttributeError, match="cannot assign to field 'base_depth'"):
            options.resume_policy.base_depth = 2

    def test_undeclared_error_aborts(self):
        program = build('sequence "main" { call "boom" (); }')
        registry = default_registry()
        registry.register("boom", lambda ctx, items: ctx.signal_error("ghost"))
        result = Controller(program, quiet_config(), seed=0, registry=registry).run()
        assert not result.completed
        assert "undeclared error" in result.reason

    def test_restart_mode_reruns_sequence_from_top(self):
        program = build(
            GRIPPER_OPS
            + 'error "flaky" { recovery_sequence "rec"; return_to sequence; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { io "gripper_close"; call "flaky" (); }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(1)
        options = ControllerOptions(return_to_sequence="restart")
        controller = Controller(
            program, quiet_config(), seed=0, registry=registry, options=options
        )
        result = controller.run()
        assert result.completed
        assert state["runs"] == 2  # the call re-ran after the restart
        begins = [
            e.data["text"] for e in of_kind(controller.trace, EventKind.INSTR_BEGIN)
        ]
        assert begins.count('io "gripper_close";') == 2

    def test_unknown_return_to_sequence_mode_is_rejected(self):
        with pytest.raises(ValueError, match="return_to_sequence must be 'resume' or 'restart'"):
            ControllerOptions(return_to_sequence="Restart")

    def test_options_are_checked_when_built_and_frozen(self):
        with pytest.raises(ValueError, match="got 'Restart'"):
            ControllerOptions(return_to_sequence="Restart")
        options = ControllerOptions()
        Controller(build('sequence "main" { wait 0.01; }'), quiet_config(), options=options)
        # The run's context shares the caller's options, so no field can change.
        for field, value in (("return_to_sequence", "Restart"),
                             ("resume_policy", ResumePolicy(PolicyMode.EXPONENTIAL)),
                             ("record_motion_samples", False)):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(options, field, value)
        assert options == ControllerOptions()

    @pytest.mark.parametrize("field, value", [
        ("resume_policy", "linear"),
        ("resume_policy", PolicyMode.LINEAR),
        ("record_motion_samples", "no"),
        ("record_motion_samples", 0),
    ])
    def test_options_of_the_wrong_type_are_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be a"):
            ControllerOptions(**{field: value})

    @pytest.mark.parametrize("seed, error", [
        (-5, ValueError), (MAX_RNG_SEED + 1, ValueError),
        (True, TypeError), (5.0, TypeError), ("5", TypeError),
    ])
    def test_seed_must_be_an_int_in_the_config_range(self, seed, error):
        program = build('sequence "main" { wait 0.01; }')
        with pytest.raises(error, match="^seed must be"):
            Controller(program, quiet_config(), seed=seed)
        for accepted in (None, 0, MAX_RNG_SEED):
            assert Controller(program, quiet_config(), seed=accepted).run().completed

    def test_reversal_guard_aborts_an_error_recurring_against_boundaries(self):
        # Every odd run fails, and each reversal stops at the failing call: it
        # has no reverse callback. The sixth occurrence crosses the guard.
        program = build('error "e" { }\nsequence "main" { ' + 'call "flaky" (); ' * 6 + "}")
        registry = default_registry()
        runs = []

        def flaky(ctx, items):
            runs.append(None)
            if len(runs) % 2:
                ctx.signal_error("e")

        registry.register("flaky", flaky)
        result = Controller(program, quiet_config(), seed=0, registry=registry).run()
        assert not result.completed
        assert result.reason == "error 'e' recurred 6 times against an irreversible boundary"

    def test_recovery_bracketing(self, corpus_program, blocked_config):
        controller = Controller(corpus_program, blocked_config, seed=0)
        result = controller.run()
        begins = of_kind(controller.trace, EventKind.RECOVERY_BEGIN)
        ends = of_kind(controller.trace, EventKind.RECOVERY_END)
        assert result.completed
        assert len(begins) == len(ends) == 1


class TestTraceInvariants:
    def test_replay_reproduces_final_state(self, corpus_program, blocked_config):
        controller = Controller(corpus_program, blocked_config, seed=0)
        controller.run()
        joints = controller.ctx.workcell.config.home_joints
        bits = (False,) * controller.ctx.workcell.config.bit_count
        for event in controller.trace.events:
            joints = event.post_joints
            bits = event.post_bits
        final = controller.ctx.workcell.state
        assert bits == final.bits()
        assert all(abs(a - b) <= 1e-12 for a, b in zip(joints, final.joints))

    def test_events_strictly_ordered(self, corpus_program, aligned_config):
        controller = Controller(corpus_program, aligned_config, seed=0)
        controller.run()
        last = (-math.inf, -1)
        for event in controller.trace.events:
            key = (event.clock, event.index)
            assert key > last
            last = key

    def test_trace_determinism(self, corpus_program, blocked_config):
        def run_once():
            controller = Controller(corpus_program, blocked_config, seed=7)
            controller.run()
            return controller.trace.serialize()

        assert run_once() == run_once()

    def test_different_seed_differs(self, corpus_program, blocked_config):
        def run_once(seed):
            controller = Controller(corpus_program, blocked_config, seed=seed)
            controller.run()
            return controller.trace.serialize()

        assert run_once(1) != run_once(2)

    @pytest.mark.parametrize("handling", [
        'recovery_sequence "rec"; respond_after current_action; return_to action;',
        "",  # no recovery sequence: progressive reversal
    ])
    def test_finished_run_is_freed_without_the_cycle_collector(self, handling):
        # A context that referred back to its controller made every run's
        # whole trace cyclic garbage, alive until a full collection.
        program = build(
            f'error "flaky" {{ {handling} }}\n'
            'sequence "rec" { wait 0.01; }\n'
            'sequence "main" { wait 0.01; call "flaky" (); wait 0.01; }\n'
            'entry "main";'
        )
        registry, state = _failing_call_registry(2)
        enabled = gc.isenabled()
        gc.disable()
        try:
            controller = Controller(program, quiet_config(), seed=0, registry=registry)
            result = controller.run()
            trace = weakref.ref(controller.trace)
            del controller
            assert trace() is None
        finally:
            if enabled:
                gc.enable()
        assert result.completed and result.stats.errors == 2


# Execution fuzz: any structurally valid program built from resolvable names
# runs without name-resolution failures.

IDENT_POOL = ["alpha", "beta", "gamma", "delta"]


@st.composite
def runnable_programs(draw):
    lines = [
        'io_operation "flip" { set_high; bit 1; }',
        'io_operation "flop" { set_low; bit 1; }',
    ]
    for name in IDENT_POOL:
        x = draw(st.floats(-0.05, 0.05))
        y = draw(st.floats(-0.05, 0.05))
        lines.append(
            f"joint_configuration {name} = {{ {x:.3f}, {y:.3f}, 0.1, 0.0, 0.0, 0.0 }};"
        )
    n_seqs = draw(st.integers(1, 3))
    seq_names = [f"s{i}" for i in range(n_seqs)]
    for i, seq in enumerate(seq_names):
        body = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.integers(0, 4))
            if kind == 0:
                body.append(f"move to {draw(st.sampled_from(IDENT_POOL))};")
            elif kind == 1:
                body.append(f'io "{draw(st.sampled_from(["flip", "flop"]))}";')
            elif kind == 2:
                body.append(f"wait {draw(st.floats(0.001, 0.01)):.4f};")
            elif kind == 3:
                body.append('call "noop" ();')
            elif i > 0:
                body.append(f'seq "{draw(st.sampled_from(seq_names[:i]))}";')
            else:
                body.append('call "noop" ();')
        lines.append(f'sequence "{seq}" {{ {" ".join(body)} }}')
    lines.append(f'entry "{seq_names[-1]}";')
    return "\n".join(lines)


@given(runnable_programs())
@settings(max_examples=25, deadline=None)
def test_valid_programs_execute_without_resolution_failures(text):
    program = build(text)
    config = WorkcellConfig(noise_sigma=0.0, home_joints=(0.0, 0.0, 0.1, 0.0, 0.0, 0.0))
    options = ControllerOptions(record_motion_samples=False)
    result = Controller(program, config, seed=0, options=options).run()
    assert result.completed, result.reason


GUARDED_ONLY = """
advanced_move "down" {
  specification { distance 1.0 direction down frame base; }
  evaluation { forces_exceed(1000); }
  on_fail { return_to_initial_position; }
}
sequence "s" { adv_move "down"; }
"""

FAR_MOVE = """
joint_configuration far = { 1.0, 0.0, 0.1, 0.0, 0.0, 0.0 };
sequence "s" { move to far; }
"""


class TestControlCycleCap:
    @pytest.mark.parametrize("config", ["aligned_config", "blocked_config"])
    def test_cycles_count_every_step(self, request, corpus_program, config):
        controller = Controller(corpus_program, request.getfixturevalue(config), seed=1)
        assert controller.run().completed
        # Guarded attempts and plain moves both emit one sample per cycle.
        samples = of_kind(controller.trace, EventKind.MOTION_SAMPLE)
        assert any("covered" in e.data for e in samples)
        assert any("covered" not in e.data for e in samples)
        assert controller.ctx.cycles == len(samples)
        assert 100 * controller.ctx.cycles <= controller_module.MAX_CONTROL_CYCLES

    @pytest.mark.parametrize("text", [GUARDED_ONLY, FAR_MOVE], ids=["guarded", "move"])
    def test_cap_aborts_the_run(self, monkeypatch, text):
        monkeypatch.setattr(controller_module, "MAX_CONTROL_CYCLES", 100)
        controller = Controller(build(text), quiet_config(), seed=0)
        result = controller.run()
        assert not result.completed
        assert result.reason == "control cycles exceed MAX_CONTROL_CYCLES (100)"
        assert len(of_kind(controller.trace, EventKind.MOTION_SAMPLE)) == controller.ctx.cycles == 100


def _value_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


class TestNoValuesPerCycle:
    """A control cycle builds no value object: a guarded move and its return
    build as many whatever their length. Counted, not timed."""

    def value_and_cycle_counts(self, monkeypatch, config):
        """(values built, control cycles) of a guarded move and its return,
        for a short and a long move on `config`; no cycle calls `step_motion`."""
        built = []
        for cls in set(_value_classes(Value)):
            init = cls.__dict__["__init__"]  # every value class has its own

            def counting(self, *args, _init=init, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        steps = []
        monkeypatch.setattr(Workcell, "step_motion", lambda *args: steps.append(args))
        options = ControllerOptions(record_motion_samples=False)
        counts = []
        for distance in (0.04, 0.4):  # down and back: ~100 and ~1,000 cycles
            controller = Controller(build(GUARDED_ONLY.replace("1.0", str(distance))),
                                    config, seed=0, options=options)
            del built[:]
            assert controller.run().completed
            counts.append((len(built), controller.ctx.cycles))
        assert steps == []
        return counts

    def test_value_count_does_not_grow_with_cycles(self, monkeypatch):
        """With obstacles out of reach whose hull holds every move, so that
        every cycle, the return move's too, tests its step against them."""
        counts = self.value_and_cycle_counts(monkeypatch, with_far_obstacle(quiet_config()))
        (short_values, short_cycles), (long_values, long_cycles) = counts
        assert short_cycles >= 100 and long_cycles >= 9 * short_cycles
        assert short_values == long_values

    def test_value_count_does_not_grow_with_cycles_in_a_free_cell(self, monkeypatch):
        counts = self.value_and_cycle_counts(monkeypatch, quiet_config())
        (short_values, short_cycles), (long_values, long_cycles) = counts
        assert short_cycles >= 100 and long_cycles >= 9 * short_cycles
        assert short_values == long_values


class TestMoveRange:
    """A move whose span from start to target is not finite, or whose speed
    is not a positive finite number, aborts before its first cycle."""

    @pytest.mark.parametrize("move", [
        lambda ctx: ctx.move_joints_to([math.inf] * 6),
        lambda ctx: ctx.move_joints_to((0.1, 0.0, 0.1, 0.0, 0.0, 0.0), math.nan),
        lambda ctx: ctx.move_joints_to((0.1, 0.0, 0.1, 0.0, 0.0, 0.0), "fast"),
        lambda ctx: ctx.move_joints_to((0.1, 0.0, 0.1, 0.0, 0.0, 0.0), True),
        lambda ctx: ctx.move_joints_to((0.1, 0.0, 0.1, 0.0, 0.0, 0.0), 10 ** 400),
    ], ids=["infinite_joints", "nan_speed", "str_speed", "bool_speed", "int_speed_beyond_float"])
    def test_callback_move_aborts(self, monkeypatch, move):
        monkeypatch.setattr(controller_module, "MAX_CONTROL_CYCLES", 50)
        registry = default_registry()
        registry.register("far", lambda ctx, items: move(ctx))
        controller = Controller(
            build('sequence "s" { call "far" (); }'), quiet_config(), seed=0, registry=registry
        )
        result = controller.run()
        assert not result.completed
        assert result.reason.startswith("move out of range: ")
        assert controller.ctx.cycles == 0
        for line in controller.trace.serialize().splitlines():
            json.loads(line)

    @pytest.mark.parametrize("move, reason", [
        (lambda ctx: ctx.move_joints_to((0.1, 0.2) + (0.0, 0.0, 0.0), 0.1),
         "move joints must be 6 ints or floats, got (0.1, 0.2, 0.0, 0.0, 0.0)"),
        (lambda ctx: ctx.move_joints_to(["a"] * 6),
         "move joints must be 6 ints or floats, got ('a', 'a', 'a', 'a', 'a', 'a')"),
        (lambda ctx: ctx.move_joints_to((0.1, 0.2, 0.3)),
         "move joints must be 6 ints or floats, got (0.1, 0.2, 0.3)"),
        (lambda ctx: ctx.move_joints_to((0.1, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0)),
         "move joints must be 6 ints or floats, got (0.1, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0)"),
        (lambda ctx: ctx.move_joints_to((0.1, "0.2", 0.1, 0.0, 0.0, 0.0), 0.1),
         "move joints must be 6 ints or floats, got (0.1, '0.2', 0.1, 0.0, 0.0, 0.0)"),
        (lambda ctx: ctx.move_joints_to(((0.1, 0.0, 0.1), (0.0, 0.0, 0.0)), 0.1),
         "move joints must be 6 ints or floats, got ((0.1, 0.0, 0.1), (0.0, 0.0, 0.0))"),
        (lambda ctx: ctx.move_joints_to(0.1, 0.1),
         "move joints must be 6 ints or floats, got 0.1"),
        (lambda ctx: ctx.move_joints_to((True, 0.0, 0.1, 0, 0, 0)),
         "move joints must be 6 ints or floats, got (True, 0.0, 0.1, 0, 0, 0)"),
    ], ids=["short_position", "str_joints", "three_joints", "seven_joints", "str_coordinate",
            "position_orientation_pair", "not_iterable", "bool_joints"])
    def test_callback_malformed_target_aborts(self, move, reason):
        registry = default_registry()
        registry.register("bad", lambda ctx, items: move(ctx))
        controller = Controller(
            build('sequence "s" { call "bad" (); }'), quiet_config(), seed=0, registry=registry
        )
        result = controller.run()
        assert not result.completed
        assert result.reason == reason
        assert controller.ctx.cycles == 0

    def test_callback_int_coordinates_move_as_floats(self):
        traces = []
        for coords in [(0, 0, 1, 0, 0, 0), (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)]:
            registry = default_registry()
            registry.register("up", lambda ctx, items: ctx.move_joints_to(coords, 0.5))
            controller = Controller(
                build('sequence "s" { call "up" (); }'), quiet_config(), seed=0, registry=registry
            )
            assert controller.run().completed
            assert controller.ctx.workcell.state.joints == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
            assert {type(j) for j in controller.ctx.workcell.state.joints} == {float}
            traces.append(controller.trace.serialize())
        assert traces[0] == traces[1]


class TestSampleTypes:
    """The move loop hands `move_sample`/`attempt_sample` exact types, which
    their streamed template writes without a type test: a float clock and
    reals, a bool `contact`, six floats per joints. Ints enter by every door
    a directly built config and a callback leave open."""

    PROGRAM = """
        joint_configuration far = { 10, 0, 0, 0, 0, 0 };
        advanced_move "probe" {
          specification { distance 7 direction up frame base; stop_if forces_exceed(5); }
          evaluation { distance_covered(more_than, 1); }
          on_success { return_to_initial_position; }
          on_fail { return_to_initial_position; }
        }
        sequence "s" { move to far; adv_move "probe"; call "pose" (); }
        entry "s";
    """
    #: Above the guarded move, out of the pose moves' way.
    ROOF = Obstacle((5.0, -1.0, 3.0), (15.0, 1.0, 4.0))

    @pytest.mark.parametrize("obstacles", [(), (ROOF,)], ids=["free", "roof"])
    def test_move_loops_hand_the_trace_exact_types(self, obstacles):
        config = WorkcellConfig(
            home_joints=(0, 0, 0, 0, 0, 0), dt=1, noise_sigma=0, contact_force=50,
            speed_map=dict(zip(SpeedLevel, (5, 4, 3, 2, 1))), obstacles=obstacles,
        )
        registry = default_registry()
        registry.register("pose", lambda ctx, items: ctx.move_joints_to((0, 0, 0, 0, 0, 1), 1))
        samples = []

        def checked(method, keys):
            contact_at = keys.index("contact")

            def sample(clock, stack, speed, pre_joints, joints, bits, *data):
                reals = (clock,) + data[:contact_at] + data[contact_at + 1:]
                samples.append((keys, data[contact_at], reals, pre_joints + joints))
                method(clock, stack, speed, pre_joints, joints, bits, *data)
            return sample

        sink = io.StringIO()
        traces = []
        for trace_sink in (sink, None):
            controller = Controller(build(self.PROGRAM), config, seed=0, trace_sink=trace_sink,
                                    registry=registry)
            trace = controller.trace
            trace.move_sample = checked(trace.move_sample, MOVE_SAMPLE_KEYS)
            trace.attempt_sample = checked(trace.attempt_sample, ATTEMPT_SAMPLE_KEYS)
            assert controller.run().completed
            traces.append(trace)
        assert {keys for keys, *_ in samples} == {MOVE_SAMPLE_KEYS, ATTEMPT_SAMPLE_KEYS}
        assert any(contact for _, contact, *_ in samples) == bool(obstacles)
        for _, contact, reals, joints in samples:
            assert type(contact) is bool
            assert {type(x) for x in reals} == {float}
            assert len(joints) == 2 * JOINT_COUNT and {type(j) for j in joints} == {float}
        assert sink.getvalue() == traces[1].serialize()
        assert len(traces[0]) == len(traces[1].events)


class TestClockRange:
    """A wait or sleep that would make the clock infinite aborts, forward or
    reversed, and every trace line still parses."""

    BIG = "1" + "0" * 308 + ".0"  # 1e308: valid, but two of them overflow

    @pytest.mark.parametrize("text", [
        f'sequence "s" {{ wait {BIG}; wait {BIG}; }}',
        f'io_operation "nap" {{ sleep {BIG}; sleep {BIG}; }}\nsequence "s" {{ io "nap"; }}',
    ], ids=["wait", "sleep"])
    def test_forward_overflow_aborts(self, text):
        controller = Controller(build(text), quiet_config(), seed=0)
        result = controller.run()
        assert not result.completed
        assert result.reason == "clock out of range: 1e+308 + 1e+308"
        assert controller.ctx.workcell.state.clock == 1e308
        for line in controller.trace.serialize().splitlines():
            json.loads(line)

    def test_reversed_overflow_aborts(self):
        controller = Controller(build(f'sequence "s" {{ wait {self.BIG}; }}'),
                                quiet_config(), seed=0)
        assert controller.run().completed
        with pytest.raises(RunAborted, match=r"^clock out of range: 1e\+308 \+ 1e\+308$"):
            reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
