import os
import random

import pytest

from adsl.controller import Controller, ControllerOptions, default_registry
from adsl.model import (
    AdvMoveRef,
    Call,
    Io,
    MoveJoint,
    NonReversible,
    ReverseWith,
    SelectBit,
    SeqCall,
    SetHigh,
    SetLow,
    SkipOnReverse,
    Sleep,
    Wait,
)
from adsl.reverse import (
    PolicyMode,
    ResumePolicy,
    ReversibilityClass,
    RunAborted,
    StopReason,
    classify,
    invert_primitives,
    reverse_execute,
)
from adsl.trace import EventKind
from adsl.workcell import load_workcell_config


from _helpers import (
    ROOT, bench_generator, build, of_kind, quiet_config, random_reversible_program,
)


class TestClassify:
    def test_defaults(self):
        registry = default_registry()
        assert classify(Io("x")) is ReversibilityClass.ALWAYS_REVERSIBLE
        assert classify(Wait(1.0)) is ReversibilityClass.ALWAYS_REVERSIBLE
        assert classify(MoveJoint(("a",))) is ReversibilityClass.KINEMATIC_REVERSIBLE
        assert classify(AdvMoveRef("m")) is ReversibilityClass.KINEMATIC_REVERSIBLE
        assert classify(SeqCall("s")) is ReversibilityClass.ALWAYS_REVERSIBLE
        assert classify(Call("glue"), registry) is ReversibilityClass.NEVER_REVERSIBLE
        assert classify(Call("noop"), registry) is ReversibilityClass.ALWAYS_REVERSIBLE
        assert classify(Call("log"), registry) is ReversibilityClass.NEVER_REVERSIBLE

    def test_annotation_overrides(self):
        assert (
            classify(Call("glue", annotation=NonReversible()))
            is ReversibilityClass.NEVER_REVERSIBLE
        )
        assert (
            classify(MoveJoint(("a",), annotation=NonReversible()))
            is ReversibilityClass.NEVER_REVERSIBLE
        )
        assert (
            classify(Call("glue", annotation=ReverseWith(Io("x"))))
            is ReversibilityClass.ALWAYS_REVERSIBLE
        )
        assert (
            classify(Call("glue", annotation=SkipOnReverse()))
            is ReversibilityClass.ALWAYS_REVERSIBLE
        )


class TestInvertPrimitives:
    def test_single_write_keeps_shape(self):
        # gripper_close inverted: the level flips, select and sleep stay.
        prims = (SetHigh(), SelectBit(0), Sleep(0.5))
        assert invert_primitives(prims) == (SetLow(), SelectBit(0), Sleep(0.5))

    def test_multi_write_reverses_write_order(self):
        prims = (SetHigh(), SelectBit(0), SetLow(), SelectBit(1), Sleep(0.2))
        assert invert_primitives(prims) == (
            SetHigh(),
            SelectBit(1),
            Sleep(0.2),
            SetLow(),
            SelectBit(0),
        )


REVERSIBLE_DEMO = """
io_operation "on" { set_high; bit 2; sleep 0.05; }
io_operation "off" { set_low; bit 2; }
joint_configuration a = { 0.02, 0.0, 0.1, 0.0, 0.0, 0.0 };
joint_configuration b = { 0.02, 0.03, 0.12, 0.0, 0.0, 0.0 };
sequence "demo" {
  io "on";
  move to a;
  wait 0.05;
  move to b;
  io "off";
}
entry "demo";
"""


def run_and_reverse(text, depth=None, **config_overrides):
    program = build(text)
    controller = Controller(program, quiet_config(**config_overrides), seed=0)
    initial_joints = controller.ctx.workcell.state.joints
    initial_bits = controller.ctx.workcell.state.bits()
    result = controller.run()
    assert result.completed, result.reason
    plan = reverse_execute(
        controller.trace, depth, controller.ctx, registry=controller.registry
    )
    return controller, plan, initial_joints, initial_bits


class TestReverseExecute:
    def test_two_step_identity(self):
        text = (
            'io_operation "on" { set_high; bit 0; }\n'
            "joint_configuration a = { 0.03, 0.0, 0.1, 0.0, 0.0, 0.0 };\n"
            'sequence "s" { io "on"; move to a; }\n'
            'entry "s";'
        )
        controller, plan, joints0, bits0 = run_and_reverse(text, depth=2)
        state = controller.ctx.workcell.state
        assert plan.stop_reason is StopReason.DEPTH_REACHED
        assert state.bits() == bits0
        assert state.joints == joints0

    def test_an_omitted_registry_is_the_runs(self):
        # The default registry's "noop" has a reverse callback.
        program = build('sequence "s" { call "noop"(); wait 0.1; }')
        controller = Controller(program, quiet_config(), seed=0)
        assert controller.run().completed
        plan = reverse_execute(controller.trace, None, controller.ctx)
        assert plan.stop_reason is StopReason.TRACE_START
        assert len(plan.steps) == 2

    def test_full_depth_restores_initial_state(self):
        controller, plan, joints0, bits0 = run_and_reverse(REVERSIBLE_DEMO)
        state = controller.ctx.workcell.state
        assert plan.stop_reason is StopReason.TRACE_START
        assert state.bits() == bits0
        assert state.joints == joints0

    def test_depth_one_undoes_only_last_instruction(self):
        controller, plan, _, _ = run_and_reverse(REVERSIBLE_DEMO, depth=1)
        assert plan.stop_reason is StopReason.DEPTH_REACHED
        assert len(plan.steps) == 1
        # Last instruction set bit 2 low; its undo sets it high again.
        assert controller.ctx.workcell.state.io_bits[2] is True

    def test_barrier_stops_reversal(self):
        text = REVERSIBLE_DEMO.replace('wait 0.05;', '@barrier wait 0.05;')
        controller, plan, _, _ = run_and_reverse(text)
        assert plan.stop_reason is StopReason.BARRIER
        stopped_at = controller.trace.events[plan.stop_index]
        assert stopped_at.data["text"] == "@barrier wait 0.05;"
        # Two instructions after the barrier were undone, nothing more.
        assert len(plan.steps) == 2

    def test_never_reversible_stops_reversal(self):
        text = REVERSIBLE_DEMO.replace('move to a;', '@nonreversible move to a;')
        controller, plan, _, _ = run_and_reverse(text)
        assert plan.stop_reason is StopReason.NEVER_REVERSIBLE_HIT
        assert len(plan.steps) == 3

    def test_skip_on_reverse_is_a_noop(self):
        text = REVERSIBLE_DEMO.replace('io "off";', '@skip_on_reverse io "off";')
        controller, plan, _, bits0 = run_and_reverse(text)
        assert plan.stop_reason is StopReason.TRACE_START
        # The skipped undo leaves bit 2 as the forward run left it: low.
        assert controller.ctx.workcell.state.io_bits[2] is False

    def test_reverse_with_override(self):
        text = (
            'io_operation "mark" { set_high; bit 5; }\n'
            'io_operation "unmark" { set_low; bit 5; }\n'
            'io_operation "enable" { set_high; bit 6; }\n'
            'sequence "s" { io "enable"; @reverse_with(io "unmark") io "mark"; }\n'
            'entry "s";'
        )
        controller, plan, _, _ = run_and_reverse(text, depth=1)
        # The declared counterpart ran instead of the syntactic inversion.
        assert controller.ctx.workcell.state.io_bits[5] is False
        assert controller.ctx.workcell.state.io_bits[6] is True

    def test_reverse_with_payload_writing_a_bit_outside_the_cell_raises_run_aborted(self):
        text = (
            'io_operation "mark" { set_high; bit 5; }\n'
            'io_operation "bad" { set_high; bit 9; }\n'
            'sequence "s" { @reverse_with(io "bad") io "mark"; }\n'
            'entry "s";'
        )
        controller = Controller(build(text), quiet_config(), seed=0)
        assert controller.run().completed
        with pytest.raises(RunAborted, match=r"^io bit out of range: bit 9 outside 0\.\.7$"):
            reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)

    def test_seq_call_children_reversed_individually(self):
        text = (
            'io_operation "on" { set_high; bit 1; }\n'
            'io_operation "off" { set_low; bit 1; }\n'
            'sequence "inner" { io "on"; wait 0.01; }\n'
            'sequence "outer" { seq "inner"; io "off"; }\n'
            'entry "outer";'
        )
        controller, plan, _, bits0 = run_and_reverse(text)
        assert plan.stop_reason is StopReason.TRACE_START
        # Undone: off, wait, on (3 leaves); the call bracket is not counted.
        assert len(plan.steps) == 3
        assert controller.ctx.workcell.state.bits() == bits0

    @pytest.mark.parametrize("annotation, clock", [
        ("@skip_on_reverse", 0.1),
        ("@reverse_with(wait 0.5)", 0.6),
    ])
    def test_annotated_seq_call_is_undone_as_one_step(self, annotation, clock):
        text = (
            'io_operation "on" { set_high; bit 0; }\n'
            'sequence "sub" { io "on"; wait 0.1; }\n'
            f'sequence "main" {{ {annotation} seq "sub"; }}\n'
            'entry "main";'
        )
        controller, plan, _, _ = run_and_reverse(text)
        assert plan.stop_reason is StopReason.TRACE_START
        assert [s.data["text"] for s in plan.steps] == [f'{annotation} seq "sub";']
        state = controller.ctx.workcell.state
        # The children were not undone one by one: bit 0 stays high.
        assert state.io_bits[0] is True
        assert state.clock == pytest.approx(clock)

    def test_annotated_seq_call_subsumes_children_before_a_recovered_error(self):
        # The error inside the call resumes after its recovery on rebuilt
        # frames; the completed call is still one entry, recovery included.
        registry = default_registry()
        runs = {"n": 0}

        def flaky(ctx, items):
            runs["n"] += 1
            if runs["n"] == 1:
                ctx.signal_error("glitch")

        registry.register("flaky", flaky)
        text = (
            'io_operation "on" { set_high; bit 0; }\n'
            'sequence "fix" { wait 0.2; }\n'
            'error "glitch" { recovery_sequence "fix"; return_to action; }\n'
            'sequence "sub" { io "on"; call "flaky" (); wait 0.1; }\n'
            'sequence "main" { wait 0.01; @skip_on_reverse seq "sub"; }\n'
            'entry "main";'
        )
        controller = Controller(build(text), quiet_config(), seed=0, registry=registry)
        assert controller.run().completed
        assert [e.data["text"] for e in controller.ctx.undo_log] == [
            "wait 0.01;", '@skip_on_reverse seq "sub";'
        ]
        plan = reverse_execute(
            controller.trace, None, controller.ctx, registry=controller.registry
        )
        assert len(plan.steps) == 2
        assert controller.ctx.workcell.state.io_bits[0] is True

    def test_nonreversible_seq_call_shadows_children(self):
        text = (
            'io_operation "on" { set_high; bit 1; }\n'
            'io_operation "off" { set_low; bit 1; }\n'
            'sequence "inner" { io "on"; wait 0.01; }\n'
            'sequence "outer" { @nonreversible seq "inner"; io "off"; }\n'
            'entry "outer";'
        )
        controller, plan, _, _ = run_and_reverse(text)
        assert plan.stop_reason is StopReason.NEVER_REVERSIBLE_HIT
        assert len(plan.steps) == 1  # only the trailing io was undone

    def test_reversal_indices_strictly_decrease(self):
        controller, plan, _, _ = run_and_reverse(REVERSIBLE_DEMO)
        indices = [s.index for s in plan.steps]
        assert indices == sorted(indices, reverse=True)

    def test_settings_restored_per_entry(self):
        # The guarded move switches the lasting speed to slow; reversing the
        # earlier move must restore the speed recorded when it ran (normal).
        text = (
            "joint_configuration a = { 0.02, 0.0, 0.1, 0.0, 0.0, 0.0 };\n"
            'error "stuck" { recovery_sequence "rec"; }\n'
            'sequence "rec" { wait 0.01; }\n'
            'advanced_move "m" {\n'
            "  specification { distance 0.01 direction forward frame tcp; speed slow; }\n"
            "  evaluation { distance_covered(less_than, 999.0); }\n"
            '  on_fail { throw_error("stuck"); }\n'
            "}\n"
            'sequence "main" { move to a; adv_move "m"; }\n'
            'entry "main";'
        )
        controller, plan, _, _ = run_and_reverse(text)
        assert plan.stop_reason is StopReason.TRACE_START
        speeds = [s.speed.value for s in plan.steps]
        # Newest first: the guarded move ran at slow, the plain move at normal.
        assert speeds[0] == "slow"
        assert speeds[-1] == "normal"
        assert controller.ctx.active_speed.value == "normal"

    def test_clock_never_decreases_during_reversal(self):
        controller, plan, _, _ = run_and_reverse(REVERSIBLE_DEMO)
        clocks = [e.clock for e in controller.trace.events]
        assert clocks == sorted(clocks)


class TestResumePolicy:
    def test_linear_depths(self):
        policy = ResumePolicy(mode=PolicyMode.LINEAR, base_depth=1)
        assert [policy.depth_for(k) for k in range(1, 4)] == [1, 2, 3]

    def test_exponential_depths(self):
        policy = ResumePolicy(mode=PolicyMode.EXPONENTIAL, base_depth=1)
        assert [policy.depth_for(k) for k in range(1, 6)] == [1, 2, 4, 8, 16]

    def test_monotone_increasing(self):
        for mode in PolicyMode:
            for base in (1, 2, 3):
                policy = ResumePolicy(mode=mode, base_depth=base)
                depths = [policy.depth_for(k) for k in range(1, 8)]
                assert all(b > a for a, b in zip(depths, depths[1:]))

    def test_mode_must_be_a_policy_mode(self):
        with pytest.raises(TypeError, match="mode must be a PolicyMode"):
            ResumePolicy("linear")

    def test_base_depth_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="base_depth must be an int of at least 1"):
            ResumePolicy(base_depth=0)

    def test_per_error_memory_is_independent(self):
        # "a" fails twice, then "b" once: "b" starts at occurrence 1 although
        # "a" already reached 2.
        program = build(
            'error "a" { }\n'
            'error "b" { }\n'
            'sequence "main" { wait 0.01; call "fail_a" (); call "fail_b" (); wait 0.01; }\n'
            'entry "main";'
        )
        registry = default_registry()
        runs = {"a": 0, "b": 0}

        def failing(name, times):
            def action(ctx, items):
                runs[name] += 1
                if runs[name] <= times:
                    ctx.signal_error(name)
            return action

        undo = lambda ctx, items: None
        registry.register("fail_a", failing("a", 2), reverse=undo)
        registry.register("fail_b", failing("b", 1), reverse=undo)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        assert controller.run().completed
        begins = of_kind(controller.trace, EventKind.REVERSE_BEGIN)
        assert [(e.data["error"], e.data["occurrence"], e.data["depth"]) for e in begins] == [
            ("a", 1, 1), ("a", 2, 2), ("b", 1, 1),
        ]
        assert controller.ctx.reversal_occurrences == {"a": 2, "b": 1}


FAILING_PROBE = """
joint_configuration a = {{ 0.0, 0.0, 0.1, 0.0, 0.0, 0.0 }};
error "stuck" {{ }}
advanced_move "doomed" {{
  specification {{ distance 0.001 direction forward frame tcp; }}
  evaluation {{ distance_covered(more_than, 999.0); }}
  on_fail {{ throw_error("stuck"); }}
}}
sequence "main" {{
  {prefix}
  adv_move "doomed";
}}
entry "main";
"""


class TestRecoverByReversal:
    def test_first_occurrence_reverses_one_instruction(self):
        text = FAILING_PROBE.format(prefix="wait 0.01; wait 0.01;")
        program = build(text)
        controller = Controller(program, quiet_config(), seed=0)
        result = controller.run()
        assert not result.completed  # loop guard eventually trips
        reverses = of_kind(controller.trace, EventKind.REVERSE_BEGIN)
        assert reverses[0].data["depth"] == 1
        assert reverses[0].data["error"] == "stuck"

    def test_progressive_depths_linear_and_exponential(self):
        text = FAILING_PROBE.format(prefix="wait 0.01; " * 5)
        program = build(text)
        for mode, expected in (
            (PolicyMode.LINEAR, [1, 2, 3, 4, 5]),
            (PolicyMode.EXPONENTIAL, [1, 2, 4, 8, 16]),
        ):
            options = ControllerOptions(resume_policy=ResumePolicy(mode=mode))
            controller = Controller(program, quiet_config(), seed=0, options=options)
            controller.run()
            depths = [
                e.data["depth"]
                for e in of_kind(controller.trace, EventKind.REVERSE_BEGIN)
            ]
            assert depths == expected

    def test_blocked_boundary_aborts_on_third_identical_error(self):
        # A never-reversible pick sits two entries back: occurrence 1
        # reverses the probe itself, occurrences 2 and 3 saturate at the
        # boundary, and the second consecutive saturation aborts.
        text = FAILING_PROBE.format(prefix='@nonreversible call "noop" ();')
        program = build(text)
        controller = Controller(program, quiet_config(), seed=0)
        result = controller.run()
        assert not result.completed
        assert "boundary" in result.reason
        assert controller.ctx.error_counts["stuck"] == 3
        ends = of_kind(controller.trace, EventKind.REVERSE_END)
        assert [e.data["stop_reason"] for e in ends] == [
            "depth_reached",
            "never_reversible_hit",
            "never_reversible_hit",
        ]

    def test_resume_reexecutes_from_reversal_stop_point(self):
        registry = default_registry()
        runs = {"n": 0}

        def probe_helper(ctx, items):
            runs["n"] += 1

        # A registered reverse makes the call reversible, so deeper
        # reversals cross it and re-execute it on resume.
        registry.register("count", probe_helper, reverse=lambda ctx, items: None)
        text = FAILING_PROBE.format(prefix='call "count" ();')
        program = build(text)
        controller = Controller(program, quiet_config(), seed=0, registry=registry)
        controller.run()
        # Depth-2 reversal (second occurrence) undoes the probe and the call,
        # so the call re-executes on resume; deeper occurrences repeat it.
        assert runs["n"] >= 2


class TestForwardReverseIdentity:
    def test_hundred_random_programs(self):
        rng = random.Random(2024)
        config = quiet_config()
        for trial in range(100):
            text, n_instr = random_reversible_program(rng)
            program = build(text)
            controller = Controller(program, config, seed=trial)
            joints0 = controller.ctx.workcell.state.joints
            bits0 = controller.ctx.workcell.state.bits()
            result = controller.run()
            assert result.completed, result.reason
            plan = reverse_execute(
                controller.trace, None, controller.ctx, registry=controller.registry
            )
            assert plan.stop_reason is StopReason.TRACE_START
            state = controller.ctx.workcell.state
            assert state.bits() == bits0, text
            assert state.joints == joints0, text

    def test_random_barrier_position(self):
        rng = random.Random(77)
        config = quiet_config()
        for trial in range(25):
            text, n_instr = random_reversible_program(rng)
            barrier_at = rng.randrange(n_instr)
            program = build(text)
            seq = program.sequences["main"]
            # Re-parse with a barrier annotation spliced onto one instruction.
            lines = text.splitlines()
            main_line = next(i for i, l in enumerate(lines) if l.startswith('sequence'))
            stmts = lines[main_line][len('sequence "main" { '):-2].split("; ")
            stmts = [s if s.endswith(";") else s + ";" for s in stmts if s]
            stmts[barrier_at] = "@barrier " + stmts[barrier_at]
            lines[main_line] = 'sequence "main" { ' + " ".join(stmts) + " }"
            program = build("\n".join(lines))
            controller = Controller(program, config, seed=trial)
            controller.run()
            plan = reverse_execute(
                controller.trace, None, controller.ctx, registry=controller.registry
            )
            assert plan.stop_reason is StopReason.BARRIER
            assert len(plan.steps) == n_instr - barrier_at - 1
            stopped = controller.trace.events[plan.stop_index]
            assert stopped.data["text"].startswith("@barrier")


def test_full_depth_reverse_of_aligned_corpus(corpus_program, aligned_config):
    controller = Controller(corpus_program, aligned_config, seed=0)
    home = controller.ctx.workcell.state.joints
    bits0 = controller.ctx.workcell.state.bits()
    result = controller.run()
    assert result.completed and result.stats.errors == 0
    plan = reverse_execute(
        controller.trace, None, controller.ctx, registry=controller.registry
    )
    assert plan.stop_reason is StopReason.TRACE_START
    state = controller.ctx.workcell.state
    assert state.bits() == bits0
    assert state.joints == home


def test_barrier_on_seq_call_shadows_children():
    text = (
        'io_operation "on" { set_high; bit 1; }\n'
        'io_operation "off" { set_low; bit 1; }\n'
        'sequence "inner" { io "on"; wait 0.01; }\n'
        'sequence "outer" { @barrier seq "inner"; io "off"; }\n'
        'entry "outer";'
    )
    controller, plan, _, _ = run_and_reverse(text)
    assert plan.stop_reason is StopReason.BARRIER
    assert len(plan.steps) == 1
    stopped = controller.trace.events[plan.stop_index]
    assert stopped.data["text"] == '@barrier seq "inner";'


def test_partial_then_full_reversal_undoes_what_one_full_reversal_does():
    generate = bench_generator()
    config = load_workcell_config(os.path.join(ROOT, "src", "adsl", "examples", "free_space.json"))
    rng = random.Random(11)
    for _ in range(20):
        text, leaves, _ = generate.reversible_program(rng, 40)
        program = build(text)
        depth = rng.randint(1, leaves - 1)
        runs = []
        for depths in ((None,), (depth, None)):
            controller = Controller(program, config, seed=5)
            state = controller.ctx.workcell.state
            joints, bits = state.joints, state.bits()
            assert controller.run().completed
            undone = []
            for d in depths:
                plan = reverse_execute(
                    controller.trace, d, controller.ctx, registry=controller.registry
                )
                undone += [s.index for s in plan.steps]
            assert plan.stop_reason is StopReason.TRACE_START
            assert controller.ctx.undo_log == []
            assert state.joints == joints
            assert state.bits() == bits
            runs.append(undone)
        assert len(runs[0]) == leaves
        assert runs[1] == runs[0]
