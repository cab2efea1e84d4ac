"""Generated error-handling programs, run forward and then fully reversed.

Each seed gives a program with one to three declared errors (random
`respond_after` and `return_to`, a recovery sequence half the time), actions
that signal them on chosen runs (60% of them undoable by a no-op reverse
callback), io, wait and move leaves, `seq` calls two deep and `@barrier`s,
run under a random `ResumePolicy` and `return_to_sequence` mode with motion
samples off. Whatever a program does, only `RunAborted` may end the run or
its reversal, the same seed gives the same trace bytes, and a completed run
leaves no error waiting and no frame open. At every event, the context has
one frame per entry of its stack, and the event records that very stack.
After the run and after the reversal, the trace alone rebuilds the undo log.
"""

import hashlib
import random

import pytest

from adsl.controller import Controller, ControllerOptions, RunAborted, default_registry
from adsl.model import SeqCall
from adsl.reverse import PolicyMode, ResumePolicy, reverse_execute
from adsl.trace import EventKind

from _helpers import build, quiet_config

PROGRAMS = 1000
CHUNK = 100


def generated_case(seed):
    """(program text, {action: ({run number: error}, undoable)}, options)."""
    rng = random.Random(seed)
    errors = [f"e{k}" for k in range(rng.randint(1, 3))]
    lines = [
        'io_operation "on" { set_high; bit 1; }',
        'io_operation "off" { set_low; bit 1; }',
        "joint_configuration c0 = { 0.02, 0.0, 0.1, 0.0, 0.0, 0.0 };",
        "joint_configuration c1 = { 0.0, -0.02, 0.12, 0.0, 0.0, 0.0 };",
    ]
    for k, name in enumerate(errors):
        respond = rng.choice(["immediately", "current_action", "current_sequence"])
        fields = [f"respond_after {respond};"]
        if rng.random() < 0.7:
            fields.append(f"return_to {rng.choice(['action', 'sequence', 'restart_program'])};")
        if rng.random() < 0.5:
            fields.append(f'recovery_sequence "r{k}";')
            recovery = rng.choice(["wait 0.01;", 'io "off"; wait 0.01;', 'call "f0" ();'])
            lines.append(f'sequence "r{k}" {{ {recovery} }}')
        lines.append(f'error "{name}" {{ {" ".join(fields)} }}')
    actions = {}
    for k in range(rng.randint(1, 3)):
        failing = rng.sample(range(1, 6), rng.randint(1, 3))
        actions[f"f{k}"] = ({n: rng.choice(errors) for n in failing}, rng.random() < 0.6)

    def body(callee):
        out = []
        for _ in range(rng.randint(2, 5)):
            leaf = rng.choice([
                'io "on";', 'io "off";', "wait 0.01;", "move to c0;", "move to c1;",
                f'call "{rng.choice(list(actions))}" ();', 'call "noop" ();',
            ])
            if rng.random() < 0.1:
                leaf = "@barrier " + leaf
            out.append(leaf)
        if callee is not None:
            out.insert(rng.randint(0, len(out)), f'seq "{callee}";')
        return " ".join(out)

    lines.append(f'sequence "inner" {{ {body(None)} }}')
    lines.append(f'sequence "outer" {{ {body("inner")} }}')
    lines.append(f'sequence "main" {{ {body("outer")} }}')
    lines.append('entry "main";')
    options = ControllerOptions(
        return_to_sequence=rng.choice(["resume", "restart"]),
        resume_policy=ResumePolicy(rng.choice(list(PolicyMode)), rng.randint(1, 3)),
        record_motion_samples=False,
    )
    return "\n".join(lines), actions, options


def undo_log_from_trace(events, program):
    """The undo log as the trace determines it: each `INSTR_END` but a plain
    `seq` call's, an annotated call's after dropping its children's, and at
    each `REVERSE_END` the entries from its lowest undone index on popped."""
    log = []
    for event in events:
        if event.kind is EventKind.INSTR_END:
            seq, index = event.stack[-1]
            instr = program.sequences[seq].instructions[index]
            if isinstance(instr, SeqCall):
                if instr.annotation is None:
                    continue
                depth = len(event.stack)
                while log and log[-1].stack[:depth] == event.stack and len(log[-1].stack) > depth:
                    log.pop()
            log.append(event)
        elif event.kind is EventKind.REVERSE_END and event.data["indices"]:
            lowest = min(event.data["indices"])
            while log and log[-1].index >= lowest:
                log.pop()
    return [event.index for event in log]


def assert_undo_log_follows_the_trace(controller, seed):
    ctx = controller.ctx
    rebuilt = undo_log_from_trace(controller.trace.events, ctx.program)
    assert rebuilt == [event.index for event in ctx.undo_log], seed


def run_case(seed):
    """Run the case forward, then fully reversed: (run result, (pending, frames)
    as the run left them, sha256 of the trace bytes)."""
    text, actions, options = generated_case(seed)
    registry = default_registry()
    for name, (fails, undoable) in actions.items():
        runs = [0]

        def action(ctx, items, fails=fails, runs=runs):
            runs[0] += 1
            if runs[0] in fails:
                ctx.signal_error(fails[runs[0]])

        registry.register(name, action, (lambda ctx, items: None) if undoable else None)
    controller = Controller(build(text), quiet_config(), seed=seed, options=options,
                            registry=registry)
    ctx = controller.ctx
    emit = ctx.emit

    def checked_emit(*args, **kwargs):
        event = emit(*args, **kwargs)
        assert len(ctx.frames) == len(ctx.stack), seed
        assert event.stack is ctx.stack, seed
        return event

    ctx.emit = checked_emit
    result = controller.run()
    waiting = (list(controller.ctx.pending), list(controller.ctx.frames))
    assert_undo_log_follows_the_trace(controller, seed)
    try:
        reverse_execute(controller.trace, None, controller.ctx, registry=registry)
    except RunAborted:
        pass
    assert_undo_log_follows_the_trace(controller, seed)
    digest = hashlib.sha256(controller.trace.serialize().encode()).hexdigest()
    return result, waiting, digest


@pytest.mark.parametrize("start", range(0, PROGRAMS, CHUNK))
def test_generated_error_handling_programs(start):
    for seed in range(start, start + CHUNK):
        result, waiting, digest = run_case(seed)
        if result.completed:
            assert waiting == ([], []), seed
        assert run_case(seed)[2] == digest, seed
