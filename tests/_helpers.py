"""Shared test utilities: program builders and trace measurements."""

import importlib.util
import os

import pytest

from adsl import controller as controller_module
from adsl.controller import (
    Controller, ExecutionContext, RunAborted, _check_move, _cycle_cap_exceeded, evaluate_query,
)
from adsl.model import validate_program
from adsl.parser import parse_program
from adsl.reverse import reverse_execute
from adsl.trace import EventKind
from adsl.workcell import Obstacle, Workcell, workcell_config_from_dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The `data` keys, in insertion order, of the controller's motion samples:
MOVE_SAMPLE_KEYS = ("advanced", "contact")  # a move's cycle (`move_sample`)
ATTEMPT_SAMPLE_KEYS = ("advanced", "covered", "contact", "raw", "filtered")  # `attempt_sample`

#: Two 1 m boxes at opposite corners, 1e4 m out, beyond every test move's
#: reach. A cycle tests its step against the obstacles when it starts inside
#: their hull, widened by a step, and this hull holds every test move, so
#: adding them sends a free cell's moves through the obstacle path without
#: changing any result.
FAR_OBSTACLES = (Obstacle((1e4, 1e4, 1e4), (1e4 + 1.0, 1e4 + 1.0, 1e4 + 1.0)),
                 Obstacle((-1e4 - 1.0, -1e4 - 1.0, -1e4 - 1.0), (-1e4, -1e4, -1e4)))


def with_far_obstacle(config):
    """`config` with `FAR_OBSTACLES` added to its obstacles."""
    return config.replace(obstacles=config.obstacles + FAR_OBSTACLES)


# ---------------------------------------------------------------------------
# The step_motion twin: the move loop with every cycle one
# `Workcell.step_motion` call, the reference. The shipped loop steps on local
# variables and must write what this writes.


def step_motion_move(self, goal, speed, guard=None):
    """`ExecutionContext._move`, one `Workcell.step_motion` call a cycle."""
    workcell = self.workcell
    state = workcell.state
    guarded = guard is not None
    sample = None
    if self.options.record_motion_samples:
        sample = self.trace.attempt_sample if guarded else self.trace.move_sample
    stack, level, bits = self.stack, self.active_speed, state.io_bits
    speed = _check_move(state.joints, goal, speed)
    stop_if, distance = guard if guarded else (None, 0.0)
    covered, guard_stopped = 0.0, False
    cycles = self.cycles
    try:
        while (covered < distance - 1e-12) if guarded else (state.joints != goal):
            if cycles >= controller_module.MAX_CONTROL_CYCLES:
                raise _cycle_cap_exceeded()
            cycles += 1
            pre_j = state.joints
            contact, advanced = workcell.step_motion(goal, speed)
            if guarded:
                covered += advanced
                raw, filtered = workcell.read_force(self.rng)
                if sample is not None:
                    sample(state.clock, stack, level, pre_j, state.joints, bits,
                           advanced, covered, contact, raw, filtered)
                if stop_if is not None and evaluate_query(stop_if, covered, filtered):
                    guard_stopped = True
                    break
                if advanced <= 1e-15:
                    break
            else:
                if sample is not None:
                    sample(state.clock, stack, level, pre_j, state.joints, bits, advanced, contact)
                if contact and advanced <= 1e-15:
                    raise RunAborted(
                        f"collision during move: blocked at {state.joints[:3]}"
                        f" moving to {goal[:3]}"
                    )
    finally:
        self.cycles = cycles
    return covered, guard_stopped


def run_forward_and_reversed(program, config, seed):
    """(controller, abort reasons) of a run, samples on, and, when it
    completes, of its full reversal, which may itself abort (moving back into
    a wall, say)."""
    controller = Controller(program, config, seed=seed)
    result = controller.run()
    reasons = [result.reason]
    if result.completed:
        try:
            reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
        except RunAborted as exc:
            reasons.append(str(exc))
    return controller, reasons


def step_motion_twin(program, config, seed):
    """Run `program` on `config` forward and then fully reversed, with the
    shipped move loop and with the step_motion twin. Check that the shipped
    loop calls `Workcell.step_motion` never and the twin once a cycle, and
    that both write the same bytes and abort reasons and leave the same
    state. Returns the shipped loop's (trace text, abort reasons)."""
    original = Workcell.step_motion
    calls = []

    def counting(self, target, speed):
        calls.append(1)
        return original(self, target, speed)

    def outcome():
        controller, reasons = run_forward_and_reversed(program, config, seed)
        state = controller.ctx.workcell.state
        return (controller.trace.serialize(), reasons, controller.ctx.cycles,
                (state.joints, state.clock, state.in_contact, state.io_bits))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Workcell, "step_motion", counting)
        shipped = outcome()
        assert calls == []
        patch.setattr(ExecutionContext, "_move", step_motion_move)
        twin = outcome()
    assert len(calls) == twin[2]
    assert shipped[1] == twin[1]
    assert shipped == twin
    return shipped[:2]


def bench_generator():
    """`bench/generate.py`, which builds the benchmark's generated programs."""
    spec = importlib.util.spec_from_file_location(
        "generate", os.path.join(ROOT, "bench", "generate.py")
    )
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


def build(text):
    program = parse_program(text)
    diags = validate_program(program)
    assert diags == [], diags
    return program


def call_chain(depth):
    """A valid program whose sequences call each other `depth` deep."""
    text = "".join(f'sequence "s{k}" {{ seq "s{k + 1}"; }}\n' for k in range(depth))
    return text + f'sequence "s{depth}" {{ wait 0.1; }}\nentry "s0";\n'


def quiet_config(**overrides):
    raw = {"noise_sigma": 0.0, "home_joints": [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]}
    raw.update(overrides)
    return workcell_config_from_dict(raw)


def of_kind(trace, kind):
    """The events of `trace` of one `EventKind`, in order."""
    return [event for event in trace.events if event.kind is kind]


def max_overshoot_past_first_contact(trace):
    """Largest per-attempt advance recorded after that attempt's first contact."""
    worst = None
    past = 0.0
    seen_contact = False
    in_attempt = False
    for event in trace.events:
        if event.kind is EventKind.ATTEMPT_BEGIN:
            in_attempt = True
            seen_contact = False
            past = 0.0
        elif event.kind is EventKind.ATTEMPT_END:
            if in_attempt and seen_contact:
                worst = past if worst is None else max(worst, past)
            in_attempt = False
        elif (
            event.kind is EventKind.MOTION_SAMPLE
            and in_attempt
            and "covered" in event.data
        ):
            if seen_contact:
                past += event.data["advanced"]
            elif event.data["contact"]:
                seen_contact = True
    return worst


def random_reversible_program(rng):
    """Programs of I/O ops, waits, and small moves; first write per bit is high.

    Returns (text, instruction_count). Starting from all-low bits, keeping
    each bit's first write high makes syntactic I/O inversion an exact undo.
    """
    lines = []
    bits = [1, 2, 3]
    for b in bits:
        lines.append(f'io_operation "on{b}" {{ set_high; bit {b}; }}')
        lines.append(f'io_operation "off{b}" {{ set_low; bit {b}; }}')
    confs = []
    for i in range(3):
        x = rng.uniform(-0.02, 0.02)
        y = rng.uniform(-0.02, 0.02)
        z = 0.1 + rng.uniform(-0.02, 0.02)
        confs.append(f"c{i}")
        lines.append(
            f"joint_configuration c{i} = {{ {x:.6f}, {y:.6f}, {z:.6f}, 0.0, 0.0, 0.0 }};"
        )
    body = []
    touched = set()
    for _ in range(rng.randint(3, 8)):
        kind = rng.randint(0, 2)
        if kind == 0:
            b = rng.choice(bits)
            if b not in touched:
                body.append(f'io "on{b}";')
                touched.add(b)
            else:
                body.append(f'io "{rng.choice(["on", "off"])}{b}";')
        elif kind == 1:
            body.append(f"wait {rng.uniform(0.001, 0.01):.4f};")
        else:
            body.append(f'move to {rng.choice(confs)};')
    lines.append('sequence "main" { ' + " ".join(body) + " }")
    lines.append('entry "main";')
    return "\n".join(lines), len(body)
