"""Reverse execution over recorded traces.

Instructions fall into three reversibility categories: always reversible
(I/O toggles, waits), reversible only after forward execution (moves, which
restore the recorded pre-step joints), and never reversible. Annotations
override the defaults, and `@barrier` marks a point reversal may not cross.

Reversal pops the run's undo log (`ExecutionContext.undo_log`), the
`INSTR_END` events of the instructions executed so far, not the static
program text: dynamic detours such as recoveries and retried attempts are
undone exactly as they happened. A plain `seq` call is undone through its
children and has no entry of its own. Each entry's instruction is the one
at the top of its recorded call stack. An undone entry leaves the log, so a
later, deeper reversal continues past it instead of undoing it twice.
Before undoing an entry, lasting settings (the active speed) are restored
to the value recorded with it.

Each undo is performed directly on the execution context: a `@reverse_with`
payload runs through the same leaf dispatcher as forward execution
(`ExecutionContext.run_basic_instruction`), I/O runs its inverted primitive
list, a wait advances the clock again, a move restores the recorded
pre-step joints, and a call runs its registered reverse callback.

When an error without a recovery sequence recurs, `recover_by_reversal(name,
ctx)` backs up further each time, by a linear or exponential schedule, and
resumes forward execution at the earliest instruction it undid, skipping
those of recovery sequences: a recovery is never resumed into. It reads the
schedule, an immutable `ResumePolicy`, from `ctx.options` and counts each
error's occurrences on `ctx`, so the counts are per run; a reversal that
cannot progress raises `RunAborted`, the one abort. The run is
`in_recovery` meanwhile: an error a reverse callback signals aborts it. In a
`reverse_execute` outside a run, such an error raises `RunAborted`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from .model import (
    AdvMoveRef,
    Barrier,
    Call,
    Instruction,
    Io,
    MoveJoint,
    NonReversible,
    ReverseWith,
    SeqCall,
    SetHigh,
    SetLow,
    SkipOnReverse,
    Value,
    Wait,
)
from .trace import EventKind, ExecutionTrace, TraceEvent


class ReversibilityClass(Enum):
    ALWAYS_REVERSIBLE = "always_reversible"
    KINEMATIC_REVERSIBLE = "kinematic_reversible"
    NEVER_REVERSIBLE = "never_reversible"


class StopReason(Enum):
    DEPTH_REACHED = "depth_reached"
    BARRIER = "barrier"
    TRACE_START = "trace_start"
    NEVER_REVERSIBLE_HIT = "never_reversible_hit"


class RunAborted(Exception):
    """Unrecoverable condition: `Controller.run` returns it as an aborted
    result, and `reverse_execute` outside a run raises it."""


# ---------------------------------------------------------------------------
# Classification


def classify(instr: Instruction, registry=None) -> ReversibilityClass:
    """Reversibility category of an instruction, annotations included."""
    ann = instr.annotation
    if isinstance(ann, NonReversible):
        return ReversibilityClass.NEVER_REVERSIBLE
    if isinstance(ann, (ReverseWith, SkipOnReverse)):
        return ReversibilityClass.ALWAYS_REVERSIBLE
    if isinstance(instr, (Io, Wait, SeqCall)):
        return ReversibilityClass.ALWAYS_REVERSIBLE
    if isinstance(instr, (MoveJoint, AdvMoveRef)):
        return ReversibilityClass.KINEMATIC_REVERSIBLE
    assert isinstance(instr, Call)
    if registry is not None and registry.has_reverse(instr.action):
        return ReversibilityClass.ALWAYS_REVERSIBLE
    return ReversibilityClass.NEVER_REVERSIBLE


# ---------------------------------------------------------------------------
# Counterparts


def invert_primitives(primitives) -> tuple:
    """Undo list for an I/O primitive sequence.

    Writes are undone in reverse order with their levels inverted; each
    write keeps its select and trailing sleeps so the committed shape stays
    executable.
    """
    groups: list[list] = []
    current: list = []
    for prim in primitives:
        if isinstance(prim, (SetLow, SetHigh)) and current:
            groups.append(current)
            current = []
        current.append(prim)
    if current:
        groups.append(current)
    out = []
    for group in reversed(groups):
        for prim in group:
            if isinstance(prim, SetLow):
                out.append(SetHigh())
            elif isinstance(prim, SetHigh):
                out.append(SetLow())
            else:
                out.append(prim)
    return tuple(out)


def _instruction(program, entry: TraceEvent) -> Instruction:
    """The instruction an `INSTR_END` entry closes: the top of its stack."""
    seq, index = entry.stack[-1]
    return program.sequences[seq].instructions[index]


def _undo(entry: TraceEvent, instr: Instruction, ctx, registry) -> None:
    """Perform the counterpart of a recorded entry that `classify` admits.

    Moves restore the recorded pre-step joints and never re-apply guarded
    forces; I/O runs its inverted primitive list; waits wait again (the
    clock only moves forward).
    """
    ann = instr.annotation
    if isinstance(ann, SkipOnReverse):
        return
    if isinstance(ann, ReverseWith):
        ctx.run_basic_instruction(ann.instruction)
    elif isinstance(instr, Io):
        ctx.apply_primitives(invert_primitives(ctx.program.io_ops[instr.op].primitives))
    elif isinstance(instr, Wait):
        ctx.advance_clock(instr.seconds)
    elif isinstance(instr, (MoveJoint, AdvMoveRef)):
        ctx.move_joints_to(entry.pre_joints)
    else:
        registry.lookup(instr.action).reverse(ctx, instr.items)


# ---------------------------------------------------------------------------
# Undo-log walking


class ReversePlan(Value):
    #: The undone `INSTR_END` events, newest first.
    steps: tuple[TraceEvent, ...]
    stop_reason: StopReason
    stop_index: Optional[int] = None


def _prev_instruction_entry(log: list[TraceEvent], cursor: int) -> Optional[TraceEvent]:
    """The newest undo-log entry at or before trace index `cursor`, or None."""
    for entry in reversed(log):
        if entry.index <= cursor:
            return entry
    return None


def reverse_execute(
    trace: ExecutionTrace,
    depth: Optional[int],
    ctx,
    registry=None,
    info: Optional[dict] = None,
) -> ReversePlan:
    """Undo up to `depth` recorded instructions, newest first.

    `trace` is the run's trace, `ctx.trace`, which records the reversal too.
    `registry` defaults to the run's, `ctx.registry`.
    `depth=None` reverses as far as the undo log allows. The walk halts early
    at a barrier annotation, a never-reversible entry, or an empty undo log,
    and the stop reason is recorded in the plan and in the closing trace
    event. A plain sequence call is not on the log, only its children; an
    annotated call is one entry: the controller drops its children from the
    log when the call completes.
    """
    limit = math.inf if depth is None else depth
    if registry is None:
        registry = ctx.registry
    log = ctx.undo_log
    cursor = len(trace) - 1
    data = {"depth": "full" if depth is None else depth}
    if info:
        data.update(info)
    ctx.emit(EventKind.REVERSE_BEGIN, data=data)

    steps: list[TraceEvent] = []
    stop_index: Optional[int] = None
    while True:
        if len(steps) >= limit:
            stop = StopReason.DEPTH_REACHED
            break
        entry = _prev_instruction_entry(log, cursor)
        if entry is None:
            stop = StopReason.TRACE_START
            break
        instr = _instruction(ctx.program, entry)
        if isinstance(instr.annotation, Barrier):
            stop = StopReason.BARRIER
            stop_index = entry.index
            break
        if classify(instr, registry) is ReversibilityClass.NEVER_REVERSIBLE:
            stop = StopReason.NEVER_REVERSIBLE_HIT
            stop_index = entry.index
            break
        log.pop()
        cursor = entry.index - 1
        ctx.set_active_speed(entry.speed, "reverse restore")
        _undo(entry, instr, ctx, registry)
        steps.append(entry)

    ctx.emit(
        EventKind.REVERSE_END,
        data={
            "stop_reason": stop.value,
            "indices": [s.index for s in steps],
            "count": len(steps),
        },
    )
    return ReversePlan(tuple(steps), stop, stop_index)


# ---------------------------------------------------------------------------
# Progressive reverse-then-resume recovery


class PolicyMode(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


MAX_REVERSAL_OCCURRENCES = 5  # reversals of an error before a blocked one aborts


class ResumePolicy(Value):
    """How far to reverse when the same error keeps recurring."""

    mode: PolicyMode = PolicyMode.LINEAR
    base_depth: int = 1

    def __post_init__(self):
        if not isinstance(self.mode, PolicyMode):
            raise TypeError(f"mode must be a PolicyMode, got {self.mode!r}")
        if type(self.base_depth) is not int or self.base_depth < 1:
            raise ValueError(f"base_depth must be an int of at least 1, got {self.base_depth!r}")

    def depth_for(self, occurrence: int) -> int:
        if self.mode is PolicyMode.LINEAR:
            return self.base_depth * occurrence
        return self.base_depth * (2 ** (occurrence - 1))


def recover_by_reversal(name: str, ctx) -> Optional[tuple]:
    """Reverse by the depth `ctx.options.resume_policy` gives this run's next
    occurrence of `name`; return the stack to resume at, that of the earliest
    undone instruction recorded outside a recovery sequence (whose frame is
    not a call to resume in), or None when there is none (re-execute from
    the signaling site).

    Raises RunAborted when the reversal saturates against the same
    barrier or never-reversible boundary twice in a row, or when the error
    recurs against a boundary more than `MAX_REVERSAL_OCCURRENCES` times.
    """
    policy = ctx.options.resume_policy
    occurrence = ctx.reversal_occurrences.get(name, 0) + 1
    ctx.reversal_occurrences[name] = occurrence
    plan = reverse_execute(
        ctx.trace,
        policy.depth_for(occurrence),
        ctx,
        info={"error": name, "occurrence": occurrence, "policy": policy.mode.value},
    )
    if plan.stop_reason in (StopReason.BARRIER, StopReason.NEVER_REVERSIBLE_HIT):
        if occurrence > MAX_REVERSAL_OCCURRENCES:
            raise RunAborted(
                f"error '{name}' recurred {occurrence} times against an irreversible boundary"
            )
        marker = (plan.stop_reason, plan.stop_index)
        if ctx.saturation_markers.get(name) == marker:
            raise RunAborted(
                f"reversal for error '{name}' blocked at the same boundary twice"
            )
        ctx.saturation_markers[name] = marker
    else:
        ctx.saturation_markers.pop(name, None)
    outside = [s for s in plan.steps if s.index not in ctx.recovery_ends]
    return outside[-1].stack if outside else None
