"""Data model for assembly programs.

A program is a bundle of named declarations: items with keyframes, I/O
operations, joint configurations, error handlers, guarded moves, and
instruction sequences. All types here are immutable value objects.
Constructors take their values as given: sequence fields are tuples and
reals are floats, which `parse_program`, where program text enters, builds
and direct callers pass. Construction never fails on semantic grounds;
`validate_program` reports every structural problem as diagnostic data
instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Source locations and diagnostics


@dataclass(frozen=True)
class SourceLocation:
    """Position of a construct in source text (1-based line/column)."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Severity(Enum):
    ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    message: str
    name: Optional[str] = None
    location: Optional[SourceLocation] = None

    def __str__(self) -> str:
        where = str(self.location) if self.location is not None else "?"
        subject = f" '{self.name}'" if self.name else ""
        return f"{self.severity.value}:{subject} {self.message} at {where}"


# ---------------------------------------------------------------------------
# Closed enumerations


class Direction(Enum):
    FORWARD = "forward"
    BACKWARDS = "backwards"
    LEFT = "left"
    RIGHT = "right"
    UP = "up"
    DOWN = "down"
    X = "x"
    Y = "y"
    Z = "z"


class Frame(Enum):
    TCP = "tcp"
    TOOLMOUNT = "toolmount"
    BASE = "base"


class SpeedLevel(Enum):
    VERY_FAST = "very_fast"
    FAST = "fast"
    NORMAL = "normal"
    SLOW = "slow"
    VERY_SLOW = "very_slow"


class RespondAfter(Enum):
    CURRENT_ACTION = "current_action"
    CURRENT_SEQUENCE = "current_sequence"
    IMMEDIATELY = "immediately"


class ReturnTo(Enum):
    ACTION = "action"
    SEQUENCE = "sequence"
    RESTART_PROGRAM = "restart_program"


class Comparison(Enum):
    MORE_THAN = "more_than"
    LESS_THAN = "less_than"


# ---------------------------------------------------------------------------
# I/O primitives


@dataclass(frozen=True)
class SetLow:
    pass


@dataclass(frozen=True)
class SetHigh:
    pass


@dataclass(frozen=True)
class SelectBit:
    index: int


@dataclass(frozen=True)
class Sleep:
    seconds: float


Primitive = Union[SetLow, SetHigh, SelectBit, Sleep]


# ---------------------------------------------------------------------------
# Guarded-move queries and behaviors


@dataclass(frozen=True)
class ForcesExceed:
    threshold: float


@dataclass(frozen=True)
class DistanceCovered:
    cmp: Comparison
    value: float


Query = Union[ForcesExceed, DistanceCovered]


@dataclass(frozen=True)
class ReturnToInitialPosition:
    pass


@dataclass(frozen=True)
class RepeatWithPerturbation:
    max_retries: int


@dataclass(frozen=True)
class ThrowError:
    error: str


Behavior = Union[ReturnToInitialPosition, RepeatWithPerturbation, ThrowError]


# ---------------------------------------------------------------------------
# Reversibility annotations


@dataclass(frozen=True)
class NonReversible:
    pass


@dataclass(frozen=True)
class SkipOnReverse:
    pass


@dataclass(frozen=True)
class Barrier:
    pass


@dataclass(frozen=True)
class ReverseWith:
    instruction: "Instruction"


Annotation = Union[NonReversible, SkipOnReverse, Barrier, ReverseWith]


# ---------------------------------------------------------------------------
# Instructions

_LOC = dict(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MoveJoint:
    waypoints: tuple[str, ...]
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class Io:
    op: str
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class Wait:
    seconds: float
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class Call:
    action: str
    items: tuple[str, ...] = ()
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class AdvMoveRef:
    name: str
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class SeqCall:
    name: str
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = field(**_LOC)


Instruction = Union[MoveJoint, Io, Wait, Call, AdvMoveRef, SeqCall]


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class Keyframe:
    name: str
    coordinates: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class Item:
    name: str
    keyframes: tuple[Keyframe, ...]
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class IOOperation:
    name: str
    primitives: tuple[Primitive, ...]
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class JointConfiguration:
    name: str
    joints: tuple[float, ...]
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class Sequence:
    name: str
    instructions: tuple[Instruction, ...]
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class ErrorSpec:
    name: str
    recovery_sequence: Optional[str] = None
    respond_after: RespondAfter = RespondAfter.CURRENT_ACTION
    return_to: ReturnTo = ReturnTo.SEQUENCE
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class AdvMoveSpec:
    name: str
    distance: float
    direction: Direction
    frame: Frame
    eval_queries: tuple[Query, ...]
    on_fail: tuple[Behavior, ...]
    condition: Optional[Query] = None
    stop_if: Optional[Query] = None
    speed: Optional[SpeedLevel] = None
    on_success: tuple[Behavior, ...] = ()
    location: Optional[SourceLocation] = field(**_LOC)


@dataclass(frozen=True)
class Program:
    items: dict[str, Item] = field(default_factory=dict)
    io_ops: dict[str, IOOperation] = field(default_factory=dict)
    joint_confs: dict[str, JointConfiguration] = field(default_factory=dict)
    sequences: dict[str, Sequence] = field(default_factory=dict)
    errors: dict[str, ErrorSpec] = field(default_factory=dict)
    adv_moves: dict[str, AdvMoveSpec] = field(default_factory=dict)
    entry: Optional[str] = None


# ---------------------------------------------------------------------------
# Validation

DEFAULT_DOF = 6

#: Instruction forms allowed as a reverse_with payload. Structured forms
#: (sequence calls, guarded moves) have no single-step undo meaning.
_PRIMITIVE_INSTRUCTIONS = (Io, Wait, MoveJoint, Call)


def validate_program(program: Program, dof: int = DEFAULT_DOF) -> list[Diagnostic]:
    """Check every structural invariant and return the diagnostics found.

    An empty list means the program is executable: all referenced names
    resolve to declarations of the right kind, the sequence-call graph is
    acyclic, numeric fields are in range, and the entry point exists.
    Duplicate declaration names cannot occur here; the parser rejects them
    before a Program is built.
    """
    diags: list[Diagnostic] = []

    def err(message, name=None, location=None):
        diags.append(Diagnostic(Severity.ERROR, message, name, location))

    for item in program.items.values():
        if not item.keyframes:
            err("item has no keyframes", item.name, item.location)
        for kf in item.keyframes:
            if not kf.coordinates:
                err("keyframe has no coordinates", f"{item.name}.{kf.name}", item.location)
            for coord in kf.coordinates:
                if not all(math.isfinite(c) for c in coord):
                    err("non-finite keyframe coordinate", f"{item.name}.{kf.name}", item.location)

    for op in program.io_ops.values():
        _check_io_operation(op, err)

    for conf in program.joint_confs.values():
        if len(conf.joints) != dof:
            err(
                f"joint configuration must have exactly {dof} values, got {len(conf.joints)}",
                conf.name,
                conf.location,
            )
        if not all(math.isfinite(j) for j in conf.joints):
            err("non-finite joint value", conf.name, conf.location)

    for seq in program.sequences.values():
        if not seq.instructions:
            err("sequence has no instructions", seq.name, seq.location)
        for instr in seq.instructions:
            _check_instruction(program, seq.name, instr, err, allow_annotation=True)

    _check_sequence_cycles(program, err)

    for espec in program.errors.values():
        _check_error_spec(program, espec, err)

    for spec in program.adv_moves.values():
        _check_adv_move(program, spec, err)

    if program.entry is None:
        err("program has no entry sequence")
    elif program.entry not in program.sequences:
        err("unresolved entry sequence", program.entry)

    return diags


def _check_io_operation(op: IOOperation, err) -> None:
    # Each level primitive must be committed by exactly one select before the
    # next level primitive (or the end of the list).
    pending_level = False
    selects_since_level = 0
    for prim in op.primitives:
        if isinstance(prim, (SetLow, SetHigh)):
            if pending_level and selects_since_level != 1:
                err("level primitive not followed by exactly one select", op.name, op.location)
            pending_level = True
            selects_since_level = 0
        elif isinstance(prim, SelectBit):
            if pending_level:
                selects_since_level += 1
                if selects_since_level > 1:
                    err("level primitive followed by more than one select", op.name, op.location)
            if prim.index < 0:
                err("negative bit index", op.name, op.location)
        elif isinstance(prim, Sleep):
            if not (math.isfinite(prim.seconds) and prim.seconds > 0):
                err("sleep duration must be a positive finite number", op.name, op.location)
    if pending_level and selects_since_level != 1:
        err("level primitive not followed by exactly one select", op.name, op.location)


def _check_instruction(program, owner, instr, err, allow_annotation) -> None:
    loc = instr.location
    if isinstance(instr, MoveJoint):
        if not instr.waypoints:
            err("move has no waypoints", owner, loc)
        for wp in instr.waypoints:
            if wp not in program.joint_confs:
                err("unresolved joint configuration", wp, loc)
    elif isinstance(instr, Io):
        if instr.op not in program.io_ops:
            err("unresolved io operation", instr.op, loc)
    elif isinstance(instr, Wait):
        if not (math.isfinite(instr.seconds) and instr.seconds > 0):
            err("wait duration must be a positive finite number", owner, loc)
    elif isinstance(instr, Call):
        # Action names bind to the runtime action registry, not to program
        # declarations; only the item arguments are resolvable here.
        for item in instr.items:
            if item not in program.items:
                err("unresolved item", item, loc)
    elif isinstance(instr, AdvMoveRef):
        if instr.name not in program.adv_moves:
            err("unresolved advanced move", instr.name, loc)
    elif isinstance(instr, SeqCall):
        if instr.name not in program.sequences:
            err("unresolved sequence call", instr.name, loc)

    ann = instr.annotation
    if ann is not None and not allow_annotation:
        err("annotation not allowed here", owner, loc)
    if isinstance(ann, ReverseWith):
        payload = ann.instruction
        if payload.annotation is not None:
            err("reverse_with payload must not carry an annotation", owner, loc)
        if not isinstance(payload, _PRIMITIVE_INSTRUCTIONS):
            err("reverse_with payload must be an io, wait, move, or call", owner, loc)
        else:
            _check_instruction(program, owner, payload, err, allow_annotation=False)


def _check_sequence_cycles(program: Program, err) -> None:
    """Report each call that closes a cycle, in depth-first order. The walk
    keeps its own stack, so a call chain of any depth validates."""
    GRAY, BLACK = 1, 2
    color: dict[str, int] = {}
    reported = set()
    for root in program.sequences:
        if root in color:
            continue
        color[root] = GRAY
        stack = [(root, iter(program.sequences[root].instructions))]
        while stack:
            name, rest = stack[-1]
            for instr in rest:
                if not isinstance(instr, SeqCall) or instr.name not in program.sequences:
                    continue
                target = instr.name
                if target not in color:
                    color[target] = GRAY
                    stack.append((target, iter(program.sequences[target].instructions)))
                    break
                if color[target] == GRAY and (name, target) not in reported:
                    reported.add((name, target))
                    err("recursive sequence call", target, instr.location)
            else:
                color[name] = BLACK
                stack.pop()


def _reachable_adv_moves(program: Program, seq_name: str) -> set[str]:
    """Advanced moves reachable from a sequence through seq/adv references."""
    seen_seqs: set[str] = set()
    found: set[str] = set()
    stack = [seq_name]
    while stack:
        current = stack.pop()
        if current in seen_seqs or current not in program.sequences:
            continue
        seen_seqs.add(current)
        for instr in program.sequences[current].instructions:
            if isinstance(instr, SeqCall):
                stack.append(instr.name)
            elif isinstance(instr, AdvMoveRef):
                found.add(instr.name)
    return found


def _check_error_spec(program: Program, espec: ErrorSpec, err) -> None:
    if espec.recovery_sequence is None:
        return
    if espec.recovery_sequence not in program.sequences:
        err("unresolved recovery sequence", espec.recovery_sequence, espec.location)
        return
    for move_name in _reachable_adv_moves(program, espec.recovery_sequence):
        spec = program.adv_moves.get(move_name)
        if spec is None:
            continue
        throws = {
            b.error
            for b in (*spec.on_success, *spec.on_fail)
            if isinstance(b, ThrowError)
        }
        if espec.name in throws:
            err(
                f"recovery sequence reaches advanced move '{move_name}' that throws this error",
                espec.name,
                espec.location,
            )


def _check_query(query: Query, owner, loc, err) -> None:
    if isinstance(query, ForcesExceed):
        if not (math.isfinite(query.threshold) and query.threshold > 0):
            err("force threshold must be a positive finite number", owner, loc)
    elif isinstance(query, DistanceCovered):
        if not (math.isfinite(query.value) and query.value >= 0):
            err("distance value must be a non-negative finite number", owner, loc)


def _check_adv_move(program: Program, spec: AdvMoveSpec, err) -> None:
    loc = spec.location
    if not (math.isfinite(spec.distance) and spec.distance >= 0):
        err("move distance must be a non-negative finite number", spec.name, loc)
    if spec.condition is not None:
        _check_query(spec.condition, spec.name, loc, err)
    if spec.stop_if is not None:
        _check_query(spec.stop_if, spec.name, loc, err)
    if not spec.eval_queries:
        err("advanced move needs at least one evaluation query", spec.name, loc)
    for q in spec.eval_queries:
        _check_query(q, spec.name, loc, err)
    if not spec.on_fail:
        err("advanced move needs at least one on_fail behavior", spec.name, loc)
    for label, behaviors in (("on_success", spec.on_success), ("on_fail", spec.on_fail)):
        repeats = [b for b in behaviors if isinstance(b, RepeatWithPerturbation)]
        if len(repeats) > 1:
            err(f"more than one repeat_with_perturbation in {label}", spec.name, loc)
        for b in behaviors:
            if isinstance(b, RepeatWithPerturbation) and b.max_retries < 1:
                err("retry count must be a positive integer", spec.name, loc)
            elif isinstance(b, ThrowError) and b.error not in program.errors:
                err("unresolved error", b.error, loc)
