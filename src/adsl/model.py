"""Data model for assembly programs.

A program is a bundle of named declarations: items with keyframes, I/O
operations, joint configurations, error handlers, guarded moves, and
instruction sequences. All types here are immutable `Value`s: their fields
are their annotations, and they compare by class and field values. A
`Program`'s six declaration tables are read-only mappings over its own
copies. Constructors take their values as given: sequence fields are tuples
and reals are floats, which `parse_program`, where program text enters,
builds and direct callers pass. Construction never fails on semantic
grounds; `validate_program` reports every structural problem as diagnostic
data instead of raising, a sequence field that is not a tuple among them, so
a program that validates clean cannot change. Its clean result is kept on
the program, which is then checked once however many runs it makes.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from types import MappingProxyType
from typing import Optional, Union

_set = object.__setattr__


class Value:
    """Base of the value classes. A subclass's fields are its annotations, in
    order; a class attribute of the same name is a default. A subclass gets
    an `__init__` of its fields, compiled once when the class is made, that
    ends by calling `__post_init__` if there is one.
    Eq, hash and repr are by class and fields, less those the class keyword
    `hidden` names. Instances are frozen unless the class says `frozen=False`;
    `replace(**changes)` rebuilds through `__init__`, so checks run again."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=True, hidden=()):
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._compared = tuple(f for f in fields if f not in hidden)
        slots = cls.__dict__.get("__slots__", ())
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__ and f not in slots}
        params = "".join([f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in fields])
        body = [f"_set(self, {f!r}, {f})" if frozen else f"self.{f} = {f}" for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_d": defaults, "_set": _set}
        exec(f"def __init__(self{params}):\n " + "\n ".join(body or ["pass"]), namespace)
        cls.__init__ = namespace["__init__"]
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = _set, object.__delattr__, None

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._compared])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

    def __reduce__(self):  # copy and pickle rebuild through `__init__` too
        return type(self), tuple([_plain(getattr(self, f)) for f in self._fields])


def _plain(value):
    """A field's value as `__init__` takes it: a read-only mapping as a plain
    dict (a `MappingProxyType` neither copies nor pickles), which the class's
    `__post_init__` wraps again; any other value as it is."""
    return dict(value) if type(value) is MappingProxyType else value


# ---------------------------------------------------------------------------
# Source locations and diagnostics


class SourceLocation(Value):
    """Position of a construct in source text (1-based line/column)."""

    __slots__ = ("line", "column", "offset")
    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Diagnostic(Value):
    message: str
    name: Optional[str] = None
    location: Optional[SourceLocation] = None

    def __str__(self) -> str:
        where = str(self.location) if self.location is not None else "?"
        subject = f" '{self.name}'" if self.name else ""
        return f"error:{subject} {self.message} at {where}"


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


class SetLow(Value):
    pass


class SetHigh(Value):
    pass


class SelectBit(Value):
    index: int


class Sleep(Value):
    seconds: float


Primitive = Union[SetLow, SetHigh, SelectBit, Sleep]


# ---------------------------------------------------------------------------
# Guarded-move queries and behaviors


class ForcesExceed(Value):
    threshold: float


class DistanceCovered(Value):
    cmp: Comparison
    value: float


Query = Union[ForcesExceed, DistanceCovered]


class ReturnToInitialPosition(Value):
    pass


class RepeatWithPerturbation(Value):
    max_retries: int


class ThrowError(Value):
    error: str


Behavior = Union[ReturnToInitialPosition, RepeatWithPerturbation, ThrowError]


# ---------------------------------------------------------------------------
# Reversibility annotations


class NonReversible(Value):
    pass


class SkipOnReverse(Value):
    pass


class Barrier(Value):
    pass


class ReverseWith(Value):
    instruction: "Instruction"


Annotation = Union[NonReversible, SkipOnReverse, Barrier, ReverseWith]


# ---------------------------------------------------------------------------
# Instructions

class MoveJoint(Value, hidden=("location",)):
    waypoints: tuple[str, ...]
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = None


class Io(Value, hidden=("location",)):
    op: str
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = None


class Wait(Value, hidden=("location",)):
    seconds: float
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = None


class Call(Value, hidden=("location",)):
    action: str
    items: tuple[str, ...] = ()
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = None


class AdvMoveRef(Value, hidden=("location",)):
    name: str
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = None


class SeqCall(Value, hidden=("location",)):
    name: str
    annotation: Optional[Annotation] = None
    location: Optional[SourceLocation] = None


Instruction = Union[MoveJoint, Io, Wait, Call, AdvMoveRef, SeqCall]


# ---------------------------------------------------------------------------
# Declarations


class Keyframe(Value):
    name: str
    coordinates: tuple[tuple[float, float, float], ...]


class Item(Value, hidden=("location",)):
    name: str
    keyframes: tuple[Keyframe, ...]
    location: Optional[SourceLocation] = None


class IOOperation(Value, hidden=("location",)):
    name: str
    primitives: tuple[Primitive, ...]
    location: Optional[SourceLocation] = None


class JointConfiguration(Value, hidden=("location",)):
    name: str
    joints: tuple[float, ...]
    location: Optional[SourceLocation] = None


class Sequence(Value, hidden=("location",)):
    name: str
    instructions: tuple[Instruction, ...]
    location: Optional[SourceLocation] = None


class ErrorSpec(Value, hidden=("location",)):
    name: str
    recovery_sequence: Optional[str] = None
    respond_after: RespondAfter = RespondAfter.CURRENT_ACTION
    return_to: ReturnTo = ReturnTo.SEQUENCE
    location: Optional[SourceLocation] = None


class AdvMoveSpec(Value, hidden=("location",)):
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
    location: Optional[SourceLocation] = None


class Program(Value):
    """Each declaration table is read-only: a `MappingProxyType` over the
    program's own copy of the mapping given, a new empty dict when it is left
    out (or None), so changing that mapping afterwards changes no program.
    A program prints its tables as dicts."""

    items: dict[str, Item] = None
    io_ops: dict[str, IOOperation] = None
    joint_confs: dict[str, JointConfiguration] = None
    sequences: dict[str, Sequence] = None
    errors: dict[str, ErrorSpec] = None
    adv_moves: dict[str, AdvMoveSpec] = None
    entry: Optional[str] = None

    def __post_init__(self):
        for table in self._fields[:-1]:  # all but `entry`
            _set(self, table, MappingProxyType(dict(getattr(self, table) or ())))

    def __repr__(self):
        shown = ", ".join([f"{f}={_plain(getattr(self, f))!r}" for f in self._fields])
        return f"Program({shown})"


# ---------------------------------------------------------------------------
# Validation

#: The cell's joints, which are the TCP pose: (x, y, z, roll, pitch, yaw).
JOINT_COUNT = 6

#: A bare name (a joint configuration's, a keyframe's): the lexer's identifier.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Instruction forms allowed as a reverse_with payload. Structured forms
#: (sequence calls, guarded moves) have no single-step undo meaning.
_PRIMITIVE_INSTRUCTIONS = (Io, Wait, MoveJoint, Call)


def validate_program(program: Program) -> list[Diagnostic]:
    """Check every structural invariant and return the diagnostics found, in
    a new list on each call.

    An empty list means the program is executable: all referenced names
    resolve to declarations of the right kind, the sequence-call graph is
    acyclic, numeric fields are in range, the entry point exists, and
    `pretty_print` writes text that parses back to the program. Duplicate
    declaration names cannot occur here; the parser rejects them before a
    Program is built.

    A clean program cannot change: its tables are read-only, and a sequence
    field that is not a tuple is a diagnostic. So a clean result is kept on
    the program, in its instance dict as `functools.cached_property` keeps a
    value, and later calls return it unchecked. A program with findings is
    checked on every call, as a list it holds may still change.
    """
    if "_valid" in program.__dict__:
        return []
    diags = _diagnostics(program)
    if not diags:
        _set(program, "_valid", True)
    return diags


def _diagnostics(program: Program) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def err(message, name=None, location=None):
        diags.append(Diagnostic(message, name, location))

    # Every name must print as text that parses back to it: a string holds
    # no newline, a bare name is an identifier, a table key is its name.
    for table in (program.items, program.io_ops, program.joint_confs,
                  program.sequences, program.errors, program.adv_moves):
        for key, decl in table.items():
            if key != decl.name:
                err(f"declaration name {decl.name!r} differs from its table key", key,
                    decl.location)
            elif table is program.joint_confs:
                _check_ident(decl.name, decl.location, err)
            elif "\n" in decl.name:
                err("name holds a newline", decl.name, decl.location)

    for item in program.items.values():
        if not isinstance(item.keyframes, tuple):
            err(_NOT_TUPLE % "keyframes", item.name, item.location)
        if not item.keyframes:
            err("item has no keyframes", item.name, item.location)
        for kf in item.keyframes:
            _check_ident(kf.name, item.location, err)
            if not isinstance(kf.coordinates, tuple):
                err(_NOT_TUPLE % "coordinates", f"{item.name}.{kf.name}", item.location)
            if not kf.coordinates:
                err("keyframe has no coordinates", f"{item.name}.{kf.name}", item.location)
            for coord in kf.coordinates:
                if not isinstance(coord, tuple):
                    err(_NOT_TUPLE % "coordinate", f"{item.name}.{kf.name}", item.location)
                if not _all_finite(coord):
                    err("non-finite keyframe coordinate", f"{item.name}.{kf.name}", item.location)

    for op in program.io_ops.values():
        if not isinstance(op.primitives, tuple):
            err(_NOT_TUPLE % "primitives", op.name, op.location)
        _check_io_operation(op, err)

    for conf in program.joint_confs.values():
        if not isinstance(conf.joints, tuple):
            err(_NOT_TUPLE % "joints", conf.name, conf.location)
        if len(conf.joints) != JOINT_COUNT:
            err(
                f"joint configuration must have exactly {JOINT_COUNT} values,"
                f" got {len(conf.joints)}",
                conf.name,
                conf.location,
            )
        if not _all_finite(conf.joints):
            err("non-finite joint value", conf.name, conf.location)

    for seq in program.sequences.values():
        if not isinstance(seq.instructions, tuple):
            err(_NOT_TUPLE % "instructions", seq.name, seq.location)
        if not seq.instructions:
            err("sequence has no instructions", seq.name, seq.location)
        for instr in seq.instructions:
            _check_instruction(program, seq.name, instr, err)

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


_FLOAT_MAX = sys.float_info.max

#: The finding for a sequence field that is not a tuple, and so could change.
_NOT_TUPLE = "%s is not a tuple"


def _finite(value) -> bool:
    """Whether a real field holds an int or float, not a bool, that is finite
    as a float: false, never raising, for a string or an int past float range."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _all_finite(values) -> bool:
    """Whether every value is `_finite`. Floats whose sum is finite are all
    finite (an inf or nan makes the sum one), so that common case is decided
    without a Python call per value."""
    return ({float}.issuperset(map(type, values)) and -_FLOAT_MAX <= sum(values) <= _FLOAT_MAX
            or all(map(_finite, values)))


def _check_ident(name: str, loc, err) -> None:
    if _IDENT.fullmatch(name) is None:
        err("name is not an identifier", name, loc)


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
            if not (_finite(prim.seconds) and prim.seconds > 0):
                err("sleep duration must be a positive finite number", op.name, op.location)
    if pending_level and selects_since_level != 1:
        err("level primitive not followed by exactly one select", op.name, op.location)


def _check_instruction(program, owner, instr, err) -> None:
    loc = instr.location
    if isinstance(instr, MoveJoint):
        if not isinstance(instr.waypoints, tuple):
            err(_NOT_TUPLE % "waypoints", owner, loc)
        if not instr.waypoints:
            err("move has no waypoints", owner, loc)
        for wp in instr.waypoints:
            if wp not in program.joint_confs:
                err("unresolved joint configuration", wp, loc)
    elif isinstance(instr, Io):
        if instr.op not in program.io_ops:
            err("unresolved io operation", instr.op, loc)
    elif isinstance(instr, Wait):
        if not (_finite(instr.seconds) and instr.seconds > 0):
            err("wait duration must be a positive finite number", owner, loc)
    elif isinstance(instr, Call):
        # Action names bind to the runtime action registry, not to program
        # declarations; only the item arguments are resolvable here.
        if "\n" in instr.action:
            err("name holds a newline", instr.action, loc)
        if not isinstance(instr.items, tuple):
            err(_NOT_TUPLE % "items", owner, loc)
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
    if ann is not None and not isinstance(ann, Annotation.__args__):  # a Union checks slowly
        err("annotation is not an annotation class", owner, loc)
    elif isinstance(ann, ReverseWith):
        payload = ann.instruction
        if getattr(payload, "annotation", None) is not None:
            err("reverse_with payload must not carry an annotation", owner, loc)
        if not isinstance(payload, _PRIMITIVE_INSTRUCTIONS):
            err("reverse_with payload must be an io, wait, move, or call", owner, loc)
        else:
            _check_instruction(program, owner, payload, err)


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
    for move_name in sorted(_reachable_adv_moves(program, espec.recovery_sequence)):
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
        if not (_finite(query.threshold) and query.threshold > 0):
            err("force threshold must be a positive finite number", owner, loc)
    elif isinstance(query, DistanceCovered):
        if not (_finite(query.value) and query.value >= 0):
            err("distance value must be a non-negative finite number", owner, loc)


def _check_adv_move(program: Program, spec: AdvMoveSpec, err) -> None:
    loc = spec.location
    if not (_finite(spec.distance) and spec.distance >= 0):
        err("move distance must be a non-negative finite number", spec.name, loc)
    if spec.condition is not None:
        _check_query(spec.condition, spec.name, loc, err)
    if spec.stop_if is not None:
        _check_query(spec.stop_if, spec.name, loc, err)
    if not isinstance(spec.eval_queries, tuple):
        err(_NOT_TUPLE % "eval_queries", spec.name, loc)
    if not isinstance(spec.on_fail, tuple):
        err(_NOT_TUPLE % "on_fail", spec.name, loc)
    if not isinstance(spec.on_success, tuple):
        err(_NOT_TUPLE % "on_success", spec.name, loc)
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
