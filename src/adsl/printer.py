"""Canonical text rendering for programs.

Output is byte-stable: declarations are grouped by kind, sorted by name,
indented with two spaces, and numbers are printed in positional decimal with
exact float round-trip. Fields equal to their defaults are omitted.
"""

from __future__ import annotations

from .model import (
    AdvMoveRef,
    AdvMoveSpec,
    Barrier,
    Call,
    ErrorSpec,
    ForcesExceed,
    Instruction,
    Io,
    IOOperation,
    Item,
    JointConfiguration,
    MoveJoint,
    NonReversible,
    Program,
    Query,
    RepeatWithPerturbation,
    RespondAfter,
    ReturnTo,
    ReturnToInitialPosition,
    ReverseWith,
    SelectBit,
    SeqCall,
    Sequence,
    SetHigh,
    SetLow,
    SkipOnReverse,
    Sleep,
    ThrowError,
    Wait,
)


def format_number(value) -> str:
    """Render a number so the lexer reads back the identical value.

    Floats use the shortest round-trip repr when it is plain decimal; values
    that repr with an exponent fall back to the exact positional expansion
    of the underlying binary float.
    """
    if isinstance(value, int):
        return str(value)
    r = repr(float(value))
    if "e" not in r and "E" not in r:
        return r
    from decimal import Decimal  # loaded here: few numbers need it
    return format(Decimal(float(value)), "f")


def _string(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _behavior(b) -> str:
    if isinstance(b, ReturnToInitialPosition):
        return "return_to_initial_position;"
    if isinstance(b, RepeatWithPerturbation):
        return f"repeat_with_perturbation({b.max_retries});"
    assert isinstance(b, ThrowError)
    return f"throw_error({_string(b.error)});"


def _primitive(p) -> str:
    if isinstance(p, SetLow):
        return "set_low;"
    if isinstance(p, SetHigh):
        return "set_high;"
    if isinstance(p, SelectBit):
        return f"bit {p.index};"
    assert isinstance(p, Sleep)
    return f"sleep {format_number(p.seconds)};"


def _instruction_core(instr: Instruction) -> str:
    if isinstance(instr, MoveJoint):
        return "move to " + ", ".join(instr.waypoints)
    if isinstance(instr, Io):
        return f"io {_string(instr.op)}"
    if isinstance(instr, Wait):
        return f"wait {format_number(instr.seconds)}"
    if isinstance(instr, Call):
        args = " ".join(_string(i) for i in instr.items)
        return f"call {_string(instr.action)}({args})"
    if isinstance(instr, AdvMoveRef):
        return f"adv_move {_string(instr.name)}"
    assert isinstance(instr, SeqCall)
    return f"seq {_string(instr.name)}"


def format_instruction(instr: Instruction) -> str:
    """One-line rendering of an instruction, annotation included."""
    ann = instr.annotation
    prefix = ""
    if isinstance(ann, NonReversible):
        prefix = "@nonreversible "
    elif isinstance(ann, SkipOnReverse):
        prefix = "@skip_on_reverse "
    elif isinstance(ann, Barrier):
        prefix = "@barrier "
    elif isinstance(ann, ReverseWith):
        prefix = f"@reverse_with({_instruction_core(ann.instruction)}) "
    return prefix + _instruction_core(instr) + ";"


def format_query(q: Query) -> str:
    """Rendering of a query as program text, which the parser reads back."""
    if isinstance(q, ForcesExceed):
        return f"forces_exceed({format_number(q.threshold)})"
    return f"distance_covered({q.cmp.value}, {format_number(q.value)})"


def _item(item: Item, out: list[str]) -> None:
    out.append(f"item {_string(item.name)} {{")
    for kf in item.keyframes:
        out.append(f"  keyframe {kf.name} {{")
        for x, y, z in kf.coordinates:
            out.append(
                f"    ({format_number(x)}, {format_number(y)}, {format_number(z)});"
            )
        out.append("  }")
    out.append("}")


def _io_op(op: IOOperation, out: list[str]) -> None:
    out.append(f"io_operation {_string(op.name)} {{")
    for p in op.primitives:
        out.append(f"  {_primitive(p)}")
    out.append("}")


def _joint_conf(conf: JointConfiguration, out: list[str]) -> None:
    values = ", ".join(format_number(j) for j in conf.joints)
    out.append(f"joint_configuration {conf.name} = {{ {values} }};")


def _error(spec: ErrorSpec, out: list[str]) -> None:
    out.append(f"error {_string(spec.name)} {{")
    if spec.recovery_sequence is not None:
        out.append(f"  recovery_sequence {_string(spec.recovery_sequence)};")
    if spec.respond_after is not RespondAfter.CURRENT_ACTION:
        out.append(f"  respond_after {spec.respond_after.value};")
    if spec.return_to is not ReturnTo.SEQUENCE:
        out.append(f"  return_to {spec.return_to.value};")
    out.append("}")


def _adv_move(spec: AdvMoveSpec, out: list[str]) -> None:
    out.append(f"advanced_move {_string(spec.name)} {{")
    if spec.condition is not None:
        out.append(f"  condition {format_query(spec.condition)};")
    out.append("  specification {")
    out.append(
        f"    distance {format_number(spec.distance)}"
        f" direction {spec.direction.value} frame {spec.frame.value};"
    )
    if spec.stop_if is not None:
        out.append(f"    stop_if {format_query(spec.stop_if)};")
    if spec.speed is not None:
        out.append(f"    speed {spec.speed.value};")
    out.append("  }")
    out.append("  evaluation {")
    for q in spec.eval_queries:
        out.append(f"    {format_query(q)};")
    out.append("  }")
    if spec.on_success:
        out.append("  on_success {")
        for b in spec.on_success:
            out.append(f"    {_behavior(b)}")
        out.append("  }")
    out.append("  on_fail {")
    for b in spec.on_fail:
        out.append(f"    {_behavior(b)}")
    out.append("  }")
    out.append("}")


def _sequence(seq: Sequence, out: list[str]) -> None:
    out.append(f"sequence {_string(seq.name)} {{")
    for instr in seq.instructions:
        out.append(f"  {format_instruction(instr)}")
    out.append("}")


#: Each declaration table as a `Program` field and its writer, in print order.
_SECTIONS = (("items", _item), ("io_ops", _io_op), ("joint_confs", _joint_conf),
             ("errors", _error), ("adv_moves", _adv_move), ("sequences", _sequence))


def pretty_print(program: Program) -> str:
    """Render a program as canonical DSL text.

    Parsing the output yields a structurally identical program; two
    structurally equal programs always print to the same bytes.
    """
    out: list[str] = []
    for field, write in _SECTIONS:
        table = getattr(program, field)
        for name in sorted(table):
            write(table[name], out)
    if program.entry is not None:
        out.append(f"entry {_string(program.entry)};")
    return "\n".join(out) + "\n"
