"""Canonical text rendering for programs.

Output is byte-stable: declarations are grouped by kind, sorted by name,
indented with two spaces, and numbers are printed in positional decimal with
exact float round-trip. Fields equal to their defaults are omitted.

Every word the parser picks from a table is taken from that table: each
instruction, primitive, annotation, query and behavior class is written as
its word in the parser's tables, and an error declaration writes the fields
its table names. Only the words no table chooses among are spelled here.
"""

from __future__ import annotations

from enum import Enum

from .model import (
    AdvMoveSpec,
    Call,
    ErrorSpec,
    Instruction,
    IOOperation,
    Item,
    JointConfiguration,
    MoveJoint,
    Program,
    Query,
    ReverseWith,
    Sequence,
)
from .parser import _ANNOTATIONS, _BEHAVIORS, _ERROR_FIELDS, _INSTRUCTIONS, _PRIMITIVES, _QUERIES

#: Each construct class's word: the parser's word tables, inverted.
_WORDS = {cls: word for table in (_INSTRUCTIONS, _PRIMITIVES, _ANNOTATIONS, _QUERIES, _BEHAVIORS)
          for word, cls in table.items()}


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


def _text(value) -> str:
    """A field's value as program text: a string quoted, a keyword its word,
    a number exact."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, Enum):
        return value.value
    return format_number(value)


def _applied(value) -> str:
    """A query or behavior as `word(field, ...)`; one without fields is its word."""
    word = _WORDS[type(value)]
    if not value._fields:
        return word
    return f"{word}({', '.join([_text(getattr(value, f)) for f in value._fields])})"


def _primitive(p) -> str:
    return " ".join([_WORDS[type(p)], *[_text(getattr(p, f)) for f in p._fields]]) + ";"


def _instruction_core(instr: Instruction) -> str:
    word = _WORDS[type(instr)]
    if isinstance(instr, MoveJoint):
        return f"{word} to " + ", ".join(instr.waypoints)
    if isinstance(instr, Call):
        args = " ".join(_string(i) for i in instr.items)
        return f"{word} {_string(instr.action)}({args})"
    return f"{word} {_text(getattr(instr, instr._fields[0]))}"  # Io, Wait, AdvMoveRef, SeqCall


def format_instruction(instr: Instruction) -> str:
    """One-line rendering of an instruction, annotation included."""
    text = _instruction_core(instr) + ";"
    ann = instr.annotation
    if ann is None:
        return text
    if isinstance(ann, ReverseWith):
        return f"@{_WORDS[ReverseWith]}({_instruction_core(ann.instruction)}) {text}"
    return f"@{_WORDS[type(ann)]} {text}"


def format_query(q: Query) -> str:
    """Rendering of a query as program text, which the parser reads back."""
    return _applied(q)


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
    for field in _ERROR_FIELDS:  # a field word is its `ErrorSpec` field; defaults are left out
        value = getattr(spec, field)
        if value != getattr(ErrorSpec, field):
            out.append(f"  {field} {_text(value)};")
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
            out.append(f"    {_applied(b)};")
        out.append("  }")
    out.append("  on_fail {")
    for b in spec.on_fail:
        out.append(f"    {_applied(b)};")
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

    Parsing the output of a program `validate_program` accepts yields a
    structurally identical program; two structurally equal programs always
    print to the same bytes.
    """
    out: list[str] = []
    for field, write in _SECTIONS:
        table = getattr(program, field)
        for name in sorted(table):
            write(table[name], out)
    if program.entry is not None:
        out.append(f"entry {_string(program.entry)};")
    return "\n".join(out) + "\n"
