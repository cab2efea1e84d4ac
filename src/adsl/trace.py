"""Execution trace: an append-only event log of every state change.

Each event snapshots the clock, call stack, active speed, and the joint and
I/O state before and after the step it describes. An event holds exactly
the fields it serializes: the log records what happened and nothing else.
Reverse execution keeps its own undo log of instruction-end events (see
`ExecutionContext.undo_log`) and never edits or scans this one.

The on-disk form is newline-delimited JSON with a fixed field order:
i, kind, clock, stack, speed, pre_joints, post_joints, pre_bits, post_bits,
data. Bits serialize as 0/1 strings; reals use 17 significant digits so the
file round-trips bit-exactly and identical runs produce identical bytes.

Consecutive events mostly hold the very same stack, bits and joints
objects (immutable snapshots; a motion sample's pre_joints is the previous
post_joints), so each trace keeps the text last formatted for each and
reuses it for an identical object. Equal but distinct objects are formatted
afresh: the bytes never depend on the reuse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps(str) does

from .model import SpeedLevel


class EventKind(Enum):
    INSTR_BEGIN = "instr_begin"
    INSTR_END = "instr_end"
    MOTION_SAMPLE = "motion_sample"
    IO_WRITE = "io_write"
    ERROR_SIGNALED = "error_signaled"
    RECOVERY_BEGIN = "recovery_begin"
    RECOVERY_END = "recovery_end"
    ATTEMPT_BEGIN = "attempt_begin"
    ATTEMPT_END = "attempt_end"
    SETTING_CHANGE = "setting_change"
    REVERSE_BEGIN = "reverse_begin"
    REVERSE_END = "reverse_end"


@dataclass(slots=True)
class TraceEvent:
    index: int
    kind: EventKind
    clock: float
    stack: tuple[tuple[str, int], ...]
    speed: SpeedLevel
    pre_joints: tuple[float, ...]
    post_joints: tuple[float, ...]
    pre_bits: tuple[bool, ...]
    post_bits: tuple[bool, ...]
    data: dict


def _num(x) -> str:
    if type(x) is float:
        return "%.17g" % x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def _json_value(value) -> str:
    fmt = _FORMATTERS.get(type(value))
    if fmt is None:
        # A subclass takes the form of the first type it is an instance of.
        fmt = next((f for t, f in _FORMATTERS.items() if isinstance(value, t)), None)
        if fmt is None:
            raise TypeError(f"unserializable trace value: {value!r}")
    return fmt(value)


def _json_list(value) -> str:
    return "[" + ",".join([_json_value(v) for v in value]) + "]"


def _json_dict(value) -> str:
    return "{" + ",".join([
        (_quote(k) if isinstance(k, str) else json.dumps(k)) + ":" + _json_value(value[k])
        for k in sorted(value)
    ]) + "}"


_FORMATTERS = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: _num,
    float: _num,
    str: _quote,
    list: _json_list,
    tuple: _json_list,
    dict: _json_dict,
    Enum: lambda e: json.dumps(e.value),
}


def _bits(bits) -> str:
    return '"' + "".join(["1" if b else "0" for b in bits]) + '"'


def _stack(stack) -> str:
    return "[" + ",".join([f'["{s}",{i}]' for s, i in stack]) + "]"


def _joints(joints) -> str:
    return "[" + ",".join([_num(j) for j in joints]) + "]"


_NEVER = (object(), "")


def _reuse(memo: dict, slot: str, value, fmt) -> str:
    """`fmt(value)`, reused while the memo's slot holds this very object."""
    held, text = memo.get(slot, _NEVER)
    if held is not value:
        text = fmt(value)
        memo[slot] = (value, text)
    return text


def serialize_event(ev: TraceEvent, memo=None) -> str:
    """One NDJSON line, without its newline; `memo` is a dict kept per trace."""
    if memo is None:
        memo = {}
    return (
        "{"
        f'"i":{ev.index},'
        f'"kind":"{ev.kind.value}",'
        f'"clock":{_num(ev.clock)},'
        f'"stack":{_reuse(memo, "stack", ev.stack, _stack)},'
        f'"speed":"{ev.speed.value}",'
        f'"pre_joints":{_reuse(memo, "joints", ev.pre_joints, _joints)},'
        f'"post_joints":{_reuse(memo, "joints", ev.post_joints, _joints)},'
        f'"pre_bits":{_reuse(memo, "bits", ev.pre_bits, _bits)},'
        f'"post_bits":{_reuse(memo, "bits", ev.post_bits, _bits)},'
        f'"data":{_json_value(ev.data)}'
        "}"
    )


class ExecutionTrace:
    """In-memory event log, optionally mirrored line-by-line to a text sink."""

    def __init__(self, sink=None):
        self.events: list[TraceEvent] = []
        self.sink = sink
        self._memo: dict = {}

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)
        if self.sink is not None:
            self.sink.write(serialize_event(event, self._memo) + "\n")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.kind is kind]

    def serialize(self) -> str:
        memo: dict = {}
        return "".join([serialize_event(ev, memo) + "\n" for ev in self.events])


def read_trace_file(path) -> list[dict]:
    """Parse a trace file back into plain dicts (for inspection and tests)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
