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
Every string, sequence names in `stack` included, is written as `json.dumps`
writes it (`_quote`, ASCII escapes). `data` keys must be `str`; any other
key, like any unserializable value, raises `TypeError`.

Events enter a trace by `append`, as `TraceEvent`s, and a streamed trace
writes each with `serialize_event`, the generic path, which formats every
field anew, as the reference formatter in tests/test_trace.py does. The
controller's motion samples, most lines of a run that moves, enter by
`move_sample` or `attempt_sample`, one method per data shape, as fields of
fixed types: the clock and every real an exact float, `contact` an exact
bool, and each joints tuple six floats. The controller makes them so where
a run's values enter (the home joints, a move's speed and goal), so the
methods test no type. A kept trace builds the same event from them and a
`NULL_SINK` trace only counts. A streamed trace writes the line through the
shape's template, newline included, reusing the texts of the fields the
samples share: the trace's only memo. A field of another type would be
written wrongly there; an event that holds one enters by `append`.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps(str) does

from .model import JOINT_COUNT, SpeedLevel, Value


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


class TraceEvent(Value, frozen=False):
    __slots__ = ("index", "kind", "clock", "stack", "speed", "pre_joints", "post_joints",
                 "pre_bits", "post_bits", "data")
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
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x) if isinstance(x, int) else format(x, ".17g")


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
    return "{" + ",".join([_quote(k) + ":" + _json_value(value[k]) for k in sorted(value)]) + "}"


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


def _joints(joints) -> str:
    if len(joints) == JOINT_COUNT:
        a, b, c, d, e, f = joints
        if float is type(a) is type(b) is type(c) is type(d) is type(e) is type(f):
            return _SIX_JOINTS % tuple(joints)
    return "[" + ",".join([_num(j) for j in joints]) + "]"


def _head(stack, speed) -> str:
    frames = ",".join([f"[{_quote(s)},{i}]" for s, i in stack])
    return f',"stack":[{frames}],"speed":"{speed._value_}","pre_joints":'


def _bits_pair(pre_bits, post_bits) -> str:
    return f',"pre_bits":{_bits(pre_bits)},"post_bits":{_bits(post_bits)},"data":'


_NEVER = object()
_SIX_JOINTS = "[" + ",".join(["%.17g"] * JOINT_COUNT) + "]"  # a run's joints: six floats
_LINE = '{"i":%s,"kind":"%s","clock":%s%s%s,"post_joints":%s%s%s}'

_MOTION_SAMPLE = EventKind.MOTION_SAMPLE  # looked up once: off the class it costs ~0.1 us
_BOOL = ("false", "true")
#: A sample's line templates, newline included; the data keys sorted, as every line writes them.
_SAMPLE = (_LINE.replace('"%s","clock":%s', f'"{_MOTION_SAMPLE.value}","clock":%.17g')
           .replace("%s}", '{"advanced":%s,"contact":%s'))
_MOVE_LINE = _SAMPLE + "}}\n"
_ATTEMPT_LINE = _SAMPLE + ',"covered":%.17g,"filtered":%.17g,"raw":%.17g}}\n'


def serialize_event(ev: TraceEvent) -> str:
    """One NDJSON line, without its newline, every field formatted anew."""
    return _LINE % (ev.index, ev.kind._value_, _num(ev.clock), _head(ev.stack, ev.speed),
                    _joints(ev.pre_joints), _joints(ev.post_joints),
                    _bits_pair(ev.pre_bits, ev.post_bits), _json_dict(ev.data))


class _NullSink:
    """Drops what is written: still a sink, for code that wraps a trace's sink."""

    def write(self, text: str) -> int:
        return len(text)


#: A text sink that drops what is written. A trace given it neither keeps nor
#: serializes its events; it only counts them.
NULL_SINK = _NullSink()


class ExecutionTrace:
    """A run's events: kept in `events`, or with a text sink written to it line
    by line and not kept (`events` is None); with `NULL_SINK`, only counted.
    `len()` counts them each way."""

    def __init__(self, sink=None):
        self.events: list[TraceEvent] | None = [] if sink is None else None
        self.sink = sink
        self.count = 0
        # The streamed sample writer's memo: what each of its texts was built from.
        self._stack = self._speed = self._bits = self._joints = self._advanced = _NEVER

    def append(self, event: TraceEvent) -> None:
        self.count += 1
        if self.events is None:
            if self.sink is not NULL_SINK:
                self.sink.write(serialize_event(event) + "\n")
        else:
            self.events.append(event)

    def move_sample(self, clock, stack, speed, pre_joints, joints, bits, advanced, contact):
        """Record a move's cycle: a `MOTION_SAMPLE` from `pre_joints` to
        `joints` whose data holds `advanced` and `contact`; the bits do not change.
        The clock and `advanced` are floats, `contact` a bool and the joints
        six floats each, as the controller's move loops hand them."""
        if self.sink is not None:
            self._write_sample(_MOVE_LINE, clock, stack, speed, pre_joints, joints, bits,
                               advanced, contact, ())
        else:  # kept: what `append` does, without the call
            self.events.append(TraceEvent(self.count, _MOTION_SAMPLE, clock, stack, speed,
                                          pre_joints, joints, bits, bits,
                                          {"advanced": advanced, "contact": contact}))
            self.count += 1

    def attempt_sample(self, clock, stack, speed, pre_joints, joints, bits,
                       advanced, covered, contact, raw, filtered):
        """Record a guarded move's cycle: as `move_sample`, with the data keys
        `advanced`, `covered`, `contact`, `raw` and `filtered`, the reals among
        them floats."""
        if self.sink is not None:
            self._write_sample(_ATTEMPT_LINE, clock, stack, speed, pre_joints, joints, bits,
                               advanced, contact, (covered, filtered, raw))
        else:
            self.events.append(TraceEvent(
                self.count, _MOTION_SAMPLE, clock, stack, speed, pre_joints, joints, bits, bits,
                {"advanced": advanced, "covered": covered, "contact": contact, "raw": raw,
                 "filtered": filtered}))
            self.count += 1

    def _write_sample(self, line, clock, stack, speed, pre_joints, joints, bits,
                      advanced, contact, rest) -> None:
        """Count a sample and stream it through its `line` template (`rest`:
        the template's last floats). A text is rebuilt unless it was built
        from these very stack, speed, bits or joints objects, or, for
        `advanced`, from an equal nonzero float."""
        index = self.count
        self.count = index + 1
        if self.sink is NULL_SINK:
            return
        if stack is not self._stack or speed is not self._speed:
            self._stack, self._speed, self._head_text = stack, speed, _head(stack, speed)
        if bits is not self._bits:
            self._bits, self._bits_text = bits, _bits_pair(bits, bits)
        pre = self._joints_text if pre_joints is self._joints else _SIX_JOINTS % pre_joints
        post = pre if joints is pre_joints else _SIX_JOINTS % joints
        self._joints, self._joints_text = joints, post
        if advanced != self._advanced or not advanced:  # 0.0 == -0.0 print apart; nan != nan
            self._advanced, self._advanced_text = advanced, "%.17g" % advanced
        self.sink.write(line % (index, clock, self._head_text, pre, post, self._bits_text,
                                self._advanced_text, _BOOL[contact], *rest))

    def __len__(self) -> int:
        return self.count

    def serialize(self) -> str:
        """The NDJSON text; a streamed trace's is in its sink, so this raises."""
        if self.events is None:
            raise ValueError("the trace was streamed to its sink and kept no events")
        return "".join([serialize_event(ev) + "\n" for ev in self.events])
