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

Events enter a trace by `append`, as `TraceEvent`s, except the controller's
motion samples, most lines of a run that moves: each cycle's fields enter by
`move_sample` or `attempt_sample`, one method per data shape. A kept trace
builds the same event from them and a `NULL_SINK` trace only counts. A
streamed trace writes the line straight from the fields through the shape's
line template, newline included, when the clock and reals are exact floats,
`contact` an exact bool and the trace already keeps the texts (below) of its
stack, speed and bits; otherwise it builds the event and writes it as
`append` does (`serialize_event`, the generic path).

Each line is one `%` format over field texts. A trace keeps the texts last
built from its events' stack, speed, bits and joints objects (immutable
snapshots that consecutive events mostly share), reused only for those very
objects, and per `data` key tuple the sorted, quoted keys and each key's last
exact-float text, reused for an equal nonzero float. The bytes never depend
on which path ran: the reference formatter in tests/test_trace.py defines them.
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


def _float_text(slot: list, v: float) -> str:
    if v != slot[2] or not v:  # 0.0 == -0.0 but they print apart; nan equals nothing
        slot[2:] = v, slot[0] + "%.17g" % v
    return slot[3]


_NEVER = object()
_SIX_JOINTS = "[" + ",".join(["%.17g"] * JOINT_COUNT) + "]"  # a run's joints: six floats
_LINE = '{"i":%s,"kind":"%s","clock":%.17g%s%s,"post_joints":%s%s%s}'
_LINE_NUM = _LINE.replace("%.17g", "%s")  # for a clock that is not exactly a float

#: The `data` keys, in insertion order, of the controller's motion samples:
MOVE_SAMPLE_KEYS = ("advanced", "contact")  # a pose move's cycle (`move_sample`)
ATTEMPT_SAMPLE_KEYS = ("advanced", "covered", "contact", "raw", "filtered")  # `attempt_sample`
_MOTION_SAMPLE = EventKind.MOTION_SAMPLE  # looked up once: off the class it costs ~0.1 us
_BOOL = ("false", "true")
#: A sample's line templates, newline included; the data keys sorted, as every line writes them.
_SAMPLE = _LINE.replace('"%s"', f'"{_MOTION_SAMPLE.value}"').replace("%s}", '{%s,"contact":%s')
_MOVE_LINE = _SAMPLE + "}}\n"
_ATTEMPT_LINE = _SAMPLE + ',"covered":%.17g,"filtered":%.17g,"raw":%.17g}}\n'


class _Memo:
    """A trace's texts, each kept with the objects it was last built from;
    `orders` maps a data key tuple to [quoted key, key, last float, "key":text]s."""

    def __init__(self):
        self.stack = self.speed = self.joints = self.pre_bits = self.post_bits = _NEVER
        self.orders: dict[tuple, list] = {}
        self.advanced = ['"advanced":', "advanced", None, ""]  # an `orders` slot, for samples


def serialize_event(ev: TraceEvent, memo=None) -> str:
    """One NDJSON line, without its newline; `memo` is a `_Memo` kept per trace."""
    memo = _Memo() if memo is None else memo
    stack, speed = ev.stack, ev.speed
    if stack is not memo.stack or speed is not memo.speed:
        memo.stack, memo.speed = stack, speed
        frames = ",".join([f"[{_quote(s)},{i}]" for s, i in stack])
        memo.head = f',"stack":[{frames}],"speed":"{speed.value}","pre_joints":'
    pre_joints, post_joints = ev.pre_joints, ev.post_joints
    pre = memo.joints_text if pre_joints is memo.joints else _joints(pre_joints)
    post = pre if post_joints is pre_joints else _joints(post_joints)
    memo.joints, memo.joints_text = post_joints, post
    pre_bits, post_bits = ev.pre_bits, ev.post_bits
    if pre_bits is not memo.pre_bits or post_bits is not memo.post_bits:
        memo.pre_bits, memo.post_bits = pre_bits, post_bits
        memo.bits_text = f',"pre_bits":{_bits(pre_bits)},"post_bits":{_bits(post_bits)},"data":'
    values = ev.data
    keys = tuple(values)
    order = memo.orders.get(keys)
    if order is None:
        order = memo.orders[keys] = [[_quote(k) + ":", k, None, ""] for k in sorted(keys)]
    data = "{" + ",".join([
        _float_text(slot, v) if type(v) is float else slot[0] + _json_value(v)
        for slot in order for v in (values[slot[1]],)]) + "}"
    line, clock = (_LINE, ev.clock) if type(ev.clock) is float else (_LINE_NUM, _num(ev.clock))
    return line % (ev.index, ev.kind._value_, clock, memo.head, pre, post, memo.bits_text, data)


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
        self._memo = _Memo()

    def append(self, event: TraceEvent) -> None:
        self.count += 1
        if self.events is None:
            if self.sink is not NULL_SINK:
                self.sink.write(serialize_event(event, self._memo) + "\n")
        else:
            self.events.append(event)

    def move_sample(self, clock, stack, speed, pre_joints, joints, bits, advanced, contact):
        """Record a pose move's cycle: a `MOTION_SAMPLE` from `pre_joints` to
        `joints` whose data holds `MOVE_SAMPLE_KEYS`; the bits do not change."""
        if (self.sink is not None and type(clock) is float and type(advanced) is float
                and type(contact) is bool):
            if self._write_sample(_MOVE_LINE, clock, stack, speed, pre_joints, joints, bits,
                                  advanced, contact, ()):
                return
        self.append(TraceEvent(self.count, _MOTION_SAMPLE, clock, stack, speed, pre_joints,
                               joints, bits, bits, {"advanced": advanced, "contact": contact}))

    def attempt_sample(self, clock, stack, speed, pre_joints, joints, bits,
                       advanced, covered, contact, raw, filtered):
        """Record a guarded move's cycle: as `move_sample`, with the data
        keys `ATTEMPT_SAMPLE_KEYS`."""
        if (self.sink is not None and type(clock) is float and type(advanced) is float
                and type(covered) is float and type(contact) is bool
                and type(raw) is float and type(filtered) is float):
            if self._write_sample(_ATTEMPT_LINE, clock, stack, speed, pre_joints, joints, bits,
                                  advanced, contact, (covered, filtered, raw)):
                return
        self.append(TraceEvent(self.count, _MOTION_SAMPLE, clock, stack, speed, pre_joints,
                               joints, bits, bits, {"advanced": advanced, "covered": covered,
                                                    "contact": contact, "raw": raw,
                                                    "filtered": filtered}))

    def _write_sample(self, line, clock, stack, speed, pre_joints, joints, bits,
                      advanced, contact, rest) -> bool:
        """Count a sample whose clock and reals are exact floats and whose
        `contact` is an exact bool, and stream it through its `line` template
        (`rest`: the template's last floats). Returns False, having done
        nothing, when the memo's texts are not of its stack, speed and bits:
        the generic path builds those (a move's first sample, at most)."""
        if self.sink is NULL_SINK:
            self.count += 1
            return True
        memo = self._memo
        if (stack is not memo.stack or speed is not memo.speed
                or bits is not memo.pre_bits or bits is not memo.post_bits):
            return False
        index = self.count
        self.count = index + 1
        pre = memo.joints_text if pre_joints is memo.joints else _joints(pre_joints)
        post = pre if joints is pre_joints else _joints(joints)
        memo.joints, memo.joints_text = joints, post
        self.sink.write(line % (index, clock, memo.head, pre, post, memo.bits_text,
                                _float_text(memo.advanced, advanced), _BOOL[contact], *rest))
        return True

    def __len__(self) -> int:
        return self.count

    def serialize(self) -> str:
        """The NDJSON text; a streamed trace's is in its sink, so this raises."""
        if self.events is None:
            raise ValueError("the trace was streamed to its sink and kept no events")
        memo = _Memo()
        return "".join([serialize_event(ev, memo) + "\n" for ev in self.events])
