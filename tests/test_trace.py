import dataclasses
import importlib.resources
import io
import json
import math
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from adsl.controller import Controller
from adsl.model import SpeedLevel
from adsl.printer import format_instruction
from adsl.reverse import PolicyMode, reverse_execute
from adsl.trace import EventKind, ExecutionTrace, TraceEvent, read_trace_file, serialize_event
from adsl.workcell import load_workcell_config

from _helpers import build, quiet_config
from test_golden_trace import MOTION_CASES, golden_run, motion_run


def test_serialized_events_are_valid_json_with_fixed_field_order():
    program = build(
        'io_operation "on" { set_high; bit 0; sleep 0.125; }\n'
        "joint_configuration a = { 0.012345678901234567, 0.0, 0.1, 0.0, 0.0, 0.0 };\n"
        'sequence "s" { io "on"; move to a; }\n'
        'entry "s";'
    )
    controller = Controller(program, quiet_config(), seed=0)
    controller.run()
    expected_fields = [
        "i", "kind", "clock", "stack", "speed",
        "pre_joints", "post_joints", "pre_bits", "post_bits", "data",
    ]
    for event in controller.trace.events:
        line = serialize_event(event)
        record = json.loads(line)
        assert list(record.keys()) == expected_fields
        # Reals round-trip bit-exactly through the 17-significant-digit form.
        assert tuple(record["post_joints"]) == event.post_joints
        assert record["clock"] == event.clock
        assert record["pre_bits"] == "".join("1" if b else "0" for b in event.pre_bits)


def test_trace_file_reader(tmp_path):
    program = build('sequence "s" { wait 0.5; }')
    path = tmp_path / "t.ndjson"
    with open(path, "w", encoding="utf-8") as sink:
        controller = Controller(program, quiet_config(), trace_sink=sink)
        controller.run()
    records = read_trace_file(path)
    assert len(records) == len(controller.trace.events)
    assert records[0]["kind"] == "instr_begin"
    assert records[-1]["kind"] == "instr_end"


# ---------------------------------------------------------------------------
# Byte compatibility of the reusing serializer with a plain reference one.
# The reference below formats every field of every event anew; the
# trace format is fixed, so the two must agree byte for byte.


def _ref_num(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def _ref_json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return _ref_num(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_ref_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{json.dumps(k)}:{_ref_json_value(value[k])}" for k in sorted(value)
        )
        return "{" + inner + "}"
    if isinstance(value, Enum):
        return json.dumps(value.value)
    raise TypeError(f"unserializable trace value: {value!r}")


def _ref_bits(bits) -> str:
    return '"' + "".join("1" if b else "0" for b in bits) + '"'


def reference_serialize_event(ev) -> str:
    stack = "[" + ",".join(f'["{s}",{i}]' for s, i in ev.stack) + "]"
    joints_pre = "[" + ",".join(_ref_num(j) for j in ev.pre_joints) + "]"
    joints_post = "[" + ",".join(_ref_num(j) for j in ev.post_joints) + "]"
    return (
        "{"
        f'"i":{ev.index},'
        f'"kind":"{ev.kind.value}",'
        f'"clock":{_ref_num(ev.clock)},'
        f'"stack":{stack},'
        f'"speed":"{ev.speed.value}",'
        f'"pre_joints":{joints_pre},'
        f'"post_joints":{joints_post},'
        f'"pre_bits":{_ref_bits(ev.pre_bits)},'
        f'"post_bits":{_ref_bits(ev.post_bits)},'
        f'"data":{_ref_json_value(ev.data)}'
        "}"
    )


NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e17]),
    st.integers(),
    st.booleans(),
)
STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", " ", "é", "\ud800", "a\"b\\c"]),
)
VALUES = st.recursive(
    st.one_of(st.none(), NUMBERS, STRINGS, st.sampled_from(list(SpeedLevel))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(STRINGS, inner, max_size=4),
    ),
    max_leaves=6,
)
STACKS = st.lists(st.tuples(st.text(max_size=4), st.integers(0, 99)), max_size=3).map(tuple)
JOINTS = st.lists(NUMBERS, max_size=7).map(tuple)
BITS = st.lists(st.booleans(), max_size=9).map(tuple)


def _twin(x):
    """A value equal to `x`, whose trace text differs where one exists."""
    if type(x) is bool:
        return int(x)
    if type(x) is float and x == 0:
        return -x
    return x


def _copy(value):
    """Equal to `value` but (unless empty) a different object."""
    return tuple([_twin(x) for x in value])


@st.composite
def event_sequences(draw):
    """Events whose fields are, by turns, the very objects of the previous
    event (as in a recorded run), equal copies of them, or fresh values."""
    events = []
    for index in range(draw(st.integers(1, 6))):
        prev = events[-1] if events else None

        def field(name, fresh, prev_name=None):
            if prev is None:
                return draw(fresh)
            old = getattr(prev, prev_name or name)
            how = draw(st.sampled_from(("same", "copy", "fresh")))
            if how == "same":
                return old
            return _copy(old) if how == "copy" else draw(fresh)

        pre_joints = field("pre_joints", JOINTS, "post_joints")
        post_joints = draw(st.sampled_from((pre_joints, None)))
        pre_bits = field("pre_bits", BITS, "post_bits")
        post_bits = draw(st.sampled_from((pre_bits, None)))
        events.append(TraceEvent(
            index=index,
            kind=draw(st.sampled_from(list(EventKind))),
            clock=draw(NUMBERS),
            stack=field("stack", STACKS),
            speed=draw(st.sampled_from(list(SpeedLevel))),
            pre_joints=pre_joints,
            post_joints=draw(JOINTS) if post_joints is None else post_joints,
            pre_bits=pre_bits,
            post_bits=draw(BITS) if post_bits is None else post_bits,
            data=draw(st.dictionaries(STRINGS, VALUES, max_size=3)),
        ))
    return events


@settings(max_examples=60, deadline=None)
@given(first=event_sequences(), second=event_sequences())
def test_serializer_matches_reference_on_two_interleaved_traces(first, second):
    sinks = (io.StringIO(), io.StringIO())
    traces = (ExecutionTrace(sinks[0]), ExecutionTrace(sinks[1]))
    for k in range(max(len(first), len(second))):
        for trace, events in zip(traces, (first, second)):
            if k < len(events):
                trace.append(events[k])
    for sink, trace, events in zip(sinks, traces, (first, second)):
        lines = [reference_serialize_event(ev) for ev in events]
        expected = "".join(line + "\n" for line in lines)
        assert sink.getvalue() == expected
        assert trace.serialize() == expected
        assert [serialize_event(ev) for ev in events] == lines


@pytest.mark.parametrize("program, config", [
    ("peg_in_hole.adsl", "aligned.json"),
    ("peg_in_hole.adsl", "blocked.json"),
    ("reverse_demo.adsl", "free_space.json"),
    ("barrier_demo.adsl", "free_space.json"),
    ("stats_insert.adsl", "stats.json"),
])
def test_sink_bytes_equal_serialize_for_shipped_examples(program, config):
    examples = importlib.resources.files("adsl") / "examples"
    sink = io.StringIO()
    controller = Controller(
        build((examples / program).read_text(encoding="utf-8")),
        load_workcell_config(str(examples / config)),
        seed=0,
        trace_sink=sink,
    )
    controller.run()
    reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
    assert sink.getvalue() == controller.trace.serialize()
    assert sink.getvalue() == "".join(
        reference_serialize_event(ev) + "\n" for ev in controller.trace.events
    )


def test_an_event_holds_exactly_the_fields_it_serializes():
    event = TraceEvent(0, EventKind.INSTR_BEGIN, 0.0, (), SpeedLevel.NORMAL, (), (), (), (), {})
    keys = list(json.loads(serialize_event(event)))
    names = [f.name for f in dataclasses.fields(TraceEvent)]
    assert ["i" if n == "index" else n for n in names] == keys


SHIPPED_RUNS = [
    ("peg_in_hole.adsl", "aligned.json"),
    ("peg_in_hole.adsl", "blocked.json"),
    ("reverse_demo.adsl", "free_space.json"),
    ("barrier_demo.adsl", "free_space.json"),
    ("stats_insert.adsl", "stats.json"),
]


def assert_instr_ends_close_their_stack_tops(controller):
    """Reversal reads an entry's instruction off the top of its stack."""
    sequences = controller.program.sequences
    ends = controller.trace.of_kind(EventKind.INSTR_END)
    assert ends
    for event in ends:
        seq, index = event.stack[-1]
        assert event.data["text"] == format_instruction(sequences[seq].instructions[index])


@pytest.mark.parametrize("program, config", SHIPPED_RUNS)
def test_instr_end_closes_the_instruction_at_its_stack_top(program, config):
    examples = importlib.resources.files("adsl") / "examples"
    controller = Controller(
        build((examples / program).read_text(encoding="utf-8")),
        load_workcell_config(str(examples / config)),
        seed=0,
    )
    controller.run()
    assert_instr_ends_close_their_stack_tops(controller)


def test_instr_end_closes_the_instruction_at_its_stack_top_in_golden_runs():
    for mode in PolicyMode:
        assert_instr_ends_close_their_stack_tops(golden_run(mode)[0])
    for name in MOTION_CASES:
        assert_instr_ends_close_their_stack_tops(motion_run(name)[0])
