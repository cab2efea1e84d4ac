import importlib.resources
import io
import itertools
import json
import math
from enum import Enum

import pytest
from hypothesis import example, given, settings, strategies as st

from adsl.controller import Controller
from adsl.model import JOINT_COUNT, SpeedLevel
from adsl.printer import format_instruction
from adsl import trace as trace_module
from adsl.reverse import PolicyMode, reverse_execute
from adsl.trace import NULL_SINK, EventKind, ExecutionTrace, TraceEvent, serialize_event
from adsl.workcell import load_workcell_config

from _helpers import ATTEMPT_SAMPLE_KEYS, MOVE_SAMPLE_KEYS, build, of_kind, quiet_config
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
    # A trace with a sink keeps no events; a sink-less run of the same seed does.
    kept = Controller(program, quiet_config())
    kept.run()
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == len(controller.trace) == len(kept.trace.events) == 2
    assert records == [json.loads(serialize_event(ev)) for ev in kept.trace.events]
    assert records[0]["kind"] == "instr_begin"
    assert records[-1]["kind"] == "instr_end"


def test_a_trace_with_a_sink_keeps_no_events():
    sink = io.StringIO()
    controller = Controller(build('sequence "s" { wait 0.5; wait 0.25; }'), quiet_config(),
                            trace_sink=sink)
    controller.run()
    assert controller.trace.events is None
    assert len(controller.trace) == 4 == len(sink.getvalue().splitlines())
    assert [json.loads(line)["i"] for line in sink.getvalue().splitlines()] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="kept no events"):
        controller.trace.serialize()


def test_a_trace_with_the_null_sink_only_counts(monkeypatch):
    program = build('sequence "s" { wait 0.5; wait 0.25; }')
    kept = Controller(program, quiet_config())
    kept.run()
    monkeypatch.setattr(trace_module, "serialize_event", None)  # never called
    controller = Controller(program, quiet_config(), trace_sink=NULL_SINK)
    result = controller.run()
    assert result.completed and controller.trace.events is None
    assert len(controller.trace) == len(kept.trace.events) == 4
    with pytest.raises(ValueError, match="kept no events"):
        controller.trace.serialize()


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
    stack = "[" + ",".join(f"[{json.dumps(s)},{i}]" for s, i in ev.stack) + "]"
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


class _Real(float):
    """A float subclass with its own format, which only the reference's
    `format(x, ".17g")` honours: a fast path for exact floats must not take it."""

    def __format__(self, spec):
        return float.__format__(self, spec.replace("17", "6"))


NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e17]),
    st.integers(),
    st.booleans(),
    st.floats().map(_Real),
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
STACKS = st.lists(st.tuples(STRINGS, st.integers(0, 99)), max_size=3).map(tuple)
JOINTS = st.lists(NUMBERS, max_size=7).map(tuple)
#: A value of any type for a key kept from the previous event.
RETYPED = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 1.0, 1, True, _Real(0.1), math.nan]),
    NUMBERS,
    st.dictionaries(STRINGS, NUMBERS, max_size=2),
)
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


def _data(draw, prev):
    """A fresh `data` dict; or the previous event's keys, in the same order,
    holding values of any type."""
    if draw(st.booleans()) and prev is not None:
        return {
            k: draw(st.one_of(st.just(old), st.just(_twin(old)), RETYPED))
            for k, old in zip(_copy(tuple(prev.data)), prev.data.values())
        }
    return draw(st.dictionaries(STRINGS, VALUES, max_size=3))


@st.composite
def event_sequences(draw):
    """Events whose fields are, by turns, the very objects of the previous
    event (as in a recorded run), equal copies of them, fresh values, or
    (joints) fresh values of the same length."""
    events = []
    for index in range(draw(st.integers(1, 6))):
        prev = events[-1] if events else None

        def field(name, fresh, prev_name=None):
            if prev is None:
                return draw(fresh)
            old = getattr(prev, prev_name or name)
            how = draw(st.sampled_from(("same", "copy", "fresh", "same length")))
            if how == "same":
                return old
            if how == "same length" and fresh is JOINTS:
                return tuple(draw(st.lists(NUMBERS, min_size=len(old), max_size=len(old))))
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
            data=_data(draw, prev),
        ))
    return events


def _trail(datas=None, joints=None):
    """Events alike but for their `data` or post_joints (each pre_joints is
    the previous post_joints, as in a recorded run); six floats by default."""
    datas = datas or [{}] * len(joints)
    joints = joints or [(0.5, -1.0, 0.0, -0.0, 0.25, 1e17)] * len(datas)
    events = []
    for index, (data, post) in enumerate(zip(datas, joints)):
        pre = events[-1].post_joints if events else post
        events.append(TraceEvent(index, EventKind.MOTION_SAMPLE, 0.25 * index, (("s", 0),),
                                 SpeedLevel.NORMAL, pre, post, (False,), (False,), data))
    return events


#: Data values that change type or sign under a kept key order; same-length
#: joints that mix in ints, bools, -0.0 and a float subclass; six joints, a
#: run's, that leave the six-float template by one value's type or by their
#: length; and six floats that differ only in a zero's sign, repeated as the
#: same tuple or as an equal one, once from pre_joints equal to the previous
#: post_joints but not that tuple.
SIX = (0.1, -0.0, math.nan, math.inf, 5e-324, 1e17)
SIX_ZERO = SIX[:1] + (0.0,) + SIX[2:]
_SIXES = _trail(joints=[SIX, SIX, SIX_ZERO, tuple(list(SIX_ZERO)), SIX, SIX_ZERO, SIX])
CACHE_ATTACKS = (
    _trail(datas=[{"a": v, "b": 0.5} for v in (
        0.0, -0.0, 0.0, 0.1, _Real(0.1), 0.1, 1.0, 1, True, 1.0,
        {"c": 0.1}, {"c": True}, math.nan, math.nan, -0.0, -0.0, 2.5, 2.5,
    )]),
    _trail(joints=[(0.1, 0.0), (1, 0.0), (True, -0.0), (_Real(0.1), 0.0), (0.1, -0.0)]),
    _trail(joints=[SIX, (1,) + SIX[1:], SIX, SIX[:5] + (True,), (_Real(0.1),) + SIX[1:],
                   SIX[:5], SIX + (0.5,), SIX]),
    _SIXES[:4] + [_SIXES[4].replace(pre_joints=SIX)] + _SIXES[5:],
)


@example(first=CACHE_ATTACKS[0], second=CACHE_ATTACKS[1])
@example(first=CACHE_ATTACKS[2], second=CACHE_ATTACKS[1])
@settings(max_examples=60, deadline=None)
@given(first=event_sequences(), second=event_sequences())
def test_serializer_matches_reference_on_two_interleaved_traces(first, second):
    sinks = (io.StringIO(), io.StringIO())
    # Two streamed traces and two that keep their events, fed interleaved.
    traces = (ExecutionTrace(sinks[0]), ExecutionTrace(sinks[1]), ExecutionTrace(), ExecutionTrace())
    for k in range(max(len(first), len(second))):
        for trace, events in zip(traces, (first, second) * 2):
            if k < len(events):
                trace.append(events[k])
    for sink, trace, kept, events in zip(sinks, traces, traces[2:], (first, second)):
        lines = [reference_serialize_event(ev) for ev in events]
        expected = "".join(line + "\n" for line in lines)
        assert sink.getvalue() == expected
        assert len(trace) == len(kept) == len(events)
        assert kept.serialize() == expected
        assert [serialize_event(ev) for ev in events] == lines


# ---------------------------------------------------------------------------
# Motion samples: a line template for the controller's two data shapes, whose
# fields have fixed types, and `append` for any other event; the bytes must
# not tell them apart.

#: Exact floats, as a motion sample holds; a few often, so that one repeats.
SAMPLE_FLOATS = st.one_of(st.sampled_from([0.1, 0.25, 0.0, -0.0, math.nan, math.inf]), st.floats())


@st.composite
def motion_samples(draw):
    """Events with a motion sample's data keys as emitted, reordered, with one
    key more or one fewer; holding the types the controller writes, one value
    of any type, or any values; mostly of the motion-sample kind."""
    keys = list(draw(st.sampled_from((MOVE_SAMPLE_KEYS, ATTEMPT_SAMPLE_KEYS))))
    how = draw(st.sampled_from(("emitted", "emitted", "reordered", "extra", "missing")))
    if how == "reordered":
        keys = draw(st.permutations(keys))
    elif how == "extra":
        keys.insert(draw(st.integers(0, len(keys))), draw(STRINGS.filter(lambda k: k not in keys)))
    elif how == "missing":
        del keys[draw(st.integers(0, len(keys) - 1))]
    data = {k: draw(st.booleans() if k == "contact" else SAMPLE_FLOATS) for k in keys}
    how = draw(st.sampled_from(("typed", "typed", "one retyped", "any")))
    if how != "typed":
        for k in keys if how == "any" else [draw(st.sampled_from(keys))]:
            data[k] = draw(RETYPED)
    pre = draw(st.one_of(st.just((0.5, 0.1, -0.0, 0.0, 0.0, 0.25)), JOINTS))
    bits = draw(BITS)
    return TraceEvent(
        draw(st.integers(0, 10 ** 6)),
        draw(st.sampled_from([EventKind.MOTION_SAMPLE] * 4 + list(EventKind))),
        draw(st.one_of(st.floats(), NUMBERS)),
        draw(st.sampled_from(((("s", 0),), (("s", 0), ("t", 2))))),
        draw(st.sampled_from(list(SpeedLevel))),
        pre, draw(st.sampled_from((pre, (0.5, 0.1, 0.0, 0.0, 0.0, 0.25)))), bits, bits,
        data,
    )


@st.composite
def mixed_traces(draw):
    """Generic events with motion samples put in at any places."""
    events = draw(event_sequences())
    for sample in draw(st.lists(motion_samples(), min_size=1, max_size=8)):
        events.insert(draw(st.integers(0, len(events))), sample)
    return events


_MOVE = {"advanced": 0.1, "contact": False}
_ATTEMPT = {"advanced": 0.1, "covered": 0.2, "contact": True, "raw": 0.5, "filtered": 0.25}
#: Samples of both shapes whose `advanced` repeats or changes sign, each slot
#: of which in turn holds another type, with their keys reordered or extra,
#: then of another kind or with a clock that is not an exact float.
SAMPLE_ATTACKS = _trail(datas=[
    _MOVE, _ATTEMPT, _MOVE, {**_MOVE, "advanced": 0.0}, {**_MOVE, "advanced": -0.0},
    {**_MOVE, "advanced": math.nan}, {**_MOVE, "advanced": math.nan},
    {**_MOVE, "contact": 1}, {**_MOVE, "advanced": _Real(0.1)}, {**_MOVE, "advanced": True},
    *[{**_ATTEMPT, key: value} for key in _ATTEMPT for value in (True, _Real(0.3), 2 ** 60, 1)],
    {"contact": False, "advanced": 0.1}, {**_MOVE, "extra": None},
])
SAMPLE_ATTACKS += [
    SAMPLE_ATTACKS[0].replace(kind=EventKind.INSTR_END),
    SAMPLE_ATTACKS[0].replace(clock=True),
    SAMPLE_ATTACKS[1].replace(clock=_Real(0.1)),
]


def as_samples(events):
    """`events` as motion samples of the two shapes by turns, each holding
    the event's `a` data value (0.1 where it has none) as its `advanced`."""
    return [ev.replace(kind=EventKind.MOTION_SAMPLE,
                       data={**(_ATTEMPT if k % 2 else _MOVE), "advanced": ev.data.get("a", 0.1)})
            for k, ev in enumerate(events)]


def holds_sample_types(ev) -> bool:
    """Whether `ev`'s fields have the types the sample methods take: an exact
    float clock and reals, an exact bool `contact`, six floats per joints."""
    reals = [v for k, v in ev.data.items() if k != "contact"]
    joints = (ev.pre_joints, ev.post_joints)
    return (type(ev.data.get("contact")) is bool
            and all([len(j) == JOINT_COUNT for j in joints])
            and all([type(x) is float for x in (ev.clock, *reals, *joints[0], *joints[1])]))


def record(trace, ev):
    """Record `ev` as a run does: a motion sample of a shape the controller
    writes, holding the types it writes, through that shape's method; any
    other event through `append`."""
    keys = tuple(ev.data)
    if (ev.kind is EventKind.MOTION_SAMPLE and ev.pre_bits == ev.post_bits
            and holds_sample_types(ev)):
        fields = (ev.clock, ev.stack, ev.speed, ev.pre_joints, ev.post_joints, ev.pre_bits)
        if keys == MOVE_SAMPLE_KEYS:
            return trace.move_sample(*fields, *ev.data.values())
        if keys == ATTEMPT_SAMPLE_KEYS:
            return trace.attempt_sample(*fields, *ev.data.values())
    trace.append(ev)


def assert_recorded_alike(events):
    """Record `events`, renumbered 0, 1, 2, ..., on a streamed trace, a kept
    one and a `NULL_SINK` one: the streamed text is the kept trace's and the
    reference's, and the three count alike."""
    events = [ev.replace(index=k) for k, ev in enumerate(events)]
    sink = io.StringIO()
    traces = (ExecutionTrace(sink), ExecutionTrace(), ExecutionTrace(NULL_SINK))
    for ev in events:
        for trace in traces:
            record(trace, ev)
    lines = [reference_serialize_event(ev) for ev in events]
    assert sink.getvalue() == traces[1].serialize() == "".join(line + "\n" for line in lines)
    assert [len(trace) for trace in traces] == [len(events)] * 3
    assert [serialize_event(ev) for ev in events] == lines


@pytest.mark.parametrize("events", [SAMPLE_ATTACKS, *map(as_samples, CACHE_ATTACKS)])
def test_attacks_recorded_by_the_sample_methods_match_reference(events):
    # -0.0 and nan in a real's place go through the template. Ints, bools
    # and float subclasses there, a clock that is not a float, and joints
    # that are not six floats go through `append`, interleaved with template
    # lines, in the same bytes.
    assert_recorded_alike(events)


@example(events=SAMPLE_ATTACKS)
@settings(max_examples=100, deadline=None)
@given(events=mixed_traces())
def test_motion_samples_match_reference_on_either_path(events):
    assert_recorded_alike(events)


@pytest.mark.parametrize("data", [
    {1: 0.1}, {True: 0.1}, {1.5: 0, 0.0: 1}, {None: 0}, {"a": {2: "x"}}, {"a": [{-0.0: 2}]},
])
def test_data_keys_that_are_not_strings_raise_type_error(data):
    # JSON keys are strings; `{1:...}` would not be JSON.
    event = _trail(datas=[data])[0]
    with pytest.raises(TypeError):
        serialize_event(event)
    with pytest.raises(TypeError):
        ExecutionTrace(io.StringIO()).append(event)


@pytest.mark.parametrize("data", [
    {"a": object()}, {"a": {1, 2}}, {"a": [b"x"]}, {"a": {"b": 1j}},
])
def test_data_values_that_are_not_json_raise_type_error(data):
    event = _trail(datas=[data])[0]
    with pytest.raises(TypeError, match="^unserializable trace value: "):
        serialize_event(event)


SHIPPED_PROGRAMS = ("peg_in_hole.adsl", "reverse_demo.adsl", "barrier_demo.adsl",
                    "stats_insert.adsl")
SHIPPED_CONFIGS = ("aligned.json", "blocked.json", "free_space.json", "stats.json")


@pytest.mark.parametrize("program, config", itertools.product(SHIPPED_PROGRAMS, SHIPPED_CONFIGS))
def test_sink_bytes_equal_serialize_for_shipped_examples(program, config, tmp_path, monkeypatch):
    # A streamed trace keeps no events, so a second, sink-less run of the
    # same seed provides them: the file's bytes must equal its serialization.
    # The streamed run writes every motion sample through its template: the
    # generic path writes each other line and no sample.
    examples = importlib.resources.files("adsl") / "examples"
    path = tmp_path / "trace.ndjson"

    def run(trace_sink):
        controller = Controller(
            build((examples / program).read_text(encoding="utf-8")),
            load_workcell_config(str(examples / config)),
            seed=3,
            trace_sink=trace_sink,
        )
        controller.run()
        reverse_execute(controller.trace, None, controller.ctx, registry=controller.registry)
        return controller.trace

    generic = []
    monkeypatch.setattr(trace_module, "serialize_event",
                        lambda ev: generic.append(ev) or serialize_event(ev))
    with open(path, "w", encoding="utf-8") as sink:
        streamed = run(sink)
    monkeypatch.undo()
    kept = run(None)
    text = path.read_text(encoding="utf-8")
    assert len(streamed) == len(kept.events) > 0
    assert [ev.kind for ev in generic] == [
        ev.kind for ev in kept.events if ev.kind is not EventKind.MOTION_SAMPLE]
    assert text == kept.serialize()
    assert text == "".join(reference_serialize_event(ev) + "\n" for ev in kept.events)


def test_an_event_holds_exactly_the_fields_it_serializes():
    event = TraceEvent(0, EventKind.INSTR_BEGIN, 0.0, (), SpeedLevel.NORMAL, (), (), (), (), {})
    keys = list(json.loads(serialize_event(event)))
    names = list(TraceEvent._fields)
    assert names == list(TraceEvent.__slots__)
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
    sequences = controller.ctx.program.sequences
    ends = of_kind(controller.trace, EventKind.INSTR_END)
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


def test_motion_samples_of_golden_and_shipped_runs_take_the_template():
    examples = importlib.resources.files("adsl") / "examples"
    controllers = [golden_run(mode)[0] for mode in PolicyMode]
    controllers += [motion_run(name)[0] for name in MOTION_CASES]
    for program, config in SHIPPED_RUNS:
        controller = Controller(
            build((examples / program).read_text(encoding="utf-8")),
            load_workcell_config(str(examples / config)),
            seed=0,
        )
        controller.run()
        controllers.append(controller)
    # Each sample has the shape and the types that a streamed trace writes
    # through the shape's template, so a retyped field fails here and not
    # only by slowing runs.
    shapes = {
        MOVE_SAMPLE_KEYS: (float, bool),
        ATTEMPT_SAMPLE_KEYS: (float, float, bool, float, float),
    }
    seen = set()
    for controller in controllers:
        for event in of_kind(controller.trace, EventKind.MOTION_SAMPLE):
            keys = tuple(event.data)
            assert keys in shapes
            assert tuple(map(type, event.data.values())) == shapes[keys]
            assert type(event.clock) is float
            seen.add(keys)
    assert seen == set(shapes)
