import copy
import gc
import hashlib
import importlib.resources
import math
import pickle
import random
import sys
from types import MappingProxyType

import pytest

from adsl.controller import Controller, ControllerOptions
from adsl.model import (
    AdvMoveRef,
    AdvMoveSpec,
    Barrier,
    Call,
    Comparison,
    Diagnostic,
    Direction,
    DistanceCovered,
    ErrorSpec,
    ForcesExceed,
    Frame,
    Io,
    IOOperation,
    Item,
    JointConfiguration,
    Keyframe,
    MoveJoint,
    Program,
    RepeatWithPerturbation,
    ReturnToInitialPosition,
    ReverseWith,
    SelectBit,
    SeqCall,
    Sequence,
    SetHigh,
    SetLow,
    Sleep,
    SourceLocation,
    SpeedLevel,
    ThrowError,
    Value,
    Wait,
    validate_program,
)
from adsl.parser import parse_program
from adsl.printer import pretty_print
from adsl.reverse import ReversePlan, StopReason
from adsl.trace import EventKind, TraceEvent
from adsl.workcell import WorkcellConfig, WorkcellConfigError, load_workcell_config

from _helpers import call_chain, value_classes


#: Three overlapping cycles, self-calls, a repeated call and a dangling one.
MULTI_CYCLE = """
sequence "a" { seq "b"; seq "b"; seq "c"; }
sequence "b" { seq "b"; seq "c"; seq "a"; }
sequence "c" { seq "a"; seq "e"; seq "nowhere"; }
sequence "d" { seq "e"; wait 1; }
sequence "e" { seq "d"; seq "c"; seq "e"; }
entry "d";
"""


#: A clean program with a declaration of each kind that holds a sequence field.
EVERY_SEQUENCE_FIELD = """
item "peg" { keyframe grasp { (0.0, 0.0, 0.1); } }
io_operation "open" { set_low; bit 0; }
joint_configuration home = { 0.1, 0.0, 0.0, 0.0, 0.0, 0.0 };
error "e" { }
advanced_move "m" {
  specification { distance 0.01 direction forward frame tcp; }
  evaluation { forces_exceed(5); }
  on_success { return_to_initial_position; }
  on_fail { throw_error("e"); }
}
sequence "main" { move to home; call "noop"("peg"); io "open"; adv_move "m"; }
"""


def conf(name, *values):
    joints = list(values) + [0.0] * (6 - len(values))
    return JointConfiguration(name, tuple(joints))


def simple_program(**overrides):
    fields = dict(
        joint_confs={"home": conf("home", 0.1)},
        sequences={"main": Sequence("main", (MoveJoint(("home",)),))},
        entry="main",
    )
    fields.update(overrides)
    return Program(**fields)


#: A clean program that uses every construct of the grammar.
EVERY_CONSTRUCT = """
item "peg" { keyframe grasp { (0.0, 0.0, 0.1); (0.0, 0.0, 0.2); } }
io_operation "open" { set_low; bit 0; set_high; bit 1; sleep 0.1; }
joint_configuration home = { 0.1, 0.0, 0.0, 0.0, 0.0, 0.0 };
joint_configuration away = { 0.2, 0.0, 0.0, 0.0, 0.0, 0.0 };
error "e" { recovery_sequence "rec"; respond_after immediately; return_to action; }
advanced_move "m" {
  condition distance_covered(less_than, 1);
  specification {
    distance 0.01 direction forward frame tcp; stop_if forces_exceed(3); speed slow;
  }
  evaluation { forces_exceed(5); distance_covered(more_than, 0.005); }
  on_success { return_to_initial_position; }
  on_fail { repeat_with_perturbation(2); throw_error("e"); }
}
sequence "rec" { @reverse_with(wait 1) wait 0.5; }
sequence "main" {
  move to home, away; @barrier call "noop"("peg"); @nonreversible io "open";
  adv_move "m"; seq "rec"; @skip_on_reverse wait 1;
}
entry "main";
"""


def _parts(value, path=()):
    """(path, part) for every field, element and table entry inside `value`,
    at any depth; a path is the field names, tuple indices and table keys
    that lead from `value` to the part."""
    if isinstance(value, Value):
        inner = [(f, getattr(value, f)) for f in value._fields]
    elif isinstance(value, tuple):
        inner = list(enumerate(value))
    elif isinstance(value, MappingProxyType):
        inner = list(value.items())
    else:
        return
    for step, part in inner:
        yield path + (step,), part
        yield from _parts(part, path + (step,))


def _with_value_at(value, path, new):
    """`value` rebuilt with `new` at `path`, through each value's constructor."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(value, Value):
        return value.replace(**{step: _with_value_at(getattr(value, step), rest, new)})
    if isinstance(value, tuple):
        return value[:step] + (_with_value_at(value[step], rest, new),) + value[step + 1:]
    return {**value, step: _with_value_at(value[step], rest, new)}


class TestValidation:
    def test_valid_program_is_clean(self):
        assert validate_program(simple_program()) == []

    def test_dangling_joint_conf(self):
        program = simple_program(
            sequences={"main": Sequence("main", (MoveJoint(("startPos",)),))}
        )
        diags = validate_program(program)
        assert len(diags) == 1
        assert "unresolved joint configuration" in diags[0].message
        assert diags[0].name == "startPos"

    def test_recursive_sequences(self):
        program = simple_program(
            sequences={
                "a": Sequence("a", (SeqCall("b"),)),
                "b": Sequence("b", (SeqCall("a"),)),
            },
            entry="a",
        )
        diags = validate_program(program)
        assert len(diags) == 1
        assert "recursive sequence call" in diags[0].message

    def test_self_recursion(self):
        program = simple_program(
            sequences={"a": Sequence("a", (SeqCall("a"),))}, entry="a"
        )
        assert any("recursive" in d.message for d in validate_program(program))

    # Each program below validated clean, yet printed to text that does not
    # parse back to it.
    def test_a_string_name_holding_a_newline(self):
        program = simple_program(sequences={
            "main": Sequence("main", (SeqCall("a\nb"), Call("log\nit"))),
            "a\nb": Sequence("a\nb", (MoveJoint(("home",)),)),
        })
        assert [(d.message, d.name) for d in validate_program(program)] == [
            ("name holds a newline", "a\nb"), ("name holds a newline", "log\nit"),
        ]

    def test_a_bare_name_that_is_not_an_identifier(self):
        item = Item("peg", (Keyframe("k 1", ((0.0, 0.0, 0.0),)),))
        program = simple_program(joint_confs={"a b": conf("a b")}, items={"peg": item},
                                 sequences={"main": Sequence("main", (MoveJoint(("a b",)),))})
        assert [(d.message, d.name) for d in validate_program(program)] == [
            ("name is not an identifier", "a b"), ("name is not an identifier", "k 1"),
        ]

    def test_a_table_key_that_is_not_its_declarations_name(self):
        program = Program(sequences={"a": Sequence("b", (Wait(1.0),))}, entry="a")
        assert [(d.message, d.name) for d in validate_program(program)] == [
            ("declaration name 'b' differs from its table key", "a"),
        ]

    def test_an_annotation_that_is_not_an_annotation_class(self):
        """`pretty_print` has no word for it: it raised `KeyError`."""
        program = simple_program(sequences={
            "main": Sequence("main", (Wait(1.0, annotation="barrier"),
                                      MoveJoint(("home",), annotation=Barrier)))})
        assert [(d.message, d.name) for d in validate_program(program)] == [
            ("annotation is not an annotation class", "main"),
        ] * 2

    @pytest.mark.parametrize("value", ["1.0", "1", 10 ** 400, True, None, math.inf, -math.inf,
                                       math.nan],
                             ids=["str", "int_str", "int_past_float", "bool", "none", "inf",
                                  "minus_inf", "nan"])
    def test_a_real_that_is_not_a_finite_number(self, value):
        """Each is reported where it stands; a string made `validate_program`
        raise `TypeError`, and the int `pretty_print` raise `OverflowError`."""
        adv = AdvMoveSpec("m", distance=value, direction=Direction.FORWARD, frame=Frame.TCP,
                          condition=ForcesExceed(value), stop_if=DistanceCovered(
                              Comparison.MORE_THAN, value),
                          eval_queries=(DistanceCovered(Comparison.MORE_THAN, 0.05),),
                          on_fail=(ReturnToInitialPosition(),))
        program = simple_program(
            items={"peg": Item("peg", (Keyframe("k", ((0.0, value, 0.0),)),))},
            io_ops={"o": IOOperation("o", (Sleep(value),))},
            joint_confs={"home": conf("home", value)},
            adv_moves={"m": adv},
            sequences={"main": Sequence("main", (Wait(value), Io("o"), AdvMoveRef("m"),
                                                 MoveJoint(("home",))))},
        )
        assert [d.message for d in validate_program(program)] == [
            "non-finite keyframe coordinate",
            "sleep duration must be a positive finite number",
            "non-finite joint value",
            "wait duration must be a positive finite number",
            "move distance must be a non-negative finite number",
            "force threshold must be a positive finite number",
            "distance value must be a non-negative finite number",
        ]

    def test_multi_cycle_diagnostics_and_order(self):
        diags = validate_program(parse_program(MULTI_CYCLE))
        assert [(d.message, d.name, d.location.line, d.location.column) for d in diags] == [
            ("unresolved sequence call", "nowhere", 4, 34),
            ("recursive sequence call", "b", 3, 16),
            ("recursive sequence call", "a", 4, 16),
            ("recursive sequence call", "e", 5, 16),
            ("recursive sequence call", "c", 6, 25),
            ("recursive sequence call", "e", 6, 34),
            ("recursive sequence call", "a", 3, 34),
        ]

    def test_call_chain_deeper_than_the_recursion_limit(self):
        assert validate_program(parse_program(call_chain(1200))) == []

    def test_validation_leaves_no_cyclic_garbage(self):
        program = parse_program(MULTI_CYCLE)
        gc.collect()
        gc.disable()
        try:
            assert validate_program(program)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_corpus_is_clean(self, corpus_program):
        assert validate_program(corpus_program) == []

    def test_validation_is_idempotent(self, corpus_program):
        broken = simple_program(
            sequences={"main": Sequence("main", (Io("nope"), SeqCall("main")))}
        )
        assert validate_program(broken) == validate_program(broken)
        assert validate_program(corpus_program) == validate_program(corpus_program)

    @pytest.mark.parametrize("build, found", [
        (lambda: Program(sequences={1: Sequence(1, (Wait(1.0),))}, entry=1),
         [("name is not a string", 1), ("name is not a string", 1)]),
        (lambda: simple_program(sequences={"main": Sequence("main", (Call(5),))}),
         [("name is not a string", 5)]),
        (lambda: simple_program(sequences={"main": Sequence("main", (Call("noop", ([1],)),))}),
         [("name is not a string", [1])]),
        (lambda: simple_program(sequences={"main": Sequence("main", (Io(["x"]),))}),
         [("name is not a string", ["x"])]),
        (lambda: simple_program(sequences={"main": Sequence("main", ("wait 1",))}),
         [("instruction is not an instruction class", "main")]),
        (lambda: simple_program(sequences={"main": 1}),
         [("declaration is not an instance of Sequence", "main")]),
        (lambda: simple_program(entry=["main"]), [("name is not a string", ["main"])]),
        (lambda: simple_program(items={"peg": Item("peg", ("grasp",))}),
         [("keyframe is not a Keyframe", "peg")]),
        (lambda: simple_program(items={"peg": Item("peg", (Keyframe("k", ((0.0, 0.1),)),))}),
         [("coordinate must have exactly 3 values", "peg.k")]),
        (lambda: simple_program(io_ops={"o": IOOperation("o", (SetLow(), SelectBit(True)))}),
         [("bit index is not an integer", "o")]),
        (lambda: simple_program(io_ops={"o": IOOperation("o", (Wait(1.0),))}),
         [("primitive is not a primitive class", "o")]),
        (lambda: simple_program(sequences={"main": Sequence("main", (SeqCall(["main"]),))}),
         [("name is not a string", ["main"])]),
        (lambda: simple_program(errors={"e": ErrorSpec("e", recovery_sequence=["main"])}),
         [("name is not a string", ["main"])]),
    ], ids=["declaration_name", "call_action", "call_item", "io_operation", "instruction",
            "table_entry", "entry", "keyframe", "coordinate", "bit_index", "primitive",
            "sequence_call", "recovery_sequence"])
    def test_a_field_of_the_wrong_type_is_a_diagnostic(self, build, found):
        """A name or reference that is not a string, and a table entry or
        instruction of another class, are reported, not raised on."""
        assert [(d.message, d.name) for d in validate_program(build())] == found

    def test_an_enumeration_field_of_the_wrong_type_is_a_diagnostic(self):
        program = parse_program(EVERY_CONSTRUCT)
        spec, espec = program.adv_moves["m"], program.errors["e"]
        broken = program.replace(
            adv_moves={"m": spec.replace(direction="forward", frame=None, speed="slow",
                                         condition=spec.condition.replace(cmp="less_than"))},
            errors={"e": espec.replace(respond_after="immediately", return_to=1)})
        assert [d.message for d in validate_program(broken)] == [
            "respond_after is not a RespondAfter", "return_to is not a ReturnTo",
            "direction is not a Direction", "frame is not a Frame", "speed is not a SpeedLevel",
            "cmp is not a Comparison"]

    def test_validation_never_raises_on_wrongly_typed_fields(self):
        """Seeded fuzz: one or two fields anywhere in a program of every
        construct get a value of another type. Construction may refuse the
        value (`TypeError`); otherwise `validate_program` reports and never
        raises, and a program it passes prints to text that parses back."""
        junk = [None, True, 0, -1, 7, 2.5, float("nan"), "", "x", "a\nb", "main", "home",
                "e", "m", "peg", (), ("x",), (1, 2), ((1.0, 2.0, 3.0),), [1], ["x"], {},
                {"main": 1}, SetLow(), Wait(1.0), SeqCall("main"), object()]
        program = parse_program(EVERY_CONSTRUCT)
        paths = [path for path, _ in _parts(program)]
        rng = random.Random(35)
        refused = clean = 0
        for _ in range(4000):
            changed = program
            try:
                for _ in range(rng.randint(1, 2)):
                    changed = _with_value_at(changed, rng.choice(paths), rng.choice(junk))
            except TypeError:
                refused += 1
                continue
            except (KeyError, IndexError, AttributeError):
                continue  # the first change removed the second's path
            if validate_program(changed) == []:
                clean += 1
                assert parse_program(pretty_print(changed)) == changed
        assert refused > 200 and clean > 200

    def test_empty_sequence(self):
        program = simple_program(sequences={"main": Sequence("main", ())})
        assert any("no instructions" in d.message for d in validate_program(program))

    def test_missing_entry(self):
        program = simple_program(entry=None)
        assert any("no entry" in d.message for d in validate_program(program))
        program = simple_program(entry="ghost")
        assert any(
            "unresolved entry" in d.message for d in validate_program(program)
        )

    def test_joint_conf_wrong_arity(self):
        program = simple_program(
            joint_confs={"home": JointConfiguration("home", (0.0, 0.0))}
        )
        assert any("exactly 6" in d.message for d in validate_program(program))

    def test_non_finite_joint(self):
        program = simple_program(
            joint_confs={
                "home": JointConfiguration("home", (float("nan"),) + (0.0,) * 5)
            }
        )
        assert any("non-finite" in d.message for d in validate_program(program))

    def test_finite_reals_whose_sum_overflows_are_clean(self):
        big = sys.float_info.max
        program = simple_program(
            items={"peg": Item("peg", (Keyframe("k", ((big, big, 0.0), (-big, -big, 1))),))},
            joint_confs={"home": conf("home", big, big, big)},
        )
        assert validate_program(program) == []

    def test_wait_must_be_positive(self):
        program = simple_program(
            sequences={"main": Sequence("main", (Wait(0.0),))}
        )
        assert any("positive" in d.message for d in validate_program(program))

    def test_io_level_without_select(self):
        program = simple_program(
            io_ops={"op": IOOperation("op", (SetHigh(), Sleep(0.1)))},
            sequences={"main": Sequence("main", (Io("op"),))},
        )
        assert any("exactly one select" in d.message for d in validate_program(program))

    def test_io_double_select(self):
        # A select with no pending level primitive is unconstrained (it
        # commits nothing at run time).
        program = simple_program(
            io_ops={"op": IOOperation("op", (SelectBit(0), SetHigh(), SelectBit(1)))},
        )
        assert validate_program(program) == []
        program = simple_program(
            io_ops={"op": IOOperation("op", (SetLow(), SelectBit(0), SelectBit(1)))},
        )
        assert any("more than one select" in d.message for d in validate_program(program))

    def test_adv_move_invariants(self):
        base = dict(
            distance=0.1,
            direction=Direction.FORWARD,
            frame=Frame.TCP,
            eval_queries=(DistanceCovered(Comparison.MORE_THAN, 0.05),),
            on_fail=(ThrowError("oops"),),
        )
        program = simple_program(
            errors={"oops": ErrorSpec("oops")},
            adv_moves={"m": AdvMoveSpec("m", **base)},
            sequences={"main": Sequence("main", (AdvMoveRef("m"),))},
        )
        assert validate_program(program) == []

        program = simple_program(
            adv_moves={"m": AdvMoveSpec("m", **{**base, "on_fail": (ThrowError("ghost"),)})},
            sequences={"main": Sequence("main", (AdvMoveRef("m"),))},
        )
        assert any("unresolved error" in d.message for d in validate_program(program))

        program = simple_program(
            adv_moves={"m": AdvMoveSpec("m", **{**base, "eval_queries": ()})},
            errors={"oops": ErrorSpec("oops")},
            sequences={"main": Sequence("main", (AdvMoveRef("m"),))},
        )
        assert any("evaluation query" in d.message for d in validate_program(program))

        program = simple_program(
            errors={"oops": ErrorSpec("oops")},
            adv_moves={
                "m": AdvMoveSpec(
                    "m",
                    **{
                        **base,
                        "on_fail": (
                            RepeatWithPerturbation(2),
                            RepeatWithPerturbation(3),
                            ThrowError("oops"),
                        ),
                    },
                )
            },
            sequences={"main": Sequence("main", (AdvMoveRef("m"),))},
        )
        assert any(
            "more than one repeat_with_perturbation" in d.message
            for d in validate_program(program)
        )

    def test_bad_queries(self):
        program = simple_program(
            adv_moves={
                "m": AdvMoveSpec(
                    "m",
                    distance=0.1,
                    direction=Direction.FORWARD,
                    frame=Frame.TCP,
                    eval_queries=(ForcesExceed(0.0),),
                    on_fail=(ReturnToInitialPosition(),),
                )
            },
            sequences={"main": Sequence("main", (AdvMoveRef("m"),))},
        )
        assert any("force threshold" in d.message for d in validate_program(program))

    def test_recovery_rethrow_cycle(self):
        spec = AdvMoveSpec(
            "m",
            distance=0.1,
            direction=Direction.FORWARD,
            frame=Frame.TCP,
            eval_queries=(DistanceCovered(Comparison.MORE_THAN, 0.05),),
            on_fail=(ThrowError("stuck"),),
        )
        program = simple_program(
            errors={"stuck": ErrorSpec("stuck", recovery_sequence="rec")},
            adv_moves={"m": spec},
            sequences={
                "main": Sequence("main", (AdvMoveRef("m"),)),
                "rec": Sequence("rec", (SeqCall("inner"),)),
                "inner": Sequence("inner", (AdvMoveRef("m"),)),
            },
        )
        diags = validate_program(program)
        assert any("throws this error" in d.message for d in diags)

    def test_recovery_reaching_a_move_on_two_call_paths_is_reported_once(self):
        # "rec" reaches "inner" through "left" and "right"; the walk visits it once.
        spec = AdvMoveSpec(
            "m",
            distance=0.1,
            direction=Direction.FORWARD,
            frame=Frame.TCP,
            eval_queries=(DistanceCovered(Comparison.MORE_THAN, 0.05),),
            on_fail=(ThrowError("stuck"),),
        )
        program = simple_program(
            errors={"stuck": ErrorSpec("stuck", recovery_sequence="rec")},
            adv_moves={"m": spec},
            sequences={
                "main": Sequence("main", (AdvMoveRef("m"),)),
                "rec": Sequence("rec", (SeqCall("left"), SeqCall("right"))),
                "left": Sequence("left", (SeqCall("inner"),)),
                "right": Sequence("right", (SeqCall("inner"),)),
                "inner": Sequence("inner", (AdvMoveRef("m"),)),
            },
        )
        assert [d.message for d in validate_program(program)] == [
            "recovery sequence reaches advanced move 'm' that throws this error",
        ]

    def test_recovery_reaching_an_undeclared_move_is_reported_as_unresolved(self):
        program = simple_program(
            errors={"stuck": ErrorSpec("stuck", recovery_sequence="rec")},
            sequences={
                "main": Sequence("main", (MoveJoint(("home",)),)),
                "rec": Sequence("rec", (AdvMoveRef("ghost"),)),
            },
        )
        assert [(d.message, d.name) for d in validate_program(program)] == [
            ("unresolved advanced move", "ghost"),
        ]

    def test_reverse_with_payload_restrictions(self):
        ann = ReverseWith(SeqCall("main"))
        program = simple_program(
            sequences={"main": Sequence("main", (Wait(1.0, annotation=ann),))}
        )
        assert any(
            "reverse_with payload" in d.message for d in validate_program(program)
        )

        nested = ReverseWith(Io("ghost"))
        program = simple_program(
            sequences={"main": Sequence("main", (Wait(1.0, annotation=nested),))}
        )
        assert any("unresolved io operation" in d.message for d in validate_program(program))

        # Only a directly built payload can carry an annotation; the parser has none.
        annotated = ReverseWith(Wait(0.1, annotation=Barrier()))
        program = simple_program(
            sequences={"main": Sequence("main", (Wait(1.0, annotation=annotated),))}
        )
        assert [(d.message, d.name) for d in validate_program(program)] == [
            ("reverse_with payload must not carry an annotation", "main"),
        ]


class TestValueClasses:
    """The value classes compare, hash and print as frozen dataclasses did."""

    def test_equality_is_nominal(self):
        assert SetLow() == SetLow() and SetLow() != SetHigh()
        assert ReturnToInitialPosition() != SetLow()
        assert Io("x") != SeqCall("x") != AdvMoveRef("x")
        assert Wait(0.5) == Wait(0.5) != Sleep(0.5)
        assert Wait(0.5) != Wait(0.25)

    def test_location_is_left_out_of_eq_hash_and_repr(self):
        here, there = SourceLocation(1, 1, 0), SourceLocation(9, 4, 99)
        a = MoveJoint(("p",), location=here)
        b = MoveJoint(("p",), None, there)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "MoveJoint(waypoints=('p',), annotation=None)"
        assert a.location is here and b.location is there
        # A diagnostic's location is part of its value.
        assert Diagnostic("m", location=here) != Diagnostic("m", location=there)

    def test_equal_values_hash_equal(self):
        for make in (
            lambda: ErrorSpec("e", "rescue"),
            lambda: SourceLocation(3, 4, 5),
            lambda: ReverseWith(Wait(0.1)),
        ):
            assert make() == make() and hash(make()) == hash(make())
        assert len({SetLow(), SetLow(), SetHigh()}) == 2

    @pytest.mark.parametrize("field, name", [
        ("keyframes", "Item.keyframes"), ("coordinates", "Keyframe.coordinates"),
        ("coordinate", "Keyframe.coordinates"), ("primitives", "IOOperation.primitives"),
        ("joints", "JointConfiguration.joints"), ("instructions", "Sequence.instructions"),
        ("waypoints", "MoveJoint.waypoints"), ("items", "Call.items"),
        ("eval_queries", "AdvMoveSpec.eval_queries"), ("on_fail", "AdvMoveSpec.on_fail"),
        ("on_success", "AdvMoveSpec.on_success"),
    ])
    def test_a_sequence_field_that_is_not_a_tuple(self, field, name):
        """A list could change after validation, so construction refuses it,
        naming the class and field: no program can change once built."""
        program = parse_program(EVERY_SEQUENCE_FIELD)
        (kf,) = program.items["peg"].keyframes
        move, call, *_ = program.sequences["main"].instructions
        if field == "coordinate":
            with pytest.raises(TypeError, match=f"^{name} must hold tuples$"):
                kf.replace(coordinates=([0.0, 0.0, 0.1],))
            return
        value = {"keyframes": program.items["peg"], "coordinates": kf,
                 "primitives": program.io_ops["open"], "joints": program.joint_confs["home"],
                 "instructions": program.sequences["main"], "waypoints": move,
                 "items": call}.get(field, program.adv_moves["m"])
        with pytest.raises(TypeError, match=f"^{name} must be a tuple, got list$"):
            value.replace(**{field: list(getattr(value, field))})

    def test_every_frozen_tuple_and_mapping_field_holds_still(self, aligned_config):
        """Every frozen value class: a list given to a tuple field raises
        `TypeError`, a mapping field is a read-only copy of the mapping given,
        and a class with a mapping field has no hash."""
        samples = {}
        for root in (parse_program(EVERY_CONSTRUCT), aligned_config,
                     ReversePlan((), StopReason.TRACE_START)):
            for _, part in [((), root), *_parts(root)]:
                samples.setdefault(type(part), part)
        frozen = [cls for cls in set(value_classes(Value))
                  if cls.__setattr__ is Value.__setattr__]
        checked = set()
        for cls in frozen:
            hints = {f: cls.__annotations__[f] for f in cls._fields}
            tuples = [f for f, hint in hints.items() if hint.startswith("tuple[")]
            mappings = [f for f, hint in hints.items() if hint.startswith(("dict[", "Mapping["))]
            if not tuples and not mappings:
                continue
            value = samples[cls]
            checked.add(cls.__qualname__)
            for field in tuples:
                with pytest.raises(TypeError, match=f"^{cls.__qualname__}.{field} must be"):
                    value.replace(**{field: list(getattr(value, field))})
            for field in mappings:
                given = dict(getattr(value, field))
                built = value.replace(**{field: given})
                given.clear()
                given["extra"] = None
                assert built == value and "extra" not in getattr(built, field)
                with pytest.raises(TypeError):
                    getattr(built, field)["extra"] = None
                with pytest.raises(TypeError, match=f"unhashable type: '{cls.__qualname__}'"):
                    hash(built)
        assert checked == {"MoveJoint", "Call", "Keyframe", "Item", "IOOperation",
                           "JointConfiguration", "Sequence", "AdvMoveSpec", "Program",
                           "ReversePlan", "Hole", "Obstacle", "WorkcellConfig"}

    def test_a_program_is_unhashable_by_name(self):
        with pytest.raises(TypeError, match="^unhashable type: 'Program'$"):
            hash(Program())

    def test_workcell_config_is_unhashable_by_name(self):
        """A config's `speed_map` is a mapping, so the config has no hash."""
        for config in (WorkcellConfig(), WorkcellConfig(home_joints=(0.0,) * 6)):
            with pytest.raises(TypeError, match="unhashable type: 'WorkcellConfig'"):
                hash(config)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for value, name in (
            (SetLow(), "x"),
            (Wait(0.5), "seconds"),
            (SourceLocation(1, 1, 0), "line"),
            (WorkcellConfig(), "dt"),
        ):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)

    def test_trace_events_and_options_stay_mutable(self):
        event = TraceEvent(0, EventKind.INSTR_BEGIN, 0.0, (), None, (), (), (), (), {})
        event.index = 7
        assert event.index == 7
        with pytest.raises(AttributeError):
            event.extra = 1  # slotted: no ad-hoc attributes
        with pytest.raises(TypeError):
            hash(event)
        # Options are frozen: a run's context shares them with the caller.
        options = ControllerOptions()
        with pytest.raises(AttributeError, match="cannot assign to field"):
            options.record_motion_samples = False
        assert options == ControllerOptions() != ControllerOptions(record_motion_samples=False)

    def test_reprs_are_unchanged(self):
        assert repr(ErrorSpec("e", location=SourceLocation(1, 2, 3))) == (
            "ErrorSpec(name='e', recovery_sequence=None, "
            "respond_after=<RespondAfter.CURRENT_ACTION: 'current_action'>, "
            "return_to=<ReturnTo.SEQUENCE: 'sequence'>)"
        )
        assert repr(Program()) == (
            "Program(items={}, io_ops={}, joint_confs={}, sequences={}, errors={}, "
            "adv_moves={}, entry=None)"
        )
        # The reprs of the parsed shipped programs, a config, a run result,
        # trace events and options, as the frozen dataclasses printed them.
        examples = importlib.resources.files("adsl") / "examples"
        texts = [
            repr(parse_program((examples / name).read_text(encoding="utf-8")))
            for name in ("peg_in_hole.adsl", "reverse_demo.adsl", "barrier_demo.adsl",
                         "stats_insert.adsl")
        ]
        config = load_workcell_config(str(examples / "blocked.json"))
        controller = Controller(
            parse_program((examples / "reverse_demo.adsl").read_text(encoding="utf-8")),
            config,
            seed=0,
        )
        result = controller.run()
        # The config's last field, once the identity `tool_transform` pose, is
        # its orientation alone: put the old text back to compare.
        config_text = repr(config).replace(
            "tool_orientation=(0.0, 0.0, 0.0)",
            "tool_transform=Pose(position=(0.0, 0.0, 0.0), orientation=(0.0, 0.0, 0.0))")
        texts += [config_text, repr(result), repr(controller.trace.events[:50]),
                  repr(ControllerOptions())]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "92351ddd0ca83a7d4ced2bfa1db02c59d7803168d8470fe48589d21653adf88a"

    def test_constructors_check_their_arguments(self):
        with pytest.raises(TypeError):
            MoveJoint()
        with pytest.raises(TypeError):
            SetLow(1)
        with pytest.raises(TypeError):
            Io("x", bogus=1)
        with pytest.raises(TypeError):
            Wait(0.5, seconds=0.5)

    def test_replace_builds_through_the_constructor(self):
        config = WorkcellConfig()
        assert config.replace(dt=0.004).dt == 0.004 and config.dt == 0.008
        with pytest.raises(WorkcellConfigError, match="dt must be positive"):
            config.replace(dt=0.0)
        with pytest.raises(TypeError):
            config.replace(bogus=1)
        loc = SourceLocation(1, 1, 0)
        moved = Wait(0.5, location=loc).replace(seconds=0.25)
        assert moved == Wait(0.25) and moved.location is loc

    def test_copy_and_pickle_rebuild_equal_values(self, corpus_program):
        loc = SourceLocation(2, 3, 4)
        for value in (corpus_program, loc, SetLow(),
                      MoveJoint(("p",), location=loc)):
            for clone in (copy.copy(value), copy.deepcopy(value),
                          pickle.loads(pickle.dumps(value))):
                assert type(clone) is type(value) and clone == value
        assert copy.deepcopy(MoveJoint(("p",), location=loc)).location == loc
        assert copy.copy(WorkcellConfig(dt=0.004)) == WorkcellConfig(dt=0.004)
        # A read-only mapping field (a config's `speed_map`, a program's
        # tables) goes over as a dict, which the rebuilt value wraps again.
        stats = load_workcell_config(str(importlib.resources.files("adsl") / "examples"
                                         / "stats.json"))
        for value in (WorkcellConfig(), stats, corpus_program):
            for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert type(clone) is type(value) and clone == value
                assert repr(clone) == repr(value)
        clone = copy.deepcopy(corpus_program)
        assert clone.sequences is not corpus_program.sequences
        with pytest.raises(TypeError):
            clone.sequences["x"] = None
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(stats)).speed_map[SpeedLevel.SLOW] = 1.0

    def test_each_program_gets_its_own_tables(self):
        first, second = Program(), Program()
        assert first.items == {} and first.items is not second.items
        assert all(getattr(first, table) is not getattr(second, table)
                   for table in ("items", "io_ops", "joint_confs", "sequences", "errors",
                                 "adv_moves"))
        items = {}
        assert Program(items).items == items and Program(items).items is not items

    def test_program_tables_are_read_only(self):
        """A table rejects assignment and deletion, and the mapping given is
        copied: changing it afterwards leaves the program as it was."""
        sequences = {"main": Sequence("main", (Wait(1.0),))}
        program = Program(sequences=sequences, entry="main")
        assert validate_program(program) == []
        with pytest.raises(TypeError):
            program.sequences["main"] = Sequence("main", (SeqCall("main"),))
        with pytest.raises(TypeError):
            del program.sequences["main"]
        with pytest.raises(AttributeError):
            program.sequences.clear()
        sequences["main"] = Sequence("main", ())
        sequences["other"] = Sequence("other", (Wait(2.0),))
        assert dict(program.sequences) == {"main": Sequence("main", (Wait(1.0),))}
        assert validate_program(program) == []
        assert program == Program(sequences={"main": Sequence("main", (Wait(1.0),))},
                                  entry="main")
        assert program.replace(entry=None).sequences == program.sequences
