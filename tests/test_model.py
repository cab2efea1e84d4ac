import copy
import gc
import hashlib
import importlib.resources
import pickle

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
    ThrowError,
    Wait,
    validate_program,
)
from adsl.parser import parse_program
from adsl.trace import EventKind, TraceEvent
from adsl.workcell import WorkcellConfig, WorkcellConfigError, load_workcell_config

from _helpers import call_chain


#: Three overlapping cycles, self-calls, a repeated call and a dangling one.
MULTI_CYCLE = """
sequence "a" { seq "b"; seq "b"; seq "c"; }
sequence "b" { seq "b"; seq "c"; seq "a"; }
sequence "c" { seq "a"; seq "e"; seq "nowhere"; }
sequence "d" { seq "e"; wait 1; }
sequence "e" { seq "d"; seq "c"; seq "e"; }
entry "d";
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

    def test_workcell_config_is_unhashable_by_name(self):
        """A config's `speed_map` is a mapping, so the config has no hash."""
        for config in (WorkcellConfig(), WorkcellConfig(home_joints=[0.0] * 6)):
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

    def test_each_program_gets_its_own_tables(self):
        first, second = Program(), Program()
        assert first.items == {} and first.items is not second.items
        assert all(getattr(first, table) is not getattr(second, table)
                   for table in ("items", "io_ops", "joint_confs", "sequences", "errors",
                                 "adv_moves"))
        items = {}
        assert Program(items).items is items
