import gc

import pytest

from adsl.model import (
    AdvMoveRef,
    AdvMoveSpec,
    Comparison,
    Direction,
    DistanceCovered,
    ErrorSpec,
    ForcesExceed,
    Frame,
    Io,
    IOOperation,
    JointConfiguration,
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
    ThrowError,
    Wait,
    validate_program,
)
from adsl.parser import parse_program

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
