import collections
import gc
import importlib.resources
import os
import random
import re
import string
import sys
import tracemalloc
import typing

import pytest
from hypothesis import given, settings, strategies as st

from adsl.model import (
    AdvMoveRef,
    AdvMoveSpec,
    Barrier,
    Call,
    Comparison,
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
    NonReversible,
    Program,
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
    SourceLocation,
    SpeedLevel,
    ThrowError,
    Value,
    Wait,
    validate_program,
)
from adsl import parser
from adsl.parser import ParseError, parse_program, tokenize
from adsl.printer import format_number, pretty_print

from _helpers import ROOT, bench_generator

EXAMPLES = importlib.resources.files("adsl") / "examples"


class TestParseBasics:
    def test_io_operation(self):
        program = parse_program(
            'io_operation "gripper_open" { set_low; bit 0; sleep 0.5; }'
            ' sequence "s" { io "gripper_open"; }'
        )
        op = program.io_ops["gripper_open"]
        assert op.primitives == (SetLow(), SelectBit(0), Sleep(0.5))

    def test_empty_sequence_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc_info:
            parse_program('sequence "s" { }')
        assert "instruction" in str(exc_info.value)

    def test_fig_style_advanced_move(self):
        text = """
        error "peg_not_inserted" { }
        advanced_move "insert_peg" {
          specification {
            distance 0.30 direction forward frame tcp;
            stop_if forces_exceed(5);
            speed slow;
          }
          evaluation {
            distance_covered(more_than, 0.20);
          }
          on_success {
            return_to_initial_position;
          }
          on_fail {
            return_to_initial_position;
            repeat_with_perturbation(3);
            throw_error("peg_not_inserted");
          }
        }
        sequence "s" { adv_move "insert_peg"; }
        """
        spec = parse_program(text).adv_moves["insert_peg"]
        assert spec.distance == 0.30
        assert spec.direction is Direction.FORWARD
        assert spec.frame is Frame.TCP
        assert spec.stop_if == ForcesExceed(5)
        assert spec.speed is SpeedLevel.SLOW
        assert spec.eval_queries == (DistanceCovered(Comparison.MORE_THAN, 0.20),)
        assert spec.on_success == (ReturnToInitialPosition(),)
        assert spec.on_fail == (
            ReturnToInitialPosition(),
            RepeatWithPerturbation(3),
            ThrowError("peg_not_inserted"),
        )

    def test_error_defaults(self):
        spec = parse_program('error "e" { } sequence "s" { wait 1; }').errors["e"]
        assert spec.recovery_sequence is None
        assert spec.respond_after is RespondAfter.CURRENT_ACTION
        assert spec.return_to is ReturnTo.SEQUENCE

    def test_entry_defaults_to_last_sequence(self):
        program = parse_program('sequence "a" { wait 1; } sequence "b" { wait 1; }')
        assert program.entry == "b"

    def test_explicit_entry(self):
        program = parse_program(
            'sequence "a" { wait 1; } sequence "b" { wait 1; } entry "a";'
        )
        assert program.entry == "a"

    def test_annotations(self):
        program = parse_program(
            'io_operation "x" { set_high; bit 0; }'
            ' sequence "s" {'
            '   @nonreversible wait 1;'
            '   @skip_on_reverse io "x";'
            '   @barrier wait 2;'
            '   @reverse_with(io "x") wait 3;'
            ' }'
        )
        instrs = program.sequences["s"].instructions
        assert instrs[0].annotation == NonReversible()
        assert instrs[1].annotation == SkipOnReverse()
        assert instrs[2].annotation == Barrier()
        assert instrs[3].annotation == ReverseWith(Io("x"))

    def test_call_items(self):
        program = parse_program('sequence "s" { call "pick" ("peg" "tray"); }')
        call = program.sequences["s"].instructions[0]
        assert call == Call("pick", ("peg", "tray"))

    def test_move_waypoints(self):
        program = parse_program(
            "joint_configuration a = { 1, 2, 3, 4, 5, 6 };"
            "joint_configuration b = { 0, 0, 0, 0, 0, 0 };"
            ' sequence "s" { move to a, b; }'
        )
        assert program.sequences["s"].instructions[0] == MoveJoint(("a", "b"))

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError):
            parse_program('sequence "s" { wait 1; } sequence "s" { wait 2; }')

    def test_unknown_enum_word_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                'advanced_move "m" { specification {'
                " distance 1 direction sideways frame tcp; }"
                " evaluation { forces_exceed(1); }"
                " on_fail { return_to_initial_position; } }"
            )

    def test_string_escapes(self):
        program = parse_program('sequence "a\\"b\\\\c" { wait 1; }')
        assert 'a"b\\c' in program.sequences

    def test_parse_error_has_location_and_expectations(self):
        try:
            parse_program('sequence "s" { wait; }')
        except ParseError as err:
            assert err.expected
            assert err.found == ";"
            assert err.location.line == 1
        else:
            pytest.fail("expected a ParseError")

    def test_comments_and_whitespace_insensitivity(self, corpus_program, corpus_text):
        noisy = corpus_text.replace("{", " \t{\n# noise\n")
        assert parse_program(noisy) == corpus_program


_GUARDED_TO = (
    'advanced_move "m" {{ specification {{ distance 1 direction up frame tcp; }}'
    ' evaluation {{ {} }} on_fail {{ {} }} }}'
)


class TestParseFailures:
    """Each failure as `str(ParseError)` (its location first), `expected` and
    `found`: word lists included, since each is built from the table of words
    it accepts."""

    @pytest.mark.parametrize("source, message, expected, found", [
        ('widget "w" { }',
         "1:1: expected 'item' or 'io_operation' or 'joint_configuration' or 'sequence'"
         " or 'error' or 'advanced_move' or 'entry', found 'widget'",
         ("'item'", "'io_operation'", "'joint_configuration'", "'sequence'", "'error'",
          "'advanced_move'", "'entry'"), "widget"),
        ('sequence "s" { wait 1; } sequence "s" { wait 2; }',
         "1:26: expected unique sequence name, found 's'", ("unique sequence name",), "s"),
        ('sequence "a" { wait 1; } entry "a"; entry "a";',
         "1:37: expected a single entry declaration, found 'entry'",
         ("a single entry declaration",), "entry"),
        ('item "i" { keyframe k { } }',
         "1:25: expected coordinate '(', found '}'", ("coordinate '('",), "}"),
        ('io_operation "x" { toggle; }',
         "1:20: expected 'set_low' or 'set_high' or 'bit' or 'sleep', found 'toggle'",
         ("'set_low'", "'set_high'", "'bit'", "'sleep'"), "toggle"),
        ('sequence "s" { jump "x"; }',
         "1:16: expected instruction, found 'jump'", ("instruction",), "jump"),
        ('sequence "s" { @sideways wait 1; }',
         "1:17: expected 'nonreversible' or 'skip_on_reverse' or 'barrier' or 'reverse_with',"
         " found 'sideways'",
         ("'nonreversible'", "'skip_on_reverse'", "'barrier'", "'reverse_with'"), "sideways"),
        ('sequence "s" { @1 wait 1; }',
         "1:17: expected annotation name, found '1'", ("annotation name",), "1"),
        ('error "e" { resume_at sequence; }',
         "1:13: expected 'recovery_sequence' or 'respond_after' or 'return_to',"
         " found 'resume_at'",
         ("'recovery_sequence'", "'respond_after'", "'return_to'"), "resume_at"),
        ('error "e" { recovery_sequence "r"; recovery_sequence "r"; }',
         "1:36: expected a single recovery_sequence, found 'recovery_sequence'",
         ("a single recovery_sequence",), "recovery_sequence"),
        ('error "e" { respond_after current_action; respond_after current_action; }',
         "1:43: expected a single respond_after, found 'respond_after'",
         ("a single respond_after",), "respond_after"),
        ('error "e" { return_to sequence; return_to sequence; }',
         "1:33: expected a single return_to, found 'return_to'",
         ("a single return_to",), "return_to"),
        ('error "e" { respond_after later; }',
         "1:27: expected response timing, found 'later'", ("response timing",), "later"),
        ('error "e" { return_to nowhere; }',
         "1:23: expected resume target, found 'nowhere'", ("resume target",), "nowhere"),
        (_GUARDED_TO.format("pressure(1);", "return_to_initial_position;"),
         "1:87: expected 'forces_exceed' or 'distance_covered', found 'pressure'",
         ("'forces_exceed'", "'distance_covered'"), "pressure"),
        (_GUARDED_TO.format("distance_covered(about, 1);", "return_to_initial_position;"),
         "1:104: expected 'more_than' or 'less_than', found 'about'",
         ("'more_than' or 'less_than'",), "about"),
        (_GUARDED_TO.format("forces_exceed(1);", "explode;"),
         "1:117: expected 'return_to_initial_position' or 'repeat_with_perturbation'"
         " or 'throw_error', found 'explode'",
         ("'return_to_initial_position'", "'repeat_with_perturbation'", "'throw_error'"),
         "explode"),
        (_GUARDED_TO.format("forces_exceed(1);", "3;"),
         "1:117: expected behavior, found '3'", ("behavior",), "3"),
        # An empty on_fail block is reported at its own '}', also at the end of input.
        (_GUARDED_TO.format("forces_exceed(1);", ""),
         "1:118: expected at least one on_fail behavior, found '}'",
         ("at least one on_fail behavior",), "}"),
        ('advanced_move "m" {\n specification { distance 1 direction up frame tcp; }\n'
         ' evaluation { forces_exceed(1); }\n on_fail {\n }\n}\n',
         "5:2: expected at least one on_fail behavior, found '}'",
         ("at least one on_fail behavior",), "}"),
        (_GUARDED_TO.format("forces_exceed(1);", "")[:-2],
         "1:118: expected at least one on_fail behavior, found '}'",
         ("at least one on_fail behavior",), "}"),
    ])
    def test_failure_is_reported_as_pinned(self, source, message, expected, found):
        with pytest.raises(ParseError) as exc_info:
            parse_program(source)
        err = exc_info.value
        assert (str(err), err.expected, err.found) == (message, expected, found)


class TestLexicalErrors:
    def test_a_long_integer_int_converts_is_a_number(self):
        raw = "7" * 700
        tokens = tokenize(f"bit -{raw};")
        assert tokens.kinds == ["IDENT", "NUMBER", "SEMI", "EOF"]
        assert tokens.value(1) == -int(raw)

    def test_the_integer_limit_is_read_when_lexing(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert tokenize("1" * 5000).value(0) == int("1" * 5000)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text, expected", [
        ("$ " + "1" * 5000, ("declaration", "statement", "token")),
        ("1" * 5000 + " $", ("a shorter integer",)),
        ("1" * 700 + " $", ("declaration", "statement", "token")),
    ])
    def test_the_first_in_text_order_is_reported(self, text, expected):
        with pytest.raises(ParseError) as exc_info:
            tokenize(text)
        assert exc_info.value.expected == expected

    def test_a_lexical_error_comes_before_any_grammar_error(self):
        with pytest.raises(ParseError) as exc_info:
            parse_program('sequence ; "open')
        assert exc_info.value.expected == ("closing '\"'",)


class TestLexerTotality:
    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_lexer_never_crashes(self, text):
        try:
            tokenize(text)
        except ParseError as err:
            assert err.location is not None

    @given(st.binary(max_size=120))
    def test_arbitrary_bytes(self, blob):
        text = blob.decode("utf-8", errors="replace")
        try:
            parse_program(text)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# Lexer oracle


_REF_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ";": "SEMI",
    "=": "EQUALS",
    "@": "AT",
}
_REF_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_REF_IDENT_CONT = _REF_IDENT_START | set("0123456789")
_REF_DIGITS = set("0123456789")


def reference_tokenize(text: str) -> list[tuple]:
    """The character-by-character lexer that `tokenize` replaced, unchanged
    but for returning (kind, text, value, location) tuples."""
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def loc():
        return SourceLocation(line, col, i)

    def bump(count=1):
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            bump()
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                bump()
            continue
        start = loc()
        if ch in _REF_PUNCT:
            tokens.append((_REF_PUNCT[ch], ch, ch, start))
            bump()
            continue
        if ch == '"':
            bump()
            chars = []
            while True:
                if i >= n:
                    raise ParseError(loc(), ("closing '\"'",), "end of input")
                c = text[i]
                if c == "\n":
                    raise ParseError(loc(), ("closing '\"'",), "newline")
                if c == "\\":
                    bump()
                    if i >= n:
                        raise ParseError(loc(), ("escape character",), "end of input")
                    esc = text[i]
                    if esc not in ('"', "\\"):
                        raise ParseError(loc(), ('escape \\" or \\\\',), esc)
                    chars.append(esc)
                    bump()
                    continue
                if c == '"':
                    bump()
                    break
                chars.append(c)
                bump()
            tokens.append(("STRING", text[start.offset : i], "".join(chars), start))
            continue
        if ch in _REF_DIGITS or (ch in "+-" and i + 1 < n and text[i + 1] in _REF_DIGITS):
            if ch in "+-":
                bump()
            while i < n and text[i] in _REF_DIGITS:
                bump()
            is_float = False
            if i < n and text[i] == "." and i + 1 < n and text[i + 1] in _REF_DIGITS:
                is_float = True
                bump()
                while i < n and text[i] in _REF_DIGITS:
                    bump()
            raw = text[start.offset : i]
            value = float(raw) if is_float else int(raw)
            tokens.append(("NUMBER", raw, value, start))
            continue
        if ch in _REF_IDENT_START:
            while i < n and text[i] in _REF_IDENT_CONT:
                bump()
            raw = text[start.offset : i]
            tokens.append(("IDENT", raw, raw, start))
            continue
        raise ParseError(start, ("declaration", "statement", "token"), ch)

    tokens.append(("EOF", "", None, loc()))
    return tokens


def _lexed(lex, text):
    """Tokens as (kind, text, value, type(value), location), or the error."""
    try:
        tokens = lex(text)
    except ParseError as err:
        return "error", err.location, err.expected, err.found
    if lex is reference_tokenize:
        return [(kind, raw, value, type(value), loc) for kind, raw, value, loc in tokens]
    assert len(tokens.kinds) == len(tokens.texts) == len(tokens.offsets) == len(tokens)
    return [
        (tokens.kinds[i], tokens.texts[i], value, type(value), tokens.location(i))
        for i, value in enumerate(map(tokens.value, range(len(tokens))))
    ]


def assert_lexes_like_reference(text):
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)


#: Every character class the lexer distinguishes, plus a non-ASCII letter
#: and a non-ASCII digit, which `\w` and `\d` would accept.
LEXER_ALPHABET = "0123456789+-.\"\\#{}(),;=@aZ_ \t\r\né٣"


class TestLexerOracle:
    @given(st.text(alphabet=LEXER_ALPHABET, max_size=80))
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_on_lexer_alphabet(self, text):
        assert_lexes_like_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x",
            '"a',
            '"a\\',
            '"a\\\\"',
            '"a\\x"',
            '"a\\\n"',
            '"a\nb"',
            '"\\""',
            "+",
            "-.5",
            "1.",
            "1.2.3",
            "007 +0 -0.0",
            "a# c\n\r\t# d",
            "٣",
            "a٣",
            "\x0b",
        ],
    )
    def test_matches_reference_on_edge_cases(self, text):
        assert_lexes_like_reference(text)

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".adsl"))
    )
    def test_matches_reference_on_shipped_examples(self, name):
        assert_lexes_like_reference((EXAMPLES / name).read_text(encoding="utf-8"))

    def test_matches_reference_on_generated_corpus_program(self):
        text, _ = bench_generator().corpus_program(random.Random(7), 300)
        assert_lexes_like_reference(text)


class TestLexerOracleLongInputs:
    """Tokens and inputs longer than the generated texts above reach."""

    @pytest.mark.parametrize(
        "text",
        [
            "move to a" + "b_9" * 240 + "7;",  # an identifier ending in a digit
            "bit " + "9" * 700 + ";",  # past `int`'s safe digits, converts
            "-" + "3" * 700 + " +" + "4" * 700 + ".5",
            'sequence "s" {\r\n  wait 1.5; # c\r\n}\r\nentry "s";\r\n',
        ],
        ids=["long-ident", "700-digits", "signed-long", "crlf"],
    )
    def test_matches_reference(self, text):
        assert_lexes_like_reference(text)

    def test_5000_digit_integer_after_comment(self):
        """Past `int`'s default limit the integer is an error, at the location
        the reference gives its token when the limit is lifted."""
        text = "# lead\n  " + "1" * 5000 + ";"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert_lexes_like_reference(text)
            where = reference_tokenize(text)[0][3]
        finally:
            sys.set_int_max_str_digits(limit)
        with pytest.raises(ParseError) as exc_info:
            tokenize(text)
        err = exc_info.value
        assert (err.location, err.expected, err.found) == (
            where, ("a shorter integer",), "5000-digit integer")
        assert where == SourceLocation(2, 3, 9)

    def test_matches_reference_on_the_largest_benchmark_program(self):
        text, _ = bench_generator().corpus_program(random.Random(7), 2000)
        assert_lexes_like_reference(text)


def test_tokenize_runs_no_python_code_per_token():
    """`tokenize` runs as many Python lines for 30,000 tokens as for 30."""
    def lines_run(text):
        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            count += event == "line"
            return tracer

        sys.settrace(tracer)
        try:
            tokens = tokenize(text)
        finally:
            sys.settrace(None)
        return count, len(tokens)

    small, n_small = lines_run("x = { 1.5, -2 }; " * 3)
    large, n_large = lines_run("x = { 1.5, -2 }; " * 3000)
    assert n_large > 1000 * n_small / 3 > 0
    assert small == large


#: What `tokenize` may keep per token: two list slots, an array offset and
#: the token's text (~52 B on the benchmark corpus, on CPython 3.11). An
#: offset as a Python int takes it to ~80 B, a token object or a tuple per
#: token further (~150 B with the slotted token objects the columns replaced).
MAX_BYTES_PER_TOKEN = 70


def test_tokens_are_columns_without_an_object_per_token():
    text, _ = bench_generator().corpus_program(random.Random(7), 1000)
    gc.collect()
    tracemalloc.start()
    try:
        tokens = tokenize(text)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokens) > 20_000
    assert size / len(tokens) < MAX_BYTES_PER_TOKEN


# ---------------------------------------------------------------------------
# The parser is the boundary where program text becomes values: model
# constructors coerce nothing, so the parser must build exactly the types
# the model declares.


def _check_built_types(value, hint, counts) -> None:
    """Assert `value` has exactly the type `hint` declares: a tuple for a
    tuple field, a float for a real, an int for an integer, recursively."""
    origin = typing.get_origin(hint)
    if hint is float or hint is int:
        assert type(value) is hint, (hint, value)
        counts[hint.__name__] += 1
    elif origin is tuple:
        assert type(value) is tuple, (hint, value)
        counts["tuple"] += 1
        args = typing.get_args(hint)
        element_hints = [args[0]] * len(value) if args[-1] is Ellipsis else args
        assert len(element_hints) == len(value), (hint, value)
        for element, element_hint in zip(value, element_hints):
            _check_built_types(element, element_hint, counts)
    elif origin is dict:
        for element in value.values():
            _check_built_types(element, typing.get_args(hint)[1], counts)
    elif origin is typing.Union:
        if isinstance(value, Value):
            _check_built_types(value, type(value), counts)
        elif value is not None and float in typing.get_args(hint):
            _check_built_types(value, float, counts)
    elif isinstance(hint, type) and issubclass(hint, Value):
        assert type(value) is hint, (hint, value)
        hints = typing.get_type_hints(hint)
        assert list(hints) == list(hint._fields), hint
        for name in hint._fields:
            _check_built_types(getattr(value, name), hints[name], counts)


@pytest.mark.parametrize(
    "source", sorted(p.name for p in EXAMPLES.iterdir() if p.name.endswith(".adsl")) + [7, 11]
)
def test_parser_builds_tuples_and_exact_floats(source):
    if isinstance(source, int):  # a seed of the benchmark's generated corpus
        text, _ = bench_generator().corpus_program(random.Random(source), 300)
    else:
        text = (EXAMPLES / source).read_text(encoding="utf-8")
    counts = collections.Counter()
    _check_built_types(parse_program(text), Program, counts)
    assert counts["tuple"] > 0 and counts["float"] > 0, counts


# ---------------------------------------------------------------------------
# Round-trip property


IDENT = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(string.ascii_lowercase + "_"),
    st.text(alphabet=string.ascii_lowercase + string.digits + "_", max_size=7),
)
NAME_ALPHABET = string.ascii_letters + string.digits + " _-.()\"\\"
NAME = st.text(alphabet=NAME_ALPHABET, min_size=1, max_size=12)
FLOATS = st.floats(
    min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False
)
SIGNED = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def programs(draw) -> Program:
    conf_names = draw(st.lists(IDENT, min_size=1, max_size=3, unique=True))
    joint_confs = {
        name: JointConfiguration(
            name, tuple(draw(st.lists(SIGNED, min_size=6, max_size=6)))
        )
        for name in conf_names
    }

    io_names = draw(st.lists(NAME, min_size=1, max_size=2, unique=True))
    io_ops = {}
    for name in io_names:
        prims = []
        for _ in range(draw(st.integers(1, 3))):
            prims.append(draw(st.sampled_from([SetLow(), SetHigh()])))
            prims.append(SelectBit(draw(st.integers(0, 7))))
            if draw(st.booleans()):
                prims.append(Sleep(draw(FLOATS)))
        io_ops[name] = IOOperation(name, tuple(prims))

    item_names = draw(st.lists(NAME, min_size=0, max_size=2, unique=True))
    items = {
        name: Item(
            name,
            tuple(
                Keyframe(
                    draw(IDENT),
                    tuple(
                        (draw(SIGNED), draw(SIGNED), draw(SIGNED))
                        for _ in range(draw(st.integers(1, 2)))
                    ),
                )
                for _ in range(draw(st.integers(1, 2)))
            ),
        )
        for name in item_names
    }

    error_names = draw(st.lists(NAME, min_size=0, max_size=2, unique=True))
    errors = {
        name: ErrorSpec(
            name,
            respond_after=draw(st.sampled_from(list(RespondAfter))),
            return_to=draw(st.sampled_from(list(ReturnTo))),
        )
        for name in error_names
    }

    queries = st.one_of(
        st.builds(ForcesExceed, FLOATS),
        st.builds(
            DistanceCovered, st.sampled_from(list(Comparison)), FLOATS
        ),
    )
    behaviors = st.one_of(
        st.just(ReturnToInitialPosition()),
        st.builds(RepeatWithPerturbation, st.integers(1, 5)),
        *([st.builds(ThrowError, st.sampled_from(error_names))] if error_names else []),
    )

    def drop_extra_repeats(blist):
        # At most one repeat behavior per list is legal.
        out, seen = [], False
        for b in blist:
            if isinstance(b, RepeatWithPerturbation):
                if seen:
                    continue
                seen = True
            out.append(b)
        return tuple(out)

    move_names = draw(st.lists(NAME, min_size=0, max_size=2, unique=True))
    adv_moves = {}
    for name in move_names:
        on_fail = drop_extra_repeats(draw(st.lists(behaviors, min_size=1, max_size=3)))
        adv_moves[name] = AdvMoveSpec(
            name,
            distance=draw(FLOATS),
            direction=draw(st.sampled_from(list(Direction))),
            frame=draw(st.sampled_from(list(Frame))),
            eval_queries=tuple(draw(st.lists(queries, min_size=1, max_size=2))),
            on_fail=on_fail,
            condition=draw(st.none() | queries),
            stop_if=draw(st.none() | queries),
            speed=draw(st.none() | st.sampled_from(list(SpeedLevel))),
            on_success=drop_extra_repeats(
                draw(st.lists(behaviors, min_size=0, max_size=2))
            ),
        )

    def instruction(seq_names):
        choices = [
            st.builds(
                MoveJoint,
                st.lists(st.sampled_from(conf_names), min_size=1, max_size=2).map(tuple),
            ),
            st.builds(Io, st.sampled_from(io_names)),
            st.builds(Wait, FLOATS),
            st.builds(
                Call,
                st.just("noop"),
                st.lists(st.sampled_from(item_names), max_size=2).map(tuple)
                if item_names
                else st.just(()),
            ),
        ]
        if move_names:
            choices.append(st.builds(AdvMoveRef, st.sampled_from(move_names)))
        if seq_names:
            choices.append(st.builds(SeqCall, st.sampled_from(seq_names)))
        base = st.one_of(choices)
        annotations = st.one_of(
            st.none(),
            st.just(NonReversible()),
            st.just(SkipOnReverse()),
            st.just(Barrier()),
            st.builds(
                ReverseWith,
                st.one_of(
                    st.builds(Io, st.sampled_from(io_names)),
                    st.builds(Wait, FLOATS),
                ),
            ),
        )

        def annotate(pair):
            instr, ann = pair
            if ann is None:
                return instr
            return type(instr)(
                **{
                    f: getattr(instr, f)
                    for f in instr._fields
                    if f not in ("annotation", "location")
                },
                annotation=ann,
            )

        return st.tuples(base, annotations).map(annotate)

    seq_names = draw(st.lists(NAME, min_size=1, max_size=3, unique=True))
    sequences = {}
    built = []
    for name in seq_names:
        instrs = tuple(draw(st.lists(instruction(built), min_size=1, max_size=4)))
        sequences[name] = Sequence(name, instrs)
        built.append(name)

    return Program(items, io_ops, joint_confs, sequences, errors, adv_moves, built[-1])


@given(programs())
@settings(max_examples=40, deadline=None)
def test_roundtrip_structural_identity(program):
    text = pretty_print(program)
    reparsed = parse_program(text)
    assert reparsed == program
    # Canonical form is a fixed point.
    assert pretty_print(reparsed) == text


@given(programs())
@settings(max_examples=20, deadline=None)
def test_generated_programs_validate(program):
    assert validate_program(program) == []


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_number_format_roundtrips_exactly(x):
    text = format_number(x)
    assert "e" not in text and "E" not in text
    assert float(text) == x or (x != x)


def test_corpus_roundtrip(corpus_program):
    text = pretty_print(corpus_program)
    assert parse_program(text) == corpus_program


def test_noncanonical_whitespace_reparses_identically(corpus_program):
    canon = pretty_print(corpus_program)
    mangled = canon.replace("\n", " \n\t ").replace(";", " ;")
    assert parse_program(mangled) == corpus_program


def test_single_token_deletion_error_locations(corpus_text):
    tokens = tokenize(corpus_text)
    for i in range(len(tokens) - 1):  # all but EOF
        raw = tokens.texts[i]
        start = tokens.location(i).offset
        mutated = corpus_text[:start] + corpus_text[start + len(raw):]
        try:
            parse_program(mutated)
        except ParseError as err:
            # Deleting punctuation can merge two tokens; the reported token
            # then starts before the splice but always covers it.
            end_of_found = err.location.offset + max(len(err.found), 1)
            assert end_of_found > start, (
                f"deleting {raw!r} at {start} reported error before the deletion"
            )


def test_minimal_program_prints_with_defaults_omitted():
    from adsl.model import ErrorSpec, Program

    program = Program(errors={"e": ErrorSpec("e")})
    text = pretty_print(program)
    assert text == 'error "e" {\n}\n'
    assert parse_program(text) == program


def test_grammar_and_parser_spell_the_same_words():
    """Each word the parser picks from a table or an enum is a quoted terminal
    of docs/grammar.ebnf, and each quoted word of its syntax is one of those
    or a word the parser matches literally (`expect_word`, `accept`)."""
    with open(os.path.join(ROOT, "docs", "grammar.ebnf"), encoding="utf-8") as f:
        grammar = f.read()
    syntax = grammar[:grammar.index("(* ---- lexical elements")]
    terminals = set(re.findall(r'"([A-Za-z_]+)"', syntax))
    tables = (parser._DECLARATIONS, parser._INSTRUCTIONS, parser._PRIMITIVES,
              parser._ANNOTATIONS, parser._QUERIES, parser._BEHAVIORS, parser._ERROR_FIELDS)
    enums = (Direction, Frame, SpeedLevel, RespondAfter, ReturnTo, Comparison)
    words = {w for table in tables for w in table} | {m.value for e in enums for m in e}
    with open(parser.__file__, encoding="utf-8") as f:
        literals = set(re.findall(r'\b(?:expect_word|accept)\("([a-z_]+)"\)', f.read()))
    assert literals, "no literal word found in parser.py"
    assert words - terminals == set()
    assert terminals - words - literals == set()
