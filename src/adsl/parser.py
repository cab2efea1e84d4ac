"""Lexer and recursive-descent parser for the textual assembly DSL.

The surface syntax uses braced declaration blocks with semicolon-terminated
statements. Names that behave like symbols (joint configurations, keyframes)
are bare identifiers; everything else is named by a double-quoted string.
Comments run from `#` to end of line. The grammar is documented in
docs/grammar.ebnf and `printer.pretty_print` emits its canonical form.

The lexer is one compiled regular expression, each match of which is one
token and the whitespace and comments after it, in three groups: the
token's text, the text no token matches, and the blanks. `tokenize` splits
the text by it once and builds three columns from the parts by C-level
iteration, with no Python statement per token: the raw texts, the kinds
(looked up by each text's first character) and the start offsets (an
`array` summed from the lengths of texts and blanks). They take about 52
bytes a token on the benchmark corpus, and the parser reads them by index.
A token's value (an unescaped string, an int or float) and its
`SourceLocation` (line, column) are built only where they are used. Only
where some text matches no token does a walk over the parts, in text order,
name the error (or take a long integer `int` converts as a NUMBER).

Each word choice of the grammar is one table (`_DECLARATIONS`, `_INSTRUCTIONS`,
`_PRIMITIVES`, `_ERROR_FIELDS`, ...): its keys are the words accepted and,
quoted and in order, the words a failure lists; only a failed instruction
names no word. Declarations and error fields fill `Program` and `ErrorSpec`
by field name. The word-to-class tables are the only place a construct's word
is spelled: `printer` inverts them to write each class's word back.

Parsing is a pure function of the input text: it either returns a complete
`Program` or raises `ParseError` at the first failure point.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from itertools import accumulate, islice
from operator import add, itemgetter
from typing import Optional

from .model import (
    AdvMoveRef,
    AdvMoveSpec,
    Annotation,
    Barrier,
    Call,
    Comparison,
    Direction,
    DistanceCovered,
    ErrorSpec,
    ForcesExceed,
    Frame,
    Instruction,
    Io,
    IOOperation,
    Item,
    JointConfiguration,
    Keyframe,
    MoveJoint,
    NonReversible,
    Program,
    Query,
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
    Wait,
    _IDENT,
)


class ParseError(Exception):
    """Raised at the first point the input stops matching the grammar."""

    def __init__(self, location: SourceLocation, expected: tuple[str, ...], found: str):
        assert expected, "a parse error must name at least one expectation"
        self.location = location
        self.expected = tuple(expected)
        self.found = found
        wanted = " or ".join(expected)
        super().__init__(f"{location}: expected {wanted}, found {found!r}")


# ---------------------------------------------------------------------------
# Lexer

#: A string literal up to, not including, its closing quote (unrolled: runs of
#: plain characters between escapes).
_STRING_PREFIX = r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*'

#: Whitespace and comments, which separate tokens.
_BLANKS = r"[ \t\r\n]* (?: \# [^\n]* [ \t\r\n]* )*"

#: `int` converts an integer of at most this many digits from text under any
#: limit the interpreter sets. A longer one is text no token matches, and
#: `_check_errors` makes it a NUMBER if it converts under the current limit.
_SAFE_DIGITS = sys.int_info.str_digits_check_threshold

#: One match per token, in three groups: the token's text (`""` at the end of
#: input), else the text no token matches, then the blanks after it. Past the
#: leading blanks every position matches (at worst one stray character or
#: the end of input), so `split` leaves no text between matches. The classes
#: are ASCII on purpose: `\d` and `\w` also match non-ASCII digits and
#: letters, which the grammar excludes.
_TOKEN_RE = re.compile(
    rf"""
    (?: ( [;,{{}}()=@]
        | {_IDENT.pattern}
        | [+-]?[0-9]+\.[0-9]+ | [+-]?[0-9]{{1,{_SAFE_DIGITS}}}(?![0-9])
        | {_STRING_PREFIX}"
        | \Z )
      | ( {_STRING_PREFIX} | [+-]?[0-9]+ | . )
    ) ( {_BLANKS} )
    """,
    re.VERBOSE,
)
_LEADING_BLANKS = re.compile(_BLANKS, re.VERBOSE)
_LONG_INTEGER = re.compile(r"[+-]?[0-9]+")
_NEWLINE = re.compile("\n")
_ESCAPE = re.compile(r'\\(["\\])')

#: A token's kind, by the first character of its text; EOF's text is empty.
_KIND_OF = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT"),
    **dict.fromkeys("0123456789+-", "NUMBER"),
    ";": "SEMI", ",": "COMMA", "{": "LBRACE", "}": "RBRACE",
    "(": "LPAREN", ")": "RPAREN", "=": "EQUALS", "@": "AT", '"': "STRING",
}


def _location(line_starts, offset: int) -> SourceLocation:
    line = bisect_right(line_starts, offset)
    return SourceLocation(line, offset - line_starts[line - 1] + 1, offset)


class Tokens:
    """The tokens of one text, as columns: token `i` has kind `kinds[i]`,
    raw text `texts[i]` and start offset `offsets[i]` (an `array`, as are
    the line starts). The last token is EOF, with empty text at the end of
    the input. A token's value and location are built only when asked for."""

    __slots__ = ("kinds", "texts", "offsets", "line_starts")

    def __init__(self, kinds, texts, offsets, line_starts):
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self.line_starts = line_starts

    def __len__(self) -> int:
        return len(self.kinds)

    def location(self, i: int) -> SourceLocation:
        return _location(self.line_starts, self.offsets[i])

    def value(self, i: int):
        """The unescaped string, the int or float, the word or mark; None at EOF."""
        kind, raw = self.kinds[i], self.texts[i]
        if kind == "STRING":
            raw = raw[1:-1]
            return _ESCAPE.sub(itemgetter(1), raw) if "\\" in raw else raw
        if kind == "NUMBER":
            return float(raw) if "." in raw else int(raw)
        return raw if kind != "EOF" else None


def tokenize(text: str) -> Tokens:
    """Split `text` into tokens; total over all inputs (errors, not crashes).

    One `split` by `_TOKEN_RE` gives four parts a token: the empty text
    between matches, then its three groups. The columns are built from them
    by C-level iteration; no Python statement runs per token."""
    line_starts = array("q", [0])
    line_starts.extend(map(re.Match.end, _NEWLINE.finditer(text)))
    start = _LEADING_BLANKS.match(text).end()
    parts = _TOKEN_RE.split(text[start:])
    if any(islice(parts, 2, None, 4)):
        _check_errors(text, start, parts, line_starts)
    texts = parts[1::4]
    offsets = array("q", accumulate(
        map(add, map(len, texts), map(len, islice(parts, 3, None, 4))), initial=start))
    del parts
    offsets.pop()  # where the text ends, after EOF
    kinds = list(map(_KIND_OF.__getitem__, map(itemgetter(0), islice(texts, len(texts) - 1))))
    kinds.append("EOF")
    return Tokens(kinds, texts, offsets, line_starts)


def _check_errors(text: str, start: int, parts: list, line_starts):
    """Raise the error for the first text no token matches, in text order,
    unless it is an integer `int` converts: that becomes the token's text, a
    NUMBER. `parts` is the split that `tokenize` made from `start`."""
    offset = start
    for i in range(1, len(parts), 4):
        raw = parts[i]
        if raw is None:
            raw = parts[i + 1]
            if not _LONG_INTEGER.fullmatch(raw):
                raise _lex_error(text, offset, offset + len(raw), line_starts)
            try:
                int(raw)
            except ValueError:  # more digits than `int` converts from text
                found = f"{len(raw.lstrip('+-'))}-digit integer"
                raise ParseError(_location(line_starts, offset), ("a shorter integer",),
                                 found) from None
            parts[i] = raw
        offset += len(raw) + len(parts[i + 2])


def _lex_error(text: str, start: int, end: int, line_starts) -> ParseError:
    """The error for `text[start:end]`, where no token matches: a stray
    character, or a string prefix that ends before a closing quote."""
    if text[start] != '"':
        where, expected, found = start, ("declaration", "statement", "token"), text[start]
    elif end == len(text):
        where, expected, found = end, ("closing '\"'",), "end of input"
    elif text[end] == "\n":
        where, expected, found = end, ("closing '\"'",), "newline"
    elif end + 1 == len(text):  # text[end] is a backslash
        where, expected, found = end + 1, ("escape character",), "end of input"
    else:
        where, expected, found = end + 1, ('escape \\" or \\\\',), text[end + 1]
    return ParseError(_location(line_starts, where), expected, found)


# ---------------------------------------------------------------------------
# Parser

_INSTRUCTIONS = {"move": MoveJoint, "io": Io, "wait": Wait, "call": Call,
                 "adv_move": AdvMoveRef, "seq": SeqCall}

_DIRECTIONS = {d.value: d for d in Direction}
_FRAMES = {f.value: f for f in Frame}
_SPEEDS = {s.value: s for s in SpeedLevel}
_RESPONDS = {r.value: r for r in RespondAfter}
_RETURNS = {r.value: r for r in ReturnTo}
_COMPARISONS = {c.value: c for c in Comparison}
_COMPARISON_WORDS = " or ".join(f"'{w}'" for w in _COMPARISONS)

_PRIMITIVES = {"set_low": SetLow, "set_high": SetHigh, "bit": SelectBit, "sleep": Sleep}
_ANNOTATIONS = {
    "nonreversible": NonReversible,
    "skip_on_reverse": SkipOnReverse,
    "barrier": Barrier,
    "reverse_with": ReverseWith,
}
_QUERIES = {"forces_exceed": ForcesExceed, "distance_covered": DistanceCovered}
_BEHAVIORS = {
    "return_to_initial_position": ReturnToInitialPosition,
    "repeat_with_perturbation": RepeatWithPerturbation,
    "throw_error": ThrowError,
}

#: Each `ErrorSpec` field word: its keyword table (None for a string) and
#: what its value is called.
_ERROR_FIELDS = {
    "recovery_sequence": (None, "sequence name"),
    "respond_after": (_RESPONDS, "response timing"),
    "return_to": (_RETURNS, "resume target"),
}


class _Parser:
    """Reads the token columns by index. A word is matched on its text
    alone, since no token of another kind has an identifier's text."""

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def location(self) -> SourceLocation:
        return self.tokens.location(self.pos)

    def fail(self, *expected: str):
        pos = self.pos
        found = self.texts[pos] if self.kinds[pos] != "EOF" else "end of input"
        raise ParseError(self.tokens.location(pos), expected, found)

    def expect(self, kind: str, description: str) -> str:
        """The text of the current token, which must be of `kind`; moves past it."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(description)
        self.pos = pos + 1
        return self.texts[pos]

    def expect_word(self, word: str):
        if self.texts[self.pos] != word:
            self.fail(f"'{word}'")
        self.pos += 1

    def accept(self, word: str) -> bool:
        """Whether the current token is `word`; moves past it if so."""
        if self.texts[self.pos] != word:
            return False
        self.pos += 1
        return True

    def string(self, description: str) -> str:
        self.expect("STRING", description)
        return self.tokens.value(self.pos - 1)

    def ident(self, description: str) -> str:
        return self.expect("IDENT", description)

    def number(self, description: str = "number") -> float:
        # From the text, so an integer beyond float range is inf, as a real is.
        return float(self.expect("NUMBER", description))

    def integer(self, description: str) -> int:
        pos = self.pos
        if self.kinds[pos] != "NUMBER" or "." in self.texts[pos]:
            self.fail(description)
        self.pos = pos + 1
        return self.tokens.value(pos)

    def keyword_from(self, table: dict, *expected: str):
        """`table[word]` for the current word; moves past it. An unknown word
        fails expecting `expected`, or else each key as `'word'`."""
        word = self.texts[self.pos]
        if word not in table:
            self.fail(*(expected or [f"'{w}'" for w in table]))
        self.pos += 1
        return table[word]

    def semi(self):
        self.expect("SEMI", "';'")

    def braced(self, element, empty: Optional[str] = None) -> tuple:
        """`{ element... }` as a tuple; with `empty`, a block without
        elements fails expecting `empty`."""
        self.expect("LBRACE", "'{'")
        elements = []
        kinds = self.kinds
        while kinds[self.pos] != "RBRACE":
            elements.append(element())
        if empty is not None and not elements:
            self.fail(empty)
        self.pos += 1
        return tuple(elements)

    # -- program ------------------------------------------------------------

    def program(self) -> Program:
        tables: dict[str, dict] = {}  # by `Program` field
        entry: Optional[str] = None
        while self.kinds[self.pos] != "EOF":
            loc = self.location()
            declaration = self.keyword_from(_DECLARATIONS)
            if declaration is None:  # entry
                if entry is not None:
                    raise ParseError(loc, ("a single entry declaration",), "entry")
                entry = self.string("entry sequence name")
                self.semi()
                continue
            field, what, parse = declaration
            decl = parse(self, loc)
            table = tables.setdefault(field, {})
            if decl.name in table:
                raise ParseError(loc, (f"unique {what} name",), decl.name)
            table[decl.name] = decl

        if entry is None and tables.get("sequences"):
            # Without an explicit entry declaration the last declared
            # sequence is the program entry point.
            entry = next(reversed(tables["sequences"]))
        return Program(**tables, entry=entry)

    # -- declarations ---------------------------------------------------------
    # Each starts past its declaration word, which is at `loc`.

    def item_decl(self, loc: SourceLocation) -> Item:
        name = self.string("item name")
        return Item(name, self.braced(self.keyframe, "keyframe"), location=loc)

    def keyframe(self) -> Keyframe:
        self.expect_word("keyframe")
        name = self.ident("keyframe name")
        self.expect("LBRACE", "'{'")
        coords = []
        while self.kinds[self.pos] == "LPAREN":
            self.pos += 1
            x = self.number()
            self.expect("COMMA", "','")
            y = self.number()
            self.expect("COMMA", "','")
            z = self.number()
            self.expect("RPAREN", "')'")
            self.semi()
            coords.append((x, y, z))
        if not coords:
            self.fail("coordinate '('")
        self.expect("RBRACE", "'}'")
        return Keyframe(name, tuple(coords))

    def io_decl(self, loc: SourceLocation) -> IOOperation:
        name = self.string("io operation name")
        return IOOperation(name, self.braced(self.primitive), location=loc)

    def primitive(self):
        cls = self.keyword_from(_PRIMITIVES)
        if cls is SelectBit:
            primitive = SelectBit(self.integer("bit index"))
        elif cls is Sleep:
            primitive = Sleep(self.number("sleep duration"))
        else:
            primitive = cls()
        self.semi()
        return primitive

    def joint_decl(self, loc: SourceLocation) -> JointConfiguration:
        name = self.ident("joint configuration name")
        self.expect("EQUALS", "'='")
        self.expect("LBRACE", "'{'")
        joints = [self.number()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            joints.append(self.number())
        self.expect("RBRACE", "'}'")
        self.semi()
        return JointConfiguration(name, tuple(joints), location=loc)

    def sequence_decl(self, loc: SourceLocation) -> Sequence:
        name = self.string("sequence name")
        return Sequence(name, self.braced(self.instruction, "instruction"), location=loc)

    def instruction(self) -> Instruction:
        annotation = None
        if self.kinds[self.pos] == "AT":
            annotation = self.annotation()
        instr = self.instruction_core(annotation)
        self.semi()
        return instr

    def annotation(self) -> Annotation:
        self.pos += 1  # past '@'
        if self.kinds[self.pos] != "IDENT":
            self.fail("annotation name")
        cls = self.keyword_from(_ANNOTATIONS)
        if cls is not ReverseWith:
            return cls()
        self.expect("LPAREN", "'('")
        inner = self.instruction_core(None)
        self.expect("RPAREN", "')'")
        return ReverseWith(inner)

    def instruction_core(self, annotation) -> Instruction:
        loc = self.location()
        cls = self.keyword_from(_INSTRUCTIONS, "instruction")
        if cls is MoveJoint:
            self.expect_word("to")
            waypoints = [self.ident("joint configuration name")]
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                waypoints.append(self.ident("joint configuration name"))
            return MoveJoint(tuple(waypoints), annotation, location=loc)
        if cls is Io:
            return Io(self.string("io operation name"), annotation, location=loc)
        if cls is Wait:
            return Wait(self.number("wait duration"), annotation, location=loc)
        if cls is Call:
            action = self.string("action name")
            self.expect("LPAREN", "'('")
            items = []
            while self.kinds[self.pos] == "STRING":
                items.append(self.string("item name"))
            self.expect("RPAREN", "')'")
            return Call(action, tuple(items), annotation, location=loc)
        if cls is AdvMoveRef:
            return AdvMoveRef(self.string("advanced move name"), annotation, location=loc)
        return SeqCall(self.string("sequence name"), annotation, location=loc)

    def error_decl(self, loc: SourceLocation) -> ErrorSpec:
        name = self.string("error name")
        self.expect("LBRACE", "'{'")
        fields = {}  # by `ErrorSpec` field, which is the field's word
        while self.kinds[self.pos] != "RBRACE":
            word = self.texts[self.pos]
            if word in fields:
                self.fail(f"a single {word}")
            table, description = self.keyword_from(_ERROR_FIELDS)
            if table is None:
                fields[word] = self.string(description)
            else:
                fields[word] = self.keyword_from(table, description)
            self.semi()
        self.pos += 1
        return ErrorSpec(name, location=loc, **fields)

    def query(self) -> Query:
        cls = self.keyword_from(_QUERIES)
        self.expect("LPAREN", "'('")
        if cls is ForcesExceed:
            query = ForcesExceed(self.number("force threshold"))
        else:
            cmp = self.keyword_from(_COMPARISONS, _COMPARISON_WORDS)
            self.expect("COMMA", "','")
            query = DistanceCovered(cmp, self.number("distance"))
        self.expect("RPAREN", "')'")
        return query

    def query_statement(self) -> Query:
        query = self.query()
        self.semi()
        return query

    def behavior(self):
        if self.kinds[self.pos] != "IDENT":
            self.fail("behavior")
        cls = self.keyword_from(_BEHAVIORS)
        if cls is ReturnToInitialPosition:
            behavior = cls()
        else:
            self.expect("LPAREN", "'('")
            if cls is RepeatWithPerturbation:
                behavior = cls(self.integer("retry count"))
            else:
                behavior = cls(self.string("error name"))
            self.expect("RPAREN", "')'")
        self.semi()
        return behavior

    def adv_move_decl(self, loc: SourceLocation) -> AdvMoveSpec:
        name = self.string("advanced move name")
        self.expect("LBRACE", "'{'")
        condition = self.query_statement() if self.accept("condition") else None

        self.expect_word("specification")
        self.expect("LBRACE", "'{'")
        self.expect_word("distance")
        distance = self.number("distance")
        self.expect_word("direction")
        direction = self.keyword_from(_DIRECTIONS, "direction")
        self.expect_word("frame")
        frame = self.keyword_from(_FRAMES, "frame")
        self.semi()
        stop_if = self.query_statement() if self.accept("stop_if") else None
        speed = None
        if self.accept("speed"):
            speed = self.keyword_from(_SPEEDS, "speed level")
            self.semi()
        self.expect("RBRACE", "'}'")

        self.expect_word("evaluation")
        eval_queries = self.braced(self.query_statement, "query")
        on_success = self.braced(self.behavior) if self.accept("on_success") else ()
        self.expect_word("on_fail")
        on_fail = self.braced(self.behavior, "at least one on_fail behavior")
        self.expect("RBRACE", "'}'")
        return AdvMoveSpec(
            name,
            distance=distance,
            direction=direction,
            frame=frame,
            eval_queries=eval_queries,
            on_fail=on_fail,
            condition=condition,
            stop_if=stop_if,
            speed=speed,
            on_success=on_success,
            location=loc,
        )


#: Each declaration word: the `Program` field its declarations fill, what a
#: duplicate is called and its parse method; `entry` fills no table.
_DECLARATIONS = {
    "item": ("items", "item", _Parser.item_decl),
    "io_operation": ("io_ops", "io operation", _Parser.io_decl),
    "joint_configuration": ("joint_confs", "joint configuration", _Parser.joint_decl),
    "sequence": ("sequences", "sequence", _Parser.sequence_decl),
    "error": ("errors", "error", _Parser.error_decl),
    "advanced_move": ("adv_moves", "advanced move", _Parser.adv_move_decl),
    "entry": None,
}


def parse_program(text: str) -> Program:
    """Parse DSL source text into a Program.

    Raises ParseError at the first failure point; no partial program is
    ever returned. The result may still be semantically invalid; run
    `model.validate_program` before executing it.
    """
    return _Parser(tokenize(text)).program()
