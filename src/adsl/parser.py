"""Lexer and recursive-descent parser for the textual assembly DSL.

The surface syntax uses braced declaration blocks with semicolon-terminated
statements. Names that behave like symbols (joint configurations, keyframes)
are bare identifiers; everything else is named by a double-quoted string.
Comments run from `#` to end of line. The grammar is documented in
docs/grammar.ebnf and `printer.pretty_print` emits its canonical form.

The lexer is one compiled regular expression that skips whitespace and
comments and matches one token per match; where no token matches, a short
check of the failing text names the error. A token records only its offset
and builds its `SourceLocation` (line, column) when `location` is read,
since the parser reads locations for few tokens.

Parsing is a pure function of the input text: it either returns a complete
`Program` or raises `ParseError` at the first failure point.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ";": "SEMI",
    "=": "EQUALS",
    "@": "AT",
}

#: A string literal up to, not including, its closing quote.
_STRING_PREFIX = r'"(?:[^"\\\n]|\\["\\])*'

#: One match per token: whitespace and comments, then exactly one token.
#: Every position matches some alternative (at worst ERROR or the end of
#: input), so `finditer` never skips text and never backtracks into the
#: skipped run. The classes are ASCII on purpose: `\d` and `\w` also match
#: non-ASCII digits and letters, which the grammar excludes.
_TOKEN_RE = re.compile(
    rf"""
    [ \t\r\n]* (?: \# [^\n]* [ \t\r\n]* )*
    (?: (?P<IDENT> [A-Za-z_][A-Za-z0-9_]* )
      | (?P<PUNCT> [{{}}(),;=@] )
      | (?P<STRING> {_STRING_PREFIX}" )
      | (?P<FLOAT> [+-]?[0-9]+\.[0-9]+ )
      | (?P<INT> [+-]?[0-9]+ )
      | (?P<ERROR> {_STRING_PREFIX} | . )
      | \Z
    )
    """,
    re.VERBOSE,
)
_NEWLINE = re.compile("\n")
_ESCAPE = re.compile(r'\\(["\\])')


def _location(line_starts: list[int], offset: int) -> SourceLocation:
    line = bisect_right(line_starts, offset)
    return SourceLocation(line, offset - line_starts[line - 1] + 1, offset)


class Token:
    """One token; its `location` is built from `offset` when read."""

    __slots__ = ("kind", "text", "value", "offset", "_line_starts")

    def __init__(self, kind, text, value, offset, line_starts):
        self.kind = kind
        self.text = text
        self.value = value
        self.offset = offset
        self._line_starts = line_starts

    @property
    def location(self) -> SourceLocation:
        return _location(self._line_starts, self.offset)

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens; total over all inputs (errors, not crashes)."""
    line_starts = [0]
    line_starts += [m.end() for m in _NEWLINE.finditer(text)]
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "IDENT":
            value = raw = m["IDENT"]
        elif kind == "PUNCT":
            value = raw = m["PUNCT"]
            kind = _PUNCT[raw]
        elif kind == "INT":
            raw = m["INT"]
            try:
                kind, value = "NUMBER", int(raw)
            except ValueError:  # more digits than `int` converts from text
                where = _location(line_starts, m.end() - len(raw))
                found = f"{len(raw.lstrip('+-'))}-digit integer"
                raise ParseError(where, ("a shorter integer",), found) from None
        elif kind == "FLOAT":
            raw = m["FLOAT"]
            kind, value = "NUMBER", float(raw)
        elif kind == "STRING":
            raw = m["STRING"]
            value = raw[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        elif kind == "ERROR":
            raise _lex_error(text, m.start("ERROR"), m.end(), line_starts)
        else:  # end of input
            break
        # The token ends the match; whitespace and comments precede it.
        append(Token(kind, raw, value, m.end() - len(raw), line_starts))
    append(Token("EOF", "", None, len(text), line_starts))
    return tokens


def _lex_error(text: str, start: int, end: int, line_starts: list[int]) -> ParseError:
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

_DECL_WORDS = (
    "item",
    "io_operation",
    "joint_configuration",
    "sequence",
    "error",
    "advanced_move",
    "entry",
)

_INSTRUCTION_WORDS = ("move", "io", "wait", "call", "adv_move", "seq")

_DIRECTIONS = {d.value: d for d in Direction}
_FRAMES = {f.value: f for f in Frame}
_SPEEDS = {s.value: s for s in SpeedLevel}
_RESPONDS = {r.value: r for r in RespondAfter}
_RETURNS = {r.value: r for r in ReturnTo}
_COMPARISONS = {c.value: c for c in Comparison}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, *expected: str):
        tok = self.tokens[self.pos]
        found = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(tok.location, expected, found)

    def expect(self, kind: str, description: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(description)
        if kind != "EOF":
            self.pos += 1
        return tok

    def expect_word(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "IDENT" or tok.value != word:
            self.fail(f"'{word}'")
        return self.advance()

    def at_word(self, *words: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "IDENT" and tok.value in words

    def string(self, description: str) -> str:
        return self.expect("STRING", description).value

    def ident(self, description: str) -> str:
        return self.expect("IDENT", description).value

    def number(self, description: str = "number") -> float:
        # From the text, so an integer beyond float range is inf, as a real is.
        return float(self.expect("NUMBER", description).text)

    def integer(self, description: str) -> int:
        tok = self.tokens[self.pos]
        if tok.kind != "NUMBER" or not isinstance(tok.value, int):
            self.fail(description)
        return self.advance().value

    def keyword_from(self, table: dict, description: str):
        tok = self.tokens[self.pos]
        if tok.kind != "IDENT" or tok.value not in table:
            self.fail(description)
        return table[self.advance().value]

    def semi(self):
        self.expect("SEMI", "';'")

    def braced(self, element, empty: Optional[str] = None) -> tuple:
        """`{ element... }` as a tuple; with `empty`, a block without
        elements fails expecting `empty`."""
        self.expect("LBRACE", "'{'")
        elements = []
        while self.peek().kind != "RBRACE":
            elements.append(element())
        if empty is not None and not elements:
            self.fail(empty)
        self.expect("RBRACE", "'}'")
        return tuple(elements)

    # -- program ------------------------------------------------------------

    def program(self) -> Program:
        items: dict[str, Item] = {}
        io_ops: dict[str, IOOperation] = {}
        joint_confs: dict[str, JointConfiguration] = {}
        sequences: dict[str, Sequence] = {}
        errors: dict[str, ErrorSpec] = {}
        adv_moves: dict[str, AdvMoveSpec] = {}
        entry: Optional[str] = None
        entry_declared = False

        def declare(table: dict, decl, what: str, location):
            if decl.name in table:
                raise ParseError(location, (f"unique {what} name",), decl.name)
            table[decl.name] = decl

        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT" or tok.value not in _DECL_WORDS:
                self.fail(*(f"'{w}'" for w in _DECL_WORDS))
            loc = tok.location
            word = tok.value
            if word == "item":
                declare(items, self.item_decl(), "item", loc)
            elif word == "io_operation":
                declare(io_ops, self.io_decl(), "io operation", loc)
            elif word == "joint_configuration":
                declare(joint_confs, self.joint_decl(), "joint configuration", loc)
            elif word == "sequence":
                declare(sequences, self.sequence_decl(), "sequence", loc)
            elif word == "error":
                declare(errors, self.error_decl(), "error", loc)
            elif word == "advanced_move":
                declare(adv_moves, self.adv_move_decl(), "advanced move", loc)
            else:
                if entry_declared:
                    raise ParseError(loc, ("a single entry declaration",), "entry")
                self.advance()
                entry = self.string("entry sequence name")
                self.semi()
                entry_declared = True

        if entry is None and sequences:
            # Without an explicit entry declaration the last declared
            # sequence is the program entry point.
            entry = next(reversed(sequences))

        return Program(items, io_ops, joint_confs, sequences, errors, adv_moves, entry)

    # -- declarations ---------------------------------------------------------

    def item_decl(self) -> Item:
        loc = self.expect_word("item").location
        name = self.string("item name")
        return Item(name, self.braced(self.keyframe, "keyframe"), location=loc)

    def keyframe(self) -> Keyframe:
        self.expect_word("keyframe")
        name = self.ident("keyframe name")
        self.expect("LBRACE", "'{'")
        coords = []
        while self.peek().kind == "LPAREN":
            self.advance()
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

    def io_decl(self) -> IOOperation:
        loc = self.expect_word("io_operation").location
        name = self.string("io operation name")
        return IOOperation(name, self.braced(self.primitive), location=loc)

    def primitive(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail("'set_low'", "'set_high'", "'bit'", "'sleep'")
        word = tok.value
        if word == "set_low":
            self.advance()
            self.semi()
            return SetLow()
        if word == "set_high":
            self.advance()
            self.semi()
            return SetHigh()
        if word == "bit":
            self.advance()
            index = self.integer("bit index")
            self.semi()
            return SelectBit(index)
        if word == "sleep":
            self.advance()
            seconds = self.number("sleep duration")
            self.semi()
            return Sleep(seconds)
        self.fail("'set_low'", "'set_high'", "'bit'", "'sleep'")

    def joint_decl(self) -> JointConfiguration:
        loc = self.expect_word("joint_configuration").location
        name = self.ident("joint configuration name")
        self.expect("EQUALS", "'='")
        self.expect("LBRACE", "'{'")
        joints = [self.number()]
        while self.peek().kind == "COMMA":
            self.advance()
            joints.append(self.number())
        self.expect("RBRACE", "'}'")
        self.semi()
        return JointConfiguration(name, tuple(joints), location=loc)

    def sequence_decl(self) -> Sequence:
        loc = self.expect_word("sequence").location
        name = self.string("sequence name")
        return Sequence(name, self.braced(self.instruction, "instruction"), location=loc)

    def instruction(self) -> Instruction:
        annotation = None
        if self.peek().kind == "AT":
            annotation = self.annotation()
        instr = self.instruction_core(annotation)
        self.semi()
        return instr

    def annotation(self) -> Annotation:
        self.expect("AT", "'@'")
        word = self.ident("annotation name")
        if word == "nonreversible":
            return NonReversible()
        if word == "skip_on_reverse":
            return SkipOnReverse()
        if word == "barrier":
            return Barrier()
        if word == "reverse_with":
            self.expect("LPAREN", "'('")
            inner = self.instruction_core(None)
            self.expect("RPAREN", "')'")
            return ReverseWith(inner)
        tok = self.tokens[self.pos - 1]
        raise ParseError(
            tok.location,
            ("'nonreversible'", "'skip_on_reverse'", "'barrier'", "'reverse_with'"),
            word,
        )

    def instruction_core(self, annotation) -> Instruction:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value not in _INSTRUCTION_WORDS:
            self.fail("instruction")
        loc = tok.location
        word = tok.value
        self.advance()
        if word == "move":
            self.expect_word("to")
            waypoints = [self.ident("joint configuration name")]
            while self.peek().kind == "COMMA":
                self.advance()
                waypoints.append(self.ident("joint configuration name"))
            return MoveJoint(tuple(waypoints), annotation, location=loc)
        if word == "io":
            return Io(self.string("io operation name"), annotation, location=loc)
        if word == "wait":
            return Wait(self.number("wait duration"), annotation, location=loc)
        if word == "call":
            action = self.string("action name")
            self.expect("LPAREN", "'('")
            items = []
            while self.peek().kind == "STRING":
                items.append(self.advance().value)
            self.expect("RPAREN", "')'")
            return Call(action, tuple(items), annotation, location=loc)
        if word == "adv_move":
            return AdvMoveRef(self.string("advanced move name"), annotation, location=loc)
        return SeqCall(self.string("sequence name"), annotation, location=loc)

    def error_decl(self) -> ErrorSpec:
        loc = self.expect_word("error").location
        name = self.string("error name")
        self.expect("LBRACE", "'{'")
        recovery = None
        respond = None
        ret = None
        while self.peek().kind != "RBRACE":
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail("'recovery_sequence'", "'respond_after'", "'return_to'")
            word = tok.value
            if word == "recovery_sequence":
                if recovery is not None:
                    raise ParseError(tok.location, ("a single recovery_sequence",), word)
                self.advance()
                recovery = self.string("sequence name")
                self.semi()
            elif word == "respond_after":
                if respond is not None:
                    raise ParseError(tok.location, ("a single respond_after",), word)
                self.advance()
                respond = self.keyword_from(_RESPONDS, "response timing")
                self.semi()
            elif word == "return_to":
                if ret is not None:
                    raise ParseError(tok.location, ("a single return_to",), word)
                self.advance()
                ret = self.keyword_from(_RETURNS, "resume target")
                self.semi()
            else:
                self.fail("'recovery_sequence'", "'respond_after'", "'return_to'")
        self.expect("RBRACE", "'}'")
        return ErrorSpec(
            name,
            recovery_sequence=recovery,
            respond_after=respond if respond is not None else RespondAfter.CURRENT_ACTION,
            return_to=ret if ret is not None else ReturnTo.SEQUENCE,
            location=loc,
        )

    def query(self) -> Query:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail("'forces_exceed'", "'distance_covered'")
        if tok.value == "forces_exceed":
            self.advance()
            self.expect("LPAREN", "'('")
            threshold = self.number("force threshold")
            self.expect("RPAREN", "')'")
            return ForcesExceed(threshold)
        if tok.value == "distance_covered":
            self.advance()
            self.expect("LPAREN", "'('")
            cmp = self.keyword_from(_COMPARISONS, "'more_than' or 'less_than'")
            self.expect("COMMA", "','")
            value = self.number("distance")
            self.expect("RPAREN", "')'")
            return DistanceCovered(cmp, value)
        self.fail("'forces_exceed'", "'distance_covered'")

    def query_statement(self) -> Query:
        query = self.query()
        self.semi()
        return query

    def behavior(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail("behavior")
        if tok.value == "return_to_initial_position":
            self.advance()
            self.semi()
            return ReturnToInitialPosition()
        if tok.value == "repeat_with_perturbation":
            self.advance()
            self.expect("LPAREN", "'('")
            retries = self.integer("retry count")
            self.expect("RPAREN", "')'")
            self.semi()
            return RepeatWithPerturbation(retries)
        if tok.value == "throw_error":
            self.advance()
            self.expect("LPAREN", "'('")
            error = self.string("error name")
            self.expect("RPAREN", "')'")
            self.semi()
            return ThrowError(error)
        self.fail(
            "'return_to_initial_position'",
            "'repeat_with_perturbation'",
            "'throw_error'",
        )

    def behavior_block(self, word: str) -> tuple:
        self.expect_word(word)
        return self.braced(self.behavior)

    def adv_move_decl(self) -> AdvMoveSpec:
        loc = self.expect_word("advanced_move").location
        name = self.string("advanced move name")
        self.expect("LBRACE", "'{'")

        condition = None
        if self.at_word("condition"):
            self.advance()
            condition = self.query_statement()

        self.expect_word("specification")
        self.expect("LBRACE", "'{'")
        self.expect_word("distance")
        distance = self.number("distance")
        self.expect_word("direction")
        direction = self.keyword_from(_DIRECTIONS, "direction")
        self.expect_word("frame")
        frame = self.keyword_from(_FRAMES, "frame")
        self.semi()
        stop_if = None
        if self.at_word("stop_if"):
            self.advance()
            stop_if = self.query_statement()
        speed = None
        if self.at_word("speed"):
            self.advance()
            speed = self.keyword_from(_SPEEDS, "speed level")
            self.semi()
        self.expect("RBRACE", "'}'")

        self.expect_word("evaluation")
        eval_queries = self.braced(self.query_statement, "query")

        on_success = ()
        if self.at_word("on_success"):
            on_success = self.behavior_block("on_success")

        if not self.at_word("on_fail"):
            self.fail("'on_fail'")
        on_fail = self.behavior_block("on_fail")
        if not on_fail:
            tok = self.peek()
            raise ParseError(tok.location, ("at least one on_fail behavior",), tok.text)

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


def parse_program(text: str) -> Program:
    """Parse DSL source text into a Program.

    Raises ParseError at the first failure point; no partial program is
    ever returned. The result may still be semantically invalid; run
    `model.validate_program` before executing it.
    """
    parser = _Parser(tokenize(text))
    program = parser.program()
    parser.expect("EOF", "end of input")
    return program
