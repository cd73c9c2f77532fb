"""Surface syntax for rules and programs.

Grammar (LL(1)):

    program := rule*
    rule    := head [":-" [body]] "."  |  ":-" [body] "."  |  "#taut."
    head    := lit (";" lit)*
    body    := lit ("," lit)*
    lit     := "not"* atom
    atom    := [a-z][A-Za-z0-9_]*

"%" starts a comment running to the end of the line. Stacked default
negation absorbs pairwise, so "not not a" reads as "a". ":-." is the
falsity rule (empty head, empty body); "#taut." is the canonical tautology.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import ATOM_PATTERN, EPSILON, Alphabet, Program, Rule


@dataclass(frozen=True)
class SourceProgram:
    """Program text plus where it came from, for error messages."""

    text: str
    origin: str = "<string>"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int,
                 origin: str = "<string>", rule_index: int | None = None):
        self.line = line
        self.column = column
        self.origin = origin
        self.rule_index = rule_index
        where = f"{origin}:{line}:{column}: "
        if rule_index is not None:
            where += f"rule {rule_index}: "
        super().__init__(where + message)


@dataclass(frozen=True)
class _Token:
    kind: str  # ATOM NOT SEMI COMMA ARROW DOT TAUT EOF
    value: str
    line: int
    column: int


_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_PUNCTUATION = {";": "SEMI", ",": "COMMA", ".": "DOT"}


def _tokenize(text: str, origin: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif c.isalpha() or c == "_":
            start, start_col = i, col
            while i < n and text[i] in _IDENT_CHARS:
                i += 1
                col += 1
            word = text[start:i]
            if word == "not":
                tokens.append(_Token("NOT", word, line, start_col))
            elif ATOM_PATTERN.match(word):
                tokens.append(_Token("ATOM", word, line, start_col))
            else:
                raise ParseError(f"invalid atom {word!r} (atoms match [a-z][A-Za-z0-9_]*)",
                                 line, start_col, origin)
        elif c in _PUNCTUATION:
            tokens.append(_Token(_PUNCTUATION[c], c, line, col))
            i += 1
            col += 1
        elif c == ":" and i + 1 < n and text[i + 1] == "-":
            tokens.append(_Token("ARROW", ":-", line, col))
            i += 2
            col += 2
        elif c == "#":
            start_col = col
            i += 1
            col += 1
            start = i
            while i < n and text[i] in _IDENT_CHARS:
                i += 1
                col += 1
            word = text[start:i]
            if word != "taut":
                raise ParseError(f"unknown directive '#{word}'", line, start_col, origin)
            tokens.append(_Token("TAUT", "#taut", line, start_col))
        else:
            raise ParseError(f"unexpected character {c!r}", line, col, origin)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], origin: str):
        self.tokens = tokens
        self.pos = 0
        self.origin = origin
        self.rule_index: int | None = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token) -> ParseError:
        raise ParseError(message, token.line, token.column, self.origin, self.rule_index)

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            self.fail(f"expected {what}, found {token.value!r}" if token.kind != "EOF"
                      else f"expected {what}, found end of input", token)
        return self.advance()

    def literal(self) -> tuple[bool, str]:
        nots = 0
        while self.peek().kind == "NOT":
            self.advance()
            nots += 1
        token = self.expect("ATOM", "an atom")
        return nots % 2 == 1, token.value

    def rule(self) -> Rule:
        token = self.peek()
        if token.kind == "TAUT":
            self.advance()
            self.expect("DOT", "'.'")
            return EPSILON
        head_pos: set[str] = set()
        head_neg: set[str] = set()
        body_pos: set[str] = set()
        body_neg: set[str] = set()
        if token.kind in ("ATOM", "NOT"):
            while True:
                negated, atom = self.literal()
                (head_neg if negated else head_pos).add(atom)
                if self.peek().kind != "SEMI":
                    break
                self.advance()
        elif token.kind != "ARROW":
            self.fail("expected a literal, ':-' or '#taut'"
                      if token.kind != "EOF" else "expected a rule, found end of input", token)
        if self.peek().kind == "ARROW":
            self.advance()
            if self.peek().kind in ("ATOM", "NOT"):
                while True:
                    negated, atom = self.literal()
                    (body_neg if negated else body_pos).add(atom)
                    if self.peek().kind != "COMMA":
                        break
                    self.advance()
        self.expect("DOT", "'.'")
        return Rule(head_pos=head_pos, head_neg=head_neg,
                    body_pos=body_pos, body_neg=body_neg)


def _unpack(source: str | SourceProgram) -> tuple[str, str]:
    if isinstance(source, SourceProgram):
        return source.text, source.origin
    return source, "<string>"


def parse_rule(source: str | SourceProgram) -> Rule:
    """Parse exactly one rule."""
    text, origin = _unpack(source)
    parser = _Parser(_tokenize(text, origin), origin)
    rule = parser.rule()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        parser.fail(f"unexpected trailing input {trailing.value!r}", trailing)
    return rule


def parse_program(source: str | SourceProgram) -> tuple[Program, Alphabet]:
    """Parse a sequence of rules; returns the program and its inferred alphabet.

    The inferred alphabet holds exactly the atoms that occur in the text and
    may be empty, in which case the caller must supply one for semantic work.
    """
    text, origin = _unpack(source)
    parser = _Parser(_tokenize(text, origin), origin)
    rules: set[Rule] = set()
    index = 1
    while parser.peek().kind != "EOF":
        parser.rule_index = index
        rules.add(parser.rule())
        index += 1
    program = Program(frozenset(rules))
    return program, Alphabet(tuple(program.atoms))


def print_rule(rule: Rule) -> str:
    """Deterministic text form: positives first, lexicographic; ':-' dropped when the body is empty."""
    if rule.is_epsilon:
        return "#taut."
    head = "; ".join(list(sorted(rule.head_pos)) + ["not " + a for a in sorted(rule.head_neg)])
    body = ", ".join(list(sorted(rule.body_pos)) + ["not " + a for a in sorted(rule.body_neg)])
    if head and body:
        return f"{head} :- {body}."
    if head:
        return f"{head}."
    return f":- {body}." if body else ":-."
