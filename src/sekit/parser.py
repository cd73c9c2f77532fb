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

import re
from dataclasses import dataclass

from .core import EPSILON, Alphabet, Program, Rule


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


# One lexeme per match, after blanks and comments. The group that matched names the token's
# kind (ATOM NOT SEMI COMMA ARROW DOT TAUT EOF, or a fault in _FAULTS) and holds its lexeme.
# re.ASCII makes \w the identifier characters [A-Za-z0-9_].
_LEXEME = re.compile(r"(?:[ \t\r\n]+|%[^\n]*\n?)*(?:"
                     r"(?P<NOT>not\b)|(?P<ATOM>[a-z]\w*)|(?P<WORD>[A-Z_]\w*)"
                     r"|(?P<ARROW>:-)|(?P<SEMI>;)|(?P<COMMA>,)|(?P<DOT>\.)"
                     r"|(?P<TAUT>#taut\b)|(?P<DIRECTIVE>#\w*)|(?P<EOF>\Z)|(?P<OTHER>.))",
                     re.ASCII | re.DOTALL)

# The tokens that are lexical faults, with their messages (see `_Parser.fail`).
_FAULTS = {"WORD": "invalid atom {!r} (atoms match [a-z][A-Za-z0-9_]*)",
           "DIRECTIVE": "unknown directive {!r}", "OTHER": "unexpected character {!r}"}


class _Parser:
    def __init__(self, source: str | SourceProgram):
        source = source if isinstance(source, SourceProgram) else SourceProgram(source)
        self.text, self.origin = source.text, source.origin
        self.tokens = _LEXEME.finditer(self.text)  # the tokens are the matches, read lazily
        self.lookahead = next(self.tokens)  # the one token read ahead
        self.rule_index: int | None = None

    def advance(self) -> re.Match[str]:
        """The lookahead, once the caller has matched it; a parser never reads past the end."""
        token, self.lookahead = self.lookahead, next(self.tokens)
        return token

    def fail(self, message: str, token: re.Match[str]) -> ParseError:
        """Raise `message` at `token`, or the token's fault when it is one. No rule of the grammar
        takes a fault, so the parser fails at the first one it reaches, and only there. Lines and
        columns are counted only here."""
        kind, text = token.lastgroup, self.text
        if kind in _FAULTS:
            message = _FAULTS[kind].format(token[kind])
        offset = token.start(kind)
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        raise ParseError(message, line, column, self.origin, self.rule_index)

    def expect(self, kind: str, what: str) -> re.Match[str]:
        token = self.lookahead
        if token.lastgroup != kind:
            self.fail(f"expected {what}, found {token[token.lastgroup]!r}"
                      if token.lastgroup != "EOF" else f"expected {what}, found end of input", token)
        return self.advance()

    def literals(self, separator: str) -> tuple[frozenset[str], frozenset[str]]:
        """The positive and the negated atoms of a list of literals joined by `separator`,
        which may be empty. Stacked default negation absorbs pairwise."""
        pos: set[str] = set()
        neg: set[str] = set()
        if self.lookahead.lastgroup in ("ATOM", "NOT"):
            while True:
                nots = 0
                while self.lookahead.lastgroup == "NOT":
                    self.advance()
                    nots += 1
                (neg if nots % 2 else pos).add(self.expect("ATOM", "an atom")["ATOM"])
                if self.lookahead.lastgroup != separator:
                    break
                self.advance()
        return frozenset(pos), frozenset(neg)

    def rule(self) -> Rule:
        token = self.lookahead
        if token.lastgroup == "TAUT":
            self.advance()
            self.expect("DOT", "'.'")
            return EPSILON
        if token.lastgroup not in ("ATOM", "NOT", "ARROW"):
            self.fail("expected a literal, ':-' or '#taut'"
                      if token.lastgroup != "EOF" else "expected a rule, found end of input", token)
        head_pos, head_neg = self.literals("SEMI")
        body_pos, body_neg = frozenset(), frozenset()
        if self.lookahead.lastgroup == "ARROW":
            self.advance()
            body_pos, body_neg = self.literals("COMMA")
        self.expect("DOT", "'.'")
        return Rule._of(head_pos, head_neg, body_pos, body_neg)  # the ATOM lexeme matches ATOM_PATTERN


def parse_rule(source: str | SourceProgram) -> Rule:
    """Parse exactly one rule."""
    parser = _Parser(source)
    rule = parser.rule()
    trailing = parser.lookahead
    if trailing.lastgroup != "EOF":
        parser.fail(f"unexpected trailing input {trailing[trailing.lastgroup]!r}", trailing)
    return rule


def parse_program(source: str | SourceProgram) -> tuple[Program, Alphabet]:
    """Parse a sequence of rules; returns the program and its inferred alphabet.

    The inferred alphabet holds exactly the atoms that occur in the text and
    may be empty, in which case the caller must supply one for semantic work.
    """
    parser = _Parser(source)
    parser.rule_index = 1
    rules: set[Rule] = set()
    while parser.lookahead.lastgroup != "EOF":
        rules.add(parser.rule())
        parser.rule_index += 1
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
