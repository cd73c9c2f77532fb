"""Rule grammar, canonical printing, and round trips."""
from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import strategies
from sekit import EPSILON, Alphabet, ParseError, Rule, SourceProgram, parse_program, parse_rule, print_rule
from sekit.oracle import enumerate_rules


def test_parse_full_rule():
    r = parse_rule("p; not q :- r, not s.")
    assert r == Rule(head_pos={"p"}, head_neg={"q"}, body_pos={"r"}, body_neg={"s"})


def test_parse_fact_and_constraint():
    assert parse_rule("p.") == Rule(head_pos={"p"})
    assert parse_rule(":- p.") == Rule(body_pos={"p"})
    assert parse_rule(":-.") == Rule()
    assert parse_rule("p :- .") == Rule(head_pos={"p"})


def test_double_negation_absorbs_pairwise():
    assert parse_rule("p :- not not q.") == Rule(head_pos={"p"}, body_pos={"q"})
    assert parse_rule("not not not p.") == Rule(head_neg={"p"})
    assert parse_rule("not not p.") == Rule(head_pos={"p"})


def test_taut_directive():
    assert parse_rule("#taut.") is EPSILON or parse_rule("#taut.") == EPSILON


def test_duplicates_collapse():
    assert parse_rule("p; p :- q, q.") == parse_rule("p :- q.")


def test_whitespace_and_comments_are_ignored():
    program, alphabet = parse_program("p :- q. % trailing words\n\n  q.\n% whole line\n")
    assert len(program) == 2
    assert alphabet.atoms == ("p", "q")


def test_empty_program_has_empty_alphabet():
    program, alphabet = parse_program("")
    assert len(program) == 0
    assert alphabet.atoms == ()


def test_print_rule_examples():
    assert print_rule(Rule(head_pos={"p"}, head_neg={"q"}, body_neg={"r"})) == "p; not q :- not r."
    assert print_rule(Rule()) == ":-."
    assert print_rule(EPSILON) == "#taut."
    assert print_rule(Rule(body_pos={"q"}, body_neg={"p"})) == ":- q, not p."
    assert print_rule(Rule(head_pos={"p"})) == "p."


def test_print_orders_positives_first_then_lexicographic():
    r = Rule(head_pos={"q", "p"}, head_neg={"a"}, body_pos={"z", "b"}, body_neg={"c"})
    assert print_rule(r) == "p; q; not a :- b, z, not c."


def test_round_trip_all_rules_over_two_atoms():
    for rule in enumerate_rules(Alphabet(("p", "q"))):
        assert parse_rule(print_rule(rule)) == rule
    assert parse_rule(print_rule(EPSILON)) == EPSILON


@given(strategies.rules())
def test_round_trip_random_rules(rule):
    assert parse_rule(print_rule(rule)) == rule


@pytest.mark.parametrize("text", [
    "p :- q",        # missing dot
    ".",             # no head, no ':-'
    "p; .",          # dangling separator
    "not .",         # 'not' without atom
    "P.",            # bad lexeme
    "_x.",           # bad lexeme
    "#foo.",         # unknown directive
    "p & q.",        # stray character
    "p. q.",         # trailing input for parse_rule
    ":- p,.",        # dangling comma
])
def test_parse_rule_rejects(text):
    with pytest.raises(ParseError):
        parse_rule(text)


_INVALID_ATOM = "invalid atom {!r} (atoms match [a-z][A-Za-z0-9_]*)"


@pytest.mark.parametrize("parse, text, line, column, message", [
    (parse_rule, "P.", 1, 1, _INVALID_ATOM.format("P")),
    (parse_rule, "_x.", 1, 1, _INVALID_ATOM.format("_x")),
    (parse_rule, "\u00e9.", 1, 1, "unexpected character '\u00e9'"),
    (parse_rule, "p :- 1a.", 1, 6, "unexpected character '1'"),
    (parse_rule, "p & q.", 1, 3, "unexpected character '&'"),
    (parse_rule, "#foo.", 1, 1, "unknown directive '#foo'"),
    (parse_rule, "# .", 1, 1, "unknown directive '#'"),
    (parse_rule, "p :- q", 1, 7, "expected '.', found end of input"),
    (parse_rule, "p :- q % no dot", 1, 16, "expected '.', found end of input"),  # after the comment
    (parse_program, "p.\r\nq :- r\ns.", 3, 1, "rule 2: expected '.', found 's'"),
    (parse_program, "p.\n% c\nq :- r, % c", 3, 12, "rule 2: expected an atom, found end of input"),
    (parse_program, "p.\nq :- r\ns :- \u00e9.", 3, 1, "rule 2: expected '.', found 's'"),  # text order
    (parse_program, "p.\nq :- \u00e9.", 2, 6, "rule 2: unexpected character '\u00e9'"),
    (parse_program, "p.\nQ.", 2, 1, "rule 2: " + _INVALID_ATOM.format("Q")),
    (parse_rule, "p. q.", 1, 4, "unexpected trailing input 'q'"),
    (parse_program, "p :-\n  not #taut.", 2, 7, "rule 1: expected an atom, found '#taut'"),
])
def test_parse_error_text_and_position(parse, text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"<string>:{line}:{column}: {message}"

def test_parse_error_carries_position_and_origin():
    with pytest.raises(ParseError) as err:
        parse_rule(SourceProgram("p :-\n  Q.", origin="bad.lp"))
    assert err.value.origin == "bad.lp"
    assert err.value.line == 2
    assert err.value.column == 3
    assert "bad.lp:2:3" in str(err.value)


def test_parse_program_reports_rule_index():
    with pytest.raises(ParseError) as err:
        parse_program("p.\nq :- r\ns.")
    assert err.value.rule_index == 2
    assert "rule 2" in str(err.value)


def test_atom_may_start_with_not_prefix():
    r = parse_rule("notable :- nota.")
    assert r == Rule(head_pos={"notable"}, body_pos={"nota"})


@given(st.permutations(["p", "not q", "r", "not s"]))
def test_head_literal_order_is_irrelevant(order):
    text = "; ".join(order) + "."
    assert parse_rule(text) == Rule(head_pos={"p", "r"}, head_neg={"q", "s"})


_PROGRAM_PIECES = st.sampled_from(["p", "q1", "nota", "not", "not not", " ", "\t", "\r", "\n", ";",
                                   ",", ".", ":-", ":", "-", "#taut", "#", "#tau", "%", "_x", "P",
                                   "\u00e9", "\u00df", "0", "\u00bd", "\u0661", "#\u00e9", "\r\n",
                                   "not_x", "1a", "% c"])


@seed(2011)
@settings(max_examples=300)
@given(st.one_of(st.text(), st.lists(_PROGRAM_PIECES, max_size=30).map("".join)))
def test_parse_program_fails_only_with_a_parse_error(text):
    try:
        program, alphabet = parse_program(text)
    except ValueError as err:  # ParseError is one
        assert isinstance(err, ParseError), err
        return
    assert alphabet.atoms == tuple(sorted(program.atoms))
    printed = " ".join(print_rule(rule) for rule in program)
    assert parse_program(printed) == (program, alphabet)
