"""Command line behaviour: outputs, formats, exit codes."""
from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sekit import (Alphabet, Interpretation, SEInterpretation, SESet, all_se_interpretations,
                   print_rule, se_models)
from sekit.cli import main, parse_se_set_document, se_set_document
from strategies import random_rule


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_models_inline_rule_text(capsys):
    code, out, err = run(capsys, "models", "p; not p :-.")
    assert code == 0 and err == ""
    assert out.strip() == "([], []) ([p], [p])"


def test_models_json_document(capsys):
    code, out, _ = run(capsys, "models", "p; not p :-.", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"alphabet": ["p"], "models": [[[], []], [["p"], ["p"]]]}


def test_models_text_and_json_agree(capsys):
    code, text_out, _ = run(capsys, "models", "p :- not q.")
    code2, json_out, _ = run(capsys, "models", "p :- not q.", "--format", "json")
    assert code == code2 == 0
    doc = json.loads(json_out)
    rendered = " ".join(f"([{', '.join(i)}], [{', '.join(j)}])" for i, j in doc["models"])
    assert rendered == text_out.strip()
    assert len(doc["models"]) == 7


def test_models_program_from_stdin_with_alphabet(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, _ = run(capsys, "models", "--program", "-", "--alphabet", "p")
    assert code == 0
    assert out.strip() == "([], []) ([], [p]) ([p], [p])"


def test_models_program_file(capsys, tmp_path):
    path = tmp_path / "facts.lp"
    path.write_text("p. q.\n")
    code, out, _ = run(capsys, "models", "--program", str(path))
    assert code == 0
    assert out.strip() == "([p, q], [p, q])"


def test_models_alphabet_must_cover_input(capsys):
    code, out, err = run(capsys, "models", "p :- q.", "--alphabet", "p")
    assert code == 2 and "q" in err


def test_models_without_atoms_needs_alphabet(capsys):
    code, _, err = run(capsys, "models", ":-.")
    assert code == 2 and "--alphabet" in err
    code, out, _ = run(capsys, "models", ":-.", "--alphabet", "p")
    assert code == 0 and out.strip() == ""


def test_models_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "models", "p :- q")
    assert code == 2 and "error" in err


def test_canon_examples(capsys):
    assert run(capsys, "canon", "not p.")[1].strip() == ":- p."
    assert run(capsys, "canon", "p :- q, not q.")[1].strip() == "#taut."
    assert run(capsys, "canon", "p; not q :- q, not p.")[1].strip() == ":- q, not p."
    code, out, _ = run(capsys, "canon", ":- q, not p.")
    assert code == 0 and out.strip() == ":- q, not p."


def test_induce_representable(capsys, tmp_path):
    doc = {"alphabet": ["p"], "models": [[["p"], ["p"]]]}
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "induce", str(path))
    assert code == 0
    assert out.splitlines() == ["rule: p.", "representable: yes"]


def test_induce_not_representable(capsys, tmp_path):
    doc = {"alphabet": ["p", "q"], "models": [[["p", "q"], ["p", "q"]]]}
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "induce", str(path))
    assert code == 1
    assert out.splitlines() == ["rule: :-.", "representable: no"]


def test_induce_induces_once(capsys, tmp_path, monkeypatch):
    import sekit.cli
    calls = []
    induce = sekit.cli.induce_rule
    monkeypatch.setattr(sekit.cli, "induce_rule", lambda *args: calls.append(args) or induce(*args))
    monkeypatch.setattr("sekit.lattice.induce_rule", sekit.cli.induce_rule)
    path = tmp_path / "set.json"
    for atoms, code in (["p"], 0), (["p", "q"], 1):
        path.write_text(json.dumps({"alphabet": atoms, "models": [[atoms, atoms]]}))
        calls.clear()
        assert run(capsys, "induce", str(path))[0] == code
        assert len(calls) == 1


def test_induce_json_format(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"alphabet": ["p"], "models": []}))
    code, out, _ = run(capsys, "induce", str(path), "--format", "json")
    assert code == 0  # the empty set is the SE-set of the falsity rule
    assert json.loads(out) == {"rule": ":-.", "representable": True}
    path.write_text(json.dumps({"alphabet": ["p", "q"],
                                "models": [[["p", "q"], ["p", "q"]]]}))
    code, out, _ = run(capsys, "induce", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out) == {"rule": ":-.", "representable": False}


def test_induce_rejects_malformed_documents(capsys, tmp_path):
    bad1 = tmp_path / "bad1.json"
    bad1.write_text("{not json")
    assert run(capsys, "induce", str(bad1))[0] == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"models": []}))
    assert run(capsys, "induce", str(bad2))[0] == 2
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"alphabet": ["p"], "models": [[["p"], []]]}))
    assert run(capsys, "induce", str(bad3))[0] == 2  # here not below there


def test_induce_rejects_documents_over_the_cap(capsys, tmp_path):
    # rejected before any SE-set is built: the one member alone would take 3^30 bits
    atoms = [f"a{k}" for k in range(30)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"alphabet": atoms, "models": [[atoms, atoms]]}))
    code, out, err = run(capsys, "induce", str(path))
    assert code == 2 and out == ""
    assert "alphabet has 30 atoms, exceeding the enumeration cap of 20" in err


@pytest.mark.parametrize("side", [[1, "p"], [["x"]]], ids=["int", "list"])
def test_induce_rejects_non_string_atoms(capsys, tmp_path, side):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"alphabet": ["p"], "models": [[side, ["p"]]]}))
    code, out, err = run(capsys, "induce", str(path))
    assert code == 2 and out == ""
    assert "malformed model entry" in err and "atom names must be strings" in err


def _object_rendering(s):
    """Text and JSON document of S built one SEInterpretation per pair, as before the
    mask-level document layer."""
    pairs = [(list(m.here.atoms()), list(m.there.atoms())) for m in s.sorted_models()]
    text = " ".join(f"([{', '.join(i)}], [{', '.join(j)}])" for i, j in pairs)
    return text, {"alphabet": list(s.alphabet.atoms), "models": [list(p) for p in pairs]}


def test_se_set_documents_round_trip_and_match_the_object_rendering():
    rng = random.Random(11)
    for n in range(1, 5):
        alphabet = Alphabet(tuple("pqrs"[:n]))
        pairs = all_se_interpretations(alphabet)
        for _ in range(40):
            s = SESet(alphabet, rng.sample(pairs, rng.randint(0, len(pairs))))
            doc = se_set_document(s)
            assert json.dumps(doc) == json.dumps(_object_rendering(s)[1])
            assert parse_se_set_document(json.loads(json.dumps(doc))) == s


def test_models_output_matches_the_object_rendering(capsys):
    rng = random.Random(12)
    for n in range(1, 5):
        alphabet = Alphabet(tuple("pqrs"[:n]))
        for _ in range(10):
            rule = random_rule(rng, alphabet.atoms)
            text, doc = _object_rendering(se_models(rule, alphabet))
            argv = ["models", print_rule(rule), "--alphabet", ",".join(alphabet.atoms)]
            assert run(capsys, *argv) == (0, text + "\n", "")
            assert run(capsys, *argv, "--format", "json") == (0, json.dumps(doc, indent=2) + "\n", "")


def test_se_set_documents_accept_duplicates_and_unsorted_sides():
    alphabet = Alphabet(("p", "q"))
    pq, q = Interpretation.of(alphabet, ["p", "q"]), Interpretation.of(alphabet, ["q"])
    expected = SESet(alphabet, {SEInterpretation(pq, pq), SEInterpretation(q, pq)})
    doc = {"alphabet": ["q", "p"],
           "models": [[["q", "p"], ["p", "q", "p"]], [["q"], ["q", "p"]], [["p", "q"], ["p", "q"]]]}
    assert parse_se_set_document(doc) == expected
    assert se_set_document(expected) == {"alphabet": ["p", "q"],
                                         "models": [[["q"], ["p", "q"]], [["p", "q"], ["p", "q"]]]}


def test_equiv_all_notions_with_witness(capsys, tmp_path):
    left = tmp_path / "left.lp"
    right = tmp_path / "right.lp"
    left.write_text("not p.\n")
    right.write_text(":- p.\n")
    code, out, _ = run(capsys, "equiv", str(left), str(right))
    assert code == 1
    lines = out.splitlines()
    assert "s: equivalent" in lines
    assert "sr: equivalent" in lines
    assert "smr: equivalent" in lines
    assert "su: not equivalent" in lines
    assert any("witness" in line for line in lines)


def test_equiv_single_notion_exit_codes(capsys, tmp_path):
    left = tmp_path / "left.lp"
    right = tmp_path / "right.lp"
    left.write_text("not p.\n")
    right.write_text(":- p.\n")
    assert run(capsys, "equiv", str(left), str(right), "--notion", "sr")[0] == 0
    assert run(capsys, "equiv", str(left), str(right), "--notion", "su")[0] == 1


def test_equiv_identical_programs(capsys, tmp_path):
    path = tmp_path / "same.lp"
    path.write_text("p :- q. q.\n")
    code, out, _ = run(capsys, "equiv", str(path), str(path))
    assert code == 0
    assert all(line.endswith(": equivalent") for line in out.splitlines())


def test_equiv_json_document(capsys, tmp_path):
    left = tmp_path / "left.lp"
    right = tmp_path / "right.lp"
    left.write_text("p. q.\n")
    right.write_text("p :- q. q.\n")
    code, out, _ = run(capsys, "equiv", str(left), str(right), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["notions"]["s"]["equivalent"] is True
    assert doc["notions"]["smr"]["equivalent"] is False
    assert "witness" in doc["notions"]["smr"]
    assert doc["equivalent"] is False


def test_equiv_empty_programs_need_alphabet(capsys, tmp_path):
    left = tmp_path / "left.lp"
    right = tmp_path / "right.lp"
    left.write_text("")
    right.write_text("")
    assert run(capsys, "equiv", str(left), str(right))[0] == 2
    code, out, _ = run(capsys, "equiv", str(left), str(right), "--alphabet", "p")
    assert code == 0


def test_equiv_rejects_double_stdin(capsys):
    assert run(capsys, "equiv", "-", "-")[0] == 2


def test_explore_classes(capsys):
    code, out, _ = run(capsys, "explore", "classes", "-n", "2")
    assert code == 0 and out.strip() == "30"
    code, out, _ = run(capsys, "explore", "classes", "-n", "1", "--format", "json")
    assert json.loads(out) == {"atoms": 1, "classes": 6}


def test_explore_classes_at_five_atoms(capsys, monkeypatch):
    monkeypatch.setenv("SEKIT_ENUM_CAP", "5")
    code, out, err = run(capsys, "explore", "classes", "-n", "5")
    assert code == 0 and out.strip() == "6996" and err == ""


def test_explore_closure_reports_counterexample(capsys):
    code, out, _ = run(capsys, "explore", "closure", "--op", "intersection", "-n", "2")
    assert code == 0
    assert "closed: no" in out
    assert 'counterexample: "a." with "b."' in out  # two facts clash


def test_explore_closure_json(capsys):
    code, out, _ = run(capsys, "explore", "closure", "--op", "union", "-n", "1")
    assert code == 0 and "closed: yes" in out
    code, out, _ = run(capsys, "explore", "closure", "--op", "union", "-n", "1",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["closed"] is True and doc["counterexamples"] == []
    assert doc["sets"] == 6 and doc["pairs"] == 21


def test_explore_size_validation(capsys):
    assert run(capsys, "explore", "classes", "-n", "0")[0] == 2


def test_enum_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SEKIT_ENUM_CAP", "2")
    code, _, err = run(capsys, "models", "p :- q, r.")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("SEKIT_ENUM_CAP", "many")
    assert run(capsys, "models", "p.")[0] == 2
    monkeypatch.delenv("SEKIT_ENUM_CAP")
    assert run(capsys, "models", "p :- q, r.")[0] == 0


def test_missing_file_exit_2(capsys, tmp_path):
    assert run(capsys, "models", "--program", str(tmp_path / "nope.lp"))[0] == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["models"])
    assert err.value.code == 2


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
                 | st.text(max_size=4) | st.sampled_from(["p", "q", "r", "P", "not"]))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                            | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=12)
_SIDES = st.lists(st.sampled_from(["p", "q", "r", "s"]) | _JSON_VALUES, max_size=3) | _JSON_VALUES
_DOCUMENTS = st.fixed_dictionaries(
    {"alphabet": st.lists(st.sampled_from(["p", "q", "r"]) | _JSON_VALUES, max_size=4) | _JSON_VALUES,
     "models": st.lists(st.lists(_SIDES, max_size=3) | _JSON_VALUES, max_size=4) | _JSON_VALUES})


@seed(2011)
@settings(max_examples=150)
@given(st.one_of(_JSON_VALUES, _DOCUMENTS))
def test_se_set_documents_fail_only_with_a_value_error(doc):
    # at most four atoms (four distinct names), so a set stays small
    try:
        s = parse_se_set_document(doc)
    except ValueError:
        return
    assert parse_se_set_document(json.loads(json.dumps(se_set_document(s)))) == s


def test_document_sides_are_checked_and_indexed_once(monkeypatch):
    import sekit.cli

    calls = []
    ternary = sekit.cli._ternary

    def counting(bits):
        calls.append(bits)
        return ternary(bits)

    def refuse(*args):
        raise AssertionError("a pair was checked again")

    monkeypatch.setattr(sekit.cli, "_ternary", counting)
    monkeypatch.setattr(sekit.cli, "_indices", refuse)  # reached only for a side not below the other
    s = se_models(random_rule(random.Random(7), tuple("abcde")), Alphabet(tuple("abcde")))
    assert parse_se_set_document(se_set_document(s)) == s
    assert sorted(calls) == sorted({side for pair in s.masks() for side in pair})
