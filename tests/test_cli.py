"""Input parsing, serialization, and the command-line pipeline."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildbraid import cli, fission, linalg, rootsys, selfcheck, stokes
from wildbraid.cli import (
    InputError,
    TraceProjectionWarning,
    emit_decomposition,
    emit_tree,
    main,
    parse_blocks,
)
from wildbraid.fission import Factor, GroupDecomposition

SL3_DOC = json.dumps(
    {
        "lie_type": "A",
        "rank": 2,
        "p": 2,
        "coefficients": [["-1", "1", "0"], ["-1", "-1", "2"]],
    }
)

QI_DOC = json.dumps(
    {
        "lie_type": "A",
        "rank": 8,
        "p": 3,
        "coefficients": [
            ["4", "3", "2", "1", "0", "-1", "-2", "-3", "-4"],
            ["4", "4", "3", "2", "1", "0", "-3", "-4", "-7"],
            ["2", "2", "1", "1", "1", "0", "0", "0", "-7"],
        ],
    }
)

QIII_DOC = json.dumps(
    {
        "lie_type": "A",
        "rank": 8,
        "p": 4,
        "coefficients": [
            [4, 3, 2, 1, 0, -1, -2, -3, -4],
            [4, 4, 3, 2, 1, 0, -3, -4, -7],
            [2, 2, 2, 2, 1, 0, -3, -3, -3],
            [1, 1, 1, 1, 1, 1, 0, -2, -4],
        ],
    }
)

G2_DOC = json.dumps(
    {"lie_type": "G2", "rank": 2, "p": 1, "coefficients": [["-4/3", "-1/3", "5/3"]]}
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_sl3_document():
    [(rs, q)] = parse_blocks(SL3_DOC)
    assert (rs.family, rs.rank) == ("A", 2)
    assert q.p == 2
    assert [tuple(map(int, c.coords)) for c in q.coefficients] == [
        (-1, 1, 0),
        (-1, -1, 2),
    ]


def test_parse_from_file(tmp_path):
    path = tmp_path / "sl3.json"
    path.write_text(SL3_DOC)
    [(rs, q)] = parse_blocks(str(path))
    assert rs.family == "A" and q.p == 2


def test_parse_missing_file():
    with pytest.raises(InputError, match="no such input file"):
        parse_blocks("does/not/exist.json")


def test_parse_empty_coefficients_rejected(capsys):
    doc = json.dumps({"lie_type": "A", "rank": 2, "coefficients": []})
    with pytest.raises(InputError, match="p >= 1 required"):
        parse_blocks(doc)
    # A field that is not a list is malformed, not short of coefficients.
    for coefficients in ("x", {"0": [1, -1, 0]}):
        doc = json.dumps({"lie_type": "A", "rank": 2, "coefficients": coefficients})
        assert main(["decompose", doc]) == 2
        captured = capsys.readouterr()
        assert "input.coefficients: expected a list of coefficient vectors" in captured.err
        assert "p >= 1" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "field, message",
    [
        ({"p": "2"}, "input.p: expected an integer"),
        ({"p": True}, "input.p: expected an integer"),
        ({"p": 0}, "input.p: p >= 1 required"),
        ({"coefficients": ["x"]}, "input.coefficients[1]: expected a list, not a string"),
        ({"coefficients": [[1, -1, 0], {"0": 1}]},
         "input.coefficients[2]: expected a list, not an object"),
        ({"coefficients": [None]}, "input.coefficients[1]: expected a list, not null"),
        ({"coefficients": [[1, -1]]}, "input.coefficients[1]: expected 3 entries for A_2"),
    ],
    ids=["p-string", "p-bool", "p-zero", "vector-string", "vector-object", "vector-null",
         "vector-short"],
)
def test_parse_names_the_wrong_type(field, message, capsys):
    doc = json.dumps({"lie_type": "A", "rank": 2, "coefficients": [[1, -1, 0]], **field})
    assert main(["decompose", doc]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_parse_qi_rank8():
    [(rs, q)] = parse_blocks(QI_DOC)
    assert rs.rank == 8
    assert q.p == 3


def test_parse_dimension_mismatch():
    doc = json.dumps({"lie_type": "B", "rank": 3, "coefficients": [["1", "2"]]})
    with pytest.raises(InputError, match="expected 3 entries"):
        parse_blocks(doc)


def test_parse_invalid_rational():
    doc = json.dumps({"lie_type": "B", "rank": 2, "coefficients": [["1", "x/y"]]})
    with pytest.raises(InputError, match="invalid rational"):
        parse_blocks(doc)


@pytest.mark.parametrize(
    "entry",
    ["1_0", "1_000/3", "1.5_0", "\u0661\u0662"],
    ids=["underscore", "underscore-fraction", "underscore-decimal", "arabic-indic-digits"],
)
def test_cmd_rejects_entries_outside_the_ascii_grammar(entry, capsys):
    # Fraction reads "_" separators on 3.11+ and non-ASCII digits everywhere.
    doc = {"lie_type": "B", "rank": 3, "coefficients": [[1, entry, 0]]}
    assert main(["decompose", json.dumps(doc)]) == 2
    assert "invalid rational" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry,value",
    [("1.5", Fraction(3, 2)), ("-2/3", Fraction(-2, 3)), (" 3 ", 3), ("+1", 1)],
    ids=["decimal", "fraction", "whitespace", "plus-sign"],
)
def test_parse_accepts_the_documented_grammar(entry, value):
    doc = json.dumps({"lie_type": "B", "rank": 3, "coefficients": [[1, entry, 0]]})
    [(_, q)] = parse_blocks(doc)
    assert q.coefficients[0].coords == (1, value, 0)


def test_parse_float_rejected():
    doc = json.dumps({"lie_type": "B", "rank": 2, "coefficients": [[0.5, 1]]})
    with pytest.raises(InputError, match="not an exact rational"):
        parse_blocks(doc)


def test_parse_bad_family_and_rank():
    with pytest.raises(InputError, match="unknown family"):
        parse_blocks(json.dumps({"lie_type": "E", "rank": 6, "coefficients": [[]]}))
    with pytest.raises(InputError, match="unsupported rank"):
        parse_blocks(json.dumps({"lie_type": "D", "rank": 1, "coefficients": [["1"]]}))


def test_parse_trace_projection_warns():
    doc = json.dumps(
        {"lie_type": "A", "rank": 2, "coefficients": [["3", "4", "0"], ["0", "0", "1"]]}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        [(_, q)] = parse_blocks(doc)
    assert any(issubclass(w.category, TraceProjectionWarning) for w in caught)
    assert all(sum(c.coords) == 0 for c in q.coefficients)
    # Root values (differences) are untouched by the projection.
    coords = q.coefficients[0].coords
    assert coords[0] - coords[1] == -1


def test_parse_clears_each_trace_zero_row_once(monkeypatch):
    # A trace-zero A row is cleared of denominators once, when its element
    # is built; a row with a nonzero trace three times: the refused build,
    # the projection and the build of the projected row.
    cleared = linalg.cleared
    calls = []
    monkeypatch.setattr(linalg, "cleared", lambda *a: calls.append(a) or cleared(*a))
    rows = [["-1", "1/2", "1/2"], ["-1", "-1", "2"], ["3", "0", "-3"]]
    parse_blocks(json.dumps({"lie_type": "A", "rank": 2, "coefficients": rows}))
    assert len(calls) == 3
    calls.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_blocks(json.dumps({"lie_type": "A", "rank": 2, "coefficients": [["1", "0", "0"]]}))
    assert [str(w.message) for w in caught] == [
        "input.coefficients[1]: nonzero trace projected out"
    ]
    assert len(calls) == 3


def test_parse_zero_pads_to_p():
    doc = json.dumps(
        {"lie_type": "B", "rank": 2, "p": 3, "coefficients": [["1", "2"]]}
    )
    [(_, q)] = parse_blocks(doc)
    assert q.p == 3
    assert all(c == 0 for coeff in q.coefficients[1:] for c in coeff.coords)


def test_parse_many_point():
    doc = json.dumps({"points": [json.loads(SL3_DOC), json.loads(G2_DOC)]})
    blocks = parse_blocks(doc)
    assert [rs.family for rs, _ in blocks] == ["A", "G2"]


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def sl3_tree():
    [(_, q)] = parse_blocks(SL3_DOC)
    return fission.fission_tree(q)


def test_emit_tree_json_lists_every_node():
    tree = sl3_tree()
    doc = json.loads(emit_tree(tree, "json"))
    assert doc["family"] == "A"
    assert [
        (n["id"], n["level"], n["parent"], n["colour"], n["diameter"]) for n in doc["nodes"]
    ] == [(n.id, n.level, n.parent, n.colour, n.diameter) for n in tree.nodes]
    assert doc["leaf_order"] == list(tree.leaf_order) == [0, 1, 2]
    assert tree.level_sizes() == (3, 2, 1)


def test_emit_tree_json_deterministic():
    tree = sl3_tree()
    assert emit_tree(tree, "json") == emit_tree(tree, "json")
    doc = json.loads(emit_tree(tree, "json"))
    assert set(doc) == {"family", "nodes", "leaf_order"}
    assert set(doc["nodes"][0]) == {"id", "level", "parent", "colour", "diameter"}


def test_emit_tree_dot_fig3():
    text = emit_tree(sl3_tree(), "dot")
    assert text.count("rank=same") == 3
    assert text.count(" -> ") == 5
    assert sum(line.strip().startswith("n") and "[" in line for line in text.splitlines()) == 6
    for label in ('"1"', '"2"', '"3"'):
        assert label in text


def test_emit_tree_dot_star_graph():
    doc = json.dumps({"lie_type": "A", "rank": 3, "coefficients": [["1", "2", "4", "-7"]]})
    [(_, q)] = parse_blocks(doc)
    text = emit_tree(fission.fission_tree(q), "dot")
    assert text.count("rank=same") == 2
    assert text.count(" -> ") == 4


def test_emit_tree_qiii_rank_count():
    [(_, q)] = parse_blocks(QIII_DOC)
    tree = fission.fission_tree(q)
    assert tree.level_sizes() == (9, 8, 6, 4, 1)
    assert emit_tree(tree, "dot").count("rank=same") == 5


def test_emit_tree_dot_marks_decorations():
    doc = json.dumps({"lie_type": "D", "rank": 4, "coefficients": [["1", "2", "4", "8"]]})
    [(_, q)] = parse_blocks(doc)
    text = emit_tree(fission.fission_tree(q), "dot")
    assert "fillcolor=lightblue" in text
    assert "shape=point" in text


def test_emit_decomposition_strings():
    [(_, q)] = parse_blocks(QI_DOC)
    assert emit_decomposition(fission.decompose(q)) == "PB_2 x PB_3^2 x PB_4"
    assert emit_decomposition(GroupDecomposition(())) == "1"
    exotic = GroupDecomposition.from_factors([Factor("PBBCD", 1, 1)])
    assert emit_decomposition(exotic) == "PB_BCD(1,1) [~ PB_3]"


# Strings json escapes: quotes, backslashes, control and non-ASCII characters,
# a line separator and a lone surrogate.
json_strings = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r", "\u00e9\u00fc", "\u2028", "\U0001f600", "\ud800"]
)
emitted_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | json_strings,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(json_strings, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(emitted_docs)
@example({"empty": {}, "list": [], "tuple": (), "nested": [[], [{}], {"k": ()}]})
@example([True, 1, False, 0, None, -1, 2**70])
def test_dumps_is_json_dumps_indented(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def ref_tree_doc(tree):
    """The JSON document of a fission tree: its nodes and planar leaf order."""
    return {
        "family": tree.family,
        "nodes": [
            {
                "id": n.id,
                "level": n.level,
                "parent": n.parent,
                "colour": n.colour,
                "diameter": n.diameter,
            }
            for n in tree.nodes
        ],
        "leaf_order": list(tree.leaf_order),
    }


@st.composite
def classical_trees(draw):
    """fission_tree of a random A-D type up to rank 40, some coefficients
    zeroed; when drawn so, rebuilt by hand with its ids shuffled onto a
    sparse range (negatives included) and its nodes in shuffled order."""
    family = draw(st.sampled_from("ABCD"))
    rs = rootsys.build_root_system(family, draw(st.integers(2 if family == "D" else 1, 40)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coeffs = list(fission.random_irregular_type(rs, draw(st.integers(1, 5)), rng).coefficients)
    for i in range(len(coeffs)):
        if draw(st.booleans()):
            coeffs[i] = rootsys.cartan(rs, [0] * rs.ambient_dim)
    tree = fission.fission_tree(fission.IrregularType(rs, tuple(coeffs)))
    if draw(st.booleans()):
        ids = [n.id for n in tree.nodes]
        new = dict(zip(ids, rng.sample(range(-len(ids), 3 * len(ids)), len(ids))))
        nodes = [
            n._replace(id=new[n.id], parent=None if n.parent is None else new[n.parent])
            for n in tree.nodes
        ]
        rng.shuffle(nodes)
        tree = fission.FissionTree(family, tuple(nodes))
    return tree


@settings(max_examples=200, deadline=None)
@given(classical_trees())
def test_dumps_writes_a_tree_as_its_document_at_any_depth(tree):
    doc = ref_tree_doc(tree)
    assert cli._dumps(tree) == json.dumps(doc, indent=2, sort_keys=True)
    # Nested at depths 1-3, in lists and objects beside other values.
    for wrap in (
        lambda t: [t],
        lambda t: {"a": None, "tree": [t, 1]},
        lambda t: [{"trees": [t, t]}, "x"],
    ):
        assert cli._dumps(wrap(tree)) == json.dumps(wrap(doc), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Command-line pipeline
# ---------------------------------------------------------------------------


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc)
    return str(path)


def test_cmd_decompose_check_sl3(tmp_path, capsys):
    path = write_doc(tmp_path, "sl3.json", SL3_DOC)
    assert main(["decompose", "--check", path]) == 0
    assert capsys.readouterr().out.strip() == "PB_2 x PB_2"


def test_cmd_decompose_oracle_equals_tree(tmp_path, capsys):
    path = write_doc(tmp_path, "qi.json", QI_DOC)
    assert main(["decompose", path]) == 0
    tree_out = capsys.readouterr().out
    assert main(["decompose", "--oracle", path]) == 0
    assert capsys.readouterr().out == tree_out == "PB_2 x PB_3^2 x PB_4\n"


def test_cmd_decompose_g2(tmp_path, capsys):
    path = write_doc(tmp_path, "g2.json", G2_DOC)
    assert main(["decompose", "--check", path]) == 0
    assert capsys.readouterr().out.strip() == "PBraid(G2)"


def test_cmd_decompose_json_payload(tmp_path, capsys):
    path = write_doc(tmp_path, "sl3.json", SL3_DOC)
    assert main(["decompose", "--json", "--check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decomposition"] == "PB_2 x PB_2"
    assert payload["factors"] == ["PB_2", "PB_2"]
    assert payload["method"] == "check"
    assert len(payload["trees"]) == 1 and len(payload["trees"][0]["nodes"]) == 6


@pytest.mark.parametrize("flag", ["--check", "--oracle", None])
def test_cmd_decompose_json_builds_each_tree_once(flag, monkeypatch, capsys):
    built = []
    fission_tree = fission.fission_tree
    monkeypatch.setattr(
        fission, "fission_tree", lambda q: built.append(q) or fission_tree(q)
    )
    doc = json.dumps({"points": [json.loads(d) for d in (SL3_DOC, QI_DOC, G2_DOC)]})
    assert main(["decompose", "--json", *([flag] if flag else []), doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [t is None for t in payload["trees"]] == [False, False, True]
    assert len(built) == 2 and len({id(q) for q in built}) == 2


def test_cmd_decompose_json_checks_each_tree_once(monkeypatch, capsys):
    checked = []
    check = fission.check_tree_invariants
    monkeypatch.setattr(
        fission, "check_tree_invariants", lambda tree: checked.append(tree) or check(tree)
    )
    doc = json.dumps({"points": [json.loads(d) for d in (SL3_DOC, QI_DOC, G2_DOC)]})
    assert main(["decompose", "--json", doc]) == 0
    assert [t is None for t in json.loads(capsys.readouterr().out)["trees"]] == [
        False, False, True
    ]
    assert [len(t.nodes) for t in checked] == [6, 22]


def _corpus_single_point_trees():
    corpus = Path(__file__).with_name("golden") / "cli_corpus.json"
    docs = [entry["input"] for entry in json.loads(corpus.read_text())]
    return [d for d in docs if json.loads(d).get("lie_type") not in (None, "G2")]


def test_cmd_decompose_json_tree_is_the_tree_document(capsys):
    docs = _corpus_single_point_trees()
    assert len(docs) > 100
    for doc in docs:
        assert main(["decompose", "--json", doc]) == 0
        (tree,) = json.loads(capsys.readouterr().out)["trees"]
        assert main(["tree", "--format", "json", doc]) == 0
        assert tree == json.loads(capsys.readouterr().out), doc


def _break_tree_path(monkeypatch):
    wrong = GroupDecomposition.from_factors([Factor("PBBC", 1)])
    monkeypatch.setattr(fission, "decomposition_from_tree", lambda tree: wrong)


def test_cmd_decompose_check_failure_exit_code(monkeypatch, capsys):
    _break_tree_path(monkeypatch)
    assert main(["decompose", "--check", SL3_DOC]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: tree path gave [PB_BC_1] but arrangement oracle gave [PB_2 x PB_2]\n"
    )


def test_cmd_decompose_check_failure_json(monkeypatch, capsys):
    _break_tree_path(monkeypatch)
    assert main(["decompose", "--check", "--json", SL3_DOC]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "check-failure"
    assert "PB_BC_1" in payload["error"] and "PB_2 x PB_2" in payload["error"]


def test_cmd_decompose_oracle_and_check_are_exclusive(capsys):
    # Both flags used to run the oracle alone and exit 0, skipping the check.
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--oracle", "--check", SL3_DOC])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cmd_unreadable_input_exits_2(tmp_path, capsys):
    assert main(["decompose", str(tmp_path)]) == 2
    assert main(["decompose", "x" * 300]) == 2
    err = capsys.readouterr().err
    assert err.count("error: cannot read input file") == 2


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "source, expected",
    [("x" * 5000, "cannot read input file 'xxx"), ("no/such/dir/" * 100, "no such input file: 'no/")],
    ids=["unreadable", "missing"],
)
def test_cmd_input_path_echo_is_capped(source, expected, as_json, capsys):
    assert main(["decompose", *(["--json"] if as_json else []), source]) == 2
    captured = capsys.readouterr()
    message = json.loads(captured.out)["error"] if as_json else captured.err
    assert len(message) < 150
    assert expected in message and "..." in message


def test_cmd_deeply_nested_json_exits_2(capsys):
    assert main(["decompose", "[" * 100_000]) == 2
    assert "error: JSON nested too deeply" in capsys.readouterr().err


def assert_input_error_exits_2(source, expected, capsys):
    with pytest.raises(InputError, match=re.escape(expected)):
        parse_blocks(source)
    for as_json in (False, True):
        assert main(["decompose", *(["--json"] if as_json else []), source]) == 2
        captured = capsys.readouterr()
        message = json.loads(captured.out)["error"] if as_json else captured.err
        assert expected in message
        assert "set_int_max_str_digits" not in captured.out + captured.err


def test_cmd_input_file_not_utf8_exits_2(tmp_path, monkeypatch, capsys):
    # The file is read as UTF-8, whatever the locale's encoding.
    monkeypatch.chdir(tmp_path)
    Path("latin.json").write_bytes(SL3_DOC[:52].encode() + b"\xff" + SL3_DOC[52:].encode())
    expected = "cannot read input file 'latin.json': not UTF-8 at byte 52"
    assert_input_error_exits_2("latin.json", expected, capsys)
    Path("half.json").write_text(SL3_DOC.replace('"2"', '"\u00bd"'), encoding="utf-8")
    with pytest.raises(InputError, match="invalid rational '\u00bd'"):
        parse_blocks("half.json")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter reads ints of any length",
)
@pytest.mark.parametrize("as_string", [False, True], ids=["number", "string"])
def test_cmd_entry_past_the_digit_limit_exits_2(as_string, tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    entry = f'"{digits}"' if as_string else digits
    doc = '{"lie_type": "A", "rank": 2, "coefficients": [[' + entry + ", -1, 0]]}"
    where = "input.coefficients[1]: entry '1111" if as_string else "a JSON number"
    expected = f"exceeds the interpreter's limit of {limit} digits"
    path = tmp_path / "long.json"
    path.write_text(doc)
    for source in (doc, str(path)):
        assert_input_error_exits_2(source, expected, capsys)
        with pytest.raises(InputError, match=re.escape(where)):
            parse_blocks(source)


def test_cmd_decompose_exotic_annotation(tmp_path, capsys):
    doc = json.dumps(
        {"lie_type": "D", "rank": 3, "p": 2,
         "coefficients": [["1", "2", "4"], ["1", "1", "0"]]}
    )
    path = write_doc(tmp_path, "d3.json", doc)
    assert main(["decompose", "--check", path]) == 0
    assert capsys.readouterr().out.strip() == "PB_2 x PB_BCD(1,1) [~ PB_3]"


def test_cmd_decompose_many_point_product(tmp_path, capsys):
    doc = json.dumps({"points": [json.loads(SL3_DOC), json.loads(SL3_DOC)]})
    path = write_doc(tmp_path, "two.json", doc)
    assert main(["decompose", "--check", path]) == 0
    assert capsys.readouterr().out.strip() == "PB_2 x PB_2 x PB_2 x PB_2"


def test_cmd_tree_dot(tmp_path, capsys):
    path = write_doc(tmp_path, "sl3.json", SL3_DOC)
    assert main(["tree", "--format", "dot", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph fission_tree")
    assert out.count(" -> ") == 5


def test_cmd_cable_fig3(tmp_path, capsys):
    path = write_doc(tmp_path, "sl3.json", SL3_DOC)
    assert main(["cable", path]) == 0
    out = capsys.readouterr().out
    assert "strands 3" in out
    assert "s1 s1" in out


def test_cmd_tree_rejects_g2(tmp_path, capsys):
    path = write_doc(tmp_path, "g2.json", G2_DOC)
    assert main(["tree", path]) == 2
    assert "no fission tree for G2" in capsys.readouterr().err


def test_cmd_cable_rejects_family_b(tmp_path, capsys):
    doc = json.dumps({"lie_type": "B", "rank": 2, "coefficients": [["1", "2"]]})
    path = write_doc(tmp_path, "b2.json", doc)
    assert main(["cable", path]) == 2
    assert "family A" in capsys.readouterr().err


def test_cmd_parse_error_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", "{not json")
    assert main(["decompose", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_cmd_parse_error_json_envelope(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", "{not json")
    assert main(["decompose", "--json", path]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "input-error"


def test_cmd_trace_warning_on_stderr(tmp_path, capsys):
    doc = json.dumps(
        {"lie_type": "A", "rank": 2, "coefficients": [["3", "4", "0"], ["0", "0", "1"]]}
    )
    path = write_doc(tmp_path, "warn.json", doc)
    assert main(["decompose", path]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert captured.out.strip() == "PB_2 x PB_2"


def _corpus_trace_rows():
    """The A/G2 coefficient rows of the golden corpus: as stored (rational
    strings), as ints where every entry is an integer, and each shifted off
    its trace by 1 (and the strings by 1/7 too)."""
    corpus = Path(__file__).with_name("golden") / "cli_corpus.json"
    for entry in json.loads(corpus.read_text()):
        doc = json.loads(entry["input"])
        for block in doc.get("points", [doc]):
            if block["lie_type"] not in ("A", "G2"):
                continue
            rows = block["coefficients"]
            yield block, rows
            for shift in (1, Fraction(1, 7)):
                yield block, [[str(Fraction(x) + shift * (c == 0)) for c, x in enumerate(r)] for r in rows]
            if all(Fraction(x).denominator == 1 for r in rows for x in r):
                ints = [[int(x) for x in r] for r in rows]
                yield block, ints
                yield block, [[x + (c == 0) for c, x in enumerate(r)] for r in ints]


def test_parse_trace_warning_fires_where_the_fraction_sum_is_nonzero():
    seen = set()
    for block, rows in _corpus_trace_rows():
        _, notes = cli._parse(json.dumps({**block, "coefficients": rows}), cli.MAX_RANK)
        expected = [
            f"input.coefficients[{i}]: nonzero trace projected out"
            for i, row in enumerate(rows, start=1)
            if sum(Fraction(x) for x in row) != 0
        ]
        assert notes == expected, rows
        for row in rows:
            kind = "int" if type(row[0]) is int else ("ratio" if any("/" in x for x in row) else "str")
            seen.add((kind, sum(Fraction(x) for x in row) != 0))
    assert seen == {(k, fires) for k in ("int", "ratio", "str") for fires in (False, True)}


@pytest.mark.parametrize("field", ["rank", "p"])
def test_cmd_rejects_bool_rank_and_p(field, capsys):
    doc = {"lie_type": "A", "rank": 1, "p": 1, "coefficients": [[1, -1]]}
    doc[field] = True
    assert main(["decompose", json.dumps(doc)]) == 2
    captured = capsys.readouterr()
    assert f"input.{field}:" in captured.err and captured.out == ""


def test_cmd_inline_non_object_document(capsys):
    assert main(["decompose", json.dumps([json.loads(SL3_DOC)])]) == 2
    err = capsys.readouterr().err
    assert "expected a JSON object" in err and "no such input file" not in err


@pytest.mark.parametrize(
    "doc, where, key",
    [
        ({"lie_type": "A", "rank": 2, "coefficients": [[1, -1, 0]], "bogus": 7},
         "input", "bogus"),
        ({"points": [json.loads(SL3_DOC)], "lie_type": "A"}, "input", "lie_type"),
        ({"points": [dict(json.loads(SL3_DOC), P=2)]}, "points[0]", "P"),
    ],
    ids=["block", "points-document", "block-in-points"],
)
def test_cmd_rejects_unknown_keys(doc, where, key, capsys):
    assert main(["decompose", json.dumps(doc)]) == 2
    captured = capsys.readouterr()
    assert f"error: {where}: unknown key {key!r}" in captured.err
    assert captured.out == ""


def _a_type_doc(rank, p):
    coeffs = [[rank - 2 * i for i in range(rank + 1)]]  # regular, trace-free
    return json.dumps({"lie_type": "A", "rank": rank, "p": p, "coefficients": coeffs})


@pytest.mark.parametrize(
    "field, rank, p",
    [("rank", cli.MAX_RANK, 1), ("p", 2, cli.MAX_P)],
)
def test_cmd_input_bounds(field, rank, p, capsys):
    # --check enumerates roots, so it keeps the smaller rank bound.
    assert main(["decompose", "--check", _a_type_doc(rank, p)]) == 0
    assert capsys.readouterr().out == f"PB_{rank + 1}\n"
    over = {"rank": (rank + 1, p), "p": (rank, p + 1)}[field]
    assert main(["decompose", "--check", _a_type_doc(*over)]) == 2
    captured = capsys.readouterr()
    bound = cli.MAX_RANK if field == "rank" else cli.MAX_P
    assert f"input.{field}: {bound + 1} exceeds the bound {bound}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["decompose"], cli.MAX_TREE_RANK),
        (["decompose", "--json"], cli.MAX_TREE_RANK),
        (["tree"], cli.MAX_TREE_RANK),
        (["decompose", "--check"], cli.MAX_RANK),
        (["decompose", "--oracle"], cli.MAX_RANK),
        (["cable"], cli.MAX_RANK),
    ],
)
def test_cmd_rank_bound_per_route(argv, bound, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("roots enumerated")

    # The bound is checked before any root would be built.
    monkeypatch.setattr(rootsys, "_enumerate_roots", refuse)
    assert main([*argv, _a_type_doc(bound + 1, 1)]) == 2
    captured = capsys.readouterr()
    expected = f"input.rank: {bound + 1} exceeds the bound {bound}"
    if "--json" in argv:
        assert json.loads(captured.out)["error"] == expected
    else:
        assert captured.err == f"error: {expected}\n" and captured.out == ""


@pytest.mark.parametrize("command", ["decompose", "tree"])
def test_cmd_tree_routes_take_rank_up_to_max_tree_rank(command, capsys):
    assert main([command, _a_type_doc(cli.MAX_TREE_RANK, 1)]) == 0
    out = capsys.readouterr().out
    if command == "decompose":
        assert out == f"PB_{cli.MAX_TREE_RANK + 1}\n"
    else:
        assert len(json.loads(out)["leaf_order"]) == cli.MAX_TREE_RANK + 1


COMMAND_NAMES = ("decompose", "tree", "cable", "stokes-verify", "selftest")


def test_main_builds_the_parser_once_and_keeps_no_flags(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    methods = []
    decompose = fission.decompose

    def spy(q, method="tree", tree=None):
        methods.append(method)
        return decompose(q, method, tree)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(fission, "decompose", spy)
    assert main(["decompose", "--check", "--json", SL3_DOC]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "check"
    assert main(["decompose", SL3_DOC]) == 0
    assert capsys.readouterr().out == "PB_2 x PB_2\n"
    assert methods == ["check", "tree"]
    # A well-formed call builds no parser; help builds the whole CLI's
    # parser and its five subparsers, once.
    assert built == []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["-h"])
        assert "decompose" in capsys.readouterr().out
    assert built == ["wildbraid", *(f"wildbraid {command}" for command in COMMAND_NAMES)]


@pytest.mark.parametrize(
    "argv",
    [
        # help
        [],
        ["-h"],
        ["-h", "decompose"],
        *([command, "-h"] for command in COMMAND_NAMES),
        # usage errors
        ["bogus"],
        ["decompose"],
        ["decompose", "--oracle", "--check", "x"],
        ["decompose", "x", "--bogus"],
        ["decompose", "x", "y"],
        ["tree", "x", "--format", "svg"],
        ["stokes-verify", "--count", "abc"],
        # argv that parse; "--js" is a prefix of "--json"
        ["decompose", "--", SL3_DOC],
        ["decompose", "--js", SL3_DOC],
    ],
    ids=lambda argv: " ".join(a if len(a) < 20 else "<doc>" for a in argv) or "()",
)
def test_main_parses_as_the_whole_cli_parser(argv, monkeypatch, capsys):
    # main gives the exit code, stdout, stderr and namespace of the whole
    # CLI's parse_args followed by the handler it names, whichever parser it
    # runs itself.  The help text is not pinned: argparse's layout varies
    # between Python versions.
    namespaces = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, args=None, namespace=None):
        # The outermost call returns last, so it is recorded last.
        result = parse_known_args(self, args, namespace)
        namespaces.append(result[0])
        return result

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    try:
        code = main(list(argv))
        parsed = namespaces[-1]
    except SystemExit as exc:
        code, parsed = exc.code, None
    output = capsys.readouterr()
    try:
        expected = cli.build_parser().parse_args(list(argv))
        expected_code = expected.fn(expected)
    except SystemExit as exc:
        expected, expected_code = None, exc.code
    assert (code, output) == (expected_code, capsys.readouterr())
    assert parsed == expected
    assert (expected is not None) == (argv[-1:] == [SL3_DOC])


# Every command, each flag exact and as a prefix, a flag with "=value",
# "--", help, a negative number, values valid and not, an empty string, "-"
# and a spec.
ARGV_TOKENS = (
    *COMMAND_NAMES,
    "--oracle", "--or", "--check", "--ch", "--json", "--js", "--format", "--fo", "--format=dot",
    "--count", "--co", "--seed", "--se", "--full", "--fu",
    "--", "-h", "-3", "abc", "svg", "dot", "7", "", "-", SL3_DOC,
)
# Each command's pieces of well-formed command lines, and a few near misses.
ARGV_PIECES = {
    "decompose": (["--oracle"], ["--check"], ["--json"], [SL3_DOC], ["abc"]),
    "tree": (["--format", "dot"], ["--format", "svg"], [SL3_DOC]),
    "cable": (["--json"], [SL3_DOC]),
    "stokes-verify": (["--count", "7"], ["--count", "-3"], ["--count", "abc"], ["--seed", "7"],
                      ["--json"]),
    "selftest": (["--full"], ["abc"]),
}


def _outcome(argv):
    """main's exit code, stdout and stderr on argv, SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=5)
    | st.tuples(st.sampled_from(COMMAND_NAMES), st.lists(st.sampled_from(ARGV_TOKENS), max_size=4))
    .map(lambda t: [t[0], *t[1]])
    | st.sampled_from(COMMAND_NAMES).flatmap(
        lambda c: st.lists(st.sampled_from(ARGV_PIECES[c]), max_size=3)
        .map(lambda pieces: [c, *(token for piece in pieces for token in piece)])
    )
)
@example(["decompose", SL3_DOC])
@example(["decompose", "--json", "--check", SL3_DOC])
@example(["decompose", "--oracle", SL3_DOC, "--json"])
@example(["decompose", "--oracle", "--check", SL3_DOC])
@example(["decompose", SL3_DOC, SL3_DOC])
@example(["decompose", "--json", "--json", SL3_DOC])
@example(["tree", "--format", "dot", SL3_DOC])
@example(["tree", SL3_DOC, "--format", "svg"])
@example(["cable", "--json", SL3_DOC])
@example(["stokes-verify", "--count", "7", "--seed", "7", "--json"])
@example(["stokes-verify", "--count", "-3"])
@example(["stokes-verify", "--count", "7", "--count", "7"])
@example(["selftest", "--full"])
def test_main_agrees_with_argparse_on_any_argv(argv):
    # main gives what the whole CLI's parse_args followed by its handler
    # gives; whenever main reads argv itself, it reads argparse's namespace.
    def fake_run_all(fast):
        return [("fast" if fast else "full", True, "")]

    with mock.patch.object(selfcheck, "run_all", fake_run_all):
        got = _outcome(argv)
        with mock.patch.object(cli, "_read_argv", lambda argv: None):
            expected = _outcome(argv)
    assert got == expected
    read = cli._read_argv(list(argv))
    if read is not None:
        assert vars(read) == vars(cli.build_parser().parse_args(list(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", SL3_DOC],
        ["decompose", "--check", "--json", SL3_DOC],
        ["tree", "--format", "dot", SL3_DOC],
        ["cable", SL3_DOC],
        ["stokes-verify", "--count", "2", "--seed", "3"],
        ["selftest"],
    ],
    ids=lambda argv: " ".join(a if len(a) < 20 else "<doc>" for a in argv),
)
def test_a_well_formed_call_loads_no_argparse(argv):
    # A fresh process: importing the CLI and running a well-formed call
    # loads neither argparse nor the gettext and locale it brings; help
    # still comes from argparse.
    script = (
        "import json, sys\n"
        "from wildbraid import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))]))\n"
        "cli.main(['-h'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    _, report, usage = result.stdout.partition("\n[0, []]\n")
    assert report and usage.startswith("usage: wildbraid [-h]"), result.stdout


CABLE_A32_DOC = json.dumps(
    {"lie_type": "A", "rank": 32, "coefficients": [[c - 16 for c in range(33)]]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", SL3_DOC],
        ["cable", "--json", CABLE_A32_DOC],
        ["decompose", "--json", "{"],
        ["-h"],
        ["decompose", "--help"],
    ],
    ids=["short-output", "long-output", "json-error", "help", "command-help"],
)
def test_main_exits_141_quietly_when_stdout_is_closed(argv):
    # The reader is gone before the first byte.  Short output and the JSON
    # error envelope meet the closed pipe at main's flush, long output inside
    # the handler's print, and help at the flush before argparse's exit
    # leaves main; either way the exit is a shell's SIGPIPE status with
    # nothing on stderr.
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "wildbraid.cli", *argv], stdout=write, stderr=subprocess.PIPE,
            env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr.decode()) == (141, "")


def _long_entry_doc():
    return {"lie_type": "A", "rank": 2, "coefficients": [[1, -1, "9" * 5000]]}


def _long_key_doc():
    doc = {"lie_type": "A", "rank": 2, "coefficients": [[1, -1, 0]]}
    doc["k" * 3000] = 1
    return doc


@pytest.mark.parametrize("make_doc", [_long_entry_doc, _long_key_doc], ids=["entry", "key"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cmd_error_echo_is_capped(make_doc, as_json, capsys):
    argv = ["decompose", *(["--json"] if as_json else []), json.dumps(make_doc())]
    assert main(argv) == 2
    captured = capsys.readouterr()
    message = json.loads(captured.out)["error"] if as_json else captured.err
    assert len(message) < 150
    assert "..." in message
    if make_doc is _long_key_doc:
        assert "unknown key 'kkk" in message
    else:  # 5,000 digits: past the interpreter's limit, which the message names
        assert "entry '999" in message and "exceeds the interpreter's limit of" in message


@pytest.mark.parametrize("entry", ["1e1000000", "1E2", "2.5e-1"])
def test_cmd_rejects_exponent_notation(entry, capsys):
    doc = {"lie_type": "A", "rank": 1, "coefficients": [[entry, "0"]]}
    assert main(["decompose", json.dumps(doc)]) == 2
    assert "exponent notation" in capsys.readouterr().err
    doc["coefficients"] = [["1.5", "-3/2"]]
    assert main(["decompose", json.dumps(doc)]) == 0


@pytest.mark.parametrize("entry", ["one", "1e", "e5", "1e5x", "1/2e3", "1e1_0"])
def test_cmd_names_other_e_strings_invalid_rationals(entry, capsys):
    doc = {"lie_type": "A", "rank": 1, "coefficients": [[entry, "0"]]}
    assert main(["decompose", json.dumps(doc)]) == 2
    err = capsys.readouterr().err
    assert "invalid rational" in err and "exponent notation" not in err


def ref_parse_rational(value, where):
    """cli._parse_rational as it was before it ran the exponent pattern only
    on texts with an "e" or "E": the reference for the messages and values."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{where}: entry {cli._echo(value)} is not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)[eE][+-]?[0-9]+", text):
            raise InputError(f"{where}: exponent notation {cli._echo(value)} is not accepted")
        try:
            if text.isascii() and "_" not in text and "e" not in text.lower():
                return Fraction(text)
        except (ValueError, ZeroDivisionError):
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and re.search(f"[0-9]{{{limit + 1}}}", text):
                raise InputError(f"{where}: entry {cli._echo(value)} exceeds the interpreter's"
                                 f" limit of {limit} digits")
        raise InputError(f"{where}: invalid rational {cli._echo(value)}")
    raise InputError(f"{where}: entry {cli._echo(value)} is not an exact rational")


def _rational_or_message(parse, value):
    try:
        return parse(value, "input.coefficients[1]")
    except InputError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.text(alphabet="0123456789eE+-./_ \u0661xÉ", max_size=12)
    | st.integers()
    | st.floats()
    | st.booleans()
    | st.none()
)
@example("1e5")
@example(" .5E-3 ")
@example("1.5")
@example("9" * 5000)
@example("9" * 5000 + "e1")
@example("9" * 5000 + "e")
@example(("9" * 4300 + "x") * 2 + "9" * 4301)
def test_parse_rational_matches_the_reference(value):
    assert _rational_or_message(cli._parse_rational, value) == _rational_or_message(
        ref_parse_rational, value
    )


def test_cmd_stokes_verify_rejects_negative_count(capsys):
    assert main(["stokes-verify", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert "--count" in captured.err and captured.out == ""


def test_cmd_stokes_verify(capsys):
    assert main(["stokes-verify", "--count", "5", "--seed", "3"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_cmd_stokes_verify_json(capsys):
    assert main(["stokes-verify", "--count", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


WARNED_DOC = json.dumps(
    {"points": [json.loads(SL3_DOC), json.loads(G2_DOC), {**json.loads(SL3_DOC), "coefficients": [[1, 2, 3]]}]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--json", SL3_DOC],
        ["decompose", "--json", "--oracle", QI_DOC],
        ["decompose", "--json", "--check", WARNED_DOC],
        ["tree", "--format", "json", QIII_DOC],
        ["cable", "--json", QI_DOC],
        ["stokes-verify", "--json", "--count", "3"],
    ],
)
def test_cmd_json_output_is_json_dumps_indented(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_cmd_stokes_verify_json_failures_are_json_dumps_indented(monkeypatch, capsys):
    failing = stokes.VerificationReport((("braid", False, "x"), ("order", True, ""), ("pure", False, "")))
    monkeypatch.setattr(stokes, "verify_properties", lambda t, rng: failing)
    assert main(["stokes-verify", "--json", "--count", "2"]) == 1
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["failures"] == [{"tuple": i, "checks": ["braid", "pure"]} for i in (0, 1)]


def test_cmd_selftest_fast(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9 and "FAIL" not in out


# ---------------------------------------------------------------------------
# Every document ends in exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

COMMANDS = (
    ["decompose"],
    ["decompose", "--check"],
    ["decompose", "--oracle"],
    ["decompose", "--json"],
    ["tree"],
    ["tree", "--format", "dot"],
    ["cable"],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-40, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "-3", "1e2", "1/0", "0.5", "A", "G2"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(cli.BLOCK_KEYS + ("points", "x")), kids, max_size=4),
    max_leaves=10,
)


@st.composite
def valid_blocks(draw):
    family = draw(st.sampled_from(["A", "B", "C", "D", "G2"]))
    rank = 2 if family == "G2" else draw(st.integers(2 if family == "D" else 1, 6))
    dim = {"A": rank + 1, "G2": 3}.get(family, rank)
    p = draw(st.integers(1, 4))
    entry = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "1.5"])
    row = st.lists(entry, min_size=dim, max_size=dim)
    coefficients = draw(st.lists(row, min_size=1, max_size=p))
    return {"lie_type": family, "rank": rank, "p": p, "coefficients": coefficients}


@st.composite
def mutated_blocks(draw):
    block = draw(valid_blocks())
    key = draw(st.sampled_from(cli.BLOCK_KEYS))
    how = draw(st.sampled_from(["keep", "drop", "replace", "extra", "points", "row"]))
    if how == "drop":
        block.pop(key)
    elif how == "replace":
        block[key] = draw(json_values)
    elif how == "extra":
        block[draw(st.text(min_size=1, max_size=4))] = draw(json_values)
    elif how == "points":
        block = {"points": [block, draw(valid_blocks() | json_values)]}
    elif how == "row":
        block["coefficients"][0].append(draw(json_values))
    return block


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMMANDS), mutated_blocks() | json_values)
@example(["decompose"], "x" * 300)
def test_cli_exit_codes_on_arbitrary_documents(command, doc):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command + [json.dumps(doc)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
