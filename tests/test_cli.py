import copy
import functools
import hashlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twistalg
from twistalg import standard_contexts
from twistalg import algebra, cli, reconstruction, suites
from twistalg.cli import SUITE_NAMES, main
from twistalg.errors import ConsistencyError, InputError, NotCartanError
from twistalg.fileio import (
    context_to_dict,
    dumps,
    load_basis,
    load_element,
    load_groupoid_file,
    read_input,
)
from twistalg.groupoid import group

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv):
    return main([str(a) for a in argv])


def test_validate_fixture_ok(capsys):
    assert run("validate", FIXDIR / "r2.json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] and doc["groupoid"]["ok"] and doc["cocycle"]["ok"]


def test_validate_all_fixture_files():
    for path in sorted(FIXDIR.glob("*.json")):
        if path.name.startswith("basis"):
            continue
        assert run("validate", path) == 0, path


def test_validate_broken_cocycle_names_witness(tmp_path, capsys):
    doc = json.loads((FIXDIR / "v4_pauli.json").read_text())
    doc["cocycle"] = {"01|10": {"turns": [1, 2]}}  # breaks the 2-cocycle identity
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("validate", bad) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["cocycle"]["ok"]
    assert out["cocycle"]["violations"][0]["witness"]


BAD_UNITS = {"unit-not-an-element": (["0", "x"], "units-subset", ["x"]),
             "unit-repeated": (["0", "0"], "distinct-units", ["0"])}


@pytest.mark.parametrize("case", BAD_UNITS)
def test_validate_names_the_bad_unit(case, tmp_path, capsys):
    units, axiom, witness = BAD_UNITS[case]
    assert run("validate", _with_table(tmp_path, "units", units)) == 1
    violations = json.loads(capsys.readouterr().out)["groupoid"]["violations"]
    assert [(v["axiom"], v["witness"]) for v in violations] == [(axiom, witness)]


def test_validate_broken_composition(tmp_path, capsys):
    doc = json.loads((FIXDIR / "r2.json").read_text())
    doc["compose"]["(1,2)|(1,2)"] = "(1,1)"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("validate", bad) == 1
    out = json.loads(capsys.readouterr().out)
    messages = [v["message"] for v in out["groupoid"]["violations"]]
    assert "non-composable pair composed" in messages


def _r2_inverse_swap() -> dict:
    """r2.json with an inverse that fixes a non-unit, so the inverse laws meet
    pairs that are not composable."""
    doc = json.loads((FIXDIR / "r2.json").read_text())
    doc["inverse"]["(1,2)"] = "(1,2)"
    return doc


def test_validate_inverse_swap_names_the_laws(tmp_path, capsys):
    assert run("validate", _write_json(tmp_path / "bad.json", _r2_inverse_swap())) == 1
    out = json.loads(capsys.readouterr().out)
    axioms = [v["axiom"] for v in out["groupoid"]["violations"]]
    assert axioms == ["inverse-swaps", "inverse-involutive", "inverse-law", "inverse-law"]


def test_validate_truncated_file(tmp_path, capsys):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"elements": ["a", ')
    assert run("validate", bad) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["kind"] == "parse" and out["error"]["line"] >= 1


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=repr)
def test_a_parse_error_is_placed_as_in_a_text_mode_read(newline, tmp_path, capsys):
    """CRLF and a bare CR each end one line, as universal newlines read them."""
    bad = tmp_path / "lines.json"
    bad.write_bytes(newline.join(["{", '"elements": ["a"],', '"units": ["a"]', '"x": 1}']).encode())
    assert run("validate", bad) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["kind"], error["line"], error["column"]) == ("parse", 4, 1)


def test_missing_file_is_input_error(capsys):
    assert run("validate", "/nonexistent/g.json") == 2


def test_reconstruct_r2(tmp_path):
    out = tmp_path / "r2_report.json"
    assert run("reconstruct", FIXDIR / "r2.json", "--out", out) == 0
    doc = json.loads(out.read_text())
    rec = doc["reconstruction"]
    assert rec["passed"] and rec["isomorphism"]["status"] == "isomorphic"
    assert rec["cocycle_residual"] < 1e-9
    assert rec["isomorphism"]["mapping"]


def test_reconstruct_with_basis_spec(tmp_path):
    out = tmp_path / "r2_basis.json"
    code = run("reconstruct", FIXDIR / "r2.json",
               "--semigroup", f"basis:{FIXDIR / 'basis_r2_offdiag.json'}", "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reconstruction"]["cartan"]["summable"] is False
    assert doc["reconstruction"]["summable_image"]["passed"]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_the_basis_file_is_an_input_of_the_report(tmp_path):
    basis = tmp_path / "basis.json"
    basis.write_bytes((FIXDIR / "basis_r2_offdiag.json").read_bytes())

    def inputs():
        out = tmp_path / "report.json"
        assert run("reconstruct", FIXDIR / "r2.json", "--semigroup", f"basis:{basis}",
                   "--out", out) == 0
        return json.loads(out.read_text())["inputs"]

    before = inputs()
    assert before == [{"name": "r2.json", "sha256": _sha256(FIXDIR / "r2.json")},
                      {"name": "basis.json", "sha256": _sha256(basis)}]
    basis.write_text(basis.read_text() + "\n")
    after = inputs()
    assert after[0] == before[0] and after[1]["sha256"] == _sha256(basis)
    assert after[1]["sha256"] != before[1]["sha256"]


def test_reconstruct_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("reconstruct", FIXDIR / "z4.json", "--out", a) == 0
    assert run("reconstruct", FIXDIR / "z4.json", "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run("reconstruct", FIXDIR / "z4.json", "--seed", 7, "--out", c) == 0
    assert a.read_bytes() != c.read_bytes()


def test_compare_flows(tmp_path):
    reports = {}
    for name in ("z4", "v4", "v4_pauli", "r2", "swap2", "r4"):
        out = tmp_path / f"{name}.json"
        assert run("reconstruct", FIXDIR / f"{name}.json", "--out", out) == 0
        reports[name] = out
    pauli = json.loads(reports["v4_pauli"].read_text())["reconstruction"]
    assert pauli["cocycle_residual"] == 0
    assert pauli["recovered_cocycle"]  # the sign entries survive the round trip
    assert run("compare", reports["z4"], reports["z4"]) == 0
    assert run("compare", reports["r2"], reports["swap2"]) == 0

    def result(a, b):
        out = tmp_path / f"cmp_{a}_{b}.json"
        assert run("compare", reports[a], reports[b], "--out", out) == 1
        return json.loads(out.read_text())["result"]

    assert result("z4", "v4")["groupoids_isomorphic"] is False
    # same groupoid but inequivalent recovered twists
    assert result("v4", "v4_pauli")["groupoids_isomorphic"] is True
    assert run("compare", reports["r4"], reports["r4"], "--iso-budget", 3) == 3


def _bare_report(path, groupoid):
    """A reconstruction report holding only what compare reads: the rebuilt
    groupoid and a trivial recovered cocycle."""
    path.write_text(json.dumps({"reconstruction": {"rebuilt_groupoid": groupoid.to_dict(),
                                                   "recovered_cocycle": {}}}))
    return path


def test_compare_follow_up_out_of_budget_exits_1(tmp_path):
    """Z4 x Z4 against the non-abelian Z4 x| Z4, in both orders: every element of
    Z4 x Z4 commutes with all 16, and some of Z4 x| Z4 do not, so the groupoids are
    not isomorphic.  compare exits 1 with that verdict at any budget, walking no
    node (the walk that settled it took 1,168 nodes, 1,456 reversed)."""
    ids = [f"{a}{b}" for a in range(4) for b in range(4)]

    def report(name, mul):
        gpd = group(name, ids, lambda x, y: "".join(map(str, mul(*map(int, x), *map(int, y)))))
        return _bare_report(tmp_path / f"{name}.json", gpd)

    a = report("Z4xZ4", lambda a, b, c, d: ((a + c) % 4, (b + d) % 4))
    b = report("Z4sdZ4", lambda a, b, c, d: ((a + (-1) ** b * c) % 4, (b + d) % 4))
    out = tmp_path / "cmp.json"
    for first, second in ((a, b), (b, a)):
        for budget in (0, 600, 1167, 1168):
            assert run("compare", first, second, "--iso-budget", budget, "--out", out) == 1
            assert json.loads(out.read_text())["result"] == {
                "status": "not_isomorphic", "mapping": None, "nodes_visited": 0,
                "groupoids_isomorphic": False}


def test_compare_malformed_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run("compare", bad, bad) == 2


def test_an_invalid_basis_gets_one_report_in_every_process(tmp_path):
    """The basis checks walk the members in file order and each member in element
    order, so the first violation does not depend on string hashing: R3's unit
    subsets with {(1,2)}, {(2,1)}, {(2,3)} and {(3,2)} lack (1,2)(2,3) = (1,3)."""
    units = ["(1,1)", "(2,2)", "(3,3)"]
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"bisections": [
        *(list(c) for k in range(4) for c in itertools.combinations(units, k)),
        ["(1,2)"], ["(2,1)"], ["(2,3)"], ["(3,2)"]]}))
    runs = [_cli_process("reconstruct", FIXDIR / "r3.json", "--semigroup", f"basis:{basis}",
                         PYTHONHASHSEED=seed) for seed in ("0", "1")]
    first, second = ((r.returncode, r.stdout, r.stderr) for r in runs)
    assert first == second and first[0] == 2
    assert json.loads(first[1])["error"]["message"] == \
        "invalid bisection basis: product of ['(1,2)'] and ['(2,3)'] missing"


def test_suite_all_on_r2(tmp_path):
    out = tmp_path / "suite.json"
    assert run("suite", FIXDIR / "r2.json", "--suite", "all", "--out", out) == 0
    doc = json.loads(out.read_text())
    assert set(doc["suites"]) == {"cartan", "relations", "states", "masa",
                                  "expectation", "norms"}
    assert doc["passed"]


def test_suite_masa_on_z4_passes_with_witness(capsys):
    assert run("suite", FIXDIR / "z4.json", "--suite", "masa") == 0
    doc = json.loads(capsys.readouterr().out)
    masa = doc["suites"]["masa"]
    assert masa["is_masa"] is False
    assert masa["contrapositive"]["commutant_witness"]


@pytest.mark.parametrize("suite", ["expectation", "norms"])
def test_every_suite_runs_alone(suite, capsys):
    assert run("suite", FIXDIR / "z2.json", "--suite", suite) == 0
    assert list(json.loads(capsys.readouterr().out)["suites"]) == [suite]


def test_help_returns_zero(capsys):
    assert run("--help") == 0
    assert run("suite", "--help") == 0
    assert "cartan|relations|states|masa|expectation|norms|all" in capsys.readouterr().out


def test_the_one_parser_answers_as_a_fresh_one(capsys):
    """main builds its parser once per process: a usage error (2), --help (0) and
    a valid validate call (0), run in that order on the one parser, give the codes
    and output that each gets from a parser of its own."""
    calls = [("validate", FIXDIR / "r2.json", "--tol", "abc"), ("--help",),
             ("validate", FIXDIR / "r2.json")]

    def answer(argv):
        code = run(*argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._parser.cache_clear()
    shared = [answer(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(answer(argv))
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert shared == fresh


def test_suite_unknown_name():
    assert run("suite", FIXDIR / "r2.json", "--suite", "bogus") == 2


def test_element_file_roundtrip(tmp_path):
    ctx = standard_contexts()["R2"]
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"coeffs": {"(1,2)": [1.5, -2.0], "(1,1)": [0.25, 0]}}))
    a = load_element(read_input(path), ctx)
    assert a.coeff("(1,2)") == 1.5 - 2j and a.coeff("(1,1)") == 0.25
    path.write_text(json.dumps({"coeffs": {"nope": [1, 0]}}))
    with pytest.raises(InputError):
        load_element(read_input(path), ctx)


def test_basis_file_validation(tmp_path):
    ctx = standard_contexts()["R2"]
    good = load_basis(read_input(FIXDIR / "basis_r2_offdiag.json"), ctx)
    assert frozenset(["(1,2)"]) in good.family
    bad = tmp_path / "basis.json"
    bad.write_text(json.dumps({"bisections": [["(1,2)"]]}))
    with pytest.raises(InputError):
        load_basis(read_input(bad), ctx)


def test_fixture_files_match_constructors():
    contexts = {name.lower(): ctx for name, ctx in standard_contexts().items()}
    files = sorted(p for p in FIXDIR.glob("*.json") if not p.name.startswith("basis"))
    assert [p.stem for p in files] == sorted(contexts)
    for path in files:
        assert json.loads(path.read_text()) == context_to_dict(contexts[path.stem]), path.name


def test_groupoid_file_roundtrip(tmp_path):
    ctx = standard_contexts()["V4_pauli"]
    path = tmp_path / "ctx.json"
    path.write_text(dumps(context_to_dict(ctx)), encoding="utf-8")
    gpd, cocycle = load_groupoid_file(read_input(path))
    assert set(gpd.elements) == set(ctx.groupoid.elements)
    assert cocycle.values == ctx.cocycle.values


def test_tolerance_must_be_positive():
    assert run("validate", FIXDIR / "r2.json", "--tol", 0) == 2


def test_integer_turns_and_a_zero_budget_are_accepted(tmp_path):
    assert run("validate", _z2_with_turns(tmp_path, [1, 2])) == 0
    assert run("reconstruct", FIXDIR / "z2.json", "--iso-budget", 0) == 3  # out of budget


# -- the exit-code contract: 0 pass, 1 fail with witness, 2 input error, 3 inconclusive --

EMPTY_GROUPOID = {"elements": [], "units": [], "source": {}, "range": {}, "inverse": {},
                  "compose": {}}


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _with_table(tmp_path, table, value):
    doc = json.loads((FIXDIR / "z2.json").read_text())
    doc[table] = value
    return _write_json(tmp_path / f"bad_{table}.json", doc)


def _cocycle_as_list(tmp_path):
    return _with_table(tmp_path, "cocycle", [["1|1", {"turns": [1, 2]}]])


def _compose_as_list(tmp_path):
    return _with_table(tmp_path, "compose", ["0|0", "0|1", "1|0", "1|1"])


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "\u00e9"}'.encode("latin-1"))
    return path


def _report(tmp_path, mutate):
    out = tmp_path / "z2_report.json"
    assert run("reconstruct", FIXDIR / "z2.json", "--out", out) == 0
    text = out.read_text()
    out.write_text(mutate(text))
    return out


def _recovered_cocycle_as_list(text):
    doc = json.loads(text)
    doc["reconstruction"]["recovered_cocycle"] = [["p1|p1", {"turns": [1, 2]}]]
    return json.dumps(doc)


def _z2_with_turns(tmp_path, turns):
    return _with_table(tmp_path, "cocycle", {"1|1": {"turns": turns}})


def _recovered_turns(turns):
    def mutate(text):
        doc = json.loads(text)
        doc["reconstruction"]["recovered_cocycle"] = {"p1|p1": {"turns": turns}}
        return json.dumps(doc)
    return mutate


def _set_p1p1(value):
    """A report mutation: the rebuilt groupoid's entry p1|p1 set to value, or dropped."""
    def mutate(text):
        doc = json.loads(text)
        compose = doc["reconstruction"]["rebuilt_groupoid"]["compose"]
        del compose["p1|p1"]
        if value is not None:
            compose["p1|p1"] = value
        return json.dumps(doc)
    return mutate


def _compare_with_good(tmp_path, mutate):
    good = _report(tmp_path, lambda text: text).rename(tmp_path / "good.json")
    return ["compare", good, _report(tmp_path, mutate)]


def _basis_with(tmp_path, element):
    path = _write_json(tmp_path / "basis.json", {"bisections": [[element]]})
    return ["--semigroup", f"basis:{path}"]


# case -> (argv for a tmp_path, error kind in the report, or None for no report)
CONTRACT_CASES = {
    "validate-cocycle-list": (lambda t: ["validate", _cocycle_as_list(t)], "input"),
    "reconstruct-cocycle-list": (lambda t: ["reconstruct", _cocycle_as_list(t)], "input"),
    "validate-compose-list": (lambda t: ["validate", _compose_as_list(t)], "input"),
    "reconstruct-compose-list": (lambda t: ["reconstruct", _compose_as_list(t)], "input"),
    "compare-recovered-cocycle-list": (
        lambda t: ["compare", *[_report(t, _recovered_cocycle_as_list)] * 2], "input"),
    "compare-truncated-report": (
        lambda t: ["compare", *[_report(t, lambda text: text[:200])] * 2], "parse"),
    "compare-compose-entry-missing": (lambda t: _compare_with_good(t, _set_p1p1(None)), "input"),
    "compare-compose-unknown-id": (lambda t: _compare_with_good(t, _set_p1p1("p9")), "input"),
    "reconstruct-basis-list-id": (
        lambda t: ["reconstruct", FIXDIR / "r2.json", *_basis_with(t, ["(1,2)"])], "input"),
    "suite-basis-object-id": (
        lambda t: ["suite", FIXDIR / "r2.json", "--suite", "cartan", *_basis_with(t, {"a": 1})],
        "input"),
    "reconstruct-inverse-swap": (
        lambda t: ["reconstruct", _write_json(t / "swap.json", _r2_inverse_swap())], "input"),
    "reconstruct-empty-groupoid": (
        lambda t: ["reconstruct", _write_json(t / "empty.json", EMPTY_GROUPOID)], "input"),
    "suite-empty-groupoid": (
        lambda t: ["suite", _write_json(t / "empty.json", EMPTY_GROUPOID)], "input"),
    "validate-not-utf8": (lambda t: ["validate", _not_utf8(t)], "input"),
    "validate-directory": (lambda t: ["validate", t], None),
    # At a tolerance of 1 or more every delta_g counts as zero: refused with a report.
    "z2-tol-3": (lambda t: ["reconstruct", FIXDIR / "z2.json", "--tol", 3], "input"),
    "tol-nan": (lambda t: ["validate", FIXDIR / "r2.json", "--tol", "nan"], None),
    "tol-inf": (lambda t: ["validate", FIXDIR / "r2.json", "--tol", "inf"], None),
    "tol-not-a-number": (lambda t: ["validate", FIXDIR / "r2.json", "--tol", "abc"], None),
    "unknown-command": (lambda t: ["bogus", FIXDIR / "r2.json"], None),
    "reconstruct-iso-budget-negative": (
        lambda t: ["reconstruct", FIXDIR / "z4.json", "--iso-budget", -3], None),
    "compare-iso-budget-negative": (
        lambda t: ["compare", *[_report(t, lambda text: text)] * 2, "--iso-budget", -1], None),
}
# Each number of "turns" must be an integer: [1, 2] is read as 1/2 turn, these are refused.
_BAD_TURNS = {"float-p": [1.5, 2], "float-q": [1, 2.9], "strings": ["1", "2"], "bool": [True, 2]}
for _label, _turns in _BAD_TURNS.items():
    CONTRACT_CASES.update({
        f"validate-turns-{_label}": (lambda t, x=_turns: ["validate", _z2_with_turns(t, x)], "input"),
        f"reconstruct-turns-{_label}": (
            lambda t, x=_turns: ["reconstruct", _z2_with_turns(t, x)], "input"),
        f"compare-turns-{_label}": (
            lambda t, x=_turns: ["compare", *[_report(t, _recovered_turns(x))] * 2], "input"),
    })


# 1,000 nested arrays in 2 KB: past the parser's recursion limit, for every reader.
DEEP = "[" * 1000 + "]" * 1000


def _deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    return path


def _report_field(key, value):
    """A report mutation: the reconstruction's field key set to value."""
    def mutate(text):
        doc = json.loads(text)
        doc["reconstruction"][key] = value
        return json.dumps(doc)
    return mutate


CONTRACT_CASES.update({
    "validate-deep": (lambda t: ["validate", _deep(t)], "input"),
    "reconstruct-deep": (lambda t: ["reconstruct", _deep(t)], "input"),
    "suite-deep": (lambda t: ["suite", _deep(t)], "input"),
    "reconstruct-basis-deep": (
        lambda t: ["reconstruct", FIXDIR / "r2.json", "--semigroup", f"basis:{_deep(t)}"], "input"),
    "compare-deep": (lambda t: _compare_with_good(t, lambda text: DEEP), "input"),
    # A field of the wrong JSON type is refused, not coerced.
    "validate-elements-string": (lambda t: ["validate", _with_table(t, "elements", "01")], "input"),
    "validate-source-pairs": (
        lambda t: ["validate", _with_table(t, "source", [["0", "0"], ["1", "0"]])], "input"),
    "validate-cocycle-empty-list": (lambda t: ["validate", _with_table(t, "cocycle", [])], "input"),
    "reconstruct-basis-member-string": (
        lambda t: ["reconstruct", FIXDIR / "r2.json", "--semigroup",
                   f"basis:{_write_json(t / 'basis.json', {'bisections': ['(1,2)']})}"], "input"),
    "compare-recovered-cocycle-null": (
        lambda t: _compare_with_good(t, _report_field("recovered_cocycle", None)), "input"),
    "compare-rebuilt-groupoid-list": (
        lambda t: _compare_with_good(t, _report_field("rebuilt_groupoid", [])), "input"),
    "compare-top-level-list": (lambda t: _compare_with_good(t, lambda text: "[]"), "input"),
})


def _z2_integer_ids():
    """fixtures/z2.json with its ids 0 and 1 as JSON numbers in every list and table value."""
    doc = json.loads((FIXDIR / "z2.json").read_text())
    doc.update(elements=[0, 1], units=[0])
    for table in ("source", "range", "inverse", "compose"):
        doc[table] = {k: int(v) for k, v in doc[table].items()}
    return doc


def _rebuilt_integer_id(text):
    """A report mutation: the rebuilt groupoid's entry p1|p1 is p0, written as the number 0,
    with every id p0 renamed 0 so that str() of the number would name an element."""
    doc = json.loads(text.replace('"p0"', '"0"').replace('"p0|', '"0|').replace('|p0"', '|0"'))
    doc["reconstruction"]["rebuilt_groupoid"]["compose"]["p1|p1"] = 0
    return json.dumps(doc)


# Ids and the name are strings: a number or an object is refused, not passed through str().
CONTRACT_CASES.update({
    "reconstruct-integer-ids": (
        lambda t: ["reconstruct", _write_json(t / "int.json", _z2_integer_ids())], "input"),
    "reconstruct-name-object": (
        lambda t: ["reconstruct", _with_table(t, "name", {"a": [1]})], "input"),
    "compare-rebuilt-integer-id": (lambda t: _compare_with_good(t, _rebuilt_integer_id), "input"),
})
# A unit that is not an element, or one listed twice, fails validation.
CONTRACT_CASES.update({
    f"reconstruct-{case}": (lambda t, units=units: ["reconstruct", _with_table(t, "units", units)],
                            "input")
    for case, (units, _, _) in BAD_UNITS.items()
})


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_contract_escapes_are_input_errors(case, tmp_path, capsys):
    argv, kind = CONTRACT_CASES[case]
    argv = argv(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 2
    out = capsys.readouterr().out
    if kind is None:
        assert out == ""
    else:
        assert json.loads(out)["error"]["kind"] == kind


def _cli_process(*argv, **env):
    """The CLI run in a fresh interpreter on this source tree, with env added."""
    src = str(Path(twistalg.__file__).resolve().parent.parent)
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "twistalg.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need POSIX")
@pytest.mark.parametrize("where", ["input", "basis"])
def test_a_named_pipe_is_refused_without_blocking(where, tmp_path):
    """A path that is not a regular file ends like a missing one: one stderr line,
    no report, exit 2.  A subprocess, so that a reader that blocks fails the test."""
    fifo = tmp_path / "pipe.json"
    os.mkfifo(fifo)
    argv = (["validate", fifo] if where == "input" else
            ["reconstruct", FIXDIR / "r2.json", "--semigroup", f"basis:{fifo}"])
    done = _cli_process(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"{fifo}: not a regular file\n"


@pytest.mark.parametrize("command", [["reconstruct"], ["suite", "--suite", "cartan"]])
def test_an_empty_basis_path_is_refused_by_name(command, tmp_path, capsys):
    """`--semigroup basis:` with no path names the option, not the working directory."""
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(*command, FIXDIR / "r2.json", "--semigroup", "basis:", "--out", out) == 2
    assert capsys.readouterr() == ("", "--semigroup basis: names no file\n")
    assert not out.exists()


def test_a_null_cocycle_is_untwisted(tmp_path):
    assert run("validate", _with_table(tmp_path, "cocycle", None)) == 0


def test_the_reader_refuses_what_is_not_a_regular_file(tmp_path):
    with pytest.raises(OSError, match="not a regular file"):
        read_input(os.devnull)
    with pytest.raises(OSError, match="not a regular file"):
        read_input(tmp_path)


@pytest.mark.parametrize("pair", [["nan", 0], [True, 0], ["abc", 0], [0, None], [1], [1, 2, 3],
                                  "10", {"re": 1, "im": 0}, [float("nan"), 0], [1e308 * 10, 0],
                                  [10**400, 0]], ids=repr)
def test_element_coefficients_are_two_finite_numbers(pair, tmp_path):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"coeffs": {"(1,2)": pair}}))
    with pytest.raises(InputError, match="must be \\[re, im\\], two finite numbers"):
        load_element(read_input(path), standard_contexts()["R2"])


@pytest.mark.parametrize("field, value, kind", [
    ("elements", ["0", 1], "a number"), ("units", [["0"]], "an array"),
    ("source", {"0": "0", "1": 0}, "a number"), ("range", {"0": "0", "1": None}, "null"),
    ("inverse", {"0": "0", "1": True}, "a boolean"),
    ("compose", {"0|0": "0", "1|1": {}}, "an object"),
])
def test_every_id_must_be_a_string(field, value, kind, tmp_path):
    message = f"each id in groupoid file's '{field}' must be a string, not {kind}"
    with pytest.raises(InputError, match=message):
        load_groupoid_file(read_input(_with_table(tmp_path, field, value)))


@pytest.mark.parametrize("field, value, message", [
    ("elements", ["0", "1", "a|b", "c|d"], "element id 'a|b' may not contain '|'"),
    ("compose", {"0|0": "0", "0|1": "1", "1|0|1": "1", "11": "0"},
     "pair key '1|0|1' must contain exactly one '|'"),
])
def test_the_reader_names_the_first_bad_id_or_key(field, value, message, tmp_path):
    with pytest.raises(InputError, match=re.escape(message)):
        load_groupoid_file(read_input(_with_table(tmp_path, field, value)))


@pytest.mark.parametrize("name, kind", [({"a": [1]}, "an object"), (7, "a number"), (None, "null")])
def test_a_name_must_be_a_string(name, kind, tmp_path):
    with pytest.raises(InputError, match=f"groupoid file's 'name' must be a string, not {kind}"):
        load_groupoid_file(read_input(_with_table(tmp_path, "name", name)))


def _nested(draw, text):
    """text in some draws inside as many arrays as the recursion limit: a depth that
    json.dumps cannot write and the parser cannot read.  DEEP's 1,000 would not do
    here, since Hypothesis raises the limit by about 1,000 while a test runs."""
    depth = sys.getrecursionlimit()
    return "[" * depth + text + "]" * depth if draw(st.integers(0, 7)) == 0 else text


_REPLACEMENTS = (None, True, 0, -1, 2.5, "", "x", "a|b", [], ["x", 1], {}, {"turns": [1, 0]})
_ID_TABLES = ("source", "range", "inverse", "compose")


def _json_paths(doc, prefix=()):
    """Every key path below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@st.composite
def mutated_groupoid_files(draw):
    """A fixture's text after dropped keys, swapped value types, table values set to
    another element id of the file, truncation, or deep nesting."""
    doc = json.loads((FIXDIR / draw(st.sampled_from(["z2.json", "r2.json"]))).read_text())
    for _ in range(draw(st.integers(0, 3))):
        tables = [t for t in _ID_TABLES if isinstance(doc.get(t), dict) and doc[t]]
        ids = doc.get("elements")
        if tables and isinstance(ids, list) and ids and draw(st.booleans()):
            table = doc[draw(st.sampled_from(tables))]
            table[draw(st.sampled_from(sorted(table)))] = copy.deepcopy(draw(st.sampled_from(ids)))
            continue
        paths = list(_json_paths(doc))
        # Whole tables half of the time, so that a table of the wrong type is common.
        path = draw(st.sampled_from([p for p in paths if len(p) == 1]) | st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
        if not doc:
            break
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return _nested(draw, text)


@settings(max_examples=200, deadline=None)
@given(text=mutated_groupoid_files(), command=st.sampled_from(["validate", "reconstruct"]))
@example(text=json.dumps(_r2_inverse_swap()), command="validate")
@example(text=json.dumps(_r2_inverse_swap()), command="reconstruct")
def test_exit_code_contract_under_mutation(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        assert run(command, path, "--out", Path(tmp) / "report.json") in (0, 1, 2, 3)


@functools.cache
def _z2_report_text():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "z2_report.json"
        assert run("reconstruct", FIXDIR / "z2.json", "--out", out) == 0
        return out.read_text()


@st.composite
def mutated_reports(draw):
    """The z2 report's text after dropped keys or swapped value types in its rebuilt
    groupoid and recovered cocycle, after truncation, or after deep nesting."""
    doc = json.loads(_z2_report_text())
    rec = doc["reconstruction"]
    for _ in range(draw(st.integers(0, 3))):
        paths = [p for p in _json_paths(rec) if p[0] in ("rebuilt_groupoid", "recovered_cocycle")]
        if not paths:
            break
        # Whole tables half of the time, so that a table of the wrong type is common.
        path = draw(st.sampled_from([p for p in paths if len(p) <= 2]) | st.sampled_from(paths))
        parent = rec
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return _nested(draw, text)


@settings(max_examples=200, deadline=None)
@given(text=mutated_reports())
def test_compare_contract_under_mutation(text):
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp) / "good.json", Path(tmp) / "bad.json"
        good.write_text(_z2_report_text())
        bad.write_text(text)
        assert run("compare", good, bad, "--out", Path(tmp) / "cmp.json") in (0, 1, 2, 3)


@st.composite
def mutated_basis_files(draw):
    """The r2 basis file's text after dropped or duplicated members, members or ids
    replaced by another value or id, ids nested in an array, truncation, or deep nesting."""
    members = json.loads((FIXDIR / "basis_r2_offdiag.json").read_text())["bisections"]
    ids = sorted({e for member in members for e in member})
    for _ in range(draw(st.integers(0, 3))):
        if not members:
            break
        i = draw(st.integers(0, len(members) - 1))
        member = members[i]
        mutation = draw(st.sampled_from(["drop", "duplicate", "replace", "swap", "nest"]))
        if mutation == "drop":
            del members[i]
        elif mutation == "duplicate":
            members.insert(i, copy.deepcopy(member))
        elif mutation == "replace" or not (isinstance(member, list) and member):
            members[i] = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
        else:
            j = draw(st.integers(0, len(member) - 1))
            member[j] = [member[j]] if mutation == "nest" else draw(
                st.sampled_from(ids) | st.sampled_from(_REPLACEMENTS))
    text = json.dumps({"bisections": members})
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return _nested(draw, text)


@settings(max_examples=100, deadline=None)
@given(text=mutated_basis_files(), command=st.sampled_from(["reconstruct", "suite"]))
def test_basis_contract_under_mutation(text, command):
    """Every mutated basis file ends in an exit code of the contract and a report
    whose basis hash is of the file's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        basis, out = Path(tmp) / "basis.json", Path(tmp) / "report.json"
        basis.write_text(text)
        suite = ["--suite", "cartan"] if command == "suite" else []
        code = run(command, FIXDIR / "r2.json", *suite, "--semigroup", f"basis:{basis}",
                   "--out", out)
        assert code in (0, 1, 2, 3)
        assert json.loads(out.read_text())["inputs"][1]["sha256"] == _sha256(basis)


# Loose tolerances make two routes to one value disagree: exit 4 with a report.
CONSISTENCY_CASES = {
    "v4_pauli-tol-1e-300": ["reconstruct", FIXDIR / "v4_pauli.json", "--tol", "1e-300"],
    "relations-tol-0.5": ["suite", FIXDIR / "z4.json", "--suite", "relations", "--tol", 0.5],
}
# The first failing check of each case, which reordering the checks must not move.
CONSISTENCY_MESSAGES = {
    "v4_pauli-tol-1e-300": "domination certificate (False) disagrees with support oracle (True)",
    "relations-tol-0.5": "domination certificate (True) disagrees with support oracle (False)",
}


@pytest.mark.parametrize("case", sorted(CONSISTENCY_CASES))
def test_consistency_errors_exit_4(case, capsys):
    assert run(*CONSISTENCY_CASES[case]) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "consistency" and error["message"] == CONSISTENCY_MESSAGES[case]
    assert "np." not in error["message"]


def test_a_maximal_restriction_that_fails_its_own_test_exits_4(monkeypatch, capsys):
    """The expectation suite builds max{b diagonal : b below n} from the restriction
    test; a candidate that test then rejects is two routes disagreeing, not bad input."""
    monkeypatch.setattr(suites, "restriction_witness", lambda m, n: None)
    assert run("suite", FIXDIR / "z2.json", "--suite", "expectation") == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "consistency",
                     "message": "maximal restriction candidate failed its own test"}


def test_relations_suite_passes_on_r2_at_a_coarse_tolerance(capsys):
    """At --tol 0.5 some dominated coefficients lie in (tol, sqrt(tol)]; they are support."""
    assert run("suite", FIXDIR / "r2.json", "--suite", "relations", "--tol", 0.5) == 0
    assert json.loads(capsys.readouterr().out)["suites"]["relations"]["passed"]


@pytest.mark.parametrize("tol", ["1", "1e200"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_no_suite_passes_at_a_tolerance_of_one_or_more(suite, tol, capsys):
    capsys.readouterr()
    assert run("suite", FIXDIR / "r2.json", "--suite", suite, "--tol", tol) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "input" and "suites" not in doc
    assert doc["config"]["tolerance"] == float(tol)


# A tolerance whose square overflows a float power still gives a report.
HUGE_TOLERANCE_RUNS = {
    "reconstruct": ["reconstruct", FIXDIR / "z4.json"],
    "suite-relations": ["suite", FIXDIR / "z4.json", "--suite", "relations"],
    "suite-all": ["suite", FIXDIR / "z4.json", "--suite", "all"],
}


@pytest.mark.parametrize("tol", ["1e200", "1e300"])
@pytest.mark.parametrize("case", sorted(HUGE_TOLERANCE_RUNS))
def test_huge_tolerance_ends_in_a_report(case, tol, capsys):
    capsys.readouterr()
    assert run(*HUGE_TOLERANCE_RUNS[case], "--tol", tol) in (0, 1, 2, 3, 4)
    assert json.loads(capsys.readouterr().out)["config"]["tolerance"] == float(tol)


# -- `suite --suite all` and `reconstruct` spread over the usable CPUs -----------------

SUITE_ALL_RUNS = {
    **{p.stem: ["suite", p, "--suite", "all"]
       for p in sorted(FIXDIR.glob("*.json")) if not p.name.startswith("basis")},
    "r2-basis": ["suite", FIXDIR / "r2.json", "--suite", "all",
                 "--semigroup", f"basis:{FIXDIR / 'basis_r2_offdiag.json'}"],
    "z4-tol-0.5": ["suite", FIXDIR / "z4.json", "--suite", "all", "--tol", 0.5],
}
# reconstruct runs, and the exit code of each that does not pass.
RECONSTRUCT_RUNS = {
    **{f"reconstruct-{p.stem}": ["reconstruct", p]
       for p in sorted(FIXDIR.glob("*.json")) if not p.name.startswith("basis")},
    "reconstruct-r2-basis": ["reconstruct", FIXDIR / "r2.json",
                             "--semigroup", f"basis:{FIXDIR / 'basis_r2_offdiag.json'}"],
    "reconstruct-z4-tol-0.5": ["reconstruct", FIXDIR / "z4.json", "--tol", 0.5],
    "reconstruct-v4_pauli-tol-1e-300": ["reconstruct", FIXDIR / "v4_pauli.json", "--tol", "1e-300"],
    "reconstruct-r4-tol-0.9": ["reconstruct", FIXDIR / "r4.json", "--tol", 0.9],
    "reconstruct-r2-budget-0": ["reconstruct", FIXDIR / "r2.json", "--iso-budget", 0],
}
RECONSTRUCT_CODES = {"reconstruct-z4-tol-0.5": 4, "reconstruct-v4_pauli-tol-1e-300": 4,
                     "reconstruct-r4-tol-0.9": 4, "reconstruct-r2-budget-0": 3}
# The functions that reconstruct's stages look up in twistalg.reconstruction, in
# report order: the first one each stage calls.
STAGE_FUNCTIONS = ("rebuild_groupoid", "recover_cocycle", "product_criterion_report",
                   "unit_space_report", "ultra_primeness_report", "domination_inclusion_report",
                   "filter_axiom_report", "states_report", "twist_report", "hat_report",
                   "csum_closure")


def _count_forks(monkeypatch, cpus):
    """Let the process see `cpus` usable CPUs; the list that each fork appends to."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _run_on_cpus(monkeypatch, tmp_path, cpus, *argv):
    """(exit code, report bytes, forks made) of one run that may use `cpus` CPUs."""
    forks = _count_forks(monkeypatch, cpus)
    out = tmp_path / f"cpus{cpus}.json"
    return run(*argv, "--out", out), out.read_bytes(), len(forks)


@pytest.mark.parametrize("case", sorted(SUITE_ALL_RUNS.keys() | RECONSTRUCT_RUNS.keys()))
def test_reports_do_not_depend_on_the_cpu_count(case, monkeypatch, tmp_path):
    argv = SUITE_ALL_RUNS.get(case) or RECONSTRUCT_RUNS[case]
    code, report, forks = _run_on_cpus(monkeypatch, tmp_path, 1, *argv)
    assert forks == 0
    assert code == RECONSTRUCT_CODES.get(case, code)
    assert _run_on_cpus(monkeypatch, tmp_path, 2, *argv) == (code, report, 1)


def test_suite_all_at_a_coarse_tolerance_still_exits_4(monkeypatch, tmp_path):
    code, report, forks = _run_on_cpus(monkeypatch, tmp_path, 6, *SUITE_ALL_RUNS["z4-tol-0.5"])
    assert (code, forks) == (4, 5)
    assert json.loads(report)["error"] == {
        "kind": "consistency", "message": CONSISTENCY_MESSAGES["relations-tol-0.5"]}


def test_one_suite_is_not_forked(monkeypatch, tmp_path):
    code, _, forks = _run_on_cpus(monkeypatch, tmp_path, 6, "suite", FIXDIR / "z2.json",
                                  "--suite", "norms")
    assert (code, forks) == (0, 0)


def test_library_reconstruct_forks_nothing(monkeypatch):
    forks = _count_forks(monkeypatch, 6)
    ctx = standard_contexts()["R2"]
    assert reconstruction.reconstruct(ctx, seed=3).passed
    assert forks == []


def test_a_non_cartan_spec_fails_before_any_fork(monkeypatch, tmp_path):
    units = ["(1,1)", "(2,2)"]
    basis = _write_json(tmp_path / "diag.json", {"bisections": [[], units, units[:1], units[1:]]})
    code, report, forks = _run_on_cpus(monkeypatch, tmp_path, 6, "reconstruct",
                                       FIXDIR / "r2.json", "--semigroup", f"basis:{basis}")
    assert (code, forks) == (1, 0)
    assert json.loads(report)["error"] == {"kind": "not-cartan",
                                           "failures": ["dense span (dimension 2)"]}


def _raises(exc):
    def runner(*args):
        raise exc
    return runner


# Where each command's runners are replaced, and their names: the suites in
# suites.SUITES, reconstruct's stages through the functions they look up by name in
# twistalg.reconstruction.
RUNNERS = {"suite": (suites.SUITES, list(suites.SUITES)),
           "reconstruct": (vars(reconstruction), STAGE_FUNCTIONS)}


def _fanned_out(command, fixture):
    """The argv of a run of `command` on `fixture` that fans out."""
    return [command, FIXDIR / fixture, *(["--suite", "all"] if command == "suite" else [])]


# Two runners that raise, the earlier one in order first: the exit code and error
# body that the earlier one gives.
FAILING_PAIRS = {
    "not-cartan": ("suite", {"relations": NotCartanError(["x", "y"]),
                             "norms": ConsistencyError("later")},
                   1, {"kind": "not-cartan", "failures": ["x", "y"]}),
    "input": ("suite", {"states": InputError("first"), "masa": ConsistencyError("later")},
              2, {"kind": "input", "message": "first"}),
    "consistency": ("suite", {"masa": ConsistencyError("first"),
                              "expectation": InputError("later")},
                    4, {"kind": "consistency", "message": "first"}),
    "reconstruct-not-cartan": ("reconstruct", {"recover_cocycle": NotCartanError(["x"]),
                                               "filter_axiom_report": ConsistencyError("later")},
                               1, {"kind": "not-cartan", "failures": ["x"]}),
    "reconstruct-input": ("reconstruct", {"rebuild_groupoid": InputError("first"),
                                          "csum_closure": ConsistencyError("later")},
                          2, {"kind": "input", "message": "first"}),
    "reconstruct-consistency": ("reconstruct", {"twist_report": ConsistencyError("first"),
                                                "hat_report": InputError("later")},
                                4, {"kind": "consistency", "message": "first"}),
}


@pytest.mark.parametrize("cpus", [1, 2, 6])
@pytest.mark.parametrize("case", sorted(FAILING_PAIRS))
def test_the_first_failure_in_order_decides(case, cpus, monkeypatch, tmp_path):
    command, failures, code, error = FAILING_PAIRS[case]
    for name, exc in failures.items():
        monkeypatch.setitem(RUNNERS[command][0], name, _raises(exc))
    got, report, _ = _run_on_cpus(monkeypatch, tmp_path, cpus, *_fanned_out(command, "z2.json"))
    assert (got, json.loads(report)["error"]) == (code, error)


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_a_child_that_dies_leaves_the_report_whole(command, monkeypatch, tmp_path):
    runners, names = RUNNERS[command]
    argv = _fanned_out(command, "r2.json")
    serial = _run_on_cpus(monkeypatch, tmp_path, 1, *argv)[:2]
    parent, deaths = os.getpid(), tmp_path / "deaths"
    for name in names:
        def dying(*args, runner=runners[name], name=name):
            if os.getpid() != parent:
                with deaths.open("a") as f:
                    f.write(name + "\n")
                os._exit(1)
            return runner(*args)
        monkeypatch.setitem(runners, name, dying)
    assert _run_on_cpus(monkeypatch, tmp_path, 6, *argv)[:2] == serial
    assert deaths.read_text()  # some child did die, and its runners ran here again


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_a_failed_fork_runs_everything_here(command, monkeypatch, tmp_path):
    argv = _fanned_out(command, "z3.json")
    serial = _run_on_cpus(monkeypatch, tmp_path, 1, *argv)[:2]

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "no_fork.json"
    assert (run(*argv, "--out", out), out.read_bytes()) == serial


@pytest.mark.parametrize("exc", [InputError("bad file"), ConsistencyError("routes disagree"),
                                 NotCartanError(["a", "b"])], ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert (str(back), back.args) == (str(exc), exc.args)
    assert getattr(back, "failures", None) == getattr(exc, "failures", None)


def test_coefficients_reach_the_kernels_as_python_complex(monkeypatch):
    """Every coefficient that library reconstruct on R3, and suite --suite all on
    z4, hand to convolve is a Python complex, never a numpy scalar."""
    convolve, operands = algebra.convolve, set()

    def recording(a, b):
        operands.update(type(c) for x in (a, b) for c in x.coeffs.values())
        return convolve(a, b)

    monkeypatch.setattr(algebra, "convolve", recording)
    _count_forks(monkeypatch, 1)  # every suite runs in this process
    assert reconstruction.reconstruct(standard_contexts()["R3"], seed=42).passed
    assert run("suite", FIXDIR / "z4.json", "--suite", "all", "--out", os.devnull) == 0
    assert operands == {complex}
