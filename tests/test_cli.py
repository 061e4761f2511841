import copy
import functools
import json
import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistalg import FiniteGroupoid, standard_contexts
from twistalg import cli
from twistalg.cli import SUITE_NAMES, main
from twistalg.errors import ConsistencyError, InputError, NotCartanError
from twistalg.fileio import (
    context_to_dict,
    load_basis,
    load_element,
    load_groupoid_file,
    save_context,
)

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


def test_compare_follow_up_out_of_budget_exits_3(tmp_path):
    """Z4 x Z4 against the non-abelian Z4 x| Z4: the pairing-pruned search ends
    within 600 nodes, the plain search that settles groupoids_isomorphic needs
    1,168, so compare is inconclusive rather than guessing."""
    def group(name, mul):
        ids = [f"{a}{b}" for a in range(4) for b in range(4)]
        compose = {(x, y): "".join(map(str, mul(*map(int, x), *map(int, y))))
                   for x in ids for y in ids}
        inverse = {x: y for (x, y), p in compose.items() if p == "00"}
        units = dict.fromkeys(ids, "00")
        return FiniteGroupoid(name, ids, ["00"], units, dict(units), inverse, compose)

    a = _bare_report(tmp_path / "ab.json",
                     group("Z4xZ4", lambda a, b, c, d: ((a + c) % 4, (b + d) % 4)))
    b = _bare_report(tmp_path / "sd.json",
                     group("Z4sdZ4", lambda a, b, c, d: ((a + (-1) ** b * c) % 4, (b + d) % 4)))
    out = tmp_path / "cmp.json"
    assert run("compare", a, b, "--iso-budget", 600, "--out", out) == 3
    assert json.loads(out.read_text())["result"]["status"] == "inconclusive"
    assert run("compare", a, b, "--iso-budget", 1168, "--out", out) == 1
    assert json.loads(out.read_text())["result"]["groupoids_isomorphic"] is False


def test_compare_malformed_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run("compare", bad, bad) == 2


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


def test_suite_unknown_name():
    assert run("suite", FIXDIR / "r2.json", "--suite", "bogus") == 2


def test_element_file_roundtrip(tmp_path):
    ctx = standard_contexts()["R2"]
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"coeffs": {"(1,2)": [1.5, -2.0], "(1,1)": [0.25, 0]}}))
    a = load_element(path, ctx)
    assert a.coeff("(1,2)") == 1.5 - 2j and a.coeff("(1,1)") == 0.25
    path.write_text(json.dumps({"coeffs": {"nope": [1, 0]}}))
    with pytest.raises(InputError):
        load_element(path, ctx)


def test_basis_file_validation(tmp_path):
    ctx = standard_contexts()["R2"]
    good = load_basis(FIXDIR / "basis_r2_offdiag.json", ctx)
    assert frozenset(["(1,2)"]) in good.family
    bad = tmp_path / "basis.json"
    bad.write_text(json.dumps({"bisections": [["(1,2)"]]}))
    with pytest.raises(InputError):
        load_basis(bad, ctx)


def test_fixture_files_match_constructors():
    contexts = {name.lower(): ctx for name, ctx in standard_contexts().items()}
    files = sorted(p for p in FIXDIR.glob("*.json") if not p.name.startswith("basis"))
    assert [p.stem for p in files] == sorted(contexts)
    for path in files:
        assert json.loads(path.read_text()) == context_to_dict(contexts[path.stem]), path.name


def test_groupoid_file_roundtrip(tmp_path):
    ctx = standard_contexts()["V4_pauli"]
    path = tmp_path / "ctx.json"
    save_context(ctx, path)
    gpd, cocycle = load_groupoid_file(path)
    assert set(gpd.elements) == set(ctx.groupoid.elements)
    assert cocycle.values == ctx.cocycle.values


def test_tolerance_must_be_positive():
    assert run("validate", FIXDIR / "r2.json", "--tol", 0) == 2


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
}


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
    another element id of the file, or truncation."""
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
    return text


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
    groupoid and recovered cocycle, or after truncation."""
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
    return text


@settings(max_examples=200, deadline=None)
@given(text=mutated_reports())
def test_compare_contract_under_mutation(text):
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp) / "good.json", Path(tmp) / "bad.json"
        good.write_text(_z2_report_text())
        bad.write_text(text)
        assert run("compare", good, bad, "--out", Path(tmp) / "cmp.json") in (0, 1, 2, 3)


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


# -- `suite --suite all` spread over the usable CPUs ------------------------------------

SUITE_ALL_RUNS = {
    **{p.stem: ["suite", p, "--suite", "all"]
       for p in sorted(FIXDIR.glob("*.json")) if not p.name.startswith("basis")},
    "r2-basis": ["suite", FIXDIR / "r2.json", "--suite", "all",
                 "--semigroup", f"basis:{FIXDIR / 'basis_r2_offdiag.json'}"],
    "z4-tol-0.5": ["suite", FIXDIR / "z4.json", "--suite", "all", "--tol", 0.5],
}


def _run_on_cpus(monkeypatch, tmp_path, cpus, *argv):
    """(exit code, report bytes, forks made) of one run that may use `cpus` CPUs."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out = tmp_path / f"cpus{cpus}.json"
    return run(*argv, "--out", out), out.read_bytes(), len(forks)


@pytest.mark.parametrize("case", sorted(SUITE_ALL_RUNS))
def test_suite_all_reports_do_not_depend_on_the_cpu_count(case, monkeypatch, tmp_path):
    code, report, forks = _run_on_cpus(monkeypatch, tmp_path, 1, *SUITE_ALL_RUNS[case])
    assert forks == 0
    assert _run_on_cpus(monkeypatch, tmp_path, 2, *SUITE_ALL_RUNS[case])[:2] == (code, report)


def test_suite_all_at_a_coarse_tolerance_still_exits_4(monkeypatch, tmp_path):
    code, report, forks = _run_on_cpus(monkeypatch, tmp_path, 6, *SUITE_ALL_RUNS["z4-tol-0.5"])
    assert (code, forks) == (4, 5)
    assert json.loads(report)["error"] == {
        "kind": "consistency", "message": CONSISTENCY_MESSAGES["relations-tol-0.5"]}


def test_one_suite_is_not_forked(monkeypatch, tmp_path):
    code, _, forks = _run_on_cpus(monkeypatch, tmp_path, 6, "suite", FIXDIR / "z2.json",
                                  "--suite", "norms")
    assert (code, forks) == (0, 0)


def _raises(exc):
    def suite(*args):
        raise exc
    return suite


# Two suites that raise, the earlier one in SUITES order first: the exit code and
# error body that the earlier one gives.
FAILING_PAIRS = {
    "not-cartan": ({"relations": NotCartanError(["x", "y"]), "norms": ConsistencyError("later")},
                   1, {"kind": "not-cartan", "failures": ["x", "y"]}),
    "input": ({"states": InputError("first"), "masa": ConsistencyError("later")},
              2, {"kind": "input", "message": "first"}),
    "consistency": ({"masa": ConsistencyError("first"), "expectation": InputError("later")},
                    4, {"kind": "consistency", "message": "first"}),
}


@pytest.mark.parametrize("cpus", [1, 2, 6])
@pytest.mark.parametrize("case", sorted(FAILING_PAIRS))
def test_the_first_failing_suite_in_order_decides(case, cpus, monkeypatch, tmp_path):
    failures, code, error = FAILING_PAIRS[case]
    for name, exc in failures.items():
        monkeypatch.setitem(cli.SUITES, name, _raises(exc))
    got, report, _ = _run_on_cpus(monkeypatch, tmp_path, cpus, "suite", FIXDIR / "z2.json",
                                  "--suite", "all")
    assert (got, json.loads(report)["error"]) == (code, error)


def test_a_child_that_dies_leaves_the_report_whole(monkeypatch, tmp_path):
    argv = ("suite", FIXDIR / "r2.json", "--suite", "all")
    serial = _run_on_cpus(monkeypatch, tmp_path, 1, *argv)[:2]
    parent, deaths = os.getpid(), tmp_path / "deaths"
    for name, suite in list(cli.SUITES.items()):
        def dying(*args, suite=suite, name=name):
            if os.getpid() != parent:
                with deaths.open("a") as f:
                    f.write(name + "\n")
                os._exit(1)
            return suite(*args)
        monkeypatch.setitem(cli.SUITES, name, dying)
    assert _run_on_cpus(monkeypatch, tmp_path, 6, *argv)[:2] == serial
    assert deaths.read_text()  # some child did die, and its suites ran here again


def test_a_failed_fork_runs_the_suites_here(monkeypatch, tmp_path):
    argv = ("suite", FIXDIR / "z3.json", "--suite", "all")
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
