"""The benchmark's workloads: generated inputs, operations and correctness checks.

Each workload's set-up returns a list of `Op`s.  An op is one call into
twistalg (the CLI in process, or the library) followed by an untimed check
of its output against what is known by construction: the exit code, the
`passed` verdict, the recovered cocycle as exact fractions under the label
map, the rebuilt groupoid, or the `compare` status.  Inputs depend only on
the seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# Reconstruction fixtures: every groupoid file in fixtures/, listed by name so
# that a new fixture does not silently change the workload.
FIXTURE_FILES = (
    "r2.json", "r2_disj_z2.json", "r3.json", "r4.json", "swap2.json",
    "v4.json", "v4_pauli.json", "z2.json", "z3.json", "z4.json",
)
SUITE_FILES = ("r3.json", "r4.json", "z4.json", "v4_pauli.json", "r2_disj_z2.json")

WORKLOADS = ("fixtures", "scaling", "suites", "compare")


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    `call` does the work being timed; `inspect` turns its return value into
    (report, failure), where report is the JSON document the program produced
    and failure is None or a short failure kind.  `known_defect` names the
    failure kind a documented defect gives today: such a failure is reported
    but does not count as unexpected.
    """

    name: str
    call: Callable[[], object]
    inspect: Callable[[object], tuple[dict | None, str | None]]
    known_defect: str | None = None


# -- input generators -------------------------------------------------------------


def abelian_group(orders, name: str):
    """Z_{n1} x ... x Z_{nk} as a one-unit groupoid; elements are digit strings.

    Returns (groupoid, tuples) where tuples[i] is the coordinate vector of
    groupoid.elements[i].
    """
    from twistalg.groupoid import FiniteGroupoid

    sep = "" if max(orders) <= 10 else "-"
    tuples = list(itertools.product(*[range(n) for n in orders]))

    def label(t):
        return sep.join(str(x) for x in t)

    zero = label((0,) * len(orders))
    ids = [label(t) for t in tuples]
    source = {e: zero for e in ids}
    inverse = {label(t): label(tuple(-x % n for x, n in zip(t, orders))) for t in tuples}
    compose = {
        (label(a), label(b)): label(tuple((x + y) % n for x, y, n in zip(a, b, orders)))
        for a in tuples for b in tuples
    }
    return FiniteGroupoid(name, ids, [zero], source, dict(source), inverse, compose), tuples


def bilinear_cocycle(gpd, tuples, coeffs):
    """sigma(a, b) = sum of c * a[i] * b[j] turns over coeffs {(i, j): c}."""
    from twistalg.algebra import Cocycle, Phase

    coord = dict(zip(gpd.elements, tuples))
    values = {}
    for g, h in gpd.compose:
        turns = sum((c * coord[g][i] * coord[h][j] for (i, j), c in coeffs.items()), Fraction(0)) % 1
        if turns:
            values[(g, h)] = Phase(turns)
    return Cocycle(gpd, values)


def coboundary(gpd, b: dict):
    """The cocycle sigma(g, h) = b(g) + b(h) - b(gh) turns; b is 0 off its keys.

    b must vanish on units for the cocycle to be normalized.
    """
    from twistalg.algebra import Cocycle, Phase

    zero = Fraction(0)
    values = {}
    for (g, h), gh in gpd.compose.items():
        turns = (b.get(g, zero) + b.get(h, zero) - b.get(gh, zero)) % 1
        if turns:
            values[(g, h)] = Phase(turns)
    return Cocycle(gpd, values)


def random_coboundary(gpd, rng: np.random.Generator, denominator: int):
    """Coboundary of a seeded b taking values in multiples of 1/denominator."""
    b = {g: Fraction(int(rng.integers(denominator)), denominator)
         for g in gpd.elements if not gpd.is_unit(g)}
    return coboundary(gpd, b)


def disjoint_copies(make, names, name: str):
    """Disjoint union of make(n) over names; element ids stay distinct."""
    from twistalg.groupoid import disjoint_union

    parts = [make(n) for n in names]
    out = parts[0]
    for part in parts[1:]:
        out = disjoint_union(out, part, name)
    return out


# -- checks ------------------------------------------------------------------------------


def _turns(entry) -> Fraction:
    p, q = entry["turns"]
    return Fraction(int(p), int(q)) % 1


def file_cocycle(entries: dict) -> dict[str, Fraction]:
    """The nonzero phases of a file-format cocycle, {"g|h": turns}."""
    turns = {k: _turns(v) for k, v in entries.items()}
    return {k: v for k, v in turns.items() if v}


def check_reconstruction(rec: dict, tables: dict, cocycle: dict[str, Fraction]) -> str | None:
    """Failure kind of a reconstruction report, or None when it is correct.

    Rebuilt points are labelled p0, p1, ... in the input's element order; under
    that label map the rebuilt groupoid must equal the input and the recovered
    cocycle must equal the input cocycle exactly.
    """
    if rec.get("isomorphism", {}).get("status") != "isomorphic":
        return "not_isomorphic"
    if not rec.get("passed"):
        return "not_passed"
    label = {g: f"p{i}" for i, g in enumerate(tables["elements"])}

    def relabel(pair):
        return "|".join(label[x] for x in pair.split("|"))

    rebuilt = rec["rebuilt_groupoid"]
    expect = {
        "elements": [label[g] for g in tables["elements"]],
        "units": sorted(label[u] for u in tables["units"]),
        "source": {label[g]: label[v] for g, v in tables["source"].items()},
        "range": {label[g]: label[v] for g, v in tables["range"].items()},
        "inverse": {label[g]: label[v] for g, v in tables["inverse"].items()},
        "compose": {relabel(k): label[c] for k, c in tables["compose"].items()},
    }
    got = dict(rebuilt, units=sorted(rebuilt["units"]))
    if any(got.get(k) != v for k, v in expect.items()):
        return "groupoid_mismatch"
    if file_cocycle(rec["recovered_cocycle"]) != {relabel(k): v for k, v in cocycle.items()}:
        return "cocycle_mismatch"
    return None


def _read_doc(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def verdict_digest(report) -> str:
    """sha256 of a report with every float field and every input hash removed.

    Floats are residuals, norms and gaps whose last digits may move under an
    optimisation, and an input report's hash moves with them; everything else
    in a report is a verdict, a count or a witness and must stay identical.
    """
    def strip(x):
        if isinstance(x, np.generic):
            x = x.item()
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items()
                    if not isinstance(v, float) and k != "sha256"}
        if isinstance(x, (list, tuple)):
            return [strip(v) for v in x if not isinstance(v, float)]
        return None if isinstance(x, float) else x

    text = json.dumps(strip(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- workloads ---------------------------------------------------------------------------


def _write_context(ctx, path: Path) -> None:
    from twistalg.fileio import context_to_dict, dumps

    path.write_text(dumps(context_to_dict(ctx)), encoding="utf-8")


def _cli_call(argv: list[str], out: Path):
    """In-process CLI call writing its report to `out`, removed first so that a
    stale report is never read."""
    from twistalg import cli

    def call():
        out.unlink(missing_ok=True)
        return cli.main(argv)

    return call


def _cli_reconstruct_op(name, path: Path, out: Path, seed: int, extra=(), known_defect=None):
    tables = json.loads(path.read_text(encoding="utf-8"))
    cocycle = file_cocycle(tables.get("cocycle", {}))
    argv = ["reconstruct", str(path), "--seed", str(seed), "--out", str(out), *extra]

    def inspect(rc):
        doc = _read_doc(out)
        if rc != 0:
            return doc, f"exit:{rc}"
        if doc is None or "reconstruction" not in doc:
            return doc, "no_report"
        return doc, check_reconstruction(doc["reconstruction"], tables, cocycle)

    return Op(name, _cli_call(argv, out), inspect, known_defect)


def setup_fixtures(root: Path, tmp: Path, seed: int) -> list[Op]:
    """reconstruct on every fixture, a basis-restricted spec, and Z3 twisted by a
    coboundary whose phases have denominator 100."""
    from twistalg.algebra import TwistedAlgebra
    from twistalg.groupoid import cyclic_group

    fx = root / "fixtures"
    ops = [_cli_reconstruct_op(f[:-5], fx / f, tmp / f"rec_{f}", seed) for f in FIXTURE_FILES]
    ops.append(_cli_reconstruct_op(
        "r2_basis", fx / "r2.json", tmp / "rec_r2_basis.json", seed,
        # A relative path keeps the report, which records it, the same in every checkout.
        extra=("--semigroup", "basis:" + os.path.relpath(fx / "basis_r2_offdiag.json"))))
    z3 = cyclic_group(3, "Z3_cob100")
    path = tmp / "z3_cob100.json"
    _write_context(TwistedAlgebra(z3, coboundary(z3, {"1": Fraction(1, 100)}), name=z3.name), path)
    # Recovered phases are snapped to denominators <= 64, so this valid input
    # raises InputError today.
    ops.append(_cli_reconstruct_op("z3_cob100", path, tmp / "rec_z3_cob100.json", seed,
                                   known_defect="InputError"))
    return ops


def scaling_contexts(seed: int) -> list:
    """R5, Z32 twisted by a seeded coboundary in multiples of 1/8 turn, and four
    disjoint copies of R2."""
    from twistalg.algebra import TwistedAlgebra
    from twistalg.groupoid import cyclic_group, full_relation
    from twistalg.seeds import substream

    z32 = cyclic_group(32)
    union = disjoint_copies(lambda n: full_relation(2, n), "ABCD", "R2x4")
    return [
        TwistedAlgebra(full_relation(5)),
        TwistedAlgebra(z32, random_coboundary(z32, substream(seed, "bench", "Z32"), 8)),
        TwistedAlgebra(union),
    ]


def setup_scaling(root: Path, tmp: Path, seed: int) -> list[Op]:
    # Looked up at call time, so that a traced pass calls the wrapped function.
    from twistalg import reconstruction

    ops = []
    for ctx in scaling_contexts(seed):
        tables = ctx.groupoid.to_dict()
        cocycle = file_cocycle(ctx.cocycle.to_dict())

        def inspect(report, tables=tables, cocycle=cocycle):
            doc = report.to_dict()
            return doc, check_reconstruction(doc, tables, cocycle)

        ops.append(Op(ctx.name, lambda ctx=ctx: reconstruction.reconstruct(ctx, seed=seed), inspect))
    return ops


def setup_suites(root: Path, tmp: Path, seed: int) -> list[Op]:
    ops = []
    for f in SUITE_FILES:
        out = tmp / f"suite_{f}"
        argv = ["suite", str(root / "fixtures" / f), "--suite", "all", "--seed", str(seed),
                "--out", str(out)]

        def inspect(rc, out=out):
            doc = _read_doc(out)
            if doc is None or "suites" not in doc:
                return doc, f"exit:{rc}"
            failed = [k for k, v in doc["suites"].items() if not v.get("passed")]
            if failed:
                return doc, f"suite:{failed[0]}"
            return doc, None if rc == 0 and doc.get("passed") else f"exit:{rc}"

        ops.append(Op(f[:-5], _cli_call(argv, out), inspect))
    return ops


def compare_contexts() -> dict:
    """Name -> context for every report the compare workload reads."""
    from twistalg.algebra import TwistedAlgebra, pauli_cocycle
    from twistalg.groupoid import cyclic_group, klein_four

    out = {}
    for orders, coeffs, name in (
        ((2, 2, 2, 3), {(0, 1): Fraction(1, 2)}, "Z2cubedxZ3"),
        ((4, 2, 2), {(1, 2): Fraction(1, 2)}, "Z4xZ2xZ2"),
        ((4, 4), {(0, 1): Fraction(1, 4)}, "Z4xZ4"),
    ):
        gpd, tuples = abelian_group(orders, name)
        out[name] = TwistedAlgebra(gpd, name=name)
        twisted, tuples = abelian_group(orders, name + "_tw")
        out[name + "_tw"] = TwistedAlgebra(twisted, bilinear_cocycle(twisted, tuples, coeffs))
    v4 = klein_four()
    out["V4"] = TwistedAlgebra(v4)
    pauli = klein_four("V4_pauli")
    out["V4_pauli"] = TwistedAlgebra(pauli, pauli_cocycle(pauli))
    cob = klein_four("V4_cob")
    out["V4_cob"] = TwistedAlgebra(cob, coboundary(cob, {"01": Fraction(1, 4), "10": Fraction(1, 8)}))
    out["Z4"] = TwistedAlgebra(cyclic_group(4))
    return out


# (op name, report A, report B, expected status, groupoids isomorphic?)
COMPARE_PAIRS = (
    ("Z2cubedxZ3_vs_tw", "Z2cubedxZ3", "Z2cubedxZ3_tw", "not_isomorphic", True),
    ("Z4xZ2xZ2_vs_tw", "Z4xZ2xZ2", "Z4xZ2xZ2_tw", "not_isomorphic", True),
    ("Z4xZ4_vs_tw", "Z4xZ4", "Z4xZ4_tw", "not_isomorphic", True),
    ("V4_vs_pauli", "V4", "V4_pauli", "not_isomorphic", True),
    ("Z4_vs_V4", "Z4", "V4", "not_isomorphic", False),
    ("self", "Z2cubedxZ3_tw", "Z2cubedxZ3_tw", "isomorphic", True),
    # Cocycles that differ by a coboundary give isomorphic twists, but compare
    # matches cocycles exactly and reports not_isomorphic today.
    ("V4_vs_cob", "V4", "V4_cob", "isomorphic", True),
)
KNOWN_COMPARE_DEFECTS = {"V4_vs_cob": "status:not_isomorphic"}


def setup_compare(root: Path, tmp: Path, seed: int) -> list[Op]:
    from twistalg import cli

    reports = {}
    for name, ctx in compare_contexts().items():
        path, report = tmp / f"{name}.json", tmp / f"{name}.report.json"
        _write_context(ctx, path)
        cli.main(["reconstruct", str(path), "--seed", str(seed), "--out", str(report)])
        reports[name] = report

    ops = []
    for name, a, b, status, groupoids_iso in COMPARE_PAIRS:
        out = tmp / f"cmp_{name}.json"
        argv = ["compare", str(reports[a]), str(reports[b]), "--seed", str(seed), "--out", str(out)]

        def inspect(rc, out=out, status=status, groupoids_iso=groupoids_iso, a=a, b=b):
            doc = _read_doc(out)
            result = (doc or {}).get("result", {})
            if result.get("status") != status:
                return doc, f"status:{result.get('status')}"
            if rc != (0 if status == "isomorphic" else 1):
                return doc, f"exit:{rc}"
            if status == "isomorphic":
                return doc, _check_twist_map(reports[a], reports[b], result.get("mapping") or {})
            if result.get("groupoids_isomorphic", False) != groupoids_iso:
                return doc, "groupoids_isomorphic"
            return doc, None

        ops.append(Op(name, _cli_call(argv, out), inspect, KNOWN_COMPARE_DEFECTS.get(name)))
    return ops


def _check_twist_map(path_a: Path, path_b: Path, mapping: dict) -> str | None:
    """The mapping must be a groupoid isomorphism under which the two recovered
    cocycles differ by a coboundary.

    The test for a coboundary is that the difference d is symmetric on
    commuting pairs, d(x, y) = d(y, x).  That is necessary on any groupoid and
    sufficient on the abelian groups this workload compares.
    """
    rec_a = _read_doc(path_a)["reconstruction"]
    rec_b = _read_doc(path_b)["reconstruction"]
    ga, gb = rec_a["rebuilt_groupoid"], rec_b["rebuilt_groupoid"]
    if sorted(mapping) != sorted(ga["elements"]) or sorted(mapping.values()) != sorted(gb["elements"]):
        return "mapping_not_bijective"
    comp_a, comp_b = ga["compose"], gb["compose"]
    for key, c in comp_a.items():
        x, y = key.split("|")
        if comp_b.get(f"{mapping[x]}|{mapping[y]}") != mapping[c]:
            return "mapping_not_homomorphism"
    sig_a = file_cocycle(rec_a["recovered_cocycle"])
    sig_b = file_cocycle(rec_b["recovered_cocycle"])

    def d(x, y):
        return sig_b.get(f"{mapping[x]}|{mapping[y]}", 0) - sig_a.get(f"{x}|{y}", 0)

    for key, c in comp_a.items():
        x, y = key.split("|")
        if comp_a.get(f"{y}|{x}") == c and (d(x, y) - d(y, x)) % 1:
            return "cocycle_not_carried"
    return None


SETUPS = {
    "fixtures": setup_fixtures,
    "scaling": setup_scaling,
    "suites": setup_suites,
    "compare": setup_compare,
}
