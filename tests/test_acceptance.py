"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from twistalg import (
    BisectionBasis,
    SemigroupSpec,
    check_cartan,
    csum_closure,
    cstar_norm,
    is_effective,
    is_masa,
    membership,
    reconstruct,
    reduced_norm_formula,
    regular_representation,
    standard_contexts,
)
from twistalg.algebra import diagonal, is_diagonal
from twistalg.cli import main as cli_main
from twistalg.groupoid import all_bisections
from twistalg.reconstruction import basic_set, ultrafilter_at, ultrafilter_product
from twistalg.masa import (
    cartan_criterion,
    masa_implies_normalisers,
    normalisers_imply_masa_contrapositive,
)
from twistalg.relations import (
    _ball_checks,
    ball_witness,
    certify_domination,
    dominates,
    predomain_interpolant,
)
from twistalg.seeds import substream
from twistalg.semigroups import random_element, random_monomial
from twistalg.suites import (
    _random_restriction,
    expectation_suite,
    relations_suite,
    states_suite,
)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 42


@pytest.fixture(scope="module")
def ctxs():
    return standard_contexts()


def verdict(number, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_roundtrip_reconstruction(ctxs):
    slowest = 0.0
    for name, ctx in ctxs.items():
        start = time.perf_counter()
        report = reconstruct(ctx, seed=SEED)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert report.isomorphism["status"] == "isomorphic", name
        assert report.cocycle_residual < 1e-9, name
        assert report.passed, (name, report.theorems)
        assert elapsed < 5.0, (name, elapsed)
    verdict(1, True, f"round-trip reconstruction on all 10 fixtures "
                     f"(cocycle residual < 1e-9, slowest {slowest:.2f}s < 5s)")


def test_criterion_2_distinguishing_power(ctxs, tmp_path):
    pair = {}
    for name in ("Z4", "V4"):
        ctx = ctxs[name]
        mats = [regular_representation(ctx.delta(g)).blocks[ctx.groupoid.units[0]]
                for g in ctx.groupoid.elements]
        stack = np.array([m.ravel() for m in mats])
        assert np.linalg.matrix_rank(stack) == 4, name
        assert all(np.abs(a @ b - b @ a).max() < 1e-12 for a in mats for b in mats), name
        # simultaneous diagonalization by a generic self-adjoint element:
        # complex coefficients keep conjugate characters from degenerating
        rng = substream(SEED, "criterion2", name)
        coeffs = rng.normal(size=len(mats)) + 1j * rng.normal(size=len(mats))
        a = sum(c * m for c, m in zip(coeffs, mats))
        h = a + a.conj().T
        _, vecs = np.linalg.eigh(h)
        diagonalized = [vecs.conj().T @ m @ vecs for m in mats]
        for d in diagonalized:
            off = d - np.diag(np.diag(d))
            assert np.abs(off).max() < 1e-9, name
        # four joint characters spanning C^4: the spectra match as multisets
        value_matrix = np.array([np.diag(d) for d in diagonalized])
        assert np.linalg.matrix_rank(value_matrix) == 4, name
        pair[name] = value_matrix
        assert len(ctx.groupoid.units) == 1  # one-dimensional diagonal
    # both algebras are commutative C^4 with one-dimensional diagonal, yet
    # compare on the reconstructions tells them apart
    reports = {}
    for name, fname in (("Z4", "z4"), ("V4", "v4")):
        out = tmp_path / f"{fname}.json"
        assert cli_main(["reconstruct", str(FIXDIR / f"{fname}.json"), "--out", str(out)]) == 0
        reports[name] = out
    code = cli_main(["compare", str(reports["Z4"]), str(reports["V4"])])
    assert code == 1
    verdict(2, True, "Z4 and V4 give *-isomorphic 4-dim commutative algebras with "
                     "1-dim diagonals, but compare exits 1")


def test_criterion_3_cartan_axiom_suite(ctxs):
    for name, ctx in ctxs.items():
        report = check_cartan(SemigroupSpec.monomial(ctx), substream(SEED, "c3", name))
        assert report.cartan and report.summable, (name, report.failures())
    r2 = ctxs["R2"]
    units = list(r2.groupoid.units)
    basis = BisectionBasis(r2.groupoid,
                           [[], units, [units[0]], [units[1]], ["(1,2)"], ["(2,1)"]])
    spec = SemigroupSpec.basis_restricted(r2, basis)
    report = check_cartan(spec, substream(SEED, "c3-basis"))
    assert report.cartan and not report.summable
    lhs, rhs = report.summable_witness
    assert {"(1,2)", "(2,1)"} <= set(s for w in (lhs, rhs) for s in ("(1,2)", "(2,1)") if s in w)
    closed = csum_closure(spec)
    mono = SemigroupSpec.monomial(r2)
    rng = substream(SEED, "c3-sweep")
    for k in range(len(r2.groupoid.elements) + 1):
        for pattern in itertools.combinations(r2.groupoid.elements, k):
            for _ in range(2):
                a = r2.element({g: complex(0.3 + rng.random(), rng.random())
                                for g in pattern})
                assert membership(closed, a) == membership(mono, a), pattern
    verdict(3, True, "monomial semigroup is summable Cartan everywhere; the "
                     "restricted-basis semigroup fails only summability with the "
                     "off-diagonal witness pair and its csum closure is monomial")


def test_criterion_4_relation_oracles(ctxs):
    for name, ctx in ctxs.items():
        out = relations_suite(ctx, seed=SEED)
        assert out["oracle_pairs"] >= 200, name
        assert out["oracle_disagreements"] == 0, name
        for law in ("partial_order_ok", "auxiliarity_ok", "expectation_invariance_ok",
                    "star_invariance_ok", "sum_closure_ok"):
            assert out[law], (name, law)
    verdict(4, True, "domination/restriction certificates agree with the support "
                     "oracles on 200 pairs per fixture; order laws hold on 100 cases")


def test_criterion_5_expectation_characterization(ctxs):
    for name, ctx in ctxs.items():
        out = expectation_suite(ctx, seed=SEED)
        assert out["emax_matches_diagonal"], name
        assert out["normal_residual"] < 1e-10, (name, out["normal_residual"])
        assert out["shiftable_residual"] < 1e-10, (name, out["shiftable_residual"])
        assert out["bistable_ok"], name
    verdict(5, True, "restriction-maximal diagonal part reproduces E on sweeps; "
                     "normality, shiftability, bistability residuals < 1e-10")


def test_criterion_6_states_and_angles(ctxs):
    for name, ctx in ctxs.items():
        out = states_suite(ctx, seed=SEED)
        st = out["states"]
        for key in ("quotient_identity_residual", "magnitude_residual",
                    "expectation_magnitude_residual", "angle_laws_residual",
                    "angle_product_residual"):
            assert st[key] <= 1e-12, (name, key, st[key])
        assert out["passed"], name
    verdict(6, True, "state quotient identity, magnitude laws, and angle "
                     "chain/product rules hold to 1e-12 on 100 samples per fixture; "
                     "the angle formula never leaves the direct-phase oracle by 1e-9")


def test_criterion_7_ultrafilter_groupoid_laws(ctxs):
    for name, ctx in ctxs.items():
        gpd = ctx.groupoid
        # product defined iff no zero product, exhaustively on delta pairs
        for a in gpd.elements:
            for b in gpd.elements:
                defined = ultrafilter_product(ultrafilter_at(ctx, a),
                                              ultrafilter_at(ctx, b)) is not None
                assert defined == (not (ctx.delta(a) * ctx.delta(b)).is_zero()), (name, a, b)
                # basic-set product identity on the same pairs
                lhs = basic_set(ctx.delta(a) * ctx.delta(b))
                prod = gpd.product(a, b)
                assert lhs == (frozenset([prod]) if prod else frozenset())
        # diagonal iff basic set inside the units, over every bisection pattern
        for pattern in all_bisections(gpd):
            elem = ctx.element({g: 1 + 0j for g in pattern})
            assert (basic_set(elem) <= set(gpd.units)) == is_diagonal(elem)
            e_sets = basic_set(diagonal(elem))
            assert e_sets == basic_set(elem) & frozenset(gpd.units)
        # additive primeness and the complement map, exhaustively on deltas
        for g in gpd.elements:
            u = ultrafilter_at(ctx, g)
            for a in gpd.elements:
                for b in gpd.elements:
                    s = ctx.delta(a) + ctx.delta(b)
                    if u.contains(s):
                        assert u.contains(ctx.delta(a)) or u.contains(ctx.delta(b))
        kernels = set()
        for u in gpd.units:
            uf = ultrafilter_at(ctx, u)
            kernel = frozenset(v for v in gpd.units if not uf.contains(ctx.delta(v)))
            assert kernel == frozenset(v for v in gpd.units if v != u)
            kernels.add(kernel)
        assert len(kernels) == len(gpd.units)
    verdict(7, True, "product criterion, basic-set identities, unit "
                     "characterizations, primeness and the complement map verified "
                     "exhaustively per fixture")


def test_criterion_8_norms(ctxs):
    formula_res = 0.0
    for name, ctx in ctxs.items():
        for g in ctx.groupoid.elements:
            assert abs(cstar_norm(ctx.delta(g)) - 1) < 1e-12, (name, g)
        rng = substream(SEED, "c8", name)
        for _ in range(100):
            a = random_element(ctx, rng)
            na = cstar_norm(a)
            assert abs(cstar_norm(a.star() * a) - na ** 2) < 1e-9, name
            formula_res = max(formula_res, abs(reduced_norm_formula(a) - na))
    assert formula_res < 1e-9
    verdict(8, True, f"unit delta norms, C*-identity residuals < 1e-9, and the "
                     f"reduced-norm formula, computed exactly from the Gram blocks, "
                     f"within {formula_res:.1e} of the operator norm on 100 elements "
                     f"per fixture")


def test_criterion_9_masa_theorems(ctxs):
    for name, ctx in ctxs.items():
        assert is_masa(ctx) == is_effective(ctx.groupoid), name
        forward = masa_implies_normalisers(ctx, substream(SEED, "c9f", name))
        if is_masa(ctx):
            assert forward["status"] == "checked" and forward["passed"], name
            if len(ctx.groupoid.elements) <= 6:
                assert forward["swept"], name
        else:
            contra = normalisers_imply_masa_contrapositive(ctx, substream(SEED, "c9c", name))
            assert contra["status"] == "checked" and contra["passed"], (name, contra)
        criterion = cartan_criterion(ctx, substream(SEED, "c9crit", name))
        assert criterion["passed"], (name, criterion)
    verdict(9, True, "MASA iff effective; sweeps, contrapositive witnesses and the "
                     "restriction criterion agree on every fixture")


def test_criterion_10_ball_and_predomain_witnesses(ctxs):
    for name, ctx in ctxs.items():
        rng = substream(SEED, "c10", name)
        certified = 0
        attempts = 0
        while certified < 100 and attempts < 3000:
            attempts += 1
            n = random_monomial(ctx, rng)
            m = _random_restriction(n, rng, rescale=True)
            if dominates(m, n) is None:
                continue
            t = ball_witness(m, n)
            checks = _ball_checks(certify_domination(m, t, n))
            assert checks["ok"], (name, checks)
            family = [m, _random_restriction(n, rng, rescale=True),
                      _random_restriction(n, rng, rescale=True)]
            if all(dominates(x, n) is not None for x in family):
                l = predomain_interpolant(family, n)
                assert all(certify_domination(x, l.star(), l).ok for x in family), name
                assert dominates(l, n) is not None, name
            certified += 1
        assert certified >= 100, (name, certified)
    verdict(10, True, "ball-witness five-condition certificates and predomain "
                      "interpolants pass on 100 certified pairs/triples per fixture")
