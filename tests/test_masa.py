import pytest

from twistalg import (
    cartan_criterion,
    commutant_basis,
    is_effective,
    is_masa,
    masa,
    masa_implies_normalisers,
    normalisers_imply_masa_contrapositive,
    standard_contexts,
    suites,
)
from twistalg.algebra import diagonal, is_diagonal, max_coeff_diff
from twistalg.errors import InputError
from twistalg.masa import nonmonomial_normalizer, summable_normalizers_report
from twistalg.relations import general_restriction_le
from twistalg.seeds import substream
from twistalg.semigroups import SemigroupSpec, membership, random_element


def test_commutant_dimension_counts_isotropy(contexts):
    # for the trivially twisted fixtures the commutant dimension is the
    # total isotropy count
    for name in ("R2", "R3", "Z2", "Z4", "V4", "Swap2", "R2_disj_Z2"):
        ctx = contexts[name]
        expected = sum(len(ctx.groupoid.isotropy(u)) for u in ctx.groupoid.units)
        assert commutant_basis(ctx).dimension == expected, name


def test_commutant_vectors_commute_with_diagonal(contexts, rng):
    for name in ("Z4", "R2_disj_Z2", "V4_pauli"):
        ctx = contexts[name]
        for v in commutant_basis(ctx).vectors:
            for u in ctx.groupoid.units:
                du = ctx.delta(u)
                assert max_coeff_diff(v * du, du * v) < 1e-10


def test_masa_iff_effective(contexts):
    for name, ctx in contexts.items():
        assert is_masa(ctx) == is_effective(ctx.groupoid), name


def test_masa_examples(contexts):
    assert is_masa(contexts["R2"]) and is_masa(contexts["R3"]) and is_masa(contexts["R4"])
    assert not is_masa(contexts["Z4"])
    assert not is_masa(contexts["R2_disj_Z2"])
    # commutant witness outside the diagonal for Z4
    z4 = contexts["Z4"]
    witness = [v for v in commutant_basis(z4).vectors if not is_diagonal(v)]
    assert witness


def test_masa_implies_normalisers_sweep(contexts):
    for name in ("R2", "R3", "Swap2"):
        rep = masa_implies_normalisers(contexts[name], substream(10, "min", name))
        assert rep["status"] == "checked"
        assert rep["passed"], rep
    assert contexts["R2"].dimension <= 6  # the R2 run swept all patterns
    assert masa_implies_normalisers(contexts["R2"], substream(10, "s"))["swept"]


def test_masa_implies_normalisers_skipped_when_not_masa(z4):
    rep = masa_implies_normalisers(z4, substream(10, "skip"))
    assert rep["status"] == "skipped"


def test_contrapositive_witnesses(contexts):
    for name in ("Z2", "Z3", "Z4", "V4", "V4_pauli", "R2_disj_Z2"):
        ctx = contexts[name]
        rep = normalisers_imply_masa_contrapositive(ctx, substream(11, "contra", name))
        assert rep["status"] == "checked", name
        assert rep["passed"], (name, rep)


def test_contrapositive_z4_structure(z4):
    c, n, order = nonmonomial_normalizer(z4)
    assert order == 4
    assert diagonal(c).is_zero()
    assert is_diagonal(c * c.star())
    assert membership(SemigroupSpec.normalizers(z4), n)
    assert not membership(SemigroupSpec.monomial(z4), n)
    # the expectation of the witness is not a restriction of it
    assert not general_restriction_le(diagonal(n), n)


def test_contrapositive_disjoint_union_witness_on_isotropy(contexts):
    ctx = contexts["R2_disj_Z2"]
    c, n, order = nonmonomial_normalizer(ctx)
    assert order == 2
    assert set(c.support()) <= {"Z2:1"}
    assert set(n.support()) <= {"Z2:0", "Z2:1"}


def test_contrapositive_skipped_on_masa(r2):
    rep = normalisers_imply_masa_contrapositive(r2, substream(11, "skip"))
    assert rep["status"] == "skipped"


def test_nonmonomial_normalizer_requires_isotropy(r2):
    with pytest.raises(InputError):
        nonmonomial_normalizer(r2)


def test_cartan_criterion_matches_masa(contexts):
    for name, ctx in contexts.items():
        rep = cartan_criterion(ctx, substream(12, "crit", name))
        assert rep["passed"], (name, rep)
        assert rep["expectation_faithful"], name
        assert rep["criterion"] == rep["is_masa"], name


def test_cartan_criterion_names_failing_normalizer(z4):
    rep = cartan_criterion(z4, substream(12, "crit-z4"))
    assert not rep["criterion"]
    assert rep["failing_normalizer"] is not None


def test_expectation_faithful_everywhere(contexts, rng):
    for name, ctx in contexts.items():
        for _ in range(20):
            a = random_element(ctx, rng)
            if diagonal(a.star() * a).is_zero():
                assert a.is_zero()


def test_summable_normalizers(contexts):
    for name in ("R2", "Z4", "V4_pauli"):
        rep = summable_normalizers_report(contexts[name], substream(13, "sum", name))
        assert rep["passed"], (name, rep)


def test_commutant_is_solved_once_per_context(monkeypatch):
    """masa_suite's own solve serves the is_masa inside all three theorem checks."""
    ctx = standard_contexts()["Z4"]
    solved = []
    solve = masa.commutant_basis

    def counting(c):
        solved.append(c)
        return solve(c)

    monkeypatch.setattr(masa, "commutant_basis", counting)
    monkeypatch.setattr(suites, "commutant_basis", counting)
    report = suites.masa_suite(ctx)
    assert report["passed"] and report["commutant_dimension"] == 4
    assert is_masa(ctx) is False
    assert solved == [ctx]
