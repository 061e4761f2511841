import itertools

import numpy as np
import pytest

from twistalg import (
    BisectionBasis,
    SemigroupSpec,
    check_cartan,
    compatible,
    csum_closure,
    membership,
)
from twistalg.algebra import diagonal_function, is_diagonal, is_positive, max_coeff_diff
from twistalg.errors import InputError
from twistalg.seeds import substream
from twistalg.semigroups import (
    _bisection_pattern_pairs,
    _in_span,
    _orthonormal_basis,
    first_unsummable,
    positive_cone_algebra,
    random_diagonal,
    random_element,
    random_monomial,
    sample_members,
)


def offdiag_basis(r2):
    units = list(r2.groupoid.units)
    return BisectionBasis(
        r2.groupoid,
        [[], units, [units[0]], [units[1]], ["(1,2)"], ["(2,1)"]],
    )


def unit_pattern_elements(ctx):
    """One unit-coefficient element per support pattern."""
    elems = ctx.groupoid.elements
    for k in range(len(elems) + 1):
        for pattern in itertools.combinations(elems, k):
            yield ctx.element({g: 1 + 0j for g in pattern})


def test_membership_monomial_examples(r2):
    mono = SemigroupSpec.monomial(r2)
    for g in r2.groupoid.elements:
        assert membership(mono, r2.delta(g))
    assert membership(mono, r2.delta("(1,2)") + r2.delta("(2,1)"))
    assert not membership(mono, r2.delta("(1,1)") + r2.delta("(1,2)"))


def test_membership_basis_excludes_offdiagonal_pair(r2):
    nb = SemigroupSpec.basis_restricted(r2, offdiag_basis(r2))
    offdiag = r2.delta("(1,2)") + r2.delta("(2,1)")
    assert membership(SemigroupSpec.monomial(r2), offdiag)
    assert not membership(nb, offdiag)
    assert membership(nb, r2.delta("(1,2)"))
    assert membership(nb, 2j * r2.delta("(2,1)"))


def test_basis_closure_validated(r2):
    with pytest.raises(InputError):  # missing unit space
        BisectionBasis(r2.groupoid, [["(1,2)"]])
    with pytest.raises(InputError):  # not closed under subsets
        BisectionBasis(r2.groupoid, [list(r2.groupoid.units)])
    with pytest.raises(InputError):  # not closed under inverses
        units = list(r2.groupoid.units)
        BisectionBasis(r2.groupoid, [[], units, [units[0]], [units[1]], ["(1,2)"]])


def test_monomial_cartan_on_all_fixtures(contexts):
    for name, ctx in contexts.items():
        report = check_cartan(SemigroupSpec.monomial(ctx), substream(3, "cartan", name))
        assert report.cartan, (name, report.failures())
        assert report.summable, name
        assert report.span_dimension == ctx.dimension


def test_basis_spec_cartan_but_not_summable(r2):
    nb = SemigroupSpec.basis_restricted(r2, offdiag_basis(r2))
    report = check_cartan(nb, substream(4, "nb"))
    assert report.cartan
    assert not report.summable
    assert report.summable_witness is not None
    lhs, rhs = report.summable_witness
    assert "(1,2)" in lhs + rhs and "(2,1)" in lhs + rhs


def singleton_basis(ctx):
    """Every diagonal bisection and every single point: a basis whose sums of
    compatible off-diagonal points are not members."""
    gpd = ctx.groupoid
    units = list(gpd.units)
    subsets = [list(c) for k in range(len(units) + 1) for c in itertools.combinations(units, k)]
    return BisectionBasis(gpd, subsets + [[g] for g in gpd.elements])


@pytest.mark.parametrize("name", ["R2", "R3", "R4", "R2_disj_Z2"])
def test_summable_witness_matches_the_pairwise_sweep(contexts, name):
    """The batched pattern sweep reports the first witness of the pairwise one."""
    ctx = contexts[name]
    spec = SemigroupSpec.basis_restricted(ctx, singleton_basis(ctx))
    sweep = _bisection_pattern_pairs(ctx, spec)
    oracle = first_unsummable(spec, itertools.combinations(sweep, 2))
    assert oracle is not None
    assert check_cartan(spec, substream(8, "sweep", name)).summable_witness == oracle


def test_explicit_spec_fails_dense_span(r2):
    units = list(r2.groupoid.units)
    basis = BisectionBasis(r2.groupoid, [[], units, [units[0]], [units[1]]])
    spec = SemigroupSpec.basis_restricted(r2, basis)
    report = check_cartan(spec, substream(5, "explicit"))
    assert not report.dense_span
    assert report.span_dimension == 2


def test_csum_of_monomial_is_monomial(r3, rng):
    mono = SemigroupSpec.monomial(r3)
    closed = csum_closure(mono)
    for _ in range(100):
        a = random_element(r3, rng)
        assert membership(mono, a) == membership(closed, a)


def test_csum_of_offdiag_basis_is_full_monomial(r2):
    nb = SemigroupSpec.basis_restricted(r2, offdiag_basis(r2))
    closed = csum_closure(nb)
    mono = SemigroupSpec.monomial(r2)
    rng = substream(6, "csum-sweep")
    for base in unit_pattern_elements(r2):
        for _ in range(2):
            a = r2.element({g: complex(0.2 + rng.random(), rng.random())
                            for g in base.coeffs})
            assert membership(closed, a) == membership(mono, a)
    # the witness pair is compatible and its sum joins the closure
    m, n = r2.delta("(1,2)"), r2.delta("(2,1)")
    assert compatible(m, n)
    assert membership(closed, m + n)


def test_csum_closure_of_closed_kinds_is_the_spec(r2):
    for spec in (SemigroupSpec.monomial(r2), SemigroupSpec.normalizers(r2)):
        assert csum_closure(spec) is spec
    closed = csum_closure(SemigroupSpec.basis_restricted(r2, offdiag_basis(r2)))
    assert closed.kind == "csum"
    assert csum_closure(closed) is closed


def test_csum_preserves_cartan(r2):
    nb = SemigroupSpec.basis_restricted(r2, offdiag_basis(r2))
    report = check_cartan(csum_closure(nb), substream(7, "csum-cartan"))
    assert report.cartan
    assert report.summable


def test_normalizers_r2_equal_monomials(r2, rng):
    normal = SemigroupSpec.normalizers(r2)
    mono = SemigroupSpec.monomial(r2)
    for _ in range(100):
        a = random_element(r2, rng)
        assert membership(normal, a) == membership(mono, a)
    dense = r2.element({g: 1.0 for g in r2.groupoid.elements})
    assert not membership(normal, dense)


def test_normalizers_z4_examples(z4):
    normal = SemigroupSpec.normalizers(z4)
    assert not membership(normal, z4.delta("0") + z4.delta("1"))
    fourier = 0.5 * (z4.delta("0") + z4.delta("1") + z4.delta("2") - z4.delta("3"))
    assert membership(normal, fourier)
    nn = fourier.star() * fourier
    assert is_diagonal(nn)
    for g in z4.groupoid.elements:
        assert membership(normal, 2.7j * z4.delta(g))


def test_positive_cone_is_diagonal_positive(r3, z4, rng):
    for ctx in (r3, z4):
        mono = SemigroupSpec.monomial(ctx)
        for _ in range(50):
            n = random_monomial(ctx, rng)
            sq = n.star() * n
            assert is_diagonal(sq)
            assert all(c.real > -1e-12 and abs(c.imag) < 1e-12 for c in sq.coeffs.values())
            assert membership(mono, sq)
        # every positive diagonal is a square from the semigroup
        b = random_diagonal(ctx, rng, positive=True)
        root = diagonal_function(b, np.sqrt)
        assert max_coeff_diff(root.star() * root, b) < 1e-12


def test_positive_cone_closes_the_span_under_products(r3):
    """The square diag(1, 2, 0) spans a line its own square leaves, so the closure grows."""
    n = r3.delta("(1,1)") + 2 ** 0.5 * r3.delta("(2,2)")
    basis, rows = positive_cone_algebra(SemigroupSpec.monomial(r3), [n])
    expected = np.array([r3.delta(u).vector() for u in ("(1,1)", "(2,2)")])
    assert basis.shape[0] == 2
    assert np.linalg.matrix_rank(np.vstack([basis, expected])) == 2
    assert all(np.array_equal(x.vector(), row) for x, row in zip(rows, basis))


def _generator_pair_closure(spec, members):
    """C*(N+) closed over every ordered pair of the squares and of the products
    found so far: the route positive_cone_algebra replaced, kept as an oracle."""
    gens = [g for g in (m.star() * m for m in members) if not g.is_zero()]
    basis = _orthonormal_basis([g.vector() for g in gens])
    elements = list(gens)
    while True:
        dim = basis.shape[0]
        new = [a * b for a, b in itertools.product(elements, repeat=2)]
        new = [p for p in new if not _in_span(p.vector(), basis, spec.ctx.zero_tol)]
        if not new:
            return basis
        elements.extend(new)
        basis = _orthonormal_basis(list(basis) + [p.vector() for p in new])
        if basis.shape[0] == dim:
            return basis


SPEC_KINDS = {
    "monomial": SemigroupSpec.monomial,
    "normalizers": SemigroupSpec.normalizers,
    "basis": lambda ctx: SemigroupSpec.basis_restricted(ctx, singleton_basis(ctx)),
    "csum": lambda ctx: csum_closure(SemigroupSpec.basis_restricted(ctx, singleton_basis(ctx))),
}


@pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
def test_positive_cone_spans_what_the_generator_pair_closure_spans(contexts, kind):
    for name, ctx in contexts.items():
        spec = SPEC_KINDS[kind](ctx)
        members = sample_members(spec, substream(9, "cone", kind, name))
        basis, _ = positive_cone_algebra(spec, members)
        oracle = _generator_pair_closure(spec, members)
        assert basis.shape == oracle.shape, name
        assert np.linalg.matrix_rank(np.vstack([basis, oracle]), tol=1e-8) == len(oracle), name


def test_positive_monomials_are_diagonal(r2, z4, rng):
    for ctx in (r2, z4):
        for base in unit_pattern_elements(ctx):
            if not membership(SemigroupSpec.monomial(ctx), base):
                continue
            if is_positive(base):
                assert is_diagonal(base)


def test_binormality(r3, rng):
    for _ in range(60):
        m, n = random_monomial(r3, rng), random_monomial(r3, rng)
        if not is_diagonal(m * n):
            continue
        b = random_diagonal(r3, rng)
        assert is_diagonal(m * (b * n))


def test_symmetry_lemma(r3, v4_pauli, rng):
    for ctx in (r3, v4_pauli):
        for _ in range(60):
            l, m = random_monomial(ctx, rng), random_monomial(ctx, rng)
            if is_diagonal(l * m):
                assert is_diagonal(m * l * m * l)


def test_right_identity_transfers_to_adjoint(r3, rng):
    # m = mn forces m = mn*, exercised on constructed pairs
    gpd = r3.groupoid
    for _ in range(40):
        m = random_monomial(r3, rng)
        touched = {gpd.source[g] for g in m.support()}
        junk = random_monomial(r3, rng)
        extra = {
            h: c for h, c in junk.coeffs.items()
            if gpd.source[h] not in touched and gpd.range[h] not in touched
            and not gpd.is_unit(h)
        }
        n = r3.indicator(sorted(touched, key=gpd.index)) + r3.element(extra)
        if not membership(SemigroupSpec.monomial(r3), n):
            continue
        assert max_coeff_diff(m * n, m) < 1e-12
        assert max_coeff_diff(m * n.star(), m) < 1e-12
