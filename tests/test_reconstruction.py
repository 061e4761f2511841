from fractions import Fraction

import pytest

from twistalg import (
    NotCartanError,
    SemigroupSpec,
    angle,
    check_filter_axioms,
    groupoids_isomorphic,
    hat,
    magnitude,
    recover_cocycle,
    reconstruct,
    source_state,
    twist_point,
    ultrafilter_at,
    ultrafilter_product,
)
from twistalg.algebra import Cocycle, Phase, TwistedAlgebra, diagonal, max_coeff_diff
from twistalg.errors import InputError
from twistalg.fileio import dumps
from twistalg.groupoid import FiniteGroupoid, cyclic_group
from twistalg.reconstruction import (
    basic_set,
    equivalent_in,
    product_criterion_report,
    rebuild_groupoid,
    unit_space_report,
)
from twistalg.seeds import substream
from twistalg.semigroups import BisectionBasis, random_element, random_monomial
from twistalg.suites import _random_restriction


def test_ultrafilter_membership(r2):
    u = ultrafilter_at(r2, "(1,2)")
    assert u.contains(r2.delta("(1,2)"))
    assert not u.contains(r2.delta("(2,1)"))
    two = r2.delta("(1,2)") + r2.delta("(2,1)")
    assert u.contains(two) and ultrafilter_at(r2, "(2,1)").contains(two)
    assert not u.contains(r2.zero())


def test_filter_axioms_on_samples(r2, rng):
    u = ultrafilter_at(r2, "(1,2)")
    sample = [r2.delta("(1,2)"), 3 * r2.delta("(1,2)"),
              r2.delta("(1,2)") + r2.delta("(2,1)"), r2.delta("(2,1)")]
    rep = check_filter_axioms(u, sample)
    assert rep["proper"] and rep["down_directed"] and rep["up_closed"]
    assert rep["additively_prime"]


def test_filter_axioms_report_first_failing_pair(contexts):
    z2 = contexts["Z2"]
    # Below the zero tolerance each is outside U_1, but their sums are inside.
    first, second = 0.8e-9 * z2.delta("1"), 0.7e-9 * z2.delta("1")
    rep = check_filter_axioms(ultrafilter_at(z2, "1"), [first, second])
    assert not rep["additively_prime"]
    assert rep["prime_witness"] == (repr(first), repr(first))


def test_ultrafilter_products(r2):
    uu = ultrafilter_at(r2, "(1,1)")
    assert ultrafilter_product(uu, uu).g == "(1,1)"
    u12, u21 = ultrafilter_at(r2, "(1,2)"), ultrafilter_at(r2, "(2,1)")
    assert ultrafilter_product(u12, u21).g == "(1,1)"
    assert ultrafilter_product(u12, u12) is None
    # the zero-product witness backing the undefined case
    assert (r2.delta("(1,2)") * r2.delta("(1,2)")).is_zero()


def test_product_criterion_exhaustive(contexts):
    for name in ("R2", "Z4", "V4_pauli", "R2_disj_Z2"):
        rep = product_criterion_report(contexts[name], substream(8, "pc", name))
        assert rep["passed"], (name, rep)


def test_unit_space_characterizations(contexts):
    for name in ("R2", "Z3", "V4_pauli", "Swap2", "R2_disj_Z2"):
        rep = unit_space_report(contexts[name], substream(9, "us", name))
        assert rep["passed"], (name, rep)


def test_unit_ultrafilter_counts(z4, r2):
    assert sum(ultrafilter_at(z4, g).meets_diagonal() for g in z4.groupoid.elements) == 1
    assert sum(ultrafilter_at(r2, g).meets_diagonal() for g in r2.groupoid.elements) == 2
    # the basic set of E(delta_(1,2)) is empty, matching U_n restricted to units
    assert basic_set(r2, diagonal(r2.delta("(1,2)"))) == frozenset()
    assert basic_set(r2, r2.one()) == frozenset(r2.groupoid.units)


def test_source_state_examples(r2):
    u = ultrafilter_at(r2, "(1,2)")
    assert source_state(u, r2.delta("(2,2)")) == 1  # source of (1,2) is unit 2
    with pytest.raises(InputError):
        source_state(u, r2.delta("(1,2)"))
    # on unit ultrafilters, nonvanishing of the state is exactly membership
    for unit in r2.groupoid.units:
        uf = ultrafilter_at(r2, unit)
        for b in (r2.delta("(2,2)", 0.4), r2.delta("(1,1)"), r2.zero()):
            assert uf.contains(b) == (abs(source_state(uf, b)) > 1e-9)


def test_magnitude_examples(r2):
    u = ultrafilter_at(r2, "(1,2)")
    assert abs(magnitude(u, r2.delta("(1,2)")) - 1) < 1e-12
    assert abs(magnitude(u, r2.delta("(1,2)", 3j)) - 3) < 1e-12
    with pytest.raises(InputError):
        magnitude(u, r2.delta("(2,1)"))


def test_magnitude_multiplicative(r3, rng):
    gpd = r3.groupoid
    for _ in range(100):
        pairs = list(gpd.compose)
        g, h = pairs[rng.integers(len(pairs))]
        m = _monomial_through(r3, g, rng)
        n = _monomial_through(r3, h, rng)
        lhs = magnitude(ultrafilter_at(r3, gpd.compose[(g, h)]), m * n)
        rhs = magnitude(ultrafilter_at(r3, g), m) * magnitude(ultrafilter_at(r3, h), n)
        assert abs(lhs - rhs) < 1e-12


def _monomial_through(ctx, g, rng):
    from twistalg.reconstruction import _monomial_through as mt

    return mt(ctx, g, rng)


def test_angle_examples(r2):
    u = ultrafilter_at(r2, "(1,2)")
    n = r2.delta("(1,2)")
    assert abs(angle(u, n, n) - 1) < 1e-12
    assert abs(angle(u, 1j * n, n) - 1j) < 1e-12
    m = r2.delta("(1,2)", 2 - 2j)
    assert abs(angle(u, m, n) - angle(u, n, m).conjugate()) < 1e-12


def test_twist_points(r2, rng):
    u = ultrafilter_at(r2, "(1,2)")
    assert twist_point(r2.delta("(1,2)"), u).phase == 1
    assert twist_point(r2.delta("(1,2)", 1j), u).phase == 1j
    for _ in range(200):
        m = _monomial_through(r2, "(1,2)", rng)
        n = _monomial_through(r2, "(1,2)", rng)
        assert equivalent_in(u, m, n) == twist_point(m, u).approx_eq(twist_point(n, u))


def _z3_coboundary(d):
    """Z3 twisted by the coboundary of b(1) = 1/d."""
    z3 = cyclic_group(3)
    b = {"0": Fraction(0), "1": Fraction(1, d), "2": Fraction(0)}
    return TwistedAlgebra(z3, Cocycle(z3, {
        (g, h): Phase((b[g] + b[h] - b[gh]) % 1) for (g, h), gh in z3.compose.items()
    }))


def test_recover_cocycle_trivial_and_pauli(r2, v4_pauli):
    recovered, residual = recover_cocycle(r2)
    assert residual < 1e-9
    assert not recovered.values  # identically one
    # Z3 twisted by the coboundary of b(1) = 1/d: phases finer than 1/64 turn, and
    # (d = 10^9) finer than a float angle resolves without knowing the grid.
    for ctx in (v4_pauli, _z3_coboundary(100), _z3_coboundary(10**9)):
        recovered, residual = recover_cocycle(ctx)
        assert residual < 1e-9
        for pair, phase in ctx.cocycle.values.items():
            assert recovered.values[pair].turns == phase.turns


def test_recover_cocycle_refuses_grids_beyond_float_resolution():
    recovered, _ = recover_cocycle(_z3_coboundary(10**12))
    assert recovered.values[("1", "1")].turns == Fraction(2, 10**12)
    with pytest.raises(InputError, match="1/1000000000000 turn"):
        recover_cocycle(_z3_coboundary(10**13))


def test_hat_examples(r2, r3, rng):
    h = hat(r2.delta("(1,2)"))
    assert abs(h.coeff("(1,2)") - 1) < 1e-12
    assert abs(h.coeff("(2,1)")) < 1e-12
    for _ in range(100):
        a = random_element(r3, rng)
        assert max_coeff_diff(hat(a), a) < 1e-9


def test_rebuild_groupoid_fresh_labels(r2):
    rebuilt, label = rebuild_groupoid(r2, SemigroupSpec.monomial(r2))
    assert set(rebuilt.elements) == {f"p{i}" for i in range(4)}
    assert len(rebuilt.units) == 2
    assert groupoids_isomorphic(r2.groupoid, rebuilt).found


def test_reconstruct_passes_and_is_deterministic(r2):
    rep1 = reconstruct(r2, seed=123)
    rep2 = reconstruct(r2, seed=123)
    assert rep1.passed
    assert dumps(rep1.to_dict()) == dumps(rep2.to_dict())


def test_reconstruct_with_offdiag_basis(r2):
    units = list(r2.groupoid.units)
    basis = BisectionBasis(
        r2.groupoid, [[], units, [units[0]], [units[1]], ["(1,2)"], ["(2,1)"]]
    )
    spec = SemigroupSpec.basis_restricted(r2, basis)
    rep = reconstruct(r2, spec)
    assert rep.isomorphism["status"] == "isomorphic"
    assert rep.cocycle_residual < 1e-9
    assert rep.summable_image["passed"]


def test_reconstruct_refuses_non_cartan(r2):
    spec = SemigroupSpec.explicit(r2, [r2.delta(u) for u in r2.groupoid.units])
    with pytest.raises(NotCartanError) as err:
        reconstruct(r2, spec)
    assert any("dense span" in f for f in err.value.failures)


def test_cross_reconstruction_distinguishes_z4_v4(contexts):
    rep_z4 = reconstruct(contexts["Z4"])
    rep_v4 = reconstruct(contexts["V4"])
    a = _from_tables(rep_z4.rebuilt_groupoid)
    b = _from_tables(rep_v4.rebuilt_groupoid)
    assert groupoids_isomorphic(a, b).status == "not_isomorphic"


def _from_tables(doc):
    compose = {tuple(k.split("|")): v for k, v in doc["compose"].items()}
    return FiniteGroupoid("x", doc["elements"], doc["units"], doc["source"],
                          doc["range"], doc["inverse"], compose)


def test_domination_matches_basic_set_containment(r3, rng):
    from twistalg.relations import dominates

    for _ in range(200):
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng, rescale=True) if rng.random() < 0.5 \
            else random_monomial(r3, rng)
        assert (dominates(m, n) is not None) == (basic_set(r3, m) <= basic_set(r3, n))
