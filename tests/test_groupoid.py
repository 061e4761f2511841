import itertools

import pytest

from twistalg import (
    FiniteGroupoid,
    all_bisections,
    groupoids_isomorphic,
    is_bisection,
    is_effective,
    standard_fixtures,
    validate_groupoid,
)
from twistalg.errors import InputError
from twistalg.groupoid import subset_inverse, subset_product
from twistalg.seeds import substream


def trivial_groupoid():
    return FiniteGroupoid("pt", ["u"], ["u"], {"u": "u"}, {"u": "u"}, {"u": "u"},
                          {("u", "u"): "u"})


def test_trivial_groupoid_valid():
    assert validate_groupoid(trivial_groupoid()).ok


def test_all_fixtures_valid():
    for name, g in standard_fixtures().items():
        report = validate_groupoid(g)
        assert report.ok, f"{name}: {report.violations}"


def test_fixture_shapes():
    fixtures = standard_fixtures()
    assert len(fixtures["R2"].elements) == 4 and len(fixtures["R2"].units) == 2
    assert len(fixtures["Z4"].elements) == 4 and len(fixtures["Z4"].units) == 1
    assert len(fixtures["R2_disj_Z2"].elements) == 6
    assert len(fixtures["R2_disj_Z2"].units) == 3


def test_wrong_composition_reported():
    r2 = standard_fixtures()["R2"]
    compose = dict(r2.compose)
    compose[("(1,2)", "(1,2)")] = "(1,1)"  # source (1,2) is 2, range is 1
    broken = FiniteGroupoid("bad", r2.elements, r2.units, r2.source, r2.range,
                            r2.inverse, compose)
    report = validate_groupoid(broken)
    assert not report.ok
    assert any(v.message == "non-composable pair composed" for v in report.violations)


def test_missing_source_reported_not_raised():
    g = trivial_groupoid()
    broken = FiniteGroupoid("bad", ["u", "v"], ["u"], {"u": "u"}, {"u": "u", "v": "u"},
                            {"u": "u", "v": "v"}, dict(g.compose))
    report = validate_groupoid(broken)
    assert any(v.axiom == "total-map" for v in report.violations)


def test_non_involutive_inverse_reported():
    z3 = standard_fixtures()["Z3"]
    inverse = dict(z3.inverse)
    inverse["1"] = "1"  # true inverse of 1 is 2
    broken = FiniteGroupoid("bad", z3.elements, z3.units, z3.source, z3.range,
                            inverse, z3.compose)
    report = validate_groupoid(broken)
    assert any(v.axiom in ("inverse-involutive", "inverse-law") for v in report.violations)


def test_bisection_examples():
    r2 = standard_fixtures()["R2"]
    assert is_bisection(r2, ["(1,2)"])
    assert is_bisection(r2, ["(1,1)", "(2,2)"])
    # both elements share source 2, so O O^-1 contains the non-unit
    # (1,2)(2,2) = (1,2); brute-force both product-set conditions
    o = frozenset(["(1,2)", "(2,2)"])
    assert not is_bisection(r2, o)
    oo_inv = subset_product(r2, o, subset_inverse(r2, o))
    inv_oo = subset_product(r2, subset_inverse(r2, o), o)
    assert not (oo_inv <= set(r2.units) and inv_oo <= set(r2.units))
    assert "(1,2)" in oo_inv


def test_bisection_unknown_element():
    r2 = standard_fixtures()["R2"]
    with pytest.raises(InputError):
        is_bisection(r2, ["nope"])


def test_bisections_closed_under_products_and_inverses():
    rng = substream(7, "bisection-closure")
    for name in ("R2", "Z4", "R2_disj_Z2"):
        g = standard_fixtures()[name]
        patterns = all_bisections(g)
        for _ in range(50):
            a = patterns[rng.integers(len(patterns))]
            b = patterns[rng.integers(len(patterns))]
            assert is_bisection(g, subset_product(g, a, b))
            assert is_bisection(g, subset_inverse(g, a))


def test_effectiveness():
    fixtures = standard_fixtures()
    assert is_effective(fixtures["R2"])
    assert not is_effective(fixtures["Z4"])
    assert not is_effective(fixtures["R2_disj_Z2"])


def test_iso_r2_vs_swap():
    fixtures = standard_fixtures()
    result = groupoids_isomorphic(fixtures["R2"], fixtures["Swap2"])
    assert result.found
    mapping = result.mapping
    r2, swap = fixtures["R2"], fixtures["Swap2"]
    for (g, h), k in r2.compose.items():
        assert swap.compose[(mapping[g], mapping[h])] == mapping[k]


def test_iso_z4_vs_v4_distinguished():
    fixtures = standard_fixtures()
    result = groupoids_isomorphic(fixtures["Z4"], fixtures["V4"])
    assert result.status == "not_isomorphic"


def test_iso_identity_and_symmetry():
    for name, g in standard_fixtures().items():
        assert groupoids_isomorphic(g, g).found, name
    fixtures = standard_fixtures()
    assert groupoids_isomorphic(fixtures["Swap2"], fixtures["R2"]).found


def _all_isomorphisms(a, b):
    """Every isomorphism a -> b the search yields, and the nodes it visited."""
    found = []

    def refuse(mapping):
        found.append(mapping)
        return False

    result = groupoids_isomorphic(a, b, accept=refuse)
    assert result.status == "not_isomorphic" and result.rejected == len(found)
    return found, result.nodes_visited


def _brute_force_isomorphisms(a, b):
    """Every bijection a -> b under which x*y is defined iff phi(x)*phi(y) is, and
    phi(x*y) = phi(x)*phi(y)."""
    if len(a) != len(b):
        return []

    def preserves(phi, x, y):
        p, q = a.compose.get((x, y)), b.compose.get((phi[x], phi[y]))
        return p is q is None or (p is not None and q is not None and phi[p] == q)

    bijections = (dict(zip(a.elements, image)) for image in itertools.permutations(b.elements))
    return [phi for phi in bijections
            if all(preserves(phi, x, y) for x in a.elements for y in a.elements)]


def test_iso_search_matches_brute_force():
    small = {n: g for n, g in standard_fixtures().items() if len(g) <= 6}
    for (na, a), (nb, b) in itertools.product(small.items(), repeat=2):
        found, _ = _all_isomorphisms(a, b)
        as_set = {frozenset(m.items()) for m in found}
        assert len(as_set) == len(found), (na, nb)
        assert as_set == {frozenset(m.items()) for m in _brute_force_isomorphisms(a, b)}, (na, nb)


@pytest.mark.parametrize("name, automorphisms, nodes", [
    ("R3", 6, 141), ("R4", 24, 1936), ("V4", 6, 16), ("R2_disj_Z2", 2, 13)])
def test_iso_full_automorphism_walks_pinned(name, automorphisms, nodes):
    g = standard_fixtures()[name]
    found, visited = _all_isomorphisms(g, g)
    assert (len(found), visited) == (automorphisms, nodes)


def test_iso_budget_inconclusive_distinct_from_no():
    r4 = standard_fixtures()["R4"]
    result = groupoids_isomorphic(r4, r4, budget=2)
    assert result.status == "inconclusive"
    assert result.mapping is None
