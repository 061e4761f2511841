import itertools
from collections import Counter

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
from twistalg.groupoid import (
    _POINT_AXIOMS,
    Violation,
    _Budget,
    cyclic_group,
    disjoint_union,
    full_relation,
    group,
    iter_isomorphisms,
    subset_inverse,
    subset_product,
    table_violations,
    transformation_groupoid,
)
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


def _corrupted(g, elements=None, units=None, **changes):
    """g with its element or unit list replaced, or entries of its tables changed;
    a compose entry changed to None drops that pair."""
    t = {name: {**getattr(g, name), **changes.get(name, {})}
         for name in ("source", "range", "inverse", "compose")}
    compose = {pair: k for pair, k in t["compose"].items() if k is not None}
    return FiniteGroupoid("bad", elements or g.elements, units or g.units,
                          t["source"], t["range"], t["inverse"], compose)


# axiom -> (a minimal corruption of z2 or r2, the witness it is reported with)
AXIOM_WITNESSES = {
    "distinct-elements": (lambda z2, r2: _corrupted(z2, elements=["0", "1", "1"]), ()),
    "units-subset": (lambda z2, r2: _corrupted(z2, units=["0", "x"]), ("x",)),
    "distinct-units": (lambda z2, r2: _corrupted(z2, units=["0", "0"]), ("0",)),
    "source-unit": (lambda z2, r2: _corrupted(z2, source={"1": "1"}), ("1", "1")),
    "range-unit": (lambda z2, r2: _corrupted(z2, range={"1": "1"}), ("1", "1")),
    "unit-fixed": (lambda z2, r2: _corrupted(r2, source={"(1,1)": "(2,2)"}), ("(1,1)",)),
    "unit-inverse": (lambda z2, r2: _corrupted(z2, inverse={"0": "1"}), ("0",)),
    "compose-ids": (lambda z2, r2: _corrupted(z2, compose={("1", "1"): "x"}), ("1", "1", "x")),
    "compose-domain": (lambda z2, r2: _corrupted(r2, compose={("(1,2)", "(1,2)"): "(1,1)"}),
                       ("(1,2)", "(1,2)")),
    "compose-endpoints": (lambda z2, r2: _corrupted(r2, compose={("(1,2)", "(2,1)"): "(2,2)"}),
                          ("(1,2)", "(2,1)", "(2,2)")),
    "compose-total": (lambda z2, r2: _corrupted(z2, compose={("1", "1"): None}), ("1", "1")),
    "unit-law": (lambda z2, r2: _corrupted(z2, compose={("1", "0"): "0"}), ("1",)),
}


@pytest.mark.parametrize("axiom", AXIOM_WITNESSES)
def test_each_axiom_is_reported_with_its_witness(axiom):
    corrupt, witness = AXIOM_WITNESSES[axiom]
    report = validate_groupoid(corrupt(cyclic_group(2), full_relation(2)))
    assert (axiom, witness) in [(v.axiom, v.witness) for v in report.violations]


def _brute_validate(g):
    """validate_groupoid with associativity over all of product(elements, repeat=3):
    the loop the fiber sweep replaced, kept as its oracle."""
    out = table_violations(g)
    if any(v.axiom not in _POINT_AXIOMS for v in out):
        return tuple(out)
    for a in g.elements:
        if g.compose.get((g.inverse[a], a)) != g.source[a]:
            out.append(Violation("inverse-law", (a,), "inverse(g)*g != source(g)"))
        if g.compose.get((a, g.inverse[a])) != g.range[a]:
            out.append(Violation("inverse-law", (a,), "g*inverse(g) != range(g)"))
        if g.compose.get((a, g.source[a])) != a or g.compose.get((g.range[a], a)) != a:
            out.append(Violation("unit-law", (a,), "units do not act as identities"))
    for a, b, c in itertools.product(g.elements, repeat=3):
        if g.source[a] == g.range[b] and g.source[b] == g.range[c]:
            if g.compose[(g.compose[(a, b)], c)] != g.compose[(a, g.compose[(b, c)])]:
                out.append(Violation("associativity", (a, b, c), "(ab)c != a(bc)"))
    return tuple(out)


def test_validate_matches_the_brute_force_sweep():
    """One compose entry replaced by each other element with the same endpoints,
    by one with other endpoints, or dropped: the same violations in the same order."""
    groupoids = [*standard_fixtures().values(), cyclic_group(6, "Z6"),
                 disjoint_union(full_relation(3), cyclic_group(3), "R3_disj_Z3")]
    associativity = 0
    for g in groupoids:
        for pair, value in g.compose.items():
            same = [e for e in g.elements if e != value
                    and (g.source[e], g.range[e]) == (g.source[value], g.range[value])]
            other = [e for e in g.elements if e != value and e not in same][:1]
            for corrupt in [*same, *other, None]:
                compose = {k: v for k, v in g.compose.items() if k != pair}
                if corrupt is not None:
                    compose[pair] = corrupt
                broken = FiniteGroupoid("bad", g.elements, g.units, g.source, g.range,
                                        g.inverse, compose)
                report = validate_groupoid(broken)
                assert report.violations == _brute_validate(broken), (g.name, pair, corrupt)
                associativity += any(v.axiom == "associativity" for v in report.violations)
    assert associativity > 100


def test_disjoint_union_refuses_parts_of_one_name():
    """Ids are prefixed by the part's name: two parts named alike would share ids."""
    with pytest.raises(InputError, match="share the name 'R2'"):
        disjoint_union(full_relation(2), full_relation(2), "RR")
    union = disjoint_union(full_relation(2, "A"), full_relation(2, "B"), "AB")
    assert len(set(union.elements)) == len(union.elements) == 8
    assert groupoids_isomorphic(union, union).status == "isomorphic"


def _x_y_group(name, y_squared):
    """The group of x^a y^b (a mod 4, b mod 2) with y x y^-1 = x^-1 and y^2 = x^y_squared:
    D4 for 0, Q8 for 2."""
    return group(name, [f"{a}{b}" for a in range(4) for b in range(2)], lambda g, h: (
        f"{(int(g[0]) + (-1) ** int(g[1]) * int(h[0]) + y_squared * int(g[1]) * int(h[1])) % 4}"
        f"{(int(g[1]) + int(h[1])) % 2}"))


@pytest.mark.parametrize("name, y_squared, orders", [("D4", 0, {1: 1, 2: 5, 4: 2}),
                                                     ("Q8", 2, {1: 1, 2: 1, 4: 6})])
def test_group_reads_the_unit_and_inverses_off_the_product(name, y_squared, orders):
    g = _x_y_group(name, y_squared)
    assert validate_groupoid(g).ok
    assert g.units == ("00",)
    assert Counter(map(g.isotropy_order, g.elements)) == orders


def test_group_refuses_a_product_without_a_unit():
    with pytest.raises(ValueError):
        group("flip", ["0", "1"], lambda a, b: str(1 - int(a)))


def test_transformation_groupoid_of_s3_on_three_points():
    """S3 permuting 3 points: a transitive action with isotropy Z2 at each point."""
    s3 = group("S3", ["".join(p) for p in itertools.permutations("012")],
               lambda p, q: "".join(p[int(i)] for i in q))
    g = transformation_groupoid("S3_on_3", s3, ["0", "1", "2"], lambda k, x: k[int(x)])
    assert validate_groupoid(g).ok
    assert (len(g.elements), g.units) == (18, ("(012,0)", "(012,1)", "(012,2)"))
    assert [len(g.isotropy(u)) for u in g.units] == [2, 2, 2]
    assert not is_effective(g)


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
    assert result.status == "isomorphic"
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
        assert groupoids_isomorphic(g, g).status == "isomorphic", name
    fixtures = standard_fixtures()
    assert groupoids_isomorphic(fixtures["Swap2"], fixtures["R2"]).status == "isomorphic"


def _all_isomorphisms(a, b):
    """Every isomorphism a -> b the search yields, and the nodes it visited."""
    budget = _Budget(10**6)
    found = list(iter_isomorphisms(a, b, budget))  # exhaustive: the budget never runs out
    return found, budget.used


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


@pytest.mark.parametrize("name, automorphisms, nodes", [
    ("R3", 6, 141), ("R4", 24, 1936), ("V4", 6, 16), ("R2_disj_Z2", 2, 13)])
def test_iso_walks_without_labels_are_unpruned(name, automorphisms, nodes):
    """labels=None, passed explicitly, visits the nodes pinned above; labels
    that every map preserves (each commuting pair labelled 0 on both sides)
    prune nothing on these groupoids, whose automorphisms all preserve them."""
    g = standard_fixtures()[name]
    budget = _Budget(10**6)
    assert len(list(iter_isomorphisms(g, g, budget, None))) == automorphisms
    assert budget.used == nodes
    commuting = {pair: 0 for pair, p in g.compose.items() if g.compose.get(pair[::-1]) == p}
    pairs = {}
    for x, e in commuting:
        pairs.setdefault(e, []).append((x, 0))
    budget = _Budget(10**6)
    found = list(iter_isomorphisms(g, g, budget, lambda: (pairs, commuting)))
    assert (len(found), budget.used) == (automorphisms, nodes)


def test_iso_budget_inconclusive_distinct_from_no():
    r4 = standard_fixtures()["R4"]
    result = groupoids_isomorphic(r4, r4, budget=2)
    assert result.status == "inconclusive"
    assert result.mapping is None
