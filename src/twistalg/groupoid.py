"""Finite groupoids as explicit tables.

A finite groupoid is stored by its element list, unit subset, source /
range / inverse maps and a partial composition table defined exactly on
the pairs (g, h) with source(g) == range(h).  Element ids are opaque
strings; the file order of `elements` fixes iteration order everywhere,
which keeps reports deterministic.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    message: str

    def to_dict(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness), "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


class FiniteGroupoid:
    """Explicit-table finite groupoid.

    compose maps composable pairs (g, h) to their product g*h, with
    source(g*h) == source(h) and range(g*h) == range(g).  Ids and the name
    are strings, stored as given; the tables are copied and immutable after
    construction; all methods are pure.
    """

    def __init__(self, name, elements, units, source, range_, inverse, compose):
        self.name: str = name
        self.elements: tuple[str, ...] = tuple(elements)
        self._index = {g: i for i, g in enumerate(self.elements)}
        # Ids that are not elements go last and repeats stay, for table_violations.
        last = len(self.elements)
        self.units: tuple[str, ...] = tuple(sorted(units, key=lambda u: self._index.get(u, last)))
        self.source: dict[str, str] = dict(source)
        self.range: dict[str, str] = dict(range_)
        self.inverse: dict[str, str] = dict(inverse)
        self.compose: dict[tuple[str, str], str] = dict(compose)
        self._unit_set = frozenset(self.units)
        # The cache of `signatures`, set here as an ordinary attribute: a
        # functools.cached_property writes through the instance's __dict__, which
        # in CPython 3.11 slows every later attribute read on it (reconstruct ran
        # about 4% slower).
        self._signatures: dict[str, tuple] | None = None

    # -- basic queries ------------------------------------------------------

    def __repr__(self) -> str:
        return (f"FiniteGroupoid({self.name!r}, {len(self.elements)} elements, "
                f"{len(self.units)} units)")

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, g: str) -> int:
        return self._index[g]

    def is_unit(self, g: str) -> bool:
        return g in self._unit_set

    def product(self, g: str, h: str) -> str | None:
        return self.compose.get((g, h))

    def source_fiber(self, u: str) -> tuple[str, ...]:
        return tuple(g for g in self.elements if self.source[g] == u)

    def range_fibers(self) -> dict[str, list[str]]:
        """Range point -> the elements with that range, in element order."""
        out: dict[str, list[str]] = {}
        for g in self.elements:
            out.setdefault(self.range[g], []).append(g)
        return out

    def isotropy(self, u: str) -> tuple[str, ...]:
        return tuple(g for g in self.elements if self.source[g] == u and self.range[g] == u)

    def isotropy_order(self, g: str) -> int:
        """Order of an isotropy element g (least k >= 1 with g^k a unit)."""
        if self.source[g] != self.range[g]:
            raise InputError(f"{g!r} is not an isotropy element")
        power, k = g, 1
        while not self.is_unit(power):
            power = self.compose[(power, g)]
            k += 1
            if k > len(self.elements) + 1:
                raise InputError(f"isotropy power of {g!r} does not reach a unit")
        return k

    def power(self, g: str, k: int) -> str:
        """k-th power of an isotropy element, with g^0 = source(g)."""
        if self.source[g] != self.range[g]:
            raise InputError(f"{g!r} is not an isotropy element")
        out = self.source[g]
        for _ in range(k):
            out = self.compose[(out, g)]
        return out

    @property
    def signatures(self) -> dict[str, tuple]:
        """e -> an isomorphism invariant of e: whether it is a unit, the signatures of
        its source and range (fiber sizes and isotropy orders), its own order (0 off
        the isotropy) and whether it is its own inverse.  Computed on first use."""
        if self._signatures is None:
            order = {e: self.isotropy_order(e) if self.source[e] == self.range[e] else 0
                     for e in self.elements}
            fibers = self.range_fibers()
            units = {u: (len(self.source_fiber(u)), len(fibers.get(u, ())),
                         tuple(sorted(order[e] for e in self.isotropy(u)))) for u in self.units}
            self._signatures = {e: (self.is_unit(e), units[self.source[e]], units[self.range[e]],
                                    order[e], e == self.inverse[e]) for e in self.elements}
        return self._signatures

    def check_element(self, g) -> str:
        if not isinstance(g, str) or g not in self._index:
            raise InputError(f"unknown element id {g!r}")
        return g

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "units": list(self.units),
            "source": {g: self.source[g] for g in self.elements},
            "range": {g: self.range[g] for g in self.elements},
            "inverse": {g: self.inverse[g] for g in self.elements},
            "compose": {f"{g}|{h}": k for (g, h), k in sorted(self.compose.items())},
        }


# -- validation --------------------------------------------------------------


# Table violations after which validate_groupoid still checks the laws.
_POINT_AXIOMS = frozenset({"source-unit", "range-unit", "unit-fixed", "unit-inverse",
                           "inverse-involutive", "inverse-swaps"})


def table_violations(g: FiniteGroupoid) -> list[Violation]:
    """Every check but the composition laws: ids, total maps, units, inverses, and a
    composition table defined exactly on the composable pairs with the right endpoints.
    Quadratic in the element count, where the associativity sweep is cubic."""
    out: list[Violation] = []
    ids = set(g.elements)

    def bad(axiom, witness, message):
        out.append(Violation(axiom, tuple(witness), message))

    if len(ids) != len(g.elements):
        bad("distinct-elements", (), "duplicate element ids")
    for i, u in enumerate(g.units):  # in element order, so a repeat follows its first
        if u not in ids:
            bad("units-subset", (u,), "unit is not an element")
        elif i and g.units[i - 1] == u:
            bad("distinct-units", (u,), "unit listed more than once")
    for table_name, table in (("source", g.source), ("range", g.range), ("inverse", g.inverse)):
        for e in g.elements:
            if e not in table:
                bad("total-map", (table_name, e), f"missing {table_name} entry")
            elif table[e] not in ids:
                bad("total-map", (table_name, e, table[e]), f"{table_name} value is not an element")
    if out:
        # Structural gaps make the remaining checks meaningless.
        return out

    for e in g.elements:
        if g.source[e] not in g._unit_set:
            bad("source-unit", (e, g.source[e]), "source is not a unit")
        if g.range[e] not in g._unit_set:
            bad("range-unit", (e, g.range[e]), "range is not a unit")
    for u in g.units:
        if g.source[u] != u or g.range[u] != u:
            bad("unit-fixed", (u,), "unit must be its own source and range")
        if g.inverse[u] != u:
            bad("unit-inverse", (u,), "unit must be fixed by inverse")
    for e in g.elements:
        if g.inverse[g.inverse[e]] != e:
            bad("inverse-involutive", (e, g.inverse[e]), "inverse is not involutive")
        if g.source[g.inverse[e]] != g.range[e] or g.range[g.inverse[e]] != g.source[e]:
            bad("inverse-swaps", (e,), "inverse must swap source and range")

    for (a, b), c in g.compose.items():
        if a not in ids or b not in ids or c not in ids:
            bad("compose-ids", (a, b, c), "composition entry uses unknown id")
            continue
        if g.source[a] != g.range[b]:
            bad("compose-domain", (a, b), "non-composable pair composed")
            continue
        if g.source[c] != g.source[b] or g.range[c] != g.range[a]:
            bad("compose-endpoints", (a, b, c), "product has wrong source or range")
    fibers = g.range_fibers()  # the composable pairs, in element order
    for a in g.elements:
        for b in fibers.get(g.source[a], ()):
            if (a, b) not in g.compose:
                bad("compose-total", (a, b), "composable pair missing from table")
    return out


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom, reporting all violations with witnesses.

    Tolerates malformed tables (missing entries, dangling ids) and reports
    them instead of raising; an empty report certifies a valid groupoid.
    """
    out = table_violations(g)
    if any(v.axiom not in _POINT_AXIOMS for v in out):
        return ValidationReport(tuple(out))
    # A point-axiom violation can leave these pairs uncomposable; then the law fails.
    for a in g.elements:
        if g.compose.get((g.inverse[a], a)) != g.source[a]:
            out.append(Violation("inverse-law", (a,), "inverse(g)*g != source(g)"))
        if g.compose.get((a, g.inverse[a])) != g.range[a]:
            out.append(Violation("inverse-law", (a,), "g*inverse(g) != range(g)"))
        if g.compose.get((a, g.source[a])) != a or g.compose.get((g.range[a], a)) != a:
            out.append(Violation("unit-law", (a,), "units do not act as identities"))
    fibers = g.range_fibers()  # the composable triples, in element order
    for a in g.elements:
        for b in fibers.get(g.source[a], ()):
            ab = g.compose[(a, b)]
            for c in fibers.get(g.source[b], ()):
                if g.compose[(ab, c)] != g.compose[(a, g.compose[(b, c)])]:
                    out.append(Violation("associativity", (a, b, c), "(ab)c != a(bc)"))
    return ValidationReport(tuple(out))


# -- bisections ---------------------------------------------------------------


def is_bisection(g: FiniteGroupoid, subset) -> bool:
    """True iff the subset meets each source fiber and range fiber at most once."""
    seen_s: set[str] = set()
    seen_r: set[str] = set()
    for e in subset:
        g.check_element(e)
        s, r = g.source[e], g.range[e]
        if s in seen_s or r in seen_r:
            return False
        seen_s.add(s)
        seen_r.add(r)
    return True


def subset_product(g: FiniteGroupoid, o, u) -> frozenset[str]:
    """Pointwise product set O*U over composable pairs."""
    return frozenset(
        g.compose[(a, b)] for a in o for b in u if g.source[a] == g.range[b]
    )


def subset_inverse(g: FiniteGroupoid, o) -> frozenset[str]:
    return frozenset(g.inverse[a] for a in o)


def iter_bisections(g: FiniteGroupoid):
    """Every bisection of g, lazily, by backtracking over the element order."""
    elems = g.elements

    def extend(i, chosen, used_s, used_r):
        yield frozenset(chosen)
        for j in range(i, len(elems)):
            e = elems[j]
            s, r = g.source[e], g.range[e]
            if s in used_s or r in used_r:
                continue
            yield from extend(j + 1, chosen + [e], used_s | {s}, used_r | {r})

    return extend(0, [], set(), set())


def all_bisections(g: FiniteGroupoid) -> list[frozenset[str]]:
    """Every bisection of g, in iter_bisections' order."""
    return list(iter_bisections(g))


def is_effective(g: FiniteGroupoid) -> bool:
    """True iff every element with equal source and range is a unit."""
    return all(g.is_unit(e) for e in g.elements if g.source[e] == g.range[e])


# -- standard fixtures --------------------------------------------------------


def full_relation(k: int, name: str | None = None) -> FiniteGroupoid:
    """Full equivalence relation on k points: pairs (i, j) with (i,j)(j,l)=(i,l)."""
    elems = [f"({i},{j})" for i in range(1, k + 1) for j in range(1, k + 1)]
    units = [f"({i},{i})" for i in range(1, k + 1)]
    source = {f"({i},{j})": f"({j},{j})" for i in range(1, k + 1) for j in range(1, k + 1)}
    range_ = {f"({i},{j})": f"({i},{i})" for i in range(1, k + 1) for j in range(1, k + 1)}
    inverse = {f"({i},{j})": f"({j},{i})" for i in range(1, k + 1) for j in range(1, k + 1)}
    compose = {}
    for i, j, l in itertools.product(range(1, k + 1), repeat=3):
        compose[(f"({i},{j})", f"({j},{l})")] = f"({i},{l})"
    return FiniteGroupoid(name or f"R{k}", elems, units, source, range_, inverse, compose)


def group(name: str, elements, mul) -> FiniteGroupoid:
    """The one-unit groupoid of a finite group, from its element ids in order and its
    product mul(a, b); the unit (its one idempotent) and the inverses are read off it."""
    compose = {(a, b): mul(a, b) for a in elements for b in elements}
    (unit,) = [e for e in elements if compose[(e, e)] == e]
    inverse = {a: b for (a, b), p in compose.items() if p == unit}
    source = dict.fromkeys(elements, unit)
    return FiniteGroupoid(name, elements, [unit], source, source, inverse, compose)


def transformation_groupoid(name: str, g: FiniteGroupoid, points, act) -> FiniteGroupoid:
    """The groupoid of the one-unit groupoid g acting on points by act(k, x).

    Elements (k,x), in the order of g's elements, with source (e,x), range (e,k.x)
    and (k,l.x)(l,x) = (kl,x)."""
    (e,) = g.units
    pairs = [(k, x) for k in g.elements for x in points]
    source = {f"({k},{x})": f"({e},{x})" for k, x in pairs}
    range_ = {f"({k},{x})": f"({e},{act(k, x)})" for k, x in pairs}
    inverse = {f"({k},{x})": f"({g.inverse[k]},{act(k, x)})" for k, x in pairs}
    compose = {(f"({k},{act(l, x)})", f"({l},{x})"): f"({g.compose[(k, l)]},{x})"
               for k in g.elements for l, x in pairs}
    return FiniteGroupoid(name, list(source), [f"({e},{x})" for x in points], source, range_,
                          inverse, compose)


def cyclic_group(n: int, name: str | None = None) -> FiniteGroupoid:
    return group(name or f"Z{n}", [str(i) for i in range(n)],
                 lambda a, b: str((int(a) + int(b)) % n))


def klein_four(name: str = "V4") -> FiniteGroupoid:
    return group(name, ["00", "01", "10", "11"],
                 lambda a, b: f"{(int(a[0]) + int(b[0])) % 2}{(int(a[1]) + int(b[1])) % 2}")


def swap_transformation_groupoid() -> FiniteGroupoid:
    """Transformation groupoid of the free Z2 swap action on two points."""
    return transformation_groupoid("Swap2", cyclic_group(2), ["p", "q"],
                                   lambda k, x: x if k == "0" else {"p": "q", "q": "p"}[x])


def disjoint_union(a: FiniteGroupoid, b: FiniteGroupoid, name: str) -> FiniteGroupoid:
    if a.name == b.name:  # ids are prefixed by the part's name
        raise InputError(f"the parts of a disjoint union share the name {a.name!r}")
    pa, pb = a.name + ":", b.name + ":"
    elems = [pa + e for e in a.elements] + [pb + e for e in b.elements]
    units = [pa + u for u in a.units] + [pb + u for u in b.units]
    source = {pa + e: pa + a.source[e] for e in a.elements}
    source.update({pb + e: pb + b.source[e] for e in b.elements})
    range_ = {pa + e: pa + a.range[e] for e in a.elements}
    range_.update({pb + e: pb + b.range[e] for e in b.elements})
    inverse = {pa + e: pa + a.inverse[e] for e in a.elements}
    inverse.update({pb + e: pb + b.inverse[e] for e in b.elements})
    compose = {(pa + g, pa + h): pa + k for (g, h), k in a.compose.items()}
    compose.update({(pb + g, pb + h): pb + k for (g, h), k in b.compose.items()})
    return FiniteGroupoid(name, elems, units, source, range_, inverse, compose)


def standard_fixtures() -> dict[str, FiniteGroupoid]:
    """Named desk-scale groupoids used throughout the test suites."""
    r2 = full_relation(2)
    z2 = cyclic_group(2)
    return {
        "R2": r2,
        "R3": full_relation(3),
        "R4": full_relation(4),
        "Z2": z2,
        "Z3": cyclic_group(3),
        "Z4": cyclic_group(4),
        "V4": klein_four(),
        "Swap2": swap_transformation_groupoid(),
        "R2_disj_Z2": disjoint_union(r2, z2, "R2_disj_Z2"),
    }


# -- isomorphism search -------------------------------------------------------

DEFAULT_ISO_BUDGET = 10**6


@dataclass(frozen=True)
class IsoResult:
    """Outcome of a groupoid isomorphism search.

    status is one of "isomorphic", "not_isomorphic", "inconclusive";
    "inconclusive" (budget exhausted) is never collapsed into
    "not_isomorphic".
    """

    status: str
    mapping: dict[str, str] | None = None
    nodes_visited: int = 0

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "mapping": dict(sorted(self.mapping.items())) if self.mapping else None,
            "nodes_visited": self.nodes_visited,
        }


class BudgetExhausted(Exception):
    pass


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit, self.used = limit, 0

    def spend(self) -> None:
        if self.used >= self.limit:
            raise BudgetExhausted()
        self.used += 1


def iter_isomorphisms(a: FiniteGroupoid, b: FiniteGroupoid, budget: _Budget, labels=None):
    """Yield structure-preserving bijections a -> b by pruned backtracking.

    A node checks only the pairs its new element e brings, as in VF2: (x, e)
    and (e, x) for each mapped x, and the mapped pairs with product e.  Units
    map first, onto units, so (e, s(e)), (r(e), e) and (e, e^-1) force the
    images of s(e), r(e) and e^-1.  BudgetExhausted is raised from the
    generator when the budget runs out; a search that ends without it was
    exhaustive.

    `labels`, if given, is called once the element signatures match and
    returns (pairs, pairing): pairs[e] lists (x, v) for the x that commute
    with e in a, and pairing[(y, f)] is the value of a commuting pair of b.
    The first isomorphism is found without them; after it, a node also needs
    pairing[(phi(x), phi(e))] == v for each mapped x, and a branch is left once
    its mapped part breaks them (`labelled` false), so later maps keep them.
    """
    sig_a, sig_b = a.signatures, b.signatures
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return
    pairs, pairing = labels() if labels is not None else ({}, {})

    candidates = {
        e: tuple(f for f in b.elements if sig_b[f] == sig_a[e]) for e in a.elements
    }
    # Units first (they anchor the fibers), then scarcest candidate sets.
    order = sorted(a.elements, key=lambda e: (not a.is_unit(e), len(candidates[e]), a.index(e)))
    factors = defaultdict(list)  # p -> the pairs (x, y) with x*y = p
    for pair, p in a.compose.items():
        factors[p].append(pair)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    found = False
    compose_a, compose_b = a.compose, b.compose

    def agrees(x: str, y: str) -> bool:
        """x*y is defined iff phi(x)*phi(y) is, and phi(x*y) = phi(x)*phi(y) when mapped."""
        p = compose_a.get((x, y))
        q = compose_b.get((mapping[x], mapping[y]))
        if (p is None) != (q is None):
            return False
        return p is None or p not in mapping or mapping[p] == q

    def search(i: int, labelled: bool):
        nonlocal found
        if i == len(order):
            found = True
            yield dict(mapping)
            return
        e = order[i]
        for f in candidates[e]:
            if found and not labelled:
                return
            if f in used:
                continue
            budget.spend()
            mapping[e] = f
            if (all(agrees(x, e) and agrees(e, x) for x in mapping)
                    and all(agrees(x, y) for x, y in factors[e]
                            if x in mapping and y in mapping)):
                keeps = labelled and all(pairing.get((mapping[x], f)) == v
                                         for x, v in pairs.get(e, ()) if x in mapping)
                if keeps or not found:
                    used.add(f)
                    yield from search(i + 1, keeps)
                    used.discard(f)
            del mapping[e]

    yield from search(0, True)


def groupoids_isomorphic(a: FiniteGroupoid, b: FiniteGroupoid,
                         budget: int = DEFAULT_ISO_BUDGET) -> IsoResult:
    """Search for a groupoid isomorphism a -> b within a node-visit budget."""
    tracker = _Budget(budget)
    try:
        for mapping in iter_isomorphisms(a, b, tracker):
            return IsoResult("isomorphic", mapping, tracker.used)
    except BudgetExhausted:
        return IsoResult("inconclusive", None, tracker.used)
    return IsoResult("not_isomorphic", None, tracker.used)
