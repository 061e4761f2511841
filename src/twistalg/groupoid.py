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
    source(g*h) == source(h) and range(g*h) == range(g).  Values are
    immutable after construction; all methods are pure.
    """

    def __init__(self, name, elements, units, source, range_, inverse, compose):
        self.name = str(name)
        self.elements: tuple[str, ...] = tuple(str(e) for e in elements)
        unit_set = {str(u) for u in units}
        self.units: tuple[str, ...] = tuple(e for e in self.elements if e in unit_set)
        self.source: dict[str, str] = {str(k): str(v) for k, v in source.items()}
        self.range: dict[str, str] = {str(k): str(v) for k, v in range_.items()}
        self.inverse: dict[str, str] = {str(k): str(v) for k, v in inverse.items()}
        self.compose: dict[tuple[str, str], str] = {
            (str(g), str(h)): str(k) for (g, h), k in compose.items()
        }
        self._unit_set = frozenset(self.units)
        self._index = {g: i for i, g in enumerate(self.elements)}

    # -- basic queries ------------------------------------------------------

    def __repr__(self) -> str:
        return (f"FiniteGroupoid({self.name!r}, {len(self.elements)} elements, "
                f"{len(self.units)} units)")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return g in self._index

    def index(self, g: str) -> int:
        return self._index[g]

    def is_unit(self, g: str) -> bool:
        return g in self._unit_set

    def composable(self, g: str, h: str) -> bool:
        return self.source[g] == self.range[h]

    def product(self, g: str, h: str) -> str | None:
        return self.compose.get((g, h))

    def source_fiber(self, u: str) -> tuple[str, ...]:
        return tuple(g for g in self.elements if self.source[g] == u)

    def range_fiber(self, u: str) -> tuple[str, ...]:
        return tuple(g for g in self.elements if self.range[g] == u)

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

    def check_element(self, g) -> str:
        if g not in self._index:
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


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom, reporting all violations with witnesses.

    Tolerates malformed tables (missing entries, dangling ids) and reports
    them instead of raising; an empty report certifies a valid groupoid.
    """
    out: list[Violation] = []
    ids = set(g.elements)

    def bad(axiom, witness, message):
        out.append(Violation(axiom, tuple(witness), message))

    if len(ids) != len(g.elements):
        bad("distinct-elements", (), "duplicate element ids")
    for u in g.units:
        if u not in ids:
            bad("units-subset", (u,), "unit is not an element")
    for table_name, table in (("source", g.source), ("range", g.range), ("inverse", g.inverse)):
        for e in g.elements:
            if e not in table:
                bad("total-map", (table_name, e), f"missing {table_name} entry")
            elif table[e] not in ids:
                bad("total-map", (table_name, e, table[e]), f"{table_name} value is not an element")
    if out:
        # Structural gaps make the remaining checks meaningless.
        return ValidationReport(tuple(out))

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
    for a, b in itertools.product(g.elements, repeat=2):
        if g.source[a] == g.range[b] and (a, b) not in g.compose:
            bad("compose-total", (a, b), "composable pair missing from table")
    if any(v.axiom.startswith("compose") for v in out):
        return ValidationReport(tuple(out))

    for a in g.elements:
        if g.compose[(g.inverse[a], a)] != g.source[a]:
            bad("inverse-law", (a,), "inverse(g)*g != source(g)")
        if g.compose[(a, g.inverse[a])] != g.range[a]:
            bad("inverse-law", (a,), "g*inverse(g) != range(g)")
        if g.compose[(a, g.source[a])] != a or g.compose[(g.range[a], a)] != a:
            bad("unit-law", (a,), "units do not act as identities")
    for a, b, c in itertools.product(g.elements, repeat=3):
        if g.source[a] == g.range[b] and g.source[b] == g.range[c]:
            if g.compose[(g.compose[(a, b)], c)] != g.compose[(a, g.compose[(b, c)])]:
                bad("associativity", (a, b, c), "(ab)c != a(bc)")
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


def all_bisections(g: FiniteGroupoid) -> list[frozenset[str]]:
    """Every bisection of g, by backtracking over the element order."""
    out: list[frozenset[str]] = []
    elems = g.elements

    def extend(i, chosen, used_s, used_r):
        out.append(frozenset(chosen))
        for j in range(i, len(elems)):
            e = elems[j]
            s, r = g.source[e], g.range[e]
            if s in used_s or r in used_r:
                continue
            extend(j + 1, chosen + [e], used_s | {s}, used_r | {r})

    extend(0, [], set(), set())
    return out


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


def cyclic_group(n: int, name: str | None = None) -> FiniteGroupoid:
    elems = [str(i) for i in range(n)]
    source = {e: "0" for e in elems}
    range_ = dict(source)
    inverse = {str(i): str((-i) % n) for i in range(n)}
    compose = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    return FiniteGroupoid(name or f"Z{n}", elems, ["0"], source, range_, inverse, compose)


def klein_four(name: str = "V4") -> FiniteGroupoid:
    elems = ["00", "01", "10", "11"]
    source = {e: "00" for e in elems}
    range_ = dict(source)
    inverse = {e: e for e in elems}

    def add(a, b):
        return f"{(int(a[0]) + int(b[0])) % 2}{(int(a[1]) + int(b[1])) % 2}"

    compose = {(a, b): add(a, b) for a in elems for b in elems}
    return FiniteGroupoid(name, elems, ["00"], source, range_, inverse, compose)


def swap_transformation_groupoid(name: str = "Swap2") -> FiniteGroupoid:
    """Transformation groupoid of the free Z2 swap action on two points.

    Elements (k, x) with source x and range k.x; (k, l.x)(l, x) = (k+l, x).
    """
    points = ["p", "q"]
    other = {"p": "q", "q": "p"}
    elems = [f"(0,{x})" for x in points] + [f"(1,{x})" for x in points]
    units = [f"(0,{x})" for x in points]
    source, range_, inverse = {}, {}, {}
    for k in (0, 1):
        for x in points:
            e = f"({k},{x})"
            y = x if k == 0 else other[x]
            source[e] = f"(0,{x})"
            range_[e] = f"(0,{y})"
            inverse[e] = f"({k},{y})" if k == 1 else e
    compose = {}
    for k in (0, 1):
        for l in (0, 1):
            for x in points:
                lx = x if l == 0 else other[x]
                compose[(f"({k},{lx})", f"({l},{x})")] = f"({(k + l) % 2},{x})"
    return FiniteGroupoid(name, elems, units, source, range_, inverse, compose)


def disjoint_union(a: FiniteGroupoid, b: FiniteGroupoid, name: str | None = None) -> FiniteGroupoid:
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
    return FiniteGroupoid(name or f"{a.name}_disj_{b.name}", elems, units, source, range_, inverse, compose)


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
    rejected: int = 0  # isomorphisms found but refused by the caller's `accept`

    @property
    def found(self) -> bool:
        return self.status == "isomorphic"

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


def _unit_signature(g: FiniteGroupoid, u: str) -> tuple:
    iso = g.isotropy(u)
    return (
        len(g.source_fiber(u)),
        len(g.range_fiber(u)),
        tuple(sorted(g.isotropy_order(e) for e in iso)),
    )


def _element_signature(g: FiniteGroupoid, unit_sigs: dict, e: str) -> tuple:
    own_order = g.isotropy_order(e) if g.source[e] == g.range[e] else 0
    return (
        g.is_unit(e),
        unit_sigs[g.source[e]],
        unit_sigs[g.range[e]],
        own_order,
        e == g.inverse[e],
    )


def iter_isomorphisms(a: FiniteGroupoid, b: FiniteGroupoid, budget: _Budget):
    """Yield structure-preserving bijections a -> b by pruned backtracking.

    A node checks only the pairs its new element e brings, as in VF2: (x, e)
    and (e, x) for each mapped x, and the mapped pairs with product e.  Units
    map first, onto units, so (e, s(e)), (r(e), e) and (e, e^-1) force the
    images of s(e), r(e) and e^-1.  BudgetExhausted is raised from the
    generator when the budget runs out; a search that ends without it was
    exhaustive.
    """
    ua = {u: _unit_signature(a, u) for u in a.units}
    ub = {u: _unit_signature(b, u) for u in b.units}
    sig_a = {e: _element_signature(a, ua, e) for e in a.elements}
    sig_b = {e: _element_signature(b, ub, e) for e in b.elements}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return

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

    def agrees(x: str, y: str) -> bool:
        """x*y is defined iff phi(x)*phi(y) is, and phi(x*y) = phi(x)*phi(y) when mapped."""
        p = a.compose.get((x, y))
        q = b.compose.get((mapping[x], mapping[y]))
        if (p is None) != (q is None):
            return False
        return p is None or p not in mapping or mapping[p] == q

    def search(i: int):
        if i == len(order):
            yield dict(mapping)
            return
        e = order[i]
        for f in candidates[e]:
            if f in used:
                continue
            budget.spend()
            mapping[e] = f
            if (all(agrees(x, e) and agrees(e, x) for x in mapping)
                    and all(agrees(x, y) for x, y in factors[e]
                            if x in mapping and y in mapping)):
                used.add(f)
                yield from search(i + 1)
                used.discard(f)
            del mapping[e]

    yield from search(0)


def groupoids_isomorphic(a: FiniteGroupoid, b: FiniteGroupoid, budget: int = 10**6,
                         accept=None) -> IsoResult:
    """Search for a groupoid isomorphism a -> b within a node-visit budget.

    With `accept`, only an isomorphism for which accept(mapping) is true
    counts as found; the others are counted in `rejected`.
    """
    tracker = _Budget(budget)
    rejected = 0
    try:
        for mapping in iter_isomorphisms(a, b, tracker):
            if accept is None or accept(mapping):
                return IsoResult("isomorphic", mapping, tracker.used, rejected)
            rejected += 1
    except BudgetExhausted:
        return IsoResult("inconclusive", None, tracker.used, rejected)
    return IsoResult("not_isomorphic", None, tracker.used, rejected)
