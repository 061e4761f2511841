"""The small world: every twisted groupoid with at most six elements, against an
oracle that knows the answer from how each one was built.

A finite groupoid is the disjoint union of its connected components, and a
component with k units and isotropy group G is R_k x G, with k^2 |G| elements.
Up to six elements that leaves R2 and the groups of order at most six: Z1 to Z6,
V4 and S3.  Of these only V4 has a twist that is not a coboundary
(H^2(V4, T) = Z2), the Pauli cocycle.  So a groupoid here is a multiset of the
components below, two of them are isomorphic exactly when their multisets are
equal with V4p read as V4, and their twists exactly when the multisets are
equal.  Twists by a coboundary are left out: `twists_isomorphic` compares
cocycles exactly (ROADMAP item 2)."""

import itertools
from collections import Counter

import pytest

from twistalg.algebra import TwistedAlgebra
from twistalg.groupoid import (
    FiniteGroupoid,
    cyclic_group,
    disjoint_union,
    full_relation,
    group,
    klein_four,
    validate_groupoid,
)
from twistalg.reconstruction import reconstruct
from twistalg.seeds import substream
from twistalg.twists import Cocycle, pauli_cocycle, twists_isomorphic

MAX_ELEMENTS = 6
S3_IDS = ["".join(p) for p in itertools.permutations("012")]

# kind -> (number of elements, the component as a groupoid of the given name)
COMPONENTS = {
    **{f"Z{n}": (n, lambda name, n=n: cyclic_group(n, name)) for n in range(1, 7)},
    "V4": (4, klein_four),
    "V4p": (4, klein_four),  # twisted by pauli_cocycle
    "S3": (6, lambda name: group(name, S3_IDS, lambda p, q: "".join(p[int(i)] for i in q))),
    "R2": (4, lambda name: full_relation(2, name)),
}


def _size(world) -> int:
    return sum(COMPONENTS[kind][0] for kind in world)


def _worlds() -> list[tuple[str, ...]]:
    """Every multiset of components with at most MAX_ELEMENTS elements, sorted."""
    kinds = sorted(COMPONENTS)
    return [world for r in range(1, MAX_ELEMENTS + 1)
            for world in itertools.combinations_with_replacement(kinds, r)
            if _size(world) <= MAX_ELEMENTS]


WORLDS = _worlds()


def _build(world) -> Cocycle:
    """The cocycle, on the disjoint union of the world's components, that is the
    Pauli cocycle on each V4p and trivial elsewhere.  Each part has its own name,
    as disjoint_union requires, and `ids` follows each part's ids into the union."""
    parts = [COMPONENTS[kind][1](f"{kind}_{i}") for i, kind in enumerate(world)]
    gpd, ids = parts[0], [{e: e for e in parts[0].elements}]
    for i, part in enumerate(parts[1:], 1):
        ids = [{e: f"{gpd.name}:{x}" for e, x in m.items()} for m in ids]
        ids.append({e: f"{part.name}:{e}" for e in part.elements})
        gpd = disjoint_union(gpd, part, f"U{i}")
    turns = {}
    for kind, part, m in zip(world, parts, ids):
        if kind == "V4p":
            turns.update({(m[g], m[h]): t for (g, h), t in pauli_cocycle(part).turns.items()})
    return Cocycle.from_turns(gpd, 2, turns)


def _relabelled(c: Cocycle, rng) -> Cocycle:
    """c carried to fresh ids, given in a shuffled element order."""
    g = c.groupoid
    new = {e: f"x{i}" for i, e in zip(rng.permutation(len(g)), g.elements)}
    moved = FiniteGroupoid(
        "relabelled", [new[g.elements[i]] for i in rng.permutation(len(g))],
        [new[u] for u in g.units],
        *({new[e]: new[table[e]] for e in g.elements} for table in (g.source, g.range, g.inverse)),
        {(new[x], new[y]): new[xy] for (x, y), xy in g.compose.items()})
    return Cocycle.from_turns(moved, c.grid, {(new[x], new[y]): t for (x, y), t in c.turns.items()})


def _name(world) -> str:
    return "+".join(world)


def test_the_small_world_has_42_groupoids():
    twisted = [world for world in WORLDS if "V4p" in world]
    assert (len(WORLDS), len(WORLDS) - len(twisted), len(twisted)) == (42, 38, 4)
    assert Counter(_size(world) for world in WORLDS) == {1: 1, 2: 2, 3: 3, 4: 8, 5: 10, 6: 18}


@pytest.mark.parametrize("world", WORLDS, ids=_name)
def test_each_groupoid_is_valid_and_reconstructs(world):
    cocycle = _build(world)
    gpd = cocycle.groupoid
    assert len(gpd) == _size(world)
    assert validate_groupoid(gpd).ok
    assert cocycle.violations() == []
    assert bool(cocycle.turns) == ("V4p" in world)
    assert reconstruct(TwistedAlgebra(gpd, cocycle)).passed


@pytest.mark.parametrize("size", range(1, MAX_ELEMENTS + 1))
def test_twists_are_isomorphic_exactly_when_the_multisets_are_equal(size):
    worlds = [world for world in WORLDS if _size(world) == size]
    built = {world: _build(world) for world in worlds}
    wrong = []
    for a, b in itertools.product(worlds, repeat=2):
        rng = substream(0, "small-world", _name(a), _name(b))
        result = twists_isomorphic(built[a], _relabelled(built[b], rng))
        untwisted = [sorted(kind.replace("V4p", "V4") for kind in w) for w in (a, b)]
        expected = ("isomorphic" if a == b else "not_isomorphic", untwisted[0] == untwisted[1])
        if (result.status, result.groupoids_isomorphic) != expected:
            wrong.append((_name(a), _name(b), result.status, result.groupoids_isomorphic))
    assert wrong == []
