"""Exact twists: normalized T-valued 2-cocycles on a finite groupoid.

A cocycle stores each value as a whole number of 1/grid turns on one grid.
Validation, the commutator pairing and the twist-isomorphism search add
whole numbers and never round.  `Phase` is only the form in which values are
given and shown.  turns_to_complex and complex_to_turns are the one way
between whole turns and complex values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .groupoid import (
    DEFAULT_ISO_BUDGET,
    BudgetExhausted,
    FiniteGroupoid,
    IsoResult,
    _Budget,
    iter_isomorphisms,
)

MAX_SNAP_DENOMINATOR = 10**12

# exp(2 pi i k/4) for k = 0, 1, 2, 3: the values taken exactly.
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def turns_to_complex(t: int, grid: int) -> complex:
    """exp(2 pi i t/grid) for t in [0, grid), exact at 0, 1/4, 1/2 and 3/4 turn.
    t/grid is correctly rounded, so the value depends only on the rational."""
    if 4 * t % grid == 0:
        return _QUARTER_TURNS[4 * t // grid]
    return cmath.exp(2j * cmath.pi * (t / grid))


def complex_to_turns(z: complex, grid: int) -> int:
    """The unit-modulus z snapped to the nearest whole number of 1/grid turns, in [0, grid)."""
    if grid > MAX_SNAP_DENOMINATOR:
        raise InputError(f"phases finer than 1/{MAX_SNAP_DENOMINATOR} turn cannot be "
                         f"recovered from a float angle (asked for 1/{grid})")
    if abs(abs(z) - 1.0) > 1e-6:
        raise InputError(f"not a unit-modulus scalar: {z!r}")
    t = round(cmath.phase(z) / (2 * cmath.pi) * grid) % grid
    if abs(turns_to_complex(t, grid) - z) > 1e-6:
        raise InputError(f"phase {z!r} is not close to a multiple of 1/{grid} turn")
    return t


@dataclass(frozen=True)
class Phase:
    """The unit-modulus scalar exp(2*pi*i*turns), turns a rational: the form in
    which cocycle values are given and read back one by one."""

    turns: Fraction


class Cocycle:
    """A normalized T-valued 2-cocycle on the composable pairs of a groupoid.

    `turns` maps each pair whose value is not 1 to t in [1, grid), for t/grid
    turn; grid is the lcm of the reduced denominators (1 if trivial).
    Violations are reported, never normalized away.
    """

    def __init__(self, groupoid: FiniteGroupoid, values: dict):
        for (g, h), phase in values.items():
            if not isinstance(phase, Phase):
                raise InputError(f"cocycle value for ({g!r}, {h!r}) is not a Phase")
        grid = math.lcm(*(p.turns.denominator for p in values.values()))
        self._set(groupoid, grid, {pair: p.turns.numerator * (grid // p.turns.denominator)
                                   for pair, p in values.items()})

    @classmethod
    def from_turns(cls, groupoid: FiniteGroupoid, grid: int, turns: dict) -> "Cocycle":
        """The cocycle of turns[pair]/grid turn on each pair; any integers, any grid."""
        self = cls.__new__(cls)
        self._set(groupoid, grid, turns)
        return self

    def _set(self, groupoid: FiniteGroupoid, grid: int, turns: dict) -> None:
        for g, h in turns:
            if (g, h) not in groupoid.compose:
                raise InputError(f"cocycle entry on non-composable pair ({g!r}, {h!r})")
        turns = {pair: t % grid for pair, t in turns.items() if t % grid}
        common = math.gcd(grid, *turns.values())  # to the coarsest grid
        self.groupoid = groupoid
        self.grid = grid // common
        self.turns: dict[tuple[str, str], int] = {pair: t // common for pair, t in turns.items()}

    @staticmethod
    def trivial(groupoid: FiniteGroupoid) -> "Cocycle":
        return Cocycle.from_turns(groupoid, 1, {})

    def __call__(self, g: str, h: str) -> Phase:
        if (g, h) not in self.groupoid.compose:
            raise InputError(f"cocycle queried on non-composable pair ({g!r}, {h!r})")
        return Phase(Fraction(self.turns.get((g, h), 0), self.grid))

    @property
    def values(self) -> dict[tuple[str, str], Phase]:
        """Each value other than 1, as a Phase."""
        return {pair: Phase(Fraction(t, self.grid)) for pair, t in self.turns.items()}

    def violations(self) -> list[dict]:
        """Exact check of normalization and the 2-cocycle identity in whole numbers
        of 1/grid turns, over the composable triples only (c in the range fiber of
        s(b)).  A pair missing from the table raises as a query on it does."""
        g, grid = self.groupoid, self.grid
        turns = {**dict.fromkeys(g.compose, 0), **self.turns}

        def t(x: str, y: str) -> int:
            return turns[(x, y)] if (x, y) in turns else self(x, y)  # self(x, y) raises

        out = []
        for e in g.elements:
            if t(g.range[e], e) != 0 or t(e, g.source[e]) != 0:
                out.append({"axiom": "cocycle-normalized", "witness": [e]})
        fibers = g.range_fibers()
        for (a, b), ab in g.compose.items():
            t_ab = turns[(a, b)]
            for c in fibers.get(g.source[b], ()):
                try:
                    defect = t_ab + turns[(ab, c)] - turns[(b, c)] - turns[(a, g.compose[(b, c)])]
                except KeyError:  # replay the queries in order: the first missing pair raises
                    t(ab, c), t(b, c), t(a, g.compose[(b, c)])
                    raise
                if defect % grid != 0:
                    out.append({"axiom": "cocycle-identity", "witness": [a, b, c]})
        return out

    def to_dict(self) -> dict:
        """{"g|h": {"turns": [p, q]}} with p/q reduced, in pair order."""
        grid = self.grid
        return {f"{g}|{h}": {"turns": [t // math.gcd(t, grid), grid // math.gcd(t, grid)]}
                for (g, h), t in sorted(self.turns.items())}


@dataclass(frozen=True)
class TwistIsoResult(IsoResult):
    """An IsoResult with the groupoid verdict the twist search settles on the way
    (None when the budget ran out before a groupoid isomorphism was met)."""

    groupoids_isomorphic: bool | None = None

    def to_dict(self) -> dict:
        return {**super().to_dict(), "groupoids_isomorphic": self.groupoids_isomorphic}


def twists_isomorphic(a: Cocycle, b: Cocycle, budget: int = DEFAULT_ISO_BUDGET) -> TwistIsoResult:
    """Search for an isomorphism of the twists defined by two cocycles.

    A groupoid isomorphism phi counts when it carries the cocycle exactly,
    b(phi(g), phi(h)) == a(g, h) on every composable pair.  Cocycles that
    differ only by a coboundary are not identified.

    The verdict is settled in order by the element signatures, by the
    commutator pairing a(x, y) - a(y, x) on commuting pairs (Kleppner, 1965),
    then by one walk under one budget.  The multiset of (signature, number of
    commuting elements) over the elements, read off the profiles, is a groupoid
    invariant: if it differs, nothing is walked.  A carrying map preserves the
    signatures and the pairing, and a coboundary adds nothing to the pairing,
    so two cocycles whose multisets of per-element pairing profiles differ
    are not_isomorphic at any budget; the walk then runs unlabelled only to
    settle `groupoids_isomorphic` (None if the budget runs out first).  Else
    the walk's first groupoid isomorphism settles `groupoids_isomorphic`, and
    then the pairing prunes it, so its first carrying map is the unpruned one's.
    """
    grid = math.lcm(a.grid, b.grid)
    ta, tb = ({pair: t * (grid // c.grid) for pair, t in c.turns.items()} for c in (a, b))
    pairing_a, pairing_b = _commutator_pairing(a, grid, ta), _commutator_pairing(b, grid, tb)
    profiles = _pairing_profiles(a.groupoid, pairing_a), _pairing_profiles(b.groupoid, pairing_b)
    centralisers = [sorted((sig, len(values)) for sig, values in p) for p in profiles]
    if centralisers[0] != centralisers[1]:
        return TwistIsoResult("not_isomorphic", None, 0, False)
    refuted = profiles[0] != profiles[1]
    pairs = tuple(a.groupoid.compose)

    def carries(m: dict[str, str]) -> bool:
        return all(ta.get((g, h), 0) == tb.get((m[g], m[h]), 0) for g, h in pairs)

    def labels():
        by_element = {}
        for (x, e), v in pairing_a.items():
            by_element.setdefault(e, []).append((x, v))
        return by_element, pairing_b

    tracker, met = _Budget(budget), False
    try:
        if refuted:
            met = next(iter_isomorphisms(a.groupoid, b.groupoid, tracker), None) is not None
            return TwistIsoResult("not_isomorphic", None, tracker.used, met)
        for mapping in iter_isomorphisms(a.groupoid, b.groupoid, tracker, labels):
            if carries(mapping):
                return TwistIsoResult("isomorphic", mapping, tracker.used, True)
            met = True
    except BudgetExhausted:
        return TwistIsoResult("not_isomorphic" if refuted else "inconclusive", None, tracker.used,
                              met or None)
    return TwistIsoResult("not_isomorphic", None, tracker.used, met)


def _commutator_pairing(c: Cocycle, grid: int, turns: dict) -> dict[tuple[str, str], int]:
    """(x, y) -> c(x, y) - c(y, x) in whole 1/grid turns, mod grid, for each
    pair with xy = yx; turns is c.turns on that grid (a multiple of c.grid)."""
    compose = c.groupoid.compose
    return {(x, y): (turns.get((x, y), 0) - turns.get((y, x), 0)) % grid
            for (x, y), p in compose.items() if compose.get((y, x)) == p}


def _pairing_profiles(g: FiniteGroupoid, pairing: dict[tuple[str, str], int]) -> list:
    """The sorted multiset of (signature of e, sorted pairing[(x, e)] over the x
    that commute with e) over the elements e of g; a carrying map preserves it."""
    values = {e: [] for e in g.elements}
    for (_, e), v in pairing.items():
        values[e].append(v)
    sigs = g.signatures
    return sorted((sigs[e], sorted(vs)) for e, vs in values.items())


def pauli_cocycle(v4: FiniteGroupoid) -> Cocycle:
    """The sign cocycle sigma((a,b),(c,d)) = (-1)^(b*c) on the Klein group."""
    return Cocycle.from_turns(v4, 2, {(g, h): 1 for g, h in v4.compose
                                      if int(g[1]) * int(h[0]) % 2 == 1})
