"""Twisted convolution *-algebra of a finite groupoid with a 2-cocycle.

Elements are finitely supported complex functions on the groupoid under
the twisted convolution

    (a * b)(g) = sum over hk = g of sigma(h, k) a(h) b(k)

with involution a*(g) = conj(sigma(g, g^-1)) conj(a(g^-1)) and the
diagonal map E restricting coefficients to the unit space.  Phases are
kept as exact rational turns; coefficients are double-precision complex.
The twist itself is never materialized as a set, it lives entirely in
the cocycle and in (phase, element) pairs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .groupoid import (
    FiniteGroupoid,
    IsoResult,
    groupoids_isomorphic,
    is_bisection,
    klein_four,
    standard_fixtures,
)

MAX_SNAP_DENOMINATOR = 10**12

_EXACT_TURNS = {
    Fraction(0): 1 + 0j,
    Fraction(1, 2): -1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(3, 4): -1j,
}


@dataclass(frozen=True)
class Phase:
    """Unit-modulus scalar exp(2*pi*i*turns) with turns a rational in [0, 1).

    Multiplication adds turns mod 1 and conjugation negates them, so phase
    arithmetic is exact; the complex view is only taken at the boundary to
    coefficient arithmetic.
    """

    turns: Fraction

    @staticmethod
    def of(p: int, q: int = 1) -> "Phase":
        return Phase(Fraction(p, q) % 1)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase((self.turns + other.turns) % 1)

    def conj(self) -> "Phase":
        return Phase((-self.turns) % 1)

    @property
    def complex(self) -> complex:
        exact = _EXACT_TURNS.get(self.turns)
        if exact is not None:
            return exact
        return cmath.exp(2j * cmath.pi * float(self.turns))

    @staticmethod
    def from_complex(z: complex, denominator: int = 64, tol: float = 1e-6) -> "Phase":
        """Snap a unit-modulus complex number to the nearest multiple of 1/denominator turn."""
        if denominator > MAX_SNAP_DENOMINATOR:
            raise InputError(f"phases finer than 1/{MAX_SNAP_DENOMINATOR} turn cannot be "
                             f"recovered from a float angle (asked for 1/{denominator})")
        if abs(abs(z) - 1.0) > 1e-6:
            raise InputError(f"not a unit-modulus scalar: {z!r}")
        turns = Fraction(round(cmath.phase(z) / (2 * cmath.pi) * denominator), denominator) % 1
        if abs(Phase(turns).complex - z) > tol:
            raise InputError(f"phase {z!r} is not close to a multiple of 1/{denominator} turn")
        return Phase(turns)

    def __repr__(self) -> str:
        return f"Phase({self.turns})"


PHASE_ONE = Phase(Fraction(0))


class Cocycle:
    """A normalized T-valued 2-cocycle on the composable pairs of a groupoid.

    Stored sparsely: absent pairs have phase 1.  Validation is exact
    (Fraction arithmetic) and violations are reported, never normalized
    away.
    """

    def __init__(self, groupoid: FiniteGroupoid, values: dict | None = None):
        self.groupoid = groupoid
        self.values: dict[tuple[str, str], Phase] = {}
        for (g, h), phase in (values or {}).items():
            if (g, h) not in groupoid.compose:
                raise InputError(f"cocycle entry on non-composable pair ({g!r}, {h!r})")
            if not isinstance(phase, Phase):
                raise InputError(f"cocycle value for ({g!r}, {h!r}) is not a Phase")
            if phase.turns != 0:
                self.values[(g, h)] = phase

    @staticmethod
    def trivial(groupoid: FiniteGroupoid) -> "Cocycle":
        return Cocycle(groupoid, {})

    def __call__(self, g: str, h: str) -> Phase:
        if (g, h) not in self.groupoid.compose:
            raise InputError(f"cocycle queried on non-composable pair ({g!r}, {h!r})")
        return self.values.get((g, h), PHASE_ONE)

    def violations(self) -> list[dict]:
        """Exact check of normalization and the 2-cocycle identity."""
        g = self.groupoid
        out = []
        for e in g.elements:
            if self(g.range[e], e).turns != 0 or self(e, g.source[e]).turns != 0:
                out.append({"axiom": "cocycle-normalized", "witness": [e]})
        for a, b in g.compose:
            for c in g.elements:
                if g.source[b] != g.range[c]:
                    continue
                lhs = self(a, b).turns + self(g.compose[(a, b)], c).turns
                rhs = self(b, c).turns + self(a, g.compose[(b, c)]).turns
                if (lhs - rhs) % 1 != 0:
                    out.append({"axiom": "cocycle-identity", "witness": [a, b, c]})
        return out

    def to_dict(self) -> dict:
        return {
            f"{g}|{h}": {"turns": [p.turns.numerator, p.turns.denominator]}
            for (g, h), p in sorted(self.values.items())
        }


def twists_isomorphic(a: Cocycle, b: Cocycle, budget: int = 10**6) -> IsoResult:
    """Search for an isomorphism of the twists defined by two cocycles.

    A groupoid isomorphism phi counts when it carries the cocycle exactly,
    b(phi(g), phi(h)) == a(g, h) on every composable pair; `rejected` counts
    the groupoid isomorphisms that do not.  Cocycles that differ only by a
    coboundary are not identified.
    """
    zero = Fraction(0)
    ta = {pair: p.turns for pair, p in a.values.items()}
    tb = {pair: p.turns for pair, p in b.values.items()}
    pairs = tuple(a.groupoid.compose)

    def carries(m: dict[str, str]) -> bool:
        return all(ta.get((g, h), zero) == tb.get((m[g], m[h]), zero) for g, h in pairs)

    return groupoids_isomorphic(a.groupoid, b.groupoid, budget, accept=carries)


def pauli_cocycle(v4: FiniteGroupoid) -> Cocycle:
    """The sign cocycle sigma((a,b),(c,d)) = (-1)^(b*c) on the Klein group."""
    vals = {}
    for g, h in v4.compose:
        if int(g[1]) * int(h[0]) % 2 == 1:
            vals[(g, h)] = Phase.of(1, 2)
    return Cocycle(v4, vals)


class TwistedAlgebra:
    """Context object pairing a validated groupoid with a validated cocycle.

    All AlgebraElements hold a reference to their context; binary
    operations require the contexts to be the same object.
    """

    def __init__(self, groupoid: FiniteGroupoid, cocycle: Cocycle | None = None,
                 zero_tol: float = 1e-9, name: str | None = None):
        self.groupoid = groupoid
        self.cocycle = cocycle if cocycle is not None else Cocycle.trivial(groupoid)
        if self.cocycle.groupoid is not groupoid:
            raise InputError("cocycle belongs to a different groupoid")
        bad = self.cocycle.violations()
        if bad:
            w = bad[0]
            raise InputError(f"invalid cocycle: {w['axiom']} at {w['witness']}")
        self.zero_tol = float(zero_tol)
        self.name = name or groupoid.name

    def __repr__(self) -> str:
        twisted = "twisted" if self.cocycle.values else "untwisted"
        return f"TwistedAlgebra({self.name!r}, {twisted}, dim {self.dimension})"

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: dict) -> "AlgebraElement":
        for g in coeffs:
            self.groupoid.check_element(g)
        return AlgebraElement(self, {g: complex(c) for g, c in coeffs.items()})

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def delta(self, g: str, coeff: complex = 1.0) -> "AlgebraElement":
        self.groupoid.check_element(g)
        return AlgebraElement(self, {g: complex(coeff)})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {u: 1 + 0j for u in self.groupoid.units})

    def indicator(self, units) -> "AlgebraElement":
        out = {}
        for u in units:
            self.groupoid.check_element(u)
            if not self.groupoid.is_unit(u):
                raise InputError(f"{u!r} is not a unit")
            out[u] = 1 + 0j
        return AlgebraElement(self, out)

    # -- exact basis-level products -------------------------------------------

    def delta_product(self, g: str, h: str) -> tuple[Phase, str] | None:
        """delta_g * delta_h as an exact (phase, element) pair, None if zero."""
        k = self.groupoid.product(g, h)
        if k is None:
            return None
        return self.cocycle(g, h), k

    def delta_star(self, g: str) -> tuple[Phase, str]:
        """delta_g^* as an exact (phase, element) pair."""
        ginv = self.groupoid.inverse[g]
        return self.cocycle(ginv, g).conj(), ginv

    @property
    def dimension(self) -> int:
        return len(self.groupoid.elements)


class AlgebraElement:
    """Finitely supported complex function on the groupoid elements.

    Immutable by convention: no method mutates coeffs after construction,
    and the regular-representation blocks are cached write-once.
    """

    __slots__ = ("ctx", "coeffs", "_blocks")

    def __init__(self, ctx: TwistedAlgebra, coeffs: dict[str, complex]):
        self.ctx = ctx
        self.coeffs = dict(coeffs)
        self._blocks = None

    # -- bookkeeping -----------------------------------------------------------

    def _same_context(self, other: "AlgebraElement") -> None:
        if self.ctx is not other.ctx:
            raise InputError("context mismatch between algebra elements")

    def coeff(self, g: str) -> complex:
        return self.coeffs.get(g, 0j)

    def support(self, tol: float | None = None) -> tuple[str, ...]:
        t = self.ctx.zero_tol if tol is None else tol
        return tuple(g for g in self.ctx.groupoid.elements if abs(self.coeffs.get(g, 0j)) > t)

    def is_zero(self, tol: float | None = None) -> bool:
        return not self.support(tol)

    def sup_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def vector(self) -> np.ndarray:
        out = np.zeros(len(self.ctx.groupoid.elements), dtype=complex)
        for g, c in self.coeffs.items():
            out[self.ctx.groupoid.index(g)] = c
        return out

    def __repr__(self) -> str:
        parts = [f"{c:.4g}*d[{g}]" for g, c in sorted(self.coeffs.items()) if abs(c) > 0]
        return "AlgebraElement(" + (" + ".join(parts) if parts else "0") + ")"

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_context(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0j) + c
        return AlgebraElement(self.ctx, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __rmul__(self, z) -> "AlgebraElement":
        if isinstance(z, (int, float, complex)):
            return AlgebraElement(self.ctx, {g: z * c for g, c in self.coeffs.items()})
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        if isinstance(other, (int, float, complex)):
            return other * self
        return NotImplemented

    # -- *-algebra operations ----------------------------------------------------

    def star(self) -> "AlgebraElement":
        return involution(self)

    def diagonal_part(self) -> "AlgebraElement":
        return diagonal(self)

    def norm(self) -> float:
        return cstar_norm(self)

    def approx_eq(self, other: "AlgebraElement", tol: float | None = None) -> bool:
        self._same_context(other)
        t = self.ctx.zero_tol if tol is None else tol
        return max_coeff_diff(self, other) <= t


def max_coeff_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coeff(g) - b.coeff(g)) for g in keys), default=0.0)


# -- core operations -----------------------------------------------------------


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a * b)(g) = sum over hk = g of sigma(h, k) a(h) b(k)."""
    a._same_context(b)
    ctx = a.ctx
    gpd = ctx.groupoid
    out: dict[str, complex] = {}
    for h, ah in a.coeffs.items():
        if ah == 0:
            continue
        for k, bk in b.coeffs.items():
            if bk == 0:
                continue
            g = gpd.product(h, k)
            if g is None:
                continue
            out[g] = out.get(g, 0j) + ctx.cocycle(h, k).complex * ah * bk
    return AlgebraElement(ctx, out)


def involution(a: AlgebraElement) -> AlgebraElement:
    """a*(g) = conj(sigma(g, g^-1)) conj(a(g^-1)); involutive, (ab)* = b*a*."""
    ctx = a.ctx
    out: dict[str, complex] = {}
    for g, c in a.coeffs.items():
        phase, ginv = ctx.delta_star(g)
        out[ginv] = phase.complex * c.conjugate()
    return AlgebraElement(ctx, out)


def diagonal(a: AlgebraElement) -> AlgebraElement:
    """Restriction of coefficients to the unit space (the expectation E)."""
    gpd = a.ctx.groupoid
    return AlgebraElement(a.ctx, {g: c for g, c in a.coeffs.items() if gpd.is_unit(g)})


def is_diagonal(a: AlgebraElement, tol: float | None = None) -> bool:
    return all(a.ctx.groupoid.is_unit(g) for g in a.support(tol))


def is_monomial(a: AlgebraElement, tol: float | None = None) -> bool:
    """True iff the support of a is a bisection."""
    return is_bisection(a.ctx.groupoid, a.support(tol))


def diagonal_function(b: AlgebraElement, f) -> AlgebraElement:
    """Exact functional calculus on a diagonal element with real coefficients.

    Applies f pointwise to the unit coefficients; f(0) = 0 is implicit
    since absent coefficients stay absent.
    """
    ctx = b.ctx
    if not is_diagonal(b):
        raise InputError("functional calculus requires a diagonal element")
    out = {}
    for u, c in b.coeffs.items():
        if abs(c.imag) > 1e-9:
            raise InputError("functional calculus requires real coefficients")
        val = f(c.real)
        if val != 0:
            out[u] = complex(val)
    return AlgebraElement(ctx, out)


# -- regular representation and norms -------------------------------------------


@dataclass(frozen=True)
class MatrixImage:
    """Per-unit operator blocks of the regular representation.

    Block u acts on the basis {xi_h : source(h) = u} via
    pi_u(a) xi_h = sum over g with source(g) = range(h) of
    sigma(g, h) a(g) xi_{gh}.
    """

    basis: dict[str, tuple[str, ...]]
    blocks: dict[str, np.ndarray]

    @property
    def operator_norm(self) -> float:
        norms = [np.linalg.norm(m, 2) for m in self.blocks.values() if m.size]
        return float(max(norms, default=0.0))


def regular_representation(a: AlgebraElement) -> MatrixImage:
    if a._blocks is not None:
        return a._blocks
    ctx = a.ctx
    gpd = ctx.groupoid
    basis = {u: gpd.source_fiber(u) for u in gpd.units}
    blocks = {}
    for u, fiber in basis.items():
        idx = {h: i for i, h in enumerate(fiber)}
        m = np.zeros((len(fiber), len(fiber)), dtype=complex)
        for h in fiber:
            for g, c in a.coeffs.items():
                if gpd.source[g] != gpd.range[h]:
                    continue
                gh = gpd.compose[(g, h)]
                m[idx[gh], idx[h]] += ctx.cocycle(g, h).complex * c
        blocks[u] = m
    image = MatrixImage(basis, blocks)
    a._blocks = image
    return image


def cstar_norm(a: AlgebraElement) -> float:
    """Reduced C*-norm: largest singular value over the representation blocks."""
    return regular_representation(a).operator_norm


def is_positive(a: AlgebraElement, tol: float = 1e-9) -> bool:
    if max_coeff_diff(a, a.star()) > tol:
        return False
    image = regular_representation(a)
    for m in image.blocks.values():
        if m.size and np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -tol:
            return False
    return True


def check_reduced_norm_formula(a: AlgebraElement, trials: int = 500,
                               rng: np.random.Generator | None = None) -> dict:
    """Probe the norm formula sup ||E(c* a* a c)||_inf^(1/2) over ||E(c*c)|| <= 1.

    Runs two families of test vectors c: unconstrained random elements
    (whose value must stay below the operator norm) and structured
    source-fiber combinations of deltas refined by power iteration (whose
    best value must come within 5 percent of the operator norm).  Only
    convolution, involution and the diagonal map are used on this route,
    so it is independent of the singular-value computation it checks.
    """
    ctx = a.ctx
    rng = rng if rng is not None else np.random.default_rng(0)
    norm = cstar_norm(a)
    gpd = ctx.groupoid

    def formula_value(c: AlgebraElement) -> float:
        d = diagonal(c.star() * c)
        scale = d.sup_coeff()
        if scale <= ctx.zero_tol:
            return 0.0
        c = (1 / np.sqrt(scale)) * c
        return float(np.sqrt(diagonal(c.star() * (a.star() * (a * c))).sup_coeff()))

    random_best = 0.0
    overshoot = 0.0
    for _ in range(trials):
        coeffs = {
            g: complex(rng.normal(), rng.normal())
            for g in gpd.elements
            if rng.random() < 0.7
        }
        val = formula_value(AlgebraElement(ctx, coeffs))
        random_best = max(random_best, val)
        overshoot = max(overshoot, val - norm)

    structured_best = 0.0
    units = list(gpd.units)
    for t in range(trials):
        u = units[t % len(units)]
        fiber = gpd.source_fiber(u)
        vec = rng.normal(size=len(fiber)) + 1j * rng.normal(size=len(fiber))
        c = AlgebraElement(ctx, dict(zip(fiber, vec)))
        for _ in range(4):
            c = a.star() * (a * c)
            s = c.sup_coeff()
            if s <= ctx.zero_tol:
                break
            c = (1 / s) * c
        structured_best = max(structured_best, formula_value(c))
    best = max(random_best, structured_best)
    gap = 0.0 if norm <= ctx.zero_tol else (norm - best) / norm
    return {
        "operator_norm": norm,
        "monte_carlo_best": best,
        "upper_bound_ok": overshoot <= 1e-7,
        "overshoot": overshoot,
        "gap": gap,
        "gap_ok": gap <= 0.05,
        "trials": trials,
    }


# -- standard twisted contexts ---------------------------------------------------


def standard_contexts(zero_tol: float = 1e-9) -> dict[str, TwistedAlgebra]:
    """The desk-scale fixture contexts, trivially twisted except V4_pauli."""
    out = {
        name: TwistedAlgebra(g, zero_tol=zero_tol, name=name)
        for name, g in standard_fixtures().items()
    }
    v4 = klein_four("V4_pauli")
    out["V4_pauli"] = TwistedAlgebra(v4, pauli_cocycle(v4), zero_tol=zero_tol, name="V4_pauli")
    return out
