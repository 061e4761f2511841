"""Twisted convolution *-algebra of a finite groupoid with a 2-cocycle.

Elements are finitely supported complex functions on the groupoid under
the twisted convolution

    (a * b)(g) = sum over hk = g of sigma(h, k) a(h) b(k)

with involution a*(g) = conj(sigma(g, g^-1)) conj(a(g^-1)) and the
diagonal map E restricting coefficients to the unit space.  The cocycle
(twistalg.twists) keeps whole turns; coefficients are double-precision
complex.  Each context turns its cocycle into product and star tables of
complex values once, and the coefficient kernels read only those tables.  The
twist itself is never materialized as a set, it lives entirely in the
cocycle and in (phase, element) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .groupoid import FiniteGroupoid, is_bisection, klein_four, standard_fixtures
from .twists import Cocycle, Phase, pauli_cocycle, turns_to_complex  # noqa: F401 (re-export)

DEFAULT_ZERO_TOL = 1e-9


class TwistedAlgebra:
    """Context object pairing a validated groupoid with a validated cocycle.

    All AlgebraElements hold a reference to their context; binary
    operations require the contexts to be the same object.
    """

    def __init__(self, groupoid: FiniteGroupoid, cocycle: Cocycle | None = None,
                 zero_tol: float = DEFAULT_ZERO_TOL, name: str | None = None):
        self.groupoid = groupoid
        self.cocycle = cocycle if cocycle is not None else Cocycle.trivial(groupoid)
        if self.cocycle.groupoid is not groupoid:
            raise InputError("cocycle belongs to a different groupoid")
        bad = self.cocycle.violations()
        if bad:
            w = bad[0]
            raise InputError(f"invalid cocycle: {w['axiom']} at {w['witness']}")
        self.zero_tol = float(zero_tol)
        if self.zero_tol >= 1:  # every delta_g has the coefficient 1 and would count as zero
            raise InputError(f"zero tolerance {self.zero_tol!r} is not below 1")
        self.name = name or groupoid.name
        # h -> k -> (hk, sigma(h, k)) and g -> (g^-1, conj(sigma(g^-1, g))), with the
        # phases taken to complex once here for the coefficient kernels.
        grid, turns = self.cocycle.grid, self.cocycle.turns
        self._product = {g: {} for g in groupoid.elements}
        for (h, k), hk in groupoid.compose.items():
            self._product[h][k] = (hk, turns_to_complex(turns.get((h, k), 0), grid))
        self._star = {}
        for g in groupoid.elements:
            ginv = groupoid.inverse[g]
            self._star[g] = (ginv, turns_to_complex(-turns.get((ginv, g), 0) % grid, grid))
        # The commutant basis, solved once by masa.commutant_basis, the
        # g -> (delta_g^*, source point, range point) frame, built once by
        # reconstruction._point_frame, and the regular representation's index
        # layout, built once by _representation_layout.
        self._commutant = None
        self._frame = None
        self._layout = None

    def __repr__(self) -> str:
        twisted = "twisted" if self.cocycle.turns else "untwisted"
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

    # -- basis-level products, read from the tables ------------------------------

    def delta_product(self, g: str, h: str) -> tuple[complex, str] | None:
        """delta_g * delta_h as a (phase, element) pair, None if zero."""
        entry = self._product.get(g, {}).get(h)
        return None if entry is None else (entry[1], entry[0])

    def delta_star(self, g: str) -> tuple[complex, str]:
        """delta_g^* as a (phase, element) pair."""
        ginv, phase = self._star[g]
        return phase, ginv

    @property
    def dimension(self) -> int:
        return len(self.groupoid.elements)


class AlgebraElement:
    """Finitely supported complex function on the groupoid elements.

    Immutable by convention: no method mutates coeffs after construction.
    Three caches are written once, on first use: `_dominating` (n's side in
    relations.dominates), `_star` (star()) and `_square` (n*n in relations).
    """

    __slots__ = ("ctx", "coeffs", "_dominating", "_star", "_square")

    def __init__(self, ctx: TwistedAlgebra, coeffs: dict[str, complex]):
        self.ctx = ctx
        self.coeffs = dict(coeffs)
        self._dominating = None
        self._star = None
        self._square = None

    # -- bookkeeping -----------------------------------------------------------

    def _same_context(self, other: "AlgebraElement") -> None:
        if self.ctx is not other.ctx:
            raise InputError("context mismatch between algebra elements")

    def coeff(self, g: str) -> complex:
        return self.coeffs.get(g, 0j)

    def support(self) -> tuple[str, ...]:
        t = self.ctx.zero_tol
        return tuple(sorted((g for g, c in self.coeffs.items() if abs(c) > t),
                            key=self.ctx.groupoid.index))

    def is_zero(self) -> bool:
        t = self.ctx.zero_tol
        return not any(abs(c) > t for c in self.coeffs.values())

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
        if self._star is None:
            self._star = involution(self)
        return self._star


def max_coeff_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coeff(g) - b.coeff(g)) for g in keys), default=0.0)


# -- core operations -----------------------------------------------------------


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a * b)(g) = sum over hk = g of sigma(h, k) a(h) b(k)."""
    a._same_context(b)
    product = a.ctx._product
    nonzero_b = [(k, bk) for k, bk in b.coeffs.items() if bk != 0]
    out: dict[str, complex] = {}
    for h, ah in a.coeffs.items():
        if ah == 0:
            continue
        row = product[h]
        for k, bk in nonzero_b:
            entry = row.get(k)
            if entry is None:
                continue
            g, sigma = entry
            out[g] = out.get(g, 0j) + sigma * ah * bk
    return AlgebraElement(a.ctx, out)


def product_coeff(a: AlgebraElement, b: AlgebraElement, g: str) -> complex:
    """(a * b)(g) alone: the terms of convolve(a, b) that land on g, summed in
    the same order, so the value equals convolve(a, b).coeff(g) bit for bit."""
    a._same_context(b)
    product, star = a.ctx._product, a.ctx._star
    acc = 0j
    for h, ah in a.coeffs.items():
        if ah == 0:
            continue
        # The one k with hk = g is h^-1 g, when that product is defined.
        entry = product[star[h][0]].get(g)
        if entry is None:
            continue
        k = entry[0]
        bk = b.coeffs.get(k, 0j)
        if bk == 0:
            continue
        acc = acc + product[h][k][1] * ah * bk
    return acc


def involution(a: AlgebraElement) -> AlgebraElement:
    """a*(g) = conj(sigma(g, g^-1)) conj(a(g^-1)); involutive, (ab)* = b*a*."""
    star = a.ctx._star
    out: dict[str, complex] = {}
    for g, c in a.coeffs.items():
        ginv, phase = star[g]
        out[ginv] = phase * c.conjugate()
    return AlgebraElement(a.ctx, out)


def diagonal(a: AlgebraElement) -> AlgebraElement:
    """Restriction of coefficients to the unit space (the expectation E)."""
    gpd = a.ctx.groupoid
    return AlgebraElement(a.ctx, {g: c for g, c in a.coeffs.items() if gpd.is_unit(g)})


def is_diagonal(a: AlgebraElement) -> bool:
    """True iff every coefficient above the zero tolerance sits on a unit."""
    gpd, tol = a.ctx.groupoid, a.ctx.zero_tol
    return all(gpd.is_unit(g) for g, c in a.coeffs.items() if abs(c) > tol)


def is_monomial(a: AlgebraElement) -> bool:
    """True iff the support of a is a bisection."""
    tol = a.ctx.zero_tol
    return is_bisection(a.ctx.groupoid, (g for g, c in a.coeffs.items() if abs(c) > tol))


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
    sigma(g, h) a(g) xi_{gh}.  Each entry is that one term, its real and imaginary
    parts formed apart as Python's complex product forms them: numpy's vectorised
    complex multiply can differ from it in the last bit.
    """

    basis: dict[str, tuple[str, ...]]
    blocks: dict[str, np.ndarray]

    @property
    def operator_norm(self) -> float:
        """The largest singular value, from one batched SVD per block shape."""
        shapes = {m.shape for m in self.blocks.values() if m.size}
        stacks = (np.stack([m for m in self.blocks.values() if m.shape == s]) for s in shapes)
        return float(max((np.linalg.svd(x, compute_uv=False).max() for x in stacks), default=0.0))


def _representation_layout(ctx: TwistedAlgebra) -> tuple:
    """The regular representation's index layout, built once per context in one
    pass over the product table: each unit's basis and the span of its block in
    one flat buffer, and per pair (g, h) the position of the entry (gh, h) in
    the block of source(h), the index of g, and sigma(g, h) split in two parts."""
    if ctx._layout is None:
        gpd, spans, col, row, size = ctx.groupoid, {}, {}, {}, 0
        basis = {u: gpd.source_fiber(u) for u in gpd.units}
        for u, fiber in basis.items():
            spans[u] = (size, len(fiber))
            for i, h in enumerate(fiber):
                col[h], row[h] = size + i, i * len(fiber)
            size += len(fiber) ** 2
        terms = [(col[h] + row[gh], gpd.index(g), sigma)
                 for g, pairs in ctx._product.items() for h, (gh, sigma) in pairs.items()]
        pos, gather = (np.array([t[i] for t in terms], dtype=np.intp) for i in (0, 1))
        sigma = np.array([t[2] for t in terms], dtype=complex)
        ctx._layout = basis, spans, size, pos, gather, sigma.real.copy(), sigma.imag.copy()
    return ctx._layout


def regular_representation(a: AlgebraElement) -> MatrixImage:
    basis, spans, size, pos, gather, sig_re, sig_im = _representation_layout(a.ctx)
    c = a.vector()[gather]
    flat = np.zeros(size, dtype=complex)
    # 0.0 + turns a -0.0 part into 0.0, as adding the term to a zero entry does.
    flat.real[pos] = 0.0 + (sig_re * c.real - sig_im * c.imag)
    flat.imag[pos] = 0.0 + (sig_re * c.imag + sig_im * c.real)
    blocks = {u: flat[s:s + d * d].reshape(d, d) for u, (s, d) in spans.items()}
    return MatrixImage(basis, blocks)


def cstar_norm(a: AlgebraElement) -> float:
    """Reduced C*-norm: largest singular value over the representation blocks."""
    return regular_representation(a).operator_norm


def is_positive(a: AlgebraElement) -> bool:
    if max_coeff_diff(a, a.star()) > 1e-9:
        return False
    image = regular_representation(a)
    for m in image.blocks.values():
        if m.size and np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-9:
            return False
    return True


def reduced_norm_formula(a: AlgebraElement) -> float:
    """The norm formula sup ||E(c* a* a c)||^(1/2) over ||E(c*c)|| <= 1, computed exactly.

    E(c* a*a c)(u) = c_u* G_u c_u and E(c*c)(u) = ||c_u||^2, where c_u is c on the
    source fiber of u and G_u[h, k] = (delta_h* a*a delta_k)(u) is its Gram block,
    so the supremum is the largest lambda_max(G_u)^(1/2).  The blocks come from
    convolution and involution alone, independent of the representation's layout.
    """
    ctx, gpd = a.ctx, a.ctx.groupoid
    square = convolve(involution(a), a)
    best = 0.0  # also clamps an eigenvalue that rounding made negative
    for u in gpd.units:
        fiber = gpd.source_fiber(u)
        rows = [convolve(involution(ctx.delta(h)), square) for h in fiber]
        gram = np.array([[product_coeff(r, ctx.delta(k), u) for k in fiber] for r in rows])
        best = max(best, float(np.linalg.eigvalsh(gram).max()))
    return math.sqrt(best)


# -- standard twisted contexts ---------------------------------------------------


def standard_contexts() -> dict[str, TwistedAlgebra]:
    """The desk-scale fixture contexts, trivially twisted except V4_pauli."""
    out = {name: TwistedAlgebra(g, name=name) for name, g in standard_fixtures().items()}
    v4 = klein_four("V4_pauli")
    out["V4_pauli"] = TwistedAlgebra(v4, pauli_cocycle(v4), name="V4_pauli")
    return out
