"""Commutants, MASA detection, and the normalizer-vs-MASA theorems.

The commutant of the diagonal subalgebra is the null space of the linear
map a -> (delta_u a - a delta_u) over the units u, solved on coefficient
vectors, then cross-checked against the combinatorial characterization:
an element commutes with every diagonal delta iff its support lies in the
isotropy.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    TwistedAlgebra,
    diagonal,
    is_diagonal,
    is_monomial,
    max_coeff_diff,
)
from .errors import ConsistencyError, InputError
from .groupoid import is_effective
from .relations import general_restriction_le
from .semigroups import (
    SemigroupSpec,
    csum_closure,
    first_unsummable,
    membership,
    random_diagonal,
    random_element,
    sample_members,
)

EXHAUSTIVE_SWEEP_ELEMENTS = 6  # support sweeps cover every pattern up to this size


@dataclass(frozen=True)
class CommutantBasis:
    """Linear basis of {a : ab = ba for all diagonal b}."""

    ctx: TwistedAlgebra
    vectors: tuple[AlgebraElement, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def commutant_basis(ctx: TwistedAlgebra) -> CommutantBasis:
    """Solve for the commutant and cache the cross-checked basis on ctx,
    where is_masa reads it."""
    gpd = ctx.groupoid
    units = [ctx.delta(u) for u in gpd.units]
    deltas = [ctx.delta(g) for g in gpd.elements]
    # Column g stacks the coefficient vectors of delta_u delta_g - delta_g delta_u over
    # all units u; the commutant is the null space.  The explicit shape keeps the
    # matrix two-dimensional when the groupoid has no elements.
    mat = np.array([np.concatenate([(du * dg - dg * du).vector() for du in units])
                    for dg in deltas]).reshape(len(deltas), len(units) * len(deltas)).T
    _, s, vh = np.linalg.svd(mat)
    rank = int((s > 1e-10 * max(s[0], 1.0)).sum()) if s.size else 0
    null = vh[rank:].conj()
    vectors = []
    for row in null:
        coeffs = {g: row[i] for i, g in enumerate(gpd.elements) if abs(row[i]) > 1e-12}
        vectors.append(AlgebraElement(ctx, coeffs))
    basis = CommutantBasis(ctx, tuple(vectors))
    # Cross-check against the combinatorial picture: support in the isotropy.
    iso_dim = sum(len(gpd.isotropy(u)) for u in gpd.units)
    supported = all(
        gpd.source[g] == gpd.range[g] for v in vectors for g in v.support()
    )
    if basis.dimension != iso_dim or not supported:
        raise ConsistencyError(
            f"commutant solve ({basis.dimension}) disagrees with isotropy count ({iso_dim})"
        )
    ctx._commutant = basis
    return basis


def is_masa(ctx: TwistedAlgebra) -> bool:
    """True iff the diagonal subalgebra equals its own commutant.

    Both the linear-algebra route and the groupoid effectiveness test run
    and must agree.  The commutant is solved once per context.
    """
    basis = ctx._commutant if ctx._commutant is not None else commutant_basis(ctx)
    algebraic = basis.dimension == len(ctx.groupoid.units)
    effective = is_effective(ctx.groupoid)
    if algebraic != effective:
        raise ConsistencyError("commutant computation disagrees with effectiveness")
    return algebraic


def _swept_supports(ctx: TwistedAlgebra):
    """Every nonempty support pattern, on groupoids small enough to sweep; else none."""
    elems = ctx.groupoid.elements
    if len(elems) <= EXHAUSTIVE_SWEEP_ELEMENTS:
        for k in range(1, len(elems) + 1):
            yield from itertools.combinations(elems, k)


# -- theorem: MASA implies csum(N) = N(B) ---------------------------------------------


def masa_implies_normalisers(ctx: TwistedAlgebra, rng) -> dict:
    """Extensional equality of the monomial csum closure with the normalizers.

    Checked on the monomial generators, on random elements, and on a full
    support-pattern sweep when the groupoid is small.
    """
    if not is_masa(ctx):
        return {"status": "skipped", "reason": "diagonal is not a MASA"}
    monomial = SemigroupSpec.monomial(ctx)
    normal = SemigroupSpec.normalizers(ctx)
    disagreements = []

    def agree(a) -> bool:
        return membership(monomial, a) == membership(normal, a)

    for g in ctx.groupoid.elements:
        if not agree(ctx.delta(g)):
            disagreements.append(repr(ctx.delta(g)))
    for _ in range(200):
        a = random_element(ctx, rng)
        if not agree(a):
            disagreements.append(repr(a))
            break
    for pattern in _swept_supports(ctx):
        for _ in range(2):
            a = AlgebraElement(ctx, {g: complex(0.3 + rng.random(), rng.random()) for g in pattern})
            if not agree(a):
                disagreements.append(repr(a))
    return {
        "status": "checked",
        "passed": not disagreements,
        "swept": len(ctx.groupoid.elements) <= EXHAUSTIVE_SWEEP_ELEMENTS,
        "disagreements": disagreements[:3],
    }


# -- theorem: N = N(B) forces a MASA (contrapositive witnesses) -------------------------


def _normalized_isotropy_delta(ctx: TwistedAlgebra, g: str) -> tuple[AlgebraElement, int]:
    """A phase-normalized c = z delta_g with c^K = delta_u in the positive cone."""
    gpd = ctx.groupoid
    order = gpd.isotropy_order(g)
    omega = _power(ctx.delta(g), order).coeff(gpd.power(g, 0))
    zeta = cmath.exp(-1j * cmath.phase(omega) / order)
    return ctx.delta(g, zeta), order


def nonmonomial_normalizer(ctx: TwistedAlgebra) -> tuple[AlgebraElement, AlgebraElement, int]:
    """A commutant witness c (E(c) = 0, c*c = cc* diagonal) and a normalizer
    built from it that is not a compatible sum of monomials."""
    gpd = ctx.groupoid
    candidates = [
        g for g in gpd.elements
        if gpd.source[g] == gpd.range[g] and not gpd.is_unit(g)
    ]
    if not candidates:
        raise InputError("groupoid has trivial isotropy; every normalizer is monomial")
    for g in candidates:
        c, order = _normalized_isotropy_delta(ctx, g)
        unit = gpd.source[g]
        one_u = ctx.delta(unit)
        if order == 2:
            n = one_u + 1j * c
        else:
            n = float(order - 2) * one_u
            power = one_u
            for _ in range(order - 1):
                power = power * c
                n = n - 2 * power
        if membership(SemigroupSpec.normalizers(ctx), n) and not is_monomial(n):
            return c, n, order
    raise ConsistencyError("no isotropy element produced a non-monomial normalizer")


def normalisers_imply_masa_contrapositive(ctx: TwistedAlgebra, rng) -> dict:
    """On a non-MASA context, exhibit the witness structure of the theorem:
    c in the commutant with E(c) = 0 and c*c = cc* diagonal, and a
    normalizer outside the csum closure of the monomials."""
    if is_masa(ctx):
        return {"status": "skipped", "reason": "diagonal is a MASA"}
    c, n, order = nonmonomial_normalizer(ctx)
    tol = ctx.zero_tol
    checks = {
        "c_nonzero": not c.is_zero(),
        "c_commutes": all(
            max_coeff_diff(c * b, b * c) <= tol
            for b in (random_diagonal(ctx, rng) for _ in range(20))
        ),
        "expectation_kills_c": diagonal(c).is_zero(),
        "cc_star_diagonal": is_diagonal(c * c.star()) and is_diagonal(c.star() * c),
        "cc_star_normal": max_coeff_diff(c * c.star(), c.star() * c) <= tol,
        "expectation_kills_powers": all(
            diagonal(_power(c, k)).is_zero() for k in range(1, order)
        ),
        "witness_is_normalizer": membership(SemigroupSpec.normalizers(ctx), n),
        "witness_not_in_csum": not membership(csum_closure(SemigroupSpec.monomial(ctx)), n),
    }
    return {
        "status": "checked",
        "passed": all(checks.values()),
        "checks": checks,
        "commutant_witness": repr(c),
        "normalizer_witness": repr(n),
        "order": order,
    }


def _power(a: AlgebraElement, k: int) -> AlgebraElement:
    out = a
    for _ in range(k - 1):
        out = out * a
    return out


# -- the Cartan criterion ----------------------------------------------------------


def _normalizer_pool(ctx: TwistedAlgebra, rng, samples: int) -> list[AlgebraElement]:
    pool = list(sample_members(SemigroupSpec.normalizers(ctx), rng, samples))
    try:
        _, n, _ = nonmonomial_normalizer(ctx)
        pool.append(n)
    except InputError:
        pass
    for pattern in _swept_supports(ctx):
        a = AlgebraElement(ctx, {g: complex(1.0) for g in pattern})
        if membership(SemigroupSpec.normalizers(ctx), a):
            pool.append(a)
    return pool


def cartan_criterion(ctx: TwistedAlgebra, rng) -> dict:
    """The diagonal is a Cartan subalgebra iff E is faithful and E(n) is a
    restriction of n for every normalizer n; the conjunction must equal
    the MASA test."""
    faithful = True
    for _ in range(40):
        a = random_element(ctx, rng)
        ea = diagonal(a.star() * a)
        total = sum(c.real for c in ea.coeffs.values())
        direct = sum(abs(c) ** 2 for c in a.coeffs.values())
        if abs(total - direct) > 1e-8 or (ea.is_zero() and not a.is_zero()):
            faithful = False
    deflation_ok = True
    witness = None
    for n in _normalizer_pool(ctx, rng, 60):
        if not general_restriction_le(diagonal(n), n):
            deflation_ok = False
            witness = repr(n)
            break
    conjunction = faithful and deflation_ok
    masa = is_masa(ctx)
    return {
        "expectation_faithful": faithful,
        "expectation_deflationary": deflation_ok,
        "failing_normalizer": witness,
        "criterion": conjunction,
        "is_masa": masa,
        "passed": conjunction == masa,
    }


def summable_normalizers_report(ctx: TwistedAlgebra, rng) -> dict:
    """The normalizer semigroup is closed under compatible sums, on samples."""
    normal = SemigroupSpec.normalizers(ctx)
    samples = 40
    pool = sample_members(normal, rng, samples)
    picks = (pool[int(rng.integers(len(pool)))] for _ in range(samples))
    scaled = ((n * random_diagonal(ctx, rng), n * random_diagonal(ctx, rng)) for n in picks)
    # Both streams run; the second one's witness is reported when both fail.
    first = first_unsummable(normal, scaled)
    witness = first_unsummable(normal, itertools.combinations(pool[: samples // 2], 2)) or first
    return {"passed": witness is None, "witness": witness}
