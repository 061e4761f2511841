"""Cartan semigroup specs: membership predicates, axiom checks, csum closures.

A semigroup spec is a predicate plus generator enumeration, never a
materialized set.  Four kinds are supported:

  monomial     support is a bisection
  basis        support lies in a fixed family of bisections
  normalizers  n delta_u n* and n* delta_u n diagonal for every unit u
  csum         support is a bisection covered by a basis: the closure of a basis
               spec under finite compatible sums (m, n compatible iff m*n and
               mn* are diagonal); the other kinds are their own closures
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    TwistedAlgebra,
    diagonal,
    is_diagonal,
    is_monomial,
    max_coeff_diff,
    pairwise_diagonal,
)
from .errors import ConsistencyError, InputError
from .groupoid import all_bisections, is_bisection, subset_inverse, subset_product

EXHAUSTIVE_SWEEP_ELEMENTS = 6  # support sweeps cover every pattern up to this size
SWEEP_PATTERN_CAP = 250  # bisection patterns in the summability pair sweep


class BisectionBasis:
    """A family of bisections closed under subsets, products and inverses,
    containing the unit space."""

    def __init__(self, groupoid, members):
        self.groupoid = groupoid
        fam = set()
        for m in members:
            fs = frozenset(groupoid.check_element(e) for e in m)
            fam.add(fs)
        fam.add(frozenset())
        self.family = frozenset(fam)
        self.covered = frozenset(itertools.chain.from_iterable(self.family))
        for bad in self.violations():
            raise InputError(f"invalid bisection basis: {bad}")

    def violations(self) -> list[str]:
        g = self.groupoid
        out = []
        for m in self.family:
            if not is_bisection(g, m):
                out.append(f"member {sorted(m)} is not a bisection")
        if frozenset(g.units) not in self.family:
            out.append("unit space missing")
        for m in self.family:
            for k in range(len(m)):
                for sub in itertools.combinations(m, k):
                    if frozenset(sub) not in self.family:
                        out.append(f"subset {sorted(sub)} of {sorted(m)} missing")
        for a, b in itertools.product(self.family, repeat=2):
            if subset_product(g, a, b) not in self.family:
                out.append(f"product of {sorted(a)} and {sorted(b)} missing")
        for a in self.family:
            if subset_inverse(g, a) not in self.family:
                out.append(f"inverse of {sorted(a)} missing")
        return out

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self.family


@dataclass(frozen=True)
class SemigroupSpec:
    """Predicate-level description of a *-subsemigroup of the algebra."""

    ctx: TwistedAlgebra
    kind: str
    basis: BisectionBasis | None = None

    @staticmethod
    def monomial(ctx) -> "SemigroupSpec":
        return SemigroupSpec(ctx, "monomial")

    @staticmethod
    def basis_restricted(ctx, basis: BisectionBasis) -> "SemigroupSpec":
        return SemigroupSpec(ctx, "basis", basis=basis)

    @staticmethod
    def normalizers(ctx) -> "SemigroupSpec":
        return SemigroupSpec(ctx, "normalizers")


def _is_normalizer(ctx: TwistedAlgebra, a: AlgebraElement) -> bool:
    astar = a.star()
    for u in ctx.groupoid.units:
        du = ctx.delta(u)
        if not is_diagonal(a * (du * astar)):
            return False
        if not is_diagonal(astar * (du * a)):
            return False
    return True


def membership(spec: SemigroupSpec, a: AlgebraElement) -> bool:
    ctx = spec.ctx
    if a.ctx is not ctx:
        raise InputError("element from a different context")
    if a.is_zero():
        return True
    if spec.kind == "monomial":
        return is_monomial(a)
    if spec.kind == "basis":
        return frozenset(a.support()) in spec.basis
    if spec.kind == "normalizers":
        return _is_normalizer(ctx, a)
    if spec.kind == "csum":
        # Compatible sums of basis monomials: the bisections the basis covers.
        supp = a.support()
        return is_bisection(ctx.groupoid, supp) and all(g in spec.basis.covered for g in supp)
    raise InputError(f"unknown semigroup kind {spec.kind!r}")


def compatible(m: AlgebraElement, n: AlgebraElement) -> bool:
    """m, n compatible iff m*n and mn* are diagonal."""
    return is_diagonal(m.star() * n) and is_diagonal(m * n.star())


def first_unsummable(spec: SemigroupSpec, pairs) -> tuple[str, str] | None:
    """(repr(m), repr(n)) for the first compatible pair whose sum is not a member."""
    for m, n in pairs:
        if compatible(m, n) and not membership(spec, m + n):
            return repr(m), repr(n)
    return None


def csum_closure(spec: SemigroupSpec) -> SemigroupSpec:
    """Closure of a spec under finite compatible sums; only a basis spec grows."""
    if spec.kind != "basis":
        return spec
    return SemigroupSpec(spec.ctx, "csum", basis=spec.basis)


# -- sampling -------------------------------------------------------------------


def random_coeff(rng) -> complex:
    mag = 0.3 + (2.0 - 0.3) * rng.random()
    return mag * np.exp(2j * np.pi * rng.random())


def random_monomial(ctx: TwistedAlgebra, rng) -> AlgebraElement:
    """Random element supported on a random bisection."""
    gpd = ctx.groupoid
    order = list(gpd.elements)
    rng.shuffle(order)
    chosen, used_s, used_r = [], set(), set()
    for g in order:
        if gpd.source[g] in used_s or gpd.range[g] in used_r:
            continue
        if rng.random() < 0.75:
            chosen.append(g)
            used_s.add(gpd.source[g])
            used_r.add(gpd.range[g])
    return AlgebraElement(ctx, {g: random_coeff(rng) for g in chosen})


def random_diagonal(ctx: TwistedAlgebra, rng, positive: bool = False) -> AlgebraElement:
    out = {}
    for u in ctx.groupoid.units:
        if rng.random() < 0.7:
            out[u] = complex(0.3 + 1.7 * rng.random()) if positive else random_coeff(rng)
    return AlgebraElement(ctx, out)


def random_element(ctx: TwistedAlgebra, rng) -> AlgebraElement:
    return AlgebraElement(
        ctx,
        {g: random_coeff(rng) for g in ctx.groupoid.elements if rng.random() < 0.7},
    )


def _isotropy_unitary_candidates(ctx: TwistedAlgebra, rng, count: int):
    """Constant-modulus-spectrum candidates supported on cyclic isotropy.

    Inverse Fourier transforms of unimodular functions on a cyclic
    isotropy subgroup; kept only if they pass the normalizer test, which
    can fail in twisted contexts.
    """
    gpd = ctx.groupoid
    seeds = [g for g in gpd.elements
             if gpd.source[g] == gpd.range[g] and not gpd.is_unit(g)]
    out = []
    for _ in range(count):
        if not seeds:
            break
        g = seeds[rng.integers(len(seeds))]
        k = gpd.isotropy_order(g)
        phases = np.exp(2j * np.pi * rng.random(k))
        coeffs = np.fft.ifft(phases)
        elem = ctx.zero()
        for j in range(k):
            elem = elem + ctx.delta(gpd.power(g, j), coeffs[j])
        out.append(elem)
    return out


def sample_members(spec: SemigroupSpec, rng, count: int = 40) -> list[AlgebraElement]:
    """Generators plus random members of the spec's semigroup."""
    ctx = spec.ctx
    covered = spec.basis.covered if spec.basis is not None else set(ctx.groupoid.elements)
    members = [ctx.delta(g, random_coeff(rng)) for g in ctx.groupoid.elements if g in covered]
    members.append(ctx.zero())
    members.extend(random_diagonal(ctx, rng) for _ in range(count // 4))
    attempts = 0
    while len(members) < count + len(covered) and attempts < 20 * count:
        attempts += 1
        cand = random_monomial(ctx, rng)
        if membership(spec, cand):
            members.append(cand)
    if spec.kind == "normalizers":
        for cand in _isotropy_unitary_candidates(ctx, rng, count // 4):
            if membership(spec, cand):
                members.append(cand)
    return members


# -- axiom checking ---------------------------------------------------------------


def _orthonormal_basis(vectors) -> np.ndarray:
    mat = np.array([v for v in vectors if np.linalg.norm(v) > 1e-9])
    if mat.size == 0:
        return np.zeros((0, 0), dtype=complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int((s > 1e-8 * s[0]).sum()) if s.size else 0
    return vh[:rank]


def _in_span(vec: np.ndarray, basis: np.ndarray, tol: float) -> bool:
    if basis.size == 0:
        return bool(np.linalg.norm(vec) <= tol)
    residual = vec - basis.T @ (basis.conj() @ vec)
    return bool(np.linalg.norm(residual) <= max(tol, 1e-8 * (1 + np.linalg.norm(vec))))


def positive_cone_algebra(spec: SemigroupSpec, members) -> tuple[np.ndarray, list[AlgebraElement]]:
    """Orthonormal coefficient basis of C*(N+), the algebra generated by
    the squares n*n of semigroup members, and its rows as elements.

    The span of the squares is closed under the products of its own basis
    elements, with one rank test per round, until the rank stops growing.
    """
    ctx = spec.ctx
    squares = (m.star() * m for m in members)
    basis = _orthonormal_basis([sq.vector() for sq in squares if not sq.is_zero()])
    while True:
        rows = [AlgebraElement(ctx, dict(zip(ctx.groupoid.elements, row))) for row in basis]
        products = [(a * b).vector() for a, b in itertools.product(rows, repeat=2)]
        grown = _orthonormal_basis([*basis, *products])
        if grown.shape[0] == basis.shape[0]:
            return basis, rows
        basis = grown


@dataclass(frozen=True)
class CartanReport:
    """Witnessed verdicts for the Cartan semigroup axioms plus summability."""

    star_semigroup: bool
    star_witness: str | None
    dense_span: bool
    span_dimension: int
    positive_cone_commutative: bool
    commutative_witness: str | None
    b_contained: bool
    b_witness: str | None
    stable: bool
    stable_witness: str | None
    summable: bool
    summable_witness: tuple | None

    @property
    def cartan(self) -> bool:
        return (self.star_semigroup and self.dense_span
                and self.positive_cone_commutative and self.b_contained and self.stable)

    def failures(self) -> list[str]:
        out = []
        if not self.star_semigroup:
            out.append("star-semigroup closure")
        if not self.dense_span:
            out.append(f"dense span (dimension {self.span_dimension})")
        if not self.positive_cone_commutative:
            out.append("commutative positive cone")
        if not self.b_contained:
            out.append("B contained in N")
        if not self.stable:
            out.append("stability E(n)n* in B")
        return out

    def to_dict(self) -> dict:
        return {"cartan": self.cartan, **asdict(self)}


def _bisection_pattern_pairs(ctx, spec):
    """The first SWEEP_PATTERN_CAP unit-coefficient bisection members, for pair sweeps."""
    patterns = [p for p in all_bisections(ctx.groupoid) if p]
    out = []
    for p in patterns:
        elem = AlgebraElement(ctx, {g: 1 + 0j for g in p})
        if membership(spec, elem):
            out.append(elem)
        if len(out) >= SWEEP_PATTERN_CAP:
            break
    return out


def check_cartan(spec: SemigroupSpec, rng) -> CartanReport:
    """Verify each axiom of a Cartan semigroup plus summability, with witnesses.

    Closure and stability are checked on the monomial generators plus
    random products; closure under scalars and multiplication by diagonal
    elements is exact for every supported kind, so generator-level checks
    suffice.  Span density is a rank computation.  Summability sweeps every
    pair among the first SWEEP_PATTERN_CAP (250) unit-coefficient bisection
    members of the spec (exhaustive only when there are no more) as one batch,
    then samples random pairs one by one; the MASA and expectation support sweeps
    are exhaustive up to EXHAUSTIVE_SWEEP_ELEMENTS (6) elements and sampled above.
    """
    ctx = spec.ctx
    draws = 100
    members = sample_members(spec, rng)

    star_ok, star_witness = True, None
    pool = members[: 3 * draws]
    for m in pool:
        if not membership(spec, m.star()):
            star_ok, star_witness = False, f"star of {m!r}"
            break
    if star_ok:
        for _ in range(draws):
            m = pool[rng.integers(len(pool))]
            n = pool[rng.integers(len(pool))]
            if not membership(spec, m * n):
                star_ok, star_witness = False, f"product of {m!r} and {n!r}"
                break

    dim = _orthonormal_basis([m.vector() for m in members]).shape[0]
    dense = dim == ctx.dimension

    b_basis, b_elements = positive_cone_algebra(spec, members)
    comm_ok, comm_witness = True, None
    for x, y in itertools.combinations(b_elements, 2):
        if max_coeff_diff(x * y, y * x) > 1e-8:
            comm_ok, comm_witness = False, f"{x!r} vs {y!r}"
            break

    b_ok, b_witness = True, None
    trial_bs = b_elements + [_random_combination(ctx, b_elements, rng) for _ in range(10)]
    for x in trial_bs:
        if not membership(spec, x):
            b_ok, b_witness = False, repr(x)
            break

    stable_ok, stable_witness = True, None
    for m in pool:
        staged = diagonal(m) * m.star()
        if not (is_diagonal(staged) and _in_span(staged.vector(), b_basis, 1e-7)):
            stable_ok, stable_witness = False, repr(m)
            break

    sweep = _bisection_pattern_pairs(ctx, spec)
    random_pairs = [
        (pool[rng.integers(len(pool))], pool[rng.integers(len(pool))]) for _ in range(draws)
    ]
    stars = [m.star() for m in sweep]
    ok = np.triu(pairwise_diagonal(stars, sweep) & pairwise_diagonal(sweep, stars), 1)
    # np.nonzero walks the upper triangle in itertools.combinations order.
    witness = next(((sweep[i], sweep[j]) for i, j in zip(*np.nonzero(ok))
                    if not membership(spec, sweep[i] + sweep[j])), None)
    if witness is not None and not compatible(*witness):
        raise ConsistencyError(f"batched and pairwise compatibility disagree on {witness}")
    summable_witness = (tuple(map(repr, witness)) if witness is not None
                        else first_unsummable(spec, random_pairs))

    return CartanReport(
        star_semigroup=star_ok,
        star_witness=star_witness,
        dense_span=dense,
        span_dimension=dim,
        positive_cone_commutative=comm_ok,
        commutative_witness=comm_witness,
        b_contained=b_ok,
        b_witness=b_witness,
        stable=stable_ok,
        stable_witness=stable_witness,
        summable=summable_witness is None,
        summable_witness=summable_witness,
    )


def _random_combination(ctx, elements, rng) -> AlgebraElement:
    out = ctx.zero()
    for e in elements:
        out = out + random_coeff(rng) * e
    return out
