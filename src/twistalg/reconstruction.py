"""Reconstruction of the groupoid and twist from Cartan semigroup data.

Ultrafilters of the monomial semigroup under domination are in bijection
with groupoid elements, so an ultrafilter is stored as a point g with the
membership predicate  n in U_g  iff  |n(g)| > zero_tol.  Everything
derived from an ultrafilter (source and range states, magnitudes, angles,
equivalence classes, the recovered cocycle, the hat map) is computed
through algebra operations only, never by peeking at the groupoid tables,
and cross-checked against direct oracles where one exists.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    Cocycle,
    Phase,
    TwistedAlgebra,
    cstar_norm,
    diagonal,
    diagonal_function,
    is_diagonal,
    max_coeff_diff,
)
from .errors import ConsistencyError, InputError, NotCartanError
from .groupoid import FiniteGroupoid, groupoids_isomorphic, validate_groupoid
from .relations import dominates
from .semigroups import (
    SemigroupSpec,
    check_cartan,
    csum_closure,
    membership,
    random_diagonal,
    random_element,
    random_monomial,
    sample_members,
)
from .seeds import substream


# -- ultrafilters ----------------------------------------------------------------


@dataclass(frozen=True)
class Ultrafilter:
    """The ultrafilter of monomials not vanishing at a fixed point."""

    ctx: TwistedAlgebra
    g: str

    def contains(self, a: AlgebraElement) -> bool:
        if a.ctx is not self.ctx:
            raise InputError("element from a different context")
        return abs(a.coeff(self.g)) > self.ctx.zero_tol

    def star(self) -> "Ultrafilter":
        phase, ginv = self.ctx.delta_star(self.g)
        return Ultrafilter(self.ctx, ginv)

    def source_point(self) -> str:
        d = self.ctx.delta(self.g)
        supp = (d.star() * d).support()
        if len(supp) != 1:
            raise ConsistencyError(f"source of {self.g!r} is not a single point")
        return supp[0]

    def range_point(self) -> str:
        d = self.ctx.delta(self.g)
        supp = (d * d.star()).support()
        if len(supp) != 1:
            raise ConsistencyError(f"range of {self.g!r} is not a single point")
        return supp[0]

    def meets_diagonal(self) -> bool:
        """U intersects B, i.e. some positive square m*m lies in U."""
        m = self.ctx.delta(self.g)
        return self.contains(m.star() * m) or self.contains(m * m.star())


def ultrafilter_at(ctx: TwistedAlgebra, g: str) -> Ultrafilter:
    ctx.groupoid.check_element(g)
    return Ultrafilter(ctx, g)


def ultrafilter_product(t: Ultrafilter, u: Ultrafilter) -> Ultrafilter | None:
    """T.U = U_{gh} when defined (source of T matches range of U), else None."""
    if t.ctx is not u.ctx:
        raise InputError("ultrafilters from different contexts")
    prod = t.ctx.delta_product(t.g, u.g)
    if prod is None:
        return None
    return Ultrafilter(t.ctx, prod[1])


def basic_set(ctx: TwistedAlgebra, n: AlgebraElement) -> frozenset[str]:
    """The basic open set of ultrafilters containing n, as a set of points."""
    return frozenset(n.support())


def check_filter_axioms(u: Ultrafilter, sample) -> dict:
    """Down-directedness, up-closure and additive primeness on a finite sample.

    Each sweep stops at its first failing pair and reports it as the witness.
    """
    ctx = u.ctx
    members = [m for m in sample if u.contains(m)]
    down_witness = None
    for m in members:
        # The same lower bound l <= m serves every n.
        l = ctx.delta(u.g, m.coeff(u.g))
        l_below_m = u.contains(l) and dominates(l, m)
        n = next((n for n in members if not (l_below_m and dominates(l, n))), None)
        if n is not None:
            down_witness = (repr(m), repr(n))
            break
    up_witness = next(((repr(m), repr(n)) for m in members for n in sample
                       if dominates(m, n) is not None and not u.contains(n)), None)
    prime_witness = next(((repr(m), repr(n)) for m in sample for n in sample
                          if u.contains(m + n) and not (u.contains(m) or u.contains(n))), None)
    return {
        "proper": not u.contains(ctx.zero()),
        "down_directed": down_witness is None,
        "down_witness": down_witness,
        "up_closed": up_witness is None,
        "up_witness": up_witness,
        "additively_prime": prime_witness is None,
        "prime_witness": prime_witness,
    }


# -- states, magnitudes, angles -----------------------------------------------------


def source_state(u: Ultrafilter, b: AlgebraElement) -> complex:
    """Evaluation of a diagonal element at the source of the point of U."""
    if not is_diagonal(b):
        raise InputError("source state is defined on diagonal elements only")
    return b.coeff(u.source_point())


def range_state(u: Ultrafilter, b: AlgebraElement) -> complex:
    if not is_diagonal(b):
        raise InputError("range state is defined on diagonal elements only")
    return b.coeff(u.range_point())


def magnitude(u: Ultrafilter, n: AlgebraElement) -> float:
    """sqrt of the source state of n*n; equals |n| at the point of U."""
    if not u.contains(n):
        raise InputError("magnitude requires membership in the ultrafilter")
    val = source_state(u, diagonal(n.star() * n))
    if abs(val.imag) > 1e-9 or val.real < 0:
        raise ConsistencyError(f"state of n*n not positive at {u.g!r}: {val!r}")
    return float(np.sqrt(val.real))


def angle(u: Ultrafilter, m: AlgebraElement, n: AlgebraElement) -> complex:
    """The unit scalar psi_U(E(n* m)) / (|m|_U |n|_U).

    Both the state formula and the direct phase quotient
    m(g) conj(n(g)) / |m(g) n(g)| are computed; disagreement beyond 1e-9
    is a hard failure guarding against convolution or cocycle sign bugs.
    """
    if not (u.contains(m) and u.contains(n)):
        raise InputError("angle requires membership in the ultrafilter")
    formula = source_state(u, diagonal(n.star() * m)) / (magnitude(u, m) * magnitude(u, n))
    mg, ng = m.coeff(u.g), n.coeff(u.g)
    direct = mg * ng.conjugate() / abs(mg * ng.conjugate())
    if abs(formula - direct) > 1e-9:
        raise ConsistencyError(
            f"angle formula {formula!r} disagrees with direct phase {direct!r} at {u.g!r}"
        )
    return formula


def equivalent_in(u: Ultrafilter, m: AlgebraElement, n: AlgebraElement) -> bool:
    """m ~_U n, meaning the U-angle between them is 1."""
    return abs(angle(u, m, n) - 1) <= 1e-9


# -- the twist --------------------------------------------------------------------


@dataclass(frozen=True)
class TwistPoint:
    """A point of the reconstructed twist: a (phase, element) pair [n]_U."""

    ctx: TwistedAlgebra
    phase: complex
    g: str

    def mul(self, other: "TwistPoint") -> "TwistPoint | None":
        if self.ctx is not other.ctx:
            raise InputError("twist points from different contexts")
        prod = self.ctx.delta_product(self.g, other.g)
        if prod is None:
            return None
        sigma, gh = prod
        return TwistPoint(self.ctx, self.phase * other.phase * sigma.complex, gh)

    def inverse(self) -> "TwistPoint":
        phase, ginv = self.ctx.delta_star(self.g)
        return TwistPoint(self.ctx, self.phase.conjugate() * phase.complex, ginv)

    def approx_eq(self, other: "TwistPoint", tol: float = 1e-9) -> bool:
        return self.g == other.g and abs(self.phase - other.phase) <= tol


def twist_point(n: AlgebraElement, u: Ultrafilter) -> TwistPoint:
    """The class of n in the twist over the point of U."""
    if not u.contains(n):
        raise InputError("twist point requires membership in the ultrafilter")
    c = n.coeff(u.g)
    return TwistPoint(u.ctx, c / abs(c), u.g)


def recover_cocycle(ctx: TwistedAlgebra) -> tuple[Cocycle, float]:
    """Recompute the cocycle from angles of delta products.

    sigma'(g, h) is the angle between delta_g * delta_h and delta_{gh} at
    the ultrafilter of the product point; returns the snapped cocycle and
    the max residual against the context's own cocycle.  Phases are snapped
    to multiples of 1/L turn, L the lcm of the denominators the context's
    cocycle uses; an L above MAX_SNAP_DENOMINATOR raises InputError.
    """
    gpd = ctx.groupoid
    grid = math.lcm(*(p.turns.denominator for p in ctx.cocycle.values.values()))
    values: dict[tuple[str, str], Phase] = {}
    residual = 0.0
    for (g, h), gh in gpd.compose.items():
        u = ultrafilter_at(ctx, gh)
        val = angle(u, ctx.delta(g) * ctx.delta(h), ctx.delta(gh))
        residual = max(residual, abs(val - ctx.cocycle(g, h).complex))
        values[(g, h)] = Phase.from_complex(val, grid)
    recovered = Cocycle(gpd, {k: v for k, v in values.items() if v.turns != 0})
    return recovered, residual


# -- the hat map ------------------------------------------------------------------


def hat(a: AlgebraElement) -> AlgebraElement:
    """Evaluate the reconstruction isomorphism at every canonical twist point.

    hat(a)(g) = psi_{U_g}(E(delta_g^* a)), materialized as an algebra
    element; under the point identification this must reproduce a itself.
    """
    ctx = a.ctx
    out = {}
    for g in ctx.groupoid.elements:
        u = ultrafilter_at(ctx, g)
        d = ctx.delta(g)
        val = source_state(u, diagonal(d.star() * a))
        if val != 0:
            out[g] = val
    return AlgebraElement(ctx, out)


# -- theorem suites ----------------------------------------------------------------


def _monomial_through(ctx, g, rng) -> AlgebraElement:
    """Random monomial whose support contains g."""
    gpd = ctx.groupoid
    base = random_monomial(ctx, rng)
    coeffs = {
        h: c
        for h, c in base.coeffs.items()
        if gpd.source[h] != gpd.source[g] and gpd.range[h] != gpd.range[g]
    }
    coeffs[g] = np.exp(2j * np.pi * rng.random()) * (0.3 + 1.7 * rng.random())
    return AlgebraElement(ctx, coeffs)


def product_criterion_report(ctx: TwistedAlgebra, rng, samples_per_point: int = 3) -> dict:
    """Product defined iff 0 not in TU, exhaustively over all point pairs,
    plus the basic-set identity U_{mn} = U_m U_n on sampled monomials."""
    gpd = ctx.groupoid
    members = {
        g: [ctx.delta(g)] + [_monomial_through(ctx, g, rng) for _ in range(samples_per_point)]
        for g in gpd.elements
    }
    criterion_ok, witness = True, None
    for a in gpd.elements:
        for b in gpd.elements:
            defined = ultrafilter_product(ultrafilter_at(ctx, a), ultrafilter_at(ctx, b))
            zero_free = all(
                not (m * n).is_zero() for m in members[a] for n in members[b]
            )
            if (defined is not None) != zero_free:
                criterion_ok, witness = False, (a, b)
                break
    identity_ok, id_witness = True, None
    for _ in range(40):
        m = random_monomial(ctx, rng)
        n = random_monomial(ctx, rng)
        lhs = basic_set(ctx, m * n)
        rhs = set()
        for x in m.support():
            for y in n.support():
                prod = gpd.product(x, y)
                if prod is not None:
                    rhs.add(prod)
        if lhs != frozenset(rhs):
            identity_ok, id_witness = False, (repr(m), repr(n))
            break
    return {
        "passed": criterion_ok and identity_ok,
        "criterion_ok": criterion_ok,
        "criterion_witness": witness,
        "basic_set_identity_ok": identity_ok,
        "basic_set_witness": id_witness,
    }


def unit_space_report(ctx: TwistedAlgebra, rng, samples: int = 40) -> dict:
    """Unit characterizations: U unit iff U meets B; E(n) basic sets;
    the complement of the unit space; diagonal iff basic set in units;
    the complement map onto maximal-ideal kernels; Hausdorff separation."""
    gpd = ctx.groupoid
    units_ok = all(
        ultrafilter_at(ctx, g).meets_diagonal() == gpd.is_unit(g) for g in gpd.elements
    )
    en_ok = True
    bg0_ok = True
    for _ in range(samples):
        n = random_monomial(ctx, rng)
        lhs = basic_set(ctx, diagonal(n))
        rhs = {g for g in n.support() if gpd.is_unit(g)}
        if lhs != frozenset(rhs):
            en_ok = False
        if (set(n.support()) <= set(gpd.units)) != is_diagonal(n):
            bg0_ok = False
    complement_ok = all(
        (not gpd.is_unit(g)) <= (diagonal(ctx.delta(g)).is_zero()) for g in gpd.elements
    )
    # h(U) = B minus U is the kernel of evaluation at the unit, and distinct
    # units give distinct kernels.
    kernel_ok = True
    for u in gpd.units:
        uf = ultrafilter_at(ctx, u)
        for v in gpd.units:
            b = ctx.delta(v)
            in_kernel = not uf.contains(b)
            if in_kernel != (abs(b.coeff(u)) <= ctx.zero_tol):
                kernel_ok = False
    for _ in range(samples // 2):
        b = random_diagonal(ctx, rng)
        for u in gpd.units:
            uf = ultrafilter_at(ctx, u)
            if (not uf.contains(b)) != (abs(b.coeff(u)) <= ctx.zero_tol):
                kernel_ok = False
    distinct_ok = len({frozenset(v for v in gpd.units if abs(ctx.delta(v).coeff(u)) > 0)
                       for u in gpd.units}) == len(gpd.units)
    hausdorff_ok = True
    for t in gpd.units:
        for u in gpd.units:
            if t != u and not (ctx.delta(t) * ctx.delta(u)).is_zero():
                hausdorff_ok = False
    passed = all([units_ok, en_ok, bg0_ok, complement_ok, kernel_ok, distinct_ok, hausdorff_ok])
    return {
        "passed": passed,
        "unit_iff_meets_diagonal": units_ok,
        "expectation_basic_sets": en_ok,
        "diagonal_iff_unit_support": bg0_ok,
        "complement_has_kernel_witness": complement_ok,
        "ideal_kernels_match": kernel_ok,
        "kernels_distinct": distinct_ok,
        "hausdorff_separation": hausdorff_ok,
    }


def ultra_primeness_report(ctx: TwistedAlgebra, rng, samples: int = 60) -> dict:
    ok, witness = True, None
    for _ in range(samples):
        m = random_monomial(ctx, rng)
        n = random_monomial(ctx, rng)
        s = m + n
        for g in ctx.groupoid.elements:
            u = ultrafilter_at(ctx, g)
            if u.contains(s) and not (u.contains(m) or u.contains(n)):
                ok, witness = False, (repr(m), repr(n), g)
    return {"passed": ok, "witness": witness}


def domination_inclusion_report(ctx: TwistedAlgebra, rng, samples: int = 60) -> dict:
    """m < n iff the basic set of m is (compactly) contained in that of n."""
    ok, witness = True, None
    for i in range(samples):
        n = random_monomial(ctx, rng)
        if i % 2 == 0 and n.support():
            keep = [g for g in n.support() if rng.random() < 0.6]
            m = AlgebraElement(ctx, {g: n.coeff(g) * (1 + rng.random()) for g in keep})
        else:
            m = random_monomial(ctx, rng)
        inclusion = basic_set(ctx, m) <= basic_set(ctx, n)
        if (dominates(m, n) is not None) != inclusion:
            ok, witness = False, (repr(m), repr(n))
            break
    return {"passed": ok, "witness": witness}


def states_report(ctx: TwistedAlgebra, rng, samples: int = 100, tol: float = 1e-12) -> dict:
    """State and angle laws at every point, on seeded samples."""
    gpd = ctx.groupoid
    quotient_res = 0.0
    magnitude_res = 0.0
    emn_res = 0.0
    angle_res = 0.0
    recovery_ok = True
    ball_ok = True
    for _ in range(samples):
        g = gpd.elements[int(rng.integers(len(gpd.elements)))]
        u = ultrafilter_at(ctx, g)
        n = _monomial_through(ctx, g, rng)
        m = _monomial_through(ctx, g, rng)
        b = random_diagonal(ctx, rng)
        # range state from source state through a member of U
        lhs = range_state(u, b)
        denom = source_state(u, diagonal(n.star() * n))
        rhs = source_state(u, diagonal(n.star() * (b * n))) / denom
        quotient_res = max(quotient_res, abs(lhs - rhs))
        # |n| at the point equals the state magnitude
        magnitude_res = max(magnitude_res, abs(magnitude(u, n) - abs(n.coeff(g))))
        # |psi(E(m* n))| = |m| |n|
        emn = abs(source_state(u, diagonal(m.star() * n)))
        emn_res = max(emn_res, abs(emn - magnitude(u, m) * magnitude(u, n)))
        # angle laws: conjugate symmetry and the chain rule
        l = _monomial_through(ctx, g, rng)
        a_mn = angle(u, m, n)
        angle_res = max(angle_res, abs(a_mn - angle(u, n, m).conjugate()))
        angle_res = max(angle_res, abs(angle(u, l, n) - angle(u, l, m) * a_mn))
        angle_res = max(angle_res, abs(angle(u, n, n) - 1))
        # unit-magnitude members inside the unit ball exist: normalize at
        # the point, then clip the larger coefficients by functional calculus
        unit_member = (1 / magnitude(u, n)) * n
        clipped = unit_member * diagonal_function(
            unit_member.star() * unit_member,
            lambda x: min(1.0, 1.0 / np.sqrt(x)) if x > 0 else 0.0,
        )
        ball_ok = ball_ok and abs(magnitude(u, clipped) - 1) <= 1e-9
        ball_ok = ball_ok and cstar_norm(clipped) <= 1 + 1e-9
        # U is recovered from any of its classes: the phase-adjusted
        # restriction of n to the point is below every member of U
        l0 = ctx.delta(g, n.coeff(g))
        recovery_ok = recovery_ok and equivalent_in(u, l0, n) and dominates(l0, m) is not None
    # angle product rule over composable sampled pairs
    product_res = 0.0
    for _ in range(samples // 2):
        pairs = list(gpd.compose)
        g, h = pairs[int(rng.integers(len(pairs)))]
        u, v = ultrafilter_at(ctx, g), ultrafilter_at(ctx, h)
        uv = ultrafilter_at(ctx, gpd.compose[(g, h)])
        m1, n1 = _monomial_through(ctx, g, rng), _monomial_through(ctx, g, rng)
        r1, s1 = _monomial_through(ctx, h, rng), _monomial_through(ctx, h, rng)
        lhs = angle(u, m1, n1) * angle(v, r1, s1)
        rhs = angle(uv, m1 * r1, n1 * s1)
        product_res = max(product_res, abs(lhs - rhs))
    passed = (max(quotient_res, magnitude_res, emn_res, angle_res, product_res) <= tol
              and recovery_ok and ball_ok)
    return {
        "passed": passed,
        "quotient_identity_residual": quotient_res,
        "magnitude_residual": magnitude_res,
        "expectation_magnitude_residual": emn_res,
        "angle_laws_residual": angle_res,
        "angle_product_residual": product_res,
        "class_recovery": recovery_ok,
        "unit_ball_members": ball_ok,
    }


def twist_report(ctx: TwistedAlgebra, rng, samples: int = 100) -> dict:
    """Twist-point arithmetic against class arithmetic, and class equality
    against the point equivalence."""
    gpd = ctx.groupoid
    class_ok = True
    law_ok = True
    for _ in range(samples):
        g = gpd.elements[int(rng.integers(len(gpd.elements)))]
        u = ultrafilter_at(ctx, g)
        m = _monomial_through(ctx, g, rng)
        n = _monomial_through(ctx, g, rng)
        same_class = equivalent_in(u, m, n)
        same_point = twist_point(m, u).approx_eq(twist_point(n, u))
        class_ok = class_ok and (same_class == same_point)
    pairs = list(gpd.compose)
    for _ in range(samples // 2):
        g, h = pairs[int(rng.integers(len(pairs)))]
        u, v = ultrafilter_at(ctx, g), ultrafilter_at(ctx, h)
        uv = ultrafilter_at(ctx, gpd.compose[(g, h)])
        m = _monomial_through(ctx, g, rng)
        n = _monomial_through(ctx, h, rng)
        lhs = twist_point(m, u).mul(twist_point(n, v))
        rhs = twist_point(m * n, uv)
        law_ok = law_ok and lhs is not None and lhs.approx_eq(rhs)
        inv_lhs = twist_point(m, u).inverse()
        inv_rhs = twist_point(m.star(), u.star())
        law_ok = law_ok and inv_lhs.approx_eq(inv_rhs)
    return {"passed": class_ok and law_ok, "class_vs_point": class_ok, "product_laws": law_ok}


def hat_report(ctx: TwistedAlgebra, rng, samples: int = 60) -> dict:
    """Round-trip, *-algebra, expectation and support laws of the hat map."""
    roundtrip = 0.0
    linear = 0.0
    multiplicative = 0.0
    involutive = 0.0
    expectation = 0.0
    support_ok = True
    for _ in range(samples):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        roundtrip = max(roundtrip, max_coeff_diff(hat(a), a))
        z = complex(rng.normal(), rng.normal())
        linear = max(linear, max_coeff_diff(hat(z * a + b), z * hat(a) + hat(b)))
        multiplicative = max(multiplicative, max_coeff_diff(hat(a * b), hat(a) * hat(b)))
        involutive = max(involutive, max_coeff_diff(hat(a.star()), hat(a).star()))
        expectation = max(expectation, max_coeff_diff(diagonal(hat(a)), hat(diagonal(a))))
        n = random_monomial(ctx, rng)
        support_ok = support_ok and set(hat(n).support()) == set(n.support())
    worst = max(roundtrip, linear, multiplicative, involutive, expectation)
    return {
        "passed": worst <= 1e-9 and support_ok,
        "roundtrip_residual": roundtrip,
        "linearity_residual": linear,
        "multiplicativity_residual": multiplicative,
        "involution_residual": involutive,
        "expectation_residual": expectation,
        "support_identity": support_ok,
    }


def filter_axiom_report(ctx: TwistedAlgebra, rng, per_point: int = 6) -> dict:
    ok = True
    for g in ctx.groupoid.elements:
        u = ultrafilter_at(ctx, g)
        sample = [ctx.delta(g)] + [_monomial_through(ctx, g, rng) for _ in range(per_point)]
        sample += [random_monomial(ctx, rng) for _ in range(per_point)]
        rep = check_filter_axioms(u, sample)
        ok = ok and rep["proper"] and rep["down_directed"] and rep["up_closed"] \
            and rep["additively_prime"]
    return {"passed": ok}


# -- full reconstruction -------------------------------------------------------------


def rebuild_groupoid(ctx: TwistedAlgebra, spec: SemigroupSpec) -> tuple[FiniteGroupoid, dict]:
    """Assemble a fresh groupoid from ultrafilter data alone.

    Points get opaque labels p0, p1, ...; units, source, range, inverse
    and composition are all derived from products of delta elements, so
    the output only agrees with the input groupoid up to the bijection the
    isomorphism search has to rediscover.
    """
    gpd = ctx.groupoid
    for g in gpd.elements:
        if not membership(spec, ctx.delta(g)):
            raise InputError(f"spec has no member through {g!r}; cannot reconstruct")
    label = {g: f"p{i}" for i, g in enumerate(gpd.elements)}
    units = [label[g] for g in gpd.elements if ultrafilter_at(ctx, g).meets_diagonal()]
    source, range_, inverse, compose = {}, {}, {}, {}
    for g in gpd.elements:
        u = ultrafilter_at(ctx, g)
        source[label[g]] = label[u.source_point()]
        range_[label[g]] = label[u.range_point()]
        inverse[label[g]] = label[u.star().g]
    for a in gpd.elements:
        for b in gpd.elements:
            prod = (ctx.delta(a) * ctx.delta(b)).support()
            if prod:
                if len(prod) != 1:
                    raise ConsistencyError("delta product is not a monomial")
                compose[(label[a], label[b])] = label[prod[0]]
    rebuilt = FiniteGroupoid(
        f"rebuilt({ctx.name})", [label[g] for g in gpd.elements], units,
        source, range_, inverse, compose,
    )
    return rebuilt, label


@dataclass(frozen=True)
class ReconstructionReport:
    """Full outcome of a reconstruction run; serializable and seed-stable."""

    context: str
    seed: int
    tolerance: float
    cartan: dict
    isomorphism: dict
    cocycle_residual: float
    recovered_cocycle: dict
    rebuilt_groupoid: dict
    theorems: dict
    summable_image: dict

    @property
    def passed(self) -> bool:
        return (
            self.isomorphism.get("status") == "isomorphic"
            and self.cocycle_residual < self.tolerance
            and all(t.get("passed") for t in self.theorems.values())
            and self.summable_image.get("passed", True)
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def reconstruct(ctx: TwistedAlgebra, spec: SemigroupSpec | None = None,
                seed: int = 42, iso_budget: int = 10**6,
                tolerance: float = 1e-9) -> ReconstructionReport:
    """Round-trip reconstruction of the groupoid and twist from a Cartan spec.

    Refuses non-Cartan specs, rebuilds the groupoid from ultrafilters,
    searches for an isomorphism with the original, recovers the cocycle,
    and runs the ultrafilter, state, twist and hat suites.
    """
    spec = spec if spec is not None else SemigroupSpec.monomial(ctx)
    rng = substream(seed, "reconstruct", ctx.name, spec.describe())
    cartan = check_cartan(spec, substream(seed, "reconstruct-cartan", ctx.name, spec.describe()))
    if not cartan.cartan:
        raise NotCartanError(cartan.failures())

    rebuilt, label = rebuild_groupoid(ctx, spec)
    rebuilt_axioms = validate_groupoid(rebuilt)
    iso = groupoids_isomorphic(ctx.groupoid, rebuilt, iso_budget)

    recovered, residual = recover_cocycle(ctx)
    rebuilt_cocycle = {
        f"{label[g]}|{label[h]}": {"turns": [p.turns.numerator, p.turns.denominator]}
        for (g, h), p in sorted(recovered.values.items())
    }

    theorems = {
        "rebuilt_groupoid_axioms": {
            "passed": rebuilt_axioms.ok,
            "violations": [v.to_dict() for v in rebuilt_axioms.violations],
        },
        "product_criterion": product_criterion_report(ctx, substream(seed, "thm-product", ctx.name)),
        "unit_space": unit_space_report(ctx, substream(seed, "thm-units", ctx.name)),
        "ultra_primeness": ultra_primeness_report(ctx, substream(seed, "thm-prime", ctx.name)),
        "domination_vs_inclusion": domination_inclusion_report(ctx, substream(seed, "thm-dom", ctx.name)),
        "filter_axioms": filter_axiom_report(ctx, substream(seed, "thm-filter", ctx.name)),
        "states_and_angles": states_report(ctx, substream(seed, "thm-states", ctx.name)),
        "twist_points": twist_report(ctx, substream(seed, "thm-twist", ctx.name)),
        "hat_map": hat_report(ctx, substream(seed, "thm-hat", ctx.name)),
    }

    # The image of the csum closure under the hat map must be exactly the
    # monomial semigroup, extensionally on samples.
    closed = csum_closure(spec)
    monomial = SemigroupSpec.monomial(ctx)
    sweep_rng = substream(seed, "summable-image", ctx.name)
    agree = True
    candidates = sample_members(monomial, sweep_rng, 30)
    candidates += [random_element(ctx, sweep_rng) for _ in range(30)]
    for cand in candidates:
        agree = agree and (membership(closed, cand) == membership(monomial, hat(cand)))
    summable = {"checked": True, "passed": agree}

    return ReconstructionReport(
        context=ctx.name,
        seed=seed,
        tolerance=tolerance,
        cartan=cartan.to_dict(),
        isomorphism=iso.to_dict(),
        cocycle_residual=residual,
        recovered_cocycle=rebuilt_cocycle,
        rebuilt_groupoid=rebuilt.to_dict(),
        theorems=theorems,
        summable_image=summable,
    )
