"""Property suites over a twisted algebra context.

Each suite returns a dict with a top-level "passed" flag and residuals or
witnesses for the individual laws; the CLI and the acceptance tests both
run these.  All sampling is seeded through named substreams.
"""

from __future__ import annotations

from itertools import takewhile

import numpy as np

from .algebra import (
    AlgebraElement,
    TwistedAlgebra,
    check_reduced_norm_formula,
    cstar_norm,
    diagonal,
    is_diagonal,
    is_monomial,
    max_coeff_diff,
    regular_representation,
)
from .errors import InputError
from .groupoid import all_bisections
from .masa import (
    cartan_criterion,
    commutant_basis,
    masa_implies_normalisers,
    normalisers_imply_masa_contrapositive,
    summable_normalizers_report,
)
from .reconstruction import hat_report, states_report, twist_report
from .relations import (
    ball_witness,
    certify_domination,
    dominated_approximation,
    dominates,
    general_restriction_le,
    interpolate,
    predomain_interpolant,
    restriction_le,
    restriction_witness,
)
from .semigroups import (
    EXHAUSTIVE_SWEEP_ELEMENTS,
    SemigroupSpec,
    check_cartan,
    random_coeff,
    random_element,
    random_monomial,
)
from .seeds import substream


def _random_restriction(n: AlgebraElement, rng, rescale: bool = False) -> AlgebraElement:
    """Keep a random subset of supp(n), optionally rescaling the values."""
    keep = [g for g in n.support() if rng.random() < 0.7]
    coeffs = {}
    for g in keep:
        c = n.coeff(g)
        if rescale:
            c = c * (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random() * 0.5)
        coeffs[g] = c
    return AlgebraElement(n.ctx, coeffs)


# -- relations ---------------------------------------------------------------------


def relations_suite(ctx: TwistedAlgebra, seed: int = 42, pairs: int = 200,
                    cases: int = 100) -> dict:
    """Restriction and domination laws, witness calculus, ball and predomain
    certificates."""
    rng = substream(seed, "relations", ctx.name)
    out: dict = {"context": ctx.name}

    # Oracle agreement on mixed monomial pairs: dominates() checks its
    # certificate against the support oracle and restriction_le() its witness
    # against the pointwise test, and a disagreement raises ConsistencyError
    # (exit 4), so a finished sweep has none.
    for i in range(pairs):
        n = random_monomial(ctx, rng)
        if i % 3 == 0:
            m = _random_restriction(n, rng, rescale=False)
        elif i % 3 == 1:
            m = _random_restriction(n, rng, rescale=True)
        else:
            m = random_monomial(ctx, rng)
        dominates(m, n)
        restriction_le(m, n)
    out["oracle_pairs"] = pairs
    out["oracle_disagreements"] = 0

    # Partial-order laws for restriction.
    order_ok = True
    for _ in range(cases):
        n = random_monomial(ctx, rng)
        m = _random_restriction(n, rng)
        k = _random_restriction(m, rng)
        order_ok = order_ok and restriction_le(n, n)
        order_ok = order_ok and restriction_le(m, n) and restriction_le(k, m)
        order_ok = order_ok and restriction_le(k, n)  # transitivity
        if restriction_le(n, m):  # antisymmetry
            order_ok = order_ok and max_coeff_diff(m, n) <= ctx.zero_tol
        # difference lemma: m below n forces n - m below n
        order_ok = order_ok and restriction_le(n - m, n)
    out["partial_order_ok"] = order_ok

    # Auxiliarity, expectation-invariance, star-invariance, sum closure.
    aux_ok = einv_ok = star_ok = sum_ok = True
    for _ in range(cases):
        n = random_monomial(ctx, rng)
        m = _random_restriction(n, rng)
        l = _random_restriction(m, rng, rescale=True)
        k = _random_restriction(l, rng)
        w = dominates(l, m)
        if w is not None:
            aux_ok = aux_ok and dominates(k, n) is not None
            einv_ok = einv_ok and certify_domination(
                diagonal(l), diagonal(w.s), diagonal(m)
            ).ok
            star_ok = star_ok and certify_domination(l.star(), w.s.star(), m.star()).ok
        support = list(n.support())
        rng.shuffle(support)
        half = len(support) // 2
        a = AlgebraElement(ctx, {g: random_coeff(rng) for g in support[:half]})
        b = AlgebraElement(ctx, {g: random_coeff(rng) for g in support[half:]})
        if dominates(a, n) is not None and dominates(b, n) is not None:
            sum_ok = sum_ok and is_monomial(a + b) and dominates(a + b, n) is not None
    out["auxiliarity_ok"] = aux_ok
    out["expectation_invariance_ok"] = einv_ok
    out["star_invariance_ok"] = star_ok
    out["sum_closure_ok"] = sum_ok

    # Dominated approximation with stabilization.
    approx_ok = True
    for _ in range(cases // 4):
        n = random_monomial(ctx, rng)
        # A truncation that fails its certificate raises ConsistencyError (exit 4).
        result = dominated_approximation(n, 40)
        if not n.is_zero():
            approx_ok = approx_ok and result.stabilization_index is not None
            approx_ok = approx_ok and max_coeff_diff(result.elements[-1], n) <= ctx.zero_tol
    out["dominated_approximation_ok"] = approx_ok

    # Interpolation chains stay certified.
    interp_ok = True
    for _ in range(cases // 4):
        n = random_monomial(ctx, rng)
        m = _random_restriction(n, rng, rescale=True)
        w = dominates(m, n)
        if w is None:
            continue
        l1 = interpolate(m, n, w)
        w1 = dominates(m, l1)
        interp_ok = interp_ok and w1 is not None
        if w1 is not None:
            l2 = interpolate(m, l1, w1)
            interp_ok = interp_ok and dominates(l2, n) is not None
    out["interpolation_ok"] = interp_ok

    # Ball witnesses: five conditions with contractive tn, nt.
    ball_count = 0
    for _ in range(cases):
        n = random_monomial(ctx, rng)
        m = _random_restriction(n, rng, rescale=True)
        w = dominates(m, n)
        if w is None:
            continue
        ball_witness(m, n, w)
        ball_count += 1
    # ball_witness raises ConsistencyError (exit 4) on a failed certificate.
    out["ball_witness_ok"] = True
    out["ball_witness_cases"] = ball_count

    # Predomain interpolants for families of up to three elements.
    pre_count = 0
    for i in range(cases):
        n = random_monomial(ctx, rng)
        if n.is_zero():
            continue
        family = [_random_restriction(n, rng, rescale=True) for _ in range(1 + i % 3)]
        witnesses = list(takewhile(bool, (dominates(m, n) for m in family)))
        if len(witnesses) < len(family):
            continue
        predomain_interpolant(family, n, witnesses)
        pre_count += 1
    # predomain_interpolant raises ConsistencyError (exit 4) on a failed certificate.
    out["predomain_ok"] = True
    out["predomain_cases"] = pre_count

    out["passed"] = (order_ok and aux_ok and einv_ok and star_ok and sum_ok
                     and approx_ok and interp_ok)
    return out


# -- expectation --------------------------------------------------------------------


def _max_restriction_bound(n: AlgebraElement) -> AlgebraElement:
    """max{b diagonal : b below n} computed from the restriction test alone."""
    ctx = n.ctx
    gpd = ctx.groupoid
    coeffs = {}
    for u in gpd.units:
        c = n.coeff(u)
        if abs(c) <= ctx.zero_tol:
            continue
        fiber_clean = all(
            abs(n.coeff(g)) <= ctx.zero_tol
            for g in gpd.source_fiber(u)
            if g != u
        )
        if fiber_clean:
            coeffs[u] = c
    candidate = AlgebraElement(ctx, coeffs)
    if restriction_witness(candidate, n) is None:
        raise InputError("maximal restriction candidate failed its own test")
    return candidate


def expectation_suite(ctx: TwistedAlgebra, seed: int = 42) -> dict:
    """E as the restriction-maximal diagonal part, plus the interaction laws."""
    rng = substream(seed, "expectation", ctx.name)
    gpd = ctx.groupoid
    samples = 200

    emax_ok = True
    if len(gpd.elements) <= EXHAUSTIVE_SWEEP_ELEMENTS:
        sweep = []
        for pattern in all_bisections(gpd):
            if not pattern:
                continue
            for _ in range(2):
                sweep.append(AlgebraElement(ctx, {g: random_coeff(rng) for g in pattern}))
    else:
        sweep = [random_monomial(ctx, rng) for _ in range(samples)]
    for n in sweep:
        emax_ok = emax_ok and max_coeff_diff(_max_restriction_bound(n), diagonal(n)) <= ctx.zero_tol
        emax_ok = emax_ok and general_restriction_le(diagonal(n), n)

    normal_res = shift_res = 0.0
    bistable_ok = True
    char_ok = True
    for _ in range(samples // 2):
        a = random_element(ctx, rng)
        n = random_monomial(ctx, rng)
        m = random_monomial(ctx, rng)
        normal_res = max(normal_res, max_coeff_diff(
            diagonal(n.star() * (a * n)), n.star() * (diagonal(a) * n)))
        shift_res = max(shift_res, max_coeff_diff(
            diagonal(n * a) * n, n * diagonal(a * n)))
        if is_diagonal(m * n):
            bistable_ok = bistable_ok and is_diagonal(diagonal(m) * n)
        # evaluation characters: phi(E(m)) != 0 forces phi(E(mn)) = phi(E(m)E(n))
        for u in gpd.units:
            em = diagonal(m).coeff(u)
            if abs(em) > ctx.zero_tol:
                lhs = diagonal(m * n).coeff(u)
                rhs = (diagonal(m) * diagonal(n)).coeff(u)
                char_ok = char_ok and abs(lhs - rhs) <= 1e-10
    contractive_ok = True
    positive_ok = True
    unit = ctx.one()
    unit_ok = True
    for _ in range(samples // 4):
        a = random_element(ctx, rng)
        contractive_ok = contractive_ok and cstar_norm(diagonal(a)) <= cstar_norm(a) + 1e-9
        ea = diagonal(a.star() * a)
        positive_ok = positive_ok and all(
            c.real > -1e-12 and abs(c.imag) < 1e-12 for c in ea.coeffs.values()
        )
        unit_ok = unit_ok and max_coeff_diff(unit * a, a) <= 1e-12 \
            and max_coeff_diff(a * unit, a) <= 1e-12
    passed = (emax_ok and normal_res < 1e-10 and shift_res < 1e-10 and bistable_ok
              and char_ok and contractive_ok and positive_ok and unit_ok)
    return {
        "context": ctx.name,
        "emax_matches_diagonal": emax_ok,
        "normal_residual": normal_res,
        "shiftable_residual": shift_res,
        "bistable_ok": bistable_ok,
        "character_identity_ok": char_ok,
        "contractive_ok": contractive_ok,
        "positive_ok": positive_ok,
        "unit_ok": unit_ok,
        "passed": passed,
    }


# -- norms ---------------------------------------------------------------------------


def norms_suite(ctx: TwistedAlgebra, seed: int = 42) -> dict:
    """Norm laws: delta norms, the C*-identity, faithfulness, and the
    reduced-norm formula probe."""
    rng = substream(seed, "norms", ctx.name)
    delta_ok = all(abs(cstar_norm(ctx.delta(g)) - 1) <= 1e-9 for g in ctx.groupoid.elements)
    # on monomials every C*-norm is the sup norm
    sup_ok = all(
        abs(cstar_norm(n) - n.sup_coeff()) <= 1e-9
        for n in (random_monomial(ctx, rng) for _ in range(40))
    )
    cstar_res = 0.0
    homog_res = 0.0
    faithful_ok = True
    hom_res = 0.0
    for _ in range(100):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        z = complex(rng.normal(), rng.normal())
        na = cstar_norm(a)
        cstar_res = max(cstar_res, abs(cstar_norm(a.star() * a) - na * na))
        homog_res = max(homog_res, abs(cstar_norm(z * a) - abs(z) * na))
        if na <= 1e-12:
            faithful_ok = faithful_ok and a.is_zero(1e-12)
        ia, ib, iab = (regular_representation(x) for x in (a, b, a * b))
        istar = regular_representation(a.star())
        for u in ctx.groupoid.units:
            hom_res = max(hom_res, float(np.abs(ia.blocks[u] @ ib.blocks[u] - iab.blocks[u]).max()))
            hom_res = max(hom_res, float(np.abs(ia.blocks[u].conj().T - istar.blocks[u]).max()))
    mc = check_reduced_norm_formula(
        random_element(ctx, rng), trials=200, rng=substream(seed, "norms-mc", ctx.name)
    )
    passed = (delta_ok and sup_ok and cstar_res < 1e-9 and homog_res < 1e-9
              and faithful_ok and hom_res < 1e-9 and mc["upper_bound_ok"] and mc["gap_ok"])
    return {
        "context": ctx.name,
        "delta_norms_ok": delta_ok,
        "monomial_sup_norm_ok": sup_ok,
        "cstar_identity_residual": cstar_res,
        "homogeneity_residual": homog_res,
        "representation_residual": hom_res,
        "faithful_ok": faithful_ok,
        "reduced_norm_probe": mc,
        "passed": passed,
    }


# -- cartan, states, masa -------------------------------------------------------------


def cartan_suite(ctx: TwistedAlgebra, seed: int = 42,
                 spec: SemigroupSpec | None = None) -> dict:
    spec = spec if spec is not None else SemigroupSpec.monomial(ctx)
    report = check_cartan(spec, substream(seed, "cartan", ctx.name, spec.kind))
    out = report.to_dict()
    out["context"] = ctx.name
    out["spec"] = spec.kind
    out["passed"] = report.cartan
    return out


def states_suite(ctx: TwistedAlgebra, seed: int = 42) -> dict:
    states = states_report(ctx, substream(seed, "states", ctx.name))
    twist = twist_report(ctx, substream(seed, "states-twist", ctx.name))
    hats = hat_report(ctx, substream(seed, "states-hat", ctx.name), samples=50)
    return {
        "context": ctx.name,
        "states": states,
        "twist": twist,
        "hat": hats,
        "passed": states["passed"] and twist["passed"] and hats["passed"],
    }


def masa_suite(ctx: TwistedAlgebra, seed: int = 42) -> dict:
    rng = substream(seed, "masa", ctx.name)
    commutant = commutant_basis(ctx)
    iso_dim = sum(len(ctx.groupoid.isotropy(u)) for u in ctx.groupoid.units)
    forward = masa_implies_normalisers(ctx, substream(seed, "masa-forward", ctx.name))
    contra = normalisers_imply_masa_contrapositive(ctx, substream(seed, "masa-contra", ctx.name))
    criterion = cartan_criterion(ctx, substream(seed, "masa-criterion", ctx.name))
    summable = summable_normalizers_report(ctx, rng)
    checked = [r for r in (forward, contra) if r.get("status") == "checked"]
    # commutant_basis raises ConsistencyError (exit 4) when its dimension is not iso_dim.
    passed = all(r.get("passed") for r in checked) and criterion["passed"] and summable["passed"]
    return {
        "context": ctx.name,
        "is_masa": criterion["is_masa"],
        "commutant_dimension": commutant.dimension,
        "isotropy_dimension": iso_dim,
        "masa_implies_normalisers": forward,
        "contrapositive": contra,
        "cartan_criterion": criterion,
        "summable_normalizers": summable,
        "passed": passed,
    }
