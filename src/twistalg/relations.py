"""Restriction and domination on the monomial semigroup, with witnesses.

Restriction (m below n, written m `restriction_le` n) asks for a diagonal
b with m = mb = nb; at finite scale this is equivalent to m agreeing with
n on the support of m, and both routes are computed and compared.

Domination m < n asks for s with sm, ms, sn, ns diagonal and
nsm = m = msn.  On monomial elements it is equivalent to support
inclusion; the canonical witness is built by functional calculus on the
diagonal element n*n and restricted to the range fibers of m.  All
witnesses carry their certificate residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraElement,
    cstar_norm,
    diagonal_function,
    is_diagonal,
    is_monomial,
    max_coeff_diff,
)
from .errors import ConsistencyError, InputError


def _require_monomial(*elements: AlgebraElement) -> None:
    for a in elements:
        if not is_monomial(a):
            raise InputError(f"monomial element required, got {a!r}")


# -- restriction ---------------------------------------------------------------


def restriction_witness(m: AlgebraElement, n: AlgebraElement) -> AlgebraElement | None:
    """Diagonal b with m = mb = nb, or None.  Valid for arbitrary elements.

    m = mb forces b to be 1 on the source fibers that m touches, where
    m = nb then forces n to agree with m; on untouched fibers b = 0 works.
    """
    m._same_context(n)
    ctx = m.ctx
    gpd = ctx.groupoid
    touched = {gpd.source[g] for g in m.support()}
    for g in gpd.elements:
        if gpd.source[g] in touched:
            if abs(m.coeff(g) - n.coeff(g)) > ctx.zero_tol:
                return None
    return ctx.indicator(sorted(touched, key=gpd.index))


def _pointwise_restriction(m: AlgebraElement, n: AlgebraElement) -> bool:
    return all(abs(m.coeff(g) - n.coeff(g)) <= m.ctx.zero_tol for g in m.support())


def restriction_le(m: AlgebraElement, n: AlgebraElement) -> bool:
    """m agrees with n on supp(m); equivalently some diagonal b has m = mb = nb.

    Monomial inputs only; both the witness construction and the pointwise
    test run, and a disagreement is a hard failure.
    """
    _require_monomial(m, n)
    b = restriction_witness(m, n)
    if b is not None:
        tol = m.ctx.zero_tol
        if max_coeff_diff(m * b, m) > tol or max_coeff_diff(n * b, m) > tol:
            raise ConsistencyError("restriction witness failed its own certificate")
    pointwise = _pointwise_restriction(m, n)
    if (b is not None) != pointwise:
        raise ConsistencyError("restriction witness search disagrees with pointwise test")
    return pointwise


def general_restriction_le(m: AlgebraElement, n: AlgebraElement) -> bool:
    """Restriction for arbitrary (not necessarily monomial) elements."""
    return restriction_witness(m, n) is not None


# -- domination ----------------------------------------------------------------


@dataclass(frozen=True)
class DominationWitness:
    """Certificate for m <_s n: sm, ms, sn, ns diagonal and nsm = m = msn.

    `sn` and `ns` keep the products the diagonality test formed.
    """

    m: AlgebraElement
    s: AlgebraElement
    n: AlgebraElement
    residual: float
    diagonal_ok: bool
    sn: AlgebraElement
    ns: AlgebraElement

    @property
    def ok(self) -> bool:
        return self.diagonal_ok and self.residual <= self.m.ctx.zero_tol


def certify_domination(m: AlgebraElement, s: AlgebraElement, n: AlgebraElement) -> DominationWitness:
    """Evaluate all five certificate conditions for m <_s n."""
    m._same_context(s)
    m._same_context(n)
    return _certificate(m, s, n, s * m, s * n, n * s)


def _certificate(m: AlgebraElement, s: AlgebraElement, n: AlgebraElement,
                 sm: AlgebraElement, sn: AlgebraElement, ns: AlgebraElement) -> DominationWitness:
    """The certificate for m <_s n, given the products s*m, s*n and n*s."""
    diag_ok = all(is_diagonal(x) for x in (sm, m * s, sn, ns))
    residual = max(
        max_coeff_diff(n * sm, m),
        max_coeff_diff(m * sn, m),
    )
    return DominationWitness(m, s, n, residual, diag_ok, sn, ns)


def _star_square(n: AlgebraElement) -> AlgebraElement:
    """n*n, formed once per element and kept on it."""
    if n._square is None:
        n._square = n.star() * n
    return n._square


def _on_support(n: AlgebraElement, f) -> AlgebraElement:
    """f(n*n) on the surviving spectrum, 0 elsewhere.

    The cut sits at zero_tol squared so that it keeps exactly the fibers
    of the coefficients that count as support (|n(g)| > zero_tol).
    """
    cut = n.ctx.zero_tol * n.ctx.zero_tol
    return diagonal_function(_star_square(n), lambda x: f(x) if x > cut else 0.0)


def _inverse_on_support(n: AlgebraElement) -> AlgebraElement:
    """f(n*n) n* with f(x) = 1/x on the surviving spectrum, 0 elsewhere."""
    return _on_support(n, lambda x: 1.0 / x) * n.star()


def dominates(m: AlgebraElement, n: AlgebraElement) -> DominationWitness | None:
    """Constructive domination test on monomial elements.

    Builds the witness s = f(n*n) n* restricted to the range fibers of m
    and returns it iff it certifies m <_s n.  The certificate ends at its
    first condition when s*m is not diagonal.  Its outcome must coincide
    with the support oracle supp(m) within supp(n); a mismatch is a hard
    failure.  The part that does not depend on m is built once per n and
    kept on it: supp(n), f(n*n) n*, and per set of range units of m, s and,
    once a certificate gets past s*m, s*n and n*s.
    """
    _require_monomial(m)
    if n._dominating is None:  # n's own side, built whatever m's context
        _require_monomial(n)
        n._dominating = (frozenset(n.support()), _inverse_on_support(n), {})
    n_support, inverse, by_units = n._dominating
    m._same_context(n)
    ctx = m.ctx
    gpd = ctx.groupoid
    m_support = m.support()
    range_units = tuple(sorted({gpd.range[g] for g in m_support}, key=gpd.index))
    side = by_units.get(range_units)
    if side is None:
        side = by_units[range_units] = [inverse * ctx.indicator(range_units)]
    s = side[0]
    sm = s * m
    ok = is_diagonal(sm)
    if ok:
        if len(side) == 1:
            side.extend((s * n, n * s))
        witness = _certificate(m, s, n, sm, side[1], side[2])
        ok = witness.ok
    oracle = set(m_support) <= n_support
    if ok != oracle:
        raise ConsistencyError(
            f"domination certificate ({ok}) disagrees with support oracle ({oracle})"
        )
    return witness if ok else None


# -- interpolation and approximation ---------------------------------------------


def interpolate(m: AlgebraElement, n: AlgebraElement, w: DominationWitness) -> AlgebraElement:
    """An l in nB+ and B+n with m <_s l and l < n, from a witness for m <_s n.

    l = n g(sn) where g is 1 above the zero tolerance and 0 at 0; both
    output certificates are re-checked before returning.
    """
    m._same_context(w.m)
    ctx = m.ctx
    tol = ctx.zero_tol
    if not (w.m is m and w.n is n) and not (max_coeff_diff(w.m, m) <= tol
                                            and max_coeff_diff(w.n, n) <= tol):
        raise InputError("witness does not match the given pair")
    if not w.ok:
        raise InputError("invalid domination witness")
    sn = w.sn if w.n is n else w.s * n
    g_of_sn = diagonal_function(sn, lambda x: 1.0 if x > tol else 0.0)
    l = n * g_of_sn
    first = certify_domination(m, w.s, l)
    t = diagonal_function(sn, lambda x: 1.0 / x if x > tol else 0.0) * w.s
    second = certify_domination(l, t, n)
    if not (first.ok and second.ok):
        raise ConsistencyError("interpolant failed its certificates")
    return l


@dataclass(frozen=True)
class ApproximationResult:
    elements: tuple[AlgebraElement, ...]
    witnesses: tuple[DominationWitness, ...]
    stabilization_index: int | None


def dominated_approximation(n: AlgebraElement, k: int) -> ApproximationResult:
    """The plateau truncations n_j = n f_j(n*n), each certified below n.

    f_j is 1 at arguments >= 1/j and 0 below, so n_j keeps the
    coefficients of n with |value|^2 >= 1/j; n_j equals n exactly from the
    first index where 1/j clears the smallest nonzero value of n*n, and
    that index is reported.  n_j and its witness depend only on the set of
    arguments that clear the cut, so each such plateau is certified once, at
    its first j, and its pair is reused for the later j on it.
    """
    _require_monomial(n)
    nn = _star_square(n)
    elems, wits, stab, plateaus = [], [], None, {}
    for j in range(1, k + 1):
        cut = 1.0 / j
        plateau = tuple(u for u, c in nn.coeffs.items() if c.real >= cut)
        if plateau not in plateaus:
            f_j = diagonal_function(nn, lambda x: 1.0 if x >= cut else 0.0)
            s_j = diagonal_function(nn, lambda x: 1.0 / x if x >= cut else 0.0) * n.star()
            n_j = n * f_j
            w = certify_domination(n_j, s_j, n)
            if not w.ok:
                raise ConsistencyError("plateau truncation failed its certificate")
            plateaus[plateau] = n_j, w
        n_j, w = plateaus[plateau]
        elems.append(n_j)
        wits.append(w)
        if stab is None and max_coeff_diff(n_j, n) <= n.ctx.zero_tol:
            stab = j
    return ApproximationResult(tuple(elems), tuple(wits), stab)


# -- ball witnesses and predomain interpolation ------------------------------------


def _ball_certificate(m, n, w: DominationWitness | None) -> DominationWitness:
    """The checked certificate for m <_t n of ball_witness's t, built from w, a
    certificate for m < n (formed here when None), reusing each step's products."""
    w = w if w is not None else dominates(m, n)
    if w is None:
        raise InputError("ball witness requires domination to hold")
    tol = m.ctx.zero_tol
    s = w.s * (w.s.star() * n.star())
    positive = certify_domination(m, s, n)
    if not positive.ok:
        raise ConsistencyError("positivity step broke the domination certificate")
    s = s * diagonal_function(positive.ns, lambda x: min(x, 1.0 / x) if x > tol else 0.0)
    contracted = certify_domination(m, s, n)
    if not contracted.ok:
        raise ConsistencyError("contraction step broke the domination certificate")
    r = 16.0 * max(cstar_norm(s), 1.0) ** 4 + 1.0
    g_sn = diagonal_function(contracted.sn, lambda x: max(2 * x - 1, 0.0))
    h_nn = _on_support(n, lambda x: min(1.0 / x, r * x))
    certificate = certify_domination(m, g_sn * (h_nn * n.star()), n)
    checks = _ball_checks(certificate)
    if not checks["ok"]:
        raise ConsistencyError(f"ball witness failed: {checks}")
    return certificate


def ball_witness(m: AlgebraElement, n: AlgebraElement,
                 witness: DominationWitness | None = None) -> AlgebraElement:
    """A witness t in n*B+ and B+n* with tn, nt positive contractions.

    Certifies: tm, mt diagonal; tn, nt diagonal positive of norm <= 1;
    ntm = m = mtn.  Built as t = g(sn) h(n*n) n* with g(x) = max(2x-1, 0)
    and h(x) = min(1/x, rx) for r > 16 ||s||^4, s a positive contractive witness
    for m < n.  A `witness` for m < n that the caller holds is not formed again.
    """
    return _ball_certificate(m, n, witness).s


def _ball_checks(w: DominationWitness) -> dict:
    """The five ball-domination conditions: w, the domination certificate for
    m <_t n, plus tn and nt positive and of norm at most 1."""
    tol = w.m.ctx.zero_tol
    tn, nt = w.sn, w.ns
    positive = all(
        all(c.real > -tol and abs(c.imag) < tol for c in x.coeffs.values()) for x in (tn, nt)
    )
    norms_ok = cstar_norm(tn) <= 1 + tol and cstar_norm(nt) <= 1 + tol
    return {
        "ok": bool(w.ok and positive and norms_ok),
        "diagonal": w.diagonal_ok,
        "positive": positive,
        "norms_ok": norms_ok,
        "residual": float(w.residual),
    }


def predomain_interpolant(ms, n: AlgebraElement, witnesses=None) -> AlgebraElement:
    """An l in nB+ and B+n with every m_i <_{l*} l and l < n.

    Combines the per-element ball witnesses through a pointwise maximum of
    their diagonal left factors, then truncates n accordingly.  Every
    certificate is re-checked before returning.  `witnesses` for each
    m_i < n, in the order of ms, are not formed again.
    """
    ms = list(ms)
    if not ms:
        raise InputError("need at least one dominated element")
    ctx = n.ctx
    tol = ctx.zero_tol
    inv_nn = _on_support(n, lambda x: 1.0 / x)
    beta = ctx.zero()
    for m, w in zip(ms, witnesses or [None] * len(ms)):
        beta_m = _ball_certificate(m, n, w).sn * inv_nn
        merged = dict(beta.coeffs)
        for u, c in beta_m.coeffs.items():
            merged[u] = complex(max(merged.get(u, 0j).real, c.real))
        beta = AlgebraElement(ctx, merged)
    sn = beta * _star_square(n)
    e = diagonal_function(sn, lambda x: 1.0 if x > tol else 0.0)
    scale = diagonal_function(beta * e, lambda x: x ** 0.5)
    l = n * scale
    for m in ms:
        if not certify_domination(m, l.star(), l).ok:
            raise ConsistencyError("predomain interpolant failed a lower certificate")
    if dominates(l, n) is None:
        raise ConsistencyError("predomain interpolant is not dominated by the target")
    return l
