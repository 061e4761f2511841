import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import (
    algebra,
    ball_witness,
    certify_domination,
    dominated_approximation,
    dominates,
    interpolate,
    predomain_interpolant,
    relations,
    restriction_le,
    standard_contexts,
)
from twistalg.algebra import (
    AlgebraElement,
    TwistedAlgebra,
    cstar_norm,
    diagonal,
    diagonal_function,
    max_coeff_diff,
)
from twistalg.errors import ConsistencyError, InputError
from twistalg.groupoid import is_bisection
from twistalg.relations import general_restriction_le, verify_ball_certificate
from twistalg.semigroups import random_monomial
from twistalg.suites import _random_restriction, relations_suite


def test_restriction_reflexive(r3, rng):
    for _ in range(50):
        m = random_monomial(r3, rng)
        assert restriction_le(m, m)


def test_restriction_examples(r2):
    two_point = r2.delta("(1,2)") + r2.delta("(2,1)")
    assert restriction_le(r2.delta("(1,2)"), two_point)
    assert not restriction_le(2 * r2.delta("(1,2)"), r2.delta("(1,2)"))


def test_restriction_rejects_non_monomial(r2):
    bad = r2.delta("(1,1)") + r2.delta("(1,2)")
    with pytest.raises(InputError):
        restriction_le(bad, bad)


def test_restriction_antisymmetry_transitivity(r3, rng):
    for _ in range(50):
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng)
        k = _random_restriction(m, rng)
        assert restriction_le(k, n)
        if restriction_le(n, m):
            assert max_coeff_diff(m, n) < 1e-12


def test_restriction_difference_lemma(r3, rng):
    for _ in range(50):
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng)
        assert restriction_le(n - m, n)


def test_domination_witness_example(r2):
    m = r2.delta("(1,1)")
    n = r2.delta("(1,1)") + r2.delta("(2,2)")
    w = dominates(m, n)
    assert w is not None
    assert w.s.coeffs == {"(1,1)": 1 + 0j}
    assert max_coeff_diff(n * (w.s * m), m) < 1e-12


def test_domination_is_support_level(r2):
    # domination ignores coefficient values: the witness rescales them
    g = r2.delta("(1,2)")
    assert dominates(2 * g, g) is not None
    assert not restriction_le(2 * g, g)


def test_zero_dominated_by_everything(r3, rng):
    for _ in range(10):
        n = random_monomial(r3, rng)
        w = dominates(r3.zero(), n)
        assert w is not None and w.s.is_zero()


def test_domination_star_invariance(r3, rng):
    for _ in range(60):
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng, rescale=True)
        w = dominates(m, n)
        if w is not None:
            assert certify_domination(m.star(), w.s.star(), n.star()).ok


def test_domination_expectation_invariance(r3, rng):
    for _ in range(60):
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng, rescale=True)
        w = dominates(m, n)
        if w is not None:
            assert certify_domination(diagonal(m), diagonal(w.s), diagonal(n)).ok


def test_interpolate_idempotent_case(r2):
    du = r2.delta("(1,1)")
    w = dominates(du, du)
    l = interpolate(du, du, w)
    assert max_coeff_diff(l, du) < 1e-12


def test_interpolate_kills_untouched_fiber(r2):
    m = r2.delta("(1,1)")
    n = r2.one()
    w = certify_domination(m, r2.delta("(1,1)"), n)
    assert w.ok
    l = interpolate(m, n, w)
    assert set(l.support()) == {"(1,1)"}


def test_interpolate_refuses_a_foreign_witness(r2):
    m, n = r2.delta("(1,1)"), r2.one()
    other = TwistedAlgebra(r2.groupoid, name="R2_copy")
    with pytest.raises(InputError):
        interpolate(m, n, dominates(other.delta("(1,1)"), other.one()))
    with pytest.raises(InputError):
        interpolate(m, n, dominates(r2.delta("(2,2)"), n))


def test_interpolation_chain_certified(r3, rng):
    for _ in range(30):
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng, rescale=True)
        w = dominates(m, n)
        if w is None:
            continue
        l1 = interpolate(m, n, w)
        w1 = dominates(m, l1)
        assert w1 is not None
        l2 = interpolate(m, l1, w1)
        assert dominates(l2, n) is not None


def test_dominated_approximation_examples(r2):
    res = dominated_approximation(r2.delta("(1,2)"), 5)
    assert res.stabilization_index == 1
    n = r2.element({"(1,2)": 1.0, "(2,1)": 0.3})
    res = dominated_approximation(n, 20)
    assert res.stabilization_index == 12
    assert all(w.ok for w in res.witnesses)
    assert max_coeff_diff(res.elements[-1], n) < 1e-12


def test_dominated_approximation_all_certified(r3, rng):
    for _ in range(20):
        n = random_monomial(r3, rng)
        res = dominated_approximation(n, 25)
        assert all(w.ok for w in res.witnesses)
        for n_j in res.elements:
            assert dominates(n_j, n) is not None


def _per_j_approximation(n, k):
    """dominated_approximation as one certificate per j, kept as the reference."""
    nn = n.star() * n
    elems, wits, stab = [], [], None
    for j in range(1, k + 1):
        cut = 1.0 / j
        f_j = diagonal_function(nn, lambda x: 1.0 if x >= cut else 0.0)
        s_j = diagonal_function(nn, lambda x: 1.0 / x if x >= cut else 0.0) * n.star()
        n_j = n * f_j
        w = certify_domination(n_j, s_j, n)
        if not w.ok:
            raise ConsistencyError("plateau truncation failed its certificate")
        elems.append(n_j)
        wits.append(w)
        if stab is None and max_coeff_diff(n_j, n) <= n.ctx.zero_tol:
            stab = j
    return elems, wits, stab


def _near_cut(j: int, ulps: int) -> float:
    """A real r with r*r as near as floats allow to 1/j moved by `ulps` ulps."""
    target = 1.0 / j
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    r = math.sqrt(target)
    return min((r, math.nextafter(r, 0.0), math.nextafter(r, 2.0)), key=lambda x: abs(x * x - target))


# |c|^2 on a cut 1/j or one ulp either side; the phases are exact, so |c|^2 = r*r.
_CUT_COEFF = st.builds(lambda j, ulps, rot: rot * _near_cut(j, ulps), st.integers(1, 40),
                       st.sampled_from((-1, 0, 1)), st.sampled_from((1, -1, 1j, -1j)))
_ANY_COEFF = st.one_of(_CUT_COEFF, st.just(0j),
                       st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False))


def _bits(z: complex) -> tuple[str, str]:
    return complex(z).real.hex(), complex(z).imag.hex()


@given(st.sampled_from(sorted(standard_contexts())), st.integers(1, 40), st.data())
@settings(max_examples=120, deadline=None)
def test_dominated_approximation_matches_the_per_j_loop(contexts, name, k, data):
    """One certificate per plateau gives every n_j, witness and index of one per j."""
    ctx = contexts[name]
    gpd = ctx.groupoid
    support = []
    for g in data.draw(st.permutations(gpd.elements)):
        if is_bisection(gpd, (*support, g)) and data.draw(st.booleans()):
            support.append(g)
    n = AlgebraElement(ctx, {g: complex(data.draw(_ANY_COEFF)) for g in support})
    try:
        elems, wits, stab = _per_j_approximation(n, k)
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            dominated_approximation(n, k)
        return
    res = dominated_approximation(n, k)
    assert res.stabilization_index == stab
    assert len(res.elements) == len(res.witnesses) == k
    for old, new, old_w, new_w in zip(elems, res.elements, wits, res.witnesses):
        assert {g: _bits(c) for g, c in new.coeffs.items()} == {
            g: _bits(c) for g, c in old.coeffs.items()}
        assert _bits(new_w.residual) == _bits(old_w.residual)
        assert new_w.diagonal_ok == old_w.diagonal_ok


def test_dominated_approximation_certifies_each_plateau_once(r2, r3, rng, monkeypatch):
    counts = [0]
    certify = relations.certify_domination

    def counting(*args):
        counts[0] += 1
        return certify(*args)

    monkeypatch.setattr(relations, "certify_domination", counting)
    ns = [r2.element({"(1,2)": 1.0, "(2,1)": 0.3})] + [random_monomial(r3, rng) for _ in range(20)]
    certified = []
    for n in ns:
        nn = (n.star() * n).coeffs
        plateaus = {frozenset(u for u, c in nn.items() if c.real >= 1.0 / j) for j in range(1, 41)}
        counts[0] = 0
        dominated_approximation(n, 40)
        assert counts[0] == len(plateaus)
        certified.append(counts[0])
    assert certified[0] == 2  # |n(2,1)|^2 = 0.09 clears the cut from j = 12 on


def test_inverse_on_support_stars_n_once(r3, rng, monkeypatch):
    """The support cut and f(n*n) n* share the one involution kept on n."""
    counts = [0]
    involution = algebra.involution

    def counting(a):
        counts[0] += 1
        return involution(a)

    n = random_monomial(r3, rng)
    monkeypatch.setattr(algebra, "involution", counting)
    relations._on_support(n, lambda x: x)
    relations._inverse_on_support(n)
    assert counts[0] == 1


def test_star_square_formed_once_per_element(r3, rng, monkeypatch):
    """The support cut, the witnesses, the interpolant and the approximation
    share the one n*n kept on n."""
    products = []
    convolve = algebra.convolve

    def counting(a, b):
        products.append((a, b))
        return convolve(a, b)

    n = random_monomial(r3, rng)
    m = r3.element({g: n.coeff(g) for g in n.support()[:1]})
    monkeypatch.setattr(algebra, "convolve", counting)
    predomain_interpolant([m, 0.5 * m], n)
    ball_witness(m, n)
    relations._on_support(n, lambda x: x)
    dominated_approximation(n, 5)
    assert sum(a is n.star() and b is n for a, b in products) == 1


def test_ball_witness_unit_case(r2):
    du = r2.delta("(1,1)")
    t = ball_witness(du, du)
    assert max_coeff_diff(t, du) < 1e-12
    assert abs(cstar_norm(t * du) - 1) < 1e-12


def test_ball_witness_projection_case(r2):
    m = r2.delta("(1,1)")
    n = r2.delta("(1,1)") + r2.delta("(2,2)")
    t = ball_witness(m, n)
    assert set(t.support()) == {"(1,1)"}
    assert abs(cstar_norm(t * n) - 1) < 1e-12
    assert verify_ball_certificate(m, t, n)["ok"]


def test_ball_witness_random_certificates(r3, rng):
    count = 0
    while count < 40:
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng, rescale=True)
        if dominates(m, n) is None:
            continue
        t = ball_witness(m, n)
        checks = verify_ball_certificate(m, t, n)
        assert checks["ok"], checks
        count += 1


def test_ball_certificate_reuses_the_domination_products(r2, monkeypatch):
    """verify_ball_certificate forms no product beyond those of certify_domination."""
    m = r2.delta("(1,1)")
    n = r2.delta("(1,1)") + 2 * r2.delta("(2,2)")
    t = ball_witness(m, n)
    counts = []
    convolve = algebra.convolve

    def counting(a, b):
        counts[-1] += 1
        return convolve(a, b)

    monkeypatch.setattr(algebra, "convolve", counting)
    for check in (certify_domination, verify_ball_certificate):
        counts.append(0)
        check(m, t, n)
    assert counts[0] == counts[1] > 0


def test_ball_steps_form_no_product_twice(r3, rng, monkeypatch):
    """Given the witness for m < n, ball_witness and predomain_interpolant reuse the
    products their certificates formed: no two operands are multiplied twice in a call."""
    convolve, count = algebra.convolve, 0
    while count < 10:
        n = random_monomial(r3, rng)
        if n.is_zero():
            continue
        m = r3.element({g: n.coeff(g) for g in n.support()[:1]})
        w = dominates(m, n)
        for call in (lambda: ball_witness(m, n, w), lambda: predomain_interpolant([m], n, [w])):
            operands = []

            def recording(a, b):
                operands.append((a, b))
                return convolve(a, b)

            monkeypatch.setattr(algebra, "convolve", recording)
            call()
            monkeypatch.setattr(algebra, "convolve", convolve)
            pairs = [(id(a), id(b)) for a, b in operands]
            assert len(pairs) == len(set(pairs))
        count += 1


def test_domination_certificate_forms_each_product_once(r3, rng, monkeypatch):
    """Six convolutions per certificate, and the residual of the products
    formed afresh."""
    counts = []
    convolve = algebra.convolve

    def counting(a, b):
        counts[-1] += 1
        return convolve(a, b)

    checked = 0
    for i in range(40):
        n = random_monomial(r3, rng)
        if i % 2:
            m = r3.element({g: n.coeff(g) for g in n.support()[:1]})
        else:
            m = random_monomial(r3, rng)
        w = dominates(m, n)
        s = w.s if w is not None else random_monomial(r3, rng)
        fresh = max(max_coeff_diff(n * (s * m), m), max_coeff_diff(m * (s * n), m))
        monkeypatch.setattr(algebra, "convolve", counting)
        counts.append(0)
        cert = certify_domination(m, s, n)
        monkeypatch.setattr(algebra, "convolve", convolve)
        assert counts[-1] <= 6
        assert cert.residual == fresh
        checked += w is not None
    assert checked > 0


def test_reused_dominating_side_matches_a_fresh_copy(contexts, rng):
    """dominates(m, n) with n kept across a sweep, its side built once and the
    s, s*n, n*s of each range-unit set reused, gives the certificate that a
    fresh copy of n gets from s = f(n*n) n* 1_r(m) formed afresh: the same s,
    residual, sn and ns."""
    reused = 0
    for name in ("R3", "Z4", "V4_pauli", "R2_disj_Z2"):
        ctx = contexts[name]
        gpd = ctx.groupoid
        for _ in range(8):
            n = random_monomial(ctx, rng)
            ms = [_random_restriction(n, rng) for _ in range(4)]
            ms += [random_monomial(ctx, rng) for _ in range(3)] + ms[:2]
            for m in ms:
                kept = dominates(m, n)
                copy = AlgebraElement(ctx, n.coeffs)
                units = sorted({gpd.range[g] for g in m.support()}, key=gpd.index)
                s = relations._inverse_on_support(copy) * ctx.indicator(units)
                fresh = certify_domination(m, s, copy)
                assert (kept is not None) == fresh.ok
                if kept is not None:
                    assert kept.s.coeffs == fresh.s.coeffs
                    assert kept.residual == fresh.residual
                    assert kept.sn.coeffs == fresh.sn.coeffs
                    assert kept.ns.coeffs == fresh.ns.coeffs
            reused += len(n._dominating[2]) < len(ms)
    assert reused > 0


def test_dominates_refuses_a_foreign_m_after_n_is_kept(r2):
    n = r2.delta("(1,1)") + r2.delta("(2,2)")
    assert dominates(r2.delta("(1,1)"), n) is not None
    other = TwistedAlgebra(r2.groupoid, name="R2_other")
    with pytest.raises(InputError, match="context mismatch"):
        dominates(other.delta("(1,1)"), n)
    assert dominates(r2.delta("(2,2)"), n) is not None


def test_dominates_refuses_a_non_monomial_n_on_every_call(r2):
    n = r2.delta("(1,1)") + r2.delta("(1,2)")  # both have range (1,1)
    for _ in range(3):
        with pytest.raises(InputError, match="monomial element required"):
            dominates(r2.delta("(1,1)"), n)
    assert n._dominating is None
    with pytest.raises(InputError, match="monomial element required"):
        dominates(n, r2.delta("(1,1)"))


def test_ball_witness_requires_domination(r2):
    with pytest.raises(InputError):
        ball_witness(r2.delta("(1,2)"), r2.delta("(2,1)"))


@pytest.mark.parametrize("coeff", [1e-5, 1e-6, 1e-8])
def test_witnesses_keep_coefficients_with_squares_below_the_tolerance(r2, coeff):
    """|m(g)| above the tolerance is support even when |m(g)|^2 is not: the ball witness
    and the predomain interpolant cut n*n at the tolerance squared."""
    m = r2.delta("(1,2)", coeff)
    n = m + r2.delta("(2,1)")
    checks = verify_ball_certificate(m, ball_witness(m, n), n)
    assert checks["ok"], checks
    # ball_witness's failure message embeds this dict, so it holds plain Python values.
    assert all(type(v) in (bool, float) for v in checks.values())
    l = predomain_interpolant([m], n)
    assert certify_domination(m, l.star(), l).ok
    assert dominates(l, n) is not None


def test_predomain_single_reduces_to_interpolant(r2):
    m = r2.delta("(1,1)")
    n = r2.one()
    l = predomain_interpolant([m], n)
    assert set(l.support()) == {"(1,1)"}
    assert certify_domination(m, l.star(), l).ok


def test_predomain_units_example(r2):
    l = predomain_interpolant([r2.delta("(1,1)"), r2.delta("(2,2)")], r2.one())
    assert max_coeff_diff(l, r2.one()) < 1e-12


def test_predomain_random_triples(contexts, rng):
    r4 = contexts["R4"]
    count = 0
    while count < 20:
        n = random_monomial(r4, rng)
        if n.is_zero():
            continue
        family = [_random_restriction(n, rng, rescale=True) for _ in range(3)]
        if any(dominates(m, n) is None for m in family):
            continue
        l = predomain_interpolant(family, n)
        for m in family:
            assert certify_domination(m, l.star(), l).ok
        assert dominates(l, n) is not None
        count += 1


def test_one_sided_conditions_detect_domination(r3):
    """A witness satisfying only ms, sn diagonal and m = msn is enough to
    conclude m < n, even when it fails the full five-condition certificate."""
    n = r3.element({"(1,1)": 1.0, "(2,2)": 0.5})  # sources {1,2}, ranges {1,2}
    m = r3.delta("(1,1)", 2.0)  # rescaled restriction, source fiber 1
    w = dominates(m, n)
    assert w is not None
    # junk arrow with range 2 (in s(supp n), off s(supp m)) and source 3
    # (off r(supp n)): keeps ms', s'n diagonal and ms'n = m, breaks ns'
    s_prime = w.s + r3.delta("(2,3)", 0.7)
    from twistalg.algebra import is_diagonal

    assert is_diagonal(m * s_prime) and is_diagonal(s_prime * n)
    assert max_coeff_diff(m * (s_prime * n), m) < 1e-12
    assert not certify_domination(m, s_prime, n).ok  # n s' is off-diagonal
    assert dominates(m, n) is not None  # the relation itself still holds


def test_general_restriction_on_nonmonomials(z4):
    n = 0.5 * (z4.delta("0") + z4.delta("1") + z4.delta("2") - z4.delta("3"))
    e_n = diagonal(n)
    assert not general_restriction_le(e_n, n)
    assert general_restriction_le(z4.zero(), n)


def test_relations_suite_passes(r2, z4):
    for ctx in (r2, z4):
        out = relations_suite(ctx, seed=11, pairs=60, cases=40)
        assert out["passed"], out


_nonzero = st.complex_numbers(min_magnitude=0.01, max_magnitude=10,
                              allow_nan=False, allow_infinity=False)


@given(st.lists(_nonzero, min_size=2, max_size=2), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_restriction_vs_domination_property(values, keep_second, rescale):
    """On the diagonal bisection of R2: restriction needs value agreement,
    domination only needs support containment."""
    ctx = standard_contexts()["R2"]
    units = list(ctx.groupoid.units)
    n = ctx.element(dict(zip(units, values)))
    coeffs = {units[0]: values[0] * (2 if rescale else 1)}
    if keep_second:
        coeffs[units[1]] = values[1]
    m = ctx.element(coeffs)
    assert dominates(m, n) is not None
    # the doubled coefficient moves m off n (magnitudes start at 0.01 >> tol)
    assert restriction_le(m, n) == (not rescale)


def test_relations_suite_certifies_each_ball_witness_once(monkeypatch, r2):
    """Each ball witness's certificate is formed and checked once, inside ball_witness or
    predomain_interpolant; the suite does not check it again."""
    from twistalg import relations, suites

    counts = {"_ball_certificate": 0, "_ball_checks": 0, "verify_ball_certificate": 0}
    for name in counts:
        original = getattr(relations, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in (relations, suites):
            monkeypatch.setattr(module, name, counting, raising=False)
    assert relations_suite(r2, pairs=10, cases=20)["passed"]
    assert counts["_ball_certificate"] > 0
    assert counts["_ball_checks"] == counts["_ball_certificate"]
    assert counts["verify_ball_certificate"] == 0


def test_relations_suite_certifies_each_pair_once(monkeypatch, r3):
    """The suite hands the witness it holds to ball_witness and predomain_interpolant,
    so no (m, n) pair reaches dominates twice."""
    from twistalg import relations, suites

    seen, held, repeats = set(), [], []
    original = relations.dominates

    def once(m, n):
        key = (id(m), id(n))
        if key in seen:
            repeats.append(key)
        seen.add(key)
        held.append((m, n))  # keeps the ids from being reused
        return original(m, n)

    for module in (relations, suites):
        monkeypatch.setattr(module, "dominates", once)
    out = relations_suite(r3, seed=5, pairs=20, cases=40)
    assert out["passed"] and out["ball_witness_cases"] > 0 and out["predomain_cases"] > 0
    assert repeats == []
