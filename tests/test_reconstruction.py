import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import (
    NotCartanError,
    SemigroupSpec,
    angle,
    check_cartan,
    check_filter_axioms,
    groupoids_isomorphic,
    hat,
    magnitude,
    recover_cocycle,
    reconstruct,
    source_state,
    twist_point,
    ultrafilter_at,
    ultrafilter_product,
)
from twistalg import reconstruction
from twistalg.algebra import (
    AlgebraElement,
    Cocycle,
    Phase,
    TwistedAlgebra,
    diagonal,
    is_diagonal,
    max_coeff_diff,
)
from twistalg.errors import InputError
from twistalg.fileio import dumps, groupoid_from_dict
from twistalg.groupoid import cyclic_group, full_relation
from twistalg.reconstruction import (
    basic_set,
    equivalent_in,
    product_criterion_report,
    rebuild_groupoid,
    unit_space_report,
)
from twistalg.relations import dominates
from twistalg.seeds import substream
from twistalg.semigroups import (
    BisectionBasis,
    membership,
    random_element,
    random_monomial,
    sample_members,
)
from twistalg.suites import _random_restriction


def test_ultrafilter_membership(r2):
    u = ultrafilter_at(r2, "(1,2)")
    assert u.contains(r2.delta("(1,2)"))
    assert not u.contains(r2.delta("(2,1)"))
    two = r2.delta("(1,2)") + r2.delta("(2,1)")
    assert u.contains(two) and ultrafilter_at(r2, "(2,1)").contains(two)
    assert not u.contains(r2.zero())


def test_filter_axioms_on_samples(r2, rng):
    u = ultrafilter_at(r2, "(1,2)")
    sample = [r2.delta("(1,2)"), 3 * r2.delta("(1,2)"),
              r2.delta("(1,2)") + r2.delta("(2,1)"), r2.delta("(2,1)")]
    rep = check_filter_axioms(u, sample)
    assert rep["proper"] and rep["down_directed"] and rep["up_closed"]
    assert rep["additively_prime"]


def test_filter_axioms_report_first_failing_pair(contexts):
    z2 = contexts["Z2"]
    # Below the zero tolerance each is outside U_1, but their sums are inside.
    first, second = 0.8e-9 * z2.delta("1"), 0.7e-9 * z2.delta("1")
    rep = check_filter_axioms(ultrafilter_at(z2, "1"), [first, second])
    assert not rep["additively_prime"]
    assert rep["prime_witness"] == (repr(first), repr(first))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_up_closure_witness_matches_the_old_order(contexts, data):
    """Asking n in U before the certificate keeps the first witness of the old
    order (certificate first), under the real certificate and under an arbitrary
    relation on the sample, which can make any pair a witness."""
    ctx = contexts[data.draw(st.sampled_from(sorted(contexts)))]
    rng = substream(data.draw(st.integers(0, 2**16)), "up-closure")
    g = data.draw(st.sampled_from(ctx.groupoid.elements))
    u = ultrafilter_at(ctx, g)
    sample = [ctx.delta(g)] + [random_monomial(ctx, rng)
                               for _ in range(data.draw(st.integers(0, 6)))]
    members = [m for m in sample if u.contains(m)]
    related = {(i, j) for i in range(len(sample)) for j in range(len(sample))
               if data.draw(st.booleans())}
    index = {id(x): i for i, x in enumerate(sample)}

    def arbitrary(m, n):  # the real certificate off the sample (the down-directedness bound)
        if id(m) not in index or id(n) not in index:
            return dominates(m, n)
        return (index[id(m)], index[id(n)]) in related or None

    for relation in (dominates, arbitrary):
        old = next(((repr(m), repr(n)) for m in members for n in sample
                    if relation(m, n) is not None and not u.contains(n)), None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruction, "dominates", relation)
            assert check_filter_axioms(u, sample)["up_witness"] == old


def test_a_failed_certificate_ends_at_a_non_diagonal_s_times_m(r3, monkeypatch):
    """On the sweeps of an R3 ultrafilter, a certificate whose s*m is not diagonal
    forms at most two products past n's own side f(n*n) n*: s and s*m."""
    from twistalg import algebra, relations

    convolve, inverse_on_support = algebra.convolve, relations._inverse_on_support
    calls, building = [], []

    def counting(a, b):
        if calls and not building:
            calls[-1]["products"] += 1
        return convolve(a, b)

    def n_side(n):
        building.append(n)
        try:
            return inverse_on_support(n)
        finally:
            building.pop()

    def recording(m, n):
        calls.append({"products": 0})
        w = dominates(m, n)
        s = n._dominating[2][tuple(sorted({r3.groupoid.range[g] for g in m.support()},
                                          key=r3.groupoid.index))][0]
        calls[-1].update(ok=w is not None, first_failed=not is_diagonal(convolve(s, m)))
        return w

    monkeypatch.setattr(algebra, "convolve", counting)
    monkeypatch.setattr(relations, "_inverse_on_support", n_side)
    monkeypatch.setattr(reconstruction, "dominates", recording)
    rng = substream(3, "up-closure-products")
    g = "(1,2)"
    sample = [r3.delta(g)] + [reconstruction._monomial_through(r3, g, rng) for _ in range(6)]
    sample += [random_monomial(r3, rng) for _ in range(6)]
    assert check_filter_axioms(ultrafilter_at(r3, g), sample)["up_closed"]
    failed = [c for c in calls if not c["ok"]]
    assert sum(c["first_failed"] for c in failed) > 0
    assert all(c["products"] <= 2 for c in failed if c["first_failed"])

def _filter_sample(ctx, g, rng, data):
    """delta_g, members through g (some rescaled, some cut to g alone) and
    random monomials, which may lie outside U_g."""
    sample = [ctx.delta(g)]
    for _ in range(data.draw(st.integers(0, 5))):
        m = reconstruction._monomial_through(ctx, g, rng)
        shape = data.draw(st.sampled_from(("as is", "scaled", "cut")))
        if shape == "scaled":
            m = data.draw(st.sampled_from((1e-3, 2.5, -1j))) * m
        elif shape == "cut":
            m = ctx.delta(g, m.coeff(g))
        sample.append(m)
    sample += [random_monomial(ctx, rng) for _ in range(data.draw(st.integers(0, 4)))]
    return [sample[i] for i in data.draw(st.permutations(range(len(sample))))]


def _all_rows_down_witness(u, members, relation):
    """The down-directedness sweep before it was cut to one row: one lower
    bound l = m(g) delta_g per member m, tried against every member n."""
    for m in members:
        l = u.ctx.delta(u.g, m.coeff(u.g))
        l_in_u = u.contains(l)
        n = next((n for n in members if not (l_in_u and relation(l, n))), None)
        if n is not None:
            return (repr(m), repr(n))
    return None


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_down_witness_matches_the_all_rows_loop(contexts, data):
    """The first member's row gives the all-rows loop's down_witness, under the
    real certificate and under a relation that sees l only through its support,
    which can make any member a witness."""
    ctx = contexts[data.draw(st.sampled_from(sorted(contexts)))]
    rng = substream(data.draw(st.integers(0, 2**16)), "down-directed")
    g = data.draw(st.sampled_from(ctx.groupoid.elements))
    u = ultrafilter_at(ctx, g)
    sample = _filter_sample(ctx, g, rng, data)
    members = [m for m in sample if u.contains(m)]
    index = {id(x): i for i, x in enumerate(sample)}
    related = {((g,), i) for i in range(len(sample)) if data.draw(st.booleans())}

    def by_support(l, n):  # the real certificate on the up-closure pairs
        if id(l) in index:
            return dominates(l, n)
        return ((l.support(), index[id(n)]) in related) or None

    for relation in (dominates, by_support):
        old = _all_rows_down_witness(u, members, relation)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruction, "dominates", relation)
            assert check_filter_axioms(u, sample)["down_witness"] == old


def test_down_sweep_certifies_each_member_once(contexts, monkeypatch):
    """The down sweep makes one certificate per member: len(members) calls to
    dominates with a lower bound l outside the sample, not len(members)^2."""
    calls = []

    def counting(m, n):
        calls.append(m)
        return dominates(m, n)

    monkeypatch.setattr(reconstruction, "dominates", counting)
    checked = 0
    for name in ("R3", "Z4", "V4_pauli", "R2_disj_Z2"):
        ctx = contexts[name]
        rng = substream(3, "down-count", name)
        for g in ctx.groupoid.elements:
            u = ultrafilter_at(ctx, g)
            sample = [ctx.delta(g)] + [reconstruction._monomial_through(ctx, g, rng)
                                       for _ in range(4)]
            sample += [random_monomial(ctx, rng) for _ in range(4)]
            members = [m for m in sample if u.contains(m)]
            calls.clear()
            assert check_filter_axioms(u, sample)["down_directed"]
            in_sample = {id(x) for x in sample}
            assert sum(id(m) not in in_sample for m in calls) == len(members)
            checked += len(members) > 1
    assert checked > 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prime_witness_matches_the_old_order(contexts, data):
    """Asking whether m and n are non-members before forming m + n keeps the
    first witness of the old order (the sum first), including pairs of
    sub-tolerance elements whose sum lands in U."""
    ctx = contexts[data.draw(st.sampled_from(sorted(contexts)))]
    rng = substream(data.draw(st.integers(0, 2**16)), "prime")
    g = data.draw(st.sampled_from(ctx.groupoid.elements))
    u = ultrafilter_at(ctx, g)
    sample = _filter_sample(ctx, g, rng, data)
    for _ in range(data.draw(st.integers(0, 3))):
        tiny = data.draw(st.floats(0.3, 0.99)) * ctx.zero_tol
        sample.insert(data.draw(st.integers(0, len(sample))), ctx.delta(g, tiny))
    old = next(((repr(m), repr(n)) for m in sample for n in sample
                if u.contains(m + n) and not (u.contains(m) or u.contains(n))), None)
    assert check_filter_axioms(u, sample)["prime_witness"] == old


def test_angle_and_magnitude_read_one_coefficient(contexts, z6_cob, monkeypatch):
    """angle and magnitude equal the state formula psi_U(E(n* m)) bit for bit,
    and form no convolution."""
    from twistalg import algebra

    def old_magnitude(u, n):
        return float(np.sqrt(source_state(u, diagonal(n.star() * n)).real))

    def old_angle(u, m, n):
        state = source_state(u, diagonal(n.star() * m))
        return state / (old_magnitude(u, m) * old_magnitude(u, n))

    cases = []
    for ctx in (*contexts.values(), z6_cob):
        rng = substream(5, "one-coefficient", ctx.name)
        for g in ctx.groupoid.elements:
            u = ultrafilter_at(ctx, g)
            u.source_point()  # the point frame forms its products once, here
            ms = [ctx.delta(g)] + [reconstruction._monomial_through(ctx, g, rng)
                                   for _ in range(3)]
            for m in ms:
                cases.append((u, m, ms[-1], old_magnitude(u, m), old_angle(u, m, ms[-1])))

    def refuse(a, b):
        raise AssertionError("convolution formed")

    monkeypatch.setattr(algebra, "convolve", refuse)
    for u, m, n, mag, ang in cases:
        assert magnitude(u, m) == mag
        assert angle(u, m, n) == ang
    assert any(ctx.cocycle.values for ctx in {u.ctx for u, *_ in cases})


def test_ultrafilter_products(r2):
    uu = ultrafilter_at(r2, "(1,1)")
    assert ultrafilter_product(uu, uu).g == "(1,1)"
    u12, u21 = ultrafilter_at(r2, "(1,2)"), ultrafilter_at(r2, "(2,1)")
    assert ultrafilter_product(u12, u21).g == "(1,1)"
    assert ultrafilter_product(u12, u12) is None
    # the zero-product witness backing the undefined case
    assert (r2.delta("(1,2)") * r2.delta("(1,2)")).is_zero()


def test_product_criterion_exhaustive(contexts):
    for name in ("R2", "Z4", "V4_pauli", "R2_disj_Z2"):
        rep = product_criterion_report(contexts[name], substream(8, "pc", name))
        assert rep["passed"], (name, rep)


def _full_product_criterion(ctx, rng):
    """product_criterion_report as it was: every m * n formed in full."""
    gpd = ctx.groupoid
    members = {
        g: [ctx.delta(g)] + [reconstruction._monomial_through(ctx, g, rng) for _ in range(3)]
        for g in gpd.elements
    }
    criterion_ok, witness = True, None
    for a in gpd.elements:
        for b in gpd.elements:
            defined = reconstruction.ultrafilter_product(ultrafilter_at(ctx, a),
                                                         ultrafilter_at(ctx, b))
            zero_free = all(not (m * n).is_zero() for m in members[a] for n in members[b])
            if (defined is not None) != zero_free:
                criterion_ok, witness = False, (a, b)
                break
    identity_ok, id_witness = True, None
    for _ in range(40):
        m = random_monomial(ctx, rng)
        n = random_monomial(ctx, rng)
        if basic_set(m * n) != reconstruction.subset_product(gpd, m.support(), n.support()):
            identity_ok, id_witness = False, (repr(m), repr(n))
            break
    return {
        "passed": criterion_ok and identity_ok,
        "criterion_ok": criterion_ok,
        "criterion_witness": witness,
        "basic_set_identity_ok": identity_ok,
        "basic_set_witness": id_witness,
    }


@pytest.mark.parametrize("near_tol", [False, True])
def test_product_criterion_matches_the_full_product_oracle(contexts, z6_cob, monkeypatch,
                                                           near_tol):
    """The one-coefficient test with its full-product fallback gives the full
    products' report.  With near_tol, two of the three sampled members through
    each point have |m(g)| = sqrt(zero_tol) (1 +- 1e-4), so that the coefficient
    of m * n at ab lands just above or just below the tolerance on defined pairs,
    and the fallback runs on the ones below."""
    through = reconstruction._monomial_through
    drawn = []

    def near_tolerance(ctx, g, rng):
        m = through(ctx, g, rng)
        drawn.append(m)
        scale = (1 + 1e-4, 1 - 1e-4, None)[(len(drawn) - 1) % 3]
        if scale is None:
            return m
        c = m.coeff(g)
        return AlgebraElement(ctx, {**m.coeffs, g: scale * np.sqrt(ctx.zero_tol) * c / abs(c)})

    if near_tol:
        monkeypatch.setattr(reconstruction, "_monomial_through", near_tolerance)
    read = []
    product_coeff = reconstruction.product_coeff

    def recording(a, b, g):
        value = product_coeff(a, b, g)
        read.append(abs(value))
        return value

    monkeypatch.setattr(reconstruction, "product_coeff", recording)
    for ctx in (*contexts.values(), z6_cob):
        for seed in (1, 8):
            drawn.clear()
            expected = _full_product_criterion(ctx, substream(seed, "pc-oracle", ctx.name))
            drawn.clear()
            report = product_criterion_report(ctx, substream(seed, "pc-oracle", ctx.name))
            assert report == expected, (ctx.name, seed)
    tol = z6_cob.zero_tol
    assert any(x > tol for x in read)
    assert any(x <= tol for x in read) == near_tol


def test_unit_space_characterizations(contexts):
    for name in ("R2", "Z3", "V4_pauli", "Swap2", "R2_disj_Z2"):
        rep = unit_space_report(contexts[name], substream(9, "us", name))
        assert rep["passed"], (name, rep)


def test_unit_ultrafilter_counts(z4, r2):
    assert sum(ultrafilter_at(z4, g).meets_diagonal() for g in z4.groupoid.elements) == 1
    assert sum(ultrafilter_at(r2, g).meets_diagonal() for g in r2.groupoid.elements) == 2
    # the basic set of E(delta_(1,2)) is empty, matching U_n restricted to units
    assert basic_set(diagonal(r2.delta("(1,2)"))) == frozenset()
    assert basic_set(r2.one()) == frozenset(r2.groupoid.units)


def test_source_state_examples(r2):
    u = ultrafilter_at(r2, "(1,2)")
    assert source_state(u, r2.delta("(2,2)")) == 1  # source of (1,2) is unit 2
    with pytest.raises(InputError):
        source_state(u, r2.delta("(1,2)"))
    # on unit ultrafilters, nonvanishing of the state is exactly membership
    for unit in r2.groupoid.units:
        uf = ultrafilter_at(r2, unit)
        for b in (r2.delta("(2,2)", 0.4), r2.delta("(1,1)"), r2.zero()):
            assert uf.contains(b) == (abs(source_state(uf, b)) > 1e-9)


def test_magnitude_examples(r2):
    u = ultrafilter_at(r2, "(1,2)")
    assert abs(magnitude(u, r2.delta("(1,2)")) - 1) < 1e-12
    assert abs(magnitude(u, r2.delta("(1,2)", 3j)) - 3) < 1e-12
    with pytest.raises(InputError):
        magnitude(u, r2.delta("(2,1)"))


def test_magnitude_multiplicative(r3, rng):
    gpd = r3.groupoid
    for _ in range(100):
        pairs = list(gpd.compose)
        g, h = pairs[rng.integers(len(pairs))]
        m = _monomial_through(r3, g, rng)
        n = _monomial_through(r3, h, rng)
        lhs = magnitude(ultrafilter_at(r3, gpd.compose[(g, h)]), m * n)
        rhs = magnitude(ultrafilter_at(r3, g), m) * magnitude(ultrafilter_at(r3, h), n)
        assert abs(lhs - rhs) < 1e-12


def _monomial_through(ctx, g, rng):
    from twistalg.reconstruction import _monomial_through as mt

    return mt(ctx, g, rng)


def test_angle_examples(r2):
    u = ultrafilter_at(r2, "(1,2)")
    n = r2.delta("(1,2)")
    assert abs(angle(u, n, n) - 1) < 1e-12
    assert abs(angle(u, 1j * n, n) - 1j) < 1e-12
    m = r2.delta("(1,2)", 2 - 2j)
    assert abs(angle(u, m, n) - angle(u, n, m).conjugate()) < 1e-12


def test_twist_points(r2, rng):
    u = ultrafilter_at(r2, "(1,2)")
    assert twist_point(r2.delta("(1,2)"), u).phase == 1
    assert twist_point(r2.delta("(1,2)", 1j), u).phase == 1j
    for _ in range(200):
        m = _monomial_through(r2, "(1,2)", rng)
        n = _monomial_through(r2, "(1,2)", rng)
        assert equivalent_in(u, m, n) == twist_point(m, u).approx_eq(twist_point(n, u))


def _z3_coboundary(d):
    """Z3 twisted by the coboundary of b(1) = 1/d."""
    z3 = cyclic_group(3)
    b = {"0": Fraction(0), "1": Fraction(1, d), "2": Fraction(0)}
    return TwistedAlgebra(z3, Cocycle(z3, {
        (g, h): Phase((b[g] + b[h] - b[gh]) % 1) for (g, h), gh in z3.compose.items()
    }))


def test_recover_cocycle_trivial_and_pauli(r2, v4_pauli):
    recovered, residual = recover_cocycle(r2)
    assert residual < 1e-9
    assert not recovered.values  # identically one
    # Z3 twisted by the coboundary of b(1) = 1/d: phases finer than 1/64 turn, and
    # (d = 10^9) finer than a float angle resolves without knowing the grid.
    for ctx in (v4_pauli, _z3_coboundary(100), _z3_coboundary(10**9)):
        recovered, residual = recover_cocycle(ctx)
        assert residual < 1e-9
        for pair, phase in ctx.cocycle.values.items():
            assert recovered.values[pair].turns == phase.turns


def test_recover_cocycle_refuses_grids_beyond_float_resolution():
    recovered, _ = recover_cocycle(_z3_coboundary(10**12))
    assert recovered.values[("1", "1")].turns == Fraction(2, 10**12)
    with pytest.raises(InputError, match="1/1000000000000 turn"):
        recover_cocycle(_z3_coboundary(10**13))


def test_hat_examples(r2, r3, rng):
    h = hat(r2.delta("(1,2)"))
    assert abs(h.coeff("(1,2)") - 1) < 1e-12
    assert abs(h.coeff("(2,1)")) < 1e-12
    for _ in range(100):
        a = random_element(r3, rng)
        assert max_coeff_diff(hat(a), a) < 1e-9


def test_hat_report_forms_each_hat_once_per_sample(r3, rng, monkeypatch):
    """hat(a) and hat(b) once each, then the hats of z a + b, ab, a*, E(a) and a monomial."""
    calls, original = [], reconstruction.hat

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(reconstruction, "hat", counting)
    assert reconstruction.hat_report(r3, rng)["passed"]
    assert len(calls) == 7 * 60


def test_second_hat_forms_no_product(monkeypatch, rng):
    """The point frame (delta_g^*, source and range point per g) is built once
    per context, by the first hat or source_state.  After it, finding a point,
    testing whether an ultrafilter meets the diagonal or a hat value forms no
    convolution and takes no star, and rebuild_groupoid forms only its
    membership probes and the delta products of its composition table."""
    from twistalg import algebra

    counts = {"convolve": 0, "involution": 0}
    for name in counts:
        original = getattr(algebra, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(algebra, name, counting)
    for first_call in ("hat", "source_state"):
        ctx = TwistedAlgebra(full_relation(3), name="R3")
        elems = ctx.groupoid.elements
        a = random_element(ctx, rng)
        if first_call == "hat":
            first = hat(a).coeffs
        else:
            source_state(ultrafilter_at(ctx, elems[1]), ctx.delta(elems[0]))
            first = None
        assert counts["convolve"] > 0 and counts["involution"] > 0
        counts.update(convolve=0, involution=0)
        again = hat(a)
        assert first is None or again.coeffs == first
        assert max_coeff_diff(again, a) == 0
        for g in elems:
            u = ultrafilter_at(ctx, g)
            assert (u.source_point(), u.range_point()) == (ctx.groupoid.source[g],
                                                           ctx.groupoid.range[g])
            assert u.meets_diagonal() == ctx.groupoid.is_unit(g)
        assert counts == {"convolve": 0, "involution": 0}
        spec = SemigroupSpec.monomial(ctx)
        for g in elems:
            membership(spec, ctx.delta(g))
        probes = dict(counts)
        counts.update(convolve=0, involution=0)
        rebuild_groupoid(ctx, spec)
        assert counts == {"convolve": probes["convolve"] + len(elems) ** 2,
                          "involution": probes["involution"]}
        counts.update(convolve=0, involution=0)


def test_rebuild_groupoid_fresh_labels(r2):
    rebuilt, label = rebuild_groupoid(r2, SemigroupSpec.monomial(r2))
    assert set(rebuilt.elements) == {f"p{i}" for i in range(4)}
    assert len(rebuilt.units) == 2
    assert groupoids_isomorphic(r2.groupoid, rebuilt).status == "isomorphic"


def test_reconstruct_passes_and_is_deterministic(r2):
    rep1 = reconstruct(r2, seed=123)
    rep2 = reconstruct(r2, seed=123)
    assert rep1.passed
    assert dumps(rep1.to_dict()) == dumps(rep2.to_dict())


def test_reconstruct_records_the_context_tolerance():
    ctx = TwistedAlgebra(full_relation(2), zero_tol=1e-7)
    report = reconstruct(ctx)
    assert report.tolerance == 1e-7 and report.passed


def test_reconstruct_with_offdiag_basis(r2):
    units = list(r2.groupoid.units)
    basis = BisectionBasis(
        r2.groupoid, [[], units, [units[0]], [units[1]], ["(1,2)"], ["(2,1)"]]
    )
    spec = SemigroupSpec.basis_restricted(r2, basis)
    rep = reconstruct(r2, spec)
    assert rep.isomorphism["status"] == "isomorphic"
    assert rep.cocycle_residual < 1e-9
    assert rep.summable_image["passed"]


def test_the_report_order_does_not_follow_the_runner(r2):
    def backwards(names, call):
        return {name: call(name) for name in reversed(names)}

    serial = reconstruct(r2, seed=3)
    assert list(serial.theorems) == [
        "rebuilt_groupoid_axioms", "product_criterion", "unit_space", "ultra_primeness",
        "domination_vs_inclusion", "filter_axioms", "states_and_angles", "twist_points",
        "hat_map"]
    assert dumps(reconstruct(r2, seed=3, run=backwards).to_dict()) == dumps(serial.to_dict())


def test_reconstruct_refuses_non_cartan(r2):
    units = list(r2.groupoid.units)
    basis = BisectionBasis(r2.groupoid, [[], units, [units[0]], [units[1]]])
    spec = SemigroupSpec.basis_restricted(r2, basis)
    with pytest.raises(NotCartanError) as err:
        reconstruct(r2, spec)
    assert any("dense span" in f for f in err.value.failures)


@pytest.mark.parametrize("name", ["Z4", "V4", "V4_pauli", "R2_disj_Z2", "R3"])
def test_the_normalizer_spec_fails_stability_where_there_is_isotropy(contexts, name):
    """With isotropy, a normaliser n can carry E(n) at a unit and more off it,
    so E(n)n* is not diagonal; R3 has none and its normalisers are Cartan."""
    spec = SemigroupSpec.normalizers(contexts[name])
    report = check_cartan(spec, substream(42, "reconstruct-cartan", name, "normalizers"))
    expected = [] if name == "R3" else ["stability E(n)n* in B"]
    assert report.failures() == expected
    assert (report.stable_witness is not None) == bool(expected)
    if expected:
        with pytest.raises(NotCartanError) as err:
            reconstruct(contexts[name], spec, seed=42)
        assert err.value.failures == tuple(expected)


def _unchecked_basis(ctx, members):
    """A BisectionBasis of exactly these members, without the closure checks
    that would refuse it."""
    basis = object.__new__(BisectionBasis)
    basis.groupoid, basis.members = ctx.groupoid, tuple(map(tuple, members))
    basis.family = frozenset(map(frozenset, members))
    basis.covered = frozenset(itertools.chain.from_iterable(basis.family))
    return basis


_R3_UNITS = ("(1,1)", "(2,2)", "(3,3)")
# case -> (context, family, failures, witness field, witness pattern)
UNCHECKED_FAMILIES = {
    # Every unit subset and {(1,2)} without its inverse {(2,1)}.
    "star": ("R3", [*(c for k in range(4) for c in itertools.combinations(_R3_UNITS, k)),
                    ["(1,2)"]],
             ["star-semigroup closure", "dense span (dimension 4)"], "star_witness",
             r"star of AlgebraElement\(\S+\*d\[\(1,2\)\]\)"),
    # Closed under inverses, but 1 + 1 = 3 + 3 = 2 is missing.
    "product": ("Z4", [[], ["0"], ["1"], ["3"]],
                ["star-semigroup closure", "dense span (dimension 3)"], "star_witness",
                r"product of AlgebraElement\(\S+\*d\[([13])\]\) and AlgebraElement\(\S+\*d\[\1\]\)"),
    # Single units only: a diagonal element on two units is not a member.  The
    # sampled pool keeps only members, so the star check passes.
    "b-contained": ("R3", [[], *([u] for u in _R3_UNITS)],
                    ["dense span (dimension 3)", "B contained in N"],
                    "b_witness", r"AlgebraElement\(.*d\[\((\d),\1\)\].*d\[\((\d),\2\)\].*\)"),
}


@pytest.mark.parametrize("case", UNCHECKED_FAMILIES)
def test_an_unchecked_basis_fails_the_cartan_check_with_a_witness(contexts, case):
    name, members, failures, field, pattern = UNCHECKED_FAMILIES[case]
    ctx = contexts[name]
    spec = SemigroupSpec.basis_restricted(ctx, _unchecked_basis(ctx, members))
    report = check_cartan(spec, substream(1, "reconstruct-cartan", name, "basis"))
    assert report.failures() == failures
    assert re.fullmatch(pattern, getattr(report, field)), getattr(report, field)
    with pytest.raises(NotCartanError) as err:
        reconstruct(ctx, spec, seed=1)
    assert err.value.failures == tuple(failures)


def test_no_cartan_witness_is_a_non_member(contexts):
    """On the R3 family of single units most random diagonals are not members.
    sample_members keeps only members, so no star or stability witness, each
    drawn from its pool, is a non-member, at any seed."""
    ctx = contexts["R3"]
    singles = _unchecked_basis(ctx, [[], *([u] for u in _R3_UNITS)])
    spec = SemigroupSpec.basis_restricted(ctx, singles)
    for seed in range(8):
        assert all(membership(spec, m) for m in sample_members(spec, substream(seed, "pool")))
        report = check_cartan(spec, substream(seed, "cartan"))
        assert (report.star_witness, report.stable_witness) == (None, None)
        assert report.failures()[0] == "dense span (dimension 3)"


def test_cross_reconstruction_distinguishes_z4_v4(contexts):
    rep_z4 = reconstruct(contexts["Z4"])
    rep_v4 = reconstruct(contexts["V4"])
    a = groupoid_from_dict(rep_z4.rebuilt_groupoid, "rebuilt Z4")
    b = groupoid_from_dict(rep_v4.rebuilt_groupoid, "rebuilt V4")
    assert groupoids_isomorphic(a, b).status == "not_isomorphic"


def test_domination_matches_basic_set_containment(r3, rng):
    from twistalg.relations import dominates

    for _ in range(200):
        n = random_monomial(r3, rng)
        m = _random_restriction(n, rng, rescale=True) if rng.random() < 0.5 \
            else random_monomial(r3, rng)
        assert (dominates(m, n) is not None) == (basic_set(m) <= basic_set(n))
