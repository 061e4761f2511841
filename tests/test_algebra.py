import cmath
import importlib.util
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import (
    Cocycle,
    InputError,
    Phase,
    TwistedAlgebra,
    cstar_norm,
    diagonal,
    reduced_norm_formula,
    regular_representation,
)
from twistalg import algebra
from twistalg.algebra import (
    AlgebraElement,
    _representation_layout,
    convolve,
    involution,
    is_diagonal,
    max_coeff_diff,
    product_coeff,
    standard_contexts,
)
from twistalg.groupoid import (
    FiniteGroupoid,
    cyclic_group,
    disjoint_union,
    full_relation,
    group,
    iter_bisections,
    klein_four,
    standard_fixtures,
)
from twistalg.reconstruction import hat, source_state, ultrafilter_at
from twistalg.seeds import substream
from twistalg.suites import norms_suite
from twistalg.twists import complex_to_turns, turns_to_complex
from twistalg.semigroups import (
    BisectionBasis,
    SemigroupSpec,
    _bisection_pattern_pairs,
    _sweep_compatibility,
    check_cartan,
    compatible,
    csum_closure,
    membership,
    random_element,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

_QUARTER_TURNS = {Fraction(0): 1 + 0j, Fraction(1, 4): 1j, Fraction(1, 2): -1 + 0j,
                  Fraction(3, 4): -1j}


def _fraction_complex(turns: Fraction) -> complex:
    """exp(2 pi i turns) by the Fraction route, the oracle of turns_to_complex:
    exact at the quarter turns, else from float(turns)."""
    turns %= 1
    exact = _QUARTER_TURNS.get(turns)
    return exact if exact is not None else cmath.exp(2j * cmath.pi * float(turns))


def _sigma(ctx, g, h) -> complex:
    return _fraction_complex(ctx.cocycle(g, h).turns)


def brute_convolution(ctx, a, b):
    """Independent oracle: the defining double sum, no sparsity tricks."""
    out = {}
    for h in ctx.groupoid.elements:
        for k in ctx.groupoid.elements:
            g = ctx.groupoid.product(h, k)
            if g is None:
                continue
            out[g] = out.get(g, 0j) + _sigma(ctx, h, k) * a.coeff(h) * b.coeff(k)
    return ctx.element(out)


def test_unit_delta_idempotent(r2):
    du = r2.delta("(1,1)")
    assert max_coeff_diff(du * du, du) == 0


def test_matrix_unit_product(r2):
    prod = r2.delta("(1,2)") * r2.delta("(2,1)")
    assert prod.coeffs == {"(1,1)": 1 + 0j}
    oracle = brute_convolution(r2, r2.delta("(1,2)"), r2.delta("(2,1)"))
    assert max_coeff_diff(prod, oracle) == 0


def test_pauli_anticommutation(v4_pauli):
    lhs = v4_pauli.delta("01") * v4_pauli.delta("10")
    rhs = v4_pauli.delta("10") * v4_pauli.delta("01")
    assert lhs.coeffs == {"11": -1 + 0j}
    assert rhs.coeffs == {"11": 1 + 0j}


def test_convolution_matches_brute_force(r3, v4_pauli, rng):
    for ctx in (r3, v4_pauli):
        for _ in range(25):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            assert max_coeff_diff(a * b, brute_convolution(ctx, a, b)) < 1e-12


def test_involution_examples(r2):
    v = (2 - 3j) * r2.delta("(1,1)")
    assert v.star().coeffs == {"(1,1)": 2 + 3j}
    assert r2.delta("(1,2)").star().coeffs == {"(2,1)": 1 + 0j}


def test_involution_involutive_and_antimultiplicative(r3, v4_pauli, rng):
    for ctx in (r3, v4_pauli):
        for _ in range(100):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            assert max_coeff_diff(a.star().star(), a) < 1e-12
            assert max_coeff_diff((a * b).star(), b.star() * a.star()) < 1e-12


def test_diagonal_examples(z4):
    assert diagonal(z4.delta("0")).coeffs == {"0": 1 + 0j}
    assert diagonal(z4.delta("1")).is_zero()
    a = 3 * z4.delta("0") + 1j * z4.delta("1")
    assert diagonal(a).coeffs == {"0": 3 + 0j}


def test_diagonal_linear_idempotent_positive(r3, rng):
    for _ in range(50):
        a, b = random_element(r3, rng), random_element(r3, rng)
        assert max_coeff_diff(diagonal(a + b), diagonal(a) + diagonal(b)) < 1e-12
        assert max_coeff_diff(diagonal(diagonal(a)), diagonal(a)) < 1e-12
        ea = diagonal(a.star() * a)
        assert all(c.real > -1e-12 and abs(c.imag) < 1e-12 for c in ea.coeffs.values())
        assert cstar_norm(diagonal(a)) <= cstar_norm(a) + 1e-9


def test_regular_representation_projection(r2):
    image = regular_representation(r2.delta("(1,1)"))
    for u, fiber in image.basis.items():
        m = image.blocks[u]
        expected = np.diag([1.0 if r2.groupoid.range[h] == "(1,1)" else 0.0 for h in fiber])
        assert np.abs(m - expected).max() == 0


def test_regular_representation_block_action(r2):
    # in the source fiber of unit (1,1), delta_(2,1) maps xi_(1,1) to xi_(2,1)
    image = regular_representation(r2.delta("(2,1)"))
    fiber = image.basis["(1,1)"]
    m = image.blocks["(1,1)"]
    i_11, i_21 = fiber.index("(1,1)"), fiber.index("(2,1)")
    expected = np.zeros((2, 2))
    expected[i_21, i_11] = 1.0
    assert np.abs(m - expected).max() == 0


def test_pauli_image_is_full_matrix_algebra(v4_pauli):
    """Oracle: the explicit two-dimensional projective representation
    u_(a,b) = X^a Z^b with the same sign rule."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    u = {"00": np.eye(2, dtype=complex), "01": z, "10": x, "11": x @ z}
    for g in v4_pauli.groupoid.elements:
        for h in v4_pauli.groupoid.elements:
            prod = v4_pauli.delta(g) * v4_pauli.delta(h)
            ((gh, coeff),) = prod.coeffs.items()
            assert np.abs(u[g] @ u[h] - coeff * u[gh]).max() < 1e-12
    # the regular image spans a four-dimensional algebra with trivial center
    mats = [regular_representation(v4_pauli.delta(g)).blocks["00"] for g in
            v4_pauli.groupoid.elements]
    stack = np.array([m.ravel() for m in mats])
    assert np.linalg.matrix_rank(stack) == 4
    commutes_with_all = []
    for cand in mats:
        if all(np.abs(cand @ m - m @ cand).max() < 1e-12 for m in mats):
            commutes_with_all.append(cand)
    assert len(commutes_with_all) == 1  # identity only


def test_norm_examples(r2, contexts):
    for name, ctx in contexts.items():
        for g in ctx.groupoid.elements:
            assert abs(cstar_norm(ctx.delta(g)) - 1) < 1e-12, (name, g)
    assert abs(cstar_norm(r2.delta("(1,2)") + r2.delta("(2,1)")) - 1) < 1e-12


def test_norm_is_sup_norm_on_monomials(contexts, rng):
    # on bisection-supported elements the C*-norm is the largest coefficient
    from twistalg.semigroups import random_monomial

    for name, ctx in contexts.items():
        for _ in range(30):
            n = random_monomial(ctx, rng)
            assert abs(cstar_norm(n) - n.sup_coeff()) < 1e-12, name


def test_cstar_identity_random(r3, rng):
    for _ in range(100):
        a = random_element(r3, rng)
        z = complex(rng.normal(), rng.normal())
        assert abs(cstar_norm(a.star() * a) - cstar_norm(a) ** 2) < 1e-9
        assert abs(cstar_norm(z * a) - abs(z) * cstar_norm(a)) < 1e-9


def test_norm_faithful(r3, v4_pauli, rng):
    for ctx in (r3, v4_pauli):
        for g in ctx.groupoid.elements:
            assert cstar_norm(ctx.delta(g)) > 0.5
        for _ in range(25):
            a = random_element(ctx, rng)
            if cstar_norm(a) < 1e-12:
                assert a.sup_coeff() <= 1e-12


def test_reduced_norm_formula_unit(r2):
    assert reduced_norm_formula(r2.delta("(1,1)")) == 1.0


def test_reduced_norm_formula_zero(r2):
    assert cstar_norm(r2.zero()) == 0 and reduced_norm_formula(r2.zero()) == 0.0


def test_reduced_norm_formula_gap_r3(r3):
    """The exact supremum is the operator norm: no gap and no overshoot."""
    a = random_element(r3, substream(42, "norm-formula"))
    assert abs(reduced_norm_formula(a) - cstar_norm(a)) < 1e-9


def _turns(ctx, g, h) -> int:
    return ctx.cocycle.turns.get((g, h), 0)


def test_exact_star_identity_on_basis(contexts):
    """(delta_g delta_h)* = delta_h* delta_g*, in whole turns of the cocycle, on
    the elements delta_product and delta_star return."""
    for ctx in contexts.values():
        gpd, inv = ctx.groupoid, ctx.groupoid.inverse
        for (g, h), gh in gpd.compose.items():
            assert ctx.delta_product(g, h)[1] == gh
            prod = ctx.delta_product(inv[h], inv[g])
            assert prod is not None and prod[1] == ctx.delta_star(gh)[1] == inv[gh]
            lhs = -_turns(ctx, g, h) - _turns(ctx, inv[gh], gh)
            rhs = -_turns(ctx, inv[h], h) - _turns(ctx, inv[g], g) + _turns(ctx, inv[h], inv[g])
            assert (lhs - rhs) % ctx.cocycle.grid == 0


def test_exact_associativity_on_basis(v4_pauli):
    gpd = v4_pauli.groupoid
    for g, h, k in itertools.product(gpd.elements, repeat=3):
        if (g, h) not in gpd.compose or (h, k) not in gpd.compose:
            continue
        gh, hk = v4_pauli.delta_product(g, h)[1], v4_pauli.delta_product(h, k)[1]
        assert v4_pauli.delta_product(gh, k)[1] == v4_pauli.delta_product(g, hk)[1]
        defect = (_turns(v4_pauli, g, h) + _turns(v4_pauli, gh, k)
                  - _turns(v4_pauli, h, k) - _turns(v4_pauli, g, hk))
        assert defect % v4_pauli.cocycle.grid == 0


@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4),
       st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4),
       st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_associativity_property(xs, ys, zs):
    ctx = TwistedAlgebra(klein_four("V4_prop"), name="V4_prop")
    from twistalg.algebra import pauli_cocycle

    g4 = klein_four("V4_prop_tw")
    tw = TwistedAlgebra(g4, pauli_cocycle(g4), name="V4_prop_tw")
    for c in (ctx, tw):
        elems = c.groupoid.elements
        a = c.element(dict(zip(elems, xs)))
        b = c.element(dict(zip(elems, ys)))
        d = c.element(dict(zip(elems, zs)))
        scale = max(a.sup_coeff() * b.sup_coeff() * d.sup_coeff(), 1.0)
        assert max_coeff_diff((a * b) * d, a * (b * d)) <= 1e-9 * scale


def test_phase_arithmetic_exact():
    assert turns_to_complex(2, 4) == -1 and turns_to_complex(1, 2) == -1
    assert turns_to_complex(3, 4) == -1j and turns_to_complex(0, 7) == 1
    assert complex_to_turns(-1j, 4) == 3 and complex_to_turns(1j, 8) == 2
    with pytest.raises(InputError):
        complex_to_turns(0.5 + 0j, 4)


@given(st.integers(1, 10**15), st.data())
@settings(max_examples=300, deadline=None)
def test_turns_to_complex_is_the_fraction_value_bit_for_bit(grid, data):
    """t/grid turns, unreduced or not, give the double of the reduced Fraction."""
    t = data.draw(st.integers(0, grid - 1))
    assert turns_to_complex(t, grid) == _fraction_complex(Fraction(t, grid))
    k = data.draw(st.integers(1, 1000))
    assert turns_to_complex(t * k, grid * k) == turns_to_complex(t, grid)


def test_cocycle_violations_rejected():
    g4 = klein_four("V4_bad")
    # a single sign entry breaks the cocycle identity
    bad = Cocycle(g4, {("01", "10"): Phase(Fraction(1, 2))})
    assert bad.violations()
    with pytest.raises(InputError):
        TwistedAlgebra(g4, bad)


def _fraction_violations(cocycle):
    """Fraction arithmetic over every candidate c: the check Cocycle.violations
    replaced, kept as its oracle."""
    self = cocycle
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


def _outcome(check, cocycle):
    try:
        return check(cocycle)
    except Exception as exc:  # the oracle and the check must fail alike
        return type(exc), str(exc)


_ORACLE_GROUPOIDS = (*standard_fixtures().values(), cyclic_group(6, "Z6"),
                     disjoint_union(full_relation(3), cyclic_group(3), "R3_disj_Z3"))
# Small denominators, the snap limit, and large pairwise coprime primes whose lcm
# runs far past it.
_DENOMINATORS = (*range(2, 13), 10**12, 1_000_003, 998_244_353, 2_147_483_647, 10**9 + 7)


@given(st.sampled_from(_ORACLE_GROUPOIDS), st.booleans(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_violations_match_the_fraction_oracle(gpd, coboundary, lose_pair, data):
    """Same violations in the same order as the Fraction loop, on sparse phases
    (unreduced turns such as 3/2 included) over a zero or coboundary base; on a
    table that lost a pair, the same exception."""
    pairs = list(gpd.compose)
    if lose_pair:
        lost = data.draw(st.sampled_from(pairs))
        pairs.remove(lost)
        gpd = FiniteGroupoid(gpd.name, gpd.elements, gpd.units, gpd.source, gpd.range,
                             gpd.inverse, {k: v for k, v in gpd.compose.items() if k != lost})
    values = {}
    if coboundary:
        b = {g: Fraction(data.draw(st.integers(0, 7)), 8) for g in gpd.elements
             if not gpd.is_unit(g)}
        for g, h in pairs:
            turns = (b.get(g, 0) + b.get(h, 0) - b.get(gpd.compose[(g, h)], 0)) % 1
            if turns:
                values[(g, h)] = Phase(turns)
    for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=4)):
        d = data.draw(st.sampled_from(_DENOMINATORS))
        values[pair] = Phase(Fraction(data.draw(st.integers(-2 * d, 2 * d)), d))
    cocycle = Cocycle(gpd, values)
    assert _outcome(Cocycle.violations, cocycle) == _outcome(_fraction_violations, cocycle)
    assert cocycle.grid == math.lcm(*(p.turns.denominator for p in values.values() if p.turns))


def test_violations_take_no_fraction_sums(monkeypatch):
    """The cocycle check adds whole numbers of 1/grid turns, never Fractions."""
    z16 = cyclic_group(16, "Z16")
    b = {g: Fraction(i, 8 if i % 2 else 12) for i, g in enumerate(z16.elements) if i}
    valid = _coboundary(z16, b)
    broken = Cocycle(z16, {**valid.values,
                           (z16.elements[3], z16.elements[5]): Phase(Fraction(1, 7))})
    expected = _fraction_violations(broken)
    assert expected and not _fraction_violations(valid)
    assert valid.grid == 12 and broken.grid == 84 and Cocycle.trivial(z16).grid == 1

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the cocycle check")

    monkeypatch.setattr(Fraction, "__add__", refuse)
    monkeypatch.setattr(Fraction, "__sub__", refuse)
    assert TwistedAlgebra(z16, valid).cocycle is valid
    assert broken.violations() == expected


def test_cocycle_rejects_noncomposable_pairs(r2):
    with pytest.raises(InputError):
        Cocycle(r2.groupoid, {("(1,2)", "(1,2)"): Phase(Fraction(1, 2))})


def test_context_mismatch_rejected(r2, r3):
    with pytest.raises(InputError):
        r2.delta("(1,1)") + r3.delta("(1,1)")


def test_one_is_exact_unit(r3, rng):
    unit = r3.one()
    for _ in range(20):
        a = random_element(r3, rng)
        assert max_coeff_diff(unit * a, a) < 1e-12
        assert max_coeff_diff(a * unit, a) < 1e-12


# -- the table-driven kernel against the exact route -----------------------------------


def _coboundary(gpd, b):
    """The cocycle sigma(g, h) = b(g) + b(h) - b(gh) turns; b vanishes on units."""
    values = {}
    for (g, h), gh in gpd.compose.items():
        turns = (b.get(g, 0) + b.get(h, 0) - b.get(gh, 0)) % 1
        if turns:
            values[(g, h)] = Phase(turns)
    return Cocycle(gpd, values)


def _z6_coboundary(data):
    """Z6 twisted by the coboundary of a drawn b with values in 1/8 and 1/100 turns."""
    z6 = cyclic_group(6, "Z6_cob")
    b = {}
    for g in z6.elements:
        if not z6.is_unit(g):
            d = data.draw(st.sampled_from((8, 100)))
            b[g] = Fraction(data.draw(st.integers(0, d - 1)), d)
    return TwistedAlgebra(z6, _coboundary(z6, b), name="Z6_cob")


_COEFF = st.one_of(st.none(), st.complex_numbers(max_magnitude=5, allow_nan=False,
                                                 allow_infinity=False))


# Exact zeros as well, which the kernels skip.
_COEFF_OR_ZERO = st.one_of(st.just(0j), _COEFF)


def _draw_element(data, ctx, coeff=_COEFF):
    """An element with coefficients in groupoid element order, some absent."""
    elems = ctx.groupoid.elements
    coeffs = data.draw(st.lists(coeff, min_size=len(elems), max_size=len(elems)))
    return AlgebraElement(ctx, {g: complex(c) for g, c in zip(elems, coeffs) if c is not None})


def _exact_involution(ctx, a):
    out = {}
    for g, c in a.coeffs.items():
        ginv = ctx.groupoid.inverse[g]
        out[ginv] = _fraction_complex(-ctx.cocycle(ginv, g).turns) * c.conjugate()
    return AlgebraElement(ctx, out)


def _exact_blocks(ctx, a):
    gpd = ctx.groupoid
    blocks = {}
    for u in gpd.units:
        fiber = gpd.source_fiber(u)
        idx = {h: i for i, h in enumerate(fiber)}
        m = np.zeros((len(fiber), len(fiber)), dtype=complex)
        for h in fiber:
            for g, c in a.coeffs.items():
                if (g, h) in gpd.compose:
                    m[idx[gpd.compose[(g, h)]], idx[h]] += _sigma(ctx, g, h) * c
        blocks[u] = m
    return blocks


_CONTEXT_NAMES = (*standard_contexts(), "Z6_cob")

# Fibres of size 3 and 2, so the regular representation has blocks of two shapes.
R3_DISJ_Z2 = TwistedAlgebra(disjoint_union(full_relation(3), cyclic_group(2), "R3_disj_Z2"))


@given(st.sampled_from((*_CONTEXT_NAMES, "R3_disj_Z2")), st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_is_bit_exact_against_exact_route(contexts, name, data):
    ctx = R3_DISJ_Z2 if name == "R3_disj_Z2" else (
        _z6_coboundary(data) if name == "Z6_cob" else contexts[name])
    gpd = ctx.groupoid
    assert sum(len(row) for row in ctx._product.values()) == len(gpd.compose)
    for (h, k), hk in gpd.compose.items():
        assert ctx._product[h][k] == (hk, _sigma(ctx, h, k))
    for g, ginv in gpd.inverse.items():
        assert ctx._star[g] == (ginv, _fraction_complex(-ctx.cocycle(ginv, g).turns))
    a, b = _draw_element(data, ctx), _draw_element(data, ctx)
    assert max_coeff_diff(convolve(a, b), brute_convolution(ctx, a, b)) == 0
    assert max_coeff_diff(involution(a), _exact_involution(ctx, a)) == 0
    image = regular_representation(a)
    exact = _exact_blocks(ctx, a)
    assert image.blocks.keys() == exact.keys()
    for u, m in exact.items():  # bytes, so that the sign of each zero counts too
        assert image.blocks[u].tobytes() == m.tobytes(), (name, u)


def _norm_contexts():
    z6 = cyclic_group(6, "Z6_cob")
    b = {g: Fraction(i, 8 if i % 2 else 100) for i, g in enumerate(z6.elements) if i}
    yield from standard_contexts().values()
    yield TwistedAlgebra(z6, _coboundary(z6, b), name="Z6_cob")
    yield R3_DISJ_Z2


@pytest.mark.parametrize("ctx", list(_norm_contexts()), ids=lambda c: c.name)
def test_batched_norm_equals_the_per_block_norm(ctx, rng):
    """One SVD per block shape gives the largest per-block norm bit for bit."""
    elements = [ctx.one(), ctx.zero(), *(ctx.delta(g) for g in ctx.groupoid.elements)]
    elements += [random_element(ctx, rng) for _ in range(30)]
    for a in elements:
        image = regular_representation(a)
        per_block = max(np.linalg.norm(m, 2) for m in image.blocks.values())
        assert _bits(image.operator_norm) == _bits(float(per_block)), (ctx.name, a)
    shapes = {m.shape for m in regular_representation(ctx.one()).blocks.values()}
    assert (len(shapes) > 1) == (ctx is R3_DISJ_Z2)


def test_norm_of_the_empty_groupoid_is_zero():
    ctx = TwistedAlgebra(FiniteGroupoid("empty", [], [], {}, {}, {}, {}))
    assert regular_representation(ctx.zero()).blocks == {}
    assert cstar_norm(ctx.zero()) == 0.0
    assert reduced_norm_formula(ctx.zero()) == 0.0


def _z3_squared_twist():
    """Z3 x Z3 twisted by sigma((a,b),(c,d)) = bc/3 turns, so C*(Z3^2, sigma) is M3;
    sigma takes the value 1/3 turn, so it differs from its conjugate."""
    gpd = group("Z3sq_tw", [f"{a}{b}" for a in range(3) for b in range(3)],
                lambda x, y: f"{(int(x[0]) + int(y[0])) % 3}{(int(x[1]) + int(y[1])) % 3}")
    sigma = {(x, y): Phase(Fraction(int(x[1]) * int(y[0]), 3)) for x, y in gpd.compose}
    return TwistedAlgebra(gpd, Cocycle(gpd, sigma))


Z3SQ_TW = _z3_squared_twist()
R8 = TwistedAlgebra(full_relation(8))
_DENSE = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)


@given(st.sampled_from((*_CONTEXT_NAMES, "Z3sq_tw", "R8")), st.data())
@settings(max_examples=80, deadline=None)
def test_reduced_norm_formula_is_the_operator_norm(contexts, name, data):
    """The Gram-block supremum, from convolution and involution, against the largest
    singular value of the regular representation."""
    ctx = {"Z6_cob": _z6_coboundary, "Z3sq_tw": lambda d: Z3SQ_TW, "R8": lambda d: R8}.get(
        name, lambda d: contexts[name])(data)
    a = _draw_element(data, ctx, _DENSE)
    assert abs(reduced_norm_formula(a) - cstar_norm(a)) < 1e-9, name


def test_conjugated_representation_phases_fail_the_norm_formula(monkeypatch):
    """With the regular representation's phases conjugated, and nothing else, the
    exact norm formula no longer matches the operator norm on the Z3^2 twist."""
    assert norms_suite(_z3_squared_twist())["norm_formula_residual"] < 1e-9

    def conjugated(ctx):
        *head, sig_re, sig_im = _representation_layout(ctx)
        return (*head, sig_re, -sig_im)

    monkeypatch.setattr("twistalg.algebra._representation_layout", conjugated)
    report = norms_suite(_z3_squared_twist())
    assert not report["passed"] and report["norm_formula_residual"] > 0.5, report


@pytest.mark.parametrize("name", list(standard_contexts()))
def test_star_is_written_once(contexts, name, rng):
    ctx = contexts[name]
    for a in [ctx.one(), *(random_element(ctx, rng) for _ in range(10))]:
        star = a.star()
        assert a.star() is star
        fresh = involution(a)
        assert star.coeffs.keys() == fresh.coeffs.keys()
        assert all(_bits(star.coeffs[g]) == _bits(c) for g, c in fresh.coeffs.items())


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@given(st.sampled_from(_CONTEXT_NAMES), st.data())
@settings(max_examples=80, deadline=None)
def test_product_coeff_is_bit_exact_against_convolve(contexts, name, data):
    ctx = _z6_coboundary(data) if name == "Z6_cob" else contexts[name]
    a = _draw_element(data, ctx, _COEFF_OR_ZERO)
    b = _draw_element(data, ctx, _COEFF_OR_ZERO)
    full = convolve(a, b)
    for g in ctx.groupoid.elements:
        assert _bits(product_coeff(a, b, g)) == _bits(full.coeff(g)), (name, g)


@given(st.sampled_from(_CONTEXT_NAMES), st.data())
@settings(max_examples=60, deadline=None)
def test_hat_is_bit_exact_against_the_state_route(contexts, name, data):
    """hat(a)(g) is psi_{U_g}(E(delta_g^* a)) formed in full, bit for bit."""
    ctx = _z6_coboundary(data) if name == "Z6_cob" else contexts[name]
    a = _draw_element(data, ctx, _COEFF_OR_ZERO)
    image = hat(a)
    for g in ctx.groupoid.elements:
        old = source_state(ultrafilter_at(ctx, g), diagonal(ctx.delta(g).star() * a))
        assert (g in image.coeffs) == (old != 0)
        assert _bits(image.coeff(g)) == _bits(old), (name, g)


@given(st.sampled_from(_CONTEXT_NAMES), st.data())
@settings(max_examples=80, deadline=None)
def test_is_diagonal_agrees_with_the_support(contexts, name, data):
    ctx = _z6_coboundary(data) if name == "Z6_cob" else contexts[name]
    tol = ctx.zero_tol
    at_tolerance = st.sampled_from((complex(tol), complex(-tol), complex(0, tol),
                                    complex(tol * 1.5), complex(tol / 2, tol / 2)))
    a = _draw_element(data, ctx, st.one_of(at_tolerance, _COEFF_OR_ZERO))
    assert is_diagonal(a) == all(ctx.groupoid.is_unit(g) for g in a.support())


@given(st.sampled_from(_CONTEXT_NAMES), st.data())
@settings(max_examples=80, deadline=None)
def test_is_zero_agrees_with_the_support(contexts, name, data):
    """The context's zero_tol is the cut, and |c| == zero_tol counts as zero."""
    base = _z6_coboundary(data) if name == "Z6_cob" else contexts[name]
    t = data.draw(st.sampled_from((base.zero_tol, 1e-3, 0.5)))
    ctx = TwistedAlgebra(base.groupoid, base.cocycle, zero_tol=t)
    near = st.sampled_from((complex(t), complex(-t), complex(0, t), complex(t * 1.5),
                            complex(t / 2, t / 2), complex(np.nextafter(t, 1.0))))
    coeff = data.draw(st.sampled_from((st.one_of(near, st.just(0j), st.none()),
                                       st.one_of(near, _COEFF_OR_ZERO))))
    a = _draw_element(data, ctx, coeff)
    assert a.is_zero() == (not a.support())


def test_kernel_never_takes_exact_phases(monkeypatch, rng):
    """The coefficient kernels read only the context tables, never the cocycle or
    the conversion of its turns to complex values."""
    z6 = cyclic_group(6, "Z6_cob")
    b = {g: Fraction(i, 8 if i % 2 else 100) for i, g in enumerate(z6.elements) if i}
    twisted = TwistedAlgebra(z6, _coboundary(z6, b), name="Z6_cob")
    ctxs = [*standard_contexts().values(), twisted]
    pairs = [(random_element(ctx, rng), random_element(ctx, rng)) for ctx in ctxs]

    def refuse(*args):
        raise AssertionError("exact phase arithmetic in the coefficient kernel")

    monkeypatch.setattr(algebra, "turns_to_complex", refuse)
    monkeypatch.setattr(Cocycle, "__call__", refuse)
    monkeypatch.setattr(Cocycle, "values", property(refuse))
    for a, b in pairs:
        convolve(a, b)
        product_coeff(a, b, a.ctx.groupoid.elements[-1])
        involution(a)
        a.support()
        regular_representation(a)


def test_support_order_and_threshold(r3):
    elems = r3.groupoid.elements
    reversed_insert = AlgebraElement(r3, {g: 1 + 0j for g in reversed(elems)})
    assert reversed_insert.support() == elems
    tol = r3.zero_tol
    a = AlgebraElement(r3, {elems[2]: complex(tol), elems[1]: 0.5 + 0j, elems[0]: 2 * tol + 0j})
    assert a.support() == (elems[0], elems[1])

    def support_at(t):
        return AlgebraElement(TwistedAlgebra(r3.groupoid, zero_tol=t), a.coeffs).support()

    assert support_at(tol / 4) == (elems[0], elems[1], elems[2])
    assert support_at(0.1) == (elems[1],)
    assert support_at(0.5) == ()


def _scaling_contexts():
    """R5, the twisted Z32 and R2x4 exactly as the benchmark's scaling workload builds them."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module.scaling_contexts(seed=1)


def _kernel_contexts():
    z6 = cyclic_group(6, "Z6_cob")
    b = {g: Fraction(i, 8 if i % 2 else 100) for i, g in enumerate(z6.elements) if i}
    yield from standard_contexts().values()
    yield TwistedAlgebra(z6, _coboundary(z6, b), name="Z6_cob")
    yield R3_DISJ_Z2
    yield from _scaling_contexts()


def _unit_bisections(ctx, count):
    """The first `count` nonempty bisections, with unit coefficients."""
    patterns = itertools.islice(filter(None, iter_bisections(ctx.groupoid)), count)
    return [AlgebraElement(ctx, {g: 1 + 0j for g in p}) for p in patterns]


@pytest.mark.parametrize("ctx", list(_kernel_contexts()), ids=lambda c: c.name)
def test_support_rule_matches_compatible_on_the_sweep(ctx):
    """The Cartan sweep's compatibility, read off the supports, equals the
    algebraic compatible(m, n) on every ordered pair, the diagonal included."""
    sweep = _unit_bisections(ctx, 250)
    expect = np.array([[compatible(m, n) for n in sweep] for m in sweep], dtype=bool)
    assert np.array_equal(_sweep_compatibility(ctx, sweep), expect), ctx.name


@pytest.mark.parametrize("ctx", list(_kernel_contexts()), ids=lambda c: c.name)
def test_compatible_bisection_members_sum_to_members(ctx):
    """Why only a basis spec is swept: for the monomial, csum and normaliser kinds
    every compatible pair of unit-coefficient bisections sums to a member."""
    gpd = ctx.groupoid
    units = [list(c) for k in range(len(gpd.units) + 1)
             for c in itertools.combinations(gpd.units, k)]
    singletons = BisectionBasis(gpd, units + [[g] for g in gpd.elements])
    specs = [SemigroupSpec.monomial(ctx), SemigroupSpec.normalizers(ctx),
             csum_closure(SemigroupSpec.basis_restricted(ctx, singletons))]
    pairs = [(m, n) for m, n in itertools.combinations(_unit_bisections(ctx, 60), 2)
             if compatible(m, n)]
    for spec in specs:
        assert _bisection_pattern_pairs(ctx, spec) == [], spec.kind
        assert all(membership(spec, m + n) for m, n in pairs), spec.kind


def test_empty_sweep(rng):
    ctx = TwistedAlgebra(FiniteGroupoid("empty", [], [], {}, {}, {}, {}))
    assert _sweep_compatibility(ctx, []).shape == (0, 0)
    report = check_cartan(SemigroupSpec.monomial(ctx), rng)
    assert report.summable and report.summable_witness is None


@pytest.mark.parametrize("tol", [1.0, 3.0, 1e200])
def test_zero_tolerance_of_one_or_more_is_refused(tol):
    """Every delta_g has the coefficient 1, so such a tolerance would make it zero."""
    with pytest.raises(InputError, match="not below 1"):
        TwistedAlgebra(full_relation(2), zero_tol=tol)
    assert TwistedAlgebra(full_relation(2), zero_tol=np.nextafter(1.0, 0.0)).delta("(1,2)").support()
