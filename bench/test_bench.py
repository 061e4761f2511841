"""Tests of the benchmark's own helpers: python3 -m pytest bench"""

import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twistalg.algebra import TwistedAlgebra  # noqa: E402
from twistalg.groupoid import cyclic_group, full_relation, validate_groupoid  # noqa: E402
from twistalg import reconstruction  # noqa: E402


def _contexts():
    yield from workloads.scaling_contexts(seed=7)
    yield from workloads.compare_contexts().values()


@pytest.mark.parametrize("ctx", list(_contexts()), ids=lambda c: c.name)
def test_generated_inputs_are_valid(ctx):
    assert validate_groupoid(ctx.groupoid).ok
    assert ctx.cocycle.violations() == []


def test_twisted_inputs_are_twisted_and_seeded():
    z32 = [c for c in workloads.scaling_contexts(seed=7) if c.name == "Z32"][0]
    again = [c for c in workloads.scaling_contexts(seed=7) if c.name == "Z32"][0]
    other = [c for c in workloads.scaling_contexts(seed=8) if c.name == "Z32"][0]
    assert z32.cocycle.values
    assert z32.cocycle.to_dict() == again.cocycle.to_dict() != other.cocycle.to_dict()
    assert all(p.turns.denominator in (2, 4, 8) for p in z32.cocycle.values.values())
    tw = workloads.compare_contexts()["Z4xZ4_tw"]
    assert {p.turns for p in tw.cocycle.values.values()} == {Fraction(1, 4), Fraction(1, 2),
                                                            Fraction(3, 4)}


def test_coboundary_of_denominator_100():
    z3 = cyclic_group(3)
    cocycle = workloads.coboundary(z3, {"1": Fraction(1, 100)})
    assert cocycle.violations() == []
    assert cocycle("1", "1").turns == Fraction(2, 100)


def test_disjoint_copies_have_distinct_ids():
    union = workloads.disjoint_copies(lambda n: full_relation(2, n), "ABCD", "R2x4")
    assert len(union.elements) == len(set(union.elements)) == 16
    assert len(union.units) == 8
    assert validate_groupoid(union).ok


def _namespaces():
    mods = [m for n, m in sys.modules.items() if n == "twistalg" or n.startswith("twistalg.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if isinstance(v, types.FunctionType)}
    cls = sys.modules["twistalg.algebra"].AlgebraElement
    snap[("AlgebraElement", "support")] = cls.__dict__["support"]
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_trace_wrappers_restore_every_binding():
    before = _namespaces()
    tracer = spans.Tracer()
    with tracer.installed():
        during = _namespaces()
        ctx = TwistedAlgebra(cyclic_group(2))
        op = tracer.begin_op("z2")
        report = reconstruction.reconstruct(ctx, seed=1)
        tracer.close(op)
    assert _same(before, _namespaces())
    wrapped = [k for k in before if before[k] is not during[k]]
    assert ("twistalg.algebra", "convolve") in wrapped
    assert ("twistalg.reconstruction", "dominates") in wrapped
    assert ("AlgebraElement", "support") in wrapped
    assert report.passed


def test_trace_wrappers_restore_after_an_exception():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("stop")
    assert _same(before, _namespaces())


def test_layer_self_times_fit_inside_the_op():
    tracer = spans.Tracer()
    ctx = TwistedAlgebra(full_relation(2))
    with tracer.installed():
        op = tracer.begin_op("r2")
        reconstruction.reconstruct(ctx, seed=3)
        tracer.close(op)
    dur, own = tracer.self_times()
    assert (own >= -1e-9).all()
    layers = tracer.metrics(passes=1)
    total = sum(layers[f"{name}.self_s"] for name in spans.LAYERS)
    assert 0 < total <= dur[0]
    assert np.isclose(own.sum() + tracer.arrays()["fold_self"].sum(), dur[0])
    for phase in spans.PHASES:
        assert layers[f"reconstruction.{phase}_s"] > 0, phase
    assert layers["groupoid.iso_nodes"] == 4
    assert layers["algebra.convolve_calls"] > 0
    assert 0 < layers["algebra.convolve_hit_frac"] <= 1


def test_check_reconstruction_catches_a_wrong_cocycle():
    ctx = TwistedAlgebra(cyclic_group(2))
    doc = reconstruction.reconstruct(ctx, seed=1).to_dict()
    tables = ctx.groupoid.to_dict()
    assert workloads.check_reconstruction(doc, tables, {}) is None
    assert workloads.check_reconstruction(doc, tables, {"1|1": Fraction(1, 2)}) \
        == "cocycle_mismatch"


def test_verdict_digest_ignores_floats_only():
    a = {"passed": True, "residual": 1e-12, "nested": [{"gap": 0.1, "count": 3}]}
    b = {"passed": True, "residual": 3e-13, "nested": [{"gap": 0.2, "count": 3}]}
    c = {"passed": True, "residual": 3e-13, "nested": [{"gap": 0.2, "count": 4}]}
    assert workloads.verdict_digest(a) == workloads.verdict_digest(b)
    assert workloads.verdict_digest(a) != workloads.verdict_digest(c)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(12) == 50
    assert run.tail_percentile(24) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(10_000) == 99.9
    assert run._percentile([3, 1, 2], 100) == 3
    assert run._percentile([3, 1, 2, 4], 50) == 2
