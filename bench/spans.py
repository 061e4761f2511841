"""Span tracing of twistalg from outside the package.

`Tracer.installed()` rebinds every public function of each twistalg layer
module, in every twistalg module namespace that imported it, to a wrapper
that records a span: name, start, end, parent span and the id of the
benchmark op it belongs to.  `AlgebraElement.support` is wrapped as well.
Leaving the context restores every original binding.  Element-level calls
(FOLDED) are aggregated per parent span instead of recorded one by one.
Spans stay in memory in flat arrays and are written as JSONL when the run
ends; per-layer self times and the per-layer metrics are computed from them.
A layer's self time includes the wrappers' own cost, which the benchmark
reports as trace_overhead_frac.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The package modules that do measurable work, in the order they are reported.
LAYERS = ("groupoid", "algebra", "semigroups", "relations", "reconstruction",
          "masa", "suites", "fileio", "cli")

# Metric key -> the functions whose time and calls it reports, found by name in
# whichever twistalg module defines them.  Keys name the layer they report on.
KEYED = {
    "groupoid.iso": ("groupoids_isomorphic", "iter_isomorphisms"),
    "groupoid.all_bisections": ("all_bisections",),
    "groupoid.validate": ("validate_groupoid",),
    "algebra.convolve": ("convolve",),
    "algebra.involution": ("involution",),
    "algebra.support": ("AlgebraElement.support",),
    "algebra.regrep": ("regular_representation",),
    "semigroups.check_cartan": ("check_cartan",),
    "semigroups.membership": ("membership",),
    "semigroups.compatible": ("compatible",),
    "semigroups.sample_members": ("sample_members",),
    "semigroups.sweep": ("_bisection_pattern_pairs",),
    "relations.dominates": ("dominates",),
    "relations.certify": ("certify_domination",),
    "relations.ball_witness": ("ball_witness",),
    "relations.predomain": ("predomain_interpolant",),
    "reconstruction.reconstruct": ("reconstruct",),
    "reconstruction.rebuild": ("rebuild_groupoid",),
    "reconstruction.recover_cocycle": ("recover_cocycle",),
    "reconstruction.product_criterion": ("product_criterion_report",),
    "reconstruction.unit_space": ("unit_space_report",),
    "reconstruction.ultra_primeness": ("ultra_primeness_report",),
    "reconstruction.domination_inclusion": ("domination_inclusion_report",),
    "reconstruction.filter_axioms": ("filter_axiom_report",),
    "reconstruction.states": ("states_report",),
    "reconstruction.twist": ("twist_report",),
    "reconstruction.hat_report": ("hat_report",),
    "reconstruction.hat": ("hat",),
    "masa.commutant": ("commutant_basis",),
    "masa.is_masa": ("is_masa",),
    "masa.criterion": ("cartan_criterion",),
    "masa.forward": ("masa_implies_normalisers",),
    "suites.cartan": ("cartan_suite",),
    "suites.relations": ("relations_suite",),
    "suites.states": ("states_suite",),
    "suites.masa": ("masa_suite",),
    "suites.expectation": ("expectation_suite",),
    "suites.norms": ("norms_suite",),
    "fileio.load": ("load_groupoid_file", "load_basis", "load_element", "groupoid_from_dict",
                    "_load_report"),
    "fileio.dumps": ("dumps",),
}
# The summable-image check is inline in reconstruct, so it has no function of
# its own: its span opens at its first call, csum_closure, and closes when
# reconstruct returns.
SUMMABLE_PHASE = "reconstruction.summable_image"
PHASES = ("rebuild", "recover_cocycle", "product_criterion", "unit_space", "ultra_primeness",
          "domination_inclusion", "filter_axioms", "states", "twist", "hat_report",
          "summable_image")
SUITES = ("cartan", "relations", "states", "masa", "expectation", "norms")
OP_SPAN = "bench.op"

# Element-level operations, called up to millions of times per pass.  Their
# calls, and every call beneath them, are folded: one record per (nearest
# recorded span, function, top-level, outermost) holds the call count, total
# time and self time, in place of a span per call.
FOLDED = frozenset({
    "algebra.convolve", "algebra.involution", "algebra.diagonal", "algebra.is_diagonal",
    "algebra.is_monomial", "algebra.diagonal_function", "algebra.max_coeff_diff",
    "algebra.regular_representation", "algebra.cstar_norm", "algebra.is_positive",
    "algebra.AlgebraElement.support",
    "groupoid.is_bisection", "groupoid.subset_product", "groupoid.subset_inverse",
    "semigroups.random_coeff", "semigroups.random_monomial", "semigroups.random_diagonal",
    "semigroups.random_element", "semigroups.membership", "semigroups.compatible",
    "relations.dominates", "relations.certify_domination", "relations.restriction_le",
    "relations.restriction_witness", "relations.general_restriction_le",
    "reconstruction.ultrafilter_at", "reconstruction.ultrafilter_product",
    "reconstruction.basic_set", "reconstruction.source_state", "reconstruction.range_state",
    "reconstruction.magnitude", "reconstruction.angle", "reconstruction.equivalent_in",
    "reconstruction.twist_point", "reconstruction.hat",
})


class _Fold:
    """An open folded call: function, start, time of its children, and the
    nearest recorded span above it."""

    __slots__ = ("nid", "start", "child", "span", "top", "outer")


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer: list[int] = []
        self._name_key: list[int] = []
        self._name_folded: list[bool] = []
        self.keys = list(KEYED) + [SUMMABLE_PHASE]
        self._key_ids = {k: i for i, k in enumerate(self.keys)}
        self._key_of_function = {f: k for k, fs in KEYED.items() for f in fs}
        self._depth = [0] * len(self.keys)
        # Recorded spans, one entry per span in each array.
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        # (span, name, top-level, outermost) -> [calls, total time, self time]
        self.folded: dict[tuple[int, int, bool, bool], list] = {}
        # Open calls: span indices, and _Fold entries above the innermost span.
        self.stack: list = []
        self._folding = 0
        self.counts: Counter = Counter()
        self.op_names: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------------

    def intern(self, name: str, key: str | None = None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            layer = name.partition(".")[0]
            self._name_layer.append(LAYERS.index(layer) if layer in LAYERS else len(LAYERS))
            self._name_key.append(self._key_ids[key] if key is not None else -1)
            self._name_folded.append(name in FOLDED)
        return nid

    def open(self, nid: int):
        """Open a call of function `nid`; returns the token to close it with."""
        k = self._name_key[nid]
        outer = k >= 0 and self._depth[k] == 0
        if k >= 0:
            self._depth[k] += 1
        stack = self.stack
        if self._folding or self._name_folded[nid]:
            fold = _Fold()
            fold.nid, fold.child, fold.outer = nid, 0.0, outer
            above = stack[-1] if stack else -1
            fold.top = not isinstance(above, _Fold)
            fold.span = above if fold.top else above.span
            self._folding += 1
            stack.append(fold)
            fold.start = perf_counter()
            return fold
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(len(self.op_names) - 1)
        self.outer.append(outer)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, token) -> None:
        t = perf_counter()
        stack = self.stack
        # A phase span opened inside this one ends with it.
        while stack[-1] is not token:
            self._end(stack.pop(), t)
        stack.pop()
        self._end(token, t)

    def _end(self, token, t: float) -> None:
        if isinstance(token, _Fold):
            nid = token.nid
            dur = t - token.start
            if not token.top:
                self.stack[-1].child += dur
            self._folding -= 1
            rec = self.folded.get((token.span, nid, token.top, token.outer))
            if rec is None:
                rec = self.folded[(token.span, nid, token.top, token.outer)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - token.child
        else:
            nid = self.name[token]
            self.end[token] = t
        k = self._name_key[nid]
        if k >= 0:
            self._depth[k] -= 1

    def parent_name(self) -> str | None:
        if not self.stack:
            return None
        top = self.stack[-1]
        return self.names[top.nid if isinstance(top, _Fold) else self.name[top]]

    def begin_op(self, name: str) -> int:
        self.op_names.append(name)
        return self.open(self.intern(OP_SPAN))

    # -- wrappers -----------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        function = name.partition(".")[2]
        nid = self.intern(name, self._key_of_function.get(function))
        post = _POST.get(function)
        pre = _PRE.get(function)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            return _wrap_generator(tracer, fn, nid, post)

        def wrapper(*args, **kwargs):
            if pre is not None:
                _hook(pre, tracer, args)
            token = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if post is not None:
                _hook(post, tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the package's functions for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "twistalg" or n.startswith("twistalg.")) and m is not None]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in self._key_of_function)):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._rebind(module, attr, wrappers[value])
            cls = sys.modules["twistalg.algebra"].AlgebraElement
            self._rebind(cls, "support", self._wrap(cls.__dict__["support"],
                                                    "algebra.AlgebraElement.support"))
            yield self
        finally:
            while self._restore:
                obj, attr, original = self._restore.pop()
                setattr(obj, attr, original)

    def _rebind(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    # -- results -------------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Recorded spans as arrays, and folded records as arrays prefixed fold_."""
        keys = list(self.folded)
        values = list(self.folded.values())
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "fold_span": np.array([k[0] for k in keys], dtype=np.int64),
            "fold_name": np.array([k[1] for k in keys], dtype=np.int64),
            "fold_top": np.array([k[2] for k in keys], dtype=bool),
            "fold_outer": np.array([k[3] for k in keys], dtype=bool),
            "fold_calls": np.array([v[0] for v in values], dtype=np.int64),
            "fold_total": np.array([v[1] for v in values], dtype=np.float64),
            "fold_self": np.array([v[2] for v in values], dtype=np.float64),
        }

    def self_times(self, a=None) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per recorded span: the duration minus the time
        of its direct children, recorded or folded."""
        a = self.arrays() if a is None else a
        dur = a["end"] - a["start"]
        n = len(dur)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        top = a["fold_top"] & (a["fold_span"] >= 0)
        child += np.bincount(a["fold_span"][top], weights=a["fold_total"][top], minlength=n)
        return dur, dur - child

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics over every span recorded so far."""
        a = self.arrays()
        dur, own = self.self_times(a)
        layer_of = np.asarray(self._name_layer, dtype=np.int64)
        key_of = np.asarray(self._name_key, dtype=np.int64)
        nl, nk = len(LAYERS) + 1, len(self.keys)
        layer_self = (np.bincount(layer_of[a["name"]], weights=own, minlength=nl)
                      + np.bincount(layer_of[a["fold_name"]], weights=a["fold_self"], minlength=nl))
        key, fkey = key_of[a["name"]], key_of[a["fold_name"]]
        outer = (key >= 0) & a["outer"]
        fouter = (fkey >= 0) & a["fold_outer"]
        key_s = (np.bincount(key[outer], weights=dur[outer], minlength=nk)
                 + np.bincount(fkey[fouter], weights=a["fold_total"][fouter], minlength=nk))
        key_calls = (np.bincount(key[key >= 0], minlength=nk)
                     + np.bincount(fkey[fkey >= 0], weights=a["fold_calls"][fkey >= 0], minlength=nk))
        c = self.counts

        def s(k):
            return float(key_s[self._key_ids[k]]) / passes

        def calls(k):
            return float(key_calls[self._key_ids[k]]) / passes

        def frac(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {f"{layer_name}.self_s": float(layer_self[i]) / passes
               for i, layer_name in enumerate(LAYERS)}
        out.update({
            "groupoid.iso_nodes": c["iso_nodes"] / passes,
            "groupoid.iso_s": s("groupoid.iso"),
            "groupoid.bisections": c["bisections"] / passes,
            "groupoid.all_bisections_s": s("groupoid.all_bisections"),
            "groupoid.validate_s": s("groupoid.validate"),
            "algebra.convolve_calls": calls("algebra.convolve"),
            "algebra.convolve_terms": c["convolve_terms"] / passes,
            "algebra.convolve_hit_frac": frac("convolve_hits", "convolve_terms"),
            "algebra.convolve_s": s("algebra.convolve"),
            "algebra.involution_calls": calls("algebra.involution"),
            "algebra.involution_s": s("algebra.involution"),
            "algebra.support_calls": calls("algebra.support"),
            "algebra.support_s": s("algebra.support"),
            "algebra.regrep_calls": calls("algebra.regrep"),
            "algebra.regrep_s": s("algebra.regrep"),
            "algebra.regrep_cache_hit_frac": frac("regrep_hits", "regrep_calls"),
            "semigroups.check_cartan_s": s("semigroups.check_cartan"),
            "semigroups.membership_calls": calls("semigroups.membership"),
            "semigroups.compatible_calls": calls("semigroups.compatible"),
            "semigroups.compatible_true_frac": frac("compatible_true", "compatible_calls"),
            "semigroups.sample_accept_frac": frac("sample_accepts", "sample_attempts"),
            "semigroups.sweep_used_frac": frac("sweep_used", "sweep_enumerated"),
            "relations.dominates_calls": calls("relations.dominates"),
            "relations.dominates_s": s("relations.dominates"),
            "relations.certify_calls": calls("relations.certify"),
            "relations.ball_witness_s": s("relations.ball_witness"),
            "relations.predomain_s": s("relations.predomain"),
            "reconstruction.hat_calls": calls("reconstruction.hat"),
            "masa.commutant_s": s("masa.commutant"),
            "masa.is_masa_calls": calls("masa.is_masa"),
            "masa.criterion_s": s("masa.criterion"),
            "masa.forward_s": s("masa.forward"),
            "fileio.load_s": s("fileio.load"),
            "fileio.dumps_s": s("fileio.dumps"),
            "fileio.report_bytes": c["report_bytes"] / passes,
        })
        out.update({f"reconstruction.{p}_s": s(f"reconstruction.{p}") for p in PHASES})
        out.update({f"suites.{n}_s": s(f"suites.{n}") for n in SUITES})
        return out

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per recorded span, then one per folded record.

        Span times are in seconds from `origin`; a folded record names the span
        it sits under and carries its call count, total and self time.
        """
        a = self.arrays()
        dur, own = self.self_times(a)
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(dur)):
                op = int(a["op"][i])
                f.write(json.dumps({
                    "id": i,
                    "op": op,
                    "op_name": self.op_names[op] if op >= 0 else None,
                    "name": self.names[a["name"][i]],
                    "start": round(float(a["start"][i]) - origin, 9),
                    "end": round(float(a["end"][i]) - origin, 9),
                    "parent": int(a["parent"][i]),
                    "self_s": round(float(own[i]), 9),
                }, separators=(",", ":")) + "\n")
            for (span, nid, top, outer), (calls, total, self_s) in self.folded.items():
                f.write(json.dumps({
                    "folded": True,
                    "parent": span,
                    "name": self.names[nid],
                    "top_level": top,
                    "calls": calls,
                    "total_s": round(total, 9),
                    "self_s": round(self_s, 9),
                }, separators=(",", ":")) + "\n")


def _wrap_generator(tracer: Tracer, fn, nid: int, post):
    """A span per resume, so the consumer's work between items is not counted."""

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        try:
            while True:
                token = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(token)
                yield item
        finally:
            it.close()
            if post is not None:
                _hook(post, tracer, args, None)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


# -- counters taken at the wrappers ---------------------------------------------------------


def _hook(hook, tracer, *args):
    """Run a counter hook; one that no longer fits the package's signatures is
    counted, not allowed to fail the op."""
    try:
        hook(tracer, *args)
    except Exception:
        tracer.counts["hook_errors"] += 1


def _post_convolve(tracer, args, result):
    a, b = args[0], args[1]
    gpd = a.ctx.groupoid
    by_range = Counter(gpd.range[k] for k, c in b.coeffs.items() if c != 0)
    nonzero_b = sum(by_range.values())
    terms = hits = 0
    for h, c in a.coeffs.items():
        if c != 0:
            terms += nonzero_b
            hits += by_range[gpd.source[h]]
    tracer.counts["convolve_terms"] += terms
    tracer.counts["convolve_hits"] += hits


def _pre_regrep(tracer, args):
    tracer.counts["regrep_calls"] += 1
    if getattr(args[0], "_blocks", None) is not None:
        tracer.counts["regrep_hits"] += 1


def _post_membership(tracer, args, result):
    if tracer.parent_name() == "semigroups.sample_members":
        tracer.counts["sample_attempts"] += 1
        tracer.counts["sample_accepts"] += bool(result)


def _post_compatible(tracer, args, result):
    tracer.counts["compatible_calls"] += 1
    tracer.counts["compatible_true"] += bool(result)


def _post_all_bisections(tracer, args, result):
    tracer.counts["bisections"] += len(result)
    if tracer.parent_name() == "semigroups._bisection_pattern_pairs":
        tracer.counts["sweep_enumerated"] += len(result)


def _post_sweep(tracer, args, result):
    tracer.counts["sweep_used"] += len(result)


def _post_dumps(tracer, args, result):
    tracer.counts["report_bytes"] += len(result.encode("utf-8"))


def _post_iso(tracer, args, result):
    # iter_isomorphisms(a, b, budget) spends one unit of a fresh budget per
    # search node, in groupoids_isomorphic and in the compare command alike.
    budget = args[2] if len(args) > 2 else None
    tracer.counts["iso_nodes"] += getattr(budget, "used", 0)


def _pre_csum_closure(tracer, args):
    if tracer.parent_name() == "reconstruction.reconstruct":
        tracer.open(tracer.intern(SUMMABLE_PHASE, SUMMABLE_PHASE))


# Keyed by function name.
_PRE = {"regular_representation": _pre_regrep, "csum_closure": _pre_csum_closure}
_POST = {
    "convolve": _post_convolve,
    "membership": _post_membership,
    "compatible": _post_compatible,
    "all_bisections": _post_all_bisections,
    "_bisection_pattern_pairs": _post_sweep,
    "dumps": _post_dumps,
    "iter_isomorphisms": _post_iso,
}
