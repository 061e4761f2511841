"""The benchmark's tracer finds twistalg functions by name; a rename would
silently zero the per-layer metric that names it.  Every name it hooks must
still resolve to a function of its twistalg module."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defined_in(module, dotted: str) -> bool:
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_trace_hooks_resolve():
    spans = _load_spans()
    modules = [importlib.import_module(f"twistalg.{layer}") for layer in spans.LAYERS]
    by_name = {f for fs in spans.KEYED.values() for f in fs} | set(spans._PRE) | set(spans._POST)
    missing = [f for f in sorted(by_name) if not any(_defined_in(m, f) for m in modules)]
    for name in sorted(spans.FOLDED):
        layer, _, attr = name.partition(".")
        if not _defined_in(importlib.import_module(f"twistalg.{layer}"), attr):
            missing.append(name)
    assert not missing
