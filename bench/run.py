"""twistalg benchmark: one closed-loop client running a workload's ops back to back.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from `src/`.  One
process runs the workload's ops in a fixed order with no worker threads, and
BLAS is limited to one thread.  Set-up (importing the package, generating
inputs, building contexts and, for `compare`, the reconstruction reports) is
repeated and its median reported.  Then whole passes over the ops are timed,
as many as `--seconds` allots (PASS_SLOT_S) and at least one.  Every op's
output is checked; an exception or a mismatch is a failed op and the run
goes on.  Ops that hit a known defect are reported as such and are not
counted in the `failed` field of the last line (see workloads.py).

With `--trace 0` the last line of output is a JSON object carrying the
end-to-end metrics of BENCHMARK.json.  With `--trace 1` one more pass runs
with span wrappers around the package's functions (see spans.py) and the
last line carries the per-layer metrics instead.  Results, with the
environment and the contents of BENCHMARK.json, are written to
`bench/out/`, and the spans of a traced pass as JSONL beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
BLAS_THREADS = 1
SETUP_REPEATS = 3
# A set-up longer than this runs once: compare's builds ten reconstruction
# reports (about 17 s), already a long measurement, and repeating it would
# cost more than the timed passes.
SETUP_ONCE_S = 10.0
# Seconds of --seconds allotted to one pass: about the pass time at the commit
# that defined the benchmark (2 cores, Python 3.11), with suites rounded so
# that a 20 s run makes two passes of fixtures and suites, one of scaling and
# twelve of compare.  Fixed, so that every commit times the same work and the
# percentiles keep their sample counts.
PASS_SLOT_S = {"fixtures": 10.0, "scaling": 18.0, "suites": 10.0, "compare": 1.6}
WORKLOADS = ("fixtures", "scaling", "suites", "compare")
MODULES = ("groupoid", "algebra", "semigroups", "relations", "reconstruction", "masa",
           "suites", "fileio", "cli", "seeds", "errors", "__init__")


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it;
    the median when there are fewer than twenty samples."""
    for pct in (99.9, 99, 95, 90, 75):
        if round(n * (100 - pct) / 100, 9) >= 10:
            return pct
    return 50.0


def src_lines(root: Path) -> dict[str, int]:
    src = root / "src" / "twistalg"
    counts = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")}
    out = {f"{'init' if m == '__init__' else m}.src_lines": counts.get(m, 0) for m in MODULES}
    out["src_lines"] = sum(counts.values())
    return out


def environment(root: Path, args, passes: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy prints its config instead of returning it
        blas = None
    src = root / "src" / "twistalg"
    digest = hashlib.sha256()
    for p in sorted(src.glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": args.trace,
    }


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class OpRecord:
    """Latencies, failures and verdict digests of one op over the run."""

    def __init__(self, op):
        self.op = op
        self.latencies: list[float] = []
        self.failures: list[str | None] = []
        self.digests: list[str] = []
        self.errors: list[str] = []

    def run(self, tracer=None) -> float:
        from workloads import verdict_digest

        idx = tracer.begin_op(self.op.name) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            raw, error = self.op.call(), None
        except Exception as exc:  # a failed op is recorded and the run goes on
            raw, error = None, exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(idx)
        if error is not None:
            report, failure = {"error": type(error).__name__}, type(error).__name__
            self.errors.append("".join(traceback.format_exception_only(error)).strip())
        else:
            try:
                report, failure = self.op.inspect(raw)
            except Exception as exc:
                report, failure = None, f"check_error:{type(exc).__name__}"
                self.errors.append(traceback.format_exc())
        digest = verdict_digest(report)
        if self.digests and digest != self.digests[0] and failure is None:
            failure = "nondeterministic"
        self.latencies.append(latency)
        self.failures.append(failure)
        self.digests.append(digest)
        return latency

    def unexpected(self) -> int:
        return sum(1 for f in self.failures if f is not None and f != self.op.known_defect)

    def to_dict(self) -> dict:
        return {
            "name": self.op.name,
            "latencies_s": self.latencies,
            "failures": self.failures,
            "known_defect": self.op.known_defect,
            "digest": self.digests[0] if self.digests else None,
            "errors": self.errors[:3],
        }


def run_pass(records, tracer=None) -> float:
    t0 = time.perf_counter()
    for rec in records:
        rec.run(tracer)
    return time.perf_counter() - t0


def run_workload(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import twistalg.cli  # noqa: F401  (the import is part of set-up)
    import workloads
    import_s = time.perf_counter() - t0

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS and sum(setup_times) < SETUP_ONCE_S:
            work = tmp / f"setup{len(setup_times)}"
            work.mkdir()
            t = time.perf_counter()
            ops = workloads.SETUPS[args.workload](Path("."), Path(os.path.relpath(work)), args.seed)
            setup_times.append(time.perf_counter() - t)
        records = [OpRecord(op) for op in ops]

        passes = max(1, int(args.seconds // PASS_SLOT_S[args.workload]))
        pass_times = [run_pass(records) for _ in range(passes)]
        pass_s = statistics.median(pass_times)
        latencies = [x for r in records for x in r.latencies]
        tail = tail_percentile(len(latencies))
        op_p50 = statistics.median(latencies)
        e2e = {
            "setup_s": import_s + statistics.median(setup_times),
            "pass_s": pass_s,
            "op_p50_s": op_p50,
            "op_tail_s": op_p50 if tail == 50 else _percentile(latencies, tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        layer, trace_ok = {}, True
        if args.trace:
            layer, trace_ok = traced_pass(records, pass_s, args)
            layer.update(src_lines(ROOT))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(r.failures) for r in records)
    failed_all = sum(1 for r in records for f in r.failures if f is not None)
    unexpected = sum(r.unexpected() for r in records)
    known = sorted({(r.op.name, f) for r in records for f in r.failures
                    if f is not None and f == r.op.known_defect})
    fixed = sorted(r.op.name for r in records if r.op.known_defect and not any(r.failures))
    workload_digest = hashlib.sha256("\n".join(
        f"{r.op.name}:{r.digests[0]}" for r in records).encode()).hexdigest()
    correct = unexpected == 0 and trace_ok

    chosen = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer if args.trace else e2e
    missing = [m["name"] for m in chosen if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    results = {
        "benchmark": bench,
        "environment": environment(ROOT, args, len(pass_times)),
        "setup": {"import_s": import_s, "build_s": setup_times},
        "pass_times_s": pass_times,
        "end_to_end": e2e,
        "op_tail_percentile": tail,
        "op_samples": len(latencies),
        "failed_frac": {"failed": failed_all, "attempted": attempted,
                        "value": failed_all / attempted},
        "known_defects": [{"op": op, "failure": f} for op, f in known],
        "known_defects_fixed": fixed,
        "unexpected_failures": unexpected,
        "verdict_digest": workload_digest,
        "per_layer": layer,
        "ops": [r.to_dict() for r in records],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(pass_times)}  "
          f"ops per pass {len(records)}  verdict digest {workload_digest[:16]}")
    for key, value in e2e.items():
        unit = "MB" if key == "peak_rss_mb" else "s"
        note = f"  (p{tail:g} of {len(latencies)} ops)" if key == "op_tail_s" else ""
        print(f"  {key:<12} {value:.4f} {unit}{note}")
    print(f"  failed_frac  {failed_all}/{attempted} = {failed_all / attempted:.4f}"
          f"  (known defects: {', '.join(f'{op} {f}' for op, f in known) or 'none'};"
          f" unexpected: {unexpected})")
    if args.trace:
        print(f"  trace_overhead_frac {layer['trace_overhead_frac']:.4f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": unexpected,
                      "metrics": metrics}))
    return 0


def traced_pass(records, untraced_pass_s: float, args) -> tuple[dict, bool]:
    """One pass under the span wrappers; per-layer metrics and a consistency flag.

    The pass's ops are checked like any other, so a report that tracing
    changed fails as nondeterministic.
    """
    from spans import LAYERS, Tracer

    tracer = Tracer()
    with tracer.installed():
        origin = time.perf_counter()
        traced_s = run_pass(records, tracer)
    layer = tracer.metrics(passes=1)
    layer["trace_overhead_frac"] = traced_s / untraced_pass_s - 1
    layer["hook_errors"] = tracer.counts["hook_errors"]
    self_total = sum(layer[f"{name}.self_s"] for name in LAYERS)
    tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", origin)
    # Layer self times partition time inside the package, which lies inside the pass.
    return layer, self_total <= traced_s


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/twistalg/__init__.py", "fixtures/r2.json")
               if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"not a twistalg checkout: missing {', '.join(missing)}\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    # Before numpy is imported: BLAS may use at most nproc threads; one keeps
    # the single-client loop free of BLAS thread scheduling.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
