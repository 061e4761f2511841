"""Batch command line interface.

Commands: validate, reconstruct, compare, suite.  Exit codes are disjoint
and exhaustive: 0 pass, 1 fail with witness, 2 input error, 3 inconclusive
(isomorphism search budget exhausted), 4 consistency error (two independent
routes to one value disagreed, as a loose --tol can make them).  Reports
embed the tool version, seed, tolerance and input content hash, and
identical (input, config) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .algebra import Cocycle, TwistedAlgebra, twists_isomorphic
from .errors import ConsistencyError, InputError, NotCartanError
from .fileio import (
    cocycle_from_dict,
    content_hash,
    dumps,
    groupoid_from_dict,
    load_basis,
    load_groupoid_file,
)
from .groupoid import table_violations, validate_groupoid
from .reconstruction import reconstruct
from .semigroups import SemigroupSpec
from .suites import (
    cartan_suite,
    expectation_suite,
    masa_suite,
    norms_suite,
    relations_suite,
    states_suite,
)

VERSION = "0.1.0"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONSISTENCY = 4


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = 1e-9
    seed: int = 42
    iso_budget: int = 10**6
    semigroup: str = "monomial"


def _envelope(paths: list[str], config: RunConfig) -> dict:
    doc = {"tool": {"name": "twistalg", "version": VERSION}, "config": asdict(config)}
    inputs = [{"name": Path(p).name, "sha256": content_hash(p)} for p in paths]
    if len(inputs) == 1:
        doc["input"] = inputs[0]
    else:
        doc["inputs"] = inputs
    return doc


def _load_context(path: str, config: RunConfig):
    gpd, cocycle = load_groupoid_file(path)
    report = validate_groupoid(gpd)
    if not report.ok:
        raise InputError("invalid groupoid: " + report.violations[0].message)
    if not gpd.elements:
        raise InputError("groupoid has no elements")
    return TwistedAlgebra(gpd, cocycle, zero_tol=config.tolerance, name=gpd.name)


def _resolve_spec(ctx, config: RunConfig) -> SemigroupSpec:
    if config.semigroup == "monomial":
        return SemigroupSpec.monomial(ctx)
    if config.semigroup.startswith("basis:"):
        return SemigroupSpec.basis_restricted(ctx, load_basis(config.semigroup[6:], ctx))
    raise InputError(f"unknown --semigroup value {config.semigroup!r}")


# -- commands: each returns (report body, exit code) and leaves errors to main -------


def cmd_validate(path: str, config: RunConfig) -> tuple[dict, int]:
    gpd, cocycle = load_groupoid_file(path)
    report = validate_groupoid(gpd)
    cocycle_violations = cocycle.violations() if report.ok else []
    ok = report.ok and not cocycle_violations
    body = {
        "groupoid": report.to_dict(),
        "cocycle": {"ok": not cocycle_violations, "violations": cocycle_violations},
        "passed": ok,
    }
    return body, EXIT_PASS if ok else EXIT_FAIL


def cmd_reconstruct(path: str, config: RunConfig) -> tuple[dict, int]:
    ctx = _load_context(path, config)
    report = reconstruct(ctx, _resolve_spec(ctx, config), seed=config.seed,
                         iso_budget=config.iso_budget)
    if report.isomorphism["status"] == "inconclusive":
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS if report.passed else EXIT_FAIL
    return {"reconstruction": report.to_dict()}, code


def _load_report(path: str, name: str) -> Cocycle:
    """The recovered cocycle of a report, on its rebuilt groupoid with checked tables."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    rec = doc.get("reconstruction") if isinstance(doc, dict) else None
    if not isinstance(rec, dict) or "rebuilt_groupoid" not in rec or "recovered_cocycle" not in rec:
        raise InputError(f"{path} is not a reconstruction report with a rebuilt groupoid")
    gpd = groupoid_from_dict(rec["rebuilt_groupoid"], name)
    bad = table_violations(gpd)
    if bad:
        raise InputError(f"{path}: invalid rebuilt groupoid: {bad[0].message}")
    return cocycle_from_dict(gpd, rec["recovered_cocycle"])


def cmd_compare(path_a: str, path_b: str, config: RunConfig) -> tuple[dict, int]:
    iso = twists_isomorphic(_load_report(path_a, "A"), _load_report(path_b, "B"),
                            config.iso_budget)
    if iso.status == "inconclusive":
        result, code = {"status": "inconclusive"}, EXIT_INCONCLUSIVE
    elif iso.found:
        result = {"status": "isomorphic", "mapping": dict(sorted(iso.mapping.items()))}
        code = EXIT_PASS
    else:
        result = {"status": "not_isomorphic", "groupoids_isomorphic": iso.rejected > 0}
        code = EXIT_FAIL
    result["nodes_visited"] = iso.nodes_visited
    return {"result": result}, code


# Runners in `--suite all` order; each looks its suite function up by name when called.
SUITES = {
    "cartan": lambda ctx, seed, spec: cartan_suite(ctx, seed, spec),
    "relations": lambda ctx, seed, spec: relations_suite(ctx, seed),
    "states": lambda ctx, seed, spec: states_suite(ctx, seed),
    "masa": lambda ctx, seed, spec: masa_suite(ctx, seed),
    "expectation": lambda ctx, seed, spec: expectation_suite(ctx, seed),
    "norms": lambda ctx, seed, spec: norms_suite(ctx, seed),
}
SUITE_NAMES = (*SUITES, "all")


def _run_suites(names: list[str], run) -> dict:
    """{name: run(name)} over this process and forked children, one per usable CPU.

    Each process claims the next suite by reading a byte from a shared pipe and
    stops at its first failure; a child pickles {index: result or exception}
    back and ends in os._exit.  Suites whose results did not come back run
    here, and the first failure in order is raised, as in a serial loop.
    """
    # sched_getaffinity exists only where fork does; elsewhere every suite runs here.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    claims, feed = os.pipe()
    os.write(feed, bytes(range(len(names))))
    os.close(feed)
    claimed = (byte[0] for byte in iter(lambda: os.read(claims, 1), b""))

    def work(indices) -> dict:
        done = {}
        for i in indices:
            try:
                done[i] = run(names[i])
            except Exception as exc:
                done[i] = exc
                break  # no later suite can change the outcome
        return done

    children, outcomes = [], {}
    try:
        for _ in range(min(len(names), cpus) - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the suites left run here
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                try:
                    with os.fdopen(write_end, "wb") as out:
                        pickle.dump(work(claimed), out)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        outcomes.update(work(claimed))
        for _, inp in children:
            try:
                outcomes.update(pickle.loads(inp.read()))
            except Exception:  # the child died; its suites run again below
                pass
    finally:
        os.close(claims)
        for pid, inp in children:
            inp.close()
            os.waitpid(pid, 0)
    for i in range(len(names)):
        if i not in outcomes:
            outcomes.update(work([i]))
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
    return {name: outcomes[i] for i, name in enumerate(names)}


def cmd_suite(path: str, config: RunConfig, suite: str) -> tuple[dict, int]:
    ctx = _load_context(path, config)
    spec = _resolve_spec(ctx, config)
    selected = list(SUITES) if suite == "all" else [suite]
    results = _run_suites(selected, lambda name: SUITES[name](ctx, config.seed, spec))
    passed = all(r["passed"] for r in results.values())
    return {"suites": results, "passed": passed}, EXIT_PASS if passed else EXIT_FAIL


# -- entry point ---------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    common.add_argument("--seed", type=int, default=42, help="root seed for all sampling")
    common.add_argument("--iso-budget", type=int, default=10**6,
                        help="node budget for isomorphism search")
    common.add_argument("--out", default=None, help="write the report to this path")

    parser = argparse.ArgumentParser(
        prog="twistalg",
        description="Twisted groupoid algebras: validation, reconstruction, property suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", parents=[common],
                           help="check groupoid and cocycle axioms")
    p_val.add_argument("path")

    p_rec = sub.add_parser("reconstruct", parents=[common],
                           help="run the full reconstruction pipeline")
    p_rec.add_argument("path")
    p_rec.add_argument("--semigroup", default="monomial",
                       help="monomial or basis:<file>")

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="compare two reconstruction reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")

    p_suite = sub.add_parser("suite", parents=[common], help="run property suites")
    p_suite.add_argument("path")
    p_suite.add_argument("--suite", default="all", help="|".join(SUITE_NAMES))
    p_suite.add_argument("--semigroup", default="monomial")
    return parser


def main(argv=None) -> int:
    """Run one command; the only place where errors become exit codes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 2 for a usage error, 0 for --help
        return exc.code
    config = RunConfig(
        tolerance=args.tol,
        seed=args.seed,
        iso_budget=args.iso_budget,
        semigroup=getattr(args, "semigroup", "monomial"),
    )
    if not (math.isfinite(config.tolerance) and config.tolerance > 0):
        sys.stderr.write("tolerance must be a finite positive number\n")
        return EXIT_INPUT
    if args.command == "suite" and args.suite not in SUITE_NAMES:
        sys.stderr.write(f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}\n")
        return EXIT_INPUT
    paths = [args.report_a, args.report_b] if args.command == "compare" else [args.path]
    run = {
        "validate": lambda: cmd_validate(args.path, config),
        "reconstruct": lambda: cmd_reconstruct(args.path, config),
        "compare": lambda: cmd_compare(args.report_a, args.report_b, config),
        "suite": lambda: cmd_suite(args.path, config, args.suite),
    }[args.command]
    try:
        doc = _envelope(paths, config)
        try:
            body, code = run()
        except json.JSONDecodeError as exc:
            body = {"error": {"kind": "parse", "message": str(exc),
                              "line": exc.lineno, "column": exc.colno}}
            code = EXIT_INPUT
        except NotCartanError as exc:
            body = {"error": {"kind": "not-cartan", "failures": list(exc.failures)}}
            code = EXIT_FAIL
        except (InputError, UnicodeDecodeError) as exc:
            body, code = {"error": {"kind": "input", "message": str(exc)}}, EXIT_INPUT
        except ConsistencyError as exc:
            body, code = {"error": {"kind": "consistency", "message": str(exc)}}, EXIT_CONSISTENCY
        doc.update(body)
        if args.out:
            Path(args.out).write_text(dumps(doc), encoding="utf-8")
        else:
            sys.stdout.write(dumps(doc))
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
