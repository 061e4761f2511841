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
import functools
import hashlib
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .algebra import DEFAULT_ZERO_TOL, TwistedAlgebra
from .errors import ConsistencyError, InputError, NotCartanError
from .fileio import _load_report, dumps, load_basis, load_groupoid_file, read_input
from .groupoid import DEFAULT_ISO_BUDGET, validate_groupoid
from .reconstruction import reconstruct
from .seeds import DEFAULT_SEED
from .semigroups import SemigroupSpec
from .suites import SUITES
from .twists import twists_isomorphic

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONSISTENCY = 4


@dataclass(frozen=True)
class RunConfig:
    tolerance: float
    seed: int
    iso_budget: int
    semigroup: str


def _basis_path(config: RunConfig) -> str | None:
    """The basis file of `--semigroup basis:FILE`, None for any other value."""
    return config.semigroup[6:] if config.semigroup.startswith("basis:") else None


def _envelope(paths: list[str], data: list[bytes], config: RunConfig) -> dict:
    doc = {"tool": {"name": "twistalg", "version": __version__}, "config": asdict(config)}
    inputs = [{"name": Path(p).name, "sha256": hashlib.sha256(d).hexdigest()}
              for p, d in zip(paths, data)]
    doc.update({"input": inputs[0]} if len(inputs) == 1 else {"inputs": inputs})
    return doc


def _load_context(data: bytes, config: RunConfig):
    gpd, cocycle = load_groupoid_file(data)
    report = validate_groupoid(gpd)
    if not report.ok:
        raise InputError("invalid groupoid: " + report.violations[0].message)
    if not gpd.elements:
        raise InputError("groupoid has no elements")
    return TwistedAlgebra(gpd, cocycle, zero_tol=config.tolerance)


def _resolve_spec(ctx, config: RunConfig, basis: bytes | None) -> SemigroupSpec:
    if config.semigroup == "monomial":
        return SemigroupSpec.monomial(ctx)
    if basis is not None:
        return SemigroupSpec.basis_restricted(ctx, load_basis(basis, ctx))
    raise InputError(f"unknown --semigroup value {config.semigroup!r}")


# -- commands: each returns (report body, exit code) and leaves errors to main -------


def cmd_validate(data: bytes, config: RunConfig) -> tuple[dict, int]:
    gpd, cocycle = load_groupoid_file(data)
    report = validate_groupoid(gpd)
    cocycle_violations = cocycle.violations() if report.ok else []
    ok = report.ok and not cocycle_violations
    body = {
        "groupoid": report.to_dict(),
        "cocycle": {"ok": not cocycle_violations, "violations": cocycle_violations},
        "passed": ok,
    }
    return body, EXIT_PASS if ok else EXIT_FAIL


def cmd_reconstruct(data: bytes, config: RunConfig, basis: bytes | None) -> tuple[dict, int]:
    ctx = _load_context(data, config)
    report = reconstruct(ctx, _resolve_spec(ctx, config, basis), seed=config.seed,
                         iso_budget=config.iso_budget, run=_fan_out)
    if report.isomorphism["status"] == "inconclusive":
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS if report.passed else EXIT_FAIL
    return {"reconstruction": report.to_dict()}, code


def cmd_compare(reports, config: RunConfig) -> tuple[dict, int]:
    """reports: the (bytes, path) of each of the two reports, in order."""
    twist_a, twist_b = (_load_report(data, path) for data, path in reports)
    iso = twists_isomorphic(twist_a, twist_b, config.iso_budget)
    code = {"isomorphic": EXIT_PASS, "not_isomorphic": EXIT_FAIL,
            "inconclusive": EXIT_INCONCLUSIVE}[iso.status]
    return {"result": iso.to_dict()}, code


SUITE_NAMES = (*SUITES, "all")


def _fan_out(names: list[str], call) -> dict:
    """{name: call(name)} over this process and forked children, one per usable CPU.

    Each process claims the next name by reading a byte from a shared pipe and
    stops at its first failure; a child pickles {index: result or exception}
    back and ends in os._exit.  Names whose results did not come back run
    here, and the first failure in order is raised, as in a serial loop.
    """
    # sched_getaffinity exists only where fork does; elsewhere every name runs here.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    claims, feed = os.pipe()
    os.write(feed, bytes(range(len(names))))
    os.close(feed)
    claimed = (byte[0] for byte in iter(lambda: os.read(claims, 1), b""))

    def work(indices) -> dict:
        done = {}
        for i in indices:
            try:
                done[i] = call(names[i])
            except Exception as exc:
                done[i] = exc
                break  # no later name can change the outcome
        return done

    children, outcomes = [], {}
    try:
        for _ in range(min(len(names), cpus) - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the names left run here
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
            except Exception:  # the child died; its names run again below
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


def cmd_suite(data: bytes, config: RunConfig, suite: str,
              basis: bytes | None) -> tuple[dict, int]:
    ctx = _load_context(data, config)
    spec = _resolve_spec(ctx, config, basis)
    selected = list(SUITES) if suite == "all" else [suite]
    results = _fan_out(selected, lambda name: SUITES[name](ctx, config.seed, spec))
    passed = all(r["passed"] for r in results.values())
    return {"suites": results, "passed": passed}, EXIT_PASS if passed else EXIT_FAIL


# -- entry point ---------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL, help="numeric tolerance")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root seed for all sampling")
    common.add_argument("--iso-budget", type=int, default=DEFAULT_ISO_BUDGET,
                        help="node budget for isomorphism search")
    common.add_argument("--out", help="write the report to this path")

    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--semigroup", default=argparse.SUPPRESS, help="monomial or basis:<file>")

    parser = argparse.ArgumentParser(
        prog="twistalg",
        description="Twisted groupoid algebras: validation, reconstruction, property suites.",
    )
    parser.set_defaults(semigroup="monomial")  # validate and compare report it too
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", parents=[common],
                           help="check groupoid and cocycle axioms")
    p_val.add_argument("path")

    p_rec = sub.add_parser("reconstruct", parents=[common, spec],
                           help="run the full reconstruction pipeline")
    p_rec.add_argument("path")

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="compare two reconstruction reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")

    p_suite = sub.add_parser("suite", parents=[common, spec], help="run property suites")
    p_suite.add_argument("path")
    p_suite.add_argument("--suite", default="all", help="|".join(SUITE_NAMES))
    return parser


def main(argv=None) -> int:
    """Run one command; the only place where errors become exit codes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 2 for a usage error, 0 for --help
        return exc.code
    config = RunConfig(tolerance=args.tol, seed=args.seed, iso_budget=args.iso_budget,
                       semigroup=args.semigroup)
    if not (math.isfinite(config.tolerance) and config.tolerance > 0):
        sys.stderr.write("tolerance must be a finite positive number\n")
        return EXIT_INPUT
    if config.iso_budget < 0:
        sys.stderr.write("iso budget must not be negative\n")
        return EXIT_INPUT
    if _basis_path(config) == "":
        sys.stderr.write("--semigroup basis: names no file\n")
        return EXIT_INPUT
    if args.command == "suite" and args.suite not in SUITE_NAMES:
        sys.stderr.write(f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}\n")
        return EXIT_INPUT
    paths = [args.report_a, args.report_b] if args.command == "compare" else [args.path]
    if _basis_path(config) is not None:
        paths.append(_basis_path(config))
    # Each command takes the inputs' bytes in the order of `paths`.
    run = {
        "validate": lambda data: cmd_validate(data, config),
        "reconstruct": lambda data, basis=None: cmd_reconstruct(data, config, basis),
        "compare": lambda *reports: cmd_compare(zip(reports, paths), config),
        "suite": lambda data, basis=None: cmd_suite(data, config, args.suite, basis),
    }[args.command]
    try:
        inputs = [read_input(p) for p in paths]  # the one read of each, hashed and parsed
        doc = _envelope(paths, inputs, config)
        try:
            body, code = run(*inputs)
        except json.JSONDecodeError as exc:
            body = {"error": {"kind": "parse", "message": str(exc),
                              "line": exc.lineno, "column": exc.colno}}
            code = EXIT_INPUT
        except NotCartanError as exc:
            body = {"error": {"kind": "not-cartan", "failures": list(exc.failures)}}
            code = EXIT_FAIL
        except InputError as exc:
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
