"""JSON file formats: each input file is read once, by `read_input`, and its bytes
are parsed by `read_object`.

Groupoid file: {"name": str?, "elements": [...], "units": [...],
"source"/"range"/"inverse": {element: element},
"compose": {"g|h": element}, "cocycle": {"g|h": {"turns": [p, q]}}?}
with absent cocycle entries meaning phase 1.

Algebra element file: {"coeffs": {element: [re, im]}}.
Bisection basis file: {"bisections": [[element, ...], ...]}.
Every id, in a list or as a table value, is a string.
Reconstruction report, as `reconstruct` writes it: {"reconstruction":
{"rebuilt_groupoid": <groupoid tables>, "recovered_cocycle": {"g|h":
{"turns": [p, q]}}, ...}, ...}; `compare` reads these two fields.
A field of another JSON type than these is refused by name, not coerced.
"""

from __future__ import annotations

import json
import math
import stat
import sys
from pathlib import Path

from .algebra import AlgebraElement, TwistedAlgebra
from .errors import InputError
from .groupoid import FiniteGroupoid, table_violations
from .semigroups import BisectionBasis
from .twists import Cocycle

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null or missing"}


def read_input(path: str | Path) -> bytes:
    """The bytes of the input file at path.  Raises OSError on a path that is not a
    regular file: a device or a pipe is read without end."""
    path = Path(path)
    if not stat.S_ISREG(path.stat().st_mode):
        raise OSError(f"{path}: not a regular file")
    return path.read_bytes()


def read_object(data: bytes, what: str) -> dict:
    """The top-level object of the JSON text in data, which `what` names in errors.
    CRLF and CR end lines as LF, as in a text-mode read.  Raises json.JSONDecodeError
    on a syntax error, and InputError on text that is not UTF-8, nesting too deep to
    parse or a top level that is not an object."""
    try:
        doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise InputError(f"{what} is nested too deeply to parse") from None
    return _typed(doc, dict, what)


def _typed(value, kind: type, name: str):
    """value, refused by name unless its JSON type is kind (dict, list or str)."""
    if not isinstance(value, kind):
        raise InputError(f"{name} must be {_JSON_TYPES[kind]}, not {_JSON_TYPES[type(value)]}")
    return value


def _split_pair(key: str) -> tuple[str, str]:
    if key.count("|") != 1:
        raise InputError(f"pair key {key!r} must contain exactly one '|'")
    g, h = key.split("|")
    return g, h


def groupoid_from_dict(doc: dict, what: str) -> FiniteGroupoid:
    elements, units = (_typed(doc.get(k), list, f"{what}'s {k!r}") for k in ("elements", "units"))
    source, range_, inverse = (_typed(doc.get(k), dict, f"{what}'s {k!r}")
                               for k in ("source", "range", "inverse"))
    compose_raw = _typed(doc.get("compose", {}), dict, f"{what}'s 'compose'")
    for field, ids in (("elements", elements), ("units", units), ("source", source.values()),
                       ("range", range_.values()), ("inverse", inverse.values()),
                       ("compose", compose_raw.values())):
        for e in ids:
            if not isinstance(e, str):  # the name is formatted for the offender only
                _typed(e, str, f"each id in {what}'s {field!r}")
    for e in elements:
        if "|" in e:
            raise InputError(f"element id {e!r} may not contain '|'")
    compose = {_split_pair(k): v for k, v in compose_raw.items()}
    name = _typed(doc["name"], str, f"{what}'s 'name'") if "name" in doc else "groupoid"
    return FiniteGroupoid(name, elements, units, source, range_, inverse, compose)


def cocycle_from_dict(groupoid: FiniteGroupoid, doc: dict) -> Cocycle:
    ratios = {}
    for key, entry in doc.items():
        g, h = _split_pair(key)
        try:
            p, q = entry["turns"]
            if type(p) is not int or type(q) is not int:  # bool is an int subclass
                raise TypeError(f"turns must be two integers, not {[p, q]!r}")
            if q == 0:
                raise ZeroDivisionError(f"Fraction({p}, 0)")
            ratios[(g, h)] = p, q
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad cocycle entry for {key!r}: {exc}") from exc
    grid = math.lcm(*{q for _, q in ratios.values()})
    return Cocycle.from_turns(groupoid, grid, {pair: p * (grid // q)
                                               for pair, (p, q) in ratios.items()})


def load_groupoid_file(data: bytes):
    """Parse a groupoid file into (groupoid, cocycle); no axiom checking here.
    An absent or null cocycle is the trivial one."""
    doc = read_object(data, "groupoid file")
    gpd = groupoid_from_dict(doc, "groupoid file")
    cocycle = doc.get("cocycle")
    return gpd, cocycle_from_dict(
        gpd, {} if cocycle is None else _typed(cocycle, dict, "groupoid file's 'cocycle'"))


def _load_report(data: bytes, path: str | Path) -> Cocycle:
    """The recovered cocycle of a report, on its rebuilt groupoid with checked tables."""
    what = f"report {path}"
    rec = _typed(read_object(data, what).get("reconstruction"), dict, f"{what}'s 'reconstruction'")
    tables, cocycle = (_typed(rec.get(k), dict, f"{what}'s {k!r}")
                       for k in ("rebuilt_groupoid", "recovered_cocycle"))
    gpd = groupoid_from_dict(tables, f"{what}'s rebuilt groupoid")
    bad = table_violations(gpd)
    if bad:
        raise InputError(f"{path}: invalid rebuilt groupoid: {bad[0].message}")
    return cocycle_from_dict(gpd, cocycle)


def context_to_dict(ctx: TwistedAlgebra) -> dict:
    doc, cocycle = {**ctx.groupoid.to_dict(), "name": ctx.name}, ctx.cocycle.to_dict()
    return {**doc, "cocycle": cocycle} if cocycle else doc


def load_element(data: bytes, ctx: TwistedAlgebra) -> AlgebraElement:
    raw = _typed(read_object(data, "element file").get("coeffs"), dict, "element file's 'coeffs'")
    coeffs = {}
    for g, pair in raw.items():
        ctx.groupoid.check_element(g)
        # Two finite JSON numbers: the bound refuses NaN, infinities and huge ints.
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                type(x) in (int, float) and abs(x) <= sys.float_info.max for x in pair)):
            raise InputError(f"coefficient for {g!r} must be [re, im], two finite numbers")
        coeffs[g] = complex(*pair)
    return AlgebraElement(ctx, coeffs)


def load_basis(data: bytes, ctx: TwistedAlgebra) -> BisectionBasis:
    doc = read_object(data, "basis file")
    members = _typed(doc.get("bisections"), list, "basis file's 'bisections'")
    return BisectionBasis(ctx.groupoid, [_typed(m, list, "each basis member") for m in members])


def dumps(obj: dict) -> str:
    """Deterministic JSON of JSON types only: fixed key order from construction, stable floats."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
