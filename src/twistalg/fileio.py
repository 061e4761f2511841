"""JSON file formats.

Groupoid file: {"name": str?, "elements": [...], "units": [...],
"source"/"range"/"inverse": {element: element},
"compose": {"g|h": element}, "cocycle": {"g|h": {"turns": [p, q]}}?}
with absent cocycle entries meaning phase 1.

Algebra element file: {"coeffs": {element: [re, im]}}.
Bisection basis file: {"bisections": [[element, ...], ...]}.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement, Cocycle, Phase, TwistedAlgebra
from .errors import InputError
from .groupoid import FiniteGroupoid
from .semigroups import BisectionBasis


def content_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _split_pair(key: str) -> tuple[str, str]:
    if key.count("|") != 1:
        raise InputError(f"pair key {key!r} must contain exactly one '|'")
    g, h = key.split("|")
    return g, h


def groupoid_from_dict(doc: dict, name: str | None = None) -> FiniteGroupoid:
    try:
        elements = list(doc["elements"])
        units = list(doc["units"])
        source = dict(doc["source"])
        range_ = dict(doc["range"])
        inverse = dict(doc["inverse"])
        compose_raw = dict(doc.get("compose", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"groupoid document is missing a table: {exc}") from exc
    for e in elements:
        if "|" in str(e):
            raise InputError(f"element id {e!r} may not contain '|'")
    compose = {_split_pair(k): v for k, v in compose_raw.items()}
    return FiniteGroupoid(
        name or doc.get("name", "groupoid"), elements, units, source, range_, inverse, compose
    )


def cocycle_from_dict(groupoid: FiniteGroupoid, doc: dict) -> Cocycle:
    if not isinstance(doc or {}, dict):
        raise InputError("cocycle must be an object keyed by 'g|h'")
    values = {}
    for key, entry in (doc or {}).items():
        g, h = _split_pair(key)
        try:
            p, q = entry["turns"]
            if type(p) is not int or type(q) is not int:  # bool is an int subclass
                raise TypeError(f"turns must be two integers, not {[p, q]!r}")
            phase = Phase(Fraction(p, q) % 1)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"bad cocycle entry for {key!r}: {exc}") from exc
        values[(g, h)] = phase
    return Cocycle(groupoid, values)


def load_groupoid_file(path: str | Path):
    """Parse a groupoid file into (groupoid, cocycle); no axiom checking here.

    Raises json.JSONDecodeError (with position) on syntax errors and
    InputError on structural problems.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise InputError("groupoid file must contain a JSON object")
    gpd = groupoid_from_dict(doc)
    cocycle = cocycle_from_dict(gpd, doc.get("cocycle", {}))
    return gpd, cocycle


def context_to_dict(ctx: TwistedAlgebra) -> dict:
    doc = ctx.groupoid.to_dict()
    doc["name"] = ctx.name
    cocycle = ctx.cocycle.to_dict()
    if cocycle:
        doc["cocycle"] = cocycle
    return doc


def load_element(path: str | Path, ctx: TwistedAlgebra) -> AlgebraElement:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        raw = dict(doc["coeffs"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"element file needs a 'coeffs' object: {exc}") from exc
    coeffs = {}
    for g, pair in raw.items():
        ctx.groupoid.check_element(g)
        try:
            re, im = pair
        except (TypeError, ValueError) as exc:
            raise InputError(f"coefficient for {g!r} must be [re, im]") from exc
        coeffs[g] = complex(float(re), float(im))
    return AlgebraElement(ctx, coeffs)


def load_basis(path: str | Path, ctx: TwistedAlgebra) -> BisectionBasis:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        members = [list(m) for m in doc["bisections"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"basis file needs a 'bisections' array: {exc}") from exc
    return BisectionBasis(ctx.groupoid, members)


def _jsonable(x):
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    raise TypeError(f"not JSON serializable: {type(x).__name__}")


def dumps(obj: dict) -> str:
    """Deterministic JSON: fixed key order from construction, stable floats."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_jsonable) + "\n"
