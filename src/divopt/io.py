"""JSON persistence for every instance kind.

One document per instance, dispatched on the top-level "kind" key:

  metric     {"kind": "metric", "n": N, "dist": [[...]], "points"?, "meta"?}
  setsystem  {"kind": "setsystem", "n": N, "sets": [{"members": [...], "k": K}], "meta"?}
  dks        {"kind": "dks", "n": N, "weights": [[i, j, w], ...], "forced": [...],
              "k": K, "meta"?}
  modular    {"kind": "modular", "weights": [...]}
  coverage   {"kind": "coverage", "universe": M, "covers": [[...], ...], "uweights"?}
  maxcov     {"kind": "maxcov", "universe": M, "k": K, "sets": [[...], ...],
              "regular": bool, "meta"?}

Element ids are 0-based everywhere, and a dks file gives each pair at most
once.  ``dumps_instance`` emits a canonical form (sorted keys, two-space
indent, trailing newline, shortest round-trip float repr), so identical
instances serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import DksInstance, InstanceError, MetricInstance, SetSystemInstance, SubmodularSpec
from .generators import CoverageInstance

__all__ = [
    "to_payload",
    "from_payload",
    "dumps_instance",
    "loads_instance",
    "save_instance",
    "load_instance",
]


def _jsonable(value):
    """Coerce metadata to plain JSON types; sets become sorted lists."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise InstanceError(f"meta value of type {type(value).__name__} is not serializable")


def to_payload(obj) -> dict:
    """Plain-dict form of any instance type; inverse of ``from_payload``."""
    if isinstance(obj, MetricInstance):
        payload = {
            "kind": "metric",
            "n": obj.n,
            "dist": [[float(x) for x in row] for row in obj.dist],
        }
        if obj.points is not None:
            payload["points"] = [[float(x) for x in row] for row in obj.points]
        if obj.meta:
            payload["meta"] = _jsonable(obj.meta)
        return payload
    if isinstance(obj, SetSystemInstance):
        payload = {
            "kind": "setsystem",
            "n": obj.n,
            "sets": [
                {"members": sorted(int(e) for e in members), "k": int(k)}
                for members, k in obj.sets
            ],
        }
        if obj.meta:
            payload["meta"] = _jsonable(obj.meta)
        return payload
    if isinstance(obj, DksInstance):
        triples = []
        for i in range(obj.n):
            for j in range(i + 1, obj.n):
                w = float(obj.weights[i, j])
                if w != 0.0:
                    triples.append([i, j, w])
        payload = {
            "kind": "dks",
            "n": obj.n,
            "weights": triples,
            "forced": sorted(int(v) for v in obj.forced),
            "k": int(obj.k),
        }
        if obj.meta:
            payload["meta"] = _jsonable(obj.meta)
        return payload
    if isinstance(obj, SubmodularSpec):
        if obj.kind == "modular":
            return {"kind": "modular", "weights": [float(w) for w in obj.weights]}
        payload = {
            "kind": "coverage",
            "universe": int(obj.universe),
            "covers": [sorted(int(i) for i in c) for c in obj.covers],
        }
        if obj.uweights is not None:
            payload["uweights"] = [float(w) for w in obj.uweights]
        return payload
    if isinstance(obj, CoverageInstance):
        payload = {
            "kind": "maxcov",
            "universe": int(obj.universe),
            "k": int(obj.k),
            "sets": [sorted(int(i) for i in s) for s in obj.sets],
            "regular": bool(obj.regular),
        }
        if obj.meta:
            payload["meta"] = _jsonable(obj.meta)
        return payload
    raise InstanceError(f"cannot serialize object of type {type(obj).__name__}")


def _require(payload: dict, key: str, kind: str):
    if key not in payload:
        raise InstanceError(f"{kind} payload: missing required key {key!r}")
    return payload[key]


def _number(value, path: str, *index: int, integer: bool = False):
    """``value`` if it is a finite JSON number (an integer when ``integer``),
    else InstanceError naming the field ``path[index]...``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        problem = "an integer" if integer else "a number"
    elif isinstance(value, float) and not math.isfinite(value):
        problem = "a finite number"
    else:
        return value
    raise InstanceError(f"{path}{''.join(f'[{i}]' for i in index)}: expected {problem}")


def _int_list(value, path: str) -> list[int]:
    if not isinstance(value, list):
        raise InstanceError(f"{path}: expected a list")
    for idx, v in enumerate(value):
        if type(v) is not int:
            _number(v, path, idx, integer=True)
    return list(value)


def _num_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise InstanceError(f"{path}: expected a list of numbers")
    return tuple(float(_number(v, path, idx)) for idx, v in enumerate(value))


def _num_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InstanceError(f"{path}: expected a list of rows")
    if len({len(r) for r in value}) > 1:
        raise InstanceError(f"{path}: rows must all have the same length")
    for i, row in enumerate(value):
        for j, x in enumerate(row):
            if type(x) is not float or not math.isfinite(x):  # skip the call for the common case
                _number(x, path, i, j)
    return np.asarray(value, dtype=float)


def from_payload(payload: dict):
    """Rebuild an instance from its dict form, validating shape and types."""
    if not isinstance(payload, dict):
        raise InstanceError("instance payload must be a JSON object")
    kind = payload.get("kind")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise InstanceError("meta: expected an object")
    if kind == "metric":
        n = _number(_require(payload, "n", kind), "n", integer=True)
        dist = _num_matrix(_require(payload, "dist", kind), "dist")
        points = payload.get("points")
        if points is not None:
            points = _num_matrix(points, "points")
        return MetricInstance(n, dist, points=points, meta=dict(meta))
    if kind == "setsystem":
        n = _number(_require(payload, "n", kind), "n", integer=True)
        raw = _require(payload, "sets", kind)
        if not isinstance(raw, list):
            raise InstanceError("sets: expected a list")
        sets = []
        for idx, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise InstanceError(f"sets[{idx}]: expected an object")
            members = _int_list(_require(entry, "members", f"sets[{idx}]"), f"sets[{idx}].members")
            k = _number(_require(entry, "k", f"sets[{idx}]"), f"sets[{idx}].k", integer=True)
            sets.append((frozenset(members), k))
        return SetSystemInstance(n, tuple(sets), meta=dict(meta))
    if kind == "dks":
        n = _number(_require(payload, "n", kind), "n", integer=True)
        if n < 0:
            raise InstanceError("n: expected a non-negative integer")
        raw = _require(payload, "weights", kind)
        if not isinstance(raw, list):
            raise InstanceError("weights: expected a list of [i, j, w] triples")
        W = np.zeros((n, n))
        given = set()
        for idx, triple in enumerate(raw):
            if not (isinstance(triple, list) and len(triple) == 3):
                raise InstanceError(f"weights[{idx}]: expected an [i, j, w] triple")
            i, j, w = triple
            if not isinstance(i, int) or not isinstance(j, int):
                raise InstanceError(f"weights[{idx}]: expected [int, int, number]")
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise InstanceError(f"weights[{idx}]: ids must be distinct and in range({n})")
            if (min(i, j), max(i, j)) in given:
                raise InstanceError(f"weights[{idx}]: pair ({i}, {j}) is already given")
            given.add((min(i, j), max(i, j)))
            W[i, j] = W[j, i] = float(_number(w, "weights", idx, 2))
        forced = _int_list(_require(payload, "forced", kind), "forced")
        k = _number(_require(payload, "k", kind), "k", integer=True)
        return DksInstance(n, W, forced=frozenset(forced), k=k, meta=dict(meta))
    if kind == "modular":
        weights = _num_list(_require(payload, "weights", kind), "weights")
        return SubmodularSpec(kind="modular", weights=weights)
    if kind == "coverage":
        universe = _number(_require(payload, "universe", kind), "universe", integer=True)
        raw = _require(payload, "covers", kind)
        if not isinstance(raw, list):
            raise InstanceError("covers: expected a list of lists")
        covers = tuple(
            frozenset(_int_list(c, f"covers[{idx}]")) for idx, c in enumerate(raw)
        )
        uweights = payload.get("uweights")
        if uweights is not None:
            uweights = _num_list(uweights, "uweights")
        return SubmodularSpec(
            kind="coverage", universe=universe, covers=covers, uweights=uweights
        )
    if kind == "maxcov":
        universe = _number(_require(payload, "universe", kind), "universe", integer=True)
        k = _number(_require(payload, "k", kind), "k", integer=True)
        raw = _require(payload, "sets", kind)
        if not isinstance(raw, list):
            raise InstanceError("sets: expected a list of lists")
        sets = tuple(
            frozenset(_int_list(s, f"sets[{idx}]")) for idx, s in enumerate(raw)
        )
        regular = payload.get("regular", False)
        if not isinstance(regular, bool):
            raise InstanceError("regular: expected true or false")
        return CoverageInstance(universe, sets, k, regular=regular, meta=dict(meta))
    raise InstanceError(f"unknown instance kind {kind!r}")


def dumps_instance(obj) -> str:
    return json.dumps(to_payload(obj), indent=2, sort_keys=True) + "\n"


def _parse_json(text: str):
    """The JSON value of ``text``; InstanceError if it is malformed or nests
    deeper than the parser's recursion limit."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc


def _read_text(path) -> str:
    """The text of a UTF-8 file, such as an instance or a bench spec;
    InstanceError if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc


def loads_instance(text: str):
    return from_payload(_parse_json(text))


def save_instance(obj, path) -> None:
    Path(path).write_text(dumps_instance(obj), encoding="utf-8")


def load_instance(path):
    return loads_instance(_read_text(path))
