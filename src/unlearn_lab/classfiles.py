"""JSON file formats for classes, datasets, queries, and encodings.

Class files hold either an explicit label matrix or a generator spec:

    {"domain": 4, "hypotheses": [[1,1,1,1], [0,1,1,1], ...]}
    {"generator": {"kind": "thresholds", "m": 8}}
    {"generator": {"kind": "halfspace", "d": 2},
     "domain": [[0, 0], [1, 0], ["1/2", "1/2"]]}
    {"generator": {"kind": "halfspace", "d": 4},
     "domain": {"kind": "simplex-faces", "d": 4, "k": 2}}

Dataset files are {"items": [{"x": id, "y": bit}, ...]} with the item id
given by position (1-based). Query files are {"indices": [...]} for one
query or {"queries": [{"indices": [...]}, ...]} for several. Rational
coordinates may be integers or strings like "2/3".
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from pathlib import Path

from .compression import VsEncoding, unrealizable_marker
from .core import ClassHandle, Dataset, FiniteClass
from .geometry import HalfspaceOracle, simplex_face_domain
from .instances import all_labelings, parity_class, thresholds_1d, tilu_ub_class

SEED_ENV_VAR = "UNLEARN_LAB_SEED"


class FileFormatError(ValueError):
    """Malformed input file; the message carries the file and location."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = str(path)


def env_seed(default: int = 0) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _load_json(path) -> object:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _json_int(value, path, where: str) -> int:
    """Read a JSON integer; bools, floats and strings are rejected."""
    if type(value) is not int:
        raise FileFormatError(path, f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _rational(value, path):
    if isinstance(value, bool):
        raise FileFormatError(path, f"bad rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            raise FileFormatError(path, f"bad rational {value!r}") from None
    if isinstance(value, float):
        return Fraction(str(value))
    raise FileFormatError(path, f"bad rational {value!r}")


def _build_generator(spec: dict, doc: dict, path) -> tuple[ClassHandle, str]:
    kind = spec.get("kind")

    def param(key: str, default: int | None = None) -> int:
        value = spec[key] if default is None else spec.get(key, default)
        return _json_int(value, path, f"generator {kind!r} parameter {key!r}")

    try:
        if kind == "thresholds":
            m = param("m")
            return thresholds_1d(m), f"thresholds(m={m})"
        if kind == "parity":
            d = param("d")
            return parity_class(d), f"parity(d={d})"
        if kind == "all-labelings":
            m = param("m")
            return all_labelings(m), f"all-labelings(m={m})"
        if kind == "tilu-ub":
            d = param("d")
            size = param("domain_size")
            return tilu_ub_class(d, size), f"tilu-ub(d={d},domain={size})"
        if kind == "random":
            m = param("m", 6)
            h = param("h", 20)
            seed = param("seed") if "seed" in spec else env_seed()
            rng = random.Random(seed)
            fc = FiniteClass(m, [[rng.randint(0, 1) for _ in range(m)] for _ in range(h)])
            return fc, f"random(m={m},h={len(fc.hypotheses)},seed={seed})"
        if kind == "halfspace":
            d = param("d")
            domain = doc.get("domain")
            if domain is None:
                raise FileFormatError(path, "halfspace classes need a domain")
            if isinstance(domain, dict):
                if domain.get("kind") != "simplex-faces":
                    raise FileFormatError(path, f"unknown domain kind {domain.get('kind')!r}")
                dd = _json_int(domain["d"], path, "simplex-faces domain parameter 'd'")
                kk = _json_int(domain["k"], path, "simplex-faces domain parameter 'k'")
                points = simplex_face_domain(dd, kk)
                desc = f"halfspace(d={dd},simplex-faces(k={kk}))"
            else:
                points = [tuple(_rational(c, path) for c in row) for row in domain]
                desc = f"halfspace(d={d},points={len(points)})"
            oracle = HalfspaceOracle(points)
            if oracle.dim != d:
                raise FileFormatError(path, f"domain points have dimension {oracle.dim}, expected {d}")
            return oracle, desc
    except KeyError as exc:
        raise FileFormatError(path, f"generator {kind!r} is missing parameter {exc}") from None
    raise FileFormatError(path, f"unknown generator kind {kind!r}")


def load_class(path) -> tuple[ClassHandle, str]:
    """Load a class file, returning (handle, short descriptor)."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise FileFormatError(path, "class file must be a JSON object")
    if "generator" in doc:
        return _build_generator(doc["generator"], doc, path)
    if "hypotheses" not in doc:
        raise FileFormatError(path, "class file needs 'hypotheses' or 'generator'")
    domain = doc.get("domain")
    if isinstance(domain, int):
        m = domain
    elif isinstance(domain, list):
        m = len(domain)
    else:
        raise FileFormatError(path, "'domain' must be a size or a list of points")
    try:
        fc = FiniteClass(m, doc["hypotheses"])
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None
    return fc, f"explicit(m={m},h={len(fc.hypotheses)})"


def load_dataset(path, handle: ClassHandle | None = None) -> Dataset:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "items" not in doc:
        raise FileFormatError(path, "dataset file must be an object with 'items'")
    pairs = []
    for pos, item in enumerate(doc["items"], start=1):
        if not isinstance(item, dict) or not {"x", "y"} <= item.keys():
            raise FileFormatError(path, f"item {pos} must be an object with 'x' and 'y'")
        pairs.append(tuple(_json_int(item[k], path, f"item {pos} {k!r}") for k in ("x", "y")))
    try:
        data = Dataset.from_pairs(pairs)
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None
    if handle is not None:
        m = handle.domain_size
        for i, (x, y) in data.entries:
            if not (0 <= x < m):
                raise FileFormatError(path, f"item {i} references point {x} outside domain of size {m}")
    return data


def load_queries(path, data: Dataset | None = None) -> list[frozenset[int]]:
    doc = _load_json(path)
    if isinstance(doc, dict) and "indices" in doc:
        raw = [doc["indices"]]
    elif isinstance(doc, dict) and "queries" in doc:
        raw = [q.get("indices") if isinstance(q, dict) else q for q in doc["queries"]]
    else:
        raise FileFormatError(path, "query file needs 'indices' or 'queries'")
    out = []
    for qi, indices in enumerate(raw, start=1):
        if not isinstance(indices, list):
            raise FileFormatError(path, f"query {qi} must list indices")
        seen = set()
        for i in indices:
            if _json_int(i, path, f"query {qi} index") in seen:
                raise FileFormatError(path, f"query {qi} repeats index {i}")
            seen.add(i)
        if data is not None:
            unknown = seen - set(data.ids())
            if unknown:
                raise FileFormatError(path, f"query {qi} references unknown items {sorted(unknown)}")
        out.append(frozenset(seen))
    return out


def encoding_to_json(enc: VsEncoding) -> dict:
    return {
        "kind": "realizable" if enc.realizable else "unrealizable",
        "pairs": [list(p) for p in enc.pairs],
    }


def load_encoding(path) -> VsEncoding:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FileFormatError(path, "encoding file needs a 'kind'")
    if doc["kind"] == "unrealizable":
        return unrealizable_marker()
    if doc["kind"] != "realizable":
        raise FileFormatError(path, f"unknown encoding kind {doc['kind']!r}")
    pairs = []
    for pos, pair in enumerate(doc.get("pairs", []), start=1):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(path, "encoding pairs must be [x, y] lists")
        pairs.append(tuple(_json_int(v, path, f"encoding pair {pos}") for v in pair))
    return VsEncoding(True, tuple(pairs))
