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
coordinates may be integers or strings like "2/3". Record files hold one
run record, a list of records, or a report's {"records": [...]}.
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


def env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _load_json(path) -> object:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _json_int(value, path, where: str) -> int:
    """Read a JSON integer; bools, floats and strings are rejected."""
    if type(value) is not int:
        raise FileFormatError(path, f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _json_list(value, path, where: str) -> list:
    """Read a JSON array; any other value is rejected."""
    if not isinstance(value, list):
        raise FileFormatError(path, f"{where} must be a list, got {json.dumps(value)}")
    return value


def _rational(value, path):
    if isinstance(value, bool):
        raise FileFormatError(path, f"bad rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (str, float)):  # a float reads as its shortest decimal
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):  # also "1/0", Infinity and NaN
            raise FileFormatError(path, f"bad rational {value!r}") from None
    raise FileFormatError(path, f"bad rational {value!r}")


# the parameters each generator kind reads besides "kind"
_GENERATOR_PARAMS = {
    "thresholds": ("m",),
    "parity": ("d",),
    "all-labelings": ("m",),
    "tilu-ub": ("d", "domain_size"),
    "random": ("m", "h", "seed"),
    "halfspace": ("d",),
}


def _check_keys(obj: dict, known: tuple[str, ...], where: str, path) -> None:
    """Reject a key besides "kind" that is not in `known`: no misspelt parameter is ignored."""
    for key in obj:
        if key != "kind" and key not in known:
            raise FileFormatError(path, f"{where} does not read parameter {key!r}; "
                                        f"it reads {', '.join(map(repr, known))}")


def _param(obj: dict, key: str, where: str, path, default: int | None = None) -> int:
    """Integer parameter `key` of a generator or domain object, or `default`
    when it is absent; an absent one with no default is a format error."""
    if key not in obj:
        if default is None:
            raise FileFormatError(path, f"{where} is missing parameter {key!r}")
        return default
    return _json_int(obj[key], path, f"{where} parameter {key!r}")


def _built(path, build, *args):
    """`build(*args)`, with a ValueError it raises (a value out of the
    library's range) reported as a format error of the file."""
    try:
        return build(*args)
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None


def _build_generator(spec, doc: dict, path) -> tuple[ClassHandle, str]:
    if not isinstance(spec, dict):
        raise FileFormatError(path, f"'generator' must be an object, got {json.dumps(spec)}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _GENERATOR_PARAMS:
        raise FileFormatError(path, f"unknown generator kind {kind!r}")
    where = f"generator {kind!r}"
    _check_keys(spec, _GENERATOR_PARAMS[kind], where, path)

    def param(key: str, default: int | None = None) -> int:
        return _param(spec, key, where, path, default)

    if kind == "thresholds":
        m = param("m")
        return _built(path, thresholds_1d, m), f"thresholds(m={m})"
    if kind == "parity":
        d = param("d")
        return _built(path, parity_class, d), f"parity(d={d})"
    if kind == "all-labelings":
        m = param("m")
        return _built(path, all_labelings, m), f"all-labelings(m={m})"
    if kind == "tilu-ub":
        d = param("d")
        size = param("domain_size")
        return _built(path, tilu_ub_class, d, size), f"tilu-ub(d={d},domain={size})"
    if kind == "random":
        m = param("m", 6)
        h = param("h", 20)
        seed = param("seed") if "seed" in spec else env_seed()
        rng = random.Random(seed)
        fc = _built(path, FiniteClass, m, [[rng.randint(0, 1) for _ in range(m)] for _ in range(h)])
        return fc, f"random(m={m},h={len(fc.hypotheses)},seed={seed})"
    d = param("d")  # a halfspace class
    domain = doc.get("domain")
    if domain is None:
        raise FileFormatError(path, "halfspace classes need a domain")
    if isinstance(domain, dict):
        if domain.get("kind") != "simplex-faces":
            raise FileFormatError(path, f"unknown domain kind {domain.get('kind')!r}")
        _check_keys(domain, ("d", "k"), "domain 'simplex-faces'", path)
        dd = _param(domain, "d", "simplex-faces domain", path)
        kk = _param(domain, "k", "simplex-faces domain", path)
        points = _built(path, simplex_face_domain, dd, kk)
        desc = f"halfspace(d={dd},simplex-faces(k={kk}))"
    else:
        rows = _json_list(domain, path, "'domain', when not an object,")
        points = [
            tuple(_rational(c, path) for c in _json_list(row, path, f"domain point {pos}"))
            for pos, row in enumerate(rows, start=1)
        ]
        desc = f"halfspace(d={d},points={len(points)})"
    oracle = _built(path, HalfspaceOracle, points)
    if oracle.dim != d:
        raise FileFormatError(path, f"domain points have dimension {oracle.dim}, expected {d}")
    return oracle, desc


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
    if isinstance(domain, list):
        m = len(domain)
    else:
        m = _json_int(domain, path, "'domain', when not a list of points,")
    rows = _json_list(doc["hypotheses"], path, "'hypotheses'")
    for pos, row in enumerate(rows, start=1):
        _json_list(row, path, f"hypothesis {pos}")
    fc = _built(path, FiniteClass, m, rows)
    return fc, f"explicit(m={m},h={len(fc.hypotheses)})"


def load_dataset(path, handle: ClassHandle) -> Dataset:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "items" not in doc:
        raise FileFormatError(path, "dataset file must be an object with 'items'")
    pairs = []
    for pos, item in enumerate(_json_list(doc["items"], path, "'items'"), start=1):
        if not isinstance(item, dict) or not {"x", "y"} <= item.keys():
            raise FileFormatError(path, f"item {pos} must be an object with 'x' and 'y'")
        pairs.append(tuple(_json_int(item[k], path, f"item {pos} {k!r}") for k in ("x", "y")))
    try:
        data = Dataset.from_pairs(pairs)
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None
    m = handle.domain_size
    for i, (x, y) in data:
        if not (0 <= x < m):
            raise FileFormatError(path, f"item {i} references point {x} outside domain of size {m}")
    return data


def load_queries(path, data: Dataset) -> list[frozenset[int]]:
    """The queries of a query file, each a set of ids of `data`.

    A repeated index, or an id that `data` does not hold, is a format error.
    """
    doc = _load_json(path)
    if isinstance(doc, dict) and "indices" in doc:
        raw = [doc["indices"]]
    elif isinstance(doc, dict) and "queries" in doc:
        raw = [
            q.get("indices") if isinstance(q, dict) else q
            for q in _json_list(doc["queries"], path, "'queries'")
        ]
    else:
        raise FileFormatError(path, "query file needs 'indices' or 'queries'")
    known = data.by_id
    out = []
    for qi, indices in enumerate(raw, start=1):
        if not isinstance(indices, list):
            raise FileFormatError(path, f"query {qi} must list indices")
        seen = set()
        for i in indices:
            if _json_int(i, path, f"query {qi} index") in seen:
                raise FileFormatError(path, f"query {qi} repeats index {i}")
            seen.add(i)
        # only the query's own ids, so q queries cost their sizes, not q times n
        unknown = [i for i in seen if i not in known]
        if unknown:
            raise FileFormatError(path, f"query {qi} references unknown items {sorted(unknown)}")
        out.append(frozenset(seen))
    return out


def load_records(path) -> list[dict]:
    """The run records of a file holding one record, a list of records or a report.

    Every record must be an object, and the fields that `report.emit_report`
    reads must have the types `report.make_record` writes: `n` and `k` an
    integer or null, `bound` an object or null, `bound_ok` a boolean or null.
    """
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc["records"] if "records" in doc else [doc]
    if not isinstance(doc, list):
        raise FileFormatError(path, "expected a record, a list of records or an object with 'records'")
    for pos, rec in enumerate(doc, start=1):
        if not isinstance(rec, dict):
            raise FileFormatError(path, f"record {pos} must be an object, got {json.dumps(rec)}")
        for key in ("n", "k"):
            if rec.get(key) is not None:
                _json_int(rec[key], path, f"record {pos} {key!r}")
        if not isinstance(rec.get("bound") or {}, dict):
            raise FileFormatError(path, f"record {pos} 'bound' must be an object or null")
        if rec.get("bound_ok") is not None and type(rec["bound_ok"]) is not bool:
            raise FileFormatError(path, f"record {pos} 'bound_ok' must be a boolean or null")
    return doc


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
    for pos, pair in enumerate(_json_list(doc.get("pairs", []), path, "'pairs'"), start=1):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(path, "encoding pairs must be [x, y] lists")
        pairs.append(tuple(_json_int(v, path, f"encoding pair {pos}") for v in pair))
    return VsEncoding(True, tuple(pairs))
