"""Memory-vs-bound reporting for scheme runs.

Each scheme run yields one record tying measured auxiliary and ticket
sizes to a theoretical budget evaluated from dimension values computed in
the same run. Reports are deterministic: identical records give
byte-identical JSON.
"""

from __future__ import annotations

import json
from math import log2

from .core import ClassHandle, count_bits, dataset_bits, pair_bits, pair_cap
from .dimensions import CAP_EXCEEDED, ORACLE_CAP, hollow_star_number, star_number
from .schemes_ticketed import tree_depth

# Fixed constant for the successor-chain scheme's size check:
# max(|aux|, |ticket|) <= CHAIN_BOUND_CONSTANT * (log2 d + log2 n + log2 |X|).
CHAIN_BOUND_CONSTANT = 6

SCHEMA_VERSION = 1


def scheme_bound(
    scheme: str,
    handle: ClassHandle,
    n: int,
    k: int | None = None,
    encoding_cap: int | None = None,
    d: int | None = None,
    dim_cap: int = ORACLE_CAP,
) -> dict:
    """Evaluate the theoretical size budget for one scheme run.

    Returns {"name", "bits", "dims"}; "bits" is None when a needed
    dimension exceeded its search cap (then no finite budget applies).
    The chain budget's "bits" is a float, log2 of the integer its
    "log2_of" key holds, so that `make_record` can compare in integers.
    """
    m = handle.domain_size
    z = pair_bits(m)
    if scheme in ("trivial", "trivial-erm"):
        return {
            "name": "n*z_bits + count_bits(n)",
            "bits": dataset_bits(n, m),
            "dims": {},
        }
    if scheme == "bounded":
        if k is None:
            raise ValueError("the bounded scheme budget needs k")
        hollow = hollow_star_number(handle, cap=dim_cap)
        bits = None
        if hollow != CAP_EXCEEDED:
            bits = hollow ** (k + 1) * (k * z + count_bits(n)) + 1
        return {
            "name": "hollow^(k+1)*(k*z_bits+count_bits(n))+1",
            "bits": bits,
            "dims": {"hollow_star": hollow},
        }
    if scheme in ("merkle", "erm-merkle"):
        cap = pair_cap(m, encoding_cap)
        star = star_number(handle, cap=dim_cap)
        bits = None
        if star != CAP_EXCEEDED:
            depth = tree_depth(n)
            bits = depth * (count_bits(cap) + star * z) + count_bits((1 << depth) - 1)
        return {
            "name": "(count_bits(cap)+star*z_bits)*log2(n)+count_bits(n-1)",
            "bits": bits,
            "dims": {"star": star},
        }
    if scheme == "chain":
        if d is None:
            raise ValueError("the chain scheme budget needs d")
        value = CHAIN_BOUND_CONSTANT * (
            log2(max(d, 2)) + log2(max(n, 2)) + log2(max(m, 2))
        )
        return {
            "name": f"{CHAIN_BOUND_CONSTANT}*(log2(d)+log2(n)+log2(|X|))",
            "bits": value,
            "dims": {},
            "log2_of": (max(d, 2) * max(n, 2) * max(m, 2)) ** CHAIN_BOUND_CONSTANT,
        }
    raise ValueError(f"unknown scheme {scheme!r}")


def make_record(
    scheme: str,
    class_desc: str,
    n: int,
    aux_bits: int,
    *,
    k: int | None = None,
    ticket_bits: tuple[int, ...] = (),
    bound: dict,
) -> dict:
    """The run record of one scheme run, checked against its `scheme_bound`.

    "bound_ok" compares the larger of the aux size and the largest ticket
    with the budget, and is None when the budget has no finite "bits".
    """
    max_ticket = max(ticket_bits, default=0)
    mean_ticket = (sum(ticket_bits) / len(ticket_bits)) if ticket_bits else 0.0
    measured = max(aux_bits, max_ticket) if ticket_bits else aux_bits
    if bound["bits"] is None:
        ok = None
    elif "log2_of" in bound:
        # measured <= log2(P) exactly when 2**measured <= P, that is when
        # measured < P.bit_length(): decided in integers, not on the float
        ok = measured < bound["log2_of"].bit_length()
    else:
        ok = measured <= bound["bits"]
    return {
        "v": SCHEMA_VERSION,
        "kind": "scheme-run",
        "scheme": scheme,
        "class": class_desc,
        "n": n,
        "k": k,
        "aux_bits": aux_bits,
        "max_ticket_bits": max_ticket if ticket_bits else None,
        "mean_ticket_bits": mean_ticket if ticket_bits else None,
        "bound": {"name": bound["name"], "bits": bound["bits"], "dims": bound["dims"]},
        "bound_ok": ok,
    }


def _sort_key(record: dict):
    return (
        str(record.get("scheme")),
        str(record.get("class")),
        record.get("n") or 0,
        record.get("k") or 0,
    )


def emit_report(records: list[dict]) -> tuple[str, str]:
    """Merge run records into (deterministic JSON, text table)."""
    ordered = sorted(records, key=_sort_key)
    doc = {"v": SCHEMA_VERSION, "records": ordered}
    blob = json.dumps(doc, indent=2, sort_keys=True)
    header = ("scheme", "class", "n", "k", "aux", "max_tx", "bound", "ok")
    rows = [header]
    for r in ordered:
        bound = r.get("bound") or {}
        bits = bound.get("bits")
        rows.append(
            (
                str(r.get("scheme")),
                str(r.get("class")),
                str(r.get("n")),
                str(r.get("k") if r.get("k") is not None else "-"),
                str(r.get("aux_bits")),
                str(r.get("max_ticket_bits") if r.get("max_ticket_bits") is not None else "-"),
                "-" if bits is None else (f"{bits:.1f}" if isinstance(bits, float) else str(bits)),
                {True: "pass", False: "FAIL", None: "-"}[r.get("bound_ok")],
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return blob, "\n".join(lines)
