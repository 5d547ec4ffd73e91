"""Command-line surface.

Subcommands: dims, vs-encode, merge, scheme run, lb demo, report. Output
is JSON on stdout (or --out); exit status 0 on success, 1 on domain
errors, 2 on usage errors including missing files. The UNLEARN_LAB_SEED
environment variable seeds every random choice (random class generation
and random demo secrets).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import classfiles, report
from .classfiles import FileFormatError, encoding_to_json, env_seed
from .compression import merge as merge_encodings
from .compression import vs_encode
from .core import FiniteClass, pair_cap
from .dimensions import ORACLE_CAP, compute_dims
from .instances import (
    all_labelings,
    eluder_lb_instance,
    halfspace_lb_instance,
    learn_with_tickets,
    run_adversary,
    shatter_lb_instance,
    thresholds_1d,
    vclb_instance,
    whitebox_erm_reduction,
)
from .schemes_central import (
    BoundedDeletionScheme,
    PreconditionError,
    TrivialErmScheme,
    TrivialScheme,
)
from .schemes_ticketed import ChainScheme, ErmMerkleScheme, MerkleScheme


class UsageError(ValueError):
    """Bad invocation or unusable input file: exit status 2."""


def _at_least(low: int, what: str):
    """An argparse type for an integer of at least `low`; a smaller one exits 2."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        return value

    return count


_cap_arg = _at_least(0, "a dimension cap")
_k_arg = _at_least(1, "k")
_encoding_cap_arg = _at_least(0, "an encoding cap")


def _emit(doc: dict, out: str | None) -> None:
    blob = json.dumps(doc, indent=2, sort_keys=True, default=str)
    if out:
        Path(out).write_text(blob + "\n")
    else:
        print(blob)


def _cmd_dims(args) -> int:
    handle, desc = classfiles.load_class(args.class_file)
    rep = compute_dims(handle, cap=args.cap, witnesses=args.witness)
    doc = {"v": 1, "class": desc}
    doc.update(rep.to_json_dict())
    _emit(doc, args.out)
    return 0


def _cmd_vs_encode(args) -> int:
    handle, desc = classfiles.load_class(args.class_file)
    data = classfiles.load_dataset(args.dataset, handle)
    enc = vs_encode(handle, data)
    cap = pair_cap(handle.domain_size, args.encoding_cap)
    doc = {
        "v": 1,
        "class": desc,
        "encoding": encoding_to_json(enc),
        "pair_count": len(enc.pairs),
        "bits": enc.bits(handle.domain_size, cap),
        "encoding_cap": cap,
    }
    _emit(doc, args.out)
    return 0


def _cmd_merge(args) -> int:
    handle, desc = classfiles.load_class(args.class_file)
    e1 = classfiles.load_encoding(args.encoding_a)
    e2 = classfiles.load_encoding(args.encoding_b)
    merged = merge_encodings(handle, e1, e2)
    doc = {"v": 1, "class": desc, "encoding": encoding_to_json(merged)}
    _emit(doc, args.out)
    return 0


def _chain_params(handle) -> int:
    # the chain scheme runs on the free-prefix class: 2**d distinct rows, label 0 from point d on
    if not isinstance(handle, FiniteClass):
        raise UsageError("the chain scheme needs a tilu-ub class file")
    m = handle.domain_size
    zero = [x for x in range(m) if handle.pair_mask(x, 1) == 0]
    d = zero[0] if zero else m
    if zero != list(range(d, m)) or len(handle) != 1 << d:
        raise UsageError("the chain scheme needs the tilu-ub generator class")
    return d


# the schemes that answer with a hypothesis index, and so need a FiniteClass
_ERM_SCHEMES = ("trivial-erm", "erm-merkle")


def _build_scheme(name: str, handle, k: int, encoding_cap: int | None):
    if name in _ERM_SCHEMES and not isinstance(handle, FiniteClass):
        raise UsageError("ERM schemes need an explicit finite class")
    if name == "trivial":
        return TrivialScheme(handle)
    if name == "trivial-erm":
        return TrivialErmScheme(handle)
    if name == "bounded":
        return BoundedDeletionScheme(handle, k)
    if name == "merkle":
        return MerkleScheme(handle, encoding_cap)
    if name == "erm-merkle":
        return ErmMerkleScheme(handle, encoding_cap)
    if name == "chain":
        return ChainScheme(_chain_params(handle), handle.domain_size)
    raise UsageError(f"unknown scheme {name!r}")


def _answer_json(scheme_name: str, answer):
    if scheme_name in _ERM_SCHEMES:
        return int(answer)
    return "yes" if answer else "no"


def _cmd_scheme_run(args) -> int:
    handle, desc = classfiles.load_class(args.class_file)
    data = classfiles.load_dataset(args.dataset, handle)
    queries = classfiles.load_queries(args.queries, data) if args.queries else [frozenset()]
    scheme = _build_scheme(args.scheme, handle, args.k, args.encoding_cap)
    answer, aux, tickets = learn_with_tickets(scheme, data)
    answers = []
    for q in queries:
        sub = {i: tickets[i] for i in sorted(q)} if tickets else {}
        a = scheme.unlearn(data.entries_for(q), aux, sub)
        answers.append({"indices": sorted(q), "answer": _answer_json(args.scheme, a)})
    ticket_bits = {i: scheme.ticket_bits(t) for i, t in tickets.items()}
    bound = report.scheme_bound(
        args.scheme,
        handle,
        len(data),
        k=args.k,
        encoding_cap=args.encoding_cap,
        d=scheme.d if args.scheme == "chain" else None,
        dim_cap=args.dim_cap,
    )
    record = report.make_record(
        args.scheme,
        desc,
        len(data),
        scheme.aux_bits(aux),
        k=args.k if args.scheme == "bounded" else None,
        ticket_bits=tuple(ticket_bits.values()),
        bound=bound,
    )
    doc = {
        "v": 1,
        "class": desc,
        "scheme": args.scheme,
        "learn_answer": _answer_json(args.scheme, answer),
        "answers": answers,
        "aux_bits": record["aux_bits"],
        "ticket_bits": ticket_bits or None,
        "max_ticket_bits": record["max_ticket_bits"],
        "mean_ticket_bits": record["mean_ticket_bits"],
        "bound": record["bound"],
        "bound_ok": record["bound_ok"],
    }
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    _emit(doc, args.out)
    return 0


# the --params keys each lb demo instance reads, in --instance choice order
_INSTANCE_PARAMS = {
    "vclb": ("beta", "m"),
    "eluder": ("m", "n"),
    "shatter": ("m",),
    "halfspace": ("d", "k"),
    "erm-whitebox": ("m", "n"),
}


def _build_instance(name: str, params):
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    known = _INSTANCE_PARAMS[name]
    for key in params:
        if key not in known:
            raise UsageError(f"--params key {key!r} is not read by instance {name!r}, "
                             f"which reads {', '.join(map(repr, known))}")
    try:
        for key in ("m", "n", "d", "k"):
            if key in params:
                classfiles._json_int(params[key], "--params", repr(key))
    except FileFormatError as exc:
        raise UsageError(str(exc)) from None
    if name == "vclb":
        beta = params.get("beta", "1/2")
        try:  # a JSON integer or a rational string such as "1/3"; no bool, float or list
            beta = Fraction(beta if type(beta) in (int, str) else None)
        except (TypeError, ValueError, ZeroDivisionError):
            raise UsageError(f"--params 'beta' must be an integer or a rational string such as "
                             f"\"1/3\", got {json.dumps(beta)}") from None
        return vclb_instance(beta, params.get("m", 8))
    if name in ("eluder", "erm-whitebox"):
        m = params.get("m", 8 if name == "eluder" else 4)
        # the eluder search's witness on thresholds, which the instance verifies
        witness = tuple((x, 0) for x in range(m))
        inst = eluder_lb_instance(thresholds_1d(m), witness, params.get("n", 2 * m))
        return inst if name == "eluder" else whitebox_erm_reduction(inst)
    if name == "shatter":
        m = params.get("m", 3)
        return shatter_lb_instance(all_labelings(m), tuple(range(m)))
    return halfspace_lb_instance(params.get("d", 4), params.get("k", 2))


def _cmd_lb_demo(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise UsageError(f"--params is not valid JSON: {exc.msg}") from None
    inst = _build_instance(args.instance, params)
    if inst.task == "erm" and args.scheme not in _ERM_SCHEMES:
        raise UsageError("ERM instances need --scheme trivial-erm")
    if inst.task == "realizability" and args.scheme in _ERM_SCHEMES:
        raise UsageError("realizability instances need a realizability scheme")
    scheme = _build_scheme(args.scheme, inst.handle, args.k, None)
    if args.secret:
        if len(args.secret) != inst.secret_len or set(args.secret) - {"0", "1"}:
            raise UsageError(f"--secret must be {inst.secret_len} bits of 0/1")
        z = tuple(int(c) for c in args.secret)
    else:
        rng = random.Random(env_seed())
        z = tuple(rng.randint(0, 1) for _ in range(inst.secret_len))
        for pos, forced in (inst.fixed_bits or {}).items():
            z = z[: pos - 1] + (forced,) + z[pos:]
    run = run_adversary(inst, scheme, z)
    doc = {
        "v": 1,
        "instance": inst.name,
        "scheme": args.scheme,
        "secret": "".join(map(str, run.secret)),
        "recovered": "".join(map(str, run.recovered)),
        "exact": run.exact,
        "aux_bits": run.aux_bits,
        "max_ticket_bits": run.max_ticket_bits,
        "transcript": [
            {
                "position": pos,
                "deleted": list(ids),
                "answer": _answer_json(args.scheme, ans),
            }
            for pos, ids, ans in run.transcript
        ],
    }
    _emit(doc, args.out)
    return 0


def _cmd_report(args) -> int:
    records = []
    for path in args.records:
        records.extend(classfiles.load_records(path))
    blob, table = report.emit_report(records)
    if args.out:
        Path(args.out).write_text(blob + "\n")
    else:
        print(blob)
    print(table, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlearn-lab",
        description="Exact unlearning schemes, compression, and dimension computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="compute combinatorial dimensions of a class")
    p.add_argument("class_file")
    p.add_argument("--cap", type=_cap_arg, default=None)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("vs-encode", help="compress a dataset to its version-space encoding")
    p.add_argument("class_file")
    p.add_argument("dataset")
    p.add_argument("--encoding-cap", type=_encoding_cap_arg, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_vs_encode)

    p = sub.add_parser("merge", help="merge two encodings")
    p.add_argument("class_file")
    p.add_argument("encoding_a")
    p.add_argument("encoding_b")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("scheme", help="run a learning-unlearning scheme")
    scheme_sub = p.add_subparsers(dest="scheme_command", required=True)
    pr = scheme_sub.add_parser("run")
    pr.add_argument("--scheme", required=True,
                    choices=["trivial", "trivial-erm", "bounded", "merkle", "chain", "erm-merkle"])
    pr.add_argument("--class", dest="class_file", required=True)
    pr.add_argument("--dataset", required=True)
    pr.add_argument("--queries")
    pr.add_argument("--k", type=_k_arg, default=3)
    pr.add_argument("--encoding-cap", type=_encoding_cap_arg, default=None)
    pr.add_argument("--dim-cap", type=_cap_arg, default=ORACLE_CAP)
    pr.add_argument("--record", help="write the run record for later reports")
    pr.add_argument("--out")
    pr.set_defaults(func=_cmd_scheme_run)

    p = sub.add_parser("lb", help="run a secret-recovery demonstration")
    lb_sub = p.add_subparsers(dest="lb_command", required=True)
    pd = lb_sub.add_parser("demo")
    pd.add_argument("--instance", required=True, choices=list(_INSTANCE_PARAMS))
    pd.add_argument("--params", help="JSON object of instance parameters")
    pd.add_argument("--scheme", default="trivial",
                    choices=["trivial", "trivial-erm", "bounded", "merkle"])
    pd.add_argument("--k", type=_k_arg, default=3)
    pd.add_argument("--secret")
    pd.add_argument("--out")
    pd.set_defaults(func=_cmd_lb_demo)

    p = sub.add_parser("report", help="merge scheme-run records into a report")
    p.add_argument("records", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, PreconditionError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
