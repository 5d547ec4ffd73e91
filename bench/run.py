"""Benchmark of the unlearn_lab library, driven from outside through its public API.

Usage (from the root of a checkout):

    python3 bench/run.py --workload tree-stream|dims-finite|halfspace|all \
        --seed N --seconds S --trace 0|1

Workloads (a closed loop, one client, one thread; see workloads.py):

- tree-stream  Merkle and ERM-Merkle schemes, n=16,384, deletion queries
               of 1-4 items, deletion rounds with relearning in between.
- dims-finite  compute_dims(witnesses=True) over thresholds_1d(8),
               parity_class(3) and five seeded random classes with m=8.
- halfspace    run_adversary over all 64 secrets of the simplex-face
               family (d=4, k=2) with the bounded and Merkle schemes, a
               capped bounded budget, and the dimensions of four 3-D point sets.

With --trace 0 a run repeats the workload's job list (one pass) while the
next pass still fits in S seconds, at least once, building fresh inputs
for each pass. wall_s sums, over the job list, each job's fastest time
across passes, which filters the slow spells of a shared CPU (see
harness.fastest_pass); setup_s is the median of the run's set-ups, one
per pass. With --trace 1 it runs untraced and traced passes in turn and
reports per-layer numbers from spans the benchmark records around its
own calls into each module, plus work each workload runs only when
traced (`probe`); spans go to bench/out/. Every answer is checked against
a reference after the timed region. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs each workload in a fresh interpreter and prints
their results in turn.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from statistics import median

from harness import (
    ROOT,
    Stopwatch,
    Tally,
    Tracer,
    checkout_src,
    fastest_pass,
    layer_share,
    self_times,
    span_totals,
)

TRACED_PASSES = 3
# Span layers. geometry has no `.calls`: its only span in a pass is the
# oracle proxy's, so that equals geometry.oracle_calls. compression is
# called only inside the schemes, so its spans come from the traced-only
# probe of tree-stream.
LAYERS = (
    "core", "compression", "dimensions", "schemes_central", "schemes_ticketed",
    "geometry", "instances", "report",
)
COUNTS = (
    "core.vs_mask_calls", "geometry.oracle_calls", "geometry.oracle_distinct",
    "schemes_central.critical_sets", "schemes_ticketed.max_ticket_bits",
)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float) -> tuple[Tally, dict, list]:
    """Untraced run: repeat passes while the next one fits in `seconds`."""
    tally = Tally(known=wl.known)
    off = Tracer(False)
    setup_s, laps, summaries, first = [], [], [], None
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        inp = wl.setup(seed, off, counting=False)
        setup_s.append(time.perf_counter() - p0)
        sw = Stopwatch()
        out = wl.run(inp, off, sw)
        wl.check(inp, out, tally)
        digest = wl.digest(out)
        if first is None:
            first = digest
        else:
            tally.require(digest == first, "repeat")
        laps.append(sw.laps)
        summaries.append(wl.summary(out))
        del inp, out
        now = time.perf_counter()
        if now - start + (now - p0) > seconds:
            break
    walls = [sum(p) for p in laps]
    metrics = {
        "setup_s": _metric(median(setup_s), "s"),
        "wall_s": _metric(fastest_pass(laps), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    rows = [
        ("passes", len(walls), "count", len(walls)),
        ("setup_s", median(setup_s), "s", len(setup_s)),
        ("setup_min_s", min(setup_s), "s", len(setup_s)),
        ("wall_s", fastest_pass(laps), "s", len(walls)),
        ("pass_median_s", median(walls), "s", len(walls)),
        *wl.report(summaries, walls),
        ("failed_frac", tally.failed_frac, "1", tally.attempted),
        ("peak_rss_mb", _peak_rss_mb(), "MB", 1),
    ]
    return tally, metrics, rows


def traced(wl, seed: int) -> tuple[Tally, dict, list, Tracer]:
    """Untraced and traced passes in turn; per-layer numbers from the first traced pass."""
    tally = Tally(known=wl.known)
    off = Tracer(False)
    tracer = Tracer(True)
    plain_laps, laps, counts, base = [], [], [], None
    for k in range(TRACED_PASSES):
        inp = wl.setup(seed, off, counting=False)
        sw = Stopwatch()
        out = wl.run(inp, off, sw)
        wl.check(inp, out, tally)
        plain_laps.append(sw.laps)
        if base is None:
            base, out0 = wl.digest(out), out
        else:
            tally.require(wl.digest(out) == base, "repeat")
        del inp, out

        tracer.run = f"setup-{k}"
        inp = wl.setup(seed, tracer, counting=True)
        tracer.run = f"pass-{k}"
        sw = Stopwatch()
        out = wl.run(inp, tracer, sw)
        wl.check(inp, out, tally)
        tally.require(wl.digest(out) == base, "traced-answers")
        laps.append(sw.laps)
        counts.append(wl.counts(inp, out))
        del inp, out
    tally.require(all(c == counts[0] for c in counts), "count-repeat")
    tracer.run = "probe"
    with tracer.span("job.probe"):
        wl.probe(seed, tracer, out0, tally)

    spans = [s for s in tracer.spans if s.run == "pass-0"]
    probe_spans = [s for s in tracer.spans if s.run == "probe"]
    selfs = self_times(spans)
    metrics = {name: _metric(counts[0].get(name, 0), "count") for name in COUNTS}
    metrics["schemes_ticketed.max_ticket_bits"]["unit"] = "bits"
    for layer in LAYERS:
        mine, share = layer_share(probe_spans if layer == "compression" else spans, layer)
        if layer != "geometry":
            metrics[f"{layer}.calls"] = _metric(mine, "count")
        metrics[f"{layer}.self_pct"] = _metric(share, "%")
    traced_wall, plain_wall = fastest_pass(laps), fastest_pass(plain_laps)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    metrics["bench.self_s"] = _metric(
        sum(selfs[s.id] for s in spans if s.layer == "job"), "s"
    )
    rows = [
        ("untraced.wall_s", plain_wall, "s", len(plain_laps)),
    ]
    shown = [s for s in tracer.spans if s.run in ("setup-0", "pass-0", "probe")]
    for name, (n, tot, own) in sorted(span_totals(shown).items()):
        rows.append((f"{name}_s", tot, "s", n))
        rows.append((f"{name}_self_s", own, "s", n))
    return tally, metrics, rows, tracer


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        src = checkout_src()
    except FileNotFoundError as exc:
        print(f"bench: {exc}; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import unlearn_lab

    if not unlearn_lab.__file__.startswith(str(src)):
        print(f"bench: imported unlearn_lab from {unlearn_lab.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    if args.trace:
        tally, metrics, rows, tracer = traced(wl, args.seed)
        path = ROOT / "bench" / "out" / f"trace-{wl.name}-{args.seed}.json"
        tracer.write(path)
        rows += [(name, m["value"], m["unit"], 1) for name, m in metrics.items()]
        rows.append(("spans_file", str(path.relative_to(ROOT)), "", len(tracer.spans)))
    else:
        tally, metrics, rows = measure(wl, args.seed, args.seconds)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} python={sys.version.split()[0]}")
    for name, value, unit, n in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:44s} {shown:>14s} {unit:6s} n={n}")
    if tally.failures:
        print("failures:", dict(sorted(tally.failures.items())))
    if tally.broken:
        print("broken invariants:", tally.broken)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
