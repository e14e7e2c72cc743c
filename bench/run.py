#!/usr/bin/env python3
"""Seeded closed-loop benchmark of fourshift: one client, one thread.

    python3 bench/run.py --workload transport-small --seed 1 --seconds 30
    python3 bench/run.py --workload all --seed 1   # every workload, one process
    python3 bench/run.py --workload replay --seed 1 --trace 1

With `--trace 0` a run times each operation for `--seconds` seconds and
prints the end-to-end metrics.  Times are given at reference speed (see
REFERENCE_S); the report also shows them unscaled, with fail_ratio,
hl_radius_max and word lengths by tuple size.  With `--trace 1` it runs a
fixed number of operations twice, plain and then with spans around every
call into the package's layers, and prints the per-layer metrics.

Every output is checked by the benchmark itself.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is 1 when an operation failed and 2 when the
package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracing import PER_LAYER, Tracer
from workloads import (SRC, WORKLOADS, input_hash, iter_inputs,
                       load_fourshift)

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# Times are reported at reference speed: scaled by REFERENCE_S over the
# time of reference_work() measured beside them.  Other tenants of the host
# change its speed by up to 1.7x over seconds to minutes; across seeds the
# scaled times spread a quarter to a third as much as raw ones.  REFERENCE_S is
# reference_work()'s time on an idle 2.1 GHz Xeon core.
REFERENCE_S = 4e-4
REFERENCE_WINDOW = 8  # operations on each side whose reference times count
SEGMENT_S = 0.05  # set-up time between two timings of the reference work
# Fallbacks for a workload's tail percentile when a run is short.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
TRACE_DIR = Path(__file__).resolve().parent / "out"

# The modules under src/fourshift whose line counts are reported one by one.
SRC_MODULES = ("__init__", "analysis", "cli", "core", "generators",
               "orbitperm", "permbuild", "reset", "safety", "serial",
               "transporter")
SRC_LINES = [("src.lines", "lines")] + [
    (f"src.lines.{m}", "lines") for m in SRC_MODULES]

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("word_instructions", "count"),
    ("word_bytes", "bytes"),
)


def reference_work() -> int:
    """Fixed pure-Python work in the package's style (tuples, dicts,
    sorting, string joins) that uses nothing of the package."""
    cells = {}
    for i in range(400):
        cells[(i * 7919) % 1000 - 500] = i % 3 + 1
    row = tuple(sorted(cells.items()))
    return len({"".join(str(s) for _, s in row[j:j + 8])
                for j in range(0, len(row), 3)})


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(times: list[float], ref: list[float]) -> list[float]:
    """Each time at reference speed: times REFERENCE_S over the median
    reference time measured around it."""
    w = REFERENCE_WINDOW
    return [t * REFERENCE_S / statistics.median(ref[max(0, i - w):i + w + 1])
            for i, t in enumerate(times)]


def setup(wl, seed: int):
    """Import the package and build the input pool, SETUP_REPEATS times;
    returns the last (modules, inputs) and the median set-up time at
    reference speed.  Set-up is timed in segments of about SEGMENT_S, with
    the reference work after each, since one set-up can take seconds."""
    totals = []
    for _ in range(SETUP_REPEATS):
        segments, ref, items = [], [], []
        start = time.perf_counter()
        fs = load_fourshift()
        for item in iter_inputs(wl, seed, fs):
            items.append(item)
            if time.perf_counter() - start >= SEGMENT_S:
                segments.append(time.perf_counter() - start)
                ref.append(reference_time())
                start = time.perf_counter()
        segments.append(time.perf_counter() - start)
        ref.append(reference_time())
        totals.append(sum(scale(segments, ref)))
    return fs, items, statistics.median(totals)


def run_checked(wl, fs, item):
    """Run one operation, timed, then check its output, untimed.  Returns
    (seconds, outcome or None); an exception counts as a failure."""
    start = time.perf_counter()
    try:
        out = wl.run(fs, item)
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(fs, item, out)
    except Exception:  # noqa: BLE001 - as above
        traceback.print_exc(file=sys.stderr)
        return elapsed, None


def tail_latency(lat: list[float], percentile: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it), nearest-rank.  Falls back to
    the highest of TAIL_PERCENTILES below `percentile` that still has ten
    samples beyond it when a run is too short for `percentile`."""
    ordered = sorted(lat)
    n = len(ordered)
    ladder = [percentile] + [p for p in TAIL_PERCENTILES if p < percentile]
    for p in ladder:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            break
    return p, ordered[rank - 1], n - rank


def word_stats(outcomes) -> dict:
    """Word-size summary of the checked words, and lengths by tuple size."""
    by_k = defaultdict(list)
    radius = 0
    for item, outcome in outcomes:
        steps = outcome.word.steps
        by_k[len(item.data[0])].append(len(steps))
        radius = max([radius] + [s.r for s in steps
                                 if type(s).__name__ == "HeadLocal"])
    return {
        "word_instructions": statistics.mean(
            len(o.word.steps) for _, o in outcomes),
        "word_bytes": statistics.mean(
            len(o.text.encode()) for _, o in outcomes),
        "hl_radius_max": radius,
        "by_k": {k: (min(v), statistics.median(v), max(v))
                 for k, v in sorted(by_k.items())},
    }


def src_lines() -> dict[str, int]:
    """`src.lines` over every module, and one metric per module listed in
    SRC_MODULES (0 once a module is gone)."""
    found = {p.stem: len(p.read_text().splitlines())
             for p in (SRC / "fourshift").glob("*.py")}
    out = {"src.lines": sum(found.values())}
    out.update({f"src.lines.{m}": found.get(m, 0) for m in SRC_MODULES})
    return out


def measure(wl, seed: int, seconds: float) -> dict:
    """Closed loop for `seconds` (and at least wl.word_sample operations),
    with the reference work timed after each operation."""
    fs, items, setup_s = setup(wl, seed)
    raw, ref, failed, sample = [], [], 0, []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(raw) < wl.word_sample:
        item = items[len(raw) % len(items)]
        elapsed, outcome = run_checked(wl, fs, item)
        raw.append(elapsed)
        ref.append(reference_time())
        if outcome is None or not outcome.ok:
            failed += 1
        elif len(sample) < wl.word_sample:
            sample.append((item, outcome))
    lat = scale(raw, ref)
    attempted = len(lat)
    p_tail, v_tail, beyond = tail_latency(lat, wl.tail_percentile)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": v_tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = [
        f"inputs: pool {len(items)}, hash {input_hash(items)}",
        f"unscaled: ops_per_s {len(raw) / sum(raw):.6g} 1/s, latency_p50_ms "
        f"{statistics.median(raw) * 1e3:.6g} ms; reference work "
        f"{statistics.median(ref) * 1e3:.4g} ms against {REFERENCE_S * 1e3:g}",
        f"latency_tail_ms is p{p_tail:g}: {beyond} of {len(lat)} samples beyond it",
        f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})",
    ]
    if sample:
        words = word_stats(sample)
        metrics["word_instructions"] = words["word_instructions"]
        metrics["word_bytes"] = words["word_bytes"]
        report.append(f"hl_radius_max {words['hl_radius_max']} cells")
        report.append(f"word metrics over the first {len(sample)} words; "
                      "length by k (min median max):")
        report += [f"  k={k}: {lo} {mid:g} {hi}"
                   for k, (lo, mid, hi) in words["by_k"].items()]
    return dict(attempted=attempted, failed=failed, metrics=metrics,
                units=dict(END_TO_END), report=report)


def trace(wl, seed: int) -> dict:
    """The first wl.trace_ops operations plain, then traced; the traced
    outputs are checked after the tracer is removed."""
    fs, items, _ = setup(wl, seed)
    ops = items[:wl.trace_ops]
    plain = sum(run_checked(wl, fs, item)[0] for item in ops)

    tracer = Tracer()
    outs = []
    try:
        tracer.install(fs)
        start = time.perf_counter()
        for op, item in enumerate(ops):
            tracer.op = op
            try:
                outs.append(tracer.span("bench.op", wl.run, fs, item))
            except Exception:  # noqa: BLE001 - counted below
                traceback.print_exc(file=sys.stderr)
                outs.append(None)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()

    failed = 0
    for item, out in zip(ops, outs):
        try:
            ok = out is not None and wl.check(fs, item, out).ok
        except Exception:  # noqa: BLE001 - counted as a failure
            traceback.print_exc(file=sys.stderr)
            ok = False
        failed += not ok
    metrics = tracer.metrics(traced / plain)
    metrics.update(src_lines())
    path = TRACE_DIR / f"trace-{wl.name}-{seed}.jsonl"
    tracer.write(path)
    units = dict(PER_LAYER + SRC_LINES)
    report = [f"inputs: first {len(ops)} of pool {len(items)}, "
              f"hash {input_hash(items)}",
              f"spans: {len(tracer.spans)} written to {path}"]
    return dict(attempted=len(ops), failed=failed, metrics=metrics,
                units=units, report=report)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    print(f"== {wl.name}  seed {seed}  "
          + ("traced" if traced else f"{seconds:g} s") + " ==")
    print(f"why: {wl.why}")
    print("params: " + ", ".join(f"{k}={v}" for k, v in wl.params.items()))
    result = trace(wl, seed) if traced else measure(wl, seed, seconds)
    for line in result["report"]:
        print(line)
    for metric, value in result["metrics"].items():
        print(f"{metric} {value:.6g} {result['units'][metric]}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_fourshift()
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    failed = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        failed += result["failed"]
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": v, "unit": result["units"][m]}
                        for m, v in result["metrics"].items()},
        }), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
