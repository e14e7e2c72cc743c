"""Tests of the benchmark harness itself: seeded inputs, metric names,
span nesting, patch removal and the independent output checks."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module", autouse=True)
def keep_package_modules():
    """The harness re-imports the package; give the rest of the test
    session back the modules it imported."""
    saved = {k: v for k, v in sys.modules.items()
             if k == workloads.PACKAGE or k.startswith(workloads.PACKAGE + ".")}
    yield
    for k in [k for k in sys.modules
              if k == workloads.PACKAGE or k.startswith(workloads.PACKAGE + ".")]:
        del sys.modules[k]
    sys.modules.update(saved)


@pytest.fixture(scope="module")
def fs():
    return workloads.load_fourshift()


def small(name: str, pool: int, **kw) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], pool_size=pool, **kw)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(fs, name):
    wl = small(name, 3)
    first = workloads.make_inputs(wl, 11, fs)
    again = workloads.make_inputs(wl, 11, fs)
    other = workloads.make_inputs(wl, 12, fs)
    assert [i.raw for i in first] == [i.raw for i in again]
    assert workloads.input_hash(first) == workloads.input_hash(again)
    assert workloads.input_hash(first) != workloads.input_hash(other)


def test_input_generation_is_pinned(fs):
    """A change to how inputs are generated changes this digest."""
    items = workloads.make_inputs(small("transport-small", 20), 1, fs)
    assert workloads.input_hash(items) == "788ff60a728da944"


def test_inputs_follow_the_parameters(fs):
    for name in ("transport-small", "orbit-permute"):
        wl = small(name, 12)
        p = wl.params
        for i, item in enumerate(workloads.make_inputs(wl, 3, fs)):
            t = item.data[0]
            assert len(t) == p["k"][0] + i % (p["k"][1] - p["k"][0] + 1)
            for c in t:
                assert 1 <= len(c.cells) <= p["max_cells"]
                assert all(abs(q) <= p["span"][1] for q, _ in c.cells)
            if name == "orbit-permute":
                beta = item.data[1]
                assert sorted(beta) == list(range(len(t)))
                assert workloads._parity(list(beta)) == 0


def test_metric_names():
    names = ([m for m, _ in bench_run.END_TO_END]
             + [m for m, _ in tracing.PER_LAYER]
             + [m for m, _ in bench_run.SRC_LINES])
    assert len(names) == len(set(names))
    for m in names:
        assert NAME.fullmatch(m) and len(m) <= 64, m


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER) + list(bench_run.SRC_LINES)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_spans_nest_and_patches_come_off(fs):
    wl = small("transport-small", 4)
    items = workloads.make_inputs(wl, 5, fs)
    before = {(m, f): getattr(getattr(fs, m), f)
              for m, f in tracing.SPAN_FUNCTIONS}
    bound_in_transporter = fs.transporter.invert_word
    sym = fs.core.Config.__dict__["sym"]
    from_cells = fs.core.Config.__dict__["from_cells"]

    tracer = tracing.Tracer()
    tracer.install(fs)
    try:
        # transporter bound its own reference at import; it is patched too
        assert fs.transporter.invert_word is not bound_in_transporter
        assert fs.transporter.invert_word is fs.generators.invert_word
        for op, item in enumerate(items):
            tracer.op = op
            tracer.span("bench.op", wl.run, fs, item)
    finally:
        tracer.uninstall()

    assert {(m, f): getattr(getattr(fs, m), f)
            for m, f in tracing.SPAN_FUNCTIONS} == before
    assert fs.transporter.invert_word is bound_in_transporter
    assert fs.core.Config.__dict__["sym"] is sym
    assert fs.core.Config.__dict__["from_cells"] is from_cells

    spans = {s[1]: s for s in tracer.spans}
    assert len(spans) == len(tracer.spans)
    roots = [s for s in tracer.spans if s[2] is None]
    assert [s[3] for s in roots] == ["bench.op"] * len(items)
    for op, sid, parent, name, start, end, child in tracer.spans:
        assert start <= end
        assert 0 <= child <= end - start  # self time is never negative
        if parent is not None:
            p = spans[parent]
            assert p[0] == op
            assert p[4] <= start and end <= p[5]
    totals = tracer.layer_totals()
    assert all(row["self_s"] >= 0 for row in totals.values())
    assert totals["transporter.transport"]["calls"] == len(items)
    assert totals["safety.head_shift_once"]["calls"] > 0
    assert tracer.counts["core.Config.sym.calls"] > 0


def test_traced_counts_repeat(fs, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_run, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    wl = small("transport-small", 5, trace_ops=5)
    first = bench_run.trace(wl, 2)
    second = bench_run.trace(wl, 2)
    assert first["failed"] == second["failed"] == 0
    calls = {m: v for m, v in first["metrics"].items()
             if m.endswith((".calls", ".distance", ".pairs"))}
    assert calls == {m: second["metrics"][m] for m in calls}
    assert set(first["metrics"]) == {m for m, _ in tracing.PER_LAYER} | \
        {m for m, _ in bench_run.SRC_LINES}
    assert (tmp_path / f"trace-{wl.name}-2.jsonl").exists()


def test_orbit_permute_bypasses_head_shift(fs, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_run, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    wl = small("orbit-permute", 4, trace_ops=4)
    m = bench_run.trace(wl, 1)["metrics"]
    assert m["safety.head_shift_once.calls"] == 0
    assert m["safety.occurrences.calls"] > 0
    assert m["transporter.transport.self_s"] == 0


def test_checker_rejects_a_dropped_step(fs):
    """Dropping a step that acts on src must fail the check, whether the
    step is missing from the word, from its word file, or from both."""
    wl = small("transport-small", 10)
    item = workloads.make_inputs(wl, 4, fs)[-1]
    word, text = wl.run(fs, item)
    assert wl.check(fs, item, (word, text)).ok
    src, dst = item.data
    steps = json.loads(text)
    rejected = 0
    for i in range(len(word.steps)):
        bad = fs.generators.TransportWord(word.steps[:i] + word.steps[i + 1:])
        if fs.generators.apply_word(src, bad) == dst:
            continue  # this step happens to act trivially on src
        bad_text = json.dumps(steps[:i] + steps[i + 1:])
        assert not wl.check(fs, item, (bad, bad_text)).ok
        assert not wl.check(fs, item, (word, bad_text)).ok
        assert not wl.check(fs, item, (bad, text)).ok
        rejected += 1
    assert rejected > 0


def test_failed_operations_are_counted(fs, monkeypatch):
    wl = small("transport-small", 4, word_sample=4)
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)

    def broken_run(fs_, item):  # the empty word leaves src where it is
        bad = fs_.generators.TransportWord()
        return bad, fs_.serial.emit_word(bad)

    result = bench_run.measure(dataclasses.replace(wl, run=broken_run), 1, 0)
    assert result["attempted"] == 4
    assert result["failed"] == 4


def test_scaling_cancels_host_speed():
    raw = [0.010, 0.012, 0.030, 0.011]
    ref = [0.0005, 0.0004, 0.0006, 0.0005]
    at_speed = bench_run.scale(raw, ref)
    slower = bench_run.scale([t * 1.7 for t in raw], [r * 1.7 for r in ref])
    assert slower == pytest.approx(at_speed)
    assert bench_run.scale([0.01], [bench_run.REFERENCE_S]) == \
        pytest.approx([0.01])


def test_tail_percentile_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1000)]
    assert bench_run.tail_latency(lat, 99) == (99, 989.0, 10)
    assert bench_run.tail_latency(lat, 95) == (95, 949.0, 50)
    p, _, beyond = bench_run.tail_latency(lat[:999], 99)
    assert (p, beyond) == (95.0, 49)
    p, _, beyond = bench_run.tail_latency([1.0] * 5, 99)
    assert p == 50.0 and beyond < 10
