"""In-memory spans around calls into fourshift's public functions.

`Tracer.install` replaces each traced function with a wrapper in every
fourshift module that bound it (a module that ran `from .x import f` holds
its own reference, so patching the defining module alone would miss those
calls), and replaces traced methods on their class.  `Tracer.uninstall`
puts every original back, so code run afterwards is unmodified.

A span is (operation id, span id, parent id, name, start ns, end ns).  Its
self time is its duration minus the time its child spans cover; calls run
on one thread, so children never overlap and their durations simply add.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

INSTRUCTION_TAGS = {"Particle": "P", "SymbolPerm": "SYM", "HeadLocal": "HL",
                    "HeadShift": "HS", "SafeRewrite": "SR"}

# (module, function) pairs wrapped in a span, in every module that binds them
SPAN_FUNCTIONS = (
    ("core", "validate_tuple"),
    ("safety", "occurrences"),
    ("safety", "chi_sites"),
    ("safety", "apply_safe_rewrite"),
    ("safety", "head_shift_once"),
    ("generators", "apply_instruction"),
    ("generators", "invert_word"),
    ("permbuild", "build_mapping_perm"),
    ("transporter", "make_good"),
    ("transporter", "make_great"),
    ("transporter", "make_canonical"),
    ("transporter", "verify"),
    ("transporter", "transport"),
    ("serial", "emit_word"),
    ("serial", "parse_word"),
    ("serial", "parse_tuple"),
    ("orbitperm", "orbit_permutation_instruction"),
)
# (module, class, method) wrapped in a span on the class
SPAN_METHODS = (
    ("core", "Config", "from_cells"),
    ("permbuild", "WordPerm", "apply"),
)
# (module, class, method) that only count calls: too many for spans
COUNTED_METHODS = (
    ("core", "Config", "sym"),
)

# The per-layer metrics of a traced run, with their units.
PER_LAYER = (
    [("safety.head_shift_once.calls", "count"),
     ("safety.head_shift_once.s", "s"),
     ("safety.apply_safe_rewrite.calls", "count"),
     ("safety.apply_safe_rewrite.self_s", "s"),
     ("safety.apply_safe_rewrite.noop_ratio", "ratio"),
     ("core.Config.sym.calls", "count"),
     ("safety.occurrences.calls", "count"),
     ("safety.occurrences.s", "s"),
     ("safety.chi_sites.calls", "count"),
     ("safety.chi_sites.s", "s")]
    + [(f"generators.apply.{tag}.{what}", unit)
       for tag in INSTRUCTION_TAGS.values()
       for what, unit in (("calls", "count"), ("s", "s"))]
    + [("generators.HeadShift.distance", "cells"),
       ("generators.HeadLocal.radius_max", "cells"),
       ("generators.invert_word.s", "s"),
       ("permbuild.WordPerm.apply.calls", "count"),
       ("permbuild.WordPerm.apply.s", "s"),
       ("permbuild.build_mapping_perm.calls", "count"),
       ("permbuild.build_mapping_perm.s", "s"),
       ("permbuild.build_mapping_perm.pairs", "count")]
    + [(f"transporter.{f}.s", "s")
       for f in ("make_good", "make_great", "make_canonical", "verify")]
    + [("transporter.transport.self_s", "s")]
    + [(f"serial.{f}.s", "s")
       for f in ("emit_word", "parse_word", "parse_tuple")]
    + [("orbitperm.orbit_permutation_instruction.s", "s"),
       ("core.Config.from_cells.calls", "count"),
       ("core.Config.from_cells.s", "s"),
       ("core.validate_tuple.s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.op = 0  # id of the operation now running
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._undo: list[tuple] = []  # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        """`name` is a span name, or a function of the call's arguments
        returning one; `after(args, result)` records counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            frame = [self._next_id, 0]
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((self.op, frame[0], parent,
                              fixed or name(args), start, end, frame[1]))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (used for each operation)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _after_rewrite(self, args, result):
        if result is args[0] or result == args[0]:
            self.counts["safety.apply_safe_rewrite.noop"] += 1

    def _after_instruction(self, args, result):
        ins = args[1]
        tag = INSTRUCTION_TAGS.get(type(ins).__name__)
        if tag == "HS":
            self.counts["generators.HeadShift.distance"] += abs(ins.e)
        elif tag == "HL":
            key = "generators.HeadLocal.radius_max"
            self.maxima[key] = max(self.maxima[key], ins.r)

    def _after_mapping(self, args, result):
        self.counts["permbuild.build_mapping_perm.pairs"] += len(args[0])

    # -- patching ----------------------------------------------------------

    def install(self, fs) -> None:
        """Patch the modules of `fs` (as returned by load_fourshift)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = sys.modules[fs.core.__name__.rsplit(".", 1)[0]]
        modules = [package] + [m for m in sys.modules.values()
                               if getattr(m, "__name__", "").startswith(
                                   package.__name__ + ".")]
        after = {"apply_safe_rewrite": self._after_rewrite,
                 "apply_instruction": self._after_instruction,
                 "build_mapping_perm": self._after_mapping}
        for mod_name, fn_name in SPAN_FUNCTIONS:
            original = getattr(getattr(fs, mod_name), fn_name)
            if fn_name == "apply_instruction":
                name = _instruction_span_name
            else:
                name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, original, after.get(fn_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for mod_name, cls_name, meth in SPAN_METHODS + COUNTED_METHODS:
            cls = getattr(getattr(fs, mod_name), cls_name)
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            key = f"{mod_name}.{cls_name}.{meth}"
            if (mod_name, cls_name, meth) in COUNTED_METHODS:
                wrapper = self._counter(key + ".calls", fn)
            else:
                wrapper = self._wrap(key, fn)
            self._set(cls, meth, staticmethod(wrapper) if is_static else wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _, _, _, name, start, end, child in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child) / 1e9
        return dict(out)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every metric of PER_LAYER, from the spans and counts recorded."""
        totals = self.layer_totals()
        values: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            layer, _, what = metric.rpartition(".")
            if what in ("calls", "s", "self_s"):
                row = totals.get(layer)
                values[metric] = row[what] if row else (
                    self.counts[metric] if what == "calls" else 0.0)
            elif metric in self.maxima:
                values[metric] = self.maxima[metric]
            else:
                values[metric] = self.counts[metric]
        rewrites = values["safety.apply_safe_rewrite.calls"]
        values["safety.apply_safe_rewrite.noop_ratio"] = (
            self.counts["safety.apply_safe_rewrite.noop"] / rewrites
            if rewrites else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write(self, path: Path) -> None:
        """One JSON array per span: op, id, parent, name, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for op, sid, parent, name, start, end, _ in self.spans:
                fh.write(json.dumps([op, sid, parent, name, start, end]) + "\n")


def _instruction_span_name(args) -> str:
    return "generators.apply." + INSTRUCTION_TAGS.get(
        type(args[1]).__name__, type(args[1]).__name__)
