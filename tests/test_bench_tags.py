"""The benchmark's tracer keys its per-instruction metrics on class names:
every instruction class of `OPS` must carry the tag the tracer expects, or
a renamed class would silently report zero calls for its layer."""

import importlib.util
from pathlib import Path

from fourshift.generators import OPS

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_instruction_tags_match_ops():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert {cls.__name__: op for op, cls in OPS.items()} == \
        tracing.INSTRUCTION_TAGS
