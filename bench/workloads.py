"""Seeded inputs, operations and output checks for the benchmark workloads.

The generator repeats the distribution of the test suite's `rand_tuple`
(uniform cell count, position and symbol; retry until the components lie
in pairwise distinct orbits) without importing the test suite.  Tuple
sizes are cycled rather than drawn, so every prefix of an input pool holds
the same mix of k; that keeps runs with different seeds comparable.

fourshift is imported here through `load_fourshift`, which imports it
afresh each time it is called, so set-up time can be measured more than
once in one process.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = "fourshift"
MODULES = ("core", "safety", "permbuild", "generators", "transporter",
           "orbitperm", "serial")


def load_fourshift() -> SimpleNamespace:
    """Import the package from this checkout's `src/`, dropping any copy
    imported before, and return its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    fs = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                            for m in MODULES})
    if SRC not in Path(fs.core.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was imported from {fs.core.__file__}, "
                          f"not from {SRC}")
    return fs


# --- the seeded generator ---------------------------------------------------

def rand_config(rng: random.Random, fs, span: int, max_cells: int):
    """Up to max_cells nonzero cells in [-span, span]; never the zero point."""
    while True:
        cells = {rng.randrange(-span, span + 1): rng.randrange(1, 4)
                 for _ in range(rng.randrange(1, max_cells + 1))}
        if cells:
            return fs.core.Config.from_cells(cells)


def rand_tuple(rng: random.Random, fs, k: int, span: int, max_cells: int):
    """k nonzero configurations from pairwise distinct shift orbits."""
    while True:
        comps = tuple(rand_config(rng, fs, span, max_cells) for _ in range(k))
        try:
            return fs.core.validate_tuple(comps)
        except fs.core.DomainError:
            continue


def rand_even_perm(rng: random.Random, k: int) -> tuple[int, ...]:
    """A uniform even permutation of range(k), k >= 2: swapping the first
    two images maps the odd permutations one-to-one onto the even ones."""
    img = list(range(k))
    rng.shuffle(img)
    if _parity(img):
        img[0], img[1] = img[1], img[0]
    return tuple(img)


def _parity(img: list[int]) -> int:
    """1 for an odd permutation; the benchmark's own, so that its inputs
    do not depend on the code under test."""
    seen = [False] * len(img)
    odd = 0
    for start in range(len(img)):
        n, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = img[i]
            n += 1
        odd ^= max(n - 1, 0) & 1
    return odd


def input_hash(items: list) -> str:
    """Digest of the raw cells of every generated tuple (and permutation),
    independent of the package's own text formats."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item.raw, separators=(",", ":")).encode())
    return h.hexdigest()[:16]


# --- workloads --------------------------------------------------------------

@dataclass
class Item:
    """One operation's input; `raw` is its plain-data form for hashing."""

    raw: Any
    data: tuple


@dataclass(frozen=True)
class Outcome:
    """A checked operation: whether every check held, and the word it
    carried with the word file's text."""

    ok: bool
    word: Any
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    pool_size: int
    # operations whose words feed the word metrics; a run never stops before
    # it has done this many, so those metrics are fixed for a given seed
    word_sample: int
    # operations of the traced run; fixed, so per-layer counts repeat
    trace_ops: int
    # the highest percentile that keeps ten samples beyond it in a run of the
    # benchmark's length at the commit that set it, even with the host at its
    # slowest; fixed so the metric keeps its meaning when later code runs
    # more or fewer operations
    tail_percentile: float
    make_items: Callable[["Workload", random.Random, SimpleNamespace],
                         Iterator[Item]]
    run: Callable[[SimpleNamespace, Item], Any]
    check: Callable[[SimpleNamespace, Item, Any], Outcome]


def _raw_tuple(t) -> list:
    return [list(map(list, c.cells)) for c in t]


def _transport_items(wl: Workload, rng: random.Random, fs) -> Iterator[Item]:
    p = wl.params
    ks = range(p["k"][0], p["k"][1] + 1)
    for i in range(wl.pool_size):
        k = ks[i % len(ks)]
        span = rng.randint(*p["span"])
        src = rand_tuple(rng, fs, k, span, p["max_cells"])
        dst = rand_tuple(rng, fs, k, span, p["max_cells"])
        yield Item([_raw_tuple(src), _raw_tuple(dst)], (src, dst))


def _transport_run(fs, item: Item):
    """What `fourshift transport` does: build the word, emit the word file."""
    src, dst = item.data
    word = fs.transporter.transport(src, dst)
    return word, fs.serial.emit_word(word)


def _transport_check(fs, item: Item, out) -> Outcome:
    """A transport word is correct when it carries src to dst, its inverse
    carries dst back to src, and its word file replays the same way."""
    src, dst = item.data
    word, text = out
    g = fs.generators
    parsed = fs.serial.parse_word(text)
    ok = (g.apply_word(src, word) == dst
          and g.apply_word(dst, g.invert_word(word)) == src
          # an identical parse replays identically; otherwise replay it
          and (parsed == word or g.apply_word(src, parsed) == dst))
    return Outcome(ok, word, text)


def _orbit_items(wl: Workload, rng: random.Random, fs) -> Iterator[Item]:
    p = wl.params
    ks = range(p["k"][0], p["k"][1] + 1)
    for i in range(wl.pool_size):
        k = ks[i % len(ks)]
        span = rng.randint(*p["span"])
        t = rand_tuple(rng, fs, k, span, p["max_cells"])
        beta = rand_even_perm(rng, k)
        want = fs.core.TupleK(tuple(t[beta.index(j)] for j in range(k)))
        yield Item([_raw_tuple(t), list(beta)], (t, beta, want))


def _orbit_run(fs, item: Item):
    """Build the single-rewrite word for beta, apply it, compare with the
    permuted tuple, apply the inverse and compare with the start."""
    t, beta, want = item.data
    g = fs.generators
    word = g.TransportWord(
        (fs.orbitperm.orbit_permutation_instruction(t, beta),))
    got = g.apply_word(t, word)
    back = g.apply_word(got, g.invert_word(word))
    return word, got == want and back == t


def _orbit_check(fs, item: Item, out) -> Outcome:
    t, _, want = item.data
    word, ok = out
    text = fs.serial.emit_word(word)
    parsed = fs.serial.parse_word(text)
    ok = ok and (parsed == word or
                 fs.generators.apply_word(t, parsed) == want)
    return Outcome(ok, word, text)


def _replay_items(wl: Workload, rng: random.Random, fs) -> Iterator[Item]:
    """transport-small pairs with their word files built here, at set-up."""
    for item in _transport_items(wl, rng, fs):
        src, dst = item.data
        word = fs.transporter.transport(src, dst)
        texts = (fs.serial.emit_tuple(src), fs.serial.emit_tuple(dst),
                 fs.serial.emit_word(word))
        yield Item(item.raw, (src, dst, word, texts))


def _replay_run(fs, item: Item):
    """What `fourshift verify` does after reading its three files."""
    src_text, dst_text, word_text = item.data[3]
    src = fs.serial.parse_tuple(src_text)
    dst = fs.serial.parse_tuple(dst_text)
    word = fs.serial.parse_word(word_text)
    return src, dst, word, fs.transporter.verify(word, src, dst)


def _replay_check(fs, item: Item, out) -> Outcome:
    src0, dst0, _, texts = item.data
    src, dst, word, verified = out
    return Outcome(verified and src == src0 and dst == dst0, word, texts[2])


SMALL = dict(k=(1, 5), span=(5, 5), max_cells=5)

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "transport-small",
        "the acceptance-test and selftest mix: many short transports, where "
        "per-operation overhead and head-shift runs of ~30 steps dominate",
        SMALL, pool_size=2000, word_sample=200, trace_ops=40,
        tail_percentile=95,
        make_items=_transport_items, run=_transport_run,
        check=_transport_check),
    Workload(
        "transport-wide",
        "few long transports with a heavy tail: head-shift distances in the "
        "thousands and head-local windows of hundreds of letters",
        dict(k=(10, 14), span=(30, 40), max_cells=10), pool_size=40,
        word_sample=3, trace_ops=2, tail_percentile=50,
        make_items=_transport_items, run=_transport_run,
        check=_transport_check),
    Workload(
        "orbit-permute",
        "even permutations of k>=5 tuples as one zero-padded rewrite: generic "
        "occurrence scanning, with no head shift, transporter or permbuild",
        dict(k=(5, 8), span=(4, 12), max_cells=4), pool_size=2000,
        word_sample=500, trace_ops=40, tail_percentile=95,
        make_items=_orbit_items, run=_orbit_run, check=_orbit_check),
    Workload(
        "replay",
        "the read path of `fourshift verify`: parse two tuple files and a "
        "word file built at set-up, then replay the word",
        # operations cycle through the pool, so the tail percentile is the
        # highest with ten distinct inputs beyond it, not ten samples
        SMALL, pool_size=400, word_sample=400, trace_ops=60,
        tail_percentile=95,
        make_items=_replay_items, run=_replay_run, check=_replay_check),
)}


def iter_inputs(wl: Workload, seed: int, fs) -> Iterator[Item]:
    """The workload's input pool, one item at a time; the same seed gives
    the same pool."""
    return wl.make_items(wl, random.Random(f"{wl.name}:{seed}"), fs)


def make_inputs(wl: Workload, seed: int, fs) -> list[Item]:
    return list(iter_inputs(wl, seed, fs))
