"""Shared randomized generators, oracles and instruction builders for the
test suite."""

from __future__ import annotations

import json
import random
from collections.abc import Iterable, Sequence

import pytest
from hypothesis import strategies as st

from fourshift.core import (HEAD, PARTICLE, POSITION_LIMIT, WALL, ClassFlags,
                            Config, DomainError, ParseError, PositionOverflow,
                            TupleK, ZeroPoint, digit_cells, isolated,
                            parse_runs, quoted, tracks, validate_tuple)
from fourshift.generators import HeadLocal, head_cells
from fourshift.permbuild import Word, WordPerm, _one_to_one, checked_word, parity
from fourshift.safety import (HEAD_MARKER, SIGMA3_M, SIGMA3_PI_SPEC,
                              SIGMA3_TAU_SPEC, ExplicitWords, IllFormedSpec,
                              Key, NonzeroWords, SafeRewrite,
                              apply_safe_rewrite, chi_sites, head_shift_once)


# --- builders of instructions from pairs in code --------------------------
#
# The package reads its maps from word-file cycles and builds them from
# transport's requested pairs (`permbuild._mapping_perm`) or an orbit
# permutation (`WordPerm._of`); these checked builders of maps listed as
# pairs serve the tests alone, as factories and oracles.

def from_pairs(pairs: Iterable[tuple[Word, Word]], length: int) -> WordPerm:
    """The permutation of windows listed by `pairs`, fixed points
    included, each window checked by `checked_word`."""
    return of_checked([(checked_word(s, length), checked_word(d, length))
                       for s, d in pairs], length)


def of_checked(pairs: Sequence[tuple[Word, Word]], length: int) -> WordPerm:
    """`from_pairs` of words already checked: only the map is checked."""
    images = _one_to_one(pairs)
    if images.keys() != set(images.values()):
        raise DomainError("moved pairs do not form a bijection")
    return WordPerm._of(length, {s: d for s, d in images.items() if s != d})


def perm_of_keys(U: ExplicitWords, pairs: Iterable[tuple[Key, Key]]) -> WordPerm:
    """The permutation of the keys of U listed by key pairs, fixed pairs
    included, each word taken as U holds it; a pair word that is no key
    of U is refused."""
    if not isinstance(U, ExplicitWords):
        raise IllFormedSpec(f"listed words are an ExplicitWords, not {quoted(U)}")
    own = {u: u for u in U.keys}
    try:
        pairs = [(own[s], own[d]) for s, d in pairs]
    except (KeyError, TypeError, ValueError):  # no key of U, or no pair
        raise IllFormedSpec("a pair names a word that is not a key of U") from None
    return of_checked(pairs, U.length)


def make_explicit_spec(U: ExplicitWords,
                       pairs: Iterable[tuple[Key, Key]]) -> SafeRewrite:
    """A rewrite of explicit words U guarded by the head marker, its map
    listed by key pairs."""
    return SafeRewrite(U, HEAD_MARKER, perm_of_keys(U, pairs))


def make_zero_padded_spec(U: ExplicitWords,
                          pairs: Iterable[tuple[Key, Key]]) -> SafeRewrite:
    """Spec for U of shape 0^n w 0^n with V = all nonzero words of length
    n, its map listed by key pairs."""
    pi = perm_of_keys(U, pairs)
    return SafeRewrite(U, NonzeroWords(U.length // 3), pi)


# Up to six nonzero cells, each near one end of the position range or near 0.
edge_cells = st.dictionaries(
    st.integers(-POSITION_LIMIT, 8 - POSITION_LIMIT) | st.integers(-8, 8)
    | st.integers(POSITION_LIMIT - 8, POSITION_LIMIT),
    st.integers(1, 3), max_size=6)


def rand_config(rng: random.Random, span: int = 8, max_cells: int = 5,
                nonzero: bool = True) -> Config:
    """A finite configuration with up to max_cells nonzero cells inside
    [-span, span]."""
    while True:
        cells = {rng.randrange(-span, span + 1): rng.randrange(1, 4)
                 for _ in range(rng.randrange(0 if not nonzero else 1,
                                              max_cells + 1))}
        if cells or not nonzero:
            return Config.from_cells(cells)


def rand_single_head(rng: random.Random, span: int = 8) -> Config:
    """A configuration with exactly one head and otherwise head-free cells."""
    q = rng.randrange(-span, span + 1)
    cells = {q: 3}
    for _ in range(rng.randrange(0, 5)):
        p = rng.randrange(-span, span + 1)
        if p != q:
            cells[p] = rng.randrange(1, 3)
    return Config.from_cells(cells)


def two_rewrite_shift(x: Config, direction: int) -> Config:
    """One step of the simulated shift as the two head-gap safe rewrites,
    TAU then PI for +1 and PI then TAU for -1: the oracle of
    `safety.head_shift_once`."""
    first, second = ((SIGMA3_TAU_SPEC, SIGMA3_PI_SPEC) if direction == 1
                     else (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC))
    return apply_safe_rewrite(apply_safe_rewrite(x, first), second)


def letter_rule(tag: str, w: str) -> str:
    """The head-gap rule `tag` on a letter word of SIGMA3_LEN letters: PI
    keeps the letter left of the head, TAU the letter right of it.  One
    head and that letter a become heads a + 1 apart; two heads become one
    beside the letter that counts the gap between them.  The oracle of
    `RuleWordMap.apply`, which maps word keys."""
    left, m = tag == "SIGMA3_PI", SIGMA3_M
    heads = [i for i, c in enumerate(w) if c == "3"]
    if len(heads) == 1:  # one head: encode the kept letter as a gap
        a, v = int(w[m] if left else w[m + 1]), w[m + 2:]
        return w[:m] + "3" + v[:a] + "3" + v[a:]
    j = str(heads[1] - m - 1)  # two heads: decode the gap back to a letter
    v = w[m + 1:heads[1]] + w[heads[1] + 1:]
    return w[:m] + (j + "3" if left else "3" + j) + v


def string_rewrite(x: Config, spec) -> Config:
    """The safe rewrite `spec` on letters, its map read from its word-file
    object: its cycles as letter pairs, each word read by `line_letters`,
    or `letter_rule` for a rule name.  At each chi site i the block
    `sym_window(x, range(i, i + k))` is mapped and its image written back
    as `digit_cells`.  The oracle of the key route of
    `safety.apply_safe_rewrite`."""
    rule, k = spec.to_obj()["map"], spec.k
    pairs = {} if isinstance(rule, str) else {
        line_letters(c[i - 1], k): line_letters(c[i], k)
        for c in rule for i in range(len(c))}

    def image(w):
        return letter_rule(rule, w) if isinstance(rule, str) else pairs.get(w, w)

    sites = sorted(chi_sites(x, spec))
    if not sites:
        return x
    return x.overwrite(
        (i, i + k, digit_cells(i, image(sym_window(x, range(i, i + k)))))
        for i in sites)


def line_letters(line: str, k: int) -> str:
    """The k-letter word of a run line written from its first letter."""
    return sym_window(Config.from_cells(parse_runs(line)), range(k))


def string_shift(x: Config, direction: int) -> Config:
    """`two_rewrite_shift` with each rewrite by `string_rewrite`."""
    for spec in (SIGMA3_TAU_SPEC, SIGMA3_PI_SPEC)[::direction]:
        x = string_rewrite(x, spec)
    return x


def stepwise_head_shift(x: Config, e: int) -> Config:
    """HeadShift(e) as |e| steps of `safety.head_shift_once`, stopping at
    the first step that changes nothing: the oracle of `HeadShift.apply`."""
    step = 1 if e > 0 else -1
    for _ in range(abs(e)):
        y = head_shift_once(x, step)
        if y == x:  # a fixed point of one step is fixed by every power
            return x
        x = y
    return x


def dict_slide(x: Config, e: int) -> Config:
    """x with every head moved e cells, one cell at a time through a dict
    of cells, the head in front first: at each move the head and the
    symbol on the cell it enters change places.  The result is checked by
    `Config.from_cells`: the oracle of `Config.slide`."""
    cells, d = dict(x.cells), 1 if e > 0 else -1
    heads = sorted(x.heads(), reverse=d > 0)
    for _ in range(abs(e)):
        for i, q in enumerate(heads):
            a = cells.pop(q + d, 0)
            del cells[q]
            cells[q + d] = HEAD
            if a:
                cells[q] = a
            heads[i] = q + d
    return Config.from_cells(cells)


def sym_window(x: Config, positions) -> str:
    """The symbols of x at `positions`, in order, read from a dict of its
    cells: the oracle of `Config.sym`, and the block reader of
    `string_rewrite`."""
    cells = dict(x.cells)
    return "".join(str(cells.get(p, 0)) for p in positions)


def dict_overwrite(x: Config, blocks) -> Config:
    """x with each `(positions, digits)` block written at its positions, in
    order, through a dict of cells: the oracle of `Config.overwrite`."""
    cells = dict(x.cells)
    for positions, digits in blocks:
        for p, ch in zip(positions, digits):
            cells.pop(p, None)
            if ch != "0":
                cells[p] = int(ch)
    return Config.from_cells(cells)


def overwrite_head_local(x: Config, ins: HeadLocal) -> Config:
    """`HeadLocal(r, wp)` on x by the block route: the window of each head
    isolated at gap 2r + 2 read by `cells_in` and `head_cells`, mapped by
    `wp.apply`, and each moved window written back with its head by one
    `Config.overwrite`, which checks every written cell.  The oracle of
    `Config.head_local`."""
    r, blocks = ins.r, []
    for q in isolated(x.heads(), 2 * r + 2):
        window = head_cells(x.cells_in(q - r, q + r + 1), q)
        image = ins.wp.apply(window)
        if image != window:
            blocks.append((q - r, q + r + 1, sorted(
                [(q, HEAD), *((q + o, s) for o, s in image)])))
    return x.overwrite(blocks)


def line_by_line_word(word) -> str:
    """A word file with each instruction object encoded by its own
    `json.dumps` and the lines joined: the oracle of `serial.emit_word`."""
    return "[" + ",".join(
        "\n" + json.dumps(ins.to_obj()) for ins in word.steps) + "\n]"


def from_cells_relabel(x: Config, img) -> Config:
    """x with each symbol s replaced by img[s], every cell checked again by
    `Config.from_cells`: the oracle of `Config.relabel`."""
    return Config.from_cells((p, img[s]) for p, s in x.cells)


def from_cells_shift(x: Config, n: int) -> Config:
    """sigma^n of x with every moved cell checked by `Config.from_cells`:
    the oracle of `core.shift`."""
    return Config.from_cells((p - n, s) for p, s in x.cells)


def same_or_overflow(fast, oracle, *args) -> None:
    """fast(*args) == oracle(*args), or both raise PositionOverflow."""
    try:
        want = oracle(*args)
    except PositionOverflow:
        with pytest.raises(PositionOverflow):
            fast(*args)
    else:
        assert fast(*args) == want


def from_tracks(particles, walls) -> Config:
    """The configuration with the given particle and wall tracks, through
    sets, overlapping positions becoming heads: the inverse of
    `core.tracks` and, on moved particles, the oracle of `Particle.apply`."""
    particles, walls = set(particles), set(walls)
    return Config.from_cells({p: HEAD if p in particles and p in walls else (
        PARTICLE if p in particles else WALL) for p in particles | walls})


def classify_by_tracks(x: Config) -> ClassFlags:
    """The flags of x from its particle and wall track sets, heads being
    their intersection: the oracle of the one-pass `core.classify`."""
    if x.is_zero():
        raise ZeroPoint("cannot classify the zero point")
    particles, walls = tracks(x)
    heads = particles & walls
    prepregood = not heads and (
        not particles or not walls or max(particles) < min(walls))
    pregood = prepregood and bool(particles)
    good = pregood and bool(walls)
    unihead = len(heads) == 1
    great = unihead and 0 in heads
    return ClassFlags(prepregood, pregood, good, unihead, great)


def align_by_tracks(comps) -> int:
    """The particle move that puts every particle left of every wall, from
    the track sets of each component: the oracle of
    `transporter._align_amount`."""
    need = 0
    for c in comps:
        particles, walls = tracks(c)
        if particles and walls:
            need = max(need, max(particles) - min(walls) + 1)
    return need


# Symbol sets of head-only, wall-only and particle-only points, and every mix.
SYMBOL_MIXES = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def rand_config_over(rng: random.Random, symbols, span: int = 8,
                     max_cells: int = 5) -> Config:
    """`rand_config` with every symbol drawn from `symbols`: head-only,
    wall-only or particle-only points, or any other mix."""
    x = rand_config(rng, span, max_cells)
    return Config.from_cells((p, rng.choice(symbols)) for p, _ in x.cells)


def rand_tuple(rng: random.Random, k: int, span: int = 5,
               max_cells: int = 4) -> TupleK:
    """k nonzero configurations from pairwise distinct orbits."""
    while True:
        comps = tuple(rand_config(rng, span, max_cells) for _ in range(k))
        try:
            return validate_tuple(comps)
        except DomainError:
            continue


def rand_head_spec(rng: random.Random):
    """A listed rewrite guarded by the head marker: 2 to 6 words of length
    3, 6 or 9 with a head first in the middle third, and more heads there
    in some, permuted at random."""
    k3 = rng.randrange(1, 4)
    words = set()
    while len(words) < rng.randrange(2, 7):
        row = [rng.choice("0012") for _ in range(3 * k3)]
        for o in {k3, *rng.sample(range(k3, 2 * k3), rng.randrange(k3))}:
            row[o] = "3"
        words.add("".join(row))
    words = sorted(words)
    images = rng.sample(words, len(words))
    return make_explicit_spec(explicit(words), key_pairs(zip(words, images)))


def rand_even_perm(rng: random.Random, k: int) -> tuple[int, ...]:
    """A random even permutation of range(k)."""
    while True:
        img = list(range(k))
        rng.shuffle(img)
        if parity(dict(enumerate(img))) == 0:
            return tuple(img)


def key(word: str) -> tuple[tuple[int, int], ...]:
    """The key of a letter word: its nonzero cells as (offset, symbol)
    pairs, offsets from its first letter."""
    return tuple((o, int(c)) for o, c in enumerate(word) if c != "0")


def explicit(words) -> ExplicitWords:
    """The listed word set of letter words of one length, by their keys."""
    words = list(words)
    assert len({len(w) for w in words}) == 1, words
    return ExplicitWords(len(words[0]), frozenset(map(key, words)))


def key_pairs(pairs) -> list:
    """Pairs of letter words as pairs of their keys."""
    return [(key(s), key(d)) for s, d in pairs]


def window(word: str) -> tuple[tuple[int, int], ...]:
    """The nonzero cells (offset from the head, symbol) of a dense window
    word of {0,1,2}^(2r): its letters sit at offsets -r..-1 and 1..r."""
    r = len(word) // 2
    offsets = [*range(-r, 0), *range(1, r + 1)]
    return tuple((o, int(c)) for o, c in zip(offsets, word) if c != "0")


def dense(cells, r: int) -> str:
    """The 2r-letter dense word of a window given by its cells."""
    row = dict(cells)
    return "".join(str(row.get(o, 0))
                   for o in (*range(-r, 0), *range(1, r + 1)))


def head_local(r: int, pairs) -> HeadLocal:
    """The head-local rewrite of radius r listed by dense word pairs."""
    return HeadLocal(r, from_pairs(
        [(window(s), window(d)) for s, d in pairs], 2 * r))


def two_pass_window(text, r: int) -> tuple[tuple[int, int], ...]:
    """The cells of a window run line of radius r read by `parse_runs`,
    then checked cell by cell in a second pass: increasing offsets,
    0 < |offset| <= r and symbol 1 or 2, else DomainError.  The oracle of
    the one-pass window reader of `HeadLocal.from_obj`."""
    if not isinstance(text, str):
        raise ParseError(f"a window is a run line, not {text!r}")
    cells, prev = tuple(parse_runs(text)), -r - 1
    for o, s in cells:
        if not (prev < o <= r and o != 0 and s in (PARTICLE, WALL)):
            raise DomainError(f"not a window of radius {r}: {text!r}")
        prev = o
    return cells


def two_pass_head_local(obj) -> dict:
    """The moved pairs of an HL object: each window of each of its
    `"cycles"` paired with the next, the last with the first.  Each window
    is read by `two_pass_window`; a cycle of fewer than two windows, or a
    window named twice, raises DomainError.  The oracle of
    `HeadLocal.from_obj`."""
    r = obj["r"]
    if any(not isinstance(c, list) or len(c) < 2 for c in obj["cycles"]):
        raise DomainError("a cycle is a list of at least two windows")
    pairs = [(two_pass_window(c[i - 1], r), two_pass_window(c[i], r))
             for c in obj["cycles"] for i in range(len(c))]
    if len({s for s, _ in pairs}) < len(pairs):
        raise DomainError("a window is named twice in the cycles")
    return dict(pairs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260826)
