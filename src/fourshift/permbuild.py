"""Sparse permutations of fixed-length words.

A WordPerm stores only its moved pairs; everything else is fixed.  It is
the word map of explicit safe rewrites, whose words are strings, and the
window map of head-local rewrites.  A window of radius r is a word of
{0,1,2}^(2r) around a head, held by its nonzero cells: a tuple of
(offset from the head, symbol) pairs with increasing offsets,
0 < |offset| <= r and symbol 1 or 2, so nothing costs O(r).  Pairs are
kept in the order of their sources as dense words.  Every map of words,
built in code or read from a word file, follows one rule: a word is a
source at most once and a target at most once, and fixed points are
allowed.  The main construction closes each chain of requested pairs
into a cycle and, if the result is odd, adds one transposition of words
no pair names, so every requested pair stays intact.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .core import CELLS, PARTICLE, WALL, DomainError

Word = str | tuple[tuple[int, int], ...]


class DuplicateSource(DomainError):
    pass


class DuplicateTarget(DomainError):
    pass


class NoRoom(DomainError):
    """Not enough untouched words are left for a parity-fixing transposition."""


def _stored(w: Word, length: int) -> tuple[Word, Word]:
    """(dense-order key, w as stored) of a word of `length`, in one pass:
    a string of `length` letters is its own key; a window of
    {0,1,2}^length is keyed so that one with a cell at an offset where
    another has none is the larger, and its cells near the head are those
    of CELLS."""
    if isinstance(w, str):
        if len(w) != length:
            raise DomainError(f"not a word of length {length}: {w!r}")
        return w, w
    r = length // 2
    prev = -r - 1
    key, stored = [], []
    for c in w:
        o, s = c
        if not (prev < o <= r and o != 0 and s in (PARTICLE, WALL)):
            raise DomainError(f"not a word of length {length}: {w!r}")
        prev = o
        key.append((-o, s))
        stored.append(CELLS.get(c, c))
    return tuple(key), tuple(stored)


def _one_to_one(pairs: Sequence[tuple[Word, Word]]) -> dict:
    """The map of `pairs`, refusing a word named twice as a source or
    twice as a target."""
    mapping = dict(pairs)
    if len(mapping) != len(pairs):
        raise DuplicateSource("repeated source word")
    if len(set(mapping.values())) != len(pairs):
        raise DuplicateTarget("repeated target word")
    return mapping


@dataclass(frozen=True, slots=True)
class WordPerm:
    """Permutation of the words of one length moving only finitely many;
    checked when built, so apply is a lookup.  The moved pairs are stored
    in the dense order of their sources, whatever order they are given in."""

    length: int
    moved: tuple[tuple[Word, Word], ...]  # src != dst
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        images = _one_to_one(self.moved)
        if images.keys() != set(images.values()):
            raise DomainError("moved pairs do not form a bijection")
        if any(s == d for s, d in self.moved):
            raise DomainError("identity pair stored in moved set")
        rows = sorted(_stored(w, self.length) for w in images)
        stored = {w: w for _, w in rows}
        moved = tuple((w, stored[images[w]]) for _, w in rows)
        object.__setattr__(self, "moved", moved)
        object.__setattr__(self, "_images", dict(moved))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Word, Word]], length: int) -> "WordPerm":
        """The permutation listed by `pairs`, fixed points included; each
        moved word is stored once, as a source and as a target."""
        pairs = list(pairs)
        moved = tuple((s, d) for s, d in pairs if s != d)
        if len(moved) < len(pairs):
            # a fixed point is a word, named once like any other
            _one_to_one(pairs)
            for s, d in pairs:
                if s == d:
                    _stored(s, length)
        return WordPerm(length, moved)

    def apply(self, w: Word) -> Word:
        return self._images.get(w, w)

    def inverse(self) -> "WordPerm":
        return WordPerm(self.length, tuple((d, s) for s, d in self.moved))


def parity(mapping: Mapping) -> int:
    """0 for even, 1 for odd: sum of (cycle length - 1) over the cycles of
    a mapping that permutes its own keys."""
    seen = set()
    sign = 0
    for start in mapping:
        if start in seen:
            continue
        n = 0
        w = start
        while w not in seen:
            seen.add(w)
            w = mapping[w]
            n += 1
        sign ^= (n - 1) & 1
    return sign


def _windows(length: int) -> Iterable[Word]:
    """Every window of {0,1,2}^length in the order of the dense words: the
    n-th is n in base 3, its last digit at offset r."""
    r = length // 2
    for n in itertools.count():
        cells, o = [], r
        while n:
            n, digit = divmod(n, 3)
            if o == 0:  # the head's cell is not in the window
                o = -1
            if o < -r:  # n >= 3**length
                return
            if digit:
                cells.append((o, digit))
            o -= 1
        yield tuple(reversed(cells))


def build_mapping_perm(pairs: Sequence[tuple[Word, Word]],
                       length: int) -> WordPerm:
    """Even permutation of the windows of {0,1,2}^length realizing every
    requested pair.

    Each maximal chain s0 -> ... -> sm (sm not a source) is closed by
    sm -> s0; an odd result also swaps the two smallest windows, in the
    order of the dense words, that no pair names."""
    perm = _one_to_one(pairs)
    targets = set(perm.values())
    for start in [s for s in perm if s not in targets]:
        w = start
        while w in perm:
            w = perm[w]
        perm[w] = start
    if parity(perm):
        # every named word is now a source
        free = list(itertools.islice(
            (w for w in _windows(length) if w not in perm), 2))
        if len(free) < 2:
            raise NoRoom("fewer than two untouched words available")
        a, b = free
        perm[a], perm[b] = b, a
    return WordPerm.from_pairs(perm.items(), length)
