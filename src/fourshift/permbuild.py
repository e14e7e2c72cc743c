"""Sparse permutations of fixed-length words held by their cells.

A WordPerm stores only its moved pairs; everything else is fixed.  Its
words are cell keys, never letters: the keys of explicit safe rewrites
and the windows of head-local rewrites.  A window of radius r is a word
of {0,1,2}^(2r) around a head, held by its nonzero cells: a tuple of
(offset from the head, symbol) pairs of ints with increasing offsets,
0 < |offset| <= r and symbol 1 or 2, so nothing costs O(r).  Pairs are
listed in the order of their sources as dense words.  Every map of
words given as pairs in code follows one rule: a word is a source at
most once and a target at most once, and fixed points are allowed.  A
word file holds every map of both rewrites as disjoint cycles of run
lines, which name each moved word once; `to_cycles` writes them and
`_read_cycles` reads them.  The main construction closes each chain of
requested pairs into a cycle and, if the result is odd, adds one
transposition of words no pair names.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .core import CELLS, PARTICLE, WALL, DomainError, ParseError, emit_runs, quoted

Word = tuple[tuple[int, int], ...]


class DuplicateSource(DomainError):
    pass


class DuplicateTarget(DomainError):
    pass


class NoRoom(DomainError):
    """Not enough untouched words are left for a parity-fixing transposition."""


def checked_word(w: Word, length: int) -> Word:
    """w as stored, checked cell by cell to be a window of {0,1,2}^length,
    its offsets and symbols ints (no bools), its cells near the head taken
    from CELLS."""
    if isinstance(w, tuple):
        r, stored = length // 2, []
        prev = -r - 1
        for c in w:
            o, s = c
            if not (type(o) is int and type(s) is int and prev < o <= r
                    and o != 0 and s in (PARTICLE, WALL)):
                break
            prev = o
            stored.append(CELLS.get(c, c))
        else:
            return tuple(stored)
    raise DomainError(f"not a window of length {length}: {quoted(w)}")


def _one_to_one(pairs: Sequence[tuple[Word, Word]]) -> dict:
    """The map of `pairs`, refusing a word named twice as a source or
    twice as a target."""
    mapping = dict(pairs)
    if len(mapping) != len(pairs):
        raise DuplicateSource("repeated source word")
    if len(set(mapping.values())) != len(pairs):
        raise DuplicateTarget("repeated target word")
    return mapping


@dataclass(frozen=True, slots=True, init=False)
class WordPerm:
    """Permutation of the words of one length moving only finitely many,
    held as the dict of its moved pairs, so apply is a lookup.  The public
    builder `build_mapping_perm` checks every word; the private
    `_mapping_perm` and `_of` trust their words and `_read_cycles` leaves
    them to its caller's reader, so each word is checked once."""

    length: int
    images: dict  # each moved word to its image, never changed

    @staticmethod
    def _read_cycles(cycles, read: Callable[[object], Word], length: int) -> "WordPerm":
        """The permutation sending each word of a cycle to the next, the
        last to the first, from a word file's list of cycles, each word
        read and checked by `read`.  Disjoint cycles are a permutation, so
        the one check of the map is that no word is named twice; a cycle
        holds at least two words."""
        if not isinstance(cycles, list):
            raise ParseError(f"cycles are a list, not a {type(cycles).__name__}")
        images, named = {}, 0
        for cycle in cycles:
            if not isinstance(cycle, list) or len(cycle) < 2:
                raise ParseError("a cycle is a list of at least two words")
            words = [read(w) for w in cycle]
            named += len(words)
            images.update(zip(words, [*words[1:], words[0]]))
        if len(images) != named:
            raise DomainError("a word is named twice in the cycles")
        return WordPerm._of(length, images)

    @staticmethod
    def _of(length: int, images: dict) -> "WordPerm":
        """The permutation moving the checked words of `images` as it stands."""
        wp = object.__new__(WordPerm)
        object.__setattr__(wp, "length", length)
        object.__setattr__(wp, "images", images)
        return wp

    @property
    def moved(self) -> tuple[tuple[Word, Word], ...]:
        """The moved pairs in the dense order of their sources: a window
        with a cell at an offset where another has none is the larger."""
        return tuple(sorted(self.images.items(),
                            key=lambda p: [(-o, s) for o, s in p[0]]))

    def to_cycles(self) -> list[list[str]]:
        """The disjoint cycles of the moved words as run lines, in the
        dense order of their least words, each starting at its least word
        and written once."""
        images, seen, cycles = self.images, set(), []
        for start, w in self.moved:
            if start not in seen:
                cycle = [start]
                while w != start:
                    cycle.append(w)
                    w = images[w]
                seen.update(cycle)
                cycles.append([emit_runs(w) for w in cycle])
        return cycles

    def apply(self, w: Word) -> Word:
        return self.images.get(w, w)

    def inverse(self) -> "WordPerm":
        return WordPerm._of(self.length, {d: s for s, d in self.images.items()})

    def __hash__(self) -> int:
        return hash((self.length, frozenset(self.images.items())))


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

    Each window is checked by `checked_word`, and `_mapping_perm` builds
    the map: each maximal chain s0 -> ... -> sm (sm not a source) is
    closed by sm -> s0; an odd result also swaps the two smallest
    windows, in the order of the dense words, that no pair names."""
    return _mapping_perm([(checked_word(s, length), checked_word(d, length))
                          for s, d in pairs], length)


def _mapping_perm(pairs: Sequence[tuple[Word, Word]], length: int) -> WordPerm:
    """`build_mapping_perm` of windows already checked: only the map is
    checked."""
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
    return WordPerm._of(length, {s: d for s, d in perm.items() if s != d})
