"""Sparse permutations of fixed-length words.

A WordPerm stores only its moved pairs; everything else is fixed.  It is
the window map of head-local rewrites (words over the track alphabet
{0,1,2}) and the word map of explicit safe rewrites.  The main
construction completes a partial injection into a permutation and, if
needed, adds one extra transposition of untouched words to make it even
while keeping every requested pair intact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import DomainError

TRACK_ALPHABET = "012"


class DuplicateSource(DomainError):
    pass


class DuplicateTarget(DomainError):
    pass


class NoRoom(DomainError):
    """Not enough untouched words are left for a parity-fixing transposition."""


@dataclass(frozen=True)
class WordPerm:
    """Permutation of the words of one length moving only finitely many;
    checked when built, so apply is a lookup."""

    length: int
    moved: tuple[tuple[str, str], ...]  # sorted by source, src != dst
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mapping = dict(self.moved)
        if len(mapping) != len(self.moved):
            raise DuplicateSource("repeated source word")
        images = set(mapping.values())
        if len(images) != len(self.moved):
            raise DuplicateTarget("repeated target word")
        if set(mapping) != images:
            raise DomainError("moved pairs do not form a bijection")
        for s, d in self.moved:
            if len(s) != self.length:
                raise DomainError(f"not a word of length {self.length}: {s!r}")
            if s == d:
                raise DomainError("identity pair stored in moved set")
        object.__setattr__(self, "_images", mapping)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]], length: int) -> "WordPerm":
        moved = tuple(sorted((s, d) for s, d in pairs if s != d))
        return WordPerm(length, moved)

    def apply(self, w: str) -> str:
        return self._images.get(w, w)

    def inverse(self) -> "WordPerm":
        return WordPerm.from_pairs(((d, s) for s, d in self.moved), self.length)


def _cycle_parity(mapping: Mapping) -> int:
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


def parity(wp: WordPerm) -> int:
    """0 for even, 1 for odd, over the moved set."""
    return _cycle_parity(dict(wp.moved))


def parity_of_permutation(img: Sequence[int]) -> int:
    """0 for even, 1 for odd, for a permutation of range(len(img))."""
    return _cycle_parity(dict(enumerate(img)))


def complete_partial_injection(pairs: Sequence[tuple[str, str]], length: int) -> WordPerm:
    """Extend a partial injection to a permutation by closing each chain.

    Each maximal chain s0 -> s1 -> ... -> sm (where sm is not a source) is
    closed by adding sm -> s0, which is the smallest completion.
    """
    srcs = [s for s, _ in pairs]
    dsts = [d for _, d in pairs]
    if len(set(srcs)) != len(srcs):
        raise DuplicateSource("repeated source word")
    if len(set(dsts)) != len(dsts):
        raise DuplicateTarget("repeated target word")
    mapping = {s: d for s, d in pairs if s != d}
    dst_set = set(mapping.values())
    closed = dict(mapping)
    for start in mapping:
        if start in dst_set:
            continue  # not the head of a chain
        w = start
        while w in mapping:
            w = mapping[w]
        if w != start:
            closed[w] = start
    return WordPerm.from_pairs(closed.items(), length)


def make_even(wp: WordPerm,
              protected: frozenset[str] = frozenset()) -> WordPerm:
    """Add to an odd permutation one transposition of untouched words.

    The transposition uses the two lexicographically smallest words that are
    neither moved by wp nor listed in `protected`, so every original pair
    (including requested fixed points) survives.
    """
    if parity(wp) == 0:
        return wp
    avoid = {s for s, _ in wp.moved} | protected
    if 3**wp.length - len(avoid) < 2:
        raise NoRoom("fewer than two untouched words available")
    words = ("".join(t) for t in itertools.product(TRACK_ALPHABET, repeat=wp.length))
    a, b = itertools.islice((w for w in words if w not in avoid), 2)
    return WordPerm.from_pairs([*wp.moved, (a, b), (b, a)], wp.length)


def build_mapping_perm(pairs: Sequence[tuple[str, str]], length: int) -> WordPerm:
    """Even permutation of {0,1,2}^length realizing every requested pair."""
    wp = complete_partial_injection(pairs, length)
    protected = frozenset(s for s, _ in pairs) | frozenset(d for _, d in pairs)
    return make_even(wp, protected)

