"""Sparse permutations of fixed-length words.

A WordPerm stores only its moved pairs; everything else is fixed.  It is
the window map of head-local rewrites (words over the track alphabet
{0,1,2}) and the word map of explicit safe rewrites.  Every map of words,
built in code or read from a word file, follows one rule: a word is a
source at most once and a target at most once, and fixed points are
allowed.  The main construction closes each chain of requested pairs
into a cycle and, if the result is odd, adds one transposition of words
no pair names, so every requested pair stays intact.
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


def _one_to_one(pairs: Sequence[tuple[str, str]], length: int) -> dict:
    """The map of `pairs`, refusing a source that is not a word of
    `length` and a word named twice as a source or twice as a target."""
    mapping = dict(pairs)
    if len(mapping) != len(pairs):
        raise DuplicateSource("repeated source word")
    if len(set(mapping.values())) != len(pairs):
        raise DuplicateTarget("repeated target word")
    for s in mapping:
        if len(s) != length:
            raise DomainError(f"not a word of length {length}: {s!r}")
    return mapping


@dataclass(frozen=True)
class WordPerm:
    """Permutation of the words of one length moving only finitely many;
    checked when built, so apply is a lookup."""

    length: int
    moved: tuple[tuple[str, str], ...]  # sorted by source, src != dst
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mapping = _one_to_one(self.moved, self.length)
        if set(mapping) != set(mapping.values()):
            raise DomainError("moved pairs do not form a bijection")
        if any(s == d for s, d in self.moved):
            raise DomainError("identity pair stored in moved set")
        object.__setattr__(self, "_images", mapping)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]], length: int) -> "WordPerm":
        """The permutation listed by `pairs`, fixed points included."""
        mapping = _one_to_one([(s, d) for s, d in pairs], length)
        return WordPerm(length, tuple(sorted(
            (s, d) for s, d in mapping.items() if s != d)))

    def apply(self, w: str) -> str:
        return self._images.get(w, w)

    def inverse(self) -> "WordPerm":
        return WordPerm.from_pairs(((d, s) for s, d in self.moved), self.length)


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


def build_mapping_perm(pairs: Sequence[tuple[str, str]], length: int) -> WordPerm:
    """Even permutation of {0,1,2}^length realizing every requested pair.

    Each maximal chain s0 -> ... -> sm (sm not a source) is closed by
    sm -> s0; an odd result also swaps the two lexicographically smallest
    words that no pair names."""
    perm = _one_to_one(pairs, length)
    targets = set(perm.values())
    for start in [s for s in perm if s not in targets]:
        w = start
        while w in perm:
            w = perm[w]
        perm[w] = start
    if parity(perm):
        # every named word is now a source
        if 3**length - len(perm) < 2:
            raise NoRoom("fewer than two untouched words available")
        words = map("".join, itertools.product(TRACK_ALPHABET, repeat=length))
        a, b = itertools.islice((w for w in words if w not in perm), 2)
        perm[a], perm[b] = b, a
    return WordPerm.from_pairs(perm.items(), length)
