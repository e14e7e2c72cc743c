"""Realizing an even permutation of the components of a k-tuple (k >= 5)
as a single zero-padded safe rewrite."""

from __future__ import annotations

from .core import DomainError, TupleK, validate_tuple
from .permbuild import WordPerm, parity
from .safety import ExplicitWords, NonzeroWords, SafeRewrite, cell_key


class KTooSmall(DomainError):
    pass


class BetaOdd(DomainError):
    pass


def orbit_permutation_instruction(t: TupleK, beta: tuple[int, ...]) -> SafeRewrite:
    """A safe rewrite g with (g . t)_i = t_{beta^{-1}(i)} for an even
    permutation beta of the component indices, k >= 5."""
    t = validate_tuple(t.components)
    k = len(t)
    if k < 5:
        raise KTooSmall("component permutations need at least 5 components")
    if sorted(beta) != list(range(k)):
        raise DomainError("beta is not a permutation of the component indices")
    if parity(dict(enumerate(beta))) != 0:
        raise BetaOdd("only even component permutations are realizable")

    # supports must fit in [-m, m - 1]
    m = max(1, *(max(c.max_pos() + 1, -c.min_pos()) for c in t))

    # each component's word is 0^(2m) c 0^(2m), its key c's cells from -3m
    keys = [cell_key(c.cells, -3 * m) for c in t]
    pi = WordPerm._of_checked([(keys[i], keys[beta.index(i)]) for i in range(k)], 6 * m)
    return SafeRewrite(ExplicitWords(6 * m, frozenset(keys)), NonzeroWords(2 * m), pi)
