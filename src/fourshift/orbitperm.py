"""Realizing an even permutation of the components of a k-tuple (k >= 5)
as a single zero-padded safe rewrite."""

from __future__ import annotations

from .core import DomainError, TupleK, validate_tuple
from .permbuild import parity
from .safety import SafeRewrite, make_zero_padded_spec


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

    m = 1
    for c in t:
        for p in c.support():
            # supports must fit in [-m, m-1]
            m = max(m, p + 1, -p)

    words = [c.window(-3 * m, 3 * m) for c in t]
    pairs = [(words[i], words[beta.index(i)]) for i in range(k)]
    return make_zero_padded_spec(words, pairs)
