"""Realizing an even permutation of the components of a k-tuple (k >= 5)
as a single zero-padded safe rewrite."""

from __future__ import annotations

from collections.abc import Sequence

from .core import DomainError, TupleK, quoted, validate_tuple
from .permbuild import WordPerm, parity
from .safety import ExplicitWords, NonzeroWords, SafeRewrite, cell_key


class KTooSmall(DomainError):
    pass


class BetaOdd(DomainError):
    pass


def orbit_permutation_instruction(t: TupleK, beta: tuple[int, ...]) -> SafeRewrite:
    """A safe rewrite g with (g . t)_i = t_{beta^{-1}(i)} for an even
    permutation beta of the component indices, k >= 5."""
    t = validate_tuple(t)
    k = len(t)
    if k < 5:
        raise KTooSmall("component permutations need at least 5 components")
    if (not isinstance(beta, Sequence) or any(type(b) is not int for b in beta)
            or sorted(beta) != list(range(k))):
        raise DomainError(f"beta is not a permutation of the component indices: {quoted(beta)}")
    if parity(dict(enumerate(beta))) != 0:
        raise BetaOdd("only even component permutations are realizable")

    # supports must fit in [-m, m - 1]
    m = max(1, *(max(c.max_pos() + 1, -c.min_pos()) for c in t))

    # each component's word is 0^(2m) c 0^(2m), its key c's cells from -3m;
    # the keys are distinct, as the orbits are, so beta moves them as they stand
    keys = [cell_key(c.cells, -3 * m) for c in t]
    pi = WordPerm._of(6 * m, {keys[b]: keys[j] for j, b in enumerate(beta) if b != j})
    return SafeRewrite(ExplicitWords(6 * m, frozenset(keys)), NonzeroWords(2 * m), pi)
