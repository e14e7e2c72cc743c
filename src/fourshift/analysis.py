"""Auxiliary invariants: the k(X) case table for finite permutation
subshifts with a brute-force oracle, and a non-shift witness search."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

from .core import Config, DomainError, orbit_equal, quoted
from .generators import TransportWord, apply_word


class TooLarge(DomainError):
    pass


@dataclass(frozen=True)
class CycleSpec:
    """Multiset of cycle lengths of the shift on a finite subshift, stored
    sorted; build it with `of`."""

    lengths: tuple[int, ...]

    @staticmethod
    def of(lengths: Iterable[int]) -> "CycleSpec":
        try:
            lengths = tuple(lengths)
        except TypeError as exc:  # not iterable
            raise DomainError(f"cycle lengths are a sequence, not "
                              f"{quoted(lengths)}") from exc
        if not lengths or any(type(n) is not int or n < 1 for n in lengths):
            raise DomainError(f"need at least one cycle, every length an int "
                              f">= 1, not {quoted(lengths)}")
        return CycleSpec(tuple(sorted(lengths)))

    @property
    def c1(self) -> int:
        """Number of fixed points."""
        return self.lengths.count(1)

    @property
    def total(self) -> int:
        return sum(self.lengths)


class KValue(Enum):
    BOTTOM = "bottom"
    ZERO = "zero"
    TWO = "two"


def k_of_finite(cs: CycleSpec) -> KValue:
    """Case table for the minimal size of a set of automorphisms whose
    common centralizer is exactly the shift group.

    The automorphism group splits over the cycle lengths as a product of
    wreath products Z_l wr S_{c_l}, whose center is S_2 when c_1 = 2
    times one uniform rotation group Z_l per length l >= 2 present.  The
    shift generates the diagonal of that torus, of order lcm of the
    lengths, so the centralizer of any family still exceeds the shift
    group exactly when c_1 = 2 or the lengths >= 2 are not pairwise
    coprime (product of distinct lengths != their lcm).  Otherwise zero
    automorphisms suffice precisely when the whole group is the shift
    group: at most one fixed point and one cycle per length, glued into
    a single cyclic group by coprimality.  In every remaining case two
    automorphisms suffice, acting in parallel on each length class (a
    two-generator reduction per class, with coprimality recombining the
    per-class shift exponents into one global shift power).
    """
    c1 = cs.c1
    long_lengths = set(cs.lengths) - {1}
    bottom = c1 == 2 or math.prod(long_lengths) != math.lcm(*long_lengths)
    if bottom:
        return KValue.BOTTOM
    zero = c1 in (0, 1) and len(long_lengths) == len(cs.lengths) - c1
    return KValue.ZERO if zero else KValue.TWO


# -- brute-force oracle --------------------------------------------------

Perm = tuple[int, ...]


def _compose(f: Perm, g: Perm) -> Perm:
    """f after g."""
    return tuple(f[i] for i in g)


def _materialize_sigma(cs: CycleSpec) -> Perm:
    img = []
    base = 0
    for length in cs.lengths:
        img.extend(base + (j + 1) % length for j in range(length))
        base += length
    return tuple(img)


def _sigma_powers(sigma: Perm) -> frozenset[Perm]:
    powers = {tuple(range(len(sigma)))}
    f = sigma
    while f not in powers:
        powers.add(f)
        f = _compose(sigma, f)
    return frozenset(powers)


def k_of_finite_bruteforce(cs: CycleSpec) -> KValue:
    """Independent oracle: enumerate every bijection commuting with the
    materialized shift permutation and measure its centralizer structure."""
    if cs.total > 8:
        raise TooLarge(f"{cs.total} points exceed the brute-force bound")
    sigma = _materialize_sigma(cs)
    n = len(sigma)
    aut = [f for f in itertools.permutations(range(n))
           if _compose(f, sigma) == _compose(sigma, f)]
    powers = _sigma_powers(sigma)

    def central(h: Perm) -> bool:
        return all(_compose(h, g) == _compose(g, h) for g in aut)

    if any(h not in powers and central(h) for h in aut):
        return KValue.BOTTOM
    if len(aut) == len(powers):
        return KValue.ZERO

    # k = 1 cannot occur: any f with centralizer <sigma> lies in its own
    # centralizer, hence in <sigma>; but at this point every sigma-power
    # is central, so its centralizer is the whole (larger) group.

    def centralizer(f: Perm) -> list[Perm]:
        return [h for h in aut if _compose(h, f) == _compose(f, h)]

    rng = random.Random(0)
    candidates = [aut[rng.randrange(len(aut))] for _ in range(40)]
    f_best = min(candidates, key=lambda f: len(centralizer(f)))
    cf = centralizer(f_best)
    order = list(aut)
    rng.shuffle(order)
    for g in order:
        if all(h in powers or _compose(h, g) != _compose(g, h) for h in cf):
            return KValue.TWO
    raise AssertionError("no two-element generating pair found")


# -- non-shift witness search --------------------------------------------


@dataclass(frozen=True)
class Witness:
    x: Config
    image: Config


@dataclass(frozen=True)
class IsShift:
    n: int


@dataclass(frozen=True)
class Inconclusive:
    pass


WitnessResult = Union[Witness, IsShift, Inconclusive]


# Widest word the witness search enumerates: at most 4^8 candidates.
WIDTH_LIMIT = 8


def _canonical_words(support_bound: int, width_bound: int) -> list[str]:
    words = []
    for length in range(1, width_bound + 1):
        for digits in itertools.product("0123", repeat=length):
            w = "".join(digits)
            if w[0] == "0" or w[-1] == "0":
                continue
            if length - w.count("0") > support_bound:
                continue
            words.append(w)
    return sorted(words)


def find_nonshift_witness(word: TransportWord, support_bound: int = 2,
                          width_bound: int = 2) -> WitnessResult:
    """First (in lexicographic word order) nonzero finite point moved out
    of its own orbit; IsShift(n) when every tested point is shifted by the
    same n, Inconclusive otherwise."""
    if type(support_bound) is not int or type(width_bound) is not int:
        raise DomainError(f"the bounds must be ints, not {quoted(support_bound)} "
                          f"and {quoted(width_bound)}")
    if width_bound > WIDTH_LIMIT:
        raise TooLarge(f"width bound {width_bound} exceeds {WIDTH_LIMIT}")
    if min(support_bound, width_bound) < 1:
        raise DomainError("support and width bounds must be at least 1")
    shifts: set[int] = set()
    for w in _canonical_words(support_bound, width_bound):
        x = Config.from_word(0, w)
        y = apply_word(x, word)
        if not orbit_equal(x, y):
            return Witness(x, y)
        # y == shift(x, n) for this n
        shifts.add(x.min_pos() - y.min_pos())
    if len(shifts) == 1:
        return IsShift(shifts.pop())
    return Inconclusive()

