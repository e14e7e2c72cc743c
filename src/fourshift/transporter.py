"""Transport of distinct-orbit tuples: classify, make good and make great
on both sides, then splice the two great tuples with one head-local
rewrite (`make_canonical`) followed by the inverted destination word, and
fuse the whole word once before it is verified.

Every emitted word is built by replaying each step once, on the components
it can move, so the returned tuple is always the exact replay result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .core import (PARTICLE, WALL, Config, DomainError, TupleK, classify,
                   quoted, tracks, validate_tuple)
from .generators import (SWAP_13, SWAP_23, HeadLocal, HeadShift, Particle,
                         TransportWord, apply_instruction, apply_word, fuse,
                         head_cells, invert_word)
from .permbuild import _mapping_perm


class LengthMismatch(DomainError):
    pass


class NotGood(DomainError):
    pass


class NotGreat(DomainError):
    pass


class InternalScheduleViolation(AssertionError):
    """An unplanned head coincidence during the great-making phase."""


@dataclass(frozen=True)
class Reading:
    """First-collision data of a clock-like point: shifting by `a` after
    t+1 inverse particle steps yields a great point."""

    a: int
    t: int


def phi_clock(x: Config) -> Optional[Reading]:
    """Closed-form clock reading; None when the point is not clock-like.
    Each wall's nearest particle on its left is found by bisect."""
    if x.is_zero():
        raise DomainError("zero point has no clock reading")
    particles, walls = tracks(x)
    ps = sorted(particles)
    s = min((w - ps[n - 1] for w in walls if (n := bisect_left(ps, w))),
            default=None)
    hits = [w for w in walls if w - s in particles] if s else []
    return Reading(hits[0], s - 1) if len(hits) == 1 else None


def _align_amount(comps) -> int:
    """Smallest particle move putting every particle strictly left of every
    wall in each component; one with no particle or no wall needs none."""
    need, inf = 0, float("inf")
    for c in comps:
        last = next((p for p, s in reversed(c.cells) if s != WALL), -inf)
        first = next((p for p, s in c.cells if s != PARTICLE), inf)
        need = max(need, last - first + 1)
    return need


def _replay(steps: list, comps: list, ins, which=None) -> None:
    """Append `ins` to `steps`; replay it on comps[i], i in `which` or all."""
    steps.append(ins)
    for i in range(len(comps)) if which is None else which:
        comps[i] = apply_instruction(comps[i], ins)


def make_good(t: TupleK) -> tuple[TransportWord, TupleK]:
    """Particle moves and symbol swaps producing a good tuple; phases whose
    target already holds are skipped."""
    steps, comps = [], list(t)
    for flag, swap in (("prepregood", None), ("pregood", SWAP_23),
                       ("good", SWAP_13)):
        if not all(getattr(classify(c), flag) for c in comps):
            if swap is not None:
                _replay(steps, comps, swap)
            _replay(steps, comps, Particle(_align_amount(comps)))
    if not all(classify(c).good for c in comps):
        raise InternalScheduleViolation("good phase failed")
    return TransportWord(tuple(steps)), TupleK(tuple(comps))


def _head_local(comps, targets, heads) -> HeadLocal:
    """One head-local rewrite taking each component to its target, both
    with a single head at the same position; the radius covers every
    other cell of both, so a window is every cell but the head.  Both
    callers check or build that single head just before, so each window
    is already one of radius r (increasing int offsets within +-r, none
    at 0, symbols 1 or 2), and the map is built by the private
    `permbuild._mapping_perm`, which trusts its windows."""
    pairs = [(head_cells(c.cells, q), head_cells(g.cells, q))
             for c, g, q in zip(comps, targets, heads)]
    r = max([1, *(abs(o) for pair in pairs for w in pair for o, _ in w)])
    return HeadLocal(r, _mapping_perm(pairs, 2 * r))


def make_great(t: TupleK) -> tuple[TransportWord, TupleK]:
    """Drive a good tuple through the one-reset buzz schedule so that every
    component ends with exactly one head, at the origin.

    Component i first buzzes (shows a head) at position a_i after tau_i
    inverse particle steps, read off its clock; at each buzz time the
    buzzing heads are shifted clear of the origin and rewritten so that
    all of them buzz again at 0 at the horizon, one step after the last
    first buzz."""
    buzz = []  # (a_i, tau_i), tau_i >= 1
    for c in t:
        if not classify(c).good:
            raise NotGood("make_great requires a good tuple")
        r = phi_clock(c)
        if r is None:  # good points are always clock-like
            raise InternalScheduleViolation("good component without a reading")
        buzz.append((r.a, r.t + 1))
    horizon = max(tau for _, tau in buzz) + 1
    by_time: dict[int, list[int]] = {}
    for i, (_, tau) in enumerate(buzz):
        by_time.setdefault(tau, []).append(i)

    steps, comps, now = [], list(t), 0
    for tau in sorted(by_time):
        buzzing = by_time[tau]
        _replay(steps, comps, Particle(-(tau - now)))
        now = tau
        for i, c in enumerate(comps):
            want = (buzz[i][0],) if i in buzzing else ()
            if c.heads() != want:
                raise InternalScheduleViolation(
                    f"component {i} has heads {list(c.heads())} at time {tau}")
        # the other components have no head, so both head steps fix them
        e = max(1, 2 - min(buzz[i][0] for i in buzzing))
        _replay(steps, comps, HeadShift(e), buzzing)
        kpos = {i: buzz[i][0] + e for i in buzzing}
        for i in buzzing:
            if comps[i].heads() != (kpos[i],):
                raise InternalScheduleViolation("head shift missed its target")
        targets = {
            i: Config.from_cells({
                0: 2,                      # wall for the rescheduled collision
                -(horizon - tau): 1,       # particle that buzzes at 0 at horizon
                kpos[i]: 3,                # the head stays put
                kpos[i] + i + 2: 1,        # orbit-separating companion
            })
            for i in buzzing
        }
        _replay(steps, comps, _head_local([comps[i] for i in buzzing],
                                          [targets[i] for i in buzzing],
                                          [kpos[i] for i in buzzing]), buzzing)
        for i in buzzing:
            if comps[i] != targets[i]:
                raise InternalScheduleViolation("reset rewrite missed its target")

    _replay(steps, comps, Particle(-(horizon - now)))
    if not all(classify(c).great for c in comps):
        raise InternalScheduleViolation("great phase failed")
    return TransportWord(tuple(steps)), TupleK(tuple(comps))


def canonical_great(k: int) -> TupleK:
    """The target vector: component i has a head at 0 and a particle at i."""
    if k < 1:
        raise DomainError("k must be positive")
    return TupleK(tuple(
        Config.from_cells({0: 3, i: 1}) for i in range(1, k + 1)))


def make_canonical(t: TupleK, goal: TupleK) -> tuple[TransportWord, TupleK]:
    """One head-local rewrite taking a great tuple to a great goal of the
    same length: the splice of every transport word."""
    if len(t) != len(goal):
        raise LengthMismatch("tuples have different arity")
    if not all(classify(c).great for c in (*t, *goal)):
        raise NotGreat("the splice joins two great tuples")
    word = TransportWord((_head_local(t, goal, [0] * len(t)),))
    if apply_word(t, word) != goal:
        raise InternalScheduleViolation("splice rewrite missed its goal")
    return word, goal


def transport(src: TupleK, dst: TupleK) -> TransportWord:
    """A word whose replay maps src to dst exactly: both tuples are made
    good and then great, the great ones are spliced, and the destination's
    word is inverted.  The whole word is fused once (`generators.fuse`),
    so it holds no P right after a P and no identity step, and the closing
    `verify` replays the fused word."""
    src = validate_tuple(src)
    dst = validate_tuple(dst)
    if len(src) != len(dst):
        raise LengthMismatch("tuples have different arity")
    good_s, src1 = make_good(src)
    great_s, src2 = make_great(src1)
    good_d, dst1 = make_good(dst)
    great_d, dst2 = make_great(dst1)
    splice, _ = make_canonical(src2, dst2)
    word = fuse(good_s + great_s + splice + invert_word(good_d + great_d))
    if not verify(word, src, dst):
        raise InternalScheduleViolation("transport word failed replay")
    return word


def verify(word: TransportWord, src: TupleK, dst: TupleK) -> bool:
    """Exact componentwise equality of the replay result with dst; a
    nonempty TupleK is taken as built, anything else read by `validate_tuple`."""
    if not isinstance(word, TransportWord):
        raise DomainError(f"not a TransportWord: {quoted(word)}")
    src, dst = (t if isinstance(t, TupleK) and t.components else validate_tuple(t)
                for t in (src, dst))
    if len(src) != len(dst):
        return False
    return apply_word(src, word).components == dst.components
