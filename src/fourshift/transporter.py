"""Transport of distinct-orbit tuples: classify, make good and make great
on both sides, then splice the two great tuples with one head-local
rewrite (`make_canonical`) followed by the inverted destination word, and
fuse the whole word once before it is verified.

Every emitted word is built by replaying each step once, on the components
it can move, so the returned tuple is always the exact replay result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (HEAD, PARTICLE, WALL, Config, DomainError, TupleK,
                   _check_pos, classify, head_cells, quoted, validate_tuple)
from .generators import (SWAP_13, SWAP_23, HeadLocal, HeadShift, Particle,
                         TransportWord, apply_instruction, apply_word,
                         check_word, fuse, invert_word)
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
    One pass over the cells: each wall (a head is a wall and a particle)
    is measured against the last particle strictly before it, and the
    reading is the wall of the unique least gap, if one is unique."""
    if not isinstance(x, Config):
        raise DomainError(f"only a Config has a clock reading, not {quoted(x)}")
    if x.is_zero():
        raise DomainError("zero point has no clock reading")
    last, least, wall, tied = float("-inf"), float("inf"), None, False
    for p, s in x.cells:
        if s != PARTICLE:
            gap = p - last
            if gap < least:
                least, wall, tied = gap, p, False
            elif gap == least:
                tied = True
        if s != WALL:
            last = p
    return None if wall is None or tied else Reading(wall, least - 1)


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


def _read_tuple(t) -> TupleK:
    """A nonempty TupleK as built, once its components are seen to be
    Configs; anything else read by `validate_tuple`."""
    if not (isinstance(t, TupleK) and t.components):
        return validate_tuple(t)
    for j, c in enumerate(t.components):
        if not isinstance(c, Config):
            raise DomainError(f"not a Config or a TupleK of Configs: "
                              f"component {j} is {quoted(c)}")
    return t


def make_good(t: TupleK) -> tuple[TransportWord, TupleK]:
    """Particle moves and symbol swaps producing a good tuple; phases whose
    target already holds are skipped."""
    steps, comps = [], list(_read_tuple(t))
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
    """One head-local rewrite taking the cells of each component to those
    of its target, both with a single head at the same position; the
    radius covers every other cell of both, so a window, read by
    `head_cells`, is every cell but the head.  Both callers check or
    build that single head just before, so each window is already one of
    radius r (increasing int offsets within +-r, none at 0, symbols 1 or
    2), so its farthest offset is one of its two ends, and the map is
    built by the private `permbuild._mapping_perm`, which trusts its
    windows."""
    pairs = [(head_cells(c, q), head_cells(g, q))
             for c, g, q in zip(comps, targets, heads)]
    r = max([1, *(max(-w[0][0], w[-1][0]) for pair in pairs for w in pair if w)])
    return HeadLocal(r, _mapping_perm(pairs, 2 * r))


def make_great(t: TupleK) -> tuple[TransportWord, TupleK]:
    """Drive a good tuple through the one-reset buzz schedule so that every
    component ends with exactly one head, at the origin.

    Component i first buzzes (shows a head) at position a_i after tau_i
    inverse particle steps, read off its clock; at each buzz time the
    buzzing heads are shifted clear of the origin and rewritten so that
    all of them buzz again at 0 at the horizon, one step after the last
    first buzz."""
    t = _read_tuple(t)
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
        kpos = [buzz[i][0] + e for i in buzzing]
        for i, q in zip(buzzing, kpos):
            if comps[i].heads() != (q,):
                raise InternalScheduleViolation("head shift missed its target")
        targets = [(
            (-(horizon - tau), PARTICLE),  # buzzes at 0 at the horizon
            (0, WALL),                     # wall for the rescheduled collision
            (q, HEAD),                     # the head stays put
            (q + i + 2, PARTICLE),         # orbit-separating companion
        ) for i, q in zip(buzzing, kpos)]
        _replay(steps, comps, _head_local([comps[i].cells for i in buzzing],
                                          targets, kpos), buzzing)
        for i, g in zip(buzzing, targets):
            if comps[i].cells != g:
                raise InternalScheduleViolation("reset rewrite missed its target")

    _replay(steps, comps, Particle(-(horizon - now)))
    if not all(classify(c).great for c in comps):
        raise InternalScheduleViolation("great phase failed")
    return TransportWord(tuple(steps)), TupleK(tuple(comps))


def canonical_great(k: int) -> TupleK:
    """The target vector: component i has a head at 0 and a particle at i.
    Time and memory grow with k; PositionOverflow past POSITION_LIMIT."""
    if type(k) is not int or k < 1:
        raise DomainError(f"k must be positive and an int, not {quoted(k)}")
    _check_pos(k)  # the last particle, checked before any component is built
    return TupleK(tuple(
        Config.from_cells({0: 3, i: 1}) for i in range(1, k + 1)))


def make_canonical(t: TupleK, goal: TupleK) -> tuple[TransportWord, TupleK]:
    """One head-local rewrite taking a great tuple to a great goal of the
    same length: the splice of every transport word."""
    t, goal = _read_tuple(t), _read_tuple(goal)
    if len(t) != len(goal):
        raise LengthMismatch("tuples have different arity")
    if not all(classify(c).great for c in (*t, *goal)):
        raise NotGreat("the splice joins two great tuples")
    word = TransportWord((_head_local([c.cells for c in t],
                                      [g.cells for g in goal], [0] * len(t)),))
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
    """Exact componentwise equality of the replay result with dst; each
    tuple is read by `_read_tuple`, so a nonempty TupleK is taken as built."""
    check_word(word)
    src, dst = _read_tuple(src), _read_tuple(dst)
    if len(src) != len(dst):
        return False
    return apply_word(src, word).components == dst.components
