"""The five generator families as exact evaluators on finite points.

An instruction is one of: the particle rule power, a cellwise symbol
permutation fixing 0, a head-local window permutation, a power of the
simulated head shift, or a general safe rewrite `SafeRewrite(U, V, pi)`,
which is defined in `safety`.  A transport word is a flat list of
instructions applied left to right; every instruction is an automorphism,
so words invert by reversing the list of inverted steps.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import get_args

from . import safety
from .core import (CELLS, PARTICLE, WALL, Config, DomainError, ParseError,
                   TupleK, isolated, json_int, parse_runs, quoted)
from .permbuild import WordPerm, checked_word
from .safety import SafeRewrite


class IllFormedInstruction(DomainError):
    pass


def head_cells(cells, q: int) -> tuple[tuple[int, int], ...]:
    """The window of a head at q, read from `cells` (sorted cells of a
    configuration around q): each cell but the head's, as (offset from q,
    symbol)."""
    return tuple((p - q, s) for p, s in cells if p != q)


@dataclass(frozen=True, slots=True)
class _Power:
    """The e-th power of one generator, e an int: inverted by negating e,
    written as {"op": OP, "e": e}."""

    e: int

    def __post_init__(self):
        if type(self.e) is not int:
            raise IllFormedInstruction(f"{self.OP} power {quoted(self.e)} is not an int")

    def inverse(self):
        return type(self)(-self.e)

    def to_obj(self) -> dict:
        return {"op": self.OP, "e": self.e}

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["e"])


@dataclass(frozen=True, slots=True)
class Particle(_Power):
    """P^e: moves every particle e cells to the left, walls stay put."""

    OP = "P"

    def apply(self, x: Config) -> Config:
        return x.move_particles(self.e)


@dataclass(frozen=True, slots=True)
class SymbolPerm:
    """Cellwise permutation of the symbols {0,1,2,3} fixing 0; `img[s]` is
    the image of s, and `img` a tuple of four ints."""

    img: tuple[int, int, int, int]
    OP = "SYM"

    def __post_init__(self):
        if (type(self.img) is not tuple or list(map(type, self.img)) != [int] * 4
                or sorted(self.img) != [0, 1, 2, 3] or self.img[0] != 0):
            raise IllFormedInstruction(f"not a 0-fixing symbol permutation: {quoted(self.img)}")

    def apply(self, x: Config) -> Config:
        return x.relabel(self.img)

    def inverse(self) -> "SymbolPerm":
        return SymbolPerm(tuple(self.img.index(s) for s in range(4)))

    def to_obj(self) -> dict:
        return {"op": self.OP, "img": list(self.img)}

    @classmethod
    def from_obj(cls, obj) -> "SymbolPerm":
        return cls(tuple(obj["img"]))


SWAP_12 = SymbolPerm((0, 2, 1, 3))
SWAP_13 = SymbolPerm((0, 3, 2, 1))
SWAP_23 = SymbolPerm((0, 1, 3, 2))


@dataclass(frozen=True, slots=True)
class HeadLocal:
    """Rewrite the radius-r window around every sufficiently isolated head
    by a permutation of {0,1,2}^(2r), keyed on the window's nonzero cells
    (see `permbuild`)."""

    r: int
    wp: WordPerm
    OP = "HL"

    def __post_init__(self):
        if type(self.r) is not int or not isinstance(self.wp, WordPerm):
            raise IllFormedInstruction(f"need an int radius and a WordPerm, not "
                                       f"{quoted(self.r)} and a {type(self.wp).__name__}")
        if self.r < 1:
            raise IllFormedInstruction("radius must be positive")
        if self.wp.length != 2 * self.r:
            raise IllFormedInstruction("window permutation length must be 2r")

    def apply(self, x: Config) -> Config:
        """Every point with no head is fixed: only the windows of heads
        isolated at gap 2r + 2 are read (`Config.head_local`)."""
        return x.head_local(self.r, self.wp.images)

    def inverse(self) -> "HeadLocal":
        return HeadLocal(self.r, self.wp.inverse())

    def to_obj(self) -> dict:
        """The map as its disjoint cycles (`WordPerm.to_cycles`), each
        window a run line relative to the head; the identity is
        `"cycles": []`."""
        return {"op": self.OP, "r": self.r, "cycles": self.wp.to_cycles()}

    @classmethod
    def from_obj(cls, obj) -> "HeadLocal":
        """Inverse of to_obj: the map is read from `"cycles"` only, by
        `WordPerm._read_cycles`, and each window is checked once, when
        read."""
        r = json_int(obj["r"])
        for form in ("map", "cells"):
            if form in obj:
                raise ParseError(f"an HL map is written as cycles, not as {form!r}")
        return cls(r, WordPerm._read_cycles(
            obj["cycles"], lambda w: _window_of_line(w, r), 2 * r))


# One run of digits 0-2, and the cells of CELLS by digit at offset + 64.
_WINDOW_RUN = re.compile(r"@(-?[0-9]{1,20}):([012]+)")
_CELL_ROWS = {str(s): [CELLS[o, s] for o in range(-64, 65)] for s in (PARTICLE, WALL)}


def _window_of_line(text, r: int) -> tuple[tuple[int, int], ...]:
    """The cells of a window run line of radius r: "ZERO", or for r <= 64
    one run checked as text (digits 0-2, a 0 at the head's offset, the ends
    within +-r) with its cells from CELLS; else parse_runs and checked_word."""
    if not isinstance(text, str):
        raise ParseError(f"a window is a run line, not a {type(text).__name__}")
    m = _WINDOW_RUN.fullmatch(text)
    if m is None or r > 64:
        return () if text == "ZERO" else checked_word(tuple(parse_runs(text)), 2 * r)
    offset, digits = int(m[1]), m[2]
    first = offset + len(digits) - len(digits.lstrip("0"))
    last = offset + len(digits.rstrip("0")) - 1
    if first <= last and (first < -r or last > r or (
            first <= 0 <= last and digits[-offset] != "0")):
        raise ParseError(f"not a window of radius {r}: {quoted(text)}")
    return tuple([_CELL_ROWS[c][i]
                  for i, c in enumerate(digits, offset + 64) if c != "0"])


@dataclass(frozen=True, slots=True)
class HeadShift(_Power):
    """e-th power of the simulated shift of an isolated head."""

    OP = "HS"

    def apply(self, x: Config) -> Config:
        """Every point with no head is fixed.  The first step is one
        `safety.head_shift_once`; if every head is then isolated, the other
        |e| - 1 steps are one `Config.slide`, as a step keeps the heads'
        spacing, and else each is one more `head_shift_once`."""
        if not self.e:
            return x
        step = 1 if self.e > 0 else -1
        y = safety.head_shift_once(x, step)
        if y == x:  # a fixed point of one step is fixed by every power
            return x
        heads = y.heads()
        if len(isolated(heads, safety.SIGMA3_TAU_SPEC.m_rad)) == len(heads):
            return y.slide(self.e - step)
        for _ in range(abs(self.e) - 1):
            x, y = y, safety.head_shift_once(y, step)
            if y == x:
                break
        return y


Instruction = Particle | SymbolPerm | HeadLocal | HeadShift | SafeRewrite
OPS = {cls.OP: cls for cls in get_args(Instruction)}
_KINDS = frozenset(OPS.values())


@dataclass(frozen=True, slots=True)
class TransportWord:
    """A tuple of instructions, each of an `OPS` class, applied left to
    right."""

    steps: tuple[Instruction, ...] = ()

    def __post_init__(self):
        if type(self.steps) is not tuple:
            raise IllFormedInstruction(
                f"steps are a tuple, not a {type(self.steps).__name__}")
        for ins in self.steps:
            if type(ins) not in _KINDS:
                raise IllFormedInstruction(f"not an instruction: {quoted(ins)}")

    def __len__(self) -> int:
        return len(self.steps)

    def __add__(self, other: "TransportWord") -> "TransportWord":
        return TransportWord(self.steps + other.steps)


def apply_instruction(x: Config, ins: Instruction) -> Config:
    return ins.apply(x)


def apply_word(target: Config | TupleK, word: TransportWord):
    """Left-to-right fold of apply_instruction, componentwise on tuples."""
    if isinstance(target, TupleK):
        return TupleK(tuple(apply_word(c, word) for c in target))
    if not isinstance(target, Config):
        raise DomainError(f"not a Config or a TupleK: {quoted(target)}")
    for ins in word.steps:
        target = apply_instruction(target, ins)
    return target


def invert_word(word: TransportWord) -> TransportWord:
    return TransportWord(tuple(ins.inverse() for ins in reversed(word.steps)))


def _moves_nothing(ins: Instruction) -> bool:
    if isinstance(ins, HeadLocal):
        return not ins.wp.images
    return isinstance(ins, _Power) and not ins.e


def fuse(word: TransportWord) -> TransportWord:
    """The same automorphism in fewer steps, in one left-to-right pass:
    a particle power right after another becomes their sum, since
    P^a P^b = P^(a+b), and P^0, HS^0 and head-local steps that move no
    window are dropped; a drop can bring two particle powers together,
    and they merge too."""
    out: list[Instruction] = []
    for ins in word.steps:
        if out and isinstance(ins, Particle) and isinstance(out[-1], Particle):
            ins = Particle(out.pop().e + ins.e)
        if not _moves_nothing(ins):
            out.append(ins)
    return TransportWord(tuple(out))


def size_report(word: TransportWord) -> dict[str, int]:
    """Instruction counts by tag, for word-length reporting."""
    return dict(Counter(type(ins).__name__ for ins in word.steps))
