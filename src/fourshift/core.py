"""Finite-support configurations on the four-symbol full shift.

Symbols: 0 (background), 1 (particle), 2 (wall), 3 (head, i.e. a particle
sitting on a wall).  A configuration stores only its nonzero cells, so the
empty configuration is the all-zero point.  All values are immutable and
all operations are pure.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

PARTICLE, WALL, HEAD = 1, 2, 3

# Positions are conceptually 64-bit signed; anything beyond this bound is
# an overflow error rather than wraparound.
POSITION_LIMIT = 2**62

# In a run line, a zero gap wider than this many cells starts a new run.
RUN_GAP = 64
_RUN_RE = re.compile(r"@(-?[0-9]+):([0-3]+)")
_NONZERO_RE = re.compile("[123]")
# The nonzero cells at most 64 cells from an origin, one object each: a
# stored window or word key made of them costs a pointer per cell.
CELLS = {(o, s): (o, s)
         for o in range(-64, 65) for s in (PARTICLE, WALL, HEAD)}


class DomainError(Exception):
    """Base class for domain-rule violations."""


class ZeroPoint(DomainError):
    """The all-zero point was supplied where a nonzero point is required."""


class OrbitCollision(DomainError):
    """Two tuple components lie in the same shift orbit."""

    def __init__(self, i: int, j: int):
        super().__init__(f"components {i} and {j} are in the same shift orbit")
        self.i = i
        self.j = j


class PositionOverflow(DomainError):
    """A cell position left the supported integer range."""


class ParseError(DomainError):
    """Text or JSON input that does not encode a valid value."""


def quoted(v: object) -> str:
    """repr(v) cut to 60 characters, its type named, when longer: how an
    error message quotes a value read from input, in one short line."""
    text = repr(v)
    return text if len(text) <= 60 else f"{text[:60]}... (a {type(v).__name__})"


def json_int(v: object) -> int:
    """An integer field read from JSON: floats and booleans are rejected."""
    if type(v) is not int:
        raise ParseError(f"not a JSON integer: {quoted(v)}")
    return v


def _check_pos(p: int) -> int:
    if not -POSITION_LIMIT <= p <= POSITION_LIMIT:
        raise PositionOverflow(f"position {quoted(p)} out of range")
    return p


def _check_cell(p: int, s: int) -> tuple[int, int]:
    """(p, s) as a stored cell: int position and symbol 1-3, no bools."""
    if type(p) is not int:
        raise DomainError(f"position {quoted(p)} is not an int")
    if type(s) is not int or not 0 < s < 4:
        raise DomainError(f"invalid symbol {quoted(s)} at position {quoted(p)}")
    return _check_pos(p), s


def digit_cells(offset: int, digits: str) -> list[tuple[int, int]]:
    """The nonzero cells of the digit string `digits` written from `offset`
    on, in order; a character other than 0-3 raises ParseError."""
    bad = digits.strip("0123")
    if bad:
        raise ParseError(f"invalid digit {bad[0]!r}")
    return [(offset + m.start(), int(m[0])) for m in _NONZERO_RE.finditer(digits)]


@dataclass(frozen=True, slots=True)
class Config:
    """A finite-support point, stored as sorted (position, symbol) pairs.

    No stored cell carries symbol 0, so structural equality coincides with
    pointwise equality of configurations.
    """

    cells: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_cells(cells: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Config":
        items = cells.items() if isinstance(cells, Mapping) else cells
        kept = [_check_cell(p, s) for p, s in items
                if s != 0 or type(s) is not int]  # an int 0 is no cell
        kept.sort()
        for (p1, _), (p2, _) in zip(kept, kept[1:]):
            if p1 == p2:
                raise DomainError(f"duplicate cell at position {p1}")
        return Config(tuple(kept))

    @staticmethod
    def from_word(offset: int, digits: str) -> "Config":
        """Configuration whose symbols are `digits` starting at `offset`."""
        return Config.from_cells(digit_cells(offset, digits))

    def is_zero(self) -> bool:
        return not self.cells

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.cells)

    def min_pos(self) -> int:
        if not self.cells:
            raise ZeroPoint("zero point has no support")
        return self.cells[0][0]

    def max_pos(self) -> int:
        if not self.cells:
            raise ZeroPoint("zero point has no support")
        return self.cells[-1][0]

    def heads(self) -> tuple[int, ...]:
        """Positions of the head cells, in increasing order."""
        return tuple([p for p, s in self.cells if s == HEAD])

    def sym(self, p: int) -> int:
        """The symbol at p, 0 where no cell is stored: one bisect slice."""
        cell = self.cells_in(p, p + 1)
        return cell[0][1] if cell else 0

    def cells_in(self, start: int, stop: int) -> tuple[tuple[int, int], ...]:
        """The cells at start .. stop - 1, in order: one bisect slice."""
        cells = self.cells
        lo = bisect_left(cells, (start,))
        return cells[lo:bisect_left(cells, (stop,), lo)]

    def overwrite(self, blocks: Iterable[tuple[int, int, Iterable]]) -> "Config":
        """This configuration with the cells at start .. stop - 1 replaced
        by `cells`, for each block `(start, stop, cells)`.  Blocks come in
        increasing order: each starts at or after the stop of the one
        before.  The cells of a block lie inside it, in increasing order,
        with symbols 1-3.  Only the written cells are checked; anything
        else raises DomainError."""
        cells, kept, lo, end = self.cells, [], 0, float("-inf")
        for start, stop, written in blocks:
            if not end <= start <= stop:
                raise DomainError(f"the block at {start} starts before the end of "
                                  f"the one before, {end}, or ends before it starts")
            i = bisect_left(cells, (start,), lo)
            kept += cells[lo:i]
            prev = start - 1
            for p, s in written:
                kept.append(_check_cell(p, s))
                if not prev < p < stop:
                    raise DomainError(f"cell at {p} out of order or outside "
                                      f"its block {start} .. {stop - 1}")
                prev = p
            lo, end = bisect_left(cells, (stop,), i), stop
        kept += cells[lo:]
        return Config(tuple(kept))

    def slide(self, e: int) -> "Config":
        """Every head moved e cells, and every other cell moved back one
        cell for each head that passes it: the compressed-tape law.  With
        the heads dropped, the other cells form a tape that stays as it
        is; a head at q with i heads before it sits just before tape cell
        q - i, and that insertion point advances by e.  Only the cells
        between the first and the last head's paths move, and only the
        heads' end positions are range-checked: a passed cell lands on a
        cell some head walked over."""
        heads = self.heads()
        if not e or not heads:
            return self
        _check_pos(heads[0] + e)
        _check_pos(heads[-1] + e)
        cells, n = self.cells, len(heads)
        lo = bisect_left(cells, (min(heads[0], heads[0] + e),))
        hi = bisect_left(cells, (max(heads[-1], heads[-1] + e) + 1,), lo)
        ends = [q + e - i for i, q in enumerate(heads)]  # new insertion points
        mid, i, j = [(q + e, HEAD) for q in heads], 0, 0
        for p, s in cells[lo:hi]:
            if s == HEAD:
                i += 1  # the heads in the block are heads[0 .. n - 1]
                continue
            c = p - i  # the cell's place on the tape
            while j < n and ends[j] <= c:
                j += 1
            mid.append((c + j, s))
        mid.sort()
        return Config(cells[:lo] + tuple(mid) + cells[hi:])

    def head_local(self, r: int, images: Mapping) -> "Config":
        """The head-local law: the window of each head q with no other
        head within 2r + 2 cells, its cells at q - r .. q + r but the
        head's as (offset from q, symbol), replaced by its image in
        `images` where it has one.  Each window is read by one bisect
        pair and looked up once, and its image is spliced in by slices
        with the head put back at offset 0.  An image is checked by its
        ends only: first offset >= -r, last offset <= r, none at 0, and
        the first and last written positions in range.  That suffices
        because every `WordPerm` builder checks each word once, with
        increasing int offsets and symbols 1-3."""
        if not images:
            return self
        cells, out, lo = self.cells, [], 0
        for q in isolated(self.heads(), 2 * r + 2):
            i = bisect_left(cells, (q - r,), lo)
            j = bisect_left(cells, (q + r + 1,), i)
            image = images.get(tuple([(p - q, s) for p, s in cells[i:j] if p != q]))
            if image is None:
                continue
            h = bisect_left(image, (0,))
            if image and (image[0][0] < -r or image[-1][0] > r
                          or h < len(image) and image[h][0] == 0):
                raise DomainError(f"not a window of radius {r}: {quoted(image)}")
            block = [(q + o, s) for o, s in image]
            block.insert(h, (q, HEAD))
            _check_pos(block[0][0])
            _check_pos(block[-1][0])
            out += cells[lo:i]
            out += block
            lo = j
        if not out:  # no window had an image
            return self
        out += cells[lo:]
        return Config(tuple(out))

    def move_particles(self, e: int) -> "Config":
        """P^e: each particle bit moved from p to p - e, wall bits kept.
        The two tracks are split in one pass and merged again, a particle
        landing on a wall making a head; the move keeps the order, so only
        the moved track's two ends are range-checked."""
        moved, walls = [], []
        for p, s in self.cells:
            if s != WALL:
                moved.append(p - e)
            if s != PARTICLE:
                walls.append(p)
        if moved:
            _check_pos(moved[0])
            _check_pos(moved[-1])
        cells, j, n = [], 0, len(walls)
        for p in moved:
            while j < n and walls[j] < p:
                cells.append((walls[j], WALL))
                j += 1
            if j < n and walls[j] == p:
                cells.append((p, HEAD))
                j += 1
            else:
                cells.append((p, PARTICLE))
        cells += [(w, WALL) for w in walls[j:]]
        return Config(tuple(cells))

    def relabel(self, img: Sequence[int]) -> "Config":
        """Each symbol s replaced by img[s], positions kept; img must be a
        permutation of 0-3 fixing 0, which is not checked here."""
        return Config(tuple([(p, img[s]) for p, s in self.cells]))


ZERO = Config()


def emit_runs(cells: Sequence[tuple[int, int]]) -> str:
    """Sorted nonzero cells as a run line: `@offset:digits` runs joined by
    spaces, a new run wherever a zero gap is wider than RUN_GAP; "ZERO"
    when there are no cells."""
    if not cells:
        return "ZERO"
    parts, prev = [], 0
    for p, s in cells:
        if not parts or p - prev > RUN_GAP + 1:
            parts.append(f" @{p}:")
        else:
            parts.append("0" * (p - prev - 1))
        parts.append(str(s))
        prev = p
    return "".join(parts)[1:]


def parse_runs(text: str) -> list[tuple[int, int]]:
    """The nonzero cells of a run line, in order: "ZERO", or runs separated
    by whitespace, each starting after the last cell of the one before."""
    if text == "ZERO":
        return []
    runs = text.split()
    if not runs:
        raise ParseError("empty run line")
    cells, end = [], None
    for run in runs:
        m = _RUN_RE.fullmatch(run)
        if m is None:
            raise ParseError(f"not a run of cells: {quoted(run)}")
        try:
            offset = int(m[1])
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"offset too long: {exc}") from exc
        if end is not None and offset < end:
            raise ParseError(f"the run at {quoted(offset)} overlaps the one before")
        end = offset + len(m[2])
        cells += digit_cells(offset, m[2])
    return cells


def isolated(points: Sequence[int], gap: int) -> list[int]:
    """The points of an increasing sequence with no other point within gap."""
    if len(points) < 2:  # the common case: one head, one U-occurrence
        return list(points)
    ends = [-math.inf, *points, math.inf]
    return [q for a, q, b in zip(ends, ends[1:], ends[2:])
            if q - a > gap and b - q > gap]


def shift(x: Config, n: int) -> Config:
    """The shift power sigma^n: the result holds x's symbol from i+n at i."""
    if n == 0 or not x.cells:
        return x
    _check_pos(x.cells[0][0] - n)
    _check_pos(x.cells[-1][0] - n)
    return Config(tuple([(p - n, s) for p, s in x.cells]))


def canonical_form(x: Config) -> tuple[Config, int]:
    """Shift x so its leftmost nonzero cell sits at 0; returns (result, offset)."""
    if x.is_zero():
        raise ZeroPoint("zero point has no canonical form")
    off = x.min_pos()
    return shift(x, off), off


def orbit_equal(x: Config, y: Config) -> bool:
    """True iff y is a shift of x.  The zero point is orbit-equal only to itself."""
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    return canonical_form(x)[0] == canonical_form(y)[0]


def tracks(x: Config) -> tuple[frozenset[int], frozenset[int]]:
    """Split x into its particle and wall tracks (heads appear in both)."""
    particles = frozenset(p for p, s in x.cells if s in (PARTICLE, HEAD))
    walls = frozenset(p for p, s in x.cells if s in (WALL, HEAD))
    return particles, walls


@dataclass(frozen=True)
class ClassFlags:
    prepregood: bool
    pregood: bool
    good: bool
    unihead: bool
    great: bool


def classify(x: Config) -> ClassFlags:
    """Staged normal-form flags of a nonzero finite point, in one pass: it is
    prepregood when it has no head and no particle follows its first wall."""
    if x.is_zero():
        raise ZeroPoint("cannot classify the zero point")
    heads, prev, late = [], PARTICLE, False
    for p, s in x.cells:
        if s == HEAD:
            heads.append(p)
        late, prev = late or s < prev, s  # a particle after a wall, or a head
    prepregood = not heads and not late
    pregood = prepregood and x.cells[0][1] == PARTICLE
    return ClassFlags(prepregood, pregood, pregood and x.cells[-1][1] == WALL,
                      len(heads) == 1, heads == [0])


@dataclass(frozen=True, slots=True)
class TupleK:
    """An ordered tuple of nonzero points from pairwise distinct shift orbits."""

    components: tuple[Config, ...]

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Config:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)


def validate_tuple(components: Iterable[Config]) -> TupleK:
    """The Configs as a tuple, else DomainError, ZeroPoint, or OrbitCollision(i,
    j) for the first i with an orbit-mate after it and j its first mate."""
    try:
        comps = tuple(components)
    except TypeError as exc:  # not iterable
        raise DomainError(f"a tuple is a sequence of Configs, not a "
                          f"{type(components).__name__}") from exc
    if not comps:
        raise DomainError("a tuple needs at least one component")
    first: dict[Config, int] = {}  # canonical form -> first component
    mates = []
    for j, c in enumerate(comps):
        if not isinstance(c, Config):
            raise DomainError(f"component {j} is not a Config: {quoted(c)}")
        if c.is_zero():
            raise ZeroPoint(f"component {j} is the zero point")
        i = first.setdefault(canonical_form(c)[0], j)
        if i != j:
            mates.append((i, j))
    if mates:
        raise OrbitCollision(*min(mates))
    return TupleK(comps)
