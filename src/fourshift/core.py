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
from collections.abc import Callable, Iterable, Mapping, Sequence
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
_NO_END = -math.inf  # where the block before the first one ends


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


def head_cells(cells, q: int) -> tuple[tuple[int, int], ...]:
    """The key of a block around q, read from `cells` (sorted cells of a
    configuration around q): each cell as (offset from q, symbol), but a
    head at q, which is left out; any other cell at q is kept."""
    return tuple([(p - q, s) for p, s in cells if s != HEAD or p != q])


@dataclass(frozen=True, slots=True, init=False)
class Config:
    """A finite-support point, stored as sorted (position, symbol) pairs.

    No stored cell carries symbol 0, so structural equality coincides with
    pointwise equality of configurations.  The one constructor trusts its
    cells and writes them with one slot store; `from_cells`, `from_word`
    and `from_runs` check what comes from outside.
    """

    cells: tuple[tuple[int, int], ...] = ()

    def __init__(self, cells: tuple[tuple[int, int], ...] = ()) -> None:
        _set_cells(self, cells)

    @staticmethod
    def from_cells(cells: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Config":
        """The full check: every cell checked, sorted and scanned for
        duplicates."""
        try:
            items = cells.items() if isinstance(cells, Mapping) else cells
            kept = [_check_cell(p, s) for p, s in items
                    if s != 0 or type(s) is not int]  # an int 0 is no cell
        except (TypeError, ValueError) as exc:  # no iterable of pairs
            raise DomainError(f"not cells: {quoted(cells)}") from exc
        kept.sort()
        for (p1, _), (p2, _) in zip(kept, kept[1:]):
            if p1 == p2:
                raise DomainError(f"duplicate cell at position {p1}")
        return Config(tuple(kept))

    @staticmethod
    def from_word(offset: int, digits: str) -> "Config":
        """Configuration whose symbols are `digits` starting at `offset`."""
        if type(offset) is not int or not isinstance(digits, str):
            raise DomainError(f"not an int offset and a digit string: "
                              f"{quoted(offset)}, {quoted(digits)}")
        return Config.from_cells(digit_cells(offset, digits))

    @staticmethod
    def from_runs(text: str) -> "Config":
        """The configuration of a run line.  `parse_runs` yields int
        positions in strictly increasing order with symbols 1-3, so only
        the first and last positions are range-checked."""
        cells = parse_runs(text)
        if cells and (cells[0][0] < -POSITION_LIMIT or cells[-1][0] > POSITION_LIMIT):
            _check_pos(cells[0][0])  # each raises on the first cell out of range
            _check_pos(cells[bisect_left(cells, (POSITION_LIMIT + 1,))][0])
        return Config(tuple(cells))

    def is_zero(self) -> bool:
        return not self.cells

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

    def restrict(self, start: int, stop: int) -> "Config":
        """The cells at start .. stop - 1 alone: one bisect slice."""
        return Config(self.cells_in(start, stop))

    def overwrite(self, blocks: Iterable[tuple[int, int, Iterable]]) -> "Config":
        """This configuration with the cells at start .. stop - 1 replaced
        by `cells`, for each block `(start, stop, cells)`.  Blocks come in
        increasing order: each starts at or after the stop of the one
        before.  The cells of a block lie inside it, in increasing order,
        with symbols 1-3.  Only the written cells are checked; anything
        else raises DomainError."""
        cells, kept, lo, end = self.cells, [], 0, _NO_END
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
        cell some head walked over.  A lone head is spliced in by slices,
        the cells it passes each shifted one cell towards where it came
        from, with no sort."""
        heads = self.heads()
        if not e or not heads:
            return self
        cells, n = self.cells, len(heads)
        if n == 1:
            q = heads[0]
            t = _check_pos(q + e)
            i = bisect_left(cells, (q,))  # the head's cell
            if e > 0:
                j = bisect_left(cells, (t + 1,), i)
                passed = tuple([(p - 1, s) for p, s in cells[i + 1:j]])
                return Config(cells[:i] + passed + ((t, HEAD),) + cells[j:])
            j = bisect_left(cells, (t,), 0, i)
            passed = tuple([(p + 1, s) for p, s in cells[j:i]])
            return Config(cells[:j] + ((t, HEAD),) + passed + cells[i + 1:])
        _check_pos(heads[0] + e)
        _check_pos(heads[-1] + e)
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

    def rewrite_blocks(self, lo: int, hi: int, origins: Iterable[int],
                       image: Callable[[tuple], tuple | None]) -> "Config":
        """The one block law of `HL` and `SR`: the block [o + lo, o + hi) at
        each of the `origins`, read by `head_cells` as its key, replaced by
        `image(key)` unless that is None or the key itself; a head at o,
        left out of the key, is put back.  The blocks must increase and not
        overlap, else DomainError.  Each block is read by one bisect pair
        from where the one before ended and looked up once, and a moved
        image is spliced in by slices.  An image is checked by its ends
        only: offsets in [lo, hi), none at 0 where a head was left out,
        and the first and last written positions in range.  That suffices
        because a `WordPerm` word is checked once, where it enters the
        package, and a head-gap rule builds its image from a key read
        here."""
        cells, out, done, b, end = self.cells, [], 0, 0, _NO_END
        for o in origins:
            start = o + lo
            if start < end:
                raise DomainError(f"the block at {start} starts before the end "
                                  f"of the one before, {end}")
            end = o + hi
            a = bisect_left(cells, (start,), b)
            b = bisect_left(cells, (end,), a)
            key = head_cells(cells[a:b], o)
            new = image(key)
            if new is None or new is key:
                continue
            if new:
                if new[0][0] < lo or new[-1][0] >= hi:
                    raise DomainError(f"not a block of length {hi - lo} from "
                                      f"offset {lo}: {quoted(new)}")
                _check_pos(o + new[0][0])
                _check_pos(o + new[-1][0])
            block = [(o + p, s) for p, s in new]
            if len(key) < b - a:  # the head at o was left out
                h = bisect_left(new, (0,))
                if h < len(new) and new[h][0] == 0:
                    raise DomainError(f"an image writes onto its head: {quoted(new)}")
                block.insert(h, (o, HEAD))
            out += cells[done:a]
            out += block
            done = b
        if not done and not out:  # no block moved: a moved one read or wrote a cell
            return self
        out += cells[done:]
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


_set_cells = Config.cells.__set__  # the slot's own store, past the frozen guard
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
    if not isinstance(text, str):
        raise ParseError(f"a run line is text, not {quoted(text)}")
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


def check_key(cells, lo: int, hi: int, symbols, hole=None) -> tuple[tuple[int, int], ...]:
    """`cells` as a stored key, checked cell by cell: a tuple of int pairs
    (no bools), offsets increasing in [lo, hi) and none at `hole`, every
    symbol in `symbols`; its cells are shared from CELLS."""
    if isinstance(cells, tuple):
        stored, prev = [], lo - 1
        for c in cells:
            o, s = c if type(c) is tuple and len(c) == 2 else (None, None)
            if not (type(o) is int and type(s) is int and prev < o < hi
                    and o != hole and s in symbols):
                break
            prev = o
            stored.append(CELLS.get(c, c))
        else:
            return tuple(stored)
    raise DomainError(f"not a key in [{lo}, {hi}): {quoted(cells)}")


# Window and listed-word symbols, one run of each, CELLS by digit at offset + 64.
WINDOW_SYMBOLS, WORD_SYMBOLS = frozenset({PARTICLE, WALL}), frozenset({PARTICLE, WALL, HEAD})
_KEY_RUNS = {WINDOW_SYMBOLS: re.compile(r"@(-?[0-9]{1,20}):([012]+)"),
             WORD_SYMBOLS: re.compile(r"@(-?[0-9]{1,20}):([0-3]+)")}
_CELLS_BY_DIGIT = {str(s): [CELLS[o, s] for o in range(-64, 65)] for s in (PARTICLE, WALL, HEAD)}


def read_key(text, lo: int, hi: int, symbols, hole=None) -> tuple[tuple[int, int], ...]:
    """The key of a run line, as `check_key` stores it: "ZERO"; one run of
    `_KEY_RUNS` checked as text, when [lo, hi) lies within CELLS: its ends
    in [lo, hi) and a 0 at `hole`; else `parse_runs` and `check_key`."""
    m = isinstance(text, str) and symbols in _KEY_RUNS and _KEY_RUNS[symbols].fullmatch(text)
    if not m or lo < -64 or hi > 65:
        return () if text == "ZERO" else check_key(tuple(parse_runs(text)), lo, hi, symbols, hole)
    offset, digits = int(m[1]), m[2]
    first = offset + len(digits) - len(digits.lstrip("0"))
    last = offset + len(digits.rstrip("0")) - 1
    if first <= last and (first < lo or last >= hi or (
            hole is not None and first <= hole <= last and digits[hole - offset] != "0")):
        raise ParseError(f"not a key in [{lo}, {hi}): {quoted(text)}")
    return tuple([_CELLS_BY_DIGIT[c][i] for i, c in enumerate(digits, offset + 64) if c != "0"])


def isolated(points: Sequence[int], gap: int) -> list[int]:
    """The points of an increasing sequence with no other point within gap."""
    if len(points) < 2:  # the common case: one head, one U-occurrence
        return list(points)
    ends = [-math.inf, *points, math.inf]
    return [q for a, q, b in zip(ends, ends[1:], ends[2:])
            if q - a > gap and b - q > gap]


def _check_config(x) -> Config:
    if not isinstance(x, Config):
        raise DomainError(f"not a Config: {quoted(x)}")
    return x


def shift(x: Config, n: int) -> Config:
    """The shift power sigma^n: the result holds x's symbol from i+n at i."""
    if type(n) is not int or not isinstance(x, Config):
        raise DomainError(f"not a Config and an int shift amount: "
                          f"{quoted(x)}, {quoted(n)}")
    if n == 0 or not x.cells:
        return x
    _check_pos(x.cells[0][0] - n)
    _check_pos(x.cells[-1][0] - n)
    return Config(tuple([(p - n, s) for p, s in x.cells]))


def canonical_form(x: Config) -> tuple[Config, int]:
    """Shift x so its leftmost nonzero cell sits at 0; returns (result, offset)."""
    if _check_config(x).is_zero():
        raise ZeroPoint("zero point has no canonical form")
    off = x.cells[0][0]
    return shift(x, off), off


def orbit_equal(x: Config, y: Config) -> bool:
    """True iff y is a shift of x.  The zero point is orbit-equal only to itself."""
    zx, zy = _check_config(x).is_zero(), _check_config(y).is_zero()
    if zx or zy:
        return zx and zy
    return canonical_form(x)[0] == canonical_form(y)[0]


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
    if not isinstance(x, Config):
        raise DomainError(f"only a Config is classified, not {quoted(x)}")
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
    # orbit key -> first component; the key is the cells of the canonical
    # form, shifted to start at 0, as a plain tuple: no Config is built
    first: dict[tuple, int] = {}
    mates = []
    for j, c in enumerate(comps):
        if not isinstance(c, Config):
            raise DomainError(f"component {j} is not a Config: {quoted(c)}")
        cells = c.cells
        if not cells:
            raise ZeroPoint(f"component {j} is the zero point")
        off = cells[0][0]
        if off:
            _check_pos(cells[-1][0] - off)  # as `shift` checks its last cell
            cells = tuple([(p - off, s) for p, s in cells])
        i = first.setdefault(cells, j)
        if i != j:
            mates.append((i, j))
    if mates:
        raise OrbitCollision(*min(mates))
    return TupleK(comps)
