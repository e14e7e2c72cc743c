"""Safe-rewrite automorphisms by isolated local rewriting.

A safe rewrite carries a word set U, a marker set V and a permutation of
U; its two radii are the strict ones fixed by the word lengths.  A
position is rewritten only when its U-occurrence is alone within the large
radius and all nearby V-occurrences sit inside the rewritten block; under
the safety conditions this yields an automorphism whose rewrite sites are
stable, hence a group action.

The construction uses two marker rules.  The head marker V = {3}, kept as
a one-letter head-gap family, guards the simulated shift and explicit
rewrites with third-anchored heads.  V = all nonzero words of length n
guards the zero-padded words 0^n w 0^n of even orbit permutations.  Word
families too large to enumerate are schematic and matched by pattern.
Listed words are held by their cell keys, written in a word file as run
lines from their first letter; a listed map is their disjoint cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field

from .core import (CELLS, HEAD, WORD_SYMBOLS, Config, DomainError, ParseError,
                   emit_runs, isolated, json_int, quoted, read_key, shift)
from .permbuild import WordPerm

SIGMA_SIZE = 4


class IllFormedWordSet(DomainError):
    pass


class IllFormedSpec(DomainError):
    pass


# --- word set descriptors -------------------------------------------------

Key = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ExplicitWords:
    """A finite, explicitly listed set of words over {0,1,2,3}, each held
    by its key: its nonzero cells, (offset, symbol) pairs with increasing
    offsets in [0, length).  `shapes` maps each key's cells relative to
    its first cell, the cell objects of CELLS shared, to the first
    offsets where that shape starts in a word, and `sizes` holds (least
    first offset of a key of that count, cell count) pairs in increasing
    order.  Each key is checked and its shape built in one pass."""

    length: int
    keys: frozenset[Key]
    shapes: dict[Key, tuple[int, ...]] = field(
        init=False, repr=False, compare=False)
    sizes: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.keys:
            raise IllFormedWordSet("empty word set")
        n, shapes, least = self.length, {}, {}
        for key in self.keys:
            if not key:
                raise IllFormedWordSet("word set contains the all-zero word")
            try:  # (offset, symbol) pairs: increasing int offsets in [0, length), symbols 1-3
                f, prev, shape = key[0][0], -1, []
                for o, s in key:
                    if not (type(o) is int and type(s) is int and prev < o < n and 0 < s < 4):
                        raise ValueError
                    prev, c = o, (o - f, s)
                    shape.append(CELLS.get(c, c))
            except (TypeError, ValueError, IndexError):
                raise IllFormedWordSet(f"{quoted(key)} is not a word key in [0, {n})") from None
            shape = tuple(shape)
            shapes[shape] = (*shapes.get(shape, ()), f)
            least[len(key)] = min(least.get(len(key), f), f)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "sizes", tuple(sorted((f, n) for n, f in least.items())))


def cell_key(cells: Iterable[tuple[int, int]], start: int = 0) -> Key:
    """The cells relative to `start`, sharing the cell objects of CELLS."""
    return tuple([CELLS.get(c, c) for c in [(p - start, s) for p, s in cells]])


@dataclass(frozen=True)
class HeadLayoutWords:
    """All words of a fixed length whose head symbols sit at one of the
    given offset sets, every other letter ranging over {0,1,2}."""

    length: int
    layouts: frozenset[frozenset[int]]


# The marker set {3}, matched through the head cells.
HEAD_MARKER = HeadLayoutWords(1, frozenset({frozenset({0})}))


@dataclass(frozen=True)
class NonzeroWords:
    """All nonzero words of a fixed length, a marker set (never enumerated)."""

    length: int


WordSetDesc = ExplicitWords | HeadLayoutWords | NonzeroWords


def occurrences(x: Config, wset: ExplicitWords | HeadLayoutWords) -> frozenset[int]:
    """Positions i with x[i .. i+len-1] in the word set; exact and finite.

    Listed words are matched by shape: a start i = p - f is tried only
    where a cell p of x is the window's first, so f is less than the gap g
    from the cell before p.  The cell counts n of the keys are tried in
    increasing order of their keys' least first offset: the scan stops at
    the first count whose keys all start at offsets of g or more, skips a
    count whose n-th cell from p lies k or more past p, and otherwise
    looks up the n cells from p, relative to p, in `shapes`; each first
    offset f < g whose window holds no further cell gives a start.  Cost:
    at most one tuple of cells per cell of x and distinct cell count whose
    least first offset is below g, never the word length.  Head
    layouts read the heads of each candidate window as one bisect slice
    of the sorted heads."""
    if isinstance(wset, ExplicitWords):
        cells, k, shapes, found = x.cells, wset.length, wset.shapes, []
        end = len(cells)
        for j, (p, _) in enumerate(cells):
            g = p - cells[j - 1][0] if j else k
            for least, n in wset.sizes:
                if least >= g:
                    break
                stop = j + n
                if stop > end or cells[stop - 1][0] - p >= k:
                    continue
                shape = tuple([(q - p, s) for q, s in cells[j:stop]])
                for f in shapes.get(shape, ()):
                    if f < g and (stop == end or cells[stop][0] >= p - f + k):
                        found.append(p - f)
        return frozenset(found)
    if isinstance(wset, HeadLayoutWords):
        heads, L = x.heads(), wset.length
        starts = {p - off for p in heads for lay in wset.layouts for off in lay}
        return frozenset(i for i in starts if frozenset(
            q - i for q in heads[bisect_left(heads, i):bisect_left(heads, i + L)]
        ) in wset.layouts)
    raise IllFormedWordSet(f"no occurrence scan for {quoted(wset)}")


# --- permutations of word sets --------------------------------------------

@dataclass(frozen=True)
class RuleWordMap:
    """A named rule-based involution (head-gap rearrangement families)."""

    tag: str  # a key of HEAD_GAP_FAMILIES

    def __post_init__(self):
        if type(self.tag) is not str or self.tag not in HEAD_GAP_FAMILIES:
            raise IllFormedSpec(f"no head-gap rule named {quoted(self.tag)}")

    def apply(self, key: Key) -> Key:
        """PI keeps the letter left of the head, TAU the letter right of
        it: with m = SIGMA3_M, that letter a becomes heads at m and
        m + 1 + a, and heads at m and q the letter q - m - 1 by a head."""
        m, left = SIGMA3_M, self.tag == "SIGMA3_PI"
        heads = [o for o, s in key if s == HEAD]
        out = [c for c in key if c[0] < m]
        if len(heads) == 1:  # one head: encode the kept letter as a gap
            a = dict(key).get(m if left else m + 1, 0)
            out.append((m, HEAD))
            out += [(o - 1, s) for o, s in key if m + 2 <= o < m + 2 + a]
            out.append((m + 1 + a, HEAD))
            return tuple(out + [c for c in key if c[0] >= m + 2 + a])
        q, j = heads[1], heads[1] - m - 1  # two heads: decode the gap as a letter
        out += [(m, j), (m + 1, HEAD)] if left else [(m, HEAD), (m + 1, j)]
        out += [(o + 1, s) for o, s in key if m < o < q]
        return tuple([c for c in out if c[1]] + [c for c in key if c[0] > q])

    def inverse(self) -> "RuleWordMap":
        return self  # both rules are involutions


WordMap = WordPerm | RuleWordMap


# --- marker rules -----------------------------------------------------------

def _check_head_layouts(U: WordSetDesc) -> None:
    """Third-anchored sufficient condition for {3}-safety: every word of U
    has a head, all heads sit in the middle third, and equal head counts
    agree on the leftmost head.  U is a head-gap family or listed words,
    the only word sets that `SafeRewrite` lets through its check of pi."""
    if isinstance(U, HeadLayoutWords):
        layouts = U.layouts
    else:
        layouts = [frozenset(o for o, s in key if s == HEAD)
                   for key in sorted(U.keys)]
    if U.length % 3 != 0:
        raise IllFormedSpec("length not divisible by three")
    k3 = U.length // 3
    leftmost_by_count: dict[int, int] = {}
    for lay in layouts:
        if not lay:
            raise IllFormedSpec("a word of U lacks the marker symbol")
        shown = quoted(sorted(lay))
        if any(not k3 <= off < 2 * k3 for off in lay):
            raise IllFormedSpec(f"marker outside the middle third: {shown}")
        first = leftmost_by_count.setdefault(len(lay), min(lay))
        if first != min(lay):
            raise IllFormedSpec(
                f"equal marker count, different leftmost position: {shown}")


def _check_zero_padded(U: WordSetDesc, n: int) -> None:
    """Sufficient condition for V = all nonzero words of length n: every
    word of U has the shape 0^n w 0^n and no core sits at two offsets,
    read from the shapes of U."""
    if not isinstance(U, ExplicitWords) or U.length != 3 * n:
        raise IllFormedSpec("zero-padded words must be listed, of length 3n")
    for shape, (f, *more) in U.shapes.items():
        if more or not n <= f < 2 * n - shape[-1][0]:
            words = quoted([emit_runs(cell_key(shape, -g)) for g in (f, *more)])
            raise IllFormedSpec(("same core at two offsets: " if more else
                                 "nonzero symbol outside the middle third: ") + words)


# --- the safe rewrite -------------------------------------------------------

@dataclass(frozen=True)
class SafeRewrite:
    """The instruction SR: rewrite the words U by pi where the marker words
    V allow it.  With k = |U| and h = |V| the radii are the minimal strict
    ones over the 4-symbol alphabet: ell = 4^h + 1 and m_rad = ell + 2k + h;
    past h = 32, 4^32 + 1 stands for ell, since it already exceeds the
    distance of any two positions, so it selects the same sites.
    Built only when it is an automorphism: pi permutes U, and U meets the
    marker rule of V (the head marker or the nonzero words of length h).
    pi maps word keys: a named rule, or a WordPerm moving only the keys
    of listed words U."""

    U: WordSetDesc
    V: WordSetDesc
    pi: WordMap
    k: int = field(init=False)
    h: int = field(init=False)
    ell: int = field(init=False)
    m_rad: int = field(init=False)
    OP = "SR"

    def __post_init__(self):
        k, h = self.U.length, self.V.length
        if type(k) is not int or type(h) is not int or not k >= h >= 1:
            raise IllFormedSpec(f"need int word lengths k >= h >= 1, not {quoted(k)}, {quoted(h)}")
        if isinstance(self.pi, RuleWordMap):
            if self.U != HEAD_GAP_FAMILIES[self.pi.tag]:
                raise IllFormedSpec(f"rule {self.pi.tag!r} does not permute U")
        elif not (isinstance(self.pi, WordPerm) and self.pi.length == k
                  and isinstance(self.U, ExplicitWords)
                  and self.pi.images.keys() <= self.U.keys):
            raise IllFormedSpec("pi must be a word permutation moving only U")
        if self.V == HEAD_MARKER:
            _check_head_layouts(self.U)
        elif isinstance(self.V, NonzeroWords):
            _check_zero_padded(self.U, h)
        else:
            raise IllFormedSpec(f"no marker rule for V = {quoted(self.V)}")
        ell = SIGMA_SIZE**min(h, 32) + 1
        for name, value in (("k", k), ("h", h), ("ell", ell), ("m_rad", ell + 2 * k + h)):
            object.__setattr__(self, name, value)

    def apply(self, x: Config) -> Config:
        return apply_safe_rewrite(x, self)

    def inverse(self) -> "SafeRewrite":
        """pi inverted; U, V and the moved words stay, so nothing is checked."""
        inv = object.__new__(SafeRewrite)
        inv.__dict__.update(self.__dict__, pi=self.pi.inverse())
        return inv

    def to_obj(self) -> dict:
        """Word-file fields: a rule and its head-gap family both by the
        rule's name, the key of U in HEAD_GAP_FAMILIES; otherwise U as the
        sorted run lines of its words, each written from the word's first
        letter, and pi as its disjoint cycles (`WordPerm.to_cycles`).  V
        is "HEAD" or "NONZERO_N"; the radii are always the strict ones, so
        they are not written."""
        named, pi = isinstance(self.pi, RuleWordMap), self.pi
        return {
            "op": self.OP, "k": self.k, "h": self.h,
            "U": pi.tag if named else sorted([emit_runs(u) for u in self.U.keys]),
            "V": "HEAD" if self.V == HEAD_MARKER else "NONZERO_N",
            "map": pi.tag if named else pi.to_cycles(),
        }

    @staticmethod
    def from_obj(obj) -> "SafeRewrite":
        """Inverse of to_obj, one field rule for named and listed rewrites:
        U is a name in HEAD_GAP_FAMILIES or a list of run lines, each word
        named once, V is "HEAD" or "NONZERO_N", and map a rule name or
        disjoint cycles of run lines, each a word of U.  Each listed word
        is read by `core.read_key`, a key in [0, k).  The constructor
        refuses every unsafe (U, V, pi); then k and h must be the word
        lengths.  An object that holds radii is refused."""
        k, h = json_int(obj["k"]), json_int(obj["h"])
        if "ell" in obj or "mrad" in obj:
            raise ParseError("an SR object holds no radii: they are always the strict ones")
        words, markers, rule = obj["U"], obj["V"], obj["map"]
        if isinstance(words, list):
            U = ExplicitWords(k, frozenset([read_key(w, 0, k, WORD_SYMBOLS) for w in words]))
            if len(U.keys) != len(words):
                raise IllFormedSpec("a word is named twice in U")
        elif isinstance(words, str) and words in HEAD_GAP_FAMILIES:
            U = HEAD_GAP_FAMILIES[words]
        else:
            raise IllFormedSpec(f"bad word set {quoted(words)}")
        if markers not in ("HEAD", "NONZERO_N"):
            raise IllFormedSpec(f"bad marker set {quoted(markers)}: not \"HEAD\" or \"NONZERO_N\"")
        V = HEAD_MARKER if markers == "HEAD" else NonzeroWords(h)
        def cycle_word(w) -> Key:
            if (key := read_key(w, 0, k, WORD_SYMBOLS)) not in getattr(U, "keys", ()):
                raise ParseError(f"the cycle word {quoted(w)} is not a word of U")
            return key
        pi = (RuleWordMap(rule) if isinstance(rule, str)
              else WordPerm._read_cycles(rule, cycle_word, U.length))
        rewrite = SafeRewrite(U, V, pi)
        if (k, h) != (rewrite.k, rewrite.h):
            raise IllFormedSpec("k and h do not match the word lengths")
        return rewrite


# --- chi-site selection and rewriting ---------------------------------------

def chi_sites(x: Config, spec: SafeRewrite) -> tuple[int, ...]:
    """Rewrite sites, in increasing order: U-occurrences alone within
    m_rad whose nearby V-occurrences all lie inside the rewritten block.

    A V-word starts at j when a marker cell (a head for the head marker,
    any cell for the nonzero words) lies in [j, j + h); so the marker cells
    in [i - ell, i + k + ell + h - 2], one bisect slice of the heads or
    of the cells, must lie in [i + h - 1, i + k - h].  That band holds
    the markers of the U-word at i, since every word of U holds one, so
    it is never empty."""
    occ_u = sorted(occurrences(x, spec.U))
    if not occ_u:
        return ()
    heads = x.heads() if spec.V == HEAD_MARKER else None
    k, h, ell = spec.k, spec.h, spec.ell
    sites = []
    for i in isolated(occ_u, spec.m_rad):
        # markers within ell of EITHER block edge must lie inside the block,
        # else a rewrite could make or break a U-word straddling that edge
        lo, hi = i - ell, i + k + ell + h - 1
        if heads is None:
            band = x.cells_in(lo, hi)
            first, last = band[0][0], band[-1][0]
        else:
            band = heads[bisect_left(heads, lo):bisect_left(heads, hi)]
            first, last = band[0], band[-1]
        if first >= i + h - 1 and last <= i + k - h:
            sites.append(i)
    return tuple(sites)


def apply_safe_rewrite(x: Config, spec: SafeRewrite) -> Config:
    """Replace the k-block at every chi site by its image under the spec's
    permutation; all other cells are unchanged (`Config.rewrite_blocks`)."""
    return x.rewrite_blocks(0, spec.k, chi_sites(x, spec), spec.pi.apply)


# --- the simulated head shift ------------------------------------------------

# Head-gap window of the simulated shift: the smallest length divisible by 3
# for which all head offsets of the three families fall in the middle third.
SIGMA3_M = 10
SIGMA3_LEN = 2 * SIGMA3_M + 1

_GAP_LAYOUTS = frozenset(
    frozenset({SIGMA3_M, SIGMA3_M + 1 + j}) for j in range(3))
SIGMA3_PI_WORDS = HeadLayoutWords(
    SIGMA3_LEN, _GAP_LAYOUTS | {frozenset({SIGMA3_M + 1})})
SIGMA3_TAU_WORDS = HeadLayoutWords(
    SIGMA3_LEN, _GAP_LAYOUTS | {frozenset({SIGMA3_M})})
# The head-gap families by the name of the rule that permutes each.
HEAD_GAP_FAMILIES = {"SIGMA3_PI": SIGMA3_PI_WORDS,
                     "SIGMA3_TAU": SIGMA3_TAU_WORDS}

SIGMA3_PI_SPEC = SafeRewrite(
    SIGMA3_PI_WORDS, HEAD_MARKER, RuleWordMap("SIGMA3_PI"))
SIGMA3_TAU_SPEC = SafeRewrite(
    SIGMA3_TAU_WORDS, HEAD_MARKER, RuleWordMap("SIGMA3_TAU"))


def head_shift_once(x: Config, direction: int) -> Config:
    """One step of the simulated shift.  With no head it is the identity.
    Where every head is isolated, no other head within m_rad cells, each
    head follows the step law: the head at q moves to p = q + direction
    and the symbol it displaces, read by `Config.sym`, moves from p to q.
    The step of each head is one block of one `Config.overwrite`, which
    range-checks the cells it writes.  Other heads step by the two
    head-gap rewrites, TAU then PI for +1, which -1 inverts exactly.  A
    rewrite reads within m_rad + k cells of a head, so each group of cells
    more than twice that from the others steps alone, sliced out of x and
    centred on 0."""
    if direction not in (1, -1):
        raise DomainError("direction must be +1 or -1")
    heads = x.heads()
    if not heads:
        return x
    if len(isolated(heads, SIGMA3_TAU_SPEC.m_rad)) == len(heads):
        blocks = []
        for q in heads:  # q's cell before p's for +1, after it for -1
            p, a = q + direction, x.sym(q + direction)
            blocks.append((min(p, q), max(p, q) + 1,
                           ((q, a), (p, HEAD))[::direction] if a else ((p, HEAD),)))
        return x.overwrite(blocks)
    reach, cells, out = 2 * (SIGMA3_TAU_SPEC.m_rad + SIGMA3_LEN), x.cells, []
    first, end = cells[0][0], cells[-1][0] + 1
    cuts = [0, *(j for j in range(1, len(cells))
                 if cells[j][0] - cells[j - 1][0] > reach), len(cells)]
    for lo, hi in zip(cuts, cuts[1:]):
        start, stop = cells[lo][0], cells[hi - 1][0] + 1
        c = (start + stop) // 2
        y = shift(x.restrict(start, stop), c)
        for spec in (SIGMA3_TAU_SPEC, SIGMA3_PI_SPEC)[::direction]:
            y = apply_safe_rewrite(y, spec)
        out += shift(y, -c).cells
    return x.overwrite(((first - reach, end + reach, out),))
