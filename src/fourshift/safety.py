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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field

from .core import (CELLS, Config, DomainError, digit_cells, isolated, json_int,
                   shift)
from .permbuild import WordPerm

SIGMA_SIZE = 4
HEAD_CHAR = "3"


class IllFormedWordSet(DomainError):
    pass


class IllFormedSpec(DomainError):
    pass


# --- word set descriptors -------------------------------------------------

Key = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ExplicitWords:
    """A finite, explicitly listed set of words over {0,1,2,3}.  Each word
    is keyed once on its nonzero cells, (offset, symbol) pairs in order of
    offset: `key_of` maps each word to its key.  `shapes` maps each key's
    cells taken relative to its first cell to the first offsets where that
    shape starts in a word, and `sizes` holds (cell count, least first
    offset of a key of that count) in increasing order of count."""

    length: int
    words: frozenset[str]
    key_of: dict[str, Key] = field(init=False, repr=False, compare=False)
    shapes: dict[Key, tuple[int, ...]] = field(
        init=False, repr=False, compare=False)
    sizes: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.words:
            raise IllFormedWordSet("empty word set")
        key_of, shapes, least = {}, {}, {}
        for w in self.words:
            if len(w) != self.length:
                raise IllFormedWordSet(f"word {w!r} is not of length {self.length}")
            key = key_of[w] = _shared(digit_cells(0, w))
            if not key:
                raise IllFormedWordSet("word set contains the all-zero word")
            f = key[0][0]
            shape = _shared([(o - f, s) for o, s in key])
            shapes[shape] = (*shapes.get(shape, ()), f)
            least[len(key)] = min(least.get(len(key), f), f)
        object.__setattr__(self, "key_of", key_of)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "sizes", tuple(sorted(least.items())))

    @staticmethod
    def of(words: Iterable[str]) -> "ExplicitWords":
        ws = frozenset(words)
        lengths = {len(w) for w in ws}
        if len(lengths) > 1:
            raise IllFormedWordSet("words of mixed length")
        return ExplicitWords(max(lengths, default=0), ws)


def _shared(cells: Iterable[tuple[int, int]]) -> Key:
    """`cells` as a tuple, sharing the cell objects of CELLS."""
    return tuple([CELLS.get(c, c) for c in cells])


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
    from the cell before p.  The cell counts of the keys are tried in
    increasing order: the scan stops at the first count n whose n-th cell
    from p lies k or more past p, skips a count whose keys all start at
    offsets of g or more, and otherwise looks up the n cells from p,
    relative to p, in `shapes`; each first offset f < g whose window holds
    no further cell gives a start.  Cost: at most one tuple of cells per
    cell of x and distinct cell count, never the word length.  Head
    layouts read the heads of each candidate window as one bisect slice
    of the sorted heads."""
    if isinstance(wset, ExplicitWords):
        cells, k, shapes, found = x.cells, wset.length, wset.shapes, []
        end = len(cells)
        for j, (p, _) in enumerate(cells):
            g = p - cells[j - 1][0] if j else k
            for n, least in wset.sizes:
                stop = j + n
                if stop > end or cells[stop - 1][0] - p >= k:
                    break
                if least >= g:
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
    raise IllFormedWordSet(f"no occurrence scan for {wset!r}")


# --- permutations of word sets --------------------------------------------

@dataclass(frozen=True)
class RuleWordMap:
    """A named rule-based involution (head-gap rearrangement families)."""

    tag: str  # a key of HEAD_GAP_FAMILIES

    def apply(self, w: str) -> str:
        """PI keeps the letter left of the head, TAU the letter right of it."""
        left = self.tag == "SIGMA3_PI"
        heads = [i for i, c in enumerate(w) if c == HEAD_CHAR]
        m = SIGMA3_M
        if len(heads) == 1:  # one head: encode the kept letter as a gap
            a, v = int(w[m] if left else w[m + 1]), w[m + 2:]
            return w[:m] + HEAD_CHAR + v[:a] + HEAD_CHAR + v[a:]
        j = str(heads[1] - m - 1)  # two heads: decode the gap back to a letter
        v = w[m + 1:heads[1]] + w[heads[1] + 1:]
        return w[:m] + (j + HEAD_CHAR if left else HEAD_CHAR + j) + v

    def inverse(self) -> "RuleWordMap":
        return self  # both rules are involutions


WordMap = WordPerm | RuleWordMap


# --- marker rules -----------------------------------------------------------

def _check_head_layouts(U: WordSetDesc) -> None:
    """Third-anchored sufficient condition for {3}-safety: every word of U
    has a head, all heads sit in the middle third, and equal head counts
    agree on the leftmost head."""
    if isinstance(U, HeadLayoutWords):
        layouts = U.layouts
    elif isinstance(U, ExplicitWords):
        layouts = [frozenset(i for i, c in enumerate(w) if c == HEAD_CHAR)
                   for w in sorted(U.words)]
    else:
        raise IllFormedSpec("the head marker needs listed words or layouts")
    if U.length % 3 != 0:
        raise IllFormedSpec("length not divisible by three")
    k3 = U.length // 3
    leftmost_by_count: dict[int, int] = {}
    for lay in layouts:
        if not lay:
            raise IllFormedSpec("a word of U lacks the marker symbol")
        shown = ",".join(map(str, sorted(lay)))
        if any(not k3 <= off < 2 * k3 for off in lay):
            raise IllFormedSpec(f"marker outside the middle third: {shown}")
        first = leftmost_by_count.setdefault(len(lay), min(lay))
        if first != min(lay):
            raise IllFormedSpec(
                f"equal marker count, different leftmost position: {shown}")


def _check_zero_padded(U: WordSetDesc, n: int) -> None:
    """Sufficient condition for V = all nonzero words of length n: every
    word of U has the shape 0^n w 0^n and no core sits at two offsets."""
    if not isinstance(U, ExplicitWords) or U.length != 3 * n:
        raise IllFormedSpec("zero-padded words must be listed, of length 3n")
    core_offset: dict[str, tuple[int, str]] = {}
    for w in sorted(U.words):
        if w[:n].strip("0") or w[2 * n:].strip("0"):
            raise IllFormedSpec(f"nonzero symbol outside the middle third: {w!r}")
        first = len(w) - len(w.lstrip("0"))
        off, prev = core_offset.setdefault(w.strip("0"), (first, w))
        if off != first:
            raise IllFormedSpec(f"same core at two offsets: {prev!r}, {w!r}")


# --- the safe rewrite -------------------------------------------------------

@dataclass(frozen=True)
class SafeRewrite:
    """The instruction SR: rewrite the words U by pi where the marker words
    V allow it.  With k = |U| and h = |V| the radii are the minimal strict
    ones over the 4-symbol alphabet: ell = 4^h + 1 and m_rad = ell + 2k + h.
    Built only when it is an automorphism: pi permutes U, and U meets the
    marker rule of V (the head marker or the nonzero words of length h).
    A listed map is also held on cells: `cell_map` sends the key of each
    moved word to the key of its image; it is None for a named rule."""

    U: WordSetDesc
    V: WordSetDesc
    pi: WordMap
    k: int = field(init=False)
    h: int = field(init=False)
    ell: int = field(init=False)
    m_rad: int = field(init=False)
    cell_map: dict[Key, Key] | None = field(init=False, repr=False, compare=False)
    OP = "SR"

    def __post_init__(self):
        k, h = self.U.length, self.V.length
        if not k >= h >= 1:
            raise IllFormedSpec("need k >= h >= 1")
        if isinstance(self.pi, RuleWordMap):
            if self.U != HEAD_GAP_FAMILIES.get(self.pi.tag):
                raise IllFormedSpec(f"rule {self.pi.tag!r} does not permute U")
        elif not (isinstance(self.pi, WordPerm) and self.pi.length == k
                  and isinstance(self.U, ExplicitWords)
                  and self.pi.images.keys() <= self.U.words):
            raise IllFormedSpec("pi must be a word permutation moving only U")
        if self.V == HEAD_MARKER:
            _check_head_layouts(self.U)
        elif isinstance(self.V, NonzeroWords):
            _check_zero_padded(self.U, h)
        else:
            raise IllFormedSpec(f"no marker rule for V = {self.V!r}")
        ell = SIGMA_SIZE**h + 1
        cell_map = None if isinstance(self.pi, RuleWordMap) else {
            self.U.key_of[s]: self.U.key_of[d] for s, d in self.pi.images.items()}
        for name, value in (("k", k), ("h", h), ("ell", ell),
                            ("m_rad", ell + 2 * k + h), ("cell_map", cell_map)):
            object.__setattr__(self, name, value)

    def apply(self, x: Config) -> Config:
        return apply_safe_rewrite(x, self)

    def inverse(self) -> "SafeRewrite":
        """pi and its cell map inverted: U, V and the moved words stay, so
        nothing is checked."""
        inv = object.__new__(SafeRewrite)
        cell_map = self.cell_map
        if cell_map is not None:
            cell_map = {d: s for s, d in cell_map.items()}
        inv.__dict__.update(self.__dict__, pi=self.pi.inverse(), cell_map=cell_map)
        return inv

    def to_obj(self) -> dict:
        """Word-file fields: a rule and its head-gap family both by the
        rule's name, the key of U in HEAD_GAP_FAMILIES; listed words and
        pairs otherwise; the radii as "strict"."""
        named = isinstance(self.pi, RuleWordMap)
        return {
            "op": self.OP, "k": self.k, "h": self.h,
            "U": self.pi.tag if named else sorted(self.U.words),
            "V": [HEAD_CHAR] if self.V == HEAD_MARKER else "NONZERO_N",
            "map": (self.pi.tag if named
                    else [list(p) for p in sorted(self.pi.moved)]),
            "ell": "strict", "mrad": "strict",
        }

    @staticmethod
    def from_obj(obj) -> "SafeRewrite":
        """Inverse of to_obj, one field rule for named and listed rewrites:
        U is a name in HEAD_GAP_FAMILIES or a word list, V is ["3"] (repeats
        allowed) or "NONZERO_N", map a rule name or a pair list.  The
        constructor refuses every unsafe (U, V, pi); then k and h must be
        the word lengths and each radius "strict" or the strict integer."""
        k, h = json_int(obj["k"]), json_int(obj["h"])
        words, markers, pairs = obj["U"], obj["V"], obj["map"]
        if isinstance(words, list):
            U = ExplicitWords.of(words)
        elif isinstance(words, str) and words in HEAD_GAP_FAMILIES:
            U = HEAD_GAP_FAMILIES[words]
        else:
            raise IllFormedSpec(f"bad word set {words!r}")
        if isinstance(markers, list) and set(markers) == {HEAD_CHAR}:
            V = HEAD_MARKER
        elif markers == "NONZERO_N":
            V = NonzeroWords(h)
        else:
            raise IllFormedSpec(f"bad marker set {markers!r}")
        pi = (RuleWordMap(pairs) if isinstance(pairs, str)
              else WordPerm.from_pairs(pairs, U.length))
        rewrite = SafeRewrite(U, V, pi)
        if (k, h) != (rewrite.k, rewrite.h):
            raise IllFormedSpec("k and h do not match the word lengths")
        for key, strict in (("ell", rewrite.ell), ("mrad", rewrite.m_rad)):
            if obj[key] != "strict" and json_int(obj[key]) != strict:
                raise IllFormedSpec("radii must be the strict ones")
        return rewrite


def make_explicit_spec(words: Iterable[str],
                       pairs: Iterable[tuple[str, str]]) -> SafeRewrite:
    """A rewrite of explicit words U guarded by the head marker."""
    U = ExplicitWords.of(words)
    pi = WordPerm.from_pairs(pairs, U.length)
    return SafeRewrite(U, HEAD_MARKER, pi)


def make_zero_padded_spec(words: Iterable[str],
                          pairs: Iterable[tuple[str, str]]) -> SafeRewrite:
    """Spec for U of shape 0^n w 0^n with V = all nonzero words of length n."""
    U = ExplicitWords.of(words)
    pi = WordPerm.from_pairs(pairs, U.length)
    return SafeRewrite(U, NonzeroWords(U.length // 3), pi)


# --- chi-site selection and rewriting ---------------------------------------

def chi_sites(x: Config, spec: SafeRewrite) -> frozenset[int]:
    """Rewrite sites: U-occurrences alone within m_rad whose nearby
    V-occurrences all lie inside the rewritten block.

    A V-word starts at j when a marker cell (a head for the head marker,
    any cell for the nonzero words) lies in [j, j + h); so the marker cells
    in [i - ell, i + k + ell + h - 2], one bisect slice, must lie in
    [i + h - 1, i + k - h]."""
    occ_u = sorted(occurrences(x, spec.U))
    if not occ_u:
        return frozenset()
    marks = x.heads() if spec.V == HEAD_MARKER else x.support()
    k, h, ell = spec.k, spec.h, spec.ell
    sites = []
    for i in isolated(occ_u, spec.m_rad):
        # markers within ell of EITHER block edge must lie inside the block,
        # else a rewrite could make or break a U-word straddling that edge
        lo = bisect_left(marks, i - ell)
        hi = bisect_right(marks, i + k + ell + h - 2, lo)
        if lo == hi or (marks[lo] >= i + h - 1 and marks[hi - 1] <= i + k - h):
            sites.append(i)
    return frozenset(sites)


def apply_safe_rewrite(x: Config, spec: SafeRewrite) -> Config:
    """Replace the k-block at every chi site by its image under the spec's
    permutation; all other cells are unchanged.  A listed map reads each
    block once, `x.cells_in(i, i + k)` shifted to offsets from i, looks it
    up in `cell_map` and writes the image cells of each moved block by one
    `Config.overwrite`.  A named head-gap rule is defined on letters: its
    blocks go through `Config.window` and `digit_cells`."""
    sites = sorted(chi_sites(x, spec))
    if not sites:
        return x
    k, pi, cell_map = spec.k, spec.pi, spec.cell_map
    if cell_map is None:
        return x.overwrite((i, i + k, digit_cells(i, pi.apply(x.window(i, i + k))))
                           for i in sites)
    blocks = []
    for i in sites:
        image = cell_map.get(tuple([(p - i, s) for p, s in x.cells_in(i, i + k)]))
        if image is not None:
            blocks.append((i, i + k, [(i + o, s) for o, s in image]))
    return x.overwrite(blocks) if blocks else x


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
    and the symbol it displaces moves from p to q, all by one
    `Config.swap` with a splice per head.  Other heads step by the two
    head-gap rewrites, TAU then PI for +1, which -1 inverts exactly.  A
    rewrite reads within m_rad + k cells of a head, so each group of cells
    more than twice that from the others steps alone, centred on 0."""
    if direction not in (1, -1):
        raise DomainError("direction must be +1 or -1")
    heads = x.heads()
    if not heads:
        return x
    if len(isolated(heads, SIGMA3_TAU_SPEC.m_rad)) == len(heads):
        return x.swap(heads, direction)
    reach, cells, out = 2 * (SIGMA3_TAU_SPEC.m_rad + SIGMA3_LEN), x.cells, []
    first, end = cells[0][0], cells[-1][0] + 1
    cuts = [0, *(j for j in range(1, len(cells))
                 if cells[j][0] - cells[j - 1][0] > reach), len(cells)]
    for lo, hi in zip(cuts, cuts[1:]):
        start, stop = cells[lo][0], cells[hi - 1][0] + 1
        c = (start + stop) // 2
        y = shift(x.overwrite(((first, start, ()), (stop, end, ()))), c)
        for spec in (SIGMA3_TAU_SPEC, SIGMA3_PI_SPEC)[::direction]:
            y = apply_safe_rewrite(y, spec)
        out += shift(y, -c).cells
    return x.overwrite(((first - reach, end + reach, out),))
