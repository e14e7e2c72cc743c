"""Safe-rewrite automorphisms by isolated local rewriting.

A rewrite spec carries a word set U, a marker set V and a permutation of
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

from dataclasses import dataclass, field
from typing import Iterable

from .core import Config, DomainError, json_int
from .permbuild import WordPerm

SIGMA_SIZE = 4
HEAD_CHAR = "3"


class IllFormedWordSet(DomainError):
    pass


class IllFormedSpec(DomainError):
    pass


# --- word set descriptors -------------------------------------------------

@dataclass(frozen=True)
class ExplicitWords:
    """A finite, explicitly listed set of words over {0,1,2,3}."""

    length: int
    words: frozenset[str]

    def __post_init__(self):
        for w in self.words:
            if len(w) != self.length or any(c not in "0123" for c in w):
                raise IllFormedWordSet(f"bad word {w!r}")
            if set(w) == {"0"}:
                raise IllFormedWordSet("word set contains the all-zero word")
        if not self.words:
            raise IllFormedWordSet("empty word set")

    @staticmethod
    def of(words: Iterable[str]) -> "ExplicitWords":
        ws = frozenset(words)
        lengths = {len(w) for w in ws}
        if len(lengths) != 1:
            raise IllFormedWordSet("words of mixed length")
        return ExplicitWords(lengths.pop(), ws)


@dataclass(frozen=True)
class HeadLayoutWords:
    """All words of a fixed length whose head symbols sit at one of the
    given offset sets, every other letter ranging over {0,1,2}."""

    length: int
    layouts: frozenset[frozenset[int]]

    def __post_init__(self):
        if not self.layouts:
            raise IllFormedWordSet("no layouts")
        for lay in self.layouts:
            if not lay:
                raise IllFormedWordSet("a layout must place at least one head")
            if any(not 0 <= off < self.length for off in lay):
                raise IllFormedWordSet("layout offset out of range")


# The marker set {3}, matched through the head cells.
HEAD_MARKER = HeadLayoutWords(1, frozenset({frozenset({0})}))


@dataclass(frozen=True)
class NonzeroWords:
    """All nonzero words of a fixed length (never enumerated)."""

    length: int


WordSetDesc = ExplicitWords | HeadLayoutWords | NonzeroWords


def occurrences(x: Config, wset: WordSetDesc) -> frozenset[int]:
    """Positions i with x[i .. i+len-1] in the word set; exact and finite."""
    if x.is_zero():
        return frozenset()
    lo, hi = x.min_pos(), x.max_pos()
    if isinstance(wset, ExplicitWords):
        k = wset.length
        out = []
        for i in range(lo - k + 1, hi + 1):
            if x.window(range(i, i + k)) in wset.words:
                out.append(i)
        return frozenset(out)
    if isinstance(wset, HeadLayoutWords):
        L = wset.length
        heads = x.heads()
        head_set = set(heads)
        candidates = {p - off for p in heads for lay in wset.layouts for off in lay}
        out = []
        for i in candidates:
            rel = frozenset(q - i for q in head_set if i <= q < i + L)
            if rel in wset.layouts:
                out.append(i)
        return frozenset(out)
    if isinstance(wset, NonzeroWords):
        n = wset.length
        out: set[int] = set()
        for p, _ in x.cells:
            out.update(range(p - n + 1, p + 1))
        return frozenset(out)
    raise IllFormedWordSet(f"unknown word set {wset!r}")


# --- permutations of word sets --------------------------------------------

@dataclass(frozen=True)
class RuleWordMap:
    """A named rule-based involution (head-gap rearrangement families)."""

    tag: str  # "SIGMA3_PI" or "SIGMA3_TAU"

    def __post_init__(self):
        if self.tag not in ("SIGMA3_PI", "SIGMA3_TAU"):
            raise IllFormedSpec(f"unknown rule tag {self.tag!r}")

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


# --- safety validators ------------------------------------------------------

def validate_sufficient_safety(words: Iterable[str], length: int) -> None:
    """validate_layout_safety on the head offsets of explicit words."""
    layouts = []
    for w in sorted(words):
        if len(w) != length:
            raise IllFormedSpec(f"wrong length: {w!r}")
        heads = frozenset(i for i, c in enumerate(w) if c == HEAD_CHAR)
        if not heads:
            raise IllFormedSpec(f"word lacks the marker symbol: {w!r}")
        layouts.append(heads)
    validate_layout_safety(layouts, length)


def validate_layout_safety(layouts: Iterable[frozenset[int]], length: int) -> None:
    """Third-anchored sufficient condition for {3}-safety: all heads in the
    middle third, equal head counts agree on the leftmost head."""
    if length % 3 != 0:
        raise IllFormedSpec("length not divisible by three")
    k3 = length // 3
    leftmost_by_count: dict[int, int] = {}
    for lay in layouts:
        shown = ",".join(map(str, sorted(lay)))
        if any(not k3 <= off < 2 * k3 for off in lay):
            raise IllFormedSpec(f"marker outside the middle third: {shown}")
        first = leftmost_by_count.setdefault(len(lay), min(lay))
        if first != min(lay):
            raise IllFormedSpec(
                f"equal marker count, different leftmost position: {shown}")


def validate_zero_padded(words: Iterable[str], n: int) -> None:
    """Check the zero-padded sufficient condition (marker set = all nonzero
    words of length n): shape 0^n w 0^n, no all-zero word, and no core at
    two distinct offsets."""
    core_offset: dict[str, tuple[int, str]] = {}
    for w in sorted(set(words)):
        if len(w) != 3 * n:
            raise IllFormedSpec(f"wrong length: {w!r}")
        if set(w) == {"0"}:
            raise IllFormedSpec(f"all-zero word: {w!r}")
        if w[:n].strip("0") or w[2 * n:].strip("0"):
            raise IllFormedSpec(f"nonzero symbol outside the middle third: {w!r}")
        first = len(w) - len(w.lstrip("0"))
        off, prev = core_offset.setdefault(w.strip("0"), (first, w))
        if off != first:
            raise IllFormedSpec(f"same core at two offsets: {prev!r}, {w!r}")


# --- the rewrite spec -------------------------------------------------------

@dataclass(frozen=True)
class SafeRewriteSpec:
    """Rewrite the words U by pi where the marker words V allow it.  With
    k = |U| and h = |V| the radii are the minimal strict ones over the
    4-symbol alphabet: ell = 4^h + 1 and m_rad = ell + 2k + h."""

    U: WordSetDesc
    V: WordSetDesc
    pi: WordMap
    k: int = field(init=False)
    h: int = field(init=False)
    ell: int = field(init=False)
    m_rad: int = field(init=False)

    def __post_init__(self):
        k, h = self.U.length, self.V.length
        if not k >= h >= 1:
            raise IllFormedSpec("need k >= h >= 1")
        ell = SIGMA_SIZE**h + 1
        for name, value in (("k", k), ("h", h), ("ell", ell),
                            ("m_rad", ell + 2 * k + h)):
            object.__setattr__(self, name, value)

    def to_obj(self) -> dict:
        """Word-file fields: the head-gap families and rules by name, the
        radii as "strict"."""
        return {
            "k": self.k, "h": self.h,
            "U": _word_set_to_obj(self.U), "V": _word_set_to_obj(self.V),
            "map": (self.pi.tag if isinstance(self.pi, RuleWordMap)
                    else [list(p) for p in sorted(self.pi.moved)]),
            "ell": "strict", "mrad": "strict",
        }

    @staticmethod
    def from_obj(obj) -> "SafeRewriteSpec":
        """Inverse of to_obj.  Explicit specs are rebuilt through the
        constructors that validate them and named rules must match their
        constant exactly, so a word file cannot carry an unsafe rewrite."""
        k, h = json_int(obj["k"]), json_int(obj["h"])
        words, markers, pairs = obj["U"], obj["V"], obj["map"]
        if isinstance(pairs, str):
            for spec in (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC):
                fields = spec.to_obj()
                if fields == {key: obj[key] for key in fields}:
                    return spec
            raise IllFormedSpec(f"fields do not match the rule {pairs!r}")
        if not isinstance(words, list):
            raise IllFormedSpec("U must list its words")
        if markers == "NONZERO_N":
            spec = make_zero_padded_spec(words, pairs)
        elif isinstance(markers, list) and set(markers) == {HEAD_CHAR}:
            spec = make_explicit_spec(words, pairs)
        else:
            raise IllFormedSpec(f"bad marker set {markers!r}")
        if (spec.k, spec.h) != (k, h):
            raise IllFormedSpec("k and h do not match the word lengths")
        for key, strict in (("ell", spec.ell), ("mrad", spec.m_rad)):
            if obj[key] != "strict" and json_int(obj[key]) != strict:
                raise IllFormedSpec("radii must be the strict ones")
        return spec


def _word_set_to_obj(ws: WordSetDesc) -> object:
    if ws == SIGMA3_PI_WORDS:
        return "SIGMA3_PI"
    if ws == SIGMA3_TAU_WORDS:
        return "SIGMA3_TAU"
    if ws == HEAD_MARKER:
        return [HEAD_CHAR]
    if isinstance(ws, NonzeroWords):
        return "NONZERO_N"
    if isinstance(ws, ExplicitWords):
        return sorted(ws.words)
    raise IllFormedSpec(f"unserializable word set {ws!r}")


def _word_map(U: ExplicitWords, pairs: Iterable[tuple[str, str]]) -> WordPerm:
    """The moved pairs of `pairs`, checked to permute U: every moved word
    lies in U and the moved pairs form a bijection."""
    mapping = dict(pairs)
    if any(s not in U.words for s, d in mapping.items() if s != d):
        raise IllFormedSpec("mapping moves a word outside U")
    return WordPerm.from_pairs(mapping.items(), U.length)


def make_explicit_spec(words: Iterable[str],
                       pairs: Iterable[tuple[str, str]]) -> SafeRewriteSpec:
    """Build and validate a rewrite of explicit words U guarded by the head
    marker."""
    U = ExplicitWords.of(words)
    pi = _word_map(U, pairs)
    validate_sufficient_safety(U.words, U.length)
    return SafeRewriteSpec(U, HEAD_MARKER, pi)


def make_zero_padded_spec(words: Iterable[str],
                          pairs: Iterable[tuple[str, str]]) -> SafeRewriteSpec:
    """Spec for U of shape 0^n w 0^n with V = all nonzero words of length n."""
    U = ExplicitWords.of(words)
    n = U.length // 3
    validate_zero_padded(U.words, n)
    return SafeRewriteSpec(U, NonzeroWords(n), _word_map(U, pairs))


# --- chi-site selection and rewriting ---------------------------------------

def chi_sites(x: Config, spec: SafeRewriteSpec) -> frozenset[int]:
    """Rewrite sites: U-occurrences alone within m_rad whose nearby
    V-occurrences all lie inside the rewritten block."""
    occ_u = occurrences(x, spec.U)
    if not occ_u:
        return frozenset()
    occ_v = occurrences(x, spec.V)
    sites = []
    for i in occ_u:
        if any(j != i and abs(j - i) <= spec.m_rad for j in occ_u):
            continue
        ok = True
        for j in occ_v:
            # marker occurrences within ell of EITHER block edge must lie
            # inside the block, else a rewrite could create or destroy a
            # U-occurrence straddling that edge
            if (i - spec.ell <= j <= i + spec.k - 1 + spec.ell
                    and not i <= j <= i + spec.k - spec.h):
                ok = False
                break
        if ok:
            sites.append(i)
    return frozenset(sites)


def apply_safe_rewrite(x: Config, spec: SafeRewriteSpec) -> Config:
    """Replace the k-block at every chi site by its image under the spec's
    permutation; all other cells are unchanged."""
    sites = sorted(chi_sites(x, spec))
    if not sites:
        return x
    blocks = [range(i, i + spec.k) for i in sites]
    return x.overwrite((b, spec.pi.apply(x.window(b))) for b in blocks)


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

SIGMA3_PI_SPEC = SafeRewriteSpec(
    SIGMA3_PI_WORDS, HEAD_MARKER, RuleWordMap("SIGMA3_PI"))
SIGMA3_TAU_SPEC = SafeRewriteSpec(
    SIGMA3_TAU_WORDS, HEAD_MARKER, RuleWordMap("SIGMA3_TAU"))

for _ws in (SIGMA3_PI_WORDS, SIGMA3_TAU_WORDS):
    validate_layout_safety(_ws.layouts, _ws.length)


def head_shift_once(x: Config, direction: int) -> Config:
    """One step of the simulated shift.  On a configuration with a single
    isolated head the +1 direction moves the head one cell right and swaps
    the displaced symbol; -1 is the exact inverse on every configuration."""
    if direction == 1:
        y = apply_safe_rewrite(x, SIGMA3_TAU_SPEC)
        return apply_safe_rewrite(y, SIGMA3_PI_SPEC)
    if direction == -1:
        y = apply_safe_rewrite(x, SIGMA3_PI_SPEC)
        return apply_safe_rewrite(y, SIGMA3_TAU_SPEC)
    raise DomainError("direction must be +1 or -1")
