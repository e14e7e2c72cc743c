"""Occurrence sets, chi-site selection, the safety conditions a rewrite
spec checks when built, and the simulated head shift."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from fourshift.core import (POSITION_LIMIT, Config, PositionOverflow, ZERO,
                            digit_cells, isolated, shift)
from fourshift.generators import HeadShift
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.permbuild import WordPerm
from fourshift.safety import (HEAD_GAP_FAMILIES, HEAD_MARKER, ExplicitWords,
                              HeadLayoutWords, IllFormedSpec, IllFormedWordSet,
                              NonzeroWords, RuleWordMap, SafeRewrite, SIGMA3_PI_SPEC,
                              SIGMA3_LEN, SIGMA3_PI_WORDS, SIGMA3_TAU_SPEC,
                              SIGMA3_TAU_WORDS, apply_safe_rewrite,
                              chi_sites, head_shift_once, occurrences)

from conftest import (explicit, from_pairs, key_pairs, letter_rule,
                      make_explicit_spec, make_zero_padded_spec, of_checked,
                      rand_config, rand_even_perm,
                      rand_head_spec, rand_single_head, rand_tuple,
                      same_or_overflow, string_rewrite, string_shift,
                      sym_window, two_rewrite_shift)


def cfg(offset, digits):
    return Config.from_word(offset, digits)


def demo_spec(pairs=(("030", "031"), ("031", "030"))):
    return make_explicit_spec(explicit(["030", "031"]), key_pairs(pairs))


def span_scan(x, wset):
    """Every start from min_pos - k + 1 to max_pos: the oracle of the
    explicit-word occurrence scan."""
    if x.is_zero():
        return frozenset()
    k = wset.length
    return frozenset(i for i in range(x.min_pos() - k + 1, x.max_pos() + 1)
                     if tuple(digit_cells(0, sym_window(x, range(i, i + k))))
                     in wset.keys)


def all_heads_scan(x, wset):
    """Each candidate start tested against every head: the oracle of the
    head-layout scan of `occurrences`."""
    heads, L = x.heads(), wset.length
    starts = {p - off for p in heads for lay in wset.layouts for off in lay}
    return frozenset(i for i in starts if frozenset(
        q - i for q in heads if i <= q < i + L) in wset.layouts)


def covering_starts(x, n):
    """Starts of the length-n windows that cover a nonzero cell: the
    occurrences of NonzeroWords(n)."""
    return frozenset().union(*(range(p - n + 1, p + 1) for p, _ in x.cells))


# heads at both ends of a SIGMA3_LEN window, and three heads 2 apart
EDGE_LAYOUTS = HeadLayoutWords(SIGMA3_LEN, frozenset(map(frozenset, (
    {0}, {SIGMA3_LEN - 1}, {0, SIGMA3_LEN - 1}, {0, 2, 4}))))


class TestOccurrences:
    def test_explicit_window_match(self):
        assert occurrences(cfg(1, "3"), explicit(["030", "031"])) == \
            frozenset({0})

    def test_zero_point(self):
        assert occurrences(ZERO, explicit(["030"])) == frozenset()

    def test_marker_singleton(self):
        assert occurrences(cfg(0, "33"), explicit(["3"])) == \
            frozenset({0, 1})

    def test_nonzero_words(self):
        # every window of length 2 touching a nonzero cell; no marker rule
        # takes the nonzero words as U, so `occurrences` does not scan them
        assert covering_starts(cfg(0, "1"), 2) == frozenset({-1, 0})
        with pytest.raises(IllFormedWordSet):
            occurrences(cfg(0, "1"), NonzeroWords(2))

    def test_all_zero_word_rejected(self):
        with pytest.raises(IllFormedWordSet):
            explicit(["000"])

    @pytest.mark.parametrize("key", [
        ((3, 1),), ((-1, 1), (1, 3)), ((0, 2), (5, 1)), (), ((1, 0),),
        ((1, 4),), ((0, 1), (0, 2)), ((2, 1), (0, 2)), ((1, True),),
        ((1, 3), (True, 1)), ((1, 3), (2, 1.0)), ((1, 3), (2.0, 1))])
    def test_keys_that_are_no_word_rejected(self, key):
        # an offset before 0 or at the length or past it, no cell, a
        # symbol that is no nonzero letter, offsets not increasing, or an
        # offset or symbol that is not an int
        with pytest.raises(IllFormedWordSet):
            ExplicitWords(3, frozenset({((1, 3),), key}))

    def test_empty_and_mixed_word_sets_rejected(self):
        # a key is checked against the set's one length: the key of a
        # longer word is refused by its offset
        with pytest.raises(IllFormedWordSet, match="empty word set"):
            ExplicitWords(3, frozenset())
        with pytest.raises(IllFormedWordSet, match=r"in \[0, 2\)"):
            ExplicitWords(2, frozenset({((1, 1),), ((2, 1),)}))

    def test_translation_equivariance(self, rng):
        wset = explicit(["030", "031", "132"])
        for _ in range(100):
            x = rand_config(rng)
            n = rng.randrange(-7, 8)
            shifted = occurrences(shift(x, n), wset)
            assert shifted == frozenset(i - n for i in occurrences(x, wset))

    def test_layout_family_counts_heads_only(self):
        ws = HeadLayoutWords(21, frozenset({frozenset({10})}))
        assert occurrences(cfg(0, "3"), ws) == frozenset({-10})
        assert occurrences(cfg(0, "33"), ws) == frozenset()

    def test_head_marker_matches_the_explicit_scan(self, rng):
        # the window scan over the explicit word set {3} is the oracle
        oracle = explicit(["3"])
        many_heads = 0
        for _ in range(400):
            x = rand_config(rng, span=12, max_cells=8)
            many_heads += len(x.heads()) > 1
            assert occurrences(x, HEAD_MARKER) == occurrences(x, oracle)
        assert many_heads > 50

    def test_head_layouts_match_the_all_heads_scan(self, rng):
        # lines of heads 1-5, 19-22 or 47-50 apart (a line may mix them),
        # near 0 and near +-10^9, with particles and walls among them
        spacings = ((1, 2, 3, 4, 5), (19, 20, 21, 22), (47, 48, 49, 50))
        for wset in (SIGMA3_PI_WORDS, SIGMA3_TAU_WORDS, HEAD_MARKER,
                     EDGE_LAYOUTS):
            hits = 0
            for _ in range(300):
                gaps = rng.choice((*spacings, sum(spacings, ())))
                p = q = rng.choice((0, 10**9, -10**9)) + rng.randrange(-30, 31)
                cells = {}
                for _ in range(rng.randrange(1, 10)):
                    cells[p] = 3
                    p += rng.choice(gaps)
                for _ in range(rng.randrange(0, 6)):
                    cells.setdefault(rng.randrange(q - 3, p + 3),
                                     rng.randrange(1, 3))
                x = Config.from_cells(cells)
                got = occurrences(x, wset)
                assert got == all_heads_scan(x, wset), (x, wset)
                hits += len(got)
            assert hits > 300, wset

    def test_explicit_scan_matches_the_span_scan(self, rng):
        # the scan tries only windows over a nonzero cell; the span scan
        # tries every start, words with inner and outer zeros included
        nonzero_words = [w for n in range(1, 5)
                         for w in map("".join, itertools.product("0123", repeat=n))
                         if w.strip("0")]
        hits = 0
        for _ in range(1500):
            n = rng.randrange(1, 5)
            pool = [w for w in nonzero_words if len(w) == n]
            wset = explicit(rng.sample(pool, rng.randrange(1, 4)))
            span = rng.choice((3, 8, 40))
            x = rand_config(rng, span=span, max_cells=rng.randrange(1, 12))
            got = occurrences(x, wset)
            assert got == span_scan(x, wset)
            hits += bool(got)
        assert hits > 300

    def test_keys_with_different_first_offsets(self):
        # one core at three offsets: each cell starts up to three windows
        wset = explicit(["1200", "0120", "0012", "0102"])
        for x in (cfg(0, "12"), cfg(0, "1012"), cfg(10**9, "12000012"),
                  cfg(-10**9, "102")):
            assert occurrences(x, wset) == span_scan(x, wset)
        assert occurrences(cfg(0, "12"), wset) == frozenset({-2, -1, 0})
        assert occurrences(cfg(0, "1012"), wset) == frozenset({1, 2})

    def test_orbit_words_match_the_span_scan(self, rng):
        # the zero-padded words 0^n w 0^n of orbit permutations (k 5..8,
        # span 4..12, so lengths 6m up to 78) on copies of the components
        # a few cells to two word lengths apart, near 0 and near +-10^9
        hits = several = mixed_firsts = longest = 0
        for case in range(120):
            k = 5 + case % 4
            t = rand_tuple(rng, k, span=rng.randint(4, 12))
            ins = orbit_permutation_instruction(t, rand_even_perm(rng, k))
            U, cells = ins.U, {}
            at = rng.choice((0, 10**9, -10**9)) + rng.randrange(-99, 100)
            for _ in range(rng.randrange(1, 5)):
                cells.update((at + p, s) for p, s in rng.choice(t).cells)
                at += rng.randrange(1, 2 * U.length)
            x = Config.from_cells(cells)
            got = occurrences(x, U)
            assert got == span_scan(x, U)
            hits += bool(got)
            several += len(got) > 1 and max(got) - min(got) <= ins.m_rad
            mixed_firsts += len({key[0][0] for key in U.keys}) > 1
            longest = max(longest, U.length)
        assert hits > 90 and several > 30
        assert mixed_firsts > 100 and longest >= 72

    @pytest.mark.parametrize("f", [2, 3, 7, 40])
    def test_first_offsets_at_the_gap(self, f):
        # a word whose first cell is f cells in, on a cell p whose previous
        # cell is f - 1, f or f + 1 cells back: only a gap past f lets p
        # start a window; a second word starts at the previous cell
        wset = explicit(["0" * f + "1200", "2" + "0" * (f - 1) + "1200"])
        for g, want in ((f - 1, set()), (f, {-f}), (f + 1, {-f})):
            for at in (0, 10**9, -10**9):
                x = Config.from_cells({at - g: 2, at: 1, at + 1: 2})
                got = occurrences(x, wset)
                assert got == span_scan(x, wset)
                assert got == {i + at for i in want}, (f, g)

    def test_dense_line_against_words_of_many_cell_counts(self, rng):
        # 50 words of 120 letters holding 1 .. 50 cells, first offsets 0 to
        # 30, on a line of 2,000 cells 1 or 2 apart with a copy of a word,
        # alone, after every 100 cells (a part of a copy may be a word too)
        k, words = 120, []
        for n in range(1, 51):
            f = rng.choice((0, 1, 2, 5, 30))
            offsets = [f, *sorted(rng.sample(range(f + 1, k), n - 1))]
            row = ["0"] * k
            for o in offsets:
                row[o] = str(rng.randrange(1, 4))
            words.append("".join(row))
        wset = explicit(words)
        cells, p, copies = {}, 0, set()
        for j in range(2000):
            if j % 100 == 99:
                w = rng.choice(words)
                copies.add(p + k)
                cells.update(digit_cells(p + k, w))
                p += 3 * k
            cells[p] = rng.randrange(1, 4)
            p += rng.choice((1, 1, 1, 2))
        x = Config.from_cells(cells)
        start = time.perf_counter()
        got = occurrences(x, wset)
        assert time.perf_counter() - start < 0.5
        assert got == span_scan(x, wset) and got >= copies

    def test_long_word_with_one_cell_on_spread_cells(self, rng):
        # one cell 25,000 letters into a 60,000-letter word, on 3,000
        # cells whose gaps lie on both sides of the padding before and
        # after that cell; the starts follow from the gaps alone
        k, f = 60000, 25000
        wset = explicit(["0" * f + "1" + "0" * (k - f - 1)])
        gaps = (1, f, f + 1, k - f - 1, k - f, k, 10**6)
        at, cells = rng.choice((0, 10**9, -10**9)), []
        for _ in range(3000):
            cells.append((at, rng.choice((1, 1, 2))))
            at += rng.choice(gaps)
        x = Config.from_cells(cells)
        start = time.perf_counter()
        got = occurrences(x, wset)
        assert time.perf_counter() - start < 0.5
        want = {p - f for j, (p, s) in enumerate(cells) if s == 1
                and (j == 0 or p - cells[j - 1][0] > f)
                and (j == len(cells) - 1 or cells[j + 1][0] - p >= k - f)}
        assert got == want and len(want) > 100

    def test_many_cell_counts_on_close_cells(self):
        # 1,000 keys of 1-1,000 cells, each first at offset 2 of a
        # 2,000-letter word, on 20,000 cells 1 apart: no cell but the
        # first has a gap above 1, so no count is tried there; one
        # 5-cell word far away is found
        wset = ExplicitWords(2000, frozenset(
            tuple((2 + o, 1) for o in range(n)) for n in range(1, 1001)))
        far = 10**6
        x = Config.from_cells([*((p, 1) for p in range(20000)),
                               *((far + o, 1) for o in range(5))])
        start = time.perf_counter()
        got = occurrences(x, wset)
        assert time.perf_counter() - start < 0.25
        assert got == frozenset({far - 2})


def pairwise_sites(occ_u, occ_v, spec):
    """The chi sites of the given occurrence sets, each U-occurrence tested
    against every other one and every V-occurrence: the oracle of
    `chi_sites`."""
    return frozenset(
        i for i in occ_u
        if not any(j != i and abs(j - i) <= spec.m_rad for j in occ_u)
        and all(i <= j <= i + spec.k - spec.h for j in occ_v
                if i - spec.ell <= j <= i + spec.k - 1 + spec.ell))


def v_occurrences(x, spec):
    """The V-occurrences of x, window by window: the explicit scan of {3}
    for the head marker, the windows over a nonzero cell for the nonzero
    words."""
    if isinstance(spec.V, NonzeroWords):
        return covering_starts(x, spec.h)
    return occurrences(x, explicit(["3"]))


def swap_spec(a, b):
    return make_zero_padded_spec(explicit([a, b]), key_pairs([(a, b), (b, a)]))


# (U, V) rewrites with small radii: the head marker at k = 3, and the
# nonzero words at h = 1, 2 and 3
EDGE_SPECS = (demo_spec(), swap_spec("010", "020"),
              swap_spec("001000", "002000"),
              swap_spec("000120000", "000210000"))


class TestChiSites:
    def test_matches_the_pairwise_oracle(self, rng):
        # dense lines of heads and cells, gaps around ell and m_rad
        sites = 0
        for spec in EDGE_SPECS:
            gaps = (1, 2, 3, spec.ell, spec.ell + 1, spec.m_rad, spec.m_rad + 1)
            for _ in range(300):
                cells, p = {}, 0
                for _ in range(rng.randrange(1, 12)):
                    p += rng.choice(gaps)
                    cells[p] = rng.choice((1, 2, 3, 3))
                x = Config.from_cells(cells)
                want = pairwise_sites(occurrences(x, spec.U),
                                      v_occurrences(x, spec), spec)
                assert chi_sites(x, spec) == want, (x, spec)
                sites += len(want)
        assert sites > 100

    def test_edges_of_the_radii(self, rng):
        # U-words m_rad - 1 .. m_rad + 2 apart; next to each, marker cells
        # on both sides of each edge of the marker band [i - ell,
        # i + k + ell + h - 2] and of the block core [i + h - 1, i + k - h].
        # A head gets a random right neighbour, which may spoil a U-word or
        # make one; a nonzero-word marker is any nonzero cell, mostly a head,
        # which makes no zero-padded word
        for spec in EDGE_SPECS:
            k, h, ell, m_rad = spec.k, spec.h, spec.ell, spec.m_rad
            edges = (-ell - 1, -ell, h - 2, h - 1, k - h, k - h + 1,
                     k + ell + h - 2, k + ell + h - 1)
            keys = sorted(spec.U.keys)
            kept = dropped = 0
            for _ in range(500):
                cells, starts, i = {}, [], 0
                for _ in range(rng.randrange(1, 6)):
                    i += rng.choice((m_rad - 1, m_rad, m_rad + 1, m_rad + 2))
                    starts.append(i)
                    cells.update((i + o, s) for o, s in rng.choice(keys))
                for i in starts:
                    for _ in range(rng.randrange(0, 3)):
                        p = i + rng.choice(edges)
                        if spec.V == HEAD_MARKER:
                            cells.setdefault(p, 3)
                            cells.setdefault(p + 1, rng.randrange(3))
                        else:
                            cells.setdefault(p, rng.choice((1, 2, 3, 3)))
                x = Config.from_cells(cells)
                occ_u = occurrences(x, spec.U)
                want = pairwise_sites(occ_u, v_occurrences(x, spec), spec)
                assert chi_sites(x, spec) == want, (x, spec)
                kept += len(want)
                # alone within m_rad, but a marker is out of place
                dropped += len(pairwise_sites(occ_u, (), spec) - want)
            assert kept > 100 and dropped > 100, (spec, kept, dropped)

    def test_single_site(self):
        assert chi_sites(cfg(1, "3"), demo_spec()) == frozenset({0})

    def test_close_occurrences_blocked(self):
        x = Config.from_cells({1: 3, 5: 3})
        assert chi_sites(x, demo_spec()) == frozenset()

    def test_zero_point(self):
        assert chi_sites(ZERO, demo_spec()) == frozenset()


class TestApplySafeRewrite:
    def test_single_rewrite(self):
        assert apply_safe_rewrite(cfg(1, "3"), demo_spec()) == cfg(1, "31")

    def test_blocked_rewrite_unchanged(self):
        x = Config.from_cells({1: 3, 5: 3})
        assert apply_safe_rewrite(x, demo_spec()) == x

    def test_zero_fixed(self):
        assert apply_safe_rewrite(ZERO, demo_spec()) == ZERO

    def test_chi_stability(self, rng):
        spec = demo_spec()
        for _ in range(300):
            x = rand_config(rng, span=12)
            assert chi_sites(apply_safe_rewrite(x, spec), spec) == \
                chi_sites(x, spec)

    def test_involution(self, rng):
        spec = demo_spec()
        for _ in range(200):
            x = rand_config(rng, span=12)
            assert apply_safe_rewrite(apply_safe_rewrite(x, spec), spec) == x

    def test_invert_spec_round_trip(self, rng):
        spec = make_explicit_spec(
            explicit(["030", "031", "032"]),
            key_pairs([("030", "031"), ("031", "032"), ("032", "030")]))
        inv = spec.inverse()
        for _ in range(200):
            x = rand_config(rng, span=12)
            assert apply_safe_rewrite(apply_safe_rewrite(x, spec), inv) == x


def rand_orbit_spec(rng):
    """The zero-padded rewrite of an even permutation of 5 to 8 components
    of span 1 to 12, with the tuple it permutes."""
    k = rng.randrange(5, 9)
    t = rand_tuple(rng, k, span=rng.choice((1, 2, 4, 12)))
    return orbit_permutation_instruction(t, rand_even_perm(rng, k)), t


class TestListedRewrites:
    """The key route of `apply_safe_rewrite` equals the string route of
    `conftest.string_rewrite` on listed maps and their inverses."""

    def test_matches_the_string_route(self, rng):
        # copies of the words of U (and of the components an orbit rewrite
        # permutes) m_rad or more apart, or closer, near 0 and near
        # +-10^9, with a few cells of noise among them
        sites = several = moved = 0
        for case in range(400):
            if case % 2:
                spec, t = rand_orbit_spec(rng)
                pieces = [c.cells for c in t]
            else:
                spec = rand_head_spec(rng)
                pieces = sorted(spec.U.keys)
            gaps = (1, spec.k, spec.m_rad, spec.m_rad + 1, 3 * spec.m_rad, 10**8)
            at = rng.choice((0, 10**9, -10**9)) + rng.randrange(-99, 100)
            cells = {}
            for _ in range(rng.randrange(1, 6)):
                cells.update((at + p, s) for p, s in rng.choice(pieces))
                at += rng.choice(gaps)
            for _ in range(rng.choice((0, 0, 1, 2))):
                cells[rng.choice(list(cells)) + rng.randrange(-9, 10)] = \
                    rng.randrange(1, 4)
            x = Config.from_cells(cells)
            for sp in (spec, spec.inverse()):
                got = apply_safe_rewrite(x, sp)
                assert got == string_rewrite(x, sp), (x, sp)
                moved += got != x
            n = len(chi_sites(x, spec))
            sites += n
            several += n > 1
        assert sites > 400 and several > 80 and moved > 300

    def test_overflow_matches_the_string_route(self, rng):
        # a copy of a word of U whose last cell is at +POSITION_LIMIT, or
        # whose first cell is at -POSITION_LIMIT: an image reaching past
        # the limit raises PositionOverflow on both routes
        overflows = 0
        for case in range(200):
            spec = rand_orbit_spec(rng)[0] if case % 2 else rand_head_spec(rng)
            for sp in (spec, spec.inverse()):
                for key in sp.U.keys:
                    for i in (POSITION_LIMIT - key[-1][0], -POSITION_LIMIT - key[0][0]):
                        x = Config.from_cells((i + o, s) for o, s in key)
                        same_or_overflow(apply_safe_rewrite, string_rewrite, x, sp)
                        try:
                            string_rewrite(x, sp)
                        except PositionOverflow:
                            overflows += 1
        assert overflows > 500


class TestNamedRules:
    """The head-gap rules on keys against `conftest.letter_rule`, and the
    named rewrites and the close-head step against the string route."""

    def test_key_rule_matches_the_letter_rule(self, rng):
        # 3,000 words of each head layout of both families, the other
        # letters drawn from 0-2; each rule is an involution
        for tag, family in HEAD_GAP_FAMILIES.items():
            rule = RuleWordMap(tag)
            for layout in family.layouts:
                for _ in range(3000):
                    row = [rng.choice("012") for _ in range(SIGMA3_LEN)]
                    for o in layout:
                        row[o] = "3"
                    w = "".join(row)
                    key = tuple(digit_cells(0, w))
                    image = rule.apply(key)
                    assert image == tuple(digit_cells(0, letter_rule(tag, w))), w
                    assert rule.apply(image) == key

    @staticmethod
    def close_heads(rng):
        """1-3 heads 1-5 or 47-50 apart, near 0 and near +-10^9, with up
        to nine particles and walls around them."""
        heads = [rng.choice((0, 10**9, -10**9)) + rng.randrange(-20, 21)]
        for _ in range(rng.choice((0, 1, 1, 2))):
            heads.append(heads[-1] + rng.choice((1, 2, 3, 4, 5, 47, 48, 49, 50)))
        cells = dict.fromkeys(heads, 3)
        for _ in range(rng.randrange(0, 10)):
            cells.setdefault(rng.randrange(heads[0] - 12, heads[-1] + 13),
                             rng.randrange(1, 3))
        return Config.from_cells(cells)

    def test_named_rewrites_match_the_string_route(self, rng):
        moved = 0
        for _ in range(600):
            x = self.close_heads(rng)
            for spec in (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC):
                got = apply_safe_rewrite(x, spec)
                assert got == string_rewrite(x, spec), (x, spec)
                moved += got != x
        assert moved > 600

    def test_close_heads_step_as_the_string_route(self, rng):
        close = 0
        for _ in range(600):
            x = self.close_heads(rng)
            heads = x.heads()
            close += len(isolated(heads, SIGMA3_TAU_SPEC.m_rad)) < len(heads)
            for direction in (1, -1):
                assert head_shift_once(x, direction) == \
                    string_shift(x, direction), (x, direction)
        assert close > 200


class TestValidators:
    """The marker rules, checked when the factories build a spec."""

    def test_sufficient_ok(self):
        make_explicit_spec(explicit(["030", "031"]), [])

    def test_sufficient_shape_violation(self):
        with pytest.raises(IllFormedSpec):
            make_explicit_spec(explicit(["030", "300"]), [])

    def test_sufficient_leftmost_violation(self):
        with pytest.raises(IllFormedSpec):
            make_explicit_spec(explicit(["030", "013"]), [])

    def test_sufficient_needs_a_head(self):
        with pytest.raises(IllFormedSpec, match="lacks the marker symbol"):
            make_explicit_spec(explicit(["030", "010"]), [])

    def test_zero_padded_ok(self):
        make_zero_padded_spec(explicit(["010", "020"]), [])

    def test_zero_padded_offset_violation(self):
        with pytest.raises(IllFormedSpec):
            make_zero_padded_spec(explicit(["010000", "001000"]), [])

    def test_zero_padded_all_zero(self):
        # ExplicitWords refuses the all-zero word before any marker rule
        with pytest.raises(IllFormedWordSet):
            make_zero_padded_spec(explicit(["000"]), [])

    def test_explicit_specs_use_the_head_marker(self):
        assert demo_spec().V == HEAD_MARKER and demo_spec().h == 1

    def test_zero_padded_spec_round_trip(self, rng):
        spec = make_zero_padded_spec(
            explicit(["010", "020"]), key_pairs([("010", "020"), ("020", "010")]))
        for _ in range(100):
            x = rand_config(rng)
            assert apply_safe_rewrite(apply_safe_rewrite(x, spec), spec) == x

    @pytest.mark.parametrize("factory, U, pairs", [
        (make_explicit_spec, explicit(["030", "031"]), key_pairs([("010", "010")])),
        (make_explicit_spec, explicit(["030", "031"]),
         key_pairs([("030", "032"), ("032", "030")])),
        (make_zero_padded_spec, explicit(["010", "020"]),
         key_pairs([("010", "030"), ("030", "010")])),
        (make_explicit_spec, explicit(["030", "031"]), [("030", "031"), ("031", "030")]),
        (make_zero_padded_spec, ["010", "020"], [])],
        ids=["fixed-pair-outside-U", "swap-with-a-word-outside-U",
             "zero-padded-swap-outside-U", "letter-pairs", "letter-U"])
    def test_pair_words_must_be_keys_of_U(self, factory, U, pairs):
        # a fixed pair moves nothing, but it still names a word of U
        with pytest.raises(IllFormedSpec):
            factory(U, pairs)


# the keys of the words 030, 031 and 032
K030, K031, K032 = ((1, 3),), ((1, 3), (2, 1)), ((1, 3), (2, 2))
SWAP_PI = demo_spec().pi
NO_MOVE = from_pairs((), 3)


class TestSpecChecksItself:
    """A spec built directly, not through a factory, is still checked."""

    @pytest.mark.parametrize("U, V, pi", [
        pytest.param(explicit(["030", "300"]), HEAD_MARKER, NO_MOVE,
                     id="head-outside-the-middle-third"),
        pytest.param(explicit(["030", "010"]), HEAD_MARKER, NO_MOVE,
                     id="headless-word"),
        pytest.param(explicit(["003000", "000300"]), HEAD_MARKER,
                     from_pairs((), 6), id="one-head-each-different-leftmost"),
        pytest.param(explicit(["030", "031"]), HEAD_MARKER,
                     of_checked([(K030, K032), (K032, K030)], 3),
                     id="pi-moves-a-word-outside-U"),
        pytest.param(explicit(["030", "031"]), HEAD_MARKER,
                     of_checked([("030", "031"), ("031", "030")], 3),
                     id="pi-on-letter-words"),
        pytest.param(explicit(["030", "031"]), HEAD_MARKER,
                     from_pairs((), 6), id="pi-of-the-wrong-length"),
        pytest.param(SIGMA3_TAU_WORDS, HEAD_MARKER, RuleWordMap("SIGMA3_PI"),
                     id="pi-rule-on-the-tau-family"),
        pytest.param(SIGMA3_PI_WORDS, HEAD_MARKER, RuleWordMap("SIGMA3_TAU"),
                     id="tau-rule-on-the-pi-family"),
        pytest.param(explicit(["001000", "000100"]), NonzeroWords(2),
                     from_pairs((), 6), id="zero-padded-core-at-two-offsets"),
        pytest.param(explicit(["110"]), NonzeroWords(1), NO_MOVE,
                     id="zero-padded-nonzero-padding"),
        pytest.param(explicit(["010", "011"]), NonzeroWords(1), NO_MOVE,
                     id="zero-padded-nonzero-right-padding"),
        pytest.param(explicit(["030", "031"]), NonzeroWords(3),
                     SWAP_PI, id="zero-padded-wrong-length"),
        pytest.param(explicit(["030", "031"]), explicit(["3"]),
                     SWAP_PI, id="marker-set-without-a-rule"),
        pytest.param(explicit(["030"]), NonzeroWords(4), NO_MOVE,
                     id="k-below-h"),
        pytest.param(explicit(["0300", "0310"]), HEAD_MARKER,
                     from_pairs((), 4), id="head-marker-length-not-divisible-by-3"),
        pytest.param(HeadLayoutWords(21.0, SIGMA3_PI_WORDS.layouts), HEAD_MARKER,
                     RuleWordMap("SIGMA3_PI"), id="float-word-length"),
        pytest.param(SIGMA3_PI_WORDS, HeadLayoutWords(True, HEAD_MARKER.layouts),
                     RuleWordMap("SIGMA3_PI"), id="bool-marker-length"),
    ])
    def test_unsafe_spec_refused(self, U, V, pi):
        with pytest.raises(IllFormedSpec):
            SafeRewrite(U, V, pi)

    def test_safe_specs_built_directly(self):
        assert SWAP_PI.images == {K030: K031, K031: K030}
        assert SafeRewrite(explicit(["030", "031"]), HEAD_MARKER,
                           SWAP_PI) == demo_spec()
        assert SafeRewrite(SIGMA3_PI_WORDS, HEAD_MARKER,
                           RuleWordMap("SIGMA3_PI")) == SIGMA3_PI_SPEC
        assert SafeRewrite(
            explicit(["001000", "000200"]), NonzeroWords(2),
            from_pairs((), 6)).m_rad == 4**2 + 1 + 12 + 2


class TestInverse:
    def test_inverse_is_the_rewrite_of_the_inverted_map(self):
        # the named rules and the 60 orbit-permutation rewrites of the
        # digest: inverting pi alone gives what the constructor builds
        from test_word_digest import digest_words
        specs = [SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC,
                 *(word.steps[0] for word in digest_words()[1])]
        assert len(specs) == 62
        for spec in specs:
            inv = spec.inverse()
            want = SafeRewrite(spec.U, spec.V, spec.pi.inverse())
            assert inv == want and hash(inv) == hash(want)
            if isinstance(spec.pi, WordPerm):
                assert inv.pi.images == {d: s for s, d in spec.pi.images.items()}
            assert (inv.k, inv.h, inv.ell, inv.m_rad) == (want.k, want.h, want.ell, want.m_rad)
            assert inv.inverse() == spec


class TestStrictParams:
    def test_sigma3_constants(self):
        p = SIGMA3_PI_SPEC
        assert (p.ell, p.m_rad) == (5, 48)

    def test_small(self):
        p = make_explicit_spec(explicit(["030", "031", "032"]), [])
        assert (p.ell, p.m_rad) == (5, 12)

    def test_saturation_flag(self):
        p = make_zero_padded_spec(explicit(["0" * 20 + "1" * 20 + "0" * 20]), [])
        assert p.ell == 4**20 + 1


class TestHeadShift:
    def test_lone_head_moves_right(self):
        assert head_shift_once(cfg(0, "3"), +1) == cfg(1, "3")

    def test_swaps_displaced_symbol(self):
        assert head_shift_once(cfg(0, "31"), +1) == cfg(0, "13")

    def test_round_trip(self):
        assert head_shift_once(head_shift_once(cfg(0, "3"), +1), -1) == \
            cfg(0, "3")

    def test_single_head_law(self, rng):
        for _ in range(300):
            x = rand_single_head(rng)
            q = next(p for p, s in x.cells if s == 3)
            want = dict(x.cells)
            displaced = want.pop(q + 1, 0)
            del want[q]
            want[q + 1] = 3
            if displaced:
                want[q] = displaced
            else:
                want.pop(q, None)
            for step in (head_shift_once, two_rewrite_shift):
                assert step(x, +1) == Config.from_cells(want)

    def test_matches_the_two_rewrites(self, rng):
        # no head, a lone head, or 2-3 heads 1-5 or 47-50 apart; each
        # head's neighbours are 0, 1 or 2, other cells anywhere near
        counts = [0] * 4
        for _ in range(2000):
            heads, p = [], rng.randrange(-20, 21)
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                heads.append(p)
                p += rng.choice((1, 2, 3, 4, 5, 47, 48, 49, 50))
            cells = dict.fromkeys(heads, 3)
            for q in heads or [p]:
                for o in (-1, 1):
                    cells.setdefault(q + o, rng.randrange(3))
            for _ in range(rng.randrange(0, 8)):
                cells.setdefault(rng.randrange(-30, p + 13), rng.randrange(1, 3))
            x = Config.from_cells(cells)
            for direction in (1, -1):
                assert head_shift_once(x, direction) == \
                    two_rewrite_shift(x, direction), (x, direction)
            counts[len(heads)] += 1
        assert min(counts) > 100

    @pytest.mark.parametrize("q", [POSITION_LIMIT, -POSITION_LIMIT])
    def test_lone_head_at_the_position_limit(self, q):
        x = Config.from_cells({q: 3})
        out = 1 if q > 0 else -1
        for step in (head_shift_once, two_rewrite_shift):
            with pytest.raises(PositionOverflow):
                step(x, out)
            assert step(x, -out) == Config.from_cells({q - out: 3})

    @given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 47, 48, 49, 50, 100]),
                    min_size=1, max_size=3),
           st.dictionaries(st.integers(-4, 304), st.integers(0, 2), max_size=12),
           st.sampled_from([1, -1]))
    def test_several_heads_match_the_two_rewrites(self, gaps, near, direction):
        # 2-4 heads: those more than m_rad = 48 cells from every other head
        # each step by the lone-head law, closer ones by the two rewrites
        heads = list(itertools.accumulate([0, *gaps]))
        x = Config.from_cells({**near, **dict.fromkeys(heads, 3)})
        assert head_shift_once(x, direction) == two_rewrite_shift(x, direction)

    @pytest.mark.parametrize("q", [POSITION_LIMIT - 1, 1 - POSITION_LIMIT])
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("left, right", itertools.product(range(3), repeat=2))
    def test_lone_head_splice_next_to_the_limit(self, q, direction, left, right):
        # the two rewrites run near 0 and shifted back, as they may pass
        # through a head past the limit where the step itself does not
        x = Config.from_cells({q - 1: left, q: 3, q + 1: right})
        assert head_shift_once(x, direction) == \
            shift(two_rewrite_shift(shift(x, q), direction), -q)

    def test_isolated_heads_across_the_whole_range(self):
        L = POSITION_LIMIT
        x = Config.from_cells({-L: 3, L - 1: 3, L: 1})
        y = Config.from_cells({1 - L: 3, L - 1: 1, L: 3})
        assert head_shift_once(x, 1) == HeadShift(1).apply(x) == y
        assert head_shift_once(y, -1) == x
        for z, out in ((x, -1), (y, 1)):
            with pytest.raises(PositionOverflow):
                head_shift_once(z, out)

    @pytest.mark.parametrize("cells, direction, want", [
        pytest.param({-100: 3, -1: 3, 0: 1}, 1, {-99: 3, -1: 1, 0: 3},
                     id="right"),
        pytest.param({-100: 3, -2: 2, -1: 3}, -1, {-101: 3, -2: 3, -1: 2},
                     id="left"),
    ])
    def test_several_heads_next_to_the_limit(self, cells, direction, want):
        # heads at most two cells inside the limit: the two rewrites on the
        # configuration itself write a head past it, on the centred one not
        L = POSITION_LIMIT
        x = Config.from_cells({L + p: s for p, s in cells.items()})
        want = Config.from_cells({L + p: s for p, s in want.items()})
        assert head_shift_once(x, direction) == want
        assert HeadShift(direction).apply(x) == want
        with pytest.raises(PositionOverflow):
            two_rewrite_shift(x, direction)

    @pytest.mark.parametrize("q", [POSITION_LIMIT, -POSITION_LIMIT])
    def test_several_heads_at_the_position_limit(self, q):
        out = 1 if q > 0 else -1
        x = Config.from_cells({q: 3, q - 100 * out: 3})
        with pytest.raises(PositionOverflow):
            head_shift_once(x, out)
        with pytest.raises(PositionOverflow):
            HeadShift(out).apply(x)
        assert head_shift_once(x, -out) == \
            Config.from_cells({q - out: 3, q - 101 * out: 3})

    def test_several_heads_commute_with_the_shift(self, rng):
        # 2-3 heads 1-5 or 47-50 apart, moved to end within two cells of
        # either limit: the step there is the shifted step near 0, or an
        # overflow where that leaves the range
        L, results = POSITION_LIMIT, [0, 0]
        for _ in range(600):
            cells, p = {}, 0
            for _ in range(rng.choice((2, 3))):
                cells[p] = 3
                cells.setdefault(p + 1, rng.randrange(3))
                p += rng.choice((1, 2, 3, 4, 5, 47, 48, 49, 50))
            x = Config.from_cells(cells)
            for direction in (1, -1):
                near = two_rewrite_shift(x, direction)
                for n in (x.max_pos() - L + rng.randrange(3),
                          x.min_pos() + L - rng.randrange(3)):
                    far = shift(x, n)
                    try:
                        want = shift(near, n)
                    except PositionOverflow:
                        with pytest.raises(PositionOverflow):
                            head_shift_once(far, direction)
                        results[0] += 1
                    else:
                        assert head_shift_once(far, direction) == want
                        results[1] += 1
        assert min(results) > 100, results

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([1, 2, 3, 4, 5, 47, 49, 92, 93, 137, 138, 139, 140, 300]),
        st.sampled_from([0, 1, 2, 3, 3, 3])), min_size=2, max_size=9),
           st.sampled_from([1, -1]))
    def test_groups_far_apart_step_alone(self, cells, direction):
        # cells 1-300 apart, heads among them: each group more than 138
        # cells from the others steps on its own, as one configuration
        positions = itertools.accumulate(gap for gap, _ in cells)
        x = Config.from_cells(zip(positions, (s for _, s in cells)))
        assert head_shift_once(x, direction) == two_rewrite_shift(x, direction)

    def test_close_pair_and_far_head_across_the_whole_range(self):
        # a close pair next to the upper limit steps near 0, apart from the
        # head at the lower limit; centred on the whole support, the pair
        # passed the limit although the result fits
        L = POSITION_LIMIT
        x = Config.from_cells({1 - L: 3, L - 4: 3, L - 3: 2, L - 2: 3})
        y = Config.from_cells({-L: 3, L - 4: 1, L - 3: 3, L: 3})
        assert head_shift_once(x, -1) == HeadShift(-1).apply(x) == y
        assert head_shift_once(y, 1) == x
        pair = Config.from_cells({-1: 3, 0: 2, 1: 3})
        assert shift(two_rewrite_shift(pair, -1), 3 - L) == Config.from_cells(
            {L - 4: 1, L - 3: 3, L: 3})

    def test_step_law_needs_only_the_new_head_position(self):
        # the two rewrites pass through a second head at q + 1 + a, so near
        # the upper limit they overflow where the one-step result exists
        q = POSITION_LIMIT - 1
        x = Config.from_cells({q: 3, q + 1: 2})
        assert head_shift_once(x, 1) == Config.from_cells({q: 2, q + 1: 3})
        with pytest.raises(PositionOverflow):
            two_rewrite_shift(x, 1)

    def test_inverse_on_arbitrary_configs(self, rng):
        for _ in range(300):
            x = rand_config(rng, span=10, max_cells=6)
            assert head_shift_once(head_shift_once(x, +1), -1) == x
            assert head_shift_once(head_shift_once(x, -1), +1) == x

    def test_sigma3_involutions(self, rng):
        for spec in (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC):
            for _ in range(150):
                x = rand_config(rng, span=10, max_cells=6)
                assert apply_safe_rewrite(apply_safe_rewrite(x, spec), spec) == x
