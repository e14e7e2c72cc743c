"""The instruction algebra: exact evaluation, inversion, and word replay."""

import itertools
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from fourshift.core import (CELLS, POSITION_LIMIT, WINDOW_SYMBOLS, WORD_SYMBOLS,
                            Config, DomainError, ParseError, PositionOverflow,
                            TupleK, ZERO, read_key, shift, validate_tuple)
from fourshift.generators import (SWAP_12, SWAP_13, SWAP_23, HeadLocal,
                                  HeadShift, IllFormedInstruction, Particle,
                                  SymbolPerm, TransportWord,
                                  apply_instruction, apply_word, fuse,
                                  invert_word, size_report)
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.permbuild import build_mapping_perm
from fourshift.serial import emit_word, parse_word
from fourshift.transporter import transport, verify

from conftest import (dense, dict_overwrite, edge_cells, explicit,
                      from_cells_relabel, from_pairs, from_tracks, head_local,
                      key_pairs, make_explicit_spec, overwrite_head_local, rand_config, rand_config_over,
                      rand_even_perm, rand_tuple,
                      same_or_overflow, stepwise_head_shift, sym_window,
                      tracks, two_pass_head_local, two_pass_key, two_pass_window, two_rewrite_shift,
                      window)


def cfg(offset, digits):
    return Config.from_word(offset, digits)


DEMO3 = (cfg(0, "3"), cfg(-1, "201"), cfg(0, "22"))


def rand_instruction(rng):
    roll = rng.randrange(4)
    if roll == 0:
        return Particle(rng.randrange(-4, 5))
    if roll == 1:
        img = [1, 2, 3]
        rng.shuffle(img)
        return SymbolPerm((0, *img))
    if roll == 2:
        return head_local(1, [("00", "12"), ("12", "00")])
    return HeadShift(rng.choice((-2, -1, 1, 2)))


class TestApplyInstruction:
    def test_particle_moves_left_keeps_walls(self):
        got = [apply_instruction(c, Particle(3)) for c in DEMO3]
        assert got == [cfg(-3, "1002"), cfg(-2, "12"), cfg(0, "22")]

    def test_particle_preserves_tracks(self, rng):
        for _ in range(200):
            x = rand_config(rng)
            e = rng.randrange(-6, 7)
            p, w = tracks(x)
            p2, w2 = tracks(apply_instruction(x, Particle(e)))
            assert w2 == w and p2 == frozenset(q - e for q in p)

    def test_symbol_perm(self):
        assert apply_instruction(cfg(0, "22"), SWAP_23) == \
            cfg(0, "33")

    @pytest.mark.parametrize("e", [1.0, 0.5, True, False, "1", None])
    def test_particle_move_must_be_an_int(self, e):
        # a bool is no move, though it subtracts as 0 or 1
        with pytest.raises(DomainError):
            Particle(e)

    @pytest.mark.parametrize("e", [1.5, True])
    def test_head_shift_power_must_be_an_int(self, e):
        with pytest.raises(IllFormedInstruction):
            HeadShift(e)

    def test_symbol_perm_must_fix_zero(self):
        with pytest.raises(IllFormedInstruction):
            SymbolPerm((1, 0, 2, 3))

    @pytest.mark.parametrize("img", [
        (0, True, 2, 3), (0, 1, 2, 3.0), [0, 2, 1, 3], (0, 1, 2), "0123"])
    def test_symbol_perm_must_be_a_tuple_of_four_ints(self, img):
        # a list would make an unhashable instruction
        with pytest.raises(IllFormedInstruction):
            SymbolPerm(img)

    @pytest.mark.parametrize("r, wp", [
        (True, from_pairs((), 2)), (1.0, from_pairs((), 2)),
        ("2", from_pairs((), 4)), (1, {}), (1, None)])
    def test_head_local_fields_checked_first(self, r, wp):
        with pytest.raises(IllFormedInstruction):
            HeadLocal(r, wp)

    def test_head_local_rewrites_isolated_window(self):
        ins = head_local(1, [("00", "10"), ("10", "00")])
        assert apply_instruction(cfg(0, "3"), ins) == cfg(-1, "13")

    def test_head_local_skips_crowded_heads(self):
        ins = head_local(1, [("00", "10"), ("10", "00")])
        assert apply_instruction(cfg(0, "33"), ins) == cfg(0, "33")

    def test_head_local_window_length_checked(self):
        with pytest.raises(IllFormedInstruction):
            HeadLocal(2, from_pairs((), 2))

    def test_safe_rewrite_instruction(self):
        spec = make_explicit_spec(explicit(["030", "031"]),
                                  key_pairs([("030", "031"), ("031", "030")]))
        assert apply_instruction(cfg(1, "3"), spec) == cfg(1, "31")

    def test_head_shift_stepwise(self):
        assert apply_instruction(cfg(0, "3"), HeadShift(3)) == cfg(3, "3")
        assert apply_instruction(cfg(0, "3"), HeadShift(-2)) == cfg(-2, "3")


class TestParticleOracle:
    """Particle.apply against its oracle: split into tracks, move the
    particle track, join the tracks again through sets."""

    @given(st.dictionaries(st.integers(-30, 30), st.integers(1, 3), max_size=12),
           st.integers(-40, 40))
    def test_matches_the_track_join(self, cells, e):
        x = Config.from_cells(cells)
        particles, walls = tracks(x)
        assert Particle(e).apply(x) == from_tracks(
            (p - e for p in particles), walls)

    @pytest.mark.parametrize("q, e", [(POSITION_LIMIT, -1), (-POSITION_LIMIT, 1),
                                      (0, POSITION_LIMIT + 1)])
    @pytest.mark.parametrize("s", [1, 3])
    def test_particle_past_the_limit_overflows(self, q, e, s):
        with pytest.raises(PositionOverflow):
            Particle(e).apply(Config.from_cells({q: s}))


class TestParticleNearTheLimit:
    """Particle.apply checks only the moved track's two ends: the track join
    checks every cell."""

    @given(edge_cells, st.integers(-20, 20))
    def test_matches_the_track_join_or_overflows(self, cells, e):
        x = Config.from_cells(cells)
        particles, walls = tracks(x)
        same_or_overflow(
            Particle(e).apply,
            lambda x: from_tracks((p - e for p in particles), walls), x)


class TestSymbolPermOracle:
    """SymbolPerm.apply against its oracle, the relabelled cells checked
    again by Config.from_cells."""

    @given(st.dictionaries(st.integers(-30, 30), st.integers(1, 3), max_size=12),
           st.permutations([1, 2, 3]))
    def test_matches_the_from_cells_form(self, cells, img):
        x, img = Config.from_cells(cells), (0, *img)
        assert SymbolPerm(img).apply(x) == from_cells_relabel(x, img)


class TestHeadShift:
    """HeadShift(e) against its oracle, e steps of the two head-gap safe
    rewrites."""

    @staticmethod
    def stepwise(x, e):
        for _ in range(abs(e)):
            x = two_rewrite_shift(x, 1 if e > 0 else -1)
        return x

    def test_matches_stepwise_loop(self, rng):
        # up to three heads, spaced around the 3/4 and 48/49 thresholds
        fixed = moved = 0
        for _ in range(300):
            q = p = rng.randrange(-5, 6)
            heads = [q] if rng.random() < 0.9 else []
            for _ in range(rng.randrange(0, 3) if heads else 0):
                p += rng.choice((1, 2, 3, 4, 5, 47, 48, 49, 50))
                heads.append(p)
            cells = dict.fromkeys(heads, 3)
            for _ in range(rng.randrange(0, 4)):
                cells.setdefault(rng.randrange(q - 8, p + 9), rng.randrange(1, 3))
            x = Config.from_cells(cells)
            e = rng.randrange(-12, 13)
            y = HeadShift(e).apply(x)
            assert y == self.stepwise(x, e), (x, e)
            if e:
                fixed += len(heads) > 1 and y == x
                moved += len(heads) > 1 and y != x
        assert fixed > 0 and moved > 0

    # head spacings around the 3/4 and 48/49 thresholds and beyond them
    spacings = st.sampled_from([1, 2, 3, 4, 5, 47, 48, 49, 50, 100, 200])

    @settings(deadline=None, max_examples=300)
    @given(st.integers(-5, 5), st.lists(spacings, max_size=3),
           st.dictionaries(st.integers(-250, 650), st.integers(1, 2),
                           max_size=8),
           st.integers(-400, 400))
    def test_matches_the_step_loop(self, q, gaps, cells, e):
        # |e| up to 400 against spacings down to 100: one symbol is
        # passed by several heads
        heads = list(itertools.accumulate([q, *gaps]))
        x = Config.from_cells({**cells, **dict.fromkeys(heads, 3)})
        assert HeadShift(e).apply(x) == stepwise_head_shift(x, e)

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([POSITION_LIMIT, -POSITION_LIMIT]),
           st.integers(0, 60), st.lists(spacings, max_size=2),
           st.dictionaries(st.integers(-250, 250), st.integers(1, 2),
                           max_size=6),
           st.integers(-80, 80))
    def test_matches_the_step_loop_at_the_limit(self, end, back, gaps, cells, e):
        # the first head `back` cells inside the limit, the others further
        # in: a power either fits or overflows on both sides
        inward = -1 if end > 0 else 1
        heads = [end + inward * (back + g)
                 for g in itertools.accumulate([0, *gaps])]
        x = Config.from_cells(
            {**{heads[0] + p: s for p, s in cells.items()
                if abs(heads[0] + p) <= POSITION_LIMIT},
             **dict.fromkeys(heads, 3)})
        same_or_overflow(lambda x, e: HeadShift(e).apply(x),
                         stepwise_head_shift, x, e)

    def test_matches_the_step_oracle_by_kind(self, rng):
        # headless, lone-head, isolated multi-head (heads 49 or more cells
        # apart) and close-head points (two heads at most 48 apart); an
        # isolated point takes one step and one slide, a close one steps on
        kinds = Counter()
        for _ in range(800):
            kind = rng.choice(("headless", "lone", "isolated", "close"))
            gaps = {"isolated": [rng.randrange(49, 130)
                                 for _ in range(rng.randrange(1, 3))],
                    "close": [rng.randrange(1, 49),
                              *rng.sample((3, 60), rng.randrange(2))]}.get(kind, [])
            heads = list(itertools.accumulate([rng.randrange(-5, 6), *gaps]))
            cells = {rng.randrange(heads[0] - 60, heads[-1] + 61): rng.randrange(1, 3)
                     for _ in range(rng.randrange(kind == "headless", 12))}
            if kind != "headless":
                cells.update(dict.fromkeys(heads, 3))
            x = Config.from_cells(cells)
            e = rng.randrange(-15, 16) if kind == "close" else rng.randrange(-80, 81)
            assert HeadShift(e).apply(x) == stepwise_head_shift(x, e), (x, e)
            kinds[kind] += 1
        assert min(kinds.values()) > 150, kinds

    @pytest.mark.parametrize("e", [10**9, -10**9])
    def test_lone_head_power_is_one_slide(self, e):
        start = time.perf_counter()
        assert HeadShift(e).apply(cfg(0, "312")) == Config.from_cells(
            {0: 1, 1: 2, e: 3} if e > 0 else {e: 3, 1: 1, 2: 2})
        assert time.perf_counter() - start < 0.05


def dense_head_local(ins, x):
    """HeadLocal.apply with windows as 2r-letter words, kept as the oracle:
    each head is compared with every other, and each isolated head's window
    is read one Config.sym per position and written back through a dict."""
    r = ins.r
    images = {dense(s, r): dense(d, r) for s, d in ins.wp.moved}
    heads = x.heads()
    isolated = [q for q in heads
                if all(q == p or abs(q - p) >= 2 * r + 3 for p in heads)]
    windows = [[*range(q - r, q), *range(q + 1, q + r + 1)] for q in isolated]
    return dict_overwrite(x, ((w, images.get(sym_window(x, w), sym_window(x, w)))
                              for w in windows))


class TestHeadLocalOracle:
    @pytest.mark.parametrize("q", [POSITION_LIMIT, -POSITION_LIMIT])
    def test_head_local_image_past_the_limit_overflows(self, q):
        # the image moves the particle beside the head to its other side,
        # one cell past the limit
        out = 1 if q > 0 else -1
        ins = head_local(1, [("10", "01"), ("01", "10")])
        with pytest.raises(PositionOverflow):
            ins.apply(Config.from_cells({q: 3, q - out: 1}))
        assert ins.apply(Config.from_cells({q - 2 * out: 3, q - 3 * out: 1})) \
            == Config.from_cells({q - 2 * out: 3, q - out: 1})

    def test_matches_the_dense_apply(self, rng):
        moved = 0
        for _ in range(1500):
            r = rng.randrange(1, 7)
            pool = list(dict.fromkeys(
                "".join(rng.choice("00012") for _ in range(2 * r))
                for _ in range(6)))
            n = rng.randrange(1, len(pool) + 1)
            pairs = [(window(s), window(d)) for s, d in
                     zip(rng.sample(pool, n), rng.sample(pool, n))]
            ins = HeadLocal(r, build_mapping_perm(pairs, 2 * r))
            # 0-4 heads, crowded (1-5 apart) or just past isolation
            heads, q = [], rng.randrange(-5, 6)
            for _ in range(rng.randrange(0, 5)):
                heads.append(q)
                q += rng.choice([*range(1, 6), *range(2 * r + 2, 2 * r + 5)])
            cells = {}
            for q in heads:
                key = rng.choice(pairs)[0] if rng.random() < 0.7 else ()
                cells.update((q + o, s) for o, s in key)
            for _ in range(rng.randrange(0, 4)):
                p = rng.randrange(-r - 8, q + r + 8)
                cells[p] = rng.randrange(1, 3)
            cells.update(dict.fromkeys(heads, 3))
            x = Config.from_cells(cells)
            y = ins.apply(x)
            assert y == dense_head_local(ins, x), (ins, x)
            moved += y != x
        assert moved > 300

    def test_many_heads_in_linear_time(self):
        # one line of 1,000 heads 49 cells apart, each window moved
        heads = range(0, 49 * 1000, 49)
        x = Config.from_cells([*((q, 3) for q in heads),
                               *((q + 1, 1) for q in heads)])
        ins = head_local(2, [("0010", "1000"), ("1000", "0010")])
        start = time.perf_counter()
        y = ins.apply(x)
        assert time.perf_counter() - start < 0.05
        assert y == Config.from_cells([*((q, 3) for q in heads),
                                       *((q - 2, 1) for q in heads)])

    def test_many_heads_shift_in_linear_time(self):
        # one line of 1,000 heads 49 cells apart, each followed by a
        # particle: every head is alone, so each follows the one-head law
        heads = range(0, 49 * 1000, 49)
        x = Config.from_cells([*((q, 3) for q in heads),
                               *((q + 1, 1) for q in heads)])
        for e, want in (
                (1, [*((q + 1, 3) for q in heads), *((q, 1) for q in heads)]),
                (-1, [*((q - 1, 3) for q in heads), *((q + 1, 1) for q in heads)])):
            start = time.perf_counter()
            y = HeadShift(e).apply(x)
            assert time.perf_counter() - start < 0.3
            assert y == Config.from_cells(want)

    def test_huge_radius_reads_only_the_cells(self):
        ins = HeadLocal(10**15, from_pairs(
            [(((1, 1),), ((2, 1),)), (((2, 1),), ((1, 1),))], 2 * 10**15))
        assert ins.apply(cfg(0, "31")) == cfg(0, "301")
        assert ins.apply(cfg(0, "3" + "0" * 9 + "3")) == cfg(0, "3" + "0" * 9 + "3")


def random_head_local(rng, r):
    """A head-local rewrite of radius r built from up to six random window
    pairs, and the source windows of its pairs."""
    pool = list(dict.fromkeys(
        "".join(rng.choice("00012") for _ in range(2 * r)) for _ in range(6)))
    n = rng.randrange(1, len(pool) + 1)
    pairs = [(window(s), window(d))
             for s, d in zip(rng.sample(pool, n), rng.sample(pool, n))]
    return HeadLocal(r, build_mapping_perm(pairs, 2 * r)), [s for s, _ in pairs]


def with_windows(rng, heads, sources):
    """A configuration with a head at each of `heads`, most of them holding
    one of the `sources` windows, the rest an empty window."""
    cells = {}
    for q in heads:
        key = rng.choice(sources) if rng.random() < 0.8 else ()
        cells.update((q + o, s) for o, s in key)
    cells.update(dict.fromkeys(heads, 3))
    return Config.from_cells(cells)


class TestHeadLocalLaw:
    """`HeadLocal.apply`, the one block law `Config.rewrite_blocks` with
    its origins at the heads, against the block route
    `overwrite_head_local`: `cells_in`, its own window comprehension,
    `wp.apply` and one checked `overwrite`."""

    def test_matches_the_block_route(self, rng):
        moved = crowded = 0
        for r in range(1, 9):
            for _ in range(150):
                ins, sources = random_head_local(rng, r)
                # 0-3 heads, 2r + 2 apart (not isolated) or 2r + 3 apart
                heads, q = [], rng.randrange(-5, 6)
                for _ in range(rng.randrange(0, 4)):
                    heads.append(q)
                    q += rng.choice([2 * r + 2, 2 * r + 3])
                x = with_windows(rng, heads, sources)
                for _ in range(rng.randrange(0, 3)):  # a stray cell or two
                    p = rng.randrange(-r - 8, q + r + 8)
                    if p not in heads:
                        x = x.overwrite([(p, p + 1, [(p, rng.randrange(1, 3))])])
                y = ins.apply(x)
                assert y == overwrite_head_local(x, ins), (ins, x)
                moved += y != x
                crowded += any(b - a == 2 * r + 2 for a, b in zip(heads, heads[1:]))
        assert moved > 300 and crowded > 200

    def test_near_the_limit_both_overflow(self, rng):
        overflowed = moved = 0
        for r in range(1, 9):
            for _ in range(60):
                ins, sources = random_head_local(rng, r)
                end = rng.choice([-1, 1])
                q = end * (POSITION_LIMIT - rng.randrange(0, r + 1))
                heads = sorted([q, q - end * rng.choice([2 * r + 2, 2 * r + 3])])
                cells = with_windows(rng, [h - q for h in heads], sources).cells
                x = Config.from_cells([(p + q, s) for p, s in cells
                                       if abs(p + q) <= POSITION_LIMIT])
                try:
                    want = overwrite_head_local(x, ins)
                except PositionOverflow:
                    overflowed += 1
                    with pytest.raises(PositionOverflow):
                        ins.apply(x)
                else:
                    assert ins.apply(x) == want, (ins, x)
                    moved += want != x
        assert overflowed > 30 and moved > 100

    def test_any_word_permutation_refused_or_matched(self, rng):
        # the keys of an orbit permutation, offsets 2m .. 4m - 1 and
        # symbols 1-3, as the windows of radius 3m: an image past the
        # radius or at the head is refused by both routes, and any other
        # image, a head in it included, is written the same well-formed way
        refused = matched = 0
        for n in range(300):
            k = 5 + n % 3
            t = rand_tuple(rng, k, span=rng.randrange(1, 3), max_cells=2)
            pi = orbit_permutation_instruction(t, rand_even_perm(rng, k)).pi
            ins = HeadLocal(pi.length // 2, pi)
            keys = [w for w in pi.images if all(o and s != 3 for o, s in w)]
            x = with_windows(rng, [0, 2 * ins.r + 3], keys or [()])
            try:
                want = overwrite_head_local(x, ins)
            except DomainError:
                refused += 1
                with pytest.raises(DomainError):
                    ins.apply(x)
            else:
                y = ins.apply(x)
                assert y == want and Config.from_cells(y.cells) == y, (ins, x)
                matched += y != x
        assert refused > 50 and matched > 30


class TestHeadStepsFixHeadlessPoints:
    """Both head steps fix every point with no head, which lets
    `make_great` replay them on the buzzing components only."""

    @pytest.fixture
    def headless(self, rng):
        return [rand_config_over(rng, rng.choice([(1,), (2,), (1, 2)]),
                                 span=rng.randrange(1, 41), max_cells=8)
                for _ in range(60)]

    def test_head_shift(self, headless):
        for x in headless:
            for e in range(-64, 65):
                assert HeadShift(e).apply(x) == x, (x, e)

    def test_every_head_local_of_a_transport(self, rng, headless):
        steps = set()
        for n in range(100):
            k = 1 + n % 5
            steps.update(ins for ins in transport(rand_tuple(rng, k),
                                                  rand_tuple(rng, k)).steps
                         if isinstance(ins, HeadLocal))
        assert len(steps) > 200
        for ins in steps:
            for x in headless:
                assert ins.apply(x) == x, (ins, x)


def key_lines(lo: int, hi: int):
    """Key run lines around [lo, hi): one run with offsets at and past
    either end and at 0, leading and trailing zeros and the digit 3; two
    runs, in order or not; near misses of the run syntax; and values that
    are not strings."""
    offsets = (st.sampled_from([lo - 1, lo, -1, 0, 1, hi - 1, hi])
               | st.integers(lo - 3, hi + 2))
    digits = st.text("0123", min_size=1, max_size=6) | st.text(
        "00012", min_size=1, max_size=hi - lo + 2) | st.text(
        "000123", min_size=1, max_size=hi - lo + 2)
    run = st.builds("@{}:{}".format, offsets, digits)
    return (run | st.builds("{} {}".format, run, run)
            | st.sampled_from(["ZERO", "@0:0", "@-0:1", "@+1:1", "@01:1", "@1:",
                               "@:1", " @1:1", "@1:1 ", "@1:1\n", "", " ",
                               "zero", "@1:\u0661", "@\u0661:1"])
            | st.text("@-:0123 Z", max_size=8)
            | st.none() | st.integers(0, 3) | st.lists(st.just("@1:1"), max_size=1))


# Windows of radius 2, some malformed.
HL_LINES = ["ZERO", "@0:0", "@1:1", "@-1:2", "@2:1", "@-2:1", "@1:12",
            "@-2:10002", "@-1:1", "@0:1", "@3:1", "@1:3", "@1:1 @2:1"]


def read_window(text, r):
    return read_key(text, -r, r + 1, WINDOW_SYMBOLS, hole=0)


class TestWindowReader:
    """`core.read_key`, the one reader of `HL` windows and listed `SR`
    words, against a two-pass one: `parse_runs`, then a check of every
    cell.  A window of radius r has offsets in [-r, r + 1), none at the
    head's 0, and symbols 1 and 2; a word of length k has offsets in
    [0, k) and symbols 1 to 3."""

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_matches_the_two_pass_reader(self, data):
        r = data.draw(st.sampled_from([1, 2, 3, 5, 64, 65]))
        text = data.draw(key_lines(-r, r + 1))
        try:
            want = two_pass_window(text, r)
        except DomainError:
            with pytest.raises(DomainError):
                read_window(text, r)
            return
        got = read_window(text, r)
        assert got == want and type(got) is tuple
        assert all(CELLS.get(c, c) is c for c in got)

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_words_match_the_two_pass_reader(self, data):
        # word lengths below and above 64, and at the edge of CELLS
        k = data.draw(st.sampled_from([1, 3, 12, 21, 63, 64, 65, 66, 90]))
        text = data.draw(key_lines(0, k))
        try:
            want = two_pass_key(text, 0, k, {1, 2, 3})
        except DomainError:
            with pytest.raises(DomainError):
                read_key(text, 0, k, WORD_SYMBOLS)
            return
        got = read_key(text, 0, k, WORD_SYMBOLS)
        assert got == want and type(got) is tuple
        assert all(CELLS.get(c, c) is c for c in got)

    @pytest.mark.parametrize("text, r, want", [
        ("@-2:10001", 2, ((-2, 1), (2, 1))), ("@-5:000100", 2, ((-2, 1),)),
        ("@-1:20", 1, ((-1, 2),)), ("@0:0", 2, ()), ("ZERO", 2, ()),
        ("@99999999999999999999:000", 2, ()), ("@1:1 @70:2", 70, ((1, 1), (70, 2))),
        ("@-65:1", 65, ((-65, 1),)), ("@1:12 @2:2", 2, None), ("@0:1", 2, None),
        ("@-2:10101", 2, None), ("@-3:1", 2, None), ("@3:1", 2, None),
        ("@1:3", 2, None), ("@1:1 @70:2", 64, None), ("@-66:1", 65, None),
        (1, 2, None), (None, 2, None)])
    def test_edges(self, text, r, want):
        # one run at +-r and past it, leading zeros, all zeros, a cell at
        # the head or overlapping runs, radii beyond CELLS
        if want is None:
            for read in (read_window, two_pass_window):
                with pytest.raises(DomainError):
                    read(text, r)
        else:
            assert read_window(text, r) == two_pass_window(text, r) == want

    @pytest.mark.parametrize("text, k, want", [
        ("@0:3", 1, ((0, 3),)), ("@0:030", 3, ((1, 3),)),
        ("@-2:00123", 3, ((0, 1), (1, 2), (2, 3))), ("@0:0", 3, ()), ("ZERO", 3, ()),
        ("@64:3", 65, ((64, 3),)), ("@0:1 @80:3", 90, ((0, 1), (80, 3))),
        ("@-1:10", 3, None), ("@2:01", 3, None), ("@0:4", 3, None),
        ("@1:1 @0:1", 3, None), ("@65:3", 65, None), ("@0:1 @80:3", 80, None),
        (3, 3, None)])
    def test_word_edges(self, text, k, want):
        # a head anywhere, both ends of [0, k) and past them, a digit above
        # 3, runs out of order, word lengths beyond CELLS
        if want is None:
            with pytest.raises(DomainError):
                read_key(text, 0, k, WORD_SYMBOLS)
            with pytest.raises(DomainError):
                two_pass_key(text, 0, k, {1, 2, 3})
        else:
            assert read_key(text, 0, k, WORD_SYMBOLS) == want
            assert two_pass_key(text, 0, k, {1, 2, 3}) == want

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(HL_LINES), max_size=4), max_size=3))
    @example([["@1:1", "@2:1", "@-1:1"], ["ZERO", "@1:12"]])
    @example([["@1:1", "@2:1"], ["@-1:1", "@1:1"]])
    @example([["@1:1", "@0:01"]])
    @example([["@1:1"]])
    def test_cycle_objects_match_the_two_pass_read(self, cycles):
        obj = {"op": "HL", "r": 2, "cycles": cycles}
        try:
            want = two_pass_head_local(obj)
        except DomainError:
            with pytest.raises(ParseError):
                parse_word(json.dumps([obj]))
            return
        assert parse_word(json.dumps([obj])).steps[0].wp.images == want


def chain_maps(rng: random.Random, n: int):
    """Head-local rewrites of radius 1 to 3 that `build_mapping_perm` makes
    from one seeded chain of up to seven windows, so cycles of two to
    seven windows occur."""
    for _ in range(n):
        r = rng.randint(1, 3)
        chain = list(dict.fromkeys("".join(rng.choice("012") for _ in range(2 * r))
                                   for _ in range(rng.randint(2, 7))))
        yield HeadLocal(r, build_mapping_perm(
            [(window(s), window(d)) for s, d in zip(chain, chain[1:])], 2 * r))


class TestCycleForm:
    """An HL map written as its disjoint cycles reads back as the same map,
    and as the two-pass oracle reads it."""

    @staticmethod
    def check(ins: HeadLocal) -> None:
        obj = ins.to_obj()
        assert HeadLocal.from_obj(obj) == ins
        assert two_pass_head_local(obj) == ins.wp.images

    def test_transport_words(self):
        rng, maps = random.Random(22), 0
        for i in range(40):
            k = 1 + i % 5
            word = transport(rand_tuple(rng, k, span=5), rand_tuple(rng, k, span=5))
            assert parse_word(emit_word(word)) == word
            for ins in word.steps:
                if isinstance(ins, HeadLocal):
                    self.check(ins)
                    maps += 1
        assert maps > 150

    def test_built_maps_with_chains(self):
        lengths = set()
        for ins in chain_maps(random.Random(23), 300):
            self.check(ins)
            word = TransportWord((ins, Particle(1), ins.inverse()))
            assert parse_word(emit_word(word)) == word
            lengths.update(map(len, ins.wp.to_cycles()))
        assert lengths == {2, 3, 4, 5, 6, 7}


class TestApplyWord:
    @pytest.mark.parametrize("steps", [
        (None,), (Particle(1), "P"), (Particle(1), {"op": "P", "e": 1}),
        (HeadLocal,), [Particle(1)], None])
    def test_word_of_non_instructions_refused(self, steps):
        with pytest.raises(IllFormedInstruction):
            TransportWord(steps)

    def test_replay_of_a_non_instruction_is_a_domain_error(self):
        # refused when built, so never an AttributeError at replay
        t = validate_tuple(DEMO3)
        with pytest.raises(DomainError):
            verify(TransportWord((None,)), t, t)
        with pytest.raises(DomainError):
            apply_word(DEMO3[0], TransportWord((Particle(1), None)))

    @pytest.mark.parametrize("steps", [(), (Particle(1),)])
    def test_replay_on_a_non_config_is_a_domain_error(self, steps):
        # verify takes a nonempty TupleK as built: its components are
        # checked by apply_word when they are replayed
        word = TransportWord(steps)
        for target in (None, "@0:1", (DEMO3[0],), TupleK((None,))):
            with pytest.raises(DomainError, match="not a Config or a TupleK"):
                apply_word(target, word)
        with pytest.raises(DomainError, match="not a Config or a TupleK"):
            verify(word, TupleK((None,)), TupleK((None,)))
        with pytest.raises(DomainError, match="at least one component"):
            verify(word, TupleK(()), TupleK(()))

    def test_demo_sequence(self):
        word = TransportWord((Particle(3), SWAP_23, Particle(2)))
        t = validate_tuple(DEMO3)
        out = apply_word(t, word)
        assert out.components == (cfg(-5, "100102"), cfg(-4, "1102"),
                                  cfg(-2, "1122"))

    def test_empty_word_is_identity(self, rng):
        x = rand_config(rng)
        assert apply_word(x, TransportWord(())) == x

    def test_word_then_inverse(self, rng):
        for _ in range(300):
            word = TransportWord(tuple(rand_instruction(rng)
                                       for _ in range(4)))
            x = rand_config(rng)
            assert apply_word(apply_word(x, word), invert_word(word)) == x

    @pytest.mark.parametrize("word", [None, [], (Particle(1),), "[]"])
    def test_word_functions_refuse_a_non_word(self, word):
        for call in (lambda: apply_word(DEMO3[0], word),
                     lambda: apply_word(validate_tuple(DEMO3), word),
                     lambda: invert_word(word), lambda: size_report(word),
                     lambda: fuse(word)):
            with pytest.raises(DomainError, match="not a TransportWord"):
                call()


class TestInvert:
    def test_instruction_inverses(self):
        assert Particle(3).inverse() == Particle(-3)
        assert HeadShift(2).inverse() == HeadShift(-2)

    def test_word_reverses(self):
        a, b = Particle(1), HeadShift(1)
        assert invert_word(TransportWord((a, b))).steps == \
            (HeadShift(-1), Particle(-1))


class TestInstructionInvariants:
    def test_shift_equivariance(self, rng):
        for _ in range(500):
            ins = rand_instruction(rng)
            x = rand_config(rng)
            n = rng.randrange(-8, 9)
            assert apply_instruction(shift(x, n), ins) == \
                shift(apply_instruction(x, ins), n)

    def test_zero_fixed(self, rng):
        for _ in range(100):
            assert apply_instruction(ZERO, rand_instruction(rng)) == ZERO

    def test_head_local_preserves_head_positions(self, rng):
        ins = head_local(1, [("01", "20"), ("20", "01")])
        for _ in range(300):
            x = rand_config(rng)
            y = apply_instruction(x, ins)
            assert {p for p, s in x.cells if s == 3} == \
                   {p for p, s in y.cells if s == 3}

    def test_orbit_distinctness_preserved(self, rng):
        for _ in range(200):
            t = rand_tuple(rng, rng.randrange(2, 4))
            word = TransportWord(tuple(rand_instruction(rng)
                                       for _ in range(3)))
            out = apply_word(t, word)
            validate_tuple(out.components)  # must not raise


IDENTITIES = (Particle(0), HeadShift(0))
IDENTITY_HL = HeadLocal(1, from_pairs([], 2))
SR_SWAP = make_explicit_spec(explicit(["030", "031"]),
                             key_pairs([("030", "031"), ("031", "030")]))


def rewrite_fuse(word):
    """The oracle of `fuse`, one rule at a time until none applies: drop
    an identity step, or merge the first P·P pair."""
    steps = list(word.steps)
    while True:
        for i, ins in enumerate(steps):
            if ins in IDENTITIES or (isinstance(ins, HeadLocal) and not ins.wp.images):
                del steps[i]
                break
            if i and isinstance(ins, Particle) and isinstance(steps[i - 1], Particle):
                steps[i - 1:i + 1] = [Particle(steps[i - 1].e + ins.e)]
                break
        else:
            return TransportWord(tuple(steps))


# Short words of all five kinds, with runs of P (P(0) among them), HS(0)
# and an HL that moves nothing.
fuse_words = st.lists(st.one_of(
    st.lists(st.integers(-3, 3).map(Particle), min_size=1, max_size=3),
    st.sampled_from([SWAP_12, SWAP_13, SWAP_23]).map(lambda s: [s]),
    st.sampled_from([IDENTITY_HL, head_local(1, [("00", "12"), ("12", "00")])]
                    ).map(lambda s: [s]),
    st.integers(-2, 2).map(lambda e: [HeadShift(e)]),
    st.sampled_from([SR_SWAP, SR_SWAP.inverse()]).map(lambda s: [s]),
), max_size=6).map(lambda runs: TransportWord(tuple(i for run in runs for i in run)))


class TestFuse:
    def test_examples(self):
        p, hs = Particle, HeadShift
        assert fuse(TransportWord((p(1), p(2), SWAP_23, p(3)))).steps == \
            (p(3), SWAP_23, p(3))
        # the identity HL between two P is dropped, then the P merge and cancel
        assert fuse(TransportWord((hs(1), p(-2), IDENTITY_HL, p(2), hs(0),
                                   SWAP_12))).steps == (hs(1), SWAP_12)
        assert fuse(TransportWord((p(0),))).steps == ()

    @settings(max_examples=400, deadline=None)
    @given(fuse_words, st.integers(0, 2**32))
    def test_matches_the_unfused_word(self, word, seed):
        fused = fuse(word)
        assert fused == rewrite_fuse(word)
        rng = random.Random(seed)
        for _ in range(3):
            t = rand_tuple(rng, rng.randrange(1, 4))
            assert apply_word(t, fused) == apply_word(t, word)
        steps = fused.steps
        assert not any(isinstance(a, Particle) and isinstance(b, Particle)
                       for a, b in zip(steps, steps[1:]))
        assert not any(ins in IDENTITIES or ins == IDENTITY_HL for ins in steps)
        assert fuse(fused) == fused
        assert fuse(invert_word(word)) == invert_word(fused)


class TestSizeReport:
    def test_counts_by_tag(self):
        word = TransportWord((Particle(1), Particle(2), HeadShift(1)))
        rep = size_report(word)
        assert rep["Particle"] == 2 and rep["HeadShift"] == 1
