"""Configurations, orbits, tracks, and classification flags."""

import itertools
import time
from dataclasses import astuple

import pytest
from hypothesis import given, strategies as st

from fourshift.core import (POSITION_LIMIT, Config, ZERO, DomainError,
                            OrbitCollision, ParseError, PositionOverflow,
                            ZeroPoint, canonical_form, classify, digit_cells,
                            isolated, orbit_equal, shift, tracks,
                            validate_tuple)
from fourshift.transporter import transport, verify

from conftest import (SYMBOL_MIXES, classify_by_tracks, dict_overwrite,
                      dict_slide, edge_cells, from_cells_shift, from_tracks,
                      rand_config, rand_config_over, same_or_overflow,
                      sym_window)


def cfg(offset: int, digits: str) -> Config:
    return Config.from_word(offset, digits)


configs = st.builds(
    Config.from_cells,
    st.dictionaries(st.integers(-20, 20), st.integers(1, 3), max_size=6))


class TestConfig:
    def test_sparsity_drops_zeros(self):
        assert Config.from_cells({0: 1, 5: 0}) == Config.from_cells({0: 1})

    def test_word_round_trip(self):
        x = cfg(-4, "1002")
        assert x.cells == ((-4, 1), (-1, 2))
        assert x.sym(-4) == 1 and x.sym(-1) == 2 and x.sym(7) == 0

    def test_sym_matches_the_cells(self, rng):
        for _ in range(300):
            x = rand_config(rng, span=6, max_cells=8)
            for p in range(-8, 9):
                assert str(x.sym(p)) == sym_window(x, [p])

    @given(configs, st.integers(-20, 20),
           st.lists(st.sampled_from([1, 2, 3, 5, 20, 49]), max_size=3),
           st.integers(-60, 60))
    def test_slide_matches_the_dict_form(self, x, q, gaps, e):
        # heads close enough that one cell is passed by several of them
        qs = list(itertools.accumulate([q, *gaps]))
        x = Config.from_cells({**dict(x.cells), **dict.fromkeys(qs, 3)})
        assert x.slide(e) == dict_slide(x, e)

    @given(configs, st.integers(-5, 5))
    def test_slide_is_the_identity_on_no_head_or_no_move(self, x, e):
        headless = Config(tuple((p, s) for p, s in x.cells if s != 3))
        assert headless.slide(e) is headless
        assert x.slide(0) is x

    @given(edge_cells, st.integers(-20, 20))
    def test_slide_overflows_exactly_past_the_limit(self, cells, e):
        x = Config.from_cells(cells)
        if any(abs(q + e) > POSITION_LIMIT for q in x.heads()):
            with pytest.raises(PositionOverflow):
                x.slide(e)
        else:
            assert x.slide(e) == dict_slide(x, e)

    def test_slide_many_heads(self):
        # 1,000 heads 49 apart, each followed by a particle, slid 1,000
        # cells: all but the first twenty particles are passed by 21 heads
        heads = range(0, 49 * 1000, 49)
        x = Config.from_cells([*((q, 3) for q in heads),
                               *((q + 1, 1) for q in heads)])
        start = time.perf_counter()
        y = x.slide(1000)
        assert time.perf_counter() - start < 0.05
        assert y == dict_slide(x, 1000)
        assert y.slide(-1000) == x

    def test_word_trims_padding(self):
        assert cfg(-2, "00100") == cfg(0, "1")

    def test_zero(self):
        assert ZERO.is_zero() and not cfg(0, "1").is_zero()

    def test_bad_symbol_rejected(self):
        with pytest.raises(Exception):
            Config.from_cells({0: 4})

    def test_duplicate_position_rejected(self):
        with pytest.raises(DomainError, match="duplicate cell at position 0"):
            Config.from_cells([(0, 1), (0, 2)])

    def test_bad_digit_rejected(self):
        with pytest.raises(DomainError, match="invalid digit '4'"):
            Config.from_word(0, "14")

    @pytest.mark.parametrize("cells", [
        {0.5: 1, 2: 3}, {True: 1}, {0: True}, {0: False}, {0: 1.0}, {0: "1"}],
        ids=["float-position", "bool-position", "bool-symbol",
             "false-symbol", "float-symbol", "str-symbol"])
    def test_cells_that_are_not_ints_refused(self, cells):
        # {0.5: 1} used to be stored, and a later window read raised TypeError
        with pytest.raises(DomainError):
            Config.from_cells(cells)


class TestDigitCells:
    @given(st.integers(-10**6, 10**6), st.text("0123", max_size=30))
    def test_matches_the_letterwise_reading(self, offset, digits):
        assert digit_cells(offset, digits) == [
            (offset + i, int(c)) for i, c in enumerate(digits) if c != "0"]


class TestConfigWindow:
    """Config.cells_in and Config.overwrite against their oracles: the
    cells filtered by position, and a dict of cells."""

    # strips of 41 cells from these bases, the last two reaching the limits
    BASES = (0, 10**9, -10**9, POSITION_LIMIT - 40, -POSITION_LIMIT)

    @staticmethod
    def blocks_around(rng, p):
        """Blocks (start, stop) of 0-7 cells around position p: ending
        before it, with p at the right end, straddling it, with p at the
        left end, and starting after it."""
        return [(a, a + n) for n in range(8) for a in {
            p - n - 1, p - n + 1, p - rng.randrange(n + 1), p, p + 1}]

    @staticmethod
    def rand_block(rng, a, b):
        """Sorted cells at about a third of the positions a .. b - 1."""
        return [(p, rng.randrange(1, 4)) for p in range(a, b)
                if rng.random() < 0.3]

    def test_window_and_overwrite_match_the_oracles(self, rng):
        counts = dict.fromkeys(("cells at both ends", "empty", "several blocks",
                                "zeros over cells"), 0)
        for case in range(2000):
            base = self.BASES[case % len(self.BASES)]
            top = base + 40
            cells = {q: rng.randrange(1, 4) for q in (base, top)
                     if rng.random() < 0.3}
            for _ in range(rng.randrange(0, 8)):
                cells[rng.randrange(base, top + 1)] = rng.randrange(1, 4)
            x = Config.from_cells(cells)
            blocks = [b for p in [*cells, rng.randrange(base, top + 1)]
                      for b in self.blocks_around(rng, p)]
            for a, b in blocks:
                assert x.cells_in(a, b) == tuple(
                    (p, s) for p, s in x.cells if a <= p < b), (x, a, b)
                counts["cells at both ends"] += (b - a > 1 and a in cells
                                                 and b - 1 in cells)
                counts["empty"] += a == b
            # blocks inside the strip in increasing order, mostly zeros
            written, end = [], base
            for a, b in sorted(rng.sample(blocks, min(len(blocks), 6))):
                if end <= a and b <= top + 1:
                    written.append((a, b, self.rand_block(rng, a, b)))
                    end = b
            assert x.overwrite(written) == dict_overwrite(
                x, [(range(a, b), sym_window(Config.from_cells(w), range(a, b)))
                    for a, b, w in written]), (x, written)
            assert x.overwrite((a, b, x.cells_in(a, b))
                               for a, b, _ in written) == x
            counts["several blocks"] += len(written) > 2
            counts["zeros over cells"] += any(
                a <= q < b and q not in dict(w)
                for a, b, w in written for q in cells)
        assert min(counts.values()) > 500, counts

    @pytest.mark.parametrize("blocks", [
        pytest.param([(4, 5, [(4, 1)]), (0, 1, [(0, 2)])], id="out-of-order"),
        pytest.param([(0, 2, [(0, 1), (1, 2)]), (1, 2, [(1, 3)])],
                     id="overlapping"),
        pytest.param([(0, 1, [(0, 1)]), (5, 5, []), (3, 4, [(3, 2)])],
                     id="before-an-empty-block"),
        pytest.param([(0, 2, [(0, 1), (1, 2)]), (0, 0, [])],
                     id="empty-block-inside-the-one-before"),
    ])
    def test_blocks_out_of_order_refused(self, blocks):
        with pytest.raises(DomainError, match="starts before the end"):
            cfg(0, "3").overwrite(blocks)

    @pytest.mark.parametrize("block, error, match", [
        ((0, 2, [(2, 1)]), DomainError, "outside its block 0 .. 1"),
        ((0, 2, [(-1, 1)]), DomainError, "outside its block 0 .. 1"),
        ((0, 3, [(1, 1), (0, 2)]), DomainError, "cell at 0 out of order"),
        ((0, 3, [(1, 1), (1, 2)]), DomainError, "cell at 1 out of order"),
        ((0, 1, [(0, 0)]), DomainError, "invalid symbol 0"),
        ((0, 1, [(0, 4)]), DomainError, "invalid symbol 4"),
        ((0, 1, [(0, True)]), DomainError, "invalid symbol True"),
        ((0, 1, [(0.5, 1)]), DomainError, "not an int"),
        ((3, 1, []), DomainError, "ends before it starts"),
        ((POSITION_LIMIT, POSITION_LIMIT + 2, [(POSITION_LIMIT + 1, 1)]),
         PositionOverflow, "out of range"),
        ((-POSITION_LIMIT - 1, -POSITION_LIMIT, [(-POSITION_LIMIT - 1, 3)]),
         PositionOverflow, "out of range"),
    ], ids=["past-the-stop", "before-the-start", "out-of-order",
            "repeated", "symbol-0", "symbol-4", "bool-symbol",
            "float-position", "stop-before-start", "past-the-limit",
            "past-minus-the-limit"])
    def test_bad_cells_refused(self, block, error, match):
        with pytest.raises(error, match=match):
            cfg(0, "3").overwrite([block, (5, 6, [(5, 1)])])

    @pytest.mark.parametrize("digits", ["4", "1a", "-1", " 1", "\u0661", "2\n"])
    def test_digits_other_than_0_to_3_refused(self, digits):
        # "\u0661" is a digit one that int() reads, but not a symbol
        with pytest.raises(ParseError, match="invalid digit"):
            digit_cells(0, "1" + digits)


class TestHeadLocal:
    """`Config.head_local` on raw image maps: each image is checked by its
    ends only, so these cover what no `WordPerm` builder lets through."""

    def test_isolated_heads_only(self):
        images = {((1, 1),): ((-1, 2), (1, 1))}
        # heads 7 then 6 apart: only the first is isolated at gap 2r + 2 = 6
        x = cfg(0, "31" + "0" * 5 + "31" + "0" * 4 + "31")
        assert x.head_local(2, images) == cfg(-1, "231" + "0" * 5 + "31" + "0" * 4 + "31")
        assert x.head_local(1, {}) is x
        assert x.head_local(2, {((2, 1),): ()}) is x  # no window has an image

    @pytest.mark.parametrize("image", [
        ((-2, 1),), ((2, 1),), ((0, 1),), ((-1, 1), (0, 2)), ((0, 2), (1, 1)),
        ((-1, 1), (0, 2), (1, 1))])
    def test_image_past_the_radius_or_at_the_head_refused(self, image):
        with pytest.raises(DomainError, match="not a window of radius 1"):
            cfg(0, "31").head_local(1, {((1, 1),): image})

    @pytest.mark.parametrize("q, image", [
        (POSITION_LIMIT, ((1, 1),)), (-POSITION_LIMIT, ((-1, 1),)),
        (POSITION_LIMIT - 1, ((-1, 1), (2, 2)))])
    def test_written_ends_range_checked(self, q, image):
        x = Config.from_cells({q: 3})
        with pytest.raises(PositionOverflow):
            x.head_local(2, {(): image})
        assert x.head_local(2, {(): ((-1, 1),) if q > 0 else ((1, 1),)}) == \
            Config.from_cells({q: 3, q - 1 if q > 0 else q + 1: 1})


class TestShift:
    def test_identity(self):
        assert shift(cfg(0, "3"), 0) == cfg(0, "3")

    def test_support_moves_left(self):
        assert shift(cfg(0, "3"), 1) == cfg(-1, "3")

    def test_negative(self):
        assert shift(cfg(-1, "201"), -2) == cfg(1, "201")

    @given(configs, st.integers(-50, 50), st.integers(-50, 50))
    def test_additive(self, x, a, b):
        assert shift(shift(x, a), b) == shift(x, a + b)

    @given(st.builds(Config.from_cells, edge_cells),
           st.integers(-20, 20) | st.integers(-2**63, 2**63))
    def test_matches_the_from_cells_form(self, x, n):
        # either end of the support may cross the limit, the other not
        same_or_overflow(shift, from_cells_shift, x, n)


class TestOrbit:
    def test_canonical_form(self):
        assert canonical_form(cfg(5, "13")) == (cfg(0, "13"), 5)
        assert canonical_form(cfg(0, "3")) == (cfg(0, "3"), 0)
        assert canonical_form(cfg(-4, "1002")) == (cfg(0, "1002"), -4)

    def test_canonical_rejects_zero(self):
        with pytest.raises(ZeroPoint):
            canonical_form(ZERO)

    def test_orbit_equal(self):
        assert orbit_equal(cfg(0, "1"), cfg(5, "1"))
        assert not orbit_equal(cfg(0, "12"), cfg(3, "21"))
        assert not orbit_equal(cfg(0, "3"), cfg(0, "1"))
        assert orbit_equal(ZERO, ZERO) and not orbit_equal(ZERO, cfg(0, "1"))

    @given(configs, st.integers(-30, 30))
    def test_orbit_contains_shifts(self, x, n):
        assert orbit_equal(x, shift(x, n))


class TestTracks:
    def test_head_is_particle_on_wall(self):
        assert tracks(cfg(0, "3")) == (frozenset({0}), frozenset({0}))

    def test_wall_then_particle(self):
        assert tracks(cfg(-1, "201")) == (frozenset({1}), frozenset({-1}))

    def test_zero(self):
        assert tracks(ZERO) == (frozenset(), frozenset())

    @given(configs)
    def test_round_trip(self, x):
        assert from_tracks(*tracks(x)) == x


class TestClassify:
    def test_lone_particle_pregood_not_good(self):
        f = classify(cfg(0, "1"))
        assert f.pregood and not f.good

    def test_demo_component_good(self):
        assert classify(cfg(-2, "1122")).good

    def test_lone_head_great(self):
        f = classify(cfg(0, "3"))
        assert f.great and f.unihead and not f.good

    def test_rejects_zero(self):
        with pytest.raises(ZeroPoint):
            classify(ZERO)

    def test_flag_implications(self, rng):
        for _ in range(300):
            f = classify(rand_config(rng))
            assert f.pregood <= f.prepregood
            assert f.good <= f.pregood
            assert f.great <= f.unihead
            assert not (f.good and f.great)

    def test_matches_the_track_oracle(self, rng):
        seen = set()
        for _ in range(2000):
            x = rand_config_over(rng, rng.choice(SYMBOL_MIXES))
            f = classify(x)
            assert f == classify_by_tracks(x), x
            seen.add(astuple(f))
        # every reachable combination of flags, the great point included
        assert len(seen) == 6

    def test_shift_invariance(self, rng):
        for _ in range(200):
            x = rand_config(rng)
            n = rng.randrange(-9, 10)
            f, g = classify(x), classify(shift(x, n))
            assert (f.prepregood, f.pregood, f.good, f.unihead) == \
                   (g.prepregood, g.pregood, g.good, g.unihead)


class TestValidateTuple:
    def test_ok(self):
        validate_tuple((cfg(0, "3"), cfg(-1, "201"), cfg(0, "22")))

    def test_orbit_collision(self):
        with pytest.raises(OrbitCollision) as e:
            validate_tuple((cfg(0, "1"), cfg(7, "1")))
        assert (e.value.i, e.value.j) == (0, 1)

    def test_zero_component(self):
        with pytest.raises(ZeroPoint):
            validate_tuple((cfg(0, "1"), ZERO))

    @pytest.mark.parametrize("comps", [
        [cfg(0, "1"), "x"], (cfg(0, "1"), None), [cfg(0, "1"), (0, 1)]])
    def test_component_that_is_not_a_config(self, comps):
        with pytest.raises(DomainError, match="component 1 is not a Config"):
            validate_tuple(comps)

    def test_empty_tuple(self):
        with pytest.raises(DomainError, match="at least one component"):
            validate_tuple(())

    @pytest.mark.parametrize("value", [None, 3, 1.5, cfg(0, "1")])
    def test_not_a_sequence(self, value):
        # a lone Config is not iterable, so it is no tuple either
        with pytest.raises(DomainError, match=type(value).__name__):
            validate_tuple(value)

    def test_transport_and_verify_refuse_a_non_sequence(self):
        t = validate_tuple((cfg(0, "3"),))
        with pytest.raises(DomainError, match="NoneType"):
            transport(None, None)
        with pytest.raises(DomainError, match="NoneType"):
            verify(transport(t, t), None, t)

    def test_first_component_with_a_mate_then_its_first_mate(self):
        a, b = cfg(0, "1"), cfg(0, "12")
        with pytest.raises(OrbitCollision) as e:
            validate_tuple((a, shift(b, 3), b, shift(a, -5)))
        assert (e.value.i, e.value.j) == (0, 3)

    def test_matches_the_all_pairs_oracle(self, rng):
        # few orbits among many components, so most tuples collide
        pool = [cfg(0, w) for w in ("1", "2", "12", "102", "3")]
        collided = 0
        for _ in range(500):
            comps = [shift(rng.choice(pool), rng.randrange(-9, 10))
                     for _ in range(rng.randrange(1, 7))]
            want = next(((i, j) for i in range(len(comps))
                         for j in range(i + 1, len(comps))
                         if orbit_equal(comps[i], comps[j])), None)
            if want is None:
                validate_tuple(comps)
                continue
            with pytest.raises(OrbitCollision) as e:
                validate_tuple(comps)
            assert (e.value.i, e.value.j) == want
            collided += 1
        assert collided > 200

    def test_many_components_in_linear_time(self):
        # words of ones and twos, no zero: distinct words, distinct orbits
        comps = [cfg(0, f"{n:b}".replace("0", "2")) for n in range(20_000)]
        start = time.perf_counter()
        assert len(validate_tuple(comps)) == 20_000
        with pytest.raises(OrbitCollision) as e:
            validate_tuple([*comps, shift(comps[-1], 7)])
        assert time.perf_counter() - start < 1.0
        assert (e.value.i, e.value.j) == (19_999, 20_000)


class TestIsolated:
    def test_matches_the_all_pairs_oracle(self, rng):
        kept = dropped = 0
        for _ in range(2000):
            points = sorted(rng.sample(range(-40, 41), rng.randrange(0, 12)))
            gap = rng.randrange(0, 12)
            want = [q for q in points
                    if all(abs(q - p) > gap for p in points if p != q)]
            assert isolated(points, gap) == want, (points, gap)
            kept += len(want)
            dropped += len(points) - len(want)
        assert kept > 1000 and dropped > 1000

    def test_edges(self):
        assert isolated([], 3) == [] and isolated([7], 3) == [7]
        assert isolated([0, 3, 7], 3) == [7]
        assert isolated([0, 4, 8], 3) == [0, 4, 8]
