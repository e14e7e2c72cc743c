"""Occurrence sets, chi-site selection, safety validators, and the
simulated head shift."""

import pytest

from fourshift.core import Config, ZERO, shift
from fourshift.safety import (HEAD_MARKER, ExplicitWords, HeadLayoutWords,
                              IllFormedSpec, IllFormedWordSet, NonzeroWords,
                              SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC,
                              apply_safe_rewrite, chi_sites, head_shift_once,
                              make_explicit_spec, make_zero_padded_spec,
                              occurrences, validate_sufficient_safety,
                              validate_zero_padded)
from fourshift.generators import SafeRewrite

from conftest import rand_config, rand_single_head


def cfg(offset, digits):
    return Config.from_word(offset, digits)


def demo_spec(pairs=(("030", "031"), ("031", "030"))):
    return make_explicit_spec(["030", "031"], pairs)


class TestOccurrences:
    def test_explicit_window_match(self):
        assert occurrences(cfg(1, "3"), ExplicitWords.of(["030", "031"])) == \
            frozenset({0})

    def test_zero_point(self):
        assert occurrences(ZERO, ExplicitWords.of(["030"])) == frozenset()

    def test_marker_singleton(self):
        assert occurrences(cfg(0, "33"), ExplicitWords.of(["3"])) == \
            frozenset({0, 1})

    def test_nonzero_words(self):
        # every window of length 2 touching a nonzero cell
        assert occurrences(cfg(0, "1"), NonzeroWords(2)) == frozenset({-1, 0})

    def test_all_zero_word_rejected(self):
        with pytest.raises(IllFormedWordSet):
            ExplicitWords.of(["000"])

    def test_translation_equivariance(self, rng):
        wset = ExplicitWords.of(["030", "031", "132"])
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
        oracle = ExplicitWords.of(["3"])
        many_heads = 0
        for _ in range(400):
            x = rand_config(rng, span=12, max_cells=8)
            many_heads += len(x.heads()) > 1
            assert occurrences(x, HEAD_MARKER) == occurrences(x, oracle)
        assert many_heads > 50


class TestChiSites:
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
            ["030", "031", "032"],
            [("030", "031"), ("031", "032"), ("032", "030")])
        inv = SafeRewrite(spec).inverse().spec
        for _ in range(200):
            x = rand_config(rng, span=12)
            assert apply_safe_rewrite(apply_safe_rewrite(x, spec), inv) == x


class TestValidators:
    def test_sufficient_ok(self):
        validate_sufficient_safety(["030", "031"], 3)

    def test_sufficient_shape_violation(self):
        with pytest.raises(IllFormedSpec):
            validate_sufficient_safety(["030", "300"], 3)

    def test_sufficient_leftmost_violation(self):
        with pytest.raises(IllFormedSpec):
            validate_sufficient_safety(["030", "013"], 3)

    def test_sufficient_needs_a_head(self):
        with pytest.raises(IllFormedSpec, match="lacks the marker symbol"):
            validate_sufficient_safety(["030", "010"], 3)

    def test_zero_padded_ok(self):
        validate_zero_padded(["010", "020"], 1)

    def test_zero_padded_offset_violation(self):
        with pytest.raises(IllFormedSpec):
            validate_zero_padded(["010000", "001000"], 2)

    def test_zero_padded_all_zero(self):
        with pytest.raises(IllFormedSpec):
            validate_zero_padded(["000"], 1)

    def test_explicit_specs_use_the_head_marker(self):
        assert demo_spec().V == HEAD_MARKER and demo_spec().h == 1

    def test_zero_padded_spec_round_trip(self, rng):
        spec = make_zero_padded_spec(
            ["010", "020"], [("010", "020"), ("020", "010")])
        for _ in range(100):
            x = rand_config(rng)
            assert apply_safe_rewrite(apply_safe_rewrite(x, spec), spec) == x


class TestStrictParams:
    def test_sigma3_constants(self):
        p = SIGMA3_PI_SPEC
        assert (p.ell, p.m_rad) == (5, 48)

    def test_small(self):
        p = make_explicit_spec(["030", "031", "032"], [])
        assert (p.ell, p.m_rad) == (5, 12)

    def test_saturation_flag(self):
        p = make_zero_padded_spec(["0" * 20 + "1" * 20 + "0" * 20], [])
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
            y = head_shift_once(x, +1)
            want = x.as_dict()
            displaced = want.pop(q + 1, 0)
            del want[q]
            want[q + 1] = 3
            if displaced:
                want[q] = displaced
            else:
                want.pop(q, None)
            assert y == Config.from_cells(want)

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
