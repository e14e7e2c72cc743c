"""Sparse word permutations and even completion."""

import itertools

import pytest

from fourshift.permbuild import (DuplicateSource, DuplicateTarget, NoRoom,
                                 WordPerm, build_mapping_perm,
                                 complete_partial_injection, make_even, parity,
                                 parity_of_permutation)


def brute_sign(wp: WordPerm, length: int) -> int:
    """Independent parity oracle: count inversions over all of A^length."""
    words = ["".join(t) for t in itertools.product("012", repeat=length)]
    images = [wp.apply(w) for w in words]
    inv = sum(1 for i in range(len(words)) for j in range(i + 1, len(words))
              if images[i] > images[j])
    return inv & 1


class TestWordPerm:
    def test_identity(self):
        wp = WordPerm(2, ())
        assert wp.moved == () and wp.apply("01") == "01"

    def test_apply_and_inverse(self):
        wp = WordPerm.from_pairs([("00", "01"), ("01", "00")], 2)
        assert wp.apply("00") == "01"
        assert wp.inverse().apply("01") == "00"

    def test_non_bijection_rejected(self):
        with pytest.raises(Exception):
            WordPerm.from_pairs([("00", "01"), ("02", "01")], 2)


class TestParity:
    def test_identity_even(self):
        assert parity(WordPerm(3, ())) == 0

    def test_transposition_odd(self):
        assert parity(WordPerm.from_pairs([("00", "01"), ("01", "00")], 2)) == 1

    def test_three_cycle_even(self):
        wp = WordPerm.from_pairs(
            [("00", "01"), ("01", "02"), ("02", "00")], 2)
        assert parity(wp) == 0
        assert brute_sign(wp, 2) == 0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            words = ["".join(t) for t in itertools.product("012", repeat=2)]
            rng.shuffle(words)
            n = rng.randrange(2, 6)
            cycle = words[:n]
            wp = WordPerm.from_pairs(
                [(cycle[i], cycle[(i + 1) % n]) for i in range(n)], 2)
            assert parity(wp) == brute_sign(wp, 2)

    def test_index_permutation_parity(self):
        assert parity_of_permutation((0, 1, 2)) == 0
        assert parity_of_permutation((1, 0, 2)) == 1
        assert parity_of_permutation((1, 2, 0)) == 0


class TestCompletion:
    def test_single_pair_closes_to_transposition(self):
        wp = complete_partial_injection([("00", "01")], 2)
        assert dict(wp.moved) == {"00": "01", "01": "00"}

    def test_identity_pair(self):
        assert complete_partial_injection([("00", "00")], 2).moved == ()

    def test_existing_permutation_unchanged(self):
        wp = complete_partial_injection([("00", "01"), ("01", "00")], 2)
        assert dict(wp.moved) == {"00": "01", "01": "00"}

    def test_duplicate_source(self):
        with pytest.raises(DuplicateSource):
            complete_partial_injection([("00", "01"), ("00", "02")], 2)

    def test_duplicate_target(self):
        with pytest.raises(DuplicateTarget):
            complete_partial_injection([("00", "01"), ("02", "01")], 2)

    def test_output_is_bijection_on_moved(self, rng):
        words = ["".join(t) for t in itertools.product("012", repeat=3)]
        for _ in range(100):
            picks = rng.sample(words, rng.randrange(2, 9))
            half = len(picks) // 2
            pairs = list(zip(picks[:half], picks[half:2 * half]))
            wp = complete_partial_injection(pairs, 3)
            srcs = {s for s, _ in wp.moved}
            dsts = {d for _, d in wp.moved}
            assert srcs == dsts
            for s, d in pairs:
                assert wp.apply(s) == d


class TestMakeEven:
    def test_even_unchanged(self):
        wp = WordPerm.from_pairs(
            [("00", "01"), ("01", "02"), ("02", "00")], 2)
        assert make_even(wp) == wp

    def test_odd_composed_with_lex_smallest_free_pair(self):
        wp = WordPerm.from_pairs([("00", "01"), ("01", "00")], 2)
        out = make_even(wp)
        assert parity(out) == 0
        assert out.apply("00") == "01"
        assert out.apply("02") == "10" and out.apply("10") == "02"

    def test_no_room(self):
        words = ["".join(t) for t in itertools.product("012", repeat=1)]
        wp = WordPerm.from_pairs([("0", "1"), ("1", "0")], 1)
        with pytest.raises(NoRoom):
            make_even(wp, protected=frozenset(words))


class TestBuildMappingPerm:
    def test_identity_pairs(self):
        assert build_mapping_perm([("00", "00")], 2).moved == ()

    def test_single_pair(self):
        wp = build_mapping_perm([("00", "01")], 2)
        assert parity(wp) == 0 and wp.apply("00") == "01"

    def test_random_disjoint_pairs(self, rng):
        words = ["".join(t) for t in itertools.product("012", repeat=4)]
        for _ in range(25):
            picks = rng.sample(words, 6)
            pairs = list(zip(picks[:3], picks[3:]))
            wp = build_mapping_perm(pairs, 4)
            assert parity(wp) == 0
            for s, d in pairs:
                assert wp.apply(s) == d

    def test_requested_fixed_points_survive(self):
        # an odd completion must not recruit a requested identity pair
        wp = build_mapping_perm([("00", "01"), ("02", "02")], 2)
        assert parity(wp) == 0
        assert wp.apply("02") == "02" and wp.apply("00") == "01"

