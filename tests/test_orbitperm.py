"""Even component permutations realized as one zero-padded safe rewrite."""

import pytest

from fourshift.core import Config, DomainError, validate_tuple
from fourshift.generators import apply_instruction
from fourshift.orbitperm import (BetaOdd, KTooSmall,
                                 orbit_permutation_instruction)

from conftest import rand_config, rand_even_perm, rand_tuple


def cfg(offset, digits):
    return Config.from_word(offset, digits)


FIVE = validate_tuple((cfg(0, "1"), cfg(0, "2"), cfg(0, "11"),
                       cfg(0, "12"), cfg(0, "21")))


def apply_tuple(t, ins):
    return tuple(apply_instruction(c, ins) for c in t)


class TestPreconditions:
    def test_identity_beta(self):
        ins = orbit_permutation_instruction(FIVE, (0, 1, 2, 3, 4))
        assert apply_tuple(FIVE, ins) == FIVE.components

    def test_three_cycle(self):
        beta = (1, 2, 0, 3, 4)
        ins = orbit_permutation_instruction(FIVE, beta)
        got = apply_tuple(FIVE, ins)
        assert got == tuple(FIVE[beta.index(i)] for i in range(5))

    def test_odd_beta_rejected(self):
        with pytest.raises(BetaOdd):
            orbit_permutation_instruction(FIVE, (1, 0, 2, 3, 4))

    def test_non_permutation_beta_rejected(self):
        with pytest.raises(DomainError, match="not a permutation"):
            orbit_permutation_instruction(FIVE, (0, 0, 2, 3, 4))

    def test_small_k_rejected(self, rng):
        with pytest.raises(KTooSmall):
            orbit_permutation_instruction(rand_tuple(rng, 4), (1, 2, 3, 0))


class TestRealization:
    def test_random_realizations(self, rng):
        for _ in range(30):
            t = rand_tuple(rng, 5)
            beta = rand_even_perm(rng, 5)
            ins = orbit_permutation_instruction(t, beta)
            assert apply_tuple(t, ins) == \
                tuple(t[beta.index(i)] for i in range(5))

    def test_inverse_composition(self, rng):
        for _ in range(20):
            t = rand_tuple(rng, 5)
            beta = rand_even_perm(rng, 5)
            ins = orbit_permutation_instruction(t, beta)
            inv = ins.inverse()
            assert apply_tuple(apply_tuple(t, ins), inv) == t.components

    def test_bijective_on_unrelated_configs(self, rng):
        ins = orbit_permutation_instruction(FIVE, (1, 2, 0, 3, 4))
        inv = ins.inverse()
        for _ in range(100):
            x = rand_config(rng, span=10, max_cells=6)
            assert apply_instruction(apply_instruction(x, ins), inv) == x

    def test_boundary_equivalence_by_construction(self):
        ins = orbit_permutation_instruction(FIVE, (1, 2, 0, 3, 4))
        pad = ins.h  # words are 0^{2m} core 0^{2m} with 2m = h
        for u, v in ins.pi.moved:
            # both words are zero on their first and last pad - 1 letters
            for key in (u, v):
                assert all(pad - 1 <= o < ins.k - (pad - 1) for o, _ in key)
