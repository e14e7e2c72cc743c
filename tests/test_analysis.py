"""k(X) case table vs brute force and witness search."""

import pytest

from fourshift.analysis import (CycleSpec, IsShift, KValue, TooLarge,
                                Witness, find_nonshift_witness, k_of_finite,
                                k_of_finite_bruteforce)
from fourshift.core import Config, DomainError, orbit_equal
from fourshift.generators import SWAP_12, Particle, TransportWord, apply_word


def cfg(offset, digits):
    return Config.from_word(offset, digits)


def all_cycle_specs(max_total):
    """Every multiset of positive integers with sum <= max_total."""
    def partitions(n, smallest):
        yield ()
        for first in range(smallest, n + 1):
            for rest in partitions(n - first, first):
                yield (first, *rest)
    for p in partitions(max_total, 1):
        if p:
            yield CycleSpec.of(p)


class TestCaseTable:
    def test_pinned_rows(self):
        assert k_of_finite(CycleSpec.of([5])) == KValue.ZERO
        assert k_of_finite(CycleSpec.of([1, 1])) == KValue.BOTTOM
        assert k_of_finite(CycleSpec.of([2, 2])) == KValue.TWO

    def test_multiple_long_lengths(self):
        # Coprime lengths glue into a single shift cycle; non-coprime
        # lengths leave an independent central rotation.
        assert k_of_finite(CycleSpec.of([2, 3])) == KValue.ZERO
        assert k_of_finite(CycleSpec.of([2, 4])) == KValue.BOTTOM
        assert k_of_finite(CycleSpec.of([2, 2, 3])) == KValue.TWO
        assert k_of_finite(CycleSpec.of([2, 3, 5])) == KValue.ZERO
        assert k_of_finite(CycleSpec.of([6, 10, 15])) == KValue.BOTTOM

    def test_formulas_partition_inputs(self):
        for cs in all_cycle_specs(9):
            k_of_finite(cs)  # the internal exhaustiveness assert must hold

    def test_derived_quantities(self):
        cs = CycleSpec.of([1, 1, 2, 2, 3])
        assert cs.c1 == 2 and cs.total == 9

    @pytest.mark.parametrize("lengths", [[1.5], [2.0], ["a"], [True], [2, "a"],
                                         [0], [], [3, -1]])
    def test_lengths_not_positive_ints_refused(self, lengths):
        with pytest.raises(DomainError, match="every length an int >= 1"):
            CycleSpec.of(lengths)


class TestBruteForce:
    def test_single_cycle_all_shift_powers(self):
        assert k_of_finite_bruteforce(CycleSpec.of([3])) == KValue.ZERO

    def test_two_fixed_points_central_transposition(self):
        assert k_of_finite_bruteforce(CycleSpec.of([1, 1])) == KValue.BOTTOM

    def test_three_fixed_points_symmetric_group(self):
        assert k_of_finite_bruteforce(CycleSpec.of([1, 1, 1])) == KValue.TWO

    def test_too_large(self):
        with pytest.raises(TooLarge):
            k_of_finite_bruteforce(CycleSpec.of([9]))

    def test_agrees_with_table_small(self):
        for cs in all_cycle_specs(5):
            assert k_of_finite(cs) == k_of_finite_bruteforce(cs), cs


class TestWitness:
    def test_symbol_swap_witness(self):
        r = find_nonshift_witness(TransportWord((SWAP_12,)))
        assert r == Witness(cfg(0, "1"), cfg(0, "2"))

    def test_particle_witness(self):
        r = find_nonshift_witness(TransportWord((Particle(1),)))
        assert isinstance(r, Witness) and r.x == cfg(0, "12")
        assert r.image == Config.from_cells({-1: 1, 1: 2})

    def test_empty_word_is_shift_zero(self):
        assert find_nonshift_witness(TransportWord(())) == IsShift(0)

    def test_witness_evidence_rechecks(self):
        words = [TransportWord((SWAP_12,)),
                 TransportWord((Particle(1),)),
                 TransportWord((Particle(2), SWAP_12))]
        for w in words:
            r = find_nonshift_witness(w, support_bound=4, width_bound=5)
            if isinstance(r, Witness):
                y = apply_word(r.x, w)
                assert y == r.image and not orbit_equal(r.x, y)

    def test_pure_shift_word(self):
        # Particle alone is not a shift, but a head-shift-free config set
        # where every image is a uniform translate reports the exponent
        assert find_nonshift_witness(
            TransportWord(()), support_bound=4, width_bound=4) == IsShift(0)

    @pytest.mark.parametrize("bounds", [("2", 2), (2, "2"), (2.0, 2), (2, 1.5),
                                        (True, 2), (2, True), (None, 2)])
    def test_bounds_not_ints_refused(self, bounds):
        with pytest.raises(DomainError, match="the bounds must be ints"):
            find_nonshift_witness(TransportWord(()), *bounds)
