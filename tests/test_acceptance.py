"""End-to-end acceptance suite.

Each test is one acceptance criterion: exact-replay or property-based
checks over the integer/symbolic domain, with exact equality throughout
and explicit runtime budgets where the criterion states one.  Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import itertools
import random
import time

from fourshift.analysis import (CycleSpec, IsShift, Witness, k_of_finite,
                                k_of_finite_bruteforce, find_nonshift_witness)
from fourshift.core import (Config, ZERO, classify, orbit_equal, shift,
                            validate_tuple)
from fourshift.generators import (SWAP_12, SWAP_23, HeadLocal, HeadShift,
                                  Particle, TransportWord, apply_instruction,
                                  apply_word)
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.safety import (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC,
                              apply_safe_rewrite, chi_sites,
                              make_explicit_spec)
from fourshift.transporter import Reading, phi_clock, transport, verify

from conftest import (explicit, head_local, key_pairs, rand_config,
                      rand_single_head, rand_tuple)
from test_orbitperm import rand_even_perm


def cfg(offset, digits):
    return Config.from_word(offset, digits)


def seeded(n):
    return random.Random(20260826 + n)


class Budget:
    """Context manager asserting a wall-clock runtime bound in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, \
                f"runtime {elapsed:.2f}s exceeds {self.seconds}s budget"


def test_c01_mechanical_replay_three_components():
    """A fixed three-component start, pushed by three instructions,
    lands byte-exactly on the expected good vector."""
    with Budget(1):
        start = (cfg(0, "3"), cfg(-1, "201"), cfg(0, "22"))
        word = TransportWord((Particle(3), SWAP_23, Particle(2)))
        got = tuple(apply_word(c, word) for c in start)
        assert got == (cfg(-5, "100102"), cfg(-4, "1102"), cfg(-2, "1122"))
        assert all(classify(c).good for c in got)


def test_c02_end_to_end_transport():
    """200 seeded random tuple pairs (k in 1..5, width <= 12) transport
    and verify with 100% success."""
    rng = seeded(2)
    with Budget(60):
        for _ in range(200):
            k = rng.randrange(1, 6)
            src = rand_tuple(rng, k, span=5, max_cells=5)
            dst = rand_tuple(rng, k, span=5, max_cells=5)
            word = transport(src, dst)
            assert verify(word, src, dst)


def test_c03_head_shift_law():
    """On 500 random single-head configurations, the simulated shift
    moves the head one cell right and swaps the displaced symbol."""
    rng = seeded(3)
    with Budget(5):
        for _ in range(500):
            x = rand_single_head(rng)
            q = next(p for p, s in x.cells if s == 3)
            want = x.as_dict()
            displaced = want.pop(q + 1, 0)
            del want[q]
            want[q + 1] = 3
            if displaced:
                want[q] = displaced
            assert apply_instruction(x, HeadShift(1)) == \
                Config.from_cells(want)


def test_c04_involutions_and_inverses():
    """The two simulated-shift rewrites are involutions, and opposite
    head-shift powers cancel, on 500 random configurations including
    multi-head ones."""
    rng = seeded(4)
    for i in range(500):
        x = rand_config(rng, span=12, max_cells=7) if i % 2 else \
            rand_single_head(rng)
        for spec in (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC):
            assert apply_safe_rewrite(apply_safe_rewrite(x, spec), spec) == x
        e = rng.choice((1, 2, 3))
        y = apply_instruction(x, HeadShift(e))
        assert apply_instruction(y, HeadShift(-e)) == x


def test_c05_chi_stability_and_homomorphism():
    """Rewrite sites are invariant under rewriting, and composing two
    rewrites of the same word set equals the rewrite of the composed
    permutation, for the simulated-shift spec and three explicit specs."""
    u3 = explicit(["030", "031", "032"])
    cycle = make_explicit_spec(u3, key_pairs([("030", "031"), ("031", "032"),
                                              ("032", "030")]))
    swap01 = make_explicit_spec(u3, key_pairs([("030", "031"), ("031", "030")]))
    composed = make_explicit_spec(u3, key_pairs([("030", "032"), ("031", "031"),
                                                 ("032", "030")]))
    pair_swap = make_explicit_spec(explicit(["130", "131"]),
                                   key_pairs([("130", "131"), ("131", "130")]))
    rng = seeded(5)
    for _ in range(500):
        x = rand_config(rng, span=10, max_cells=6)
        for spec in (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC, cycle, swap01,
                     pair_swap):
            assert chi_sites(apply_safe_rewrite(x, spec), spec) == \
                chi_sites(x, spec)
        # gamma(cycle) after gamma(swap01) = gamma(cycle . swap01)
        assert apply_safe_rewrite(apply_safe_rewrite(x, swap01), cycle) == \
            apply_safe_rewrite(x, composed)
        # involutions compose with themselves to the identity
        for spec in (SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC, swap01, pair_swap):
            assert apply_safe_rewrite(apply_safe_rewrite(x, spec), spec) == x


def test_c06_clock_reading_oracle():
    """The closed-form clock reading agrees with literal inverse
    particle-step simulation on 10^4 random head-free configurations."""

    def oracle(x):
        span = x.max_pos() - x.min_pos() + 2
        cur = x
        for s in range(1, span + 1):
            cur = apply_instruction(cur, Particle(-1))
            heads = [p for p, sym in cur.cells if sym == 3]
            if heads:
                return Reading(heads[0], s - 1) if len(heads) == 1 else None
        return None

    rng = seeded(6)
    with Budget(10):
        checked = 0
        while checked < 10_000:
            cells = {rng.randrange(-9, 10): rng.randrange(1, 3)
                     for _ in range(rng.randrange(1, 7))}
            x = Config.from_cells(cells)
            assert phi_clock(x) == oracle(x)
            checked += 1


def test_c08_k_table_vs_bruteforce_exhaustive():
    """The k(X) case formulas agree with the brute-force centralizer
    oracle on every cycle spec with at most 7 points."""

    def partitions(n, minp):
        if n == 0:
            yield []
            return
        for p in range(minp, n + 1):
            for rest in partitions(n - p, p):
                yield [p] + rest

    with Budget(30):
        for total in range(1, 8):
            for part in partitions(total, 1):
                cs = CycleSpec.of(part)
                assert k_of_finite(cs) == k_of_finite_bruteforce(cs), cs


def test_c09_orbit_permutation_realization():
    """For 50 random 5-tuples and even permutations, the single rewrite
    instruction replays to the permuted tuple and cancels with its
    inverse."""
    rng = seeded(9)
    for _ in range(50):
        t = rand_tuple(rng, 5, span=4, max_cells=4)
        beta = rand_even_perm(rng, 5)
        ins = orbit_permutation_instruction(t, beta)
        got = tuple(apply_instruction(c, ins) for c in t)
        assert got == tuple(t[beta.index(i)] for i in range(5))
        back = ins.inverse()
        assert tuple(apply_instruction(c, back) for c in got) == t.components


def test_c10_even_permutation_transport():
    """For 50 random tuples and even permutations, transporting a tuple
    to its permuted self verifies."""
    rng = seeded(10)
    for _ in range(50):
        k = rng.randrange(2, 6)
        t = rand_tuple(rng, k, span=4, max_cells=4)
        beta = rand_even_perm(rng, k)
        dst = validate_tuple(tuple(t[beta.index(i)] for i in range(k)))
        word = transport(t, dst)
        assert verify(word, t, dst)


def test_c11_instruction_invariants():
    """Shift-equivariance, zero-point fixing, head-count preservation,
    and orbit-distinctness preservation, 500 seeded cases each."""
    from test_generators import rand_instruction

    rng = seeded(11)
    for _ in range(500):
        ins = rand_instruction(rng)
        x = rand_config(rng, span=8, max_cells=5)
        n = rng.randrange(-6, 7)
        assert apply_instruction(shift(x, n), ins) == \
            shift(apply_instruction(x, ins), n)
        assert apply_instruction(ZERO, ins) == ZERO
        if isinstance(ins, HeadLocal):
            y = apply_instruction(x, ins)
            assert sum(1 for _, s in y.cells if s == 3) == \
                sum(1 for _, s in x.cells if s == 3)

    hl = head_local(1, [("00", "12"), ("12", "00")])
    for _ in range(500):
        x = rand_config(rng, span=8, max_cells=5)
        y = apply_instruction(x, hl)
        assert sum(1 for _, s in y.cells if s == 3) == \
            sum(1 for _, s in x.cells if s == 3)

    for _ in range(500):
        ins = rand_instruction(rng)
        t = rand_tuple(rng, 3, span=5, max_cells=4)
        imgs = tuple(apply_instruction(c, ins) for c in t)
        for a, b in itertools.combinations(imgs, 2):
            assert not orbit_equal(a, b)


def test_c12_nonshift_witness():
    """The witness search certifies the two sample non-shift words and
    reports shift-by-zero for the empty word."""
    w = find_nonshift_witness(TransportWord((SWAP_12,)))
    assert isinstance(w, Witness)
    assert apply_word(w.x, TransportWord((SWAP_12,))) == w.image
    assert all(shift(w.x, n) != w.image for n in range(-4, 5))

    w = find_nonshift_witness(TransportWord((Particle(1),)))
    assert isinstance(w, Witness)
    assert apply_word(w.x, TransportWord((Particle(1),))) == w.image
    assert all(shift(w.x, n) != w.image for n in range(-4, 5))

    assert find_nonshift_witness(TransportWord(())) == IsShift(0)
