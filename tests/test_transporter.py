"""Clock readings, the good / great / canonical stages, and transport."""

import time
from collections import Counter
from pathlib import Path

import pytest

from fourshift import transporter
from fourshift.core import (POSITION_LIMIT, Config, ZERO, DomainError,
                            PositionOverflow, TupleK, classify, head_cells,
                            shift, validate_tuple)
from fourshift.generators import (SWAP_23, HeadLocal, HeadShift, Particle,
                                  TransportWord, apply_instruction,
                                  apply_word, fuse, invert_word)
from fourshift.permbuild import build_mapping_perm
from fourshift.serial import emit_word, parse_word
from fourshift.transporter import (LengthMismatch, NotGood, NotGreat, Reading,
                                   _align_amount, canonical_great,
                                   make_canonical, make_good, make_great,
                                   phi_clock, transport, verify)

from conftest import (SYMBOL_MIXES, align_by_tracks, phi_clock_by_tracks,
                      rand_config, rand_config_over, rand_tuple, tracks)


def cfg(offset, digits):
    return Config.from_word(offset, digits)


DEMO3 = validate_tuple((cfg(0, "3"), cfg(-1, "201"), cfg(0, "22")))
DEMO3_GOOD = validate_tuple((cfg(-5, "100102"), cfg(-4, "1102"),
                            cfg(-2, "1122")))
# The word of make_good, make_great and make_canonical(..., canonical_great(3))
# on DEMO3, pinned byte for byte: it holds the buzz schedule of make_great and
# the head-local rewrites of both make_great and make_canonical.
# Each HL map is written as its disjoint cycles, the one form it is read in.
DEMO3_PIPELINE = Path(__file__).parent / "data" / "demo3_pipeline_word_cycles.json"


def phi_bruteforce(x):
    """Literal oracle: apply Particle(-1) until a head appears."""
    span = x.max_pos() - x.min_pos() + 2
    cur = x
    for s in range(1, span + 1):
        cur = apply_instruction(cur, Particle(-1))
        heads = [p for p, sym in cur.cells if sym == 3]
        if heads:
            if len(heads) == 1:
                return Reading(heads[0], s - 1)
            return None
    return None


def phi_pairwise(x):
    """The closed form over every particle-wall pair: the oracle of
    `phi_clock`."""
    particles, walls = tracks(x)
    s = min((w - p for p in particles for w in walls if w - p >= 1),
            default=None)
    if s is None:
        return None
    hits = [w for w in walls if w - s in particles]
    return Reading(hits[0], s - 1) if len(hits) == 1 else None


class TestPhiClock:
    def test_demo_component(self):
        assert phi_clock(cfg(-2, "1122")) == Reading(0, 0)

    def test_no_walls(self):
        assert phi_clock(cfg(0, "1")) is None

    def test_double_collision(self):
        assert phi_clock(cfg(0, "1212")) is None

    def test_rejects_zero(self):
        with pytest.raises(Exception):
            phi_clock(ZERO)

    def test_matches_bruteforce(self, rng):
        for _ in range(2000):
            x = rand_config(rng, span=9, max_cells=6)
            if any(s == 3 for _, s in x.cells):
                continue  # the oracle counts from a head-free start
            assert phi_clock(x) == phi_bruteforce(x)

    def test_matches_the_pairwise_form(self, rng):
        # heads included: a head is a particle and a wall at one cell
        readings = with_heads = 0
        for _ in range(2000):
            x = rand_config(rng, span=rng.choice((4, 9, 40)),
                            max_cells=rng.randrange(1, 13))
            want = phi_pairwise(x)
            assert phi_clock(x) == want, x
            readings += want is not None
            with_heads += bool(x.heads())
        assert readings > 500 and with_heads > 500

    def test_matches_the_track_form(self, rng):
        # the one pass against the old form over track sets and bisect, on
        # every mix of symbols: points with heads, wall-only and
        # particle-only points, and least gaps tied between two walls
        kinds = Counter()
        for _ in range(2000):
            x = rand_config_over(rng, rng.choice(SYMBOL_MIXES),
                                 span=rng.choice((4, 9, 40)),
                                 max_cells=rng.randrange(1, 13))
            want = phi_clock_by_tracks(x)
            assert phi_clock(x) == want, x
            particles, walls = tracks(x)
            gaps = sorted(w - max(p for p in particles if p < w)
                          for w in walls if any(p < w for p in particles))
            kinds.update({"heads": bool(x.heads()), "walls only": not particles,
                          "particles only": not walls, "reading": bool(want),
                          "tied": len(gaps) > 1 and gaps[0] == gaps[1]})
        assert min(kinds.values()) > 100, kinds

    @pytest.mark.parametrize("x", [None, "@0:12", ((0, 1), (1, 2)), DEMO3])
    def test_rejects_a_non_config(self, x):
        with pytest.raises(DomainError, match="only a Config has a clock reading"):
            phi_clock(x)

    def test_long_run_in_linear_time(self):
        n = 20_000
        x = cfg(0, "1" * n + "2" * n)
        start = time.perf_counter()
        assert phi_clock(x) == Reading(n, 0)
        assert time.perf_counter() - start < 1.0


class TestAlignAmount:
    def test_matches_the_track_oracle(self, rng):
        for _ in range(2000):
            comps = [rand_config_over(rng, rng.choice(SYMBOL_MIXES))
                     for _ in range(rng.randrange(1, 4))]
            assert _align_amount(comps) == align_by_tracks(comps), comps


class TestMakeGood:
    def test_demo_word_and_endpoint(self):
        word, out = make_good(DEMO3)
        assert word.steps == (Particle(3), SWAP_23, Particle(2))
        assert out.components == DEMO3_GOOD.components

    def test_already_good_empty_word(self):
        word, out = make_good(DEMO3_GOOD)
        assert word.steps == () and out.components == DEMO3_GOOD.components

    def test_single_wall(self):
        word, out = make_good(validate_tuple((cfg(0, "2"),)))
        assert classify(out[0]).good
        assert apply_word(cfg(0, "2"), word) == out[0]

    def test_random(self, rng):
        for _ in range(200):
            t = rand_tuple(rng, rng.randrange(1, 4))
            word, out = make_good(t)
            assert all(classify(c).good for c in out)
            assert apply_word(t, word).components == out.components


class TestMakeGreat:
    def test_demo_tuple(self):
        word, out = make_great(DEMO3_GOOD)
        assert all(classify(c).great for c in out)
        assert apply_word(DEMO3_GOOD, word).components == out.components

    def test_demo_schedule(self):
        # component 2 first buzzes at 0 after one inverse particle step,
        # components 0 and 1 at 0 and -1 after two; the horizon is 3
        word, _ = make_great(DEMO3_GOOD)
        s = word.steps
        assert [type(ins) for ins in s] == [Particle, HeadShift, HeadLocal] * 2 \
            + [Particle]
        assert (s[0], s[1], s[3], s[4], s[6]) == (
            Particle(-1), HeadShift(2), Particle(-1), HeadShift(3), Particle(-1))

    def test_single_component(self):
        t = validate_tuple((cfg(-1, "12"),))
        _, out = make_great(t)
        assert classify(out[0]).great

    def test_single_component_schedule(self):
        # one buzz at 0 after one step, horizon 2
        word, _ = make_great(validate_tuple((cfg(-1, "12"),)))
        s = word.steps
        assert (s[0], s[1], s[3]) == (Particle(-1), HeadShift(2), Particle(-1))
        assert isinstance(s[2], HeadLocal) and len(s) == 4

    def test_requires_good(self):
        with pytest.raises(NotGood):
            make_great(validate_tuple((cfg(0, "1"),)))

    def test_reset_target_past_the_limit(self):
        # the head shift puts the head at the limit, and the reset target's
        # companion two cells past it: the rewrite refuses to write it
        x = Config.from_cells({POSITION_LIMIT - 10: 1, POSITION_LIMIT - 1: 2})
        with pytest.raises(PositionOverflow):
            make_great(validate_tuple((x,)))

    def test_simultaneous_buzz(self):
        # two components with equal first-buzz times share one event
        t = validate_tuple((cfg(-1, "12"), cfg(-1, "122")))
        word, out = make_great(t)
        assert all(classify(c).great for c in out)

    def test_random(self, rng):
        shared = 0  # tuples where two components first buzz at one time
        for n in range(160):
            t = rand_tuple(rng, 1 + n % 8)
            _, good = make_good(t)
            taus = [phi_clock(c).t for c in good]
            shared += len(set(taus)) < len(taus)
            word, out = make_great(good)
            assert all(classify(c).great for c in out)
            assert apply_word(good, word).components == out.components
        assert shared > 20


class TestCanonical:
    def test_canonical_great_shape(self):
        assert canonical_great(3).components == \
            (cfg(0, "31"), cfg(0, "301"), cfg(0, "3001"))

    def test_canonical_great_orbit_distinct(self):
        for k in range(1, 51):
            validate_tuple(canonical_great(k).components)

    def test_fixed_point(self):
        word, out = make_canonical(canonical_great(4), canonical_great(4))
        assert out.components == canonical_great(4).components
        assert apply_word(canonical_great(4), word).components == out.components

    def test_far_particle(self):
        t = validate_tuple((Config.from_cells({0: 3, 7: 1}),))
        _, out = make_canonical(t, canonical_great(1))
        assert out.components == canonical_great(1).components

    def test_great_to_great(self, rng):
        for _ in range(20):
            k = rng.randrange(1, 4)
            _, s = make_great(make_good(rand_tuple(rng, k))[1])
            _, d = make_great(make_good(rand_tuple(rng, k))[1])
            word, out = make_canonical(s, d)
            assert len(word) == 1 and isinstance(word.steps[0], HeadLocal)
            assert out == d and apply_word(s, word) == d

    def test_requires_great(self):
        with pytest.raises(NotGreat):
            make_canonical(validate_tuple((cfg(0, "1"),)), canonical_great(1))
        with pytest.raises(NotGreat):  # the goal must be great too
            make_canonical(canonical_great(1), validate_tuple((cfg(0, "1"),)))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_canonical(canonical_great(2), canonical_great(3))

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "3", None])
    def test_canonical_great_needs_an_int(self, k):
        with pytest.raises(DomainError, match="k must be positive and an int"):
            canonical_great(k)

    def test_canonical_great_needs_a_component(self):
        with pytest.raises(DomainError, match="k must be positive"):
            canonical_great(0)

    @pytest.mark.parametrize("k", [POSITION_LIMIT + 1, 10**30])
    def test_canonical_great_refuses_k_past_the_limit(self, k, monkeypatch):
        # refused before any component is built: the last particle would
        # sit past the limit, and time and memory grow with k
        def refused(cells):
            raise AssertionError("a component was built")
        monkeypatch.setattr(Config, "from_cells", refused)
        with pytest.raises(PositionOverflow):
            canonical_great(k)

    def test_demo_pipeline_word_pinned(self):
        good, t1 = make_good(DEMO3)
        great, t2 = make_great(t1)
        splice, out = make_canonical(t2, canonical_great(3))
        word = good + great + splice
        assert emit_word(word) + "\n" == DEMO3_PIPELINE.read_text()
        assert parse_word(DEMO3_PIPELINE.read_text()) == word
        assert out.components == canonical_great(3).components


class TestHeadLocalMaps:
    """`_head_local` builds its map by the private `_mapping_perm`, which
    trusts its windows: on seeded transports each map is the one that the
    checked `build_mapping_perm` builds from the same pairs."""

    def test_maps_match_the_checked_builder(self, rng, monkeypatch):
        built, head_local = [], transporter._head_local

        def recorded(comps, targets, heads):
            ins = head_local(comps, targets, heads)
            built.append((comps, targets, heads, ins))
            return ins

        monkeypatch.setattr(transporter, "_head_local", recorded)
        for n in range(150):
            k = 1 + n % 5
            transport(rand_tuple(rng, k, span=5), rand_tuple(rng, k, span=5))
        assert len(built) > 300
        for comps, targets, heads, ins in built:
            pairs = [(head_cells(c, q), head_cells(g, q))
                     for c, g, q in zip(comps, targets, heads)]
            r = max(1, *(abs(p - q) for x, q in zip((*comps, *targets), heads * 2)
                         for p, _ in x))
            assert ins == HeadLocal(r, build_mapping_perm(pairs, 2 * r))


class TestTransport:
    def test_src_equals_dst(self, rng):
        t = rand_tuple(rng, 2)
        word = transport(t, t)
        assert verify(word, t, t)

    def test_demo_to_canonical(self):
        word = transport(DEMO3, canonical_great(3))
        assert verify(word, DEMO3, canonical_great(3))

    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            transport(rand_tuple(rng, 2), rand_tuple(rng, 3))

    def test_words_are_fused(self, rng):
        """No P right after a P and no step that moves nothing, at either
        good-to-great seam or where the splice is the identity."""
        for i in range(200):
            k = 1 + i % 5
            steps = transport(rand_tuple(rng, k), rand_tuple(rng, k)).steps
            assert not any(isinstance(a, Particle) and isinstance(b, Particle)
                           for a, b in zip(steps, steps[1:]))
            assert not any(ins in (Particle(0), HeadShift(0)) or (
                isinstance(ins, HeadLocal) and not ins.wp.images) for ins in steps)

    def test_one_head_local_at_the_splice(self, rng):
        """The word before fusion is the source's good and great words, one
        head-local splice and the destination's inverted words; transport
        returns that word fused."""
        for _ in range(30):
            k = rng.randrange(1, 5)
            s, d = rand_tuple(rng, k), rand_tuple(rng, k)
            good_s, gs = make_good(s)
            great_s, gs = make_great(gs)
            good_d, gd = make_good(d)
            great_d, gd = make_great(gd)
            head = (good_s + great_s).steps
            tail = invert_word(good_d + great_d).steps
            splice, _ = make_canonical(gs, gd)
            unfused = good_s + great_s + splice + invert_word(good_d + great_d)
            steps = unfused.steps
            assert len(steps) == len(head) + 1 + len(tail)
            assert steps[:len(head)] == head
            assert steps[len(head):len(head) + 1] == splice.steps
            assert steps[len(head) + 1:] == tail
            assert not any(isinstance(a, HeadLocal) and isinstance(b, HeadLocal)
                           for a, b in zip(steps, steps[1:]))
            assert transport(s, d) == fuse(unfused)

    def test_inverse_word_transports_back(self, rng):
        for _ in range(30):
            k = rng.randrange(1, 4)
            s, d = rand_tuple(rng, k), rand_tuple(rng, k)
            word = transport(s, d)
            assert verify(word, s, d)
            assert verify(invert_word(word), d, s)


class TestPythonApi:
    """transport and verify take a TupleK or any sequence of Configs, and
    refuse anything else with a DomainError."""

    def test_sequences_of_configs_transport_as_tuples(self):
        dst = canonical_great(3)
        word = transport(DEMO3, dst)
        for kind in (list, tuple):
            comps = kind(DEMO3.components), kind(dst.components)
            assert transport(*comps) == word
            assert verify(word, *comps)

    @pytest.mark.parametrize("src", [
        [cfg(0, "1"), "x"], (cfg(0, "1"), None), [cfg(0, "1"), {0: 1}]])
    def test_component_that_is_not_a_config(self, src):
        dst = canonical_great(2)
        with pytest.raises(DomainError, match="component 1 is not a Config"):
            transport(src, dst)
        with pytest.raises(DomainError, match="component 1 is not a Config"):
            verify(TransportWord(()), src, dst)

    @pytest.mark.parametrize("word", [None, [], (Particle(1),), "[]"])
    def test_word_that_is_not_a_transport_word(self, word):
        with pytest.raises(DomainError, match="not a TransportWord"):
            verify(word, DEMO3, DEMO3)

    def test_verify_refuses_a_destination_holding_a_non_config(self):
        # its source is replayed and so checked; the destination is not
        t = validate_tuple((cfg(0, "1"),))
        for dst in (TupleK((None,)), TupleK((cfg(0, "1"), "@0:1"))):
            with pytest.raises(DomainError, match="TupleK of Configs"):
                verify(TransportWord(()), t, dst)

    @pytest.mark.parametrize("bad", [
        None, TupleK(()), TupleK((None,)), TupleK((cfg(0, "1"), 1)), [], "x",
        (cfg(0, "1"), None)])
    def test_stages_read_tuples_as_verify_does(self, bad):
        great = make_great(make_good(DEMO3)[1])[1]
        for stage, args in ((make_good, (bad,)), (make_great, (bad,)),
                            (make_canonical, (bad, great)),
                            (make_canonical, (great, bad))):
            with pytest.raises(DomainError):
                stage(*args)

    def test_stages_take_sequences_of_configs(self):
        good = make_good(DEMO3)
        assert make_good(list(DEMO3.components)) == good
        great = make_great(good[1])
        assert make_great(list(good[1].components)) == great
        assert make_canonical(list(great[1].components),
                              tuple(great[1].components)) == make_canonical(
                                  great[1], great[1])


class TestVerify:
    def test_empty_word_identity(self, rng):
        t = rand_tuple(rng, 2)
        assert verify(TransportWord(()), t, t)

    def test_exact_not_orbit_equality(self, rng):
        t = rand_tuple(rng, 1)
        shifted = validate_tuple((shift(t[0], 1),))
        assert not verify(TransportWord(()), t, shifted)
