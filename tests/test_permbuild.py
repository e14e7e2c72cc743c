"""Sparse word permutations and even completion."""

import itertools
import random

import pytest

from fourshift.core import DomainError, ParseError, parse_runs
from fourshift.permbuild import (DuplicateSource, DuplicateTarget, NoRoom,
                                 WordPerm, build_mapping_perm, parity)

from conftest import dense, window


def brute_sign(mapping: dict, length: int) -> int:
    """Independent parity oracle: count inversions over all of A^length,
    `mapping` sending dense words to dense words and fixing the rest."""
    words = ["".join(t) for t in itertools.product("012", repeat=length)]
    images = [mapping.get(w, w) for w in words]
    inv = sum(1 for i in range(len(words)) for j in range(i + 1, len(words))
              if images[i] > images[j])
    return inv & 1


# The two-stage construction that build_mapping_perm folds into one pass,
# kept as its oracle on plain dicts of dense words: close each chain into
# a cycle, then even out an odd result with the two smallest words no
# pair names.

def complete_partial_injection(pairs, length):
    srcs = [s for s, _ in pairs]
    dsts = [d for _, d in pairs]
    if len(set(srcs)) != len(srcs):
        raise DuplicateSource("repeated source word")
    if len(set(dsts)) != len(dsts):
        raise DuplicateTarget("repeated target word")
    mapping = {s: d for s, d in pairs if s != d}
    dst_set = set(mapping.values())
    closed = dict(mapping)
    for start in mapping:
        if start in dst_set:
            continue  # not the head of a chain
        w = start
        while w in mapping:
            w = mapping[w]
        if w != start:
            closed[w] = start
    return closed


def make_even(mapping, length, protected=frozenset()):
    if brute_sign(mapping, length) == 0:
        return mapping
    avoid = set(mapping) | protected
    if 3**length - len(avoid) < 2:
        raise NoRoom("fewer than two untouched words available")
    words = ("".join(t) for t in itertools.product("012", repeat=length))
    a, b = itertools.islice((w for w in words if w not in avoid), 2)
    return {**mapping, a: b, b: a}


def build_dense(pairs, length):
    """build_mapping_perm on the windows of dense word pairs, read back as
    the dict of its moved dense words, so the dense oracle can check it."""
    wp = build_mapping_perm(windows(pairs), length)
    return {dense(s, length // 2): dense(d, length // 2)
            for s, d in wp.images.items()}


def two_stage(pairs, length):
    mapping = complete_partial_injection(pairs, length)
    protected = frozenset(s for s, _ in pairs) | frozenset(d for _, d in pairs)
    return make_even(mapping, length, protected)


def windows(pairs):
    """The pairs of dense words as pairs of windows."""
    return [(window(s), window(d)) for s, d in pairs]


def outcome(build, pairs, length):
    try:
        return build(pairs, length)
    except DomainError as exc:
        return type(exc)


def seeded_pair_lists(rng, n):
    """Injections inside a small pool of windows of radius 1 or 2, so fixed
    points, chains, cycles and odd completions all occur; one list in
    five repeats a source or a target."""
    for _ in range(n):
        length = rng.choice((2, 2, 4))
        words = ["".join(t) for t in itertools.product("012", repeat=length)]
        pool = rng.sample(words, rng.randrange(1, 10))
        m = rng.randrange(1, len(pool) + 1)
        pairs = list(zip(rng.sample(pool, m), rng.sample(pool, m)))
        if rng.random() < 0.2:
            s, d = rng.choice(pairs)
            pairs.append(rng.choice([(s, d), (s, rng.choice(words)),
                                     (rng.choice(words), d)]))
        rng.shuffle(pairs)
        yield pairs, length


# the windows of radius 1 written 00, 01 and 02 as dense words
W00, W01, W02 = window("00"), window("01"), window("02")


class TestWordPerm:
    def test_identity(self):
        wp = WordPerm.from_pairs((), 2)
        assert wp.moved == () and wp.apply(W01) == W01

    def test_apply_and_inverse(self):
        wp = WordPerm.from_pairs([(W00, W01), (W01, W00)], 2)
        assert wp.apply(W00) == W01
        assert wp.inverse().apply(W01) == W00

    def test_non_bijection_rejected(self):
        with pytest.raises(Exception):
            WordPerm.from_pairs([(W00, W01), (W02, W01)], 2)

    def test_fixed_points_listed_and_dropped(self):
        wp = WordPerm.from_pairs([(W02, W02), (W00, W01), (W01, W00)], 2)
        assert wp == WordPerm.from_pairs([(W00, W01), (W01, W00)], 2)
        assert wp.moved == ((W00, W01), (W01, W00))

    @pytest.mark.parametrize("pairs, error", [
        ([("00", "01"), ("00", "01"), ("01", "00")], DuplicateSource),
        ([("00", "00"), ("00", "01"), ("01", "00")], DuplicateSource),
        ([("00", "02"), ("00", "01"), ("01", "00")], DuplicateSource),
        ([("02", "02"), ("00", "02"), ("02", "00")], DuplicateSource),
        ([("01", "01"), ("00", "01"), ("02", "00")], DuplicateTarget),
        ([("0001", "0001"), ("00", "01"), ("01", "00")], DomainError),
    ])
    def test_one_map_rule(self, pairs, error):
        # every listed window has the length, fixed points included, and
        # is named at most once as a source and at most once as a target
        with pytest.raises(error):
            WordPerm.from_pairs(windows(pairs), 2)

    @pytest.mark.parametrize("w", [((True, 1),), ((1, True),), ((1.0, 1),),
                                   ((1, 2.0),), ((-1, 1), (False, 2))])
    def test_cells_are_ints(self, w):
        # as in a configuration, a bool or a float is no offset or symbol
        with pytest.raises(DomainError):
            WordPerm.from_pairs([(W00, w), (w, W00)], 2)


def seeded_perms(rng, n):
    """Permutations built by build_mapping_perm from seeded window pairs."""
    for pairs, length in seeded_pair_lists(rng, n):
        try:
            yield build_mapping_perm(windows(pairs), length)
        except DomainError:
            continue


class TestWordPermChecksOnce:
    """A map is checked once, where it is built; the inverse and the
    completed map are not sent through the check again."""

    def test_inverse_swaps_the_checked_map(self):
        count = 0
        for wp in seeded_perms(random.Random(5), 600):
            inv = wp.inverse()
            assert inv == WordPerm.from_pairs([(d, s) for s, d in wp.moved], wp.length)
            assert inv.inverse() == wp
            # the same moved words, so the same sources in dense order
            assert [s for s, _ in inv.moved] == [s for s, _ in wp.moved]
            count += bool(wp.moved)
        assert count > 300

    def test_built_map_is_its_checked_permutation(self):
        built = 0
        for pairs, length in seeded_pair_lists(random.Random(11), 500):
            try:
                wp = build_mapping_perm(windows(pairs), length)
            except DomainError:
                continue
            checked = WordPerm.from_pairs(wp.moved, length)
            assert checked == wp and checked.moved == wp.moved
            built += 1
        assert built > 350

    def test_equality_and_hash_agree(self):
        rng = random.Random(8)
        perms = list(seeded_perms(rng, 400))
        for wp in perms:
            # listed in another order, the empty window as a fixed point
            pairs = [*wp.moved, *([((), ())] if () not in wp.images else [])]
            rng.shuffle(pairs)
            listed = WordPerm.from_pairs(pairs, wp.length)
            assert listed == wp and hash(listed) == hash(wp)
        distinct = {wp: (wp.length, wp.moved) for wp in perms}
        assert len(distinct) == len(set(distinct.values())) > 100
        for a, b in itertools.combinations(perms[:80], 2):
            assert (a == b) == ((a.length, a.moved) == (b.length, b.moved))
            assert a != b or hash(a) == hash(b)


def read_line(line):
    """The cells of a run line, unchecked."""
    return tuple(parse_runs(line))


class TestCycles:
    """`WordPerm.to_cycles` and its reader, the private
    `WordPerm._read_cycles` that `HeadLocal.from_obj` and
    `SafeRewrite.from_obj` call."""

    def test_round_trip(self):
        longest = 0
        for wp in seeded_perms(random.Random(6), 600):
            lines = wp.to_cycles()
            assert WordPerm._read_cycles(lines, read_line, wp.length) == wp
            cycles = [tuple(map(read_line, c)) for c in lines]
            # disjoint, each following the map and closing, none a fixed point
            named = [w for cycle in cycles for w in cycle]
            assert sorted(named) == sorted(wp.images)
            for cycle in cycles:
                assert len(cycle) >= 2
                assert [wp.apply(w) for w in cycle] == [*cycle[1:], cycle[0]]
            # each starts at its least word, in the order of those words
            r = wp.length // 2
            least = [min(dense(w, r) for w in cycle) for cycle in cycles]
            assert least == [dense(c[0], r) for c in cycles] == sorted(least)
            longest = max(longest, *map(len, cycles), 0)
        assert longest >= 5

    def test_identity(self):
        identity = WordPerm.from_pairs((), 2)
        assert identity.to_cycles() == []
        assert WordPerm._read_cycles([], read_line, 2) == identity

    @pytest.mark.parametrize("cycles", [
        [["00", "01", "00"]], [["00", "01"], ["02", "00"]], [["00"]], [[]]],
        ids=["twice-in-a-cycle", "in-two-cycles", "one-word", "empty"])
    def test_refused(self, cycles):
        with pytest.raises(DomainError):
            WordPerm._read_cycles(cycles, window, 2)

    @pytest.mark.parametrize("cycles", [
        "00 01", {"00": "01"}, "", {}, [("00", "01")], ["00", "01"]],
        ids=["string", "dict", "empty-string", "empty-dict", "tuple-cycle",
             "string-cycles"])
    def test_not_lists_refused(self, cycles):
        with pytest.raises(ParseError):
            WordPerm._read_cycles(cycles, window, 2)


class TestParity:
    def test_identity_even(self):
        assert parity({}) == 0

    def test_transposition_odd(self):
        assert parity({"00": "01", "01": "00"}) == 1

    def test_three_cycle_even(self):
        cycle = {"00": "01", "01": "02", "02": "00"}
        assert parity(cycle) == 0
        assert brute_sign(cycle, 2) == 0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            words = ["".join(t) for t in itertools.product("012", repeat=2)]
            rng.shuffle(words)
            n = rng.randrange(2, 6)
            cycle = words[:n]
            mapping = {cycle[i]: cycle[(i + 1) % n] for i in range(n)}
            assert parity(mapping) == brute_sign(mapping, 2)

    def test_index_permutation_parity(self):
        assert parity(dict(enumerate((0, 1, 2)))) == 0
        assert parity(dict(enumerate((1, 0, 2)))) == 1
        assert parity(dict(enumerate((1, 2, 0)))) == 0


class TestCompletion:
    """Closing chains into cycles, seen through build_mapping_perm."""

    def test_single_pair_closes_to_transposition(self):
        # 00 -> 01 closes with 01 -> 00; the odd result recruits 02 <-> 10
        assert build_dense([("00", "01")], 2) == {"00": "01", "01": "00",
                                                  "02": "10", "10": "02"}

    def test_identity_pair(self):
        assert build_dense([("00", "00")], 2) == {}

    def test_existing_permutation_unchanged(self):
        swaps = [("00", "01"), ("01", "00"), ("02", "10"), ("10", "02")]
        assert build_dense(swaps, 2) == dict(swaps)

    def test_duplicate_source(self):
        with pytest.raises(DuplicateSource):
            build_dense([("00", "01"), ("00", "02")], 2)

    def test_duplicate_target(self):
        with pytest.raises(DuplicateTarget):
            build_dense([("00", "01"), ("02", "01")], 2)

    def test_output_is_bijection_on_moved(self, rng):
        words = ["".join(t) for t in itertools.product("012", repeat=4)]
        for _ in range(100):
            picks = rng.sample(words, rng.randrange(2, 9))
            half = len(picks) // 2
            pairs = list(zip(picks[:half], picks[half:2 * half]))
            mapping = build_dense(pairs, 4)
            assert set(mapping) == set(mapping.values())
            for s, d in pairs:
                assert mapping.get(s, s) == d


class TestMakeEven:
    """Evening an odd closure, seen through build_mapping_perm."""

    def test_even_unchanged(self):
        cycle = [("00", "01"), ("01", "02"), ("02", "00")]
        assert build_dense(cycle, 2) == dict(cycle)

    def test_odd_composed_with_lex_smallest_free_pair(self):
        out = build_dense([("00", "01"), ("01", "00")], 2)
        assert parity(out) == 0
        assert out["00"] == "01"
        assert out["02"] == "10" and out["10"] == "02"

    def test_no_room(self):
        # the requested fixed points may not be recruited, and one word of
        # the nine is left
        fixed = [(w, w) for w in ("02", "10", "11", "12", "20", "21")]
        with pytest.raises(NoRoom):
            build_dense([("00", "01"), ("01", "00"), *fixed], 2)


class TestBuildMappingPerm:
    def test_identity_pairs(self):
        assert build_dense([("00", "00")], 2) == {}

    def test_large_radius_costs_nothing(self):
        # the parity pair is the all-zero window and the one holding a
        # particle at offset r, whatever r is
        r = 10**15
        wp = build_mapping_perm([(((1, 1),), ((2, 1),))], 2 * r)
        assert wp.apply(()) == ((r, 1),) and wp.apply(((r, 1),)) == ()
        assert wp.apply(((2, 1),)) == ((1, 1),)

    @pytest.mark.parametrize("w", [
        ((1, 3),), ((True, 1),), ((1, True),), ((2, 1),), ((0, 1),),
        ((1, 1), (1, 2)), ((1, 1), (-1, 2)), "01", None, [(1, 1)]])
    def test_refuses_what_is_not_a_window(self, w):
        # a symbol 3, a bool, an offset past r or at the head, offsets out
        # of order, and values that are no tuple of cells
        for pairs in ([(((1, 1),), w)], [(w, ((1, 1),))]):
            with pytest.raises(DomainError):
                build_mapping_perm(pairs, 2)

    def test_single_pair(self):
        mapping = build_dense([("00", "01")], 2)
        assert parity(mapping) == 0 and mapping["00"] == "01"

    def test_random_disjoint_pairs(self, rng):
        words = ["".join(t) for t in itertools.product("012", repeat=4)]
        for _ in range(25):
            picks = rng.sample(words, 6)
            pairs = list(zip(picks[:3], picks[3:]))
            mapping = build_dense(pairs, 4)
            assert parity(mapping) == 0
            for s, d in pairs:
                assert mapping[s] == d

    def test_requested_fixed_points_survive(self):
        # an odd completion must not recruit a requested identity pair
        mapping = build_dense([("00", "01"), ("02", "02")], 2)
        assert parity(mapping) == 0
        assert "02" not in mapping and mapping["00"] == "01"

    def test_matches_the_two_stage_oracle(self):
        seen = set()
        for pairs, length in seeded_pair_lists(random.Random(9), 2000):
            # the same parity pair as the dense construction, read back
            got = outcome(build_dense, pairs, length)
            assert got == outcome(two_stage, pairs, length), (pairs, length)
            if isinstance(got, dict):
                assert brute_sign(got, length) == 0
                assert all(got.get(s, s) == d for s, d in pairs)
                closure = complete_partial_injection(pairs, length)
                seen.add("odd completion" if got != closure else "even")
                seen.add("fixed point" if any(s == d for s, d in pairs)
                         else "no fixed point")
                seen.add("chain" if len(closure) > sum(
                    s != d for s, d in pairs) else "cycles only")
            else:
                seen.add(got.__name__)
        assert seen == {"odd completion", "even", "fixed point",
                        "no fixed point", "chain", "cycles only",
                        "DuplicateSource", "DuplicateTarget", "NoRoom"}
