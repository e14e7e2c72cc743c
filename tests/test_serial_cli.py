"""Text/JSON formats and the command-line surface."""

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fourshift import core
from fourshift.analysis import CycleSpec
from fourshift.cli import main
from fourshift.core import (POSITION_LIMIT, RUN_GAP, Config, DomainError, ZERO,
                            parse_runs)
from fourshift.generators import (OPS, SWAP_13, HeadLocal, HeadShift,
                                  Particle, SymbolPerm, TransportWord,
                                  apply_instruction, apply_word, invert_word)
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.safety import (HEAD_GAP_FAMILIES, HEAD_MARKER, SIGMA3_PI_SPEC,
                              SIGMA3_PI_WORDS, SIGMA3_TAU_SPEC, ExplicitWords,
                              HeadLayoutWords, NonzeroWords, RuleWordMap,
                              SafeRewrite)
from fourshift.serial import (ParseError, emit_config, emit_tuple, emit_word,
                              parse_config, parse_tuple, parse_word)
from fourshift.transporter import transport

from conftest import (dense, explicit, from_pairs, head_local, key, key_pairs,
                      line_by_line_word, make_explicit_spec, of_checked,
                      rand_config, rand_tuple)


def cfg(offset, digits):
    return Config.from_word(offset, digits)


class TestConfigText:
    def test_emit(self):
        assert emit_config(cfg(-4, "1002")) == "@-4:1002"
        assert emit_config(ZERO) == "ZERO"

    def test_parse_non_canonical(self):
        assert parse_config("@-2:00100") == cfg(0, "1")

    def test_round_trip(self, rng):
        for _ in range(300):
            x = rand_config(rng, nonzero=False)
            assert parse_config(emit_config(x)) == x

    def test_parse_errors(self):
        for bad in ("", "@:1", "@0:", "@0:4", "1premature", "@x:12",
                    "@" + "1" * 5000 + ":1", "@0:12 @1:1", "@5:1 @0:1",
                    "@0:1 ZERO", "@0:1@5:1", "@0:1 @5:"):
            with pytest.raises(ParseError):
                parse_config(bad)

    def test_runs(self):
        far = Config.from_cells({0: 1, 10**8: 2})
        assert emit_config(far) == "@0:1 @100000000:2"
        assert parse_config("@0:1  @100000000:2") == far
        # adjacent runs and zero digits between and around runs
        assert parse_config("@-2:01 @0:0020 @4:3") == cfg(-1, "100203")
        # a gap of RUN_GAP zeros stays inside the run, one more splits it
        gap = "0" * RUN_GAP
        assert emit_config(cfg(-3, f"3{gap}1")) == f"@-3:3{gap}1"
        assert emit_config(cfg(-3, f"3{gap}01")) == f"@-3:3 @{RUN_GAP - 1}:1"

    @settings(deadline=None)
    @given(st.text() | st.from_regex(r"@-?[0-9]+:[0-3]+\n"))
    @example("@" + "1" * 5000 + ":1")
    @example("@-" + "9" * 20 + ":1")
    def test_arbitrary_text_raises_only_domain_error(self, text):
        for parse in (parse_config, parse_tuple):
            try:
                parse(text)
            except DomainError:
                pass


class TestTupleFiles:
    def test_comments_and_round_trip(self):
        text = "# fixture\n@0:3\n@-1:201  # inline\n\n@0:22\n"
        t = parse_tuple(text)
        assert parse_tuple(emit_tuple(t)).components == t.components

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_tuple("# nothing here\n")


def sample_words(rng):
    spec = make_explicit_spec(explicit(["030", "031"]),
                              key_pairs([("030", "031"), ("031", "030")]))
    five = rand_tuple(rng, 5)
    beta = (1, 2, 0, 3, 4)
    yield TransportWord(())
    yield TransportWord((Particle(-3), SWAP_13, HeadShift(2)))
    yield TransportWord((head_local(1, [("00", "12"), ("12", "00")]),))
    yield TransportWord((spec,))
    yield TransportWord((SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC))
    yield orbit_permutation_instruction(five, beta) and TransportWord(
        (orbit_permutation_instruction(five, beta),))


# The word file of all_ops_word(), pinned byte for byte: one instruction
# per line, each HL map as disjoint cycles of run lines, the one form an
# HL map is read in.
GOLDEN = Path(__file__).parent / "data" / "all_ops_word_cycles.json"
# One orbit permutation at the CLI: a k = 5 tuple, the word file of
# beta = (1, 2, 0, 3, 4) on it and `fourshift apply`'s output, pinned.
ORBIT5_SRC, ORBIT5_WORD, ORBIT5_DST = (
    GOLDEN.parent / name for name in (
        "orbit5_src.txt", "orbit5_beta120_word.json", "orbit5_beta120_dst.txt"))
# A tuple on which every step of the GOLDEN word moves some component, and
# `fourshift apply`'s output of the GOLDEN word on it, pinned.
ALL_OPS_SRC, ALL_OPS_DST = (GOLDEN.parent / name for name in (
    "all_ops_src.txt", "all_ops_dst.txt"))

# The words 030 and 031 swapped: each word a run line from its first
# letter, the map its one cycle.
SWAP = ('[{"op":"SR","k":3,"h":1,"U":["@1:3","@1:31"],"V":"HEAD",'
        '"map":[["@1:3","@1:31"]]}]')
# The same rewrite in the letter form, with its pair map, marker list and
# radii: no longer read.
LETTER_SWAP = ('[{"op":"SR","k":3,"h":1,"U":["030","031"],"V":["3"],'
               '"map":[["030","031"],["031","030"]],"ell":"strict","mrad":"strict"}]')
# Names 031 twice in one cycle: read as pairs it would send both 030 and
# 031 to 031, and replaying it would merge the orbits of @0:3 and @10:31.
ORBIT_MERGING = SWAP.replace('[["@1:3","@1:31"]]', '[["@1:3","@1:31","@1:31"]]')
# SWAP with 030 in a second cycle, with a contradicting image.
CONTRADICTORY = SWAP.replace('"map":[', '"map":[["@1:3","@1:32"],')
REPEATED_SOURCES = (CONTRADICTORY,
                    SWAP.replace('"map":[', '"map":[["@1:3","@1:3"],'),
                    SWAP.replace('"map":[', '"map":[["@1:3","@1:31"],'))


def all_ops_word():
    spec = make_explicit_spec(explicit(["030", "031"]),
                              key_pairs([("030", "031"), ("031", "030")]))
    return TransportWord((
        Particle(-3), SWAP_13,
        head_local(1, [("00", "12"), ("12", "00")]),
        HeadShift(2), spec, SIGMA3_PI_SPEC))


def sr_obj(**fields) -> str:
    obj = {"op": "SR", "k": 21, "h": 1, "U": "SIGMA3_PI", "V": "HEAD",
           "map": "SIGMA3_PI"}
    return json.dumps([{**obj, **fields}])


ZERO_PADDED = dict(k=3, h=1, U=["@1:1", "@1:2"], V="NONZERO_N",
                   map=[["@1:1", "@1:2"]])
# Moves a word that is not in U: U itself is left in place, but the map
# is not a permutation of U.
ZERO_PADDED_FOREIGN_SOURCE = sr_obj(**{**ZERO_PADDED,
                                       "map": [["@1:3", "@1:1"]]})
# A field value as long as a whole word file.
LONG = "x" * 20000

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([*OPS, "HEAD", "NONZERO_N", "SIGMA3_PI",
                       "SIGMA3_TAU", "@1:3", "@1:31", "ZERO", "030", "3", "12"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=4), inner, max_size=8),
    max_leaves=24)
# Each valid object of the golden file with one field replaced, so every
# decoder sees every field malformed; values that look like integers
# without being JSON integers are drawn often.
GOLDEN_OBJS = json.loads(GOLDEN.read_text())
one_field_off = st.builds(
    lambda slot, v: [{**GOLDEN_OBJS[slot[0]], slot[1]: v}],
    st.sampled_from([(i, key) for i, obj in enumerate(GOLDEN_OBJS)
                     for key in obj]),
    st.sampled_from([1e999, -1e999, 2.0, True, "1"]) | json_values)
# The objects whose map lists words: an explicit SR map and a zero-padded
# SR map, each fed cycle lists of near-miss words: words of U and words
# outside it, spelled canonically or not, past the word length, letter
# words, and values that are no run line.
MAP_BASES = [json.loads(SWAP)[0], json.loads(sr_obj(**ZERO_PADDED))[0]]
map_words = (st.sampled_from(["@1:3", "@1:31", "@1:32", "@1:1", "@1:2",
                              "@0:03", "@1:10", "@2:3", "@3:1", "ZERO",
                              "030", "010", ""])
             | st.from_regex(r"@-?[0-3]:[0-3]{1,3}", fullmatch=True)
             | st.integers(0, 3) | st.lists(st.just("@1:3"), max_size=1))
# Window run lines near the radius-2 window: in range, at the head, past
# r, with symbol 3, overlapping or out of order, or not runs at all.
run_lines = (st.sampled_from(["ZERO", "@1:1", "@-2:12", "@-1:102", "@0:1",
                              "@3:1", "@-3:1", "@1:3", "@1:1 @2:1",
                              "@1:1 @1:2", "@2:1 @1:1", "", " "])
             | st.from_regex(r"@-?[0-3]:[0-3]{1,4}( @-?[0-3]:[0-3]{1,3})?",
                             fullmatch=True)
             | st.text("@-:0123 Z", max_size=6) | st.integers(0, 3))
word_maps = st.lists(st.lists(map_words, min_size=1, max_size=3)
                     | st.tuples(map_words, map_words) | map_words,
                     max_size=5)


class TestWordFiles:
    def test_round_trip(self, rng):
        for word in sample_words(rng):
            assert parse_word(emit_word(word)) == word

    def test_safe_rewrite_is_the_sr_instruction(self, rng):
        swap = make_explicit_spec(explicit(["030", "031"]),
                                  key_pairs([("030", "031"), ("031", "030")]))
        k030, k031 = ((1, 3),), ((1, 3), (2, 1))  # the keys of 030 and 031
        assert swap.U == ExplicitWords(3, frozenset({k030, k031}))
        assert swap.pi.images == {k030: k031, k031: k030}
        assert OPS["SR"] is SafeRewrite
        text = emit_word(TransportWord((swap,)))
        assert text == "[\n" + json.dumps(json.loads(SWAP)[0]) + "\n]"
        assert parse_word(text) == TransportWord((swap,))
        assert apply_word(cfg(1, "3"), TransportWord((swap,))) == cfg(1, "31")
        inv = swap.inverse()
        for _ in range(200):
            x = rand_config(rng, span=12)
            assert inv.apply(swap.apply(x)) == x

    def test_hl_map_sorted(self):
        # cycles in the dense order of their least windows, each starting
        # there and following the map; the order of the cell tuples is
        # the reverse one here
        word = TransportWord((head_local(2, [
            ("0200", "0010"), ("0001", "1000"), ("1000", "0100"),
            ("0010", "0200"), ("0100", "0001")]),))
        data = json.loads(emit_word(word))
        cycles = [[dense(parse_runs(w), 2) for w in cycle]
                  for cycle in data[0]["cycles"]]
        assert cycles == [["0001", "1000", "0100"], ["0010", "0200"]]

    def test_schematic_tags(self):
        data = json.loads(emit_word(
            TransportWord((SIGMA3_PI_SPEC,))))
        assert data[0]["U"] == "SIGMA3_PI" and data[0]["map"] == "SIGMA3_PI"
        assert data[0]["V"] == "HEAD" and "ell" not in data[0] and "mrad" not in data[0]

    def test_golden_bytes(self):
        assert emit_word(all_ops_word()) + "\n" == GOLDEN.read_text()
        assert all(json.loads(line.rstrip(","))
                   for line in GOLDEN.read_text().splitlines()[1:-1])

    def test_goldens_are_current_word_files(self):
        # a golden in an older form cannot come back unnoticed
        paths = sorted(GOLDEN.parent.glob("*.json"))
        assert GOLDEN in paths
        for path in paths:
            text = path.read_text()
            assert emit_word(parse_word(text)) + "\n" == text, path.name

    def test_mode_key_still_read(self):
        objs = json.loads(GOLDEN.read_text())
        for obj in objs:
            if obj["op"] == "SR":
                obj["mode"] = "strict"
        assert parse_word(json.dumps(objs, indent=1)) == all_ops_word()

    def test_bases_of_the_bad_objects_parse(self):
        assert parse_word(sr_obj()) == TransportWord((SIGMA3_PI_SPEC,))
        parse_word(sr_obj(**ZERO_PADDED))
        parse_word(SWAP)

    def test_parse_errors(self):
        for bad in (
                "{", "{}", "[" * 100000, '[{"op":"??"}]', '[{"op":"P"}]',
                '[{"op":["P"],"e":1}]', '[{"op":"P","e":1e999}]',
                '[{"op":"HS","e":1e999}]', '[{"op":"P","e":true}]',
                '[{"op":"P","e":2.0}]', '[{"op":"SYM","img":[0,1,2,3.5]}]',
                '[{"op":"HL","r":1.0,"cycles":[]}]', sr_obj(k=1e999),
                sr_obj(map="BOGUS"), sr_obj(U="SIGMA3_TAU"),
                '[{"op":"HL","r":1,"cycles":[["@1:3","@-1:1"]]}]',
                # an Arabic-Indic one, a digit to int() but not a symbol
                '[{"op":"HL","r":1,"cycles":[["@-1:\\u0661","@1:1"]]}]',
                ORBIT_MERGING, SWAP.replace('"k":3', '"k":4'),
                sr_obj(**ZERO_PADDED, ell=99),
                sr_obj(**{**ZERO_PADDED, "U": "010"}),
                ZERO_PADDED_FOREIGN_SOURCE, *REPEATED_SOURCES,
                SWAP.replace('"map":[', '"map":[["03","03"],'),
                '[{"op":"HL","r":0,"cycles":[]}]', sr_obj(V="NONZERO_N"),
                *(SWAP.replace('"U":["@1:3","@1:31"]', f'"U":["@1:3",{w}]')
                  for w in ('"@2:31"', '"@1:3x1"', '"ZERO"', '3', '["@1:31"]')),
                # the letter form: letter words, a pair map, a marker
                # list, radii written out
                LETTER_SWAP, SWAP.replace('"U":["@1:3","@1:31"]', '"U":["030","031"]'),
                SWAP.replace('[["@1:3","@1:31"]]', '[["030","031"],["031","030"]]'),
                SWAP.replace('[["@1:3","@1:31"]]', '[["@1:3","@1:31"],["@1:31","@1:3"]]'),
                *(SWAP.replace('"V":"HEAD"', f'"V":{v}')
                  for v in ('["3"]', '["3","3"]', '"3"', '"head"', '["HEAD"]')),
                *(SWAP.replace('"h":1', f'"h":1,{r}')
                  for r in ('"ell":"strict"', '"ell":5', '"mrad":"strict"', '"mrad":12')),
                sr_obj(ell="strict"), sr_obj(mrad=48), sr_obj(**ZERO_PADDED, ell=99),
                sr_obj(**{**ZERO_PADDED, "V": ["3"]}),
                # a cycle word outside U, a word named twice in U, a cycle
                # or a map that is no list
                SWAP.replace('[["@1:3","@1:31"]]', '[["@1:3","@1:32"]]'),
                SWAP.replace('[["@1:3","@1:31"]]', '[["@1:32","@2:3"]]'),
                SWAP.replace('"U":["@1:3","@1:31"]', '"U":["@1:3","@1:3","@1:31"]'),
                SWAP.replace('"U":["@1:3","@1:31"]', '"U":["@1:3","@0:03","@1:31"]'),
                SWAP.replace('[["@1:3","@1:31"]]', '["@1:3","@1:31"]'),
                SWAP.replace('[["@1:3","@1:31"]]', '[{"@1:3":"@1:31"}]'),
                SWAP.replace('[["@1:3","@1:31"]]', '{"@1:3":"@1:31"}'),
                SWAP.replace('[["@1:3","@1:31"]]', '[["@1:3"]]')):
            with pytest.raises(ParseError):
                parse_word(bad)

    @pytest.mark.parametrize("key", ["ell", "mrad", "V"])
    @pytest.mark.parametrize("canonical", [
        SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC,
        make_explicit_spec(explicit(["030", "031"]),
                           key_pairs([("030", "031"), ("031", "030")]))],
        ids=["named-pi", "named-tau", "listed"])
    def test_one_field_rule_for_named_and_listed(self, canonical, key):
        # an integer strict radius and a repeated head marker, spellings
        # of the letter form, are refused on a named rewrite as on a
        # listed one
        value = {"ell": canonical.ell, "mrad": canonical.m_rad,
                 "V": ["3", "3"]}[key]
        text = json.dumps([{**canonical.to_obj(), key: value}])
        with pytest.raises(ParseError):
            parse_word(text)

    @pytest.mark.parametrize("fields", [{"k": 20}, {"h": 2}])
    def test_k_and_h_are_the_word_lengths(self, fields):
        with pytest.raises(ParseError, match="k and h do not match"):
            parse_word(sr_obj(**fields))

    def test_inverse_word_undoes_every_op(self, rng):
        # the named rewrite is inverted by its own rule
        word = all_ops_word()
        inverse = invert_word(word)
        moved = 0
        for _ in range(300):
            x = rand_config(rng, span=12, max_cells=6)
            moved += SIGMA3_PI_SPEC.apply(x) != x
            assert apply_word(apply_word(x, word), inverse) == x
        assert moved > 50

    def test_far_apart_cells_replay_in_time(self):
        # P^E leaves the cells of @0:12 10^9 apart; the explicit rewrite
        # then reads only the windows over them, not the span between
        word = parse_word('[{"op":"P","e":1000000000},' + SWAP[1:])
        start = time.monotonic()
        y = apply_word(parse_config("@0:12"), word)
        assert time.monotonic() - start < 1.0
        assert y == Config.from_cells({-10**9: 1, 1: 2})

    @settings(deadline=None)
    @given(json_values | one_field_off)
    def test_arbitrary_json_raises_only_parse_error(self, value):
        try:
            parse_word(json.dumps(value))
        except ParseError:
            pass

    @settings(deadline=None)
    @given(st.sampled_from(MAP_BASES), word_maps)
    @example(MAP_BASES[0], json.loads(CONTRADICTORY)[0]["map"])
    @example(MAP_BASES[0], json.loads(SWAP)[0]["map"])
    def test_arbitrary_maps_load_as_listed_or_raise_parse_error(self, base,
                                                                cycles):
        try:
            word = parse_word(json.dumps([{**base, "map": cycles}]))
        except ParseError:
            return
        ins, = word.steps
        for cycle in cycles:
            for s, d in cycle_pairs(cycle):
                assert ins.pi.apply(tuple(parse_runs(s))) == tuple(parse_runs(d))

    @settings(deadline=None)
    @given(st.lists(st.lists(run_lines, max_size=4), max_size=3))
    @example([["@1:1", "@2:1"]])
    def test_arbitrary_windows_load_as_listed_or_raise_parse_error(self,
                                                                   cycles):
        try:
            word = parse_word(json.dumps(
                [{"op": "HL", "r": 2, "cycles": cycles}]))
        except ParseError:
            return
        wp = word.steps[0].wp
        for cycle in cycles:
            for s, d in zip(cycle, [*cycle[1:], cycle[0]]):
                assert wp.apply(tuple(parse_runs(s))) == tuple(parse_runs(d))


@cache
def encoder_words() -> list:
    """The empty word, one word per kind of instruction, the golden word
    files and 400 seeded transport words."""
    rng = random.Random(30)
    five = rand_tuple(rng, 5)
    words = [TransportWord(()), *(TransportWord((ins,)) for ins in (
        Particle(-3), SWAP_13, head_local(1, [("00", "12"), ("12", "00")]),
        HeadShift(2), SIGMA3_TAU_SPEC, *all_ops_word().steps[4:],
        parse_word(sr_obj(**ZERO_PADDED)).steps[0],
        orbit_permutation_instruction(five, (1, 2, 0, 3, 4))))]
    words += [parse_word(p.read_text()) for p in sorted(GOLDEN.parent.glob("*.json"))]
    for i in range(400):
        k = 1 + i % 5
        words.append(transport(rand_tuple(rng, k, span=5), rand_tuple(rng, k, span=5)))
    return words


def nested_dicts_and_braces(value) -> list:
    """The dicts inside an instruction object, and the strings in it that
    hold a brace."""
    found, todo = [], list(value.values())
    while todo:
        v = todo.pop()
        if isinstance(v, dict) or isinstance(v, str) and ("{" in v or "}" in v):
            found.append(v)
        elif isinstance(v, list):
            todo += v
    return found


class TestEmitWordEncodesOnce:
    """`emit_word` encodes a word with one `json.dumps` and breaks the text
    between objects; `line_by_line_word` is its oracle."""

    def test_matches_the_line_by_line_join(self):
        words = encoder_words()
        assert {type(ins) for w in words for ins in w.steps} == set(OPS.values())
        assert emit_word(TransportWord(())) == "[\n]"
        for word in words:
            assert emit_word(word) == line_by_line_word(word), word

    def test_no_object_holds_a_dict_or_a_brace(self):
        # the line break replaces every "}, {", which then only ever
        # falls between two instruction objects
        for word in encoder_words():
            for ins in word.steps:
                assert nested_dicts_and_braces(ins.to_obj()) == [], ins

    def test_the_checker_finds_dicts_and_braces(self):
        assert nested_dicts_and_braces(
            {"op": "X", "a": [["{"], {"b": 1}], "c": "}", "d": "@1:2"}) == [
                "}", {"b": 1}, "{"]


class TestReplayChecksNoCellTwice:
    """Every cell was checked when its tuple was read, so replay builds each
    instruction's image without the full check of `Config.from_cells`."""

    @staticmethod
    def refuse_from_cells(monkeypatch):
        def refused(cells):
            raise AssertionError("an image went through Config.from_cells")
        monkeypatch.setattr(Config, "from_cells", refused)

    def test_all_ops_word(self, rng, monkeypatch):
        word = parse_word(GOLDEN.read_text())
        xs = [rand_config(rng, span=12, max_cells=6) for _ in range(300)]
        want = [apply_word(x, word) for x in xs]
        assert sum(y != x for x, y in zip(xs, want)) > 250
        self.refuse_from_cells(monkeypatch)
        assert [apply_word(x, word) for x in xs] == want

    def test_transport_words(self, rng, monkeypatch):
        cases = []
        for _ in range(30):
            k = rng.randrange(1, 5)
            src, dst = rand_tuple(rng, k), rand_tuple(rng, k)
            cases.append((src, transport(src, dst), dst))
        self.refuse_from_cells(monkeypatch)
        for src, word, dst in cases:
            assert apply_word(src, word) == dst
            assert apply_word(dst, invert_word(word)) == src


class TestTupleReadChecksEachCellOnce:
    """A tuple file's line is checked once, by `parse_runs` and the two ends
    that `Config.from_runs` range-checks: the read builds no cell list
    through `Config.from_cells` and no shifted `Config` per component."""

    def test_tuple_files_read_without_a_second_check(self, rng, monkeypatch):
        tuples = [rand_tuple(rng, rng.randrange(1, 6), span=150, max_cells=6)
                  for _ in range(100)]
        texts = [emit_tuple(t) for t in tuples]
        assert sum(" @" in text for text in texts) > 50  # multi-run lines

        def refused(*args):
            raise AssertionError("a tuple file was checked twice")
        monkeypatch.setattr(Config, "from_cells", refused)
        monkeypatch.setattr(core, "shift", refused)
        monkeypatch.setattr(core, "canonical_form", refused)
        assert [parse_tuple(text).components for text in texts] == \
            [t.components for t in tuples]


class TestReadSurfacesRefuseJunk:
    """Each read surface refuses a value that is no text, or no cells, with
    a DomainError, not a TypeError or AttributeError."""

    @pytest.mark.parametrize("call", [
        lambda: parse_tuple(None), lambda: parse_config(None),
        lambda: parse_word(None), lambda: parse_runs(None),
        lambda: Config.from_cells(None), lambda: Config.from_cells([1]),
        lambda: Config.from_cells([(0, 1, 2)]),
        lambda: Config.from_word(0, None), lambda: Config.from_word("a", "13"),
        lambda: Config.from_word(True, "1"), lambda: CycleSpec.of(None),
        lambda: apply_instruction(ZERO, None),
        lambda: apply_instruction(None, Particle(1))],
        ids=["parse_tuple", "parse_config", "parse_word", "parse_runs",
             "from_cells", "from_cells-no-pair",
             "from_cells-triple", "from_word-digits", "from_word-offset",
             "from_word-bool-offset", "CycleSpec.of",
             "apply_instruction-no-instruction", "apply_instruction-no-config"])
    def test_refused_with_a_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestReadChecksNoWindowTwice:
    """A window or listed word line of one run is checked as text when
    `core.read_key` reads it, so a word file reads without the
    cell-by-cell check of `core.check_key`, and no map of checked windows
    is checked again."""

    @staticmethod
    def refuse_window_checks(monkeypatch):
        def refuse(cells, *args, **kwargs):
            raise AssertionError(f"key {cells!r} checked cell by cell")
        bound = [m for name, m in sys.modules.items() if name.startswith("fourshift")
                 and getattr(m, "check_key", None) is core.check_key]
        assert core in bound and len(bound) > 1
        for module in bound:
            monkeypatch.setattr(module, "check_key", refuse)

    def test_cells_files_and_transport_words(self, rng, monkeypatch):
        texts = [p.read_text() for p in sorted(GOLDEN.parent.glob("*.json"))]
        want = [parse_word(text) for text in texts]
        words = []
        for _ in range(30):
            k = rng.randrange(1, 6)
            words.append(transport(rand_tuple(rng, k), rand_tuple(rng, k)))
        emitted = [emit_word(word) for word in words]
        assert sum(isinstance(ins, HeadLocal) and bool(ins.wp.images)
                   for word in [*want, *words] for ins in word.steps) > 60
        assert sum(isinstance(ins, SafeRewrite) and isinstance(ins.U, ExplicitWords)
                   for word in want for ins in word.steps) >= 2
        self.refuse_window_checks(monkeypatch)
        assert [parse_word(text) for text in texts] == want
        assert [parse_word(text) for text in emitted] == words


class TestListedWordsRefusedWhereRead:
    """A listed `SR` word is checked where `core.read_key` reads it, as a
    key in [0, k), and a cycle word must be a word of U: a bad word file is
    refused by `parse_word` with a ParseError that quotes the offending
    line, and `fourshift apply` exits 2 on it."""

    @pytest.mark.parametrize("fields, line", [
        pytest.param({"U": ["@1:1", "@3:2"], "map": [["@1:1", "@3:2"]]}, "@3:2",
                     id="word-past-k"),
        pytest.param({"U": ["@-1:10", "@1:2"], "map": [["@-1:10", "@1:2"]]}, "@-1:10",
                     id="word-before-0"),
        pytest.param({"U": ["@1:1", "@1:4"], "map": [["@1:1", "@1:4"]]}, "@1:4",
                     id="digit-above-3"),
        pytest.param({"map": [["@1:1", "@1:3"]]}, "@1:3", id="cycle-word-outside-U")])
    def test_refused_quoting_the_line(self, tmp_path, capsys, fields, line):
        text = sr_obj(**{**ZERO_PADDED, **fields})
        with pytest.raises(ParseError) as info:
            parse_word(text)
        assert repr(line) in str(info.value)
        src, word = tmp_path / "src.tuple", tmp_path / "w.json"
        src.write_text("@0:1\n")
        word.write_text(text)
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError") and repr(line) in captured.err


def near(n):
    """n as an int most often, else as the float or the bool equal to it."""
    return st.sampled_from([n] * 6 + [float(n)] + [bool(n)] * (n in (0, 1)))


def cycle_pairs(words):
    """Each word paired with the next, the last with the first."""
    return list(zip(words, [*words[1:], *words[:1]]))


def head_local_of(r, windows, length, plain):
    """HeadLocal(r, wp) for wp the cycle through `windows` of `length`,
    given as its dict of images when `plain`."""
    wp = from_pairs(cycle_pairs(windows), length)
    return HeadLocal(r, wp.images if plain else wp)


def listed_rewrite(keys, length, V):
    """The safe rewrite of the word keys `keys` of `length`, guarded by V,
    permuted as one cycle."""
    return SafeRewrite(ExplicitWords(length, frozenset(keys)), V,
                       of_checked(cycle_pairs(keys), length))


@st.composite
def head_local_builds(draw):
    r = draw(st.sampled_from([1, 2, 65]))  # 65: offsets past core.CELLS
    offsets = [*range(-r, 0), *range(1, r + 1)]
    windows = draw(st.lists(
        st.dictionaries(st.sampled_from(offsets), st.integers(1, 2), max_size=3),
        min_size=1, max_size=3, unique_by=lambda w: tuple(sorted(w.items()))))
    windows = [tuple((draw(near(o)), draw(near(s))) for o, s in sorted(w.items()))
               for w in windows]
    return partial(head_local_of, draw(near(r)), windows, 2 * r,
                   draw(st.sampled_from([False] * 3 + [True])))


def named_rewrite(U, V, tag):
    """The safe rewrite of U by the head-gap rule named `tag`, guarded by V."""
    return SafeRewrite(U, V, RuleWordMap(tag))


@st.composite
def listed_rewrite_builds(draw):
    # words of length 3 with a head in the middle: 030, 031, ..., 232;
    # now and then a key that is no tuple of (offset, symbol) pairs
    ends = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=3, unique=True))
    keys = [tuple((draw(near(o)), draw(near(s)))
                  for o, s in ((0, a), (1, 3), (2, b)) if s) for a, b in ends]
    keys += draw(st.lists(st.sampled_from(["030", "", 3, (1,), ((1,),), ((1, 3, 0),)]),
                          max_size=1))
    V = draw(st.sampled_from([HEAD_MARKER, NonzeroWords(draw(near(1)))]))
    return partial(listed_rewrite, keys, draw(near(3)), V)


@st.composite
def explicit_spec_builds(draw):
    # words of length 3 with a head in the middle listed as U, and pairs
    # of those words and others: words outside U (010, 032, 000), fixed
    # pairs, and offsets or symbols as floats or bools
    U = draw(st.lists(st.sampled_from(["030", "031", "130", "230"]),
                      min_size=1, max_size=4, unique=True))
    pool = st.sampled_from([*U, *U, "010", "032", "000"])
    pairs = [[tuple((draw(near(o)), draw(near(s))) for o, s in key(w)) for w in pair]
             for pair in draw(st.lists(st.tuples(pool, pool), max_size=4))]
    return partial(make_explicit_spec, explicit(U), pairs)


@st.composite
def named_rewrite_builds(draw):
    family = draw(st.sampled_from(sorted(HEAD_GAP_FAMILIES)))
    U = HEAD_GAP_FAMILIES[family]
    # the family's own rule most often, else the other one, a list, an
    # int or an unknown name
    tag = draw(st.sampled_from([family] * 6 + [*HEAD_GAP_FAMILIES, [family], 3, "SIGMA3"]))
    return partial(named_rewrite, HeadLayoutWords(draw(near(U.length)), U.layouts),
                   HeadLayoutWords(draw(near(1)), HEAD_MARKER.layouts), tag)


symbol_images = (st.permutations([1, 2, 3]).flatmap(
    lambda p: st.tuples(near(0), *map(near, p)))
    | st.tuples(*[st.integers(-1, 4)] * 4)).flatmap(
    lambda img: st.sampled_from([img] * 3 + [list(img)]))
# Every instruction kind built through the Python API from fields drawn
# from ints and the bools and floats equal to them, and lists for `img`.
api_builds = (st.builds(partial, st.sampled_from([Particle, HeadShift]),
                        st.integers(-3, 3).flatmap(near))
              | st.builds(partial, st.just(SymbolPerm), symbol_images)
              | head_local_builds() | listed_rewrite_builds()
              | explicit_spec_builds() | named_rewrite_builds())


class TestApiAndFilesRefuseAlike:
    """An instruction built through the Python API is refused with a
    DomainError, or its word file reads back as the same instruction and
    replays the same: the API builds nothing that a word file refuses."""

    @settings(deadline=None, max_examples=400)
    @given(api_builds, st.dictionaries(st.integers(-8, 8), st.integers(1, 3),
                                       max_size=6))
    @example(partial(SymbolPerm, (0, True, 2, 3)), {0: 2})
    @example(partial(head_local_of, 1.0, [(), ((1, 1),)], 2, False), {0: 3})
    @example(partial(listed_rewrite, [((1, 3),), ((1, 3), (2, True))], 3,
                     HEAD_MARKER), {0: 3})
    @example(partial(named_rewrite, SIGMA3_PI_WORDS, HEAD_MARKER, ["x"]), {0: 3})
    @example(partial(listed_rewrite, ["030"], 3, HEAD_MARKER), {0: 3})
    @example(partial(make_explicit_spec, explicit(["030", "031"]),
                     key_pairs([("010", "010")])), {0: 3})
    def test_built_or_refused(self, build, cells):
        try:
            ins = build()
        except DomainError:
            return
        word = TransportWord((ins,))
        read = parse_word(emit_word(word))
        x = Config.from_cells(cells)
        assert read == word
        assert apply_word(x, read) == apply_word(x, word)


@pytest.fixture
def demo_files(tmp_path):
    src = tmp_path / "src.tuple"
    dst = tmp_path / "dst.tuple"
    src.write_text("@0:3\n@-1:201\n@0:22\n")
    dst.write_text("@0:31\n@0:301\n@0:3001\n")
    return src, dst, tmp_path


class TestCli:
    def test_transport_verify_apply(self, demo_files, capsys):
        src, dst, tmp = demo_files
        word = tmp / "word.json"
        assert main(["transport", "--src", str(src), "--dst", str(dst),
                     "-o", str(word)]) == 0
        assert main(["verify", "--src", str(src), "--dst", str(dst),
                     "--word", str(word)]) == 0
        capsys.readouterr()
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["@0:31", "@0:301", "@0:3001"]

    def test_apply_orbit_word_matches_the_pinned_output(self, tmp_path, capsys):
        # the SR law at the CLI: the word file of one orbit permutation,
        # beta = (1, 2, 0, 3, 4) on a k = 5 tuple, and its output, pinned
        t = parse_tuple(ORBIT5_SRC.read_text())
        word = TransportWord((orbit_permutation_instruction(t, (1, 2, 0, 3, 4)),))
        assert emit_word(word) + "\n" == ORBIT5_WORD.read_text()
        out = tmp_path / "out.txt"
        assert main(["apply", "--src", str(ORBIT5_SRC), "--word", str(ORBIT5_WORD),
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out == ORBIT5_DST.read_text()
        assert out.read_bytes() == ORBIT5_DST.read_bytes()
        assert [t[j] for j in (2, 0, 1, 3, 4)] == list(parse_tuple(out.read_text()))

    def test_apply_golden_word_matches_the_pinned_output(self, tmp_path, capsys):
        # both laws of Config.rewrite_blocks, HL and SR (listed and
        # named), and the other three kinds at the CLI, each step moving
        # some component of the pinned tuple
        word, t = parse_word(GOLDEN.read_text()), list(parse_tuple(ALL_OPS_SRC.read_text()))
        assert [ins.OP for ins in word.steps] == ["P", "SYM", "HL", "HS", "SR", "SR"]
        for ins in word.steps:
            moved = [ins.apply(c) for c in t]
            assert moved != t, ins
            t = moved
        out = tmp_path / "out.txt"
        assert main(["apply", "--src", str(ALL_OPS_SRC), "--word", str(GOLDEN),
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out == ALL_OPS_DST.read_text()
        assert out.read_bytes() == ALL_OPS_DST.read_bytes()
        assert list(parse_tuple(out.read_text())) == t

    def test_multi_run_line_with_a_comment_verifies(self, demo_files, capsys):
        _, dst, tmp = demo_files
        src, word = tmp / "multi.tuple", tmp / "word.json"
        src.write_text("# a far particle: two runs on one line\n"
                       "@0:3 @100:1\n@-1:201  # inline\n@0:22\n")
        assert main(["transport", "--src", str(src), "--dst", str(dst),
                     "-o", str(word)]) == 0
        assert main(["verify", "--src", str(src), "--dst", str(dst),
                     "--word", str(word)]) == 0
        assert parse_tuple(src.read_text())[0] == Config.from_cells({0: 3, 100: 1})

    @pytest.mark.parametrize("line, error", [
        (f"@{POSITION_LIMIT - 1}:11\n@0:1 @{POSITION_LIMIT}:01\n", "PositionOverflow"),
        ("@0:3\n@0:12 @1:1\n", "ParseError")], ids=["past-the-limit", "overlapping"])
    def test_bad_tuple_file_exit_2(self, demo_files, capsys, line, error):
        _, _, tmp = demo_files
        src, word = tmp / "bad.tuple", tmp / "w.json"
        src.write_text(line)
        word.write_text("[]")
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 2
        err = capsys.readouterr().err
        assert error in err and len(err.splitlines()) == 1

    def test_transport_orbit_collision_exit_2(self, tmp_path, capsys):
        src = tmp_path / "src.tuple"
        dst = tmp_path / "dst.tuple"
        src.write_text("@0:1\n@7:1\n")
        dst.write_text("@0:1\n@0:2\n")
        assert main(["transport", "--src", str(src), "--dst", str(dst),
                     "-o", str(tmp_path / "w.json")]) == 2
        assert "OrbitCollision" in capsys.readouterr().err

    def test_transport_arity_mismatch_exit_2(self, tmp_path):
        src = tmp_path / "src.tuple"
        dst = tmp_path / "dst.tuple"
        src.write_text("@0:1\n")
        dst.write_text("@0:1\n@0:2\n")
        assert main(["transport", "--src", str(src), "--dst", str(dst),
                     "-o", str(tmp_path / "w.json")]) == 2

    @pytest.mark.parametrize("argv", [
        ["apply", "--src", "{dir}", "--word", "{word}"],
        ["apply", "--src", "{src}", "--word", "{dir}"],
        ["apply", "--src", "{src}", "--word", "{word}", "-o", "{dir}"],
        ["transport", "--src", "{src}", "--dst", "{dst}", "-o", "{dir}"]],
        ids=["apply-src", "apply-word", "apply-output", "transport-output"])
    def test_directory_path_exit_2(self, demo_files, capsys, argv):
        src, dst, tmp = demo_files
        word = tmp / "w.json"
        word.write_text("[]")
        paths = {"dir": tmp, "src": src, "dst": dst, "word": word}
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: IsADirectoryError")
        assert captured.err.count("\n") == 1

    def test_verify_detects_tampering(self, demo_files):
        src, dst, tmp = demo_files
        word = tmp / "word.json"
        main(["transport", "--src", str(src), "--dst", str(dst),
              "-o", str(word)])
        data = json.loads(word.read_text())
        for step in data:
            if step["op"] == "P":
                step["e"] += 1
                break
        word.write_text(json.dumps(data))
        assert main(["verify", "--src", str(src), "--dst", str(dst),
                     "--word", str(word)]) in (1, 2)

    def test_classify_and_phi(self, capsys):
        assert main(["classify", "@-2:1122"]) == 0
        assert "good" in capsys.readouterr().out
        assert main(["phi", "@-2:1122"]) == 0
        assert capsys.readouterr().out.strip() == "a=0 t=0"
        assert main(["phi", "@-2:1122", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == \
            {"clock_like": True, "a": 0, "t": 0}

    def test_phi_not_clock_like(self, capsys):
        assert main(["phi", "@0:3"]) == 0
        assert capsys.readouterr().out == "not clock-like\n"
        assert main(["phi", "@0:3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"clock_like": False}

    def test_kfinite(self, capsys):
        assert main(["kfinite", "--cycles", "2,2"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["kfinite", "--cycles", "2,2", "--brute"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("cycles", ["0", "", "-1", "a", "2,0"])
    def test_kfinite_bad_cycles_exit_2(self, capsys, cycles):
        assert main(["kfinite", "--cycles", cycles]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_witness(self, tmp_path, capsys):
        word = tmp_path / "w.json"
        word.write_text(emit_word(TransportWord((Particle(1),))))
        assert main(["witness", "--word", str(word)]) == 0
        assert "witness @0:12" in capsys.readouterr().out

    @pytest.mark.parametrize("text, bounds, result", [
        ("[]", [], "shift 0"),
        ('[{"op":"HS","e":1}]', ["--support-bound", "1", "--width-bound", "1"],
         "inconclusive"),
    ])
    def test_witness_shift_and_inconclusive(self, tmp_path, capsys, text,
                                            bounds, result):
        word = tmp_path / "w.json"
        word.write_text(text)
        assert main(["witness", "--word", str(word), *bounds]) == 0
        assert capsys.readouterr().out == result + "\n"

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "@-5:100102 @-4:1102 @-2:1122" in out

    def test_selftest(self, capsys):
        assert main(["selftest", "--trials", "5", "--seed", "11"]) == 0

    @pytest.mark.parametrize("argv", [
        "selftest --trials 0", "selftest --trials -3",
        "witness --word {word} --support-bound 0",
        "witness --word {word} --support-bound -1",
        "witness --word {word} --width-bound 0"])
    def test_count_below_one_exit_2(self, tmp_path, capsys, argv):
        word = tmp_path / "w.json"
        word.write_text("[]")
        assert main(argv.format(word=word).split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DomainError")
        assert captured.err.count("\n") == 1

    def test_apply_writes_what_it_prints(self, demo_files, capsys):
        src, dst, tmp = demo_files
        word, out = tmp / "word.json", tmp / "out.tuple"
        assert main(["transport", "--src", str(src), "--dst", str(dst),
                     "-o", str(word)]) == 0
        capsys.readouterr()
        assert main(["apply", "--src", str(src), "--word", str(word),
                     "-o", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out == dst.read_text()

    def test_verify_arity_mismatch_exit_1(self, tmp_path, capsys):
        src, dst, word = (tmp_path / n for n in ("s.tuple", "d.tuple", "w.json"))
        src.write_text("@0:1\n")
        dst.write_text("@0:1\n@0:2\n")
        word.write_text("[]")
        assert main(["verify", "--src", str(src), "--dst", str(dst),
                     "--word", str(word)]) == 1
        assert "does not reach the destination" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        pytest.param(ORBIT_MERGING, id="orbit-merging-map"), '[{"op":"P","e":1e999}]',
        pytest.param(ZERO_PADDED_FOREIGN_SOURCE, id="zero-padded-foreign-source"),
        pytest.param(CONTRADICTORY, id="contradictory-map"),
        pytest.param(LETTER_SWAP, id="letter-form-sr"),
        pytest.param(sr_obj(k=20), id="sr-k-not-the-word-length"),
        pytest.param(sr_obj(h=2), id="sr-h-not-the-marker-length")])
    def test_apply_bad_word_exit_2(self, tmp_path, capsys, text):
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:3\n@10:31\n")
        word.write_text(text)
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("obj", [
        pytest.param(json.loads(sr_obj(U={"a": LONG})), id="sr-U-dict"),
        pytest.param(json.loads(sr_obj(V=LONG)), id="sr-V"),
        pytest.param(json.loads(sr_obj(map=LONG)), id="sr-map-string"),
        pytest.param(json.loads(sr_obj(k=3, U=["@0:" + "1" * 20000],
                                       map=[])), id="sr-U-long-run-line"),
        pytest.param([{"op": LONG}], id="unknown-op"),
        pytest.param([{"op": "P", "e": LONG}], id="P-e"),
        pytest.param([{"op": "HS", "e": LONG}], id="HS-e"),
        pytest.param([{"op": "SYM", "img": LONG}], id="SYM-img"),
        pytest.param([{"op": "HL", "r": LONG, "cycles": []}], id="HL-r"),
        pytest.param(json.loads(sr_obj(k=LONG)), id="sr-k"),
        pytest.param([{"op": "HL", "r": 1, "cycles": [[{"a": LONG}, "ZERO"]]}],
                     id="HL-window-not-a-string"),
        pytest.param([{"op": "HL", "r": 1, "cycles": [["@0:" + "1" * 20000, "ZERO"]]}],
                     id="HL-window-too-long")])
    def test_refusals_quote_input_cut_short(self, tmp_path, capsys, obj):
        # each field holds 20,000 letters or more, and the one error line
        # quotes it cut short or names its type
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:3\n")
        word.write_text(json.dumps(obj))
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError")
        assert captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 300

    @pytest.mark.parametrize("tuple_line, word", [
        pytest.param("@0:1", [{"op": "P", "e": 10**4000}], id="P-past-the-limit"),
        pytest.param("@0:3", [{"op": "HS", "e": 10**4000}], id="HS-past-the-limit"),
        pytest.param(f"@{10**4000}:1", [], id="position-past-the-limit"),
        pytest.param(f"@5:1 @-{10**4000}:1", [], id="runs-overlap")])
    def test_huge_integers_quoted_cut_short(self, tmp_path, capsys, tuple_line, word):
        # integers of 4,001 digits, as JSON and run lines allow, are
        # refused on one short line
        src = tmp_path / "src.tuple"
        path = tmp_path / "w.json"
        src.write_text(tuple_line + "\n")
        path.write_text(json.dumps(word))
        assert main(["apply", "--src", str(src), "--word", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 300

    def test_empty_word_set_exit_2(self, tmp_path, capsys):
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:1\n")
        word.write_text(sr_obj(**{**ZERO_PADDED, "U": [], "map": []}))
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError")
        assert "empty word set" in captured.err

    @pytest.mark.parametrize("word", ["0x0", "٣٣٣"])
    def test_fixed_pair_of_non_words_exit_2(self, tmp_path, capsys, word):
        # a cycle's words are read as those of U are, even in a cycle
        # that names one word twice, before the map is checked
        src = tmp_path / "src.tuple"
        path = tmp_path / "w.json"
        src.write_text("@0:1\n")
        line = f"@0:{word}"
        path.write_text(sr_obj(**{**ZERO_PADDED,
                                  "map": [*ZERO_PADDED["map"], [line, line]]}))
        assert main(["apply", "--src", str(src), "--word", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError")
        assert "not a run of cells" in captured.err

    @pytest.mark.parametrize("e, line", [
        (100000000, "@-100000000:1 @1:2"),
        (-4611686018427387900, "@1:2 @4611686018427387900:1")],
        ids=["10^8-apart", "near-the-position-limit"])
    def test_apply_far_cells_print_two_runs(self, tmp_path, capsys, e, line):
        # a wide result is written as two runs, not as a row of zeros
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:12\n")
        word.write_text(f'[{{"op":"P","e":{e}}}]')
        start = time.monotonic()
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 0
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("tuple_line, out", [
        ("@0:1", "@0:2"), ("@0:1 @5:2 @9:1", "@0:1000020001")],
        ids=["one-site", "no-site"])
    def test_long_zero_padded_words_apply_quickly(self, tmp_path, capsys,
                                                  tuple_line, out):
        # U = {0^n 1 0^(2n-1), 0^n 2 0^(2n-1)} swapped, n = 20,000: words
        # of 60,000 letters written as one run each and found by their
        # one cell
        n = 20000
        one, two = f"@{n}:1", f"@{n}:2"
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text(tuple_line + "\n")
        word.write_text(sr_obj(k=3 * n, h=n, U=[one, two], V="NONZERO_N",
                               map=[[one, two]]))
        start = time.monotonic()
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 0
        assert time.monotonic() - start < 2.0
        assert capsys.readouterr().out == out + "\n"

    def test_huge_marker_length_applies_in_time(self, tmp_path, capsys):
        # n = 10^18 costs a few bytes: the radius 4^n + 1 is never built,
        # as 4^32 + 1 already exceeds the distance of any two positions
        n = 10**18
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:1 @4000000000000000000:1\n@0:2\n")
        word.write_text(sr_obj(k=3 * n, h=n, U=[f"@{n}:1", f"@{n}:2"], V="NONZERO_N",
                               map=[[f"@{n}:1", f"@{n}:2"]]))
        start = time.monotonic()
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 0
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == "@0:1 @4000000000000000000:1\n@0:1\n"
        # a marker 2^63 - 2n cells past the block still keeps it in place
        ins, = parse_word(word.read_text()).steps
        x = Config.from_cells({-2**62: 1, 2**62: 3})
        assert ins.apply(x) == x

    def test_huge_radius_head_local_reads_only_cells(self, tmp_path, capsys):
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:31\n")
        word.write_text('[{"op":"HL","r":1000000000000000,"cycles":[["@1:1","@2:1"]]}]')
        start = time.monotonic()
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 0
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == "@0:301\n"

    @pytest.mark.parametrize("obj", [
        '"cycles":[["@0:1","@1:1"]]',
        '"cycles":[["@-3:1","@1:1"]]',
        '"cycles":[["@3:1","@1:1"]]',
        '"cycles":[["@1:3","@1:1"]]',
        '"cycles":[["@1:1 @1:2","@1:1"]]',
        '"cells":[],"map":[]', '"r2":2',
        '"cycles":[["@1:1","@2:1"],["@1:1","@-1:1"]]',
        '"cycles":[["@1:1","@2:1"],["@-1:1","@2:1"]]',
        '"cycles":[["@-2:\\u0661","@1:1"]]',
        '"cycles":[["@1:1","@2:1","@1:1"]]',
        '"cycles":[["@1:1","@2:1"],["@-1:1","@1:1"]]',
        '"cycles":[["@1:1","@0:01"]]',
        '"cycles":[["@1:1"]]', '"cycles":[[]]',
        '"cycles":[{"@1:1":0,"@2:1":0}]', '"cycles":["@1:1 @2:1"]',
        '"cycles":[["@3:1","@1:1"]]', '"cycles":[["@1:1","@-3:1","@2:1"]]',
        '"cycles":[],"cells":[]', '"cycles":[],"map":[]'],
        ids=["offset-0", "below-minus-r", "above-r", "symbol-3",
             "cell-written-twice", "map-and-cells", "neither",
             "repeated-source", "repeated-target", "map-arabic-indic-one",
             "window-twice-in-a-cycle", "window-in-two-cycles",
             "window-twice-spelled-two-ways",
             "one-window-cycle", "empty-cycle", "cycle-a-dict",
             "cycle-a-string", "cycle-window-above-r",
             "cycle-window-below-minus-r", "cycles-and-cells",
             "cycles-and-map"])
    def test_bad_hl_window_exit_2(self, tmp_path, capsys, obj):
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:31\n")
        word.write_text('[{"op":"HL","r":2,%s}]' % obj)
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("form", ["map", "cells"])
    def test_pair_form_head_local_exit_2(self, tmp_path, capsys, form):
        # HL maps are read as cycles only; an older form is named
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:31\n")
        word.write_text('[{"op":"HL","r":1,"%s":[]}]' % form)
        for argv in (["apply", "--src", str(src), "--word", str(word)],
                     ["verify", "--src", str(src), "--dst", str(src), "--word", str(word)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ParseError")
            assert f"'{form}'" in captured.err and captured.err.count("\n") == 1

    def test_identity_head_local_reads_nothing(self, tmp_path, capsys):
        # an empty map is the identity whatever the radius: no window of
        # 2r cells is read
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:3\n")
        word.write_text('[{"op":"HL","r":1000000000,"cycles":[]}]')
        start = time.monotonic()
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 0
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == "@0:3\n"

    @pytest.mark.parametrize("src", ["@0:12", "@0:30003", "@0:3" + "0" * 47 + "3"])
    def test_head_shift_fixed_point_returns_at_once(self, tmp_path, capsys, src):
        # with no head, or two heads 4..48 cells apart, one step is the
        # identity, so a power of 10^9 steps ends after the first
        src_file = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src_file.write_text(src + "\n")
        word.write_text('[{"op":"HS","e":1000000000}]')
        start = time.monotonic()
        assert main(["apply", "--src", str(src_file), "--word", str(word)]) == 0
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == src + "\n"

    def test_far_wall_transport_in_time(self, tmp_path, capsys):
        # the lone head crosses the 8,000 cells to the wall in one
        # HeadShift power: one step and one slide
        src = tmp_path / "src.tuple"
        dst = tmp_path / "dst.tuple"
        word = tmp_path / "w.json"
        src.write_text("@-8000:12\n")
        dst.write_text("@0:1\n")
        start = time.monotonic()
        assert main(["transport", "--src", str(src), "--dst", str(dst),
                     "-o", str(word)]) == 0
        assert time.monotonic() - start < 0.5
        replayed = apply_word(parse_tuple(src.read_text()),
                              parse_word(word.read_text()))
        assert emit_tuple(replayed) == "@0:1\n"
        capsys.readouterr()

    def test_huge_head_shift_on_a_lone_head_in_time(self, tmp_path, capsys):
        # every step after the first moves the lone head by the same law,
        # so the other 10^9 - 1 are one slide
        src = tmp_path / "src.tuple"
        word = tmp_path / "w.json"
        src.write_text("@0:3\n")
        word.write_text('[{"op":"HS","e":1000000000}]')
        start = time.monotonic()
        assert main(["apply", "--src", str(src), "--word", str(word)]) == 0
        assert time.monotonic() - start < 3.0
        assert capsys.readouterr().out == "@1000000000:3\n"

    def test_very_far_wall_transport_in_time(self, tmp_path, capsys):
        # the head crosses 10^8 cells in one HeadShift power
        src = tmp_path / "src.tuple"
        dst = tmp_path / "dst.tuple"
        word = tmp_path / "w.json"
        src.write_text("@-100000000:12\n")
        dst.write_text("@0:1\n")
        start = time.monotonic()
        assert main(["transport", "--src", str(src), "--dst", str(dst),
                     "-o", str(word)]) == 0
        assert main(["verify", "--src", str(src), "--dst", str(dst),
                     "--word", str(word)]) == 0
        assert time.monotonic() - start < 3.0
        assert capsys.readouterr().out.endswith("verified\n")

    def test_witness_width_bound_capped_exit_2(self, tmp_path, capsys):
        word = tmp_path / "w.json"
        word.write_text(emit_word(TransportWord((Particle(1),))))
        start = time.monotonic()
        assert main(["witness", "--word", str(word), "--width-bound", "9"]) == 2
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().err.startswith("error: TooLarge")

    def test_bad_config_exit_2(self):
        assert main(["classify", "not-a-config"]) == 2

    def test_word_round_trip_through_files(self, rng, tmp_path):
        for _ in range(5):
            k = rng.randrange(1, 4)
            s, d = rand_tuple(rng, k), rand_tuple(rng, k)
            word = transport(s, d)
            path = tmp_path / "w.json"
            path.write_text(emit_word(word))
            assert parse_word(path.read_text()) == word


# Small tuple and word files for the bounded-surface test: a few runs of
# cells near the origin, and up to four instructions of every kind with
# |e| <= 64 and radius r <= 8.
def config_line(offset, digits, more):
    """One run, or two with the second `gap` cells after the first."""
    line = f"@{offset}:{digits}"
    if more is None:
        return line
    gap, second = more
    return f"{line} @{offset + len(digits) + gap}:{second}"


digits = st.builds(str.__add__, st.text("0123", max_size=5), st.sampled_from("123"))
tuple_files = st.lists(st.builds(config_line, st.integers(-20, 20), digits,
                                 st.none() | st.tuples(st.integers(0, 40), digits)),
                       min_size=1, max_size=3).map(lambda ls: "\n".join(ls) + "\n")
window_runs = st.builds("@{}:{}".format, st.integers(-8, 8),
                        st.text("012", min_size=1, max_size=8)) | st.just("ZERO")
small_powers = st.integers(-64, 64)
small_instructions = st.one_of(
    small_powers.map(lambda e: {"op": "P", "e": e}),
    small_powers.map(lambda e: {"op": "HS", "e": e}),
    st.permutations([1, 2, 3]).map(lambda img: {"op": "SYM", "img": [0, *img]}),
    st.builds(lambda r, pair: {"op": "HL", "r": r, "cycles": [pair]},
              st.integers(1, 8), st.lists(window_runs, min_size=2, max_size=2)),
    st.builds(lambda r, cycles: {"op": "HL", "r": r, "cycles": cycles},
              st.integers(1, 8), st.lists(st.lists(window_runs, min_size=1,
                                                   max_size=3), max_size=3)),
    st.just(json.loads(SWAP)[0]),
)
word_files = st.lists(small_instructions, max_size=4).map(json.dumps)


class TestBoundedSurface:
    """`apply` and `verify` on small arbitrary files end in exit 0, 1 or 2,
    within a time budget and with bounded output.

    Large HS powers on close heads are excluded, not shrunk away: heads
    within m_rad cells of another still step one cell at a time, so
    `HS 10^9` on the 5-byte line `@0:313` would run for about a day.  The
    bound |e| <= 64 lifts once HeadShift on close heads has an
    event-driven law (ROADMAP item 2)."""

    BUDGET_S = 2.0
    MAX_OUTPUT = 4096

    @settings(max_examples=150, deadline=None)
    @given(tuple_files, tuple_files, word_files)
    def test_apply_and_verify_end_in_time(self, tmp_path_factory, src, dst, word):
        tmp = tmp_path_factory.mktemp("surface")
        paths = [tmp / "s.tuple", tmp / "d.tuple", tmp / "w.json"]
        for path, text in zip(paths, (src, dst, word)):
            path.write_text(text)
        s, d, w = map(str, paths)
        for argv, codes in ((["apply", "--src", s, "--word", w], (0, 2)),
                            (["verify", "--src", s, "--dst", d, "--word", w], (0, 1, 2))):
            out, err = io.StringIO(), io.StringIO()
            start = time.monotonic()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert time.monotonic() - start < self.BUDGET_S
            assert code in codes
            assert len(out.getvalue()) + len(err.getvalue()) <= self.MAX_OUTPUT
