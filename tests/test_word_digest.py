"""Seeded golden digests of word files: a refactor must leave every emitted
byte of a fixed set of transport and orbit-permutation words unchanged.

The two sets have their own digests.  Transport words change whenever the
transporter's output or the HL form does (last when HL maps began to be
written as disjoint cycles; before that, when `transport` began to fuse its
word); orbit-permutation words bypass the transporter and hold no HL, so
their digest holds across such a change, and the dense digests, which write
HL maps as pairs, show that no replayed word moved.  Listed head-marker
rewrites and the two named head-gap rewrites have a digest of their own,
which pins the order of their words and pairs in `"U"` and `"map"`."""

import hashlib
import json
import random
from functools import cache

from fourshift.generators import TransportWord
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.permbuild import parity
from fourshift.safety import SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC
from fourshift.serial import emit_word, parse_word
from fourshift.transporter import transport

from conftest import dense, rand_head_spec, rand_tuple

# sha256 over the transport word files, each followed by a newline.
DIGEST = "d50cadad50f373711c00c5bcaf50fc8b0c353f695114057d812d0f188d04160f"
# The same over the words as dense_text writes them, which is how word
# files were written before HL windows were keyed on their cells.
DENSE_DIGEST = "cf9d0aa86a820d54fa3af2ce6b86dca5ca4fd0f28c8b1befa0f54ceb995ce5f0"
# Both digests over the orbit-permutation word files; they are the bytes
# these words had before transport words were fused.
ORBIT_DIGEST = "5d2bd987a2e41d5a82382af5f25efd45d2ab212b8eb537fc7a880ea77f8ce11e"
ORBIT_DENSE_DIGEST = "a62aa13d9608fd546563bc62533666ff634c496fea838f5a5433cc5439fa3bed"
# sha256 over the listed and named safe-rewrite word files, each followed
# by a newline.
LISTED_DIGEST = "e3ae81f1114b043760289103c68c28a790763e99150ce6f64a1a99c93a604349"


def dense_text(word):
    """The word file indented, with each HL map as pairs of 2r-letter
    window words."""
    objs = [ins.to_obj() for ins in word.steps]
    for i, ins in enumerate(word.steps):
        if objs[i]["op"] == "HL":
            objs[i] = {"op": "HL", "r": ins.r, "map": [
                [dense(s, ins.r), dense(d, ins.r)] for s, d in ins.wp.moved]}
    return json.dumps(objs, indent=1)


@cache
def digest_words():
    """150 transports (k 1..5, span 5), then 60 even orbit permutations
    (k 5..8), all from one seeded stream."""
    rng = random.Random(4)
    transports = []
    for i in range(150):
        k = 1 + i % 5
        transports.append(transport(rand_tuple(rng, k, span=5),
                                    rand_tuple(rng, k, span=5)))
    orbits = []
    for i in range(60):
        k = 5 + i % 4
        t = rand_tuple(rng, k)
        while True:
            beta = list(range(k))
            rng.shuffle(beta)
            if parity(dict(enumerate(beta))) == 0:
                break
        orbits.append(TransportWord((orbit_permutation_instruction(t, tuple(beta)),)))
    return transports, orbits


def listed_words():
    """100 seeded listed head-marker rewrites, each followed by its
    inverse, then the two named head-gap rewrites, one word each."""
    rng, words = random.Random(24), []
    for _ in range(100):
        spec = rand_head_spec(rng)
        words += [TransportWord((spec,)), TransportWord((spec.inverse(),))]
    return words + [TransportWord((SIGMA3_PI_SPEC,)),
                    TransportWord((SIGMA3_TAU_SPEC,))]


def digests(words):
    """sha256 of the word files and of their dense texts; each file also
    parses back to its word."""
    h, dense_h = hashlib.sha256(), hashlib.sha256()
    for word in words:
        text, old = emit_word(word), dense_text(word)
        assert parse_word(text) == word == parse_word(old)
        h.update(text.encode() + b"\n")
        dense_h.update(old.encode() + b"\n")
    return h.hexdigest(), dense_h.hexdigest()


def test_word_files_are_pinned():
    assert digests(digest_words()[0]) == (DIGEST, DENSE_DIGEST)


def test_orbit_permutation_word_files_are_pinned():
    assert digests(digest_words()[1]) == (ORBIT_DIGEST, ORBIT_DENSE_DIGEST)


def test_listed_and_named_rewrite_word_files_are_pinned():
    assert digests(listed_words())[0] == LISTED_DIGEST
