"""Seeded golden digests of word files: a refactor must leave every emitted
byte of a fixed set of transport and orbit-permutation words unchanged.

The two sets have their own digests.  Transport words change whenever the
transporter's output or the HL form does (last when HL maps began to be
written as disjoint cycles; before that, when `transport` began to fuse its
word); orbit-permutation words bypass the transporter and hold no HL, so
their digest holds across such a change.  Each file also parses back to
its word.  Listed head-marker rewrites and the two named head-gap rewrites
have a digest of their own, which pins the order of their words and pairs
in `"U"` and `"map"`."""

import hashlib
import random
from functools import cache

from fourshift.generators import TransportWord
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.permbuild import parity
from fourshift.safety import SIGMA3_PI_SPEC, SIGMA3_TAU_SPEC
from fourshift.serial import emit_word, parse_word
from fourshift.transporter import transport

from conftest import rand_head_spec, rand_tuple

# sha256 over the transport word files, each followed by a newline.
DIGEST = "d50cadad50f373711c00c5bcaf50fc8b0c353f695114057d812d0f188d04160f"
# The same over the orbit-permutation word files; they are the bytes these
# words had before transport words were fused.
ORBIT_DIGEST = "5d2bd987a2e41d5a82382af5f25efd45d2ab212b8eb537fc7a880ea77f8ce11e"
# sha256 over the listed and named safe-rewrite word files, each followed
# by a newline.
LISTED_DIGEST = "e3ae81f1114b043760289103c68c28a790763e99150ce6f64a1a99c93a604349"


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


def digest(words):
    """sha256 of the word files; each file also parses back to its word."""
    h = hashlib.sha256()
    for word in words:
        text = emit_word(word)
        assert parse_word(text) == word
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def test_word_files_are_pinned():
    assert digest(digest_words()[0]) == DIGEST


def test_orbit_permutation_word_files_are_pinned():
    assert digest(digest_words()[1]) == ORBIT_DIGEST


def test_listed_and_named_rewrite_word_files_are_pinned():
    assert digest(listed_words()) == LISTED_DIGEST
