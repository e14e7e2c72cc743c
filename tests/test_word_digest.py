"""Seeded golden digests of word files: a refactor must leave every emitted
byte of a fixed set of transport and orbit-permutation words unchanged.

The two sets have their own digests.  Transport words change whenever the
transporter's output or the HL form does (last when HL maps began to be
written as disjoint cycles; before that, when `transport` began to fuse its
word); orbit-permutation words bypass the transporter and hold no HL, so
their digest holds across such a change, and changes only with the SR
form (last when SR words began to be written as run lines and SR maps as
cycles).  Each file also parses back to its word and is emitted again
byte for byte.  Listed head-marker rewrites and the two named head-gap
rewrites have a digest of their own, which pins the order of the words
of `"U"` and of the cycles of `"map"`."""

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
# The same over the orbit-permutation word files.
ORBIT_DIGEST = "8bf8da6f567c0f57c33825c2b86825f7392262a0da2bb09bf69cea08a6e5af78"
# sha256 over the listed and named safe-rewrite word files, each followed
# by a newline.
LISTED_DIGEST = "126c8908bb65c580a431b9c9e8010fda724649bff84b93c930e908a74edfc3c3"


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
    """sha256 of the word files; each file also parses back to its word
    and is emitted again byte for byte."""
    h = hashlib.sha256()
    for word in words:
        text = emit_word(word)
        assert parse_word(text) == word
        assert emit_word(parse_word(text)) == text
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def test_word_files_are_pinned():
    assert digest(digest_words()[0]) == DIGEST


def test_orbit_permutation_word_files_are_pinned():
    assert digest(digest_words()[1]) == ORBIT_DIGEST


def test_listed_and_named_rewrite_word_files_are_pinned():
    assert digest(listed_words()) == LISTED_DIGEST
