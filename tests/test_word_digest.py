"""Seeded golden digest of word files: refactors must leave every emitted
byte of a fixed set of transport and orbit-permutation words unchanged."""

import hashlib
import json
import random

from fourshift.generators import TransportWord
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.permbuild import parity
from fourshift.serial import emit_word, parse_word
from fourshift.transporter import transport

from conftest import dense, rand_tuple

# sha256 over the word files below, each followed by a newline.
DIGEST = "4c640d57cf0f5d93c39352981411da2f95623550024529973c5747ec300e8fc6"
# The same over the words as dense_text writes them, which is how word
# files were written before HL windows were keyed on their cells.
DENSE_DIGEST = "0617cc35f405d0778d241677deb426717a53ba358c28037c8ed23fd59f773e7e"


def dense_text(word):
    """The word file indented, with each HL map as pairs of 2r-letter
    window words."""
    objs = [ins.to_obj() for ins in word.steps]
    for i, ins in enumerate(word.steps):
        if objs[i]["op"] == "HL":
            objs[i] = {"op": "HL", "r": ins.r, "map": [
                [dense(s, ins.r), dense(d, ins.r)] for s, d in ins.wp.moved]}
    return json.dumps(objs, indent=1)


def digest_words():
    """150 transports (k 1..5, span 5) and 60 even orbit permutations
    (k 5..8), all from one seeded stream."""
    rng = random.Random(4)
    for i in range(150):
        k = 1 + i % 5
        yield transport(rand_tuple(rng, k, span=5), rand_tuple(rng, k, span=5))
    for i in range(60):
        k = 5 + i % 4
        t = rand_tuple(rng, k)
        while True:
            beta = list(range(k))
            rng.shuffle(beta)
            if parity(dict(enumerate(beta))) == 0:
                break
        yield TransportWord((orbit_permutation_instruction(t, tuple(beta)),))


def test_word_files_are_pinned():
    h, dense_h = hashlib.sha256(), hashlib.sha256()
    for word in digest_words():
        text, old = emit_word(word), dense_text(word)
        assert parse_word(text) == word == parse_word(old)
        h.update(text.encode() + b"\n")
        dense_h.update(old.encode() + b"\n")
    assert dense_h.hexdigest() == DENSE_DIGEST
    assert h.hexdigest() == DIGEST
