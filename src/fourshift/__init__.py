"""Constructive transport of finite-support tuples on the 4-symbol full
shift: generator instructions, safe rewriting, and verifiable transport
words between tuples of pairwise distinct orbits."""

from .core import (Config, ZERO, ClassFlags, DomainError, OrbitCollision,
                   PositionOverflow, TupleK, ZeroPoint, canonical_form,
                   classify, orbit_equal, shift, validate_tuple)
from .generators import (SWAP_12, SWAP_13, SWAP_23, HeadLocal, HeadShift,
                         Particle, SafeRewrite, SymbolPerm, TransportWord,
                         apply_instruction, apply_word, invert_word,
                         size_report)
from .transporter import (Reading, canonical_great, make_canonical, make_good,
                          make_great, phi_clock, transport, verify)
from .orbitperm import orbit_permutation_instruction

__all__ = [
    "Config", "ZERO", "ClassFlags", "DomainError", "OrbitCollision",
    "PositionOverflow", "TupleK", "ZeroPoint", "canonical_form", "classify",
    "orbit_equal", "shift", "validate_tuple",
    "SWAP_12", "SWAP_13", "SWAP_23", "HeadLocal", "HeadShift", "Particle",
    "SafeRewrite", "SymbolPerm", "TransportWord",
    "apply_instruction", "apply_word", "invert_word",
    "size_report", "Reading", "canonical_great", "make_canonical",
    "make_good", "make_great", "phi_clock", "transport", "verify",
    "orbit_permutation_instruction",
]
