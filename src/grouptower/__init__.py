"""Layered HNN-tower word calculus with bounded conjugacy oracles, exact
field-extension matrix identities, and ordered exponent-2 group models."""

from .words import Letter, Word, max_stage, parse_word, t_length
from .tower import (
    ExtensionStep,
    ExtensionTower,
    MembershipUndecided,
    PreconditionViolated,
    britton_reduce,
    centralizer_ball,
    commutes,
    coset_rep,
    cyclically_reduce,
    in_cyclic,
    is_conjugate_into_base,
    minimal_root,
    nf_word,
    parse_tower,
)

__all__ = [
    "Letter",
    "Word",
    "t_length",
    "max_stage",
    "parse_word",
    "ExtensionStep",
    "ExtensionTower",
    "MembershipUndecided",
    "PreconditionViolated",
    "britton_reduce",
    "nf_word",
    "in_cyclic",
    "coset_rep",
    "cyclically_reduce",
    "is_conjugate_into_base",
    "minimal_root",
    "commutes",
    "centralizer_ball",
    "parse_tower",
]

__version__ = "0.1.0"
