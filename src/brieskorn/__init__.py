"""Exact invariants and linking-matrix Kirby calculus for Brieskorn spheres.

Submodules:
    seifert   triples, built-in parametrized families, Seifert invariants
    plumbing  star plumbing trees and exact integer linear algebra
    wu        spherical Wu class, mu-bar, homology-ball obstruction
    kirby     framed-link engine: blow-ups/-downs, slides, script replay
    casson    lattice-point / surgery-formula Casson cross-check
    report    per-member verification reports against the claim table
    cli       command-line front end
"""

from .casson import (
    LatticeSignature,
    TwistKnotFamily,
    casson_brieskorn,
    casson_surgery_twist,
    milnor_fiber_signature,
)
from .kirby import (
    FramedLink,
    KirbyScript,
    blow_down,
    blow_up,
    plumbing_to_link,
    replay,
    script_from_json,
    script_generator,
    script_to_json,
    slide,
)
from .plumbing import (
    IntMatrix,
    PlumbingGraph,
    brieskorn_plumbing,
    determinant,
    graph_to_seifert,
    hj_expand,
    intersection_matrix,
    is_negative_definite,
    signature,
    star_plumbing,
)
from .report import VerificationReport, build_report, family_sweep
from .seifert import (
    FAMILIES,
    BrieskornTriple,
    FamilySpec,
    SeifertData,
    family,
    seifert_invariants,
    validate_triple,
)
from .wu import MubarResult, WuClass, mubar, wu_class, wu_square

__all__ = [
    "BrieskornTriple",
    "FAMILIES",
    "FamilySpec",
    "FramedLink",
    "IntMatrix",
    "KirbyScript",
    "LatticeSignature",
    "MubarResult",
    "PlumbingGraph",
    "SeifertData",
    "TwistKnotFamily",
    "VerificationReport",
    "WuClass",
    "blow_down",
    "blow_up",
    "brieskorn_plumbing",
    "build_report",
    "casson_brieskorn",
    "casson_surgery_twist",
    "determinant",
    "family",
    "family_sweep",
    "graph_to_seifert",
    "hj_expand",
    "intersection_matrix",
    "is_negative_definite",
    "milnor_fiber_signature",
    "mubar",
    "plumbing_to_link",
    "replay",
    "script_from_json",
    "script_generator",
    "script_to_json",
    "seifert_invariants",
    "signature",
    "slide",
    "star_plumbing",
    "validate_triple",
    "wu_class",
    "wu_square",
]

__version__ = "0.1.0"
