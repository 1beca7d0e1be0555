"""Pisot number toolkit: lattice-based search for Pisot generators of
totally real Galois fields, and fast nearest-integer powers of Pisot numbers
(exact, modular, and as O(log n) straight-line programs)."""

from .algebraic import (
    EmbeddingMatrix,
    FieldSpec,
    IntPoly,
    MinPolyInfo,
    analyze_minpoly,
    cyclotomic_embeddings,
    embeddings_for,
    eval_combination,
    explicit_embeddings,
    minimal_polynomial,
)
from .lattice import IntLattice, LLLResult, lll_reduce
from .pisotsearch import (
    PisotCandidate,
    build_scaled_lattice,
    compute_scale_P,
    find_pisot,
    minkowski_bound,
    verify_pisot,
)
from .powtrace import nearest_power, nearest_power_mod
from .slp import SLP, emit_power_slp, format_slp, parse_slp, slp_eval, slp_for_constant, slp_length

__version__ = "0.1.0"

__all__ = [
    "EmbeddingMatrix",
    "FieldSpec",
    "IntLattice",
    "IntPoly",
    "LLLResult",
    "MinPolyInfo",
    "PisotCandidate",
    "SLP",
    "analyze_minpoly",
    "build_scaled_lattice",
    "compute_scale_P",
    "cyclotomic_embeddings",
    "embeddings_for",
    "emit_power_slp",
    "eval_combination",
    "explicit_embeddings",
    "find_pisot",
    "format_slp",
    "lll_reduce",
    "minimal_polynomial",
    "minkowski_bound",
    "nearest_power",
    "nearest_power_mod",
    "parse_slp",
    "slp_eval",
    "slp_for_constant",
    "slp_length",
    "verify_pisot",
]
