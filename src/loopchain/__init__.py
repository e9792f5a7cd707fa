"""loopchain: exact chain-level models of free loop spaces and their power maps.

A computer-algebra library for differential graded (co)algebras, bar and
cobar constructions, twisting cochains and their Hochschild complexes,
homological perturbation data, and finite simplicial sets with their
normalized chains, over Z and prime fields.  The cyclic nerve of a finite
group G is a simplicial model of the free loop space LBG with its power
maps, a second model of the Hochschild power maps on Z[G].  For a simplicial
double suspension K = Sigma^2 M, the power maps on the coHochschild complex of
the normalized chains of K model the power maps of LK.
"""

from .chains import (
    Ring, ZZ, F2, F3, F5, RINGS,
    Token, generator, suspend, desuspend, tensor_token, word_token,
    Element, LinearMap, GradedBasis, ChainComplex,
    koszul_sign, tensor_map, tensor_maps, verify_chain_map,
    identity_map, zero_map, add_maps,
    DegreeOverflowError, InfiniteTypeError,
)
from .snf import smith_normal_form, homology, HomologyBasis, HomologySummary

__all__ = [
    "Ring", "ZZ", "F2", "F3", "F5", "RINGS",
    "Token", "generator", "suspend", "desuspend", "tensor_token", "word_token",
    "Element", "LinearMap", "GradedBasis", "ChainComplex",
    "koszul_sign", "tensor_map", "tensor_maps", "verify_chain_map",
    "identity_map", "zero_map", "add_maps",
    "DegreeOverflowError", "InfiniteTypeError",
    "smith_normal_form", "homology", "HomologyBasis", "HomologySummary",
]
