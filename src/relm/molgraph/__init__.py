"""Molecular graphs: SMILES reading and writing, structural keys, features."""

from .canonical import REFINEMENT_ROUNDS, canonical_key
from .features import FeatureConfig, graph_features, stacked_features
from .parser import parse_smiles
from .types import (
    AROMATIC_ELEMENTS,
    MAX_ABS_CHARGE,
    METAL_ELEMENTS,
    ORGANIC_SUBSET,
    SUPPORTED_ELEMENTS,
    Atom,
    Bond,
    BondOrder,
    EmptyInput,
    MolecularGraph,
    SmilesError,
    SmilesSyntaxError,
    UnbalancedParenthesis,
    UnknownElement,
    UnmatchedRingBond,
    UnsupportedFeature,
)
from .writer import serialize

__all__ = [
    "AROMATIC_ELEMENTS",
    "Atom",
    "Bond",
    "BondOrder",
    "EmptyInput",
    "FeatureConfig",
    "MAX_ABS_CHARGE",
    "METAL_ELEMENTS",
    "MolecularGraph",
    "ORGANIC_SUBSET",
    "REFINEMENT_ROUNDS",
    "SUPPORTED_ELEMENTS",
    "SmilesError",
    "SmilesSyntaxError",
    "UnbalancedParenthesis",
    "UnknownElement",
    "UnmatchedRingBond",
    "UnsupportedFeature",
    "canonical_key",
    "graph_features",
    "parse_smiles",
    "serialize",
    "stacked_features",
]
