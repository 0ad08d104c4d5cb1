"""Core molecular graph types.

Molecules are plain attributed graphs: atoms carry element, formal charge,
an explicit-hydrogen count and an aromaticity flag; bonds carry an order.
Implicit hydrogens are never materialized as atoms; a bracket-specified
hydrogen count is kept as a node attribute instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter

from ..loading import InputError

# Elements writable without brackets, in SMILES "organic subset" style.
ORGANIC_SUBSET = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")

# Extra elements accepted in bracket atoms (salts, common catalysts).
METAL_ELEMENTS = ("Na", "K", "Li", "Mg", "Ca", "Zn", "Pd", "Ni", "Cu", "Fe")

SUPPORTED_ELEMENTS = ORGANIC_SUBSET + METAL_ELEMENTS

# Elements that may carry the aromatic flag (lowercase SMILES letters).
AROMATIC_ELEMENTS = ("B", "C", "N", "O", "P", "S")

MAX_ABS_CHARGE = 4


class SmilesError(InputError, ValueError):
    """Base class for SMILES reading and writing failures.

    ``offset`` is the byte offset into the input string where the problem
    was detected, when one applies.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class EmptyInput(SmilesError):
    """Raised for an empty string or an empty dot-separated fragment."""


class UnbalancedParenthesis(SmilesError):
    """Raised when branch parentheses do not pair up."""


class UnmatchedRingBond(SmilesError):
    """Raised when a ring-closure digit is opened but never closed."""


class UnknownElement(SmilesError):
    """Raised for an element outside the supported vocabulary."""


class SmilesSyntaxError(SmilesError):
    """Raised for malformed input not covered by a more specific error."""


class UnsupportedFeature(SmilesError):
    """Raised by the writer for graphs it cannot express."""


class BondOrder(Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"


@dataclass(frozen=True)
class Atom:
    """One heavy atom.

    explicit_h counts hydrogens written inside a bracket atom; atoms
    written bare carry zero.
    """

    element: str
    formal_charge: int = 0
    explicit_h: int = 0
    aromatic: bool = False

    def __post_init__(self) -> None:
        if self.element not in SUPPORTED_ELEMENTS:
            raise UnknownElement(f"unsupported element {self.element!r}")
        if self.aromatic and self.element not in AROMATIC_ELEMENTS:
            raise UnknownElement(
                f"element {self.element!r} cannot be aromatic"
            )
        if abs(self.formal_charge) > MAX_ABS_CHARGE:
            raise SmilesSyntaxError(
                f"formal charge {self.formal_charge} out of range"
            )
        if self.explicit_h < 0:
            raise SmilesSyntaxError("explicit hydrogen count must be >= 0")


@dataclass(frozen=True)
class Bond:
    """Undirected bond between atom indices a and b (a != b)."""

    a: int
    b: int
    order: BondOrder = BondOrder.SINGLE

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise SmilesSyntaxError(f"bond joins atom {self.a} to itself")

    @property
    def pair(self) -> frozenset[int]:
        return frozenset((self.a, self.b))


@dataclass(frozen=True)
class MolecularGraph:
    """A single connected molecule.

    ``stereo_stripped`` records that the source SMILES carried stereo
    marks (/ \\ @) which this subset discards.  ``adjacency`` is built on
    first use and kept, so ``neighbors`` and ``degree`` do not scan the
    bonds on each call.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...] = field(default_factory=tuple)
    source_smiles: str = ""
    stereo_stripped: bool = False

    def __post_init__(self) -> None:
        if not self.atoms:
            raise EmptyInput("a molecular graph needs at least one atom")
        n = len(self.atoms)
        seen: set[tuple[int, int]] = set()
        for bond in self.bonds:
            a, b = bond.a, bond.b
            if not (0 <= a < n and 0 <= b < n):
                raise SmilesSyntaxError(f"bond ({a}, {b}) references a missing atom")
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}")
            seen.add(pair)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def num_bonds(self) -> int:
        return len(self.bonds)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, BondOrder], ...], ...]:
        """Each atom's (neighbor index, bond order) pairs, ascending by index."""
        rows: list[list[tuple[int, BondOrder]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            rows[bond.a].append((bond.b, bond.order))
            rows[bond.b].append((bond.a, bond.order))
        for row in rows:
            row.sort(key=itemgetter(0))
        return tuple(map(tuple, rows))

    def neighbors(self, idx: int) -> list[tuple[int, BondOrder]]:
        """Neighbor indices of ``idx`` with bond orders, ascending by index."""
        return list(self.adjacency[idx])

    def degree(self, idx: int) -> int:
        return len(self.adjacency[idx])
