"""SMILES reader for a documented subset of the grammar.

Supported:
  * bare organic-subset atoms (B C N O P S F Cl Br I) and the aromatic
    lowercase forms b c n o p s
  * bracket atoms with optional isotope (ignored), charge, explicit
    hydrogen count and atom-map class (ignored)
  * bond symbols - = # : plus / and \\ (read as single bonds; the stereo
    information is discarded and flagged on the output graph)
  * branches, ring closures 1-9 and %nn, dot-separated fragments
  * chirality marks @ and @@ inside brackets (discarded, flagged)

Not supported: wildcard atoms, quadruple bonds, reaction arrows,
ring closures that span dot fragments, elements outside the vocabulary
in types.SUPPORTED_ELEMENTS.  Offsets in errors are byte offsets, which
coincide with character offsets because SMILES input is ASCII.
"""

from __future__ import annotations

from .types import (
    AROMATIC_ELEMENTS,
    MAX_ABS_CHARGE,
    ORGANIC_SUBSET,
    SUPPORTED_ELEMENTS,
    Atom,
    Bond,
    BondOrder,
    EmptyInput,
    MolecularGraph,
    SmilesSyntaxError,
    UnbalancedParenthesis,
    UnknownElement,
    UnmatchedRingBond,
)

_BOND_CHARS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}

# Stereo bond marks are accepted as plain single bonds.
_STEREO_BOND_CHARS = ("/", "\\")

_AROMATIC_LOWER = tuple(e.lower() for e in AROMATIC_ELEMENTS)

# One shared atom per bare symbol: atoms are frozen and compare by value.
_BARE_ATOMS = {e: Atom(element=e) for e in ORGANIC_SUBSET} | {
    e.lower(): Atom(element=e, aromatic=True) for e in AROMATIC_ELEMENTS
}
_TWO_LETTER_ORGANIC = frozenset(e for e in ORGANIC_SUBSET if len(e) == 2)


class _Fragment:
    """Mutable state for one dot-separated fragment."""

    def __init__(self, start: int):
        self.start = start
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.bond_pairs: set[tuple[int, int]] = set()
        self.prev: int | None = None
        # open branches: (saved prev index, offset of the '(')
        self.branch_stack: list[tuple[int, int]] = []
        # open ring closures: digit -> (atom index, bond or None, offset)
        self.open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}
        self.pending_bond: BondOrder | None = None
        self.pending_bond_offset: int = -1
        self.stereo_stripped = False

    def add_atom(self, atom: Atom, offset: int) -> None:
        self.atoms.append(atom)
        idx = len(self.atoms) - 1
        if self.prev is not None:
            order = self.pending_bond
            if order is None:
                order = self._implicit_order(self.prev, idx)
            self._add_bond(self.prev, idx, order, offset)
        elif self.pending_bond is not None:
            raise SmilesSyntaxError(
                "bond symbol with no preceding atom", self.pending_bond_offset
            )
        self.pending_bond = None
        self.prev = idx

    def ring_digit(self, digit: int, offset: int) -> None:
        if self.prev is None:
            raise SmilesSyntaxError(
                "ring closure before any atom", offset
            )
        bond = self.pending_bond
        self.pending_bond = None
        if digit in self.open_rings:
            other, open_bond, open_offset = self.open_rings.pop(digit)
            if bond is not None and open_bond is not None and bond != open_bond:
                raise SmilesSyntaxError(
                    f"conflicting bond orders on ring closure {digit}", offset
                )
            order = bond or open_bond
            if order is None:
                order = self._implicit_order(other, self.prev)
            if other == self.prev:
                raise SmilesSyntaxError(
                    f"ring closure {digit} joins an atom to itself", offset
                )
            self._add_bond(other, self.prev, order, offset)
        else:
            self.open_rings[digit] = (self.prev, bond, offset)

    def open_branch(self, offset: int) -> None:
        if self.prev is None:
            raise SmilesSyntaxError("branch opened before any atom", offset)
        if self.pending_bond is not None:
            raise SmilesSyntaxError(
                "bond symbol directly before '('", self.pending_bond_offset
            )
        self.branch_stack.append((self.prev, offset))

    def close_branch(self, offset: int) -> None:
        if not self.branch_stack:
            raise UnbalancedParenthesis("')' without matching '('", offset)
        if self.pending_bond is not None:
            raise SmilesSyntaxError(
                "dangling bond before ')'", self.pending_bond_offset
            )
        self.prev = self.branch_stack.pop()[0]

    def finish(self, source: str, end_offset: int) -> MolecularGraph:
        if self.branch_stack:
            raise UnbalancedParenthesis(
                "'(' without matching ')'", self.branch_stack[-1][1]
            )
        if self.open_rings:
            first = min(off for (_, _, off) in self.open_rings.values())
            raise UnmatchedRingBond("unclosed ring bond", first)
        if self.pending_bond is not None:
            raise SmilesSyntaxError(
                "dangling bond at end of fragment", self.pending_bond_offset
            )
        if not self.atoms:
            raise EmptyInput("empty SMILES fragment", self.start)
        return MolecularGraph(
            atoms=tuple(self.atoms),
            bonds=tuple(self.bonds),
            source_smiles=source[self.start : end_offset],
            stereo_stripped=self.stereo_stripped,
        )

    def _implicit_order(self, a: int, b: int) -> BondOrder:
        if self.atoms[a].aromatic and self.atoms[b].aromatic:
            return BondOrder.AROMATIC
        return BondOrder.SINGLE

    def _add_bond(self, a: int, b: int, order: BondOrder, offset: int) -> None:
        pair = (a, b) if a < b else (b, a)
        if pair in self.bond_pairs:
            raise SmilesSyntaxError(
                f"duplicate bond between atoms {a} and {b}", offset
            )
        self.bond_pairs.add(pair)
        self.bonds.append(Bond(a, b, order))


def parse_smiles(smiles: str) -> list[MolecularGraph]:
    """Parse a SMILES string into one graph per dot-separated fragment."""
    if not smiles:
        raise EmptyInput("empty SMILES input", 0)
    graphs: list[MolecularGraph] = []
    frag = _Fragment(0)
    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch in _BARE_ATOMS:
            width = 2 if smiles[i : i + 2] in _TWO_LETTER_ORGANIC else 1
            frag.add_atom(_BARE_ATOMS[smiles[i : i + width]], i)
            i += width
        elif ch == ".":
            if frag.branch_stack:
                raise SmilesSyntaxError("'.' inside a branch", i)
            graphs.append(frag.finish(smiles, i))
            frag = _Fragment(i + 1)
            i += 1
        elif ch in _BOND_CHARS:
            if frag.pending_bond is not None:
                raise SmilesSyntaxError("two bond symbols in a row", i)
            frag.pending_bond = _BOND_CHARS[ch]
            frag.pending_bond_offset = i
            i += 1
        elif ch in _STEREO_BOND_CHARS:
            if frag.pending_bond is not None:
                raise SmilesSyntaxError("two bond symbols in a row", i)
            frag.pending_bond = BondOrder.SINGLE
            frag.pending_bond_offset = i
            frag.stereo_stripped = True
            i += 1
        elif ch == "(":
            frag.open_branch(i)
            i += 1
        elif ch == ")":
            frag.close_branch(i)
            i += 1
        elif ch.isdigit():
            frag.ring_digit(int(ch), i)
            i += 1
        elif ch == "%":
            digits = smiles[i + 1 : i + 3]
            if len(digits) != 2 or not digits.isdigit():
                raise SmilesSyntaxError(
                    "'%' must be followed by two digits", i
                )
            frag.ring_digit(int(digits), i)
            i += 3
        elif ch == "[":
            atom, stereo, i2 = _parse_bracket_atom(smiles, i)
            frag.stereo_stripped = frag.stereo_stripped or stereo
            frag.add_atom(atom, i)
            i = i2
        elif ch.isalpha():
            raise UnknownElement(f"unknown element starting at {ch!r}", i)
        else:
            raise SmilesSyntaxError(f"unexpected character {ch!r}", i)
    graphs.append(frag.finish(smiles, n))
    return graphs


def _parse_bracket_atom(smiles: str, start: int) -> tuple[Atom, bool, int]:
    """Parse a [...] atom at ``start``; returns (atom, stereo seen, next offset)."""
    end = smiles.find("]", start)
    if end < 0:
        raise SmilesSyntaxError("unterminated bracket atom", start)
    body = smiles[start + 1 : end]
    pos = 0
    m = len(body)

    # isotope digits are accepted and dropped
    while pos < m and body[pos].isdigit():
        pos += 1

    element, aromatic, pos = _parse_bracket_element(body, pos, start)
    explicit_h = 0
    charge = 0
    stereo = False

    while pos < m and body[pos] == "@":
        stereo = True
        pos += 1

    if pos < m and body[pos] == "H":
        pos += 1
        digits = ""
        while pos < m and body[pos].isdigit():
            digits += body[pos]
            pos += 1
        explicit_h = int(digits) if digits else 1

    if pos < m and body[pos] in "+-":
        sign = 1 if body[pos] == "+" else -1
        symbol = body[pos]
        pos += 1
        if pos < m and body[pos].isdigit():
            digits = ""
            while pos < m and body[pos].isdigit():
                digits += body[pos]
                pos += 1
            magnitude = int(digits)
        else:
            magnitude = 1
            while pos < m and body[pos] == symbol:
                magnitude += 1
                pos += 1
        charge = sign * magnitude
        if abs(charge) > MAX_ABS_CHARGE:
            raise SmilesSyntaxError(
                f"charge {charge} out of range", start + 1 + pos - 1
            )

    # atom-map class, accepted and dropped
    if pos < m and body[pos] == ":":
        pos += 1
        if pos >= m or not body[pos].isdigit():
            raise SmilesSyntaxError("':' in bracket needs digits", start + 1 + pos)
        while pos < m and body[pos].isdigit():
            pos += 1

    if pos != m:
        raise SmilesSyntaxError(
            f"unexpected {body[pos]!r} in bracket atom", start + 1 + pos
        )

    atom = Atom(
        element=element,
        formal_charge=charge,
        explicit_h=explicit_h,
        aromatic=aromatic,
    )
    return atom, stereo, end + 1


def _parse_bracket_element(body: str, pos: int, start: int) -> tuple[str, bool, int]:
    offset = start + 1 + pos
    if pos >= len(body):
        raise SmilesSyntaxError("bracket atom without element", offset)
    ch = body[pos]
    if ch.isupper():
        two = body[pos : pos + 2]
        if len(two) == 2 and two[1].islower() and two in SUPPORTED_ELEMENTS:
            return two, False, pos + 2
        if ch in SUPPORTED_ELEMENTS:
            return ch, False, pos + 1
        raise UnknownElement(f"unknown element {ch!r} in bracket", offset)
    if ch.islower():
        if ch in _AROMATIC_LOWER:
            return ch.upper(), True, pos + 1
        raise UnknownElement(f"unknown element {ch!r} in bracket", offset)
    raise SmilesSyntaxError(f"expected element symbol, got {ch!r}", offset)
