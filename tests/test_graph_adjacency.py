"""Each graph's adjacency built once, shared bare atoms, and pinned keys.

``MolecularGraph.adjacency`` replaces a scan of every bond per call; the
parser reuses one frozen ``Atom`` per bare symbol; ``canonical_key`` folds
precomputed bond-order prefixes.  None of that may change what a caller
sees: neighbours, degrees, graph equality, error texts or key bytes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relm.molgraph import (
    Atom,
    Bond,
    BondOrder,
    MolecularGraph,
    SmilesSyntaxError,
    canonical_key,
    parse_smiles,
)

from goldens import SMILES_COUNT_GOLDENS
from helpers import build_random_graph

# hex keys recorded before the key loop read the cached adjacency
GOLDEN_KEYS = [
    ("CCO", "aedc58d785daa02fbfabaaad43867215"),
    ("c1ccccc1", "9c4f43370b2f79dab32b0530bb7933ed"),
    ("C1=CC=CC=C1", "94ea4d7b81734ba449c5625dd5241552"),
    ("[NH4+]", "a55b4a82bef24b2663dfc31fd1db0f96"),
    ("[Na+]", "71fac3f7e98e241d2206dbbae7491097"),
    ("[Pd]", "356f3248b366e6e6ebd10bdb1324ede7"),
    ("[O-]C(=O)c1ccccc1", "f2010f8c6218cc7f2cd6f1a87a35af9c"),
    ("C[C@@H](N)C(=O)O", "37f620e6b8f4ebaf42949562b45e7946"),
    ("[13CH3]C(=O)[O-]", "e855e970188d3fb1ee60c52873361d2e"),
    ("c1ccc2[nH]ccc2c1", "cc5ae1d3b921ab685cd3e5f7e395cff3"),
    ("C1CCC2CCCCC2C1", "9b133449334233dd0b903b9a0f387cfa"),
    ("C1CCC(C1)C1CCCC1", "9b133449334233dd0b903b9a0f387cfa"),
    ("O=[N+]([O-])c1ccc(Cl)cc1", "9268674fb5406a149ac5d00d3ace41a7"),
    ("FC(F)(F)c1ccc(Br)cc1O", "eddc6f85e6f60836599ca77708bb1602"),
    ("N#Cc1ccncc1", "9467c6b02848b97a4d16eb949c274e4f"),
    ("C#N", "efe8b29ef83b769ea073f82bfb341a3a"),
    ("C/C=C/C(=O)[O-]", "717487ef8a4146dc8493c1a5fbb69ca0"),
]


def scanned_neighbors(graph, idx):
    """Neighbours by a scan of every bond, sorted by index."""
    out = []
    for bond in graph.bonds:
        if bond.a == idx:
            out.append((bond.b, bond.order))
        elif bond.b == idx:
            out.append((bond.a, bond.order))
    return sorted(out, key=lambda pair: pair[0])


def scanned_degree(graph, idx):
    return sum(1 for bond in graph.bonds if idx in (bond.a, bond.b))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_adjacency_matches_a_bond_scan(seed):
    graph = build_random_graph(random.Random(seed), max_atoms=10)
    for i in range(graph.num_atoms):
        assert graph.neighbors(i) == scanned_neighbors(graph, i)
        assert graph.degree(i) == scanned_degree(graph, i)


def test_neighbors_hands_out_a_copy():
    (graph,) = parse_smiles("CC(=O)O")
    graph.neighbors(1).clear()
    assert graph.neighbors(1) == scanned_neighbors(graph, 1)
    assert graph.degree(1) == 3


def fresh_copy(graph):
    atoms = tuple(
        Atom(
            element=atom.element,
            formal_charge=atom.formal_charge,
            explicit_h=atom.explicit_h,
            aromatic=atom.aromatic,
        )
        for atom in graph.atoms
    )
    return MolecularGraph(
        atoms=atoms,
        bonds=tuple(Bond(b.a, b.b, b.order) for b in graph.bonds),
        source_smiles=graph.source_smiles,
        stereo_stripped=graph.stereo_stripped,
    )


@pytest.mark.parametrize("smiles", [s for s, _, _ in SMILES_COUNT_GOLDENS])
def test_parsed_graphs_equal_graphs_of_fresh_atoms(smiles):
    for graph in parse_smiles(smiles):
        copy = fresh_copy(graph)
        assert copy == graph and hash(copy) == hash(graph)
        assert canonical_key(copy) == canonical_key(graph)


def test_bare_atoms_read_as_the_atoms_they_name():
    (graph,) = parse_smiles("ClCBrc1ccn[nH]1")
    assert [(a.element, a.aromatic) for a in graph.atoms] == [
        ("Cl", False), ("C", False), ("Br", False),
        ("C", True), ("C", True), ("C", True), ("N", True), ("N", True),
    ]
    assert graph.atoms[7] == Atom("N", explicit_h=1, aromatic=True)


@pytest.mark.parametrize("smiles,key", GOLDEN_KEYS)
def test_canonical_keys_are_pinned(smiles, key):
    (graph,) = parse_smiles(smiles)
    assert canonical_key(graph) == key


@pytest.mark.parametrize(
    "smiles,message,offset",
    [
        ("C1C1", "duplicate bond between atoms 0 and 1 (at offset 3)", 3),
        ("CC12CC12", "duplicate bond between atoms 1 and 3 (at offset 7)", 7),
    ],
)
def test_parser_duplicate_bond_texts(smiles, message, offset):
    with pytest.raises(SmilesSyntaxError) as info:
        parse_smiles(smiles)
    assert str(info.value) == message and info.value.offset == offset


def test_graph_duplicate_and_missing_bond_texts():
    atoms = (Atom("C"), Atom("O"))
    with pytest.raises(SmilesSyntaxError, match=r"^duplicate bond between atoms 1 and 0$"):
        MolecularGraph(atoms=atoms, bonds=(Bond(0, 1), Bond(1, 0, BondOrder.DOUBLE)))
    with pytest.raises(SmilesSyntaxError, match=r"^bond \(0, 2\) references a missing atom$"):
        MolecularGraph(atoms=atoms, bonds=(Bond(0, 2),))
