import random
from itertools import permutations

from helpers import brute_force_isomorphic, build_random_graph, permute_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from relm.corpus import molecules_key
from relm.molgraph import KEY_VERSION, canonical_key, parse_smiles


def key_of(smiles: str) -> str:
    (g,) = parse_smiles(smiles)
    return canonical_key(g)


# the keys each KEY_VERSION gives.  An index's keys file records the
# version it was keyed under, and a loader trusts keys of its own version,
# so a change to any key must bump KEY_VERSION and pin the new keys here.
KEYS_BY_VERSION = {
    1: {
        "C1CCC2CCCCC2C1": "9b133449334233dd0b903b9a0f387cfa",  # decalin
        "C1CCC(C1)C1CCCC1": "9b133449334233dd0b903b9a0f387cfa",  # bicyclopentyl
        "CCO": "aedc58d785daa02fbfabaaad43867215",
        "c1ccccc1": "9c4f43370b2f79dab32b0530bb7933ed",
        "[NH4+]": "a55b4a82bef24b2663dfc31fd1db0f96",
        "O=[N+]([O-])c1ccc(Cl)cc1": "9268674fb5406a149ac5d00d3ace41a7",
    },
}


def test_key_version_names_the_keys_it_gives():
    for smiles, key in KEYS_BY_VERSION[KEY_VERSION].items():
        assert key_of(smiles) == key, smiles


def test_spelling_invariance():
    assert key_of("CCO") == key_of("OCC")
    assert key_of("CC(C)C") == key_of("C(C)(C)C")
    assert key_of("c1ccncc1") == key_of("n1ccccc1")


def test_distinct_molecules_get_distinct_keys():
    keys = [
        key_of(s)
        for s in [
            "CCO",
            "CCN",
            "CCC",
            "C=CO",
            "c1ccccc1",
            "C1CCCCC1",
            "CC(=O)O",
            "COC",
        ]
    ]
    assert len(set(keys)) == len(keys)


def test_bond_order_changes_key():
    assert key_of("CC") != key_of("C=C")
    assert key_of("C=C") != key_of("C#C")


def test_charge_and_hydrogens_change_key():
    assert key_of("[O-]") != key_of("O")
    assert key_of("[NH4+]") != key_of("N")


def test_permutation_invariance_exhaustive_small():
    (g,) = parse_smiles("CC(=O)O")
    base = canonical_key(g)
    for perm in permutations(range(g.num_atoms)):
        assert canonical_key(permute_graph(g, list(perm))) == base


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance_property(seed, perm_seed):
    g = build_random_graph(random.Random(seed))
    perm = list(range(g.num_atoms))
    random.Random(perm_seed).shuffle(perm)
    assert canonical_key(permute_graph(g, perm)) == canonical_key(g)


def test_key_agrees_with_brute_force_isomorphism():
    # pairwise compare a pool of small random graphs: equal keys must mean
    # isomorphic graphs and vice versa
    rng = random.Random(7)
    pool = [build_random_graph(rng, max_atoms=5) for _ in range(40)]
    for i, g1 in enumerate(pool):
        for g2 in pool[i + 1 :]:
            assert (canonical_key(g1) == canonical_key(g2)) == brute_force_isomorphic(
                g1, g2
            )


def test_product_set_key_is_order_free():
    graphs_a = parse_smiles("CCO.CC(=O)O")
    graphs_b = parse_smiles("CC(=O)O.OCC")
    assert molecules_key(graphs_a) == molecules_key(graphs_b)
    assert molecules_key(graphs_a) != molecules_key(parse_smiles("CCO"))
