"""Shared test oracles and builders.

The oracles here deliberately reimplement things the library computes,
through the most literal route available (permutation search, explicit
matrix powers, sequential sums), so tests compare two independent
answers.
"""

from __future__ import annotations

import json
import math
import random
from itertools import permutations
from pathlib import Path

import numpy as np

from relm.corpus import keys_path
from relm.encoder import GnnWeights
from relm.molgraph import KEY_VERSION
from relm.molgraph import Atom, Bond, BondOrder, MolecularGraph

BOND_ORDERS = (
    BondOrder.SINGLE,
    BondOrder.DOUBLE,
    BondOrder.TRIPLE,
    BondOrder.AROMATIC,
)


def permute_graph(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """Relabel atoms so new index perm[i] hosts old atom i."""
    atoms = [None] * graph.num_atoms
    for old, new in enumerate(perm):
        atoms[new] = graph.atoms[old]
    bonds = tuple(
        Bond(perm[b.a], perm[b.b], b.order) for b in graph.bonds
    )
    return MolecularGraph(atoms=tuple(atoms), bonds=bonds)


def brute_force_isomorphic(g1: MolecularGraph, g2: MolecularGraph) -> bool:
    """Exhaustive isomorphism check; only usable for small graphs."""
    if g1.num_atoms != g2.num_atoms or g1.num_bonds != g2.num_bonds:
        return False
    n = g1.num_atoms
    bonds2 = {b.pair: b.order for b in g2.bonds}
    for perm in permutations(range(n)):
        if any(g1.atoms[i] != g2.atoms[perm[i]] for i in range(n)):
            continue
        ok = True
        for b in g1.bonds:
            mapped = frozenset((perm[b.a], perm[b.b]))
            if bonds2.get(mapped) != b.order:
                ok = False
                break
        if ok:
            return True
    return False


def build_random_graph(rng: random.Random, max_atoms: int = 8) -> MolecularGraph:
    """Random connected attributed graph (tree plus optional extra edges)."""
    n = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n):
        element = rng.choice(["C", "C", "C", "N", "O", "S", "P", "F"])
        aromatic = element in ("C", "N", "O", "S", "P") and rng.random() < 0.2
        charge = rng.choice([0, 0, 0, 0, 1, -1])
        explicit_h = rng.choice([0, 0, 0, 1, 2])
        atoms.append(
            Atom(
                element=element,
                formal_charge=charge,
                explicit_h=explicit_h,
                aromatic=aromatic,
            )
        )
    bonds = []
    pairs = set()
    for i in range(1, n):
        j = rng.randrange(i)
        bonds.append(Bond(j, i, rng.choice(BOND_ORDERS)))
        pairs.add(frozenset((i, j)))
    extra = rng.randint(0, 2) if n > 3 else 0
    for _ in range(extra):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b and frozenset((a, b)) not in pairs:
            pairs.add(frozenset((a, b)))
            bonds.append(Bond(a, b, rng.choice(BOND_ORDERS)))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))


def reference_distance(a, b) -> float:
    """Sequential-sum Euclidean distance, independent of numpy reductions."""
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def reference_tag_layer(x, a, weight_list, activation):
    """Literal A^k X W_k sum using explicit matrix powers."""
    total = np.zeros((x.shape[0], weight_list[0].shape[1]))
    for k, w in enumerate(weight_list):
        a_k = np.linalg.matrix_power(a, k)
        total += a_k @ x @ w
    if activation == "relu":
        total = np.maximum(total, 0.0)
    return total


def reference_backward_molecule(
    pooled_grad: np.ndarray,
    a: np.ndarray,
    weights: GnnWeights,
    caches: list[dict],
    grads: list[list[np.ndarray]],
) -> None:
    """Accumulates weight gradients for one molecule."""
    n_nodes = a.shape[0]
    dh = np.tile(pooled_grad, (n_nodes, 1))
    for layer in range(len(weights.layers) - 1, -1, -1):
        cache = caches[layer]
        if cache["activation"] == "relu":
            dz = dh * (cache["z"] > 0.0)
        else:
            dz = dh
        hops = weights.layers[layer]
        for k, w in enumerate(hops):
            grads[layer][k] += cache["propagated"][k].T @ dz
        if layer > 0:
            dh_prev = np.zeros_like(cache["propagated"][0])
            for k, w in enumerate(hops):
                term = dz @ w.T
                for _ in range(k):
                    term = a @ term  # adjacency is symmetric
                dh_prev += term
            dh = dh_prev


def reference_spearman(x, y) -> float:
    """Average-rank Spearman via the Pearson formula, coded independently."""

    def avg_ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        ranks = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            rank = (i + j) / 2.0 + 1.0
            for t in range(i, j + 1):
                ranks[order[t]] = rank
            i = j + 1
        return ranks

    rx = avg_ranks(list(x))
    ry = avg_ranks(list(y))
    n = len(rx)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    return cov / math.sqrt(var_x * var_y)


# each way an index's .keys.json can stop belonging to it
KEYS_FILE_DAMAGE = (
    "missing",
    "stale-digest",
    "other-key-version",
    "truncated",
    "not-json",
    "key-not-a-list-of-strings",
    "string-missing",
)


def damage_keys_file(index: Path, how: str) -> None:
    """Spoil the keys file beside index in one of the KEYS_FILE_DAMAGE ways.

    Where the damage makes the whole file unusable, every other string's
    keys are replaced by a made-up key, so a loader that read the file
    anyway would hand out keys no parse gives."""
    path = keys_path(index)
    stored = json.loads(path.read_text())
    poisoned = {**stored, "keys": {s: ["0" * 32] for s in stored["keys"]}}
    first = next(iter(stored["keys"]))
    if how == "missing":
        path.unlink()
    elif how == "stale-digest":  # the index edited after the build
        index.write_text(index.read_text() + " ")
        path.write_text(json.dumps(poisoned))
    elif how == "other-key-version":
        path.write_text(json.dumps({**poisoned, "key_version": KEY_VERSION + 1}))
    elif how == "truncated":
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
    elif how == "not-json":
        path.write_text("not-json")
    elif how == "key-not-a-list-of-strings":
        poisoned["keys"][first] = [5]
        path.write_text(json.dumps(poisoned))
    elif how == "string-missing":
        del stored["keys"][first]
        path.write_text(json.dumps(stored))
    else:
        raise ValueError(how)
