"""Seeded input generator for the benchmark workloads.

For one workload and one seed it writes, into ``perfbench/.cache/inputs``,
the training dataset, the query subset, the encoder weights and the run
config that the ``relm`` commands read.  The files depend only on the
workload's data seed (see ``data_seed``), so the same seed always gives
the same files.  Generation is not timed; ``run.py`` starts this script in a
child process so its memory does not count toward the run's peak RSS.

Every check in the benchmark scores by structure key, so the generator
also proves that all products sharing a key are isomorphic, with a
backtracking matcher that shares no code with ``relm``'s key.

    python3 perfbench/gen.py --workload css-20k --seed 0
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
SRC = HERE.parent / "src"

# Workload make-up.  Query counts are sized so that one evaluate round's
# query phase takes 5 s (http-mes-2k) to 20 s (css-20k) on a 2-core
# machine; run.py repeats rounds to fill --seconds.
WORKLOADS = {
    "css-20k": {
        "kind": "evaluate",
        "records": 20_000,
        "queries": 12,
        "strategy": "css",
        "k": 4,
        "n": 3,
        "max_concurrency": 1,
        "backend": {"kind": "oracle"},
        "context": True,
        # One css-20k query costs 0.3 s to 10 s, as the number of top-K
        # scans its context walk needs varies.  A seed-drawn set of queries
        # moved the median by ~25% between seeds, so the reactions, weights
        # and queries come from data seed 0; --seed draws only the CSS
        # perturbations.
        "data_seed": 0,
    },
    "http-mes-2k": {
        "kind": "evaluate",
        "records": 2_000,
        "queries": 100,
        "strategy": "mes:zero_shot:10",
        "k": 4,
        "n": 3,
        "max_concurrency": 2,
        # endpoint is filled in by run.py once the stub has a port
        "backend": {
            "kind": "http",
            "model": "stub",
            "backoff_base_s": 0.0,
            "api_key_env": "PERFBENCH_STUB_KEY",
        },
        "context": False,
    },
    "train-1k": {
        "kind": "train",
        "records": 1_000,
        "epochs": 6,
        "embed_dim": 16,
        # another stream than the query workloads, so the same --seed never
        # gives train-1k their reactions
        "data_seed_offset": 1_000_003,
    },
}
EMBED_DIM = 16


def data_seed(workload: str, seed: int) -> int:
    spec = WORKLOADS[workload]
    return spec.get("data_seed", seed + spec.get("data_seed_offset", 0))


def input_dir(workload: str, seed: int) -> Path:
    return CACHE / "inputs" / f"{workload}-d{data_seed(workload, seed)}"


# ---- isomorphism, independent of relm's structure key ----


def _atom_label(atom) -> tuple:
    return (atom.element, atom.formal_charge, atom.explicit_h, atom.aromatic)


def _adjacency(graph) -> list[dict[int, object]]:
    adj: list[dict[int, object]] = [{} for _ in graph.atoms]
    for bond in graph.bonds:
        adj[bond.a][bond.b] = bond.order
        adj[bond.b][bond.a] = bond.order
    return adj


def graphs_isomorphic(g, h) -> bool:
    """Backtracking search for a label- and bond-order-preserving bijection."""
    if g.num_atoms != h.num_atoms or g.num_bonds != h.num_bonds:
        return False
    adj_g, adj_h = _adjacency(g), _adjacency(h)
    sig_g = [(_atom_label(a), len(adj_g[i])) for i, a in enumerate(g.atoms)]
    sig_h = [(_atom_label(a), len(adj_h[i])) for i, a in enumerate(h.atoms)]
    if sorted(sig_g) != sorted(sig_h):
        return False
    # visit g's atoms breadth-first so each new atom has a mapped neighbour
    order: list[int] = []
    for start in range(g.num_atoms):
        if start in order:
            continue
        queue = [start]
        order.append(start)
        while queue:
            node = queue.pop(0)
            for other in sorted(adj_g[node]):
                if other not in order:
                    order.append(other)
                    queue.append(other)
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}

    def extend(depth: int) -> bool:
        if depth == len(order):
            return True
        u = order[depth]
        for v in range(h.num_atoms):
            if v in backward or sig_g[u] != sig_h[v]:
                continue
            mapped_u = {w: o for w, o in adj_g[u].items() if w in forward}
            mapped_v = {x: o for x, o in adj_h[v].items() if x in backward}
            if len(mapped_u) != len(mapped_v):
                continue
            if any(adj_h[v].get(forward[w]) != o for w, o in mapped_u.items()):
                continue
            forward[u], backward[v] = v, u
            if extend(depth + 1):
                return True
            del forward[u], backward[v]
        return False

    return extend(0)


def sets_isomorphic(gs, hs) -> bool:
    if len(gs) != len(hs):
        return False
    return any(
        all(graphs_isomorphic(g, h) for g, h in zip(gs, perm))
        for perm in itertools.permutations(hs)
    )


def check_keys(records) -> dict:
    """Group products by structure key; every group must be one molecule set."""
    from relm.corpus import molecules_key, parse_side

    groups: dict[tuple[str, ...], list] = {}
    for record in records:
        graphs = parse_side(record.products)
        groups.setdefault(molecules_key(graphs), []).append((record.id, graphs))
    pairs = 0
    for key, members in groups.items():
        first_id, first = members[0]
        for other_id, graphs in members[1:]:
            pairs += 1
            if not sets_isomorphic(first, graphs):
                raise SystemExit(
                    f"structure key collision: products of {first_id} and "
                    f"{other_id} share key {key} but are not isomorphic"
                )
    return {"index_entries": len(groups), "same_key_pairs": pairs}


# ---- writing inputs ----


def generate(workload: str, seed: int) -> Path:
    from relm.corpus import save_dataset
    from relm.encoder import EncoderConfig, random_init, save_weights
    from relm.molgraph import FeatureConfig
    from relm.synthetic import synthetic_reactions

    spec = WORKLOADS[workload]
    final = input_dir(workload, seed)
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)

    dseed = data_seed(workload, seed)
    records = synthetic_reactions(spec["records"], seed=dseed)
    meta = {"workload": workload, "data_seed": dseed, "records": len(records)}
    meta.update(check_keys(records))
    save_dataset(records, tmp / "train.jsonl")
    config: dict = {"dataset": "train.jsonl", "seed": dseed}

    if spec["kind"] == "evaluate":
        rng = random.Random(f"queries|{workload}|{dseed}")
        chosen = sorted(rng.sample(range(len(records)), spec["queries"]))
        save_dataset([records[i] for i in chosen], tmp / "queries.jsonl")
        weights = random_init(
            EncoderConfig(feature_dim=FeatureConfig().feature_dim, embed_dim=EMBED_DIM),
            seed=dseed,
        )
        save_weights(weights, tmp / "weights.json")
        config.update(
            weights="weights.json",
            index="index.json",
            strategy=spec["strategy"],
            k=spec["k"],
            n=spec["n"],
            max_concurrency=spec["max_concurrency"],
            backend=spec["backend"],
        )
        meta["queries"] = len(chosen)
    (tmp / "run.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    (tmp / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if final.exists():
        shutil.rmtree(tmp)
    else:
        tmp.rename(final)
    return final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    out = generate(args.workload, args.seed)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
