"""Seeded, offline generators for the Planetoid-shaped benchmark inputs.

Everything here is plain numpy and never calls into ``isingreg``, so two
versions of the package read byte-identical files for the same seed.  The
files use the package's canonical formats:

* ``nodes.csv``   header ``id,label,f1,...,fd``, one row per node,
* ``edges.txt``   one ``i j`` pair per line, undirected, no self-loops,
* ``splits.json`` ``{"train": [...], "val": [...], "test": [...]}``.

Shapes follow the public Planetoid datasets: Cora has 2708 nodes, 5429
edges, 1433 binary bag-of-words features and 7 classes; Pubmed has 19717
nodes, 44338 edges and 500 sparse non-negative TF-IDF-like features (the
three Pubmed classes are folded into +/-1 labels here so that the binary
Ising path is exercised).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# class sizes are those of the real datasets
CORA = {"nodes": 2708, "edges": 5429, "features": 1433,
        "class_sizes": (351, 217, 418, 818, 426, 298, 180),
        "words_per_node": 18, "topic_words": 160, "topic_share": 0.4,
        "homophily": 0.81, "train_per_class": 20, "val": 500}
PUBMED = {"nodes": 19717, "edges": 44338, "features": 500,
          "class_sizes": (4103, 7739, 7875),
          "nonzeros_per_node": 50, "topic_words": 80, "topic_share": 0.5,
          "homophily": 0.80}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _homophilic_edges(labels, m, homophily, rng):
    """``m`` distinct undirected edges; each one joins two nodes of the same
    class with probability ``homophily`` and otherwise two random nodes."""
    n = len(labels)
    members = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    seen = set()
    out = []
    while len(out) < m:
        batch = 2 * (m - len(out))
        src = rng.integers(0, n, size=batch)
        same = rng.random(batch) < homophily
        dst = rng.integers(0, n, size=batch)
        pick = rng.random(batch)
        for a, s, b, u in zip(src.tolist(), same.tolist(), dst.tolist(),
                              pick.tolist()):
            if s:
                group = members[labels[a]]
                b = int(group[int(u * len(group))])
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            out.append(key)
            if len(out) == m:
                break
    return np.array(out, dtype=np.int64)


def _classes(sizes, rng):
    """Class labels with the given class sizes, in random node order."""
    return rng.permutation(np.repeat(np.arange(len(sizes)), sizes))


def _topic_columns(n_classes, d, topic_words, rng):
    return [rng.choice(d, size=topic_words, replace=False)
            for _ in range(n_classes)]


def _write_edges(path, edges):
    path.write_text("".join(f"{i} {j}\n" for i, j in edges.tolist()))


def _write_nodes(path, labels, cells, d):
    """``cells`` holds each row's feature text already joined by commas."""
    header = "id,label," + ",".join(f"f{k + 1}" for k in range(d)) + "\n"
    with open(path, "w") as fh:
        fh.write(header)
        for i, (y, row) in enumerate(zip(labels.tolist(), cells)):
            fh.write(f"{i},{y},{row}\n")


def make_cora(out_dir, seed, part=0):
    """Cora-shaped files: binary bag-of-words, 7 homophilic classes and a
    Planetoid-style split: 20 training nodes per class and 500 validation
    nodes; every other node is a test node, so the test error is steadier
    than on Planetoid's 1000.  ``part`` picks one of several datasets
    drawn from the same seed."""
    cfg = CORA
    rng = np.random.default_rng([seed, 1, part])
    n, d, k = cfg["nodes"], cfg["features"], len(cfg["class_sizes"])
    labels = _classes(cfg["class_sizes"], rng)
    topics = _topic_columns(k, d, cfg["topic_words"], rng)
    X = np.zeros((n, d), dtype=np.uint8)
    w = cfg["words_per_node"]
    for i in range(n):
        on_topic = rng.random(w) < cfg["topic_share"]
        words = np.where(on_topic,
                         topics[labels[i]][rng.integers(0, cfg["topic_words"], w)],
                         rng.integers(0, d, w))
        X[i, words] = 1
    edges = _homophilic_edges(labels, cfg["edges"], cfg["homophily"], rng)

    # '0'/'1' characters interleaved with commas, one byte row per node
    text = np.full((n, 2 * d - 1), ord(","), dtype=np.uint8)
    text[:, 0::2] = X + ord("0")
    cells = [row.tobytes().decode("ascii") for row in text]

    train = np.concatenate([rng.permutation(np.flatnonzero(labels == c))
                            [:cfg["train_per_class"]] for c in range(k)])
    rest = rng.permutation(np.setdiff1d(np.arange(n), train))
    splits = {"train": np.sort(train).tolist(),
              "val": np.sort(rest[:cfg["val"]]).tolist(),
              "test": np.sort(rest[cfg["val"]:]).tolist()}
    return _write_dataset(out_dir, labels, cells, d, edges, splits)


def make_pubmed(out_dir, seed, part=0):
    """Pubmed-shaped files: sparse non-negative features with four decimal
    digits, homophilic +/-1 labels, no split file."""
    cfg = PUBMED
    rng = np.random.default_rng([seed, 2, part])
    n, d = cfg["nodes"], cfg["features"]
    classes = _classes(cfg["class_sizes"], rng)
    topics = _topic_columns(3, d, cfg["topic_words"], rng)
    codes = np.zeros((n, d), dtype=np.int64)
    nz = cfg["nonzeros_per_node"]
    for i in range(n):
        on_topic = rng.random(nz) < cfg["topic_share"]
        cols = np.where(on_topic,
                        topics[classes[i]][rng.integers(0, cfg["topic_words"], nz)],
                        rng.integers(0, d, nz))
        codes[i, cols] = rng.integers(1, 2000, size=nz)
    edges = _homophilic_edges(classes, cfg["edges"], cfg["homophily"], rng)

    table = np.array(["0"] + [f"0.{c:04d}" for c in range(1, 10000)],
                     dtype=object)
    cells = [",".join(table[row]) for row in codes]
    labels = np.where(classes == 0, 1, -1)
    return _write_dataset(out_dir, labels, cells, d, edges, None)


def _write_dataset(out_dir, labels, cells, d, edges, splits):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"nodes": out_dir / "nodes.csv", "edges": out_dir / "edges.txt"}
    _write_nodes(paths["nodes"], labels, cells, d)
    _write_edges(paths["edges"], edges)
    if splits is not None:
        paths["splits"] = out_dir / "splits.json"
        paths["splits"].write_text(json.dumps(splits) + "\n")
    return {name: {"path": str(p), "sha256": sha256_file(p),
                   "bytes": p.stat().st_size}
            for name, p in paths.items()}


GENERATORS = {"cora": make_cora, "pubmed": make_pubmed}
