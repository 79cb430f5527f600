"""Synthetic instance generation and citation-style dataset ingestion.

Canonical on-disk format (all 0-indexed UTF-8):

* ``nodes.csv``   header ``id,label,f1,...,fd``; one row per node,
* ``edges.txt``   one ``i j [weight]`` per line (undirected, no self-loops,
  weight 1 when omitted); a pair listed twice, in either order, counts
  once,
* ``splits.json`` ``{"train": [...], "val": [...], "test": [...]}``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DuplicateIdError, MalformedRowError, SplitError
from .interaction import (InteractionMatrix, from_weighted_edges,
                          read_edge_list, write_edge_list)
from .ising import IsingModel, gibbs_sample

DEFAULT_FIELD_BOUND = 5.0
MAX_CLIP_FRACTION = 0.10


@dataclass(eq=False)
class Dataset:
    """Features, labels, dependency structure, splits, optional truth.

    ``edges``, when present, holds the (i, j, weight) rows A was built
    from, in the shape ``read_edge_list`` returns and ``write_edge_list``
    writes.
    """

    X: np.ndarray
    labels: np.ndarray
    A: InteractionMatrix
    splits: dict = field(default_factory=dict)
    ground_truth: dict | None = None
    edges: list | None = None

    @property
    def n(self):
        return len(self.labels)

    def summary(self):
        classes = len(np.unique(self.labels))
        n_edges = len(self.edges) if self.edges is not None else None
        return {
            "classes": classes,
            "nodes": int(self.n),
            "edges": n_edges,
            "features": int(self.X.shape[1]),
        }


def _build_matrix(matrix, n, rng):
    """Interpret a matrix construction request.

    Accepts an InteractionMatrix directly, or a dict
    ``{"kind": "block"|"curie_weiss"|"erdos_renyi", ...params}``.
    """
    if isinstance(matrix, InteractionMatrix):
        if matrix.n != n:
            raise ValueError("matrix size does not match n")
        return matrix
    kind = matrix["kind"]
    if kind == "block":
        return InteractionMatrix.block_partition(n, matrix["r"])
    if kind == "curie_weiss":
        return InteractionMatrix.curie_weiss(n)
    if kind == "erdos_renyi":
        p = matrix.get("p", 2.0 * np.log(n) / n)
        i, j = np.nonzero(np.triu(rng.random((n, n)) < p, 1))
        return InteractionMatrix.from_adjacency(zip(i.tolist(), j.tolist()), n)
    raise ValueError(f"unknown matrix construction {kind!r}")


def gen_synthetic(n, d, matrix, theta_star=None, beta_star=0.0,
                  feature_law="gaussian_iid", features=None, seed=0,
                  field_bound=DEFAULT_FIELD_BOUND, burn_in=50, thin=5):
    """Draw one synthetic dependent-labels instance.

    Features follow the requested law, the true field is the linear map
    h* = X theta* clipped to [-M, M] (the clip count is recorded and a
    clip fraction above 10% aborts), and labels are one Gibbs sample of
    the spin model (A, h*, beta*).  Fully determined by ``seed``.
    """
    rng = np.random.default_rng(seed)
    A = _build_matrix(matrix, n, rng)
    if feature_law == "gaussian_iid":
        X = rng.standard_normal((n, d))
    elif feature_law == "given":
        X = np.asarray(features, dtype=float)
        if X.shape != (n, d):
            raise ValueError("given features have the wrong shape")
    else:
        raise ValueError(f"unknown feature law {feature_law!r}")

    if theta_star is None:
        theta_star = rng.standard_normal(d)
        theta_star /= np.linalg.norm(theta_star)
    else:
        theta_star = np.asarray(theta_star, dtype=float)

    h_raw = X @ theta_star
    h = np.clip(h_raw, -field_bound, field_bound)
    clipped = int(np.sum(h != h_raw))
    if clipped > MAX_CLIP_FRACTION * n:
        raise ValueError(
            f"{clipped}/{n} fields clipped to [-{field_bound}, {field_bound}]: "
            "the bounded-field assumption is violated by this configuration")
    if clipped:
        warnings.warn(f"clipped {clipped} field entries to the bound",
                      stacklevel=2)

    model = IsingModel(A, h, beta_star)
    labels = gibbs_sample(model, 1, burn_in=burn_in, thin=thin,
                          seed=int(rng.integers(2 ** 62)))[0]
    return Dataset(
        X=X,
        labels=labels.astype(np.int64),
        A=A,
        ground_truth={"theta": theta_star, "beta": float(beta_star),
                      "clipped": clipped,
                      "gibbs": {"burn_in": burn_in, "thin": thin}},
    )


def make_splits(labels, fractions=(0.6, 0.2, 0.2), stratified=True, seed=0):
    """Disjoint, exhaustive train/val/test index sets.

    Stratified mode partitions each class separately so class proportions
    carry over; remainders are assigned by a seeded shuffle.  A class
    with fewer than 3 members cannot be stratified and goes to train
    with a warning.
    """
    fractions = tuple(float(f) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    parts = {"train": [], "val": [], "test": []}
    names = ("train", "val", "test")

    groups = ([np.flatnonzero(labels == c) for c in np.unique(labels)]
              if stratified else [np.arange(len(labels))])
    for members in groups:
        members = rng.permutation(members)
        m = len(members)
        if stratified and m < 3:
            warnings.warn(f"class with {m} members assigned wholly to train",
                          stacklevel=2)
            parts["train"].extend(members.tolist())
            continue
        # largest-remainder counts are seed-independent; which members land
        # where follows the seeded shuffle above
        counts = [int(np.floor(f * m)) for f in fractions]
        leftovers = m - sum(counts)
        residuals = sorted(range(3), key=lambda k: (fractions[k] * m - counts[k], -k),
                           reverse=True)
        for k in residuals[:leftovers]:
            counts[k] += 1
        at = 0
        for name, c in zip(names, counts):
            parts[name].extend(members[at:at + c].tolist())
            at += c
    return {k: np.array(sorted(v), dtype=np.int64) for k, v in parts.items()}


def validate_splits(splits, n):
    seen = np.zeros(n, dtype=bool)
    for name, idx in splits.items():
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise SplitError(f"split {name!r} references nodes outside 0..{n-1}")
        if np.any(seen[idx]):
            raise SplitError(f"split {name!r} overlaps another split")
        seen[idx] = True


# ---------------------------------------------------------------------------
# canonical file formats
# ---------------------------------------------------------------------------

def load_citation(nodes_path, edges_path, splits_path=None):
    """Read the canonical nodes/edges/splits files into a Dataset.

    The edge file is read by ``read_edge_list`` and the interaction matrix
    built by ``from_weighted_edges``, as for every other edge file: it is
    divided by its largest absolute row sum, the maximum degree for
    unweighted edges.  Malformed rows (non-finite features and weights
    included), duplicate node ids, dangling edge endpoints, and
    overlapping splits each raise their own error type.
    """
    nodes_path, edges_path = Path(nodes_path), Path(edges_path)
    ids, labels, feats = [], [], []
    with nodes_path.open() as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:2] != ["id", "label"]:
            raise MalformedRowError(
                f"nodes header must start with 'id,label', got {header!r}")
        d = len(cols) - 2
        for line_no, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            parts = raw.strip().split(",")
            if len(parts) != d + 2:
                raise MalformedRowError(
                    f"{nodes_path.name}:{line_no}: expected {d + 2} fields, "
                    f"got {len(parts)}")
            try:
                ids.append(int(parts[0]))
                labels.append(int(parts[1]))
                feats.append(np.array(parts[2:], dtype=float))
            except ValueError as exc:
                raise MalformedRowError(
                    f"{nodes_path.name}:{line_no}: {exc}") from exc
    n = len(ids)
    if len(set(ids)) != n:
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateIdError(f"duplicate node ids: {dupes[:5]}")
    if sorted(ids) != list(range(n)):
        raise MalformedRowError("node ids must be exactly 0..n-1")

    X = np.empty((n, d))
    for node, row in zip(ids, feats):
        X[node] = row
    del feats  # the row arrays would otherwise live through edge parsing
    y = np.asarray(labels, dtype=np.int64)[np.argsort(ids)]
    # min and max propagate NaN and reach any infinity, and unlike
    # isfinite(X) they allocate no n x d temporary
    if not np.isfinite([X.min(initial=0.0), X.max(initial=0.0)]).all():
        node, col = np.argwhere(~np.isfinite(X))[0]
        raise MalformedRowError(
            f"{nodes_path.name}: node {node} feature {cols[2 + col]} is "
            f"{X[node, col]}, not a finite number")

    with Path(edges_path).open() as fh:
        edges = read_edge_list(fh)
    A = from_weighted_edges(edges, n)

    splits = {}
    if splits_path is not None:
        with Path(splits_path).open() as fh:
            doc = json.load(fh)
        splits = {k: np.array(v, dtype=np.int64) for k, v in doc.items()}
        validate_splits(splits, n)
    return Dataset(X=X, labels=y, A=A, splits=splits, edges=edges)


def save_citation(dataset, nodes_path, edges_path, splits_path=None):
    """Write a Dataset back to the canonical formats (load/save roundtrips
    byte-identically)."""
    n, d = dataset.X.shape
    lines = ["id,label," + ",".join(f"f{k + 1}" for k in range(d))]
    for i in range(n):
        feats = ",".join(repr(float(v)) for v in dataset.X[i])
        lines.append(f"{i},{int(dataset.labels[i])},{feats}")
    Path(nodes_path).write_text("\n".join(lines) + "\n")

    if dataset.edges is None:
        raise ValueError("dataset carries no edge list to save")
    Path(edges_path).write_text(write_edge_list(dataset.edges))

    if splits_path is not None:
        doc = {k: [int(i) for i in v] for k, v in dataset.splits.items()}
        Path(splits_path).write_text(json.dumps(doc) + "\n")
