"""Synthetic instance generation and citation-style dataset ingestion.

The file formats (``nodes.csv``, ``edges.txt``, ``splits.json``) and the
grammar of their cells are set out under "Data formats" in README.md.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DuplicateIdError, MalformedRowError, SplitError
from .interaction import (InteractionMatrix, from_weighted_edges, load_rows,
                          read_edge_list, write_edge_list)
from .ising import IsingModel, gibbs_sample

# the bound M on |h*| of a synthetic instance
FIELD_BOUND = 5.0
MAX_CLIP_FRACTION = 0.10
# train / val / test shares of every class in make_splits
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


@dataclass(eq=False)
class Dataset:
    """Features, labels, dependency structure, splits, optional truth.

    ``edges``, when present, is the (m, 3) float array of (i, j, weight)
    rows A was built from, as ``read_edge_list`` returns it and
    ``write_edge_list`` writes it.
    """

    X: np.ndarray
    labels: np.ndarray
    A: InteractionMatrix
    splits: dict = field(default_factory=dict)
    ground_truth: dict | None = None
    edges: np.ndarray | None = None

    @property
    def n(self):
        return len(self.labels)

    def summary(self):
        return {"classes": len(np.unique(self.labels)), "nodes": int(self.n),
                "edges": None if self.edges is None else len(self.edges),
                "features": int(self.X.shape[1])}


def gen_synthetic(A, d, theta_star=None, beta_star=0.0, features=None,
                  seed=0, burn_in=50):
    """Draw one synthetic dependent-labels instance on the interaction
    matrix ``A`` (n = ``A.n``).

    Features are ``features`` when given, i.i.d. standard Gaussian
    otherwise; the true field is the linear map h* = X theta* clipped to
    [-M, M] with M = :data:`FIELD_BOUND` (the clip count is recorded and a
    clip fraction above 10% aborts), and labels are one Gibbs sample of the
    spin model (A, h*, beta*).  Fully determined by ``seed``.
    """
    n = A.n
    rng = np.random.default_rng(seed)
    if features is None:
        X = rng.standard_normal((n, d))
    else:
        X = np.asarray(features, dtype=float)
        if X.shape != (n, d):
            raise ValueError("given features have the wrong shape")

    if theta_star is None:
        theta_star = rng.standard_normal(d)
        theta_star /= np.linalg.norm(theta_star)
    else:
        theta_star = np.asarray(theta_star, dtype=float)

    h_raw = X @ theta_star
    h = np.clip(h_raw, -FIELD_BOUND, FIELD_BOUND)
    clipped = int(np.sum(h != h_raw))
    if clipped > MAX_CLIP_FRACTION * n:
        raise ValueError(
            f"{clipped}/{n} fields clipped to [-{FIELD_BOUND}, {FIELD_BOUND}]: "
            "the bounded-field assumption is violated by this configuration")
    if clipped:
        warnings.warn(f"clipped {clipped} field entries to the bound",
                      stacklevel=2)

    model = IsingModel(A, h, beta_star)
    labels = gibbs_sample(model, 1, burn_in=burn_in,
                          seed=int(rng.integers(2 ** 62)))[0]
    return Dataset(
        X=X,
        labels=labels.astype(np.int64),
        A=A,
        ground_truth={"theta": theta_star, "beta": float(beta_star),
                      "clipped": clipped,
                      "gibbs": {"burn_in": burn_in}},
    )


def make_splits(labels, seed=0):
    """Disjoint, exhaustive, stratified train/val/test index sets in the
    fixed proportions :data:`SPLIT_FRACTIONS`.

    Each class is partitioned separately so class proportions carry
    over; remainders are assigned by a seeded shuffle.  A class
    with fewer than 3 members cannot be stratified and goes to train
    with a warning.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    parts = {"train": [], "val": [], "test": []}
    names = ("train", "val", "test")

    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        m = len(members)
        if m < 3:
            warnings.warn(f"class with {m} members assigned wholly to train",
                          stacklevel=2)
            parts["train"].extend(members.tolist())
            continue
        # largest-remainder counts are seed-independent; which members land
        # where follows the seeded shuffle above
        counts = [int(np.floor(f * m)) for f in SPLIT_FRACTIONS]
        leftovers = m - sum(counts)
        residuals = sorted(
            range(3), key=lambda k: (SPLIT_FRACTIONS[k] * m - counts[k], -k),
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
    with nodes_path.open() as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:2] != ["id", "label"]:
            raise MalformedRowError(
                f"nodes header must start with 'id,label', got {header!r}")
        row = np.dtype([("id", np.int64), ("label", np.int64),
                        ("x", np.float64, (len(cols) - 2,))])
        table, numbers = load_rows(fh, 2, f"{nodes_path.name}:", str.strip,
                                   dtype=row, delimiter=",", comments=None)
    n = len(table)
    uniq, counts = np.unique(table["id"], return_counts=True)
    if len(uniq) != n:
        raise DuplicateIdError(
            f"duplicate node ids: {uniq[counts > 1][:5].tolist()}")
    if not np.array_equal(uniq, np.arange(n)):
        raise MalformedRowError("node ids must be exactly 0..n-1")
    order = np.argsort(table["id"])
    # fancy indexing makes C-contiguous copies, so the table can be freed
    X, y = table["x"][order], table["label"][order]
    del table
    # min and max propagate NaN and reach any infinity, and unlike
    # isfinite(X) they allocate no n x d temporary
    if not np.isfinite([X.min(initial=0.0), X.max(initial=0.0)]).all():
        node, col = np.argwhere(~np.isfinite(X))[0]
        raise MalformedRowError(
            f"{nodes_path.name}:{numbers[order[node]]}: node {node} feature "
            f"{cols[2 + col]} is {X[node, col]}, not a finite number")

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
