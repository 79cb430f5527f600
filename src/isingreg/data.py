"""Synthetic instance generation and citation-style dataset ingestion.

The file formats (``nodes.csv``, ``edges.txt``, ``splits.json``) and the
grammar of their cells are set out under "Data formats" in README.md.
"""

from __future__ import annotations

import functools
import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from . import interaction
from .errors import DuplicateIdError, MalformedRowError, SplitError
from .interaction import (InteractionMatrix, from_weighted_edges,
                          read_edge_list, write_edge_list)
from .ising import DEFAULT_BURN_IN, IsingModel, _exact_coupling, gibbs_sample
from .models import dense_design

# the bound M on |h*| of a synthetic instance
FIELD_BOUND = 5.0
MAX_CLIP_FRACTION = 0.10
# train / val / test shares of every class in make_splits
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)

# bytes of a nodes file the byte scan reads at a time; its temporaries are a
# few times this size, so it bounds their share of the reader's peak memory
SCAN_CHUNK = 1 << 18
# the bytes of a nodes file body in the scanned spelling
_SPELLING = b"0123456789.-,\ne+"
# the scanned spelling of a feature that float() reads: repr writes a
# float below 1e-4 or from 1e16 up with an exponent
_FLOAT = re.compile(rb"-?\d+(\.\d+)?(e[-+]?\d+)?")
# a mantissa of at most 18 digits fits int64.  Up to _LEADING_ZEROS zeros
# before a cell's first nonzero digit do not count towards them: repr
# writes a float as 0.000ddd... before it turns to an exponent.
_MAX_DIGITS = 18
_LEADING_ZEROS = 4
_MAX_CHARS = _MAX_DIGITS + _LEADING_ZEROS + 2  # a minus and a point more
# a mantissa of at most 2**53 is an exact double, and so is 10**k for
# k <= 22, so m / 10**k is correctly rounded
_EXACT_MANTISSA = 2 ** 53
_POW10 = np.array([float(10 ** k) for k in range(_MAX_CHARS - 1)])
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


class SparseFeatures(sparse.csr_array):
    """A CSR feature matrix that reports ``nbytes``, the bytes of its
    ``data``, ``indices`` and ``indptr``, as a dense array does.

    Row indexing and ``copy`` keep the class.  ``T`` is built once and
    kept: a transpose shares the three arrays, but scipy checks them again
    on every call, which is most of the cost of a small product like
    ``X.T @ upstream``.  The matrix must not be changed in place.
    """

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    @functools.cached_property
    def T(self):
        return self.transpose()


@dataclass(eq=False)
class Dataset:
    """Features, labels, dependency structure, splits, optional truth.

    ``X`` is n x d: a :class:`SparseFeatures` CSR matrix when read from a
    nodes file, a dense array when drawn (``gen_synthetic``,
    ``harness.planted_potts_dataset``).  ``edges``, when present, is the
    (m, 3) float array of (i, j, weight) rows A was built from, as
    ``read_edge_list`` returns it and ``write_edge_list`` writes it.
    """

    X: np.ndarray | SparseFeatures
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
                  seed=0):
    """Draw one synthetic dependent-labels instance on the interaction
    matrix ``A`` (n = ``A.n``).

    Features are ``features`` when given, i.i.d. standard Gaussian
    otherwise; the true field is the linear map h* = X theta* clipped to
    [-M, M] with M = :data:`FIELD_BOUND` (the clip count is recorded and a
    clip fraction above 10% aborts), and labels are one
    :func:`isingreg.ising.gibbs_sample` draw of the spin model
    (A, h*, beta*): an exact draw on the block models it draws exactly,
    else the state after :data:`isingreg.ising.DEFAULT_BURN_IN` sweeps.
    ``ground_truth["gibbs"]`` records which.  Fully determined by
    ``seed``.
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
    labels = gibbs_sample(model, 1, seed=int(rng.integers(2 ** 62)))[0]
    gibbs = ({"exact": True} if _exact_coupling(model) is not None
             else {"burn_in": DEFAULT_BURN_IN})
    return Dataset(
        X=X,
        labels=labels.astype(np.int64),
        A=A,
        ground_truth={"theta": theta_star, "beta": float(beta_star),
                      "clipped": clipped,
                      "gibbs": gibbs},
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
        if np.unique(idx).size != idx.size:
            raise SplitError(f"split {name!r} repeats a node")
        if np.any(seen[idx]):
            raise SplitError(f"split {name!r} overlaps another split")
        seen[idx] = True


# ---------------------------------------------------------------------------
# canonical file formats
# ---------------------------------------------------------------------------

def _decimals(buf, starts):
    """(mantissa, decimals, negative) of the cell that starts at each of
    ``starts`` and runs to the next comma or newline, when every one is
    spelled ``-?\\d+(\\.\\d+)?`` with at most 18 digits, not counting
    up to four zeros before its first nonzero digit; None otherwise.
    Those cells hold only digits, points and minus signs, each is followed
    by a comma or a newline, and ``buf`` ends in a newline."""
    count = len(starts)
    mantissa = np.zeros(count, dtype=np.int64)
    lengths, digits, leading, points, at = (np.zeros(count, dtype=np.int64)
                                            for _ in range(5))
    inside = np.ones(count, dtype=bool)
    # one pass per character position, over the cells still that long
    for j in range(_MAX_CHARS + 1):
        chars = buf.take(starts + j, mode="clip")
        inside &= chars > ord(",")  # the delimiters sort below the rest
        if j == _MAX_CHARS or not inside.any():
            break
        value = chars - np.uint8(ord("0"))  # a point or minus wraps above 9
        digit = inside & (value < 10)
        point = inside & (chars == ord("."))
        np.multiply(mantissa, 10, out=mantissa, where=digit)
        np.add(mantissa, value, out=mantissa, where=digit)
        np.add(at, j, out=at, where=point)
        lengths += inside
        digits += digit
        leading += digit & (mantissa == 0)
        points += point
    negative = buf[starts] == ord("-")
    cap = _MAX_DIGITS + np.where(leading <= _LEADING_ZEROS, leading, 0)
    # what is neither digit nor point is a minus, and only the first byte
    # may be one; a point needs a digit on either side
    if inside.any() or ((lengths - digits - points != negative) | (points > 1)
                        | (digits == 0) | (digits > cap)
                        | ((points == 1)
                           & ((at <= negative) | (at >= lengths - 1)))).any():
        return None
    return mantissa, np.where(points == 1, lengths - 1 - at, 0), negative


def _floats(raw, firsts, ends):
    """``float`` of each ``raw[first:end]``; NaN where a text is not in the
    scanned spelling or reads as no finite number."""
    texts = [raw[i:j] for i, j in zip(firsts.tolist(), ends.tolist())]
    values = np.array([float(t) if _FLOAT.fullmatch(t) else np.nan
                       for t in texts], dtype=float)
    values[~np.isfinite(values)] = np.nan
    return values


class _Ranks:
    """How many entries of a boolean array are set before each position,
    from a running count over its packed bytes."""

    def __init__(self, mask):
        self.bits = np.packbits(mask, bitorder="little")
        self.before = np.zeros(len(self.bits) + 1, dtype=np.int64)
        np.cumsum(_POPCOUNT[self.bits], out=self.before[1:])

    def __call__(self, at):
        # bit i of packed byte b is entry 8b + i
        low = self.bits[at >> 3] & ((1 << (at & 7)) - 1)
        return self.before[at >> 3] + _POPCOUNT[low]


def _scan_nodes(raw):
    """(header cells, ids, labels, X, None) of the nodes file bytes ``raw``
    when every cell is in the common spelling, X a CSR
    :class:`SparseFeatures`; None otherwise.

    The spelling is an ASCII header, then rows of exactly d + 2 cells,
    each row ending in ``\\n``, with no blank line; ids and labels are
    ``-?\\d+`` and features ``-?\\d+(\\.\\d+)?``, each of at most 18
    digits besides up to four leading zeros, or a finite
    ``-?\\d+(\\.\\d+)?e[-+]?\\d+``: every float as ``repr`` writes it.
    The file is read in row chunks of about :data:`SCAN_CHUNK` bytes: numpy
    comparisons find every delimiter, a cell that is exactly ``0`` is
    skipped, and each other feature whose digits read as an integer
    m <= 2**53 is m / 10**k; the rest go through ``float``.  Both are
    correctly rounded, as ``np.loadtxt`` is.
    Each chunk keeps its nonzero features' values, columns and count per
    row, and X is assembled from them once, so no n x d array is made.
    """
    end = raw.find(b"\n")
    if end < 0 or not raw.endswith(b"\n") or b"\r" in raw[:end]:
        return None
    try:
        cols = raw[:end].decode("ascii").strip().split(",")
    except UnicodeDecodeError:
        return None
    n, width = raw.count(b"\n") - 1, len(cols)
    # deleting the spelling's bytes leaves the header's other bytes only
    # when the body has no others
    if cols[:2] != ["id", "label"] or n == 0 or raw.translate(
            None, _SPELLING) != raw[:end].translate(None, _SPELLING):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    heads = np.zeros((n, 2), dtype=np.int64)
    data, indices, counts = [], [], []
    pos, row = end + 1, 0
    while pos < len(raw):
        stop = raw.rfind(b"\n", pos, pos + SCAN_CHUNK) + 1
        if stop <= pos:  # a row longer than a chunk
            stop = raw.find(b"\n", pos + SCAN_CHUNK) + 1
        chunk = buf[pos:stop]
        newline = chunk == ord("\n")
        delim = newline | (chunk == ord(","))
        # byte i opens a cell: the chunk starts after a newline.  A
        # delimiter that opens a cell ends an empty one.
        opens = np.empty_like(delim)
        opens[0] = True
        opens[1:] = delim[:-1]
        if (delim & opens).any():
            return None
        ranks = _Ranks(delim)
        # the k-th newline is the (k + 1)(d + 2)-th delimiter, and the chunk
        # ends in a newline: each row has d + 2 cells
        line_ends = np.flatnonzero(newline)
        rows = len(line_ends)
        if (ranks(line_ends) != np.arange(1, rows + 1) * width - 1).any():
            return None
        # a cell spelled exactly "0" is a '0' between two delimiters
        zero = (chunk == ord("0")) & opens
        zero[:-1] &= delim[1:]
        starts = np.flatnonzero(opens & ~zero)
        cells = ranks(starts)
        r, c = np.divmod(cells, width)
        # a cell with an 'e' or a '+' must be in repr's exponent spelling
        marks = np.flatnonzero((chunk == ord("e")) | (chunk == ord("+")))
        spelled = np.isin(cells, ranks(marks))
        plain = ~spelled
        parsed = _decimals(chunk, starts[plain])
        if parsed is None or (c[spelled] < 2).any():
            return None
        mantissa, k, negative = parsed
        head = c[plain] < 2
        if k[head].any():
            return None
        ints = np.where(negative[head], -mantissa[head], mantissa[head])
        heads[row + r[plain][head], c[plain][head]] = ints
        values = np.empty(len(starts))
        quotients = mantissa / _POW10[k]
        np.negative(quotients, out=quotients, where=negative)
        values[plain] = quotients
        # float() reads what m / 10**k cannot: an exponent or m > 2**53
        slow = spelled.copy()
        slow[plain] = mantissa > _EXACT_MANTISSA
        if slow.any():
            ends = np.flatnonzero(delim)[cells[slow]]
            values[slow] = _floats(raw, pos + starts[slow], pos + ends)
            if np.isnan(values[slow]).any():
                return None
        # a feature that reads as zero ("-0", "0.00") is not stored
        feat = (c >= 2) & (values != 0)
        data.append(values[feat])
        # cells come in file order, so each row's columns ascend
        indices.append((c[feat] - 2).astype(np.int32))
        counts.append(np.bincount(r[feat], minlength=rows))
        pos, row = stop, row + rows
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    index = np.int32 if indptr[-1] < 2 ** 31 else np.int64
    X = SparseFeatures((np.concatenate(data), np.concatenate(indices),
                        indptr.astype(index)), shape=(n, width - 2))
    return cols, heads[:, 0], heads[:, 1], X, None


def _load_node_rows(path):
    """(header cells, ids, labels, X, line numbers) of any nodes file, by
    ``load_rows``, which raises ``MalformedRowError`` naming the line of a
    refused cell or row."""
    with path.open() as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:2] != ["id", "label"]:
            raise MalformedRowError(
                f"nodes header must start with 'id,label', got {header!r}")
        row = np.dtype([("id", np.int64), ("label", np.int64),
                        ("x", np.float64, (len(cols) - 2,))])
        # looked up on the module, so that one patch of load_rows reaches
        # both text readers
        table, numbers = interaction.load_rows(
            fh, 2, f"{path.name}:", str.strip, dtype=row, delimiter=",",
            comments=None)
    return cols, table["id"], table["label"], table["x"], numbers


def load_citation(nodes_path, edges_path, splits_path=None):
    """Read the canonical nodes/edges/splits files into a Dataset.

    X is a CSR :class:`SparseFeatures` with float64 data, sorted column
    indices and no stored zeros (so ``-0`` reads as 0).  A nodes file in
    the common spelling (plain decimals, ``\\n`` line ends, see
    ``_scan_nodes``) is read by a byte scan; any other goes to
    ``load_rows``, which gives the same X and labels bit for bit and is the
    one parser that names the line of a malformed row.  The edge file is
    read by ``read_edge_list`` and the interaction matrix built by
    ``from_weighted_edges``, as for every other edge file: it is divided by
    its largest absolute row sum, the maximum degree for unweighted edges.
    Malformed rows (non-finite features and weights included), duplicate
    node ids, dangling edge endpoints, and splits that overlap or are not
    a JSON object of integer arrays each raise their own error type.
    """
    nodes_path, edges_path = Path(nodes_path), Path(edges_path)
    cols, ids, y, X, numbers = (_scan_nodes(nodes_path.read_bytes())
                                or _load_node_rows(nodes_path))
    n = len(ids)
    uniq, counts = np.unique(ids, return_counts=True)
    if len(uniq) != n:
        raise DuplicateIdError(
            f"duplicate node ids: {uniq[counts > 1][:5].tolist()}")
    if not np.array_equal(uniq, np.arange(n)):
        raise MalformedRowError("node ids must be exactly 0..n-1")
    order = np.argsort(ids)
    if not np.array_equal(ids, uniq):
        X = X[order]
    y = y[order]
    del ids
    # a scanned X holds finite numbers only, so the row parser, which gives
    # the line numbers, is the one that can read inf or nan.  min and max
    # propagate NaN and reach any infinity, and unlike isfinite(X) they
    # allocate no n x d temporary.
    if numbers is not None:
        if not np.isfinite([X.min(initial=0.0), X.max(initial=0.0)]).all():
            node, col = np.argwhere(~np.isfinite(X))[0]
            raise MalformedRowError(
                f"{nodes_path.name}:{numbers[order[node]]}: node {node} "
                f"feature {cols[2 + col]} is {X[node, col]}, not a finite "
                "number")
        X = SparseFeatures(X)

    with Path(edges_path).open() as fh:
        edges = read_edge_list(fh)
    A = from_weighted_edges(edges, n)

    splits = {}
    if splits_path is not None:
        with Path(splits_path).open() as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise SplitError("the splits file is not a JSON object of splits")
        for name, idx in doc.items():
            # bool is an int subclass; 1.5 would truncate to node 1
            if not (isinstance(idx, list)
                    and all(type(i) is int for i in idx)):
                raise SplitError(f"split {name!r} is not an array of "
                                 "integer node ids")
            try:
                splits[name] = np.array(idx, dtype=np.int64)
            except OverflowError:
                raise SplitError(f"split {name!r} references nodes outside "
                                 f"0..{n - 1}") from None
        validate_splits(splits, n)
    return Dataset(X=X, labels=y, A=A, splits=splits, edges=edges)


def save_citation(dataset, nodes_path, edges_path, splits_path=None):
    """Write a Dataset back to the canonical formats (load/save roundtrips
    byte-identically).  A sparse X is written dense, zeros as ``0.0``."""
    X = dense_design(dataset.X)
    n, d = X.shape
    lines = ["id,label," + ",".join(f"f{k + 1}" for k in range(d))]
    for i in range(n):
        feats = ",".join(repr(float(v)) for v in X[i])
        lines.append(f"{i},{int(dataset.labels[i])},{feats}")
    Path(nodes_path).write_text("\n".join(lines) + "\n")

    if dataset.edges is None:
        raise ValueError("dataset carries no edge list to save")
    Path(edges_path).write_text(write_edge_list(dataset.edges))

    if splits_path is not None:
        doc = {k: [int(i) for i in v] for k, v in dataset.splits.items()}
        Path(splits_path).write_text(json.dumps(doc) + "\n")
