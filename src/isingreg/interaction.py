"""Symmetric interaction matrices: construction, norms, and local fields.

The dependency structure between observations is a known symmetric n x n
matrix A, normalized so that its infinity norm (maximum absolute row sum)
is 1.  Two storage backends are supported:

* a scipy CSR matrix for general sparse graphs (adjacency-derived), and
* a uniform-block form for partition matrices, where every entry inside a
  block equals a single value.  This keeps Curie-Weiss-style dense
  matrices O(n) instead of O(n^2) and gives O(1) Gibbs updates.

Block matrices store the constant value on the diagonal as well (so row
sums come out exactly 1), which only shifts the energy of the spin model
by a constant.  Every conditional-law computation therefore works with
the *off-diagonal* local field ``local_field``; matrix-analytic
quantities (norms, ``matvec``) use the full stored entries.

Every edge list, from a file or from code, becomes a matrix through
:func:`from_weighted_edges`: a pair listed more than once counts once,
and the matrix is divided by its largest absolute row sum.  The text
format, one ``i j [weight]`` per line, is read by :func:`read_edge_list`
only.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import scipy.sparse as sp

from .errors import DanglingEdgeError, MalformedRowError

# largest n that ``InteractionMatrix.dense`` materializes
DENSE_CAP = 4096
# largest |A_ij - A_ji| a CSR matrix may have
_SYMMETRY_TOL = 1e-12


class InteractionMatrix:
    """Immutable symmetric interaction matrix with cached norms.

    A CSR matrix is checked for symmetry entrywise, to within 1e-12, and
    rejected with ``ValueError`` otherwise.  The Frobenius and infinity
    norms are computed on construction; the spectral norm on first read.
    """

    def __init__(self, n, csr=None, block_labels=None, block_value=None):
        if n <= 0:
            raise ValueError("node count must be positive")
        self.n = int(n)
        self._csr = None
        self._block_labels = None
        self._block_value = None
        if csr is not None:
            csr = sp.csr_matrix(csr, dtype=float)
            if csr.shape != (n, n):
                raise ValueError("matrix shape does not match node count")
            csr.sum_duplicates()
            # the Gibbs samplers read site i's conditional off row i, which
            # is the conditional of the energy only when A_ji = A_ij
            asym = abs(csr - csr.T)
            if asym.nnz and asym.max() > _SYMMETRY_TOL:
                raise ValueError("matrix is not symmetric")
            self._csr = csr
        elif block_labels is not None:
            labels = np.asarray(block_labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError("block labels must have length n")
            self._block_labels = labels
            self._block_value = float(block_value)
            self._block_sizes = np.bincount(labels)
        else:
            raise ValueError("need either a CSR matrix or a block description")
        self.frobenius, self.infinity = self._compute_norms()

    # -- construction -------------------------------------------------

    @staticmethod
    def block_partition(n, r):
        """Partition ``n`` nodes into ``r`` contiguous blocks of size n/r
        and set every entry inside a block (diagonal included) to r/n.

        Row sums are exactly 1 and the squared Frobenius norm is exactly r.
        ``r = 1`` gives the Curie-Weiss matrix of all 1/n entries.
        """
        if n <= 0:
            raise ValueError("node count must be positive")
        if r <= 0 or n % r != 0:
            raise ValueError("block count must be positive and divide n")
        size = n // r
        labels = np.repeat(np.arange(r), size)
        return InteractionMatrix(n, block_labels=labels, block_value=r / n)

    @staticmethod
    def curie_weiss(n):
        """The all-(1/n) matrix."""
        return InteractionMatrix.block_partition(n, 1)

    @staticmethod
    def from_adjacency(edges, n):
        """0/1 adjacency of an undirected graph: :func:`from_weighted_edges`
        with unit weights, so divided by the maximum degree."""
        pairs = np.asarray(edges, dtype=float)
        return from_weighted_edges(np.c_[pairs, np.ones(len(pairs))], n)

    @staticmethod
    def from_dense(matrix):
        """Wrap a dense symmetric array."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        return InteractionMatrix(m.shape[0], csr=sp.csr_matrix(m))

    # -- linear maps ---------------------------------------------------

    def matvec(self, v):
        """A @ v using all stored entries, diagonal included."""
        v = np.asarray(v, dtype=float)
        if self._csr is not None:
            return self._csr @ v
        sums = np.bincount(self._block_labels, weights=v,
                           minlength=len(self._block_sizes))
        return self._block_value * sums[self._block_labels]

    def diagonal(self):
        if self._csr is not None:
            return self._csr.diagonal()
        return np.full(self.n, self._block_value)

    def local_field(self, sigma):
        """Off-diagonal row sums (A sigma)_i with j != i.

        ``sigma`` may be any real vector of length n; spin vectors are the
        common case but the map is linear in its argument.
        """
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (self.n,):
            raise ValueError("vector length does not match node count")
        return self.matvec(sigma) - self.diagonal() * sigma

    def local_field_many(self, states):
        """Row-wise ``local_field`` for a (m, n) batch of vectors."""
        states = np.asarray(states, dtype=float)
        if self._csr is not None:
            full = states @ self._csr.T
        else:
            sums = np.zeros((states.shape[0], len(self._block_sizes)))
            np.add.at(sums.T, self._block_labels, states.T)
            full = self._block_value * sums[:, self._block_labels]
        return full - self.diagonal() * states

    def dense(self):
        if self.n > DENSE_CAP:
            raise ValueError(f"dense form refused beyond n={DENSE_CAP}")
        if self._csr is not None:
            return self._csr.toarray()
        same = self._block_labels[:, None] == self._block_labels[None, :]
        return np.where(same, self._block_value, 0.0)

    # -- norms ----------------------------------------------------------

    def _compute_norms(self):
        if self._csr is not None:
            if self._csr.nnz == 0:
                return 0.0, 0.0
            frob = float(np.sqrt(np.sum(self._csr.data ** 2)))
            inf = float(np.abs(self._csr).sum(axis=1).max())
            return frob, inf
        v = self._block_value
        frob = float(abs(v) * np.sqrt(np.sum(self._block_sizes.astype(float) ** 2)))
        return frob, float(abs(v) * self._block_sizes.max())

    @functools.cached_property
    def spectral(self):
        """Largest |eigenvalue|, by Lanczos (ARPACK) on first read."""
        if self._csr is None:
            # uniform blocks: top |eigenvalue| is value * largest block size
            return self.infinity
        if self._csr.nnz == 0:
            return 0.0
        if self.n == 1:
            # ARPACK needs k < n; a 1 x 1 matrix is its own eigenvalue
            return self.frobenius
        top = sp.linalg.eigsh(self._csr, k=1, which="LM", tol=1e-12,
                              v0=np.ones(self.n) / np.sqrt(self.n),
                              return_eigenvectors=False)
        return float(abs(top[0]))

    def norms(self):
        """(frobenius, spectral, infinity)."""
        return self.frobenius, self.spectral, self.infinity


def load_rows(lines, start, where, row, **loadtxt_args):
    """Parse ``lines``, numbered from ``start``, with one ``np.loadtxt`` call
    over ``row(line)`` of each line whose ``row`` is not empty; returns the
    rows (empty when there are none) and their line numbers.  loadtxt reads
    an iterator one line at a time, so its ``ValueError`` is about the last
    line read: ``MalformedRowError("<where><line>: ...")``.
    """
    numbers = []

    def rows():
        for line_no, raw in enumerate(lines, start):
            if text := row(raw):
                numbers.append(line_no)
                yield text

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data"
            return np.loadtxt(rows(), ndmin=1, **loadtxt_args), numbers
    except ValueError as exc:
        # loadtxt's own row index skips blank lines and the header
        reason = str(exc).split(" at row ")[0]
        raise MalformedRowError(f"{where}{numbers[-1]}: " + reason.replace(
            "the dtype passed requires", "expected")) from exc


def _edge_row(raw):
    """The row to parse, weight 1 added when missing; None to skip."""
    parts = raw.split()
    if not parts or parts[0].startswith("#"):
        return None
    return f"{parts[0]} {parts[1]} 1" if len(parts) == 2 else raw


def read_edge_list(lines):
    """Parse the text edge format: one ``i j [weight]`` per line, 0-indexed,
    whitespace separated, weight defaulting to 1.  Blank lines and lines
    starting with ``#`` are skipped.  Returns an (m, 3) float array of
    (i, j, weight) rows; a line that does not parse, or whose weight is not
    finite, raises ``MalformedRowError`` naming its line number."""
    table, numbers = load_rows(lines, 1, "line ", _edge_row, comments=None,
                               dtype=[("i", np.int64), ("j", np.int64),
                                      ("w", np.float64)])
    w = table["w"]
    if not np.isfinite(w).all():
        k = np.argmax(~np.isfinite(w))
        raise MalformedRowError(
            f"line {numbers[k]}: weight {w[k]} is not a finite number")
    return np.column_stack([table["i"], table["j"], w])


def write_edge_list(edges):
    """Inverse of :func:`read_edge_list`; weight column omitted when 1."""
    rows = (f"{int(i)} {int(j)}" + ("" if w == 1.0 else f" {float(w)!r}")
            for i, j, w in edges)
    return "\n".join(rows) + "\n"


def from_weighted_edges(edges, n):
    """The interaction matrix of an undirected weighted edge list.

    ``edges`` holds (i, j, weight) rows, as the (m, 3) array that
    :func:`read_edge_list` returns.  A pair listed more than once, in
    either order, counts once.  A self-loop, a repeat with a different
    weight, a non-finite weight, an endpoint that is not a finite integer
    and an empty or all-zero edge set raise ``ValueError``; an endpoint
    outside 0..n-1 raises ``DanglingEdgeError``.  The symmetric matrix is
    divided by its largest absolute row sum (the maximum degree for 0/1
    weights), so its infinity norm is 1.
    """
    e = np.asarray(edges, dtype=float)
    if e.size == 0:
        raise ValueError("empty edge set: maximum degree would be zero")
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError("edges must be (i, j, weight) rows")
    ends, w = e[:, :2], e[:, 2]
    whole = (np.isfinite(ends) & (ends == np.trunc(ends))).all(axis=1)
    if not whole.all():
        k = np.argmin(whole)
        raise ValueError(f"edge row {k} has endpoints {float(ends[k, 0])} "
                         f"and {float(ends[k, 1])}, not finite integers")
    if not np.isfinite(w).all():
        raise ValueError("edge weights must be finite")
    bad = ((ends < 0) | (ends >= n)).any(axis=1)
    if bad.any():
        i, j = map(int, ends[np.argmax(bad)])
        raise DanglingEdgeError(
            f"edge ({i},{j}) references a node outside 0..{n - 1}")
    i, j = ends.T.astype(np.int64)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    loop = lo == hi
    if loop.any():
        raise ValueError(
            f"self-loop at node {lo[np.argmax(loop)]} is not allowed")

    # sort by pair, then weight: repeats of a pair become neighbours, and
    # a repeat that disagrees differs from the entry before it
    key = lo * n + hi
    order = np.lexsort((w, key))
    key, w = key[order], w[order]
    repeat = key[1:] == key[:-1]
    clash = repeat & (w[1:] != w[:-1])
    if clash.any():
        k = np.argmax(clash)
        raise ValueError(f"edge ({key[k] // n},{key[k] % n}) is listed with "
                         f"weights {w[k]} and {w[k + 1]}")
    first = np.concatenate([[True], ~repeat])
    key, w = key[first], w[first]
    lo, hi = key // n, key % n

    scale = np.max(np.bincount(lo, np.abs(w), minlength=n)
                   + np.bincount(hi, np.abs(w), minlength=n))
    if scale == 0.0:
        raise ValueError("every edge weight is zero: nothing to normalize")
    csr = sp.csr_matrix((np.concatenate([w, w]) / scale,
                         (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
                        shape=(n, n))
    return InteractionMatrix(n, csr=csr)
