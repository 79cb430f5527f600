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
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NumericalFailure

_POWER_ITER_MAX = 1000
_POWER_ITER_TOL = 1e-10
# largest |A_ij - A_ji| a CSR matrix may have
_SYMMETRY_TOL = 1e-12


class InteractionMatrix:
    """Immutable symmetric interaction matrix with cached norms.

    A CSR matrix is checked for symmetry entrywise, to within 1e-12, and
    rejected with ``ValueError`` otherwise.
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
            # the Gibbs sampler pushes A_ij * delta into the field of j,
            # which is the field change only when A_ji = A_ij
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
        self.frobenius, self.spectral, self.infinity = self._compute_norms()

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
        """0/1 adjacency of an undirected simple graph, divided by the
        maximum degree so the infinity norm is exactly 1.  Zero diagonal."""
        rows, cols = [], []
        seen = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at node {i} is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            rows += [i, j]
            cols += [j, i]
        if not seen:
            raise ValueError("empty edge set: maximum degree would be zero")
        data = np.ones(len(rows))
        adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        max_degree = adj.sum(axis=1).max()
        return InteractionMatrix(n, csr=adj / max_degree)

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

    def row_offdiag(self, i):
        """(indices, values) of the off-diagonal entries of row i."""
        if self._csr is not None:
            sl = slice(self._csr.indptr[i], self._csr.indptr[i + 1])
            idx = self._csr.indices[sl]
            vals = self._csr.data[sl]
            keep = idx != i
            return idx[keep], vals[keep]
        members = np.flatnonzero(self._block_labels == self._block_labels[i])
        members = members[members != i]
        return members, np.full(members.size, self._block_value)

    def dense(self, cap=4096):
        if self.n > cap:
            raise ValueError(f"dense form refused beyond n={cap}")
        if self._csr is not None:
            return self._csr.toarray()
        same = self._block_labels[:, None] == self._block_labels[None, :]
        return np.where(same, self._block_value, 0.0)

    # -- norms ----------------------------------------------------------

    def _compute_norms(self):
        if self._csr is not None:
            frob = float(np.sqrt(np.sum(self._csr.data ** 2)))
            inf = float(np.abs(self._csr).sum(axis=1).max()) if self._csr.nnz else 0.0
            if self._csr.nnz == 0:
                return 0.0, 0.0, 0.0
        else:
            v = self._block_value
            frob = float(abs(v) * np.sqrt(np.sum(self._block_sizes.astype(float) ** 2)))
            inf = float(abs(v) * self._block_sizes.max())
            # uniform blocks: top |eigenvalue| is value * largest block size
            return frob, inf, inf
        try:
            spec = _power_iteration_spectral(self.matvec, self.n)
        except NumericalFailure:
            # near-degenerate top eigenvalues (rings, long paths) stall the
            # fixed-budget power iteration; Lanczos resolves them
            spec = float(abs(sp.linalg.eigsh(
                self._csr, k=1, which="LM", tol=1e-12,
                v0=np.ones(self.n) / np.sqrt(self.n))[0][0]))
        return frob, spec, inf

    def norms(self):
        """(frobenius, spectral, infinity)."""
        return self.frobenius, self.spectral, self.infinity


def _power_iteration_spectral(matvec, n, max_iters=_POWER_ITER_MAX,
                              tol=_POWER_ITER_TOL, seed=0):
    """Largest |eigenvalue| of a symmetric operator by power iteration.

    Iterates on A^2 (symmetric PSD) so paired +/- eigenvalues cannot make
    the iteration oscillate; the estimate is sqrt of the top eigenvalue
    of A^2.  Deterministic seeded start vector.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(max_iters):
        y = matvec(matvec(x))
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            return 0.0
        new_est = np.sqrt(float(x @ y)) if x @ y > 0 else np.sqrt(norm_y)
        x = y / norm_y
        if abs(new_est - est) <= tol * max(1.0, new_est):
            return float(new_est)
        est = new_est
    raise NumericalFailure(
        f"power iteration did not converge in {max_iters} iterations")


def read_edge_list(lines):
    """Parse the text edge format: one ``i j [weight]`` per line, 0-indexed,
    whitespace separated, weight defaulting to 1.  Blank lines and lines
    starting with ``#`` are skipped.  Returns a list of (i, j, weight)."""
    edges = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {line_no}: expected 'i j [weight]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
        edges.append((i, j, w))
    return edges


def write_edge_list(edges):
    """Inverse of :func:`read_edge_list`; weight column omitted when 1."""
    out = []
    for i, j, w in edges:
        if w == 1.0:
            out.append(f"{i} {j}")
        else:
            out.append(f"{i} {j} {w!r}")
    return "\n".join(out) + "\n"


def from_weighted_edges(edges, n):
    """Symmetric matrix from (i, j, weight) triples; self-loops rejected."""
    rows, cols, data = [], [], []
    for i, j, w in edges:
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        rows += [i, j]
        cols += [j, i]
        data += [w, w]
    csr = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    csr.sum_duplicates()
    return InteractionMatrix(n, csr=csr)
