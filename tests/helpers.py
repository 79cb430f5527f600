"""Shared builders for randomized test instances."""

import numpy as np
import scipy.sparse as sp

from isingreg import InteractionMatrix, IsingModel
from isingreg.data import SparseFeatures
from isingreg.ising import _check_spins, scan_order
from isingreg.potts import log_softmax_rows, one_hot, softmax_rows


def random_symmetric_matrix(rng, n, zero_diag=True):
    """Dense symmetric matrix normalized to unit infinity norm."""
    m = rng.normal(size=(n, n))
    m = 0.5 * (m + m.T)
    if zero_diag:
        np.fill_diagonal(m, 0.0)
    m /= np.abs(m).sum(axis=1).max()
    return InteractionMatrix.from_dense(m)


def random_graph_matrix(rng, n, p=0.3):
    """Erdos-Renyi adjacency divided by max degree."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    if not edges:
        edges = [(0, 1)]
    return InteractionMatrix.from_adjacency(edges, n)


def random_model(rng, n, beta_scale=0.9, field_scale=1.0, graph=False):
    A = (random_graph_matrix(rng, n) if graph
         else random_symmetric_matrix(rng, n))
    h = rng.uniform(-field_scale, field_scale, size=n)
    beta = float(rng.uniform(-beta_scale, beta_scale))
    return IsingModel(A, h, beta)


def random_spins(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def enumeration_conditional(summary, state_index, i, n):
    """E[sigma_i | sigma_{-i}] read off the exact probability table."""
    flip = state_index ^ (1 << i)
    if (state_index >> i) & 1:
        p_plus, p_minus = summary.full_table[state_index], summary.full_table[flip]
    else:
        p_plus, p_minus = summary.full_table[flip], summary.full_table[state_index]
    return (p_plus - p_minus) / (p_plus + p_minus)


def _weighted_edges_matrix(rng, n=50):
    """Random weighted pairs, some repeated with different weights, the
    repeats summed and the matrix not normalized."""
    pairs = rng.integers(0, n, size=(120, 2))
    keep = pairs[:, 0] != pairs[:, 1]
    w = rng.uniform(-0.1, 0.1, size=120)[keep]
    i, j = pairs[keep].T
    csr = sp.csr_matrix((np.repeat(w, 2), (np.column_stack([i, j]).ravel(),
                                           np.column_stack([j, i]).ravel())),
                        shape=(n, n))
    return InteractionMatrix(n, csr=csr)


def _hub_matrix(rng, n=90):
    """Nonzero diagonal, so a flip runs the diagonal correction, and one
    full hub row among short rows."""
    m = np.zeros((n, n))
    rows, cols = rng.integers(0, n, size=(2, 2 * n))
    m[rows, cols] = rng.normal(size=2 * n)
    m[0, :] = rng.normal(size=n)
    m = m + m.T
    np.fill_diagonal(m, rng.uniform(0.1, 0.5, size=n))
    m /= np.abs(m).sum(axis=1).max()
    return InteractionMatrix.from_dense(m)


REFERENCE_MATRICES = {
    "block_r1": lambda rng: InteractionMatrix.curie_weiss(60),
    "block_r4": lambda rng: InteractionMatrix.block_partition(60, 4),
    "adjacency": lambda rng: random_graph_matrix(rng, 40, p=0.1),
    "weighted_edges": _weighted_edges_matrix,
    "dense_hub_diagonal": _hub_matrix,
    # every colour class is one site
    "dense_complete": lambda rng: random_symmetric_matrix(rng, 12),
}


def reference_gibbs_sample(model, count, burn_in=50, thin=5, seed=0,
                           initial=None):
    """Reference for ``gibbs_sample``, one scalar draw per ``rng`` call.

    A sweep visits the sites in scan order, one at a time.
    ``gibbs_sample`` draws each sweep's uniforms at once, runs block
    matrices on Python scalars and updates each colour class of a CSR
    matrix at once, and must produce the same bytes.
    """
    n = model.n
    rng = np.random.default_rng(seed)
    if initial is None:
        sigma = rng.integers(0, 2, size=n) * 2 - 1
    else:
        sigma = _check_spins(initial, n).astype(np.int64)
    sigma = sigma.astype(np.int64)

    beta, h = model.beta, model.h
    out = np.empty((count, n), dtype=np.int8)
    labels = model.A._block_labels

    if labels is not None:
        value = model.A._block_value
        nblocks = len(model.A._block_sizes)
        block_sum = np.bincount(labels, weights=sigma, minlength=nblocks)

        def run_sweep():
            for i in range(n):
                b = labels[i]
                field = value * (block_sum[b] - sigma[i])
                p_plus = 0.5 * (1.0 + np.tanh(beta * field + h[i]))
                new = 1 if rng.random() < p_plus else -1
                if new != sigma[i]:
                    block_sum[b] += new - sigma[i]
                    sigma[i] = new
    else:
        csr = model.A._csr
        indptr, indices, data = csr.indptr, csr.indices, csr.data
        g = model.A.local_field(sigma)
        diag = model.A.diagonal()
        order = scan_order(model.A)[0]

        def run_sweep():
            for i in order:
                p_plus = 0.5 * (1.0 + np.tanh(beta * g[i] + h[i]))
                new = 1 if rng.random() < p_plus else -1
                if new != sigma[i]:
                    delta = new - sigma[i]
                    sl = slice(indptr[i], indptr[i + 1])
                    g[indices[sl]] += data[sl] * delta
                    g[i] -= diag[i] * delta
                    sigma[i] = new

    for _ in range(burn_in):
        run_sweep()
    for k in range(count):
        if k > 0:
            for _ in range(thin):
                run_sweep()
        out[k] = sigma
    return out


def reference_gibbs_sample_potts(A, X, model, beta, count, burn_in=50,
                                 thin=5, seed=0):
    """Reference for ``gibbs_sample_potts``: the same scan order, one site
    at a time, with one ``rng.random()`` call per visit, neighbour label
    counts kept up to date on each flip, and each draw by
    ``np.searchsorted``.

    ``gibbs_sample_potts`` draws each sweep's uniforms at once and
    resamples each colour class at once, and must produce the same bytes.
    """
    K = model.n_outputs
    n = A.n
    rng = np.random.default_rng(seed)
    y = rng.integers(0, K, size=n)
    fields = model.eval(np.asarray(X, dtype=float))
    csr = A._csr
    neighbours = []
    for i in range(n):
        sl = slice(csr.indptr[i], csr.indptr[i + 1])
        keep = csr.indices[sl] != i
        neighbours.append((csr.indices[sl][keep], csr.data[sl][keep]))
    counts = np.zeros((n, K))
    for i, (idx, vals) in enumerate(neighbours):
        np.add.at(counts[i], y[idx], vals)
    order = scan_order(A)[0]
    out = np.empty((count, n), dtype=np.int64)

    def run_sweep():
        for i in order:
            z = fields[i] + beta * counts[i]
            cum = np.cumsum(np.exp(z - z.max()))
            new = int(np.searchsorted(cum, rng.random() * cum[-1]))
            old = y[i]
            if new != old:
                idx, vals = neighbours[i]
                counts[idx, old] -= vals
                counts[idx, new] += vals
                y[i] = new

    for _ in range(burn_in):
        run_sweep()
    for k in range(count):
        if k > 0:
            for _ in range(thin):
                run_sweep()
        out[k] = y
    return out


def reference_potts_objective_grad(problem, theta_flat, beta):
    """Reference for ``potts_objective_grad``: the field model over all n
    rows of X, with the rows outside ``problem.sites`` zeroed before the
    pullback.

    ``potts_objective_grad`` evaluates only the ``sites`` rows; it sums the
    same terms in another order and must agree to rounding.
    """
    model = problem.model.with_flat(np.asarray(theta_flat, dtype=float))
    z = model.eval(problem.X) + beta * problem.counts
    sites = problem.sites
    log_p = log_softmax_rows(z[sites])
    y_s = problem.y[sites]
    value = float(-log_p[np.arange(len(sites)), y_s].sum())

    upstream = np.zeros_like(z)
    upstream[sites] = softmax_rows(z[sites]) - one_hot(y_s, problem.K)
    grad_theta = model.flatten_grad(model.param_grad(problem.X, upstream))
    grad_beta = float(np.sum(upstream[sites] * problem.counts[sites]))
    return value, grad_theta, grad_beta


def canonical_csr(X):
    """X.toarray() of a feature matrix read from a nodes file, after
    checking that X is canonical CSR that reports its bytes: float64 data,
    strictly ascending columns in each row and no stored zeros."""
    assert isinstance(X, SparseFeatures)
    assert X.data.dtype == np.float64 and X.has_canonical_format
    assert X.indptr.dtype == X.indices.dtype
    assert X.indptr[0] == 0 and X.indptr[-1] == X.nnz
    assert (np.diff(X.indptr) >= 0).all() and (X.data != 0).all()
    for i in range(X.shape[0]):
        cols = X.indices[X.indptr[i]:X.indptr[i + 1]]
        assert (np.diff(cols) > 0).all() and (cols < X.shape[1]).all()
    assert X.nbytes == X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    return X.toarray()
