"""Shared builders for randomized test instances."""

import numpy as np

from isingreg import InteractionMatrix, IsingModel
from isingreg.ising import _check_spins
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


def reference_gibbs_sample(model, count, burn_in=50, thin=5, seed=0,
                           initial=None):
    """Reference for ``gibbs_sample``: the same systematic scan with
    per-site numpy scalars and one ``rng.random()`` call per visit.

    ``gibbs_sample`` runs this arithmetic on Python scalars with each
    sweep's uniforms drawn at once, and must produce the same bytes.
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

    if model.A._block_labels is not None:
        labels = model.A._block_labels
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

        def run_sweep():
            for i in range(n):
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
