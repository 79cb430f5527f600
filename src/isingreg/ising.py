"""Binary spin model: conditional laws, exact enumeration, Gibbs sampling.

The joint law over sigma in {-1,+1}^n is

    P[sigma] propto exp( beta * sum_{i<j} A_ij sigma_i sigma_j + sum_i sigma_i h_i ),

which is exactly the normalization under which the single-site conditional
expectation is

    E[sigma_i | sigma_{-i}] = tanh( beta * (A sigma)_i + h_i ),

with the off-diagonal local field (A sigma)_i = sum_{j != i} A_ij sigma_j.
Any stored diagonal of A only shifts the energy by a constant and never
enters a conditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import EnumerationCapError
from .interaction import InteractionMatrix

ENUMERATION_CAP = 20
DEFAULT_BURN_IN = 50
DEFAULT_THIN = 5


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Interaction matrix, external field, inverse temperature.

    ``field_bound`` (M) and ``beta_bound`` (B) are optional declared bounds;
    when given, the parameters are validated against them at construction.
    """

    A: InteractionMatrix
    h: np.ndarray
    beta: float
    field_bound: float | None = None
    beta_bound: float | None = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "beta", float(self.beta))
        if h.shape != (self.A.n,):
            raise ValueError("field length does not match node count")
        if self.field_bound is not None and np.max(np.abs(h), initial=0.0) > self.field_bound:
            raise ValueError("external field exceeds the declared bound M")
        if self.beta_bound is not None and abs(self.beta) > self.beta_bound:
            raise ValueError("beta exceeds the declared bound B")

    @property
    def n(self):
        return self.A.n


@dataclass(frozen=True, eq=False)
class ExactSummary:
    """Exhaustive-enumeration summary of an Ising model.

    ``log_partition`` uses the 1/2^n counting convention, i.e. it is
    log( 2^-n * sum_sigma exp(energy) ), so it vanishes for beta=0, h=0.
    """

    log_partition: float
    marginal_means: np.ndarray
    pair_means: np.ndarray
    full_table: np.ndarray


def _check_spins(sigma, n):
    sigma = np.asarray(sigma)
    if sigma.shape != (n,):
        raise ValueError("spin vector length does not match node count")
    if not np.all(np.abs(sigma) == 1):
        raise ValueError("spins must be +1 or -1")
    return sigma.astype(float)


def conditional_mean(model, sigma, i):
    """E[sigma_i | sigma_{-i}] = tanh(beta * local_field_i + h_i)."""
    sigma = _check_spins(sigma, model.n)
    if not 0 <= i < model.n:
        raise IndexError(f"site {i} out of range")
    idx, vals = model.A.row_offdiag(i)
    field = float(vals @ sigma[idx])
    return float(np.tanh(model.beta * field + model.h[i]))


def spin_table(n):
    """(2^n, n) matrix of all spin configurations; row index is the bit
    pattern (bit i = 1 means sigma_i = +1)."""
    idx = np.arange(2 ** n, dtype=np.int64)
    return (((idx[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)


def _log_weights(model, chunk_spins, a_offdiag):
    pair = 0.5 * model.beta * np.einsum(
        "si,si->s", chunk_spins @ a_offdiag, chunk_spins)
    return pair + chunk_spins @ model.h


def exact_summary(model, chunk_bits=16):
    """Exact log-partition, marginals, and pair means by summing all 2^n
    configurations.  Refuses n beyond the enumeration cap."""
    n = model.n
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exact enumeration capped at n={ENUMERATION_CAP}, got n={n}")
    a_off = model.A.dense()
    np.fill_diagonal(a_off, 0.0)

    total = 2 ** n
    chunk = min(total, 2 ** chunk_bits)
    log_w = np.empty(total)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        spins = (((idx[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)
        log_w[start:start + chunk] = _log_weights(model, spins, a_off)

    log_z = float(logsumexp(log_w))
    probs = np.exp(log_w - log_z)
    marginals = np.zeros(n)
    pair = np.zeros((n, n))
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        spins = (((idx[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)
        p = probs[start:start + chunk]
        marginals += spins.T @ p
        pair += (spins * p[:, None]).T @ spins
    return ExactSummary(
        log_partition=log_z - n * np.log(2.0),
        marginal_means=marginals,
        pair_means=pair,
        full_table=probs,
    )


def gibbs_sample(model, count, burn_in=DEFAULT_BURN_IN, thin=DEFAULT_THIN,
                 seed=0, initial=None):
    """Systematic-scan single-site Gibbs sampler.

    Sites are visited in order 0..n-1; each visit resamples the site from
    its conditional law, i.e. sets it to +1 with probability
    (1 + tanh(beta * local_field_i + h_i)) / 2.  Returns ``count`` states
    of shape (count, n), separated by ``thin`` full sweeps after
    ``burn_in`` full sweeps.  Deterministic given ``seed``: site i of a
    sweep compares the sweep's i-th uniform draw with its probability.

    Cost: O(1) per site visit on block matrices, which keep one running
    sum per block.  On CSR matrices a visit reads a maintained local field
    in O(1) and a flip pushes its change along its row, in O(row length).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    n = model.n
    rng = np.random.default_rng(seed)
    if initial is None:
        sigma = rng.integers(0, 2, size=n) * 2 - 1
    else:
        sigma = _check_spins(initial, n).astype(np.int64)
    sigma = sigma.astype(np.int64)

    # the sweeps run on Python scalars: per-site numpy indexing and 0-d
    # ufunc calls cost several times the arithmetic they do
    beta, h = model.beta, model.h.tolist()
    spins = sigma.tolist()
    out = np.empty((count, n), dtype=np.int8)

    if model.A._block_labels is not None:
        labels = model.A._block_labels.tolist()
        value = model.A._block_value
        nblocks = len(model.A._block_sizes)
        block_sum = np.bincount(model.A._block_labels, weights=sigma,
                                minlength=nblocks).tolist()

        def run_sweep():
            u = rng.random(n).tolist()
            for i in range(n):
                b = labels[i]
                s = spins[i]
                field = value * (block_sum[b] - s)
                p_plus = 0.5 * (1.0 + math.tanh(beta * field + h[i]))
                new = 1 if u[i] < p_plus else -1
                if new != s:
                    block_sum[b] += new - s
                    spins[i] = new
    else:
        csr = model.A._csr
        indptr = csr.indptr.tolist()
        indices, data = csr.indices.tolist(), csr.data.tolist()
        g = memoryview(model.A.local_field(sigma))
        diag = model.A.diagonal().tolist()

        def run_sweep():
            u = rng.random(n).tolist()
            for i in range(n):
                p_plus = 0.5 * (1.0 + math.tanh(beta * g[i] + h[i]))
                new = 1 if u[i] < p_plus else -1
                s = spins[i]
                if new != s:
                    delta = new - s
                    for k in range(indptr[i], indptr[i + 1]):
                        g[indices[k]] += data[k] * delta
                    g[i] -= diag[i] * delta
                    spins[i] = new

    for _ in range(burn_in):
        run_sweep()
    for k in range(count):
        if k > 0:
            for _ in range(thin):
                run_sweep()
        out[k] = spins
    return out


def sweep_distribution(model, probs):
    """Push a distribution over all 2^n states through one systematic
    Gibbs sweep, exactly.  Used to verify stationarity at small n."""
    n = model.n
    if n > 14:
        raise EnumerationCapError("dense sweep kernel capped at n=14")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2 ** n,):
        raise ValueError("distribution length must be 2^n")
    spins = spin_table(n)
    a_off = model.A.dense()
    np.fill_diagonal(a_off, 0.0)
    p = probs.copy()
    idx = np.arange(2 ** n, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        local = spins @ a_off[:, i]          # independent of sigma_i
        p_plus = 0.5 * (1.0 + np.tanh(model.beta * local + model.h[i]))
        pooled = p + p[idx ^ bit]
        is_plus = (idx & bit) != 0
        p = pooled * np.where(is_plus, p_plus, 1.0 - p_plus)
    return p


def serialize_spins(states):
    """Spin vectors as +/-1 integer CSV rows."""
    states = np.asarray(states, dtype=np.int64)
    if states.ndim == 1:
        states = states[None, :]
    return "\n".join(",".join(str(int(v)) for v in row) for row in states) + "\n"


def parse_spins(text):
    rows = [r for r in text.strip().splitlines() if r.strip()]
    return np.array([[int(v) for v in r.split(",")] for r in rows], dtype=np.int8)
