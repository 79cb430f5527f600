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
import scipy.sparse as sp
from scipy.special import logsumexp

from .errors import EnumerationCapError
from .interaction import InteractionMatrix

ENUMERATION_CAP = 20
DEFAULT_BURN_IN = 50
DEFAULT_THIN = 5
# a CSR colour class with fewer sites plus off-diagonal entries than this
# is resampled site by site: numpy's fixed cost would outweigh its work
_VECTOR_CLASS_MIN = 64


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


def scan_order(A):
    """The order in which one Gibbs sweep visits the sites of ``A``, as
    ``(order, bounds)``: the classes ``order[bounds[c]:bounds[c + 1]]``
    are visited in turn, c = 0, 1, ...

    On a CSR matrix the classes are the colours of a greedy colouring of
    the off-diagonal graph, in index order: each site takes the smallest
    colour that none of its neighbours has, so no two sites of one class
    share an off-diagonal entry (the diagonal is ignored).  Classes go in
    colour order, and sites within a class in index order.  On a block
    matrix every site is its own class and the order is 0..n-1.
    """
    n = A.n
    if A._block_labels is not None:
        return np.arange(n), np.arange(n + 1)
    indptr, indices = A._csr.indptr.tolist(), A._csr.indices.tolist()
    # uncoloured sites, the diagonal among them, hold -1
    colour = [-1] * n
    for i in range(n):
        taken = {colour[j] for j in indices[indptr[i]:indptr[i + 1]]}
        c = 0
        while c in taken:
            c += 1
        colour[i] = c
    colour = np.array(colour, dtype=np.int64)
    order = np.argsort(colour, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(colour))])
    return order, bounds


def gibbs_sample(model, count, burn_in=DEFAULT_BURN_IN, thin=DEFAULT_THIN,
                 seed=0, initial=None):
    """Single-site Gibbs sampler with a fixed scan order.

    A sweep visits every site once, in the order of :func:`scan_order`,
    and resamples it from its conditional law, i.e. sets it to +1 with
    probability (1 + tanh(beta * local_field_i + h_i)) / 2.  On block
    matrices the order is 0..n-1; on CSR matrices it goes one colour class
    of the off-diagonal graph at a time, and since no two sites of a class
    interact, resampling a class at once is the same as visiting its
    sites one by one.  Returns ``count`` states of shape (count, n),
    separated by ``thin`` full sweeps after ``burn_in`` full sweeps.
    Deterministic given ``seed``: each sweep draws n uniforms, and the
    k-th site in scan order compares the k-th with its probability.

    Cost: O(1) Python steps per site visit on block matrices, which keep
    one running sum per block.  On CSR matrices a colour class is one
    numpy step: the product of its off-diagonal rows with the spins, one
    ``np.tanh``, one comparison and one write-back.  A sweep then costs
    numpy's fixed per-call overhead once per class plus O(nnz) numpy
    arithmetic.  A class whose sites plus off-diagonal entries number fewer
    than 64, as on small dense matrices where every class is one site,
    is visited site by site on Python scalars, in O(row length) per site.
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
    beta = model.beta
    out = np.empty((count, n), dtype=np.int8)

    if model.A._block_labels is not None:
        # Python scalars: per-site numpy indexing and 0-d ufunc calls cost
        # several times the arithmetic they do
        h = model.h.tolist()
        spins = sigma.tolist()
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
        order, bounds = scan_order(model.A)
        csr = model.A._csr
        off = csr - sp.diags(csr.diagonal(), format="csr")
        off.eliminate_zeros()
        row_len = np.diff(off.indptr)
        spins = sigma.astype(float)
        sv = memoryview(spins)
        # one step (first scan position, sites, off-diagonal rows, fields)
        # per class or, for a class too small to repay numpy's fixed cost,
        # one step per site on Python scalars
        steps = []
        for k0, k1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            sites = order[k0:k1]
            if k1 - k0 + row_len[sites].sum() >= _VECTOR_CLASS_MIN:
                steps.append((k0, sites, off[sites], model.h[sites]))
                continue
            for k, i in enumerate(sites.tolist(), start=k0):
                lo, hi = off.indptr[i], off.indptr[i + 1]
                row = list(zip(off.indices[lo:hi].tolist(),
                               off.data[lo:hi].tolist()))
                steps.append((k, i, row, float(model.h[i])))

        def run_sweep():
            u = rng.random(n)
            uv = memoryview(u)
            for k, sites, rows, hs in steps:
                if type(sites) is int:
                    field = 0.0
                    for j, a in rows:
                        field += a * sv[j]
                    p_plus = 0.5 * (1.0 + math.tanh(beta * field + hs))
                    sv[sites] = 1.0 if uv[k] < p_plus else -1.0
                else:
                    p_plus = 0.5 * (1.0 + np.tanh(beta * (rows @ spins) + hs))
                    spins[sites] = np.where(u[k:k + len(sites)] < p_plus,
                                            1.0, -1.0)

    for _ in range(burn_in):
        run_sweep()
    for k in range(count):
        if k > 0:
            for _ in range(thin):
                run_sweep()
        out[k] = spins
    return out


def sweep_distribution(model, probs):
    """Push a distribution over all 2^n states through one Gibbs sweep,
    exactly, visiting the sites in :func:`scan_order` as
    :func:`gibbs_sample` does.  Used to verify stationarity at small n."""
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
    for i in scan_order(model.A)[0].tolist():
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
