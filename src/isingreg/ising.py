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
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import logsumexp

from .errors import EnumerationCapError
from .interaction import InteractionMatrix

ENUMERATION_CAP = 20
# configurations per enumeration chunk
_ENUMERATION_CHUNK = 2 ** 16
DEFAULT_BURN_IN = 50
DEFAULT_THIN = 5
# a CSR colour class with fewer sites plus off-diagonal entries than this
# is resampled site by site: numpy's fixed cost would outweigh its work
_VECTOR_CLASS_MIN = 64
# Gauss-Hermite nodes per block Gaussian in sweep_distribution
_HERMITE_NODES = 80


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Interaction matrix, external field, inverse temperature."""

    A: InteractionMatrix
    h: np.ndarray
    beta: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "beta", float(self.beta))
        if h.shape != (self.A.n,):
            raise ValueError("field length does not match node count")

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
    field = float(model.A.local_field(sigma)[i])
    return float(np.tanh(model.beta * field + model.h[i]))


def spin_table(n, start, stop):
    """Rows start..stop-1 of the (2^n, n) matrix of all spin
    configurations; row index is the bit pattern (bit i = 1 means
    sigma_i = +1)."""
    idx = np.arange(start, stop, dtype=np.int64)
    return (((idx[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)


def _log_weights(model, chunk_spins, a_offdiag):
    pair = 0.5 * model.beta * np.einsum(
        "si,si->s", chunk_spins @ a_offdiag, chunk_spins)
    return pair + chunk_spins @ model.h


def exact_summary(model):
    """Exact log-partition, marginals, and pair means by summing all 2^n
    configurations.  Refuses n beyond the enumeration cap."""
    n = model.n
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exact enumeration capped at n={ENUMERATION_CAP}, got n={n}")
    a_off = model.A.dense()
    np.fill_diagonal(a_off, 0.0)

    total = 2 ** n
    chunk = min(total, _ENUMERATION_CHUNK)
    log_w = np.empty(total)
    for start in range(0, total, chunk):
        spins = spin_table(n, start, min(start + chunk, total))
        log_w[start:start + chunk] = _log_weights(model, spins, a_off)

    log_z = float(logsumexp(log_w))
    probs = np.exp(log_w - log_z)
    marginals = np.zeros(n)
    pair = np.zeros((n, n))
    for start in range(0, total, chunk):
        spins = spin_table(n, start, min(start + chunk, total))
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


def _colour_classes(A):
    """The off-diagonal CSR of ``A`` and one ``(k0, sites, rows)`` per
    class of :func:`scan_order`: its first scan position, its sites and
    their off-diagonal rows.  No entry of ``rows`` joins two sites of the
    class.  Raises ``ValueError`` on a block matrix."""
    if A._block_labels is not None:
        raise ValueError("colour classes need a CSR interaction matrix")
    order, bounds = scan_order(A)
    csr = A._csr
    off = csr - sp.diags(csr.diagonal(), format="csr")
    off.eliminate_zeros()
    return off, [(k0, order[k0:k1], off[order[k0:k1]])
                 for k0, k1 in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _run_chain(run_sweep, state, count, burn_in, thin, dtype):
    """``count`` copies of ``state``, which ``run_sweep`` updates in place:
    the first after ``burn_in`` sweeps, each later one ``thin`` sweeps
    after the one before."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    out = np.empty((count, len(state)), dtype=dtype)
    for _ in range(burn_in):
        run_sweep()
    for k in range(count):
        if k > 0:
            for _ in range(thin):
                run_sweep()
        out[k] = state
    return out


def _gaussian_coupling(model):
    """a = beta * v on a block matrix of value v when a >= 0, where
    :func:`gibbs_sample` runs the auxiliary-Gaussian sweep; else None."""
    if model.A._block_labels is None:
        return None
    a = model.beta * model.A._block_value
    return a if a >= 0 else None


def gibbs_sample(model, count, burn_in=DEFAULT_BURN_IN, thin=DEFAULT_THIN,
                 seed=0, initial=None):
    """Gibbs sampler: ``count`` states of shape (count, n), separated by
    ``thin`` sweeps after ``burn_in`` sweeps.  Deterministic given
    ``seed``; the initial state, unless given, is drawn first.

    On a block matrix of value v with a = beta * v >= 0 a sweep is the
    auxiliary-Gaussian (Hubbard-Stratonovich) two-step update.  With S_b
    the spin sum of block b, the law is proportional to
    exp(a/2 * sum_b S_b^2 + h . sigma), since the stored diagonal only
    adds a constant, and adding one Gaussian per block leaves it as the
    sigma-marginal:

    1. t_b ~ N(a * S_b, a) for every block, from one
       ``rng.standard_normal(n_blocks)``, t_b = a * S_b + sqrt(a) * z_b;
    2. every spin at once: sigma_i = +1 with probability
       (1 + tanh(t_b(i) + h_i)) / 2, against the i-th of one
       ``rng.random(n)``.

    Elsewhere a sweep visits every site once, in the order of
    :func:`scan_order`, and sets it to +1 with probability
    (1 + tanh(beta * local_field_i + h_i)) / 2, the k-th site in scan
    order against the k-th of the sweep's ``rng.random(n)``.  That is
    0..n-1 on a block matrix with a < 0, where no real Gaussian exists.
    On a CSR matrix it goes one colour class of the off-diagonal graph at
    a time, as the Potts sampler does; since no two sites of a class
    interact, resampling a class at once is the same as visiting its
    sites one by one.

    Cost: a two-step sweep is O(n) numpy, a ``bincount``, one
    ``np.tanh``, one comparison, with no Python loop over sites.  It
    mixes more slowly per sweep than a single-site scan: at n=10 and
    h=0 the second-largest eigenvalue modulus of the exact one-sweep
    kernel is 0.46 against 0.22 for Curie-Weiss at beta=0.5, and 0.86
    against 0.58 for 5 blocks at beta=2.  So at beta * ||A||_inf = 0.5
    the distance to the law shrinks by a factor e about every 1.3 sweeps,
    well inside the default burn-in of 50.
    On a block matrix with a < 0 a site visit is O(1) Python steps on
    scalars, with one running sum per block.  On a CSR matrix a colour
    class is one numpy step: the product of its off-diagonal rows with
    the spins, one ``np.tanh``, one comparison and one write-back, so a
    sweep costs numpy's fixed per-call overhead once per class plus
    O(nnz) arithmetic.  A class whose sites plus off-diagonal entries
    number fewer than 64, as on small dense matrices where every class is
    one site, is visited site by site on Python scalars, in O(row length)
    per site.
    """
    n = model.n
    rng = np.random.default_rng(seed)
    if initial is None:
        sigma = rng.integers(0, 2, size=n) * 2 - 1
    else:
        sigma = _check_spins(initial, n).astype(np.int64)
    beta = model.beta

    A = model.A
    a = _gaussian_coupling(model)
    if a is not None:
        h, labels = model.h, A._block_labels
        nblocks = len(A._block_sizes)
        spins = sigma.astype(float)
        sd = math.sqrt(a)

        def run_sweep():
            block_sum = np.bincount(labels, weights=spins, minlength=nblocks)
            t = a * block_sum + sd * rng.standard_normal(nblocks)
            p_plus = 0.5 * (1.0 + np.tanh(t[labels] + h))
            spins[:] = np.where(rng.random(n) < p_plus, 1.0, -1.0)
    elif A._block_labels is not None:
        # Python scalars: per-site numpy indexing and 0-d ufunc calls cost
        # several times the arithmetic they do
        h = model.h.tolist()
        spins = sigma.tolist()
        labels = A._block_labels.tolist()
        value = A._block_value
        block_sum = np.bincount(A._block_labels, weights=sigma,
                                minlength=len(A._block_sizes)).tolist()

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
        off, classes = _colour_classes(A)
        spins = sigma.astype(float)
        sv = memoryview(spins)
        # one step (first scan position, sites, off-diagonal rows, fields)
        # per class or, for a class too small to repay numpy's fixed cost,
        # one step per site on Python scalars
        steps = []
        for k0, sites, rows in classes:
            if len(sites) + rows.nnz >= _VECTOR_CLASS_MIN:
                steps.append((k0, sites, rows, model.h[sites]))
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

    return _run_chain(run_sweep, spins, count, burn_in, thin, np.int8)


def sweep_distribution(model, probs):
    """Push a distribution over all 2^n states through one sweep of
    :func:`gibbs_sample`, exactly.  Used to verify stationarity at small n.

    Where :func:`gibbs_sample` runs the auxiliary-Gaussian sweep, each
    block's Gaussian is integrated out by Gauss-Hermite quadrature, one
    block at a time; elsewhere the sites are visited in
    :func:`scan_order`."""
    n = model.n
    if n > 14:
        raise EnumerationCapError("dense sweep kernel capped at n=14")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2 ** n,):
        raise ValueError("distribution length must be 2^n")
    spins = spin_table(n, 0, 2 ** n)
    p = probs.copy()
    idx = np.arange(2 ** n, dtype=np.int64)
    a = _gaussian_coupling(model)
    if a is not None:
        nodes, weights = hermegauss(_HERMITE_NODES)
        weights = weights / weights.sum()
        labels = model.A._block_labels
        for b in range(len(model.A._block_sizes)):
            sites = np.flatnonzero(labels == b)
            m = len(sites)
            # t_b at every node, given c of the block's spins are +1
            t = a * (2.0 * np.arange(m + 1) - m)[:, None] + math.sqrt(a) * nodes
            # law of the block's new spins, bit j for sites[j], given c
            law = np.ones(t.shape + (1,))
            for i in sites.tolist():
                plus = 0.5 * (1.0 + np.tanh(t + model.h[i]))[..., None]
                law = np.concatenate([law * (1.0 - plus), law * plus], axis=-1)
            law = weights @ law
            c = (spins[:, sites] > 0).sum(axis=1)
            pattern = ((idx[:, None] >> sites) & 1) @ (1 << np.arange(m))
            rest = idx & ~int(np.sum(1 << sites))
            pooled = np.zeros((2 ** n, m + 1))
            np.add.at(pooled, (rest, c), p)
            p = np.einsum("sc,cs->s", pooled[rest], law[:, pattern])
        return p
    a_off = model.A.dense()
    np.fill_diagonal(a_off, 0.0)
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
