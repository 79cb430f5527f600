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

from .errors import EnumerationCapError, NumericalFailure
from .interaction import InteractionMatrix

ENUMERATION_CAP = 20
# configurations per enumeration chunk
_ENUMERATION_CHUNK = 2 ** 16
DEFAULT_BURN_IN = 50
DEFAULT_THIN = 5
# Newton steps toward each block's mode before the exact draw
_NEWTON_STEPS = 4
# the largest a * n_b drawn exactly: near 1 a block takes about
# 0.4 / sqrt(1 - a * n_b) proposals, 13 at 0.999 and 390 at 1 - 1e-6, and
# a * n_b = 1 can round to just below it (1/49 * 49 < 1)
_EXACT_COUPLING_CAP = 1.0 - 1e-6


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
        if not (math.isfinite(self.beta) and np.isfinite(h).all()):
            raise ValueError("beta and the field must be finite")

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
    from scipy.special import logsumexp  # 3-6 MB of RSS to import: not at load
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
    """One ``(k0, sites, rows)`` per class of :func:`scan_order`: its first
    scan position, its sites and their off-diagonal CSR rows.  No entry
    of ``rows`` joins two sites of the class.  Raises ``ValueError`` on a
    block matrix."""
    if A._block_labels is not None:
        raise ValueError("colour classes need a CSR interaction matrix")
    order, bounds = scan_order(A)
    csr = A._csr
    off = csr - sp.diags(csr.diagonal(), format="csr")
    off.eliminate_zeros()
    return [(k0, order[k0:k1], off[order[k0:k1]])
            for k0, k1 in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def _check_chain(count, burn_in, thin):
    if count < 1:
        raise ValueError("count must be at least 1")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")


def _run_chain(run_sweep, state, count, burn_in, thin, dtype):
    """``count`` copies of ``state``, an array of any shape that
    ``run_sweep`` updates in place: the first after ``burn_in`` sweeps,
    each later one ``thin`` sweeps after the one before."""
    _check_chain(count, burn_in, thin)
    out = np.empty((count,) + state.shape, dtype=dtype)
    for _ in range(burn_in):
        run_sweep()
    for k in range(count):
        if k > 0:
            for _ in range(thin):
                run_sweep()
        out[k] = state
    return out


def _exact_coupling(model):
    """a where :func:`gibbs_sample` draws exactly: on a block matrix with
    a = beta * v >= 0 and a times the largest block size at most
    :data:`_EXACT_COUPLING_CAP`; else None."""
    if model.A._block_labels is None:
        return None
    a = model.beta * model.A._block_value
    if a < 0 or a * model.A._block_sizes.max() > _EXACT_COUPLING_CAP:
        return None
    return a


def _log_acceptance(x, delta):
    """Per-site terms of log p_b(t) - log envelope_b(t) at t = c + delta,
    for the sites of one block at x = c + h_i:

        log cosh(x + delta) - log cosh(x) - tanh(x) * delta - delta^2 / 2.

    Each is at most 0, since (log cosh)'' = sech^2 <= 1.  The first
    difference is log((1 + tanh x) e^delta / 2 + (1 - tanh x) e^-delta / 2),
    so delta is never added to a field too large to feel it."""
    with np.errstate(over="ignore"):
        log_2cosh = np.logaddexp(x, -x)
        ratio = np.logaddexp(delta + (x - log_2cosh),
                             (-x - log_2cosh) - delta)
    return ratio - np.tanh(x) * delta - 0.5 * delta * delta


def _exact_block_draws(model, a, count, rng):
    """``count`` independent draws of a block model at a = beta * v with
    0 <= a * n_b < 1 for every block b, as (count, n) int8: see
    :func:`gibbs_sample`."""
    A, h, n = model.A, model.h, model.n
    labels, sizes = A._block_labels, A._block_sizes
    nblocks = len(sizes)
    t = np.zeros(count * nblocks)
    if a > 0:
        kappa = 1.0 / a - sizes
        c = np.zeros(nblocks)
        for _ in range(_NEWTON_STEPS):
            u = np.tanh(c[labels] + h)
            slope = np.bincount(labels, u, nblocks) - c / a
            c = c + slope / (kappa + np.bincount(labels, u * u, nblocks))
        x = c[labels] + h
        slope = np.bincount(labels, np.tanh(x), nblocks) - c / a
        mean, sd = c + slope / kappa, 1.0 / np.sqrt(kappa)
        # the sites of each block, block after block
        order = np.argsort(labels, kind="stable")
        starts = np.cumsum(sizes) - sizes
        pending = np.arange(count * nblocks)
        while pending.size:
            b = pending % nblocks
            proposal = mean[b] + sd[b] * rng.standard_normal(pending.size)
            u = rng.random(pending.size)
            lens = sizes[b]
            pair = np.repeat(np.arange(pending.size), lens)
            skip = np.repeat(starts[b] - (np.cumsum(lens) - lens), lens)
            sites = order[np.arange(len(pair)) + skip]
            log_ratio = np.bincount(pair, _log_acceptance(
                x[sites], (proposal - c[b])[pair]), pending.size)
            if not np.isfinite(log_ratio).all():
                raise NumericalFailure("exact block draw: acceptance ratio "
                                       "is not finite")
            accept = u < np.exp(log_ratio)
            t[pending[accept]] = proposal[accept]
            pending = pending[~accept]
    p_plus = 0.5 * (1.0 + np.tanh(t.reshape(count, nblocks)[:, labels] + h))
    return np.where(rng.random((count, n)) < p_plus, 1, -1).astype(np.int8)


def _sweeper(model, spins, rng):
    """One Gibbs sweep of ``model``, as a function that updates ``spins``
    in place: float +/-1 of shape (n,) for one chain or (n, m) for m
    independent chains, one per column.  Each sweep draws its uniforms in
    the state's shape, so one chain draws what :func:`gibbs_sample`
    documents."""
    A, beta, n = model.A, model.beta, model.n
    labels = A._block_labels
    if labels is None:
        classes = _colour_classes(A)
        h = model.h.reshape((n,) + (1,) * (spins.ndim - 1))

        def run_sweep():
            u = rng.random(spins.shape)
            for k0, sites, rows in classes:
                p_plus = 0.5 * (1.0 + np.tanh(beta * (rows @ spins)
                                              + h[sites]))
                spins[sites] = np.where(u[k0:k0 + len(sites)] < p_plus,
                                        1.0, -1.0)
        return run_sweep

    nblocks, m = len(A._block_sizes), spins.size // n
    # Python scalars, one chain at a time: per-site numpy indexing and 0-d
    # ufunc calls cost several times the arithmetic they do
    hl, ll, value = model.h.tolist(), labels.tolist(), A._block_value

    def run_sweep():
        u = rng.random(spins.shape).reshape(n, m).T.tolist()
        chains = spins.reshape(n, m).T.tolist()
        sums = A._block_sums(spins).reshape(nblocks, m).T.tolist()
        for sigma, uc, block_sum in zip(chains, u, sums):
            for i in range(n):
                b = ll[i]
                s = sigma[i]
                field = value * (block_sum[b] - s)
                p_plus = 0.5 * (1.0 + math.tanh(beta * field + hl[i]))
                new = 1.0 if uc[i] < p_plus else -1.0
                if new != s:
                    block_sum[b] += new - s
                    sigma[i] = new
        spins[...] = np.reshape(np.transpose(chains), spins.shape)
    return run_sweep


def gibbs_sample(model, count, burn_in=DEFAULT_BURN_IN, thin=DEFAULT_THIN,
                 seed=0):
    """``count`` spin states of ``model``, shape (count, n), int8 +/-1.
    Deterministic given ``seed``.

    On a block matrix of value v with a = beta * v >= 0 and
    a * n_b <= :data:`_EXACT_COUPLING_CAP` = 1 - 1e-6 for every block size
    n_b, the states are independent exact draws and ``burn_in`` and
    ``thin`` are checked but not used.  With S_b the spin
    sum of block b, the law is proportional to
    exp(a/2 * sum_b S_b^2 + h . sigma), since the stored diagonal only
    adds a constant.  Adding one Gaussian t_b ~ N(a * S_b, a) per block
    leaves it as the sigma-marginal; t_b's own law is
    p_b(t) propto exp(f_b(t)), f_b(t) = -t^2/(2a) + sum_{i in b}
    log cosh(t + h_i), and given t the spins are independent.  Since
    f_b'' <= -kappa_b with kappa_b = 1/a - n_b, at any centre c
    f_b(t) <= f_b(c) + f_b'(c) (t - c) - kappa_b (t - c)^2 / 2, a Gaussian
    envelope.  So a draw is:

    1. c_b after ``_NEWTON_STEPS`` Newton steps from 0 toward the mode of
       f_b, with no random draws;
    2. rounds of rejection over the (draw k, block b) pairs not yet
       accepted, in the order k * n_blocks + b: one
       ``rng.standard_normal`` and then one ``rng.random`` of that many
       entries give t = c_b + f_b'(c_b)/kappa_b + z/sqrt(kappa_b) and its
       test, accepted when u < exp(f_b(t) - envelope(t));
    3. one ``rng.random((count, n))``: sigma_i = +1 when its entry is
       below (1 + tanh(t_b(i) + h_i)) / 2.

    At a = 0, t = 0 and only step 3 draws.  A pair takes about 1.1
    proposals at a * n_b = 0.5, 4 at 0.99 and 390 at the cap (h = 0); a
    non-finite acceptance ratio raises ``NumericalFailure``.

    Everywhere else the states are a Markov chain, ``thin`` sweeps apart
    after ``burn_in`` sweeps, from an initial state drawn first.  A sweep
    visits every site once, in the order of :func:`scan_order`, and sets
    it to +1 with probability (1 + tanh(beta * local_field_i + h_i)) / 2,
    the k-th site in scan order against the k-th of the sweep's
    ``rng.random(n)``.  On a block matrix that order is 0..n-1.  On a CSR
    matrix it goes one colour class of the off-diagonal graph at a time,
    as the Potts sampler does; since no two sites of a class interact,
    resampling a class at once is the same as visiting its sites one by
    one.

    Cost: an exact draw is O(n) numpy with no Python loop over sites.  On
    a block matrix a site visit of the chain is O(1) Python steps on
    scalars, with one running sum per block.  On a CSR matrix a colour
    class is one numpy step: the product of its off-diagonal rows with
    the spins, one ``np.tanh``, one comparison and one write-back, so a
    sweep costs numpy's fixed per-call overhead once per class plus
    O(nnz) arithmetic.
    """
    _check_chain(count, burn_in, thin)
    rng = np.random.default_rng(seed)
    a = _exact_coupling(model)
    if a is not None:
        return _exact_block_draws(model, a, count, rng)
    spins = (rng.integers(0, 2, size=model.n) * 2 - 1).astype(float)
    return _run_chain(_sweeper(model, spins, rng), spins, count, burn_in,
                      thin, np.int8)


def sweep_distribution(model, probs):
    """Push a distribution over all 2^n states through one sweep of
    :func:`_sweeper`, exactly, visiting the sites one at a time in
    :func:`scan_order`.  Used to verify stationarity at small n."""
    n = model.n
    if n > 14:
        raise EnumerationCapError("dense sweep kernel capped at n=14")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2 ** n,):
        raise ValueError("distribution length must be 2^n")
    spins = spin_table(n, 0, 2 ** n)
    p = probs.copy()
    idx = np.arange(2 ** n, dtype=np.int64)
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
    """Spin vectors as +/-1 integer CSV rows; one vector is one row.  The
    text is that of ``np.savetxt(..., fmt="%d", delimiter=",")``, built as
    one array of fixed-width cells."""
    rows = np.atleast_2d(states)
    cells = np.where(rows > 0, b"1,", b"-1,")
    cells[:, -1] = np.where(rows[:, -1] > 0, b"1\n", b"-1\n")
    # a two-byte cell is padded with one NUL
    return cells.tobytes().replace(b"\0", b"").decode()
