"""Fixed reference loops, timed between rounds to gauge the host's speed.

On a shared host the same round can take 1 s in one minute and 1.6 s in
the next, and a whole run can fall in a slow or a fast spell.  A round's
wall time divided by the wall time of a fixed loop of the same kind, run
between rounds in the same process, cancels most of that swing.  The loops
are the benchmark's own code and call nothing in ``isingreg``, so a change
to the package moves the numerator only.

Each loop does a fixed amount of work, set by its one argument, and
returns its wall time.
"""

from __future__ import annotations

import time

import numpy as np


def interpreter(n=60_000):
    """A per-site Python loop over numpy scalars, the kind of code the
    Gibbs samplers and the text ingest run: bound by the interpreter."""
    rng = np.random.default_rng(0)
    labels = np.arange(n) % 4
    sigma = rng.integers(0, 2, size=n) * 2 - 1
    block_sum = np.bincount(labels, weights=sigma, minlength=4)
    h = np.zeros(n)
    start = time.perf_counter()
    for i in range(n):
        b = labels[i]
        field = 0.01 * (block_sum[b] - sigma[i])
        p_plus = 0.5 * (1.0 + np.tanh(0.3 * field + h[i]))
        new = 1 if rng.random() < p_plus else -1
        if new != sigma[i]:
            block_sum[b] += new - sigma[i]
            sigma[i] = new
    return time.perf_counter() - start


def memory(passes=12):
    """Products of a dense Cora-sized float64 matrix (31 MB, larger than
    the caches) with a narrow one and back, the work of the Potts
    objective: bound by memory bandwidth.  The matrix is freed on return
    so that it does not raise the worker's peak RSS."""
    X = np.ones((2708, 1433))
    W = np.ones((1433, 7))
    start = time.perf_counter()
    for _ in range(passes):
        Z = X @ W
        W = X.T @ Z / X.size
    return time.perf_counter() - start


KERNELS = {"interpreter": interpreter, "memory": memory}
