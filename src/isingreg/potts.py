"""K-class Potts generalization: conditional law, pseudo-likelihood,
sampling, fitting, and prediction.

The site conditional is the softmax

    P[y_i = k | x, y_{-i}] propto exp( f_theta(x_i)_k + beta * c_i(k) ),
    c_i(k) = sum_{j != i, j known} A_ij 1[y_j = k],

with one shared beta across classes.  For semi-supervised use the
objective may be restricted to a subset of sites, and the neighbor
counts to a subset of known labels; by default both cover every node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interaction import InteractionMatrix
from .ising import DEFAULT_BURN_IN, DEFAULT_THIN, _colour_classes, _run_chain
from .models import FunctionClassModel, as_design
from .mple import DEFAULT_MAX_ITERS, DEFAULT_TOL, _fit_pgd


def softmax_rows(z):
    """Row-wise softmax with max subtraction for stability."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def one_hot(y, k):
    out = np.zeros((len(y), k))
    out[np.arange(len(y)), y] = 1.0
    return out


def _index_set(name, idx, n):
    """``idx`` as int64 node indices, refused unless each lies in 0..n-1
    and none repeats."""
    idx = np.asarray(idx, dtype=np.int64)
    if np.any((idx < 0) | (idx >= n)) or np.unique(idx).size != idx.size:
        raise ValueError(f"{name} must be distinct node indices in "
                         f"0..{n - 1}")
    return idx


def _labels(y, K):
    """``y`` as int64 class labels, refused unless each lies in 0..K-1."""
    y = np.asarray(y, dtype=np.int64)
    if y.min(initial=0) < 0 or y.max(initial=0) >= K:
        raise ValueError(f"labels must lie in 0..K-1 for the model's "
                         f"K = {K} outputs")
    return y


def _class_count(model):
    """The model's number of outputs K, refused below 2."""
    K = model.n_outputs
    if K < 2:
        raise ValueError(f"a Potts problem needs a model with at least "
                         f"2 outputs, got K = {K}")
    return K


def _known_neighbor_counts(A, known, known_labels, K):
    """(n, K) matrix of known-neighbor label counts, self excluded:
    c_i(k) = sum_{j != i, j in known} A_ij 1[y_j = k]."""
    filled = np.zeros((A.n, K))
    filled[known] = one_hot(known_labels, K)
    return A.local_field(filled)


@dataclass(frozen=True, eq=False)
class PottsProblem:
    """Labeled Potts instance.  K, the number of classes, is the model's
    ``n_outputs`` and must be at least 2.

    ``sites`` are the indices whose conditionals enter the objective;
    ``known`` are the indices whose labels feed neighbor counts.  Both
    default to all nodes (the fully observed synthetic setting).

    X is a dense array or a scipy sparse matrix, kept as given.  The rows
    of X, counts and labels at ``sites`` are copied once here (CSR rows
    when X is CSR), so an objective evaluation costs one pass of the field
    model over ``len(sites)`` rows, whatever n is; a problem over every
    node holds a second copy of X.
    """

    A: InteractionMatrix
    X: np.ndarray
    y: np.ndarray
    model: FunctionClassModel
    beta_box: float = 1.0
    sites: np.ndarray = None
    known: np.ndarray = None

    def __post_init__(self):
        X = as_design(self.X)
        y = np.asarray(self.y, dtype=np.int64)
        n = self.A.n
        if X.shape[0] != n or y.shape != (n,):
            raise ValueError("A, X, y sizes disagree")
        y = _labels(y, _class_count(self.model))
        if not self.beta_box >= 0:
            raise ValueError(
                f"beta_box must be nonnegative, got {self.beta_box}")
        sites = (np.arange(n) if self.sites is None
                 else _index_set("sites", self.sites, n))
        known = (np.arange(n) if self.known is None
                 else _index_set("known", self.known, n))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "_counts", _known_neighbor_counts(
            self.A, known, y[known], self.K))
        object.__setattr__(self, "_site_X", X[sites])
        object.__setattr__(self, "_site_counts", self._counts[sites])
        object.__setattr__(self, "_site_y", y[sites])
        object.__setattr__(self, "_site_one_hot",
                           one_hot(self._site_y, self.K))

    @property
    def K(self):
        return self.model.n_outputs

    @property
    def counts(self):
        return self._counts


def potts_conditional(problem, theta_flat, beta, i):
    """Conditional class distribution at site i; sums to one."""
    if not 0 <= i < problem.A.n:
        raise IndexError(f"site {i} out of range")
    model = problem.model.with_flat(np.asarray(theta_flat, dtype=float))
    z = model.eval(problem.X[i:i + 1])[0] + beta * problem.counts[i]
    return softmax_rows(z[None, :])[0]


def potts_objective_grad(problem, theta_flat, beta):
    """Negative log pseudo-likelihood over ``problem.sites`` and its
    gradients, by the softmax chain rule.

    Reads only the cached ``sites`` rows: one evaluation and one pullback
    of the field model over ``len(sites)`` rows, none over the rest of X.
    """
    model = problem.model.with_flat(np.asarray(theta_flat, dtype=float))
    z = model.eval(problem._site_X) + beta * problem._site_counts
    log_p = log_softmax_rows(z)
    value = float(-log_p[np.arange(len(z)), problem._site_y].sum())

    upstream = softmax_rows(z) - problem._site_one_hot
    grad_theta = model.flatten_grad(model.param_grad(problem._site_X, upstream))
    grad_beta = float(np.sum(upstream * problem._site_counts))
    return value, grad_theta, grad_beta


def gibbs_sample_potts(A, X, model, beta, count, burn_in=DEFAULT_BURN_IN,
                       thin=DEFAULT_THIN, seed=0):
    """Gibbs sampler for the Potts model with ground-truth field model and
    beta; returns (count, n) labels in 0..``model.n_outputs``-1.

    Scans as :func:`isingreg.ising.gibbs_sample` does on a CSR matrix, one
    numpy step per colour class: z = fields + beta * (neighbour label
    counts, read through the class's off-diagonal rows), then the k-th
    site in scan order takes the first class whose cumulative weight
    reaches the sweep's k-th uniform times the total.  A block matrix
    raises ``ValueError``.
    """
    K = model.n_outputs
    n = A.n
    rng = np.random.default_rng(seed)
    y = rng.integers(0, K, size=n)
    fields = model.eval(X)
    if fields.shape != (n, K):
        raise ValueError("model output shape must be (n, K)")
    classes = _colour_classes(A)
    onehot = one_hot(y, K)

    def run_sweep():
        u = rng.random(n)
        for k0, sites, rows in classes:
            z = fields[sites] + beta * (rows @ onehot)
            cum = np.cumsum(np.exp(z - z.max(axis=1, keepdims=True)), axis=1)
            new = (cum < u[k0:k0 + len(sites), None] * cum[:, -1:]).sum(1)
            onehot[sites, y[sites]] = 0.0
            onehot[sites, new] = 1.0
            y[sites] = new

    return _run_chain(run_sweep, y, count, burn_in, thin, np.int64)


def fit_potts(problem, beta_frozen=None, max_iters=DEFAULT_MAX_ITERS,
              tol=DEFAULT_TOL):
    """Projected gradient descent on the Potts pseudo-likelihood, starting
    from the parameters ``problem.model`` holds with beta = 0.

    Same optimizer contract as :func:`isingreg.mple.fit`; convex for
    linear field models, local optimum for MLPs.
    """
    return _fit_pgd(problem, potts_objective_grad, beta_frozen, max_iters,
                    tol)


def predict_class(A, X, model, beta, known_idx, known_labels, targets):
    """Argmax of the conditional restricted to known-labeled neighbors.

    Unknown neighbors contribute zero; argmax ties break to the lowest
    class index.  The field model, which needs at least 2 outputs, is
    evaluated on the rows of X at ``targets`` only.  A known label
    outside 0..K-1 raises ``ValueError``.
    """
    K = _class_count(model)
    known_idx = _index_set("known_idx", known_idx, A.n)
    targets = _index_set("targets", targets, A.n)
    if np.intersect1d(known_idx, targets).size:
        raise ValueError("targets must be disjoint from known labels")
    known_labels = _labels(known_labels, K)
    counts = _known_neighbor_counts(A, known_idx, known_labels, K)
    z = model.eval(as_design(X)[targets]) + beta * counts[targets]
    return np.argmax(z, axis=1)
