"""Function classes mapping features to external fields.

Two kinds are supported:

* ``linear``  f(x) = theta^T x, with an L2-ball constraint and, when an
  L1 radius is given, an L1-ball constraint too (sparse linear), and
* ``mlp2``    a 2-layer ReLU network W2 relu(W1 x).

A model may have K outputs (one field per class, for the Potts model),
read from its parameters' shapes; K = 1 models evaluate to a plain
length-n vector.  The design X may be a dense array or a scipy sparse
matrix (file-backed bag-of-words X is CSR); both go through ``@`` as
they are.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def as_design(X):
    """X as a 2-D float array; a scipy sparse X is returned as it is."""
    if sparse.issparse(X):
        return X
    return np.atleast_2d(np.asarray(X, dtype=float))


def dense_design(X):
    """X as a dense 2-D float array, converting a scipy sparse X."""
    return X.toarray() if sparse.issparse(X) else as_design(X)


def project_l2(v, radius):
    """Euclidean projection of a flat vector onto the L2 ball."""
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    norm = np.linalg.norm(v)
    if norm <= radius:
        return v.copy()
    return v * (radius / norm)


def project_l1(v, radius):
    """Euclidean projection onto the L1 ball by the sort-based
    soft-threshold rule (Duchi et al. 2008)."""
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return np.zeros_like(v)
    if np.sum(np.abs(v)) <= radius:
        return v.copy()
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    k = np.nonzero(u * np.arange(1, len(v) + 1) > css - radius)[0][-1]
    tau = (css[k] - radius) / (k + 1.0)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_params(v, l2_radius=None, l1_radius=None):
    """Scale onto the L2 ball if violated, then (if constrained) project
    onto the L1 ball.  Not the exact projection onto the intersection,
    but idempotent, nonexpansive, and feasible for both constraints."""
    out = np.asarray(v, dtype=float)
    if l2_radius is not None:
        out = project_l2(out, l2_radius)
    if l1_radius is not None:
        out = project_l1(out, l1_radius)
    return out


def relu(z):
    return np.maximum(z, 0.0)


class FunctionClassModel:
    """Parameterized field map with flat-vector access for optimizers."""

    def __init__(self, kind, params, l2_radius=None, l1_radius=None):
        if kind not in ("linear", "mlp2"):
            raise ValueError(f"unknown model kind {kind!r}")
        if kind == "mlp2" and l1_radius is not None:
            raise ValueError("L1 constraint is only supported for linear models")
        for name, radius in (("l2_radius", l2_radius),
                             ("l1_radius", l1_radius)):
            if radius is not None and not radius >= 0:
                raise ValueError(f"{name} must be nonnegative, got {radius}")
        self.kind = kind
        self.params = {k: np.asarray(v, dtype=float) for k, v in params.items()}
        self.l2_radius = l2_radius
        self.l1_radius = l1_radius

    @property
    def n_outputs(self):
        """K: theta's second dimension (1 when theta is 1-D), or the rows
        of W2."""
        if self.kind == "linear":
            theta = self.params["theta"]
            return 1 if theta.ndim == 1 else theta.shape[1]
        return self.params["W2"].shape[0]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def linear(d, n_outputs=1, theta=None, l2_radius=1.0, l1_radius=None):
        """theta in the L2 ball, and in the L1 ball too when ``l1_radius``
        is given."""
        shape = (d,) if n_outputs == 1 else (d, n_outputs)
        theta = np.zeros(shape) if theta is None else np.asarray(theta, dtype=float)
        if theta.shape != shape:
            raise ValueError(f"theta must have shape {shape}")
        return FunctionClassModel("linear", {"theta": theta},
                                  l2_radius=l2_radius, l1_radius=l1_radius)

    @staticmethod
    def mlp2(d, n_outputs=1, width=32, seed=0, l2_radius=None):
        """Glorot-uniform initialized 2-layer ReLU network."""
        rng = np.random.default_rng(seed)
        s1 = np.sqrt(6.0 / (d + width))
        s2 = np.sqrt(6.0 / (width + n_outputs))
        params = {
            "W1": rng.uniform(-s1, s1, size=(width, d)),
            "W2": rng.uniform(-s2, s2, size=(n_outputs, width)),
        }
        return FunctionClassModel("mlp2", params, l2_radius=l2_radius)

    # -- evaluation and gradients ----------------------------------------

    def eval(self, X):
        """Field values, shape (n,) when K = 1 and (n, K) otherwise."""
        if not sparse.issparse(X):
            X = np.asarray(X, dtype=float)
        if self.kind == "linear":
            return X @ self.params["theta"]
        hidden = relu(X @ self.params["W1"].T)
        out = hidden @ self.params["W2"].T
        return out[:, 0] if self.n_outputs == 1 else out

    def param_grad(self, X, upstream):
        """Chain-rule pullback of per-observation sensitivities.

        ``upstream`` has the same shape as ``eval(X)``; the result is a
        dict shaped like ``params``.  ReLU uses subgradient 0 at 0.
        """
        if not sparse.issparse(X):
            X = np.asarray(X, dtype=float)
        upstream = np.asarray(upstream, dtype=float)
        if self.kind == "linear":
            return {"theta": X.T @ upstream}
        up = upstream[:, None] if upstream.ndim == 1 else upstream
        z = X @ self.params["W1"].T
        hidden = relu(z)
        g_w2 = up.T @ hidden
        g_hidden = up @ self.params["W2"]
        g_z = g_hidden * (z > 0)
        return {"W1": g_z.T @ X, "W2": g_w2}

    # -- flat-vector plumbing ---------------------------------------------

    def _keys(self):
        return ("theta",) if self.kind == "linear" else ("W1", "W2")

    def flatten(self):
        return np.concatenate([self.params[k].ravel() for k in self._keys()])

    def flatten_grad(self, grad):
        return np.concatenate([grad[k].ravel() for k in self._keys()])

    def with_flat(self, vec):
        """Copy of the model with parameters taken from a flat vector."""
        params, at = {}, 0
        for k in self._keys():
            shape = self.params[k].shape
            size = self.params[k].size
            params[k] = vec[at:at + size].reshape(shape)
            at += size
        if at != vec.size:
            raise ValueError("flat vector size mismatch")
        return FunctionClassModel(self.kind, params, self.l2_radius,
                                  self.l1_radius)

    def project_flat(self, vec):
        return project_params(vec, self.l2_radius, self.l1_radius)
