"""Maximum pseudo-likelihood estimation for the binary model.

The negative log pseudo-likelihood of (theta, beta) given one observed
spin vector sigma is

    sum_i [ log(2 cosh(m_i)) - sigma_i m_i ],
    m_i = f_theta(x_i) + beta * (A sigma)_i,

with the off-diagonal local field.  For linear f_theta this is jointly
convex in (theta, beta); it is minimized by projected gradient descent
with a backtracking (Armijo) line search, keeping theta inside its
constraint balls and beta inside [-B, B] at every iterate.  Freezing
beta at 0 recovers ordinary logistic regression (MPLE-0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .interaction import InteractionMatrix
from .models import FunctionClassModel

DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-8
ARMIJO_C = 1e-4
# the Barzilai-Borwein trial step is clipped to (0, MAX_STEP]
MAX_STEP = 1.0


def log2cosh(m):
    """log(2 cosh(m)) computed as |m| + log1p(exp(-2|m|)) to avoid overflow."""
    a = np.abs(m)
    return a + np.log1p(np.exp(-2.0 * a))


@dataclass(frozen=True, eq=False)
class PLProblem:
    """One pseudo-likelihood instance: structure, features, observation."""

    A: InteractionMatrix
    X: np.ndarray
    sigma: np.ndarray
    model: FunctionClassModel
    beta_box: float = 1.0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        sigma = np.asarray(self.sigma, dtype=float)
        if X.shape[0] != self.A.n or sigma.shape != (self.A.n,):
            raise ValueError("A, X, sigma sizes disagree")
        if not np.all(np.abs(sigma) == 1):
            raise ValueError("observed labels must be +/-1 spins")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_local", self.A.local_field(sigma))

    @property
    def local(self):
        """Cached off-diagonal local field (A sigma), length n."""
        return self._local


@dataclass
class FitResult:
    """Estimated parameters plus optimizer telemetry.

    ``stop_reason`` says why the solver stopped: ``"tol"`` (the
    projected-gradient norm reached the tolerance), ``"max_iters"`` or
    ``"no_descent"`` (no step along the projected gradient lowered the
    objective in floating point).  Only ``"tol"`` counts as converged.
    """

    theta_hat: dict
    beta_hat: float
    objective_value: float
    iterations: int
    final_projected_grad_norm: float
    stop_reason: str
    model: FunctionClassModel = field(repr=False, default=None)

    @property
    def converged(self):
        return self.stop_reason == "tol"

    def to_json(self):
        return json.dumps({
            "theta_hat": {k: np.asarray(v).ravel().tolist()
                          for k, v in self.theta_hat.items()},
            "beta_hat": self.beta_hat,
            "objective_value": self.objective_value,
            "iterations": self.iterations,
            "final_projected_grad_norm": self.final_projected_grad_norm,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
        })


def neg_log_pl(problem, theta_flat, beta):
    """Objective value and gradients at flat parameters (theta, beta).

    Returns ``(value, grad_theta_flat, grad_beta)``.
    """
    model = problem.model.with_flat(np.asarray(theta_flat, dtype=float))
    m = model.eval(problem.X) + beta * problem.local
    value = float(np.sum(log2cosh(m) - problem.sigma * m))
    upstream = np.tanh(m) - problem.sigma
    grad_theta = model.flatten_grad(model.param_grad(problem.X, upstream))
    grad_beta = float(upstream @ problem.local)
    return value, grad_theta, grad_beta


def projected_gradient_descent(objective, project, z0,
                               max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL):
    """Monotone projected gradient descent with Armijo backtracking.

    The trial step is a Barzilai-Borwein curvature estimate clipped to
    (0, ``MAX_STEP``], halved until the Armijo condition (constant 1e-4)
    holds.  Deterministic.  Returns (z, value, iterations, pg_norm,
    stop_reason), where pg_norm is the unit-step projected-gradient norm
    and stop_reason is ``"tol"`` (pg_norm reached ``tol``),
    ``"no_descent"`` (the line search found no lower value) or
    ``"max_iters"``.  ``max_iters`` below 1 raises ``ValueError``.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    z = project(np.asarray(z0, dtype=float))
    value, grad = objective(z)
    if not np.isfinite(value):
        raise NumericalFailure("objective is non-finite at the starting point")

    step = MAX_STEP
    prev_z = prev_grad = None
    pg_norm = np.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        pg = z - project(z - grad)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm <= tol:
            return z, value, iters, pg_norm, "tol"
        if prev_z is not None:
            dz = z - prev_z
            dg = grad - prev_grad
            curv = float(dz @ dg)
            if curv > 0:
                step = float(dz @ dz) / curv
        step = min(max(step, 1e-16), MAX_STEP)
        moved = False
        while step > 1e-18:
            z_new = project(z - step * grad)
            diff = z - z_new
            value_new, grad_new = objective(z_new)
            # strict float descent keeps the loop from spinning on a
            # machine-precision plateau
            if np.isfinite(value_new) and value_new < value and \
                    value_new <= value - (ARMIJO_C / step) * float(diff @ diff):
                prev_z, prev_grad = z, grad
                z, value, grad = z_new, value_new, grad_new
                moved = True
                break
            step *= 0.5
        if not moved:
            # descent no longer certifiable at machine precision
            return z, value, iters, pg_norm, "no_descent"
    return z, value, iters, pg_norm, "max_iters"


def fit(problem, beta_frozen=None, max_iters=DEFAULT_MAX_ITERS,
        tol=DEFAULT_TOL, theta0=None, beta0=0.0):
    """Projected gradient descent on (theta, beta) jointly.

    ``beta_frozen`` pins beta to the given value (MPLE-0 uses 0);
    otherwise beta is clipped to [-B, B] at every step.  theta stays
    inside its constraint balls at every iterate.  Convergence means the
    unit-step projected-gradient norm is at most ``tol``; for linear
    field models the objective is convex, so the result is a global
    minimizer up to that tolerance.
    """
    return _fit_pgd(problem, neg_log_pl, beta_frozen, max_iters, tol, theta0,
                    beta0)


def _fit_pgd(problem, objective, beta_frozen, max_iters, tol, theta0, beta0):
    """The fit driver shared by :func:`fit` and
    :func:`isingreg.potts.fit_potts`: projected gradient descent on the
    stacked iterate z = (theta..., beta), where ``objective(problem,
    theta_flat, beta)`` returns ``(value, grad_theta_flat, grad_beta)``."""
    model = problem.model
    if theta0 is None:
        theta0 = np.zeros(model.flatten().size)
    z0 = np.concatenate([np.asarray(theta0, dtype=float).ravel(),
                         [beta0 if beta_frozen is None else beta_frozen]])

    def project(zz):
        out = np.empty_like(zz)
        out[:-1] = model.project_flat(zz[:-1])
        if beta_frozen is None:
            out[-1] = np.clip(zz[-1], -problem.beta_box, problem.beta_box)
        else:
            out[-1] = beta_frozen
        return out

    def value_grad(zz):
        value, g_th, g_b = objective(problem, zz[:-1], zz[-1])
        grad = np.concatenate([g_th, [0.0 if beta_frozen is not None else g_b]])
        return value, grad

    z, value, iters, pg_norm, stop_reason = projected_gradient_descent(
        value_grad, project, z0, max_iters=max_iters, tol=tol)

    fitted = model.with_flat(z[:-1])
    return FitResult(
        theta_hat={k: v.copy() for k, v in fitted.params.items()},
        beta_hat=float(z[-1]),
        objective_value=value,
        iterations=iters,
        final_projected_grad_norm=pg_norm,
        stop_reason=stop_reason,
        model=fitted,
    )


def predict_binary(A, X, model, beta, known_idx, known_values, targets):
    """Predict spins at ``targets`` from the fitted field plus the
    beta-weighted sum over *known-labeled* neighbors.

    Unknown neighbors contribute zero; an exact zero net field breaks the
    tie to +1.  ``targets`` must be disjoint from ``known_idx``.
    """
    known_idx = np.asarray(known_idx, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if np.intersect1d(known_idx, targets).size:
        raise ValueError("targets must be disjoint from known labels")
    filled = np.zeros(A.n)
    filled[known_idx] = np.asarray(known_values, dtype=float)
    neighbor = A.matvec(filled)[targets]
    z = model.eval(np.asarray(X, dtype=float))[targets] + beta * neighbor
    return np.where(z >= 0.0, 1, -1).astype(np.int64)
