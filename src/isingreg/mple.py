"""Maximum pseudo-likelihood estimation for the binary model.

The negative log pseudo-likelihood of (theta, beta) given one observed
spin vector sigma is

    sum_i [ log(2 cosh(m_i)) - sigma_i m_i ],
    m_i = f_theta(x_i) + beta * (A sigma)_i,

with the off-diagonal local field.  For linear f_theta this is jointly
convex in (theta, beta).  Every iterate keeps theta inside its
constraint balls and beta inside [-B, B].  Linear models with no L1
radius and d + 1 <= ``NEWTON_MAX_DIM`` are minimized by projected Newton,
whose subproblem is solved exactly over the theta L2 ball times the beta
interval; every other model (an L1 radius, ``mlp2``, larger d, and the
Potts fits) by projected gradient descent with a backtracking (Armijo)
line search.  Freezing beta at 0 recovers ordinary logistic
regression (MPLE-0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .interaction import InteractionMatrix
from .models import FunctionClassModel, as_design, dense_design

DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-8
ARMIJO_C = 1e-4
# fit() takes projected Newton when d + 1 is at most this and PGD above it.
# A Newton iteration forms H = Z^T W Z at n (d+1)^2 flops.  On
# dimension-sweep instances (2 BLAS threads, 2 fits each) Newton and PGD
# tie at n = 1024, d = 128 (0.029 s against 0.027 s), PGD wins at d = 256
# (0.09 s against 0.13 s), and at n = 16384, d = 128 Newton wins 0.19 s
# against 1.7 s.
NEWTON_MAX_DIM = 128
# the Barzilai-Borwein trial step is clipped to (0, MAX_STEP]
MAX_STEP = 1.0


def log2cosh(m):
    """log(2 cosh(m)) computed as |m| + log1p(exp(-2|m|)) to avoid overflow."""
    a = np.abs(m)
    return a + np.log1p(np.exp(-2.0 * a))


@dataclass(frozen=True, eq=False)
class PLProblem:
    """One pseudo-likelihood instance: structure, features, observation.

    X is a dense array or a scipy sparse matrix, kept as given.  The
    model must have one output; a K-output model belongs in a
    :class:`isingreg.potts.PottsProblem`.
    """

    A: InteractionMatrix
    X: np.ndarray
    sigma: np.ndarray
    model: FunctionClassModel
    beta_box: float = 1.0

    def __post_init__(self):
        X = as_design(self.X)
        sigma = np.asarray(self.sigma, dtype=float)
        if X.shape[0] != self.A.n or sigma.shape != (self.A.n,):
            raise ValueError("A, X, sigma sizes disagree")
        if not np.all(np.abs(sigma) == 1):
            raise ValueError("observed labels must be +/-1 spins")
        if self.model.n_outputs != 1:
            raise ValueError("a binary problem needs a one-output model, got "
                             f"{self.model.n_outputs} outputs")
        if not self.beta_box >= 0:
            raise ValueError(
                f"beta_box must be nonnegative, got {self.beta_box}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_local", self.A.local_field(sigma))

    @property
    def local(self):
        """Cached off-diagonal local field (A sigma), length n."""
        return self._local


@dataclass
class FitResult:
    """The fitted model plus optimizer telemetry.

    ``stop_reason`` says why the solver stopped: ``"tol"`` (the
    projected-gradient norm at the returned iterate is within the
    tolerance), ``"max_iters"`` or ``"no_descent"``.  For PGD
    ``"no_descent"`` means no step along the projected gradient lowered
    the objective in floating point; for projected Newton it means the
    line search found no lower value, or the step's predicted decrease
    was below the objective's rounding and the full step did not lower
    the projected-gradient norm.  Only ``"tol"`` counts as converged.
    """

    beta_hat: float
    objective_value: float
    iterations: int
    final_projected_grad_norm: float
    stop_reason: str
    model: FunctionClassModel = field(repr=False)

    @property
    def theta_hat(self):
        """The fitted model's parameters."""
        return self.model.params

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


def _descend(objective, project, z, step, max_iters, tol):
    """The iteration loop of both fit drivers, from the feasible point z.

    Each pass reads the unit-step projected-gradient norm at z and stops
    with ``"tol"`` once it is at most ``tol``; otherwise ``step(z, value,
    grad, pg_norm)`` returns the next accepted ``(z, value, grad)``, or
    None (stop with ``"no_descent"``) when it certifies no lower value.
    After ``max_iters`` steps one more pass reads the norm only, so every
    stop reports it at the z it returns.  Returns (z, value, iterations,
    pg_norm, stop_reason).
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    value, grad = objective(z)
    if not np.isfinite(value):
        raise NumericalFailure("objective is non-finite at the starting point")
    for iters in range(1, max_iters + 2):
        pg_norm = float(np.linalg.norm(z - project(z - grad)))
        if pg_norm <= tol or iters > max_iters:
            return (z, value, min(iters, max_iters), pg_norm,
                    "tol" if pg_norm <= tol else "max_iters")
        moved = step(z, value, grad, pg_norm)
        if moved is None:
            return z, value, iters, pg_norm, "no_descent"
        z, value, grad = moved


def projected_gradient_descent(objective, project, z0,
                               max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL):
    """Monotone projected gradient descent with Armijo backtracking.

    The trial step is a Barzilai-Borwein curvature estimate clipped to
    (0, ``MAX_STEP``], halved until the Armijo condition (constant 1e-4)
    holds; ``"no_descent"`` means no step lowered the value.
    Deterministic.  Projects ``z0``, then returns :func:`_descend`'s
    (z, value, iterations, pg_norm, stop_reason).
    """
    step = MAX_STEP
    prev_z = prev_grad = None

    def advance(z, value, grad, pg_norm):
        nonlocal step, prev_z, prev_grad
        if prev_z is not None:
            dz = z - prev_z
            dg = grad - prev_grad
            curv = float(dz @ dg)
            if curv > 0:
                step = float(dz @ dz) / curv
        step = min(max(step, 1e-16), MAX_STEP)
        while step > 1e-18:
            z_new = project(z - step * grad)
            diff = z - z_new
            value_new, grad_new = objective(z_new)
            # strict float descent keeps the loop from spinning on a
            # machine-precision plateau
            if np.isfinite(value_new) and value_new < value and \
                    value_new <= value - (ARMIJO_C / step) * float(diff @ diff):
                prev_z, prev_grad = z, grad
                return z_new, value_new, grad_new
            step *= 0.5
        # descent no longer certifiable at machine precision
        return None

    return _descend(objective, project, project(np.asarray(z0, dtype=float)),
                    advance, max_iters, tol)


def fit(problem, beta_frozen=None, max_iters=DEFAULT_MAX_ITERS,
        tol=DEFAULT_TOL):
    """Minimize the negative log-PL over (theta, beta) jointly, starting
    from the parameters ``problem.model`` holds with beta = 0.

    ``beta_frozen`` pins beta to the given finite value (MPLE-0 uses 0);
    otherwise beta stays in [-B, B] at every iterate, and theta stays
    inside its constraint balls.  A warm start is a model that already
    holds parameters, such as an earlier fit's ``FitResult.model``.  A
    ``linear`` model with no L1 radius and d + 1 <= ``NEWTON_MAX_DIM`` is
    fitted by projected Newton (:func:`_fit_newton`); every other model
    by projected gradient descent (:func:`projected_gradient_descent`).
    Both stop at ``"tol"`` when the unit-step projected-gradient norm is
    at most ``tol``; for linear field models the objective is convex, so
    the result is then a global minimizer up to that tolerance.
    """
    model = problem.model
    if model.kind == "linear" and model.l1_radius is None and \
            model.params["theta"].size + 1 <= NEWTON_MAX_DIM:
        return _fit_newton(problem, beta_frozen, max_iters, tol)
    return _fit_pgd(problem, neg_log_pl, beta_frozen, max_iters, tol)


def _stacked(problem, objective, beta_frozen):
    """The start point, beta interval, projection and value-gradient map
    of both fit drivers on the stacked iterate z = (theta..., beta), where
    ``objective(problem, theta_flat, beta)`` returns ``(value,
    grad_theta_flat, grad_beta)``.

    The start is the model's own parameters with beta = 0, projected: the
    linear models build all-zero weights unless given others, and ``mlp2``
    builds Glorot weights, because all-zero weights are a stationary
    point there.  Beta's interval is [-B, B], or [b, b] when beta is
    frozen at b; the projection clips beta to it, so a frozen beta's
    projected-gradient and step entries are exactly zero.
    """
    model = problem.model
    if beta_frozen is not None and not np.isfinite(beta_frozen):
        raise ValueError(f"a frozen beta must be finite, got {beta_frozen}")
    lo, hi = ((-problem.beta_box, problem.beta_box) if beta_frozen is None
              else (beta_frozen, beta_frozen))

    def project(zz):
        out = np.empty_like(zz)
        out[:-1] = model.project_flat(zz[:-1])
        out[-1] = min(max(zz[-1], lo), hi)
        return out

    def value_grad(zz):
        value, g_th, g_b = objective(problem, zz[:-1], zz[-1])
        return value, np.append(g_th, g_b)

    z0 = project(np.append(model.flatten(), 0.0))
    return z0, (lo, hi), project, value_grad


def _result(model, z, value, iters, pg_norm, stop_reason):
    return FitResult(
        beta_hat=float(z[-1]),
        objective_value=value,
        iterations=iters,
        final_projected_grad_norm=pg_norm,
        stop_reason=stop_reason,
        model=model.with_flat(z[:-1]),
    )


def _fit_pgd(problem, objective, beta_frozen, max_iters, tol):
    """The projected-gradient fit driver of :func:`fit` and
    :func:`isingreg.potts.fit_potts`."""
    z0, _, project, value_grad = _stacked(problem, objective, beta_frozen)
    return _result(problem.model, *projected_gradient_descent(
        value_grad, project, z0, max_iters=max_iters, tol=tol))


def _fit_newton(problem, beta_frozen, max_iters, tol):
    """Projected Newton (Lee, Sun & Saunders 2014) for a linear field
    constrained to an L2 ball only.

    The objective is a GLM in z = (theta, beta) with dense design
    Z = [X, A sigma] (a sparse X is densified, as d + 1 is small here) and
    Hessian H = Z^T diag(1 - tanh^2 m) Z.  Each iteration evaluates
    :func:`neg_log_pl` once, minimizes the quadratic model exactly over the
    feasible set (:func:`_newton_point`) and line-searches along the step
    with strict descent plus Armijo.  Once the model's decrease is below
    the rounding of the objective, the full step is taken only if it
    lowers the projected-gradient norm; otherwise the fit stops with
    ``"no_descent"``.  The loop, stop reasons and telemetry are
    :func:`_descend`'s.
    """
    z0, (lo, hi), project, value_grad = _stacked(problem, neg_log_pl,
                                                 beta_frozen)
    Z = np.column_stack([dense_design(problem.X), problem.local])
    radius = problem.model.l2_radius
    radius = np.inf if radius is None else radius

    def advance(z, value, grad, pg_norm):
        w = 1.0 - np.tanh(Z @ z) ** 2
        H = Z.T @ (w[:, None] * Z)
        # a relative ridge keeps H, and the Schur complement of its beta
        # entry, positive definite well above rounding when Z is rank
        # deficient; with no curvature at all the step is a unit gradient one
        H[np.diag_indices_from(H)] += 1e-12 * np.trace(H) or 1.0
        step = project(_newton_point(H, H @ z - grad, radius, lo, hi)) - z
        decrease = -float(grad @ step)
        # below the rounding of the objective descent cannot be certified:
        # the full step is then taken only if it lowers the projected gradient
        rounding = decrease <= 1e-15 * abs(value)
        for t in [1.0] if rounding else 0.5 ** np.arange(60):
            z_new = project(z + t * step)
            value_new, grad_new = value_grad(z_new)
            if np.isfinite(value_new) and (
                    np.linalg.norm(z_new - project(z_new - grad_new)) < pg_norm
                    if rounding
                    else (value_new < value and
                          value_new <= value - ARMIJO_C * t * decrease)):
                return z_new, value_new, grad_new
        return None

    return _result(problem.model, *_descend(value_grad, project, z0, advance,
                                            max_iters, tol))


def _newton_point(H, c, radius, lo, hi):
    """The exact minimizer of 1/2 y^T H y - c^T y over ||y_theta|| <= radius,
    lo <= y_beta <= hi, for positive definite H (the last coordinate is beta).

    Beta is first left free: eliminating it leaves the Schur complement
    on theta.  If the resulting beta is outside [lo, hi], the optimum has
    beta at the nearer end, because the minimum over theta is convex in
    beta; theta is then solved again with beta fixed there.  A frozen
    beta is the interval [b0, b0]; an infinite box or radius imposes no
    bound.
    """
    Htt, h, hbb = H[:-1, :-1], H[:-1, -1], H[-1, -1]
    theta = _ball_solve(Htt - np.outer(h, h) / hbb,
                        c[:-1] - h * (c[-1] / hbb), radius)
    beta = (c[-1] - h @ theta) / hbb
    if not lo <= beta <= hi:
        beta = min(max(beta, lo), hi)
        theta = _ball_solve(Htt, c[:-1] - h * beta, radius)
    return np.append(theta, beta)


def _ball_solve(S, b, radius):
    """argmin 1/2 u^T S u - b^T u over ||u|| <= radius (More & Sorensen 1983).

    S is positive definite.  One ``eigh`` of S; on the boundary u(mu) =
    (S + mu I)^-1 b, with mu >= 0 found by Newton on 1/||u(mu)|| -
    1/radius, which is concave in mu, so the iterates approach the root
    from below and never overshoot.
    """
    if radius == 0:
        return np.zeros_like(b)
    lam, Q = np.linalg.eigh(S)
    bt = Q.T @ b
    u = bt / lam
    norm = float(np.linalg.norm(u))
    mu = 0.0
    for _ in range(100):
        if norm <= radius * (1.0 + 1e-12):
            break
        mu += (1.0 / radius - 1.0 / norm) * norm ** 3 / float(
            np.sum(bt ** 2 / (lam + mu) ** 3))
        u = bt / (lam + mu)
        norm = float(np.linalg.norm(u))
    if norm > radius:
        u *= radius / norm
    return Q @ u
