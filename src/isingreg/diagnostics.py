"""Analytic diagnostics for the dependent-regression model.

This module computes the proximity functional psi, the instance
complexity ratio sup ||h - h*||^2 / (n psi) and its thresholded variant,
exact KL/TV between small models, an empirically testable concentration
bound for mean-field residuals, eigenvalue summaries of the design, and
the closed-form Curie-Weiss rate quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ising import exact_summary, gibbs_sample


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiValue:
    """psi split into its Frobenius and mean-field-residual terms."""

    value: float
    frobenius_term: float
    residual_term: float


def psi(h, beta, h_star, beta_star, A):
    """Proximity functional between (h, beta) and (h*, beta*):

        (beta - beta*)^2 ||A||_F^2
          + || h - h* + (beta - beta*) A tanh( beta*/(beta-beta*) (h*-h) + h* ) ||^2.

    At beta = beta* the prefactor kills the bounded tanh term along every
    approach path, so the value is ||h - h*||^2 by continuity.  A is
    applied with its full stored entries (diagonal included): psi is a
    matrix-analytic quantity, not a conditional law.  The arithmetic is
    :func:`_psi_terms`, which the complexity search calls as well.
    """
    h = np.asarray(h, dtype=float)
    h_star = np.asarray(h_star, dtype=float)
    if h.shape != (A.n,) or h_star.shape != (A.n,):
        raise ValueError("field vectors must have length n")
    db = float(beta) - float(beta_star)
    if db == 0.0:
        resid = float(np.sum((h - h_star) ** 2))
        return PsiValue(resid, 0.0, resid)
    frob, resid = _psi_terms(h - h_star, db, beta_star, h_star, A)
    return PsiValue(frob + resid, frob, resid)


def _psi_terms(dh, db, beta_star, h_star, A):
    """psi's Frobenius and residual terms at h = h* + dh, beta = beta* + db,
    for db != 0."""
    frob = db ** 2 * A.frobenius ** 2
    arg = (beta_star / db) * -dh + h_star
    vec = dh + db * A.matvec(np.tanh(arg))
    return frob, float(vec @ vec)


# ---------------------------------------------------------------------------
# complexity ratio search
# ---------------------------------------------------------------------------

@dataclass
class ComplexityEstimate:
    """The complexity suprema of a linear family at (h*, beta*).

    ``c1_prime`` is the supremum of (||h-h*||^2/n) / psi; ``c2_prime`` is
    the analogous ratio with (beta - beta*)^2 in the numerator; ``c1``
    applies the unit-psi switch (plain squared distance when the
    proximity is below 1) along the c1' witness ray.  At beta* = 0 c1'
    and c2' are exact; elsewhere they are certified lower bounds from a
    search, with the best ray found as the witness.
    """

    c1_prime: float
    c1: float
    c2_prime: float
    argmax_witness: dict
    search_telemetry: dict = field(default_factory=dict)
    degenerate: bool = False


# random start directions of the d > 1 search, besides the d axes
_RESTARTS = 24
# log|lambda| grid of the slope scan: 49 points over [1e-6, 1e6]
_LOG_SLOPES = np.linspace(np.log(1e-6), np.log(1e6), 49)


def _best_lambda(w_hat, beta_star, h_star, A):
    """Best slope for the unit field direction ``w_hat``.

    psi is quadratic along the ray h = h* + t w_hat, beta = beta* + t lam,
    so both ratios depend on the direction only: with Q = psi at t = 1,
    c1' = 1 / (n Q) and c2' = lam^2 / Q.  A scan of |lam| over the log
    grid :data:`_LOG_SLOPES` for both signs is refined by golden-section
    search for c1' on log|lam| around the best grid point.  Returns (c1',
    lam, the largest c2' over every evaluated slope, the number of psi
    evaluations).
    """
    best, best2 = (1.0 / A.n, 0.0), 0.0
    evals = 0

    def ratio(lam):
        nonlocal best2, evals
        frob, resid = _psi_terms(w_hat, lam, beta_star, h_star, A)
        evals += 1
        q = frob + resid
        best2 = max(best2, lam ** 2 / q)
        return 1.0 / (A.n * q)

    for sign in (1.0, -1.0):
        vals = [ratio(sign * np.exp(lg)) for lg in _LOG_SLOPES]
        k = int(np.argmax(vals))
        if vals[k] > best[0]:
            best = (vals[k], sign * np.exp(_LOG_SLOPES[k]))
        # golden-section refinement on log scale around the best grid cell
        a = _LOG_SLOPES[max(k - 1, 0)]
        b = _LOG_SLOPES[min(k + 1, len(_LOG_SLOPES) - 1)]
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        x1 = b - phi * (b - a)
        x2 = a + phi * (b - a)
        f1 = ratio(sign * np.exp(x1))
        f2 = ratio(sign * np.exp(x2))
        for _ in range(60):
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + phi * (b - a)
                f2 = ratio(sign * np.exp(x2))
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - phi * (b - a)
                f1 = ratio(sign * np.exp(x1))
        fm, lm = max((f1, x1), (f2, x2))
        if fm > best[0]:
            best = (fm, sign * np.exp(lm))
    return best[0], best[1], best2, evals


def _closed_form(X, h_star, A):
    """The exact suprema at beta* = 0, returned as by :func:`_ray_search`.

    The tanh argument is then h* on every ray, so along a unit direction
    w with slope lam, psi = 1 + 2 lam (w . u) + lam^2 D, u = A tanh(h*),
    D = ||A||_F^2 + ||u||^2.  Minimizing over lam and w in range(X) gives
    c1' = 1 / (n (1 - p/D)) and c2' = 1 / (D - p) with p = ||P_X u||^2, at
    w = P_X u / sqrt(p), lam = -sqrt(p) / D (any w and lam = 0 if p = 0).
    """
    nonzero = np.flatnonzero(np.linalg.norm(X, axis=0) > 1e-12)
    if nonzero.size == 0:
        return None
    u = A.matvec(np.tanh(h_star))
    big_d = A.frobenius ** 2 + float(u @ u)
    p = 0.0
    if u.any():
        coef, *_ = np.linalg.lstsq(X, u, rcond=None)
        proj = X @ coef
        p = float(proj @ proj)
    c2 = 1.0 / (big_d - p) if big_d > p else np.inf
    if p == 0.0:
        w = X[:, nonzero[0]]
        return (1.0 / A.n, c2, w / np.linalg.norm(w),
                np.eye(X.shape[1])[nonzero[0]], 0.0, {"evals": 0})
    return (1.0 / (A.n * (1.0 - p / big_d)), c2, proj / np.sqrt(p),
            coef / np.linalg.norm(coef), -np.sqrt(p) / big_d, {"evals": 0})


def _ray_search(X, h_star, beta_star, A, seed):
    """(c1', c2', unit field direction, theta direction, slope, telemetry)
    of the best ray found, or None when X gives no direction: the slope
    search :func:`_best_lambda` over both directions for d = 1, else over
    24 random restarts and the d axes, then coordinate ascent."""
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    if d == 1:
        us = [np.array([1.0]), np.array([-1.0])]
    else:
        us = [rng.standard_normal(d) for _ in range(_RESTARTS)]
        us += [e for e in np.eye(d)]
    directions = []
    for u in us:
        u = u / np.linalg.norm(u)
        w = X @ u
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            directions.append((w / norm, u))
    if not directions:
        return None

    evals, best2 = 0, 0.0

    def search(w_hat):
        nonlocal evals, best2
        val, lam, val2, ev = _best_lambda(w_hat, beta_star, h_star, A)
        evals += ev
        best2 = max(best2, val2)
        return val, lam

    best = (-np.inf, None, None, None)
    for w_hat, u in directions:
        val, lam = search(w_hat)
        if val > best[0]:
            best = (val, w_hat, u, lam)
    val, w_hat, u, lam = best

    if d > 1:  # coordinate ascent from the best start
        for _ in range(3):
            improved = False
            for j in range(d):
                for delta in (0.25, -0.25):
                    cand = u.copy()
                    cand[j] += delta
                    w = X @ cand
                    norm = np.linalg.norm(w)
                    if norm <= 1e-12:
                        continue
                    v, lam_c = search(w / norm)
                    if v > val:
                        val, lam, u = v, lam_c, cand
                        improved = True
            if not improved:
                break
        u = u / np.linalg.norm(u)
        w_hat = X @ u / np.linalg.norm(X @ u)
    return (val, best2, w_hat, u, lam,
            {"evals": evals, "directions": len(directions)})


def c1_prime_estimate(family, h_star, beta_star, A, beta_box=1.0, seed=0):
    """Supremum of the squared-error-to-psi ratios over a linear family.

    ``family`` is ``("linear", X, radius)``: field directions X u / ||X u||,
    parameters in the L2 ball of the given radius (another kind raises
    ``ValueError``).  The ratios are constant along rays out of (h*,
    beta*).  At beta* = 0, c1' and c2' are exact (:func:`_closed_form`, no
    psi evaluated); elsewhere the tanh argument moves with the slope and
    :func:`_ray_search` gives certified LOWER bounds.  ``c1`` is min(c1',
    t_max^2 / n) along the witness ray, t_max the largest feasible step
    in field scale.  ``degenerate`` flags an X with no nonzero direction;
    ``search_telemetry`` counts psi evaluations and start directions.
    """
    if family[0] != "linear":
        raise ValueError(f"unknown family kind {family[0]!r}")
    h_star = np.asarray(h_star, dtype=float)
    X = np.atleast_2d(np.asarray(family[1], dtype=float))
    radius = float(family[2])
    if beta_star == 0.0:
        found = _closed_form(X, h_star, A)
    else:
        found = _ray_search(X, h_star, beta_star, A, seed)
    if found is None:
        return ComplexityEstimate(0.0, 0.0, 0.0, {}, {"evals": 0},
                                  degenerate=True)
    val, val2, w_hat, u, lam, telemetry = found

    # largest feasible field-scale step along the winning ray
    theta_anchor = np.zeros(X.shape[1])
    if h_star.any():
        theta_anchor, *_ = np.linalg.lstsq(X, h_star, rcond=None)
    dot = float(theta_anchor @ u)
    slack = radius ** 2 - float(theta_anchor @ theta_anchor)
    s_max = -dot + np.sqrt(max(dot ** 2 + slack, 0.0))
    t_max = s_max * np.linalg.norm(X @ u)
    if lam != 0.0:
        t_max = min(t_max, max(beta_box - abs(beta_star), 0.0) / abs(lam))

    witness = {"h": h_star + w_hat, "beta": beta_star + lam,
               "lambda_slope": lam, "t_max": float(t_max),
               "theta_direction": u}
    if X.shape[1] == 1:
        # d=1 convention: lambda = -(beta-beta*)/(theta-theta*)
        witness["lambda_d1"] = -lam * np.linalg.norm(X[:, 0]) / float(u[0])

    return ComplexityEstimate(
        c1_prime=float(val),
        c1=float(min(val, t_max ** 2 / A.n)),
        c2_prime=float(val2),
        argmax_witness=witness,
        search_telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# exact KL / TV
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KLReport:
    kl_forward: float
    kl_backward: float
    tv: float
    pinsker_ok: bool


def kl_tv_exact(model_0, model_1):
    """KL divergences (both directions) and total variation between two
    Ising models on the same node set, from exact enumeration tables."""
    if model_0.n != model_1.n:
        raise ValueError("models must share the node count")
    p = exact_summary(model_0).full_table
    q = exact_summary(model_1).full_table
    kl_f = float(np.sum(p * (np.log(p) - np.log(q))))
    kl_b = float(np.sum(q * (np.log(q) - np.log(p))))
    tv = 0.5 * float(np.sum(np.abs(p - q)))
    ok = tv <= np.sqrt(max(kl_f, 0.0) / 2.0) + 1e-12
    return KLReport(kl_forward=max(kl_f, 0.0), kl_backward=max(kl_b, 0.0),
                    tv=tv, pinsker_ok=bool(ok))


# ---------------------------------------------------------------------------
# exchangeable-pairs concentration test
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TailReport:
    mean: float
    std_error: float
    t_grid: np.ndarray
    empirical_exceedance: np.ndarray
    bound: np.ndarray
    all_below_bound: bool
    samples: int


def exchangeable_pairs_test(model, v, samples, seed=0, burn_in=100, thin=5):
    """Monte-Carlo check of the mean-field-residual tail bound.

    Draws Gibbs samples, computes f(sigma) = sum_i v_i (sigma_i -
    tanh(beta (A sigma)_i + h_i)) with the off-diagonal local field, and
    compares the empirical exceedance P[|f| > t] against

        2 exp( -t^2 / (8 ||v||^2 (1 + |beta| ||A||_inf)) )

    at t = 0.5, 1.0, ..., 3.5 times the sub-Gaussian scale
    sqrt(4 ||v||^2 (1 + |beta| ||A||_inf)), where the bound falls from
    about 1.8 to 4e-3.

    The functional has exact mean zero under the model; the report also
    carries the empirical mean and its standard error.
    """
    v = np.asarray(v, dtype=float)
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        raise ValueError("v must be nonzero")
    states = gibbs_sample(model, samples, burn_in=burn_in, thin=thin,
                          seed=seed).astype(float)
    local = model.A.local_field_many(states)
    resid = states - np.tanh(model.beta * local + model.h)
    f = resid @ v

    scale2 = 8.0 * norm_v ** 2 * (1.0 + abs(model.beta) * model.A.infinity)
    t_grid = np.sqrt(scale2 / 2.0) * np.arange(0.5, 3.51, 0.5)
    exceed = np.array([(np.abs(f) > t).mean() for t in t_grid])
    bound = 2.0 * np.exp(-t_grid ** 2 / scale2)
    return TailReport(
        mean=float(f.mean()),
        std_error=float(f.std(ddof=1) / np.sqrt(len(f))),
        t_grid=t_grid,
        empirical_exceedance=exceed,
        bound=bound,
        all_below_bound=bool(np.all(exceed <= bound)),
        samples=samples,
    )


# ---------------------------------------------------------------------------
# design eigenvalues and the Curie-Weiss rate
# ---------------------------------------------------------------------------

def kappa_and_restricted_eig(X):
    """kappa, the minimum eigenvalue of X^T X / n, by a dense symmetric
    eigensolve.  When d > n, rank(X) <= n < d and kappa is 0 without a
    solve.  A design with no columns raises ``ValueError``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if d == 0:
        raise ValueError("the design has no feature columns")
    if d > n:
        return 0.0
    return float(np.linalg.eigvalsh(X.T @ X / n)[0])


def curie_weiss_rate(alpha, n):
    """Closed-form rate quantities for the +/-1 external-field pattern
    with a fraction ``alpha`` of +1 entries on the Curie-Weiss matrix.

    Returns (lambda_star, residual): lambda_star = 1 - 2 alpha is the
    minimizer of ||lambda 1 + h||, and the residual is the projection
    distance sqrt(||h||^2 - <h,1>^2 / n) = sqrt(4 n alpha (1 - alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    lambda_star = 1.0 - 2.0 * alpha
    residual = float(np.sqrt(4.0 * n * alpha * (1.0 - alpha)))
    return lambda_star, residual
