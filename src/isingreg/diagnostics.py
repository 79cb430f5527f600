"""Analytic diagnostics for the dependent-regression model.

This module computes the proximity functional psi, the instance
complexity ratio sup ||h - h*||^2 / (n psi) and its thresholded variant,
exact KL/TV between small models, an empirically testable concentration
bound for mean-field residuals, eigenvalue summaries of the design, and
the closed-form Curie-Weiss rate quantities.  The ratios are exact at
beta* = 0 and bounded from below by one smooth search over theta elsewhere.
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
    frob, resid, *_ = _psi_terms(h - h_star, db, beta_star, h_star, A)
    return PsiValue(frob + resid, frob, resid)


def _psi_terms(dh, db, beta_star, h_star, A):
    """psi's Frobenius and residual terms at h = h* + dh, beta = beta* + db,
    for db != 0, then the residual vector and the tanh vector (the search's
    gradient reuses both)."""
    frob = db ** 2 * A.frobenius ** 2
    tanh = np.tanh((beta_star / db) * -dh + h_star)
    vec = dh + db * A.matvec(tanh)
    return frob, float(vec @ vec), vec, tanh


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
    and c2' are exact; elsewhere they are certified lower bounds from an
    L-BFGS search over theta-space steps, with the best ray as the witness.
    """

    c1_prime: float
    c1: float
    c2_prime: float
    argmax_witness: dict
    search_telemetry: dict = field(default_factory=dict)
    degenerate: bool = False


def _closed_form(X, h_star, A):
    """The exact suprema at beta* = 0, returned as by :func:`_theta_search`.

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


# random theta directions of the beta* != 0 search, each tried with both signs
_RANDOM_STARTS = 8


def _theta_search(X, h_star, beta_star, A, seed):
    """(c1', c2', unit field direction, theta direction, slope, telemetry)
    at beta* != 0, or None when X gives no direction.  L-BFGS maximizes
    ||X phi||^2 / psi from the closed-form witness and random starts of both
    signs, and minimizes psi from that witness and phi = 0, with
    d psi / d(X phi) = 2 (r - beta* sech^2(h* - beta* X phi) A r), r the
    residual vector.  c2' is 1 / (the least psi evaluated); c1' is read at
    the best phi's unit field step, or is 1/n (beta = beta*) if larger."""
    closed = _closed_form(X, h_star, A)
    if closed is None:
        return None
    from scipy.optimize import minimize  # 0.2-0.4 s to import: not at load

    evals, best, least = 0, (-np.inf, None), np.inf

    def objective(phi, ratio):
        # log(psi / ||X phi||^2) if ratio else psi, with the gradient in phi
        nonlocal evals, best, least
        dh = X @ phi
        frob, resid, r, tanh = _psi_terms(dh, 1.0, beta_star, h_star, A)
        q, norm2 = frob + resid, dh @ dh
        evals, least = evals + 1, min(least, q)
        if norm2 / q > best[0]:
            best = (norm2 / q, phi.copy())
        grad = 2.0 * (r - beta_star * (1.0 - tanh * tanh) * A.matvec(r))
        if ratio:
            return np.log(q / norm2), X.T @ (grad / q - 2.0 * dh / norm2)
        return q, X.T @ grad

    _, _, _, u, lam, _ = closed
    warm = [u / (lam * np.linalg.norm(X @ u))] if lam != 0.0 else []
    runs = [(x0, False) for x0 in warm + [np.zeros(X.shape[1])]]
    runs += [(x0, True) for x0 in warm]
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_STARTS):
        phi = rng.standard_normal(X.shape[1])
        phi *= 10.0 ** rng.uniform(-2.0, 2.0) / np.linalg.norm(X @ phi)
        runs += [(phi, True), (-phi, True)]
    for x0, ratio in runs:
        # scipy's default gtol = 1e-5 stopped up to 1e-5 short in c1'
        minimize(objective, x0, (ratio,), jac=True, method="L-BFGS-B",
                 options={"ftol": 1e-15, "gtol": 1e-12})

    dh = X @ best[1]
    w_hat, lam = dh / np.linalg.norm(dh), 1.0 / np.linalg.norm(dh)
    frob, resid, *_ = _psi_terms(w_hat, lam, beta_star, h_star, A)
    val = 1.0 / (A.n * (frob + resid))
    if val <= 1.0 / A.n:
        val, lam = 1.0 / A.n, 0.0
    return (val, 1.0 / least, w_hat, best[1] / np.linalg.norm(best[1]), lam,
            {"evals": evals + 1, "starts": len(runs)})


def c1_prime_estimate(family, h_star, beta_star, A, beta_box=1.0, seed=0):
    """Supremum of the squared-error-to-psi ratios over a linear family.

    ``family`` is ``("linear", X, radius)``: X a finite n x d design,
    parameters in the L2 ball of the given radius.  The ratios are constant
    along rays out of (h*, beta*); with beta step 1 and field step X phi,
    psi = ||A||_F^2 + G(phi), G(phi) = ||X phi + A tanh(h* - beta* X phi)||^2,
    so c1' = max(1/n, sup ||X phi||^2 / (n psi)) and c2' = 1 / min psi.  At
    beta* = 0 or A = 0, G is a quadratic and both are exact
    (:func:`_closed_form`, no psi evaluated); elsewhere :func:`_theta_search` gives certified
    LOWER bounds.  ``c1`` is min(c1', t_max^2 / n) along the witness ray,
    t_max the largest feasible step in field scale.  ``degenerate`` flags
    an X with no nonzero column; ``search_telemetry`` counts psi
    evaluations and L-BFGS starts.  Another family kind, or X and h* of the
    wrong shape or not finite, raise ``ValueError`` before any work.
    """
    if family[0] != "linear":
        raise ValueError(f"unknown family kind {family[0]!r}")
    h_star = np.asarray(h_star, dtype=float)
    X = np.asarray(family[1], dtype=float)
    radius = float(family[2])
    if X.ndim != 2 or X.shape[0] != A.n or h_star.shape != (A.n,):
        raise ValueError(f"X must be {A.n} x d and h* of length {A.n}, got "
                         f"shapes {X.shape} and {h_star.shape}")
    if not (np.isfinite(X).all() and np.isfinite(h_star).all()):
        raise ValueError("X and h* must be finite")
    if beta_star == 0.0 or A.frobenius == 0.0:  # G is then a quadratic
        found = _closed_form(X, h_star, A)
    else:
        found = _theta_search(X, h_star, beta_star, A, seed)
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
