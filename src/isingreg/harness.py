"""Experiment drivers: rate sweeps, the lower-bound demo, the
Curie-Weiss study, and the MPLE-0 vs MPLE-beta benchmark.

Every driver emits a tidy :class:`ExperimentTable` whose rows carry the
exact configuration needed to re-run them in isolation; trial seeds are
derived as ``seed + 1000 * grid_index + trial_index``.  Tables render to
CSV (authoritative, byte-stable under a fixed seed) and minimal SVG line
charts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics
from .data import Dataset, gen_synthetic, make_splits
from .errors import NumericalFailure
from .interaction import InteractionMatrix, from_weighted_edges
from .ising import IsingModel
from .models import FunctionClassModel
from .mple import PLProblem, fit
from .potts import PottsProblem, fit_potts, gibbs_sample_potts, predict_class

CSV_COLUMNS = ("experiment", "config", "trial", "seed", "metric", "value")


@dataclass
class ExperimentTable:
    """Tidy rows of (experiment, config, trial, seed, metric, value)."""

    rows: list = field(default_factory=list)

    def add(self, experiment, config, trial, seed, metric, value):
        self.rows.append({
            "experiment": experiment,
            "config": json.dumps(config, sort_keys=True,
                                 separators=(",", ":")),
            "trial": int(trial),
            "seed": int(seed),
            "metric": metric,
            "value": float(value),
        })

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r["experiment"], r["config"],
                                                r["trial"], r["metric"]))

    def metrics(self):
        return sorted({r["metric"] for r in self.rows})

    def values(self, metric):
        """(config dict, value) of every row of ``metric``, in sorted order."""
        return [(json.loads(r["config"]), r["value"])
                for r in self.sorted_rows() if r["metric"] == metric]

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.sorted_rows():
            config = '"' + r["config"].replace('"', '""') + '"'
            buf.write(f'{r["experiment"]},{config},{r["trial"]},'
                      f'{r["seed"]},{r["metric"]},{r["value"]!r}\n')
        return buf.getvalue()

    @staticmethod
    def from_csv(text):
        """Parse :meth:`to_csv` output.  An empty text, another header, or
        a row that is not six fields with a JSON config, an integer trial
        and seed and a numeric value raises ``ValueError`` naming its
        line."""
        table = ExperimentTable()
        reader = csv.reader(io.StringIO(text))
        try:
            if tuple(next(reader, ())) != CSV_COLUMNS:
                raise ValueError(f"the header is not {','.join(CSV_COLUMNS)}")
            for row in reader:
                experiment, config, trial, seed, metric, value = row
                json.loads(config)
                table.rows.append({
                    "experiment": experiment,
                    "config": config,
                    "trial": int(trial),
                    "seed": int(seed),
                    "metric": metric,
                    "value": float(value),
                })
        except ValueError as exc:
            raise ValueError(f"line {max(reader.line_num, 1)}: {exc}") from exc
        return table


def loglog_slope(xs, ys):
    """OLS slope of log y on log x (two points give the exact chord)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    lx_c = lx - lx.mean()
    return float((lx_c @ (ly - ly.mean())) / (lx_c @ lx_c))


# ---------------------------------------------------------------------------
# rate experiments
# ---------------------------------------------------------------------------

def _sweep_instance(kind, x, rng_seed, cfg):
    """Build one synthetic instance for a sweep grid point."""
    rng = np.random.default_rng(rng_seed)
    if kind == "frobenius_sweep":
        n, d, r = cfg["n"], cfg["d"], int(x)
        # constant first feature column: theta_1 is then confounded with
        # beta through the unit row sums of the block matrix, which is the
        # regime where the 1/||A||_F^2 rate binds (pure i.i.d. Gaussian
        # features estimate theta at the d/n rate no matter what A is)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        theta = np.concatenate([[cfg["theta_intercept"]],
                                rng.standard_normal(d - 1)])
        theta[1:] *= cfg["theta_noise"] / max(np.linalg.norm(theta[1:]), 1e-12)
        return gen_synthetic(n, d, {"kind": "block", "r": r},
                             theta_star=theta, beta_star=cfg["beta_star"],
                             features=X, seed=rng_seed)
    if kind == "n_sweep_random_features":
        n, d = int(x), cfg["d"]
        theta = rng.standard_normal(d)
        theta *= cfg["theta_norm"] / np.linalg.norm(theta)
        return gen_synthetic(n, d, {"kind": "curie_weiss"},
                             theta_star=theta, beta_star=cfg["beta_star"],
                             seed=rng_seed)
    if kind == "dimension_sweep":
        n, d = cfg["n"], int(x)
        theta = rng.standard_normal(d)
        theta *= cfg["theta_norm"] / np.linalg.norm(theta)
        return gen_synthetic(n, d, {"kind": "block", "r": cfg["r"]},
                             theta_star=theta, beta_star=cfg["beta_star"],
                             seed=rng_seed)
    if kind == "sparse_sweep":
        n, d = cfg["n"], cfg["d"]
        s = float(x)
        support = rng.choice(d, size=cfg["support"], replace=False)
        theta = np.zeros(d)
        theta[support] = rng.standard_normal(cfg["support"])
        theta *= min(1.0, s / np.sum(np.abs(theta))) * 0.9
        return gen_synthetic(n, d, {"kind": "block", "r": cfg["r"]},
                             theta_star=theta, beta_star=cfg["beta_star"],
                             seed=rng_seed)


SWEEP_DEFAULTS = {
    "frobenius_sweep": {"n": 1024, "d": 5, "beta_star": 0.5,
                        "theta_intercept": 0.8, "theta_noise": 0.15},
    "n_sweep_random_features": {"d": 5, "beta_star": 0.3, "theta_norm": 0.6},
    "dimension_sweep": {"n": 1024, "r": 16, "beta_star": 0.5,
                        "theta_norm": 0.6},
    "sparse_sweep": {"n": 512, "d": 64, "support": 4, "beta_star": 0.5,
                     "r": 16},
}


def rate_experiment(kind, grid, trials, seed=0, **overrides):
    """Run gen -> fit -> error metrics over a grid x trials design.

    Records per-trial squared parameter errors, the field MSE, the design
    kappa, and ||A||_F^2, plus aggregate mean rows and the log-log slope
    of the mean squared theta error against the grid variable.  Fit
    failures are recorded per row rather than aborting the sweep.  An
    empty grid, ``trials < 1``, an unknown ``kind``, an override that
    ``SWEEP_DEFAULTS[kind]`` does not hold and a ``dimension_sweep`` grid
    value below 1 raise ``ValueError`` before any draw.
    """
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if kind not in SWEEP_DEFAULTS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    if kind == "dimension_sweep" and min(grid) < 1:
        raise ValueError(f"grid value {min(grid)} leaves no feature columns")
    cfg = dict(SWEEP_DEFAULTS[kind])
    unknown = sorted(set(overrides) - set(cfg))
    if unknown:
        raise ValueError(f"{kind} has no settings {unknown}")
    cfg.update(overrides)
    table = ExperimentTable()
    means = []
    for gi, x in enumerate(grid):
        errs = []
        for ti in range(trials):
            rng_seed = seed + 1000 * gi + ti
            config = {"kind": kind, "x": float(x), **cfg}
            ds = _sweep_instance(kind, x, rng_seed, cfg)
            theta_star = ds.ground_truth["theta"]
            beta_star = ds.ground_truth["beta"]
            d = ds.X.shape[1]
            if kind == "sparse_sweep":
                model = FunctionClassModel.sparse_linear(
                    d, l1_radius=float(x), l2_radius=2.0)
            else:
                model = FunctionClassModel.linear(d, l2_radius=2.0)
            problem = PLProblem(ds.A, ds.X, ds.labels, model, beta_box=1.0)
            try:
                res = fit(problem)
            except NumericalFailure:
                table.add(kind, config, ti, rng_seed, "fit_failed", 1.0)
                continue
            theta_hat = res.theta_hat["theta"]
            theta_err = float(np.sum((theta_hat - theta_star) ** 2))
            kappa = diagnostics.kappa_and_restricted_eig(ds.X)
            metrics = {
                "theta_sq_err": theta_err,
                "beta_sq_err": (res.beta_hat - beta_star) ** 2,
                "field_mse": float(np.sum((ds.X @ (theta_hat - theta_star)) ** 2)
                                   / ds.n),
                "kappa": kappa,
                "frob_sq": ds.A.frobenius ** 2,
            }
            for name, value in metrics.items():
                table.add(kind, config, ti, rng_seed, name, value)
            errs.append(theta_err)
        mean_err = float(np.mean(errs)) if errs else float("nan")
        means.append(mean_err)
        table.add(kind, {"kind": kind, "x": float(x), **cfg}, -1, seed,
                  "mean_theta_sq_err", mean_err)
    if len(grid) > 1:
        slope = loglog_slope(list(grid), means)
        table.add(kind, {"kind": kind, "grid": [float(g) for g in grid], **cfg},
                  -1, seed, "slope_theta_sq_err", slope)
    return table


# ---------------------------------------------------------------------------
# lower-bound demo
# ---------------------------------------------------------------------------

def solve_mean_field_fixpoint():
    """Nonnegative solution of tanh(1 + a/2) = a by bisection on [0, 1],
    to an interval width of 1e-12."""
    lo, hi = 0.0, 1.0
    assert np.tanh(1.0 + lo / 2.0) - lo > 0 and np.tanh(1.0 + hi / 2.0) - hi < 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if np.tanh(1.0 + mid / 2.0) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lower_bound_demo(n, r, c0=0.1):
    """Two-point indistinguishability construction at enumeration scale.

    Builds the block matrix with unit row sums, the base parameters
    (theta_0, beta_0) = (1, 1/2) and the tilted pair theta_zeta = 1 +
    zeta a, beta_zeta = 1/2 - zeta with zeta = c0 / ||A||_F, where a
    solves tanh(1 + a/2) = a.  Reports the psi identity (the fully tilted
    pair has psi exactly ||A||_F^2), exact KL and TV between the two spin
    models, and the failure-probability floor (1 - TV) / 2 that any
    estimator must obey for separating the two.
    """
    if n > 16:
        raise ValueError("demo is capped at n=16 for exact enumeration")
    A = InteractionMatrix.block_partition(n, r)
    a = solve_mean_field_fixpoint()
    ones = np.ones(n)
    theta0, beta0 = 1.0, 0.5
    theta1, beta1 = 1.0 + a, -0.5

    psi_full = diagnostics.psi(theta1 * ones, beta1, theta0 * ones, beta0, A)
    zeta = c0 / A.frobenius
    theta_z, beta_z = theta0 + zeta * a, beta0 - zeta
    psi_z = diagnostics.psi(theta_z * ones, beta_z, theta0 * ones, beta0, A)

    model0 = IsingModel(A, theta0 * ones, beta0)
    model_z = IsingModel(A, theta_z * ones, beta_z)
    kl = diagnostics.kl_tv_exact(model0, model_z)
    return {
        "a": a,
        "n": n,
        "r": r,
        "c0": c0,
        "zeta": zeta,
        "frob_sq": A.frobenius ** 2,
        "psi_identity": psi_full.value,
        "psi_zeta": psi_z.value,
        "kl_forward": kl.kl_forward,
        "kl_backward": kl.kl_backward,
        "tv": kl.tv,
        "pinsker_ok": kl.pinsker_ok,
        "lecam_floor": (1.0 - kl.tv) / 2.0,
        "theta_separation_sq": (zeta * a) ** 2,
    }


# ---------------------------------------------------------------------------
# Curie-Weiss experiment
# ---------------------------------------------------------------------------

def curie_weiss_experiment(alpha_grid, n, trials, seed=0):
    """Scalar-theta estimation on the all-(1/n) matrix with a +/-1 field
    pattern, at theta* = 0.6 and beta* = 0.3; the estimation difficulty is
    governed by how far the pattern is from the constant vector (the
    residual column).  ``trials < 1`` raises ``ValueError`` before any
    draw."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    theta_star, beta_star = 0.6, 0.3
    table = ExperimentTable()
    A = InteractionMatrix.curie_weiss(n)
    for gi, alpha in enumerate(alpha_grid):
        lam_star, residual = diagnostics.curie_weiss_rate(alpha, n)
        m_plus = int(round(alpha * n))
        h_pattern = np.concatenate([np.ones(m_plus), -np.ones(n - m_plus)])
        X = h_pattern[:, None]
        config = {"kind": "curie_weiss", "x": float(alpha), "n": n,
                  "theta_star": theta_star, "beta_star": beta_star}
        table.add("curie_weiss", config, -1, seed, "residual", residual)
        table.add("curie_weiss", config, -1, seed, "lambda_star", lam_star)
        errs = []
        for ti in range(trials):
            rng_seed = seed + 1000 * gi + ti
            ds = gen_synthetic(n, 1, A, theta_star=np.array([theta_star]),
                               beta_star=beta_star, features=X,
                               seed=rng_seed)
            model = FunctionClassModel.linear(1, l2_radius=2.0)
            problem = PLProblem(A, X, ds.labels, model, beta_box=1.0)
            res = fit(problem)
            err = abs(float(res.theta_hat["theta"][0]) - theta_star)
            table.add("curie_weiss", config, ti, rng_seed, "theta_abs_err", err)
            table.add("curie_weiss", config, ti, rng_seed, "beta_abs_err",
                      abs(res.beta_hat - beta_star))
            errs.append(err)
        table.add("curie_weiss", config, -1, seed, "mean_theta_abs_err",
                  float(np.mean(errs)))
    return table


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def planted_potts_dataset(n=200, K=3, seed=0, beta_star=0.5):
    """Node-classification instance with a planted dependency strength.

    Latent prototypes drive a homophilic stochastic-block graph (edge
    probability 0.10 within a prototype and 0.006 across, normalized by
    maximum degree) and K class-indicator features: a random half of the
    nodes get +2 on their prototype's feature, the rest carry no signal.
    Labels are one Potts Gibbs sample whose field is the identity map of
    the features at the given interaction strength.  Uninformative nodes
    are where neighbor labels carry signal the features lack.  With
    beta_star = 0 the labels are conditionally independent given the
    features.  Splits are :func:`make_splits` at seed + 2.
    """
    rng = np.random.default_rng(seed)
    prototypes = rng.integers(0, K, size=n)
    # one uniform per pair i < j, in row-major order
    i, j = np.triu_indices(n, 1)
    p = np.where(prototypes[i] == prototypes[j], 0.10, 0.006)
    hit = rng.random(len(i)) < p
    edges = np.column_stack([i[hit], j[hit], np.ones(hit.sum())])
    A = from_weighted_edges(edges, n)

    X = rng.standard_normal((n, K))
    informative = rng.random(n) < 0.5
    X[informative, prototypes[informative]] += 2.0

    w_true = np.eye(K)
    truth = FunctionClassModel.linear(K, n_outputs=K, theta=w_true,
                                      l2_radius=None)
    y = gibbs_sample_potts(A, X, truth, beta_star, 1, burn_in=60,
                           seed=seed + 1)[0]
    splits = make_splits(y, seed=seed + 2)
    return Dataset(X=X, labels=y, A=A, splits=splits,
                   ground_truth={"beta": beta_star, "W": w_true},
                   edges=edges)


def accuracy_benchmark(dataset, seeds, model_kind="mlp2", width=32,
                       dataset_name="planted"):
    """MPLE-0 vs MPLE-beta test accuracy over seeds, Table-style schema.

    Both methods fit the same unconstrained field model on the train
    split (neighbor counts from train labels only), with |beta| <= 1, at
    most 400 iterations and tolerance 1e-6; at test time predictions
    condition on the train and validation labels, never on test labels
    or features during training.  The MPLE-beta run warm-starts from the
    converged MPLE-0 field parameters, so for non-convex field models the
    comparison isolates what the interaction term adds rather than which
    local optimum each run happens to find.  Empty ``seeds`` raise
    ``ValueError``.
    """
    if not dataset.splits:
        raise ValueError("dataset has no splits")
    if len(seeds) == 0:
        raise ValueError("seeds must be nonempty")
    K = int(dataset.labels.max()) + 1
    train = dataset.splits["train"]
    val = dataset.splits["val"]
    test = dataset.splits["test"]
    known_at_test = np.sort(np.concatenate([train, val]))
    table = ExperimentTable()
    accs = {"mple0": [], "mpleb": []}
    for ti, s in enumerate(seeds):
        if model_kind == "mlp2":
            model = FunctionClassModel.mlp2(dataset.X.shape[1], n_outputs=K,
                                            width=width, seed=s)
        else:
            model = FunctionClassModel.linear(dataset.X.shape[1], n_outputs=K,
                                              l2_radius=None)
        theta0 = model.flatten()
        problem = PottsProblem(K, dataset.A, dataset.X, dataset.labels, model,
                               beta_box=1.0, sites=train, known=train)
        config = {"kind": "benchmark", "dataset": dataset_name,
                  "model": model_kind, "width": width, "x": float(ti)}
        for method, frozen in (("mple0", 0.0), ("mpleb", None)):
            res = fit_potts(problem, beta_frozen=frozen, max_iters=400,
                            tol=1e-6, theta0=theta0)
            if frozen == 0.0:
                theta0 = res.model.flatten()
            pred = predict_class(dataset.A, dataset.X, res.model, res.beta_hat,
                                 known_at_test, dataset.labels[known_at_test],
                                 test)
            acc = float(np.mean(pred == dataset.labels[test]))
            accs[method].append(acc)
            table.add("benchmark", config, ti, s, f"acc_{method}", acc)
            if frozen is None:
                table.add("benchmark", config, ti, s, "beta_hat", res.beta_hat)
    for method in ("mple0", "mpleb"):
        vals = np.array(accs[method])
        agg = {"kind": "benchmark", "dataset": dataset_name,
               "model": model_kind, "width": width, "x": -1.0}
        table.add("benchmark", agg, -1, seeds[0], f"acc_{method}_mean",
                  vals.mean())
        table.add("benchmark", agg, -1, seeds[0], f"acc_{method}_std",
                  vals.std(ddof=1) if len(vals) > 1 else 0.0)
    return table


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _svg_chart(points_by_series, metric):
    """Minimal hand-rolled 640 x 400 SVG: one polyline per series, log-log
    axes when all coordinates are positive."""
    width, height, pad = 640, 400, 56
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    all_pts = [p for pts in points_by_series.values() for p in pts]
    xs = np.array([p[0] for p in all_pts], dtype=float)
    ys = np.array([p[1] for p in all_pts], dtype=float)
    loglog = np.all(xs > 0) and np.all(ys > 0) and len(set(xs)) > 1
    if loglog:
        xs, ys = np.log10(xs), np.log10(ys)
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    scale_note = " (log10)" if loglog else ""
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="13">grid value{scale_note}</text>')
    parts.append(f'<text x="16" y="{height / 2:.1f}" font-size="13" '
                 f'transform="rotate(-90 16 {height / 2:.1f})" '
                 f'text-anchor="middle">{metric}{scale_note}</text>')
    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd"]
    for k, (name, pts) in enumerate(sorted(points_by_series.items())):
        vals = np.array(pts, dtype=float)
        if loglog:
            vals = np.log10(vals)
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in vals)
        color = colors[k % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * k}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


EMIT_FORMATS = ("csv", "svg")


def emit(table, out_dir, formats=EMIT_FORMATS, stem="experiment"):
    """Write the table to ``out_dir``.  CSV is authoritative; SVG draws
    one chart per metric from the per-trial rows (mean over trials at
    each grid value).  A format name outside :data:`EMIT_FORMATS` raises
    ``ValueError`` before anything is written."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    unknown = sorted(set(formats) - set(EMIT_FORMATS))
    if unknown:
        raise ValueError(f"unknown emit formats {unknown}; known: "
                         f"{', '.join(EMIT_FORMATS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = out_dir / f"{stem}.csv"
        path.write_text(table.to_csv())
        written.append(path)
    if "svg" in formats:
        for metric in table.metrics():
            series = {}
            for r in table.sorted_rows():
                if r["metric"] != metric or r["trial"] < 0:
                    continue
                cfg = json.loads(r["config"])
                x = cfg.get("x")
                if x is None:
                    continue
                series.setdefault(r["experiment"], {}).setdefault(
                    float(x), []).append(r["value"])
            points = {
                name: sorted((x, float(np.mean(vs))) for x, vs in by_x.items())
                for name, by_x in series.items() if by_x
            }
            if not points:
                continue
            path = out_dir / f"{stem}_{metric}.svg"
            path.write_text(_svg_chart(points, metric))
            written.append(path)
    return written
