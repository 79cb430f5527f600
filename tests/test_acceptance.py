"""Acceptance gate: one test per shipping criterion, each printing a
PASS line with the measured quantity next to its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

import isingreg as ir
from isingreg.cli import main as cli_main
from isingreg.diagnostics import exchangeable_pairs_test
from isingreg.harness import (accuracy_benchmark, lower_bound_demo,
                              planted_potts_dataset, rate_experiment,
                              solve_mean_field_fixpoint)
from isingreg.ising import sweep_distribution
from isingreg.mple import PLProblem, neg_log_pl
from isingreg.potts import PottsProblem, potts_conditional, potts_objective_grad

from helpers import random_graph_matrix, random_model, random_symmetric_matrix


def report(criterion, detail):
    print(f"\n[PASS] criterion {criterion}: {detail}")


def test_01_conditional_mean_identity():
    """conditional_mean == enumeration conditional, 20 models, n=8."""
    t0 = time.time()
    n = 8
    worst = 0.0
    spins = (((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) * 2 - 1
             ).astype(float)
    for k in range(20):
        rng = np.random.default_rng(k)
        model = random_model(rng, n, graph=(k % 2 == 0))
        table = ir.exact_summary(model).full_table
        local = model.A.local_field(spins.T).T
        got = np.tanh(model.beta * local + model.h)
        for i in range(n):
            flip = np.arange(2 ** n) ^ (1 << i)
            sign = spins[:, i]
            p_self, p_flip = table, table[flip]
            p_plus = np.where(sign > 0, p_self, p_flip)
            p_minus = np.where(sign > 0, p_flip, p_self)
            oracle = (p_plus - p_minus) / (p_plus + p_minus)
            worst = max(worst, float(np.max(np.abs(got[:, i] - oracle))))
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(1, f"max |conditional - enumeration| = {worst:.2e} <= 1e-12 "
              f"({elapsed:.1f}s < 10s)")


def test_02_gibbs_correctness():
    """n=10 marginals within 3 MC standard errors; sweep kernel exact."""
    t0 = time.time()
    rng = np.random.default_rng(1000)
    model = random_model(rng, 10, graph=True)
    summ = ir.exact_summary(model)
    states = ir.gibbs_sample(model, 10_000, burn_in=200, thin=5, seed=0)
    emp = states.mean(axis=0)
    se = np.sqrt(1 - summ.marginal_means ** 2) / np.sqrt(10_000)
    ratio = float(np.max(np.abs(emp - summ.marginal_means) / se))
    assert ratio <= 3.0

    station = float(np.max(np.abs(
        sweep_distribution(model, summ.full_table) - summ.full_table)))
    assert station <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"max |marginal dev|/SE = {ratio:.2f} <= 3; sweep stationarity "
              f"residual = {station:.1e} <= 1e-10 ({elapsed:.1f}s < 1min)")


def test_03_gradient_suite():
    """50 finite-difference checks each for the three gradient paths."""
    eps = 1e-5

    def fd_check(value_fn, flat):
        v, grad = value_fn(flat)
        num = np.zeros_like(flat)
        for k in range(flat.size):
            e = np.zeros_like(flat)
            e[k] = eps
            num[k] = (value_fn(flat + e)[0] - value_fn(flat - e)[0]) / (2 * eps)
        return float(np.linalg.norm(num - grad) / np.linalg.norm(grad))

    worst = {"neg_log_pl": 0.0, "potts": 0.0, "mlp": 0.0}
    for k in range(50):
        rng = np.random.default_rng(k)
        n, d = 8, 3
        A = random_symmetric_matrix(rng, n)
        X = rng.normal(size=(n, d))
        sigma = rng.choice([-1.0, 1.0], size=n)
        prob = PLProblem(A, X, sigma, ir.FunctionClassModel.linear(d),
                         beta_box=1.0)
        beta = float(rng.uniform(-0.9, 0.9))

        def f_ising(z):
            v, gt, gb = neg_log_pl(prob, z[:-1], z[-1])
            return v, np.concatenate([gt, [gb]])

        z0 = np.concatenate([rng.normal(size=d) * 0.5, [beta]])
        worst["neg_log_pl"] = max(worst["neg_log_pl"], fd_check(f_ising, z0))

        K = 3
        y = rng.integers(0, K, size=n)
        pm = ir.FunctionClassModel.linear(d, n_outputs=K, l2_radius=None)
        pprob = PottsProblem(A, X, y, pm, beta_box=1.0)

        def f_potts(z):
            v, gt, gb = potts_objective_grad(pprob, z[:-1], z[-1])
            return v, np.concatenate([gt, [gb]])

        z1 = np.concatenate([rng.normal(size=d * K) * 0.5, [beta]])
        worst["potts"] = max(worst["potts"], fd_check(f_potts, z1))

        mlp = ir.FunctionClassModel.mlp2(d, width=4, seed=k)
        w = rng.normal(size=n)

        def f_mlp(flat):
            m = mlp.with_flat(flat)
            return (float(w @ m.eval(X)),
                    m.flatten_grad(m.param_grad(X, w)))

        worst["mlp"] = max(worst["mlp"], fd_check(f_mlp, mlp.flatten() + 0.1))

    assert all(v < 1e-6 for v in worst.values()), worst
    report(3, "max FD relative errors: "
              + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
              + " (all < 1e-6, 50 instances each)")


def test_04_convexity_chords():
    """1000 random chords of the linear MPLE objective."""
    rng = np.random.default_rng(4)
    n, d = 25, 3
    A = random_symmetric_matrix(rng, n)
    X = rng.normal(size=(n, d))
    sigma = rng.choice([-1.0, 1.0], size=n)
    prob = PLProblem(A, X, sigma, ir.FunctionClassModel.linear(d),
                     beta_box=1.0)
    worst = -np.inf
    for _ in range(1000):
        t1, t2 = rng.normal(size=d), rng.normal(size=d)
        b1, b2 = rng.uniform(-1, 1, size=2)
        mid = neg_log_pl(prob, 0.5 * (t1 + t2), 0.5 * (b1 + b2))[0]
        avg = 0.5 * (neg_log_pl(prob, t1, b1)[0] + neg_log_pl(prob, t2, b2)[0])
        worst = max(worst, mid - avg)
    assert worst <= 1e-9
    report(4, f"max chord violation = {worst:.2e} <= 1e-9 (1000 chords)")


def test_05_logistic_reduction():
    """beta frozen at 0 matches an independent logistic MLE, 5 seeds."""
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n, d = 500, 5
        X = rng.normal(size=(n, d))
        theta_star = rng.normal(size=d)
        theta_star *= 0.6 / np.linalg.norm(theta_star)
        p = 1.0 / (1.0 + np.exp(-2.0 * (X @ theta_star)))
        sigma = np.where(rng.random(n) < p, 1.0, -1.0)
        A = random_graph_matrix(rng, n, p=0.01)
        prob = PLProblem(A, X, sigma,
                         ir.FunctionClassModel.linear(d, l2_radius=5.0),
                         beta_box=1.0)
        res = ir.fit(prob, beta_frozen=0.0, tol=1e-11)

        def nll(t):
            return float(np.sum(np.logaddexp(0.0, -2.0 * sigma * (X @ t))))

        oracle = minimize(nll, np.zeros(d), method="BFGS",
                          options={"gtol": 1e-12})
        worst = max(worst, float(np.max(np.abs(
            res.theta_hat["theta"] - oracle.x))))
    assert worst < 1e-4
    report(5, f"max |theta - logistic oracle| = {worst:.2e} < 1e-4 "
              "(n=500, d=5, 5 seeds)")


def test_06_frobenius_rate():
    """Block r in {4,16,64,256}, n=1024, d=5, 20 trials: slope -1 +/- 0.35."""
    t0 = time.time()
    table = rate_experiment("frobenius_sweep", [4, 16, 64, 256], 20, seed=11)
    slope = [v for _, v in table.values("slope_theta_sq_err")][0]
    elapsed = time.time() - t0
    assert -1.35 <= slope <= -0.65
    assert elapsed < 900.0
    report(6, f"log-log slope of mean theta error^2 vs ||A||_F^2 = "
              f"{slope:.3f} in [-1.35, -0.65] ({elapsed:.0f}s < 15min)")


def test_07_random_features_rate():
    """Curie-Weiss ||A||_F = 1, n in {500,2000,8000}: slope -1 +/- 0.2."""
    t0 = time.time()
    table = rate_experiment("n_sweep_random_features", [500, 2000, 8000], 20,
                            seed=0)
    slope = [v for _, v in table.values("slope_theta_sq_err")][0]
    frob = {v for _, v in table.values("frob_sq")}
    assert frob == {1.0}
    assert -1.2 <= slope <= -0.8
    report(7, f"log-log slope of theta error^2 vs n = {slope:.3f} in "
              f"[-1.2, -0.8] with ||A||_F = 1 ({time.time() - t0:.0f}s)")


def test_08_lower_bound_demo():
    """a = 0.8952 +/- 1e-4; psi identity; Pinsker; Le-Cam floor -> 1/2."""
    t0 = time.time()
    a = solve_mean_field_fixpoint()
    assert a == pytest.approx(0.8952, abs=1e-4)
    rep = lower_bound_demo(12, 3, c0=0.1)
    assert rep["psi_identity"] == pytest.approx(3.0, abs=1e-9)
    floors = []
    for c0 in (0.3, 0.1, 0.01, 0.001):
        r = lower_bound_demo(12, 3, c0=c0)
        assert r["tv"] <= np.sqrt(r["kl_forward"] / 2.0) + 1e-12
        floors.append(r["lecam_floor"])
    assert all(f1 < f2 for f1, f2 in zip(floors, floors[1:]))
    assert floors[-1] > 0.4999
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, f"a = {a:.5f} (0.8952 +/- 1e-4); psi = ||A||_F^2 +/- 1e-9 at "
              f"(12,3); Pinsker holds; floor -> {floors[-1]:.5f} "
              f"({elapsed:.0f}s < 1min)")


def test_09_complexity_bound_and_psi_scaling():
    """c1' <= (1+1e-6)/(4 ||A||_F^2) on 20 random instances; scale law."""
    rng = np.random.default_rng(0)
    worst_margin = 0.0
    for k in range(20):
        n = int(rng.integers(24, 64))
        kind = k % 3
        if kind == 0:
            r = int(rng.choice([1, 2, 4]))
            n -= n % r
            A = ir.InteractionMatrix.block_partition(n, r)
        elif kind == 1:
            A = ir.InteractionMatrix.curie_weiss(n)
        else:
            A = random_graph_matrix(rng, n, p=0.15)
        d = int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        theta_star = rng.standard_normal(d)
        theta_star *= 0.5 / np.linalg.norm(theta_star)
        est = ir.c1_prime_estimate(X, 1.0, X @ theta_star,
                                   float(rng.uniform(-0.8, 0.8)), A,
                                   beta_box=1.0, seed=k)
        bound = (1.0 + 1e-6) / (4.0 * A.frobenius ** 2)
        assert est.c1_prime <= bound
        worst_margin = max(worst_margin, est.c1_prime / bound)

    rng2 = np.random.default_rng(9)
    A = random_symmetric_matrix(rng2, 8, zero_diag=False)
    h0, h1 = rng2.normal(size=8), rng2.normal(size=8)
    base = ir.psi(h1, 0.7, h0, 0.2, A).value
    worst_scale = 0.0
    for t in (0.5, 2.0, -3.0):
        got = ir.psi(h0 + t * (h1 - h0), 0.2 + t * 0.5, h0, 0.2, A).value
        worst_scale = max(worst_scale, abs(got - t * t * base) / (t * t * base))
    assert worst_scale <= 1e-10
    report(9, f"c1' <= (1+1e-6)/(4||A||_F^2) on 20 instances (worst margin "
              f"{worst_margin:.2f}); psi scale-law max rel err = "
              f"{worst_scale:.1e} <= 1e-10")


def test_10_concentration():
    """5 random models, n=12, 1e4 thinned samples: tails below the bound."""
    rng = np.random.default_rng(42)
    worst_ratio = 0.0
    worst_mean = 0.0
    for k in range(5):
        model = random_model(rng, 12)
        v = rng.standard_normal(12)
        rep = exchangeable_pairs_test(model, v, 10_000, seed=k, burn_in=100)
        assert rep.all_below_bound
        assert abs(rep.mean) <= 3.0 * rep.std_error
        worst_ratio = max(worst_ratio, float(np.max(
            rep.empirical_exceedance / rep.bound)))
        worst_mean = max(worst_mean, abs(rep.mean) / rep.std_error)
    report(10, f"empirical exceedance <= 2exp(-t^2/(8||v||^2(1+|b|||A||_inf))) "
               f"at every grid t (worst ratio {worst_ratio:.2f}); "
               f"|mean f| <= {worst_mean:.2f} SE <= 3 SE")


def test_11_potts_k2_equivalence():
    """Potts K=2 conditionals equal the mapped Ising conditionals, n<=6."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(3):
        n, d = 6, 2
        A = random_graph_matrix(rng, n)
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(d, 2)) * 0.7
        model = ir.FunctionClassModel.linear(d, n_outputs=2, theta=W,
                                             l2_radius=None)
        beta_ising = float(rng.uniform(-0.5, 0.5))
        f = X @ W
        ising = ir.IsingModel(A, 0.5 * (f[:, 1] - f[:, 0]), beta_ising)
        for code in range(2 ** n):
            y = ((code >> np.arange(n)) & 1).astype(np.int64)
            sigma = (2 * y - 1).astype(float)
            prob = PottsProblem(A, X, y, model, beta_box=2.0)
            for i in range(n):
                p1 = potts_conditional(prob, model.flatten(),
                                       2 * beta_ising, i)[1]
                want = 0.5 * (1.0 + ir.conditional_mean(ising, sigma, i))
                worst = max(worst, abs(p1 - want))
    assert worst <= 1e-9
    report(11, f"K=2 conditional vs Ising mapping: max |diff| = {worst:.1e} "
               "<= 1e-9 (exhaustive, n=6, 3 models)")


def test_12_benchmark_pipeline():
    """Planted 200-node Potts: MPLE-beta >= MPLE-0 in >= 8/10 seeds; tied
    at beta*=0.  Table-2 absolute numbers are documentation, not gates."""
    ds = planted_potts_dataset(n=200, K=3, seed=0, beta_star=0.5)
    table = accuracy_benchmark(ds, seeds=list(range(10)))
    a0 = np.array([v for c, v in table.values("acc_mple0") if c["x"] >= 0])
    ab = np.array([v for c, v in table.values("acc_mpleb") if c["x"] >= 0])
    wins = int(np.sum(ab >= a0))
    assert wins >= 8

    ds0 = planted_potts_dataset(n=200, K=3, seed=7, beta_star=0.0)
    table0 = accuracy_benchmark(ds0, seeds=list(range(10)))
    a00 = np.array([v for c, v in table0.values("acc_mple0") if c["x"] >= 0])
    ab0 = np.array([v for c, v in table0.values("acc_mpleb") if c["x"] >= 0])
    diff = ab0 - a00
    assert abs(diff.mean()) <= 2.0 * max(diff.std(ddof=1), 1e-12)

    # Table-2 row shape: per-method mean and std aggregate rows exist
    for metric in ("acc_mple0_mean", "acc_mple0_std", "acc_mpleb_mean",
                   "acc_mpleb_std"):
        assert metric in table.metrics()
    report(12, f"MPLE-beta wins {wins}/10 at beta*=0.5 "
               f"(acc {ab.mean():.3f} vs {a0.mean():.3f}); tied at beta*=0 "
               f"(diff {diff.mean():+.4f} within 2 std {diff.std(ddof=1):.4f})")


def test_13_cli_determinism(tmp_path):
    """Re-running every CLI experiment with the same seed is byte-stable."""
    jobs = [
        (["--seed", "9", "rate-experiment", "--kind", "dimension_sweep",
          "--grid", "2,4", "--trials", "2", "--formats", "csv"],
         "dimension_sweep.csv"),
        (["--seed", "4", "curie-weiss", "--grid", "0.5,0.9", "--n", "120",
          "--trials", "2", "--formats", "csv"], "curie_weiss.csv"),
        (["--seed", "2", "benchmark", "--n", "60", "--benchmark-seeds", "2",
          "--model-kind", "linear", "--formats", "csv"], "benchmark.csv"),
    ]
    for args, fname in jobs:
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / fname.replace(".csv", sub)
            code = cli_main([args[0], args[1], "--out-dir", str(out)]
                            + args[2:])
            assert code == 0
            outputs.append((out / fname).read_bytes())
        assert outputs[0] == outputs[1], fname
    report(13, "byte-identical CSV on re-run for rate-experiment, "
               "curie-weiss, and benchmark CLI jobs")
