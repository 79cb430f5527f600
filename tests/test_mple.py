from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from isingreg import (FunctionClassModel, InteractionMatrix, IsingModel,
                      PLProblem, PottsProblem, fit, fit_potts, gen_synthetic,
                      gibbs_sample, mple, neg_log_pl, potts_objective_grad)
from isingreg.harness import SWEEP_DEFAULTS, _sweep_instance
from isingreg.models import project_l2
from isingreg.mple import (DEFAULT_TOL, _newton_point, log2cosh,
                           projected_gradient_descent)

from helpers import random_graph_matrix, random_spins, random_symmetric_matrix


def linear_problem(rng, n=30, d=3, l2_radius=2.0, graph=False):
    A = random_graph_matrix(rng, n) if graph else random_symmetric_matrix(rng, n)
    X = rng.normal(size=(n, d))
    sigma = random_spins(rng, n)
    model = FunctionClassModel.linear(d, l2_radius=l2_radius)
    return PLProblem(A, X, sigma, model, beta_box=1.0)


class TestObjective:
    def test_value_at_origin(self):
        rng = np.random.default_rng(0)
        prob = linear_problem(rng)
        v, g_th, g_b = neg_log_pl(prob, np.zeros(3), 0.0)
        assert v == pytest.approx(prob.A.n * np.log(2.0), abs=1e-12)
        assert g_b == pytest.approx(-(prob.sigma @ prob.local), abs=1e-12)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(1)
        prob = linear_problem(rng)
        flipped = PLProblem(prob.A, -prob.X, -prob.sigma, prob.model,
                            beta_box=1.0)
        th = rng.normal(size=3)
        for beta in (-0.4, 0.0, 0.7):
            assert neg_log_pl(prob, th, beta)[0] == pytest.approx(
                neg_log_pl(flipped, th, beta)[0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_gradients(self, seed):
        rng = np.random.default_rng(seed)
        prob = linear_problem(rng, n=20)
        th = rng.normal(size=3) * 0.5
        beta = float(rng.uniform(-0.9, 0.9))
        _, g_th, g_b = neg_log_pl(prob, th, beta)
        eps = 1e-5
        num = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            num[k] = (neg_log_pl(prob, th + e, beta)[0]
                      - neg_log_pl(prob, th - e, beta)[0]) / (2 * eps)
        num_b = (neg_log_pl(prob, th, beta + eps)[0]
                 - neg_log_pl(prob, th, beta - eps)[0]) / (2 * eps)
        full = np.concatenate([g_th, [g_b]])
        num_full = np.concatenate([num, [num_b]])
        assert np.linalg.norm(num_full - full) / np.linalg.norm(full) < 1e-6

    def test_mlp_gradient_finite_differences(self):
        rng = np.random.default_rng(9)
        n, d = 15, 3
        A = random_symmetric_matrix(rng, n)
        X = rng.normal(size=(n, d))
        sigma = random_spins(rng, n)
        model = FunctionClassModel.mlp2(d, width=5, seed=4)
        prob = PLProblem(A, X, sigma, model, beta_box=1.0)
        flat = model.flatten() + 0.1
        _, g_th, g_b = neg_log_pl(prob, flat, 0.3)
        eps = 1e-5
        num = np.zeros_like(flat)
        for k in range(flat.size):
            e = np.zeros_like(flat)
            e[k] = eps
            num[k] = (neg_log_pl(prob, flat + e, 0.3)[0]
                      - neg_log_pl(prob, flat - e, 0.3)[0]) / (2 * eps)
        assert np.linalg.norm(num - g_th) / np.linalg.norm(g_th) < 1e-6

    def test_convexity_chords_linear(self):
        rng = np.random.default_rng(12)
        prob = linear_problem(rng)
        for _ in range(300):
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
            b1, b2 = rng.uniform(-1, 1, size=2)
            mid = neg_log_pl(prob, 0.5 * (t1 + t2), 0.5 * (b1 + b2))[0]
            avg = 0.5 * (neg_log_pl(prob, t1, b1)[0]
                         + neg_log_pl(prob, t2, b2)[0])
            assert mid <= avg + 1e-9

    def test_log2cosh_overflow_safe(self):
        big = np.array([500.0, -800.0, 0.0])
        out = log2cosh(big)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[:2], np.abs(big[:2]), rtol=1e-12)
        assert out[2] == pytest.approx(np.log(2.0))


class TestFit:
    def test_logistic_reduction_matches_independent_solver(self):
        # beta frozen at 0 is logistic regression with a factor-2 logit
        rng = np.random.default_rng(21)
        n, d = 400, 4
        X = rng.normal(size=(n, d))
        theta_star = rng.normal(size=d)
        theta_star *= 0.5 / np.linalg.norm(theta_star)
        p = 1.0 / (1.0 + np.exp(-2.0 * (X @ theta_star)))
        sigma = np.where(rng.random(n) < p, 1.0, -1.0)
        A = random_graph_matrix(rng, n, p=0.02)
        prob = PLProblem(A, X, sigma, FunctionClassModel.linear(d, l2_radius=5.0),
                         beta_box=1.0)
        res = fit(prob, beta_frozen=0.0, tol=1e-10)

        def nll(t):
            return float(np.sum(np.logaddexp(0.0, -2.0 * sigma * (X @ t))))

        oracle = minimize(nll, np.zeros(d), method="BFGS",
                          options={"gtol": 1e-12})
        assert np.max(np.abs(res.theta_hat["theta"] - oracle.x)) < 1e-4
        assert res.beta_hat == 0.0

    def test_feasibility_with_active_constraint(self):
        rng = np.random.default_rng(30)
        prob = linear_problem(rng, n=40, l2_radius=0.3)
        res = fit(prob, tol=1e-9)
        assert np.linalg.norm(res.theta_hat["theta"]) <= 0.3 + 1e-12
        assert abs(res.beta_hat) <= 1.0
        # restart from the fitted model: nothing to improve
        res2 = fit(replace(prob, model=res.model), tol=1e-9)
        assert res2.objective_value <= res.objective_value + 1e-12

    def test_mlp_starts_from_its_own_weights(self):
        # all-zero weights are a stationary point of an mlp2 field
        ds = gen_synthetic(InteractionMatrix.block_partition(200, 4), d=3,
                           beta_star=0.4, seed=5)
        model = FunctionClassModel.mlp2(3, width=8)
        zero = FunctionClassModel("mlp2", {k: np.zeros_like(v) for k, v
                                           in model.params.items()})
        res = fit(PLProblem(ds.A, ds.X, ds.labels, model))
        from_zero = fit(PLProblem(ds.A, ds.X, ds.labels, zero))
        assert np.all(from_zero.model.flatten() == 0.0)
        assert np.any(res.theta_hat["W1"] != 0.0)
        assert np.any(res.theta_hat["W2"] != 0.0)
        assert res.objective_value < from_zero.objective_value

    def test_objective_non_increasing_across_accepted_iterations(self):
        from isingreg.mple import neg_log_pl, projected_gradient_descent
        rng = np.random.default_rng(36)
        prob = linear_problem(rng, n=50)
        trace = []

        def objective(z):
            v, gt, gb = neg_log_pl(prob, z[:-1], z[-1])
            return v, np.concatenate([gt, [gb]])

        def project(z):
            out = z.copy()
            out[:-1] = prob.model.project_flat(z[:-1])
            out[-1] = np.clip(z[-1], -1.0, 1.0)
            return out

        def recording(z):
            v, g = objective(z)
            trace.append(v)
            return v, g

        _, value, _, _, _ = projected_gradient_descent(
            recording, project, np.zeros(4), tol=1e-9)
        # accepted moves strictly decrease, so the returned value is the
        # best ever evaluated (rejected line-search probes may be worse)
        assert value == min(trace)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        prob = linear_problem(rng)
        r1 = fit(prob)
        r2 = fit(prob)
        np.testing.assert_array_equal(r1.theta_hat["theta"],
                                      r2.theta_hat["theta"])
        assert r1.beta_hat == r2.beta_hat
        assert r1.iterations == r2.iterations

    def test_sign_flip_equivariance(self):
        rng = np.random.default_rng(32)
        prob = linear_problem(rng)
        flipped = PLProblem(prob.A, -prob.X, -prob.sigma, prob.model,
                            beta_box=1.0)
        r1, r2 = fit(prob, tol=1e-10), fit(flipped, tol=1e-10)
        np.testing.assert_allclose(r1.theta_hat["theta"],
                                   r2.theta_hat["theta"], atol=1e-9)
        assert r1.beta_hat == pytest.approx(r2.beta_hat, abs=1e-9)

    def test_beta_recovery_on_generated_data(self):
        # strong-coupling blocks, zero field; averaged over seeds because a
        # single sample carries Fisher information of only ~1/0.14^2 here
        n = 600
        A = InteractionMatrix.block_partition(n, 150)
        errors = []
        for seed in range(5):
            model = IsingModel(A, np.zeros(n), 0.5)
            sigma = gibbs_sample(model, 1, burn_in=80, seed=seed)[0].astype(float)
            prob = PLProblem(A, np.ones((n, 1)), sigma,
                             FunctionClassModel.linear(1, l2_radius=1.0),
                             beta_box=1.0)
            errors.append(abs(fit(prob, tol=1e-9).beta_hat - 0.5))
        assert np.mean(errors) < 0.2

    def test_independent_data_gives_small_beta(self):
        # beta* = 0 generated data: the fitted interaction strength is
        # near zero and theta is recovered, averaged over 10 seeds
        from isingreg import gen_synthetic
        n = 2000
        matching = InteractionMatrix.from_adjacency(
            [(2 * i, 2 * i + 1) for i in range(n // 2)], n)
        b_errs, t_errs = [], []
        for seed in range(10):
            ds = gen_synthetic(matching, d=3, beta_star=0.0, seed=seed)
            prob = PLProblem(ds.A, ds.X, ds.labels.astype(float),
                             FunctionClassModel.linear(3, l2_radius=5.0),
                             beta_box=1.0)
            res = fit(prob, tol=1e-9)
            b_errs.append(abs(res.beta_hat))
            t_errs.append(np.linalg.norm(res.theta_hat["theta"]
                                         - ds.ground_truth["theta"]))
        assert np.mean(b_errs) < 0.05
        assert np.mean(t_errs) < 0.12

    def test_result_serializes(self):
        rng = np.random.default_rng(34)
        res = fit(linear_problem(rng), max_iters=50)
        import json
        doc = json.loads(res.to_json())
        assert set(doc) == {"theta_hat", "beta_hat", "objective_value",
                            "iterations", "final_projected_grad_norm",
                            "converged", "stop_reason"}

    def test_stop_reason_tol(self):
        res = fit(linear_problem(np.random.default_rng(37)), tol=1e-6)
        assert res.stop_reason == "tol"
        assert res.converged
        assert res.final_projected_grad_norm <= 1e-6

    def test_stop_reason_max_iters(self):
        res = fit(linear_problem(np.random.default_rng(37)), max_iters=2)
        assert res.stop_reason == "max_iters"
        assert not res.converged
        assert res.iterations == 2

    def test_stop_reason_no_descent(self):
        # tol=0 is out of reach: the line search runs out of descent at
        # machine precision first
        res = fit(linear_problem(np.random.default_rng(37)), tol=0.0)
        assert res.stop_reason == "no_descent"
        assert not res.converged
        assert res.iterations < 10_000

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(35)
        A = random_symmetric_matrix(rng, 5)
        with pytest.raises(ValueError):
            PLProblem(A, np.zeros((4, 2)), random_spins(rng, 5),
                      FunctionClassModel.linear(2))
        with pytest.raises(ValueError):
            PLProblem(A, np.zeros((5, 2)), np.zeros(5),
                      FunctionClassModel.linear(2))
        for box in (-1.0, np.nan):
            with pytest.raises(ValueError, match="beta_box"):
                PLProblem(A, np.zeros((5, 2)), random_spins(rng, 5),
                          FunctionClassModel.linear(2), beta_box=box)

    def test_multi_output_model_rejected(self):
        # refused when the problem is built, not deep inside the fit
        rng = np.random.default_rng(36)
        A = random_symmetric_matrix(rng, 64)
        with pytest.raises(ValueError, match="one-output model, got 2"):
            PLProblem(A, rng.normal(size=(64, 3)), random_spins(rng, 64),
                      FunctionClassModel.linear(3, n_outputs=2))

    def test_theta_hat_is_the_fitted_models_params(self):
        res = fit(linear_problem(np.random.default_rng(34)), max_iters=50)
        assert res.theta_hat is res.model.params


def sweep_problems():
    """The eight frobenius-sweep fits of one ``rate-experiment`` op
    (``--grid 4,16,64,256 --trials 2``, op seed 1010000000)."""
    cfg = SWEEP_DEFAULTS["frobenius_sweep"]
    for gi, r in enumerate((4, 16, 64, 256)):
        for ti in range(2):
            ds = _sweep_instance("frobenius_sweep", r,
                                 1010000000 + 1000 * gi + ti, cfg)
            yield PLProblem(ds.A, ds.X, ds.labels,
                            FunctionClassModel.linear(cfg["d"], l2_radius=2.0),
                            beta_box=1.0)


def spy(monkeypatch, name):
    calls = []
    real = getattr(mple, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mple, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def driver_problems():
    """(fitter, objective, problem) for each fit driver: projected Newton,
    PGD (a linear model with an L1 radius) and the Potts PGD fit."""
    ds = gen_synthetic(InteractionMatrix.block_partition(512, 16), 5,
                       beta_star=0.5, seed=3)
    y = np.random.default_rng(5).integers(0, 3, size=512)
    return {
        "newton": (fit, neg_log_pl, PLProblem(
            ds.A, ds.X, ds.labels, FunctionClassModel.linear(5, l2_radius=2.0))),
        "pgd": (fit, neg_log_pl, PLProblem(
            ds.A, ds.X, ds.labels,
            FunctionClassModel.linear(5, l2_radius=2.0, l1_radius=0.5))),
        "potts": (fit_potts, potts_objective_grad, PottsProblem(
            ds.A, ds.X, y,
            FunctionClassModel.linear(5, n_outputs=3, l2_radius=2.0))),
    }


class TestStopContract:
    """Every fit reports the projected-gradient norm at the iterate it
    returns, and stops at ``"tol"`` exactly when that norm is at most
    ``tol``."""

    @staticmethod
    def recomputed(objective, problem, res):
        _, _, project, value_grad = mple._stacked(problem, objective, None)
        z = np.append(res.model.flatten(), res.beta_hat)
        value, grad = value_grad(z)
        return value, float(np.linalg.norm(z - project(z - grad)))

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    @pytest.mark.parametrize("driver", ["newton", "pgd", "potts"])
    def test_norm_is_read_at_the_returned_iterate(self, monkeypatch,
                                                  driver_problems, driver,
                                                  max_iters):
        newton = spy(monkeypatch, "_fit_newton")
        fitter, objective, problem = driver_problems[driver]
        res = fitter(problem, max_iters=max_iters)
        assert bool(newton) == (driver == "newton")
        value, norm = self.recomputed(objective, problem, res)
        assert res.objective_value == value
        assert res.final_projected_grad_norm == norm
        assert res.converged == (norm <= DEFAULT_TOL)
        assert (res.iterations, res.stop_reason) == (max_iters, "max_iters")

    def test_last_iterate_within_tol_stops_at_tol(self, driver_problems):
        # Newton's fifth step meets tol = 1e-4, which the sixth pass reads;
        # a fit allowed five steps returns the same iterate, converged
        _, _, problem = driver_problems["newton"]
        full = fit(problem, tol=1e-4)
        assert (full.iterations, full.stop_reason) == (6, "tol")
        res = fit(problem, max_iters=5, tol=1e-4)
        assert (res.iterations, res.stop_reason) == (5, "tol")
        assert res.final_projected_grad_norm == full.final_projected_grad_norm
        assert res.model.flatten().tobytes() == full.model.flatten().tobytes()
        assert res.beta_hat == full.beta_hat


class TestNewton:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(["box", "frozen", "free"]))
    def test_subproblem_no_worse_than_projected_gradient(self, seed, beta):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        M = rng.normal(size=(k, k)) * rng.uniform(0.1, 3.0)
        H = M @ M.T + rng.uniform(1e-3, 1.0) * np.eye(k)
        c = rng.normal(size=k) * rng.uniform(0.1, 10.0)
        radius = float(rng.uniform(0.05, 3.0))
        box, b0 = rng.uniform(0.01, 2.0), rng.uniform(-1.0, 1.0)
        lo, hi = {"box": (-box, box), "frozen": (b0, b0),
                  "free": (-np.inf, np.inf)}[beta]

        def project(y):
            out = y.copy()
            out[:-1] = project_l2(y[:-1], radius)
            out[-1] = np.clip(y[-1], lo, hi)
            return out

        def q(y):
            return 0.5 * y @ H @ y - c @ y

        y = _newton_point(H, c, radius, lo, hi)
        assert np.linalg.norm(y[:-1]) <= radius * (1 + 1e-12)
        assert lo <= y[-1] <= hi
        y_pg, q_pg, *_ = projected_gradient_descent(
            lambda yy: (q(yy), H @ yy - c), project, np.zeros(k),
            max_iters=20_000, tol=1e-10)
        assert q(y) <= q_pg + 1e-9 * max(1.0, abs(q_pg))

    def test_sweep_fits_stop_at_tol_no_worse_than_pgd(self):
        for prob in sweep_problems():
            res = fit(prob)
            pgd = mple._fit_pgd(prob, neg_log_pl, None, mple.DEFAULT_MAX_ITERS,
                                mple.DEFAULT_TOL)
            assert res.stop_reason == "tol"
            assert res.iterations <= 10
            assert res.objective_value <= \
                pgd.objective_value + 1e-12 * abs(pgd.objective_value)

    def test_zero_radius_fixes_theta_at_zero(self, monkeypatch):
        newton = spy(monkeypatch, "_fit_newton")
        res = fit(linear_problem(np.random.default_rng(52), l2_radius=0.0))
        assert len(newton) == 1
        np.testing.assert_array_equal(res.theta_hat["theta"], np.zeros(3))
        assert res.stop_reason == "tol"

    @pytest.mark.parametrize("model", [
        FunctionClassModel.linear(3, l2_radius=2.0),
        FunctionClassModel.mlp2(3, width=4)], ids=["newton", "pgd"])
    @pytest.mark.parametrize("frozen", [np.nan, np.inf])
    def test_non_finite_frozen_beta_rejected(self, model, frozen):
        prob = replace(linear_problem(np.random.default_rng(51)), model=model)
        with pytest.raises(ValueError, match="frozen beta must be finite"):
            fit(prob, beta_frozen=frozen)

    @pytest.mark.parametrize("kwargs", [
        {"beta_frozen": 0.0}, {"beta_frozen": 0.4},
        {"theta": np.full(3, 0.5)}])
    def test_frozen_beta_and_warm_start_take_newton(self, monkeypatch, kwargs):
        newton = spy(monkeypatch, "_fit_newton")
        pgd = spy(monkeypatch, "_fit_pgd")
        prob = linear_problem(np.random.default_rng(50), n=60)
        if "theta" in kwargs:
            # a warm start is a model that already holds parameters
            prob = replace(prob, model=FunctionClassModel.linear(
                3, theta=kwargs["theta"], l2_radius=2.0))
            kwargs = {}
        res = fit(prob, tol=1e-10, **kwargs)
        assert len(newton) == 1 and not pgd
        assert res.stop_reason == "tol"
        if "beta_frozen" in kwargs:
            assert res.beta_hat == kwargs["beta_frozen"]

    def test_l1_radius_takes_pgd(self, monkeypatch):
        # Newton's subproblem sees only the L2 ball, so a linear model with
        # an L1 radius is fitted by PGD; the pinned values are PGD's
        newton = spy(monkeypatch, "_fit_newton")
        ds = gen_synthetic(InteractionMatrix.block_partition(512, 16), 8,
                           beta_star=0.5, seed=3)
        model = FunctionClassModel("linear", {"theta": np.zeros(8)},
                                   l2_radius=2.0, l1_radius=0.3)
        prob = PLProblem(ds.A, ds.X, ds.labels, model)
        res = fit(prob)
        assert not newton
        theta = [float.fromhex(v) for v in (
            "-0x1.97ab7f928f830p-4", "0x0.0p+0", "-0x1.7bedd98ddd7d4p-3",
            "-0x0.0p+0", "-0x0.0p+0", "-0x1.ea2cd0f412880p-7", "-0x0.0p+0",
            "-0x0.0p+0")]
        assert res.objective_value.hex() == "0x1.33702dee8a154p+8"
        assert res.beta_hat.hex() == "0x1.d86212d090021p-6"
        assert (res.iterations, res.stop_reason) == (197, "no_descent")
        assert res.final_projected_grad_norm == 0.11962208845473354
        assert res.theta_hat["theta"].tobytes() == np.array(theta).tobytes()

    @pytest.mark.parametrize("model", [
        FunctionClassModel.linear(mple.NEWTON_MAX_DIM, l2_radius=2.0),
        FunctionClassModel.linear(3, l1_radius=1.0),
        FunctionClassModel.mlp2(3, width=4)], ids=["large_d", "sparse", "mlp"])
    def test_other_models_take_pgd(self, monkeypatch, model):
        newton = spy(monkeypatch, "_fit_newton")
        pgd = spy(monkeypatch, "_fit_pgd")
        rng = np.random.default_rng(51)
        d = model.params["theta"].size if model.kind == "linear" else 3
        prob = PLProblem(random_symmetric_matrix(rng, 40),
                         rng.normal(size=(40, d)), random_spins(rng, 40),
                         model)
        fit(prob, max_iters=5)
        assert len(pgd) == 1 and not newton
