import numpy as np
import pytest
from scipy.optimize import minimize

from isingreg import (FunctionClassModel, InteractionMatrix, IsingModel,
                      PLProblem, fit, gibbs_sample, neg_log_pl, predict_binary)
from isingreg.mple import log2cosh

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
        # restart from the solution: nothing to improve
        res2 = fit(prob, theta0=res.theta_hat["theta"], beta0=res.beta_hat,
                   tol=1e-9)
        assert res2.objective_value <= res.objective_value + 1e-12

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
            ds = gen_synthetic(n=n, d=3, matrix=matching,
                               beta_star=0.0, seed=seed, burn_in=30)
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


class TestPredictBinary:
    def test_beta_zero_is_field_classifier(self):
        rng = np.random.default_rng(40)
        n, d = 10, 2
        A = random_graph_matrix(rng, n)
        X = rng.normal(size=(n, d))
        m = FunctionClassModel.linear(d, theta=rng.normal(size=d))
        targets = np.array([0, 3, 7])
        known = np.setdiff1d(np.arange(n), targets)
        pred = predict_binary(A, X, m, 0.0, known, np.ones(known.size), targets)
        want = np.where(m.eval(X)[targets] >= 0, 1, -1)
        np.testing.assert_array_equal(pred, want)

    def test_isolated_node_ignores_beta(self):
        # node 3 has no edges: prediction equals the field sign
        A = InteractionMatrix.from_adjacency([(0, 1), (1, 2)], 4)
        X = np.array([[1.0], [1.0], [1.0], [-0.5]])
        m = FunctionClassModel.linear(1, theta=np.array([1.0]))
        pred = predict_binary(A, X, m, 0.9, np.array([0, 1, 2]),
                              np.array([1.0, 1.0, 1.0]), np.array([3]))
        assert pred[0] == -1

    def test_formula_against_direct_evaluation(self):
        rng = np.random.default_rng(41)
        n, d = 6, 2
        A = random_symmetric_matrix(rng, n)
        X = rng.normal(size=(n, d))
        m = FunctionClassModel.linear(d, theta=rng.normal(size=d))
        beta = 0.6
        known = np.array([0, 2, 4])
        vals = np.array([1.0, -1.0, 1.0])
        targets = np.array([1, 3, 5])
        pred = predict_binary(A, X, m, beta, known, vals, targets)
        dense = A.dense()
        for t, i in enumerate(targets):
            z = m.eval(X)[i] + beta * sum(
                dense[i, j] * v for j, v in zip(known, vals))
            assert pred[t] == (1 if np.tanh(z) >= 0 else -1)

    def test_tie_breaks_to_plus_one(self):
        A = InteractionMatrix.from_adjacency([(0, 1)], 2)
        X = np.zeros((2, 1))
        m = FunctionClassModel.linear(1, theta=np.array([0.0]))
        pred = predict_binary(A, X, m, 0.5, np.array([]), np.array([]),
                              np.array([0, 1]))
        np.testing.assert_array_equal(pred, [1, 1])

    def test_overlap_rejected(self):
        A = InteractionMatrix.from_adjacency([(0, 1)], 2)
        m = FunctionClassModel.linear(1)
        with pytest.raises(ValueError):
            predict_binary(A, np.zeros((2, 1)), m, 0.0, np.array([0]),
                           np.array([1.0]), np.array([0, 1]))
