import numpy as np
import pytest
from scipy.optimize import minimize

from isingreg import (FunctionClassModel, InteractionMatrix, IsingModel,
                      PottsProblem, conditional_mean, fit_potts,
                      gibbs_sample, gibbs_sample_potts, potts_conditional,
                      potts_objective_grad, predict_class)

from helpers import (REFERENCE_MATRICES, random_graph_matrix,
                     random_symmetric_matrix, reference_gibbs_sample_potts,
                     reference_potts_objective_grad)


def small_problem(rng, n=8, d=2, K=3, graph=True, kind="linear", **kw):
    A = random_graph_matrix(rng, n) if graph else random_symmetric_matrix(rng, n)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, K, size=n)
    model = (FunctionClassModel.linear(d, n_outputs=K, l2_radius=None)
             if kind == "linear"
             else FunctionClassModel.mlp2(d, n_outputs=K, width=5, seed=1))
    return PottsProblem(A, X, y, model, beta_box=1.0, **kw)


def finite_difference_gradient(prob, flat, beta, eps=1e-5):
    """Central differences of the objective in theta and beta."""
    num = np.zeros_like(flat)
    for k in range(flat.size):
        e = np.zeros_like(flat)
        e[k] = eps
        num[k] = (potts_objective_grad(prob, flat + e, beta)[0]
                  - potts_objective_grad(prob, flat - e, beta)[0]) / (2 * eps)
    num_b = (potts_objective_grad(prob, flat, beta + eps)[0]
             - potts_objective_grad(prob, flat, beta - eps)[0]) / (2 * eps)
    return np.concatenate([num, [num_b]])


def spy_rows(monkeypatch, *methods):
    """Record the row count of X at each call of the named
    FunctionClassModel methods."""
    rows = []
    for name in methods:
        def spy(self, X, *rest, _original=getattr(FunctionClassModel, name)):
            rows.append(len(X))
            return _original(self, X, *rest)
        monkeypatch.setattr(FunctionClassModel, name, spy)
    return rows


# (sites, known) pairs for a 12-node problem
SITE_CASES = {
    "sites_ne_known": ([1, 4, 6, 9], [0, 1, 2, 5, 7, 11]),
    "unsorted_sites": ([7, 2, 10, 0, 5], [2, 3, 11, 0]),
    "single_site": ([3], None),
}


class TestConditional:
    def test_uniform_at_zero_parameters(self):
        rng = np.random.default_rng(0)
        prob = small_problem(rng, K=4)
        p = potts_conditional(prob, prob.model.flatten(), 0.0, 2)
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        prob = small_problem(rng)
        th = rng.normal(size=prob.model.flatten().size)
        for i in range(prob.A.n):
            p = potts_conditional(prob, th, 0.7, i)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0)

    def test_k2_reduces_to_ising_exhaustively(self):
        # mapping: sigma = 2*1[y=1]-1, h = (f1-f0)/2, beta_potts = 2 beta_ising
        rng = np.random.default_rng(7)
        n, d = 6, 2
        A = random_graph_matrix(rng, n)
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(d, 2)) * 0.6
        model = FunctionClassModel.linear(d, n_outputs=2, theta=W,
                                          l2_radius=None)
        beta_ising = 0.35
        f = X @ W
        h = 0.5 * (f[:, 1] - f[:, 0])
        ising = IsingModel(A, h, beta_ising)
        for code in range(2 ** n):
            y = ((code >> np.arange(n)) & 1).astype(np.int64)
            sigma = (2 * y - 1).astype(float)
            prob = PottsProblem(A, X, y, model, beta_box=2.0)
            for i in range(n):
                p1 = potts_conditional(prob, model.flatten(),
                                       2 * beta_ising, i)[1]
                want = 0.5 * (1.0 + conditional_mean(ising, sigma, i))
                assert p1 == pytest.approx(want, abs=1e-9)

    def test_site_out_of_range(self):
        rng = np.random.default_rng(1)
        prob = small_problem(rng)
        with pytest.raises(IndexError):
            potts_conditional(prob, prob.model.flatten(), 0.0, 99)


class TestObjective:
    def test_value_at_zero_is_n_log_k(self):
        rng = np.random.default_rng(2)
        prob = small_problem(rng, n=7, K=3)
        v, _, _ = potts_objective_grad(prob, prob.model.flatten() * 0, 0.0)
        assert v == pytest.approx(7 * np.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_gradients(self, seed):
        rng = np.random.default_rng(seed + 10)
        prob = small_problem(rng, n=9, d=2, K=3)
        flat = rng.normal(size=prob.model.flatten().size) * 0.5
        beta = float(rng.uniform(-0.9, 0.9))
        _, g_th, g_b = potts_objective_grad(prob, flat, beta)
        got = np.concatenate([g_th, [g_b]])
        want = finite_difference_gradient(prob, flat, beta)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference_gradients_site_restricted_mlp2(self, seed):
        rng = np.random.default_rng(seed + 20)
        sites, known = SITE_CASES["unsorted_sites"]
        prob = small_problem(rng, n=12, d=3, K=4, kind="mlp2",
                             sites=sites, known=known)
        flat = prob.model.flatten()
        flat = flat + 0.3 * rng.normal(size=flat.size)
        beta = float(rng.uniform(-0.9, 0.9))
        _, g_th, g_b = potts_objective_grad(prob, flat, beta)
        got = np.concatenate([g_th, [g_b]])
        want = finite_difference_gradient(prob, flat, beta)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_per_node_constant_shift_invariance(self):
        # adding the same constant to all K fields of a node cannot change
        # the softmax; realized via an extra all-ones feature column
        rng = np.random.default_rng(3)
        n, d, K = 8, 2, 3
        A = random_graph_matrix(rng, n)
        X = rng.normal(size=(n, d))
        X_aug = np.column_stack([X, np.ones(n)])
        y = rng.integers(0, K, size=n)
        W = rng.normal(size=(d, K))
        W_aug = np.vstack([W, np.full(K, 1.7)])
        m1 = FunctionClassModel.linear(d, n_outputs=K, theta=W, l2_radius=None)
        m2 = FunctionClassModel.linear(d + 1, n_outputs=K, theta=W_aug,
                                       l2_radius=None)
        p1 = PottsProblem(A, X, y, m1, beta_box=1.0)
        p2 = PottsProblem(A, X_aug, y, m2, beta_box=1.0)
        v1 = potts_objective_grad(p1, m1.flatten(), 0.4)[0]
        v2 = potts_objective_grad(p2, m2.flatten(), 0.4)[0]
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_convexity_chords_linear(self):
        rng = np.random.default_rng(4)
        prob = small_problem(rng, n=10)
        size = prob.model.flatten().size
        for _ in range(200):
            t1, t2 = rng.normal(size=size), rng.normal(size=size)
            b1, b2 = rng.uniform(-1, 1, size=2)
            mid = potts_objective_grad(prob, 0.5 * (t1 + t2), 0.5 * (b1 + b2))[0]
            avg = 0.5 * (potts_objective_grad(prob, t1, b1)[0]
                         + potts_objective_grad(prob, t2, b2)[0])
            assert mid <= avg + 1e-9

    def test_site_restriction_changes_objective(self):
        rng = np.random.default_rng(5)
        full = small_problem(rng, n=8)
        sub = PottsProblem(full.A, full.X, full.y, full.model,
                           beta_box=1.0, sites=np.array([0, 1, 2]))
        flat = rng.normal(size=full.model.flatten().size)
        v_full = potts_objective_grad(full, flat, 0.2)[0]
        v_sub = potts_objective_grad(sub, flat, 0.2)[0]
        assert v_sub < v_full


class TestObjectiveMatchesReference:
    """The site-restricted objective against the full-n reference."""

    @pytest.mark.parametrize("case", SITE_CASES)
    @pytest.mark.parametrize("kind", ["linear", "mlp2"])
    def test_value_and_gradient_agree(self, kind, case):
        rng = np.random.default_rng(31)
        sites, known = SITE_CASES[case]
        prob = small_problem(rng, n=12, d=3, K=4, kind=kind,
                             sites=sites, known=known)
        for _ in range(5):
            flat = rng.normal(size=prob.model.flatten().size)
            beta = float(rng.uniform(-1, 1))
            v, g_th, g_b = potts_objective_grad(prob, flat, beta)
            v_ref, g_th_ref, g_b_ref = reference_potts_objective_grad(
                prob, flat, beta)
            assert v == pytest.approx(v_ref, rel=1e-12)
            np.testing.assert_allclose(
                g_th, g_th_ref, rtol=1e-12,
                atol=1e-12 * np.abs(g_th_ref).max())
            assert g_b == pytest.approx(g_b_ref, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("kind", ["linear", "mlp2"])
    def test_field_model_sees_only_site_rows(self, kind, monkeypatch):
        rng = np.random.default_rng(32)
        sites = [40, 3, 17, 25, 8]
        prob = small_problem(rng, n=50, d=3, K=4, kind=kind, sites=sites)
        rows = spy_rows(monkeypatch, "eval", "param_grad")
        potts_objective_grad(prob, prob.model.flatten(), 0.3)
        assert rows and all(r == len(sites) for r in rows)


class TestSampler:
    def test_determinism(self):
        rng = np.random.default_rng(6)
        prob = small_problem(rng)
        a = gibbs_sample_potts(prob.A, prob.X, prob.model, 0.5, 5, seed=3)
        b = gibbs_sample_potts(prob.A, prob.X, prob.model, 0.5, 5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_beta_zero_matches_softmax_marginals(self):
        rng = np.random.default_rng(8)
        n, d, K = 6, 2, 3
        A = random_graph_matrix(rng, n)
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(d, K))
        model = FunctionClassModel.linear(d, n_outputs=K, theta=W,
                                          l2_radius=None)
        z = X @ W
        probs = np.exp(z - z.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        draws = gibbs_sample_potts(A, X, model, 0.0, 4000, burn_in=10,
                                   thin=1, seed=11)
        for k in range(K):
            emp = (draws == k).mean(axis=0)
            se = np.sqrt(probs[:, k] * (1 - probs[:, k]) / 4000)
            assert np.all(np.abs(emp - probs[:, k]) <= 3.5 * se + 1e-9)

    def test_marginals_match_exact_enumeration_k3(self):
        # enumeration oracle for the joint
        #   P[y] propto exp( sum_i f_{y_i}(x_i) + beta sum_{i<j} A_ij 1[y_i=y_j] )
        # whose site conditionals are exactly the sampler's softmax law
        rng = np.random.default_rng(17)
        n, d, K, beta = 5, 2, 3, 0.7
        A = random_graph_matrix(rng, n)
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(d, K)) * 0.8
        model = FunctionClassModel.linear(d, n_outputs=K, theta=W,
                                          l2_radius=None)
        fields = X @ W
        dense = A.dense()
        states = np.stack(np.meshgrid(*([np.arange(K)] * n),
                                      indexing="ij")).reshape(n, -1).T
        log_w = np.zeros(len(states))
        for s, y in enumerate(states):
            log_w[s] = fields[np.arange(n), y].sum()
            for i in range(n):
                for j in range(i + 1, n):
                    if y[i] == y[j]:
                        log_w[s] += beta * dense[i, j]
        probs = np.exp(log_w - log_w.max())
        probs /= probs.sum()
        want = np.stack([(states == k).T @ probs for k in range(K)]).T

        m = 8000
        draws = gibbs_sample_potts(A, X, model, beta, m, burn_in=100,
                                   thin=3, seed=21)
        for k in range(K):
            emp = (draws == k).mean(axis=0)
            se = np.sqrt(want[:, k] * (1 - want[:, k]) / m)
            assert np.all(np.abs(emp - want[:, k]) <= 4.0 * se + 0.01)

    def test_k2_chain_matches_ising_marginals(self):
        rng = np.random.default_rng(9)
        n, d = 8, 2
        A = random_graph_matrix(rng, n)
        X = rng.normal(size=(n, d))
        W = rng.normal(size=(d, 2)) * 0.5
        model = FunctionClassModel.linear(d, n_outputs=2, theta=W,
                                          l2_radius=None)
        beta_ising = 0.3
        f = X @ W
        ising = IsingModel(A, 0.5 * (f[:, 1] - f[:, 0]), beta_ising)
        m = 6000
        y = gibbs_sample_potts(A, X, model, 2 * beta_ising, m,
                               burn_in=100, thin=3, seed=12)
        sig = gibbs_sample(ising, m, burn_in=100, thin=3, seed=13)
        diff = (2.0 * y - 1).mean(axis=0) - sig.mean(axis=0)
        assert np.max(np.abs(diff)) < 0.06

    @pytest.mark.parametrize("kind", ["dense_hub_diagonal", "dense_complete"])
    def test_diagonal_never_enters_a_conditional(self, kind):
        rng = np.random.default_rng(34)
        m = REFERENCE_MATRICES[kind](rng).dense()
        np.fill_diagonal(m, 0.0)
        heavy = m + np.diag(rng.uniform(1.0, 2.0, size=len(m)))
        X = rng.normal(size=(len(m), 2))
        model = FunctionClassModel.linear(2, n_outputs=3,
                                          theta=rng.normal(size=(2, 3)),
                                          l2_radius=None)
        got, want = (gibbs_sample_potts(InteractionMatrix.from_dense(a), X,
                                        model, 0.8, 3, burn_in=5, thin=2,
                                        seed=8)
                     for a in (heavy, m))
        assert got.tobytes() == want.tobytes()


class TestSamplerMatchesReference:
    """Byte identity with the per-site reference in ``helpers``."""

    @pytest.mark.parametrize("kind", ["adjacency", "weighted_edges",
                                      "dense_hub_diagonal", "dense_complete"])
    @pytest.mark.parametrize("run", ["single", "thinned"])
    def test_byte_identical(self, kind, run):
        rng = np.random.default_rng(33)
        A = REFERENCE_MATRICES[kind](rng)
        X = rng.normal(size=(A.n, 2))
        model = FunctionClassModel.linear(2, n_outputs=3,
                                          theta=rng.normal(size=(2, 3)),
                                          l2_radius=None)
        kwargs = {"single": dict(count=1, burn_in=10),
                  "thinned": dict(count=4, burn_in=5, thin=3)}[run]
        got = gibbs_sample_potts(A, X, model, 0.8, seed=7, **kwargs)
        want = reference_gibbs_sample_potts(A, X, model, 0.8, seed=7,
                                            **kwargs)
        assert got.tobytes() == want.tobytes()

    def test_block_matrix_is_refused(self):
        A = InteractionMatrix.block_partition(6, 2)
        model = FunctionClassModel.linear(2, n_outputs=3, l2_radius=None)
        with pytest.raises(ValueError):
            gibbs_sample_potts(A, np.zeros((6, 2)), model, 0.5, 1)


class TestFitAndPredict:
    def test_beta_frozen_matches_softmax_regression(self):
        rng = np.random.default_rng(14)
        n, d, K = 120, 3, 3
        A = random_graph_matrix(rng, n, p=0.05)
        X = rng.normal(size=(n, d))
        W_star = rng.normal(size=(d, K))
        z = X @ W_star
        probs = np.exp(z - z.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        y = np.array([rng.choice(K, p=probs[i]) for i in range(n)])
        model = FunctionClassModel.linear(d, n_outputs=K, l2_radius=None)
        prob = PottsProblem(A, X, y, model, beta_box=1.0)
        res = fit_potts(prob, beta_frozen=0.0, tol=1e-10)

        onehot = np.zeros((n, K))
        onehot[np.arange(n), y] = 1.0

        def nll(flat):
            zz = X @ flat.reshape(d, K)
            zz -= zz.max(1, keepdims=True)
            return float(np.sum(np.log(np.exp(zz).sum(1))
                                - (zz * onehot).sum(1)))

        oracle = minimize(nll, np.zeros(d * K), method="BFGS",
                          options={"gtol": 1e-10, "maxiter": 2000})
        # softmax parameters are identified up to per-class constants;
        # compare fitted conditionals instead of raw weights
        z_fit = X @ res.theta_hat["theta"]
        z_orc = X @ oracle.x.reshape(d, K)
        p_fit = np.exp(z_fit - z_fit.max(1, keepdims=True))
        p_fit /= p_fit.sum(1, keepdims=True)
        p_orc = np.exp(z_orc - z_orc.max(1, keepdims=True))
        p_orc /= p_orc.sum(1, keepdims=True)
        assert np.max(np.abs(p_fit - p_orc)) < 1e-3

    def test_fit_deterministic_and_feasible(self):
        rng = np.random.default_rng(15)
        prob = small_problem(rng, n=20)
        r1 = fit_potts(prob, max_iters=300)
        r2 = fit_potts(prob, max_iters=300)
        np.testing.assert_array_equal(r1.theta_hat["theta"],
                                      r2.theta_hat["theta"])
        assert abs(r1.beta_hat) <= 1.0

    def test_mlp_starts_from_its_own_weights(self):
        # all-zero weights are a stationary point of an mlp2 field
        from isingreg.harness import planted_potts_dataset
        ds = planted_potts_dataset(n=200, K=3, seed=0)
        model = FunctionClassModel.mlp2(3, n_outputs=3, width=8)
        zero = FunctionClassModel("mlp2", {k: np.zeros_like(v) for k, v
                                           in model.params.items()})
        res = fit_potts(PottsProblem(ds.A, ds.X, ds.labels, model))
        from_zero = fit_potts(PottsProblem(ds.A, ds.X, ds.labels, zero))
        assert np.all(from_zero.model.flatten() == 0.0)
        assert np.any(res.theta_hat["W1"] != 0.0)
        assert np.any(res.theta_hat["W2"] != 0.0)
        assert res.objective_value < from_zero.objective_value

    def test_isolated_target_prediction_is_field_argmax(self):
        A = InteractionMatrix.from_adjacency([(0, 1), (1, 2)], 4)
        X = np.array([[1.0, 0], [0, 1], [1, 1], [0.3, -0.2]])
        W = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.5]])
        m = FunctionClassModel.linear(2, n_outputs=3, theta=W, l2_radius=None)
        pred = predict_class(A, X, m, 0.8, np.array([0, 1, 2]),
                             np.array([0, 1, 2]), np.array([3]))
        assert pred[0] == np.argmax(X[3] @ W)

    def test_argmax_tie_breaks_to_lowest_class(self):
        A = InteractionMatrix.from_adjacency([(0, 1)], 2)
        X = np.zeros((2, 1))
        m = FunctionClassModel.linear(1, n_outputs=3, l2_radius=None)
        pred = predict_class(A, X, m, 0.0, np.array([]), np.array([]),
                             np.array([0, 1]))
        np.testing.assert_array_equal(pred, [0, 0])

    @pytest.mark.parametrize("frozen", [np.nan, -np.inf])
    def test_non_finite_frozen_beta_rejected(self, frozen):
        prob = small_problem(np.random.default_rng(17))
        with pytest.raises(ValueError, match="frozen beta must be finite"):
            fit_potts(prob, beta_frozen=frozen)

    def test_label_validation(self):
        rng = np.random.default_rng(16)
        A = random_graph_matrix(rng, 4)
        X = rng.normal(size=(4, 2))
        m = FunctionClassModel.linear(2, n_outputs=2, l2_radius=None)
        with pytest.raises(ValueError, match="K = 2"):
            PottsProblem(A, X, np.array([0, 1, 2, 0]), m)
        # K is the model's output count
        m3 = FunctionClassModel.linear(2, n_outputs=3, l2_radius=None)
        assert PottsProblem(A, X, np.array([0, 1, 2, 0]), m3).K == 3
        m1 = FunctionClassModel.linear(2, l2_radius=None)
        with pytest.raises(ValueError, match="K = 1"):
            PottsProblem(A, X, np.zeros(4, dtype=np.int64), m1)
        for box in (-1.0, np.nan):
            with pytest.raises(ValueError, match="beta_box"):
                PottsProblem(A, X, np.array([0, 1, 1, 0]), m, beta_box=box)


def path_graph_problem_parts():
    """A 6-node path, features and 3-class labels."""
    rng = np.random.default_rng(19)
    A = InteractionMatrix.from_adjacency([(i, i + 1) for i in range(5)], 6)
    model = FunctionClassModel.linear(2, n_outputs=3, l2_radius=None)
    return A, rng.normal(size=(6, 2)), rng.integers(0, 3, size=6), model


class TestIndexSets:
    """Node index sets are refused, naming the set, before any work when
    an index falls outside 0..n-1 or repeats."""

    @pytest.mark.parametrize("name", ["sites", "known"])
    @pytest.mark.parametrize("bad", [[-1, -2], [0, 0, 0], [2, 6]])
    def test_problem(self, name, bad):
        A, X, y, model = path_graph_problem_parts()
        with pytest.raises(ValueError, match=f"^{name} must be distinct"):
            PottsProblem(A, X, y, model, **{name: bad})

    @pytest.mark.parametrize("known_idx,targets,name", [
        # -1 would mean node 5, a known node, past the disjointness check
        ([0, 1, 5], [-1], "targets"),
        ([0, 1], [3, 3], "targets"),
        ([0, 1], [6], "targets"),
        ([0, 1, 1], [3], "known_idx"),
        ([-2, 1, 0], [3], "known_idx")])
    def test_predict_class(self, known_idx, targets, name):
        A, X, y, model = path_graph_problem_parts()
        with pytest.raises(ValueError, match=f"^{name} must be distinct"):
            predict_class(A, X, model, 0.5, known_idx, y[:len(known_idx)],
                          targets)

    @pytest.mark.parametrize("labels", [[-1, -1], [0, 3]])
    def test_predict_class_refuses_labels_outside_the_classes(self, labels):
        # -1 would wrap to class K - 1 and 3 would index past the classes
        A, X, _, model = path_graph_problem_parts()
        with pytest.raises(ValueError, match="0..K-1 for the model's K = 3"):
            predict_class(A, X, model, 1.0, [0, 2], labels, [1])

    def test_predict_class_refuses_one_output_model(self):
        A, X, _, _ = path_graph_problem_parts()
        one = FunctionClassModel.linear(2, l2_radius=None)
        with pytest.raises(ValueError, match="at least 2 outputs, got K = 1"):
            predict_class(A, X, one, 0.5, [0, 1], [0, 0], [3, 4])


@pytest.mark.parametrize("kind", ["block_r4", "adjacency"])
def test_counts_match_one_class_at_a_time(kind):
    # c_i(k) is the off-diagonal local field of the known sites of class k
    rng = np.random.default_rng(18)
    A = REFERENCE_MATRICES[kind](rng)
    K = 4
    y = rng.integers(0, K, size=A.n)
    known = np.flatnonzero(rng.random(A.n) < 0.6)
    model = FunctionClassModel.linear(2, n_outputs=K)
    prob = PottsProblem(A, rng.normal(size=(A.n, 2)), y, model, known=known)
    for k in range(K):
        filled = np.zeros(A.n)
        filled[known] = y[known] == k
        np.testing.assert_array_equal(prob.counts[:, k], A.local_field(filled))
