import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingreg import FunctionClassModel
from isingreg.models import project_l1, project_l2, project_params


class TestEval:
    def test_linear_zero_theta(self):
        m = FunctionClassModel.linear(3)
        assert np.allclose(m.eval(np.ones((5, 3))), 0.0)

    def test_constant_feature_gives_constant_field(self):
        # d=1 all-ones column: f_theta = (theta, ..., theta)
        m = FunctionClassModel.linear(1, theta=np.array([0.7]))
        np.testing.assert_allclose(m.eval(np.ones((4, 1))), 0.7)

    def test_mlp_zero_first_layer(self):
        m = FunctionClassModel.mlp2(3, width=8, seed=0)
        m.params["W1"][:] = 0.0
        assert np.allclose(m.eval(np.random.default_rng(0).normal(size=(6, 3))), 0.0)

    def test_linear_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 4))
        theta = rng.normal(size=4)
        m1 = FunctionClassModel.linear(4, theta=theta)
        m2 = FunctionClassModel.linear(4, theta=2.5 * theta)
        np.testing.assert_allclose(2.5 * m1.eval(X), m2.eval(X), atol=1e-12)

    def test_multiclass_shapes(self):
        m = FunctionClassModel.linear(4, n_outputs=3)
        assert m.eval(np.zeros((6, 4))).shape == (6, 3)
        m2 = FunctionClassModel.mlp2(4, n_outputs=3, width=5)
        assert m2.eval(np.zeros((6, 4))).shape == (6, 3)


class TestKinds:
    @pytest.mark.parametrize("model,k", [
        (FunctionClassModel("linear", {"theta": np.zeros(3)}), 1),
        (FunctionClassModel("linear", {"theta": np.zeros((3, 2))}), 2),
        (FunctionClassModel.mlp2(3, width=5), 1),
        (FunctionClassModel.mlp2(3, n_outputs=4, width=5), 4)],
        ids=["linear_1d", "linear_2d", "mlp2_k1", "mlp2_k4"])
    def test_n_outputs_read_from_the_parameters(self, model, k):
        assert model.n_outputs == k
        out = model.eval(np.ones((6, 3)))
        assert out.shape == ((6,) if k == 1 else (6, k))
        assert model.with_flat(model.flatten()).n_outputs == k

    def test_l1_radius_is_a_linear_constraint(self):
        m = FunctionClassModel.linear(4, l2_radius=2.0, l1_radius=0.5)
        assert m.kind == "linear" and m.l1_radius == 0.5
        assert m.with_flat(m.flatten()).l1_radius == 0.5
        assert np.abs(m.project_flat(np.full(4, 3.0))).sum() == \
            pytest.approx(0.5)
        with pytest.raises(ValueError, match="unknown model kind"):
            FunctionClassModel("sparse_linear", {"theta": np.zeros(2)})


class TestParamGrad:
    def test_zero_upstream(self):
        m = FunctionClassModel.mlp2(3, width=4, seed=1)
        g = m.param_grad(np.ones((5, 3)), np.zeros(5))
        assert all(np.allclose(v, 0.0) for v in g.values())

    def test_linear_single_row_selection(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        m = FunctionClassModel.linear(3)
        upstream = np.zeros(6)
        upstream[2] = 1.0
        np.testing.assert_allclose(m.param_grad(X, upstream)["theta"], X[2])

    @pytest.mark.parametrize("kind,n_outputs", [("linear", 1), ("mlp2", 1),
                                                ("mlp2", 3)])
    def test_finite_difference_agreement(self, kind, n_outputs):
        rng = np.random.default_rng(7)
        n, d = 9, 4
        X = rng.normal(size=(n, d))
        if kind == "linear":
            m = FunctionClassModel.linear(d, n_outputs=n_outputs)
            m.params["theta"] += rng.normal(size=m.params["theta"].shape)
        else:
            m = FunctionClassModel.mlp2(d, n_outputs=n_outputs, width=6, seed=3)
        # random linear functional of eval(): upstream is its gradient
        w = rng.normal(size=(n, n_outputs)).squeeze()

        def value(flat):
            return float(np.sum(w * m.with_flat(flat).eval(X)))

        flat = m.flatten()
        grad = m.flatten_grad(m.param_grad(X, w))
        eps = 1e-5
        num = np.zeros_like(flat)
        for k in range(flat.size):
            e = np.zeros_like(flat)
            e[k] = eps
            num[k] = (value(flat + e) - value(flat - e)) / (2 * eps)
        assert np.linalg.norm(num - grad) / max(np.linalg.norm(grad), 1e-12) < 1e-6


class TestProjection:
    def test_inside_both_balls_unchanged(self):
        v = np.array([0.2, -0.1, 0.05])
        out = project_params(v, l2_radius=1.0, l1_radius=1.0)
        np.testing.assert_array_equal(out, v)

    def test_radial_scaling(self):
        out = project_l2(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_l1_kkt_point(self):
        out = project_l1(np.array([1.0, 1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-12)

    def test_l1_matches_brute_force_soft_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=5) * 2
            radius = float(rng.uniform(0.2, 3.0))
            got = project_l1(v, radius)
            taus = np.linspace(0, np.abs(v).max(), 20001)
            norms = np.sum(np.maximum(np.abs(v)[None, :] - taus[:, None], 0),
                           axis=1)
            tau = taus[int(np.argmin(np.abs(norms - radius)))]
            want = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
            if np.sum(np.abs(v)) > radius:
                np.testing.assert_allclose(got, want, atol=2e-3)
            else:
                np.testing.assert_array_equal(got, v)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            project_l2(np.ones(2), -1.0)
        with pytest.raises(ValueError):
            project_l1(np.ones(2), -0.5)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError):
            project_l2(np.ones(2), np.nan)
        with pytest.raises(ValueError):
            project_l1(np.ones(2), np.nan)

    def test_zero_radius_collapses_to_origin(self):
        np.testing.assert_array_equal(project_l1(np.ones(3), 0.0), np.zeros(3))
        np.testing.assert_array_equal(project_l2(np.ones(3), 0.0), np.zeros(3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_idempotence(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=6) * 3
        l2 = float(rng.uniform(0.1, 2.0))
        l1 = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.5 else None
        once = project_params(v, l2, l1)
        twice = project_params(once, l2, l1)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_nonexpansiveness(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=6) * 3, rng.normal(size=6) * 3
        l2 = float(rng.uniform(0.1, 2.0))
        l1 = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.5 else None
        pa = project_params(a, l2, l1)
        pb = project_params(b, l2, l1)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    def test_idempotence_and_nonexpansiveness_bulk(self):
        # 1000 seeded draws each, mirroring the shipping contract exactly
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            l2 = float(rng.uniform(0.1, 2.0))
            l1 = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.5 else None
            a = rng.normal(size=5) * 3
            b = rng.normal(size=5) * 3
            pa = project_params(a, l2, l1)
            np.testing.assert_allclose(project_params(pa, l2, l1), pa,
                                       atol=1e-12)
            pb = project_params(b, l2, l1)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"l2_radius": -1.0}, {"l2_radius": np.nan}, {"l1_radius": -0.5},
        {"l1_radius": np.nan}])
    def test_bad_radius_rejected_when_built(self, kwargs):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            FunctionClassModel("linear", {"theta": np.zeros(2)}, **kwargs)

    def test_mlp_rejects_l1(self):
        with pytest.raises(ValueError):
            FunctionClassModel("mlp2", {"W1": np.zeros((2, 2)),
                                        "W2": np.zeros((1, 2))}, l1_radius=1.0)


class TestSerialization:
    def test_flat_roundtrip(self):
        m = FunctionClassModel.mlp2(3, width=4, seed=2)
        flat = m.flatten()
        m2 = m.with_flat(flat + 1.0)
        np.testing.assert_allclose(m2.flatten(), flat + 1.0)
        with pytest.raises(ValueError):
            m.with_flat(flat[:-1])

    def test_mlp_init_is_seeded_glorot(self):
        m1 = FunctionClassModel.mlp2(5, width=8, seed=9)
        m2 = FunctionClassModel.mlp2(5, width=8, seed=9)
        np.testing.assert_array_equal(m1.params["W1"], m2.params["W1"])
        bound = np.sqrt(6.0 / (5 + 8))
        assert np.max(np.abs(m1.params["W1"])) <= bound
