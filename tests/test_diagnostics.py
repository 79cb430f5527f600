import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingreg import (InteractionMatrix, IsingModel, c1_prime_estimate,
                      curie_weiss_rate, diagnostics, exact_summary,
                      exchangeable_pairs_test, kappa_and_restricted_eig,
                      kl_tv_exact, psi)
from isingreg.errors import EnumerationCapError
from isingreg.harness import solve_mean_field_fixpoint
from isingreg.ising import _exact_block_draws, _exact_coupling

from helpers import random_model, random_symmetric_matrix

A_FIX = 0.8952191961793687  # tanh(1 + a/2) = a


class TestPsi:
    def test_zero_at_identical_parameters(self):
        rng = np.random.default_rng(0)
        A = random_symmetric_matrix(rng, 6)
        h = rng.normal(size=6)
        assert psi(h, 0.3, h, 0.3, A).value == 0.0

    def test_equal_beta_limit_is_squared_distance(self):
        rng = np.random.default_rng(1)
        A = random_symmetric_matrix(rng, 6)
        h0, h1 = rng.normal(size=6), rng.normal(size=6)
        got = psi(h1, 0.4, h0, 0.4, A)
        assert got.value == pytest.approx(np.sum((h1 - h0) ** 2), abs=1e-12)
        assert got.frobenius_term == 0.0
        # continuity: tiny beta gaps approach the limit
        for eps in (1e-6, 1e-8):
            near = psi(h1, 0.4 + eps, h0, 0.4, A).value
            assert near == pytest.approx(got.value, rel=1e-4)

    def test_lower_bound_instance_identity(self):
        # full tilt (theta, beta): (1, 1/2) -> (1+a, -1/2) has psi = ||A||_F^2
        for n, r in [(8, 2), (12, 3), (16, 4)]:
            A = InteractionMatrix.block_partition(n, r)
            a = solve_mean_field_fixpoint()
            ones = np.ones(n)
            val = psi((1 + a) * ones, -0.5, ones, 0.5, A)
            assert val.value == pytest.approx(r, abs=1e-9)
            assert val.residual_term == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("t", [0.5, 2.0, -3.0])
    def test_quadratic_scale_law(self, t):
        rng = np.random.default_rng(5)
        A = random_symmetric_matrix(rng, 7, zero_diag=False)
        h0, h1 = rng.normal(size=7), rng.normal(size=7)
        b0, b1 = 0.1, 0.8
        base = psi(h1, b1, h0, b0, A).value
        ht = h0 + t * (h1 - h0)
        bt = b0 + t * (b1 - b0)
        assert psi(ht, bt, h0, b0, A).value == pytest.approx(
            t * t * base, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_nonnegative_and_split(self, seed):
        rng = np.random.default_rng(seed)
        A = random_symmetric_matrix(rng, 5, zero_diag=False)
        h0, h1 = rng.normal(size=5), rng.normal(size=5)
        b0, b1 = rng.uniform(-1, 1, size=2)
        out = psi(h1, b1, h0, b0, A)
        assert out.value >= 0
        assert out.frobenius_term >= 0 and out.residual_term >= 0
        assert out.value == pytest.approx(
            out.frobenius_term + out.residual_term, rel=1e-12)

    def test_length_mismatch(self):
        A = InteractionMatrix.curie_weiss(4)
        with pytest.raises(ValueError):
            psi(np.zeros(3), 0.1, np.zeros(4), 0.0, A)


class TestComplexityEstimate:
    def test_degenerate_family(self):
        # an X with no nonzero column gives no direction away from h*, on
        # the search path and on the closed form alike
        A = InteractionMatrix.curie_weiss(4)
        for beta_star in (0.2, 0.0):
            est = c1_prime_estimate(np.zeros((4, 2)), 1.0,
                                    np.ones(4), beta_star, A)
            assert est.degenerate and est.c1_prime == 0.0
            assert est.search_telemetry["evals"] == 0

    def test_zero_matrix_takes_the_closed_form(self):
        # with A = 0, psi = ||h - h*||^2 for every beta*: c2' is unbounded
        A = InteractionMatrix.from_dense(np.zeros((5, 5)))
        X = np.random.default_rng(0).normal(size=(5, 2))
        est = c1_prime_estimate(X, 1.0, np.full(5, 0.3), 0.3, A)
        assert est.c1_prime == 1.0 / 5 and est.c2_prime == np.inf
        assert est.search_telemetry["evals"] == 0

    def test_lower_bound_instance_witness(self):
        # at the lower-bound construction's slope the ratio equals a^2/r;
        # the search must find at least that much
        n, r = 12, 3
        A = InteractionMatrix.block_partition(n, r)
        x = np.ones((n, 1))
        est = c1_prime_estimate(x, 4.0, np.ones(n), 0.5, A,
                                beta_box=1.0)
        a = A_FIX
        # the ray's unit point: h = h* + 1/sqrt(n), beta = beta* - 1/(a sqrt(n))
        ones = np.ones(n)
        at_witness = 1.0 / (n * psi(ones + ones / np.sqrt(n),
                                    0.5 - 1.0 / (a * np.sqrt(n)),
                                    ones, 0.5, A).value)
        assert at_witness == pytest.approx(a * a / r, abs=1e-3)
        assert est.c1_prime >= at_witness - 1e-9

    def test_search_matches_brute_force_on_d1(self):
        n, r = 12, 3
        A = InteractionMatrix.block_partition(n, r)
        ones = np.ones(n)
        est = c1_prime_estimate(np.ones((n, 1)), 4.0, ones, 0.5, A)
        thetas, betas = np.linspace(-3, 5, 801), np.linspace(-8, 8, 801)
        dense, db = A.dense(), betas - 0.5

        def psi_row(th):
            # psi(th * ones, b, ones, 0.5, A) at every grid b at once
            dh = (th - 1.0) * ones
            with np.errstate(divide="ignore", invalid="ignore"):
                tanh = np.tanh((0.5 / db)[:, None] * -dh + ones)
                vec = dh + db[:, None] * (tanh @ dense.T)
                return np.where(db == 0.0, dh @ dh,
                                db ** 2 * A.frobenius ** 2
                                + np.sum(vec * vec, axis=1))

        best, at = 0.0, None
        for i, th in enumerate(thetas):
            if abs(th - 1.0) < 1e-9:
                continue
            vals = psi_row(th)
            ratios = np.where(vals > 0, (th - 1.0) ** 2 / vals, 0.0)
            j = int(np.argmax(ratios))
            if ratios[j] > best:
                best, at = ratios[j], (i, j)
        # the row oracle is psi itself, at the argmax and at seeded points
        picks = np.random.default_rng(0).integers(0, 801, size=(100, 2))
        for i, j in [at, *picks]:
            assert psi_row(thetas[i])[j] == pytest.approx(
                psi(thetas[i] * ones, betas[j], ones, 0.5, A).value,
                rel=1e-12)
        assert est.c1_prime == pytest.approx(best, rel=1e-3)

    def test_closed_form_matches_brute_force_on_d1(self):
        # beta* = 0 with h* != 0: the ray's best slope is -sqrt(p)/D != 0
        n, r = 12, 3
        A = InteractionMatrix.block_partition(n, r)
        ones = np.ones(n)
        est = c1_prime_estimate(np.ones((n, 1)), 4.0, ones, 0.0, A)
        assert est.search_telemetry["evals"] == 0
        assert est.argmax_witness["lambda_slope"] < 0.0
        best, best2 = 0.0, 0.0
        for th in np.linspace(-3, 5, 161):
            if abs(th - 1.0) < 1e-9:
                continue
            for b in np.linspace(-4, 4, 401):
                val = psi(th * ones, b, ones, 0.0, A).value
                best = max(best, (th - 1.0) ** 2 / val)
                best2 = max(best2, b ** 2 / val)
        assert best <= est.c1_prime * (1 + 1e-12)
        assert est.c1_prime == pytest.approx(best, rel=1e-6)
        assert best2 <= est.c2_prime * (1 + 1e-12)
        assert est.c2_prime == pytest.approx(best2, rel=1e-6)

    def test_closed_form_witness_on_d3(self):
        rng = np.random.default_rng(12)
        n = 30
        A = random_symmetric_matrix(rng, n, zero_diag=False)
        X = rng.standard_normal((n, 3))
        h_star = X @ rng.standard_normal(3)
        est = c1_prime_estimate(X, 1.0, h_star, 0.0, A)
        wit = est.argmax_witness
        at_witness = 1.0 / (n * psi(wit["h"], wit["beta"], h_star, 0.0,
                                    A).value)
        assert at_witness == pytest.approx(est.c1_prime, rel=1e-12)
        # no sampled (direction, slope) pair beats either supremum
        for _ in range(500):
            dh = X @ rng.standard_normal(3)
            db = float(rng.normal()) * 10.0 ** rng.uniform(-3, 3)
            val = psi(h_star + dh, db, h_star, 0.0, A).value
            assert dh @ dh / (n * val) <= est.c1_prime * (1 + 1e-12)
            assert db ** 2 / val <= est.c2_prime * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_respect_frobenius_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 48))
        r = int(rng.choice([1, 2, 4]))
        n -= n % r
        A = InteractionMatrix.block_partition(n, r)
        d = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        theta = rng.standard_normal(d)
        theta *= 0.5 / np.linalg.norm(theta)
        est = c1_prime_estimate(X, 1.0, X @ theta,
                                float(rng.uniform(-0.8, 0.8)), A, seed=seed)
        assert est.c1_prime <= (1.0 + 1e-6) / (4.0 * A.frobenius ** 2)
        # c2' is capped by 1/||A||_F^2 unconditionally
        assert est.c2_prime <= (1.0 + 1e-9) / A.frobenius ** 2
        assert est.c1 <= est.c1_prime + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_origin_ratios_are_exact(self, seed):
        # at h* = 0, beta* = 0 (where `diagnose` evaluates) psi along a ray
        # is |w|^2 + lam^2 ||A||_F^2, so c1' = 1/n at lam = 0 and c2' tends
        # to 1/||A||_F^2 as |lam| grows
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(20, 40))
        A = random_symmetric_matrix(rng, n)
        X = rng.standard_normal((n, 3))
        est = c1_prime_estimate(X, 1.0, np.zeros(n), 0.0, A,
                                seed=seed)
        assert est.c1_prime == 1.0 / n
        assert est.c2_prime == pytest.approx(1.0 / A.frobenius ** 2,
                                             rel=1e-11)

    @pytest.mark.parametrize("instance", ["lower_bound", "d3", "beta_zero"])
    def test_evals_count_every_psi_evaluation(self, monkeypatch, instance):
        calls = []
        real = diagnostics._psi_terms

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(diagnostics, "_psi_terms", counting)
        if instance == "lower_bound":
            A = InteractionMatrix.block_partition(12, 3)
            est = c1_prime_estimate(np.ones((12, 1)), 4.0,
                                    np.ones(12), 0.5, A)
        else:
            # the d3 instance at beta* = 0 takes the closed form: no psi
            beta_star = 0.2 if instance == "d3" else 0.0
            rng = np.random.default_rng(4)
            A = random_symmetric_matrix(rng, 15)
            est = c1_prime_estimate(rng.standard_normal((15, 3)), 1.0,
                                    rng.normal(size=15), beta_star, A)
        assert est.search_telemetry["evals"] == len(calls)
        assert (len(calls) > 0) == (instance != "beta_zero")

    @staticmethod
    def _d3_instance(beta_star):
        # the d3 instance of test_evals_count_every_psi_evaluation
        rng = np.random.default_rng(4)
        A = random_symmetric_matrix(rng, 15)
        X = rng.standard_normal((15, 3))
        return X, 1.0, rng.normal(size=15), beta_star, A

    def test_search_gradients_match_central_differences(self, monkeypatch):
        # every objective the search hands to L-BFGS, checked at points
        # away from its starts
        import scipy.optimize
        runs = []
        real = scipy.optimize.minimize

        def recording(fun, x0, args, **kwargs):
            runs.append((fun, args))
            return real(fun, x0, args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        c1_prime_estimate(*self._d3_instance(0.2))
        assert {args for _, args in runs} == {(True,), (False,)}
        rng = np.random.default_rng(7)
        for fun, args in [runs[0], runs[-1]]:
            for _ in range(5):
                phi = rng.standard_normal(3) * 10.0 ** rng.uniform(-1, 1)
                _, grad = fun(phi, *args)
                step = 1e-6 * np.linalg.norm(phi)
                central = [(fun(phi + step * e, *args)[0]
                            - fun(phi - step * e, *args)[0]) / (2 * step)
                           for e in np.eye(3)]
                np.testing.assert_allclose(grad, central, rtol=1e-6,
                                           atol=1e-8 * np.abs(grad).max())

    @pytest.mark.parametrize("instance", ["d3", "lower_bound"])
    def test_small_beta_star_matches_closed_form(self, instance):
        # G(phi) tends to the beta* = 0 quadratic, so the search's ratios
        # tend to the closed form's
        if instance == "d3":
            X, radius, h_star, _, A = self._d3_instance(0.0)
        else:
            A = InteractionMatrix.block_partition(12, 3)
            X, radius, h_star = np.ones((12, 1)), 4.0, np.ones(12)
        exact = c1_prime_estimate(X, radius, h_star, 0.0, A)
        near = c1_prime_estimate(X, radius, h_star, 1e-9, A)
        assert near.search_telemetry["evals"] > 0
        assert near.c1_prime == pytest.approx(exact.c1_prime, rel=1e-6)
        assert near.c2_prime == pytest.approx(exact.c2_prime, rel=1e-6)

    def test_lower_bound_instance_c2_is_exact(self):
        # phi + tanh(1 - phi/2) has a root in (-1, 0), so min G = 0 and
        # c2' = 1/||A||_F^2 = 1/r
        n, r = 12, 3
        A = InteractionMatrix.block_partition(n, r)
        est = c1_prime_estimate(np.ones((n, 1)), 4.0, np.ones(n),
                                0.5, A)
        assert est.c2_prime == pytest.approx(1.0 / r, rel=1e-9)

    def test_witness_certifies_c1_prime(self):
        X, radius, h_star, beta_star, A = self._d3_instance(0.2)
        est = c1_prime_estimate(X, radius, h_star, beta_star, A)
        wit = est.argmax_witness
        assert wit["lambda_slope"] != 0.0
        val = psi(wit["h"], wit["beta"], h_star, beta_star, A).value
        assert est.c1_prime == pytest.approx(1.0 / (A.n * val), rel=1e-12)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize takes 0.2-0.4 s to import; only the beta* != 0
        # search may load it
        src = str(Path(diagnostics.__file__).resolve().parents[1])
        code = ("import sys, isingreg; "
                "assert 'scipy.optimize' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("case", ["1d_x", "x_rows", "h_length",
                                      "nan_x", "inf_h"])
    def test_bad_inputs_rejected_before_any_work(self, monkeypatch, case):
        def never(*args):
            raise AssertionError("work done on bad input")

        monkeypatch.setattr(diagnostics, "_closed_form", never)
        monkeypatch.setattr(diagnostics, "_psi_terms", never)
        n = 6
        A = InteractionMatrix.curie_weiss(n)
        X, h_star = np.ones((n, 2)), np.zeros(n)
        if case == "1d_x":
            X = np.ones(n)
        elif case == "x_rows":
            X = np.ones((n + 1, 2))
        elif case == "h_length":
            h_star = np.zeros(n - 1)
        elif case == "nan_x":
            X = np.full((n, 2), np.nan)
        else:
            h_star[2] = np.inf
        match = "finite" if case in ("nan_x", "inf_h") else "must be 6 x d"
        for beta_star in (0.0, 0.3):
            with pytest.raises(ValueError, match=match):
                c1_prime_estimate(X, 1.0, h_star, beta_star, A)


class TestKLTV:
    def test_identical_models(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 6)
        rep = kl_tv_exact(m, m)
        assert rep.kl_forward == pytest.approx(0.0, abs=1e-14)
        assert rep.tv == pytest.approx(0.0, abs=1e-14)
        assert rep.pinsker_ok

    def test_generic_asymmetry_and_pinsker(self):
        rng = np.random.default_rng(3)
        m0 = random_model(rng, 7)
        m1 = IsingModel(m0.A, m0.h + rng.normal(size=7) * 0.4, m0.beta + 0.3)
        rep = kl_tv_exact(m0, m1)
        assert abs(rep.kl_forward - rep.kl_backward) > 1e-12
        assert rep.tv <= np.sqrt(rep.kl_forward / 2.0) + 1e-12
        assert rep.pinsker_ok

    def test_kl_equals_log_partition_route(self):
        # D(P0 || P1) = E0[energy0 - energy1] + logZ1 - logZ0
        rng = np.random.default_rng(4)
        m0 = random_model(rng, 6)
        m1 = IsingModel(m0.A, m0.h * 0.5 - 0.2, m0.beta - 0.4)
        s0, s1 = exact_summary(m0), exact_summary(m1)
        d_beta = m0.beta - m1.beta
        d_h = m0.h - m1.h
        # E0 of the energy difference via marginals and pair means
        off = m0.A.dense()
        np.fill_diagonal(off, 0.0)
        e_pair = 0.5 * np.sum(off * s0.pair_means)
        expect = d_beta * e_pair + d_h @ s0.marginal_means
        kl_route = expect + s1.log_partition - s0.log_partition
        rep = kl_tv_exact(m0, m1)
        assert rep.kl_forward == pytest.approx(kl_route, abs=1e-10)

    def test_kl_psi_upper_bound_structure(self):
        # lower-bound instance at small tilt: KL <= C psi with modest C
        n, r = 10, 2
        A = InteractionMatrix.block_partition(n, r)
        a = solve_mean_field_fixpoint()
        zeta = 0.1 / A.frobenius
        ones = np.ones(n)
        m0 = IsingModel(A, ones, 0.5)
        m1 = IsingModel(A, (1 + zeta * a) * ones, 0.5 - zeta)
        rep = kl_tv_exact(m0, m1)
        val = psi((1 + zeta * a) * ones, 0.5 - zeta, ones, 0.5, A).value
        assert val == pytest.approx(zeta ** 2 * r, rel=1e-9)
        assert rep.kl_forward <= 10.0 * val

    def test_cap(self):
        A = InteractionMatrix.curie_weiss(22)
        m = IsingModel(A, np.zeros(22), 0.1)
        with pytest.raises(EnumerationCapError):
            kl_tv_exact(m, m)


class TestExchangeablePairs:
    def test_zero_v_rejected(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 6)
        with pytest.raises(ValueError):
            exchangeable_pairs_test(m, np.zeros(6), 100)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(samples=0), "samples"), (dict(burn_in=-1), "burn_in")])
    def test_argument_checks(self, kwargs, match):
        m = random_model(np.random.default_rng(5), 6)
        with pytest.raises(ValueError, match=match):
            exchangeable_pairs_test(m, np.ones(6), **{"samples": 10, **kwargs})

    def test_independent_case_beta_zero(self):
        n = 10
        A = InteractionMatrix.curie_weiss(n)
        m = IsingModel(A, np.linspace(-1, 1, n), 0.0)
        rng = np.random.default_rng(6)
        rep = exchangeable_pairs_test(m, rng.normal(size=n), 5000, seed=1)
        assert abs(rep.mean) <= 3.5 * rep.std_error
        assert rep.all_below_bound

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_models(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = random_model(rng, 10)
        rep = exchangeable_pairs_test(m, rng.normal(size=10), 4000, seed=seed)
        assert rep.all_below_bound
        assert abs(rep.mean) <= 4.0 * rep.std_error
        assert rep.bound.shape == rep.t_grid.shape

    def test_block_models_take_exact_draws(self):
        n = 12
        m = IsingModel(InteractionMatrix.block_partition(n, 3),
                       np.linspace(-1.0, 1.0, n), 0.6)
        v = np.random.default_rng(8).normal(size=n)
        rep = exchangeable_pairs_test(m, v, 500, seed=4)
        states = _exact_block_draws(m, _exact_coupling(m), 500,
                                    np.random.default_rng(4)).T.astype(float)
        f = (states - np.tanh(m.beta * m.A.local_field(states)
                              + m.h[:, None])).T @ v
        assert rep.mean == float(f.mean())
        assert rep.std_error == float(f.std(ddof=1) / np.sqrt(500))
        np.testing.assert_array_equal(
            rep.empirical_exceedance,
            [(np.abs(f) > t).mean() for t in rep.t_grid])
        with pytest.raises(ValueError, match="burn_in"):
            exchangeable_pairs_test(m, v, 500, seed=4, burn_in=-1)

    def test_mean_zero_against_enumeration(self):
        # E f(sigma) = 0 exactly under the model
        rng = np.random.default_rng(41)
        m = random_model(rng, 8)
        summ = exact_summary(m)
        v = rng.normal(size=8)
        n = 8
        spins = (((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) * 2 - 1
                 ).astype(float)
        local = m.A.local_field(spins.T).T
        f = (spins - np.tanh(m.beta * local + m.h)) @ v
        assert float(f @ summ.full_table) == pytest.approx(0.0, abs=1e-12)


class TestKappa:
    def test_orthonormal_design(self):
        n, d = 32, 4
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(n, d)))
        X = q * np.sqrt(n)
        assert kappa_and_restricted_eig(X) == pytest.approx(1.0, abs=1e-10)

    def test_zero_column(self):
        X = np.zeros((10, 3))
        X[:, :2] = np.random.default_rng(1).normal(size=(10, 2))
        assert kappa_and_restricted_eig(X) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_design_concentrates(self):
        vals = []
        for seed in range(10):
            X = np.random.default_rng(seed).normal(size=(2000, 10))
            vals.append(kappa_and_restricted_eig(X))
        assert all(0.7 <= v <= 1.3 for v in vals)

    def test_wide_design_below_n(self):
        # d = 600 <= n: no dimension cap, the same dense eigensolve
        X = np.random.default_rng(3).normal(size=(700, 600))
        want = np.linalg.eigvalsh(X.T @ X / 700)[0]
        assert kappa_and_restricted_eig(X) == want > 0.0

    def test_more_columns_than_rows_is_zero(self, monkeypatch):
        def never(*args):
            raise AssertionError("eigensolve for d > n")

        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        X = np.random.default_rng(4).normal(size=(20, 21))
        assert kappa_and_restricted_eig(X) == 0.0

    def test_no_columns_raises(self):
        with pytest.raises(ValueError, match="no feature columns"):
            kappa_and_restricted_eig(np.zeros((10, 0)))


class TestCurieWeissRate:
    def test_balanced_pattern(self):
        lam, res = curie_weiss_rate(0.5, 100)
        assert lam == 0.0
        assert res == pytest.approx(10.0, abs=1e-12)

    def test_quarter_pattern(self):
        lam, _ = curie_weiss_rate(0.75, 1000)
        assert lam == pytest.approx(-0.5, abs=1e-15)

    def test_extreme_alpha_limit(self):
        lam, res = curie_weiss_rate(1.0 - 1e-12, 50)
        assert lam == pytest.approx(-1.0, abs=1e-9)
        assert res == pytest.approx(0.0, abs=1e-4)

    def test_matches_brute_force_projection(self):
        for alpha, n in [(0.3, 200), (0.5, 64), (0.9, 500)]:
            _, res = curie_weiss_rate(alpha, n)
            m = int(round(alpha * n))
            h = np.concatenate([np.ones(m), -np.ones(n - m)])
            grid = np.linspace(-2, 2, 400001)
            norms_sq = n * grid ** 2 + 2 * grid * h.sum() + h @ h
            assert res == pytest.approx(np.sqrt(norms_sq.min()), abs=1e-6)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                curie_weiss_rate(bad, 10)
