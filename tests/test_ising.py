import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from isingreg import (InteractionMatrix, IsingModel, conditional_mean,
                      exact_summary, gibbs_sample)
import isingreg.ising as ising
from isingreg.errors import EnumerationCapError, NumericalFailure
from isingreg.ising import (_exact_coupling, _log_acceptance, _run_chain,
                           _sweeper, scan_order, serialize_spins,
                           sweep_distribution)

from helpers import (REFERENCE_MATRICES, enumeration_conditional,
                     random_model, random_spins, reference_gibbs_sample)


def two_spin_model(beta, h=(0.0, 0.0)):
    A = InteractionMatrix.from_adjacency([(0, 1)], 2)
    return IsingModel(A, np.array(h, dtype=float), beta)


@pytest.mark.parametrize("beta,h", [(np.nan, 0.0), (np.inf, 0.0),
                                    (-np.inf, 0.0), (0.3, np.nan),
                                    (0.3, -np.inf)])
def test_model_refuses_non_finite_beta_or_field(beta, h):
    with pytest.raises(ValueError, match="must be finite"):
        two_spin_model(beta, (0.0, h))


class TestConditionalMean:
    def test_zero_beta_zero_field(self):
        model = two_spin_model(0.0)
        for i in range(2):
            assert conditional_mean(model, np.array([1, -1]), i) == 0.0

    def test_two_spin_closed_form(self):
        # E[s0 | s1=+1] = tanh(beta * A01) for the edge-coupled pair
        model = two_spin_model(0.25)
        got = conditional_mean(model, np.array([1, 1]), 0)
        assert got == pytest.approx(np.tanh(0.25), abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        model = random_model(rng, n)
        summ = exact_summary(model)
        for code in range(2 ** n):
            sigma = (((code >> np.arange(n)) & 1) * 2 - 1).astype(float)
            for i in range(n):
                oracle = enumeration_conditional(summ, code, i, n)
                assert conditional_mean(model, sigma, i) == pytest.approx(
                    oracle, abs=1e-12)

    def test_index_out_of_range(self):
        model = two_spin_model(0.1)
        with pytest.raises(IndexError):
            conditional_mean(model, np.array([1, 1]), 2)


class TestExactSummary:
    def test_import_leaves_scipy_special_unloaded(self):
        # only exact_summary needs scipy.special, which costs 3-6 MB of RSS
        src = str(Path(ising.__file__).resolve().parents[1])
        code = ("import sys, isingreg.cli; "
                "assert 'scipy.special' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_log_partition_is_pinned(self):
        # the values of the module-level scipy.special import
        summ = exact_summary(random_model(np.random.default_rng(41), 10,
                                          graph=True))
        assert summ.log_partition.hex() == "0x1.904a419087e3cp+0"
        summ = exact_summary(IsingModel(InteractionMatrix.block_partition(
            12, 3), np.linspace(-1, 1, 12), 0.7))
        assert summ.log_partition.hex() == "0x1.a87c12034e634p+1"

    def test_uniform_at_zero_parameters(self):
        model = two_spin_model(0.0)
        summ = exact_summary(model)
        np.testing.assert_allclose(summ.full_table, 0.25)
        np.testing.assert_allclose(summ.marginal_means, 0.0, atol=1e-15)
        assert summ.log_partition == pytest.approx(0.0, abs=1e-12)

    def test_two_spin_pair_correlation(self):
        # joint weight exp(beta * s0 s1) for a unit edge
        beta = 0.25
        summ = exact_summary(two_spin_model(beta))
        assert summ.pair_means[0, 1] == pytest.approx(np.tanh(beta), abs=1e-14)

    def test_negating_field_negates_marginals(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 5)
        flipped = IsingModel(model.A, -model.h, model.beta)
        m1 = exact_summary(model).marginal_means
        m2 = exact_summary(flipped).marginal_means
        np.testing.assert_allclose(m1, -m2, atol=1e-12)

    def test_table_normalization_and_symmetry(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 7)
        summ = exact_summary(model)
        assert abs(summ.full_table.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(summ.pair_means, summ.pair_means.T,
                                   atol=1e-12)
        assert np.all(np.abs(summ.marginal_means) <= 1.0)

    def test_cap_enforced(self):
        A = InteractionMatrix.curie_weiss(21)
        with pytest.raises(EnumerationCapError):
            exact_summary(IsingModel(A, np.zeros(21), 0.1))

    def test_full_size_enumeration_independent_sites(self):
        # n = 20 at the cap, beta = 0: marginals are exactly tanh(h)
        n = 20
        A = InteractionMatrix.curie_weiss(n)
        h = np.linspace(-1.2, 1.2, n)
        summ = exact_summary(IsingModel(A, h, 0.0))
        assert abs(summ.full_table.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(summ.marginal_means, np.tanh(h), atol=1e-12)
        want_pairs = np.outer(np.tanh(h), np.tanh(h))
        np.fill_diagonal(want_pairs, 1.0)
        np.testing.assert_allclose(summ.pair_means, want_pairs, atol=1e-12)


class TestGibbs:
    def test_determinism(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 8)
        s1 = gibbs_sample(model, 20, seed=123)
        s2 = gibbs_sample(model, 20, seed=123)
        np.testing.assert_array_equal(s1, s2)
        s3 = gibbs_sample(model, 20, seed=124)
        assert not np.array_equal(s1, s3)

    def test_independent_sites_at_beta_zero(self):
        n = 6
        A = InteractionMatrix.curie_weiss(n)
        h = np.linspace(-1, 1, n)
        model = IsingModel(A, h, 0.0)
        states = gibbs_sample(model, 4000, burn_in=20, thin=1, seed=9)
        emp = states.mean(axis=0)
        se = np.sqrt((1 - np.tanh(h) ** 2)) / np.sqrt(4000)
        assert np.all(np.abs(emp - np.tanh(h)) <= 3.5 * se + 1e-12)

    @pytest.mark.parametrize("seed,graph", [(1, False), (2, True)])
    def test_marginals_match_enumeration(self, seed, graph):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 8, graph=graph)
        summ = exact_summary(model)
        states = gibbs_sample(model, 6000, burn_in=100, thin=3, seed=seed)
        emp = states.mean(axis=0)
        se = np.sqrt(1 - summ.marginal_means ** 2) / np.sqrt(6000)
        # thinned samples are mildly correlated; allow a small inflation
        assert np.all(np.abs(emp - summ.marginal_means) <= 4.0 * se + 0.01)

    def test_block_backend_matches_csr_backend_statistics(self):
        n = 12
        blocks = InteractionMatrix.block_partition(n, 3)
        dense = InteractionMatrix.from_dense(blocks.dense())
        h = np.linspace(-0.5, 0.5, n)
        # beta = 0.4 draws exactly, beta < 0 runs the single-site loop
        for beta in (0.4, -0.9):
            m_b = IsingModel(blocks, h, beta)
            m_d = IsingModel(dense, h, beta)
            e_b = exact_summary(m_b).marginal_means
            e_d = exact_summary(m_d).marginal_means
            np.testing.assert_allclose(e_b, e_d, atol=1e-12)
            s_b = gibbs_sample(m_b, 3000, seed=5).mean(axis=0)
            assert np.max(np.abs(s_b - e_b)) < 0.06

    def test_argument_validation(self):
        model = two_spin_model(0.1)
        with pytest.raises(ValueError):
            gibbs_sample(model, 0)
        with pytest.raises(ValueError):
            gibbs_sample(model, 1, thin=0)
        with pytest.raises(ValueError, match="burn_in"):
            gibbs_sample(model, 1, burn_in=-3)


def _table_p_value(states, probs):
    """Chi-square p-value of the full-table counts of ``states`` against
    ``probs``, its cells as in :func:`spin_table`; cells expected fewer
    than 5 times are pooled into one."""
    codes = ((states > 0).astype(np.int64) << np.arange(states.shape[1])).sum(
        axis=1)
    observed = np.bincount(codes, minlength=len(probs))
    expected = len(states) * probs
    rare = expected < 5
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, len(expected) - 1))


def _log_density(t, a, h):
    """f_b(t) = -t^2/(2a) + sum_i log cosh(t + h_i), straight from the
    formula."""
    x = t + np.asarray(h)
    return -t * t / (2 * a) + float(np.sum(np.logaddexp(x, -x) - np.log(2)))


class TestExactBlockDraws:
    """On block matrices with 0 <= a * n_b < 1, ``gibbs_sample`` returns
    independent exact draws."""

    # (block labels, a * largest block, seed); labels 3 of the last case
    # is empty, and its blocks are unequal and interleaved
    CASES = [
        ([0] * 6, 0.0, 1),
        ([0] * 8, 0.5, 2),
        ([0] * 12, 0.95, 3),
        ([0] * 5 + [1] * 5, 0.3, 4),
        ([0] * 6 + [1] * 6, 0.95, 5),
        ([0] * 3 + [1] * 3 + [2] * 3, 0.8, 6),
        ([0] * 4 + [1] * 4 + [2] * 4, 0.95, 7),
        ([0, 2, 1, 2, 0, 2, 4, 2, 1, 2, 4], 0.9, 8),
    ]

    @pytest.mark.parametrize("labels,coupling,seed", CASES)
    def test_full_table_matches_enumeration(self, labels, coupling, seed):
        rng = np.random.default_rng(seed)
        n, value = len(labels), 0.25
        A = InteractionMatrix(n, block_labels=labels, block_value=value)
        beta = coupling / (value * A._block_sizes.max())
        model = IsingModel(A, rng.uniform(-1.0, 1.0, size=n), beta)
        assert _exact_coupling(model) is not None
        states = gibbs_sample(model, 40_000, seed=seed)
        # a correct sampler fails one case with probability 1e-3
        assert _table_p_value(states, exact_summary(model).full_table) > 1e-3

    def test_draws_are_independent(self):
        # the table of two consecutive draws is the product of the tables
        rng = np.random.default_rng(9)
        A = InteractionMatrix.block_partition(4, 2)
        model = IsingModel(A, rng.uniform(-1.0, 1.0, size=4), 0.9)
        states = gibbs_sample(model, 40_001, seed=9)
        pairs = np.hstack([states[:-1], states[1:]])
        probs = exact_summary(model).full_table
        assert _table_p_value(pairs, np.outer(probs, probs).T.ravel()) > 1e-3

    def test_burn_in_and_thin_are_checked_but_not_used(self):
        model = IsingModel(InteractionMatrix.block_partition(12, 3),
                           np.linspace(-1.0, 1.0, 12), 0.5)
        want = gibbs_sample(model, 5, seed=3)
        got = gibbs_sample(model, 5, burn_in=0, thin=1, seed=3)
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="thin"):
            gibbs_sample(model, 5, thin=0)

    @pytest.mark.parametrize("beta", [1.0, 1.5, -0.5])
    def test_other_block_models_run_the_chain(self, beta):
        A = InteractionMatrix.block_partition(12, 3)
        model = IsingModel(A, np.linspace(-1.0, 1.0, 12), beta)
        assert _exact_coupling(model) is None
        rng = np.random.default_rng(3)
        spins = (rng.integers(0, 2, size=12) * 2 - 1).astype(float)
        want = _run_chain(_sweeper(model, spins, rng), spins, 4, 50, 5, np.int8)
        assert gibbs_sample(model, 4, seed=3).tobytes() == want.tobytes()

    def test_coupling_just_below_one_runs_the_chain(self):
        # 1/49 * 49 rounds to just below 1, where a block would take about
        # 1e8 proposals; the cap 1 - 1e-6 itself still draws exactly
        model = IsingModel(InteractionMatrix.curie_weiss(49), np.zeros(49),
                           1.0)
        assert model.beta * model.A._block_value * 49 < 1
        assert _exact_coupling(model) is None
        model = IsingModel(InteractionMatrix.block_partition(12, 3),
                           np.zeros(12), ising._EXACT_COUPLING_CAP)
        assert _exact_coupling(model) is not None
        assert gibbs_sample(model, 20, seed=4).shape == (20, 12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=30),
           st.floats(0.01, 0.999), st.floats(-8.0, 8.0), st.floats(-30.0, 30.0))
    def test_envelope_dominates_log_density(self, h, coupling, c, t):
        # envelope(t) = f(c) + f'(c)(t - c) - kappa (t - c)^2 / 2 with
        # kappa = 1/a - n_b, at any centre c
        a = coupling / len(h)
        kappa = 1.0 / a - len(h)
        slope = -c / a + float(np.sum(np.tanh(c + np.asarray(h))))
        envelope = (_log_density(c, a, h) + slope * (t - c)
                    - 0.5 * kappa * (t - c) ** 2)
        gap = _log_density(t, a, h) - envelope
        terms = _log_acceptance(c + np.asarray(h), t - c)
        tol = 1e-9 * (1.0 + abs(envelope) + abs(c * c / a) + abs(t * t / a))
        assert gap <= tol
        assert np.all(terms <= 1e-12)
        assert abs(terms.sum() - gap) <= tol

    def test_extreme_field_tilts_its_block(self):
        # h_0 = 8e307 fixes sigma_0 = +1, so sigma_1 follows
        # tanh(a + h_1): a field that large must still tilt t_0's law
        beta, h1 = 0.7, 0.3
        model = IsingModel(InteractionMatrix.curie_weiss(2),
                           np.array([8e307, h1]), beta)
        states = gibbs_sample(model, 40_000, seed=10)
        assert np.all(states[:, 0] == 1)
        want = math.tanh(beta / 2 + h1)
        se = math.sqrt((1 - want ** 2) / len(states))
        assert abs(states[:, 1].mean() - want) <= 4.5 * se

    def test_non_finite_acceptance_ratio_raises(self, monkeypatch):
        monkeypatch.setattr(ising, "_log_acceptance",
                            lambda x, delta: np.full_like(x, np.nan))
        model = IsingModel(InteractionMatrix.curie_weiss(6), np.zeros(6), 0.5)
        with pytest.raises(NumericalFailure, match="not finite"):
            gibbs_sample(model, 3)


class TestBatchedChains:
    """The sweep kernels on (n, m) spins run m independent chains."""

    # block_r4 runs the scalar kernel, dense_complete the colour-class one
    @pytest.mark.parametrize("beta,kind", [
        (0.8, "dense_complete"), (-0.8, "dense_complete"), (-0.8, "block_r4")])
    def test_chain_ends_are_independent_model_draws(self, kind, beta):
        rng = np.random.default_rng(33)
        A = REFERENCE_MATRICES[kind](rng)
        model = IsingModel(A, rng.uniform(-0.5, 0.5, size=A.n), beta)
        m = 4000
        spins = rng.integers(0, 2, size=(A.n, m)) * 2.0 - 1.0
        ends = _run_chain(_sweeper(model, spins, rng), spins, 1, 20, 1,
                          float)[0]
        # blocks do not interact, so each is enumerated on its own
        labels = (np.zeros(A.n, dtype=int) if A._block_labels is None
                  else A._block_labels)
        dense = A.dense()
        want = np.empty(A.n)
        for b in np.unique(labels):
            sites = np.flatnonzero(labels == b)
            sub = IsingModel(InteractionMatrix.from_dense(
                dense[np.ix_(sites, sites)]), model.h[sites], beta)
            want[sites] = exact_summary(sub).marginal_means
        se = np.sqrt(1.0 - want ** 2) / np.sqrt(m)
        assert np.all(np.abs(ends.mean(axis=1) - want) <= 4.5 * se)
        # and independent: two chains' spins at one site multiply to the
        # squared marginal on average
        cross = (ends[:, ::2] * ends[:, 1::2]).mean(axis=1)
        assert np.all(np.abs(cross - want ** 2) <= 4.5 * np.sqrt(2.0 / m))


class TestGibbsMatchesReference:
    """Byte identity with the per-site numpy reference in ``helpers``."""

    @pytest.mark.parametrize("kind", sorted(REFERENCE_MATRICES))
    @pytest.mark.parametrize("run", ["single", "initial", "thinned"])
    def test_byte_identical(self, kind, run):
        self._check(kind, run, 0.8)

    # block matrices at every sign of beta run the one scalar kernel
    @pytest.mark.parametrize("kind", ["block_r1", "block_r4"])
    @pytest.mark.parametrize("run", ["single", "initial", "thinned"])
    @pytest.mark.parametrize("beta", [0.0, -0.8])
    def test_byte_identical_at_non_positive_beta(self, kind, run, beta):
        self._check(kind, run, beta)

    @staticmethod
    def _check(kind, run, beta):
        rng = np.random.default_rng(31)
        A = REFERENCE_MATRICES[kind](rng)
        model = IsingModel(A, rng.uniform(-0.5, 0.5, size=A.n), beta)
        kwargs = {
            "single": dict(count=1, burn_in=10),
            "initial": dict(count=1, burn_in=3,
                            initial=random_spins(rng, A.n)),
            "thinned": dict(count=4, burn_in=5, thin=3),
        }[run]
        want = reference_gibbs_sample(model, seed=7, **kwargs)
        if run != "initial" and _exact_coupling(model) is None:
            got = gibbs_sample(model, seed=7, **kwargs)
        else:
            # gibbs_sample draws its own start, and draws models it can
            # draw exactly with no sweep; the kernel runs from the given
            # start, or from the one a chain would draw
            rng = np.random.default_rng(7)
            spins = (kwargs["initial"].astype(float) if run == "initial"
                     else (rng.integers(0, 2, size=A.n) * 2 - 1).astype(float))
            got = _run_chain(_sweeper(model, spins, rng), spins,
                             kwargs["count"], kwargs["burn_in"],
                             kwargs.get("thin", 5), np.int8)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["dense_hub_diagonal", "dense_complete"])
def test_diagonal_never_enters_a_conditional(kind):
    rng = np.random.default_rng(32)
    m = REFERENCE_MATRICES[kind](rng).dense()
    np.fill_diagonal(m, 0.0)
    heavy = m + np.diag(rng.uniform(1.0, 2.0, size=len(m)))
    h = rng.uniform(-0.5, 0.5, size=len(m))
    got, want = (gibbs_sample(IsingModel(InteractionMatrix.from_dense(a), h,
                                         0.8), 3, burn_in=5, thin=2, seed=8)
                 for a in (heavy, m))
    assert got.tobytes() == want.tobytes()


def _random_weighted_graph(data):
    n = data.draw(st.integers(1, 25))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    keep = np.triu(rng.random((n, n)) < data.draw(st.floats(0.0, 1.0)), 1)
    m = np.where(keep, rng.uniform(-1.0, 1.0, size=(n, n)), 0.0)
    m = m + m.T
    if data.draw(st.booleans()):
        np.fill_diagonal(m, rng.uniform(0.1, 1.0, size=n))
    return m


class TestScanOrder:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_greedy_colouring_of_weighted_graphs(self, data):
        m = _random_weighted_graph(data)
        n = len(m)
        order, bounds = scan_order(InteractionMatrix(n, csr=sp.csr_matrix(m)))
        assert sorted(order.tolist()) == list(range(n))
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) > 0)
        linked = m != 0
        np.fill_diagonal(linked, False)
        classes = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        for c, sites in enumerate(classes):
            assert np.all(np.diff(sites) > 0)
            assert not linked[np.ix_(sites, sites)].any()
            # greedy in index order: every smaller colour is taken by a
            # neighbour coloured before the site
            for i in sites:
                for earlier in classes[:c]:
                    assert linked[i, earlier[earlier < i]].any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6))
    def test_block_matrices_scan_in_index_order(self, size, r):
        A = InteractionMatrix.block_partition(size * r, r)
        order, bounds = scan_order(A)
        assert order.tolist() == list(range(size * r))
        assert bounds.tolist() == list(range(size * r + 1))


def _check_sweep_row(model, start, order):
    """``sweep_distribution`` from the one state ``start`` against the
    product, over the sites in ``order``, of each visit's heat-bath
    probability given the spins set so far."""
    n = model.n
    a = model.A.dense()
    np.fill_diagonal(a, 0.0)
    p = np.zeros(2 ** n)
    p[start] = 1.0
    want = np.empty(2 ** n)
    for end in range(2 ** n):
        state = (((start >> np.arange(n)) & 1) * 2 - 1).astype(float)
        prob = 1.0
        for i in order:
            plus = 0.5 * (1.0 + np.tanh(model.beta * (a[i] @ state)
                                        + model.h[i]))
            state[i] = 1.0 if (end >> i) & 1 else -1.0
            prob *= plus if state[i] > 0 else 1.0 - plus
        want[end] = prob
    np.testing.assert_allclose(sweep_distribution(model, p), want,
                               rtol=1e-12, atol=0)


class TestSweepStationarity:
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_distribution_is_invariant(self, seed):
        rng = np.random.default_rng(40 + seed)
        model = random_model(rng, 7, graph=(seed % 2 == 0))
        table = exact_summary(model).full_table
        after = sweep_distribution(model, table)
        assert np.max(np.abs(after - table)) <= 1e-10

    @pytest.mark.parametrize("n,r", [(10, 1), (9, 3)])
    @pytest.mark.parametrize("beta", [0.9, 0.0, -0.9])
    def test_block_distribution_is_invariant(self, n, r, beta):
        rng = np.random.default_rng(50 + r)
        model = IsingModel(InteractionMatrix.block_partition(n, r),
                           rng.uniform(-1.0, 1.0, size=n), beta)
        table = exact_summary(model).full_table
        after = sweep_distribution(model, table)
        assert np.max(np.abs(after - table)) <= 1e-10

    def test_one_sweep_visits_sites_in_scan_order(self):
        # a path 0-1-2-3-4: the scan order 0, 2, 4, 1, 3 is not 0..n-1
        n = 5
        A = InteractionMatrix.from_adjacency([(i, i + 1) for i in range(4)],
                                             n)
        model = IsingModel(A, np.linspace(-0.4, 0.6, n), 0.9)
        order = scan_order(A)[0].tolist()
        assert order == [0, 2, 4, 1, 3]
        _check_sweep_row(model, 0b10110, order)

    def test_one_block_sweep_visits_sites_in_index_order(self):
        # two blocks of two sites above the exact-draw cap
        A = InteractionMatrix.block_partition(4, 2)
        model = IsingModel(A, np.array([0.3, -0.5, 0.1, 0.7]), 1.5)
        assert _exact_coupling(model) is None
        _check_sweep_row(model, 0b0111, [0, 1, 2, 3])

    def test_sweep_moves_non_stationary_distribution(self):
        rng = np.random.default_rng(77)
        model = random_model(rng, 5)
        p = np.zeros(32)
        p[0] = 1.0
        after = sweep_distribution(model, p)
        assert abs(after.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(after - p)) > 1e-3


class TestSpinSerialization:
    @pytest.mark.parametrize("shape", [(1,), (7,), (1, 1), (3, 1), (1, 9),
                                       (4, 1000)])
    def test_bytes_match_savetxt(self, shape):
        states = np.where(np.random.default_rng(12).random(shape) < 0.5, 1,
                          -1).astype(np.int8)
        buf = io.StringIO()
        np.savetxt(buf, np.atleast_2d(states), fmt="%d", delimiter=",")
        assert serialize_spins(states) == buf.getvalue()

    def test_roundtrip(self):
        states = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        text = serialize_spins(states)
        assert text == "1,-1,1\n-1,-1,1\n"
        back = np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.int8,
                          ndmin=2)
        np.testing.assert_array_equal(back, states)
