import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from isingreg import (InteractionMatrix, IsingModel, conditional_mean,
                      exact_summary, gibbs_sample)
from isingreg.errors import EnumerationCapError
from isingreg.ising import (_VECTOR_CLASS_MIN, _colour_classes, parse_spins,
                           scan_order, serialize_spins, sweep_distribution)

from helpers import (REFERENCE_MATRICES, enumeration_conditional,
                     random_model, random_spins, reference_gibbs_sample)


def two_spin_model(beta, h=(0.0, 0.0)):
    A = InteractionMatrix.from_adjacency([(0, 1)], 2)
    return IsingModel(A, np.array(h, dtype=float), beta)


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
        m_b = IsingModel(blocks, h, 0.4)
        m_d = IsingModel(dense, h, 0.4)
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


def _class_work(A):
    """Sites plus off-diagonal entries of each colour class of ``A``."""
    return [len(sites) + rows.nnz for _, sites, rows in _colour_classes(A)[1]]


class TestGibbsMatchesReference:
    """Byte identity with the per-site numpy reference in ``helpers``."""

    @pytest.mark.parametrize("kind", sorted(REFERENCE_MATRICES))
    @pytest.mark.parametrize("run", ["single", "initial", "thinned"])
    def test_byte_identical(self, kind, run):
        self._check(kind, run, 0.8)

    # on block matrices beta > 0 and beta = 0 run the auxiliary-Gaussian
    # sweep, beta < 0 the single-site one
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
        got = gibbs_sample(model, seed=7, **kwargs)
        want = reference_gibbs_sample(model, seed=7, **kwargs)
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


def test_reference_cases_cover_both_class_updates():
    """Some CSR classes are one numpy step and some go site by site."""
    rng = np.random.default_rng(31)
    work = [w for kind in ("adjacency", "weighted_edges",
                           "dense_hub_diagonal", "dense_complete")
            for w in _class_work(REFERENCE_MATRICES[kind](rng))]
    assert min(work) < _VECTOR_CLASS_MIN <= max(work)


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

    def test_one_block_sweep_integrates_the_gaussian_out(self):
        # two blocks of two sites: the row of the two-step kernel, one
        # Gaussian integral per block by adaptive quadrature
        n = 4
        A = InteractionMatrix.block_partition(n, 2)
        model = IsingModel(A, np.array([0.3, -0.5, 0.1, 0.7]), 1.5)
        a = model.beta * A._block_value
        start = 0b0111
        p = np.zeros(2 ** n)
        p[start] = 1.0
        sigma = ((start >> np.arange(n)) & 1) * 2 - 1
        want = np.ones(2 ** n)
        for end in range(2 ** n):
            new = ((end >> np.arange(n)) & 1) * 2 - 1
            for sites in ([0, 1], [2, 3]):
                mean, sd = a * sigma[sites].sum(), np.sqrt(a)

                def density(t, sites=sites, mean=mean, sd=sd):
                    prob = math.exp(-0.5 * ((t - mean) / sd) ** 2)
                    for i in sites:
                        prob *= 0.5 * (1.0 + new[i] * math.tanh(t + model.h[i]))
                    return prob / (sd * math.sqrt(2 * math.pi))
                want[end] *= quad(density, mean - 12 * sd, mean + 12 * sd,
                                  epsabs=0, epsrel=1e-12)[0]
        np.testing.assert_allclose(sweep_distribution(model, p), want,
                                   rtol=1e-9, atol=0)

    def test_one_sweep_visits_sites_in_scan_order(self):
        # a path 0-1-2-3-4: the scan order 0, 2, 4, 1, 3 is not 0..n-1
        n = 5
        A = InteractionMatrix.from_adjacency([(i, i + 1) for i in range(4)],
                                             n)
        model = IsingModel(A, np.linspace(-0.4, 0.6, n), 0.9)
        order = scan_order(A)[0].tolist()
        assert order == [0, 2, 4, 1, 3]
        a = A.dense()
        start = 0b10110
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

    def test_sweep_moves_non_stationary_distribution(self):
        rng = np.random.default_rng(77)
        model = random_model(rng, 5)
        p = np.zeros(32)
        p[0] = 1.0
        after = sweep_distribution(model, p)
        assert abs(after.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(after - p)) > 1e-3


class TestSpinSerialization:
    def test_roundtrip(self):
        states = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        text = serialize_spins(states)
        assert text == "1,-1,1\n-1,-1,1\n"
        np.testing.assert_array_equal(parse_spins(text), states)
