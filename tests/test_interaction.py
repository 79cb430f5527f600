from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from isingreg import InteractionMatrix, interaction
from isingreg.errors import DanglingEdgeError, MalformedRowError
from isingreg.interaction import (from_weighted_edges, read_edge_list,
                                  write_edge_list)

from helpers import (REFERENCE_MATRICES, random_graph_matrix,
                     random_symmetric_matrix)


class TestBlockPartition:
    def test_two_blocks_of_four(self):
        A = InteractionMatrix.block_partition(8, 2)
        dense = A.dense()
        assert np.allclose(dense[:4, :4], 0.25)
        assert np.allclose(dense[4:, 4:], 0.25)
        assert np.allclose(dense[:4, 4:], 0.0)
        assert A.frobenius ** 2 == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(A.matvec(np.ones(8)), 1.0)

    def test_curie_weiss_is_single_block(self):
        A = InteractionMatrix.block_partition(4, 1)
        assert np.allclose(A.dense(), 0.25)
        assert A.frobenius == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_single_node_blocks(self):
        A = InteractionMatrix.block_partition(8, 8)
        assert np.allclose(A.dense(), np.eye(8))
        assert A.frobenius ** 2 == pytest.approx(8.0)

    @pytest.mark.parametrize("n,r", [(8, 2), (16, 4), (12, 3)])
    def test_row_sums_and_frobenius_exact(self, n, r):
        A = InteractionMatrix.block_partition(n, r)
        assert np.all(A.matvec(np.ones(n)) == 1.0)
        assert A.frobenius ** 2 == pytest.approx(r, rel=1e-9)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            InteractionMatrix.block_partition(8, 3)
        with pytest.raises(ValueError):
            InteractionMatrix.block_partition(0, 1)


class TestFromAdjacency:
    def test_single_edge(self):
        A = InteractionMatrix.from_adjacency([(0, 1)], 2)
        assert np.allclose(A.dense(), [[0, 1], [1, 0]])

    def test_path_normalized_by_max_degree(self):
        A = InteractionMatrix.from_adjacency([(0, 1), (1, 2)], 3)
        sums = np.abs(A.dense()).sum(axis=1)
        assert np.allclose(sums, [0.5, 1.0, 0.5])
        assert A.infinity == pytest.approx(1.0, abs=1e-12)

    def test_star(self):
        edges = [(0, k) for k in range(1, 5)]
        A = InteractionMatrix.from_adjacency(edges, 5)
        sums = np.abs(A.dense()).sum(axis=1)
        assert sums[0] == pytest.approx(1.0)
        assert np.allclose(sums[1:], 0.25)

    def test_rejects_self_loops_out_of_range_and_empty(self):
        with pytest.raises(ValueError):
            InteractionMatrix.from_adjacency([(1, 1)], 3)
        with pytest.raises(DanglingEdgeError):
            InteractionMatrix.from_adjacency([(0, 5)], 3)
        with pytest.raises(ValueError):
            InteractionMatrix.from_adjacency([], 3)


class TestNorms:
    def test_zero_matrix(self):
        A = InteractionMatrix.from_dense(np.zeros((4, 4)))
        assert A.norms() == (0.0, 0.0, 0.0)

    def test_block_spectral_is_one(self):
        # all-equal block of size 4 with entry 1/4 has top eigenvalue 1
        A = InteractionMatrix.block_partition(8, 2)
        dense_top = np.max(np.abs(np.linalg.eigvalsh(A.dense())))
        assert A.spectral == pytest.approx(dense_top, abs=1e-8)
        assert A.spectral == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_power_iteration_matches_dense_eig(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 33))
        A = random_symmetric_matrix(rng, n)
        oracle = np.max(np.abs(np.linalg.eigvalsh(A.dense())))
        assert A.spectral == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_ordering_invariants(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 40))
        A = (random_graph_matrix(rng, n) if seed % 2
             else random_symmetric_matrix(rng, n))
        assert A.spectral <= A.infinity + 1e-9
        assert A.frobenius <= np.sqrt(n) * A.spectral + 1e-9

    def test_ring_lattice_spectral(self):
        # a near-degenerate top of the spectrum, where the start vector
        # ones/sqrt(n) is itself a top eigenvector
        n = 120
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(i, (i + 2) % n) for i in range(n)]
        A = InteractionMatrix.from_adjacency(edges, n)
        oracle = np.max(np.abs(np.linalg.eigvalsh(A.dense())))
        assert A.spectral == pytest.approx(oracle, abs=1e-8)

    def test_build_runs_no_eigensolver(self, monkeypatch):
        calls = []
        real = sp.linalg.eigsh

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sp.linalg, "eigsh", spy)
        rng = np.random.default_rng(3)
        A = random_symmetric_matrix(rng, 12)
        B = from_weighted_edges([(0, 1, 1.0), (1, 2, 0.5)], 3)
        assert calls == []
        oracle = np.max(np.abs(np.linalg.eigvalsh(A.dense())))
        assert A.spectral == pytest.approx(oracle, abs=1e-8)
        assert A.spectral == A.norms()[1]
        assert len(calls) == 1
        assert B.spectral > 0.0 and len(calls) == 2

    def test_single_node_spectral(self):
        A = InteractionMatrix.from_dense([[0.5]])
        oracle = np.max(np.abs(np.linalg.eigvalsh(A.dense())))
        assert A.spectral == pytest.approx(oracle, abs=1e-8)


class TestLocalField:
    def test_zero_matrix_gives_zero(self):
        A = InteractionMatrix.from_dense(np.zeros((3, 3)))
        assert np.allclose(A.local_field(np.ones(3)), 0.0)

    def test_curie_weiss_excludes_diagonal(self):
        A = InteractionMatrix.curie_weiss(4)
        np.testing.assert_allclose(A.local_field(np.ones(4)), 0.75)

    def test_single_edge(self):
        A = InteractionMatrix.from_adjacency([(0, 1)], 2)
        np.testing.assert_allclose(A.local_field(np.array([1.0, -1.0])),
                                   [-1.0, 1.0])

    def test_length_mismatch_rejected(self):
        A = InteractionMatrix.curie_weiss(4)
        with pytest.raises(ValueError):
            A.local_field(np.ones(5))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity_on_real_relaxations(self, seed, a, b):
        rng = np.random.default_rng(seed)
        A = random_symmetric_matrix(rng, 7, zero_diag=False)
        u, v = rng.normal(size=7), rng.normal(size=7)
        lhs = A.local_field(a * u + b * v)
        rhs = a * A.local_field(u) + b * A.local_field(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("kind",
                             ["block_r1", "block_r4", "dense_hub_diagonal"])
    def test_columns_match_one_vector_at_a_time(self, kind):
        # an (n, m) argument is m vectors, one per column, bit for bit
        rng = np.random.default_rng(5)
        A = REFERENCE_MATRICES[kind](rng)
        V = rng.normal(size=(A.n, 7))
        for apply in (A.local_field, A.matvec):
            batch = apply(V)
            assert batch.shape == V.shape
            for c in range(V.shape[1]):
                np.testing.assert_array_equal(batch[:, c], apply(V[:, c]))


class TestSymmetryAndStorage:
    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            InteractionMatrix.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_csr_constructor_rejects_asymmetric(self):
        single = sp.csr_matrix(([1.0], ([0], [1])), shape=(3, 3))
        with pytest.raises(ValueError, match="not symmetric"):
            InteractionMatrix(3, csr=single)
        near = np.array([[0.0, 0.5], [0.5 + 1e-14, 0.0]])
        assert InteractionMatrix(2, csr=near).infinity == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_entrywise_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        A = random_graph_matrix(rng, 15)
        dense = A.dense()
        np.testing.assert_array_equal(dense, dense.T)


class TestEdgeListFormat:
    def test_roundtrip(self):
        edges = [(0, 1, 1.0), (1, 2, -0.5), (0, 3, 1.0)]
        text = write_edge_list(edges)
        parsed = read_edge_list(text.splitlines())
        assert parsed.dtype == float and parsed.shape == (3, 3)
        np.testing.assert_array_equal(parsed, edges)
        assert write_edge_list(parsed) == text == "0 1\n1 2 -0.5\n0 3\n"

    def test_default_weight_and_comments(self):
        lines = ["# comment", "", "0 1", "1 2 0.25"]
        np.testing.assert_array_equal(read_edge_list(lines),
                                      [(0, 1, 1.0), (1, 2, 0.25)])

    def test_malformed_line_rejected(self):
        with pytest.raises(MalformedRowError, match="line 1"):
            read_edge_list(["0 1 2 3"])

    def test_no_rows_is_an_empty_array(self, recwarn):
        edges = read_edge_list(["# only a comment", "  \t", ""])
        assert edges.shape == (0, 3) and not recwarn.list
        with pytest.raises(ValueError, match="empty edge set"):
            from_weighted_edges(edges, 3)

    def test_accepted_cells(self):
        # whitespace of any width, a sign and leading zeros, an exponent,
        # and a comment line with leading blanks; the file handle form
        # keeps its newlines
        lines = ["  # note\n", "+1\t02  \n", "3 -0 1e-1\n", " 4 5 .5 \n"]
        np.testing.assert_array_equal(
            read_edge_list(lines), [(1, 2, 1.0), (3, 0, 0.1), (4, 5, 0.5)])

    @pytest.mark.parametrize("line, reason", [
        ("1.5 2", "could not convert string '1.5' to int64"),
        ("1e0 2", "could not convert string '1e0' to int64"),
        ("0 1 1_0", "could not convert string '1_0' to float64"),
        ("0 1 \uff11", "could not convert string '\uff11' to float64"),
        ("\uff10 1", "could not convert string '\uff10' to int64"),
        ("0 1 # not a comment after data", "expected 3 columns but 8 were"),
        ("0 1 #", "could not convert string '#' to float64"),
        ("7", "expected 3 columns but 1 were found"),
    ])
    def test_refused_cells_name_the_file_line(self, line, reason):
        # blank and comment lines before the bad line still count
        lines = ["0 1", "", "# c", "   ", line, "2 3"]
        with pytest.raises(MalformedRowError, match=f"^line 5: {reason}"):
            read_edge_list(lines)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(MalformedRowError, match="line 2: weight"):
            read_edge_list(["0 1", f"1 2 {weight}"])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_rows_as_load_rows(self, data):
        cells = data.draw(st.sampled_from([2, 3, None]))  # None: mixed
        weight = st.one_of(st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,4})?",
                                         fullmatch=True),
                           st.floats(-1e3, 1e3).map(repr))
        edge = st.builds(lambda i, j, w, two: f"{i} {j}" if two
                         else f"{i}\t{j}  {w}",
                         st.integers(0, 30), st.integers(0, 30), weight,
                         st.just(cells == 2) if cells else st.booleans())
        other = st.sampled_from(["", "   ", "# note", "  #0 1", "#"])
        lines = data.draw(st.lists(st.one_of(edge, edge, edge, other),
                                   min_size=1, max_size=12))
        end = data.draw(st.sampled_from(["\n", "\r\n", ""]))
        lines = [line + end for line in lines]
        counts = {len(line.split()) for line in lines if line.strip()}
        uniform = (len(counts) == 1 and counts <= {2, 3}
                   and bool(lines[0].strip())
                   and not any("#" in line for line in lines))
        table, _ = interaction.load_rows(lines, 1, "line ",
                                         interaction._edge_row, comments=None,
                                         dtype=interaction._EDGE_CELLS)
        want = np.column_stack([table["i"], table["j"], table["w"]])
        with mock.patch.object(interaction, "load_rows",
                               wraps=interaction.load_rows) as spy:
            got = read_edge_list(lines)
        assert spy.called != uniform
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_from_weighted_edges(self):
        # absolute row sums 0.5, 0.75, 0.25: divided by 0.75
        A = from_weighted_edges([(0, 1, 0.5), (1, 2, -0.25)], 3)
        dense = A.dense()
        assert dense[0, 1] == 0.5 / 0.75 and dense[2, 1] == -0.25 / 0.75
        assert A.infinity == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            from_weighted_edges([(0, 0, 1.0)], 2)

    def test_repeat_with_other_weight_rejected(self):
        with pytest.raises(ValueError, match="listed with weights"):
            from_weighted_edges([(0, 1, 0.5), (1, 2, 1.0), (1, 0, 0.25)], 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("end", [0.5, 1.7, np.inf, -np.inf, np.nan])
    def test_non_integer_endpoint_rejected(self, end):
        # refused before the cast to int64, which would truncate 1.7 to 1
        # and warn on inf and nan; the message names the first bad row
        edges = [(0, 1, 1.0), (1, 2, 1.0), (end, 2, 1.0), (0.5, 1, 1.0)]
        with pytest.raises(ValueError, match="^edge row 2 has endpoints "
                                             f"{end} and 2.0, not finite"):
            from_weighted_edges(edges, 3)

    @pytest.mark.filterwarnings("error")
    def test_endpoint_beyond_int64_is_dangling(self):
        with pytest.raises(DanglingEdgeError,
                           match=r"^edge \(0,\d{301}\) references"):
            from_weighted_edges([(0, 1, 1.0), (0, 1e300, 1.0)], 3)

    @pytest.mark.filterwarnings("error")
    def test_integral_float_endpoints_accepted(self):
        A = from_weighted_edges(np.array([[0.0, 1.0, 1.0], [2.0, 1.0, 1.0]]),
                                3)
        assert A.dense()[1, 2] == 0.5

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_listing_of_a_graph_builds_one_matrix(self, data):
        n = data.draw(st.integers(2, 10))
        pairs = sorted(data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]), min_size=1)))
        weight = st.floats(-2, 2).filter(lambda w: abs(w) > 1e-3)
        canonical = [(i, j, data.draw(weight)) for i, j in pairs]
        # each pair listed 1-3 times, each time in either order, shuffled
        listing = [(j, i, w) if data.draw(st.booleans()) else (i, j, w)
                   for i, j, w in canonical
                   for _ in range(data.draw(st.integers(1, 3)))]
        listing = data.draw(st.permutations(listing))
        want = from_weighted_edges(canonical, n)._csr
        got = from_weighted_edges(listing, n)._csr
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).tobytes() == \
                getattr(want, part).tobytes()
        dense = got.toarray()
        assert np.array_equal(dense, dense.T)
        assert abs(np.abs(dense).sum(axis=1).max() - 1.0) <= 1e-12
        unscaled = np.zeros((n, n))
        for i, j, w in canonical:
            unscaled[i, j] = unscaled[j, i] = w
        np.testing.assert_allclose(
            dense, unscaled / np.abs(unscaled).sum(axis=1).max(), rtol=1e-12)
