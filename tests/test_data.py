import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from isingreg import (InteractionMatrix, IsingModel, exact_summary,
                      gen_synthetic, load_citation, make_splits, save_citation)
from isingreg.data import Dataset, validate_splits
from isingreg.errors import (DanglingEdgeError, DuplicateIdError,
                             MalformedRowError, SplitError)

FIXTURES = Path(__file__).parent / "fixtures"


class TestGenSynthetic:
    def test_deterministic(self):
        kw = dict(n=30, d=3, matrix={"kind": "block", "r": 3},
                  beta_star=0.4, seed=5)
        d1, d2 = gen_synthetic(**kw), gen_synthetic(**kw)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.labels, d2.labels)
        np.testing.assert_array_equal(d1.ground_truth["theta"],
                                      d2.ground_truth["theta"])

    def test_beta_zero_gives_logistic_marginals(self):
        n = 2000
        ds = gen_synthetic(n=n, d=2, matrix={"kind": "curie_weiss"},
                           theta_star=np.array([0.8, -0.3]), beta_star=0.0,
                           seed=3, burn_in=10, thin=1)
        h = np.clip(ds.X @ ds.ground_truth["theta"], -5, 5)
        # single sample: compare the average residual sigma - tanh(h)
        resid = ds.labels - np.tanh(h)
        se = np.sqrt(np.mean(1 - np.tanh(h) ** 2) / n)
        assert abs(resid.mean()) <= 4 * se

    def test_small_instance_matches_enumeration(self):
        n = 10
        A = InteractionMatrix.block_partition(n, 2)
        theta = np.array([0.5])
        X = np.linspace(-1, 1, n)[:, None]
        marg = exact_summary(IsingModel(A, X[:, 0] * 0.5, 0.4)).marginal_means
        draws = np.stack([
            gen_synthetic(n=n, d=1, matrix=A, theta_star=theta, beta_star=0.4,
                          features=X, seed=s).labels
            for s in range(3000)
        ])
        emp = draws.mean(axis=0)
        se = np.sqrt(1 - marg ** 2) / np.sqrt(3000)
        assert np.all(np.abs(emp - marg) <= 3.5 * se + 0.01)

    def test_clipping_counter_and_abort(self):
        n = 50
        clean = np.full((n, 1), 3.0)
        ds = gen_synthetic(n=n, d=1, matrix={"kind": "curie_weiss"},
                           theta_star=np.array([1.0]), features=clean,
                           seed=0)
        assert ds.ground_truth["clipped"] == 0

        spread = np.linspace(2.0, 5.2, n)[:, None]  # 3 entries above 5.0
        with pytest.warns(UserWarning):
            ds2 = gen_synthetic(n=n, d=1, matrix={"kind": "curie_weiss"},
                                theta_star=np.array([1.0]), features=spread,
                                seed=0)
        assert ds2.ground_truth["clipped"] == int(np.sum(spread > 5.0))

        with pytest.raises(ValueError, match="clipped"):
            gen_synthetic(n=n, d=1, matrix={"kind": "curie_weiss"},
                          theta_star=np.array([2.0]), features=clean,
                          seed=0)


class TestMakeSplits:
    def test_exact_fractions_single_class(self):
        labels = np.zeros(100, dtype=int)
        splits = make_splits(labels, seed=1)
        assert (len(splits["train"]), len(splits["val"]),
                len(splits["test"])) == (60, 20, 20)

    def test_seed_changes_membership_not_counts(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=157)
        s1 = make_splits(labels, seed=1)
        s2 = make_splits(labels, seed=2)
        for part in ("train", "val", "test"):
            assert len(s1[part]) == len(s2[part])
        assert not np.array_equal(s1["train"], s2["train"])

    def test_stratification_preserves_class_proportions(self):
        labels = np.repeat([0, 1, 2], [60, 30, 10])
        splits = make_splits(labels, seed=3)
        for part, frac in (("train", 0.6), ("val", 0.2), ("test", 0.2)):
            counts = np.bincount(labels[splits[part]], minlength=3)
            np.testing.assert_allclose(counts / [60, 30, 10], frac, atol=0.05)

    def test_disjoint_exhaustive(self):
        labels = np.random.default_rng(4).integers(0, 4, size=83)
        splits = make_splits(labels, seed=5)
        merged = np.concatenate([splits[k] for k in splits])
        assert sorted(merged) == list(range(83))

    def test_tiny_class_goes_to_train(self):
        labels = np.array([0] * 50 + [1] * 2)
        with pytest.warns(UserWarning):
            splits = make_splits(labels, seed=6)
        assert set(np.flatnonzero(labels == 1)) <= set(splits["train"])


def _load_nodes(tmp_path, text):
    """load_citation on a nodes file with this text and one edge (0, 1)."""
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(text)
    (tmp_path / "edges.txt").write_text("0 1\n")
    return load_citation(nodes, tmp_path / "edges.txt")


class TestCitationFormat:
    def test_toy_fixture_counts(self):
        ds = load_citation(FIXTURES / "toy_nodes.csv",
                           FIXTURES / "toy_edges.txt",
                           FIXTURES / "toy_splits.json")
        assert ds.summary() == {"classes": 3, "nodes": 10, "edges": 12,
                                "features": 4}
        assert ds.A.infinity == pytest.approx(1.0, abs=1e-12)
        validate_splits(ds.splits, 10)

    def test_roundtrip_byte_identical(self, tmp_path):
        ds = load_citation(FIXTURES / "toy_nodes.csv",
                           FIXTURES / "toy_edges.txt",
                           FIXTURES / "toy_splits.json")
        save_citation(ds, tmp_path / "n.csv", tmp_path / "e.txt",
                      tmp_path / "s.json")
        for orig, copy in (("toy_nodes.csv", "n.csv"),
                           ("toy_edges.txt", "e.txt"),
                           ("toy_splits.json", "s.json")):
            assert (FIXTURES / orig).read_bytes() == \
                (tmp_path / copy).read_bytes()

    def test_malformed_row(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,0,1.0\n1,0\n")
        (tmp_path / "edges.txt").write_text("0 1\n")
        with pytest.raises(MalformedRowError):
            load_citation(nodes, tmp_path / "edges.txt")

    @pytest.mark.parametrize("row", ["1,0,abc", "1,0,", "1,0,0x1", "1,0",
                                     "1,0,1.0,2.0"])
    def test_bad_cell_or_row_length(self, tmp_path, row):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(f"id,label,f1\n0,0,1.0\n{row}\n")
        (tmp_path / "edges.txt").write_text("0 1\n")
        with pytest.raises(MalformedRowError, match="nodes.csv:3: "):
            load_citation(nodes, tmp_path / "edges.txt")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shuffled_ids_roundtrip_matches_per_cell_float(self, data):
        n = data.draw(st.integers(2, 8))
        d = data.draw(st.integers(1, 5))
        X = data.draw(arrays(float, (n, d), elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        order = data.draw(st.permutations(range(n)))
        ds = Dataset(X=X, labels=np.arange(n) % 3, A=None,
                     edges=[(i, i + 1, 1.0) for i in range(n - 1)])
        with tempfile.TemporaryDirectory() as tmp:
            nodes, edges = Path(tmp) / "nodes.csv", Path(tmp) / "edges.txt"
            save_citation(ds, nodes, edges)
            header, *rows = nodes.read_text().splitlines()
            nodes.write_text("\n".join([header] + [rows[i] for i in order])
                             + "\n")
            loaded = load_citation(nodes, edges)
        cells = {int(r.split(",")[0]): [float(v) for v in r.split(",")[2:]]
                 for r in rows}
        want = np.array([cells[i] for i in range(n)])
        assert loaded.X.tobytes() == want.tobytes() == X.tobytes()
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(f"id,label,f1,f2\n1,0,1.0,2.0\n0,1,0.5,{cell}\n")
        (tmp_path / "edges.txt").write_text("0 1\n")
        with pytest.raises(MalformedRowError, match="node 0 feature f2"):
            load_citation(nodes, tmp_path / "edges.txt")

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        ds = _load_nodes(tmp_path, "id,label,f1\n1,1,2.0\n  \t \n\n0,0,1.0\n")
        assert ds.X.tolist() == [[1.0], [2.0]]
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("row, reason", [
        ("1,0,abc", "could not convert string 'abc' to float64"),
        ("1,0", "expected 3 columns but 2 were found"),
        ("1,0,1.0,2.0", "expected 3 columns but 4 were found"),
    ])
    def test_error_line_counts_blank_lines(self, tmp_path, row, reason):
        with pytest.raises(MalformedRowError,
                           match=f"^nodes.csv:5: {reason}$"):
            _load_nodes(tmp_path, f"id,label,f1\n0,0,1.0\n\n   \n{row}\n")

    @pytest.mark.parametrize("row", ["1.5,0,1.0", "1,0.5,1.0", "1e0,0,1.0",
                                     "1,1e0,1.0"])
    def test_non_integer_id_or_label(self, tmp_path, row):
        with pytest.raises(MalformedRowError,
                           match="^nodes.csv:3: could not convert string "
                                 "'[^']*' to int64$"):
            _load_nodes(tmp_path, f"id,label,f1\n0,0,1.0\n{row}\n")

    @pytest.mark.parametrize("cell", ["1e400", "nan", "-inf"])
    def test_non_finite_feature_names_the_line(self, tmp_path, cell):
        with pytest.raises(MalformedRowError,
                           match="^nodes.csv:4: node 0 feature f2 is "
                                 "(inf|nan|-inf), not a finite number$"):
            _load_nodes(tmp_path,
                        f"id,label,f1,f2\n1,0,1.0,2.0\n\n0,1,0.5,{cell}\n")

    # float() and int() read these, numpy's parser does not: underscores,
    # non-ASCII digits, and a row that starts with '#' (no comment syntax)
    @pytest.mark.parametrize("row", ["1,0,1_0", "1_0,0,1.0", "1,0,\uff11",
                                     "\uff11,0,1.0", "1,\u0661,1.0",
                                     "#1,0,1.0"])
    def test_float_only_cells_and_comment_rows_refused(self, tmp_path, row):
        with pytest.raises(MalformedRowError,
                           match="^nodes.csv:3: could not convert string"):
            _load_nodes(tmp_path, f"id,label,f1\n0,0,1.0\n{row}\n")

    def test_accepted_cells(self, tmp_path):
        # blanks around a cell, a sign, leading zeros, a bare point and an
        # exponent in either case
        ds = _load_nodes(tmp_path, "id,label,f1,f2\n 1 , +0 , 1. , -.5e1 \n"
                                   "00,-1,1E2,0\n")
        assert ds.X.tolist() == [[100.0, 0.0], [1.0, -5.0]]
        assert ds.labels.tolist() == [-1, 0] and ds.labels.dtype == np.int64
        assert ds.X.flags.c_contiguous

    def test_header_only_reads_no_rows(self, tmp_path, recwarn):
        with pytest.raises(DanglingEdgeError):
            _load_nodes(tmp_path, "id,label,f1\n")
        assert not recwarn.list

    def test_duplicate_ids(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,0,1.0\n0,1,2.0\n")
        (tmp_path / "edges.txt").write_text("0 1\n")
        with pytest.raises(DuplicateIdError):
            load_citation(nodes, tmp_path / "edges.txt")

    def test_duplicate_ids_are_listed_in_ascending_order(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        rows = ["id,label,f1"] + [f"{i},0,1.0" for i in (7, 3, 0, 7, 5, 3, 1)]
        nodes.write_text("\n".join(rows) + "\n")
        (tmp_path / "edges.txt").write_text("0 1\n")
        with pytest.raises(DuplicateIdError,
                           match=r"^duplicate node ids: \[3, 7\]$"):
            load_citation(nodes, tmp_path / "edges.txt")

    def test_dangling_edge(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,0,1.0\n1,1,2.0\n")
        (tmp_path / "edges.txt").write_text("0 5\n")
        with pytest.raises(DanglingEdgeError):
            load_citation(nodes, tmp_path / "edges.txt")

    def test_overlapping_splits_rejected(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,0,1.0\n1,1,2.0\n2,0,0.5\n")
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        (tmp_path / "splits.json").write_text(
            '{"train": [0, 1], "val": [1], "test": [2]}')
        with pytest.raises(SplitError):
            load_citation(nodes, tmp_path / "edges.txt",
                          tmp_path / "splits.json")

    def test_table1_schema_shape(self):
        # the loader reports (classes, nodes, edges, features) so converted
        # public sets line up with the documented counts, e.g. Cora
        # (7, 2708, 5429, 1433); only the toy fixture ships here
        ds = load_citation(FIXTURES / "toy_nodes.csv",
                           FIXTURES / "toy_edges.txt")
        assert list(ds.summary()) == ["classes", "nodes", "edges", "features"]
