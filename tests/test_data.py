import itertools
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from isingreg import (InteractionMatrix, IsingModel, exact_summary,
                      gen_synthetic, interaction, load_citation, make_splits,
                      save_citation)
from isingreg.data import Dataset, _scan_nodes, validate_splits
from isingreg.errors import (DanglingEdgeError, DuplicateIdError,
                             MalformedRowError, SplitError)

from helpers import canonical_csr

FIXTURES = Path(__file__).parent / "fixtures"


class TestGenSynthetic:
    def test_deterministic(self):
        kw = dict(A=InteractionMatrix.block_partition(30, 3), d=3,
                  beta_star=0.4, seed=5)
        d1, d2 = gen_synthetic(**kw), gen_synthetic(**kw)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.labels, d2.labels)
        np.testing.assert_array_equal(d1.ground_truth["theta"],
                                      d2.ground_truth["theta"])

    def test_beta_zero_gives_logistic_marginals(self):
        n = 2000
        ds = gen_synthetic(InteractionMatrix.curie_weiss(n), d=2,
                           theta_star=np.array([0.8, -0.3]), beta_star=0.0,
                           seed=3)
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
            gen_synthetic(A, d=1, theta_star=theta, beta_star=0.4,
                          features=X, seed=s).labels
            for s in range(3000)
        ])
        emp = draws.mean(axis=0)
        se = np.sqrt(1 - marg ** 2) / np.sqrt(3000)
        assert np.all(np.abs(emp - marg) <= 3.5 * se + 0.01)

    def test_clipping_counter_and_abort(self):
        n = 50
        clean = np.full((n, 1), 3.0)
        ds = gen_synthetic(InteractionMatrix.curie_weiss(n), d=1,
                           theta_star=np.array([1.0]), features=clean,
                           seed=0)
        assert ds.ground_truth["clipped"] == 0

        spread = np.linspace(2.0, 5.2, n)[:, None]  # 3 entries above 5.0
        with pytest.warns(UserWarning):
            ds2 = gen_synthetic(InteractionMatrix.curie_weiss(n), d=1,
                                theta_star=np.array([1.0]), features=spread,
                                seed=0)
        assert ds2.ground_truth["clipped"] == int(np.sum(spread > 5.0))

        with pytest.raises(ValueError, match="clipped"):
            gen_synthetic(InteractionMatrix.curie_weiss(n), d=1,
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
        # CSR stores no zeros, so -0.0 reads back as 0.0 (adding 0.0 maps
        # -0.0 to 0.0 and leaves every other value as it is)
        assert canonical_csr(loaded.X).tobytes() == (want + 0.0).tobytes() \
            == (X + 0.0).tobytes()
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
        assert canonical_csr(ds.X).tolist() == [[1.0], [2.0]]
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
        assert canonical_csr(ds.X).tolist() == [[100.0, 0.0], [1.0, -5.0]]
        assert ds.labels.tolist() == [-1, 0] and ds.labels.dtype == np.int64

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

    @pytest.mark.parametrize("doc, message", [
        ('[[0, 1], [2]]', "^the splits file is not a JSON object of splits$"),
        ('{"train": [0, 1], "test": "2"}',
         "^split 'test' is not an array of integer node ids$"),
        ('{"train": [0, 1.5], "test": [2]}',
         "^split 'train' is not an array of integer node ids$"),
        ('{"train": [0, 1], "test": [true]}',
         "^split 'test' is not an array of integer node ids$"),
        ('{"train": [0, 1], "test": [99999999999999999999]}',
         "^split 'test' references nodes outside 0..2$"),
    ], ids=["list", "string", "float", "bool", "beyond_int64"])
    def test_splits_must_be_integer_arrays(self, tmp_path, doc, message):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,0,1.0\n1,1,2.0\n2,0,0.5\n")
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        (tmp_path / "splits.json").write_text(doc)
        with pytest.raises(SplitError, match=message):
            load_citation(nodes, tmp_path / "edges.txt",
                          tmp_path / "splits.json")

    def test_repeated_index_in_one_split_rejected(self):
        with pytest.raises(SplitError, match="^split 'train' repeats a node$"):
            validate_splits({"train": [0, 0, 1], "test": [3]}, 6)
        validate_splits({"train": [0, 2, 1], "test": [3]}, 6)

    def test_table1_schema_shape(self):
        # the loader reports (classes, nodes, edges, features) so converted
        # public sets line up with the documented counts, e.g. Cora
        # (7, 2708, 5429, 1433); only the toy fixture ships here
        ds = load_citation(FIXTURES / "toy_nodes.csv",
                           FIXTURES / "toy_edges.txt")
        assert list(ds.summary()) == ["classes", "nodes", "edges", "features"]


# the spelling the byte scan reads: -?\d+(\.\d+)? of at most 18 digits
# besides up to four zeros before the first nonzero digit, or a finite
# -?\d+(\.\d+)?e[-+]?\d+, as repr writes floats below 1e-4 and from 1e16
def _scanned(cell):
    if re.fullmatch(r"-?\d+(\.\d+)?e[-+]?\d+", cell):
        return np.isfinite(float(cell))
    if re.fullmatch(r"-?\d+(\.\d+)?", cell) is None:
        return False
    digits = cell.lstrip("-").replace(".", "")
    leading = len(digits) - len(digits.lstrip("0"))
    return len(digits) <= 18 + (leading if leading <= 4 else 0)


def _with_point(digits, at, sign):
    return sign + (digits if at == 0 else f"{digits[:at]}.{digits[at:]}")


_BOUNDARY = st.builds(
    _with_point, st.sampled_from([str(2 ** 53 - 1), str(2 ** 53),
                                  str(2 ** 53 + 1)]),
    st.integers(0, 15), st.sampled_from(["", "-"]))
_SCANNABLE_CELLS = st.one_of(
    st.sampled_from(["0", "0", "0", "1", "-0", "00", "0.0", "-0.0", "007.50"]),
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,5})?", fullmatch=True),
    _BOUNDARY,
    # 16 and 17 significant digits
    st.from_regex(r"-?(0\.[0-9]{16,17}|[1-9][0-9]{15,16}(\.[0-9])?)",
                  fullmatch=True),
    # repr's spelling of a float, often with a mantissa above 2**53, more
    # than 18 digits or an exponent, and leading zeros around the cap
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?0\.0{0,5}[1-9][0-9]{14,18}", fullmatch=True))
_FEATURE_CELLS = st.one_of(
    _SCANNABLE_CELLS,
    st.sampled_from(["+1", "1e3", "1E-2", " 1", "2 ", "\t2.5", ".5", "5.",
                     "0.1234567890123456789"]))


def _reference_parse(nodes, edges):
    """X, labels and A of a nodes and an edge file by ``load_rows`` alone,
    as every file was read before the byte scan."""
    with nodes.open() as fh:
        cols = fh.readline().strip().split(",")
        row = np.dtype([("id", np.int64), ("label", np.int64),
                        ("x", np.float64, (len(cols) - 2,))])
        table, _ = interaction.load_rows(fh, 2, "", str.strip, dtype=row,
                                         delimiter=",", comments=None)
    with edges.open() as fh:
        rows, _ = interaction.load_rows(fh, 1, "", interaction._edge_row,
                                        comments=None,
                                        dtype=interaction._EDGE_CELLS)
    order = np.argsort(table["id"])
    A = interaction.from_weighted_edges(
        np.column_stack([rows["i"], rows["j"], rows["w"]]), len(table))
    return table["x"][order], table["label"][order], A


def _refuse_load_rows(*args, **kwargs):
    raise AssertionError("the file left the fast path")


class TestScannedNodes:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bit_identical_to_load_rows(self, data):
        n = data.draw(st.integers(2, 6))
        d = data.draw(st.integers(0, 4))
        ids = data.draw(st.permutations(range(n)))
        rows = []
        # a plain file has no spelling the scan refuses but for too many
        # digits, so that one such cell decides where the file goes
        plain = data.draw(st.booleans())
        for i in ids:
            head = [data.draw(st.sampled_from([str(i), f"00{i}", f"+{i}"])),
                    data.draw(st.sampled_from(["0", "1", "-1", "12", "+2"]))]
            if plain:
                head = [head[0].lstrip("+"), head[1].lstrip("+")]
            cells = _SCANNABLE_CELLS if plain else _FEATURE_CELLS
            rows.append(head + [data.draw(cells) for _ in range(d)])
        lines = [",".join(["id", "label"] + [f"f{k + 1}" for k in range(d)])]
        lines += [",".join(r) for r in rows]
        blank = None if plain else data.draw(
            st.sampled_from([None, "", "  \t"]))
        if blank is not None:
            lines.insert(data.draw(st.integers(2, n)), blank)
        end = "\n" if plain else data.draw(st.sampled_from(["\n", "\r\n"]))
        text = end.join(lines) + (end if plain else data.draw(
            st.sampled_from([end, ""])))
        scanned = (blank is None and end == "\n" and text.endswith(end)
                   and all(_scanned(c) for r in rows for c in r))
        # small chunks put chunk ends inside rows and rows across chunks
        chunk = data.draw(st.sampled_from([1 << 18, 1, 5, 16, 64]))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch("isingreg.data.SCAN_CHUNK", chunk):
            nodes, edges = Path(tmp) / "nodes.csv", Path(tmp) / "edges.txt"
            nodes.write_bytes(text.encode())
            edges.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
            assert (_scan_nodes(nodes.read_bytes()) is not None) == scanned
            X, labels, A = _reference_parse(nodes, edges)
            ds = load_citation(nodes, edges)
        # CSR stores no zeros, so -0.0 reads as 0.0
        assert ds.X.shape == X.shape
        assert canonical_csr(ds.X).tobytes() == (X + 0.0).tobytes()
        assert ds.labels.dtype == labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.A.dense().tobytes() == A.dense().tobytes()

    @pytest.mark.parametrize("text", [
        "id,label,f1\n",  # header only
        "id,label,f1\n0,0,1.0",  # no trailing newline
        "id,label,f1\r\n0,0,1.0\r\n",
        "id,label,f1\n0,0,1.0\n\n",
        "id,label,f1\n0,0,1.5\r\n",
        "id,label,f1\n0,0,1 \n",
        "id,label,f1\n0,0,1+\n",
        "id,label,f1\n0,0,\n",
        "id,label,f1\n0,0,1.0,\n",
        "id,label,f1\n0,0\n",
        "id,label,f1\n0,0,1.\n",
        "id,label,f1\n0,0,-.5\n",
        "id,label,f1\n0,0,1.2.3\n",
        "id,label,f1\n0,0,1-2\n",
        "id,label,f1\n0,0,-\n",
        "id,label,f1\n0,0.0,1\n",
        "id,label,f1\n0,0,inf\n",
        "id,label,f1\n0,0,0.00000000000000000001\n",
        "id,label,f1\n0,0,1234567890123456789\n",
        "id,label,f1\n0,0,-0.00001234567890123456\n",
        "id,label,f1\n0,0,0.0001234567890123456789\n",
        "id,label,f1\n0,0,1e\n",
        "id,label,f1\n0,0,e5\n",
        "id,label,f1\n0,0,1e+\n",
        "id,label,f1\n0,0,1+5\n",
        "id,label,f1\n0,0,1e5e5\n",
        "id,label,f1\n0,0,1e400\n",
        "id,label,f1\n1e0,0,1\n",
        "id,label,f1\n0,0,1\n1,0,1,0\n",
        "id,lab\rel,f1\n0,0,1\n",
        "nodes,label,f1\n0,0,1\n",
    ])
    def test_other_spellings_fall_back(self, text):
        assert _scan_nodes(text.encode()) is None

    def test_scanned_spellings(self):
        # mantissas above 2**53 (2**53 + 1 among them), up to four leading
        # zeros past the 18-digit cap and exponents are read by float()
        cells = ["-0", "007", "0.0000", "-12.5", "9007199254740992",
                 "9.007199254740992", "0.9007199254740992",
                 "9007199254740993", "-9007199254.740993",
                 "-0.12345678901234567", "0.00012345678901234567",
                 "-0.0012345678901234567", "123456789012345678",
                 "0000123456789012345678", "1e-05", "-1.5099831293121058e-05",
                 "1e+16", "2.5e300", "1e-400"]
        text = "id,label," + ",".join(f"f{k}" for k in range(len(cells)))
        ids, labels, X = _scan_nodes(
            f"{text}\n0,-3,{','.join(cells)}\n".encode())[1:4]
        assert ids.tolist() == [0] and labels.tolist() == [-3]
        want = np.array([[float(c) for c in cells]])
        # "-0", "0.0000" and "1e-400" are zeros, which CSR does not store
        assert canonical_csr(X).tobytes() == (want + 0.0).tobytes()
        assert X.nnz == len(cells) - 3

    def test_fixtures_take_the_fast_path(self, tmp_path):
        # a Cora-like file of 0/1 cells and a Pubmed-like file of sparse
        # four-digit decimals, as perfbench/gendata.py writes them
        rng = np.random.default_rng(0)
        n, d = 300, 40
        codes = rng.integers(1, 2000, size=(n, d)) * (rng.random((n, d)) < 0.1)
        binary = [",".join(map(str, r)) for r in (rng.random((n, d)) < 0.05)
                  .astype(int)]
        decimal = [",".join("0" if c == 0 else f"0.{c:04d}" for c in r)
                   for r in codes]
        header = "id,label," + ",".join(f"f{k + 1}" for k in range(d)) + "\n"
        (tmp_path / "edges.txt").write_text(
            "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        paths = [(FIXTURES / "toy_nodes.csv", FIXTURES / "toy_edges.txt")]
        # repr-spelled Gaussian features, as save_citation writes them
        synthetic = gen_synthetic(InteractionMatrix.block_partition(n, 4),
                                  d, seed=3)
        synthetic.edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        save_citation(synthetic, tmp_path / "synthetic.csv",
                      tmp_path / "synthetic.txt")
        paths.append((tmp_path / "synthetic.csv", tmp_path / "synthetic.txt"))
        for name, cells in (("binary.csv", binary), ("decimal.csv", decimal)):
            (tmp_path / name).write_text(header + "".join(
                f"{i},{i % 3},{row}\n" for i, row in enumerate(cells)))
            paths.append((tmp_path / name, tmp_path / "edges.txt"))
        for (nodes, edges), chunk in itertools.product(paths, (1 << 18, 999)):
            X, labels, A = _reference_parse(nodes, edges)
            with mock.patch.object(interaction, "load_rows",
                                   _refuse_load_rows), \
                    mock.patch("isingreg.data.SCAN_CHUNK", chunk):
                ds = load_citation(nodes, edges)
            assert canonical_csr(ds.X).tobytes() == (X + 0.0).tobytes()
            np.testing.assert_array_equal(ds.labels, labels)
            assert ds.A.dense().tobytes() == A.dense().tobytes()
