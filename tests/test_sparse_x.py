"""File-backed X is CSR from the reader to every fit: both readers build the
same canonical matrix, and every objective, pullback, fit and prediction
on it agrees with the same computation on the dense X."""

from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from isingreg import (FunctionClassModel, PLProblem, PottsProblem, fit,
                      fit_potts, load_citation, neg_log_pl,
                      potts_objective_grad, predict_class)
from isingreg.data import SparseFeatures, _scan_nodes
from isingreg.mple import _fit_pgd

from helpers import canonical_csr

FIXTURES = Path(__file__).parent / "fixtures"


def _write(tmp_path, text, n):
    nodes = tmp_path / "nodes.csv"
    nodes.write_bytes(text.encode())
    (tmp_path / "edges.txt").write_text(
        "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    return nodes, tmp_path / "edges.txt"


# rows 1 and 3 have no nonzero feature, and row 3 no nonzero cell at all
_ROWS = ["1,2,0.5,0,-0,3", "2,1,0,0.0,0,-0.000", "4,1,0,1e-05,7,0",
         "0,0,0,0,0,0", "3,-1,-2.25,0,0,12345678901234567"]


@pytest.mark.parametrize("chunk", [1 << 18, 1, 12])
def test_both_readers_give_the_same_canonical_csr(tmp_path, chunk):
    text = "id,label,f1,f2,f3,f4\n" + "\n".join(_ROWS) + "\n"
    nodes, edges = _write(tmp_path, text, 5)
    crlf = tmp_path / "crlf.csv"  # \r\n line ends take the row parser
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    with mock.patch("isingreg.data.SCAN_CHUNK", chunk):
        assert _scan_nodes(nodes.read_bytes()) is not None
        scanned = load_citation(nodes, edges)
    assert _scan_nodes(crlf.read_bytes()) is None
    parsed = load_citation(crlf, edges)
    want = np.array([[0, 0, 0, 0], [0.5, 0, 0, 3], [0, 0, 0, 0],
                     [-2.25, 0, 0, 12345678901234567], [0, 1e-05, 7, 0]])
    for ds in (scanned, parsed):
        canonical_csr(ds.X)
        assert ds.X.toarray().tobytes() == want.tobytes()
        assert np.diff(ds.X.indptr).tolist() == [0, 2, 0, 2, 2]
        assert ds.labels.tolist() == [0, 2, 1, -1, 1]
    for name in ("data", "indices", "indptr"):
        assert getattr(scanned.X, name).tobytes() == \
            getattr(parsed.X, name).tobytes()


def test_no_feature_columns(tmp_path):
    nodes, edges = _write(tmp_path, "id,label\n1,0\n0,1\n", 2)
    ds = load_citation(nodes, edges)
    canonical_csr(ds.X)
    assert ds.X.shape == (2, 0) and ds.X.nnz == 0
    assert ds.labels.tolist() == [1, 0]


def test_row_indexing_and_copy_keep_nbytes():
    X = load_citation(FIXTURES / "toy_nodes.csv",
                      FIXTURES / "toy_edges.txt").X
    for part in (X[[3, 1]], X[2:5], X.copy(), X[:, :2]):
        canonical_csr(part)
    assert X.T is X.T  # built once, shared by every pullback


def test_potts_problem_on_a_loaded_x_exposes_nbytes():
    ds = load_citation(FIXTURES / "toy_nodes.csv", FIXTURES / "toy_edges.txt")
    problem = PottsProblem(ds.A, ds.X, ds.labels,
                           FunctionClassModel.linear(4, n_outputs=3),
                           sites=[0, 2, 5], known=[0, 2, 5])
    assert problem.X is ds.X
    assert problem.X.nbytes == ds.X.data.nbytes + ds.X.indices.nbytes \
        + ds.X.indptr.nbytes
    assert isinstance(problem._site_X, SparseFeatures)
    assert problem._site_X.shape == (3, 4)


def _random_csr(rng, n, d, density=0.2):
    dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    return SparseFeatures(dense), dense


def _models(d, k):
    rng = np.random.default_rng(1)
    shape = (d,) if k == 1 else (d, k)
    theta = rng.standard_normal(shape)
    return [FunctionClassModel.linear(d, k, theta=theta),
            FunctionClassModel.linear(d, k, theta=theta, l1_radius=2.0),
            FunctionClassModel.mlp2(d, k, width=6, seed=2)]


@pytest.mark.parametrize("k", [1, 3])
def test_models_agree_on_csr_and_dense(k):
    rng = np.random.default_rng(0)
    X, dense = _random_csr(rng, 40, 12)
    for model in _models(12, k):
        out = model.eval(X)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, model.eval(dense), rtol=1e-12,
                                   atol=0)
        upstream = rng.standard_normal(out.shape)
        got, want = model.param_grad(X, upstream), \
            model.param_grad(dense, upstream)
        for key in want:
            assert isinstance(got[key], np.ndarray)
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12,
                                       atol=1e-14)


def test_objectives_agree_on_csr_and_dense():
    rng = np.random.default_rng(3)
    ds = load_citation(FIXTURES / "toy_nodes.csv", FIXTURES / "toy_edges.txt")
    dense = ds.X.toarray()
    sigma = np.where(ds.labels == 0, 1.0, -1.0)
    for model in _models(4, 1):
        theta = model.flatten() * 0.5
        got = neg_log_pl(PLProblem(ds.A, ds.X, sigma, model), theta, 0.3)
        want = neg_log_pl(PLProblem(ds.A, dense, sigma, model), theta, 0.3)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12)
    for model in _models(4, 3):
        theta = model.flatten()
        theta = theta + 0.1 * rng.standard_normal(theta.size)
        problems = [PottsProblem(ds.A, X, ds.labels, model,
                                 sites=[1, 4, 6, 8], known=[0, 1, 4, 6, 8])
                    for X in (ds.X, dense)]
        got, want = (potts_objective_grad(p, theta, -0.4) for p in problems)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12)


def _pubmed_like(tmp_path, n=300, d=40, seed=0):
    """Sparse four-digit decimal features and +/-1 labels, as
    perfbench/gendata.py writes Pubmed-shaped files."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(1, 2000, size=(n, d)) * (rng.random((n, d)) < 0.1)
    labels = np.where(codes[:, :5].sum(1) > codes[:, 5:10].sum(1), 1, -1)
    rows = [f"{i},{y}," + ",".join("0" if c == 0 else f"0.{c:04d}"
                                   for c in row)
            for i, (y, row) in enumerate(zip(labels, codes))]
    header = "id,label," + ",".join(f"f{k + 1}" for k in range(d))
    rng_edges = rng.integers(0, n, size=(2 * n, 2))
    pairs = {(min(i, j), max(i, j)) for i, j in rng_edges.tolist() if i != j}
    (tmp_path / "nodes.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
    (tmp_path / "edges.txt").write_text(
        "".join(f"{i} {j}\n" for i, j in sorted(pairs)))
    return load_citation(tmp_path / "nodes.csv", tmp_path / "edges.txt")


def _assert_same_fit(a, b):
    assert a.stop_reason == b.stop_reason
    assert a.iterations == b.iterations
    for key in a.theta_hat:
        np.testing.assert_allclose(a.theta_hat[key], b.theta_hat[key],
                                   rtol=0, atol=1e-9)
    assert abs(a.beta_hat - b.beta_hat) <= 1e-9
    np.testing.assert_allclose(a.objective_value, b.objective_value,
                               rtol=1e-12)


@pytest.mark.parametrize("source", ["toy", "pubmed"])
def test_fits_agree_on_csr_and_dense(tmp_path, source):
    if source == "toy":
        ds = load_citation(FIXTURES / "toy_nodes.csv",
                           FIXTURES / "toy_edges.txt")
        sigma = np.where(ds.labels == 0, 1.0, -1.0)
    else:
        ds = _pubmed_like(tmp_path)
        sigma = ds.labels.astype(float)
    d = ds.X.shape[1]
    model = FunctionClassModel.linear(d, l2_radius=2.0)
    sparse_problem = PLProblem(ds.A, ds.X, sigma, model)
    dense_problem = replace(sparse_problem, X=ds.X.toarray())
    # projected Newton (d + 1 <= 128) stops at tol
    newton = [fit(problem, tol=1e-10)
              for problem in (sparse_problem, dense_problem)]
    assert newton[0].converged
    _assert_same_fit(*newton)
    # projected gradient descent runs a fixed number of iterations: where the
    # objective is flat to rounding, a stop at the rounding floor may come
    # one step sooner or later on either X
    _assert_same_fit(_fit_pgd(sparse_problem, neg_log_pl, None, 15, 1e-12),
                     _fit_pgd(dense_problem, neg_log_pl, None, 15, 1e-12))


def test_potts_fit_and_predictions_agree_on_csr_and_dense():
    ds = load_citation(FIXTURES / "toy_nodes.csv", FIXTURES / "toy_edges.txt",
                       FIXTURES / "toy_splits.json")
    dense = ds.X.toarray()
    train, test = ds.splits["train"], ds.splits["test"]
    model = FunctionClassModel.linear(4, n_outputs=3, l2_radius=3.0)
    fits = [fit_potts(PottsProblem(ds.A, X, ds.labels, model,
                                   sites=train, known=train), max_iters=15,
                      tol=1e-12) for X in (ds.X, dense)]
    _assert_same_fit(*fits)
    res = fits[0]
    preds = [predict_class(ds.A, X, res.model, res.beta_hat, train,
                           ds.labels[train], test) for X in (ds.X, dense)]
    np.testing.assert_array_equal(*preds)


def test_predictions_read_only_the_target_rows():
    ds = load_citation(FIXTURES / "toy_nodes.csv", FIXTURES / "toy_edges.txt")
    seen = []
    model = FunctionClassModel.linear(4, n_outputs=3)
    evaluate = model.eval
    with mock.patch.object(model, "eval",
                           lambda X: seen.append(X.shape) or evaluate(X)):
        predict_class(ds.A, ds.X, model, 0.2, [0, 1], [0, 1], [4, 7])
    assert seen == [(2, 4)]
    assert sp.issparse(ds.X)
