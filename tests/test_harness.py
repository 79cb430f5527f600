import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from isingreg import (ExperimentTable, emit, harness, lower_bound_demo,
                      rate_experiment)
from isingreg.harness import (CSV_COLUMNS, accuracy_benchmark,
                              curie_weiss_experiment, loglog_slope,
                              planted_potts_dataset,
                              solve_mean_field_fixpoint)


class TestExperimentTable:
    def make(self):
        t = ExperimentTable()
        t.add("exp", {"x": 1.0, "k": "a"}, 0, 7, "err", 0.5)
        t.add("exp", {"x": 2.0, "k": "a"}, 0, 8, "err", 0.25)
        t.add("exp", {"x": 1.0, "k": "a"}, 1, 9, "err", 0.75)
        return t

    def test_csv_roundtrip(self):
        t = self.make()
        text = t.to_csv()
        t2 = ExperimentTable.from_csv(text)
        assert t2.to_csv() == text

    def test_deterministic_ordering(self):
        t1 = self.make()
        t2 = ExperimentTable()
        for row in reversed(self.make().rows):
            t2.rows.append(row)
        assert t1.to_csv() == t2.to_csv()

    def test_values_filter(self):
        t = self.make()
        t.add("exp", {"x": 1.0, "k": "a"}, 0, 7, "other", 9.0)
        vals = t.values("err")
        assert [v for _, v in vals] == [0.5, 0.75, 0.25]
        assert vals[0][0] == {"x": 1.0, "k": "a"}

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("experiment,config\n", 1),
        (",".join(CSV_COLUMNS) + "\nexp,{},0,7,err\n", 2),
        (",".join(CSV_COLUMNS) + "\nexp,{},0,7,err,0.5\nexp,{},x,7,err,1\n",
         3),
        (",".join(CSV_COLUMNS) + '\nexp,"{bad",0,7,err,0.5\n', 2),
    ], ids=["empty", "bad_header", "short_row", "bad_trial", "bad_config"])
    def test_from_csv_names_the_bad_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            ExperimentTable.from_csv(text)

    def test_empty_emit_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(ExperimentTable(), tmp_path)

    @pytest.mark.parametrize("formats", [("pdf",), ("csv", "pdf"), ("",)])
    def test_emit_refuses_unknown_formats(self, tmp_path, formats):
        with pytest.raises(ValueError, match="unknown emit formats"):
            emit(self.make(), tmp_path / "out", formats=formats)
        assert not (tmp_path / "out").exists()

    def test_emit_csv_and_svg(self, tmp_path):
        t = self.make()
        written = emit(t, tmp_path, stem="demo")
        names = {p.name for p in written}
        assert "demo.csv" in names and "demo_err.svg" in names
        # structural check: one polyline per series
        tree = ET.parse(tmp_path / "demo_err.svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = tree.getroot().findall(f".//{ns}polyline")
        assert len(polylines) == 1
        texts = [el.text for el in tree.getroot().findall(f".//{ns}text")]
        assert any("err" in t for t in texts)  # axis label

    def test_loglog_slope_two_point_closed_form(self):
        xs, ys = [2.0, 8.0], [1.0, 0.25]
        want = (np.log(0.25) - np.log(1.0)) / (np.log(8.0) - np.log(2.0))
        assert loglog_slope(xs, ys) == pytest.approx(want, abs=1e-12)


class TestRateExperiment:
    def test_single_point_single_trial_rows(self):
        t = rate_experiment("n_sweep_random_features", [200], 1, seed=0)
        per_trial = [r for r in t.rows if r["trial"] == 0]
        metrics = {r["metric"] for r in per_trial}
        assert metrics == {"theta_sq_err", "beta_sq_err", "field_mse",
                           "kappa", "frob_sq"}
        assert len(per_trial) == len(metrics)

    def test_rows_carry_rerun_config(self):
        t = rate_experiment("frobenius_sweep", [4], 2, seed=3, n=64, d=3)
        row = [r for r in t.rows if r["trial"] == 1][0]
        cfg = json.loads(row["config"])
        assert cfg["n"] == 64 and cfg["d"] == 3 and cfg["x"] == 4.0
        assert row["seed"] == 3 + 1000 * 0 + 1

    def test_reproducible_bytes(self):
        a = rate_experiment("dimension_sweep", [2, 4], 2, seed=5, n=64).to_csv()
        b = rate_experiment("dimension_sweep", [2, 4], 2, seed=5, n=64).to_csv()
        assert a == b

    def test_sparse_sweep_runs(self):
        t = rate_experiment("sparse_sweep", [0.5, 1.5], 2, seed=1, n=96, d=16)
        errs = [v for c, v in t.values("theta_sq_err")]
        assert len(errs) == 4 and all(np.isfinite(errs))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rate_experiment("frobenius_sweep", [], 3)

    @pytest.mark.parametrize("kind, overrides, match", [
        ("frobenius_sweep", {"nn": 64}, "no settings \\['nn'\\]"),
        ("dimension_sweep", {"n": 64, "d": 3}, "no settings \\['d'\\]"),
        ("no_such_sweep", {}, "unknown sweep kind"),
    ], ids=["nn", "d", "kind"])
    def test_unknown_kind_or_setting_rejected_before_any_draw(
            self, monkeypatch, kind, overrides, match):
        def never(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(harness, "gen_synthetic", never)
        with pytest.raises(ValueError, match=match):
            rate_experiment(kind, [4], 1, **overrides)

    # d = int(x) = 0 would scale theta by 1/||theta|| = 1/0 in the draw
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [[0], [4, 0.5]])
    def test_dimension_sweep_without_features_rejected_before_any_draw(
            self, monkeypatch, grid):
        def never(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(harness, "gen_synthetic", never)
        with pytest.raises(ValueError, match="no feature columns"):
            rate_experiment("dimension_sweep", grid, 1)


class TestLowerBoundDemo:
    def test_fixpoint_value(self):
        a = solve_mean_field_fixpoint()
        assert a == pytest.approx(0.8952, abs=1e-4)
        assert np.tanh(1 + a / 2) == pytest.approx(a, abs=1e-10)

    def test_psi_identity_and_pinsker(self):
        rep = lower_bound_demo(12, 3, c0=0.1)
        assert rep["psi_identity"] == pytest.approx(3.0, abs=1e-9)
        assert rep["psi_zeta"] == pytest.approx(0.01, rel=1e-9)
        assert rep["tv"] <= np.sqrt(rep["kl_forward"] / 2.0) + 1e-12
        assert rep["pinsker_ok"]

    def test_lecam_floor_approaches_half(self):
        floors = [lower_bound_demo(8, 2, c0=c)["lecam_floor"]
                  for c in (0.3, 0.1, 0.01)]
        assert floors[0] < floors[1] < floors[2] <= 0.5
        assert floors[2] > 0.499

    def test_cap(self):
        with pytest.raises(ValueError):
            lower_bound_demo(18, 3)


class TestCurieWeissExperiment:
    def test_residual_column_and_alpha_ordering(self):
        t = curie_weiss_experiment([0.5, 0.95], 400, 8, seed=2)
        res = {c["x"]: v for c, v in t.values("residual")}
        assert res[0.5] == pytest.approx(np.sqrt(4 * 400 * 0.25), abs=1e-9)
        assert res[0.95] == pytest.approx(np.sqrt(4 * 400 * 0.95 * 0.05),
                                          abs=1e-9)
        means = {c["x"]: v for c, v in t.values("mean_theta_abs_err")}
        assert means[0.5] < means[0.95]

    def test_alpha_symmetry(self):
        t = curie_weiss_experiment([0.3, 0.7], 300, 6, seed=4)
        res = {c["x"]: v for c, v in t.values("residual")}
        assert res[0.3] == pytest.approx(res[0.7], abs=1e-12)


class TestBenchmark:
    def test_planted_dataset_structure(self):
        ds = planted_potts_dataset(n=100, K=3, seed=1)
        assert ds.n == 100
        assert set(np.unique(ds.labels)) <= {0, 1, 2}
        merged = np.concatenate([ds.splits[k] for k in ds.splits])
        assert sorted(merged) == list(range(100))
        assert ds.A.infinity == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_edges_match_the_pair_loop(self, seed):
        n, K, p_in, p_out = 90, 3, 0.10, 0.006
        ds = planted_potts_dataset(n=n, K=K, seed=seed)
        rng = np.random.default_rng(seed)
        prototypes = rng.integers(0, K, size=n)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                p = p_in if prototypes[i] == prototypes[j] else p_out
                if rng.random() < p:
                    edges.append((i, j, 1.0))
        assert ds.edges.dtype == float
        np.testing.assert_array_equal(ds.edges, edges)
        # the features are the generator's next draws
        X = rng.standard_normal((n, K))
        informative = rng.random(n) < 0.5
        X[informative, prototypes[informative] % K] += 2.0
        assert ds.X.tobytes() == X.tobytes()

    def test_benchmark_schema_and_determinism(self):
        ds = planted_potts_dataset(n=80, K=3, seed=2)
        t1 = accuracy_benchmark(ds, seeds=[0, 1])
        t2 = accuracy_benchmark(ds, seeds=[0, 1])
        assert t1.to_csv() == t2.to_csv()
        metrics = t1.metrics()
        for want in ("acc_mple0", "acc_mpleb", "acc_mple0_mean",
                     "acc_mple0_std", "acc_mpleb_mean", "acc_mpleb_std"):
            assert want in metrics

    def test_missing_splits_rejected(self):
        ds = planted_potts_dataset(n=40, K=2, seed=3)
        ds.splits = {}
        with pytest.raises(ValueError):
            accuracy_benchmark(ds, seeds=[0])
