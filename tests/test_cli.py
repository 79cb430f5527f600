import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isingreg
from isingreg import cli
from isingreg.cli import _parse_with_config, build_parser, main
from isingreg.data import make_splits
from isingreg.ising import serialize_spins

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args):
    return main([str(a) for a in args])


class TestDispatch:
    def test_sample_writes_csv(self, tmp_path):
        code = run_cli(["--seed", "3", "--out-dir", tmp_path, "sample",
                        "--n", "16", "--matrix", "block", "--block-r", "4",
                        "--count", "5", "--burn-in", "10"])
        assert code == 0
        rows = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        assert all(v in ("1", "-1") for v in rows[0].split(","))

    def test_sample_from_edge_file(self, tmp_path):
        edge_file = tmp_path / "graph.txt"
        edge_file.write_text("0 1 0.5\n1 2\n2 3 0.25\n")
        code = run_cli(["--seed", "1", "--out-dir", tmp_path, "sample",
                        "--n", "4", "--matrix", "edges",
                        "--edge-file", edge_file, "--count", "3",
                        "--burn-in", "5"])
        assert code == 0
        rows = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert len(rows) == 3 and len(rows[0].split(",")) == 4

    def test_sample_edges_builds_the_load_citation_matrix(self, tmp_path,
                                                          monkeypatch):
        seen = []
        real = cli.gibbs_sample

        def spy(model, *args, **kwargs):
            seen.append(model.A)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(cli, "gibbs_sample", spy)
        assert run_cli(["--out-dir", tmp_path, "sample", "--n", "10",
                        "--matrix", "edges",
                        "--edge-file", FIXTURES / "toy_edges.txt",
                        "--count", "1", "--burn-in", "1"]) == 0
        ds = isingreg.load_citation(FIXTURES / "toy_nodes.csv",
                                    FIXTURES / "toy_edges.txt")
        for part in ("indptr", "indices", "data"):
            assert getattr(seen[0]._csr, part).tobytes() == \
                getattr(ds.A._csr, part).tobytes()
        assert seen[0].infinity == 1.0

    def test_fit_on_fixture(self, tmp_path):
        code = run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--model", "linear", "--max-iters", "200"])
        assert code == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert abs(doc["beta_hat"]) <= 1.0
        assert doc["stop_reason"] in {"tol", "max_iters", "no_descent"}
        assert doc["converged"] == (doc["stop_reason"] == "tol")

    def test_fit_beta_frozen_flag(self, tmp_path):
        code = run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--beta-frozen", "0", "--model", "mlp",
                        "--width", "8", "--max-iters", "60"])
        assert code == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["beta_hat"] == 0.0

    def test_fit_mlp_moves_off_glorot_init(self, tmp_path):
        code = run_cli(["--seed", "4", "--out-dir", tmp_path, "fit",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--model", "mlp", "--width", "8",
                        "--max-iters", "60"])
        assert code == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert np.any(np.asarray(doc["theta_hat"]["W1"]) != 0)
        ds = isingreg.load_citation(FIXTURES / "toy_nodes.csv",
                                    FIXTURES / "toy_edges.txt")
        init = isingreg.FunctionClassModel.mlp2(4, n_outputs=3, width=8,
                                                seed=4)
        problem = isingreg.PottsProblem(ds.A, ds.X, ds.labels, init)
        at_init, _, _ = isingreg.potts_objective_grad(
            problem, init.flatten(), 0.0)
        assert doc["objective_value"] < at_init

    def test_diagnose_report_schema(self, tmp_path):
        code = run_cli(["--out-dir", tmp_path, "diagnose",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt"])
        assert code == 0
        doc = json.loads((tmp_path / "diagnose.json").read_text())
        assert {"norms", "kappa", "nodes", "features"} <= set(doc)
        assert doc["norms"]["infinity"] == pytest.approx(1.0)

    @pytest.mark.parametrize("n, d", [(530, 520), (40, 600)])
    def test_diagnose_more_than_512_features(self, tmp_path, n, d):
        # no dimension cap on kappa; the report at the origin is exact
        rng = np.random.default_rng(d)
        X = rng.integers(0, 2, size=(n, d))
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(
            "id,label," + ",".join(f"f{j}" for j in range(d)) + "\n"
            + "".join(f"{i},{i % 2}," + ",".join(map(str, row)) + "\n"
                      for i, row in enumerate(X.tolist())))
        (tmp_path / "edges.txt").write_text(
            "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        assert run_cli(["--out-dir", tmp_path, "diagnose", "--nodes", nodes,
                        "--edges", tmp_path / "edges.txt"]) == 0
        doc = json.loads((tmp_path / "diagnose.json").read_text())
        assert doc["features"] == d and doc["nodes"] == n
        if d > n:
            assert doc["kappa"] == 0.0
        else:
            assert doc["kappa"] == pytest.approx(
                np.linalg.eigvalsh(X.T @ X / n)[0], abs=1e-12)
        assert doc["c1_prime"] == 1.0 / n
        assert doc["c2_prime"] == pytest.approx(
            1.0 / doc["norms"]["frobenius"] ** 2, rel=1e-12)

    def test_lower_bound_demo(self, tmp_path):
        code = run_cli(["--out-dir", tmp_path, "lower-bound-demo",
                        "--n", "8", "--block-r", "2"])
        assert code == 0
        doc = json.loads((tmp_path / "lower_bound_demo.json").read_text())
        assert doc["a"] == pytest.approx(0.8952, abs=1e-4)
        assert doc["psi_identity"] == pytest.approx(2.0, abs=1e-9)

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "block_r": 2, "c0": 0.2}))
        code = run_cli(["--out-dir", tmp_path, "--config", cfg,
                        "lower-bound-demo", "--block-r", "4"])
        assert code == 0
        doc = json.loads((tmp_path / "lower_bound_demo.json").read_text())
        assert doc["n"] == 8 and doc["r"] == 4 and doc["c0"] == 0.2

    @pytest.mark.parametrize("argv", [
        ["--seed=3"], ["--seed", "3"], ["--se", "3"], ["--se=3"]])
    def test_explicit_flag_beats_config_in_every_spelling(self, tmp_path,
                                                          argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "block_r": 2}))
        args = _parse_with_config(build_parser(), argv + [
            "--config", str(cfg), "lower-bound-demo", "--block-r=4"])
        assert args.seed == 3 and args.block_r == 4

    def test_config_values_pass_type_and_choices(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "16", "beta": 1, "matrix": "block"}))
        args = _parse_with_config(build_parser(),
                                  ["--config", str(cfg), "sample"])
        assert args.n == 16 and type(args.n) is int
        assert args.beta == 1.0 and type(args.beta) is float
        assert args.matrix == "block"
        for bad in ({"n": "sixteen"}, {"n": 16.5}, {"matrix": "ring"},
                    {"n": True}, {"func": "x"}):
            cfg.write_text(json.dumps(bad))
            assert run_cli(["--out-dir", tmp_path, "--config", cfg,
                            "sample"]) == 2


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert run_cli(["--out-dir", tmp_path, "lower-bound-demo",
                        "--bogus", "1"]) == 2

    def test_bad_config_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run_cli(["--out-dir", tmp_path, "--config", cfg,
                        "lower-bound-demo"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nonsense_option": 1}')
        assert run_cli(["--out-dir", tmp_path, "--config", cfg,
                        "lower-bound-demo"]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", tmp_path / "nope.csv",
                        "--edges", tmp_path / "nope.txt"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_exit_code(self, tmp_path):
        # a frozen beta of 1e308 overflows the objective at the start
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,1,1.0\n1,-1,0.5\n2,1,-0.25\n")
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", nodes, "--edges", tmp_path / "edges.txt",
                        "--model", "linear", "--beta-frozen", "1e308",
                        "--max-iters", "5"]) == 3

    def test_non_finite_feature_is_config_error(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,1,1e400\n1,-1,0.5\n2,1,-0.25\n")
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", nodes, "--edges", tmp_path / "edges.txt",
                        "--model", "linear", "--max-iters", "5"]) == 2

    @pytest.mark.parametrize("nodes", ["binary", "toy"])
    @pytest.mark.parametrize("flags", [
        ["--beta-box", "-1"], ["--beta-box", "nan"], ["--l2", "-1"],
        ["--l2", "nan"], ["--l1", "nan"]])
    def test_bad_box_or_radius_is_config_error(self, tmp_path, nodes, flags):
        # refused before any fit: clipping to a negative box pins beta, and
        # a NaN box or radius makes the starting objective non-finite
        if nodes == "toy":
            paths = [FIXTURES / "toy_nodes.csv", FIXTURES / "toy_edges.txt"]
        else:
            paths = [tmp_path / "nodes.csv", tmp_path / "edges.txt"]
            paths[0].write_text("id,label,f1\n0,1,1.0\n1,-1,0.5\n2,1,-0.25\n")
            paths[1].write_text("0 1\n1 2\n")
        assert run_cli(["--out-dir", tmp_path, "fit", "--nodes", paths[0],
                        "--edges", paths[1], "--max-iters", "5",
                        *flags]) == 2
        assert not (tmp_path / "fit.json").exists()

    def test_infinite_box_means_no_box(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--beta-box", "inf", "--max-iters", "50"]) == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["beta_hat"] > 1.0

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_non_positive_max_iters_is_config_error(self, tmp_path, iters):
        # no iteration means no gradient norm: refuse rather than write
        # an infinite one into fit.json
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,1,1.0\n1,-1,0.5\n2,1,-0.25\n")
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", nodes, "--edges", tmp_path / "edges.txt",
                        "--model", "linear", "--max-iters", iters]) == 2
        assert not (tmp_path / "fit.json").exists()

    def test_sample_edges_without_edge_file(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "sample", "--n", "4",
                        "--matrix", "edges"]) == 2

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_edge_weight_is_config_error(self, tmp_path, capsys,
                                                    weight):
        edge_file = tmp_path / "graph.txt"
        edge_file.write_text(f"0 1\n1 2 {weight}\n")
        assert run_cli(["--out-dir", tmp_path, "sample", "--n", "3",
                        "--matrix", "edges", "--edge-file", edge_file,
                        "--count", "1", "--burn-in", "1"]) == 2
        assert "line 2: weight" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--nodes", FIXTURES / "toy_nodes.csv"],
        ["--edges", FIXTURES / "toy_edges.txt"],
        ["--splits", FIXTURES / "toy_splits.json"],
        ["--edges", FIXTURES / "toy_edges.txt",
         "--splits", FIXTURES / "toy_splits.json"]])
    def test_benchmark_needs_nodes_and_edges_together(self, tmp_path, capsys,
                                                      flags):
        assert run_cli(["--out-dir", tmp_path, "benchmark",
                        "--benchmark-seeds", "1", "--model-kind", "linear",
                        *flags]) == 2
        assert "--nodes and --edges" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    @pytest.mark.parametrize("formats", ["pdf", "csv,pdf", "csv,", ""])
    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_unknown_format_is_refused_at_parse_time(self, tmp_path,
                                                     monkeypatch, formats,
                                                     spelling):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli.harness, "rate_experiment", never)
        if spelling == "flag":
            argv = ["rate-experiment", "--formats", formats]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"formats": formats}))
            argv = ["--config", cfg, "rate-experiment"]
        assert run_cli(["--out-dir", tmp_path, *argv]) == 2

    def test_formats_parse_to_a_tuple(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"formats": "svg"}))
        for argv, want in ((["--config", str(cfg), "benchmark"], ("svg",)),
                           (["curie-weiss"], ("csv", "svg")),
                           (["emit", "--table", "t.csv", "--formats", "csv"],
                            ("csv",))):
            assert _parse_with_config(build_parser(), argv).formats == want

    def test_invalid_grid_value(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "rate-experiment",
                        "--kind", "frobenius_sweep", "--grid", "4,junk",
                        "--trials", "1"]) == 2

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("experiment,config,trial,seed,metric,value\nexp,{},0,7\n", 2),
        ("experiment,config,trial,seed,metric,value\nexp,3,0,7,err,0.5\n", 2),
    ], ids=["empty", "short_row", "config_not_object"])
    def test_bad_table_is_config_error(self, tmp_path, capsys, text, line):
        table = tmp_path / "t.csv"
        table.write_text(text)
        assert run_cli(["--out-dir", tmp_path / "out", "emit",
                        "--table", table]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: ")
        assert not list((tmp_path / "out").iterdir())

    def test_zero_benchmark_seeds_is_config_error(self, tmp_path, capsys):
        assert run_cli(["--out-dir", tmp_path, "benchmark", "--n", "30",
                        "--benchmark-seeds", "0"]) == 2
        assert "config error: seeds" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    @pytest.mark.parametrize("data", [
        [], ["--nodes", FIXTURES / "toy_nodes.csv",
             "--edges", FIXTURES / "toy_edges.txt"]], ids=["planted", "files"])
    def test_zero_benchmark_seeds_refused_before_the_data(
            self, tmp_path, capsys, monkeypatch, data):
        def never(*args, **kwargs):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(cli.harness, "planted_potts_dataset", never)
        monkeypatch.setattr(cli, "load_citation", never)
        assert run_cli(["--out-dir", tmp_path, "benchmark",
                        "--benchmark-seeds", "0", *data]) == 2
        assert "config error: seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--beta", "nan"], ["--matrix", "curie-weiss", "--beta", "inf"]],
        ids=["nan", "inf"])
    def test_non_finite_beta_is_config_error(self, tmp_path, capsys, argv):
        assert run_cli(["--out-dir", tmp_path, "sample", "--n", "8",
                        "--count", "3", *argv]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_nan_frozen_beta_is_config_error(self, tmp_path, capsys):
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--beta-frozen", "nan"]) == 2
        assert "frozen beta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("classes", ["0", "1", "-2"])
    def test_fewer_than_two_classes_is_config_error(self, tmp_path, capsys,
                                                    classes):
        assert run_cli(["--out-dir", tmp_path, "benchmark", "--n", "30",
                        "--benchmark-seeds", "1", "--classes", classes]) == 2
        assert f"got {classes}" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    def test_one_label_value_is_config_error(self, tmp_path, capsys):
        # every label 0 is a Potts fit with K = 1, refused before any fit
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label,f1\n0,0,1.0\n1,0,0.5\n2,0,-0.25\n")
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        assert run_cli(["--out-dir", tmp_path, "fit", "--nodes", nodes,
                        "--edges", tmp_path / "edges.txt"]) == 2
        assert "K = 1" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_l1_with_mlp_is_config_error(self, tmp_path, capsys, spelling):
        # the L1 radius belongs to the linear model; an MLP fit must not
        # drop it without a word
        argv = ["--out-dir", tmp_path, "fit", "--nodes",
                FIXTURES / "toy_nodes.csv", "--edges",
                FIXTURES / "toy_edges.txt", "--model", "mlp"]
        if spelling == "flag":
            argv += ["--l1", "0.001"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"l1": 0.001}')
            argv = ["--config", cfg, *argv]
        assert run_cli(argv) == 2
        assert "--l1" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_negative_burn_in_is_config_error(self, tmp_path, capsys):
        assert run_cli(["--out-dir", tmp_path, "sample", "--n", "4",
                        "--count", "1", "--burn-in", "-3"]) == 2
        assert "burn_in" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    # refused before the draw: uniform(-s, s) overflows when 2s is infinite
    @pytest.mark.parametrize("scale", ["inf", "nan", "1e308", "-0.5",
                                       "-inf"])
    def test_bad_field_scale_is_config_error(self, tmp_path, capsys, scale):
        assert run_cli(["--out-dir", tmp_path, "sample", "--n", "8",
                        "--count", "1", f"--field-scale={scale}"]) == 2
        err = capsys.readouterr().err
        assert "config error: --field-scale" in err and "Traceback" not in err
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("scale", ["0", "0.5", "8e307"])
    def test_finite_field_scale_draws_as_before(self, tmp_path, scale):
        assert run_cli(["--seed", "4", "--out-dir", tmp_path, "sample",
                        "--n", "8", "--count", "2", "--field-scale",
                        scale]) == 0
        rng = np.random.default_rng(4)
        h = rng.uniform(-float(scale), float(scale), size=8)
        model = isingreg.IsingModel(isingreg.InteractionMatrix.curie_weiss(8),
                                    h, 0.3)
        want = serialize_spins(
            isingreg.gibbs_sample(model, 2, burn_in=50, thin=5, seed=4))
        assert (tmp_path / "samples.csv").read_text() == want

    def test_diagnose_without_feature_columns_is_config_error(self, tmp_path,
                                                               capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,label\n0,1\n1,-1\n2,1\n")
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        assert run_cli(["--out-dir", tmp_path, "diagnose", "--nodes", nodes,
                        "--edges", tmp_path / "edges.txt"]) == 2
        assert "no feature columns" in capsys.readouterr().err
        assert not (tmp_path / "diagnose.json").exists()

    # refused before the draw, which would divide theta by ||theta|| = 0
    @pytest.mark.filterwarnings("error")
    def test_sweep_without_feature_columns_is_config_error(self, tmp_path,
                                                           capsys):
        assert run_cli(["--out-dir", tmp_path, "rate-experiment",
                        "--kind", "dimension_sweep", "--grid", "0",
                        "--trials", "1"]) == 2
        assert "no feature columns" in capsys.readouterr().err
        assert not (tmp_path / "dimension_sweep.csv").exists()

    @pytest.mark.parametrize("argv, csv", [
        (["rate-experiment", "--grid", "4,16"], "frobenius_sweep.csv"),
        (["curie-weiss", "--n", "40"], "curie_weiss.csv"),
    ])
    def test_zero_trials_is_config_error(self, tmp_path, capsys, argv, csv):
        assert run_cli(["--out-dir", tmp_path] + argv
                       + ["--trials", "0"]) == 2
        assert "config error: trials" in capsys.readouterr().err
        assert not (tmp_path / csv).exists()


    @pytest.mark.parametrize("nodes, edges, message", [
        ("id,label,f1\n1,0,0.5\n2,1,0.1\n3,0,-0.2\n", "0 1\n",
         "node ids must be exactly 0..n-1"),
        ("id,label,f1\n0,0,0.5\n1,1,0.1\n2,0,-0.2\n", "0 1 0\n1 2 0.0\n",
         "every edge weight is zero")], ids=["ids_from_one", "zero_weights"])
    def test_bad_citation_files_are_config_errors(self, tmp_path, capsys,
                                                  nodes, edges, message):
        (tmp_path / "nodes.csv").write_text(nodes)
        (tmp_path / "edges.txt").write_text(edges)
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", tmp_path / "nodes.csv",
                        "--edges", tmp_path / "edges.txt"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_benchmark_split_outside_the_nodes(self, tmp_path, capsys):
        splits = tmp_path / "splits.json"
        splits.write_text(json.dumps({"train": [0, 1, 2, 3, 4, 5],
                                      "val": [6, 7, 8], "test": [10]}))
        assert run_cli(["--out-dir", tmp_path, "benchmark",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--splits", splits, "--benchmark-seeds", "1",
                        "--model-kind", "linear"]) == 2
        assert "split 'test' references nodes outside 0..9" in \
            capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    def test_benchmark_split_repeating_a_node(self, tmp_path, capsys):
        splits = tmp_path / "splits.json"
        splits.write_text(json.dumps({"train": [0, 0, 1, 2, 4, 5],
                                      "val": [6, 7, 8], "test": [9]}))
        assert run_cli(["--out-dir", tmp_path, "benchmark",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--splits", splits, "--benchmark-seeds", "1",
                        "--model-kind", "linear"]) == 2
        assert "split 'train' repeats a node" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    def test_benchmark_splits_not_an_object(self, tmp_path, capsys):
        splits = tmp_path / "splits.json"
        splits.write_text(json.dumps([[0, 1, 2, 3, 4, 5], [6, 7, 8], [9]]))
        assert run_cli(["--out-dir", tmp_path, "benchmark",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--splits", splits, "--benchmark-seeds", "1",
                        "--model-kind", "linear"]) == 2
        assert "not a JSON object of splits" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    @pytest.mark.parametrize("splits, message", [
        ({"train": [], "val": [6, 7, 8], "test": [9]}, "split 'train' is empty"),
        ({"train": [0, 1, 2, 3, 4, 5], "val": [6, 7, 8], "test": []},
         "split 'test' is empty"),
        ({"train": [0, 1, 2, 3, 4, 5], "val": [6, 7, 8]},
         "splits have no 'test' split")],
        ids=["empty_train", "empty_test", "no_test"])
    def test_benchmark_needs_train_and_test_splits(self, tmp_path, capsys,
                                                   splits, message):
        path = tmp_path / "splits.json"
        path.write_text(json.dumps(splits))
        assert run_cli(["--out-dir", tmp_path, "benchmark",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--splits", path, "--benchmark-seeds", "1",
                        "--model-kind", "linear"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    def test_fit_classes_must_match_the_labels(self, tmp_path, capsys):
        # fit reads K from the labels, so --classes is not an option of it
        assert run_cli(["--out-dir", tmp_path, "fit",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--classes", "5"]) == 2
        assert "unrecognized arguments: --classes 5" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_splits_is_not_an_option_of(self, tmp_path, capsys, command):
        # both commands read every label, so a split file would be ignored
        assert run_cli(["--out-dir", tmp_path, command,
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--splits", FIXTURES / "toy_splits.json"]) == 2
        assert "unrecognized arguments: --splits" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))


class TestDeterminism:
    def test_sample_rerun_identical_csv(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(["--seed", "5", "--out-dir", tmp_path / sub,
                            "sample", "--n", "24", "--matrix", "block",
                            "--block-r", "6", "--count", "4",
                            "--burn-in", "20"]) == 0
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
            (tmp_path / "b" / "samples.csv").read_bytes()

    def test_benchmark_on_citation_files(self, tmp_path):
        code = run_cli(["--seed", "1", "--out-dir", tmp_path, "benchmark",
                        "--nodes", FIXTURES / "toy_nodes.csv",
                        "--edges", FIXTURES / "toy_edges.txt",
                        "--splits", FIXTURES / "toy_splits.json",
                        "--benchmark-seeds", "2", "--model-kind", "linear",
                        "--formats", "csv"])
        assert code == 0
        text = (tmp_path / "benchmark.csv").read_text()
        assert "acc_mpleb_mean" in text and "toy_nodes" in text

    def test_benchmark_draws_splits_without_a_splits_file(self, tmp_path):
        nodes, edges = FIXTURES / "toy_nodes.csv", FIXTURES / "toy_edges.txt"
        labels = np.loadtxt(nodes, delimiter=",", skiprows=1, usecols=1)
        splits = tmp_path / "splits.json"
        splits.write_text(json.dumps({k: v.tolist() for k, v in
                                      make_splits(labels, seed=1).items()}))
        for sub, extra in (("drawn", []), ("given", ["--splits", splits])):
            assert run_cli(["--seed", "1", "--out-dir", tmp_path / sub,
                            "benchmark", "--nodes", nodes, "--edges", edges,
                            *extra, "--benchmark-seeds", "2",
                            "--model-kind", "linear", "--formats", "csv"]) == 0
        assert (tmp_path / "drawn" / "benchmark.csv").read_bytes() == \
            (tmp_path / "given" / "benchmark.csv").read_bytes()

    def test_rate_experiment_rerun_identical_csv(self, tmp_path):
        for sub in ("a", "b"):
            code = run_cli(["--seed", "9", "--out-dir", tmp_path / sub,
                            "rate-experiment", "--kind", "dimension_sweep",
                            "--grid", "2,4", "--trials", "2",
                            "--formats", "csv"])
            assert code == 0
        a = (tmp_path / "a" / "dimension_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "dimension_sweep.csv").read_bytes()
        assert a == b

    def test_curie_weiss_rerun_identical_csv(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(["--seed", "4", "--out-dir", tmp_path / sub,
                            "curie-weiss", "--grid", "0.5,0.9", "--n", "120",
                            "--trials", "2", "--formats", "csv"]) == 0
        assert (tmp_path / "a" / "curie_weiss.csv").read_bytes() == \
            (tmp_path / "b" / "curie_weiss.csv").read_bytes()

    def test_emit_roundtrip(self, tmp_path):
        assert run_cli(["--seed", "4", "--out-dir", tmp_path / "a",
                        "curie-weiss", "--grid", "0.5", "--n", "60",
                        "--trials", "1", "--formats", "csv"]) == 0
        src = tmp_path / "a" / "curie_weiss.csv"
        assert run_cli(["--out-dir", tmp_path / "b", "emit",
                        "--table", src, "--formats", "csv,svg"]) == 0
        assert (tmp_path / "b" / "curie_weiss.csv").read_bytes() == \
            src.read_bytes()
        assert list((tmp_path / "b").glob("*.svg"))


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        # the console script when installed, else ``python -m isingreg``
        # from this source tree
        exe = shutil.which("isingreg")
        cmd, env = [exe], None
        if exe is None:
            src = str(Path(isingreg.__file__).parents[1])
            path = [src, os.environ.get("PYTHONPATH")]
            cmd = [sys.executable, "-m", "isingreg"]
            env = dict(os.environ,
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
        out = subprocess.run(
            cmd + ["--out-dir", str(tmp_path), "lower-bound-demo", "--n", "8",
                   "--block-r", "2"], capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert "lecam_floor" in out.stdout


# Allocates and frees a 16 MiB array, then reports how much a second one
# adds to glibc's mapped bytes and to its main heap.  A sliding mmap
# threshold rises to the freed block's size and puts the second array on
# the heap.
_HEAP_PROBE = """
import contextlib, ctypes, io, sys
import numpy as np
from isingreg import cli

class Mallinfo2(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
if sys.argv[1] == "main":
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--help"])
np.ones(1 << 21)
before = libc.mallinfo2()
kept = np.ones(1 << 21)
after = libc.mallinfo2()
print(after.hblkhd - before.hblkhd, after.arena - before.arena)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="needs glibc's mallinfo2")
@pytest.mark.parametrize("mode", ["plain", "main"])
def test_main_keeps_large_arrays_off_the_heap(mode):
    src = str(Path(isingreg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _HEAP_PROBE, mode],
                         capture_output=True, text=True, env=env, check=True)
    mapped, heap = map(int, out.stdout.split())
    half = 4 << 21  # half the array's 16 MiB
    if mode == "plain":
        # the probe sees the sliding threshold that main() pins
        assert heap > half and mapped < half
    else:
        assert mapped > half and heap < half
