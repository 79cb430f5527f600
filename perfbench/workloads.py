"""The benchmark's workloads: each round's op sequence and each op's check.

An op is one ``isingreg`` CLI command, run in-process through
``isingreg.cli.main(argv)``.  A round is one pass of a workload's op
sequence; the benchmark runs rounds back to back (one client, closed loop).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import gendata

# "reference": the reference loop timed before each op and after the last
# (see reference.py) and its size, about a tenth of an op's time
WORKLOADS = {
    "rate_sweep": {
        "data": None,
        "datasets": 0,
        "reference": ("interpreter", 60_000),
        "why": "the paper's rate law from the CLI: block Ising Gibbs plus "
               "PGD fits at n=1024, d=5; no ingest, Potts or CSR Gibbs",
    },
    "cora_classify": {
        "data": "cora",
        # the test error is a property of the drawn dataset, not of the op
        # seed: rounds alternate between two datasets to average it
        "datasets": 2,
        "reference": ("memory", 60),
        "why": "Cora-shaped node classification: Potts objective over a "
               "dense 2708x1433 X dominates; no Gibbs at all",
    },
    "pubmed_graph": {
        "data": "pubmed",
        "datasets": 1,
        "reference": ("interpreter", 150_000),
        "why": "Pubmed-shaped fit and CSR Gibbs sample: the only workload "
               "where ingest and CSR Gibbs do most of the work",
    },
}

BETA_BOX = 1.0


def op_seed(seed, k):
    """Seed of round k.  Rate sweeps derive trial seeds as
    seed + 1000 * grid_index + trial, so rounds stay 10^4 apart."""
    return (seed * 1000 + k) * 10_000


def round_ops(workload, datasets, seed, k):
    """[(name, argv_without_out_dir)] for round k of the workload, which
    reads the files of dataset k mod len(datasets)."""
    s = str(op_seed(seed, k))
    files = datasets[k % len(datasets)] if datasets else {}
    if workload == "rate_sweep":
        return [("rate", ["--seed", s, "rate-experiment", "--kind",
                          "frobenius_sweep", "--grid", "4,16,64,256",
                          "--trials", "2"])]
    if workload == "cora_classify":
        return [("benchmark", ["--seed", s, "benchmark",
                               "--nodes", files["nodes"]["path"],
                               "--edges", files["edges"]["path"],
                               "--splits", files["splits"]["path"],
                               "--model-kind", "linear",
                               "--benchmark-seeds", "1"])]
    if workload == "pubmed_graph":
        n = str(gendata.PUBMED["nodes"])
        return [("fit", ["--seed", s, "fit",
                         "--nodes", files["nodes"]["path"],
                         "--edges", files["edges"]["path"],
                         "--model", "linear", "--beta-box", str(BETA_BOX)]),
                ("sample", ["--seed", s, "sample", "--matrix", "edges",
                            "--edge-file", files["edges"]["path"],
                            "--n", n, "--count", "4"])]
    raise ValueError(f"unknown workload {workload!r}")


# Each check reads an op's output directory, raises ValueError when the
# output is wrong and otherwise returns the op's quality loss (or None).
# Lower loss is better: the mean squared theta error of a rate sweep, the
# MPLE-beta test error rate of a benchmark, the fit objective per node.

def _table(path):
    from isingreg.harness import ExperimentTable
    return ExperimentTable.from_csv(Path(path).read_text())


def check_rate(out):
    table = _table(out / "frobenius_sweep.csv")
    if table.values("fit_failed"):
        raise ValueError("rate sweep has fit_failed rows")
    means = [v for _, v in table.values("mean_theta_sq_err")]
    slopes = [v for _, v in table.values("slope_theta_sq_err")]
    if len(means) != 4 or len(slopes) != 1:
        raise ValueError("rate sweep is missing mean or slope rows")
    if not all(math.isfinite(v) for v in means + slopes):
        raise ValueError("rate sweep has non-finite mean or slope rows")
    return sum(means) / len(means)


def check_benchmark(out):
    table = _table(out / "benchmark.csv")
    accs = [v for name in table.metrics()
            if name.startswith("acc_") and not name.endswith("_std")
            for _, v in table.values(name)]
    if not accs or not all(0.0 <= v <= 1.0 for v in accs):
        raise ValueError(f"benchmark accuracies outside [0, 1]: {accs}")
    (_, acc), = table.values("acc_mpleb_mean")
    return 1.0 - acc


def check_fit(out):
    doc = json.loads((out / "fit.json").read_text())
    value, beta = doc["objective_value"], doc["beta_hat"]
    if not math.isfinite(value):
        raise ValueError("fit objective is not finite")
    if not abs(beta) <= BETA_BOX:
        raise ValueError(f"|beta_hat| = {abs(beta)} exceeds the box {BETA_BOX}")
    return value / gendata.PUBMED["nodes"]


def check_sample(out):
    rows = (out / "samples.csv").read_text().split()
    cells = [row.split(",") for row in rows]
    n = gendata.PUBMED["nodes"]
    if len(cells) != 4 or any(len(r) != n for r in cells):
        raise ValueError("samples.csv does not have shape (4, n)")
    if any(v not in ("1", "-1") for r in cells for v in r):
        raise ValueError("samples.csv holds entries other than +/-1")
    return None


CHECKS = {"rate": check_rate, "benchmark": check_benchmark, "fit": check_fit,
          "sample": check_sample}

# the files whose bytes must not change when tracing is switched on
AUTHORITATIVE = {"rate": "frobenius_sweep.csv", "benchmark": "benchmark.csv",
                 "fit": "fit.json", "sample": "samples.csv"}
