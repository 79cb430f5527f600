"""Tests of the benchmark's own code: inputs, spans and declarations.

    python -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import gendata
import metrics
import reference
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("kind", sorted(gendata.GENERATORS))
def test_inputs_repeat_per_seed(kind, tmp_path):
    make = gendata.GENERATORS[kind]
    a = make(tmp_path / "a", 5)
    b = make(tmp_path / "b", 5)
    c = make(tmp_path / "c", 6)
    other_part = make(tmp_path / "p", 5, 1)
    sha = lambda files: {k: v["sha256"] for k, v in files.items()}
    assert sha(a) == sha(b)
    for other in (c, other_part):
        assert all(sha(a)[k] != sha(other)[k] for k in ("nodes", "edges"))


def test_cora_inputs_have_planetoid_shape(tmp_path):
    files = gendata.make_cora(tmp_path, 0)
    lines = Path(files["nodes"]["path"]).read_text().splitlines()
    assert len(lines) == 1 + 2708
    assert len(lines[0].split(",")) == 2 + 1433
    edges = Path(files["edges"]["path"]).read_text().split("\n")[:-1]
    pairs = {tuple(sorted(map(int, e.split()))) for e in edges}
    assert len(edges) == len(pairs) == 5429
    assert all(i != j for i, j in pairs)
    splits = json.loads(Path(files["splits"]["path"]).read_text())
    assert [len(splits[k]) for k in ("train", "val", "test")] == [140, 500, 2068]


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": "r0_0", "counts": {}}


def test_self_time_on_hand_built_tree():
    tree = [
        _span("cli", 0.0, 10.0),              # 0
        _span("harness.emit", 1.0, 4.0, 0),   # 1
        _span("mple.fit", 5.0, 9.0, 0),       # 2
        _span("mple.objective", 5.5, 6.5, 2),  # 3
        _span("mple.objective", 7.0, 8.0, 2),  # 4
        _span("models.eval", 7.25, 7.75, 4),  # 5
    ]
    assert spans.self_times(tree) == pytest.approx(
        [3.0, 3.0, 2.0, 1.0, 0.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    tree = [_span("a", 0.0, 4.0), _span("b", 1.0, 3.0, 0),
            _span("c", 2.0, 3.5, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_outermost_skips_nested_same_layer():
    tree = [_span("interaction.build", 0.0, 2.0),
            _span("interaction.build", 0.5, 1.5, 0),
            _span("interaction.build", 3.0, 4.0)]
    assert spans.outermost(tree, "interaction.build") == [0, 2]


def test_install_traces_and_restores():
    import isingreg.cli
    import isingreg.data
    from isingreg import InteractionMatrix, IsingModel, gibbs_sample

    original = isingreg.data.gibbs_sample
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert isingreg.cli.gibbs_sample is not original
        A = InteractionMatrix.block_partition(8, 2)
        isingreg.cli.gibbs_sample(IsingModel(A, np.zeros(8), 0.2), 3,
                                  burn_in=4, thin=2)
    finally:
        restore()
    assert isingreg.data.gibbs_sample is original
    assert isingreg.cli.gibbs_sample is gibbs_sample
    names = [s["name"] for s in tracer.spans]
    assert names == ["interaction.build", "ising.gibbs_block"]
    assert tracer.spans[1]["counts"]["site_updates"] == 8 * (4 + 2 * 2)


def test_layer_report_covers_every_declared_metric():
    tree = [_span("cli", 0.0, 2.0), _span("potts.fit", 0.5, 1.5, 0),
            _span("potts.objective", 0.6, 0.8, 1)]
    tree[1]["counts"] = {"fits": 1, "iters": 1, "converged": 1}
    tree[2]["counts"] = {"evals": 1, "bytes": 4e8}
    report = metrics.layer_report(tree, 1, 1.0, 1.1)
    assert set(report) == set(metrics.PER_LAYER)
    assert report["potts.objective.gb_per_s_computed"] == pytest.approx(2.0)
    assert report["cli.self_s"] == pytest.approx(1.0)
    assert report["trace.overhead_frac"] == pytest.approx(0.1)


def test_metric_names_are_declared_in_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(metrics.NAME_PATTERN)
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    layer = {m["name"]: m for m in doc["per_layer"]}
    assert set(e2e) == set(metrics.END_TO_END)
    assert set(layer) == set(metrics.PER_LAYER)
    for name, (unit, better, bound) in metrics.END_TO_END.items():
        assert pattern.fullmatch(name)
        assert (e2e[name]["unit"], e2e[name]["better"],
                e2e[name]["bound"]) == (unit, better, bound)
    for name, (unit, better, *_) in metrics.PER_LAYER.items():
        assert pattern.fullmatch(name)
        assert (layer[name]["unit"], layer[name]["better"]) == (unit, better)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_trimmed_mean_drops_the_extremes_only_from_ten_values_up():
    assert worker.trimmed_mean([1.0] * 8 + [-50.0, 100.0]) == 1.0
    assert worker.trimmed_mean([1.0, 2.0, 6.0]) == 3.0


def test_every_workload_names_a_reference_loop_that_runs():
    for spec in workloads.WORKLOADS.values():
        kind, size = spec["reference"]
        assert size > 0
        assert reference.KERNELS[kind](1) > 0.0
