"""Metric declarations and the per-layer report built from spans.

Every metric the benchmark prints is declared here once, with its unit,
its direction, the layer it belongs to and the end-to-end metric and
workloads it should move.  ``BENCHMARK.json`` repeats the name, unit and
direction; the tests check that the two agree.

Per-layer values are per round (one pass of a workload's op sequence),
averaged over the traced rounds of a run, so a time-boxed run still gives
counts that repeat exactly for the same work.  A layer that does not run on
a workload reports 0.
"""

from __future__ import annotations

from spans import outermost, self_times

NAME_PATTERN = r"[A-Za-z0-9_.-]+"

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_ref": ("ref", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "quality_loss": ("loss", "lower", 0.25),
}

# name: (unit, better, layer, end-to-end metric it should move, workloads)
PER_LAYER = {
    "interaction.build_s": ("s", "lower", "interaction", "wall_ref",
                            "pubmed_graph"),
    "interaction.builds": ("count", "lower", "interaction", "wall_ref",
                           "pubmed_graph"),
    "ising.gibbs_block.us_per_site": ("us", "lower", "ising", "wall_ref",
                                      "rate_sweep"),
    "ising.gibbs_block.site_updates": ("count", "lower", "ising", "wall_ref",
                                       "rate_sweep"),
    "ising.gibbs_csr.us_per_site": ("us", "lower", "ising", "wall_ref",
                                    "pubmed_graph"),
    "ising.gibbs_csr.site_updates": ("count", "lower", "ising", "wall_ref",
                                     "pubmed_graph"),
    "ising.serialize_s": ("s", "lower", "ising", "wall_ref", "pubmed_graph"),
    "potts.objective.ms_per_eval": ("ms", "lower", "potts", "wall_ref",
                                    "cora_classify"),
    "potts.objective.evals": ("count", "lower", "potts", "wall_ref",
                              "cora_classify"),
    "potts.objective.gb_per_s_computed": ("GB/s", "higher", "potts",
                                          "wall_ref", "cora_classify"),
    "potts.fit.s": ("s", "lower", "potts", "wall_ref", "cora_classify"),
    "potts.fit.iters": ("count", "lower", "potts", "wall_ref",
                        "cora_classify"),
    "potts.fit.evals_per_iter": ("ratio", "lower", "potts", "wall_ref",
                                 "cora_classify"),
    "potts.fit.converged_frac": ("ratio", "higher", "potts", "quality_loss",
                                 "cora_classify"),
    "potts.predict_s": ("s", "lower", "potts", "wall_ref", "cora_classify"),
    "mple.objective.ms_per_eval": ("ms", "lower", "mple", "wall_ref",
                                   "rate_sweep,pubmed_graph"),
    "mple.objective.evals": ("count", "lower", "mple", "wall_ref",
                             "rate_sweep,pubmed_graph"),
    "mple.fit.s": ("s", "lower", "mple", "wall_ref",
                   "rate_sweep,pubmed_graph"),
    "mple.fit.iters": ("count", "lower", "mple", "wall_ref",
                       "rate_sweep,pubmed_graph"),
    "mple.fit.evals_per_iter": ("ratio", "lower", "mple", "wall_ref",
                                "rate_sweep,pubmed_graph"),
    "mple.fit.converged_frac": ("ratio", "higher", "mple", "quality_loss",
                                "rate_sweep,pubmed_graph"),
    "models.objective_s": ("s", "lower", "models", "wall_ref",
                           "cora_classify,rate_sweep"),
    "data.load_citation.self_s": ("s", "lower", "data",
                                  "wall_ref,peak_rss_mb",
                                  "pubmed_graph,cora_classify"),
    "data.load_citation.mb_per_s": ("MB/s", "higher", "data",
                                    "wall_ref,peak_rss_mb",
                                    "pubmed_graph,cora_classify"),
    "data.gen_synthetic.self_s": ("s", "lower", "data", "wall_ref",
                                  "rate_sweep"),
    "harness.rate_experiment.self_s": ("s", "lower", "harness", "wall_ref",
                                       "rate_sweep"),
    "harness.accuracy_benchmark.self_s": ("s", "lower", "harness", "wall_ref",
                                          "cora_classify"),
    "harness.emit.s": ("s", "lower", "harness", "wall_ref", "all"),
    "harness.emit.bytes": ("bytes", "lower", "harness", "wall_ref", "all"),
    "diagnostics.kappa.s": ("s", "lower", "diagnostics", "wall_ref",
                            "rate_sweep"),
    "cli.self_s": ("s", "lower", "cli", "wall_ref", "all"),
    "trace.overhead_frac": ("ratio", "lower", "trace", "-", "all"),
}


def _sum(spans, idx, key=None):
    if key is None:
        return sum(spans[k]["end"] - spans[k]["start"] for k in idx)
    return sum(spans[k]["counts"].get(key, 0) for k in idx)


def _ratio(num, den):
    return num / den if den else 0.0


def _inside(spans, k, layer):
    """True when span k sits (at any depth) inside a span named ``layer``."""
    p = spans[k]["parent"]
    while p is not None:
        if spans[p]["name"] == layer:
            return True
        p = spans[p]["parent"]
    return False


def layer_report(spans, rounds, untraced_s, traced_s):
    """Per-layer metrics, per round, from the spans of ``rounds`` traced
    rounds.  ``untraced_s`` and ``traced_s`` are the mean round wall
    times without and with tracing, for ``trace.overhead_frac``."""
    own = self_times(spans)
    by_name = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(k)

    def idx(name):
        return outermost(spans, name) if name in by_name else []

    def self_s(name):
        return sum(own[k] for k in by_name.get(name, []))

    m = {}
    build = idx("interaction.build")
    m["interaction.build_s"] = _sum(spans, build)
    m["interaction.builds"] = len(build)
    for short in ("gibbs_block", "gibbs_csr"):
        g = idx(f"ising.{short}")
        sites = _sum(spans, g, "site_updates")
        m[f"ising.{short}.us_per_site"] = _ratio(_sum(spans, g), sites) * 1e6
        m[f"ising.{short}.site_updates"] = sites
    m["ising.serialize_s"] = _sum(spans, idx("ising.serialize"))

    for model in ("potts", "mple"):
        ev = idx(f"{model}.objective")
        t_ev, n_ev = _sum(spans, ev), _sum(spans, ev, "evals")
        m[f"{model}.objective.ms_per_eval"] = _ratio(t_ev, n_ev) * 1e3
        m[f"{model}.objective.evals"] = n_ev
        if model == "potts":
            m["potts.objective.gb_per_s_computed"] = _ratio(
                _sum(spans, ev, "bytes"), t_ev) / 1e9
        fits = idx(f"{model}.fit")
        n_fit = len(fits)
        iters = _sum(spans, fits, "iters")
        fit_evals = sum(spans[k]["counts"].get("evals", 0) for k in ev
                        if _inside(spans, k, f"{model}.fit"))
        m[f"{model}.fit.s"] = _sum(spans, fits)
        m[f"{model}.fit.iters"] = _ratio(iters, n_fit)
        m[f"{model}.fit.evals_per_iter"] = _ratio(fit_evals, iters)
        m[f"{model}.fit.converged_frac"] = _ratio(
            _sum(spans, fits, "converged"), n_fit)
    m["potts.predict_s"] = _sum(spans, idx("potts.predict"))
    m["models.objective_s"] = (_sum(spans, by_name.get("models.eval", []))
                               + _sum(spans, by_name.get("models.param_grad",
                                                         [])))

    load = idx("data.load_citation")
    m["data.load_citation.self_s"] = self_s("data.load_citation")
    m["data.load_citation.mb_per_s"] = _ratio(
        _sum(spans, load, "bytes") / 1e6, _sum(spans, load))
    m["data.gen_synthetic.self_s"] = self_s("data.gen_synthetic")
    for name in ("rate_experiment", "accuracy_benchmark"):
        m[f"harness.{name}.self_s"] = self_s(f"harness.{name}")
    emit = idx("harness.emit")
    m["harness.emit.s"] = _sum(spans, emit)
    m["harness.emit.bytes"] = _sum(spans, emit, "bytes")
    m["diagnostics.kappa.s"] = _sum(spans, idx("diagnostics.kappa"))
    m["cli.self_s"] = self_s("cli")

    # everything except the ratios is a per-run total: divide by rounds
    ratios = {"us_per_site", "ms_per_eval", "gb_per_s_computed", "iters",
              "evals_per_iter", "converged_frac", "mb_per_s"}
    for key in m:
        if key.rsplit(".", 1)[-1] not in ratios:
            m[key] = m[key] / rounds
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return m
