"""Semi-supervised node classification: does the graph help?

Builds a planted 200-node Potts dataset (homophilic graph, features
informative for only half the nodes, interaction strength 0.5), then
compares MPLE-0 (independence-assuming softmax regression on a 2-layer
MLP field) against MPLE-beta, which also fits the interaction strength
and conditions on train+validation labels at test time.

Also round-trips the bundled 10-node toy fixture through the canonical
nodes/edges/splits file formats.
"""

from pathlib import Path

import numpy as np

from isingreg import emit, load_citation
from isingreg.harness import accuracy_benchmark, planted_potts_dataset

OUT = "demos_out/benchmark"


def main():
    ds = planted_potts_dataset(n=200, K=3, seed=0, beta_star=0.5)
    agree = np.mean([ds.labels[i] == ds.labels[j] for i, j, _ in ds.edges])
    print(f"planted dataset: 200 nodes, {len(ds.edges)} edges, "
          f"neighbor agreement {agree:.2f}")
    table = accuracy_benchmark(ds, seeds=list(range(10)))
    rows = {m: [v for c, v in table.values(m) if c["x"] >= 0]
            for m in ("acc_mple0", "acc_mpleb")}
    a0, ab = np.array(rows["acc_mple0"]), np.array(rows["acc_mpleb"])
    print(f"MPLE-0    : {a0.mean():.3f} +/- {a0.std(ddof=1):.3f}")
    print(f"MPLE-beta : {ab.mean():.3f} +/- {ab.std(ddof=1):.3f}")
    print(f"MPLE-beta >= MPLE-0 in {np.sum(ab >= a0)}/10 seeds")
    emit(table, OUT, stem="planted")
    print(f"table written to {OUT}/")

    fixtures = Path(__file__).parent.parent / "tests" / "fixtures"
    toy = load_citation(fixtures / "toy_nodes.csv", fixtures / "toy_edges.txt",
                        fixtures / "toy_splits.json")
    print(f"\ntoy fixture: {toy.summary()}")


if __name__ == "__main__":
    main()
