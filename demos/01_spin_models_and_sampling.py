"""Spin models on interaction structures: exactness checks at small n.

Builds the three stock interaction matrices (uniform blocks, Curie-Weiss,
a graph adjacency), compares sampled marginals against exhaustive
enumeration, and verifies that one Gibbs sweep leaves the exact
distribution unchanged.  On this block matrix at beta = 0.5,
``gibbs_sample`` returns independent exact draws (one rejection step per
block's auxiliary Gaussian) and runs no sweep.  The sweep checked here is
the single-site scan over sites 0..n-1, which it runs on block models at
beta above 1 - 1e-6 or below 0; its exact kernel takes the sites one at
a time.
"""

import numpy as np

from isingreg import (InteractionMatrix, IsingModel, conditional_mean,
                      exact_summary, gibbs_sample)
from isingreg.ising import sweep_distribution


def main():
    rng = np.random.default_rng(0)

    print("== interaction matrices ==")
    for name, A in [
        ("blocks(12, 3)", InteractionMatrix.block_partition(12, 3)),
        ("curie_weiss(12)", InteractionMatrix.curie_weiss(12)),
        ("ring(12)", InteractionMatrix.from_adjacency(
            [(i, (i + 1) % 12) for i in range(12)], 12)),
    ]:
        f, s, i = A.norms()
        print(f"  {name:18s} ||A||_F={f:.3f}  ||A||_2={s:.3f}  ||A||_inf={i:.3f}")

    print("\n== exact vs sampled marginals (n=10) ==")
    A = InteractionMatrix.block_partition(10, 2)
    h = rng.uniform(-0.8, 0.8, size=10)
    model = IsingModel(A, h, beta=0.5)
    summary = exact_summary(model)
    states = gibbs_sample(model, 20_000, seed=1)
    emp = states.mean(axis=0)
    for k in range(5):
        print(f"  site {k}:  exact {summary.marginal_means[k]:+.4f}   "
              f"sampled {emp[k]:+.4f}")
    print(f"  max abs deviation: {np.max(np.abs(emp - summary.marginal_means)):.4f}")

    print("\n== one Gibbs sweep preserves the exact distribution ==")
    moved = sweep_distribution(model, summary.full_table)
    print(f"  max |P_after - P| = {np.max(np.abs(moved - summary.full_table)):.2e}")

    print("\n== conditional means are the tanh law ==")
    sigma = states[-1].astype(float)
    i = 3
    print(f"  site {i}: conditional_mean = {conditional_mean(model, sigma, i):+.5f}"
          f"  (tanh(beta*(A sigma)_i + h_i))")


if __name__ == "__main__":
    main()
