"""Tour of the analytic diagnostics.

* psi and its exact quadratic scale law,
* the complexity ratio search with its witness (on the lower-bound
  instance the known slope recovers a^2/r; the search finds more),
* empirical tail bounds for mean-field residuals on Gibbs samples,
* the Curie-Weiss field-pattern rate: estimation error tracks the
  projection residual sqrt(4 n alpha (1 - alpha)).
"""

import numpy as np

from isingreg import (InteractionMatrix, IsingModel, c1_prime_estimate,
                      curie_weiss_rate, exchangeable_pairs_test, psi)
from isingreg.harness import curie_weiss_experiment


def main():
    rng = np.random.default_rng(0)

    print("== psi scale law ==")
    A = InteractionMatrix.block_partition(8, 2)
    h0, h1 = rng.normal(size=8), rng.normal(size=8)
    base = psi(h1, 0.7, h0, 0.2, A).value
    for t in (0.5, 2.0, -3.0):
        val = psi(h0 + t * (h1 - h0), 0.2 + t * 0.5, h0, 0.2, A).value
        print(f"  t={t:+.1f}: psi(t)/t^2 = {val / t ** 2:.6f} (base {base:.6f})")

    print("\n== complexity ratio on the lower-bound instance ==")
    n, r = 12, 3
    A = InteractionMatrix.block_partition(n, r)
    est = c1_prime_estimate(("linear", np.ones((n, 1)), 4.0), np.ones(n),
                            0.5, A)
    print(f"  c1' estimate = {est.c1_prime:.4f} "
          f"(known-slope value a^2/r = {0.8952 ** 2 / r:.4f}; "
          f"always <= 4/||A||_F^2 = {4 / r:.4f})")
    print(f"  witness slope lambda = {est.argmax_witness['lambda_d1']:.4f}, "
          f"{est.search_telemetry['evals']} psi evaluations "
          f"(each with its gradient)")

    print("\n== mean-field residual tails ==")
    m = IsingModel(A, rng.uniform(-1, 1, size=n), 0.6)
    rep = exchangeable_pairs_test(m, rng.normal(size=n), 8000, seed=1)
    print(f"  empirical mean of f = {rep.mean:+.4f} "
          f"({abs(rep.mean) / rep.std_error:.1f} standard errors)")
    for t, e, b in zip(rep.t_grid[2::2], rep.empirical_exceedance[2::2],
                       rep.bound[2::2]):
        print(f"  t={t:6.2f}:  P[|f|>t] = {e:.4f}  bound {b:.4f}")

    print("\n== Curie-Weiss field patterns ==")
    table = curie_weiss_experiment([0.5, 0.75, 0.95], 800, 10, seed=2)
    for alpha in (0.5, 0.75, 0.95):
        lam, res = curie_weiss_rate(alpha, 800)
        err = [v for c, v in table.values("mean_theta_abs_err")
               if c["x"] == alpha][0]
        print(f"  alpha={alpha:.2f}: residual={res:7.2f}  lambda*={lam:+.2f}  "
              f"mean |theta err| = {err:.4f}")


if __name__ == "__main__":
    main()
