"""Statistical estimation from dependent observations.

Labels sitting on a known interaction structure (a graph, blocks, or a
dense mean-field matrix) are modeled as one sample of an Ising or Potts
Markov random field whose external field is a parametric function of
per-node features.  The package fits the field parameters and the
interaction strength jointly by maximum pseudo-likelihood, computes the
proximity/complexity diagnostics that govern the estimation rates, and
ships experiment drivers for rate scaling, a two-point lower-bound demo,
and semi-supervised node-classification benchmarks.
"""

from .interaction import InteractionMatrix
from .ising import IsingModel, ExactSummary, conditional_mean, exact_summary, gibbs_sample
from .models import FunctionClassModel
from .mple import PLProblem, FitResult, neg_log_pl, fit
from .potts import (PottsProblem, potts_conditional, potts_objective_grad,
                    gibbs_sample_potts, fit_potts, predict_class)
from .diagnostics import (PsiValue, ComplexityEstimate, KLReport, psi,
                          c1_prime_estimate, kl_tv_exact,
                          exchangeable_pairs_test, kappa_and_restricted_eig,
                          curie_weiss_rate)
from .data import Dataset, gen_synthetic, load_citation, save_citation, make_splits
from .harness import (ExperimentTable, rate_experiment, lower_bound_demo,
                      curie_weiss_experiment, accuracy_benchmark,
                      planted_potts_dataset, emit)
from .errors import NumericalFailure

__version__ = "0.1.0"

__all__ = [
    "InteractionMatrix", "IsingModel", "ExactSummary", "conditional_mean",
    "exact_summary", "gibbs_sample", "FunctionClassModel", "PLProblem",
    "FitResult", "neg_log_pl", "fit", "PottsProblem",
    "potts_conditional", "potts_objective_grad", "gibbs_sample_potts",
    "fit_potts", "predict_class", "PsiValue", "ComplexityEstimate",
    "KLReport", "psi", "c1_prime_estimate", "kl_tv_exact",
    "exchangeable_pairs_test", "kappa_and_restricted_eig", "curie_weiss_rate",
    "Dataset", "gen_synthetic", "load_citation", "save_citation",
    "make_splits", "ExperimentTable", "rate_experiment", "lower_bound_demo",
    "curie_weiss_experiment", "accuracy_benchmark", "planted_potts_dataset",
    "emit", "NumericalFailure",
]
