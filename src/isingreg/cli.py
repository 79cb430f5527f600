"""Command-line dispatch.

Subcommands: ``sample``, ``fit``, ``diagnose``, ``rate-experiment``,
``lower-bound-demo``, ``curie-weiss``, ``benchmark``, ``emit``.  Global
flags ``--seed``, ``--out-dir``, and ``--config <json-file>`` (per-key
defaults merged under explicit flags).  Exit codes: 0 success, 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, harness
from .data import load_citation, make_splits
from .errors import DataFormatError, NumericalFailure
from .interaction import (InteractionMatrix, from_weighted_edges,
                          read_edge_list)
from .ising import IsingModel, gibbs_sample, serialize_spins
from .models import FunctionClassModel
from .mple import PLProblem, fit
from .potts import PottsProblem, fit_potts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args):
    if args.nodes and args.edges:
        return load_citation(args.nodes, args.edges, args.splits)
    raise ValueError("this command needs --nodes and --edges together")


def _formats(text):
    """A --formats value: comma-separated names, each csv or svg."""
    formats = tuple(text.split(","))
    known = harness.EMIT_FORMATS
    if not set(formats) <= set(known):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a subset of {','.join(known)}")
    return formats


def _matrix_from_args(args, n):
    if args.matrix == "block":
        return InteractionMatrix.block_partition(n, args.block_r)
    if args.matrix == "curie-weiss":
        return InteractionMatrix.curie_weiss(n)
    if args.matrix == "edges":
        if args.edge_file is None:
            raise ValueError("--matrix edges needs --edge-file")
        with Path(args.edge_file).open() as fh:
            return from_weighted_edges(read_edge_list(fh), n)
    raise ValueError(f"unknown matrix kind {args.matrix!r}")


def cmd_sample(args):
    out = _out_dir(args)
    A = _matrix_from_args(args, args.n)
    rng = np.random.default_rng(args.seed)
    h = rng.uniform(-args.field_scale, args.field_scale, size=args.n)
    model = IsingModel(A, h, args.beta)
    states = gibbs_sample(model, args.count, burn_in=args.burn_in,
                          thin=args.thin, seed=args.seed)
    path = out / "samples.csv"
    path.write_text(serialize_spins(states))
    print(f"wrote {args.count} samples to {path}")
    return EXIT_OK


def cmd_fit(args):
    out = _out_dir(args)
    ds = _load_dataset(args)
    d = ds.X.shape[1]
    k = int(ds.labels.max()) + 1
    binary = set(np.unique(ds.labels)) <= {-1, 1}
    if args.model == "linear":
        maker = lambda n_out: FunctionClassModel.linear(
            d, n_outputs=n_out, l2_radius=args.l2)
    elif args.model == "sparse":
        maker = lambda n_out: FunctionClassModel.sparse_linear(
            d, l1_radius=args.l1, n_outputs=n_out, l2_radius=args.l2)
    elif args.model == "mlp":
        maker = lambda n_out: FunctionClassModel.mlp2(
            d, n_outputs=n_out, width=args.width, seed=args.seed)
    else:
        raise ValueError(f"unknown model {args.model!r}")

    if binary:
        problem = PLProblem(ds.A, ds.X, ds.labels.astype(float), maker(1),
                            beta_box=args.beta_box)
        fitter = fit
    else:
        if args.classes and args.classes != k:
            raise ValueError(f"--classes {args.classes} but data has {k}")
        problem = PottsProblem(k, ds.A, ds.X, ds.labels, maker(k),
                               beta_box=args.beta_box)
        fitter = fit_potts
    # start from the model's own initial weights: all-zero for the linear
    # kinds, Glorot for mlp (all-zero weights are a stationary point there)
    res = fitter(problem, beta_frozen=args.beta_frozen, tol=args.tol,
                 max_iters=args.max_iters, theta0=problem.model.flatten())
    path = out / "fit.json"
    path.write_text(res.to_json() + "\n")
    print(f"beta_hat={res.beta_hat:.6f} objective={res.objective_value:.6f} "
          f"converged={res.converged} ({res.stop_reason}) -> {path}")
    return EXIT_OK


def cmd_diagnose(args):
    out = _out_dir(args)
    ds = _load_dataset(args)
    frob, spec, inf = ds.A.norms()
    kappa = diagnostics.kappa_and_restricted_eig(ds.X)
    h0 = np.zeros(ds.n)
    est = diagnostics.c1_prime_estimate(("linear", ds.X, 1.0), h0, 0.0, ds.A)
    # probe field from the first feature column, bounded to [-1, 1]
    probe = np.tanh(ds.X[:, 0] - ds.X[:, 0].mean())
    psi_check = diagnostics.psi(probe, 0.2, h0, 0.0, ds.A)
    report = {
        "norms": {"frobenius": frob, "spectral": spec, "infinity": inf},
        "kappa": kappa,
        "nodes": int(ds.n),
        "features": int(ds.X.shape[1]),
        "c1_prime": est.c1_prime,
        "c2_prime": est.c2_prime,
        "psi_checks": {
            "value": psi_check.value,
            "frobenius_term": psi_check.frobenius_term,
            "residual_term": psi_check.residual_term,
        },
    }
    if ds.n <= 16:
        m0 = IsingModel(ds.A, h0, 0.0)
        m1 = IsingModel(ds.A, probe, 0.2)
        kl = diagnostics.kl_tv_exact(m0, m1)
        report["kl_tv"] = {"kl_forward": kl.kl_forward,
                           "kl_backward": kl.kl_backward, "tv": kl.tv,
                           "pinsker_ok": kl.pinsker_ok}
    path = out / "diagnose.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_rate_experiment(args):
    out = _out_dir(args)
    grid = [float(g) for g in args.grid.split(",")]
    table = harness.rate_experiment(args.kind, grid, args.trials,
                                    seed=args.seed)
    harness.emit(table, out, formats=args.formats, stem=args.kind)
    print(f"wrote {args.kind} results to {out}")
    return EXIT_OK


def cmd_lower_bound_demo(args):
    out = _out_dir(args)
    report = harness.lower_bound_demo(args.n, args.block_r, c0=args.c0)
    path = out / "lower_bound_demo.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"a={report['a']:.4f} psi={report['psi_identity']:.6f} "
          f"tv={report['tv']:.6f} lecam_floor={report['lecam_floor']:.4f}")
    return EXIT_OK


def cmd_curie_weiss(args):
    out = _out_dir(args)
    grid = [float(g) for g in args.grid.split(",")]
    table = harness.curie_weiss_experiment(grid, args.n, args.trials,
                                           seed=args.seed)
    harness.emit(table, out, formats=args.formats, stem="curie_weiss")
    print(f"wrote curie-weiss results to {out}")
    return EXIT_OK


def cmd_benchmark(args):
    out = _out_dir(args)
    seeds = [args.seed + i for i in range(args.benchmark_seeds)]
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if args.nodes or args.edges or args.splits:
        ds = _load_dataset(args)
        if not ds.splits:
            ds.splits = make_splits(ds.labels, seed=args.seed)
        name = Path(args.nodes).stem
    else:
        ds = harness.planted_potts_dataset(n=args.n, K=args.classes or 3,
                                           seed=args.seed,
                                           beta_star=args.beta_star)
        name = "planted"
    table = harness.accuracy_benchmark(ds, seeds, model_kind=args.model_kind,
                                       width=args.width, dataset_name=name)
    harness.emit(table, out, formats=args.formats, stem="benchmark")
    print(f"wrote benchmark results to {out}")
    return EXIT_OK


def cmd_emit(args):
    out = _out_dir(args)
    table = harness.ExperimentTable.from_csv(Path(args.table).read_text())
    harness.emit(table, out, formats=args.formats,
                 stem=Path(args.table).stem)
    print(f"re-emitted {args.table} to {out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isingreg",
        description="dependent-label regression via Ising/Potts pseudo-likelihood")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw Gibbs samples from a spin model")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--matrix", default="curie-weiss",
                   choices=["block", "curie-weiss", "edges"])
    p.add_argument("--block-r", type=int, default=4)
    p.add_argument("--edge-file")
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--field-scale", type=float, default=0.5)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--burn-in", type=int, default=50)
    p.add_argument("--thin", type=int, default=5)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="fit MPLE on a dataset")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--splits")
    p.add_argument("--model", default="linear",
                   choices=["linear", "sparse", "mlp"])
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--beta-frozen", type=float, default=None)
    p.add_argument("--l1", type=float, default=1.0)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--beta-box", type=float, default=1.0)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=10000)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="norms, kappa, psi, C1', KL report")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--splits")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("rate-experiment", help="run a rate-scaling sweep")
    p.add_argument("--kind", default="frobenius_sweep",
                   choices=sorted(harness.SWEEP_DEFAULTS))
    p.add_argument("--grid", default="4,16,64,256")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--formats", type=_formats, default="csv,svg")
    p.set_defaults(func=cmd_rate_experiment)

    p = sub.add_parser("lower-bound-demo",
                       help="two-point indistinguishability construction")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--block-r", type=int, default=3)
    p.add_argument("--c0", type=float, default=0.1)
    p.set_defaults(func=cmd_lower_bound_demo)

    p = sub.add_parser("curie-weiss", help="field-pattern rate experiment")
    p.add_argument("--grid", default="0.5,0.95")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--formats", type=_formats, default="csv,svg")
    p.set_defaults(func=cmd_curie_weiss)

    p = sub.add_parser("benchmark", help="MPLE-0 vs MPLE-beta accuracy")
    p.add_argument("--nodes")
    p.add_argument("--edges")
    p.add_argument("--splits")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--beta-star", type=float, default=0.5)
    p.add_argument("--benchmark-seeds", type=int, default=10)
    p.add_argument("--model-kind", default="mlp2",
                   choices=["mlp2", "linear"])
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--formats", type=_formats, default="csv,svg")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("emit", help="re-render a stored results table")
    p.add_argument("--table", required=True)
    p.add_argument("--formats", type=_formats, default="csv,svg")
    p.set_defaults(func=cmd_emit)
    return parser


def _option_actions(parser, command):
    """The flags of the top-level parser and of ``command``, by dest."""
    actions = list(parser._actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            actions += action.choices[command]._actions
    return {a.dest: a for a in actions
            if a.option_strings and a.dest != "help"}


def _config_value(key, action, value):
    """A config value read as if given on the command line: through the
    flag's ``type`` and checked against its ``choices``."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} must be a string or a number")
    try:
        value = action.type(str(value)) if action.type else str(value)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of "
                         f"{sorted(action.choices)}")
    return value


def _parse_with_config(parser, argv):
    """Parse ``argv`` with the --config JSON file as flag defaults, so that
    explicit flags win in every spelling argparse accepts."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise ValueError("--config must hold a JSON object")
    actions = _option_actions(parser, args.command)
    for key, value in doc.items():
        if key not in actions:
            raise ValueError(f"config key {key!r} is not a known option")
        actions[key].default = _config_value(key, actions[key], value)
    return parser.parse_args(argv)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_with_config(parser, argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataFormatError, ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
