"""The workload process: runs rounds of ops in-process and checks them.

    python3 perfbench/worker.py --src SRC --work DIR --workload W --seed S
        --seconds T --trace 0|1 --inputs FILE --result FILE

Started by ``run.py``.  Runs rounds until the next one would end past
``--seconds`` (at least ``MIN_ROUNDS``), checks every op's output and writes
a JSON result.  With ``--trace 1`` every round runs twice, untraced then
traced, with the same arguments; the traced copy records spans and its
authoritative output must be byte-identical to the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import metrics
import reference
import spans
import workloads

MIN_ROUNDS = {0: 2, 1: 1}
TRIM = 0.1


def trimmed_mean(values, cut=TRIM):
    """Mean of the values left after dropping the lowest and the highest
    ``cut`` share of them.

    A workload with long rounds fits only two to four of them in a run,
    and their mean spreads less from run to run than their median.  On a
    shared host the round time also switches between a fast and a slow
    level; the mean follows the share of time spent at each, where a
    median jumps to whichever level held most rounds.  Trimming keeps a
    rare stalled round from pulling the mean once there are ten rounds.
    """
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def _run_op(cli, argv, out, check, tracer=None):
    """Run one op; returns (seconds, quality, error or None).  The output
    check runs after the clock stops."""
    full = ["--out-dir", str(out)] + argv
    error = None
    if tracer is not None:
        index = tracer.open("cli")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(full)
        if code != 0:
            error = f"exit code {code}"
    except Exception as exc:  # an op that raises is a counted failure
        error = f"raised {exc!r}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(index)
    if error is not None:
        return seconds, None, error
    try:
        return seconds, check(out), None
    except (OSError, ValueError, KeyError) as exc:
        return seconds, None, f"bad output: {exc}"


def _run_round(cli, ops, work, tag, tracer=None, before_op=None):
    record = {"ops": []}
    for i, (name, argv) in enumerate(ops):
        if before_op is not None:
            before_op()
        out = work / f"{tag}_{i}"
        if tracer is not None:
            tracer.op = f"{tag}_{i}"
        seconds, quality, error = _run_op(cli, argv, out,
                                          workloads.CHECKS[name], tracer)
        record["ops"].append({"name": name, "argv": argv, "seconds": seconds,
                              "quality": quality, "error": error,
                              "out": str(out)})
    record["seconds"] = sum(op["seconds"] for op in record["ops"])
    return record


def _check_same_output(plain, traced):
    """Mark each traced op whose authoritative file differs from its
    untraced twin as failed."""
    for op_a, op_b in zip(plain["ops"], traced["ops"]):
        name = workloads.AUTHORITATIVE[op_a["name"]]
        pa, pb = Path(op_a["out"]) / name, Path(op_b["out"]) / name
        same = (pa.is_file() and pb.is_file()
                and pa.read_bytes() == pb.read_bytes())
        if not same and op_b["error"] is None:
            op_b["error"] = "tracing changed the output"


def run(args):
    sys.path.insert(0, args.src)
    from isingreg import cli

    datasets = json.loads(Path(args.inputs).read_text())
    work = Path(args.work)
    rounds, traced_rounds = [], []
    # the reference loop runs before every untraced op and after the last
    kind, size = workloads.WORKLOADS[args.workload]["reference"]
    reference_s = []

    def time_reference():
        reference_s.append(reference.KERNELS[kind](size))

    tracer = spans.Tracer()
    loop_start = time.perf_counter()
    k = 0
    while True:
        ops = workloads.round_ops(args.workload, datasets, args.seed, k)
        gc.collect()
        plain = _run_round(cli, ops, work, f"r{k}", before_op=time_reference)
        rounds.append(plain)
        if args.trace:
            gc.collect()
            restore = spans.install(tracer)
            try:
                traced = _run_round(cli, ops, work, f"t{k}", tracer)
            finally:
                restore()
            _check_same_output(plain, traced)
            traced_rounds.append(traced)
        for rec in [plain] + traced_rounds[-1:]:
            for op in rec["ops"]:
                shutil.rmtree(op["out"], ignore_errors=True)
        k += 1
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed / k
        if k >= MIN_ROUNDS[args.trace] and elapsed + per_round > args.seconds:
            break
    time_reference()

    ops = [op for rec in rounds + traced_rounds for op in rec["ops"]]
    failures = [op["error"] for op in ops if op["error"]]
    qualities = [op["quality"] for rec in rounds for op in rec["ops"]
                 if op["quality"] is not None]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "op_seeds": [workloads.op_seed(args.seed, i) for i in range(k)],
        "rounds": k,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "round_seconds": [rec["seconds"] for rec in rounds],
        "op_seconds": [[op["seconds"] for op in rec["ops"]] for rec in rounds],
        "reference_seconds": reference_s,
        "wall_s": trimmed_mean(rec["seconds"] for rec in rounds),
        "reference_s": trimmed_mean(reference_s),
        # a median: one instance's estimate can land on the box and carry
        # a squared error many times the typical one
        "quality_loss": (statistics.median(qualities) if qualities
                         else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        traced_s = trimmed_mean(rec["seconds"] for rec in traced_rounds)
        result["traced_round_seconds"] = [r["seconds"] for r in traced_rounds]
        result["per_layer"] = metrics.layer_report(
            tracer.spans, len(traced_rounds), result["wall_s"], traced_s)
        result["spans"] = len(tracer.spans)
        Path(args.result).with_suffix(".spans.json").write_text(
            json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(result, indent=1))


def main():
    parser = argparse.ArgumentParser()
    for flag in ("--src", "--work", "--workload", "--inputs", "--result"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
