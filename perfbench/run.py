"""isingreg benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates its inputs from ``--seed``, runs the workload
in one worker process for ``--seconds`` and checks every op's output, and
measures set-up in fresh probe processes before and after the workload.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  Scratch files
and a full JSON record of the run go under ``.perfbench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import gendata  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

# set-up probes per run, half before the workload and half after it, so
# that their median spans the run rather than its first seconds
SETUP_PROBES = 6
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
WORKER_GRACE_S = 120


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # fixed string hashing keeps set and dict layouts, and so timings,
    # the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(script, args, timeout):
    """Run a benchmark script in a fresh interpreter; returns its stdout."""
    cmd = [sys.executable, str(HERE / script)] + args
    done = subprocess.run(cmd, env=child_env(), capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return done.stdout


def measure_setup(work, probes):
    samples = []
    for _ in range(probes):
        out = _child("probe.py", [str(SRC), str(work / "probe")],
                     timeout=WORKER_GRACE_S)
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


def run_metadata():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": metadata.version("scipy"),
            "blas": blas, "blas_threads": BLAS_THREADS,
            "git_commit": commit or "unknown (not a git checkout)"}


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result line dict, full record dict)."""
    work = WORK / f"{name}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = workloads.WORKLOADS[name]
        files = [gendata.GENERATORS[spec["data"]](work / f"data{j}", seed, j)
                 for j in range(spec["datasets"])]
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps(files))
        setup = measure_setup(work, SETUP_PROBES // 2)
        result_path = WORK / "results" / f"{name}_seed{seed}_trace{trace}.json"
        result_path.parent.mkdir(parents=True, exist_ok=True)
        _child("worker.py",
               ["--src", str(SRC), "--work", str(work / "ops"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--inputs", str(inputs), "--result", str(result_path)],
               timeout=seconds + WORKER_GRACE_S)
        res = json.loads(result_path.read_text())
        setup += measure_setup(work, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        values = res["per_layer"]
        declared = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_ref": res["wall_s"] / res["reference_s"],
                  "peak_rss_mb": res["peak_rss_mb"],
                  "quality_loss": res["quality_loss"]}
        declared = {k: v[0] for k, v in metrics.END_TO_END.items()}
    correct = res["failed"] == 0 and all(
        isinstance(v, (int, float)) for v in values.values())
    line = {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": declared[k]}
                        for k in declared}}
    record = {"meta": run_metadata(),
              "inputs": files,
              "setup_samples_s": setup, "worker": res, "result": line}
    result_path.write_text(json.dumps(record, indent=1))
    return line, record


def print_summary(name, line, record):
    res = record["worker"]
    print(f"# {name}: {res['rounds']} rounds, {line['attempted']} ops, "
          f"{line['failed']} failed, fail_frac "
          f"{line['failed'] / line['attempted']:.4f}")
    for f in res["failures"]:
        print(f"#   failure: {f}")
    print(f"#   round wall time {res['wall_s']:.4f} s, reference loop "
          f"{res['reference_s']:.4f} s")
    for j, files in enumerate(record["inputs"]):
        for kind, info in files.items():
            print(f"#   input {j}/{kind}: {info['bytes']} bytes "
                  f"sha256 {info['sha256']}")
    for key, m in line["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"#   {key:40s} {value} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isingreg" / "cli.py").is_file():
        print(f"perfbench: no isingreg sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    lines = {}
    for name in names:
        line, record = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(name, line, record)
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {"correct": all(l["correct"] for l in lines.values()),
                 "attempted": sum(l["attempted"] for l in lines.values()),
                 "failed": sum(l["failed"] for l in lines.values()),
                 "metrics": {f"{n}.{k}": m for n, l in lines.items()
                             for k, m in l["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
