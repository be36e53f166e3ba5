"""Benchmark entry point.

One workload per process:

    python3 perfbench/run.py --workload mlp_disk --seed 1 --seconds 20 --trace 0

prints the workload's metrics by name and unit, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Every workload:

    python3 perfbench/run.py --all --seed 1

runs each workload untraced and then traced, each in a fresh process, and
prints every metric, the tracing overhead, the workload properties and the
environment.

The package is imported from ``src/`` next to this directory. BLAS and
OpenMP threads are pinned to the CPUs this process may run on, before numpy
is imported. Working files go under ``.perfbench-work/`` at the repository
root and are removed on exit.
"""

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
THREADS = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

IMPORTS = 5               # import timings: this process plus fresh interpreters

# name -> unit, for the metrics a workload reports where they apply
REPORTED_METRICS = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "step_s.p50": "s",
    "train_records_per_s": "records/s",
    "train_step_s.p50": "s",
    "eval_records_per_s": "records/s",
    "eval_record_s.p50": "s",
    "eval_record_s.p90": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


def _import_seconds():
    """Seconds to import the package in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import genreclf.checkpoint; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True)
    return float(out.stdout)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "pinned_threads": THREADS,
            "python": platform.python_version(), "machine": platform.machine()}


def run_one(workload, seed, seconds, trace):
    if not os.path.isdir(os.path.join(SRC, "genreclf")):
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads
    own_import_s = time.perf_counter() - START

    spec = _spec()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    bench = workloads.Bench(seed, seconds, workdir, tracer=tracer)
    try:
        workloads.run(workload, bench)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # the fresh interpreters are timed after the workload, away from the
    # start-up of this process
    imports = [own_import_s] + [_import_seconds() for _ in range(IMPORTS - 1)]
    found = bench.metrics(statistics.median(imports))
    for name, unit in REPORTED_METRICS.items():
        if name in found:
            print(f"{workload} {name} {found[name]:.6g} {unit}")
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "metrics": found, "properties": bench.properties, "environment": environment(),
               "samples": {"train_steps": len(bench.step_s), "scored_records": bench.scored,
                           "unstamped_evaluate_calls": bench.unstamped_calls,
                           "setups": len(bench.setup_s)},
               "import_s": imports, "setup_s": bench.setup_s, "check_errors": bench.check_errors,
               "problems": bench.problems}
    if tracer is not None:
        timed_records = bench.trained + bench.scored
        layers = spans.layer_metrics(tracer, timed_records, len(bench.setup_s))
        layers["trace.records_per_s"] = found["records_per_s"]
        details["per_layer"] = layers
        details["top_spans"] = spans.top_spans(tracer)
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = found
    print("details " + json.dumps(details))
    result = {"correct": not bench.problems and bench.failed == 0,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


def run_all(seed, seconds):
    """Every workload untraced then traced, each in a fresh process."""
    spec = _spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            details = json.loads(next(line for line in lines if line.startswith("details "))[8:])
            details["result"] = json.loads(lines[-1])
            runs[trace] = details
        plain, traced = runs[0], runs[1]
        overhead = {f"{m}_traced_minus_untraced": traced["metrics"][m] - plain["metrics"][m]
                    for m in ("train_records_per_s", "eval_records_per_s") if m in plain["metrics"]}
        print(f"== {workload}: correct={plain['result']['correct'] and traced['result']['correct']} "
              f"attempted={plain['result']['attempted']} failed={plain['result']['failed']}")
        for name, unit in REPORTED_METRICS.items():
            if name in plain["metrics"]:
                print(f"  {name:<28} {plain['metrics'][name]:>14.6g} {unit}")
        for name, value in overhead.items():
            print(f"  {name:<28} {value:>14.6g} records/s")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<32} {traced['per_layer'][m['name']]:>14.6g} {m['unit']}")
        for name, value in plain["properties"].items():
            print(f"  property {name}: {value}")
    print("environment " + json.dumps(plain["environment"]))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=[w["name"] for w in _spec()["workloads"]])
    which.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the working directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        p.error("--seed must be non-negative")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
