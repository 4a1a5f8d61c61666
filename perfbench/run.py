"""Benchmark for stylemetric: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {prep,fit,explore,serve} --seed N \
        --seconds S --trace {0,1}

Run it from a checkout of the repository; it uses the program's sources in
``src/`` and works in ``.perfbench/`` at the checkout root. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics. perfbench/README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("prep", "fit", "explore", "serve")
NPROC = len(os.sched_getaffinity(0))
# Children and this process see one fixed thread setting: the program's own
# worker pool at its default of one thread, and single-threaded BLAS, which
# keeps timings steadier on a shared machine than one BLAS thread per core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the harness's own smoke test")
    return parser.parse_args(argv)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "thread_env": {**THREAD_ENV, "STYLEMETRIC_THREADS": None},
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "stylemetric" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.pop("STYLEMETRIC_THREADS", None)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import stylemetric
    import workloads

    if Path(stylemetric.__file__).resolve().parent != ROOT / "src" / "stylemetric":
        print(f"error: imported stylemetric from {stylemetric.__file__}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ctx = workloads.Context(ROOT, args.workload, args.seed, args.seconds, args.size, work)
        outcome = workloads.run(ctx, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, absent = {}, []
    for entry in wanted:
        name = entry["name"]
        if name in outcome.absent or name.rsplit(".", 1)[0] in outcome.absent:
            absent.append(name)
        metrics[name] = {"value": float(outcome.metrics.get(name, 0.0)), "unit": entry["unit"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "environment": environment_record(), "details": outcome.details,
              "problems": outcome.problems, "absent": absent, "metrics": metrics}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request"],
             "spans": outcome.spans}) + "\n")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("details " + json.dumps(outcome.details, sort_keys=True))
    for problem in outcome.problems:
        print(f"problem: {problem}")
    for name in absent:
        print(f"absent: {name}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.failed == 0 and not outcome.problems,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
