"""sparsekit benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 50 --trace 0

Run from the root of a sparsekit checkout; the package is imported from
``src/`` of that checkout.  Workers are fresh interpreters with
OMP_NUM_THREADS and OPENBLAS_NUM_THREADS set to the number of usable CPUs.

--trace 0  end-to-end metrics of untraced passes: set-up time (median over
           several fresh interpreters), median pass time, peak memory.
--trace 1  per-layer metrics from passes that alternate untraced and traced,
           plus the output accuracy figures; on solvers also the SCA solver
           times of a second traced worker with one BLAS thread.

Each run prints its environment on one line, writes a record with the
environment, all metrics and the spans of one traced pass under
``.perfbench_out/``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits with a
code other than 0, printing no result, when the checkout has no sparsekit
or a worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3  # fresh interpreters per end-to-end run; setup_s is their median
RUN_BUDGET_S = 170.0  # every worker of one run must finish within this
BLAS1_WORKLOAD = "solvers"
RECORD_ROOT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def spawn(args, mode, seconds, out, threads):
    """Run one worker to completion; return its parsed result."""
    timeout = args.budget_end - time.monotonic()
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads))
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--mode", mode, "--src", os.path.join(ROOT, "src"), "--out", out,
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: run exceeded {RUN_BUDGET_S:.0f} s in its {mode} worker")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def end_to_end(args, record_dir, threads):
    setups = [spawn(args, "setup", args.seconds, os.path.join(record_dir, f"setup{i}"), threads)
              for i in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "time", args.seconds, os.path.join(record_dir, "run"), threads)
    setup_times = [s["setup_s"] for s in setups] + [run["setup_s"]]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return values, run["attempted"], run["failed"], {"setup_samples_s": setup_times, "run": run}, run


def per_layer(args, record_dir, threads):
    run = spawn(args, "trace", args.seconds, os.path.join(record_dir, "trace"), threads)
    values = dict(run["layers"])
    values["trace_overhead_frac"] = run["traced_wall_s"] / run["wall_s"] - 1.0
    attempted, failed = run["attempted"], run["failed"]
    side = {"trace": run}
    blas1 = None
    if args.workload == BLAS1_WORKLOAD:
        # The same traced run with one BLAS thread, as a single-thread baseline.
        blas1 = spawn(args, "trace", max(1, args.seconds // 2),
                      os.path.join(record_dir, "trace-blas1"), 1)
        attempted += blas1["attempted"]
        failed += blas1["failed"]
        side["trace_blas1"] = blas1
    for name in metrics.BLAS1:
        values[name] = blas1["layers"][name.removesuffix(".blas1")] if blas1 else 0.0
    accuracy = run["accuracy"] or {}
    for name, _ in metrics.ACCURACY:
        values[name] = accuracy.get(name, 0.0)
    values["failed_frac"] = failed / attempted
    return values, attempted, failed, side, run


def main(argv=None):
    args = parse_args(argv)
    args.budget_end = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "sparsekit", "__init__.py")):
        print(f"perfbench: no sparsekit package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    if declared != (list(metrics.END_TO_END), metrics.per_layer()):
        print("perfbench: BENCHMARK.json metrics differ from perfbench/metrics.py",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    record_dir = os.path.join(RECORD_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(record_dir, ignore_errors=True)
    os.makedirs(record_dir)

    measure = per_layer if args.trace else end_to_end
    values, attempted, failed, side, run = measure(args, record_dir, threads)
    units = dict(declared[1] if args.trace else declared[0])
    environment = dict(run["environment"], commit=git_commit(ROOT))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment, "metrics": values, **side}
    with open(os.path.join(record_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    problems = [p for run in side.values() if isinstance(run, dict)
                for p in run.get("problems", [])]
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
