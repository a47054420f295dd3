"""One benchmark process: set up, then run timed passes of a workload.

Started by run.py in a fresh interpreter.  Set-up imports sparsekit
(numpy, scipy, yaml and the CLI with it), resolves every part's config and
runs one warm-up trial per part.  A pass runs every part of the workload
once, one after another, through ``run_experiment`` with the workload seed;
passes repeat until the time budget is spent.  Every pass uses the same
inputs, so its outputs must match the first pass's byte for byte (timing
columns excepted).

Modes:
  setup  set up, report the set-up time, exit
  time   untraced passes (end-to-end metrics)
  trace  untraced and traced passes alternating (per-layer metrics)

The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "time", "trace"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    return parser.parse_args(argv)


class Bench:
    def __init__(self, args):
        self.args = args
        self.parts = workloads.WORKLOADS[args.workload]
        self.dirs = {p.label: os.path.join(args.out, p.label) for p in self.parts}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = None
        self.accuracy = None

    def setup(self):
        import sparsekit.cli  # noqa: F401  (the CLI imports yaml and the harness)
        from sparsekit import experiments

        self.experiments = experiments
        self.specs = []
        for part in self.parts:
            spec = experiments.ExperimentSpec(
                experiment_id=part.experiment, seed=self.args.seed, trials=part.trials,
                out_dir=self.dirs[part.label], overrides=dict(part.overrides),
            )
            experiments.resolve_config(spec)
            self.specs.append(spec)
        self.run_pass(trials=1)

    def cleanup(self):
        for directory in [*self.dirs.values(), os.path.join(self.args.out, "warmup")]:
            shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(self.args.out)  # kept when it holds the span file
        except OSError:
            pass

    def run_pass(self, trials=None):
        """Run every part once; return ({label: seconds}, {label: error})."""
        errors = {}
        part_seconds = {}
        for part, spec in zip(self.parts, self.specs):
            if trials is not None:
                spec = self.experiments.ExperimentSpec(
                    experiment_id=spec.experiment_id, seed=spec.seed, trials=trials,
                    out_dir=os.path.join(self.args.out, "warmup", part.label),
                    overrides=spec.overrides,
                )
            t0 = time.perf_counter()
            try:
                self.experiments.run_experiment(spec)
            except Exception as exc:  # a part that raises is counted, not fatal
                errors[part.label] = f"{part.label}: raised {type(exc).__name__}: {exc}"
            part_seconds[part.label] = time.perf_counter() - t0
        return part_seconds, errors

    def check_pass(self, errors):
        """Check the outputs of the pass just run and count its failures."""
        failures = dict(errors)
        digests = {}
        for part in self.parts:
            if part.label in failures:
                continue
            problems, digests[part.label] = workloads.check_part(part, self.dirs[part.label])
            if problems:
                failures[part.label] = "; ".join(problems)
        if self.first_digests is None:
            self.first_digests = digests
            if not failures:
                self.accuracy, problems = workloads.accuracy(self.args.workload, self.dirs)
                for label, items in problems.items():
                    failures[label] = "; ".join(items)
        else:
            for label, digest in digests.items():
                if label not in failures and digest != self.first_digests.get(label):
                    failures[label] = f"{label}: outputs differ from the first pass"
        self.attempted += len(self.parts)
        self.failed += len(failures)
        for text in failures.values():
            if len(self.problems) < 20:
                self.problems.append(text)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, args.src)
    bench = Bench(args)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        unintercepted = tracer.unintercepted(bench.setup)
    else:
        bench.setup()
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time compares.
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"setup_s": setup_s, "environment": environment()}
    if args.mode == "setup":
        bench.cleanup()
        print(json.dumps(result))
        return 0

    # part label -> seconds of each run, for untraced and traced passes
    untraced, traced = {}, {}
    passes = {False: 0, True: 0}
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and passes[True] < passes[False]
        if trace_this:
            tracer.install()
            tracer.begin_pass(keep_spans=not passes[True])
        try:
            parts, errors = bench.run_pass()
        finally:
            if trace_this:
                tracer.end_pass()
                tracer.uninstall()
        passes[trace_this] += 1
        for label, seconds in parts.items():
            (traced if trace_this else untraced).setdefault(label, []).append(seconds)
        bench.check_pass(errors)
        if time.perf_counter() >= deadline and (tracer is None or passes[True]):
            break

    result.update(
        wall_s=regeneration_time(untraced),
        passes=passes[False],
        part_seconds=untraced,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=bench.attempted,
        failed=bench.failed,
        problems=bench.problems,
        accuracy=bench.accuracy,
    )
    if tracer is not None:
        from metrics import layer_metrics

        values, tails = layer_metrics(tracer)
        result.update(
            traced_wall_s=regeneration_time(traced),
            traced_passes=passes[True],
            traced_part_seconds=traced,
            unintercepted=unintercepted,
            layers=values,
            tail_percentiles=tails,
        )
        write_spans(tracer, os.path.join(args.out, "spans.csv"))
    bench.cleanup()
    print(json.dumps(result))
    return 0


def environment():
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def regeneration_time(part_seconds):
    """Seconds to regenerate every part once, each at its median run."""
    return sum(statistics.median(runs) for runs in part_seconds.values())


def write_spans(tracer, path):
    with open(path, "w") as fh:
        fh.write("span,parent,layer,function,key,start_s,end_s\n")
        origin = tracer.spans[0][5] if tracer.spans else 0.0
        for span, parent, layer, name, key, start, end in tracer.spans:
            fh.write(f"{span},{parent},{layer},{name},{key},{start - origin!r},{end - origin!r}\n")


if __name__ == "__main__":
    sys.exit(main())
