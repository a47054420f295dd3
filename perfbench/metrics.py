"""Metric names, units and the per-layer values drawn from a traced run.

The lists here and the ``end_to_end`` / ``per_layer`` lists of
BENCHMARK.json name the same metrics in the same order; run.py refuses to
print a result whose names differ from BENCHMARK.json.
"""

import math
import statistics

from tracer import LAYERS

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Hot public functions, "function" or "function.split-key" (see tracer.SPLITS).
HOT = {
    "ofdm": ("estimate_mimat.comb", "estimate_mimat.guarded", "estimate_linear",
             "ofdm_link", "equalize", "nearest_symbols"),
    "sca": tuple(f"{f}.{n}" for f in ("matching_pursuit", "simplex_solve", "focuss", "ide", "sl0")
                 for n in ("n64", "n192")),
    "sampling": ("imat", "iterative_reconstruct", "chebyshev_accelerate", "conjugate_gradient"),
    "codes": ("elp_erasure_decode", "conv_erasure_decode", "conv_impulsive_decode",
              "conv_parity_check"),
    "spectral": ("music", "pisarenko", "prony", "sample_covariance"),
    "arrays": ("simulate_snapshots", "mdl_enumerate", "snapshot_covariance"),
    "experiments": ("run_experiment",),
}
# Call counts these equal by construction: run_experiment runs once per part,
# conv_parity_check once per conv_impulsive_decode call.
NO_CALLS = {"experiments.run_experiment", "codes.conv_parity_check"}
TAIL = ("ofdm.estimate_mimat.comb", "ofdm.estimate_mimat.guarded") + tuple(
    f"sca.{f}.n192" for f in ("matching_pursuit", "simplex_solve", "focuss", "ide", "sl0")
)
# Solvers whose returned SolverReports are read; "function" pools every
# split key, "function.key" takes one.
REPORTS = ("ofdm.estimate_mimat.comb", "ofdm.estimate_mimat.guarded",
           "sca.matching_pursuit", "sca.basis_pursuit", "sca.focuss", "sca.ide", "sca.sl0",
           "sampling.imat", "codes.conv_impulsive_decode")
FLAG_LAYERS = ("sampling", "codes", "sca", "ofdm")
BLAS1 = tuple(f"sca.{f}.n192.ms_p50.blas1"
              for f in ("matching_pursuit", "simplex_solve", "focuss", "ide", "sl0"))
ACCURACY = (
    ("mimat_ser", "frac"),
    ("support_ok_frac", "frac"),
    ("snr_db_median", "dB"),
    ("fig7_m_min_sum", "samples"),
    ("mdl_correct_frac", "frac"),
    ("music_freq_err", "cycles/sample"),
    ("failed_frac", "frac"),
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def per_layer():
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                  (f"{layer}.errors", "count")]
    for layer, functions in HOT.items():
        for function in functions:
            name = f"{layer}.{function}"
            if name not in NO_CALLS:
                names.append((f"{name}.calls", "count"))
            names.append((f"{name}.ms_p50", "ms"))
    names += [(f"{name}.ms_tail", "ms") for name in TAIL]
    for name in REPORTS:
        names += [(f"{name}.iters_mean", "count"), (f"{name}.converged_frac", "frac")]
    names += [(f"{layer}.flags", "count") for layer in FLAG_LAYERS]
    names.append(("trace_overhead_frac", "frac"))
    names += [(name, "ms") for name in BLAS1]
    names += list(ACCURACY)
    return names


def _nearest_rank(ordered, percentile):
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def tail(durations):
    """(percentile, value): the highest percentile with at least ten calls
    beyond it, or the median when there are too few calls."""
    ordered = sorted(durations)
    for percentile in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - percentile / 100.0) >= 10:
            return percentile, _nearest_rank(ordered, percentile)
    return 50.0, _nearest_rank(ordered, 50.0)


def _select(table, name):
    """Entries of a (layer, function, key) table matching "layer.function[.key]"."""
    layer, rest = name.split(".", 1)
    function, _, key = rest.partition(".")
    return [v for (l, f, k), v in table.items() if l == layer and f == function and key in ("", k)]


def layer_metrics(tracer):
    """Per-layer metric values of the traced passes, and side information."""
    passes = tracer.passes
    values = {}
    for layer in LAYERS:
        for field in ("calls", "self_s", "errors"):
            values[f"{layer}.{field}"] = statistics.median(p[field].get(layer, 0) for p in passes)
    tails = {}
    for layer, functions in HOT.items():
        for function in functions:
            name = f"{layer}.{function}"
            durations = [d for ds in _select(tracer.durations, name) for d in ds]
            if name not in NO_CALLS:
                values[f"{name}.calls"] = len(durations) / len(passes)
            values[f"{name}.ms_p50"] = 1e3 * statistics.median(durations) if durations else 0.0
            if name in TAIL:
                percentile, value = tail(durations) if durations else (50.0, 0.0)
                values[f"{name}.ms_tail"] = 1e3 * value
                tails[name] = percentile
    for name in REPORTS:
        stats = _select(tracer.report_stats, name)
        reports = sum(s[0] for s in stats)
        values[f"{name}.iters_mean"] = sum(s[1] for s in stats) / reports if reports else 0.0
        values[f"{name}.converged_frac"] = sum(s[2] for s in stats) / reports if reports else 0.0
    for layer in FLAG_LAYERS:
        values[f"{layer}.flags"] = statistics.median(p["flags"].get(layer, 0) for p in passes)
    return values, tails
