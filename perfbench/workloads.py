"""Workload definitions, output checks and accuracy metrics.

A workload is a list of parts.  A part is one registered experiment at a
stated configuration and trial count, run through the public
``sparsekit.experiments.run_experiment``.  Trial counts give the parts of a
workload comparable shares of its timed pass.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import statistics


@dataclasses.dataclass(frozen=True)
class Part:
    label: str  # also the output directory of the part
    experiment: str
    trials: int
    overrides: dict = dataclasses.field(default_factory=dict)


FIG39_CNR_GRID_DB = (15.0, 20.0, 25.0, 30.0)  # the registry grid


def _fig39(geometry, trials, overrides):
    """fig39 as one part per CNR point.  fig39 draws each block from
    (seed, CNR, block index), so the parts together regenerate the inputs of
    the whole grid, in runs short enough to time between bursts of other
    load on a shared host."""
    return tuple(
        Part(f"fig39-{geometry}-{cnr:g}dB", "fig39", trials, {**overrides, "cnr_grid_db": [cnr]})
        for cnr in FIG39_CNR_GRID_DB
    )


WORKLOADS = {
    # MIMAT and the five SCA solvers.  The registry geometry of fig39 has
    # comb pilots and no guards, so its pilot dictionary is a 64-point DFT;
    # the guarded geometry (the OfdmConfig defaults) is not, and MIMAT
    # refines its support far less often there.  fig31 runs the solvers at
    # n=64, fig32 up to n=192.
    "solvers": (
        _fig39("comb", 40, {})
        + _fig39("guarded", 80, {"guard_left": 10, "guard_right": 9})
        + (Part("fig31", "fig31", 12), Part("fig32", "fig32", 4))
    ),
    # Sampling recovery and codes, with imat (fig6, fig7) beside
    # conv_impulsive_decode (fig17), the same threshold loop in two modules;
    # then small-matrix eigen work: MUSIC/Pisarenko/Prony on 16x16
    # covariances (fig18) and MDL on 6x6 covariances (fig20).
    "recovery": (
        Part("fig4", "fig4", 16),
        Part("fig6", "fig6", 60),
        Part("fig7", "fig7", 3),
        Part("fig10", "fig10", 30),
        Part("fig15", "fig15", 100),
        Part("fig17", "fig17", 15),
        Part("fig18", "fig18", 200),
        Part("fig20", "fig20", 200),
    ),
}

# CSV files each experiment must write, besides its manifest.
OUTPUTS = {
    "fig4": ("fig4.csv",),
    "fig6": ("fig6.csv",),
    "fig7": ("fig7.csv",),
    "fig10": ("fig10.csv",),
    "fig15": ("fig15.csv",),
    "fig17": ("fig17.csv",),
    "fig18": ("fig18_errors.csv", "fig18_pseudospectrum.csv"),
    "fig20": ("fig20.csv",),
    "fig31": ("fig31.csv",),
    "fig32": ("fig32.csv",),
    "fig39": ("fig39.csv",),
    "fig40": ("fig40.csv",),
}

# Columns that may hold -inf: fig10 records a failed (unstable) decode so.
MAY_BE_MINUS_INF = {("fig10", "snr_dft_db"), ("fig10", "snr_sdft_db")}

# Wall-time columns, the one part of an output a fixed seed does not fix.
TIMING_COLUMNS = {"seconds"}

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def check_part(part, directory):
    """Problems with one part's written outputs, and the digest of its
    deterministic content (timing columns dropped)."""
    problems = []
    manifest_path = os.path.join(directory, f"{part.experiment}_manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{part.label}: manifest unreadable: {exc}"], None
    expected = set(OUTPUTS[part.experiment])
    listed = manifest.get("outputs", {})
    if set(listed) != expected:
        problems.append(f"{part.label}: manifest names {sorted(listed)}")
    digest = hashlib.sha256()
    for name in sorted(expected):
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
        except OSError as exc:
            problems.append(f"{part.label}: {name} missing: {exc}")
            continue
        if hashlib.sha256(payload).hexdigest() != listed.get(name):
            problems.append(f"{part.label}: {name} does not match its manifest digest")
        header, rows = read_csv(path)
        keep = [i for i, col in enumerate(header) if col not in TIMING_COLUMNS]
        digest.update(name.encode())
        for row in rows:
            digest.update(",".join(row[i] for i in keep).encode() + b"\n")
            for col, cell in zip(header, row):
                value = _number(cell)
                if value is None or math.isfinite(value):
                    continue
                if value == -math.inf and (part.experiment, col) in MAY_BE_MINUS_INF:
                    continue
                problems.append(f"{part.label}: {name} column {col} holds {cell}")
    return problems, digest.hexdigest()


def _column(rows, header, name):
    i = header.index(name)
    return [float(r[i]) for r in rows]


def _ofdm_accuracy(parts, dirs):
    """Pooled MIMAT SER, and per geometry a check at its top CNR."""
    from sparsekit import ofdm
    from sparsekit.experiments import REGISTRY

    errors = symbols = 0.0
    by_geometry = {}  # (guard_left, guard_right) -> {cnr: (part label, {estimator: ser})}
    for part in (p for p in parts if p.experiment == "fig39"):
        params = {**REGISTRY[part.experiment].defaults, **part.overrides}
        cfg = ofdm.OfdmConfig(
            n=params["carriers"], pilot_spacing=params["pilot_spacing"],
            guard_left=params["guard_left"], guard_right=params["guard_right"],
            cp_length=params["cp_length"], constellation=params["constellation"],
        )
        per_cnr = cfg.data_carriers.size * part.trials
        by_cnr = by_geometry.setdefault((cfg.guard_left, cfg.guard_right), {})
        header, rows = read_csv(os.path.join(dirs[part.label], "fig39.csv"))
        for row in rows:
            cnr, name, ser = float(row[0]), row[1], float(row[header.index("ser")])
            if name == "mimat":
                errors += ser * per_cnr
                symbols += per_cnr
            by_cnr.setdefault(cnr, (part.label, {}))[1][name] = ser
    problems = {}
    for by_cnr in by_geometry.values():
        cnr = max(by_cnr)
        label, ser = by_cnr[cnr]
        if not ser["mimat"] < ser["linear"]:
            problems[label] = [f"{label}: MIMAT SER {ser['mimat']} not below linear "
                               f"SER {ser['linear']} at {cnr} dB"]
    return {"mimat_ser": errors / symbols}, problems


def _sca_accuracy(parts, dirs):
    ok = count = 0.0
    for part in (p for p in parts if p.experiment in ("fig31", "fig32")):
        header, rows = read_csv(os.path.join(dirs[part.label], f"{part.experiment}.csv"))
        for value in _column(rows, header, "support_ok"):
            ok += value * part.trials
            count += part.trials
    return {"support_ok_frac": ok / count}, {}


def _recovery_accuracy(parts, dirs):
    def load(label, name):
        return read_csv(os.path.join(dirs[label], name))

    snrs = []
    for label in ("fig4", "fig6"):
        header, rows = load(label, f"{label}.csv")
        snrs.extend(float(v) for v in rows[-1][1:])  # final iteration
    header, rows = load("fig10", "fig10.csv")
    snrs += _column(rows, header, "snr_dft_db") + _column(rows, header, "snr_sdft_db")
    for label in ("fig15", "fig17"):
        header, rows = load(label, f"{label}.csv")
        snrs += _column(rows, header, "snr_db")
    header, rows = load("fig7", "fig7.csv")
    m_min = _column(rows, header, "m_min")
    problems = {}
    if any(m < 0 for m in m_min):
        problems["fig7"] = ["fig7: no sample count reached 80% recovery for some k"]
    return {"snr_db_median": statistics.median(snrs), "fig7_m_min_sum": sum(m_min)}, problems


def _subspace_accuracy(parts, dirs):
    header, rows = read_csv(os.path.join(dirs["fig20"], "fig20.csv"))
    problems = {}
    for row in rows:
        total = sum(float(row[header.index(c)]) for c in ("rate_under", "rate_correct", "rate_over"))
        if abs(total - 1.0) > 1e-9:
            problems.setdefault("fig20", []).append(f"fig20: rates sum to {total} at {row[0]} dB")
    correct = statistics.mean(_column(rows, header, "rate_correct"))
    header, rows = read_csv(os.path.join(dirs["fig18"], "fig18_errors.csv"))
    music = next(float(r[1]) for r in rows if r[0] == "music")
    return {"mdl_correct_frac": correct, "music_freq_err": music}, problems


_ACCURACY = {
    "solvers": (_ofdm_accuracy, _sca_accuracy),
    "recovery": (_recovery_accuracy, _subspace_accuracy),
}


def accuracy(workload, dirs):
    """(accuracy metrics, {part label: [problems]}) from one pass's outputs."""
    values, problems = {}, {}
    for measure in _ACCURACY[workload]:
        more_values, more_problems = measure(WORKLOADS[workload], dirs)
        values.update(more_values)
        problems.update(more_problems)
    return values, problems
