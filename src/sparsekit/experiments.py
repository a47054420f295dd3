"""Config-driven experiment runner with a fixed registry of scenarios.

Every experiment is a pure function of (params, seed, trials) writing
plot-ready CSV rows; the run manifest records the resolved configuration
and output digests so any artifact can be regenerated byte-for-byte
(timing columns excepted; see fig31/fig32).
"""

import dataclasses
import datetime
import hashlib
import json
import math

import numpy as np

from . import __version__, codes, ofdm, sampling, sca, spectral
from .core import RandomSource, SupportSet, detected_support, snr_db, write_csv


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    experiment_id: str
    seed: int = 0
    trials: int = None  # None: registry default
    out_dir: str = "."
    overrides: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class RunManifest:
    toolkit_version: str
    experiment_id: str
    config: dict
    seed: int
    started: str
    finished: str
    outputs: dict  # filename -> sha256 of contents


def _median_trace(traces, length):
    padded = np.full((len(traces), length), np.nan)
    for i, tr in enumerate(traces):
        tr = np.asarray(tr, dtype=float)[:length]
        padded[i, : tr.size] = tr
        if tr.size < length:
            padded[i, tr.size :] = tr[-1]
    return np.median(padded, axis=0)


def _sampled_instance(n, bins, m, rng):
    """Complex Gaussian DFT coefficients on bins, then m distinct random
    sample times: (x, observed, time-sample mask)."""
    spectrum = np.zeros(n, dtype=complex)
    spectrum[bins] = rng.complex_normal(len(bins))
    x = np.fft.ifft(spectrum) * math.sqrt(n)
    times = np.sort(rng.choice(n, size=m, replace=False))
    observed = np.zeros(n, dtype=complex)
    observed[times] = x[times]
    return x, observed, sampling.MaskSpec("time-sample", SupportSet(times, n))


def _sparse_time_instance(n, k, m, rng):
    """_sampled_instance on k distinct random bins, drawn first."""
    return _sampled_instance(n, np.sort(rng.choice(n, size=k, replace=False)), m, rng)


def run_fig4(params, seed, trials):
    """SNR vs iteration for plain/Chebyshev/CG on a random-sampled bandpass signal."""
    n = params["n"]
    iters = params["iterations"]
    band = np.arange(params["band_start"], params["band_stop"])
    m = int(round(params["osr"] * band.size))
    fmask = sampling.MaskSpec("frequency-support", SupportSet(band, n))
    traces = {"plain": [], "chebyshev": [], "cg": []}
    for t in range(trials):
        rng = RandomSource(seed, stream=t + 1)
        x, observed, smask = _sampled_instance(n, band, m, rng)
        cfg = sampling.IterationConfig(max_iters=iters, eps=1e-300)
        _, rep = sampling.iterative_reconstruct(observed, smask, fmask, cfg, reference=x)
        traces["plain"].append(rep.snrs)
        _, rep = sampling.chebyshev_accelerate(observed, smask, fmask, cfg, reference=x)
        traces["chebyshev"].append(rep.snrs)
        _, rep = sampling.cg_accelerate(observed, smask, fmask, cfg, reference=x)
        traces["cg"].append(rep.snrs)
    med = {k: _median_trace(v, iters) for k, v in traces.items()}
    rows = [
        (i + 1, med["plain"][i], med["chebyshev"][i], med["cg"][i])
        for i in range(iters)
    ]
    return {"fig4.csv": (["iteration", "plain_snr_db", "chebyshev_snr_db", "cg_snr_db"], rows)}


def run_fig6(params, seed, trials):
    """IMAT SNR vs iteration at several sampling rates over the sparsity count."""
    n, k = params["n"], params["k"]
    iters = params["iterations"]
    factors = params["rate_factors"]
    columns = {}
    for factor in factors:
        m = int(factor * k)
        traces = []
        for t in range(trials):
            rng = RandomSource(seed, stream=1000 * factor + t)
            x, observed, smask = _sparse_time_instance(n, k, m, rng)
            cfg = sampling.ImatConfig(max_iters=iters, alpha=params["alpha"], eps=1e-300)
            _, _, rep = sampling.imat(observed, smask, cfg=cfg, reference=x)
            traces.append(rep.snrs)
        columns[factor] = _median_trace(traces, iters)
    header = ["iteration"] + [f"snr_db_rate_{f}x" for f in factors]
    rows = [
        tuple([i + 1] + [columns[f][i] for f in factors]) for i in range(iters)
    ]
    return {"fig6.csv": (header, rows)}


def fig7_recovered(n, k, m, rng):
    """One trial of the sparse-recovery success experiment (100 dB criterion)."""
    x, observed, smask = _sparse_time_instance(n, k, m, rng)
    cfg = sampling.ImatConfig(alpha=0.1, max_iters=300, refine_support=True)
    est, _, _ = sampling.imat(observed, smask, cfg=cfg)
    return snr_db(x, est) >= 100.0


def run_fig7(params, seed, trials):
    """Minimal sample count for 80% perfect recovery vs sparsity."""
    n = params["n"]
    rows = []
    for k in params["k_values"]:
        target = int(round(k * math.log2(n / k)))
        step = max(2, k // 4)
        m = max(2 * k, step)
        found = None
        while m <= n:
            wins = sum(
                fig7_recovered(n, k, m, RandomSource(seed, stream=7_000_000 + 1000 * k + 17 * m + t))
                for t in range(trials)
            )
            if wins >= math.ceil(0.8 * trials):
                found = m
                break
            m += step
        rows.append((k, found if found is not None else -1, target))
    return {"fig7.csv": (["k", "m_min", "k_log2_n_over_k"], rows)}


def run_fig10(params, seed, trials):
    """Block-code erasure recovery: bursts and scattered losses, DFT vs SDFT."""
    l, p, q = params["l"], params["p"], params["sdft_q"]
    n = l + p
    dft_code = codes.DftBlockCode(l=l, p=p, q=1)
    sdft_code = codes.DftBlockCode(l=l, p=p, q=q)
    rows = []
    for kind in ("burst", "scattered"):
        sizes = range(1, p + 1) if kind == "burst" else range(1, params["scatter_max"] + 1)
        base = 0 if kind == "burst" else 500_000
        for size in sizes:
            snrs = {1: [], q: []}
            for t in range(trials):
                rng = RandomSource(seed, stream=base + size * 1000 + t)
                msg = rng.standard_normal(l)
                if kind == "burst":
                    positions = np.arange(1, size + 1)
                else:
                    positions = np.sort(rng.choice(n, size=size, replace=False))
                erasures = SupportSet(positions, n)
                for code in (dft_code, sdft_code):
                    codeword = code.encode(msg)
                    received = codeword.copy()
                    received[positions] = 0.0
                    try:
                        repaired = codes.elp_erasure_decode(received, erasures, code)
                        snrs[code.q].append(min(snr_db(codeword, repaired), 300.0))
                    except codes.InstabilityError:
                        snrs[code.q].append(-math.inf)
            rows.append((kind, size, float(np.median(snrs[1])), float(np.median(snrs[q]))))
    return {
        "fig10.csv": (["kind", "erasures", "snr_dft_db", "snr_sdft_db"], rows)
    }


def run_fig15(params, seed, trials):
    """Convolutional erasure decoding SNR vs relative erasure rate."""
    code = codes.ConvCode(params["taps1"], params["taps2"])
    length = params["input_length"]
    rows = []
    for rate in params["rates"]:
        values = []
        for t in range(trials):
            rng = RandomSource(seed, stream=int(rate * 1000) * 100 + t)
            x = rng.uniform(-1.0, 1.0, length)
            y = codes.conv_encode(x, code)
            capacity = y.size // 2
            count = int(rate * capacity)
            positions = np.sort(rng.choice(y.size, size=count, replace=False))
            received = y.copy()
            received[positions] = 0.0
            est, _ = codes.conv_erasure_decode(
                received, SupportSet(positions, y.size), code,
                max_iters=params["cg_iterations"],
            )
            values.append(min(snr_db(x, est), 300.0))
        rows.append((rate, float(np.mean(values))))
    return {"fig15.csv": (["relative_rate", "snr_db"], rows)}


def run_fig17(params, seed, trials):
    """Impulsive-noise convolutional decoding vs impulse variance ratio."""
    code = codes.ConvCode(params["taps1"], params["taps2"])
    length = params["input_length"]
    rows = []
    for ratio in params["variance_ratios"]:
        hits = 0
        snrs = []
        for t in range(trials):
            rng = RandomSource(seed, stream=int(ratio * 10) * 1000 + t)
            x = rng.uniform(-1.0, 1.0, length)
            y = codes.conv_encode(x, code)
            sigma_y = float(np.std(y))
            positions = np.sort(rng.choice(y.size, size=params["impulses"], replace=False))
            noisy = y + params["awgn_floor"] * sigma_y * rng.standard_normal(y.size)
            noisy[positions] += math.sqrt(ratio) * sigma_y * rng.standard_normal(len(positions))
            est, nu, _ = codes.conv_impulsive_decode(
                noisy, code, alpha=params["alpha"], max_iters=params["iterations"],
                relax=params["relax"],
            )
            hits += set(positions) <= set(detected_support(nu, tol=1e-3))
            snrs.append(snr_db(x, est))
        rows.append((ratio, hits / trials, float(np.median(snrs))))
    return {"fig17.csv": (["variance_ratio", "detection_rate", "snr_db"], rows)}


FIG18_TONES = spectral.SpectralModel(
    frequencies=np.array([0.1, 0.2, 0.32, 0.45]),
    amplitudes=np.ones(4),
    phases=np.array([0.0, 1.0, -2.0, 0.5]),
)


def _fig18_signal(m, snr_db_value, rng, model=FIG18_TONES):
    clean = model.synthesize(m)
    power = float(np.mean(np.abs(clean) ** 2))
    sigma = math.sqrt(power / 10 ** (snr_db_value / 10.0))
    return clean + rng.complex_normal(m, scale=sigma)


def _fig18_error(estimated, truth):
    est = np.sort(np.asarray(estimated, dtype=float) % 1.0)
    errors = []
    for f in truth:
        if est.size == 0:
            errors.append(0.5)
            continue
        d = np.abs(est - f)
        errors.append(float(np.min(np.minimum(d, 1.0 - d))))
    return float(np.mean(errors))


def run_fig18(params, seed, trials):
    """Line-spectrum estimation accuracy of Prony, Pisarenko, and MUSIC."""
    m = params["samples"]
    snr = params["snr_db"]
    k = FIG18_TONES.k
    grid = spectral.default_grid(params["grid_points"])
    errors = {"prony": [], "pisarenko": [], "music": []}
    for t in range(trials):
        rng = RandomSource(seed, stream=t + 1)
        y = _fig18_signal(m, snr, rng)
        model = spectral.prony(y[: 2 * k], k)
        errors["prony"].append(_fig18_error(model.frequencies.real, FIG18_TONES.frequencies))
        freqs, _, _ = spectral.pisarenko(y, k)
        errors["pisarenko"].append(_fig18_error(freqs, FIG18_TONES.frequencies))
        cov = spectral.sample_covariance(y, params["music_dimension"])
        _, music_freqs, _ = spectral.music(cov, k, grid)
        errors["music"].append(_fig18_error(music_freqs, FIG18_TONES.frequencies))
    rows = [
        (name, float(np.median(vals)), float(np.mean(vals)))
        for name, vals in errors.items()
    ]
    rng = RandomSource(seed, stream=0)
    pseudo, _, _ = spectral.music(
        spectral.sample_covariance(_fig18_signal(m, snr, rng), params["music_dimension"]),
        k, grid,
    )
    spectrum_rows = list(zip(grid, pseudo))
    return {
        "fig18_errors.csv": (["method", "median_freq_error", "mean_freq_error"], rows),
        "fig18_pseudospectrum.csv": (["frequency", "power"], spectrum_rows),
    }


def run_fig20(params, seed, trials):
    """MDL source-count detection rates across SNR."""
    from . import arrays

    n, k, m = params["sensors"], params["sources"], params["snapshots"]
    rows = []
    for snr in params["snr_grid_db"]:
        under = correct = over = 0
        for t in range(trials):
            rng = RandomSource(seed, stream=int(snr) * 1000 + t + 100000)
            scenario = arrays.UlaScenario(
                sensors=n, spacing=0.5,
                doas=np.array(params["doas"]),
                source_cov=10 ** (snr / 10.0) * np.eye(k),
                noise_var=1.0, snapshots=m,
            )
            x = arrays.simulate_snapshots(scenario, rng)
            k_hat = arrays.mdl_enumerate(arrays.snapshot_covariance(x)).estimated_k
            under += k_hat < k
            correct += k_hat == k
            over += k_hat > k
        rows.append((snr, under / trials, correct / trials, over / trials))
    return {
        "fig20.csv": (["snr_db", "rate_under", "rate_correct", "rate_over"], rows)
    }


BENCH_SOLVERS = ("omp", "bp", "focuss", "ide", "sl0")


def _bench_solve(name, problem):
    if name == "omp":
        return sca.matching_pursuit(problem, k_max=problem.shape[0] // 2,
                                    residual_tol=1e-8, orthogonal=True)
    if name == "bp":
        return sca.basis_pursuit(problem)
    if name == "focuss":
        return sca.focuss(problem, iters=20)
    if name == "ide":
        return sca.ide(problem, start_fractions=(0.7,))
    if name == "sl0":
        return sca.sl0(problem)
    raise ValueError(name)


def _bench_rows(n_grid, m_of_n, sigma_grid, trials, seed, p, sigma_on, sigma_off):
    rows = []
    for n_index, n in enumerate(n_grid):
        m = m_of_n(n)
        for s_index, sigma_nu in enumerate(sigma_grid):
            stats = {name: [0.0, 0, 0.0] for name in BENCH_SOLVERS}  # mse, ok, secs
            k_true_total = 0
            for t in range(trials):
                rng = RandomSource(seed, stream=(n_index * 64 + s_index) * 10_000 + t)
                problem = sca.bernoulli_gaussian_problem(
                    m, n, rng, p=p, sigma_on=sigma_on, sigma_off=sigma_off,
                    sigma_noise=sigma_nu,
                )
                truth = problem.true_source
                true_support = set(np.flatnonzero(np.abs(truth) > 10 * sigma_off))
                k_true_total += len(true_support)
                for name in BENCH_SOLVERS:
                    estimate, report = _bench_solve(name, problem)
                    nmse = float(
                        np.sum(np.abs(estimate - truth) ** 2) / max(np.sum(truth**2), 1e-300)
                    )
                    ok = true_support <= set(detected_support(estimate, tol=1e-3))
                    stats[name][0] += nmse
                    stats[name][1] += ok
                    stats[name][2] += report.wall_time
            for name in BENCH_SOLVERS:
                mse, ok, secs = stats[name]
                rows.append(
                    (name, n, m, round(k_true_total / trials, 2), sigma_nu, seed,
                     ok / trials, mse / trials, secs / trials)
                )
    return rows


BENCH_HEADER = ["solver", "n", "m", "k_true", "sigma_nu", "seed", "support_ok",
                "mse", "seconds"]


def run_fig31(params, seed, trials):
    """Solver accuracy vs observation noise on the Bernoulli-Gaussian model."""
    rows = _bench_rows(
        [params["n"]], lambda n: params["m"], params["sigma_grid"], trials, seed,
        params["p"], params["sigma_on"], params["sigma_off"],
    )
    return {"fig31.csv": (BENCH_HEADER, rows)}


def run_fig32(params, seed, trials):
    """Solver wall time vs the number of sources."""
    rows = _bench_rows(
        params["n_grid"], lambda n: n // 2, [params["sigma_nu"]], trials, seed,
        params["p"], params["sigma_on"], params["sigma_off"],
    )
    return {"fig32.csv": (BENCH_HEADER, rows)}


def _ofdm_config(params):
    return ofdm.OfdmConfig(
        n=params["carriers"],
        pilot_spacing=params["pilot_spacing"],
        guard_left=params["guard_left"],
        guard_right=params["guard_right"],
        cp_length=params["cp_length"],
        constellation=params["constellation"],
    )


def ser_sweep(cfg, profile, cnr_grid, blocks, seed, doppler_rho=None,
              estimators=("ideal", "linear", "mimat")):
    """Common Monte-Carlo SER machinery for the OFDM experiments.

    All estimators see the same received blocks (common random numbers), so
    SER ratios are far better conditioned than independent runs. Returns the
    symbol error count per (CNR, estimator); each CNR point decides
    blocks * cfg.data_carriers.size symbols.
    """
    results = {(c, e): 0 for c in cnr_grid for e in estimators}
    dc = cfg.data_carriers
    static_truth = ofdm.channel_frequency_response(profile, cfg) if doppler_rho is None else None
    for cnr in cnr_grid:
        mcfg = ofdm.MimatConfig(snr_linear=10 ** (cnr / 10.0))
        channel = None if doppler_rho is None else ofdm.TimeVaryingChannel(profile, doppler_rho)
        for b in range(blocks):
            rng = RandomSource(seed, stream=int(cnr * 10) * 100_000 + b)
            current = channel.step(rng) if channel else profile
            data = rng.integers(0, cfg.symbols().size, dc.size)
            tx = ofdm.map_symbols(data, cfg)
            rx = ofdm.ofdm_link(tx, current, cfg, cnr, rng)
            for name in estimators:
                if name == "ideal":
                    estimate = (static_truth if channel is None
                                else ofdm.channel_frequency_response(current, cfg))
                elif name == "linear":
                    estimate = ofdm.estimate_linear(rx, cfg)
                else:
                    _, estimate, _ = ofdm.estimate_mimat(rx, cfg, mcfg)
                eq, _ = ofdm.equalize(rx[dc], estimate[dc], "zf")
                decisions = ofdm.nearest_symbols(eq, cfg)
                results[(cnr, name)] += int(np.sum(decisions != data))
    return results


def run_fig39(params, seed, trials):
    """SER vs CNR for ideal, linear-interpolation, and MIMAT channel estimates."""
    cfg = _ofdm_config(params)
    profile = ofdm.brazil_d_like_profile()
    results = ser_sweep(cfg, profile, params["cnr_grid_db"], trials, seed)
    symbols = trials * cfg.data_carriers.size
    rows = [
        (cnr, name, *ofdm.ser_from_counts(results[(cnr, name)], symbols), trials)
        for cnr in params["cnr_grid_db"] for name in ("ideal", "linear", "mimat")
    ]
    return {"fig39.csv": (["cnr_db", "estimator", "ser", "ci_halfwidth", "seed_count"], rows)}


def run_fig40(params, seed, trials):
    """MIMAT SER vs CNR under per-symbol tap-gain drift."""
    cfg = _ofdm_config(params)
    profile = ofdm.brazil_d_like_profile()
    symbols = trials * cfg.data_carriers.size
    rows = []
    for rho in params["doppler_rho_grid"]:
        results = ser_sweep(
            cfg, profile, params["cnr_grid_db"], trials, seed,
            doppler_rho=rho, estimators=("mimat",),
        )
        rows.extend(
            (cnr, rho, *ofdm.ser_from_counts(results[(cnr, "mimat")], symbols), trials)
            for cnr in params["cnr_grid_db"]
        )
    return {"fig40.csv": (["cnr_db", "doppler_rho", "ser", "ci_halfwidth", "seed_count"], rows)}


@dataclasses.dataclass(frozen=True)
class ExperimentDef:
    description: str
    defaults: dict
    default_trials: int
    runner: callable


REGISTRY = {
    "fig4": ExperimentDef(
        "iterative vs Chebyshev vs CG reconstruction SNR, random-sampled bandpass signal",
        {"n": 128, "band_start": 20, "band_stop": 36, "osr": 1.0, "iterations": 100},
        20, run_fig4,
    ),
    "fig6": ExperimentDef(
        "IMAT SNR vs iterations at several sampling rates over the sparsity count",
        {"n": 256, "k": 8, "rate_factors": [2, 3, 4], "iterations": 60, "alpha": 0.2},
        20, run_fig6,
    ),
    "fig7": ExperimentDef(
        "minimal sample count for 80% perfect sparse recovery vs k log2(n/k)",
        {"n": 1024, "k_values": [4, 8, 16, 32]},
        20, run_fig7,
    ),
    "fig10": ExperimentDef(
        "burst erasure recovery of DFT block codes, plain vs sorted-DFT domain",
        {"l": 16, "p": 16, "sdft_q": 15, "scatter_max": 8},
        30, run_fig10,
    ),
    "fig15": ExperimentDef(
        "convolutional erasure decoding SNR vs relative erasure rate (CG decoder)",
        {"taps1": [1, 2, 3, 4, 5, 16], "taps2": [16, 5, 4, 3, 2, 1],
         "input_length": 50, "rates": [0.1, 0.3, 0.5, 0.7, 0.9], "cg_iterations": 30},
        30, run_fig15,
    ),
    "fig17": ExperimentDef(
        "impulsive-noise convolutional decoding vs impulse variance ratio",
        {"taps1": [1, 2, 3, 4, 5, 16], "taps2": [16, 5, 4, 3, 2, 1],
         "input_length": 50, "variance_ratios": [1, 2, 5, 10], "impulses": 3,
         "iterations": 300, "relax": 1.9, "alpha": 0.02, "awgn_floor": 0.01},
        50, run_fig17,
    ),
    "fig18": ExperimentDef(
        "line-spectrum estimation: Prony vs Pisarenko vs MUSIC at 5 dB, 1024 samples",
        {"samples": 1024, "snr_db": 5.0, "grid_points": 2048, "music_dimension": 16},
        50, run_fig18,
    ),
    "fig20": ExperimentDef(
        "MDL source enumeration rates vs SNR for a 6-element array",
        {"sensors": 6, "sources": 2, "snapshots": 1000, "doas": [-0.3, 0.4],
         "snr_grid_db": [-20, -15, -10, -5, 0, 5, 10]},
        100, run_fig20,
    ),
    "fig31": ExperimentDef(
        "sparse-solver accuracy vs observation noise, Bernoulli-Gaussian sources",
        {"n": 64, "m": 32, "p": 0.1, "sigma_on": 1.0, "sigma_off": 0.01,
         "sigma_grid": [0.001, 0.005, 0.01, 0.05, 0.1]},
        50, run_fig31,
    ),
    "fig32": ExperimentDef(
        "sparse-solver wall time vs source count, Bernoulli-Gaussian sources",
        {"n_grid": [32, 64, 128, 192], "p": 0.1, "sigma_on": 1.0,
         "sigma_off": 0.01, "sigma_nu": 0.01},
        10, run_fig32,
    ),
    "fig39": ExperimentDef(
        "OFDM SER vs CNR: ideal channel, linear interpolation, MIMAT",
        {"carriers": 256, "pilot_spacing": 4, "guard_left": 0, "guard_right": 0,
         "cp_length": 64, "constellation": "16qam",
         "cnr_grid_db": [15.0, 20.0, 25.0, 30.0]},
        150, run_fig39,
    ),
    "fig40": ExperimentDef(
        "MIMAT SER vs CNR under per-symbol channel drift",
        {"carriers": 256, "pilot_spacing": 4, "guard_left": 0, "guard_right": 0,
         "cp_length": 64, "constellation": "16qam",
         "cnr_grid_db": [20.0, 25.0], "doppler_rho_grid": [1.0, 0.999, 0.99]},
        150, run_fig40,
    ),
}


def list_experiments():
    """Registry dump: id, description, defaults, default trial count."""
    return [
        {"id": key, "description": d.description, "defaults": dict(d.defaults),
         "trials": d.default_trials}
        for key, d in sorted(REGISTRY.items())
    ]


def resolve_config(spec):
    if spec.experiment_id not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown experiment {spec.experiment_id!r}; known: {known}")
    definition = REGISTRY[spec.experiment_id]
    config = dict(definition.defaults)
    for key, value in spec.overrides.items():
        if key not in config:
            raise ValueError(
                f"unknown parameter {key!r} for {spec.experiment_id}; "
                f"valid: {sorted(config)}"
            )
        config[key] = value
    trials = spec.trials if spec.trials is not None else definition.default_trials
    return definition, config, trials


def run_experiment(spec):
    """Execute a registered experiment; write CSVs and a JSON manifest."""
    import os

    definition, config, trials = resolve_config(spec)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    outputs = definition.runner(config, spec.seed, trials)
    os.makedirs(spec.out_dir, exist_ok=True)
    digests = {}
    for filename, (header, rows) in outputs.items():
        path = os.path.join(spec.out_dir, filename)
        write_csv(path, header, rows)
        with open(path, "rb") as fh:
            digests[filename] = hashlib.sha256(fh.read()).hexdigest()
    manifest = RunManifest(
        toolkit_version=__version__,
        experiment_id=spec.experiment_id,
        config={"params": config, "trials": trials},
        seed=spec.seed,
        started=started,
        finished=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=digests,
    )
    manifest_path = os.path.join(spec.out_dir, f"{spec.experiment_id}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
    return manifest
