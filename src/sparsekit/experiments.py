"""Config-driven experiment runner with a fixed registry of scenarios.

Every experiment is a pure function of (params, seed, trials) writing
plot-ready CSV rows; the run manifest records the resolved configuration
and output digests so any artifact can be regenerated byte-for-byte
(timing columns excepted; see fig31/fig32).
"""

import dataclasses
import datetime
import hashlib
import itertools
import json
import math
import numbers
import os
import platform

import numpy as np

from . import __version__, codes, ofdm, sampling, sca, spectral
from .core import (RandomSource, SupportSet, blas_threads, detected_support, snr_db, write_csv,
                   _unitary_dft)


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
    environment: dict  # what the runner ran on; see _environment


class _StreamLedger:
    """The RandomSources of one run, each stream claimed by one grid point.

    A runner claims the streams of each grid point under a label naming
    that point. Two points that claim one stream would share their draws,
    so the second claim raises ValueError naming both; points that share
    draws on purpose claim under one label. A claim registers all its
    streams at once, so a collision raises whether or not every trial
    runs, and builds each source only as it is read.
    """

    def __init__(self, seed):
        self.seed = seed
        self._owners = {}

    def claim(self, label, streams):
        """Sources for the streams of the grid point label, in order."""
        streams = [int(stream) for stream in streams]
        for stream in streams:
            owner = self._owners.setdefault(stream, label)
            if owner != label:
                raise ValueError(f"grid points {owner} and {label} both draw stream {stream}")
        return (RandomSource(self.seed, stream) for stream in streams)


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
    sample times: (x, observed, sample times as a SupportSet)."""
    spectrum = np.zeros(n, dtype=complex)
    spectrum[bins] = rng.complex_normal(len(bins))
    x = _unitary_dft(spectrum, inverse=True)
    times = np.sort(rng.choice(n, size=m, replace=False))
    observed = np.zeros(n, dtype=complex)
    observed[times] = x[times]
    return x, observed, SupportSet(times, n)


def _sparse_time_instance(n, k, m, rng):
    """_sampled_instance on k distinct random bins, drawn first."""
    return _sampled_instance(n, np.sort(rng.choice(n, size=k, replace=False)), m, rng)


_STACK_BYTES = 1024 * 1024  # what one stack of trials may add to a run's peak


def _stacks(sources, row_bytes):
    """Consecutive lists of a claim's sources, each at most
    max(1, _STACK_BYTES // row_bytes) long: the stacks a runner solves, where
    row_bytes is what one more row adds to the runner's allocation peak, as
    measured with tracemalloc (README, "Stacks of trials"). A list's
    sources are drawn only when the caller asks for that list."""
    rows = max(1, _STACK_BYTES // row_bytes)
    sources = iter(sources)
    while stack := list(itertools.islice(sources, rows)):
        yield stack


def run_fig4(params, seed, trials):
    """SNR vs iteration for plain/Chebyshev/CG on a random-sampled bandpass signal.

    The trials draw from their own streams, in order, and each solver
    solves them in stacks (see _stacks)."""
    n = params["n"]
    iters = params["iterations"]
    band = np.arange(params["band_start"], params["band_stop"])
    m = int(round(params["osr"] * band.size))
    support = SupportSet(band, n)
    solvers = {"plain": sampling.iterative_reconstruct,
               "chebyshev": sampling.chebyshev_accelerate,
               "cg": sampling.cg_accelerate}
    traces = {name: [] for name in solvers}
    sources = _StreamLedger(seed).claim("all trials", (t + 1 for t in range(trials)))
    for stack in _stacks(sources, 160 * n + 192 * iters + 2048):
        signals, observed, times = zip(*(_sampled_instance(n, band, m, rng) for rng in stack))
        for name, solver in solvers.items():
            reports = solver(np.array(observed), times, support, max_iters=iters, eps=1e-300,
                             reference=np.array(signals))[1]
            traces[name].extend(np.array(rep.snrs) for rep in reports)
    med = {name: _median_trace(traces[name], iters) for name in solvers}
    rows = [
        (i + 1, med["plain"][i], med["chebyshev"][i], med["cg"][i])
        for i in range(iters)
    ]
    return {"fig4.csv": (["iteration", "plain_snr_db", "chebyshev_snr_db", "cg_snr_db"], rows)}


def run_fig6(params, seed, trials):
    """IMAT SNR vs iteration at several sampling rates over the sparsity count.

    The trials of one rate draw from their own streams, in order, and are
    solved in stacks (see _stacks)."""
    n, k = params["n"], params["k"]
    iters = params["iterations"]
    factors = params["rate_factors"]
    ledger = _StreamLedger(seed)
    columns = {}
    for factor in factors:
        m = int(factor * k)
        sources = ledger.claim(f"rate {factor}x", (1000 * factor + t for t in range(trials)))
        traces = []
        for stack in _stacks(sources, 176 * n + 8192):
            signals, observed, times = zip(*(_sparse_time_instance(n, k, m, rng) for rng in stack))
            reports = sampling.imat(observed, times, alpha=params["alpha"], max_iters=iters,
                                    eps=1e-300, reference=signals)[2]
            traces.extend(np.array(rep.snrs) for rep in reports)
        columns[factor] = _median_trace(traces, iters)
    header = ["iteration"] + [f"snr_db_rate_{f}x" for f in factors]
    rows = [
        tuple([i + 1] + [columns[f][i] for f in factors]) for i in range(iters)
    ]
    return {"fig6.csv": (header, rows)}


def _fig7_wins(n, k, m, streams):
    """Trials of the recovery experiment that succeed, one per stream,
    solved as one imat stack."""
    signals, observed, times = zip(*(_sparse_time_instance(n, k, m, rng) for rng in streams))
    estimates, _, _ = sampling.imat(observed, times, alpha=0.1, max_iters=300,
                                    refine_support=True)
    return sum(snr_db(x, est) >= 100.0 for x, est in zip(signals, estimates))


def run_fig7(params, seed, trials):
    """Minimal sample count for 80% perfect recovery vs sparsity.

    The trials of one sample count are solved in stacks (see _stacks);
    none starts once the count is decided, which moves no outcome, as each
    trial draws from its own stream."""
    n = params["n"]
    need = math.ceil(0.8 * trials)
    ledger = _StreamLedger(seed)
    rows = []
    for k in params["k_values"]:
        target = int(round(k * math.log2(n / k)))
        step = max(2, k // 4)
        m = max(2 * k, step)
        found = None
        while m <= n:
            sources = ledger.claim(f"k={k}, m={m}",
                                   (7_000_000 + 1000 * k + 17 * m + t for t in range(trials)))
            wins = losses = 0
            for stack in _stacks(sources, 176 * n + 8192):
                won = _fig7_wins(n, k, m, stack)
                wins, losses = wins + won, losses + len(stack) - won
                if wins >= need or losses > trials - need:
                    break  # the sample count is decided
            if wins >= need:
                found = m
                break
            m += step
        rows.append((k, found if found is not None else -1, target))
    return {"fig7.csv": (["k", "m_min", "k_log2_n_over_k"], rows)}


def run_fig10(params, seed, trials):
    """Block-code erasure recovery: bursts and scattered losses, DFT vs SDFT.

    The trials of one erasure count draw from their own streams, in order,
    and each code decodes them in stacks (see _stacks); a decode whose
    recursion blew up scores -inf."""
    l, p, q = params["l"], params["p"], params["sdft_q"]
    n = l + p
    dft_code = codes.DftBlockCode(l=l, p=p, q=1)
    sdft_code = codes.DftBlockCode(l=l, p=p, q=q)
    ledger = _StreamLedger(seed)
    rows = []
    for kind in ("burst", "scattered"):
        sizes = range(1, p + 1) if kind == "burst" else range(1, params["scatter_max"] + 1)
        base = 0 if kind == "burst" else 500_000
        for size in sizes:
            snrs = ([], [])  # the DFT code's, then the SDFT code's
            sources = ledger.claim(f"{size} {kind} erasures",
                                   (base + size * 1000 + t for t in range(trials)))
            for stack in _stacks(sources, 224 * n + 2560):
                messages, erasures = [], []
                for rng in stack:
                    messages.append(rng.standard_normal(l))
                    if kind == "burst":
                        positions = np.arange(1, size + 1)
                    else:
                        positions = np.sort(rng.choice(n, size=size, replace=False))
                    erasures.append(SupportSet(positions, n))
                for code, values in zip((dft_code, sdft_code), snrs):
                    codewords = code.encode(np.array(messages))
                    repaired, reports = codes.elp_erasure_decode(codewords, erasures, code)
                    values.extend(
                        min(snr_db(codeword, estimate), 300.0) if report.converged else -math.inf
                        for codeword, estimate, report in zip(codewords, repaired, reports)
                    )
            rows.append((kind, size, *(float(np.median(values)) for values in snrs)))
    return {
        "fig10.csv": (["kind", "erasures", "snr_dft_db", "snr_sdft_db"], rows)
    }


def run_fig15(params, seed, trials):
    """Convolutional erasure decoding SNR vs relative erasure rate.

    The trials of one rate draw from their own streams, in order, and are
    decoded in stacks (see _stacks)."""
    code = codes.ConvCode(params["taps1"], params["taps2"])
    length = params["input_length"]
    ledger = _StreamLedger(seed)
    rows = []
    for rate in params["rates"]:
        values = []
        sources = ledger.claim(f"rate {rate}", (int(rate * 1000) * 100 + t for t in range(trials)))
        for stack in _stacks(sources, 136 * length + 32 * params["cg_iterations"] + 3072):
            inputs, received, erasures = [], [], []
            for rng in stack:
                x = rng.uniform(-1.0, 1.0, length)
                y = codes.conv_encode(x, code)
                capacity = y.size // 2
                count = int(rate * capacity)
                positions = np.sort(rng.choice(y.size, size=count, replace=False))
                inputs.append(x)
                received.append(y)
                erasures.append(SupportSet(positions, y.size))
            estimates = codes.conv_erasure_decode(np.array(received), erasures, code,
                                                  max_iters=params["cg_iterations"])[0]
            values.extend(min(snr_db(x, est), 300.0) for x, est in zip(inputs, estimates))
        rows.append((rate, float(np.mean(values))))
    return {"fig15.csv": (["relative_rate", "snr_db"], rows)}


def run_fig17(params, seed, trials):
    """Impulsive-noise convolutional decoding vs impulse variance ratio.

    The trials of one ratio draw from their own streams, in order, and are
    decoded in stacks (see _stacks)."""
    code = codes.ConvCode(params["taps1"], params["taps2"])
    length = params["input_length"]
    ledger = _StreamLedger(seed)
    rows = []
    for ratio in params["variance_ratios"]:
        hits, snrs = 0, []
        sources = ledger.claim(f"ratio {ratio}",
                               (int(ratio * 10) * 1000 + t for t in range(trials)))
        for stack in _stacks(sources, 136 * length + 64 * params["iterations"] + 2048):
            inputs, impulses, streams = [], [], []
            for rng in stack:
                x = rng.uniform(-1.0, 1.0, length)
                y = codes.conv_encode(x, code)
                sigma_y = float(np.std(y))
                positions = np.sort(rng.choice(y.size, size=params["impulses"], replace=False))
                noisy = y + params["awgn_floor"] * sigma_y * rng.standard_normal(y.size)
                noisy[positions] += math.sqrt(ratio) * sigma_y * rng.standard_normal(len(positions))
                inputs.append(x)
                impulses.append(positions)
                streams.append(noisy)
            estimates, nus = codes.conv_impulsive_decode(
                np.array(streams), code, alpha=params["alpha"],
                max_iters=params["iterations"], relax=params["relax"],
            )[:2]
            hits += sum(
                set(positions) <= set(detected_support(nu, tol=1e-3))
                for positions, nu in zip(impulses, nus)
            )
            snrs.extend(snr_db(x, est) for x, est in zip(inputs, estimates))
        rows.append((ratio, hits / trials, float(np.median(snrs))))
    return {"fig17.csv": (["variance_ratio", "detection_rate", "snr_db"], rows)}


FIG18_TONES = spectral.SpectralModel(
    frequencies=np.array([0.1, 0.2, 0.32, 0.45]),
    amplitudes=np.ones(4),
    phases=np.array([0.0, 1.0, -2.0, 0.5]),
)


def _fig18_noisy(clean, snr_db_value, rng):
    """clean plus complex white noise at snr_db_value dB below its power."""
    power = float(np.mean(np.abs(clean) ** 2))
    sigma = math.sqrt(power / 10 ** (snr_db_value / 10.0))
    return clean + rng.complex_normal(clean.size, scale=sigma)


def _fig18_error(estimated, truth):
    """Mean over the true tones of the wrapped distance to the nearest
    estimate; 0.5 when nothing was estimated."""
    est = np.sort(np.asarray(estimated, dtype=float) % 1.0)
    if est.size == 0:
        return 0.5
    d = np.abs(est[:, None] - truth[None, :])
    return float(np.mean(np.min(np.minimum(d, 1.0 - d), axis=0)))


def run_fig18(params, seed, trials):
    """Line-spectrum estimation accuracy of Prony, Pisarenko, and MUSIC.

    The trials draw from their own streams, in order, and each method
    solves them in consecutive stacks (see _stacks); the
    pseudospectrum CSV is one more draw's MUSIC pseudospectrum."""
    m = params["samples"]
    snr = params["snr_db"]
    dimension = params["music_dimension"]
    k = FIG18_TONES.k
    truth = FIG18_TONES.frequencies
    grid = spectral.default_grid(params["grid_points"])
    clean = FIG18_TONES.synthesize(m)  # every trial shares the noiseless tones
    ledger = _StreamLedger(seed)
    sources = ledger.claim("trials", (t + 1 for t in range(trials)))
    errors = {"prony": [], "pisarenko": [], "music": []}
    for stack in _stacks(sources, 32 * m + 8 * grid.size):
        y = np.array([_fig18_noisy(clean, snr, rng) for rng in stack])
        models = spectral.prony(y[:, : 2 * k], k)
        errors["prony"].extend(_fig18_error(model.frequencies.real, truth) for model in models)
        freqs = spectral.pisarenko(spectral.sample_covariance(y, k + 1), k)[0]
        errors["pisarenko"].extend(_fig18_error(row, truth) for row in freqs)
        covariance = spectral.sample_covariance(y, dimension)
        del y  # MUSIC holds the stack's pseudospectra; the series need not stay alongside
        peaks = spectral.music(covariance, k, grid)[1]
        errors["music"].extend(_fig18_error(row, truth) for row in peaks)
    rows = [
        (name, float(np.median(vals)), float(np.mean(vals)))
        for name, vals in errors.items()
    ]
    rng = next(ledger.claim("pseudospectrum", [0]))
    pseudo, _, _ = spectral.music(
        spectral.sample_covariance(_fig18_noisy(clean, snr, rng), dimension), k, grid,
    )
    spectrum_rows = list(zip(grid, pseudo))
    return {
        "fig18_errors.csv": (["method", "median_freq_error", "mean_freq_error"], rows),
        "fig18_pseudospectrum.csv": (["frequency", "power"], spectrum_rows),
    }


def run_fig20(params, seed, trials):
    """MDL source-count detection rates across SNR.

    One scenario per SNR; each trial's covariance is formed from its own
    stream's snapshots as they are drawn, and the SNR's covariances are
    enumerated in stacks (see _stacks)."""
    from . import arrays

    n, k, m = params["sensors"], params["sources"], params["snapshots"]
    ledger = _StreamLedger(seed)
    rows = []
    for snr in params["snr_grid_db"]:
        scenario = arrays.UlaScenario(
            sensors=n, spacing=0.5,
            doas=np.array(params["doas"]),
            source_cov=10 ** (snr / 10.0) * np.eye(k),
            noise_var=1.0, snapshots=m,
        )
        sources = ledger.claim(f"{snr} dB", (int(snr) * 1000 + t + 100000 for t in range(trials)))
        k_hat = np.concatenate([
            arrays.mdl_enumerate(arrays.snapshot_covariance(
                arrays.simulate_snapshots(scenario, rng) for rng in stack
            )).estimated_k
            for stack in _stacks(sources, 128 * n * n + 1024)
        ])
        under, correct, over = (int(np.sum(hits)) for hits in (k_hat < k, k_hat == k, k_hat > k))
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


def _bench_trial(rng, m, n, p, sigma_on, sigma_off, sigma_nu):
    """One benchmark trial: build its problem from rng and run every
    BENCH_SOLVERS solver on it. Returns the true support size and one
    (nmse, support found, seconds) per solver."""
    problem = sca.bernoulli_gaussian_problem(m, n, rng, p=p, sigma_on=sigma_on,
                                             sigma_off=sigma_off, sigma_noise=sigma_nu)
    truth = problem.true_source
    true_support = set(np.flatnonzero(np.abs(truth) > 10 * sigma_off))
    outcomes = []
    for name in BENCH_SOLVERS:
        estimate, report = _bench_solve(name, problem)
        nmse = float(np.sum(np.abs(estimate - truth) ** 2) / max(np.sum(truth**2), 1e-300))
        ok = true_support <= set(detected_support(estimate, tol=1e-3))
        outcomes.append((nmse, ok, report.wall_time))
    return len(true_support), outcomes


def _bench_rows(n_grid, m_of_n, sigma_grid, trials, seed, p, sigma_on, sigma_off):
    """One row per (n, sigma, solver), each point's trials summed in trial
    order."""
    ledger = _StreamLedger(seed)
    rows = []
    for n_index, n in enumerate(n_grid):
        m = m_of_n(n)
        for s_index, sigma_nu in enumerate(sigma_grid):
            sums = [[0.0, 0, 0.0] for _ in BENCH_SOLVERS]  # nmse, support found, seconds
            k_true_total = 0
            sources = ledger.claim(f"n={n}, sigma_nu={sigma_nu}",
                                   ((n_index * 64 + s_index) * 10_000 + t for t in range(trials)))
            for rng in sources:
                k_true, outcomes = _bench_trial(rng, m, n, p, sigma_on, sigma_off, sigma_nu)
                k_true_total += k_true
                for total, outcome in zip(sums, outcomes):
                    for j, value in enumerate(outcome):
                        total[j] += value
            rows.extend(
                (name, n, m, round(k_true_total / trials, 2), sigma_nu, seed,
                 ok / trials, mse / trials, secs / trials)
                for name, (mse, ok, secs) in zip(BENCH_SOLVERS, sums)
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
    blocks * cfg.data_carriers.size symbols from its own streams (see
    _StreamLedger). Each call claims its streams afresh, so fig40's calls,
    one per drift rate, rerun the same blocks.

    A CNR point's blocks are linked, estimated, equalized and decided in
    stacks (see _stacks); MIMAT estimates one block at a time. Each block
    draws its drift step, its data and its noise from its own source, in
    that order, and the drift advances block by block.
    """
    results = {(c, e): 0 for c in cnr_grid for e in estimators}
    ledger = _StreamLedger(seed)
    dc = cfg.data_carriers
    static_truth = ofdm.channel_frequency_response(profile, cfg) if doppler_rho is None else None
    for cnr in cnr_grid:
        snr_linear = 10 ** (cnr / 10.0)
        channel = None if doppler_rho is None else ofdm.TimeVaryingChannel(profile, doppler_rho)
        sources = ledger.claim(f"CNR {cnr} dB",
                               (int(cnr * 10) * 100_000 + b for b in range(blocks)))
        for stack in _stacks(sources, 144 * cfg.n + 1024):
            current = [channel.step(rng) for rng in stack] if channel else profile
            data = np.array([rng.integers(0, cfg.symbols().size, dc.size) for rng in stack])
            rx = ofdm.ofdm_link(ofdm.map_symbols(data, cfg), current, cfg, cnr, stack)
            for name in estimators:
                if name == "ideal":
                    estimate = (np.broadcast_to(static_truth, rx.shape) if channel is None else
                                np.array([ofdm.channel_frequency_response(p, cfg) for p in current]))
                elif name == "linear":
                    estimate = ofdm.estimate_linear(rx, cfg)
                else:
                    estimate = np.array([ofdm.estimate_mimat(row, cfg, snr_linear)[1] for row in rx])
                eq, _ = ofdm.equalize(rx[:, dc], estimate[:, dc], "zf")
                decisions = ofdm.nearest_symbols(eq, cfg)
                results[(cnr, name)] += int(np.count_nonzero(decisions != data))
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
    """MIMAT SER vs CNR under per-symbol tap-gain drift.

    Every drift rate sees the same blocks (common random numbers across
    rates as well as estimators)."""
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


def _expected_type(value, default):
    """None when an override fits its registry default's type, else that
    type in words. An int default takes no bool, a float default takes
    any number, and a list default a non-empty list, of numbers (int or
    float) when the default's are numbers."""
    def number(v):
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    if isinstance(default, list):
        of_numbers = all(map(number, default))
        if isinstance(value, list) and value and (not of_numbers or all(map(number, value))):
            return None
        return "a non-empty list of numbers" if of_numbers else "a non-empty list"
    if isinstance(default, float):
        return None if number(value) else "a number"
    if isinstance(default, int):
        return None if isinstance(value, numbers.Integral) and number(value) else "an integer"
    return None if isinstance(value, str) else "a string"


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
        expected = _expected_type(value, config[key])
        if expected:
            raise ValueError(f"parameter {key!r} of {spec.experiment_id} takes {expected}, "
                             f"got {value!r}")
        config[key] = value
    trials = spec.trials if spec.trials is not None else definition.default_trials
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    return definition, config, trials


def _environment(blas_count):
    """The manifest's environment block: the BLAS thread count the runner
    ran at (None: numpy's OpenBLAS not found, count not set), the BLAS numpy
    was built with (None when numpy does not say), the usable CPUs, the
    thread variables and the versions."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except KeyError:  # a build that does not name its BLAS
        blas = None
    return {
        "blas_threads": blas_count,
        "blas": blas,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_experiment(spec):
    """Execute a registered experiment; write CSVs and a JSON manifest.

    The runner runs with numpy's OpenBLAS at one thread (see
    core.blas_threads); the caller's thread count is restored afterwards."""
    definition, config, trials = resolve_config(spec)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with blas_threads(1) as blas:
        outputs = definition.runner(config, spec.seed, trials)
    for filename, (_, rows) in outputs.items():
        if not rows:
            raise ValueError(f"{filename} would hold no data rows; check the parameters "
                             f"of {spec.experiment_id}")
    os.makedirs(spec.out_dir, exist_ok=True)
    digests = {}
    for filename, (header, rows) in outputs.items():
        path = os.path.join(spec.out_dir, filename)
        digests[filename] = hashlib.sha256(write_csv(path, header, rows)).hexdigest()
    manifest = RunManifest(
        toolkit_version=__version__,
        experiment_id=spec.experiment_id,
        config={"params": config, "trials": trials},
        seed=spec.seed,
        started=started,
        finished=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=digests,
        environment=_environment(blas),
    )
    manifest_path = os.path.join(spec.out_dir, f"{spec.experiment_id}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
    return manifest
