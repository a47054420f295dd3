"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances are pinned here, not configurable. Runtime-capped criteria
assert their own wall time.
"""

import itertools
import math
import time

import numpy as np

from sparsekit import arrays, codes, ofdm, sampling, sca, spectral
from sparsekit.core import RandomSource, SupportSet, detected_support, snr_db
from sparsekit.experiments import (
    _sparse_time_instance,
    fig7_recovered,
)


def report_pass(number, message):
    print(f"[PASS] criterion {number}: {message}")


class TestCriterion1ElpErasure:
    def test_burst_and_scattered_recovery(self):
        started = time.perf_counter()
        code = codes.DftBlockCode(l=16, p=16)
        n = 32
        burst = SupportSet(np.arange(1, 17), n)
        burst_snrs = []
        scattered_snrs = []
        for t in range(20):
            rng = RandomSource(9100, stream=t + 1)
            codeword = code.encode(rng.standard_normal(16))
            received = codeword.copy()
            received[burst.indices] = 0.0
            repaired = codes.elp_erasure_decode(received, burst, code)
            burst_snrs.append(snr_db(codeword, repaired))

            k = int(rng.integers(1, 9))
            positions = np.sort(rng.choice(n, size=k, replace=False))
            received = codeword.copy()
            received[positions] = 0.0
            repaired = codes.elp_erasure_decode(received, SupportSet(positions, n), code)
            scattered_snrs.append(snr_db(codeword, repaired))
        elapsed = time.perf_counter() - started
        assert min(burst_snrs) >= 40.0
        assert min(scattered_snrs) >= 100.0
        assert elapsed < 1.0
        report_pass(1, f"16-burst min SNR {min(burst_snrs):.1f} dB, scattered min "
                       f"{min(scattered_snrs):.1f} dB, {elapsed:.2f} s")


class TestCriterion2PhaseTransition:
    def test_minimal_samples_track_the_law(self):
        started = time.perf_counter()
        n = 1024
        ratios = {}
        for k in (4, 8, 16, 32):
            target = k * math.log2(n / k)
            step = max(2, k // 4)
            m = 2 * k
            while m <= n:
                wins = sum(
                    fig7_recovered(
                        n, k, m,
                        RandomSource(0, stream=7_000_000 + 1000 * k + 17 * m + t),
                    )
                    for t in range(20)
                )
                if wins >= 16:  # >= 80% at SNR >= 100 dB
                    break
                m += step
            assert m <= n, f"no recovery point found for k={k}"
            assert 2 * k <= m <= 1.5 * target
            ratios[k] = m / target
        elapsed = time.perf_counter() - started
        assert elapsed < 180.0
        report_pass(2, "m_min / (k log2(n/k)) = "
                    + ", ".join(f"k={k}: {r:.2f}" for k, r in ratios.items())
                    + f"; {elapsed:.0f} s")


class TestCriterion3Imat:
    def test_snr_trace_saturates_early(self):
        # median trace over seeds must be at high SNR by iteration 20+-5 and
        # must not degrade afterward
        traces = []
        for s in range(20):
            rng = RandomSource(777, stream=s + 1)
            x, observed, smask = _sparse_time_instance(256, 8, 32, rng)
            _, _, rep = sampling.imat(observed, smask, alpha=0.2, max_iters=60, reference=x)
            trace = list(rep.snrs)
            trace += [trace[-1]] * (60 - len(trace))
            traces.append(trace)
        median = np.median(np.array(traces), axis=0)
        assert median[19] >= 40.0
        assert np.all(median[20:] >= median[19] - 3.0)
        report_pass(3, f"median IMAT SNR at iteration 20 is {median[19]:.1f} dB "
                       "and non-degrading")

    def test_exhaustive_oracle_support_equality(self):
        # aliased sampling patterns make some instances exactly ambiguous
        # (several 2-supports fit with zero residual); any residual-tied
        # optimum counts as oracle agreement
        n, k, m = 16, 2, 8
        hits = 0
        for seed in range(100):
            rng = RandomSource(9300, stream=seed + 1)
            x, observed, smask = _sparse_time_instance(n, k, m, rng)
            times = smask.indices
            residuals = {}
            for combo in itertools.combinations(range(n), k):
                basis = np.exp(2j * np.pi * np.outer(times, combo) / n) / math.sqrt(n)
                coef, *_ = np.linalg.lstsq(basis, observed[times], rcond=None)
                residuals[combo] = float(np.linalg.norm(basis @ coef - observed[times]))
            best = min(residuals.values())
            optimal = {c for c, r in residuals.items() if r <= best + 1e-9}
            _, support, _ = sampling.imat(observed, smask, alpha=0.1, max_iters=300, relax=0.9)
            hits += tuple(support.indices) in optimal
        assert hits == 100
        report_pass(3, f"IMAT support equals the exhaustive oracle on {hits}/100 seeds")


class TestCriterion4Acceleration:
    @staticmethod
    def _iterations_to_40db(snrs):
        arr = np.asarray(snrs)
        above = np.flatnonzero(arr >= 40.0)
        return int(above[0]) + 1 if above.size else math.inf

    def test_accelerations_reach_40db_sooner(self):
        # at exactly OSR = 1 the masked operator's lower frame bound is
        # numerically zero and NO linear iteration (plain or Chebyshev)
        # reaches 40 dB in any practical budget, so the desk analog runs at
        # OSR 1.5 where the comparison is meaningful; a plain iteration that
        # has not reached 40 dB within its 4000-iteration budget counts as
        # slower than an accelerated method that did
        n = 128
        band = np.arange(20, 36)
        m = int(round(1.5 * band.size))
        wins = 0
        for s in range(100):
            rng = RandomSource(9400, stream=s + 1)
            coeffs = rng.complex_normal(band.size)
            spectrum = np.zeros(n, dtype=complex)
            spectrum[band] = coeffs
            x = np.fft.ifft(spectrum) * math.sqrt(n)
            times = np.sort(rng.choice(n, size=m, replace=False))
            observed = np.zeros(n, dtype=complex)
            observed[times] = x[times]
            smask = SupportSet(times, n)
            fmask = SupportSet(band, n)

            _, plain = sampling.iterative_reconstruct(observed, smask, fmask, max_iters=4000,
                                                      eps=1e-300, reference=x)
            acc = dict(max_iters=1000, eps=1e-14, reference=x)
            _, cheb = sampling.chebyshev_accelerate(observed, smask, fmask, **acc)
            _, cg = sampling.cg_accelerate(observed, smask, fmask, **acc)
            plain_40 = self._iterations_to_40db(plain.snrs)
            cheb_40 = self._iterations_to_40db(cheb.snrs)
            cg_40 = self._iterations_to_40db(cg.snrs)
            if cheb_40 < plain_40 and cg_40 < plain_40:
                wins += 1
        assert wins >= 90
        report_pass(4, f"Chebyshev and CG beat plain iteration to 40 dB on {wins}/100 "
                       "seeds")

    def test_fixed_point_agreement(self):
        for s in range(20):
            rng = RandomSource(9450, stream=s + 1)
            n, k = 64, 8
            x, observed, smask, fmask = _well_conditioned_instance(n, k, 2 * k, rng)
            bounds = sampling.estimate_frame_bounds(smask, fmask)
            relax = min(1.0 / bounds[1], 1.99)
            plain, _ = sampling.iterative_reconstruct(
                observed, smask, fmask, max_iters=60000, eps=1e-14, relax=relax
            )
            cheb, _ = sampling.chebyshev_accelerate(
                observed, smask, fmask, max_iters=4000, eps=1e-14
            )
            cg, _ = sampling.cg_accelerate(observed, smask, fmask, max_iters=500, eps=1e-14)
            assert np.max(np.abs(plain - cheb)) < 1e-6
            assert np.max(np.abs(plain - cg)) < 1e-6
            assert np.max(np.abs(cheb - cg)) < 1e-6
        report_pass(4, "plain, Chebyshev, and CG agree at the fixed point to 1e-6 "
                       "on 20 instances")


def _well_conditioned_instance(n, k, m, rng):
    freq_idx = np.sort(rng.choice(n, size=k, replace=False))
    spectrum = np.zeros(n, dtype=complex)
    spectrum[freq_idx] = rng.complex_normal(k)
    x = np.fft.ifft(spectrum) * math.sqrt(n)
    times = np.sort(rng.choice(n, size=m, replace=False))
    observed = np.zeros(n, dtype=complex)
    observed[times] = x[times]
    smask = SupportSet(times, n)
    fmask = SupportSet(freq_idx, n)
    return x, observed, smask, fmask


FIG18_TONES = spectral.SpectralModel(
    frequencies=np.array([0.1, 0.2, 0.32, 0.45]),
    amplitudes=np.ones(4),
    phases=np.array([0.0, 1.0, -2.0, 0.5]),
)


def _noisy_tones(m, snr_db_value, rng):
    clean = FIG18_TONES.synthesize(m)
    power = float(np.mean(np.abs(clean) ** 2))
    sigma = math.sqrt(power / 10 ** (snr_db_value / 10.0))
    return clean + rng.complex_normal(m, scale=sigma)


def _freq_error(estimated, truth):
    est = np.sort(np.asarray(estimated, dtype=float) % 1.0)
    errs = []
    for f in truth:
        d = np.abs(est - f)
        errs.append(float(np.min(np.minimum(d, 1.0 - d))) if d.size else 0.5)
    return float(np.mean(errs))


class TestCriterion5SpectralSuite:
    def test_noiseless_prony_exact(self):
        rng = RandomSource(9500)
        for k in range(1, 7):
            freqs = np.sort(rng.uniform(0.02, 0.48, k))
            while k > 1 and np.min(np.diff(freqs)) < 0.02:
                freqs = np.sort(rng.uniform(0.02, 0.48, k))
            truth = spectral.SpectralModel(
                frequencies=freqs,
                amplitudes=rng.uniform(0.5, 2.0, k),
                phases=rng.uniform(-np.pi, np.pi, k),
            )
            model = spectral.prony(truth.synthesize(2 * k), k)
            assert np.max(np.abs(model.frequencies.real - freqs)) < 1e-8
        report_pass(5, "noiseless Prony exact to 1e-8 for k <= 6")

    def test_pisarenko_eigen_identity(self):
        for s in range(10):
            rng = RandomSource(9550, stream=s + 1)
            truth = spectral.SpectralModel(
                frequencies=np.sort(rng.uniform(0.05, 0.45, 2)),
                amplitudes=rng.uniform(0.5, 1.5, 2),
                phases=np.zeros(2),
            )
            cov = spectral.exact_tone_covariance(truth, 3, noise_variance=0.2)
            freqs, sigma2, _ = spectral.pisarenko(cov, 2)
            roots = np.exp(2j * np.pi * freqs)
            h = np.array([1.0, -(roots[0] + roots[1]), roots[0] * roots[1]])
            assert np.max(np.abs(cov.matrix @ h - sigma2 * h)) < 1e-8
        report_pass(5, "Pisarenko eigen-identity residual < 1e-8 on exact covariances")

    def test_music_peaks_and_error_ordering(self):
        grid = spectral.default_grid(2048)
        music_err, phd_err, prony_err = [], [], []
        music_hits = 0
        for seed in range(100):
            rng = RandomSource(9560, stream=seed + 1)
            y = _noisy_tones(1024, 5.0, rng)
            cov = spectral.sample_covariance(y, 16)
            _, mf, _ = spectral.music(cov, 4, grid)
            err = max(
                min(abs(mf - f).min(), 1 - abs(mf - f).min())
                for f in FIG18_TONES.frequencies
            )
            music_hits += err <= 1.0 / 2048 + 1e-12
            music_err.append(_freq_error(mf, FIG18_TONES.frequencies))
            pf, _, _ = spectral.pisarenko(spectral.sample_covariance(y, 5), 4)
            phd_err.append(_freq_error(pf, FIG18_TONES.frequencies))
            pr = spectral.prony(y[:8], 4)
            prony_err.append(_freq_error(pr.frequencies.real, FIG18_TONES.frequencies))
        assert music_hits >= 95
        assert np.median(music_err) <= np.median(phd_err) <= np.median(prony_err)
        report_pass(5, f"MUSIC within one grid bin on {music_hits}/100 seeds; median "
                       f"errors music={np.median(music_err):.2e} <= "
                       f"phd={np.median(phd_err):.2e} <= prony={np.median(prony_err):.2e}")


class TestCriterion6Mdl:
    def test_ml_trace_identity(self):
        for s in range(20):
            rng = RandomSource(9600, stream=s + 1)
            n = 6
            raw = rng.complex_normal((n, 3 * n))
            sample_cov = (raw @ raw.conj().T) / (3 * n)
            eigvals, eigvecs = np.linalg.eigh(sample_cov)
            eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
            for k in range(n - 1):
                sigma2 = float(np.mean(eigvals[k:]))
                inv_vals = np.concatenate([1.0 / eigvals[:k], np.full(n - k, 1.0 / sigma2)])
                r_ml_inv = (eigvecs * inv_vals[None, :]) @ eigvecs.conj().T
                value = float(np.trace(r_ml_inv @ sample_cov).real)
                assert abs(value - n) < 1e-10 * n
        report_pass(6, "tr(R_ML^-1 R_hat) = n to 1e-10 on random covariances")

    def test_detection_rate_and_low_snr_bias(self):
        hits = 0
        for seed in range(100):
            rng = RandomSource(9650, stream=seed + 1)
            scenario = arrays.UlaScenario(
                sensors=6, spacing=0.5, doas=np.array([-0.3, 0.4]),
                source_cov=10.0 * np.eye(2), noise_var=1.0, snapshots=1000,
            )
            x = arrays.simulate_snapshots(scenario, rng)
            hits += arrays.mdl_enumerate(arrays.snapshot_covariance(x)).estimated_k == 2
        assert hits >= 90

        under = over = 0
        for seed in range(200):
            rng = RandomSource(9660, stream=seed + 1)
            scenario = arrays.UlaScenario(
                sensors=6, spacing=0.5, doas=np.array([-0.3, 0.4]),
                source_cov=0.1 * np.eye(2), noise_var=1.0, snapshots=200,
            )
            x = arrays.simulate_snapshots(scenario, rng)
            k_hat = arrays.mdl_enumerate(arrays.snapshot_covariance(x)).estimated_k
            under += k_hat < 2
            over += k_hat > 2
        assert under > over
        report_pass(6, f"k_hat = 2 on {hits}/100 trials at 10 dB; at -10 dB "
                       f"underestimation {under} > overestimation {over}")


class TestCriterion7SparseArrays:
    def test_dirichlet_and_thinning_ratio(self):
        n = 64
        u = np.linspace(-1, 1, 4097)
        layout = arrays.ArrayLayout(positions=np.arange(n))
        pattern = np.abs(arrays.aperture_pattern(layout, 0.5, u))
        assert np.max(np.abs(pattern - arrays.dirichlet_pattern(n, 0.5, u))) < 1e-10

        mean_ratio, _ = arrays.thinned_array_stats(
            101, 25, trials=500, rng=RandomSource(9700), positions="continuous"
        )
        assert abs(mean_ratio - 1.0 / 25) <= 0.2 / 25
        report_pass(7, f"full-array pattern matches the closed form; mean sidelobe "
                       f"ratio {mean_ratio:.4f} vs 1/k = {1/25:.4f}")


class TestCriterion8ScaSolvers:
    SOLVERS = {
        "omp": lambda p: sca.matching_pursuit(p, k_max=2, orthogonal=True),
        "bp": sca.basis_pursuit,
        "focuss": lambda p: sca.focuss(p, iters=25),
        "ide": sca.ide,
        "sl0": lambda p: sca.sl0(p, sigma_ratio=0.9, sigma_steps=120, mu=1.5),
    }

    def test_oracle_agreement_all_solvers(self):
        started = time.perf_counter()
        rates = {name: 0 for name in self.SOLVERS}
        for seed in range(100):
            rng = RandomSource(200, stream=seed + 1)
            a = rng.standard_normal((10, 20))
            support = np.sort(rng.choice(20, size=2, replace=False))
            s_true = np.zeros(20)
            s_true[support] = rng.standard_normal(2) + 0.5 * np.sign(rng.standard_normal(2))
            while np.any(np.abs(s_true[support]) < 0.5):
                s_true[support] = rng.standard_normal(2) + 0.5 * np.sign(
                    rng.standard_normal(2))
            problem = sca.SparseProblem(mixing=a, observation=a @ s_true)
            best = None
            for combo in itertools.combinations(range(20), 2):
                coef, *_ = np.linalg.lstsq(a[:, combo], problem.observation, rcond=None)
                resid = float(np.linalg.norm(a[:, combo] @ coef - problem.observation))
                if best is None or resid < best[0]:
                    best = (resid, set(combo))
            for name, solver in self.SOLVERS.items():
                estimate, _ = solver(problem)
                rates[name] += set(detected_support(estimate)) == best[1]
        for name, rate in rates.items():
            assert rate >= 90, f"{name} agreed on only {rate}/100"
        elapsed = time.perf_counter() - started
        report_pass(8, "oracle agreement " + ", ".join(
            f"{k}={v}/100" for k, v in rates.items()) + f"; {elapsed:.0f} s")

    def test_benchmark_determinism_and_speed_ordering(self, tmp_path):
        import csv
        import os

        from sparsekit.experiments import ExperimentSpec, run_experiment

        started = time.perf_counter()
        stripped = []
        for d in ("a", "b"):
            os.makedirs(tmp_path / d)
            run_experiment(ExperimentSpec(
                "fig31", seed=11, trials=20, out_dir=str(tmp_path / d)))
            with open(tmp_path / d / "fig31.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            stripped.append([row[:-1] for row in rows])
        assert stripped[0] == stripped[1]

        run_experiment(ExperimentSpec("fig32", seed=11, trials=8, out_dir=str(tmp_path)))
        with open(tmp_path / "fig32.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        biggest_n = max(int(r[1]) for r in rows)
        timing = {r[0]: float(r[-1]) for r in rows if int(r[1]) == biggest_n}
        fastest_two = sorted(timing, key=timing.get)[:2]
        assert set(fastest_two) == {"sl0", "ide"}, (
            f"fastest two were {fastest_two}; seconds per solve at n={biggest_n}: {timing}")
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        report_pass(8, f"benchmark deterministic; fastest two at n={biggest_n} are "
                       f"{fastest_two}; {elapsed:.0f} s")


class TestCriterion9Rip:
    def test_enumeration_identity_and_orthonormal_zero(self):
        rng = RandomSource(9900)
        a = rng.standard_normal((6, 10))
        first = sca.rip_constant(a, 2)
        second = sca.rip_constant(a, 2)
        assert first.delta == second.delta
        unit = a / np.linalg.norm(a, axis=0)
        oracle = 0.0
        for combo in itertools.combinations(range(10), 2):
            sv = np.linalg.svd(unit[:, combo], compute_uv=False)
            oracle = max(oracle, sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        assert abs(first.delta - oracle) < 1e-12

        q, _ = np.linalg.qr(rng.standard_normal((8, 5)))
        for k in (1, 2, 3):
            assert sca.rip_constant(q, k).delta < 1e-12
        report_pass(9, f"delta_2 = {first.delta:.4f} equals its enumeration oracle; "
                       "orthonormal columns give delta = 0")


class TestCriterion10Ofdm:
    CFG = ofdm.OfdmConfig(n=256, pilot_spacing=4, guard_left=0, guard_right=0,
                          cp_length=64)

    def test_noiseless_exact_recovery(self):
        profile = ofdm.brazil_d_like_profile()
        rng = RandomSource(10000)
        data = rng.integers(0, 16, self.CFG.data_carriers.size)
        tx = ofdm.map_symbols(data, self.CFG)
        rx = ofdm.ofdm_link(tx, profile, self.CFG, None, rng)
        est, _, report = ofdm.estimate_mimat(rx, self.CFG)
        assert report.iterations <= 4
        assert np.array_equal(est.delays, profile.delays)
        assert np.max(np.abs(est.gains - profile.gains)) < 1e-6
        report_pass(10, f"noiseless 6-tap support exact in {report.iterations} "
                        f"iterations, gain error "
                        f"{np.max(np.abs(est.gains - profile.gains)):.1e}")

    def test_ser_sweep_and_doppler(self):
        started = time.perf_counter()
        cfg = self.CFG
        profile = ofdm.brazil_d_like_profile()
        truth = ofdm.channel_frequency_response(profile, cfg)
        dc = cfg.data_carriers
        blocks_per_cnr = {15.0: 150, 20.0: 150, 25.0: 300, 30.0: 1200}
        ratios = {}
        linear_ratio_25 = None
        for cnr, blocks in blocks_per_cnr.items():
            snr = 10 ** (cnr / 10.0)
            errors = {"ideal": 0, "linear": 0, "mimat": 0}
            for b in range(blocks):
                rng = RandomSource(10050 + int(cnr), stream=b + 1)
                data = rng.integers(0, 16, dc.size)
                tx = ofdm.map_symbols(data, cfg)
                rx = ofdm.ofdm_link(tx, profile, cfg, cnr, rng)
                estimates = {
                    "ideal": truth,
                    "linear": ofdm.estimate_linear(rx, cfg),
                    "mimat": ofdm.estimate_mimat(rx, cfg, snr)[1],
                }
                for name, h in estimates.items():
                    eq, _ = ofdm.equalize(rx[dc], h[dc], "zf")
                    errors[name] += int(np.sum(ofdm.nearest_symbols(eq, cfg) != data))
            ratios[cnr] = errors["mimat"] / max(errors["ideal"], 1)
            if cnr == 25.0:
                linear_ratio_25 = errors["linear"] / max(errors["ideal"], 1)
        for cnr, ratio in ratios.items():
            assert ratio <= 1.3, f"MIMAT/ideal SER ratio {ratio:.2f} at {cnr} dB"
        assert linear_ratio_25 >= 3.0

        # Doppler analog: slow per-symbol drift, re-estimated each symbol
        drift_errors = static_errors = 0
        cnr, blocks = 25.0, 300
        snr = 10 ** (cnr / 10.0)
        channel = ofdm.TimeVaryingChannel(profile, rho=0.99)
        for b in range(blocks):
            rng = RandomSource(10099, stream=b + 1)
            current = channel.step(rng)
            data = rng.integers(0, 16, dc.size)
            tx = ofdm.map_symbols(data, cfg)
            rx = ofdm.ofdm_link(tx, current, cfg, cnr, rng)
            _, h_m, _ = ofdm.estimate_mimat(rx, cfg, snr)
            eq, _ = ofdm.equalize(rx[dc], h_m[dc], "zf")
            drift_errors += int(np.sum(ofdm.nearest_symbols(eq, cfg) != data))

            rng2 = RandomSource(10050 + int(cnr), stream=b + 1)
            data2 = rng2.integers(0, 16, dc.size)
            tx2 = ofdm.map_symbols(data2, cfg)
            rx2 = ofdm.ofdm_link(tx2, profile, cfg, cnr, rng2)
            _, h_s, _ = ofdm.estimate_mimat(rx2, cfg, snr)
            eq2, _ = ofdm.equalize(rx2[dc], h_s[dc], "zf")
            static_errors += int(np.sum(ofdm.nearest_symbols(eq2, cfg) != data2))
        assert drift_errors < 2.0 * max(static_errors, 1)
        elapsed = time.perf_counter() - started
        assert elapsed < 180.0
        report_pass(10, "SER(MIMAT)/SER(ideal) = "
                    + ", ".join(f"{c:.0f}dB: {r:.2f}" for c, r in ratios.items())
                    + f"; linear x{linear_ratio_25:.1f} at 25 dB; Doppler drift "
                      f"x{drift_errors / max(static_errors, 1):.2f}; {elapsed:.0f} s")


class TestCriterion11ConvolutionalCodes:
    def test_parity_identity_with_published_values(self):
        code = codes.ConvCode([1, 2, 3, 4, 5, 16], [16, 5, 4, 3, 2, 1])
        g = code.generator_matrix(20)
        h = codes.conv_parity_check(code, 20)
        assert np.max(np.abs(h.T @ g)) < 1e-9
        assert np.allclose(
            h[0, :7], [-1.0, -0.3125, -0.25, -0.1875, -0.125, -0.0625, 0.0], atol=1e-12
        )
        assert np.allclose(h[1, :2], [0.0625, 0.125], atol=1e-12)
        report_pass(11, "H^T G = 0 to 1e-9 with the published leading entries")

    def test_erasure_snr_monotone_and_impulse_ordering(self):
        code = codes.ConvCode([1, 2, 3, 4, 5, 16], [16, 5, 4, 3, 2, 1])
        snrs = []
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
            values = []
            for t in range(20):
                rng = RandomSource(11100, stream=int(rate * 10) * 100 + t)
                x = rng.uniform(-1, 1, 50)
                y = codes.conv_encode(x, code)
                count = int(rate * (y.size // 2))
                pos = np.sort(rng.choice(y.size, size=count, replace=False))
                received = y.copy()
                received[pos] = 0.0
                est, _ = codes.conv_erasure_decode(
                    received, SupportSet(pos, y.size), code, max_iters=30,
                )
                values.append(min(snr_db(x, est), 300.0))
            snrs.append(np.median(values))
        assert all(a >= b for a, b in zip(snrs, snrs[1:]))

        rates = {}
        for ratio in (1.0, 2.0, 5.0, 10.0):
            hits = 0
            for t in range(150):
                rng = RandomSource(11150, stream=int(ratio * 10) * 1000 + t)
                x = rng.uniform(-1, 1, 50)
                y = codes.conv_encode(x, code)
                sigma_y = float(np.std(y))
                pos = np.sort(rng.choice(y.size, size=5, replace=False))
                noisy = y + 0.02 * sigma_y * rng.standard_normal(y.size)
                noisy[pos] += math.sqrt(ratio) * sigma_y * rng.standard_normal(5)
                _, nu, _ = codes.conv_impulsive_decode(
                    noisy, code, alpha=0.02, max_iters=300, relax=1.9)
                detected = np.flatnonzero(
                    np.abs(nu) > 1e-3 * max(np.max(np.abs(nu)), 1e-300))
                hits += set(pos) <= set(detected)
            rates[ratio] = hits / 150
        values = [rates[r] for r in (1.0, 2.0, 5.0, 10.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]
        report_pass(11, f"erasure SNR monotone {['%.0f' % s for s in snrs]}; impulse "
                        f"detection rates {values}")


class TestCriterion12Fri:
    def test_round_trip_to_1e9(self):
        rng = RandomSource(11200)
        for k in range(1, 9):
            gaps = 0.1 + rng.uniform(0.0, 0.3, size=k)
            instants = np.cumsum(gaps)
            instants -= instants.mean()
            amplitudes = rng.complex_normal(k)
            amplitudes += 0.1 * amplitudes / np.abs(amplitudes)
            truth = sampling.FriModel(instants, amplitudes)
            model = sampling.annihilating_recover(truth.moments(2 * k), k)
            assert np.max(np.abs(model.instants - truth.instants)) < 1e-9
            assert np.max(np.abs(model.amplitudes - truth.amplitudes)) < 1e-9
        report_pass(12, "annihilating-filter round trip exact to 1e-9 for k <= 8")
