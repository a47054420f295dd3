"""Spectral estimators: periodogram scaling, Prony, Pisarenko, MUSIC."""

import math

import numpy as np
import pytest

from sparsekit.core import RandomSource
from sparsekit.spectral import (
    CovarianceEstimate,
    SpectralModel,
    default_grid,
    exact_tone_covariance,
    music,
    periodogram,
    pisarenko,
    prony,
    sample_covariance,
)


def noisy_tones(model, m, snr_db_value, rng):
    clean = model.synthesize(m)
    power = np.mean(np.abs(clean) ** 2)
    sigma = math.sqrt(power / 10 ** (snr_db_value / 10.0))
    return clean + rng.complex_normal(m, scale=sigma)


def reference_covariance(x, p):
    """The windowed product sample_covariance forms, written out: forward
    windows w, (w^T conj(w)) / count, symmetrized."""
    w = np.lib.stride_tricks.sliding_window_view(x, p)
    cov = (w.T @ w.conj()) / w.shape[0]
    return 0.5 * (cov + cov.conj().T)


def reference_prony(x, k):
    """Prony written out: the locator recursion filled row by row and solved,
    its roots, and the Vandermonde fit of the weights. Returns
    (frequencies, weights) in prony's order."""
    x = np.asarray(x, dtype=np.complex128)[: 2 * k]
    rows = np.empty((k, k), dtype=np.complex128)
    rhs = np.empty(k, dtype=np.complex128)
    for i, r in enumerate(range(k, 2 * k)):
        rows[i] = x[r - 1 : r - k - 1 : -1] if r - k - 1 >= 0 else x[r - 1 :: -1][:k]
        rhs[i] = -x[r]
    h = np.linalg.solve(rows, rhs)
    roots = np.roots(np.concatenate(([1.0 + 0j], h)))
    freqs = np.log(roots) / (2j * np.pi)
    freqs = np.where(np.abs(freqs.imag) < 1e-12, freqs.real % 1.0, freqs)
    weights, *_ = np.linalg.lstsq(roots[None, :] ** np.arange(2 * k)[:, None], x, rcond=None)
    order = np.argsort([f.real if np.iscomplexobj(freqs) else f for f in freqs])
    return np.asarray(freqs)[order], weights[order]


class TestSharedKernelsBitForBit:
    """The merged kernels reproduce the expressions they replaced, bit for bit."""

    def test_sample_covariance_is_the_windowed_product(self):
        rng = RandomSource(90)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            p = int(rng.integers(1, min(n, 40) + 1))
            x = rng.complex_normal(n)
            cov = sample_covariance(x, p)
            assert cov.snapshots == n - p + 1
            assert cov.matrix.tobytes() == reference_covariance(x, p).tobytes()

    def test_prony_is_the_row_by_row_recursion(self):
        rng = RandomSource(91)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            x = rng.complex_normal(2 * k + int(rng.integers(0, 5)))
            model = prony(x, k)
            freqs, weights = reference_prony(x, k)
            assert model.frequencies.tobytes() == freqs.tobytes()
            assert model.amplitudes.tobytes() == np.abs(weights).tobytes()
            assert model.phases.tobytes() == np.angle(weights).tobytes()


class TestCovarianceEstimate:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            CovarianceEstimate(np.array([[1.0, 0.5], [0.0, 1.0]]), snapshots=10)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            CovarianceEstimate(np.diag([1.0, -0.5]), snapshots=10)

    TONES = SpectralModel([0.12, 0.31, 0.7], [1.0, 0.8, 0.5], [0.0, 1.0, -2.0])

    def test_music_takes_a_stack(self):
        covariances = [exact_tone_covariance(self.TONES, 6, noise_variance=v)
                       for v in (0.01, 1.0)]
        grid = default_grid(64)
        pseudospectrum, peaks, shortfall = music(
            CovarianceEstimate(np.array([c.matrix for c in covariances]), snapshots=6), 3, grid)
        assert pseudospectrum.shape == (2, 64) and len(peaks) == 2 and shortfall.shape == (2,)
        for row, cov in enumerate(covariances):
            solo = music(cov, 3, grid)
            assert pseudospectrum[row].tobytes() == solo[0].tobytes()
            assert peaks[row].tobytes() == solo[1].tobytes()
            assert shortfall[row] == solo[2]

    def test_pisarenko_takes_a_stack(self):
        covariances = [exact_tone_covariance(self.TONES, 4, noise_variance=v)
                       for v in (0.01, 1.0)]
        freqs, sigma2, ambiguous = pisarenko(
            CovarianceEstimate(np.array([c.matrix for c in covariances]), snapshots=4), 3)
        assert freqs.shape == (2, 3) and sigma2.shape == (2,) and ambiguous.dtype == bool
        for row, cov in enumerate(covariances):
            solo = pisarenko(cov, 3)
            assert freqs[row].tobytes() == solo[0].tobytes()
            assert (sigma2[row], ambiguous[row]) == solo[1:]

    def test_estimators_take_only_a_covariance_estimate(self):
        y = np.exp(2j * np.pi * 0.1 * np.arange(32))
        with pytest.raises(TypeError, match="takes a CovarianceEstimate, not ndarray"):
            pisarenko(y, 1)
        with pytest.raises(TypeError, match="takes a CovarianceEstimate, not ndarray"):
            music(np.eye(4), 1, default_grid(64))

    def test_non_finite_sample_rejected(self):
        y = noisy_tones(SpectralModel([0.1, 0.3], [1.0, 0.5], [0.0, 1.0]), 64, 10.0,
                        RandomSource(42))
        y[17] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            sample_covariance(y, 5)

    def test_stored_eigendecomposition(self):
        y = noisy_tones(SpectralModel([0.1, 0.3], [1.0, 0.5], [0.0, 1.0]), 200, 10.0,
                        RandomSource(41))
        cov = sample_covariance(y, 6)
        assert np.all(np.diff(cov.eigvals) <= 0)
        assert np.allclose(cov.matrix @ cov.eigvecs, cov.eigvecs * cov.eigvals,
                           atol=1e-12 * np.linalg.norm(cov.matrix))


class TestPeriodogram:
    def test_on_grid_tone_peak_value(self):
        m, ts, f0 = 64, 1.0, 0.25
        x = np.exp(2j * np.pi * f0 * np.arange(m))
        grid = np.array([0.25 - 4.0 / m, 0.25, 0.25 + 4.0 / m])
        power = periodogram(x, ts, grid)
        # hand evaluation of the geometric sum at the tone: |Ts*m|^2/(m*Ts)
        assert abs(power[1] - m * ts) < 1e-9
        # bin-aligned offsets are orthogonal to the tone
        assert power[0] < 1e-20 and power[2] < 1e-20

    def test_zero_signal(self):
        assert np.array_equal(periodogram(np.zeros(16), 1.0, default_grid(64)), np.zeros(64))

    def test_resolution_limit_merges_peaks(self):
        m = 64
        f1, f2 = 0.2, 0.2 + 0.5 / m  # closer than 1/(m*Ts)
        x = np.exp(2j * np.pi * f1 * np.arange(m)) + np.exp(2j * np.pi * f2 * np.arange(m))
        grid = default_grid(4096)
        power = periodogram(x, 1.0, grid)
        window = (grid > 0.15) & (grid < 0.26)
        values = power[window]
        peaks = np.flatnonzero(
            (values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
            & (values[1:-1] > 0.05 * values.max())
        )
        assert peaks.size == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            periodogram(np.ones(4), 1.0, [])


class TestProny:
    def test_single_complex_tone(self):
        x = np.exp(2j * np.pi * 0.1 * np.arange(2))
        model = prony(x, 1)
        assert abs(model.frequencies[0] - 0.1) < 1e-10
        assert abs(model.weights[0] - 1.0) < 1e-10

    def test_three_random_tones_recovered(self):
        rng = RandomSource(60)
        truth = SpectralModel(
            frequencies=np.array([0.12, 0.31, 0.47]),
            amplitudes=np.array([1.0, 0.5, 2.0]),
            phases=np.array([0.2, -1.0, 2.5]),
        )
        model = prony(truth.synthesize(6), 3)
        assert np.max(np.abs(model.frequencies.real - truth.frequencies)) < 1e-8
        assert np.max(np.abs(model.weights - truth.weights)) < 1e-8

    def test_round_trip_k_up_to_6(self):
        rng = RandomSource(61)
        for k in range(1, 7):
            freqs = np.sort(rng.uniform(0.02, 0.48, k))
            while k > 1 and np.min(np.diff(freqs)) < 0.02:
                freqs = np.sort(rng.uniform(0.02, 0.48, k))
            truth = SpectralModel(
                frequencies=freqs,
                amplitudes=rng.uniform(0.5, 2.0, k),
                phases=rng.uniform(-np.pi, np.pi, k),
            )
            model = prony(truth.synthesize(2 * k), k)
            assert np.max(np.abs(model.frequencies.real - truth.frequencies)) < 1e-8
            assert np.max(np.abs(np.sort(model.amplitudes) - np.sort(truth.amplitudes))) < 1e-8

    def test_damped_tone_accepted(self):
        z = 0.9 * np.exp(2j * np.pi * 0.2)
        x = z ** np.arange(2)
        model = prony(x, 1)
        f = model.frequencies[0]
        assert abs(f.real - 0.2) < 1e-10
        assert abs(f.imag + math.log(0.9) / (2 * np.pi)) < 1e-10

    def test_phase_rotation_invariance(self):
        rng = RandomSource(62)
        truth = SpectralModel(
            frequencies=np.array([0.15, 0.35]),
            amplitudes=np.array([1.0, 1.5]),
            phases=np.array([0.0, 1.0]),
        )
        x = truth.synthesize(4)
        base = prony(x, 2).frequencies.real
        rotated = prony(x * np.exp(1j * 1.234), 2).frequencies.real
        assert np.max(np.abs(base - rotated)) < 1e-10

    def test_order_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="need k >= 1"):
                prony(np.ones(4, dtype=complex), k)

    def test_non_finite_sample_rejected(self):
        x = np.exp(2j * np.pi * 0.1 * np.arange(4))
        x[2] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            prony(x, 2)

    def test_degenerate_recursion_rejected(self):
        with pytest.raises(ValueError, match="degenerate recursion"):
            prony(np.ones(4, dtype=complex), 2)


class TestPisarenko:
    def test_exact_covariance_two_tones(self):
        truth = SpectralModel(
            frequencies=np.array([0.1, 0.3]),
            amplitudes=np.array([1.0, 0.7]),
            phases=np.zeros(2),
        )
        sigma2 = 0.25
        cov = exact_tone_covariance(truth, 3, noise_variance=sigma2)
        freqs, noise_est, ambiguous = pisarenko(cov, 2)
        assert np.max(np.abs(freqs - truth.frequencies)) < 1e-10
        assert abs(noise_est - sigma2) < 1e-10
        assert not ambiguous

    def test_eigen_identity_with_recovered_vector(self):
        truth = SpectralModel(
            frequencies=np.array([0.12, 0.4]),
            amplitudes=np.array([1.0, 0.9]),
            phases=np.zeros(2),
        )
        cov = exact_tone_covariance(truth, 3, noise_variance=0.1)
        freqs, sigma2, _ = pisarenko(cov, 2)
        # rebuild the locator from the recovered frequencies; it must satisfy
        # R h = sigma^2 h
        roots = np.exp(2j * np.pi * freqs)
        h = np.array([1.0, -(roots[0] + roots[1]), roots[0] * roots[1]])
        lhs = cov.matrix @ h
        assert np.max(np.abs(lhs - sigma2 * h)) < 1e-8

    def test_single_real_tone_noiseless(self):
        truth = SpectralModel(
            frequencies=np.array([0.2]), amplitudes=np.array([1.0]), phases=np.array([0.3])
        )
        cov = exact_tone_covariance(truth, 2)
        freqs, sigma2, _ = pisarenko(cov, 1)
        assert abs(freqs[0] - 0.2) < 1e-12
        assert abs(sigma2) < 1e-12

    def test_sample_covariance_beats_prony_under_noise(self):
        truth = SpectralModel(
            frequencies=np.array([0.1, 0.2, 0.32, 0.45]),
            amplitudes=np.ones(4),
            phases=np.array([0.0, 1.0, -2.0, 0.5]),
        )
        prony_err, phd_err = [], []
        for seed in range(100):
            rng = RandomSource(63, stream=seed + 1)
            y = noisy_tones(truth, 1024, 5.0, rng)
            phd_freqs, _, _ = pisarenko(sample_covariance(y, 5), 4)
            phd_err.append(freq_error(phd_freqs, truth.frequencies))
            pr = prony(y[: 2 * 4], 4)
            prony_err.append(freq_error(np.sort(pr.frequencies.real % 1.0), truth.frequencies))
        assert np.median(phd_err) < np.median(prony_err)


def freq_error(est, truth):
    """Median-friendly circular matching error between frequency sets."""
    est = np.sort(np.asarray(est) % 1.0)
    errs = []
    for f in truth:
        d = np.abs(est - f)
        errs.append(np.min(np.minimum(d, 1.0 - d)) if d.size else 0.5)
    return float(np.mean(errs))


class TestMusic:
    def test_exact_covariance_peaks_on_grid(self):
        truth = SpectralModel(
            frequencies=np.array([0.1, 0.25]),
            amplitudes=np.array([1.0, 1.0]),
            phases=np.zeros(2),
        )
        cov = exact_tone_covariance(truth, 10, noise_variance=0.5)
        grid = default_grid(2000)
        pseudo, freqs, shortfall = music(cov, 2, grid)
        assert not shortfall
        assert np.allclose(freqs, [0.1, 0.25], atol=1e-12)
        peak_bins = (np.array([0.1, 0.25]) * 2000).astype(int)
        assert np.all(pseudo[peak_bins] >= 1e6)

    def test_noise_only_flat_pseudospectrum(self):
        cov = CovarianceEstimate(0.8 * np.eye(6), snapshots=100)
        pseudo, freqs, _ = music(cov, 0, default_grid(512))
        assert pseudo.max() / pseudo.min() < 1 + 1e-6
        assert freqs.size == 0

    def test_denominator_vanishes_at_true_tones(self):
        truth = SpectralModel(
            frequencies=np.array([0.15, 0.4]),
            amplitudes=np.array([2.0, 1.0]),
            phases=np.zeros(2),
        )
        m = 8
        cov = exact_tone_covariance(truth, m, noise_variance=0.3)
        pseudo, _, _ = music(cov, 2, np.array([0.15, 0.4]))
        assert np.all(1.0 / pseudo < 1e-8 * m)

    def test_steering_memo_matches_a_fresh_computation(self):
        # grids A, B, A and two dimensions: the one-entry memo must never
        # hand back a stale steering matrix
        import sparsekit.spectral as spectral_module

        rng = RandomSource(77)
        y = noisy_tones(
            SpectralModel(np.array([0.12, 0.3]), np.ones(2), np.zeros(2)), 256, 10.0, rng
        )
        grid_a, grid_b = default_grid(512), default_grid(300)
        calls = [(8, grid_a), (8, grid_b), (8, grid_a), (12, grid_a), (8, grid_a)]
        for m, grid in calls:
            cov = sample_covariance(y, m)
            memo = music(cov, 2, grid)
            spectral_module._steering.cache_clear()
            fresh = music(cov, 2, grid.copy())
            assert np.array_equal(memo[0], fresh[0])
            assert np.array_equal(memo[1], fresh[1])
            steering = np.exp(2j * np.pi * np.outer(np.arange(m), grid))
            denom = np.sum(np.abs(cov.eigvecs[:, 2:].conj().T @ steering) ** 2, axis=0)
            assert np.array_equal(memo[0], 1.0 / np.maximum(denom, 1e-300))
        assert spectral_module._steering.cache_info().maxsize == 1
        assert not spectral_module._steering(8, grid_a.tobytes()).flags.writeable

    def test_k_not_below_dimension_rejected(self):
        cov = CovarianceEstimate(np.eye(4), snapshots=10)
        with pytest.raises(ValueError):
            music(cov, 4, default_grid(64))

    def test_fig18_operating_point(self):
        truth = SpectralModel(
            frequencies=np.array([0.1, 0.2, 0.32, 0.45]),
            amplitudes=np.ones(4),
            phases=np.array([0.0, 1.0, -2.0, 0.5]),
        )
        grid = default_grid(2048)
        hits = 0
        for seed in range(20):
            rng = RandomSource(64, stream=seed + 1)
            y = noisy_tones(truth, 1024, 5.0, rng)
            cov = sample_covariance(y, 16)
            _, freqs, _ = music(cov, 4, grid)
            err = np.max(
                [min(abs(freqs - f).min(), 1 - abs(freqs - f).min()) for f in truth.frequencies]
            )
            hits += err <= 1.0 / 2048 + 1e-12
        assert hits >= 19

    def test_accuracy_ordering_music_phd_prony(self):
        truth = SpectralModel(
            frequencies=np.array([0.1, 0.2, 0.32, 0.45]),
            amplitudes=np.ones(4),
            phases=np.array([0.0, 1.0, -2.0, 0.5]),
        )
        grid = default_grid(2048)
        music_err, phd_err, prony_err = [], [], []
        for seed in range(100):
            rng = RandomSource(65, stream=seed + 1)
            y = noisy_tones(truth, 1024, 5.0, rng)
            cov = sample_covariance(y, 16)
            _, mf, _ = music(cov, 4, grid)
            music_err.append(freq_error(mf, truth.frequencies))
            pf, _, _ = pisarenko(sample_covariance(y, 5), 4)
            phd_err.append(freq_error(pf, truth.frequencies))
            pr = prony(y[:8], 4)
            prony_err.append(freq_error(pr.frequencies.real, truth.frequencies))
        assert np.median(music_err) <= np.median(phd_err) <= np.median(prony_err)

    def test_global_phase_invariance_all_estimators(self):
        truth = SpectralModel(
            frequencies=np.array([0.18, 0.36]),
            amplitudes=np.array([1.0, 1.2]),
            phases=np.array([0.4, -0.9]),
        )
        rng = RandomSource(66)
        y = noisy_tones(truth, 256, 20.0, rng)
        rot = y * np.exp(1j * 0.777)
        grid = default_grid(1024)
        for signal_pair in [(y, rot)]:
            f1, _, _ = pisarenko(sample_covariance(signal_pair[0], 3), 2)
            f2, _, _ = pisarenko(sample_covariance(signal_pair[1], 3), 2)
            assert np.max(np.abs(f1 - f2)) < 1e-10
            _, m1, _ = music(sample_covariance(signal_pair[0], 8), 2, grid)
            _, m2, _ = music(sample_covariance(signal_pair[1], 8), 2, grid)
            assert np.max(np.abs(m1 - m2)) < 1e-10
            p1 = prony(signal_pair[0][:4], 2).frequencies.real
            p2 = prony(signal_pair[1][:4], 2).frequencies.real
            assert np.max(np.abs(np.sort(p1) - np.sort(p2))) < 1e-10
