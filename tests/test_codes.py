"""Real-field block and convolutional codes with ELP/iterative decoding."""

import math

import numpy as np
import pytest

from sparsekit.core import (
    CapacityError,
    NumericError,
    RandomSource,
    SupportSet,
    polynomial_roots,
    snr_db,
)
from sparsekit.codes import (
    ConvCode,
    DftBlockCode,
    conv_encode,
    conv_erasure_decode,
    conv_impulsive_decode,
    conv_parity_check,
    elp_erasure_decode,
    elp_impulsive_decode,
)

EX_TAPS_1 = [1.0, 2.0, 3.0, 4.0, 5.0, 16.0]
EX_TAPS_2 = [16.0, 5.0, 4.0, 3.0, 2.0, 1.0]


class TestDftBlockCode:
    def test_spectrum_vanishes_on_syndrome(self):
        rng = RandomSource(40)
        code = DftBlockCode(l=16, p=16)
        codeword = code.encode(rng.complex_normal(16))
        spectrum = np.fft.fft(codeword) / math.sqrt(32)
        assert np.max(np.abs(spectrum[code.theta.indices])) < 1e-12

    def test_p_zero_identity(self):
        rng = RandomSource(41)
        msg = rng.complex_normal(10)
        code = DftBlockCode(l=10, p=0)
        assert np.max(np.abs(code.encode(msg) - msg)) < 1e-12

    def test_real_message_real_codeword_odd_l(self):
        rng = RandomSource(42)
        code = DftBlockCode(l=15, p=16)
        codeword = code.encode(rng.standard_normal(15))
        assert np.max(np.abs(codeword.imag)) < 1e-10

    def test_encode_decode_round_trip(self):
        rng = RandomSource(43)
        for l, p, q in ((16, 16, 1), (15, 16, 1), (16, 16, 15), (20, 12, 7)):
            code = DftBlockCode(l=l, p=p, q=q)
            msg = rng.complex_normal(l)
            back = code.decode(code.encode(msg))
            assert np.max(np.abs(back - msg)) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DftBlockCode(l=6, p=2).encode(np.ones(5, dtype=complex))


class TestElpErasure:
    def test_burst_recovery_fig10_setup(self):
        rng = RandomSource(44)
        code = DftBlockCode(l=16, p=16)
        codeword = code.encode(rng.standard_normal(16))
        erasures = SupportSet(np.arange(1, 17), 32)
        received = codeword.copy()
        received[erasures.indices] = 0.0
        repaired = elp_erasure_decode(received, erasures, code)
        assert snr_db(codeword, repaired) >= 40.0

    def test_zero_erasures_identity(self):
        rng = RandomSource(45)
        code = DftBlockCode(l=16, p=16)
        codeword = code.encode(rng.complex_normal(16))
        out = elp_erasure_decode(codeword, SupportSet([], 32), code)
        assert np.array_equal(out, codeword)

    def test_scattered_matches_vandermonde_solve(self):
        rng = RandomSource(46)
        code = DftBlockCode(l=8, p=8)
        n = 16
        codeword = code.encode(rng.complex_normal(8))
        positions = np.array([2, 7, 11])
        received = codeword.copy()
        received[positions] = 0.0
        repaired = elp_erasure_decode(received, SupportSet(positions, n), code)

        # oracle: solve for the erased values from the syndrome equations
        theta = code.theta.indices
        fourier = np.exp(-2j * np.pi * np.outer(theta, positions) / n) / math.sqrt(n)
        syndrome = (np.fft.fft(received) / math.sqrt(n))[theta]
        erased = np.linalg.lstsq(fourier, -syndrome, rcond=None)[0]
        oracle = received.copy()
        oracle[positions] = -erased  # d = x - e with e supported on erasures
        # e[i_m] = x[i_m]; received + e restores the codeword
        oracle = received.copy()
        oracle[positions] = erased
        assert np.max(np.abs(repaired - oracle)) < 1e-8
        assert np.max(np.abs(repaired - codeword)) < 1e-8

    def test_capacity_exceeded(self):
        code = DftBlockCode(l=16, p=4)
        with pytest.raises(CapacityError):
            elp_erasure_decode(
                np.zeros(20, dtype=complex), SupportSet(np.arange(5), 20), code
            )

    def test_sdft_interleaving_beats_dft_on_bursts(self):
        n, l, p = 32, 16, 16
        dft_code = DftBlockCode(l=l, p=p, q=1)
        sdft_code = DftBlockCode(l=l, p=p, q=15)
        erasures = SupportSet(np.arange(1, 17), n)
        errs = {1: [], 15: []}
        for seed in range(100):
            rng = RandomSource(47, stream=seed + 1)
            msg = rng.standard_normal(l)
            for code in (dft_code, sdft_code):
                codeword = code.encode(msg)
                received = codeword.copy()
                received[erasures.indices] = 0.0
                repaired = elp_erasure_decode(received, erasures, code)
                rel = np.linalg.norm(repaired - codeword) / np.linalg.norm(codeword)
                errs[code.q].append(rel)
        assert np.median(errs[15]) <= np.median(errs[1])


class TestElpImpulsive:
    def test_no_impulses_fast_path(self):
        rng = RandomSource(48)
        code = DftBlockCode(l=16, p=16)
        codeword = code.encode(rng.complex_normal(16))
        clean, positions, values, report = elp_impulsive_decode(codeword, code)
        assert np.array_equal(clean, codeword)
        assert len(positions) == 0
        assert "fast path" in report.flags[0]

    def test_four_impulses_forward_inject(self):
        rng = RandomSource(49)
        code = DftBlockCode(l=16, p=16)
        codeword = code.encode(rng.standard_normal(16))
        positions = np.array([3, 9, 17, 28])
        amplitudes = rng.standard_normal(4) * np.std(codeword.real) * 5
        received = codeword.copy()
        received[positions] += amplitudes
        clean, detected, values, report = elp_impulsive_decode(received, code)
        assert np.array_equal(detected.indices, positions)
        assert np.max(np.abs(values - amplitudes)) < 1e-6
        assert np.max(np.abs(clean - codeword)) < 1e-6

    def test_detection_rate_improves_with_variance(self):
        # a small additive noise floor makes the variance ratio matter: the
        # syndrome is linear in the impulses, so without noise detection is
        # exactly scale-invariant
        code = DftBlockCode(l=16, p=16)
        rates = {}
        for ratio in (1.0, 10.0):
            hits = 0
            for seed in range(200):
                rng = RandomSource(50, stream=seed + 1)
                codeword = code.encode(rng.standard_normal(16))
                sigma = float(np.std(codeword.real))
                positions = np.sort(rng.choice(32, size=5, replace=False))
                received = codeword + 0.01 * sigma * rng.standard_normal(32)
                received[positions] += math.sqrt(ratio) * sigma * rng.standard_normal(5)
                _, detected, _, _ = elp_impulsive_decode(received, code)
                hits += set(positions) <= set(detected.indices)
            rates[ratio] = hits / 200.0
        assert rates[10.0] > rates[1.0]


class TestConvCode:
    def test_impulse_response_interleaves_taps(self):
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        out = conv_encode([1.0], code)
        expected = np.empty(12)
        expected[0::2] = EX_TAPS_1
        expected[1::2] = EX_TAPS_2
        assert np.array_equal(out, expected)

    def test_matrix_and_filter_paths_agree(self):
        rng = RandomSource(51)
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        x = rng.standard_normal(50)
        assert np.max(np.abs(conv_encode(x, code) - code.generator_matrix(50) @ x)) < 1e-12

    def test_zero_input(self):
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        assert not np.any(conv_encode(np.zeros(10), code))

    @pytest.mark.parametrize("shape", [(), (2, 5)])
    def test_encode_rejects_input_that_is_not_one_stream(self, shape):
        # a (2, 5) array was flattened into one 30-sample stream
        with pytest.raises(ValueError, match="signal must be one-dimensional"):
            conv_encode(np.ones(shape), ConvCode(EX_TAPS_1, EX_TAPS_2))

    @pytest.mark.parametrize("decoder", ["impulsive", "erasure"])
    @pytest.mark.parametrize("rows", [None, 2])
    def test_decoders_reject_an_odd_length_stream(self, decoder, rows):
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        y = conv_encode(RandomSource(53).uniform(-1.0, 1.0, 20), code)[:-1]
        erasures = SupportSet([], y.size)
        if rows is not None:
            y, erasures = np.tile(y, (rows, 1)), [erasures] * rows
        with pytest.raises(ValueError, match=r"received stream must have even length \(rate 1/2\)"):
            if decoder == "impulsive":
                conv_impulsive_decode(y, code)
            else:
                conv_erasure_decode(y, erasures, code)

    def test_parity_annihilates(self):
        rng = RandomSource(52)
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        g = code.generator_matrix(20)
        h = conv_parity_check(code, 20)
        assert np.max(np.abs(h.T @ g)) < 1e-9
        x = rng.standard_normal(20)
        assert np.max(np.abs(h.T @ (g @ x))) < 1e-9

    def test_parity_leading_entries_match_published_values(self):
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        h = conv_parity_check(code, 10)
        # first row (even output index 0) carries -h2/16
        row0 = [-1.0, -0.3125, -0.25, -0.1875, -0.125, -0.0625, 0.0]
        assert np.allclose(h[0, :7], row0, atol=1e-12)
        # rounded 3-decimal values as printed
        assert np.allclose(h[0, :6], [-1, -0.313, -0.25, -0.188, -0.125, -0.063], atol=5e-4)
        assert np.allclose(h[1, :2], [0.063, 0.125], atol=5e-4)
        assert abs(h[2, 1] + 1.0) < 1e-12  # shifted copy two rows down

    def test_parity_matches_svd_null_space(self):
        rng = RandomSource(53)
        code = ConvCode([1.0, -0.5, 0.25], [0.5, 1.0, -1.0])
        g = code.generator_matrix(8)
        h = conv_parity_check(code, 8)
        # columns of H lie in the left null space computed via SVD
        u, s, vt = np.linalg.svd(g)
        null_basis = u[:, np.sum(s > 1e-10) :]
        proj = null_basis @ (null_basis.T @ h)
        assert np.max(np.abs(proj - h)) < 1e-9
        assert np.linalg.matrix_rank(h) == g.shape[0] - g.shape[1]

    @pytest.mark.parametrize("h1, h2", [
        (EX_TAPS_1, EX_TAPS_2),
        ([1.0, 0.0, -0.5], [0.0, 2.0, 0.0]),  # zero taps keep their sign
        ([0.3, -0.7], [-1.5, 0.0]),  # negative leading h2 tap
    ])
    @pytest.mark.parametrize("length", [1, 5, 50])
    def test_matrices_equal_the_loop_construction(self, h1, h2, length):
        code = ConvCode(h1, h2)
        m = length + code.taps - 1
        g = np.zeros((2 * m, length))
        for col in range(length):
            for tap in range(code.taps):
                g[2 * (col + tap), col] = code.h1[tap]
                g[2 * (col + tap) + 1, col] = code.h2[tap]
        lead = code.h2[0] if code.h2[0] != 0 else 1.0
        h = np.zeros((2 * m, m + code.taps - 1))
        for c in range(h.shape[1]):
            for j in range(m):
                if 0 <= c - j < code.taps:
                    h[2 * j, c] = -code.h2[c - j] / lead
                    h[2 * j + 1, c] = code.h1[c - j] / lead
        assert code.generator_matrix(length).tobytes() == g.tobytes()
        assert conv_parity_check(code, length).tobytes() == h.tobytes()


class TestConvDecoding:
    def test_no_erasures_exact(self):
        rng = RandomSource(54)
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        x = rng.standard_normal(20)
        y = conv_encode(x, code)
        est, report = conv_erasure_decode(y, SupportSet([], y.size), code)
        assert np.max(np.abs(est - x)) < 1e-8

    def test_small_instance_matches_pinv_oracle(self):
        rng = RandomSource(55)
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        x = rng.standard_normal(8)
        y = conv_encode(x, code)
        erased = SupportSet([3, 7, 12], y.size)
        received = y.copy()
        received[erased.indices] = 0.0
        est, _ = conv_erasure_decode(received, erased, code)
        g = code.generator_matrix(8)
        keep = ~erased.mask()
        oracle, *_ = np.linalg.lstsq(g[keep], y[keep], rcond=None)
        assert np.max(np.abs(est - oracle)) < 1e-6

    def test_erasure_snr_decreases_with_rate(self):
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        snrs = []
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
            vals = []
            for seed in range(20):
                rng = RandomSource(56, stream=seed + 1)
                x = rng.uniform(-1, 1, 50)
                y = conv_encode(x, code)
                capacity = y.size // 2
                n_erase = int(rate * capacity)
                erased = SupportSet(
                    np.sort(rng.choice(y.size, size=n_erase, replace=False)), y.size
                )
                received = y.copy()
                received[erased.indices] = 0.0
                est, _ = conv_erasure_decode(received, erased, code, max_iters=30)
                vals.append(snr_db(x, est))
            snrs.append(np.median(vals))
        assert all(a >= b for a, b in zip(snrs, snrs[1:]))

    def test_erasure_decode_raises_when_cg_overflows(self):
        # at amplitude 1e150 the CG curvature p' G'G p overflows
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        y = conv_encode(RandomSource(60).uniform(-1.0, 1.0, 20), code)
        with pytest.raises(NumericError, match="not finite"):
            conv_erasure_decode(1e150 * y, SupportSet([3, 7], y.size), code)

    def test_impulsive_zero_noise(self):
        rng = RandomSource(57)
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        x = rng.standard_normal(30)
        y = conv_encode(x, code)
        est, nu, _ = conv_impulsive_decode(y, code)
        assert np.linalg.norm(nu) < 1e-8 * np.linalg.norm(y)
        assert np.max(np.abs(est - x)) < 1e-8

    def test_impulsive_two_impulses_positions(self):
        rng = RandomSource(58)
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        x = rng.uniform(-1, 1, 50)
        y = conv_encode(x, code)
        positions = np.array([21, 64])
        noisy = y.copy()
        noisy[positions] += np.array([9.0, -11.0]) * np.std(y)
        est, nu, _ = conv_impulsive_decode(noisy, code, alpha=0.02, max_iters=300, relax=1.9)
        detected = np.flatnonzero(np.abs(nu) > 1e-3 * np.max(np.abs(nu)))
        assert set(positions).issubset(set(detected))
        assert snr_db(x, est) > 40

    def test_impulsive_converged_only_when_the_impulses_explain_the_parity_image(self):
        # converged: the last misfit is at most 1e-7 ||received||. No impulses
        # (a noise image at roundoff) and three impulses are corrected exactly;
        # thirty are more than this rate-1/2 code corrects in 110 samples.
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        streams = []
        for t, count in enumerate((0, 3, 30)):
            rng = RandomSource(63, stream=t)
            y = conv_encode(rng.uniform(-1.0, 1.0, 50), code)
            positions = rng.choice(y.size, size=count, replace=False)
            y[positions] += 5.0 * np.std(y) * rng.standard_normal(count)
            streams.append(y)
        _, _, reports = conv_impulsive_decode(np.array(streams), code)
        assert [report.converged for report in reports] == [True, True, False]
        for stream, report in zip(streams, reports):
            assert conv_impulsive_decode(stream, code)[-1].converged is report.converged
            assert bool(report.residuals[-1] <= 1e-7 * np.linalg.norm(stream)) is report.converged


    def test_impulsive_clean_stream_detects_no_impulses(self):
        # an impulse-free stream's noise image is roundoff; beta, floored at
        # 1e-7 ||received||, keeps the schedule from thresholding it into impulses
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)  # fig17's code
        clean = conv_encode(RandomSource(63).uniform(-1.0, 1.0, 50), code)
        impulsive = clean.copy()
        impulsive[[21, 64]] += 5.0
        _, nu, _ = conv_impulsive_decode(clean, code)
        assert np.count_nonzero(nu) == 0
        _, nus, _ = conv_impulsive_decode(np.array([clean, impulsive, clean]), code)
        assert np.count_nonzero(nus[[0, 2]]) == 0
        assert set(np.flatnonzero(np.abs(nus[1]) > 1e-3 * np.max(np.abs(nus[1])))) == {21, 64}


class TestStackedImpulsiveDecode:
    """A (T, L) stack decodes each row exactly as a solo call would."""

    @staticmethod
    def _streams(counts):
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        streams = []
        for t, count in enumerate(counts):
            rng = RandomSource(62, stream=t)
            y = conv_encode(rng.uniform(-1.0, 1.0, 50), code)
            noisy = y + 0.01 * np.std(y) * rng.standard_normal(y.size)
            positions = rng.choice(y.size, size=count, replace=False)
            noisy[positions] += 5.0 * np.std(y) * rng.standard_normal(count)
            streams.append(noisy)
        return code, np.array(streams)

    @staticmethod
    def _reference_decode(y, code, alpha=0.02, max_iters=300, relax=1.9):
        """The per-stream loop: projector @ nu, np.linalg.norm, one lstsq."""
        input_length = y.size // 2 - code.taps + 1
        h = conv_parity_check(code, input_length)
        projector = h @ np.linalg.solve(h.T @ h, h.T)
        noise_image = projector @ y
        beta = max(float(np.max(np.abs(noise_image))), 1e-7 * float(np.linalg.norm(y)))
        nu, misfit, residuals = np.zeros_like(y), noise_image, []
        for i in range(1, max_iters + 1):
            blended = nu + relax * misfit
            nu = np.where(np.abs(blended) > beta * math.exp(-alpha * i), blended, 0.0)
            misfit = noise_image - projector @ nu
            residuals.append(float(np.linalg.norm(misfit)))
        estimate, *_ = np.linalg.lstsq(code.generator_matrix(input_length), y - nu, rcond=None)
        return estimate, nu, residuals

    @pytest.mark.parametrize("counts", [(3,), (0, 1, 2, 3, 4, 6, 9)])
    def test_rows_equal_solo_decodes(self, counts):
        code, streams = self._streams(counts)
        estimates, nus, reports = conv_impulsive_decode(streams, code)
        assert estimates.shape == (len(counts), 50) and nus.shape == streams.shape
        assert len(reports) == len(counts)
        for row, stream in enumerate(streams):
            est, nu, report = conv_impulsive_decode(stream, code)
            assert np.array_equal(estimates[row], est)
            assert np.array_equal(nus[row], nu)
            assert reports[row].residuals == report.residuals
            assert reports[row].iterations == report.iterations == 300
            ref_est, ref_nu, ref_residuals = self._reference_decode(stream, code)
            assert np.array_equal(est, ref_est) and np.array_equal(nu, ref_nu)
            assert report.residuals == ref_residuals

    def test_rejects_a_three_dimensional_input(self):
        code, streams = self._streams((1, 2))
        with pytest.raises(ValueError, match="stack"):
            conv_impulsive_decode(streams[None], code)


class TestCachedConvOperators:
    def test_codes_and_lengths_never_share_operators(self):
        from sparsekit.codes import _generator, _parity_projector

        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        keys = {"first": (tuple(EX_TAPS_1), tuple(EX_TAPS_2), 20),
                "swapped": (tuple(EX_TAPS_2), tuple(EX_TAPS_1), 20),
                "longer": (tuple(EX_TAPS_1), tuple(EX_TAPS_2), 21)}
        generators = {name: _generator(*key) for name, key in keys.items()}
        projectors = {name: _parity_projector(*key) for name, key in keys.items()}
        assert np.array_equal(generators["first"], code.generator_matrix(20))
        assert np.array_equal(generators["swapped"],
                              ConvCode(EX_TAPS_2, EX_TAPS_1).generator_matrix(20))
        assert np.array_equal(generators["longer"], code.generator_matrix(21))
        assert not np.array_equal(projectors["first"], projectors["swapped"])
        assert projectors["longer"].shape == (2 * 26, 2 * 26) != projectors["first"].shape
        for name, key in keys.items():
            assert _generator(*key) is generators[name]
            assert _parity_projector(*key) is projectors[name]

    def test_cached_arrays_are_read_only(self):
        from sparsekit.codes import _generator, _parity_projector

        key = (tuple(EX_TAPS_1), tuple(EX_TAPS_2), 20)
        for array in (_generator(*key), _parity_projector(*key)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_the_erasure_decoder_builds_no_projector(self, monkeypatch):
        from sparsekit import codes

        def refuse(*key):
            raise AssertionError("the erasure decoder asked for the parity projector")

        monkeypatch.setattr(codes, "_parity_projector", refuse)
        code = ConvCode(EX_TAPS_1, EX_TAPS_2)
        x = RandomSource(64).uniform(-1.0, 1.0, 20)
        y = conv_encode(x, code)
        est, report = conv_erasure_decode(y, SupportSet([3, 8], y.size), code)
        assert report.converged and np.max(np.abs(est - x)) < 1e-8

    def test_rank_deficient_parity_fails_only_the_impulsive_decoder(self):
        # equal branches leave H^T H singular; the erasure decoder needs G alone
        from sparsekit.codes import _parity_projector

        code = ConvCode([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        x = np.arange(10.0)
        y = conv_encode(x, code)
        for _ in range(2):  # a failure is not cached, so each call builds anew
            misses = _parity_projector.cache_info().misses
            with pytest.raises(NumericError, match="parity projector rank-deficient: cond = "):
                conv_impulsive_decode(y, code)
            assert _parity_projector.cache_info().misses == misses + 1
            est, _ = conv_erasure_decode(y, SupportSet([1], y.size), code)
            assert np.max(np.abs(est - x)) < 1e-8


class TestElpPolynomial:
    def test_root_positions_bijective(self):
        from sparsekit.codes import _elp_coefficients

        positions = np.array([2, 7, 19, 30])
        coefficients = _elp_coefficients(positions, 32)
        assert coefficients.size - 1 == 4
        roots = polynomial_roots(coefficients)
        angles = np.angle(roots) % (2.0 * np.pi)
        found = np.sort(np.round(angles * 32 / (2.0 * np.pi)).astype(int) % 32)
        assert np.array_equal(found, positions)
        expected = np.exp(2j * np.pi * positions / 32)
        for root in roots:
            assert np.min(np.abs(expected - root)) < 1e-9

    def test_round_trip_invariant_500_trials(self):
        # p >= 2k guarantees correction capacity with margin
        for l, p in ((16, 16), (12, 8)):
            code = DftBlockCode(l=l, p=p)
            n = l + p
            for t in range(250):
                rng = RandomSource(59, stream=l * 1000 + t)
                msg = rng.complex_normal(l)
                codeword = code.encode(msg)
                k = int(rng.integers(1, p // 2 + 1))
                positions = np.sort(rng.choice(n, size=k, replace=False))
                received = codeword.copy()
                received[positions] = 0.0
                repaired = elp_erasure_decode(received, SupportSet(positions, n), code)
                back = code.decode(repaired)
                rel = np.linalg.norm(back - msg) / np.linalg.norm(msg)
                assert rel < 1e-6


class TestNonFiniteInput:
    """A non-finite retained sample raises; an erased one is ignored."""

    @staticmethod
    def _conv_stream():
        code = ConvCode([1, 2, 3, 4, 5, 16], [16, 5, 4, 3, 2, 1])  # fig15's code
        return code, conv_encode(RandomSource(60).uniform(-1.0, 1.0, 20), code)

    @staticmethod
    def _block_codeword():
        code = DftBlockCode(l=8, p=8)
        return code, code.encode(RandomSource(61).standard_normal(8))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_conv_erasure_decode(self, value):
        code, y = self._conv_stream()
        received = y.copy()
        received[5] = value
        with pytest.raises(ValueError, match="finite"):
            conv_erasure_decode(received, SupportSet([], y.size), code)
        erased = SupportSet([5], y.size)
        est, _ = conv_erasure_decode(received, erased, code)
        zeroed = received.copy()
        zeroed[5] = 0.0
        assert np.array_equal(est, conv_erasure_decode(zeroed, erased, code)[0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_conv_impulsive_decode(self, value):
        code, y = self._conv_stream()
        y[5] = value
        with pytest.raises(ValueError, match="finite"):
            conv_impulsive_decode(y, code)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_elp_erasure_decode(self, value):
        code, codeword = self._block_codeword()
        received = codeword.copy()
        received[[2, 3]] = 0.0
        received[9] = value
        with pytest.raises(ValueError, match="finite"):
            elp_erasure_decode(received, SupportSet([2, 3], code.n), code)
        received[9] = codeword[9]
        received[2] = value
        zeroed = received.copy()
        zeroed[2] = 0.0
        assert np.array_equal(elp_erasure_decode(received, SupportSet([2, 3], code.n), code),
                              elp_erasure_decode(zeroed, SupportSet([2, 3], code.n), code))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_elp_impulsive_decode(self, value):
        code, codeword = self._block_codeword()
        codeword[4] = value
        with pytest.raises(ValueError, match="finite"):
            elp_impulsive_decode(codeword, code)
