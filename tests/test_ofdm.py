"""OFDM channel model, pilot estimators, equalization, SER measurement."""

import math

import numpy as np
import pytest

from oracles import qam16_awgn_ser_theory
from sparsekit import ofdm
from sparsekit.core import RandomSource, SolverReport
from sparsekit.experiments import ser_sweep
from sparsekit.ofdm import (
    MIMAT_ALPHA,
    ChannelProfile,
    OfdmConfig,
    TimeVaryingChannel,
    brazil_d_like_profile,
    channel_frequency_response,
    equalize,
    estimate_linear,
    estimate_mimat,
    map_symbols,
    nearest_symbols,
    ofdm_link,
    ser_from_counts,
)

CFG = OfdmConfig()


def random_block(cfg, rng):
    data = rng.integers(0, cfg.symbols().size, cfg.data_carriers.size)
    return map_symbols(data, cfg), data


class TestOfdmConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("guard_left", -1),
        ("guard_right", -1),
        ("pilot_spacing", 0),
        ("cp_length", 0),
        ("cp_length", 257),
    ])
    def test_invalid_geometry_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            OfdmConfig(**{field: value})


class TestChannelResponse:
    def test_single_tap_delay_zero(self):
        profile = ChannelProfile(delays=[0], gains=[1.0])
        assert np.allclose(channel_frequency_response(profile, CFG), 1.0)

    def test_single_tap_phase_ramp(self):
        d = 5
        profile = ChannelProfile(delays=[d], gains=[1.0])
        h = channel_frequency_response(profile, CFG)
        expected = np.exp(-2j * np.pi * np.arange(CFG.n) * d / CFG.n)
        assert np.max(np.abs(h - expected)) < 1e-12
        assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-12

    def test_six_tap_matches_direct_sum(self):
        profile = brazil_d_like_profile()
        h = channel_frequency_response(profile, CFG)
        direct = np.array(
            [
                sum(
                    g * np.exp(-2j * np.pi * i * d / CFG.n)
                    for d, g in zip(profile.delays, profile.gains)
                )
                for i in range(CFG.n)
            ]
        )
        assert np.max(np.abs(h - direct)) < 1e-12

    def test_delay_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            channel_frequency_response(ChannelProfile([300], [1.0]), CFG)


class TestLink:
    def test_identity_channel_noise_off(self):
        rng = RandomSource(130)
        tx, _ = random_block(CFG, rng)
        rx = ofdm_link(tx, ChannelProfile([0], [1.0]), CFG, None, rng)
        assert np.array_equal(rx, tx)

    def test_empirical_cnr(self):
        rng = RandomSource(131)
        profile = brazil_d_like_profile()
        target = 18.0
        sig = err = 0.0
        for _ in range(60):
            tx, _ = random_block(CFG, rng)
            clean = ofdm_link(tx, profile, CFG, None, rng)
            noisy = ofdm_link(tx, profile, CFG, target, rng)
            sig += float(np.sum(np.abs(clean[CFG.active]) ** 2))
            err += float(np.sum(np.abs((noisy - clean)[CFG.active]) ** 2))
        measured = 10 * math.log10(sig / err)
        assert abs(measured - target) < 0.2

    def test_guard_carriers_zero(self):
        rng = RandomSource(132)
        tx, _ = random_block(CFG, rng)
        rx = ofdm_link(tx, brazil_d_like_profile(), CFG, 20.0, rng)
        guards = np.setdiff1d(np.arange(CFG.n), CFG.active)
        assert not np.any(rx[guards])


class TestLinearEstimator:
    def test_flat_channel_exact(self):
        rng = RandomSource(133)
        tx, _ = random_block(CFG, rng)
        rx = ofdm_link(tx, ChannelProfile([0], [0.8 + 0.2j]), CFG, None, rng)
        estimate = estimate_linear(rx, CFG)
        assert np.max(np.abs(estimate[CFG.active] - (0.8 + 0.2j))) < 1e-12

    def test_interpolation_error_grows_with_delay(self):
        rng = RandomSource(134)
        errors = []
        for d in (2, 10, 30):
            tx, _ = random_block(CFG, rng)
            profile = ChannelProfile([d], [1.0])
            rx = ofdm_link(tx, profile, CFG, None, rng)
            est = estimate_linear(rx, CFG)
            truth = channel_frequency_response(profile, CFG)
            errors.append(float(np.linalg.norm((est - truth)[CFG.active])))
        assert errors[0] < errors[1] < errors[2]

    def test_needs_two_pilots(self):
        cfg = OfdmConfig(n=16, pilot_spacing=16, guard_left=2, guard_right=1,
                         cp_length=4)
        with pytest.raises(ValueError):
            estimate_linear(np.ones(16, dtype=complex), cfg)


class TestNonFinitePilots:
    CFG64 = OfdmConfig(n=64, pilot_spacing=4, guard_left=0, guard_right=0, cp_length=16)

    @pytest.mark.parametrize("estimator", [estimate_linear, estimate_mimat])
    @pytest.mark.parametrize("carriers, value", [(slice(None), np.nan), (12, np.inf)])
    def test_non_finite_pilot_rejected(self, estimator, carriers, value):
        rx = np.ones(64, dtype=complex)
        rx[carriers] = value  # the whole block, or the pilot at carrier 12
        with pytest.raises(ValueError, match="pilots must be finite"):
            estimator(rx, self.CFG64)

    def test_non_finite_data_carrier_leaves_the_estimate_alone(self):
        rng = RandomSource(139)
        tx, _ = random_block(self.CFG64, rng)
        rx = ofdm_link(tx, ChannelProfile([0, 3], [1.0, 0.4j]), self.CFG64, 30.0, rng)
        marked = rx.copy()
        marked[self.CFG64.data_carriers] = np.nan
        assert np.array_equal(estimate_linear(marked, self.CFG64), estimate_linear(rx, self.CFG64))


class TestBlockShape:
    @pytest.mark.parametrize("estimator, shape", [
        (estimate_linear, (255,)), (estimate_linear, (512,)), (estimate_linear, (3, 255)),
        (estimate_mimat, (255,)), (estimate_mimat, (512,))])
    def test_a_block_of_another_length_is_rejected(self, estimator, shape):
        # the pilot indices were read from any block that reached them
        with pytest.raises(ValueError, match=f"must hold cfg.n = 256 carriers, not {shape[-1]}$"):
            estimator(np.ones(shape, dtype=complex), CFG)

    @pytest.mark.parametrize("rows", [1, 3, 60])  # 60 is the default geometry's pilot count
    def test_mimat_takes_one_block(self, rows):
        with pytest.raises(ValueError, match="estimate_mimat takes one block, not a stack"):
            estimate_mimat(np.ones((rows, 256), dtype=complex), CFG)


class TestMimat:
    def test_noiseless_single_tap_one_iteration(self):
        rng = RandomSource(135)
        tx, _ = random_block(CFG, rng)
        profile = ChannelProfile([3], [0.9 - 0.4j])
        rx = ofdm_link(tx, profile, CFG, None, rng)
        est_profile, response, report = estimate_mimat(rx, CFG)
        assert np.array_equal(est_profile.delays, [3])
        assert abs(est_profile.gains[0] - (0.9 - 0.4j)) < 1e-8
        truth = channel_frequency_response(profile, CFG)
        assert np.max(np.abs(response - truth)) < 1e-8

    def test_noiseless_six_taps_matches_known_support_ls(self):
        rng = RandomSource(136)
        profile = brazil_d_like_profile()
        tx, _ = random_block(CFG, rng)
        rx = ofdm_link(tx, profile, CFG, None, rng)
        est_profile, _, report = estimate_mimat(rx, CFG)
        assert report.iterations <= 4
        assert np.array_equal(est_profile.delays, profile.delays)
        # oracle: least squares on the true support from the pilot equations
        pilots = CFG.pilots.indices
        ls = rx[pilots] / CFG.pilot_values()
        fourier = np.exp(-2j * np.pi * np.outer(pilots, profile.delays) / CFG.n)
        oracle, *_ = np.linalg.lstsq(fourier, ls, rcond=None)
        assert np.max(np.abs(est_profile.gains - oracle)) < 1e-6
        assert np.max(np.abs(est_profile.gains - profile.gains)) < 1e-6

    @pytest.mark.parametrize("guard_left, guard_right", [(0, 0), (10, 9)])
    def test_noisy_gains_are_least_squares_on_the_final_support(self, guard_left, guard_right):
        cfg = OfdmConfig(guard_left=guard_left, guard_right=guard_right)
        pilots = cfg.pilots.indices
        for stream in range(1, 9):
            rng = RandomSource(146, stream=stream)
            tx, _ = random_block(cfg, rng)
            rx = ofdm_link(tx, brazil_d_like_profile(), cfg, 20.0, rng)
            est_profile, _, _ = estimate_mimat(rx, cfg, snr_linear=100.0)
            ls = rx[pilots] / cfg.pilot_values()
            fourier = np.exp(-2j * np.pi * np.outer(pilots, est_profile.delays) / cfg.n)
            oracle, *_ = np.linalg.lstsq(fourier, ls, rcond=None)
            error = np.linalg.norm(est_profile.gains - oracle)
            assert error <= 1e-10 * np.linalg.norm(oracle), f"stream {stream}"

    def test_aliased_geometry_gains_are_least_squares_on_the_final_support(self):
        # 32 pilots for 64 delays: delays d and d + 32 share one pilot column
        # up to rounding, so supports can be rank-deficient
        cfg = OfdmConfig(n=256, pilot_spacing=8, guard_left=0, guard_right=0, cp_length=64)
        pilots = cfg.pilots.indices
        dictionary = np.exp(-2j * np.pi * np.outer(pilots, np.arange(cfg.cp_length)) / cfg.n)
        for stream in range(1, 9):
            rng = RandomSource(147, stream=stream)
            tx, _ = random_block(cfg, rng)
            rx = ofdm_link(tx, brazil_d_like_profile(), cfg, 20.0, rng)
            est_profile, response, _ = estimate_mimat(rx, cfg, snr_linear=100.0)
            assert np.all(np.isfinite(response)), f"stream {stream}"
            ls = rx[pilots] / cfg.pilot_values()
            oracle, *_ = np.linalg.lstsq(dictionary[:, est_profile.delays], ls, rcond=None)
            error = np.linalg.norm(est_profile.gains - oracle)
            assert error <= 1e-10 * np.linalg.norm(oracle), f"stream {stream}"

    def test_comb_geometry_gains_after_a_long_prune_are_least_squares(self, monkeypatch):
        # on the comb geometry a noisy block can leave the threshold loop
        # with about 40 candidates; refinement prunes them by downdating one
        # inverse Gram, and the survivors' gains must still be least squares
        # (this Gram is 64 I, so the next test checks the downdate itself)
        cfg = OfdmConfig(guard_left=0, guard_right=0)
        sizes = []
        refine = ofdm._refine_support

        def recording(ls_values, projections, dictionary, gram, support, report):
            result = refine(ls_values, projections, dictionary, gram, support, report)
            sizes.append((len(support), result[0].size))
            return result

        monkeypatch.setattr(ofdm, "_refine_support", recording)
        rng = RandomSource(148, stream=1)
        tx, _ = random_block(cfg, rng)
        rx = ofdm_link(tx, brazil_d_like_profile(), cfg, 20.0, rng)
        est_profile, _, _ = estimate_mimat(rx, cfg, snr_linear=100.0)
        (entered, kept), = sizes
        assert entered - kept >= 20
        pilots = cfg.pilots.indices
        ls = rx[pilots] / cfg.pilot_values()
        fourier = np.exp(-2j * np.pi * np.outer(pilots, est_profile.delays) / cfg.n)
        oracle, *_ = np.linalg.lstsq(fourier, ls, rcond=None)
        error = np.linalg.norm(est_profile.gains - oracle)
        assert error <= 1e-10 * np.linalg.norm(oracle)

    def test_pruning_downdates_one_inverse_gram(self, monkeypatch):
        # the guarded geometry's pilot Gram is not diagonal, so every
        # downdate carries a rank-one correction; a run of prunes on one
        # eigh must still end at the least-squares gains of the survivors
        cfg = OfdmConfig()
        _, dictionary, gram = ofdm._delay_basis(cfg)
        profile = brazil_d_like_profile()
        rng = RandomSource(149, stream=1)
        ls = dictionary[:, profile.delays] @ profile.gains + 0.05 * rng.complex_normal(
            dictionary.shape[0])
        start = np.union1d(profile.delays, rng.choice(cfg.cp_length, 30, replace=False))
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.shape[0]) or eigh(a))
        support, gains = ofdm._refine_support(
            ls, dictionary.conj().T @ ls, dictionary, gram, start, SolverReport(solver="mimat"))
        assert sizes == [start.size]
        assert np.array_equal(support, profile.delays) and start.size - support.size >= 20
        oracle, *_ = np.linalg.lstsq(dictionary[:, support], ls, rcond=None)
        assert np.linalg.norm(gains - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_pilot_dictionary_is_built_once_per_geometry_and_read_only(self):
        # one cache holds the carrier-by-delay basis, its pilot rows (the
        # dictionary) and their Gram matrix
        cfg = OfdmConfig(guard_left=0, guard_right=0)
        built = ofdm._delay_basis(cfg)
        again = ofdm._delay_basis(OfdmConfig(guard_left=0, guard_right=0))
        assert all(a is b for a, b in zip(again, built))
        assert not any(matrix.flags.writeable for matrix in built)
        basis, dictionary, _ = built
        assert basis.shape == (cfg.n, cfg.cp_length)
        assert dictionary.tobytes() == basis[cfg.pilots.indices].tobytes()

    @pytest.mark.parametrize("geometry", [{}, {"guard_left": 0, "guard_right": 0},
                                          {"n": 64, "cp_length": 16, "guard_left": 3}])
    def test_delay_basis_entries_are_the_responses_bit_for_bit(self, geometry):
        # the basis stands in for channel_frequency_response's matrix and for
        # the dictionary built from the pilots alone: every entry is the
        # same elementwise expression, so no bit moves
        cfg = OfdmConfig(**geometry)
        basis, dictionary, _ = ofdm._delay_basis(cfg)
        delays = np.arange(cfg.cp_length)
        pilots = cfg.pilots.indices
        fresh = np.exp(-2j * np.pi * np.outer(pilots, delays) / cfg.n)
        assert dictionary.tobytes() == fresh.tobytes()
        profile = ChannelProfile(delays[1::7], RandomSource(150).complex_normal(delays[1::7].size))
        response = basis.take(profile.delays, axis=1) @ profile.gains
        assert response.tobytes() == channel_frequency_response(profile, cfg).tobytes()

    def test_support_size_non_increasing_noiseless(self):
        rng = RandomSource(137)
        profile = brazil_d_like_profile()
        tx, _ = random_block(CFG, rng)
        rx = ofdm_link(tx, profile, CFG, None, rng)

        # re-run the loop manually to capture per-iteration support sizes
        sizes = []
        snr = 1e12  # estimate_mimat's default
        h_time = np.fft.ifft(estimate_linear(rx, CFG))
        beta = 0.1 * float(np.max(np.abs(h_time)))
        pilots = CFG.pilots.indices
        ls = rx[pilots] / CFG.pilot_values()
        for i in range(1, 7):
            thr = beta * math.exp(MIMAT_ALPHA * i)
            cand = np.flatnonzero(np.abs(h_time) > thr)
            cand = cand[cand < CFG.cp_length]
            if cand.size == 0:
                break
            fourier = np.exp(-2j * np.pi * np.outer(pilots, cand) / CFG.n)
            gram = snr * (fourier @ fourier.conj().T) + np.eye(pilots.size)
            gains = snr * (fourier.conj().T @ np.linalg.solve(gram, ls))
            h_time = np.zeros(CFG.n, dtype=complex)
            h_time[cand] = gains
            sizes.append(cand.size)
        assert all(a >= b for a, b in zip(sizes[1:], sizes[2:]))

    def test_pilot_equations_satisfied_noiseless(self):
        rng = RandomSource(138)
        profile = brazil_d_like_profile()
        tx, _ = random_block(CFG, rng)
        rx = ofdm_link(tx, profile, CFG, None, rng)
        _, response, _ = estimate_mimat(rx, CFG)
        pilots = CFG.pilots.indices
        assert np.max(np.abs(response[pilots] * CFG.pilot_values() - rx[pilots])) < 1e-8


class TestEqualize:
    def test_perfect_estimate_no_noise(self):
        rng = RandomSource(139)
        tx, data = random_block(CFG, rng)
        profile = brazil_d_like_profile()
        rx = ofdm_link(tx, profile, CFG, None, rng)
        h = channel_frequency_response(profile, CFG)
        for method, snr in (("zf", None), ("mmse", 1e12)):
            eq, _ = equalize(rx[CFG.data_carriers], h[CFG.data_carriers], method, snr)
            assert np.array_equal(nearest_symbols(eq, CFG), data)

    def test_mmse_approaches_zf_at_high_snr(self):
        rng = RandomSource(140)
        h = rng.complex_normal(64) + 2.0
        rx = rng.complex_normal(64)
        zf, _ = equalize(rx, h, "zf")
        mmse, _ = equalize(rx, h, "mmse", snr_linear=1e9)
        assert np.max(np.abs(zf - mmse)) < 1e-6

    def test_zf_flags_dead_carriers(self):
        h = np.array([1.0, 0.0, 2.0], dtype=complex)
        eq, dead = equalize(np.ones(3, dtype=complex), h, "zf")
        assert list(dead) == [1]
        assert eq[1] == 0.0

    def test_bias_corrected_mmse_equals_zf_decisions(self):
        # per-carrier Wiener weight times the channel is a real positive
        # scale; dividing it out makes MMSE and ZF decisions identical
        rng = RandomSource(141)
        h = rng.complex_normal(128) + 0.5
        rx = rng.complex_normal(128)
        zf, _ = equalize(rx, h, "zf")
        mmse, _ = equalize(rx, h, "mmse", snr_linear=10.0)
        bias = np.abs(h) ** 2 / (np.abs(h) ** 2 + 0.1)
        assert np.max(np.abs(mmse / bias - zf)) < 1e-10

    def test_mmse_tracks_zf_over_cnr_sweep(self):
        # hard-decision 16-QAM: the Wiener scaling bias makes raw MMSE
        # slightly worse than ZF, never better; see the decisions ledger
        profile = brazil_d_like_profile()
        h = channel_frequency_response(profile, CFG)
        for cnr in (10.0, 20.0, 30.0):
            zf_err = mmse_err = 0
            for seed in range(20):
                rng = RandomSource(141, stream=seed + 1)
                tx, data = random_block(CFG, rng)
                rx = ofdm_link(tx, profile, CFG, cnr, rng)
                snr = 10 ** (cnr / 10.0)
                for method in ("zf", "mmse"):
                    eq, _ = equalize(
                        rx[CFG.data_carriers], h[CFG.data_carriers], method,
                        snr if method == "mmse" else None,
                    )
                    errs = int(np.sum(nearest_symbols(eq, CFG) != data))
                    if method == "zf":
                        zf_err += errs
                    else:
                        mmse_err += errs
            assert mmse_err <= 1.15 * zf_err + 5


class TestSer:
    def test_identical_streams(self):
        rate, _ = ser_from_counts(0, 3)
        assert rate == 0.0

    def test_chance_level_16qam(self):
        rng = RandomSource(142)
        tx = rng.integers(0, 16, 200_000)
        guesses = rng.integers(0, 16, 200_000)
        rate, half = ser_from_counts(int(np.sum(tx != guesses)), tx.size)
        assert abs(rate - 15.0 / 16.0) < 3 * half

    def test_awgn_matches_theory(self):
        es_n0 = 15.0
        rng = RandomSource(143)
        table = CFG.symbols()
        count = 400_000
        tx = rng.integers(0, 16, count)
        symbols = table[tx]
        sigma = math.sqrt(1.0 / 10 ** (es_n0 / 10.0))
        noisy = symbols + rng.complex_normal(count, scale=sigma)
        decisions = nearest_symbols(noisy, CFG)
        rate, half = ser_from_counts(int(np.sum(tx != decisions)), tx.size)
        assert abs(rate - qam16_awgn_ser_theory(es_n0)) < 3 * half + 1e-5


class TestTimeVaryingChannel:
    def test_power_preserved_under_drift(self):
        rng = RandomSource(144)
        chan = TimeVaryingChannel(brazil_d_like_profile(), rho=0.95)
        powers = []
        for _ in range(4000):
            profile = chan.step(rng)
            powers.append(np.abs(profile.gains) ** 2)
        mean_power = np.mean(powers, axis=0)
        base_power = np.abs(brazil_d_like_profile().gains) ** 2
        assert np.max(np.abs(mean_power - base_power) / base_power) < 0.25

    def test_rho_one_is_static(self):
        rng = RandomSource(145)
        base = brazil_d_like_profile()
        chan = TimeVaryingChannel(base, rho=1.0)
        profile = chan.step(rng)
        assert np.array_equal(profile.gains, base.gains)


class TestSerSweep:
    @pytest.mark.parametrize("rho, built", [(None, []), (0.0, [0.0]), (0.5, [0.5])])
    def test_any_given_doppler_rho_drives_a_time_varying_channel(self, monkeypatch, rho, built):
        # rho = 0 is a valid drift (a fresh draw of the gains every symbol),
        # not "no drift": only None keeps the channel static
        seen = []

        class Spy(TimeVaryingChannel):
            def __init__(self, profile, rho):
                seen.append(rho)
                super().__init__(profile, rho)

        monkeypatch.setattr(ofdm, "TimeVaryingChannel", Spy)
        ser_sweep(CFG, brazil_d_like_profile(), [15.0], 2, seed=3,
                  doppler_rho=rho, estimators=("ideal",))
        assert seen == built


class TestProfileConfig:
    def test_round_trip(self):
        profile = brazil_d_like_profile()
        back = ChannelProfile.from_config(profile.to_config())
        assert np.array_equal(back.delays, profile.delays)
        assert np.max(np.abs(back.gains - profile.gains)) < 1e-15
