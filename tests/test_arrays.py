"""ULA simulation, MDL enumeration, aperture patterns, thinned layouts."""

import math

import numpy as np
import pytest
import scipy.signal

from sparsekit.core import NumericError, RandomSource
from sparsekit.arrays import (
    ArrayLayout,
    UlaScenario,
    aperture_pattern,
    dirichlet_pattern,
    free_parameter_count,
    layout_search_exhaustive,
    mdl_enumerate,
    simulate_snapshots,
    snapshot_covariance,
    thinned_array_stats,
)
from sparsekit.spectral import CovarianceEstimate


def two_source_scenario(snr_db_value, n=6, m=1000, doas=(-0.3, 0.4)):
    power = 10 ** (snr_db_value / 10.0)
    return UlaScenario(
        sensors=n,
        spacing=0.5,
        doas=np.array(doas),
        source_cov=power * np.eye(2),
        noise_var=1.0,
        snapshots=m,
    )


class TestSimulateSnapshots:
    def test_noise_only_covariance(self):
        scenario = UlaScenario(
            sensors=4, spacing=0.5, doas=np.array([]), source_cov=np.zeros((0, 0)),
            noise_var=2.0, snapshots=20000,
        )
        x = simulate_snapshots(scenario, RandomSource(70))
        r = snapshot_covariance(x).matrix
        assert np.linalg.norm(r - 2.0 * np.eye(4)) / np.linalg.norm(2 * np.eye(4)) < 0.05

    def test_broadside_source_rank_one_along_ones(self):
        scenario = UlaScenario(
            sensors=5, spacing=0.5, doas=np.array([0.0]), source_cov=np.eye(1),
            noise_var=0.0, snapshots=500,
        )
        x = simulate_snapshots(scenario, RandomSource(71))
        r = snapshot_covariance(x).matrix
        ones = np.ones(5) / math.sqrt(5)
        projected = np.outer(ones, ones) @ r @ np.outer(ones, ones)
        assert np.linalg.norm(r - projected) < 1e-10 * np.linalg.norm(r)

    def test_large_m_matches_theory(self):
        scenario = two_source_scenario(10.0, m=100_000)
        x = simulate_snapshots(scenario, RandomSource(72))
        r_hat = snapshot_covariance(x).matrix
        r = scenario.theory_covariance().matrix
        assert np.linalg.norm(r_hat - r) / np.linalg.norm(r) < 0.02

    def test_non_psd_source_cov_rejected(self):
        with pytest.raises(ValueError):
            UlaScenario(
                sensors=4, spacing=0.5, doas=np.array([0.1]),
                source_cov=-np.eye(1), noise_var=1.0, snapshots=10,
            )


class TestMdl:
    def test_exact_spherical_covariance_k0(self):
        cov = CovarianceEstimate(0.7 * np.eye(6), snapshots=500)
        report = mdl_enumerate(cov)
        assert report.estimated_k == 0
        assert report.criteria[0] == min(report.criteria)

    def test_free_parameter_closed_form(self):
        for n in (3, 6, 9):
            for k in range(n):
                direct = 1 + k + sum(2 * (n - i) for i in range(1, k + 1))
                assert free_parameter_count(n, k) == direct == k * (2 * n - k) + 1

    def test_detection_rate_fig20_analog(self):
        hits = 0
        for seed in range(100):
            rng = RandomSource(73, stream=seed + 1)
            x = simulate_snapshots(two_source_scenario(10.0), rng)
            report = mdl_enumerate(snapshot_covariance(x))
            hits += report.estimated_k == 2
        assert hits >= 90

    def test_low_snr_underestimates(self):
        under = over = 0
        for seed in range(200):
            rng = RandomSource(74, stream=seed + 1)
            x = simulate_snapshots(two_source_scenario(-10.0, m=200), rng)
            k_hat = mdl_enumerate(snapshot_covariance(x)).estimated_k
            under += k_hat < 2
            over += k_hat > 2
        assert under > over

    def test_consistency_with_exact_covariance(self):
        for doas in ((-0.5, 0.2), (-0.1, 0.8), (0.0, 0.35)):
            scenario = two_source_scenario(0.0, m=100_000, doas=doas)
            cov = scenario.theory_covariance()
            assert mdl_enumerate(cov).estimated_k == 2

    def test_criterion_difference_constant_in_k(self):
        # adding back the k-dependent part of the full likelihood recovers a
        # constant offset m * sum log(lambda_i) independent of k
        rng = RandomSource(75)
        x = simulate_snapshots(two_source_scenario(5.0, m=400), rng)
        cov = snapshot_covariance(x)
        eigvals = np.sort(np.linalg.eigvalsh(cov.matrix))[::-1]
        m, n = cov.snapshots, cov.dimension
        report = mdl_enumerate(cov)
        full = np.empty(n)
        for k in range(n):
            tail = eigvals[k:]
            full[k] = m * np.sum(np.log(eigvals[:k])) + m * (n - k) * math.log(np.mean(tail))
            full[k] += 0.5 * report.free_params[k] * math.log(m)
        shift = full - report.criteria
        expected = m * np.sum(np.log(eigvals))
        assert np.max(np.abs(shift - expected)) < 1e-8 * abs(expected)


def reference_mdl_criteria(covariance):
    """The per-matrix MDL criterion, written out with Python floats."""
    eigvals = np.clip(covariance.eigvals, 1e-300, None)
    n, m = covariance.dimension, covariance.snapshots
    criteria = np.empty(n)
    for k in range(n):
        tail = eigvals[k:]
        ratio = float(np.mean(tail)) / float(np.exp(np.mean(np.log(tail))))
        criteria[k] = (m * (n - k) * math.log(max(ratio, 1.0))
                       + 0.5 * (free_parameter_count(n, k) - 1) * math.log(m))
    return criteria


def fig20_draws(count, snr_db_value=-10.0, m=200):
    """count snapshot arrays of one scenario, one stream each."""
    scenario = two_source_scenario(snr_db_value, m=m)
    return [simulate_snapshots(scenario, RandomSource(76, stream=t)) for t in range(count)]


class TestStackedMdl:
    """A (T, n, n) covariance stack enumerates each row as a lone matrix."""

    @pytest.mark.parametrize("count", [1, 40])
    def test_rows_equal_per_matrix_calls(self, count):
        draws = fig20_draws(count)
        stack = snapshot_covariance(iter(draws))
        assert stack.matrix.shape == (count, 6, 6) and stack.dimension == 6
        report = mdl_enumerate(stack)
        assert report.estimated_k.shape == (count,) and report.criteria.shape == (count, 6)
        for row, x in enumerate(draws):
            cov = snapshot_covariance(x)
            assert np.array_equal(stack.matrix[row], cov.matrix)
            assert np.array_equal(stack.eigvals[row], cov.eigvals)
            assert np.array_equal(stack.eigvecs[row], cov.eigvecs)
            solo = mdl_enumerate(cov)
            assert isinstance(solo.estimated_k, int)
            assert report.estimated_k[row] == solo.estimated_k
            assert np.array_equal(report.criteria[row], solo.criteria)
            assert np.array_equal(solo.criteria, reference_mdl_criteria(cov))
            assert np.array_equal(report.free_params, solo.free_params)
        if count > 1:
            assert len(set(report.estimated_k.tolist())) > 1  # rows differ at -10 dB

    def test_stack_from_a_generator_never_holds_the_snapshots(self):
        scenario = two_source_scenario(0.0, m=50)
        streams = (RandomSource(77, stream=t) for t in range(3))
        stack = snapshot_covariance(simulate_snapshots(scenario, rng) for rng in streams)
        assert stack.matrix.shape == (3, 6, 6) and stack.snapshots == 50

    def test_mixed_snapshot_counts_rejected(self):
        draws = [np.ones((4, 10)), np.ones((4, 12))]
        with pytest.raises(ValueError, match="snapshot count"):
            snapshot_covariance(draws)

    def test_non_psd_row_named(self):
        stack = np.array([np.eye(4), np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])
        with pytest.raises(ValueError, match="positive semidefinite in stack row 2"):
            CovarianceEstimate(stack, snapshots=100)

    def test_non_finite_snapshot_rejected(self):
        # on two sensors numpy's eigensolver returns NaN eigenvalues without
        # an error, and MDL would enumerate them as k = 0
        x = RandomSource(78).complex_normal((2, 20))
        x[1, 4] = np.nan
        with pytest.raises(ValueError, match="must be finite$"):
            snapshot_covariance(x)
        draws = fig20_draws(3)
        draws[1][0, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite in stack row 1"):
            snapshot_covariance(iter(draws))

    def test_trace_identity_checked_per_row(self):
        stack = snapshot_covariance(iter(fig20_draws(5)))
        assert mdl_enumerate(stack) is not None
        # a matrix that no longer matches its eigendecomposition breaks
        # tr(R_ML^-1 R_hat) = n in its row only
        tampered = stack.matrix.copy()
        tampered[3] *= 2.0
        object.__setattr__(stack, "matrix", tampered)
        with pytest.raises(NumericError, match="ML trace identity violated in stack row 3"):
            mdl_enumerate(stack)

    def test_stacked_report_has_no_csv_form(self, tmp_path):
        report = mdl_enumerate(snapshot_covariance(iter(fig20_draws(2))))
        with pytest.raises(ValueError, match="single covariance"):
            report.to_csv(tmp_path / "mdl.csv")


class TestScenarioOperators:
    def test_snapshots_follow_the_model_with_the_stored_factors(self):
        scenario = two_source_scenario(3.0, m=64)
        sensors = np.arange(6)[:, None]
        steering = np.exp(2j * np.pi * 0.5 * sensors * np.sin(np.array([-0.3, 0.4]))[None, :])
        assert np.array_equal(scenario.steering, steering)
        chol = np.linalg.cholesky(scenario.source_cov
                                  + 1e-15 * np.trace(scenario.source_cov).real * np.eye(2))
        assert np.array_equal(scenario.source_chol, chol)
        rng = RandomSource(78)
        noise = rng.complex_normal((6, 64))
        expected = steering @ (chol @ rng.complex_normal((2, 64))) + noise
        assert np.array_equal(simulate_snapshots(scenario, RandomSource(78)), expected)

    def test_silent_sources_simulate_noise_only(self):
        scenario = UlaScenario(sensors=4, spacing=0.5, doas=np.array([0.1, 0.5]),
                               source_cov=np.zeros((2, 2)), noise_var=1.0, snapshots=8)
        assert np.array_equal(scenario.theory_covariance().matrix, np.eye(4))
        rng = RandomSource(79)
        noise = rng.complex_normal((4, 8))
        assert np.array_equal(simulate_snapshots(scenario, RandomSource(79)), noise)


class TestAperturePattern:
    def test_single_element_constant(self):
        layout = ArrayLayout(positions=[0.0], weights=[0.7])
        w = aperture_pattern(layout, 0.5, np.linspace(-1, 1, 32))
        assert np.allclose(np.abs(w), 0.7)

    def test_full_ula_matches_dirichlet(self):
        n = 64
        u = np.linspace(-1, 1, 2049)
        layout = ArrayLayout(positions=np.arange(n))
        w = np.abs(aperture_pattern(layout, 0.5, u))
        assert np.max(np.abs(w - dirichlet_pattern(n, 0.5, u))) < 1e-10

    def test_first_sidelobe_minus_13_3_db(self):
        n = 64
        u = np.linspace(0, 1, 200_001)
        layout = ArrayLayout(positions=np.arange(n))
        w = np.abs(aperture_pattern(layout, 0.5, u)) / n
        # first null at u = 2/n, then the first sidelobe
        first_null = np.argmax(w < 1e-6)
        segment = w[first_null:]
        peak_db = 20 * math.log10(segment.max())
        assert abs(peak_db - (-13.3)) <= 0.1

    def test_symmetric_layout_even_magnitude(self):
        layout = ArrayLayout(positions=[-2.0, -1.0, 1.0, 2.0], weights=[1.0, 2.0, 2.0, 1.0])
        u = np.linspace(-1, 1, 101)
        w = aperture_pattern(layout, 0.5, u)
        assert np.max(np.abs(w - np.conj(w[::-1]))) < 1e-12
        assert np.max(np.abs(np.abs(w) - np.abs(w)[::-1])) < 1e-12

    def test_fir_duality(self):
        rng = RandomSource(76)
        weights = rng.standard_normal(12)
        layout = ArrayLayout(positions=np.arange(12), weights=weights)
        u = np.linspace(-1, 1, 64)
        w = aperture_pattern(layout, 0.5, u)
        omega = 2 * np.pi * 0.5 * u
        _, response = scipy.signal.freqz(weights, worN=omega)
        assert np.max(np.abs(w - response)) < 1e-10


class TestThinnedArrays:
    def test_no_thinning_matches_full_pattern(self):
        n = 32
        mean_ratio, _ = thinned_array_stats(n, n, trials=3, rng=RandomSource(77))
        u = np.linspace(-1, 1, 1024)
        full = np.abs(aperture_pattern(ArrayLayout(np.arange(n)), 0.5, u)) ** 2 / n**2
        side = np.abs(u) > 1.0 / ((n - 1) * 0.5)
        assert abs(mean_ratio - float(np.mean(full[side]))) < 1e-12

    def test_mean_sidelobe_ratio_near_one_over_k(self):
        mean_ratio, peaks = thinned_array_stats(
            101, 25, trials=500, rng=RandomSource(78), positions="continuous"
        )
        assert abs(mean_ratio - 1.0 / 25) <= 0.2 / 25
        # descriptive heuristic: peak amplitude of order sqrt(k ln k)
        heuristic = math.sqrt(25 * math.log(25))
        assert 0.3 * heuristic < np.median(peaks) < 3.0 * heuristic

    def test_grid_thinning_matches_finite_population_closed_form(self):
        n, k, d = 101, 25, 0.5
        mean_ratio, _ = thinned_array_stats(n, k, trials=300, rng=RandomSource(78))
        u = np.linspace(-1, 1, 1024)
        side = np.abs(u) > 1.0 / ((n - 1) * d)
        full = np.abs(aperture_pattern(ArrayLayout(np.arange(n).astype(float)), d, u)) ** 2
        closed = (k + (k * (k - 1) / (n * (n - 1))) * (np.mean(full[side]) - n)) / k**2
        assert abs(mean_ratio - closed) < 0.05 * closed

    def test_binned_thinning_lowers_near_mainlobe_sidelobes(self):
        n, k = 101, 25
        d = 0.5
        aperture = (n - 1) * d
        u = np.linspace(-1, 1, 2048)
        near = (np.abs(u) > 1.0 / aperture) & (np.abs(u) < k / aperture)
        meds = {}
        for binned in (False, True):
            rng = RandomSource(79)
            levels = []
            for _ in range(200):
                if binned:
                    edges = np.linspace(0, n, k + 1)
                    pos = np.array([rng.integers(int(e0), max(int(e1), int(e0) + 1))
                                    for e0, e1 in zip(edges[:-1], edges[1:])])
                    pos = np.unique(pos)
                else:
                    pos = np.sort(rng.choice(n, size=k, replace=False))
                w = np.abs(aperture_pattern(ArrayLayout(pos.astype(float)), d, u)) ** 2
                levels.append(np.mean(w[near]) / pos.size**2)
            meds[binned] = np.median(levels)
        assert meds[True] < meds[False]

    @pytest.mark.parametrize("positions", ["grid", "continuous"])
    def test_binned_draws_one_position_per_bin(self, positions):
        from sparsekit.arrays import _draw_thinning

        n, k = 101, 25
        edges = np.linspace(0.0, n - 1.0, k + 1)
        rng = RandomSource(81)
        for _ in range(20):
            pos = np.sort(_draw_thinning(n, k, rng, positions, binned=True))
            assert pos.size == k and np.unique(pos).size == k
            bins = np.searchsorted(edges, pos, side="right") - 1
            assert np.array_equal(bins, np.arange(k))
        mean_ratio, peaks = thinned_array_stats(n, k, trials=5, rng=RandomSource(82),
                                                binned=True, positions=positions)
        assert math.isfinite(mean_ratio) and peaks.shape == (5,)
        assert np.all(np.isfinite(peaks))

    def test_binned_grid_draw_refills_edge_collisions(self):
        from sparsekit.arrays import _draw_thinning

        rng = RandomSource(83)
        for _ in range(20):
            pos = _draw_thinning(8, 8, rng, "grid", binned=True)
            assert np.array_equal(np.sort(pos), np.arange(8.0))


class TestLayoutSearch:
    def test_full_array_is_only_candidate(self):
        layout, _ = layout_search_exhaustive(8, 8)
        assert np.array_equal(layout.positions, np.arange(8.0))

    def test_beats_median_random_thinning(self):
        n, k = 12, 6
        layout, metrics = layout_search_exhaustive(n, k, objective="peak-sidelobe")
        rng = RandomSource(80)
        _, peaks = thinned_array_stats(n, k, trials=200, rng=rng, grid_points=512)
        random_peak_ratios = (peaks / k) ** 2
        assert metrics["peak_ratio"] <= np.median(random_peak_ratios)

    def test_energy_objective_deterministic(self):
        first, m1 = layout_search_exhaustive(16, 8, objective="sidelobe-energy")
        second, m2 = layout_search_exhaustive(16, 8, objective="sidelobe-energy")
        assert np.array_equal(first.positions, second.positions)
        assert m1["energy"] == m2["energy"]

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            layout_search_exhaustive(40, 20)


class TestOneSlotGrid:
    def test_thinned_array_stats_names_the_slot_count(self):
        with pytest.raises(ValueError, match="2 grid slots"):
            thinned_array_stats(1, 1, 1, RandomSource(82))

    def test_layout_search_names_the_slot_count(self):
        with pytest.raises(ValueError, match="2 grid slots"):
            layout_search_exhaustive(1, 1)


class TestCsvWriters:
    def test_mdl_report_csv(self, tmp_path):
        cov = CovarianceEstimate(np.diag([5.0, 1.0, 1.0, 1.0]).astype(complex), 400)
        report = mdl_enumerate(cov)
        path = tmp_path / "mdl.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,criterion,kappa"
        assert len(lines) == 5
        for k, line in enumerate(lines[1:]):
            index, criterion, kappa = line.split(",")
            assert int(index) == k and int(kappa) == report.free_params[k]
            assert float(criterion) == report.criteria[k]

    def test_pattern_csv(self, tmp_path):
        from sparsekit.arrays import pattern_to_csv

        u = np.linspace(-1, 1, 11)
        w = aperture_pattern(ArrayLayout(np.arange(4.0)), 0.5, u)
        path = tmp_path / "pattern.csv"
        pattern_to_csv(path, u, w)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "u,pattern_db"
        assert len(lines) == 12
