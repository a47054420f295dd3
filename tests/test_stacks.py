"""Stacked solves: each row of a (T, n) stack equals its own one-signal call.

Covers the stack form of iterative_reconstruct, chebyshev_accelerate,
cg_accelerate, conjugate_gradient, conv_erasure_decode and
elp_erasure_decode, and of the spectral estimators sample_covariance,
prony, pisarenko and music with the polynomial_roots they share. Examples
are drawn deterministically (``derandomize=True``) and without a
per-example deadline.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit import codes, sampling
from sparsekit.codes import (
    ConvCode,
    DftBlockCode,
    conv_encode,
    conv_erasure_decode,
    elp_erasure_decode,
)
from sparsekit.core import (
    InstabilityError,
    NumericError,
    RandomSource,
    SupportSet,
    polynomial_roots,
)
from sparsekit.experiments import _sampled_instance
from sparsekit.sampling import (
    cg_accelerate,
    chebyshev_accelerate,
    conjugate_gradient,
    imat,
    iterative_reconstruct,
)
from sparsekit.spectral import (
    CovarianceEstimate,
    SpectralModel,
    default_grid,
    exact_tone_covariance,
    music,
    pisarenko,
    prony,
    sample_covariance,
)

STACK_SETTINGS = settings(derandomize=True, deadline=None, max_examples=12)
MASKED_SOLVERS = [iterative_reconstruct, chebyshev_accelerate, cg_accelerate]
REPORT_FIELDS = ("residuals", "snrs", "iterations", "converged", "flags")
FIG15_CODE = ConvCode([1, 2, 3, 4, 5, 16], [16, 5, 4, 3, 2, 1])


def assert_rows_equal_solo(estimates, reports, solos):
    """Row i's estimate and report equal solos[i] = (estimate, report)."""
    assert len(estimates) == len(reports) == len(solos)
    for estimate, report, (solo_estimate, solo_report) in zip(estimates, reports, solos):
        assert estimate.tobytes() == solo_estimate.tobytes()
        for field in REPORT_FIELDS:
            assert getattr(report, field) == getattr(solo_report, field), field


def masked_stack(n, band, m, seeds):
    """(signals, observed, sample_times) of one sampled bandpass signal per seed."""
    signals, observed, times = zip(*(_sampled_instance(n, band, m, RandomSource(seed))
                                     for seed in seeds))
    return np.array(signals), np.array(observed), list(times)


@st.composite
def masked_cases(draw):
    n = draw(st.sampled_from([32, 64]))
    width = draw(st.integers(2, 8))
    start = draw(st.integers(0, n - width))
    band = np.arange(start, start + width)
    m = draw(st.integers(width, 3 * width))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
    kwargs = {"max_iters": draw(st.integers(0, 60)),
              "eps": draw(st.sampled_from([1e-300, 1e-8, 1e-3]))}
    return n, band, m, seeds, kwargs, draw(st.booleans())


@st.composite
def psd_cases(draw):
    """(rhs, matrices): one PSD matrix per row, some rank-deficient, one
    possibly zero (its curvature vanishes)."""
    rows = draw(st.integers(1, 5))
    size = draw(st.integers(2, 10))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    rng = RandomSource(draw(st.integers(0, 10**6)))
    matrices, rhs = [], []
    for _ in range(rows):
        rank = draw(st.integers(0, size))
        factor = rng.standard_normal((size, rank))
        if dtype is np.complex128:
            factor = factor + 1j * rng.standard_normal((size, rank))
        matrices.append(factor @ factor.conj().T)
        rhs.append(rng.standard_normal(size).astype(dtype))
    return np.array(rhs), np.array(matrices)


class TestMaskedSolverStacks:
    @pytest.mark.parametrize("solver", MASKED_SOLVERS, ids=lambda f: f.__name__)
    @STACK_SETTINGS
    @given(case=masked_cases())
    def test_rows_equal_solo_solves(self, solver, case):
        n, band, m, seeds, kwargs, with_reference = case
        signals, observed, times = masked_stack(n, band, m, seeds)
        support = SupportSet(band, n)
        references = signals if with_reference else None
        estimates, reports = solver(observed, times, support, reference=references, **kwargs)
        assert estimates.shape == observed.shape
        solos = [solver(observed[row], times[row], support,
                        reference=None if references is None else references[row], **kwargs)
                 for row in range(len(seeds))]
        assert_rows_equal_solo(estimates, reports, solos)

    @pytest.mark.parametrize("solver", MASKED_SOLVERS, ids=lambda f: f.__name__)
    def test_rows_stop_at_their_own_iterations(self, solver):
        signals, observed, times = masked_stack(64, np.arange(10, 18), 16, range(6))
        support = SupportSet(np.arange(10, 18), 64)
        estimates, reports = solver(observed, times, support, max_iters=400, eps=1e-3,
                                    reference=signals)
        assert len({report.iterations for report in reports}) > 2
        solos = [solver(observed[row], times[row], support, max_iters=400, eps=1e-3,
                        reference=signals[row]) for row in range(6)]
        assert_rows_equal_solo(estimates, reports, solos)


class TestConjugateGradientStacks:
    @STACK_SETTINGS
    @given(case=psd_cases(), max_iters=st.integers(0, 12), with_reference=st.booleans())
    def test_rows_equal_solo_solves(self, case, max_iters, with_reference):
        rhs, matrices = case
        references = np.ones_like(rhs) if with_reference else None
        calls = np.zeros(len(rhs), dtype=int)

        def apply_op(p, rows):
            calls[rows] += 1
            return np.matmul(matrices[rows], p[:, :, None])[:, :, 0]

        estimates, reports = conjugate_gradient(apply_op, rhs, max_iters=max_iters,
                                                reference=references)
        for row in range(len(rhs)):
            solo_calls = []

            def solo_op(v, row=row):
                solo_calls.append(1)
                return matrices[row] @ v

            solo = conjugate_gradient(solo_op, rhs[row], max_iters=max_iters,
                                      reference=None if references is None else references[row])
            assert_rows_equal_solo(estimates[row:row + 1], reports[row:row + 1], [solo])
            assert calls[row] == len(solo_calls)  # the operator sees running rows only

    def test_a_vanished_curvature_stops_its_row_only(self):
        matrices = np.array([np.eye(3), np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0])])
        rhs = np.ones((3, 3))
        _, reports = conjugate_gradient(
            lambda p, rows: np.matmul(matrices[rows], p[:, :, None])[:, :, 0], rhs)
        assert [report.flags for report in reports] == [
            [], ["curvature inner product vanished"], []]
        assert [report.iterations for report in reports] == [1, 0, 3]
        assert [report.converged for report in reports] == [True, False, True]


@st.composite
def conv_cases(draw):
    """Streams of fig15's code, each with its own erasure count."""
    rows = draw(st.integers(1, 5))
    streams, erasures = [], []
    for _ in range(rows):
        rng = RandomSource(draw(st.integers(0, 10**6)))
        y = conv_encode(rng.uniform(-1.0, 1.0, 20), FIG15_CODE)
        count = draw(st.integers(0, y.size - 1))
        positions = np.sort(rng.choice(y.size, size=count, replace=False))
        y[positions] = 0.0
        streams.append(y)
        erasures.append(SupportSet(positions, y.size))
    return np.array(streams), erasures


class TestConvErasureStacks:
    @STACK_SETTINGS
    @given(case=conv_cases(), max_iters=st.sampled_from([3, 30, 200]))
    def test_rows_equal_solo_decodes(self, case, max_iters):
        streams, erasures = case
        estimates, reports = conv_erasure_decode(streams, erasures, FIG15_CODE,
                                                 max_iters=max_iters)
        assert estimates.shape == (len(streams), 20)
        solos = [conv_erasure_decode(stream, erased, FIG15_CODE, max_iters=max_iters)
                 for stream, erased in zip(streams, erasures)]
        assert_rows_equal_solo(estimates, reports, solos)
        assert [report.solver for report in reports] == ["cg"] * len(streams)


def block_stack(code, positions_per_row, seed, noise=0.0):
    """Received codewords of code, row i erased at positions_per_row[i];
    noise adds a non-codeword part to the retained samples."""
    received = []
    for row, positions in enumerate(positions_per_row):
        rng = RandomSource(seed, stream=row)
        word = code.encode(rng.standard_normal(code.l)) + noise * rng.standard_normal(code.n)
        word[positions] = 0.0
        received.append(word)
    return np.array(received), [SupportSet(positions, code.n) for positions in positions_per_row]


@st.composite
def block_cases(draw):
    l, p, q = draw(st.sampled_from([(16, 16, 15), (16, 16, 1), (8, 8, 3), (12, 6, 5)]))
    code = DftBlockCode(l=l, p=p, q=q)
    size = draw(st.integers(0, p))
    rows = draw(st.integers(1, 5))
    positions = [np.arange(1, size + 1) if draw(st.booleans())
                 else np.sort(draw(st.permutations(range(code.n)))[:size]).astype(int)
                 for _ in range(rows)]
    return code, positions, draw(st.integers(0, 10**6))


class TestElpErasureStacks:
    @STACK_SETTINGS
    @given(case=block_cases())
    def test_rows_equal_solo_decodes(self, case):
        code, positions, seed = case
        received, erasures = block_stack(code, positions, seed)
        repaired, reports = elp_erasure_decode(received, erasures, code)
        for row, report in enumerate(reports):
            solo = elp_erasure_decode(received[row], erasures[row], code)
            assert repaired[row].tobytes() == solo.tobytes()
            assert report.converged and report.flags == []

    def test_a_message_stack_encodes_row_by_row(self):
        code = DftBlockCode(l=16, p=16, q=15)
        messages = RandomSource(4).standard_normal((5, 16))
        codewords = code.encode(messages)
        for message, codeword in zip(messages, codewords):
            assert codeword.tobytes() == code.encode(message).tobytes()

    def test_an_unstable_row_is_frozen_among_stable_ones(self):
        # a 24-sample burst of a (96, 48) DFT code: the recursion carries
        # codewords, but blows up on a received word off the code
        code = DftBlockCode(l=48, p=48)
        burst = [np.arange(1, 25)] * 4
        clean, erasures = block_stack(code, burst, seed=5)
        noisy, _ = block_stack(code, burst, seed=6, noise=1e-3)
        received = np.array([clean[0], noisy[1], clean[2], clean[3]])
        repaired, reports = elp_erasure_decode(received, erasures, code)
        assert [report.converged for report in reports] == [True, False, True, True]
        with pytest.raises(InstabilityError) as unstable:
            elp_erasure_decode(received[1], erasures[1], code)
        assert reports[1].flags == [str(unstable.value)]
        assert np.array_equal(repaired[1], received[1])  # not repaired: erasures read as zero
        for row in (0, 2, 3):
            solo = elp_erasure_decode(received[row], erasures[row], code)
            assert repaired[row].tobytes() == solo.tobytes()
            assert reports[row].flags == []
        assert np.all(np.isfinite(repaired))


class TestStackChecks:
    """A malformed stack raises ValueError before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        """A context in which a transform or a CG solve fails the test."""

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the stack was checked")

        @contextlib.contextmanager
        def context():
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "_unitary_dft", forbidden)
                patch.setattr(codes, "_sorted_dft", forbidden)
                patch.setattr(codes, "conjugate_gradient", forbidden)
                yield

        return context

    @pytest.mark.parametrize("solver", MASKED_SOLVERS, ids=lambda f: f.__name__)
    def test_masked_companions(self, solver, no_work):
        signals, observed, times = masked_stack(64, np.arange(8), 16, range(3))
        support = SupportSet(np.arange(8), 64)
        mixed = times[:2] + [SupportSet(np.arange(20), 64)]
        with no_work():
            with pytest.raises(ValueError, match="one sample_times per row"):
                solver(observed, times[:2], support)
            with pytest.raises(ValueError, match="same number of samples"):
                solver(observed, mixed, support)
            with pytest.raises(ValueError, match="one reference per row: got 2 for 3"):
                solver(observed, times, support, reference=signals[:2])

    @pytest.mark.parametrize("solver", MASKED_SOLVERS + [imat], ids=lambda f: f.__name__)
    def test_masked_ambient_lengths(self, solver, no_work):
        observed = np.ones((3, 16))
        times = [SupportSet(np.arange(4), 16)] * 2 + [SupportSet(np.arange(4), 20)]
        support = () if solver is imat else (SupportSet(np.arange(2), 16),)
        with no_work():
            with pytest.raises(ValueError, match="must match the signal length in stack row 2$"):
                solver(observed, times, *support)
            with pytest.raises(ValueError, match="must match the signal length$"):
                solver(observed[2], times[2], *support)

    @pytest.mark.parametrize("solver", MASKED_SOLVERS + [imat], ids=lambda f: f.__name__)
    def test_masked_empty_row(self, solver, no_work):
        observed = np.ones((3, 16))
        times = [SupportSet(np.arange(4), 16), SupportSet([], 16), SupportSet(np.arange(4), 16)]
        support = () if solver is imat else (SupportSet(np.arange(2), 16),)
        with no_work():
            with pytest.raises(ValueError, match="need at least one retained sample in stack row 1$"):
                solver(observed, times, *support)
            with pytest.raises(ValueError, match="need at least one retained sample$"):
                solver(observed[1], times[1], *support)

    def test_conjugate_gradient_references(self):
        def apply_op(p, rows):
            raise AssertionError("the operator ran")

        with pytest.raises(ValueError, match="one reference per row: got 1 for 2"):
            conjugate_gradient(apply_op, np.ones((2, 4)), reference=np.ones((1, 4)))

    def test_conv_erasure_companions(self, no_work):
        y = conv_encode(np.ones(20), FIG15_CODE)
        with no_work(), pytest.raises(ValueError, match="one erasure set per row"):
            conv_erasure_decode(np.array([y, y]), [SupportSet([1], y.size)], FIG15_CODE)

    def test_conv_erasure_ambient_lengths(self, no_work):
        y = conv_encode(np.ones(20), FIG15_CODE)
        erasures = [SupportSet([1], y.size), SupportSet([], y.size), SupportSet([1], y.size + 2)]
        with no_work():
            with pytest.raises(ValueError, match="must match the signal length in stack row 2$"):
                conv_erasure_decode(np.array([y, y, y]), erasures, FIG15_CODE)
            with pytest.raises(ValueError, match="must match the signal length$"):
                conv_erasure_decode(y, erasures[2], FIG15_CODE)
            with pytest.raises(ValueError, match="must match the signal length$"):
                conv_erasure_decode(y, SupportSet([], 5), FIG15_CODE)

    def test_elp_erasure_ambient_lengths(self, no_work):
        code = DftBlockCode(l=8, p=8)
        received, erasures = block_stack(code, [[1], [3], [5]], seed=1)
        erasures[1] = SupportSet([3], 20)
        with no_work():
            with pytest.raises(ValueError, match="must match the signal length in stack row 1$"):
                elp_erasure_decode(received, erasures, code)
            with pytest.raises(ValueError, match="must match the signal length$"):
                elp_erasure_decode(received[1], SupportSet([1], 20), code)

    def test_elp_erasure_companions(self, no_work):
        code = DftBlockCode(l=8, p=8)
        received, erasures = block_stack(code, [[1, 2], [3, 4], [5, 9]], seed=1)
        with no_work():
            with pytest.raises(ValueError, match="one erasure set per row"):
                elp_erasure_decode(received, erasures[:2], code)
            with pytest.raises(ValueError, match="same number of erasures"):
                elp_erasure_decode(received, erasures[:2] + [SupportSet([5], code.n)], code)


class TestStackErrorsNameTheRow:
    """A typed error of a stack names its first failing row; a one-signal
    call's error names none."""

    @staticmethod
    def _scaled_op(p, rows):
        return 1e10 * p

    def test_cg_residual_norm(self):
        rhs = np.ones((4, 6))
        rhs[2] *= 1e160  # ||rhs||^2 overflows
        with pytest.raises(NumericError, match="residual norm is not finite in stack row 2:"):
            conjugate_gradient(self._scaled_op, rhs)
        with pytest.raises(NumericError, match="residual norm is not finite: its squares"):
            conjugate_gradient(lambda v: 1e10 * v, rhs[2])

    def test_cg_curvature(self):
        rhs = np.ones((3, 8))
        rhs[1] *= 1e150  # p' (1e10 p) overflows
        with pytest.raises(NumericError, match="curvature inner product is not finite in stack row 1:"):
            conjugate_gradient(self._scaled_op, rhs)
        with pytest.raises(NumericError, match="curvature inner product is not finite: it"):
            conjugate_gradient(lambda v: 1e10 * v, rhs[1])

    @pytest.mark.parametrize("solver", MASKED_SOLVERS, ids=lambda f: f.__name__)
    def test_masked_retained_sample(self, solver):
        _, observed, times = masked_stack(32, np.arange(4), 16, range(4))
        observed[3, times[3].indices[5]] = np.nan
        support = SupportSet(np.arange(4), 32)
        with pytest.raises(ValueError, match="retained samples must be finite in stack row 3$"):
            solver(observed, times, support)
        with pytest.raises(ValueError, match="retained samples must be finite$"):
            solver(observed[3], times[3], support)

    def test_conv_erasure_retained_sample(self):
        y = conv_encode(np.ones(20), FIG15_CODE)
        streams = np.array([y, y, y])
        streams[1, 4] = np.inf
        erasures = [SupportSet([1], y.size)] * 3
        with pytest.raises(ValueError, match="finite in stack row 1$"):
            conv_erasure_decode(streams, erasures, FIG15_CODE)
        with pytest.raises(ValueError, match="finite$"):
            conv_erasure_decode(streams[1], erasures[1], FIG15_CODE)

    def test_elp_erasure_retained_sample(self):
        code = DftBlockCode(l=8, p=8)
        received, erasures = block_stack(code, [[1, 2]] * 3, seed=1)
        received[2, 7] = np.nan
        with pytest.raises(ValueError, match="finite in stack row 2$"):
            elp_erasure_decode(received, erasures, code)
        with pytest.raises(ValueError, match="finite$"):
            elp_erasure_decode(received[2], erasures[2], code)


@st.composite
def tone_stacks(draw):
    """(series, k, dimension): a (T, m) stack of noisy draws of k tones, and
    a covariance dimension above k."""
    rows = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(2 * k + 2, 96))
    dimension = draw(st.integers(k + 1, min(m, 16)))
    rng = RandomSource(draw(st.integers(0, 10**6)))
    tones = SpectralModel(rng.uniform(0.0, 1.0, k), rng.uniform(0.5, 2.0, k),
                          rng.uniform(-3.0, 3.0, k))
    noise = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    series = np.array([tones.synthesize(m) + rng.complex_normal(m, scale=noise)
                       for _ in range(rows)])
    return series, k, dimension


class TestSpectralStacks:
    """Each row of a stacked spectral call equals its one-series (or
    one-covariance) call bit for bit, and the one-series call returns what
    it returned before stacks existed: plain floats and bools, 1-D arrays."""

    @STACK_SETTINGS
    @given(tone_stacks())
    def test_sample_covariance_rows(self, case):
        series, _, dimension = case
        stacked = sample_covariance(series, dimension)
        assert stacked.matrix.shape == (len(series), dimension, dimension)
        for row, x in enumerate(series):
            solo = sample_covariance(x, dimension)
            assert solo.matrix.shape == (dimension, dimension)
            assert solo.snapshots == stacked.snapshots
            for field in ("matrix", "eigvals", "eigvecs"):
                assert getattr(stacked, field)[row].tobytes() == getattr(solo, field).tobytes()

    @STACK_SETTINGS
    @given(tone_stacks())
    def test_prony_rows(self, case):
        series, k, _ = case
        models = prony(series, k)
        assert isinstance(models, list) and len(models) == len(series)
        for model, x in zip(models, series):
            solo = prony(x, k)
            assert isinstance(solo, SpectralModel)
            for field in ("frequencies", "amplitudes", "phases"):
                assert getattr(model, field).tobytes() == getattr(solo, field).tobytes()

    @STACK_SETTINGS
    @given(tone_stacks())
    def test_pisarenko_rows(self, case):
        series, k, _ = case
        freqs, sigma2, ambiguous = pisarenko(sample_covariance(series, k + 1), k)
        assert freqs.shape == (len(series), k)
        for row, x in enumerate(series):
            solo_freqs, solo_sigma2, solo_ambiguous = pisarenko(sample_covariance(x, k + 1), k)
            assert type(solo_sigma2) is float and type(solo_ambiguous) is bool
            assert freqs[row].tobytes() == solo_freqs.tobytes()
            assert (sigma2[row], ambiguous[row]) == (solo_sigma2, solo_ambiguous)

    @STACK_SETTINGS
    @given(tone_stacks(), st.sampled_from([64, 256]))
    def test_music_rows(self, case, points):
        series, k, dimension = case
        grid = default_grid(points)
        pseudospectrum, peaks, shortfall = music(sample_covariance(series, dimension), k, grid)
        assert pseudospectrum.shape == (len(series), points)
        assert len(peaks) == len(series) and shortfall.shape == (len(series),)
        for row, x in enumerate(series):
            solo = music(sample_covariance(x, dimension), k, grid)
            assert type(solo[2]) is bool
            assert pseudospectrum[row].tobytes() == solo[0].tobytes()
            assert peaks[row].tobytes() == solo[1].tobytes()
            assert shortfall[row] == solo[2]


@st.composite
def polynomial_stacks(draw):
    """(T, k+1) complex coefficients with nonzero leading terms; some rows
    end in zero coefficients, and some are real."""
    rows = draw(st.integers(1, 5))
    k = draw(st.integers(1, 7))
    rng = RandomSource(draw(st.integers(0, 10**6)))
    coefficients = rng.complex_normal((rows, k + 1))
    for row in range(rows):
        if draw(st.booleans()):
            coefficients[row] = coefficients[row].real
        zeros = draw(st.integers(0, k))
        if zeros:
            coefficients[row, -zeros:] = 0.0
    return coefficients


class TestPolynomialRootStacks:
    @STACK_SETTINGS
    @given(polynomial_stacks())
    def test_rows_equal_np_roots(self, coefficients):
        roots = polynomial_roots(coefficients)
        assert roots.shape == (len(coefficients), coefficients.shape[1] - 1)
        for row, h in enumerate(coefficients):
            expected = np.roots(h)
            assert roots[row].tobytes() == expected.astype(np.complex128).tobytes()
            solo = polynomial_roots(h)
            assert solo.dtype == expected.dtype and solo.tobytes() == expected.tobytes()

    def test_trailing_zeros_append_zero_roots(self):
        coefficients = np.array([[1.0, -3.0, 2.0, 0.0], [2.0, 1.0, 1.0, 1.0], [1.0, 0, 0, 0]])
        roots = polynomial_roots(coefficients)
        assert np.array_equal(np.sort_complex(roots[0]), [0.0, 1.0, 2.0])
        assert np.array_equal(roots[2], [0.0, 0.0, 0.0])
        assert roots[1].tobytes() == np.roots(coefficients[1].astype(complex)).tobytes()


class TestSpectralStackErrorsNameTheRow:
    def test_sample_covariance_non_finite_series(self):
        series = np.ones((3, 20), dtype=complex)
        series[2, 5] = np.nan
        with pytest.raises(ValueError, match="must be finite in stack row 2$"):
            sample_covariance(series, 4)
        with pytest.raises(ValueError, match="must be finite$"):
            sample_covariance(series[2], 4)

    def test_prony_non_finite_series(self):
        series = np.exp(2j * np.pi * 0.1 * np.arange(8)) * np.ones((3, 1))
        series[1, 2] = np.inf
        with pytest.raises(ValueError, match="annihilated values must be finite in stack row 1$"):
            prony(series, 2)
        with pytest.raises(ValueError, match="annihilated values must be finite$"):
            prony(series[1], 2)

    def test_prony_degenerate_recursion(self):
        r = np.arange(8)
        two_tones = np.exp(2j * np.pi * 0.1 * r) + np.exp(2j * np.pi * 0.3 * r)
        series = np.array([two_tones, two_tones, np.exp(2j * np.pi * 0.2 * r)])
        with pytest.raises(ValueError, match="fewer than k effective terms in stack row 2$"):
            prony(series, 2)
        with pytest.raises(ValueError, match="fewer than k effective terms$"):
            prony(series[2], 2)

    def test_polynomial_roots_leading_and_non_finite_coefficients(self):
        coefficients = np.ones((3, 4), dtype=complex)
        coefficients[1, 0] = 0.0
        with pytest.raises(ValueError, match="leading coefficient must be nonzero in stack row 1$"):
            polynomial_roots(coefficients)
        coefficients[0, 2] = np.nan
        with pytest.raises(ValueError, match="coefficients must be finite in stack row 0$"):
            polynomial_roots(coefficients)
        with pytest.raises(ValueError, match="coefficients must be finite$"):
            polynomial_roots(coefficients[0])

    def test_pisarenko_locator_without_a_leading_term(self):
        # a diagonal covariance's noise eigenvector is a unit vector whose
        # leading coefficient vanishes
        tones = exact_tone_covariance(SpectralModel([0.1, 0.3], [1.0, 1.0], [0.0, 0.5]), 3, 0.1)
        stack = np.array([tones.matrix, np.diag([3.0, 2.0, 1.0])])
        with pytest.raises(ValueError, match="leading coefficient must be nonzero in stack row 1$"):
            pisarenko(CovarianceEstimate(stack, snapshots=3), 2)
