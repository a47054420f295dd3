"""Core numerics: transforms, solvers, eigen/root finding, signal carrier."""

import ctypes.util
import math

import numpy as np
import pytest

from sparsekit import core
from sparsekit.core import (
    ComplexSignal,
    RandomSource,
    SolverReport,
    SupportSet,
    blas_threads,
    dft,
    hermitian_eig,
    polynomial_roots,
    pseudo_inverse_solve,
    snr_db,
    sorted_dft,
)


def dft_direct(x, inverse=False):
    """O(n^2) direct-summation oracle for the unitary DFT."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    sign = 1.0 if inverse else -1.0
    kernel = np.exp(sign * 2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return kernel @ x / math.sqrt(n)


class TestDft:
    def test_impulse_unitary_scaling(self):
        x = np.zeros(4, dtype=complex)
        x[0] = 1.0
        assert np.allclose(dft(x), [0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_round_trip(self):
        rng = RandomSource(1)
        x = rng.complex_normal(33)
        assert np.max(np.abs(dft(dft(x), inverse=True) - x)) < 1e-12

    def test_matches_direct_summation_oracle(self):
        rng = RandomSource(2)
        x = rng.complex_normal(8)
        assert np.max(np.abs(dft(x) - dft_direct(x))) < 1e-12
        assert np.max(np.abs(dft(x, inverse=True) - dft_direct(x, inverse=True))) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft(np.array([], dtype=complex))

    def test_parseval_over_seeded_sizes(self):
        rng = RandomSource(3)
        for trial in range(1000):
            n = int(rng.integers(4, 257))
            x = rng.complex_normal(n)
            err = abs(np.linalg.norm(dft(x)) ** 2 - np.linalg.norm(x) ** 2)
            assert err < 1e-10 * np.linalg.norm(x) ** 2 + 1e-10

    def test_preserves_signal_wrapper(self):
        sig = ComplexSignal(np.ones(4))
        out = dft(sig)
        assert isinstance(out, ComplexSignal)


class TestSortedDft:
    def sdft_direct(self, x, q):
        """Direct kernel-evaluation oracle: exp(-2pi j * k * i * q / n)."""
        x = np.asarray(x, dtype=np.complex128)
        n = x.size
        kernel = np.exp(-2j * np.pi * q * np.outer(np.arange(n), np.arange(n)) / n)
        return kernel @ x / math.sqrt(n)

    def test_q1_reduces_to_dft(self):
        rng = RandomSource(4)
        x = rng.complex_normal(12)
        assert np.allclose(sorted_dft(x, 1), dft(x), atol=1e-13)

    def test_bin_permutation_n8_q3(self):
        rng = RandomSource(5)
        x = rng.complex_normal(8)
        expected_order = [0, 3, 6, 1, 4, 7, 2, 5]
        assert np.allclose(sorted_dft(x, 3), dft(x)[expected_order], atol=1e-13)

    def test_matches_kernel_oracle(self):
        rng = RandomSource(6)
        x = rng.complex_normal(9)
        assert np.max(np.abs(sorted_dft(x, 2) - self.sdft_direct(x, 2))) < 1e-12

    def test_unitary(self):
        rng = RandomSource(7)
        x = rng.complex_normal(16)
        assert abs(np.linalg.norm(sorted_dft(x, 5)) - np.linalg.norm(x)) < 1e-12

    def test_round_trip(self):
        rng = RandomSource(8)
        x = rng.complex_normal(15)
        assert np.allclose(sorted_dft(sorted_dft(x, 4), 4, inverse=True), x, atol=1e-12)

    def test_conjugate_mirror_for_real_input(self):
        rng = RandomSource(9)
        x = rng.standard_normal(16).astype(complex)
        a = sorted_dft(x, 3)
        b = sorted_dft(x, 16 - 3)
        assert np.max(np.abs(a - np.conj(b))) < 1e-12

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            sorted_dft(np.ones(8, dtype=complex), 2)


def gaussian_elimination(a, b):
    """Partial-pivot elimination oracle for square systems."""
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    n = a.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        a[[col, pivot]] = a[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row] -= factor * a[col]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=np.complex128)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


class TestPseudoInverseSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(pseudo_inverse_solve(np.eye(3), b), b)

    def test_matches_gaussian_elimination(self):
        rng = RandomSource(10)
        a = rng.complex_normal((3, 3))
        b = rng.complex_normal(3)
        assert np.max(np.abs(pseudo_inverse_solve(a, b) - gaussian_elimination(a, b))) < 1e-10

    def test_min_norm_on_rank_deficient(self):
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        x = pseudo_inverse_solve(a, np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-12)

    def test_consistent_full_column_rank(self):
        rng = RandomSource(11)
        a = rng.complex_normal((8, 4))
        x_true = rng.complex_normal(4)
        x = pseudo_inverse_solve(a, a @ x_true)
        assert np.max(np.abs(x - x_true)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pseudo_inverse_solve(np.eye(3), np.ones(4))


class TestHermitianEig:
    def test_diagonal_sorted_descending(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0])

    def test_spherical(self):
        w, _ = hermitian_eig(0.7 * np.eye(5))
        assert np.allclose(w, 0.7)

    def test_reconstruction_identity(self):
        rng = RandomSource(12)
        a = rng.complex_normal((6, 6))
        a = a + a.conj().T
        w, v = hermitian_eig(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) < 1e-8
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-10

    def test_eigvals_match_characteristic_roots(self):
        rng = RandomSource(13)
        a = rng.complex_normal((3, 3))
        a = a + a.conj().T
        w, _ = hermitian_eig(a)
        # characteristic polynomial z^3 - tr z^2 + c1 z - det
        tr = np.trace(a)
        det = np.linalg.det(a)
        c1 = 0.5 * (tr**2 - np.trace(a @ a))
        roots = polynomial_roots([1.0, -tr, c1, -det])
        assert np.max(np.abs(np.sort(roots.real)[::-1] - w)) < 1e-6

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3)))


class TestStackedHermitianEig:
    @staticmethod
    def _stack(count, n=6, seed=14):
        rng = RandomSource(seed)
        a = rng.complex_normal((count, n, n))
        return a + a.conj().transpose(0, 2, 1)

    @pytest.mark.parametrize("count", [1, 7])
    def test_rows_equal_per_matrix_calls(self, count):
        stack = self._stack(count)
        w, v = hermitian_eig(stack)
        assert w.shape == (count, 6) and v.shape == (count, 6, 6)
        for row, matrix in enumerate(stack):
            w_row, v_row = hermitian_eig(matrix)
            assert np.array_equal(w[row], w_row) and np.array_equal(v[row], v_row)

    def test_non_hermitian_row_named(self):
        stack = self._stack(5)
        stack[3, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian to 1e-10 in stack row 3"):
            hermitian_eig(stack)

    def test_lone_matrix_message_names_no_row(self):
        with pytest.raises(ValueError, match=r"not Hermitian to 1e-10$"):
            hermitian_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((2, 3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        matrix = self._stack(1)[0]
        matrix[2, 2] = bad
        with pytest.raises(ValueError, match=r"matrix entries must be finite$"):
            hermitian_eig(matrix)

    def test_non_finite_row_named(self):
        stack = self._stack(4)
        stack[2, 1, 3] = stack[2, 3, 1] = np.nan
        with pytest.raises(ValueError, match="must be finite in stack row 2"):
            hermitian_eig(stack)


class TestPolynomialRoots:
    def test_linear(self):
        assert np.allclose(polynomial_roots([1.0, -0.5]), [0.5])

    def test_expand_then_root(self):
        t1 = np.exp(1j * np.pi / 4)
        t2 = np.exp(1j * np.pi / 3)
        coeffs = [1.0, -(t1 + t2), t1 * t2]
        roots = np.sort_complex(polynomial_roots(coeffs))
        assert np.max(np.abs(roots - np.sort_complex(np.array([t1, t2])))) < 1e-10

    def test_z_squared_plus_one(self):
        roots = sorted(polynomial_roots([1.0, 0.0, 1.0]), key=lambda z: z.imag)
        assert np.allclose(roots, [-1j, 1j], atol=1e-12)

    def test_residual_contract(self):
        rng = RandomSource(14)
        coeffs = rng.complex_normal(7)
        roots = polynomial_roots(coeffs)
        values = np.polyval(coeffs, roots)
        assert np.max(np.abs(values)) < 1e-6 * np.max(np.abs(coeffs))

    def test_zero_leading_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 1.0, 1.0])


class TestComplexSignal:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.array([]))
        with pytest.raises(ValueError):
            ComplexSignal(np.array([1.0, np.nan]))

    def test_hermitian_symmetric_real_idft(self):
        spectrum = np.zeros(8, dtype=complex)
        spectrum[0] = 1.0
        spectrum[1] = 2.0 + 1j
        spectrum[7] = 2.0 - 1j
        spectrum[4] = 0.3
        sig = ComplexSignal(spectrum)
        assert sig.is_hermitian()
        assert np.max(np.abs(dft(spectrum, inverse=True).imag)) < 1e-10

    def test_csv_round_trip(self, tmp_path):
        rng = RandomSource(15)
        sig = ComplexSignal(rng.complex_normal(17))
        path = tmp_path / "sig.csv"
        sig.to_csv(path)
        back = ComplexSignal.from_csv(path)
        assert np.array_equal(back.values, sig.values)

    def test_csv_uses_lf_lines_and_reads_crlf(self, tmp_path):
        sig = ComplexSignal(RandomSource(17).complex_normal(5))
        path = tmp_path / "sig.csv"
        sig.to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.startswith(b"index,re,im\n")
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
        assert np.array_equal(ComplexSignal.from_csv(crlf).values, sig.values)

    def test_binary_round_trip(self):
        rng = RandomSource(16)
        sig = ComplexSignal(rng.complex_normal(9))
        assert np.array_equal(ComplexSignal.from_bytes(sig.to_bytes()).values, sig.values)


class TestSupportSet:
    def test_sorted_unique_in_range(self):
        s = SupportSet([5, 1, 3], 8)
        assert list(s) == [1, 3, 5]
        with pytest.raises(ValueError):
            SupportSet([0, 8], 8)
        with pytest.raises(ValueError):
            SupportSet([1, 1], 8)

    def test_mask_and_complement(self):
        s = SupportSet([0, 2], 4)
        assert list(np.flatnonzero(s.mask())) == [0, 2]
        assert list(s.complement()) == [1, 3]


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(42).complex_normal(10)
        b = RandomSource(42).complex_normal(10)
        assert np.array_equal(a, b)

    def test_complex_normal_power(self):
        z = RandomSource(8).complex_normal(200_000, scale=2.0)
        assert abs(np.mean(np.abs(z) ** 2) - 4.0) < 0.05

    @pytest.mark.parametrize("seed,stream", [(0, 0), (11, 3), (7_000_123, 42)])
    def test_draws_equal_a_plain_pcg64_generator(self, seed, stream):
        source = RandomSource(seed, stream)
        plain = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
        draws = [
            lambda g: g.standard_normal(),
            lambda g: g.standard_normal((3, 4)),
            lambda g: g.uniform(),
            lambda g: g.uniform(0.0, 5.0, 6),
            lambda g: g.uniform(size=5),
            lambda g: g.integers(10),
            lambda g: g.integers(3, 40, size=7),
            lambda g: g.choice(50, size=6, replace=False),
            lambda g: g.choice(np.arange(9.0), size=4),
            lambda g: g.permutation(12),
        ]
        for draw in draws:
            assert np.array_equal(draw(source), draw(plain))
        re, im = plain.standard_normal(5), plain.standard_normal(5)
        expected = (2.0 / math.sqrt(2.0)) * (re + 1j * im)
        assert np.array_equal(source.complex_normal(5, scale=2.0), expected)


class TestSnr:
    def test_formula(self):
        ref = np.array([1.0, 1.0], dtype=complex)
        est = np.array([1.0, 0.0], dtype=complex)
        assert abs(snr_db(ref, est) - 10 * math.log10(2.0)) < 1e-12

    def test_exact_sentinel(self):
        ref = np.ones(3, dtype=complex)
        assert snr_db(ref, ref) == math.inf


class TestRowDots:
    """The per-row norms and dots of the stacked loops equal the 1-D
    np.linalg.norm and np.vdot of each row, bit for bit."""

    @pytest.mark.parametrize("kind", [float, complex])
    def test_rows_equal_their_1d_forms(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(200):
            rows, n = rng.integers(1, 6), rng.integers(1, 301)
            scale = 10.0 ** rng.uniform(-100, 100)
            a, b = (rng.standard_normal((2, rows, n)) * scale).astype(kind)
            if kind is complex:
                a += 1j * scale * rng.standard_normal((rows, n))
            for v in (a, a[:, ::2]):
                norms = core._row_norms(v)
                assert norms.tobytes() == np.array([np.linalg.norm(row) for row in v]).tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                dots = np.vecdot(a, b)
                solo = np.array([np.vdot(x, y) for x, y in zip(a, b)])
            assert dots.tobytes() == solo.tobytes()


def _solver_calls():
    """One small call of every public solver; each returns its report."""
    from sparsekit import codes, ofdm, sampling, sca

    rng = RandomSource(18)
    n = 32
    band = np.r_[0:3, n - 2:n]
    spectrum = np.zeros(n, dtype=complex)
    spectrum[band] = rng.complex_normal(band.size)
    signal = dft(spectrum, inverse=True)
    smask = SupportSet(np.arange(0, n, 2), n)
    fmask = SupportSet(band, n)
    observed = np.where(smask.mask(), signal, 0.0)
    a = rng.standard_normal((6, 12))
    problem = sca.SparseProblem(mixing=a, observation=a @ np.r_[1.0, 0.0, -2.0, np.zeros(9)])
    block_code = codes.DftBlockCode(l=8, p=8)
    codeword = block_code.encode(rng.complex_normal(8))
    codeword[3] += 4.0
    conv = codes.ConvCode([1.0, 0.5], [0.5, -1.0])
    stream = codes.conv_encode(rng.standard_normal(10), conv)
    cfg = ofdm.OfdmConfig(n=64, pilot_spacing=4, cp_length=16, guard_left=0, guard_right=0)
    tx = ofdm.map_symbols(rng.integers(0, cfg.symbols().size, cfg.data_carriers.size), cfg)
    rx = ofdm.ofdm_link(tx, ofdm.ChannelProfile([0, 3], [1.0, 0.4j]), cfg, 30.0, rng)
    return {
        "iterative": lambda: sampling.iterative_reconstruct(observed, smask, fmask)[-1],
        "chebyshev": lambda: sampling.chebyshev_accelerate(observed, smask, fmask)[-1],
        "cg": lambda: sampling.cg_accelerate(observed, smask, fmask)[-1],
        "conjugate_gradient": lambda: sampling.conjugate_gradient(
            lambda v: 2.0 * v, np.ones(4))[-1],
        "imat": lambda: sampling.imat(observed, smask)[-1],
        "elp_impulsive": lambda: codes.elp_impulsive_decode(codeword, block_code)[-1],
        "conv_erasure": lambda: codes.conv_erasure_decode(
            stream, SupportSet([1, 4], stream.size), conv)[-1],
        "conv_impulsive": lambda: codes.conv_impulsive_decode(stream, conv)[-1],
        "mp": lambda: sca.matching_pursuit(problem)[-1],
        "omp": lambda: sca.matching_pursuit(problem, orthogonal=True)[-1],
        "bp": lambda: sca.basis_pursuit(problem)[-1],
        "focuss": lambda: sca.focuss(problem)[-1],
        "ide": lambda: sca.ide(problem)[-1],
        "ide_schedule": lambda: sca.ide(problem, schedule=[1.0, 0.5, 0.25])[-1],
        "sl0": lambda: sca.sl0(problem)[-1],
        "mimat": lambda: ofdm.estimate_mimat(rx, cfg)[-1],
    }


class TestSolverReport:
    def test_every_public_solver_times_itself(self):
        for name, call in _solver_calls().items():
            report = call()
            assert report.wall_time > 0.0, name

    def test_finish_stamps_time_since_construction(self):
        report = SolverReport(solver="probe")
        assert report.wall_time == 0.0
        assert report._finish() is report
        assert report.wall_time > 0.0


def _openblas_get():
    functions = core._openblas()
    if functions is None:
        pytest.skip("numpy's OpenBLAS not found")
    return functions[1]


class TestBlasThreads:
    def test_count_set_inside_and_restored_after_exit(self):
        get_threads = _openblas_get()
        with blas_threads(2):
            with blas_threads(1) as count:
                assert count == get_threads() == 1
            assert get_threads() == 2

    def test_count_restored_after_an_exception(self):
        get_threads = _openblas_get()
        with blas_threads(2):
            with pytest.raises(KeyError):
                with blas_threads(1):
                    raise KeyError("inside")
            assert get_threads() == 2

    def test_nothing_done_without_a_known_symbol(self, monkeypatch):
        get_threads = _openblas_get()
        with blas_threads(2):
            monkeypatch.setattr(core, "_openblas", lambda: None)
            with blas_threads(1) as count:
                assert count is None
                assert get_threads() == 2

    def test_library_search_finds_nothing_without_the_library_or_its_symbols(self, monkeypatch):
        monkeypatch.setattr(core.glob, "glob", lambda pattern: [])
        assert core._openblas.__wrapped__() is None
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no C library to stand in for an OpenBLAS without the symbols")
        monkeypatch.setattr(core.glob, "glob", lambda pattern: [libc])
        assert core._openblas.__wrapped__() is None
