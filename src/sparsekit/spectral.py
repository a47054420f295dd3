"""Line-spectrum estimation: periodogram, Prony, Pisarenko, MUSIC.

All parametric estimators share the tone model x_r = sum_i b_i z_i^r with
z_i = exp(2pi j f_i); Pisarenko and MUSIC work on covariance estimates and
project locator roots onto the unit circle.
"""

import dataclasses
import functools

import numpy as np

from .core import as_values, hermitian_eig, polynomial_roots, _annihilating_filter, _stack_row


@dataclasses.dataclass(frozen=True)
class SpectralModel:
    """k tones: frequency (cycles/sample; complex when damped), amplitude, phase."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.frequencies))
        a = np.atleast_1d(np.asarray(self.amplitudes, dtype=np.float64))
        p = np.atleast_1d(np.asarray(self.phases, dtype=np.float64))
        if f.size == 0 or f.size != a.size or f.size != p.size:
            raise ValueError("need matching non-empty tone parameters")
        if np.any(a < 0):
            raise ValueError("amplitudes must be non-negative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "phases", p)

    @property
    def k(self):
        return self.frequencies.size

    @property
    def weights(self):
        """Complex tone weights b_i = a_i exp(j theta_i)."""
        return self.amplitudes * np.exp(1j * self.phases)

    def synthesize(self, m):
        """m samples of sum_i b_i z_i^r, z_i = exp(2pi j f_i)."""
        z = np.exp(2j * np.pi * self.frequencies)
        return (self.weights[None, :] * z[None, :] ** np.arange(m)[:, None]).sum(axis=1)


def _real_frequency(z):
    """Map a locator root to [0, 1) cycles/sample on the unit circle."""
    return (np.angle(z) / (2.0 * np.pi)) % 1.0


def periodogram(samples, sample_interval, grid):
    """|Ts * sum_r x_r exp(-2pi j f r Ts)|^2 / (m Ts) on the frequency grid."""
    x = as_values(samples)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("frequency grid must be non-empty")
    if sample_interval <= 0:
        raise ValueError("sample interval must be positive")
    m = x.size
    phases = np.exp(-2j * np.pi * np.outer(grid, np.arange(m)) * sample_interval)
    amplitude = sample_interval * (phases @ x)
    return np.abs(amplitude) ** 2 / (m * sample_interval)


def _series(samples):
    """The complex values of one series, or of a (T, m) stack of series."""
    x = np.asarray(getattr(samples, "values", samples), dtype=np.complex128)
    if x.ndim not in (1, 2) or (x.ndim == 2 and len(x) == 0):
        raise ValueError("samples must be one series or a non-empty (T, m) stack of them")
    return x


def sample_covariance(samples, dimension):
    """Covariance estimate of a 1-D series from forward sliding snapshot windows.

    A (T, m) stack of series gives one estimate of T covariances, each equal
    to its own call: a row's product is formed from that row's own window
    view, so the windows of the stack are never copied together.
    """
    x = _series(samples)
    p = int(dimension)
    if p < 1 or p > x.shape[-1]:
        raise ValueError("dimension must be in [1, len(samples)]")
    matrices, counts = zip(*(
        _hermitian_product(np.lib.stride_tricks.sliding_window_view(row, p).T)
        for row in x.reshape(-1, x.shape[-1])
    ))
    return CovarianceEstimate(matrices[0] if x.ndim == 1 else np.array(matrices), counts[0])


def _hermitian_product(snapshots):
    """(x x^H / m, symmetrized, and m) of one n x m snapshot matrix."""
    x = np.asarray(snapshots)
    m = x.shape[1]
    r = (x @ x.conj().T) / m
    return 0.5 * (r + r.conj().T), m


@dataclasses.dataclass(frozen=True)
class CovarianceEstimate:
    """Hermitian PSD covariance with the snapshot count that produced it.

    The eigendecomposition is taken once, here: eigvals descending, eigvecs
    holding the matching unit eigenvectors as columns. The subspace
    estimators (Pisarenko, MUSIC, MDL) all read it from the covariance.
    matrix may also be a (T, n, n) stack of covariances that share the
    snapshot count; each matrix is checked on its own, and the error names
    the first failing row. Every estimator that reads an estimate takes a
    stack as well and answers row by row.
    """

    matrix: np.ndarray
    snapshots: int
    eigvals: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    eigvecs: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=np.complex128)
        eigvals, eigvecs = hermitian_eig(r)  # rejects non-square, non-Hermitian input
        trace = np.trace(r, axis1=-2, axis2=-1).real
        indefinite = eigvals[..., -1] < -1e-8 * np.maximum(trace, 1.0)
        if np.any(indefinite):
            raise ValueError(f"covariance must be positive semidefinite{_stack_row(indefinite)}")
        object.__setattr__(self, "matrix", r)
        object.__setattr__(self, "eigvals", eigvals)
        object.__setattr__(self, "eigvecs", eigvecs)

    @property
    def dimension(self):
        return self.matrix.shape[-1]


def _covariance(cov):
    """cov itself, for the estimators that read a CovarianceEstimate; any
    other input raises TypeError."""
    if not isinstance(cov, CovarianceEstimate):
        raise TypeError(f"takes a CovarianceEstimate, not {type(cov).__name__}")
    return cov


def prony(samples, k):
    """Fit k complex exponentials (f in cycles/sample) to the first 2k samples.

    Solves the order-k linear recursion for the locator coefficients, roots
    the locator for z_i, then solves the Vandermonde system for the complex
    weights. Noiseless-model method; no accuracy contract under noise. A
    (T, n) stack of series gives a list of T models, each equal to its own
    call: the recursions and the locator roots are solved as stacks.
    """
    x = _series(samples)
    k = int(k)
    if x.shape[-1] < 2 * k:
        raise ValueError(f"need at least {2 * k} samples")
    x = x[..., : 2 * k]
    roots = polynomial_roots(_annihilating_filter(x, k))
    if x.ndim == 1:
        return _prony_model(x, roots)
    return [_prony_model(row, row_roots) for row, row_roots in zip(x, roots)]


def _prony_model(x, roots):
    """The SpectralModel of the 2k samples x whose locator has the roots."""
    # z = exp(2pi j f); damping shows up as a negative imaginary part of f
    freqs = np.log(roots) / (2j * np.pi)
    freqs = np.where(np.abs(freqs.imag) < 1e-12, freqs.real % 1.0, freqs)

    vand = roots[None, :] ** np.arange(x.size)[:, None]
    weights, *_ = np.linalg.lstsq(vand, x, rcond=None)
    order = np.argsort([f.real if np.iscomplexobj(freqs) else f for f in freqs])
    freqs, weights = np.asarray(freqs)[order], weights[order]
    return SpectralModel(
        frequencies=freqs, amplitudes=np.abs(weights), phases=np.angle(weights)
    )


def pisarenko(covariance, k):
    """Harmonic decomposition from the noise eigenvector of a (k+1) covariance.

    covariance is a CovarianceEstimate of dimension k + 1, such as
    sample_covariance(samples, k + 1). The eigenvector of the smallest
    eigenvalue supplies the locator coefficients; its unit-circle root
    angles are the frequencies and the eigenvalue itself estimates the
    noise variance. Returns (frequencies, noise_variance, ambiguous) where
    ambiguous flags a repeated smallest eigenvalue. A stack of T
    covariances gives (T, k) frequencies, T noise variances and T flags,
    each row equal to its own call; the locators are rooted as one stack.
    """
    cov = _covariance(covariance)
    if cov.dimension != k + 1:
        raise ValueError(f"covariance dimension {cov.dimension} != k + 1 = {k + 1}")

    eigvals, eigvecs = cov.eigvals, cov.eigvecs
    sigma2 = eigvals[..., -1]
    ambiguous = np.zeros(sigma2.shape, dtype=bool)
    if eigvals.shape[-1] > 1:
        ambiguous = (np.abs(eigvals[..., -2] - eigvals[..., -1])
                     < 1e-10 * np.maximum(np.abs(eigvals[..., 0]), 1.0))
    locator = eigvecs[..., -1]
    roots = polynomial_roots(locator)
    freqs = np.sort(_real_frequency(roots), axis=-1)
    if freqs.ndim == 1:
        return freqs, float(sigma2), bool(ambiguous)
    return freqs, sigma2, ambiguous


def music(covariance, k, grid):
    """Pseudospectrum 1 / (e^H Pi_perp e) and its k largest separated peaks.

    covariance is a CovarianceEstimate. Pi_perp projects onto the noise
    subspace (eigenvectors beyond the k largest). Peaks are grid local
    maxima picked greedily with a two-bin minimum separation; a shortfall
    is reported via the flag in the third return slot. A stack of T
    covariances gives a (T, g) pseudospectrum, a list of T peak arrays and
    T shortfall flags, each row equal to its own call; the rows are
    projected one at a time, so the working set stays one row's (m - k, g)
    projection.
    """
    covariance = _covariance(covariance)
    m = covariance.dimension
    k = int(k)
    if k >= m:
        raise ValueError(f"need k < covariance dimension, got k={k}, m={m}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("frequency grid must be non-empty")

    steering = _steering(m, grid.tobytes())
    bases = covariance.eigvecs.reshape(-1, m, m)
    pseudospectrum = np.empty((len(bases), grid.size))
    peaks, shortfall = [], np.zeros(len(bases), dtype=bool)
    for row, basis in enumerate(bases):
        projected = basis[:, k:].conj().T @ steering
        denom = np.sum(np.abs(projected) ** 2, axis=0)
        pseudospectrum[row] = 1.0 / np.maximum(denom, 1e-300)
        chosen = _pick_peaks(pseudospectrum[row], k)
        peaks.append(np.sort(grid[chosen]))
        shortfall[row] = len(chosen) < k
    if covariance.matrix.ndim == 2:
        return pseudospectrum[0], peaks[0], bool(shortfall[0])
    return pseudospectrum, peaks, shortfall


@functools.lru_cache(maxsize=1)
def _steering(m, grid_bytes):
    """Read-only m x g steering matrix exp(2pi j r f) on the float64 grid
    held in grid_bytes. One entry is kept: 16 * m * g bytes, 512 KB for
    fig18's 16 x 2048."""
    grid = np.frombuffer(grid_bytes, dtype=np.float64)
    steering = np.exp(2j * np.pi * np.outer(np.arange(m), grid))
    steering.flags.writeable = False
    return steering


def _pick_peaks(values, count):
    """Greedy local-maxima selection, the chosen peaks two or more apart."""
    n = values.size
    if count <= 0:
        return np.array([], dtype=int)
    is_peak = np.ones(n, dtype=bool)
    is_peak[1:] = values[1:] >= values[:-1]
    is_peak[:-1] &= values[:-1] >= values[1:]
    candidates = np.flatnonzero(is_peak)
    order = candidates[np.argsort(values[candidates])[::-1]]
    chosen = []
    for idx in order:
        if all(abs(idx - c) >= 2 for c in chosen):
            chosen.append(int(idx))
        if len(chosen) == count:
            break
    return np.array(sorted(chosen), dtype=int)


def default_grid(points=2048):
    """Uniform frequency grid on [0, 1) cycles/sample."""
    return np.arange(points) / points
