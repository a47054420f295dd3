"""Line-spectrum estimation: periodogram, Prony, Pisarenko, MUSIC.

All parametric estimators share the tone model x_r = sum_i b_i z_i^r with
z_i = exp(2pi j f_i); Pisarenko and MUSIC work on covariance estimates and
project locator roots onto the unit circle.
"""

import dataclasses
import math

import numpy as np

from .core import as_values, hermitian_eig, polynomial_roots


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


def sample_covariance(samples, dimension):
    """Covariance estimate of a 1-D series from forward sliding snapshot windows."""
    x = as_values(samples)
    p = int(dimension)
    if p < 1 or p > x.size:
        raise ValueError("dimension must be in [1, len(samples)]")
    count = x.size - p + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, p)
    cov = (windows.T @ windows.conj()) / count
    cov = 0.5 * (cov + cov.conj().T)
    return CovarianceEstimate(matrix=cov, snapshots=count)


@dataclasses.dataclass(frozen=True)
class CovarianceEstimate:
    """Hermitian PSD covariance with the snapshot count that produced it.

    The eigendecomposition is taken once, here: eigvals descending, eigvecs
    holding the matching unit eigenvectors as columns. The subspace
    estimators (Pisarenko, MUSIC, MDL) all read it from the covariance.
    """

    matrix: np.ndarray
    snapshots: int
    eigvals: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    eigvecs: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=np.complex128)
        eigvals, eigvecs = hermitian_eig(r)  # rejects non-square, non-Hermitian input
        if eigvals[-1] < -1e-8 * max(float(np.trace(r).real), 1.0):
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "matrix", r)
        object.__setattr__(self, "eigvals", eigvals)
        object.__setattr__(self, "eigvecs", eigvecs)

    @property
    def dimension(self):
        return self.matrix.shape[0]


def exact_tone_covariance(model, dimension, noise_variance=0.0):
    """A diag(|b|^2) A^H + sigma^2 I for uncorrelated tones."""
    steering = np.exp(
        2j * np.pi * np.outer(np.arange(dimension), model.frequencies)
    )
    powers = np.abs(model.weights) ** 2
    cov = (steering * powers[None, :]) @ steering.conj().T
    cov += noise_variance * np.eye(dimension)
    return CovarianceEstimate(matrix=cov, snapshots=dimension)


def prony(samples, k):
    """Fit k complex exponentials (f in cycles/sample) to the first 2k samples.

    Solves the order-k linear recursion for the locator coefficients, roots
    the locator for z_i, then solves the Vandermonde system for the complex
    weights. Noiseless-model method; no accuracy contract under noise.
    """
    x = as_values(samples)
    k = int(k)
    if x.size < 2 * k:
        raise ValueError(f"need at least {2 * k} samples")
    x = x[: 2 * k]

    rows = np.empty((k, k), dtype=np.complex128)
    rhs = np.empty(k, dtype=np.complex128)
    for i, r in enumerate(range(k, 2 * k)):
        rows[i] = x[r - 1 : r - k - 1 : -1] if r - k - 1 >= 0 else x[r - 1 :: -1][:k]
        rhs[i] = -x[r]
    if np.linalg.cond(rows) > 1e12:
        raise ValueError("degenerate recursion: fewer than k effective tones")
    h = np.linalg.solve(rows, rhs)

    roots = polynomial_roots(np.concatenate(([1.0 + 0j], h)))
    # z = exp(2pi j f); damping shows up as a negative imaginary part of f
    freqs = np.log(roots) / (2j * np.pi)
    freqs = np.where(np.abs(freqs.imag) < 1e-12, freqs.real % 1.0, freqs)

    vand = roots[None, :] ** np.arange(2 * k)[:, None]
    weights, *_ = np.linalg.lstsq(vand, x, rcond=None)
    order = np.argsort([f.real if np.iscomplexobj(freqs) else f for f in freqs])
    freqs, weights = np.asarray(freqs)[order], weights[order]
    return SpectralModel(
        frequencies=freqs, amplitudes=np.abs(weights), phases=np.angle(weights)
    )


def pisarenko(samples_or_cov, k):
    """Harmonic decomposition from the noise eigenvector of a (k+1) covariance.

    The eigenvector of the smallest eigenvalue supplies the locator
    coefficients; its unit-circle root angles are the frequencies and the
    eigenvalue itself estimates the noise variance. Returns
    (frequencies, noise_variance, ambiguous) where ambiguous flags a
    repeated smallest eigenvalue.
    """
    if isinstance(samples_or_cov, CovarianceEstimate):
        cov = samples_or_cov
    else:
        cov = sample_covariance(samples_or_cov, k + 1)
    if cov.dimension != k + 1:
        raise ValueError(f"covariance dimension {cov.dimension} != k + 1 = {k + 1}")

    eigvals, eigvecs = cov.eigvals, cov.eigvecs
    sigma2 = float(eigvals[-1])
    ambiguous = bool(
        eigvals.size > 1 and abs(eigvals[-2] - eigvals[-1]) < 1e-10 * max(abs(eigvals[0]), 1.0)
    )
    locator = eigvecs[:, -1]
    roots = polynomial_roots(locator)
    freqs = np.sort(_real_frequency(roots))
    return freqs, sigma2, ambiguous


def music(covariance, k, grid):
    """Pseudospectrum 1 / (e^H Pi_perp e) and its k largest separated peaks.

    Pi_perp projects onto the noise subspace (eigenvectors beyond the k
    largest). Peaks are grid local maxima picked greedily with a two-bin
    minimum separation; a shortfall is reported via the flag in the third
    return slot.
    """
    if not isinstance(covariance, CovarianceEstimate):
        covariance = CovarianceEstimate(np.asarray(covariance), snapshots=0)
    m = covariance.dimension
    k = int(k)
    if k >= m:
        raise ValueError(f"need k < covariance dimension, got k={k}, m={m}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("frequency grid must be non-empty")

    noise_basis = covariance.eigvecs[:, k:]
    steering = np.exp(2j * np.pi * np.outer(np.arange(m), grid))
    projected = noise_basis.conj().T @ steering
    denom = np.sum(np.abs(projected) ** 2, axis=0)
    pseudospectrum = 1.0 / np.maximum(denom, 1e-300)

    peaks = _pick_peaks(pseudospectrum, k, min_separation=2)
    shortfall = len(peaks) < k
    return pseudospectrum, np.sort(grid[peaks]), shortfall


def _pick_peaks(values, count, min_separation=2):
    """Greedy local-maxima selection with a minimum index separation."""
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
        if all(abs(idx - c) >= min_separation for c in chosen):
            chosen.append(int(idx))
        if len(chosen) == count:
            break
    return np.array(sorted(chosen), dtype=int)


def default_grid(points=2048):
    """Uniform frequency grid on [0, 1) cycles/sample."""
    return np.arange(points) / points
