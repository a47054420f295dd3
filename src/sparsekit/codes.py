"""Real/complex-field error correction.

DFT block codes insert a consecutive run of spectral zeros (the syndrome
set); erasures and impulsive noise are then decoded through the error
locator polynomial whose unit-circle roots mark the corrupted positions.
Convolutional codes of rate 1/2 are decoded through their generator and
parity-check matrices with the iterative machinery of the sampling module.
"""

import dataclasses
import math

import numpy as np

from .core import (
    CapacityError,
    InstabilityError,
    NumericError,
    SolverReport,
    SupportSet,
    as_values,
    polynomial_roots,
    pseudo_inverse_solve,
    read_samples,
    sorted_dft,
)
from .sampling import conjugate_gradient


@dataclasses.dataclass(frozen=True)
class DftBlockCode:
    """(n, l) block code with p = n - l consecutive spectral zeros.

    The syndrome run starts at ceil(l/2), which centers it on n/2 and keeps
    the placement conjugate-closed whenever l is odd (real messages then
    encode to exactly real codewords). q selects the sorted-DFT domain the
    zeros live in; q = 1 is the plain DFT.
    """

    l: int
    p: int
    q: int = 1

    def __post_init__(self):
        if self.l < 1 or self.p < 0:
            raise ValueError("need message length >= 1 and p >= 0")
        if math.gcd(self.q, self.n) != 1:
            raise ValueError(f"q={self.q} must be coprime with n={self.n}")

    @property
    def n(self):
        return self.l + self.p

    @property
    def theta(self):
        """Syndrome positions: the p consecutive zero bins."""
        start = (self.l + 1) // 2
        return SupportSet(np.arange(start, start + self.p), self.n)

    def _message_bins(self):
        low = (self.l + 1) // 2
        return np.concatenate([np.arange(low), np.arange(self.n - (self.l - low), self.n)])

    def encode(self, message):
        values = as_values(message)
        if values.size != self.l:
            raise ValueError(f"message length {values.size} != l = {self.l}")
        spectrum = np.fft.fft(values) / math.sqrt(self.l)
        placed = np.zeros(self.n, dtype=np.complex128)
        placed[self._message_bins()] = spectrum
        return sorted_dft(placed, self.q, inverse=True)

    def decode(self, codeword):
        values = as_values(codeword)
        if values.size != self.n:
            raise ValueError(f"codeword length {values.size} != n = {self.n}")
        placed = sorted_dft(values, self.q)
        spectrum = placed[self._message_bins()]
        return np.fft.ifft(spectrum) * math.sqrt(self.l)


@dataclasses.dataclass(frozen=True)
class ElpPolynomial:
    """Locator polynomial sum_t h_t z^(k-t) with h_0 = 1.

    Its unit-circle roots exp(2pi j i/n) mark the erased/corrupted sample
    positions.
    """

    coefficients: np.ndarray
    n: int

    @property
    def degree(self):
        return self.coefficients.size - 1

    @classmethod
    def from_positions(cls, positions, n):
        return cls(coefficients=_elp_coefficients(positions, n), n=n)

    def roots(self):
        return polynomial_roots(self.coefficients)

    def root_positions(self):
        """Positions i with |H(exp(2pi j i/n))| = 0, via angle rounding."""
        angles = np.angle(self.roots()) % (2.0 * np.pi)
        return np.sort(np.round(angles * self.n / (2.0 * np.pi)).astype(int) % self.n)


def _elp_coefficients(positions, n):
    """Locator coefficients h_0..h_k (h_0 = 1) from the root product.

    Evaluates H(z) = prod (z - exp(2pi j pos/n)) on the n-point unit-circle
    grid and reads the coefficients off an inverse FFT, which is cheaper and
    better behaved than symbolic expansion for large k.
    """
    k = len(positions)
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    roots = np.exp(2j * np.pi * np.asarray(positions) / n)
    h_vals = np.ones(n, dtype=np.complex128)
    for root in roots:
        h_vals *= grid - root
    padded = np.fft.ifft(h_vals * grid ** (-k))
    return padded[: k + 1]


def _fill_by_recursion(syndrome, h, theta_mask, norm_scale):
    """Complete a locator-annihilated spectrum from its syndrome values.

    The forward-kernel annihilation identity sum_t h_t E[r+t] = 0 gives
    E[r] = -(1/h_0) sum_{t>=1} h_t E[r+t], walked downward from the
    syndrome run so every needed value is already known; index arithmetic
    is mod n.
    """
    n = theta_mask.size
    k = h.size - 1
    spectrum = np.where(theta_mask, syndrome, 0.0)
    start = int(np.flatnonzero(theta_mask)[0])
    tail = h[1:]  # h_1 ... h_k paired with E[r+1] ... E[r+k]
    limit = 1e12 * max(norm_scale, 1e-300)
    for step in range(n - int(theta_mask.sum())):
        r = (start - 1 - step) % n
        window = spectrum[(r + 1 + np.arange(k)) % n]
        spectrum[r] = -(tail @ window) / h[0]
        if abs(spectrum[r]) > limit:
            raise InstabilityError(
                "locator recursion blew up; re-encode with a sorted DFT (q > 1) "
                "to break up the burst"
            )
    return spectrum


def elp_erasure_decode(received, erasures, code):
    """Repair erased samples of a block codeword via the locator recursion.

    Erased entries of `received` are ignored (read as zero); a non-finite
    retained one raises ValueError. Works in the code's transform domain
    (DFT or sorted DFT), where the known syndrome bins pin the erasure
    spectrum and the recursion extends it to all bins. Returns the repaired
    codeword.
    """
    values = as_values(received)
    n = code.n
    if values.size != n:
        raise ValueError(f"received length {values.size} != n = {n}")
    values = read_samples(values, erasures.mask())
    k = len(erasures)
    if k > code.p:
        raise CapacityError(f"{k} erasures exceed the capacity p = {code.p}")
    if k == 0:
        return values.copy()

    transformed = sorted_dft(values, code.q)
    theta_mask = code.theta.mask()
    # erasure positions as seen by the sorted-DFT kernel
    positions = (np.asarray(erasures.indices) * code.q) % n
    h = _elp_coefficients(positions, n)
    error_spectrum = _fill_by_recursion(
        -transformed, h, theta_mask, float(np.linalg.norm(transformed))
    )
    repaired_spectrum = transformed + error_spectrum
    return sorted_dft(repaired_spectrum, code.q, inverse=True)


def elp_impulsive_decode(received, code):
    """Locate and remove impulsive noise from a block codeword.

    Assumes up to floor(p/2) impulses. The locator coefficients are solved
    from the syndrome bins by pseudo-inverse, the error positions read off
    the near-zeros of the locator's spectrum (|H_i| at most a tenth of its
    median), and the impulse values recovered by the erasure recursion on
    the detected positions. A non-finite sample raises ValueError. Returns
    (clean, positions, values, report).
    """
    values = read_samples(as_values(received))
    n = code.n
    if values.size != n:
        raise ValueError(f"received length {values.size} != n = {n}")
    report = SolverReport(solver="elp-impulsive")
    empty = SupportSet(np.array([], dtype=int), n)

    transformed = sorted_dft(values, code.q)
    theta = code.theta.indices
    syndrome = transformed[theta]
    scale = float(np.linalg.norm(transformed))
    if float(np.linalg.norm(syndrome)) <= 1e-12 * max(scale, 1e-300):
        report.flags.append("no-error fast path: syndrome energy negligible")
        return values.copy(), empty, np.array([], dtype=complex), report.finish()

    k = (n - code.l) // 2
    if k == 0:
        raise CapacityError("code has no impulse-correction capacity (p < 2)")
    # equations sum_t h_t E[r + t] = 0 with the whole window inside theta
    rows = []
    rhs = []
    start = theta[0]
    for r in range(start, start + code.p - k):
        rows.append(transformed[np.arange(r + 1, r + k + 1)])
        rhs.append(-transformed[r])
    h_tail = pseudo_inverse_solve(np.array(rows), np.array(rhs))
    h = np.concatenate(([1.0 + 0j], h_tail))

    locator = np.abs(np.fft.fft(np.concatenate([h, np.zeros(n - 1 - k, dtype=complex)])))
    cut = 0.1 * float(np.median(locator))
    spectral_positions = np.flatnonzero(locator <= cut)
    if spectral_positions.size == 0:
        report.flags.append("no locator zeros found; returning input unchanged")
        return values.copy(), empty, np.array([], dtype=complex), report.finish()

    q_inv = pow(code.q, -1, n)
    time_positions = np.sort((spectral_positions * q_inv) % n)
    if time_positions.size > k:
        report.flags.append(
            f"detected {time_positions.size} impulses > capacity {k}: likely overrun"
        )

    h_exact = _elp_coefficients((time_positions * code.q) % n, n)
    error_spectrum = _fill_by_recursion(transformed, h_exact, code.theta.mask(), scale)
    impulses = sorted_dft(error_spectrum, code.q, inverse=True)
    clean = values - impulses
    return clean, SupportSet(time_positions, n), impulses[time_positions], report.finish()


@dataclasses.dataclass(frozen=True)
class ConvCode:
    """Rate-1/2 convolutional code given by two FIR tap vectors."""

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self):
        h1 = np.asarray(self.h1, dtype=np.float64).reshape(-1)
        h2 = np.asarray(self.h2, dtype=np.float64).reshape(-1)
        if h1.size == 0 or h1.size != h2.size:
            raise ValueError("taps must be non-empty and of equal length")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    @property
    def taps(self):
        return self.h1.size

    def output_length(self, input_length):
        return 2 * (input_length + self.taps - 1)

    def generator_matrix(self, input_length):
        """G with interleaved branch outputs: y = G x, zero tail padding."""
        g = np.empty((2 * (input_length + self.taps - 1), input_length))
        g[0::2] = _convolution_matrix(self.h1, input_length)
        g[1::2] = _convolution_matrix(self.h2, input_length)
        return g


def _convolution_matrix(taps, length):
    """Banded (length + taps - 1) x length M with M[i + t, i] = taps[t], so
    M @ x = np.convolve(x, taps)."""
    out = np.zeros((length + taps.size - 1, length))
    cols = np.arange(length)[:, None]
    out[cols + np.arange(taps.size), cols] = taps
    return out


def conv_encode(signal, code):
    """Interleave the two FIR branch outputs sample by sample."""
    x = np.asarray(signal, dtype=np.float64).reshape(-1)
    branch1 = np.convolve(x, code.h1)
    branch2 = np.convolve(x, code.h2)
    out = np.empty(branch1.size * 2)
    out[0::2] = branch1
    out[1::2] = branch2
    return out


def conv_parity_check(code, input_length):
    """Parity-check matrix H with H^T G = 0.

    Each parity column c states h2 * y1 - h1 * y2 = 0 at lag c (convolution
    commutes, so it annihilates every codeword); columns are normalized by
    the leading h2 tap to match a -1 leading entry.
    """
    m = input_length + code.taps - 1
    lead = code.h2[0] if code.h2[0] != 0 else 1.0
    h = np.empty((2 * m, m + code.taps - 1))
    h[0::2] = _convolution_matrix(-code.h2 / lead, m).T
    h[1::2] = _convolution_matrix(code.h1 / lead, m).T
    g = code.generator_matrix(input_length)
    defect = np.max(np.abs(h.T @ g))
    if defect > 1e-9 * max(1.0, float(np.max(np.abs(g)))):
        raise NumericError(f"parity construction failed annihilation: {defect:.3e}")
    return h


def conv_erasure_decode(received, erasures, code, max_iters=200):
    """Recover the encoder input from an erased output stream.

    Solves the normal equations of the masked generator system with
    conjugate gradients (residual 1e-10); above-capacity erasure rates show
    up as a non-converged report, not an exception. Erased samples are
    ignored; a non-finite retained one raises ValueError.
    """
    y = np.asarray(received, dtype=np.float64).reshape(-1)
    if y.size % 2:
        raise ValueError("received stream must have even length (rate 1/2)")
    input_length = y.size // 2 - code.taps + 1
    g = code.generator_matrix(input_length)
    keep = ~erasures.mask() if len(erasures) else np.ones(y.size, dtype=bool)
    y = read_samples(y, ~keep)

    def normal_op(v):
        return g.T @ (keep * (g @ v))

    rhs = g.T @ (keep * y)
    estimate, report = conjugate_gradient(normal_op, rhs, max_iters=max_iters, eps=1e-10)
    report.solver = "conv-erasure-cg"
    if len(erasures) > y.size // 2:
        report.flags.append("erasure rate above capacity 1/2")
    return estimate.real, report


def conv_impulsive_decode(received, code, alpha=0.02, max_iters=300, relax=1.9):
    """Separate impulsive noise from a convolutional stream, then re-solve.

    Projects the received stream onto the parity space (which sees only the
    noise), runs max_iters relaxed hard-thresholding iterations at the
    decaying level beta*exp(-alpha*i), beta the peak of that noise image,
    to sparsify the noise estimate, and least-squares decodes the cleaned
    stream. A non-finite sample raises ValueError. Returns (input estimate,
    impulse estimate, report).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    y = read_samples(np.asarray(received, dtype=np.float64).reshape(-1))
    input_length = y.size // 2 - code.taps + 1
    h = conv_parity_check(code, input_length)
    gram = h.T @ h
    condition = np.linalg.cond(gram)
    if condition > 1e12:
        raise NumericError(f"parity projector rank-deficient: cond = {condition:.3e}")
    projector = h @ np.linalg.solve(gram, h.T)

    report = SolverReport(solver="conv-impulsive-imat")
    noise_image = projector @ y
    beta = max(float(np.max(np.abs(noise_image))), 1e-30)
    nu = np.zeros_like(y)
    misfit = noise_image  # noise_image - projector @ nu, kept for the next blend
    for i in range(1, max_iters + 1):
        blended = nu + relax * misfit
        threshold = beta * math.exp(-alpha * i)
        nu = np.where(np.abs(blended) > threshold, blended, 0.0)
        misfit = noise_image - projector @ nu
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm(misfit)))
    g = code.generator_matrix(input_length)
    estimate, *_ = np.linalg.lstsq(g, y - nu, rcond=None)
    return estimate, nu, report.finish()
