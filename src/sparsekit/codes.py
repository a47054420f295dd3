"""Real/complex-field error correction.

DFT block codes insert a consecutive run of spectral zeros (the syndrome
set); erasures and impulsive noise are then decoded through the error
locator polynomial whose unit-circle roots mark the corrupted positions.
Convolutional codes of rate 1/2 are decoded through their generator and
parity-check matrices with the iterative machinery of the sampling module.
"""

import dataclasses
import functools
import math

import numpy as np

from .core import (
    CapacityError,
    InstabilityError,
    NumericError,
    SolverReport,
    SupportSet,
    as_values,
    pseudo_inverse_solve,
    read_samples,
    sorted_dft,
    _LiveRows,
    _as_stack,
    _check_ambient_lengths,
    _row_norms,
    _sorted_dft,
    _unitary_dft,
    _unstack,
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
        """The codeword of message; a (T, l) stack of messages encodes row
        by row into a (T, n) stack, each row bit for bit its own codeword."""
        if np.ndim(message) == 2:
            values = np.asarray(message, dtype=np.complex128)
        else:
            values = as_values(message)
        if values.shape[-1] != self.l:
            raise ValueError(f"message length {values.shape[-1]} != l = {self.l}")
        placed = np.zeros(values.shape[:-1] + (self.n,), dtype=np.complex128)
        placed[..., self._message_bins()] = _unitary_dft(values)
        return _sorted_dft(placed, self.q, inverse=True)

    def decode(self, codeword):
        values = as_values(codeword)
        if values.size != self.n:
            raise ValueError(f"codeword length {values.size} != n = {self.n}")
        placed = sorted_dft(values, self.q)
        spectrum = placed[self._message_bins()]
        return _unitary_dft(spectrum, inverse=True)


def _elp_coefficients(positions, n):
    """Locator coefficients h_0..h_k (h_0 = 1) from the root product.

    Evaluates H(z) = prod (z - exp(2pi j pos/n)) on the n-point unit-circle
    grid and reads the coefficients off an inverse FFT, which is cheaper and
    better behaved than symbolic expansion for large k. A (T, k) stack of
    positions gives a (T, k + 1) stack of locators.
    """
    positions = np.asarray(positions)
    k = positions.shape[-1]
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    roots = np.exp(2j * np.pi * positions / n)
    h_vals = np.ones(positions.shape[:-1] + (n,), dtype=np.complex128)
    for root in np.moveaxis(roots, -1, 0):
        h_vals *= grid - root[..., None]
    padded = np.fft.ifft(h_vals * grid ** (-k))
    return padded[..., : k + 1]


_BLOWN_UP = ("locator recursion blew up; re-encode with a sorted DFT (q > 1) "
             "to break up the burst")


def _fill_by_recursion(syndrome, h, theta_mask, norm_scale):
    """Complete locator-annihilated spectra from their syndrome values.

    The forward-kernel annihilation identity sum_t h_t E[r+t] = 0 gives
    E[r] = -(1/h_0) sum_{t>=1} h_t E[r+t], walked downward from the
    syndrome run so every needed value is already known; index arithmetic
    is mod n. Each row of the (T, n) syndrome stack has its row of the
    (T, k + 1) locators h and of norm_scale. A row whose recursion blows up
    (a value above 1e12 norm_scale) stops there. Returns the (T, n) spectra,
    zero on the rows that blew up, and the boolean mask of those rows.
    """
    n = theta_mask.size
    k = h.shape[1] - 1
    start = int(np.flatnonzero(theta_mask)[0])
    blown = np.zeros(len(h), dtype=bool)
    # tail is h_1 ... h_k, paired with E[r+1] ... E[r+k]; it is kept
    # conjugated, as np.vecdot conjugates its first operand back
    run = _LiveRows(None, len(h), spectrum=np.where(theta_mask, syndrome, 0.0),
                    tail=h[:, 1:].conj(), lead=h[:, 0],
                    limit=1e12 * np.maximum(norm_scale, 1e-300))
    for step in range(n - int(theta_mask.sum())):
        r = (start - 1 - step) % n
        # a contiguous window: a strided dot sums in another order
        window = np.ascontiguousarray(run.spectrum[:, (r + 1 + np.arange(k)) % n])
        run.spectrum[:, r] = -np.vecdot(run.tail, window) / run.lead
        over = np.abs(run.spectrum[:, r]) > run.limit
        if np.count_nonzero(over):
            blown[run.live[over]] = True
            run.retire(over, run.spectrum)
    filled = run.stop(run.spectrum)
    filled[blown] = 0.0
    return filled, blown


def elp_erasure_decode(received, erasures, code):
    """Repair erased samples of a block codeword via the locator recursion.

    Erased entries of `received` are ignored (read as zero); a non-finite
    retained one, or an erasure set whose ambient length is not the code
    length n, raises ValueError. Works in the code's transform domain
    (DFT or sorted DFT), where the known syndrome bins pin the erasure
    spectrum and the recursion extends it to all bins. Returns the repaired
    codeword; a recursion that blows up raises InstabilityError.

    received may also be a (T, n) stack with a list of T erasure sets of one
    size; an erasure-set count other than T, or mixed sizes, raise
    ValueError. Each repaired row equals its own decode bit for bit. The
    call then returns a (T, n) array and a list of T reports, each
    converged unless its row's recursion blew up. Such a row is not
    repaired: it holds the received samples with its erasures read as zero,
    and its report carries InstabilityError's message as its flag. Every
    report's wall_time spans the whole stack.
    """
    stacked, received, (erasures,) = _as_stack(received, {"erasure set": erasures})
    values = np.array([as_values(row) for row in received])
    n = code.n
    if values.shape[1] != n:
        raise ValueError(f"received length {values.shape[1]} != n = {n}")
    _check_ambient_lengths(erasures, n)
    k = len(erasures[0])
    if any(len(erased) != k for erased in erasures):
        raise ValueError("every row of a stack must have the same number of erasures")
    values = read_samples(values, np.array([erased.mask() for erased in erasures]))
    if k > code.p:
        raise CapacityError(f"{k} erasures exceed the capacity p = {code.p}")
    reports = [SolverReport(solver="elp-erasure", converged=True) for _ in values]
    repaired = values.copy()
    if k:
        transformed = _sorted_dft(values, code.q)
        # erasure positions as seen by the sorted-DFT kernel
        positions = (np.array([erased.indices for erased in erasures]) * code.q) % n
        error_spectrum, blown = _fill_by_recursion(
            -transformed, _elp_coefficients(positions, n), code.theta.mask(),
            _row_norms(transformed))
        if blown[0] and not stacked:
            raise InstabilityError(_BLOWN_UP)
        repaired[~blown] = _sorted_dft(transformed + error_spectrum, code.q, inverse=True)[~blown]
        for row in np.flatnonzero(blown):
            reports[row].converged = False
            reports[row].flags.append(_BLOWN_UP)
    for report in reports:
        report._finish()
    return (repaired, reports) if stacked else repaired[0]


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
        return values.copy(), empty, np.array([], dtype=complex), report._finish()

    k = (n - code.l) // 2
    if k == 0:
        raise CapacityError("code has no impulse-correction capacity (p < 2)")
    # equations sum_t h_t E[r + t] = 0 with the whole window inside theta
    start = theta[0]
    rows = np.lib.stride_tricks.sliding_window_view(transformed[start + 1 : start + code.p], k)
    h_tail = pseudo_inverse_solve(rows, -transformed[start : start + code.p - k])
    h = np.concatenate(([1.0 + 0j], h_tail))

    locator = np.abs(np.fft.fft(np.concatenate([h, np.zeros(n - 1 - k, dtype=complex)])))
    cut = 0.1 * float(np.median(locator))
    spectral_positions = np.flatnonzero(locator <= cut)
    if spectral_positions.size == 0:
        report.flags.append("no locator zeros found; returning input unchanged")
        return values.copy(), empty, np.array([], dtype=complex), report._finish()

    q_inv = pow(code.q, -1, n)
    time_positions = np.sort((spectral_positions * q_inv) % n)
    if time_positions.size > k:
        report.flags.append(
            f"detected {time_positions.size} impulses > capacity {k}: likely overrun"
        )

    h_exact = _elp_coefficients((time_positions[None] * code.q) % n, n)
    error_spectrum, blown = _fill_by_recursion(transformed[None], h_exact, code.theta.mask(),
                                               np.array([scale]))
    if blown[0]:
        raise InstabilityError(_BLOWN_UP)
    impulses = sorted_dft(error_spectrum[0], code.q, inverse=True)
    clean = values - impulses
    return clean, SupportSet(time_positions, n), impulses[time_positions], report._finish()


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
    """Interleave the two FIR branch outputs sample by sample; the signal
    must be one-dimensional."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
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


@functools.lru_cache(maxsize=8)
def _generator(h1, h2, input_length):
    """Read-only generator matrix of the code with tap tuples h1, h2 at one
    input length, built once and shared by every decode of that pair. An
    entry holds 16 m * input_length bytes, m = input_length + taps - 1
    (44 KB for 6 taps at input length 50); at most 8 entries are kept."""
    g = ConvCode(h1, h2).generator_matrix(input_length)
    g.flags.writeable = False
    return g


@functools.lru_cache(maxsize=8)
def _parity_projector(h1, h2, input_length):
    """Read-only parity projector P = H (H^T H)^-1 H^T of the code with tap
    tuples h1, h2 at one input length, cached as _generator is. Raises
    NumericError when the parity construction fails its annihilation check
    or H^T H has cond > 1e12; a failure is not cached. An entry holds
    32 m^2 bytes (97 KB for 6 taps at input length 50)."""
    h = conv_parity_check(ConvCode(h1, h2), input_length)
    gram = h.T @ h
    condition = np.linalg.cond(gram)
    if condition > 1e12:
        raise NumericError(f"parity projector rank-deficient: cond = {condition:.3e}")
    projector = h @ np.linalg.solve(gram, h.T)
    projector.flags.writeable = False
    return projector


def _matvecs(matrix, v):
    """matrix @ v[i] for each row i, one gemv per row as the 1-D product
    runs it."""
    return np.matmul(matrix, v[:, :, None])[:, :, 0]


def conv_erasure_decode(received, erasures, code, max_iters=200):
    """Recover the encoder input from an erased output stream.

    Solves the normal equations of the masked generator system with
    conjugate gradients (residual 1e-10); above-capacity erasure rates show
    up as a non-converged report, not an exception. Erased samples are
    ignored; a non-finite retained one, or an erasure set whose ambient
    length is not the stream length, raises ValueError.

    received may also be a (T, L) stack of streams with a list of T erasure
    sets; an erasure-set count other than T raises ValueError. The rows run
    through one stacked CG (see sampling.conjugate_gradient), each equal to
    its own decode bit for bit, and the call returns a (T, input_length)
    array of estimates and a list of T reports.
    """
    stacked, y, (erasures,) = _as_stack(np.asarray(received, dtype=np.float64),
                                        {"erasure set": erasures})
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError("received must be one stream or a (T, L) stack of streams")
    length = y.shape[1]
    if length % 2:
        raise ValueError("received stream must have even length (rate 1/2)")
    _check_ambient_lengths(erasures, length)
    input_length = length // 2 - code.taps + 1
    g = _generator(tuple(code.h1), tuple(code.h2), input_length)
    keep = ~np.array([erased.mask() for erased in erasures])
    y = read_samples(y, ~keep)

    def normal_op(v, rows):
        return _matvecs(g.T, keep[rows] * _matvecs(g, v))

    estimates, reports = conjugate_gradient(normal_op, _matvecs(g.T, keep * y), max_iters, 1e-10)
    for erased, report in zip(erasures, reports):
        if len(erased) > length // 2:
            report.flags.append("erasure rate above capacity 1/2")
    return _unstack((estimates, reports), stacked)


def conv_impulsive_decode(received, code, alpha=0.02, max_iters=300, relax=1.9):
    """Separate impulsive noise from a convolutional stream, then re-solve.

    Projects the received stream onto the parity space (which sees only the
    noise), runs max_iters relaxed hard-thresholding iterations at the
    decaying level beta*exp(-alpha*i), beta the peak of that noise image
    floored at 1e-7 ||received|| (an impulse-free stream's noise image is
    roundoff, which the schedule must not threshold into impulses), to
    sparsify the noise estimate, and least-squares decodes the cleaned
    stream. A non-finite sample raises ValueError. Returns (input estimate,
    impulse estimate, report). The report has converged when the last misfit
    ||noise image - projector nu|| is at most 1e-7 ||received||: the impulse
    estimate explains the parity image exactly. Background noise that no
    sparse impulse vector explains, or more impulses than the code corrects,
    leaves a misfit far above that.

    received may also be a (T, L) stack of streams of the same code and
    length. Its rows run through the same loop together, each bit-identical
    to its own decode, and the call returns a (T, input_length) array of
    estimates, a (T, L) array of impulse estimates and a list of T reports;
    every report's wall_time spans the whole stack.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    stacked, stack, _ = _as_stack(np.asarray(received, dtype=np.float64), {})
    stack = read_samples(np.asarray(stack))
    if stack.ndim != 2:
        raise ValueError("received must be one stream or a (T, L) stack of streams")
    if stack.shape[1] % 2:
        raise ValueError("received stream must have even length (rate 1/2)")
    input_length = stack.shape[1] // 2 - code.taps + 1
    projector = _parity_projector(tuple(code.h1), tuple(code.h2), input_length)
    g = _generator(tuple(code.h1), tuple(code.h2), input_length)

    run = _LiveRows("conv-impulsive-imat", len(stack))
    noise_image = _matvecs(projector, stack)
    tolerances = 1e-7 * _row_norms(stack)
    beta = np.maximum(np.max(np.abs(noise_image), axis=1), tolerances)[:, None]
    nu = np.zeros_like(stack)
    misfit = noise_image  # noise_image - projector @ nu, kept for the next blend
    norms = np.full(len(stack), math.inf)  # no iteration: not converged
    for i in range(1, max_iters + 1):
        blended = nu + relax * misfit
        threshold = beta * math.exp(-alpha * i)
        nu = np.where(np.abs(blended) > threshold, blended, 0.0)
        misfit = noise_image - _matvecs(projector, nu)
        norms = _row_norms(misfit)
        run.record(norms)
    run.stop(nu, norms <= tolerances)
    estimates = np.array([np.linalg.lstsq(g, row, rcond=None)[0] for row in stack - nu])
    return _unstack((estimates, nu, run.finish()), stacked)
