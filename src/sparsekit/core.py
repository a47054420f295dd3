"""Deterministic numerical foundation shared by every solver module.

Transforms use the unitary convention (1/sqrt(n) in both directions) so
Parseval holds exactly and the locator-polynomial recursions stay
scale-free.
"""

import csv
import dataclasses
import math
import time

import numpy as np


class CapacityError(ValueError):
    """More erasures/impulses than the code can correct."""


class InstabilityError(RuntimeError):
    """A recursion blew up; typically cured by switching to the SDFT."""


class NumericError(RuntimeError):
    """An internal numerical consistency check failed."""


def as_values(signal):
    """Return the underlying 1-D complex ndarray of a signal-like object."""
    values = np.asarray(getattr(signal, "values", signal), dtype=np.complex128)
    if values.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    return values


def read_samples(values, erased=None, what="retained samples"):
    """The samples a solver reads: entries under the boolean mask erased
    read as zero, and a non-finite retained sample raises ValueError. Not
    part of as_values, so snr_db still scores an overflowed iterate -inf."""
    if erased is not None:
        values = np.where(erased, 0.0, values)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    return values


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """The one CSV format: a header line, then LF-terminated rows whose
    floats are written by repr (round-trip exact) and ints/bools plainly."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _wrap_like(template, values):
    if isinstance(template, ComplexSignal):
        return ComplexSignal(values)
    return values


@dataclasses.dataclass(frozen=True)
class ComplexSignal:
    """Finite complex-valued sequence; the carrier for time/frequency data."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("signal must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
            raise ValueError("signal entries must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size

    def is_hermitian(self, tol=1e-10):
        """True if values[j] = conj(values[(n-j) mod n]), hence real inverse DFT."""
        n = len(self)
        mirrored = np.conj(self.values[(-np.arange(n)) % n])
        return bool(np.max(np.abs(self.values - mirrored)) <= tol)

    def to_csv(self, path):
        """Write as CSV with columns index,re,im."""
        write_csv(path, ["index", "re", "im"],
                  zip(range(len(self)), self.values.real, self.values.imag))

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:3] != ["index", "re", "im"]:
                raise ValueError(f"unexpected CSV header: {header}")
            rows = [(int(r[0]), float(r[1]), float(r[2])) for r in reader]
        rows.sort()
        return cls(np.array([complex(re, im) for _, re, im in rows]))

    def to_bytes(self):
        """Little-endian complex128 binary form."""
        return self.values.astype("<c16").tobytes()

    @classmethod
    def from_bytes(cls, payload):
        return cls(np.frombuffer(payload, dtype="<c16").astype(np.complex128))


@dataclasses.dataclass(frozen=True)
class SupportSet:
    """Strictly increasing index set inside an ambient length n."""

    indices: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp).reshape(-1)
        idx = np.sort(idx)
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise ValueError(f"indices must lie in [0, {self.n})")
        if idx.size != np.unique(idx).size:
            raise ValueError("indices must be unique")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return self.indices.size

    def __iter__(self):
        return iter(self.indices)

    def mask(self):
        m = np.zeros(self.n, dtype=bool)
        m[self.indices] = True
        return m

    def complement(self):
        return SupportSet(np.setdiff1d(np.arange(self.n), self.indices), self.n)


def snr_db(reference, estimate):
    """10*log10(||ref||^2 / ||ref - est||^2); +inf when the error is zero,
    -inf when the estimate has overflowed to non-finite values."""
    ref = as_values(reference)
    est = as_values(estimate)
    if ref.shape != est.shape:
        raise ValueError("reference and estimate lengths differ")
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.sum(np.abs(ref - est) ** 2))
    if err == 0.0:
        return math.inf
    if not math.isfinite(err):
        return -math.inf
    return 10.0 * math.log10(float(np.sum(np.abs(ref) ** 2)) / err)


ZERO_TOL = 1e-6  # support = |s_i| > ZERO_TOL * max|s|, uniform across solvers


def detected_support(estimate, tol=ZERO_TOL):
    """Indices whose magnitude exceeds tol times the peak magnitude."""
    mags = np.abs(estimate)
    peak = mags.max() if mags.size else 0.0
    if peak == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mags > tol * peak)


class RandomSource(np.random.Generator):
    """Seeded PCG64 generator; identical seed gives identical draws everywhere.

    A numpy Generator on PCG64(SeedSequence([seed, stream])), so every draw
    is numpy's own call. Sources are single-owner; use split() to hand
    independent child streams to parallel trials.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        super().__init__(np.random.PCG64(np.random.SeedSequence([self.seed, self.stream])))

    def split(self, count):
        return [RandomSource(self.seed, self.stream + 1 + i) for i in range(count)]

    def complex_normal(self, size=None, scale=1.0):
        """Circular complex Gaussian with E|z|^2 = scale^2."""
        re = self.standard_normal(size)
        im = self.standard_normal(size)
        return (scale / math.sqrt(2.0)) * (re + 1j * im)


@dataclasses.dataclass
class SolverReport:
    """Per-run diagnostics shared by every iterative solver.

    residuals has one entry per iteration, and so has snrs when the caller
    supplied a reference signal (else it stays empty). flags name every
    abnormal event, such as divergence or breakdown. The estimate is the
    solver's return value, not part of the report. The report is built when
    its solver starts; finish() stamps wall_time from that moment.
    """

    solver: str
    iterations: int = 0
    converged: bool = False
    flags: list = dataclasses.field(default_factory=list)
    residuals: list = dataclasses.field(default_factory=list)
    snrs: list = dataclasses.field(default_factory=list)
    wall_time: float = 0.0
    started: float = dataclasses.field(init=False, repr=False, compare=False,
                                       default_factory=time.perf_counter)

    def finish(self):
        """Record the wall time since construction."""
        self.wall_time = time.perf_counter() - self.started
        return self


def dft(signal, inverse=False):
    """Unitary DFT (scale 1/sqrt(n) both directions)."""
    x = as_values(signal)
    n = x.size
    if inverse:
        out = np.fft.ifft(x) * math.sqrt(n)
    else:
        out = np.fft.fft(x) / math.sqrt(n)
    return _wrap_like(signal, out)


def sorted_dft(signal, q, inverse=False):
    """DFT with kernel exp(-2pi*j*i*k*q/n); bin k holds DFT bin (k*q mod n).

    Requires gcd(q, n) = 1 so the bin mapping is a permutation. Used as a
    spectral interleaver: consecutive indices on one side map to a spread
    pattern on the other, which breaks up bursts.
    """
    x = as_values(signal)
    n = x.size
    q = int(q)
    if math.gcd(q, n) != 1:
        raise ValueError(f"q={q} must be relatively prime to n={n}")
    perm = (np.arange(n) * q) % n
    if inverse:
        spectrum = np.empty(n, dtype=np.complex128)
        spectrum[perm] = x
        out = np.fft.ifft(spectrum) * math.sqrt(n)
    else:
        out = (np.fft.fft(x) / math.sqrt(n))[perm]
    return _wrap_like(signal, out)


def pseudo_inverse_solve(matrix, rhs):
    """Minimum-norm least-squares solution via SVD.

    Singular values below 1e-10 * sigma_max are treated as zero; the
    bursty-erasure Vandermonde systems this serves are badly conditioned and
    need the explicit cutoff.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    b = np.asarray(rhs, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not np.any(a):
        raise ValueError("matrix must be nonzero")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-10 * s[0]
    coeff = (u[:, keep].conj().T @ b) / s[keep]
    return vh[keep].conj().T @ coeff


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized internally; it must be Hermitian to 1e-10
    relative to its norm.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.max(np.abs(a - a.conj().T)) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian to 1e-10")
    sym = 0.5 * (a + a.conj().T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order].real, eigvecs[:, order]


def polynomial_roots(coefficients):
    """Roots of sum_i h_i z^(k-i) via the companion matrix.

    coefficients[0] multiplies z^k and must be nonzero.
    """
    h = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if h.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if h[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return np.roots(h)
