"""Deterministic numerical foundation shared by every solver module.

Transforms use the unitary convention (1/sqrt(n) in both directions) so
Parseval holds exactly and the locator-polynomial recursions stay
scale-free.
"""

import contextlib
import csv
import ctypes
import dataclasses
import functools
import glob
import math
import os
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
    read as zero, and a non-finite retained sample raises ValueError, which
    names the first failing row of a (T, n) stack (see _stack_row). Not
    part of as_values, so snr_db still scores an overflowed iterate -inf."""
    if erased is not None:
        values = np.where(erased, 0.0, values)
    nonfinite = ~np.all(np.isfinite(values), axis=-1)
    if np.any(nonfinite):
        raise ValueError(f"{what} must be finite{_stack_row(nonfinite)}")
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
    ref, est = as_values(reference), as_values(estimate)
    if ref.shape != est.shape:
        raise ValueError("reference and estimate lengths differ")
    return _snr_db(float(np.sum(np.abs(ref) ** 2)), _squared_errors(ref, est))


def _squared_errors(ref, est):
    """||ref - est||^2 along the last axis: one row sum per row, each equal to
    the 1-D sum of that row."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.abs(ref - est) ** 2).sum(axis=-1)  # np.sum's reduction, minus its dispatch


def _row_norms(v):
    """np.linalg.norm of each row of v, bit for bit: the squares of the real
    and imaginary parts are each summed by one strided BLAS dot per row, as
    the 1-D norm sums them (it sums a contiguous copy of a strided row)."""
    v = np.ascontiguousarray(v)
    if v.dtype.kind != "c":
        return np.sqrt(np.vecdot(v, v))
    parts = v.view(v.real.dtype).reshape(len(v), -1, 2).swapaxes(1, 2)
    squares = np.vecdot(parts, parts)  # (T, 2)
    return np.sqrt(squares[:, 0] + squares[:, 1])


def _snr_db(ref_energy, err):
    """snr_db from ref_energy = ||ref||^2 and err = ||ref - est||^2."""
    if err == 0.0:
        return math.inf
    if not math.isfinite(err):
        return -math.inf
    return 10.0 * math.log10(ref_energy / err)


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
    is numpy's own call. Sources are single-owner: each trial builds its
    own, and distinct (seed, stream) pairs give independent streams.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        super().__init__(np.random.PCG64(np.random.SeedSequence([self.seed, self.stream])))

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
    its solver starts; _finish() stamps wall_time from that moment.
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

    def _finish(self):
        """Record the wall time since construction."""
        self.wall_time = time.perf_counter() - self.started
        return self


def _as_stack(values, companions):
    """(stacked, values, companions): a stack is values whose array (a
    signal's .values) has exactly two dimensions, and each companion (a
    dict by name, returned as a list; None passes) must count its T rows,
    else ValueError; one signal and its companions become one-row lists."""
    if np.ndim(getattr(values, "values", values)) != 2:
        return False, [values], [None if item is None else [item] for item in companions.values()]
    for name, item in companions.items():
        if item is not None and len(item) != len(values):
            raise ValueError(f"a stack needs one {name} per row: "
                             f"got {len(item)} for {len(values)} rows")
    return True, values, list(companions.values())


def _unstack(result, stacked):
    """A stack's tuple result, or each item's row 0 for a one-signal call."""
    return result if stacked else tuple(item[0] for item in result)


class _LiveRows:
    """The one driver of every stacked loop: the rows of a (T, ...) stack
    that an iterative solver still runs, their histories and their reports.
    A one-signal solve is a one-row stack on it.

    The keyword arrays are the loop's work arrays, one row per stack row,
    read and set as attributes; they hold the running rows only. live lists
    the stack rows that run, and rows indexes a full-stack array by them:
    slice(None) until a row stops, so that indexing gives a view, then live.
    record() keeps each iteration's residuals, and squared errors against
    the references, in an (iterations, 2, T) history that doubles when full;
    retire() freezes stopped rows and drops them from the work arrays;
    stop() freezes the rest and returns every row's final value; finish()
    writes each report once, its snrs by snr_db's expression. Solver None
    keeps no reports.
    """

    def __init__(self, solver, count, references=None, **work):
        self.reports = [] if solver is None else [SolverReport(solver=solver) for _ in range(count)]
        self.live = np.arange(count)
        self.rows = slice(None)
        self._work = list(work)
        self.__dict__.update(work)
        self._finals = self._refs = None
        self._step = 0
        self._ends = np.zeros(count, dtype=int)
        self._history = np.empty((32, 2, count))
        if references is not None:
            self._refs = np.array([as_values(ref) for ref in references])
            self._energies = [float(np.sum(np.abs(ref) ** 2)) for ref in self._refs]
            self._work.append("_refs")

    def record(self, residuals, estimates=None):
        """Keep this iteration's residuals of the running rows, and the
        squared errors of their estimates when there are references."""
        step = self._step
        if step == len(self._history):
            self._history = np.concatenate((self._history, self._history))
        self._history[step, 0, self.rows] = residuals
        if self._refs is not None:
            if self._refs.shape[-1] != estimates.shape[-1]:
                raise ValueError("reference and estimate lengths differ")
            self._history[step, 1, self.rows] = _squared_errors(self._refs, estimates)
        self._step = step + 1

    def _freeze(self, stopped, converged, flag, iterations):
        rows = self.live[stopped]
        self._ends[rows] = self._step if iterations is None else iterations[stopped]
        if self.reports:
            done = np.broadcast_to(converged, self.live.shape)[stopped]
            for row, row_converged in zip(rows.tolist(), done.tolist()):
                if row_converged:
                    self.reports[row].converged = True
                elif flag:
                    self.reports[row].flags.append(flag)
        return rows

    def retire(self, stopped, values, converged=True, flag=None, iterations=None):
        """Freeze the running rows under the mask stopped at their rows of
        values and drop them from the work arrays. Each such row counts
        iterations[j] iterations (those recorded so far when None), and is
        converged where converged (a bool, or a mask over the running rows)
        holds, else flagged with flag. Returns True once no row runs."""
        if not np.count_nonzero(stopped):
            return False
        if self._finals is None:
            self._finals = np.empty((len(self._ends),) + values.shape[1:], values.dtype)
        self._finals[self._freeze(stopped, converged, flag, iterations)] = values[stopped]
        going = ~stopped
        self.live = self.rows = self.live[going]
        for name in self._work:
            setattr(self, name, getattr(self, name)[going])
        return not self.live.size

    def stop(self, values, converged=False, flag=None):
        """Freeze the running rows at values, marked as retire() marks them,
        and return the (T, ...) final values of every row: values itself
        when no row stopped early."""
        rows = self._freeze(slice(None), converged, flag, None)
        if self._finals is None:
            self._finals = values
        else:
            self._finals[rows] = values
        return self._finals

    def finish(self):
        """Write each report's iterations and histories, stamp its wall
        time, and return the reports."""
        for row, report in enumerate(self.reports):
            end = report.iterations = int(self._ends[row])
            report.residuals = self._history[:end, 0, row].tolist()
            if self._refs is not None:
                report.snrs = [_snr_db(self._energies[row], error)
                               for error in self._history[:end, 1, row].tolist()]
            report._finish()
        return self.reports


@functools.cache
def _openblas():
    """numpy's own OpenBLAS as its (set, get) thread-count functions, or
    None when this numpy build does not ship that library."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_-*.so")):
        lib = ctypes.CDLL(path)
        with contextlib.suppress(AttributeError):
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def blas_threads(count):
    """Run the block with numpy's OpenBLAS at count threads and restore the
    previous count on exit, also on an exception. Yields the count in
    effect, or None, changing nothing, when numpy's OpenBLAS is not found.

    Small factorizations (a 192x96 QR) run several times slower at two
    threads than at one on a 2-vCPU host; the thread count moves no bit of
    the registry's outputs."""
    functions = _openblas()
    if functions is None:
        yield None
        return
    set_threads, get_threads = functions
    previous = get_threads()
    set_threads(count)
    try:
        yield get_threads()
    finally:
        set_threads(previous)


def _unitary_dft(z, inverse=False):
    """The unitary DFT of z along its last axis: the one place an FFT is
    scaled by 1/sqrt(n)."""
    n = z.shape[-1]
    if inverse:
        return np.fft.ifft(z) * math.sqrt(n)
    return np.fft.fft(z) / math.sqrt(n)


def dft(signal, inverse=False):
    """Unitary DFT (scale 1/sqrt(n) both directions)."""
    return _wrap_like(signal, _unitary_dft(as_values(signal), inverse))


def sorted_dft(signal, q, inverse=False):
    """DFT with kernel exp(-2pi*j*i*k*q/n); bin k holds DFT bin (k*q mod n).

    Requires gcd(q, n) = 1 so the bin mapping is a permutation. Used as a
    spectral interleaver: consecutive indices on one side map to a spread
    pattern on the other, which breaks up bursts.
    """
    return _wrap_like(signal, _sorted_dft(as_values(signal), q, inverse))


def _sorted_dft(x, q, inverse=False):
    """sorted_dft of the complex array x along its last axis; each row of a
    stack equals its own transform bit for bit."""
    n = x.shape[-1]
    q = int(q)
    if math.gcd(q, n) != 1:
        raise ValueError(f"q={q} must be relatively prime to n={n}")
    perm = (np.arange(n) * q) % n
    if inverse:
        spectrum = np.empty(x.shape, dtype=np.complex128)
        spectrum[..., perm] = x
        return _unitary_dft(spectrum, inverse=True)
    return _unitary_dft(x)[..., perm]


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


def _stack_row(failing):
    """'' for the 0-d check of one matrix, and for a one-row stack (a
    one-signal call solved as a stack); for the per-row check of a taller
    stack, ' in stack row j', j the first failing row."""
    return f" in stack row {np.flatnonzero(failing)[0]}" if np.size(failing) > 1 else ""


def _check_ambient_lengths(index_sets, length):
    """ValueError, naming a stack's first failing row, unless every index
    set's ambient length is the signal length."""
    mismatch = np.array([indices.n != length for indices in index_sets])
    if mismatch.any():
        raise ValueError(f"ambient lengths must match the signal length{_stack_row(mismatch)}")


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized internally; it must be finite and Hermitian
    to 1e-10 relative to its norm. A (T, n, n) stack is decomposed matrix
    by matrix, each checked on its own, into (T, n) eigenvalues and
    (T, n, n) eigenvectors; the error names the first failing row (see
    _stack_row).
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix must be square, or a stack of square matrices")
    nonfinite = ~np.all(np.isfinite(a), axis=(-2, -1))
    if np.any(nonfinite):
        raise ValueError(f"matrix entries must be finite{_stack_row(nonfinite)}")
    adjoint = a.conj().swapaxes(-2, -1)
    scale = np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    skewed = np.max(np.abs(a - adjoint), axis=(-2, -1)) > 1e-10 * scale
    if np.any(skewed):
        raise ValueError(f"matrix is not Hermitian to 1e-10{_stack_row(skewed)}")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (a + adjoint))
    order = np.argsort(eigvals, axis=-1)[..., ::-1]
    return (np.take_along_axis(eigvals, order, axis=-1),
            np.take_along_axis(eigvecs, order[..., None, :], axis=-1))


def polynomial_roots(coefficients):
    """Roots of sum_i h_i z^(k-i) via the companion matrix, as np.roots
    finds them.

    coefficients[0] multiplies z^k and must be nonzero, and every
    coefficient must be finite. One polynomial is rooted by np.roots. A
    (T, k+1) stack gives (T, k) complex roots, each row equal to its own
    call bit for bit: the rows' companion matrices are built as np.roots
    builds them and share one eigvals call, while a row whose trailing
    coefficients vanish (np.roots shrinks its companion and appends the
    zero roots) is rooted by np.roots on its own. Errors name the first
    failing row of a stack (see _stack_row).
    """
    h = np.asarray(coefficients, dtype=np.complex128)
    if h.ndim not in (1, 2):
        raise ValueError("coefficients must be one polynomial or a stack of them")
    rows = h.reshape(-1, h.shape[-1])
    if rows.shape[1] < 2:
        raise ValueError("need a polynomial of degree >= 1")
    nonfinite = ~np.isfinite(rows).all(axis=1)
    if nonfinite.any():
        raise ValueError(f"coefficients must be finite{_stack_row(nonfinite)}")
    vanishing = rows[:, 0] == 0
    if vanishing.any():
        raise ValueError(f"leading coefficient must be nonzero{_stack_row(vanishing)}")
    if h.ndim == 1:
        return np.roots(h)
    k = h.shape[1] - 1
    companion = np.zeros((len(h), k, k), dtype=np.complex128)
    companion[:, 1:, :-1] = np.eye(k - 1)
    companion[:, 0, :] = -h[:, 1:] / h[:, :1]
    roots = np.linalg.eigvals(companion)
    for row in np.flatnonzero(h[:, -1] == 0):
        roots[row] = np.roots(h[row])
    return roots


def _annihilating_filter(values, k):
    """Monic [1, h_1, ..., h_k] with x[r] + sum_j h_j x[r-j] = 0 for
    r = k..2k-1, x the first 2k of values: Prony's locator, the FRI
    annihilating filter. k < 1, a non-finite value or a recursion with
    cond > 1e12 (fewer than k effective terms) raises ValueError. A (T, n)
    stack of values gives (T, k+1) filters, each row equal to its own call,
    from one stacked cond check and one stacked solve; errors name the
    first failing row."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    x = read_samples(values, what="annihilated values")
    rows = np.lib.stride_tricks.sliding_window_view(x[..., : 2 * k - 1], k, axis=-1)[..., ::-1]
    degenerate = np.linalg.cond(rows) > 1e12
    if np.any(degenerate):
        raise ValueError(f"degenerate recursion: fewer than k effective terms"
                         f"{_stack_row(degenerate)}")
    taps = np.linalg.solve(rows, -x[..., k : 2 * k, None])[..., 0]
    return np.concatenate((np.ones(x.shape[:-1] + (1,), dtype=np.complex128), taps), axis=-1)
