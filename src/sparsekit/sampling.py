"""Recovery of sparse/bandlimited signals from partial samples.

Covers the basic alternating-projection iteration for known transform
support, its Chebyshev and conjugate-gradient accelerations, IMAT for
unknown support, and annihilating-filter recovery of Dirac streams from
polynomial moments.
"""

import dataclasses
import math

import numpy as np

from .core import (
    NumericError,
    SupportSet,
    as_values,
    detected_support,
    polynomial_roots,
    read_samples,
    _LiveRows,
    _annihilating_filter,
    _as_stack,
    _row_norms,
    _stack_row,
    _unitary_dft,
    _unstack,
)


def _retained_samples(observed, sample_times):
    """The (T, n) stack of observed rows with their erased samples read as
    zero, the (T, n) masks of the retained sample_times, and the one sample
    count m of every row. Mixed sample counts, no retained sample, or a
    non-finite retained sample raise ValueError; a stack's error names its
    row."""
    x_obs = np.array([as_values(row) for row in observed])
    if any(times.n != x_obs.shape[1] for times in sample_times):
        raise ValueError("ambient lengths must match the signal length")
    if any(len(times) == 0 for times in sample_times):
        raise ValueError("need at least one retained sample")
    m = len(sample_times[0])
    if any(len(times) != m for times in sample_times):
        raise ValueError("every row of a stack must retain the same number of samples")
    smask = np.array([times.mask() for times in sample_times])
    return read_samples(x_obs, ~smask), smask, m


def _masked_system(observed, sample_times, freq_support):
    """Checked samples and the density-compensated masked operator.

    apply_ps(z, rows) keeps the retained time samples of each row of z (rows
    indexes the stack by z's rows), scales them by n/m so a uniform
    Nyquist sampling is recovered in one projection, and projects onto the
    frequency support. Returns (x_obs, smask, m, apply_ps, apply_ps(x_obs));
    see _retained_samples for x_obs, smask and m.
    """
    x_obs, smask, m = _retained_samples(observed, sample_times)
    n = x_obs.shape[1]
    if freq_support.n != n:
        raise ValueError("ambient lengths must match the signal length")
    t = len(freq_support)
    if t > m:
        raise ValueError(
            f"infeasible masks: {t} sparse coefficients but only {m} samples"
        )
    outside = ~freq_support.mask()
    comp = n / m

    def apply_ps(z, rows):
        spectrum = _unitary_dft(np.where(smask[rows], z, 0.0) * comp)
        np.copyto(spectrum, 0.0, where=outside)
        return _unitary_dft(spectrum, inverse=True)

    return x_obs, smask, m, apply_ps, apply_ps(x_obs, slice(None))


def _masked_operator_matrix(sample_times, freq_support):
    """Dense matrix of the compensated PS operator on the support coefficients."""
    n = sample_times.n
    times = sample_times.indices
    freqs = freq_support.indices
    basis = np.exp(2j * np.pi * np.outer(times, freqs) / n) / math.sqrt(n)
    return (n / times.size) * (basis.conj().T @ basis)


def _frame_bounds(sample_times, freq_support):
    """Arrays of the frame bounds (A, B), one per SupportSet in sample_times,
    from one stacked eigvalsh."""
    eigvals = np.linalg.eigvalsh(np.array([_masked_operator_matrix(times, freq_support)
                                           for times in sample_times]))
    return np.maximum(eigvals[:, 0], 1e-15), eigvals[:, -1]


def estimate_frame_bounds(sample_times, freq_support):
    """Frame bounds (A, B) of the masked reconstruction operator."""
    bound_a, bound_b = _frame_bounds([sample_times], freq_support)
    return float(bound_a[0]), float(bound_b[0])


_DIVERGED = "residual grew for 3 consecutive iterations"


def iterative_reconstruct(observed, sample_times, freq_support, max_iters=500, relax=1.0,
                          eps=1e-10, reference=None):
    """Alternating projections between sample data and transform support.

    Runs x <- x + relax * P(S(observed) - S(x)) where S keeps the samples
    at sample_times (density-compensated by n/m so a uniform Nyquist
    sampling converges in one projection) and P projects onto the known
    frequency support freq_support (both SupportSets of the signal
    length), until a step is shorter than eps or max_iters steps ran.
    relax must lie in (0, 2) and eps be positive. Returns the estimate and
    a per-iteration report; divergence (three consecutive residual
    increases) is flagged, not fatal.

    observed may also be a (T, n) stack with a list of T sample_times that
    all retain the same number of samples, and reference then a (T, n)
    stack; a sample_times count other than T, or mixed sample counts, raise
    ValueError. Each row keeps its own stopping rule, flags and final
    iterate, and equals its own solve bit for bit. The call then returns a
    (T, n) array of estimates and a list of T reports; every report's
    wall_time spans the whole stack.
    """
    if not 0.0 < relax < 2.0:
        raise ValueError("relaxation must lie in (0, 2)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    stacked, observed, (sample_times, reference) = _as_stack(
        observed, {"sample_times": sample_times, "reference": reference})
    x_obs, smask, m, apply_ps, b = _masked_system(observed, sample_times, freq_support)

    count = len(x_obs)
    run = _LiveRows("iterative", count, reference, obs=x_obs, mask=smask, b=b,
                    x=np.zeros(x_obs.shape, dtype=np.complex128),
                    grow_streak=np.zeros(count, dtype=int), prev_resid=np.full(count, math.inf))
    for _ in range(max_iters):
        x_new = run.x + relax * (run.b - apply_ps(run.x, run.rows))
        resid = _row_norms((x_new - run.obs)[run.mask].reshape(-1, m))
        run.record(resid, x_new)
        run.grow_streak = (run.grow_streak + 1) * (resid > run.prev_resid)
        run.prev_resid = resid
        if np.count_nonzero(run.grow_streak == 3):  # cheaper than .any() on a few rows
            for row in run.live[run.grow_streak == 3]:
                if _DIVERGED not in run.reports[row].flags:
                    run.reports[row].flags.append(_DIVERGED)
        converged = _row_norms(x_new - run.x) < eps
        run.x = x_new
        # a row also stops on a residual above 1e100, or not finite
        if run.retire(converged | ~(resid <= 1e100), x_new, converged,
                      "iterate overflowed; stopping"):
            break
    return _unstack((run.stop(run.x), run.finish()), stacked)


def chebyshev_accelerate(observed, sample_times, freq_support, max_iters=500, eps=1e-10,
                         reference=None):
    """Two-term Chebyshev acceleration of the masked iteration.

    Uses the recursion lambda_n = (1 - rho^2 * lambda_{n-1} / 4)^-1 with
    rho = (B - A)/(B + A), the frame bounds (A, B) measured from the masked
    operator by estimate_frame_bounds. Same fixed point, stopping rule and
    stack form as iterative_reconstruct.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    stacked, observed, (sample_times, reference) = _as_stack(
        observed, {"sample_times": sample_times, "reference": reference})
    x_obs, smask, m, apply_ps, b = _masked_system(observed, sample_times, freq_support)
    bound_a, bound_b = _frame_bounds(sample_times, freq_support)
    gain = (2.0 / (bound_a + bound_b))[:, None]

    run = _LiveRows("chebyshev", len(x_obs), reference, obs=x_obs, mask=smask, b=b,
                    rho=(bound_b - bound_a) / (bound_b + bound_a), gain=gain,
                    lam=np.full(len(x_obs), 2.0), x_prev=np.zeros(x_obs.shape, dtype=np.complex128),
                    x_cur=gain * b)
    run.record(_row_norms((run.x_cur - x_obs)[smask].reshape(-1, m)), run.x_cur)
    for _ in range(max_iters - 1):
        run.lam = 1.0 / (1.0 - 0.25 * run.rho * run.rho * run.lam)
        x_next = run.x_prev + run.lam[:, None] * (
            run.x_cur - run.x_prev + run.gain * (run.b - apply_ps(run.x_cur, run.rows)))
        run.record(_row_norms((x_next - run.obs)[run.mask].reshape(-1, m)), x_next)
        converged = _row_norms(x_next - run.x_cur) < eps
        run.x_prev, run.x_cur = run.x_cur, x_next
        if run.retire(converged, x_next):
            break
    return _unstack((run.stop(run.x_cur), run.finish()), stacked)


def conjugate_gradient(apply_op, rhs, max_iters=500, eps=1e-12, reference=None):
    """CG recursion for a self-adjoint PSD operator given as a callable.

    Terminates on ||r|| < eps, iteration budget, or breakdown of the
    curvature inner product (flagged; best iterate returned). A residual
    norm or curvature that is no longer finite (its squares overflowed)
    raises NumericError.

    rhs may also be a (T, N) stack, and reference then a (T, N) stack. Then
    apply_op(p, rows) receives the search directions of the rows still
    running, one per row, and rows, which indexes the stack by those rows
    (slice(None) while every row runs); it returns the operator applied to
    each row. Each row keeps its own stopping rule and final iterate, and
    equals its own solve bit for bit; a NumericError names its stack row.
    The call returns a (T, N) array of estimates and a list of T reports;
    every report's wall_time spans the whole stack.
    """
    stacked, rhs, (reference,) = _as_stack(rhs, {"reference": reference})
    rhs = np.asarray(rhs)
    op = apply_op if stacked else lambda p, rows: apply_op(p[0])[None]

    def check_finite(values, rows, what):
        if np.count_nonzero(np.isfinite(values)) == values.size:
            return values
        failing = np.zeros(len(rhs), dtype=bool)
        failing[rows[~np.isfinite(values)]] = True
        raise NumericError(what.format(_stack_row(failing)))

    norm_error = "CG residual norm is not finite{}: its squares overflowed"
    with np.errstate(over="ignore", invalid="ignore"):
        residual = check_finite(_row_norms(rhs), np.arange(len(rhs)), norm_error)
        run = _LiveRows("cg", len(rhs), reference, x=np.zeros_like(rhs), r=rhs.copy(),
                        p=rhs.copy(), residual=residual, tol=eps * np.maximum(residual, 1.0))
        for _ in range(max_iters):
            if run.retire(run.residual < run.tol, run.x):
                break
            op_p = op(run.p, run.rows)
            denom = check_finite(np.vecdot(run.p, op_p), run.live,
                                 "CG curvature inner product is not finite{}: it overflowed")
            vanished = np.abs(denom) <= 1e-300
            if np.count_nonzero(vanished):
                op_p, denom = op_p[~vanished], denom[~vanished]
                if run.retire(vanished, run.x, False, "curvature inner product vanished"):
                    break
            lam = (np.vecdot(run.p, run.r) / denom)[:, None]
            run.x = run.x + lam * run.p
            run.r = run.r - lam * op_p
            run.residual = check_finite(_row_norms(run.r), run.live, norm_error)
            run.record(run.residual, run.x)
            lam_prime = (np.vecdot(op_p, run.r) / denom)[:, None]
            run.p = run.r - lam_prime * run.p
    return _unstack((run.stop(run.x, run.residual < run.tol), run.finish()), stacked)


def cg_accelerate(observed, sample_times, freq_support, max_iters=500, eps=1e-10,
                  reference=None):
    """Conjugate-gradient solve of the masked reconstruction problem; eps
    must be positive. Takes a stack as iterative_reconstruct does."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    stacked, observed, (sample_times, reference) = _as_stack(
        observed, {"sample_times": sample_times, "reference": reference})
    _, _, _, apply_ps, b = _masked_system(observed, sample_times, freq_support)
    return _unstack(conjugate_gradient(apply_ps, b, max_iters, eps, reference), stacked)


def imat(observed, sample_times, alpha=0.3, max_iters=100, relax=1.0,
         eps=1e-12, refine_support=False, reference=None):
    """Iterative method with adaptive hard thresholding, support unknown.

    Alternates relax-weighted replacement of the samples at sample_times with
    hard thresholding of the unitary DFT at the decaying level
    beta*exp(-alpha*i), i = 1, 2, ..., max_iters, with alpha positive.
    beta is the peak magnitude of the first density-compensated transform
    (floored at 1e-30). At most half the sample count of transform
    coefficients survive a thresholding pass: that full-capacity bound
    keeps the density-compensated update stable once the threshold has
    decayed below the interference floor. The iteration stops once the
    sample residual falls below eps * max(1, ||retained samples||);
    refine_support then re-solves the detected support by least squares.
    Returns the reconstructed signal, the detected transform support, and
    the iteration report. Non-convergence is reported via flags, never
    raised; a non-finite retained sample, or none at all, raises ValueError.

    observed may also be a (T, n) stack with a list of T sample_times that
    all retain the same number of samples, and reference then a (T, n)
    stack; a stack that mixes sample counts raises ValueError (solve such
    rows one by one). Each row keeps its own threshold level, best iterate,
    grow streak and stopping rule, and a row that stops is frozen, so every
    row equals its own solve bit for bit. The call then returns a (T, n)
    array of signals, a list of T supports and a list of T reports; every
    report's wall_time spans the whole stack.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    stacked, observed, (sample_times, reference) = _as_stack(
        observed, {"sample_times": sample_times, "reference": reference})
    x_obs, smask, m = _retained_samples(observed, sample_times)
    n = x_obs.shape[1]

    count = len(x_obs)
    tol = eps * np.maximum(1.0, _row_norms(x_obs[smask].reshape(-1, m)))
    gain = relax * n / m  # density-compensated sample replacement
    cap = max(1, m // 2)
    coeffs = _unitary_dft(np.where(smask, x_obs, 0.0) * (n / m))
    beta = np.maximum(np.max(np.abs(coeffs), axis=1), 1e-30)[:, None]
    coeffs.fill(0.0)  # the coefficients before the first pass

    run = _LiveRows("imat", count, reference, obs=x_obs, mask=smask, x=np.zeros_like(x_obs),
                    coeffs=coeffs, tol=tol, beta=beta, best_resid=np.full(count, math.inf),
                    best_coeffs=coeffs.copy(), best_iter=np.zeros(count, dtype=int),
                    grow_streak=np.zeros(count, dtype=int), prev_resid=np.full(count, math.inf))
    for i in range(1, max_iters + 1):
        # x + gain * (...), computed in place: the stack's working set is
        # what bounds its rows
        coeffs = np.where(run.mask, run.obs - run.x, 0.0)
        coeffs *= gain
        coeffs += run.x
        coeffs = _unitary_dft(coeffs)
        keep = np.abs(coeffs) > run.beta * math.exp(-alpha * i)
        over = keep.sum(axis=1) > cap
        if over.any():
            order = np.argsort(np.abs(coeffs[over]), axis=1)[:, ::-1]
            largest = np.empty(order.shape, dtype=bool)
            largest[np.arange(order.shape[0])[:, None], order] = np.arange(n) < cap
            keep[over] = largest
        coeffs[~keep] = 0.0
        run.coeffs = coeffs
        run.x = _unitary_dft(coeffs, inverse=True)
        resid = _row_norms((run.x - run.obs)[run.mask].reshape(-1, m))
        run.record(resid, run.x)
        run.grow_streak = (run.grow_streak + 1) * (resid > run.prev_resid)
        run.prev_resid = resid
        better = resid < run.best_resid
        if better.any():
            run.best_resid = np.where(better, resid, run.best_resid)
            run.best_iter[better] = i
            np.copyto(run.best_coeffs, coeffs, where=better[:, None])
        converged = resid < run.tol
        stopped = converged | (run.grow_streak >= 3)
        if not stopped.any():
            continue
        # divergence brake: the compensated gain can blow up once the
        # threshold admits a wrong support; such a row ends on its best
        # iterate, its histories cut there
        braked = (stopped & ~converged)[:, None]
        if run.retire(stopped, np.where(braked, run.best_coeffs, coeffs), converged,
                      "residual grew for 3 iterations: kept best iterate",
                      np.where(converged, i, run.best_iter)):
            break
    finals = run.stop(run.coeffs, flag="max iterations reached without sample consistency")
    # a row's signal is the inverse transform of its final coefficients,
    # bit for bit the iterate the loop computed from them
    signals = _unitary_dft(finals, inverse=True)

    supports = []
    for row, report in enumerate(run.reports):
        support = SupportSet(detected_support(finals[row]), n)
        if refine_support and 0 < len(support) <= m:
            signals[row] = _least_squares_on_support(x_obs[row], smask[row], support)
            report.flags.append("least-squares polish on detected support")
        supports.append(support)
    return _unstack((signals, supports, run.finish()), stacked)


def _least_squares_on_support(x_obs, smask, support):
    units = np.zeros((len(support), x_obs.size), dtype=np.complex128)
    units[np.arange(len(support)), support.indices] = 1.0
    basis = np.ascontiguousarray(_unitary_dft(units, inverse=True).T)
    coefficients, *_ = np.linalg.lstsq(basis[smask], x_obs[smask], rcond=None)
    return basis @ coefficients


@dataclasses.dataclass(frozen=True)
class FriModel:
    """Stream of k Diracs: instants (sample-period units) and amplitudes."""

    instants: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.instants, dtype=np.float64).reshape(-1)
        c = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if t.size == 0 or t.size != c.size:
            raise ValueError("need matching, non-empty instants and amplitudes")
        if np.any(np.diff(t) <= 0):
            raise ValueError("instants must be strictly increasing")
        object.__setattr__(self, "instants", t)
        object.__setattr__(self, "amplitudes", c)

    @property
    def k(self):
        return self.instants.size

    def moments(self, count):
        """Power moments tau_r = sum_i c_i * t_i^r for r = 0..count-1."""
        powers = np.power.outer(self.instants, np.arange(count))
        return self.amplitudes @ powers


def fit_reproduction_coeffs(kernel_samples, grid, order):
    """Least-squares coefficients reproducing t^r, r < order, from kernel shifts.

    kernel_samples[j, g] holds the j-th integer shift of the kernel evaluated
    on grid[g]. Raises if the fitted reproduction misses 1e-8.
    """
    kernel_samples = np.asarray(kernel_samples, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    monomials = np.array([grid**r for r in range(order)])
    coeffs, *_ = np.linalg.lstsq(kernel_samples.T, monomials.T, rcond=None)
    coeffs = coeffs.T
    _check_reproduction(coeffs, kernel_samples, grid)
    return coeffs


def _check_reproduction(coeffs, kernel_samples, grid):
    """Row r of coeffs must combine the kernel shifts into grid**r to 1e-8."""
    grid = np.asarray(grid, dtype=np.float64)
    monomials = np.array([grid**r for r in range(coeffs.shape[0])])
    residual = float(np.max(np.abs(coeffs @ np.asarray(kernel_samples) - monomials)))
    if residual > 1e-8:
        raise ValueError(
            f"kernel shifts do not reproduce monomials up to order {coeffs.shape[0]}: "
            f"max residual {residual:.3e}"
        )


def fri_moments(samples, reproduction_coeffs, kernel_samples=None, grid=None):
    """Moments tau_r = sum_j alpha_{r,j} y[j] of a filtered Dirac stream.

    When kernel_samples and grid are given, the polynomial-reproduction
    property of the coefficient rows is verified to 1e-8 first.
    """
    y = as_values(samples)
    coeffs = np.asarray(reproduction_coeffs)
    if coeffs.ndim != 2 or coeffs.shape[1] != y.size:
        raise ValueError("coefficient matrix must be (moments x samples)")
    if kernel_samples is not None:
        if grid is None:
            raise ValueError("grid required to verify the reproduction property")
        _check_reproduction(coeffs, kernel_samples, grid)
    return coeffs @ y


def annihilating_recover(moments, k):
    """Recover a k-Dirac model from >= 2k power moments.

    Roots the annihilating filter of the scaled moments for the instants,
    then solves the Vandermonde system for the amplitudes. k < 1,
    coincident instants or zero amplitudes, or a non-finite moment raise
    ValueError.
    """
    tau = read_samples(np.asarray(moments, dtype=np.complex128).reshape(-1), what="moments")
    k = int(k)
    if tau.size < 2 * k:
        raise ValueError(f"need at least {2 * k} moments, got {tau.size}")

    # normalize the instant scale so high-order moments stay O(1)
    nonzero = np.abs(tau) > 0
    scale = 1.0
    if nonzero.sum() >= 2:
        top = int(np.flatnonzero(nonzero)[-1])
        base = float(np.abs(tau[0])) if tau[0] != 0 else float(np.abs(tau[nonzero][0]))
        if top > 0 and base > 0:
            scale = max((float(np.abs(tau[top])) / base) ** (1.0 / top), 1e-12)
    # the filter reads the first 2k moments only; scaling the rest can overflow
    orders = np.arange(2 * k)
    roots = polynomial_roots(_annihilating_filter(tau[orders] / scale**orders, k))
    if np.max(np.abs(roots.imag)) > 1e-6 * max(1.0, np.max(np.abs(roots))):
        raise ValueError("degenerate model: complex instants recovered")
    instants = np.sort(roots.real) * scale
    vandermonde = np.power.outer(instants, np.arange(tau.size)).T
    amplitudes, *_ = np.linalg.lstsq(vandermonde, tau, rcond=None)

    instants, amplitudes = _polish_dirac_fit(tau, instants, amplitudes)
    if np.any(np.diff(instants) <= 0):
        raise ValueError("degenerate model: coincident instants")
    return FriModel(instants=instants, amplitudes=amplitudes)


def _polish_dirac_fit(tau, instants, amplitudes, steps=8):
    """Gauss-Newton refinement of (instants, amplitudes) on the moment map.

    The Hankel solve loses digits when the instants cluster; a few damped
    Newton steps on V(t) a = tau restore close-to-machine accuracy. Steps
    that fail to reduce the residual are rejected via halving.
    """
    orders = np.arange(tau.size)
    t = instants.astype(np.float64).copy()
    a = amplitudes.astype(np.complex128).copy()
    k = t.size

    def residual(tv, av):
        return np.power.outer(tv, orders).T @ av - tau

    best_norm = float(np.linalg.norm(residual(t, a)))
    for _ in range(steps):
        if best_norm == 0.0:
            break
        vand = np.power.outer(t, orders).T
        dvand = np.zeros_like(vand)
        dvand[1:] = orders[1:, None] * np.power.outer(t, orders[:-1]).T
        res = vand @ a - tau
        jac = np.hstack([dvand * a[None, :], vand, 1j * vand])
        jac_real = np.vstack([jac.real, jac.imag])
        res_real = np.concatenate([res.real, res.imag])
        delta, *_ = np.linalg.lstsq(jac_real, -res_real, rcond=None)
        step = 1.0
        improved = False
        for _ in range(20):
            t_new = t + step * delta[:k]
            a_new = a + step * (delta[k : 2 * k] + 1j * delta[2 * k :])
            norm_new = float(np.linalg.norm(residual(t_new, a_new)))
            if norm_new < best_norm:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        t, a, best_norm = t_new, a_new, norm_new
    order = np.argsort(t)
    return t[order], a[order]
