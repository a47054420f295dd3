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
    SolverReport,
    SupportSet,
    as_values,
    detected_support,
    dft,
    polynomial_roots,
    read_samples,
    snr_db,
)

_MASK_KINDS = ("frequency-support", "time-sample")


@dataclasses.dataclass(frozen=True)
class MaskSpec:
    """0/1 mask over an ambient length, in time or in the sparsity domain."""

    kind: str
    support: SupportSet

    def __post_init__(self):
        if self.kind not in _MASK_KINDS:
            raise ValueError(f"kind must be one of {_MASK_KINDS}")

    @property
    def n(self):
        return self.support.n

    def bool_mask(self):
        return self.support.mask()


@dataclasses.dataclass(frozen=True)
class IterationConfig:
    max_iters: int = 500
    relax: float = 1.0
    eps: float = 1e-10
    frame_bounds: tuple = None  # (A, B), acceleration only

    def __post_init__(self):
        if not 0.0 < self.relax < 2.0:
            raise ValueError("relaxation must lie in (0, 2)")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.frame_bounds is not None:
            a, b = self.frame_bounds
            if a <= 0 or b < a:
                raise ValueError("frame bounds must satisfy 0 < A <= B")


@dataclasses.dataclass(frozen=True)
class ImatConfig:
    """Exponentially decaying threshold beta*exp(-alpha*i), i = 1, 2, ...

    beta is the peak magnitude of the first density-compensated transform
    (floored at 1e-30). At most half the sample count of transform
    coefficients survive a thresholding pass: that full-capacity bound
    keeps the density-compensated update stable once the threshold has
    decayed below the interference floor.
    """

    alpha: float = 0.3
    max_iters: int = 100
    relax: float = 1.0
    eps: float = 1e-12
    refine_support: bool = False  # least-squares polish on the detected support

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def _masked_system(observed, sample_mask, sparsity_mask):
    """Checked samples and masks, and the density-compensated masked operator.

    apply_ps(z) keeps the retained time samples of z, scales them by n/m so
    a uniform Nyquist sampling is recovered in one projection, and projects
    onto the frequency support. Erased samples read as zero; a non-finite
    retained one raises ValueError. Returns (x_obs, smask, apply_ps,
    apply_ps(x_obs)).
    """
    x_obs = as_values(observed)
    n = x_obs.size
    if sample_mask.n != n or sparsity_mask.n != n:
        raise ValueError("mask ambient lengths must match the signal length")
    if sample_mask.kind != "time-sample" or sparsity_mask.kind != "frequency-support":
        raise ValueError("expected a time-sample mask and a frequency-support mask")
    m = len(sample_mask.support)
    t = len(sparsity_mask.support)
    if t > m:
        raise ValueError(
            f"infeasible masks: {t} sparse coefficients but only {m} samples"
        )
    smask = sample_mask.bool_mask()
    x_obs = read_samples(x_obs, ~smask)
    outside = ~sparsity_mask.bool_mask()
    comp = n / smask.sum()

    def apply_ps(z):
        spectrum = np.fft.fft(np.where(smask, z, 0.0) * comp) / math.sqrt(n)
        spectrum[outside] = 0.0
        return np.fft.ifft(spectrum) * math.sqrt(n)

    return x_obs, smask, apply_ps, apply_ps(x_obs)


def _record_snr(report, reference, estimate):
    """Append the SNR of estimate against reference, when one was given."""
    if reference is not None:
        report.snrs.append(snr_db(reference, estimate))


def _masked_operator_matrix(sample_mask, sparsity_mask):
    """Dense matrix of the compensated PS operator on the support coefficients."""
    n = sample_mask.n
    times = np.flatnonzero(sample_mask.bool_mask())
    freqs = sparsity_mask.support.indices
    basis = np.exp(2j * np.pi * np.outer(times, freqs) / n) / math.sqrt(n)
    return (n / times.size) * (basis.conj().T @ basis)


def estimate_frame_bounds(sample_mask, sparsity_mask):
    """Frame bounds (A, B) of the masked reconstruction operator."""
    eigvals = np.linalg.eigvalsh(_masked_operator_matrix(sample_mask, sparsity_mask))
    return float(max(eigvals[0], 1e-15)), float(eigvals[-1])


def iterative_reconstruct(observed, sample_mask, sparsity_mask, cfg=None, reference=None):
    """Alternating projections between sample data and transform support.

    Runs x <- x + relax * P(S(observed) - S(x)) where S keeps the retained
    time samples (density-compensated by n/m so a uniform Nyquist sampling
    converges in one projection) and P projects onto the known frequency
    support. Returns the estimate and a per-iteration report; divergence
    (three consecutive residual increases) is flagged, not fatal.
    """
    cfg = cfg or IterationConfig()
    x_obs, smask, apply_ps, b = _masked_system(observed, sample_mask, sparsity_mask)

    report = SolverReport(solver="iterative")
    x = np.zeros(x_obs.size, dtype=np.complex128)
    diverged = False
    grow_streak = 0
    prev_resid = math.inf
    for _ in range(cfg.max_iters):
        x_new = x + cfg.relax * (b - apply_ps(x))
        resid = float(np.linalg.norm((x_new - x_obs)[smask]))
        report.iterations += 1
        report.residuals.append(resid)
        _record_snr(report, reference, x_new)
        grow_streak = grow_streak + 1 if resid > prev_resid else 0
        if grow_streak >= 3 and not diverged:
            diverged = True
            report.flags.append("residual grew for 3 consecutive iterations")
        prev_resid = resid
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if step < cfg.eps:
            report.converged = True
            break
        if not math.isfinite(resid) or resid > 1e100:
            report.flags.append("iterate overflowed; stopping")
            break
    return x, report.finish()


def chebyshev_accelerate(observed, sample_mask, sparsity_mask, cfg=None, reference=None):
    """Two-term Chebyshev acceleration of the masked iteration.

    Uses the recursion lambda_n = (1 - rho^2 * lambda_{n-1} / 4)^-1 with
    rho = (B - A)/(B + A). Frame bounds come from cfg.frame_bounds, or are
    measured from the masked operator when absent. Same fixed point as
    iterative_reconstruct.
    """
    cfg = cfg or IterationConfig()
    x_obs, smask, apply_ps, b = _masked_system(observed, sample_mask, sparsity_mask)
    if cfg.frame_bounds is not None:
        bound_a, bound_b = cfg.frame_bounds
    else:
        bound_a, bound_b = estimate_frame_bounds(sample_mask, sparsity_mask)
    rho = (bound_b - bound_a) / (bound_b + bound_a)
    gain = 2.0 / (bound_a + bound_b)

    report = SolverReport(solver="chebyshev")
    lam = 2.0
    x_prev = np.zeros(x_obs.size, dtype=np.complex128)
    x_cur = gain * b
    report.iterations = 1
    report.residuals.append(float(np.linalg.norm((x_cur - x_obs)[smask])))
    _record_snr(report, reference, x_cur)
    for _ in range(cfg.max_iters - 1):
        lam = 1.0 / (1.0 - 0.25 * rho * rho * lam)
        x_next = x_prev + lam * (x_cur - x_prev + gain * (b - apply_ps(x_cur)))
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm((x_next - x_obs)[smask])))
        _record_snr(report, reference, x_next)
        step = float(np.linalg.norm(x_next - x_cur))
        x_prev, x_cur = x_cur, x_next
        if step < cfg.eps:
            report.converged = True
            break
    return x_cur, report.finish()


def conjugate_gradient(apply_op, rhs, max_iters=500, eps=1e-12, reference=None):
    """CG recursion for a self-adjoint PSD operator given as a callable.

    Terminates on ||r|| < eps, iteration budget, or breakdown of the
    curvature inner product (flagged; best iterate returned).
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = rhs.copy()
    rhs_scale = float(np.linalg.norm(rhs))
    report = SolverReport(solver="cg")
    for _ in range(max_iters):
        if np.linalg.norm(r) < eps * max(rhs_scale, 1.0):
            report.converged = True
            break
        op_p = apply_op(p)
        denom = np.vdot(p, op_p)
        if abs(denom) <= 1e-300:
            report.flags.append("curvature inner product vanished")
            break
        lam = np.vdot(p, r) / denom
        x = x + lam * p
        r = r - lam * op_p
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm(r)))
        _record_snr(report, reference, x)
        lam_prime = np.vdot(op_p, r) / denom
        p = r - lam_prime * p
    else:
        report.converged = report.residuals[-1] < eps * max(rhs_scale, 1.0)
    return x, report.finish()


def cg_accelerate(observed, sample_mask, sparsity_mask, cfg=None, reference=None):
    """Conjugate-gradient solve of the masked reconstruction problem."""
    cfg = cfg or IterationConfig()
    _, _, apply_ps, b = _masked_system(observed, sample_mask, sparsity_mask)
    return conjugate_gradient(
        apply_ps, b, max_iters=cfg.max_iters, eps=cfg.eps, reference=reference
    )


def _to_sparse_domain(z, transform):
    n = z.size
    if transform == "dft":
        return np.fft.fft(z) / math.sqrt(n)
    if transform == "dct":
        import scipy.fft  # lazy: scipy brings a second BLAS, and only the DCT needs it
        return scipy.fft.dct(z, norm="ortho")
    raise ValueError(f"unknown transform {transform!r}")


def _from_sparse_domain(coeffs, transform):
    """Inverse transform along the last axis."""
    if transform == "dft":
        return np.fft.ifft(coeffs) * math.sqrt(coeffs.shape[-1])
    import scipy.fft
    return scipy.fft.idct(coeffs, norm="ortho")


def imat(observed, sample_mask, transform="dft", cfg=None, reference=None):
    """Iterative method with adaptive hard thresholding, support unknown.

    Alternates replacement of the known time samples with hard thresholding
    of the transform at the decaying level beta*exp(-alpha*i). Returns the
    reconstructed signal, the detected transform support, and the iteration
    report. Non-convergence is reported via flags, never raised; a
    non-finite retained sample raises ValueError.
    """
    cfg = cfg or ImatConfig()
    x_obs = as_values(observed)
    n = x_obs.size
    if sample_mask.n != n:
        raise ValueError("mask ambient length must match the signal")
    smask = sample_mask.bool_mask()
    x_obs = read_samples(x_obs, ~smask)
    if transform == "dct":
        x_obs = x_obs.real.astype(np.float64)

    report = SolverReport(solver="imat")

    m = int(smask.sum())
    gain = cfg.relax * n / m  # density-compensated sample replacement
    cap = max(1, m // 2)
    first = _to_sparse_domain(np.where(smask, x_obs, 0.0) * (n / m), transform)
    beta = max(float(np.max(np.abs(first))), 1e-30)

    x = np.zeros_like(x_obs)
    coeffs = np.zeros_like(_to_sparse_domain(x, transform))
    best = (math.inf, x, coeffs, 0)
    grow_streak = 0
    prev_resid = math.inf
    for i in range(1, cfg.max_iters + 1):
        filled = x + gain * np.where(smask, x_obs - x, 0.0)
        coeffs = _to_sparse_domain(filled, transform)
        threshold = beta * math.exp(-cfg.alpha * i)
        magnitudes = np.abs(coeffs)
        keep = magnitudes > threshold
        if keep.sum() > cap:
            order = np.argsort(magnitudes)[::-1]
            keep = np.zeros(n, dtype=bool)
            keep[order[:cap]] = True
        coeffs[~keep] = 0.0
        x = _from_sparse_domain(coeffs, transform)
        resid = float(np.linalg.norm((x - x_obs)[smask]))
        report.iterations += 1
        report.residuals.append(resid)
        _record_snr(report, reference, x)
        grow_streak = grow_streak + 1 if resid > prev_resid else 0
        prev_resid = resid
        if resid < best[0]:
            best = (resid, x, coeffs, report.iterations)
        if resid < cfg.eps * max(1.0, float(np.linalg.norm(x_obs[smask]))):
            report.converged = True
            break
        if grow_streak >= 3:
            # divergence brake: the compensated gain can blow up once the
            # threshold admits a wrong support; return the best iterate
            report.flags.append("residual grew for 3 iterations: kept best iterate")
            _, x, coeffs, kept = best
            del report.residuals[kept:], report.snrs[kept:]
            report.iterations = kept
            break
    else:
        report.flags.append("max iterations reached without sample consistency")

    support = SupportSet(detected_support(coeffs), n)

    if cfg.refine_support and len(support) > 0 and len(support) <= smask.sum():
        x = _least_squares_on_support(x_obs, smask, support, transform)
        report.flags.append("least-squares polish on detected support")

    return x, support, report.finish()


def _least_squares_on_support(x_obs, smask, support, transform):
    units = np.zeros((len(support), x_obs.size), dtype=np.complex128)
    units[np.arange(len(support)), support.indices] = 1.0
    basis = np.ascontiguousarray(_from_sparse_domain(units, transform).T)
    coefficients, *_ = np.linalg.lstsq(basis[smask], x_obs[smask], rcond=None)
    rebuilt = basis @ coefficients
    return rebuilt if transform == "dft" else rebuilt.real


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

    def rate_of_innovation(self, window):
        return 2.0 * self.k / window

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

    Solves the k x k Hankel system for the annihilating-filter coefficients,
    roots the locator polynomial for the instants, then solves the
    Vandermonde system for the amplitudes.
    """
    tau = np.asarray(moments, dtype=np.complex128).reshape(-1)
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
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
    tau_s = tau / scale ** np.arange(tau.size)

    hankel = np.empty((k, k), dtype=np.complex128)
    for r in range(k):
        hankel[r] = tau_s[r : r + k]
    rhs = -tau_s[k : 2 * k]
    if np.linalg.cond(hankel) > 1e13:
        raise ValueError("degenerate model: coincident instants or zero amplitudes")
    h = np.linalg.solve(hankel, rhs)

    # monic locator: z^k + h[k-1] z^(k-1) + ... + h[0]
    poly = np.concatenate(([1.0 + 0j], h[::-1]))
    roots = polynomial_roots(poly)
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
