"""Uniform-linear-array modeling, MDL source enumeration, sparse layouts.

Snapshot simulation follows x = A s + nu with circular Gaussian sources and
noise; enumeration minimizes the code-length criterion built from the
sphericity ratio of the noise-subspace eigenvalues. Layout analysis works
through the aperture smoothing function W(u).
"""

import dataclasses
import itertools
import math

import numpy as np

from .core import NumericError, write_csv, _stack_row
from .spectral import CovarianceEstimate, _hermitian_product


@dataclasses.dataclass(frozen=True)
class UlaScenario:
    """k far-field sources impinging on an n-element half-wavelength-grid ULA."""

    sensors: int
    spacing: float  # d / lambda
    doas: np.ndarray  # radians
    source_cov: np.ndarray  # k x k PSD
    noise_var: float
    snapshots: int
    # set once here, read by every simulate_snapshots call: the n x k steering
    # matrix and the Cholesky factor of source_cov (ridged by 1e-15 of its trace)
    steering: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    source_chol: np.ndarray = dataclasses.field(init=False, repr=False, compare=False,
                                                default=None)

    def __post_init__(self):
        doas = np.atleast_1d(np.asarray(self.doas, dtype=np.float64))
        cov = np.atleast_2d(np.asarray(self.source_cov, dtype=np.complex128))
        if self.spacing <= 0 or self.spacing > 0.5:
            raise ValueError("element spacing d/lambda must lie in (0, 1/2]")
        if np.any(np.abs(doas) >= np.pi / 2):
            raise ValueError("DOAs must satisfy |phi| < pi/2")
        if doas.size >= self.sensors:
            raise ValueError("need fewer sources than sensors")
        if doas.size and cov.shape != (doas.size, doas.size):
            raise ValueError("source covariance must be k x k")
        if doas.size and np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))[0] < -1e-10:
            raise ValueError("source covariance must be PSD")
        if self.noise_var < 0:
            raise ValueError("noise variance must be non-negative")
        object.__setattr__(self, "doas", doas)
        object.__setattr__(self, "source_cov", cov)
        # a(phi)_j = exp(2pi j * (d/lambda) * j * sin(phi)), one column per source
        sensors = np.arange(self.sensors)[:, None]
        object.__setattr__(self, "steering",
                           np.exp(2j * np.pi * self.spacing * sensors * np.sin(doas)[None, :]))
        if np.any(cov):  # an all-zero source covariance is its own factor
            object.__setattr__(self, "source_chol", np.linalg.cholesky(
                cov + 1e-15 * np.trace(cov).real * np.eye(doas.size)))
        elif doas.size:
            object.__setattr__(self, "source_chol", cov)

    @property
    def k(self):
        return self.doas.size

    def theory_covariance(self):
        a = self.steering
        r = a @ self.source_cov @ a.conj().T + self.noise_var * np.eye(self.sensors)
        return CovarianceEstimate(matrix=r, snapshots=self.snapshots)


def simulate_snapshots(scenario, rng):
    """Draw an n x m snapshot matrix of the scenario's observation model."""
    n, m, k = scenario.sensors, scenario.snapshots, scenario.k
    noise = rng.complex_normal((n, m), scale=math.sqrt(scenario.noise_var))
    if k == 0:
        return noise
    sources = scenario.source_chol @ rng.complex_normal((k, m))
    return scenario.steering @ sources + noise


def snapshot_covariance(snapshots):
    """Covariance estimate x x^H / m of an n x m snapshot array x.

    snapshots may instead be an iterable of T such arrays (a generator, say)
    with one snapshot count: each product is formed as its array is read,
    and the (T, n, n) stack of products is estimated at once, so the
    snapshot arrays are never held together.
    """
    if isinstance(snapshots, np.ndarray) and snapshots.ndim == 2:
        matrix, m = _hermitian_product(snapshots)
        return CovarianceEstimate(matrix=matrix, snapshots=m)
    matrices, counts = zip(*map(_hermitian_product, snapshots))
    if len(set(counts)) != 1:
        raise ValueError("stacked snapshot arrays must share their snapshot count")
    return CovarianceEstimate(matrix=np.array(matrices), snapshots=counts[0])


@dataclasses.dataclass(frozen=True)
class MdlReport:
    """estimated_k is an int and criteria an (n,) array per candidate k =
    0..n-1; for a stack of T covariances they gain a leading T axis. The
    free-parameter counts kappa(k) depend on n alone."""

    estimated_k: object  # int, or (T,) ints
    criteria: np.ndarray
    free_params: np.ndarray

    def to_csv(self, path):
        """One row per candidate k; a single covariance's report only."""
        if self.criteria.ndim != 1:
            raise ValueError("to_csv writes the report of a single covariance")
        write_csv(path, ["k", "criterion", "kappa"],
                  zip(range(self.criteria.size), self.criteria, self.free_params))


def free_parameter_count(n, k):
    """1 + k eigenvalues + sigma^2, plus 2(n-i) per constrained eigenvector."""
    return 1 + k + sum(2 * (n - i) for i in range(1, k + 1))


def mdl_enumerate(covariance):
    """Source count by minimum description length over k = 0..n-1.

    Criterion: m (n-k) log(arith/geom mean of the n-k smallest eigenvalues)
    plus half the free-parameter count times log m, the constant '+1'
    dropped. The maximum-likelihood trace identity tr(R_ML^-1 R_hat) = n is
    recomputed as an internal self-test at the winning k. A stacked
    covariance (see CovarianceEstimate) is enumerated matrix by matrix, each
    row equal to its own enumeration; a failing self-test names its row.
    """
    n = covariance.dimension
    m = covariance.snapshots
    if m < 2:
        raise ValueError("need the snapshot count recorded in the covariance")
    eigvals = np.clip(covariance.eigvals, 1e-300, None)

    ariths = np.empty(eigvals.shape)
    criteria = np.empty(eigvals.shape)
    kappas = np.empty(n, dtype=int)
    for k in range(n):
        tail = eigvals[..., k:]
        ariths[..., k] = np.mean(tail, axis=-1)
        geom = np.exp(np.mean(np.log(tail), axis=-1))
        ratio = np.maximum(ariths[..., k] / geom, 1.0)
        # math.log, not np.log: the two can differ in the last bit
        log_ratio = np.reshape([math.log(value) for value in ratio.flat], ratio.shape)
        kappa = free_parameter_count(n, k) - 1
        kappas[k] = kappa
        criteria[..., k] = m * (n - k) * log_ratio + 0.5 * kappa * math.log(m)
    k_hat = np.argmin(criteria, axis=-1)

    _check_ml_trace_identity(eigvals, covariance.eigvecs, covariance.matrix, k_hat,
                             np.take_along_axis(ariths, k_hat[..., None], axis=-1))
    estimated_k = int(k_hat) if k_hat.ndim == 0 else k_hat
    return MdlReport(estimated_k=estimated_k, criteria=criteria, free_params=kappas)


def _check_ml_trace_identity(eigvals, eigvecs, sample_cov, k, sigma2):
    """tr(R_ML^-1 R_hat) must equal the dimension exactly; R_ML keeps the k
    largest eigenvalues and replaces the rest by their mean sigma2."""
    n = eigvals.shape[-1]
    signal = np.arange(n) < np.expand_dims(k, -1)
    inv_vals = np.where(signal, 1.0 / eigvals, 1.0 / sigma2)
    r_ml_inv = (eigvecs * inv_vals[..., None, :]) @ eigvecs.conj().swapaxes(-2, -1)
    values = np.trace(r_ml_inv @ sample_cov, axis1=-2, axis2=-1).real
    violated = np.abs(values - n) > 1e-8 * n
    if np.any(violated):
        value = values[np.flatnonzero(violated)[0]] if violated.ndim else values
        raise NumericError(f"ML trace identity violated{_stack_row(violated)}: {value} != {n}")


@dataclasses.dataclass(frozen=True)
class ArrayLayout:
    """Element positions (units of the grid pitch d) with per-element weights."""

    positions: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=np.float64))
        if pos.size == 0 or np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be non-empty and strictly increasing")
        w = self.weights
        w = np.ones(pos.size) if w is None else np.asarray(w, dtype=np.float64)
        if w.shape != pos.shape or not np.all(np.isfinite(w)):
            raise ValueError("weights must match positions and be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def aperture(self):
        return float(self.positions[-1] - self.positions[0])


def aperture_pattern(layout, d_over_lambda, u_grid):
    """W(u) = sum_i w_i exp(-2pi j pos_i (d/lambda) u) on u = sin(azimuth)."""
    u = np.asarray(u_grid, dtype=np.float64)
    if np.any(np.abs(u) > 1.0):
        raise ValueError("u grid must lie within [-1, 1]")
    phases = np.exp(-2j * np.pi * d_over_lambda * np.outer(layout.positions, u))
    return layout.weights @ phases


def pattern_to_csv(path, u_grid, pattern):
    """Write u, |W(u)| in dB rows for plotting."""
    magnitude = np.maximum(np.abs(np.asarray(pattern)), 1e-300)
    u = np.asarray(u_grid, dtype=np.float64)
    write_csv(path, ["u", "pattern_db"], zip(u, 20.0 * np.log10(magnitude)))


def dirichlet_pattern(n, d_over_lambda, u_grid):
    """Closed form |W| of the full n-element unit-weight grid array."""
    u = np.asarray(u_grid, dtype=np.float64)
    x = np.pi * d_over_lambda * u
    num = np.sin(n * x)
    den = np.sin(x)
    out = np.where(np.abs(den) < 1e-15, float(n), np.abs(np.divide(
        num, np.where(np.abs(den) < 1e-15, 1.0, den))))
    return out


THINNING_SPACING = 0.5  # d / lambda of the grid that thinnings are drawn from


def _mainlobe_halfwidth(n):
    """First-null heuristic lambda / L, L the full aperture, capped at 0.5;
    a grid of fewer than two slots has no aperture and raises ValueError."""
    if n < 2:
        raise ValueError(f"need at least 2 grid slots, got n = {n}")
    return min(1.0 / ((n - 1) * THINNING_SPACING), 0.5)


def _sidelobe_metrics(layout, u_grid, mainlobe_halfwidth):
    pattern = np.abs(aperture_pattern(layout, THINNING_SPACING, u_grid)) ** 2
    peak = float(layout.weights.sum()) ** 2
    side = np.abs(u_grid) > mainlobe_halfwidth
    if not np.any(side):
        raise ValueError("mainlobe cap leaves no sidelobe region on the grid")
    return {
        "mean_ratio": float(np.mean(pattern[side]) / peak),
        "peak_ratio": float(np.max(pattern[side]) / peak),
        "energy": float(np.sum(pattern[side])),
    }


def _draw_thinning(n, k, rng, positions, binned):
    if binned:
        # one element per equal-width bin; continuous draws cannot collide
        edges = np.linspace(0.0, n - 1.0, k + 1)
        if positions == "continuous":
            return np.array([rng.uniform(a, b) for a, b in zip(edges[:-1], edges[1:])])
        pos = np.unique([int(rng.integers(int(a), max(int(b), int(a) + 1)))
                         for a, b in zip(edges[:-1], edges[1:])])
        while pos.size < k:  # grid collisions at bin edges: refill uniformly
            extra = rng.choice(np.setdiff1d(np.arange(n), pos), size=k - pos.size,
                               replace=False)
            pos = np.unique(np.concatenate([pos, extra]))
        return pos.astype(float)
    if positions == "continuous":
        pos = np.sort(rng.uniform(0.0, n - 1.0, k))
        while k > 1 and np.min(np.diff(pos)) <= 0:
            pos = np.sort(rng.uniform(0.0, n - 1.0, k))
        return pos
    return np.sort(rng.choice(n, size=k, replace=False)).astype(float)


def thinned_array_stats(n, k, trials, rng, grid_points=1024, binned=False,
                        positions="grid"):
    """Monte-Carlo sidelobe statistics of random k-element thinnings of an
    n-slot half-wavelength grid.

    positions="grid" keeps k of the n grid slots (the mean ratio then
    carries the finite-population factor 1 - (k-1)/(n-1)); "continuous"
    draws k independent positions over the same aperture, the model behind
    the 1/k average-sidelobe law and the sqrt(k ln k) peak heuristic.
    Mainlobe is the first-null heuristic |u| <= lambda/L with L the full
    aperture. Returns (mean sidelobe-to-mainlobe power ratio, per-trial
    peak sidelobe amplitudes).
    """
    if k > n or trials < 1:
        raise ValueError("need k <= n and at least one trial")
    if positions not in ("grid", "continuous"):
        raise ValueError("positions must be 'grid' or 'continuous'")
    u_grid = np.linspace(-1.0, 1.0, grid_points)
    halfwidth = _mainlobe_halfwidth(n)
    mean_ratios = np.empty(trials)
    peak_amplitudes = np.empty(trials)
    for t in range(trials):
        pos = _draw_thinning(n, k, rng, positions, binned)
        layout = ArrayLayout(positions=pos) if pos.size > 1 else ArrayLayout([0.0])
        metrics = _sidelobe_metrics(layout, u_grid, halfwidth)
        mean_ratios[t] = metrics["mean_ratio"]
        peak_amplitudes[t] = math.sqrt(metrics["peak_ratio"]) * k
    return float(np.mean(mean_ratios)), peak_amplitudes


def layout_search_exhaustive(n, k, objective="peak-sidelobe", grid_points=512,
                             budget=10**6):
    """Enumerate every k-of-n thinning of a half-wavelength grid and return
    the best layout.

    objective is the peak sidelobe ratio or total sidelobe energy outside
    the mainlobe cap. Deterministic (first optimum wins), so it can serve
    as the oracle for any heuristic search. Refuses when C(n, k) exceeds
    the budget.
    """
    if objective not in ("peak-sidelobe", "sidelobe-energy"):
        raise ValueError("objective must be peak-sidelobe or sidelobe-energy")
    count = math.comb(n, k)
    if count > budget:
        raise ValueError(f"C({n},{k}) = {count} exceeds the enumeration budget {budget}")
    u_grid = np.linspace(-1.0, 1.0, grid_points)
    halfwidth = _mainlobe_halfwidth(n)
    side = np.abs(u_grid) > halfwidth
    basis = np.exp(-2j * np.pi * THINNING_SPACING * np.outer(np.arange(n), u_grid))

    best_value = math.inf
    best_positions = None
    combos = itertools.combinations(range(n), k)
    while chunk := list(itertools.islice(combos, 2048)):
        power = np.abs(basis[np.array(chunk)].sum(axis=1)[:, side]) ** 2 / k**2
        values = power.max(axis=1) if objective == "peak-sidelobe" else power.sum(axis=1) * k**2
        arg = int(np.argmin(values))
        if values[arg] < best_value:
            best_value, best_positions = float(values[arg]), chunk[arg]

    layout = ArrayLayout(positions=np.array(best_positions, dtype=float))
    metrics = _sidelobe_metrics(layout, u_grid, halfwidth)
    return layout, metrics
