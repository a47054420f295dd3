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

from .core import NumericError, write_csv
from .spectral import CovarianceEstimate


@dataclasses.dataclass(frozen=True)
class UlaScenario:
    """k far-field sources impinging on an n-element half-wavelength-grid ULA."""

    sensors: int
    spacing: float  # d / lambda
    doas: np.ndarray  # radians
    source_cov: np.ndarray  # k x k PSD
    noise_var: float
    snapshots: int

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

    @property
    def k(self):
        return self.doas.size

    def steering_matrix(self):
        """a(phi)_j = exp(2pi j * (d/lambda) * j * sin(phi)), columns per source."""
        sensors = np.arange(self.sensors)[:, None]
        return np.exp(2j * np.pi * self.spacing * sensors * np.sin(self.doas)[None, :])

    def theory_covariance(self):
        a = self.steering_matrix()
        r = a @ self.source_cov @ a.conj().T + self.noise_var * np.eye(self.sensors)
        return CovarianceEstimate(matrix=r, snapshots=self.snapshots)


def simulate_snapshots(scenario, rng):
    """Draw an n x m snapshot matrix of the scenario's observation model."""
    n, m, k = scenario.sensors, scenario.snapshots, scenario.k
    noise = rng.complex_normal((n, m), scale=math.sqrt(scenario.noise_var))
    if k == 0:
        return noise
    chol = np.linalg.cholesky(
        scenario.source_cov + 1e-15 * np.trace(scenario.source_cov).real * np.eye(k)
    )
    sources = chol @ rng.complex_normal((k, m))
    return scenario.steering_matrix() @ sources + noise


def snapshot_covariance(snapshots):
    x = np.asarray(snapshots)
    m = x.shape[1]
    r = (x @ x.conj().T) / m
    return CovarianceEstimate(matrix=0.5 * (r + r.conj().T), snapshots=m)


@dataclasses.dataclass(frozen=True)
class MdlReport:
    estimated_k: int
    criteria: np.ndarray  # value per candidate k = 0..n-1
    free_params: np.ndarray  # kappa(k) per candidate

    def to_csv(self, path):
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
    recomputed as an internal self-test at the winning k.
    """
    r = covariance.matrix
    n = covariance.dimension
    m = covariance.snapshots
    if m < 2:
        raise ValueError("need the snapshot count recorded in the covariance")
    eigvals = np.clip(covariance.eigvals, 1e-300, None)

    criteria = np.empty(n)
    kappas = np.empty(n, dtype=int)
    for k in range(n):
        tail = eigvals[k:]
        arith = float(np.mean(tail))
        geom = float(np.exp(np.mean(np.log(tail))))
        sphericity = m * (n - k) * math.log(max(arith / geom, 1.0))
        kappa = free_parameter_count(n, k) - 1
        kappas[k] = kappa
        criteria[k] = sphericity + 0.5 * kappa * math.log(m)
    k_hat = int(np.argmin(criteria))

    _check_ml_trace_identity(eigvals, covariance.eigvecs, r, k_hat)
    return MdlReport(estimated_k=k_hat, criteria=criteria, free_params=kappas)


def _check_ml_trace_identity(eigvals, eigvecs, sample_cov, k):
    """tr(R_ML^-1 R_hat) must equal the dimension exactly."""
    n = eigvals.size
    sigma2 = float(np.mean(eigvals[k:]))
    inv_vals = np.concatenate([1.0 / eigvals[:k], np.full(n - k, 1.0 / sigma2)])
    r_ml_inv = (eigvecs * inv_vals[None, :]) @ eigvecs.conj().T
    value = float(np.trace(r_ml_inv @ sample_cov).real)
    if abs(value - n) > 1e-8 * n:
        raise NumericError(f"ML trace identity violated: {value} != {n}")


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
    """First-null heuristic lambda / L, L the full aperture, capped at 0.5."""
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

    key = "peak_ratio" if objective == "peak-sidelobe" else "energy"
    best_value = math.inf
    best_positions = None
    chunk = []
    for combo in itertools.combinations(range(n), k):
        chunk.append(combo)
        if len(chunk) == 2048:
            best_value, best_positions = _scan_chunk(
                chunk, basis, side, k, key, best_value, best_positions)
            chunk = []
    if chunk:
        best_value, best_positions = _scan_chunk(
            chunk, basis, side, k, key, best_value, best_positions)

    layout = ArrayLayout(positions=np.array(best_positions, dtype=float))
    metrics = _sidelobe_metrics(layout, u_grid, halfwidth)
    return layout, metrics


def _scan_chunk(chunk, basis, side, k, key, best_value, best_positions):
    idx = np.array(chunk)
    patterns = basis[idx].sum(axis=1)  # (batch, grid)
    power = np.abs(patterns[:, side]) ** 2 / k**2
    values = power.max(axis=1) if key == "peak_ratio" else power.sum(axis=1) * k**2
    arg = int(np.argmin(values))
    if values[arg] < best_value:
        return float(values[arg]), chunk[arg]
    return best_value, best_positions
