"""Sparse-component-analysis solvers for underdetermined linear systems.

MP/OMP (greedy), basis pursuit (l1 via an in-module simplex), FOCUSS
(reweighted pseudo-inverse), IDE (alternating detection/estimation), and
SL0 (smoothed-l0 steepest ascent with feasibility projection), plus RIP
enumeration, the Bernoulli-Gaussian benchmark generator, and union-of-
subspaces modeling.
"""

import dataclasses
import itertools
import math
import time

import numpy as np

from .core import SolverReport

ZERO_TOL = 1e-6  # support = |s_i| > ZERO_TOL * max|s|, uniform across solvers


@dataclasses.dataclass(frozen=True)
class SparseProblem:
    """x = A s (+ noise) with A of size m x n, m <= n."""

    mixing: np.ndarray
    observation: np.ndarray
    noise_level: float = 0.0
    true_source: np.ndarray = None

    def __post_init__(self):
        a = np.asarray(self.mixing, dtype=np.float64)
        x = np.asarray(self.observation, dtype=np.float64).reshape(-1)
        if a.ndim != 2 or a.shape[0] != x.size:
            raise ValueError("mixing matrix rows must match the observation length")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(x)):
            raise ValueError("entries must be finite")
        if np.any(np.linalg.norm(a, axis=0) == 0):
            raise ValueError("mixing matrix columns must be nonzero")
        object.__setattr__(self, "mixing", a)
        object.__setattr__(self, "observation", x)

    @property
    def shape(self):
        return self.mixing.shape


def detected_support(estimate, tol=ZERO_TOL):
    mags = np.abs(estimate)
    peak = mags.max() if mags.size else 0.0
    if peak == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mags > tol * peak)


def _finish(report, estimate):
    report.support = detected_support(estimate)
    return report.finish(estimate)


def matching_pursuit(problem, k_max=None, residual_tol=1e-10, orthogonal=False):
    """Greedy atom selection; the OMP variant re-solves least squares on the
    accumulated support each step.

    Selection correlates against unit-normalized columns even when the
    mixing matrix is not normalized; reported amplitudes stay in the
    original column scale.
    """
    a, x = problem.mixing, problem.observation
    m, n = a.shape
    k_max = k_max if k_max is not None else m
    norms = np.linalg.norm(a, axis=0)
    unit = a / norms

    report = SolverReport(
        solver="omp" if orthogonal else "mp",
        params={"k_max": k_max, "residual_tol": residual_tol},
    )
    s = np.zeros(n)
    residual = x.copy()
    chosen = []
    x_scale = max(float(np.linalg.norm(x)), 1e-300)
    while len(set(chosen)) < k_max:
        if np.linalg.norm(residual) <= residual_tol * x_scale:
            report.converged = True
            break
        correlations = unit.T @ residual
        atom = int(np.argmax(np.abs(correlations)))
        chosen.append(atom)
        if orthogonal:
            support = sorted(set(chosen))
            coef, *_ = np.linalg.lstsq(a[:, support], x, rcond=None)
            s = np.zeros(n)
            s[support] = coef
        else:
            s[atom] += correlations[atom] / norms[atom]
        residual = x - a @ s
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm(residual)))
    else:
        report.converged = report.residuals[-1] <= residual_tol * x_scale
    return s, _finish(report, s)


class SimplexResult:
    def __init__(self, solution, objective, basis, iterations):
        self.solution = solution
        self.objective = objective
        self.basis = basis
        self.iterations = iterations


def _refactor(e, b, c, basis):
    b_mat = e[:, basis]
    tableau = np.linalg.solve(b_mat, e)
    rhs = np.linalg.solve(b_mat, b)
    cost_row = c - c[basis] @ tableau
    cost_row[basis] = 0.0
    return tableau, np.maximum(rhs, 0.0), cost_row


def _simplex_phase(e, b, c, basis, max_pivots, tol=1e-9):
    """Tableau pivots, Dantzig rule with a Bland fallback after stalls.

    The tableau is refactorized from the original data periodically and
    before declaring optimality, which keeps the fast updates from
    drifting or cycling.
    """
    m, n = e.shape
    tableau, rhs, cost_row = _refactor(e, b, c, basis)
    pivots = 0
    stall = 0
    bland = False
    since_refactor = 0
    while pivots <= max_pivots:
        if bland:
            negatives = np.flatnonzero(cost_row < -tol)
            entering = int(negatives[0]) if negatives.size else -1
        else:
            entering = int(np.argmin(cost_row))
            if cost_row[entering] >= -tol:
                entering = -1
        if entering < 0:
            # verify on a freshly refactorized tableau before accepting
            tableau, rhs, cost_row = _refactor(e, b, c, basis)
            since_refactor = 0
            if np.min(cost_row) >= -tol:
                return pivots
            continue
        column = tableau[:, entering]
        positive = column > 1e-10
        if not np.any(positive):
            raise RuntimeError("LP is unbounded")
        ratios = np.where(positive, rhs / np.where(positive, column, 1.0), np.inf)
        best = float(np.min(ratios))
        candidates = np.flatnonzero(ratios <= best + 1e-12)
        row = int(candidates[np.argmin([basis[i] for i in candidates])])

        pivot = tableau[row, entering]
        tableau[row] /= pivot
        rhs[row] /= pivot
        col_vals = tableau[:, entering].copy()
        col_vals[row] = 0.0
        tableau -= np.outer(col_vals, tableau[row])
        rhs -= col_vals * rhs[row]
        rhs = np.maximum(rhs, 0.0)
        decrease = -cost_row[entering] * rhs[row]
        cost_row = cost_row - cost_row[entering] * tableau[row]
        cost_row[entering] = 0.0
        basis[row] = entering

        stall = stall + 1 if decrease <= 1e-12 else 0
        if stall > 3 * m and not bland:
            bland = True  # anti-cycling from here on
        pivots += 1
        since_refactor += 1
        if since_refactor >= 500:
            tableau, rhs, cost_row = _refactor(e, b, c, basis)
            since_refactor = 0
    raise RuntimeError("pivot budget exceeded")


def simplex_solve(cost, eq_matrix, eq_rhs, max_pivots=100_000):
    """Two-phase simplex for min c'u s.t. Eu = b, u >= 0.

    Raises ValueError on infeasible systems and RuntimeError on unbounded
    ones.
    """
    e = np.asarray(eq_matrix, dtype=np.float64)
    b = np.asarray(eq_rhs, dtype=np.float64).copy()
    c = np.asarray(cost, dtype=np.float64)
    m, n = e.shape
    flip = b < 0
    e = np.where(flip[:, None], -e, e)
    b = np.where(flip, -b, b)

    # phase 1: minimize the artificial total
    e1 = np.hstack([e, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    pivots = _simplex_phase(e1, b, c1, basis, max_pivots)
    x_basic = np.linalg.solve(e1[:, basis], b)
    infeasibility = float(np.sum(x_basic[[i for i, v in enumerate(basis) if v >= n]]))
    if infeasibility > 1e-7 * max(1.0, float(np.abs(b).sum())):
        raise ValueError("infeasible system: observation not in the range of the matrix")

    # drive leftover (degenerate, zero-valued) artificials out of the basis
    for row in range(m):
        if basis[row] >= n:
            b_inv_e = np.linalg.solve(e1[:, basis], e)
            pivot_col = next(
                (j for j in range(n) if j not in basis and abs(b_inv_e[row, j]) > 1e-9),
                None,
            )
            if pivot_col is not None:
                basis[row] = pivot_col

    # an artificial no structural column can replace has a zero row of
    # B^-1 E: the constraint it stands for is a combination of the others
    redundant = [v - n for v in basis if v >= n]
    if redundant:
        kept = np.setdiff1d(np.arange(m), redundant)
        e, b = e[kept], b[kept]
        basis = [v for v in basis if v < n]

    pivots += _simplex_phase(e, b, c, basis, max_pivots)
    solution = np.zeros(n)
    x_basic = np.linalg.solve(e[:, basis], b)
    for row, var in enumerate(basis):
        solution[var] = x_basic[row]
    return SimplexResult(solution, float(c @ solution), list(basis), pivots)


def verify_reduced_costs(cost, eq_matrix, basis, tol=1e-9):
    """Independent optimality certificate: all reduced costs >= -tol."""
    e = np.asarray(eq_matrix, dtype=np.float64)
    c = np.asarray(cost, dtype=np.float64)
    cols = [v for v in basis if v < e.shape[1]]
    b_mat = e[:, cols]
    y, *_ = np.linalg.lstsq(b_mat.T, c[cols], rcond=None)
    reduced = c - e.T @ y
    return float(reduced.min()) >= -tol


def basis_pursuit(problem):
    """min ||s||_1 s.t. A s = x through the standard-form LP.

    Splits s into positive and negative parts (2n variables, all-ones
    cost, [A, -A] constraints) and solves with the in-module simplex; the
    no-negative-reduced-costs certificate is re-verified independently
    after termination.
    """
    a, x = problem.mixing, problem.observation
    m, n = a.shape
    report = SolverReport(solver="bp", params={"lp_variables": 2 * n})

    eq = np.hstack([a, -a])
    cost = np.ones(2 * n)
    result = simplex_solve(cost, eq, x)
    if not verify_reduced_costs(cost, eq, result.basis):
        report.flags.append("optimality certificate failed")
    s = result.solution[:n] - result.solution[n:]
    feasibility = float(np.linalg.norm(a @ s - x))
    if feasibility > 1e-8 * max(1.0, float(np.linalg.norm(x))):
        report.flags.append(f"constraint residual {feasibility:.3e}")
    report.iterations = result.iterations
    report.residuals = [feasibility]
    report.converged = not report.flags
    return s, _finish(report, s)


def focuss(problem, iters=20):
    """Reweighted minimum-norm iterations s <- W (A W)^+ x, W = diag(s)."""
    a, x = problem.mixing, problem.observation
    report = SolverReport(solver="focuss", params={"iters": iters})
    s, *_ = np.linalg.lstsq(a, x, rcond=None)  # minimum-l2 start
    for _ in range(iters):
        weighted = a * s[None, :]
        q, *_ = np.linalg.lstsq(weighted, x, rcond=None)
        s = s * q
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm(a @ s - x)))
        if not np.any(s):
            report.flags.append("converged to zero")
            break
    report.converged = True
    return s, _finish(report, s)


IDE_START_FRACTIONS = (0.95, 0.8, 0.65, 0.5)


def ide(problem, schedule=None, iters=10, ridge=1e-10,
        start_fractions=IDE_START_FRACTIONS):
    """Alternating detection of inactive sources and KKT re-estimation.

    Detection marks source i inactive when the residual correlation
    |a_i' x - sum_{j != i} s_j a_i' a_j|, scaled by the column norm so one
    threshold fits all columns, falls below the schedule value; estimation
    solves the minimum-inactive-energy program through the partitioned KKT
    system with P = A_i A_i':

        s_a = (A_a' P^-1 A_a)^-1 A_a' P^-1 x,   s_i = A_i' P^-1 (x - A_a s_a).

    P is the Gram A A', formed once per pass and downdated by the active
    block. One solve of P against [A_a | x] per iteration gives P^-1 A_a and
    P^-1 x, hence P^-1 (x - A_a s_a) without solving again. P is ridged by
    ridge * trace when fewer than m sources are inactive or its Cholesky
    fails; a ridged P is near singular, so there P^-1 (x - A_a s_a) is
    solved for rather than recovered by a cancelling difference. The active
    block is solved by least squares and flagged as rank deficient when its
    condition number exceeds 1e12. The loop calls numpy's LAPACK only:
    scipy bundles a second OpenBLAS, and alternating between two
    multi-threaded BLAS thread pools stalls each call for milliseconds on a
    few cores, far longer than the m x m work itself.

    Each pass runs a fixed number of iterations; with no explicit schedule,
    one pass is run per starting threshold fraction of the largest scaled
    correlation, halving every iteration, and the sparsest feasible result
    wins (the first detection pass can lock onto a wrong active set, and
    restarting at a different threshold is the cheap escape). Among equally
    sparse feasible results the earliest start fraction wins: their final
    residuals sit at rounding level, so ranking by them would let rounding
    pick the estimate.
    """
    if schedule is not None:
        return _ide_pass(problem, schedule, ridge)
    a, x = problem.mixing, problem.observation
    norms = np.linalg.norm(a, axis=0)
    top = float(np.max(np.abs((a.T @ x) / norms)))
    started = time.perf_counter()
    best = None
    for frac in start_fractions:
        candidate, report = _ide_pass(
            problem, [max(frac * top, 1e-12) * 0.5**l for l in range(iters)], ridge
        )
        feasible = report.residuals[-1] <= 1e-7 * max(float(np.linalg.norm(x)), 1.0)
        size = detected_support(candidate).size
        if best is None or (feasible and (not best[2] or size < best[0])):
            best = (size, (candidate, report), feasible)
    estimate, report = best[1]
    report.params["start_fractions"] = list(start_fractions)
    report.wall_time = time.perf_counter() - started
    return estimate, report


def _ide_pass(problem, schedule, ridge):
    a, x = problem.mixing, problem.observation
    m, n = a.shape
    report = SolverReport(solver="ide", params={"schedule": list(schedule)})
    norms = np.linalg.norm(a, axis=0)
    gram = a.T @ a
    outer = a @ a.T
    correlations = a.T @ x

    s = np.zeros(n)
    for eps in schedule:
        detector = np.abs(correlations - (gram @ s - np.diag(gram) * s)) / norms
        inactive = detector < eps
        active = ~inactive
        a_a = a[:, active]
        p_mat = outer - a_a @ a_a.T
        ridged = inactive.sum() < m
        if ridged:
            p_mat = p_mat + ridge * max(np.trace(p_mat), 1.0) * np.eye(m)
            report.flags.append("ridge-regularized inactive Gram")
        try:
            np.linalg.cholesky(p_mat)  # positive-definiteness check
        except np.linalg.LinAlgError:
            p_mat = p_mat + ridge * max(np.trace(p_mat), 1.0) * np.eye(m)
            np.linalg.cholesky(p_mat)
            ridged = True
            report.flags.append("ridge-regularized inactive Gram")
        solved = np.linalg.solve(p_mat, np.column_stack([a_a, x]))
        p_inv_a, p_inv_r = solved[:, :-1], solved[:, -1]  # r = x until s_a is known
        s = np.zeros(n)
        if active.any():
            s_active, _, _, sv = np.linalg.lstsq(
                a_a.T @ p_inv_a, a_a.T @ p_inv_r, rcond=None
            )
            if sv[0] > 1e12 * sv[-1]:
                report.flags.append("rank-deficient active block solved by least squares")
            s[active] = s_active
            if ridged:
                # P^-1 x and P^-1 A_a s_a grow like 1/ridge off the range of A_i,
                # and their difference would cancel: solve for P^-1 r instead.
                p_inv_r = np.linalg.solve(p_mat, x - a_a @ s_active)
            else:
                p_inv_r = p_inv_r - p_inv_a @ s_active
        s[inactive] = a[:, inactive].T @ p_inv_r
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm(a @ s - x)))
    report.converged = True
    return s, _finish(report, s)


def sl0(problem, sigma_seq=None, big_l=3, mu=2.0, sigma_ratio=0.5, sigma_steps=8):
    """Smoothed-l0: steepest ascent on the Gaussian surrogate with
    projection back onto A s = x after every step.

    The sigma sequence must be strictly decreasing; by default it starts at
    twice the largest magnitude of the minimum-l2 solution and halves for
    eight rounds of big_l ascent steps each.
    """
    a, x = problem.mixing, problem.observation
    report = SolverReport(solver="sl0", params={"L": big_l, "mu": mu})
    gram = a @ a.T
    solve_gram = np.linalg.solve
    s = a.T @ solve_gram(gram, x)  # minimum-l2 start
    if sigma_seq is None:
        top = max(float(np.max(np.abs(s))), 1e-12)
        sigma_seq = [2.0 * top * sigma_ratio**i for i in range(sigma_steps)]
    sigma_seq = list(sigma_seq)
    if any(b >= a_ for a_, b in zip(sigma_seq, sigma_seq[1:])) or any(
        v <= 0 for v in sigma_seq
    ):
        raise ValueError("sigma sequence must be positive and strictly decreasing")
    report.params["sigma_seq"] = sigma_seq
    for sigma in sigma_seq:
        for _ in range(big_l):
            delta = s * np.exp(-(s**2) / (2.0 * sigma**2))
            s = s - mu * delta
            s = s - a.T @ solve_gram(gram, a @ s - x)
            report.iterations += 1
            report.residuals.append(float(np.linalg.norm(a @ s - x)))
    report.converged = True
    return s, _finish(report, s)


@dataclasses.dataclass(frozen=True)
class RipEstimate:
    order: int
    delta: float
    method: str = "exhaustive"


def rip_constant(mixing, k, budget=10**6):
    """Exhaustive restricted-isometry constant of order k.

    Columns are unit-normalized first; delta_k is the worst deviation of
    any k-column Gram spectrum from unity. Values >= 1 indicate a rank
    -deficient column subset (reported, but useless for recovery).
    """
    a = np.asarray(mixing, dtype=np.float64)
    m, n = a.shape
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    count = math.comb(n, k)
    if count > budget:
        raise ValueError(f"C({n},{k}) = {count} exceeds the enumeration budget {budget}")
    unit = a / np.linalg.norm(a, axis=0)
    delta = 0.0
    for combo in itertools.combinations(range(n), k):
        sub = unit[:, combo]
        eigvals = np.linalg.eigvalsh(sub.T @ sub)
        delta = max(delta, float(eigvals[-1] - 1.0), float(1.0 - eigvals[0]))
    return RipEstimate(order=k, delta=delta)


def bernoulli_gaussian_problem(m, n, rng, p=0.1, sigma_on=1.0, sigma_off=0.01,
                               sigma_noise=0.0):
    """Benchmark generator: Gaussian mixing, Bernoulli-Gaussian sources."""
    if not 0.0 < p < 1.0:
        raise ValueError("activation probability must lie in (0, 1)")
    a = rng.standard_normal((m, n))
    active = rng.uniform(size=n) < p
    s = np.where(active, sigma_on * rng.standard_normal(n),
                 sigma_off * rng.standard_normal(n))
    x = a @ s + sigma_noise * rng.standard_normal(m)
    return SparseProblem(mixing=a, observation=x, noise_level=sigma_noise,
                         true_source=s)


def ksubspace_fit(data, l, k, initial_partition=None, max_iters=100):
    """Union-of-subspaces model: alternate SVD fits and nearest-subspace
    repartition until the summed squared distance stops decreasing.

    Returns (bases, partition, objective trace). Emptied classes are
    re-seeded with the current worst-fit point and flagged in the trace
    metadata (last element of the returned tuple).
    """
    points = np.asarray(data, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("data must be (count, dimension)")
    count, dim = points.shape
    l, k = int(l), int(k)
    if l < 1 or count < l or not 1 <= k < dim:
        raise ValueError("need l >= 1, k in [1, dim) and at least l points")
    if initial_partition is None:
        partition = np.arange(count) % l
    else:
        partition = np.asarray(initial_partition, dtype=int).copy()
        if partition.shape != (count,) or partition.min() < 0 or partition.max() >= l:
            raise ValueError("initial partition must assign each point to [0, l)")

    flags = []

    def subspace_distances(bases):
        d = np.empty((count, len(bases)))
        for j, basis in enumerate(bases):
            proj = points @ basis
            d[:, j] = np.sum(points**2, axis=1) - np.sum(proj**2, axis=1)
        return np.maximum(d, 0.0)

    def fit_bases(labels, previous):
        bases = []
        for cls in range(l):
            members = points[labels == cls]
            if members.shape[0] == 0:
                if previous is not None:
                    worst = int(np.argmax(np.min(subspace_distances(previous), axis=1)))
                else:
                    worst = int(np.argmax(np.sum(points**2, axis=1)))
                members = points[worst : worst + 1]
                flags.append(f"re-seeded empty class {cls}")
            _, _, vt = np.linalg.svd(members, full_matrices=False)
            bases.append(vt[:k].T)
        return bases

    trace = []
    bases = fit_bases(partition, None)
    for _ in range(max_iters):
        distances = subspace_distances(bases)
        objective = float(np.sum(np.min(distances, axis=1)))
        if trace and objective >= trace[-1] - 1e-14:
            trace.append(objective)
            break
        trace.append(objective)
        partition = np.argmin(distances, axis=1)
        bases = fit_bases(partition, bases)
    return bases, partition, {"objective_trace": trace, "flags": flags}
