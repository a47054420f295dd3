"""Sparse-component-analysis solvers for underdetermined linear systems.

MP/OMP (greedy), basis pursuit (l1 via an in-module simplex), FOCUSS
(reweighted pseudo-inverse), IDE (alternating detection/estimation), and
SL0 (smoothed-l0 steepest ascent with feasibility projection), plus RIP
enumeration and the Bernoulli-Gaussian benchmark generator.
"""

import dataclasses
import functools
import itertools
import math
import time

import numpy as np

from .core import NumericError, SolverReport, detected_support


@dataclasses.dataclass(frozen=True)
class SparseProblem:
    """x = A s (+ noise) with A of size m x n, m <= n."""

    mixing: np.ndarray
    observation: np.ndarray
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


def _set_converged(report, x):
    """A fixed-budget solver (FOCUSS, IDE, SL0) has converged when its last
    residual is feasible: ||A s - x|| <= 1e-7 * max(||x||, 1)."""
    report.converged = bool(report.residuals) and (
        report.residuals[-1] <= 1e-7 * max(float(np.linalg.norm(x)), 1.0))


def matching_pursuit(problem, k_max=None, residual_tol=1e-10, orthogonal=False):
    """Greedy atom selection; the OMP variant re-solves least squares on the
    accumulated support each step.

    Selection correlates against unit-normalized columns even when the
    mixing matrix is not normalized; reported amplitudes stay in the
    original column scale. The loop stops once k_max distinct atoms
    (default min(m, n); more than n raises ValueError) are chosen, once the
    residual meets residual_tol, or, flagged and not converged, at a step
    that does not lower the residual: on an inconsistent system the argmax
    keeps re-picking chosen atoms and the distinct count stops growing.
    """
    a, x = problem.mixing, problem.observation
    m, n = a.shape
    if k_max is None:
        k_max = min(m, n)
    elif k_max > n:
        raise ValueError(f"k_max={k_max} exceeds the {n} atoms")
    norms = np.linalg.norm(a, axis=0)
    unit = a / norms

    report = SolverReport(solver="omp" if orthogonal else "mp")
    s = np.zeros(n)
    residual = x.copy()
    residual_norm = float(np.linalg.norm(residual))
    chosen = []
    x_scale = max(float(np.linalg.norm(x)), 1e-300)
    while len(set(chosen)) < k_max:
        if residual_norm <= residual_tol * x_scale:
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
        previous, residual_norm = residual_norm, float(np.linalg.norm(residual))
        report.iterations += 1
        report.residuals.append(residual_norm)
        if residual_norm >= previous:
            report.flags.append("residual did not decrease: stopped")
            break
    else:
        report.converged = residual_norm <= residual_tol * x_scale
    return s, report._finish()


def _columns(e, mirrored, index):
    """Columns `index` of the full matrix [E, -E, R] that e = [E, R] stands
    for, E being its first `mirrored` columns."""
    twin = (index >= mirrored) & (index < 2 * mirrored)
    columns = e[:, np.where(index >= mirrored, index - mirrored, index)]
    columns[:, twin] *= -1.0
    return columns


def _subtract_row(cost_row, row, mirrored):
    """cost_row -= the full-width row [R1, -R1, R2] that row = [R1, R2]
    stands for, R1 being its first `mirrored` entries."""
    k = mirrored
    cost_row[:k] -= row[:k]
    cost_row[k : 2 * k] += row[:k]
    cost_row[2 * k :] -= row[k:]


def _refactor(e, b, c, basis, mirrored):
    b_mat = _columns(e, mirrored, basis)
    tableau = np.linalg.solve(b_mat, e)
    rhs = np.linalg.solve(b_mat, b)
    cost_row = c.copy()
    _subtract_row(cost_row, c[basis] @ tableau, mirrored)
    cost_row[basis] = 0.0
    return tableau, np.maximum(rhs, 0.0), cost_row


PIVOT_BUDGET = 100_000  # per simplex phase
SIMPLEX_TOL = 1e-9  # a reduced cost below -SIMPLEX_TOL is negative


def _simplex_phase(e, b, c, basis, mirrored):
    """Tableau pivots, Dantzig rule with a Bland fallback after stalls.

    The LP's matrix is [E, -E, R] with the first `mirrored` columns of e
    as E and the rest as R (a generic LP has mirrored=0, so e is the whole
    matrix); c and the int array basis index that full column space. Only
    B^-1 e is stored: column k + j of B^-1 [E, -E, R] is read as minus
    column j, and since IEEE negation is exact every pivot, ratio and
    update equals the full tableau's bit for bit. The cost row spans the
    full index space, so the pivot rule is the same as on the full
    tableau: Dantzig's most negative reduced cost (lowest index on ties),
    ratio ties broken by the smallest basic variable index, and after 3m
    pivots without decrease Bland's rule, the lowest-index variable with a
    negative reduced cost over E, then -E, then R.

    The tableau is refactorized from the original data periodically and
    before declaring optimality, which keeps the fast updates from
    drifting or cycling. More than PIVOT_BUDGET pivots raise.
    """
    m = e.shape[0]
    k = mirrored
    tableau, rhs, cost_row = _refactor(e, b, c, basis, k)
    pivots = 0
    stall = 0
    bland = False
    since_refactor = 0
    while pivots <= PIVOT_BUDGET:
        if bland:
            negatives = np.flatnonzero(cost_row < -SIMPLEX_TOL)
            entering = int(negatives[0]) if negatives.size else -1
        else:
            entering = int(cost_row.argmin())
            if cost_row[entering] >= -SIMPLEX_TOL:
                entering = -1
        if entering < 0:
            # verify on a freshly refactorized tableau before accepting
            tableau, rhs, cost_row = _refactor(e, b, c, basis, k)
            since_refactor = 0
            if np.min(cost_row) >= -SIMPLEX_TOL:
                return pivots
            continue
        sign = -1.0 if k <= entering < 2 * k else 1.0
        column = sign * tableau[:, entering - k if entering >= k else entering]
        positive = (column > 1e-10).nonzero()[0]
        if not positive.size:
            raise RuntimeError("LP is unbounded")
        ratios = rhs[positive] / column[positive]
        candidates = positive[ratios <= ratios.min() + 1e-12]
        row = int(candidates[basis[candidates].argmin()])

        pivot = column[row]
        tableau[row] /= pivot
        rhs[row] /= pivot
        column[row] = 0.0
        tableau -= column[:, None] * tableau[row]
        rhs -= column * rhs[row]
        np.maximum(rhs, 0.0, out=rhs)
        decrease = -cost_row[entering] * rhs[row]
        _subtract_row(cost_row, cost_row[entering] * tableau[row], k)
        cost_row[entering] = 0.0
        basis[row] = entering

        stall = stall + 1 if decrease <= 1e-12 else 0
        if stall > 3 * m and not bland:
            bland = True  # anti-cycling from here on
        pivots += 1
        since_refactor += 1
        if since_refactor >= 500:
            tableau, rhs, cost_row = _refactor(e, b, c, basis, k)
            since_refactor = 0
    raise RuntimeError("pivot budget exceeded")


def simplex_solve(cost, eq_matrix, eq_rhs):
    """Two-phase simplex for min c'u s.t. Eu = b, u >= 0.

    An E of the form [F, -F] with equal cost halves (basis pursuit's split
    into positive and negative parts) is pivoted on F alone; see
    _simplex_phase. Returns (solution, objective, basis, pivots): u, c'u,
    the basic column indices and the pivot count of both phases. Raises
    ValueError on infeasible systems and RuntimeError on unbounded ones.
    """
    e = np.asarray(eq_matrix, dtype=np.float64)
    b = np.asarray(eq_rhs, dtype=np.float64).copy()
    c = np.asarray(cost, dtype=np.float64)
    m, n = e.shape
    half = n // 2
    mirrored = half if (
        n % 2 == 0 and np.array_equal(e[:, half:], -e[:, :half])
        and np.array_equal(c[half:], c[:half])
    ) else 0
    flip = b < 0
    e = np.where(flip[:, None], -e[:, : n - mirrored], e[:, : n - mirrored])
    b = np.where(flip, -b, b)

    # phase 1: minimize the artificial total
    e1 = np.hstack([e, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    pivots = _simplex_phase(e1, b, c1, basis, mirrored)
    x_basic = np.linalg.solve(_columns(e1, mirrored, basis), b)
    infeasibility = float(np.sum(x_basic[basis >= n]))
    if infeasibility > 1e-7 * max(1.0, float(np.abs(b).sum())):
        raise ValueError("infeasible system: observation not in the range of the matrix")

    # drive leftover (degenerate, zero-valued) artificials out of the basis
    for row in range(m):
        if basis[row] >= n:
            b_inv_e = np.linalg.solve(_columns(e1, mirrored, basis), e)
            pivot_col = next(
                (j for j in range(n) if j not in basis
                 and abs(b_inv_e[row, j - mirrored if j >= mirrored else j]) > 1e-9),
                None,
            )
            if pivot_col is not None:
                basis[row] = pivot_col

    # an artificial no structural column can replace has a zero row of
    # B^-1 E: the constraint it stands for is a combination of the others
    redundant = basis >= n
    if redundant.any():
        kept = np.setdiff1d(np.arange(m), basis[redundant] - n)
        e, b = e[kept], b[kept]
        basis = basis[~redundant]

    pivots += _simplex_phase(e, b, c, basis, mirrored)
    solution = np.zeros(n)
    solution[basis] = np.linalg.solve(_columns(e, mirrored, basis), b)
    return solution, float(c @ solution), basis.tolist(), pivots


def verify_reduced_costs(cost, eq_matrix, basis, tol=1e-9):
    """Independent optimality certificate: all reduced costs >= -tol."""
    e = np.asarray(eq_matrix, dtype=np.float64)
    c = np.asarray(cost, dtype=np.float64)
    cols = [v for v in basis if v < e.shape[1]]
    b_mat = e[:, cols]
    y, *_ = np.linalg.lstsq(b_mat.T, c[cols], rcond=None)
    reduced = c - e.T @ y
    return float(reduced.min()) >= -tol


BP_RESCALE_EXPONENT = 8  # binary exponent of max|A| or max|x| beyond which BP rescales


def basis_pursuit(problem):
    """min ||s||_1 s.t. A s = x through the standard-form LP.

    Splits s into positive and negative parts (2n variables, all-ones
    cost, [A, -A] constraints) and solves with the in-module simplex; the
    no-negative-reduced-costs certificate is re-verified independently
    after termination. The simplex tolerances are absolute, so when the
    binary exponent e of max|A| or f of max|x| exceeds BP_RESCALE_EXPONENT
    in magnitude the LP is solved for A 2^-e and x 2^-f, and its solution
    scaled back by 2^(f - e). Division by a power of two is exact and
    leaves the minimizer unchanged.
    """
    a, x = problem.mixing, problem.observation
    m, n = a.shape
    report = SolverReport(solver="bp")

    e = int(np.frexp(np.max(np.abs(a)))[1])
    f = int(np.frexp(np.max(np.abs(x)))[1])
    if max(abs(e), abs(f)) <= BP_RESCALE_EXPONENT:
        e = f = 0
    eq = np.ldexp(np.hstack([a, -a]), -e)
    cost = np.ones(2 * n)
    solution, _, basis, pivots = simplex_solve(cost, eq, np.ldexp(x, -f))
    if not verify_reduced_costs(cost, eq, basis):
        report.flags.append("optimality certificate failed")
    s = np.ldexp(solution[:n] - solution[n:], f - e)
    feasibility = float(np.linalg.norm(a @ s - x))
    if feasibility > 1e-8 * max(1.0, float(np.linalg.norm(x))):
        report.flags.append(f"constraint residual {feasibility:.3e}")
    report.iterations = pivots
    report.residuals = [feasibility]
    report.converged = not report.flags
    return s, report._finish()


def focuss(problem, iters=20):
    """Reweighted minimum-norm iterations s <- W (A W)^+ x, W = diag(s).

    Each step factors (A W)' = Q R and takes the minimum-norm solution
    q = Q R^-T x. Unpivoted R does not reveal rank reliably, so whenever
    min |r_ii| <= sqrt(eps) * max |r_ii| (weights that have collapsed onto
    fewer than m sources), and for a taller-than-wide A, the step drops the
    columns of A W whose norm is below the SVD least squares' default
    cutoff and solves the rest by QR again: minimum-norm when they are at
    least m, least squares when fewer. Only when that R fails the same test
    does the step run the SVD least squares on the kept columns. The
    report is converged when the last iterate is feasible.
    """
    a, x = problem.mixing, problem.observation
    report = SolverReport(solver="focuss")
    s, *_ = np.linalg.lstsq(a, x, rcond=None)  # minimum-l2 start
    for _ in range(iters):
        s = s * _min_norm_step(a * s[None, :], x)
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm(a @ s - x)))
        if not np.any(s):
            report.flags.append("converged to zero")
            break
    _set_converged(report, x)
    return s, report._finish()


FOCUSS_QR_CUTOFF = math.sqrt(np.finfo(float).eps)


def _min_norm_step(weighted, x):
    """Minimum-norm solution of weighted q = x; see focuss."""
    m, n = weighted.shape
    if m <= n:
        q = _qr_solve(weighted, x)
        if q is not None:
            return q
    norms = np.linalg.norm(weighted, axis=0)
    kept = norms > np.finfo(float).eps * max(m, n) * norms.max()  # lstsq's cutoff
    q = np.zeros(n, dtype=np.result_type(weighted, x))
    if np.any(kept):
        step = _qr_solve(weighted[:, kept], x)
        if step is None:
            step, *_ = np.linalg.lstsq(weighted[:, kept], x, rcond=None)
        q[kept] = step
    return q


def _qr_solve(w, x):
    """The minimum-norm solution Q R^-T x of w q = x from w' = Q R when w is
    wide or square, the least-squares solution R^-1 Q' x from w = Q R when
    it is tall; None when min |r_ii| <= FOCUSS_QR_CUTOFF * max |r_ii|."""
    tall = w.shape[0] > w.shape[1]
    q_factor, r_factor = np.linalg.qr(w if tall else w.T)
    diagonal = np.abs(np.diagonal(r_factor))
    if diagonal.min() <= FOCUSS_QR_CUTOFF * diagonal.max():
        return None
    if tall:
        return np.linalg.solve(r_factor, q_factor.T @ x)
    return q_factor @ np.linalg.solve(r_factor.T, x)


IDE_START_FRACTIONS = (0.95, 0.8, 0.65, 0.5)
IDE_RIDGE = 1e-10  # relative to trace(P); lifts a singular inactive Gram


def ide(problem, schedule=None, start_fractions=IDE_START_FRACTIONS):
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
    IDE_RIDGE * trace when fewer than m sources are inactive. When its
    Cholesky fails (the downdate cancels when column scales differ widely),
    P is rebuilt as A_i A_i' and ridged; a P that still fails raises
    NumericError. A ridged P is near singular, so there P^-1 (x - A_a s_a)
    is solved for rather than recovered by a cancelling difference. The active
    block is solved by least squares and flagged as rank deficient when its
    condition number exceeds 1e12. The loop calls numpy's LAPACK only:
    scipy bundles a second OpenBLAS, and alternating between two
    multi-threaded BLAS thread pools stalls each call for milliseconds on a
    few cores, far longer than the m x m work itself.

    Each pass runs one iteration per schedule value; with no explicit
    schedule, one ten-step pass is run per starting threshold fraction of
    the largest scaled correlation, halving every step, and the sparsest
    feasible result wins (the first detection pass can lock onto a wrong
    active set, and restarting at a different threshold is the cheap
    escape); a pass is feasible when its report has converged. Among
    equally sparse feasible results the earliest start fraction wins: their
    final residuals sit at rounding level, so ranking by them would let
    rounding pick the estimate.
    """
    if schedule is not None:
        estimate, report = _ide_pass(problem, schedule)
        return estimate, report._finish()
    started = time.perf_counter()
    a, x = problem.mixing, problem.observation
    norms = np.linalg.norm(a, axis=0)
    top = float(np.max(np.abs((a.T @ x) / norms)))
    best = None
    for frac in start_fractions:
        candidate, report = _ide_pass(
            problem, [max(frac * top, 1e-12) * 0.5**l for l in range(10)]
        )
        size = detected_support(candidate).size
        if best is None or (report.converged and (not best[2] or size < best[0])):
            best = (size, (candidate, report), report.converged)
    estimate, report = best[1]
    report.started = started  # the winner's wall_time spans every pass
    return estimate, report._finish()


def _ide_pass(problem, schedule):
    """One IDE pass over schedule: the estimate and its unfinished report."""
    a, x = problem.mixing, problem.observation
    m, n = a.shape
    report = SolverReport(solver="ide")
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
            p_mat = _ridged(p_mat)
        if not _positive_definite(p_mat):
            # the downdate cancels when column scales differ widely
            a_i = a[:, inactive]
            p_mat = _ridged(a_i @ a_i.T)
            ridged = True
            if not _positive_definite(p_mat):
                raise NumericError("inactive Gram not positive definite after ridging")
        if ridged:
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
    _set_converged(report, x)
    return s, report


def _ridged(p_mat):
    return p_mat + IDE_RIDGE * max(np.trace(p_mat), 1.0) * np.eye(p_mat.shape[0])


def _positive_definite(p_mat):
    try:
        np.linalg.cholesky(p_mat)
    except np.linalg.LinAlgError:
        return False
    return True


def sl0(problem, sigma_seq=None, mu=2.0, sigma_ratio=0.5, sigma_steps=8):
    """Smoothed-l0: steepest ascent on the Gaussian surrogate with
    projection back onto A s = x after every step.

    Each sigma gets three ascent steps. The sigma sequence must be strictly
    decreasing; by default it starts at twice the largest magnitude of the
    minimum-l2 solution and shrinks by sigma_ratio for sigma_steps rounds.
    A singular Gram A A' switches every projection to its pseudo-inverse
    (the minimum-norm projection) and is flagged. The report is converged
    when the last projection is feasible.
    """
    a, x = problem.mixing, problem.observation
    report = SolverReport(solver="sl0")
    gram = a @ a.T
    try:
        s = a.T @ np.linalg.solve(gram, x)  # minimum-l2 start
        solve_gram = functools.partial(np.linalg.solve, gram)
    except np.linalg.LinAlgError:
        solve_gram = functools.partial(np.matmul, np.linalg.pinv(gram, hermitian=True))
        report.flags.append("singular Gram: minimum-norm projection")
        s = a.T @ solve_gram(x)
    if sigma_seq is None:
        top = max(float(np.max(np.abs(s))), 1e-12)
        sigma_seq = [2.0 * top * sigma_ratio**i for i in range(sigma_steps)]
    sigma_seq = list(sigma_seq)
    if any(b >= a_ for a_, b in zip(sigma_seq, sigma_seq[1:])) or any(
        v <= 0 for v in sigma_seq
    ):
        raise ValueError("sigma sequence must be positive and strictly decreasing")
    for sigma in sigma_seq:
        for _ in range(3):
            delta = s * np.exp(-(s**2) / (2.0 * sigma**2))
            s = s - mu * delta
            s = s - a.T @ solve_gram(a @ s - x)
            report.iterations += 1
            report.residuals.append(float(np.linalg.norm(a @ s - x)))
    _set_converged(report, x)
    return s, report._finish()


@dataclasses.dataclass(frozen=True)
class RipEstimate:
    order: int
    delta: float


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
    return SparseProblem(mixing=a, observation=x, true_source=s)

