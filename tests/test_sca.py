"""SCA solvers against the exhaustive l0 oracle, RIP, subspace modeling."""

import itertools
import math

import numpy as np
import pytest

from sparsekit.core import NumericError, RandomSource, detected_support
from sparsekit.sca import (
    IDE_START_FRACTIONS,
    _min_norm_step,
    SparseProblem,
    basis_pursuit,
    bernoulli_gaussian_problem,
    focuss,
    ide,
    matching_pursuit,
    rip_constant,
    simplex_solve,
    sl0,
)


def sparse_instance(m, n, k, rng, min_coef=0.5):
    a = rng.standard_normal((m, n))
    support = np.sort(rng.choice(n, size=k, replace=False))
    s = np.zeros(n)
    s[support] = rng.standard_normal(k) + min_coef * np.sign(rng.standard_normal(k))
    while np.any(np.abs(s[support]) < min_coef):
        s[support] = rng.standard_normal(k) + min_coef * np.sign(rng.standard_normal(k))
    return SparseProblem(mixing=a, observation=a @ s, true_source=s), support


def l0_oracle_support(problem, k):
    """Exhaustive search for the k-sparse support with the smallest residual."""
    a, x = problem.mixing, problem.observation
    best = None
    for combo in itertools.combinations(range(a.shape[1]), k):
        coef, *_ = np.linalg.lstsq(a[:, combo], x, rcond=None)
        resid = float(np.linalg.norm(a[:, combo] @ coef - x))
        if best is None or resid < best[0]:
            best = (resid, combo)
    return np.array(best[1])


def oracle_agreement(solver, k, seeds=100, seed_base=90):
    hits = 0
    for seed in range(seeds):
        rng = RandomSource(seed_base, stream=seed + 1)
        problem, _ = sparse_instance(10, 20, k, rng)
        oracle = l0_oracle_support(problem, k)
        estimate, _ = solver(problem)
        support = detected_support(estimate)
        hits += set(support) == set(oracle)
    return hits


class TestMatchingPursuit:
    def test_single_column_observation(self):
        rng = RandomSource(91)
        a = rng.standard_normal((8, 12))
        problem = SparseProblem(mixing=a, observation=2.5 * a[:, 7])
        s, report = matching_pursuit(problem, k_max=8)
        assert report.iterations == 1
        assert list(detected_support(s)) == [7]
        assert report.residuals[-1] < 1e-10

    def test_orthogonal_dictionary_exact(self):
        rng = RandomSource(92)
        a, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        s_true = np.zeros(16)
        s_true[[2, 9, 14]] = [1.0, -2.0, 0.5]
        problem = SparseProblem(mixing=a, observation=a @ s_true)
        s, report = matching_pursuit(problem, k_max=3)
        assert np.max(np.abs(s - s_true)) < 1e-10

    def test_omp_oracle_rate(self):
        rate = oracle_agreement(lambda p: matching_pursuit(p, k_max=2, orthogonal=True), 2)
        assert rate >= 95

    def test_plain_mp_can_differ_from_omp(self):
        mismatch = 0
        for seed in range(50):
            rng = RandomSource(93, stream=seed + 1)
            problem, _ = sparse_instance(10, 20, 2, rng)
            s_mp, _ = matching_pursuit(problem, k_max=2)
            s_omp, _ = matching_pursuit(problem, k_max=2, orthogonal=True)
            mismatch += not np.allclose(s_mp, s_omp, atol=1e-8)
        assert mismatch > 0

    @pytest.mark.parametrize("orthogonal", [False, True], ids=["mp", "omp"])
    def test_a_step_that_does_not_lower_the_residual_stops(self, orthogonal):
        # every column is the same atom, so after the first step the residual
        # is orthogonal to all of them and the argmax only re-picks atom 0
        problem = SparseProblem(np.ones((8, 16)), np.arange(8.0))
        s, report = matching_pursuit(problem, orthogonal=orthogonal)
        assert report.flags == ["residual did not decrease: stopped"]
        assert not report.converged
        assert report.residuals[-1] >= report.residuals[-2]
        assert np.allclose(problem.mixing @ s, 3.5)

    def test_omp_on_a_tall_matrix_ends_at_the_least_squares_fit(self):
        rng = RandomSource(95)
        a = rng.standard_normal((16, 8))
        x = rng.standard_normal(16)
        s, report = matching_pursuit(SparseProblem(a, x), orthogonal=True)
        assert report.iterations == 8 and not report.converged
        assert np.max(np.abs(s - np.linalg.lstsq(a, x, rcond=None)[0])) < 1e-10

    def test_k_max_beyond_the_atom_count_rejected(self):
        problem = SparseProblem(RandomSource(95).standard_normal((16, 8)), np.ones(16))
        with pytest.raises(ValueError, match="k_max"):
            matching_pursuit(problem, k_max=9)


def bp_probe_problems():
    """20 consistent 8 x 16 systems with 3-sparse sources."""
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 16))
        s = np.zeros(16)
        s[rng.choice(16, size=3, replace=False)] = rng.standard_normal(3)
        problems.append((a, a @ s))
    return problems


class TestBasisPursuit:
    @staticmethod
    def spy_on_phases(monkeypatch):
        """The `mirrored` argument of every _simplex_phase call, in order."""
        import sparsekit.sca as sca_module

        mirrored = []
        phase = sca_module._simplex_phase
        monkeypatch.setattr(sca_module, "_simplex_phase",
                            lambda *args: mirrored.append(args[4]) or phase(*args))
        return mirrored

    @pytest.mark.parametrize("scale_a,scale_x", [
        (1e3, 1e3), (1e4, 1e4), (1e5, 1e5), (1e6, 1e6), (1e6, 1.0), (1e-12, 1e-12)])
    def test_estimate_does_not_depend_on_the_scale(self, scale_a, scale_x):
        # the simplex tolerances are absolute; A s = x scaled as A c_a, x c_x
        # has the minimizer s c_x / c_a
        for a, x in bp_probe_problems():
            s_unit, _ = basis_pursuit(SparseProblem(a, x))
            s, report = basis_pursuit(SparseProblem(scale_a * a, scale_x * x))
            assert report.converged
            expected = s_unit * (scale_x / scale_a)
            assert np.max(np.abs(s - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_square_invertible(self):
        rng = RandomSource(94)
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        x = rng.standard_normal(6)
        problem = SparseProblem(mixing=a, observation=x)
        s, report = basis_pursuit(problem)
        assert np.max(np.abs(s - np.linalg.solve(a, x))) < 1e-8
        assert report.converged

    def test_oracle_rate(self):
        rate = oracle_agreement(lambda p: basis_pursuit(p), 2, seed_base=96)
        assert rate >= 90

    def test_feasibility_and_certificate(self):
        rng = RandomSource(97)
        problem, _ = sparse_instance(12, 30, 3, rng)
        s, report = basis_pursuit(problem)
        assert np.linalg.norm(problem.mixing @ s - problem.observation) < 1e-8
        assert report.converged  # includes the independent certificate

    def test_infeasible_rejected(self, monkeypatch):
        # the crash finds no basis of the rank-1 A, and the reduced basis
        # rejects x, which is off A's range, before any pivot
        a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        problem = SparseProblem(mixing=a, observation=np.array([1.0, 0.0]))
        mirrored = self.spy_on_phases(monkeypatch)
        with pytest.raises(ValueError, match="infeasible"):
            basis_pursuit(problem)
        assert mirrored == []

    @pytest.mark.parametrize("shape", ["ones", "rank3", "repeated"])
    def test_rank_deficient_consistent_system_reaches_the_l1_optimum(self, shape, monkeypatch):
        # No m columns form a crash basis, so the one phase starts from the
        # LP restated on A's row space: its redundant constraints are
        # dropped, not patched with an arbitrary column into a singular basis.
        # With A's first three columns equal, the first r columns of the
        # restated LP are dependent: its basis must be picked, not taken.
        from scipy.optimize import linprog

        if shape == "ones":
            a = np.ones((8, 16))
            x = a[:, 0].copy()
        else:
            rng = RandomSource(120)
            a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 12))
            if shape == "repeated":
                a[:, 1:3] = a[:, :1]
            x = a @ np.r_[1.5, 0.0, 0.0, -0.7, np.zeros(8)]
        n = a.shape[1]
        mirrored = self.spy_on_phases(monkeypatch)
        s, report = basis_pursuit(SparseProblem(mixing=a, observation=x))
        assert mirrored == [n]
        assert report.converged
        assert np.linalg.norm(a @ s - x) < 1e-9 * max(1.0, np.linalg.norm(x))
        reference = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=x,
                            bounds=(0, None), method="highs")
        assert abs(np.abs(s).sum() - reference.fun) < 1e-12 * max(1.0, reference.fun)

    def test_half_tableau_pivots_as_the_full_one(self, monkeypatch):
        # reading the -A columns as negated A columns is exact, so the pivots,
        # their count and the solution equal those of the full [A, -A] tableau
        import sparsekit.sca as sca_module

        phase = sca_module._simplex_phase

        def full_tableau(e, b, c, basis, mirrored):
            e = np.hstack([e[:, :mirrored], -e[:, :mirrored], e[:, mirrored:]])
            return phase(e, b, c, basis, 0)

        for stream, (m, n) in enumerate([(32, 64)] * 3 + [(64, 128)]):
            problem = bernoulli_gaussian_problem(m, n, RandomSource(122, stream=stream),
                                                 sigma_noise=0.01)
            eq = np.hstack([problem.mixing, -problem.mixing])
            half_u, _, half_basis, half_pivots = simplex_solve(
                np.ones(2 * n), eq, problem.observation
            )
            with monkeypatch.context() as patch:
                patch.setattr(sca_module, "_simplex_phase", full_tableau)
                full_u, _, full_basis, full_pivots = simplex_solve(
                    np.ones(2 * n), eq, problem.observation
                )
            assert half_pivots == full_pivots > 0
            assert half_basis == full_basis
            assert half_u.tobytes() == full_u.tobytes()

    def test_nearly_mirrored_lp_takes_the_generic_path(self, monkeypatch):
        # basis pursuit's split LP runs one phase from a crash basis;
        # [E, -E + 1e-3 P] is not that split, and simplex_solve has no
        # generic path for it: it is rejected before any phase runs
        rng = RandomSource(121)
        e = rng.standard_normal((8, 20))
        x = e @ np.r_[1.2, 0.0, -0.8, np.zeros(17)]
        mirrored = self.spy_on_phases(monkeypatch)

        basis_pursuit(SparseProblem(mixing=e, observation=x))
        assert mirrored == [20]

        mirrored.clear()
        eq = np.hstack([e, -e + 1e-3 * rng.standard_normal((8, 20))])
        with pytest.raises(ValueError, match=r"takes \[F, -F\] with equal cost halves"):
            simplex_solve(np.ones(40), eq, x)
        with pytest.raises(ValueError, match=r"takes \[F, -F\] with equal cost halves"):
            simplex_solve(np.r_[np.ones(20), 2.0 * np.ones(20)], np.hstack([e, -e]), x)
        assert mirrored == []

    @pytest.mark.parametrize("shape", ["tall", "zero"])
    def test_a_tall_system_or_a_zero_observation_runs_one_phase(self, shape, monkeypatch):
        # m columns of a tall A cannot be chosen, and a zero observation
        # leaves the crash's reweighting no weight: the one phase starts
        # from the reduced basis
        from scipy.optimize import linprog

        rng = RandomSource(123)
        if shape == "tall":
            a = rng.standard_normal((12, 6))
            x = a @ np.r_[0.0, 2.0, 0.0, 0.0, -1.0, 0.0]
        else:
            a = rng.standard_normal((8, 16))
            x = np.zeros(8)
        n = a.shape[1]
        mirrored = self.spy_on_phases(monkeypatch)
        s, report = basis_pursuit(SparseProblem(mixing=a, observation=x))
        assert mirrored == [n]
        assert report.converged
        reference = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=x,
                            bounds=(0, None), method="highs")
        assert abs(np.abs(s).sum() - reference.fun) <= 1e-12 * max(1.0, reference.fun)

    @pytest.mark.parametrize("n", [64, 192])
    def test_an_ill_conditioned_crash_runs_one_phase(self, n, monkeypatch):
        # no natural input has a full-rank A whose crash has cond >= 1e12;
        # a crash that returns None stands for one, and the one phase
        # starts from the reduced basis
        import sparsekit.sca as sca_module
        from scipy.optimize import linprog

        monkeypatch.setattr(sca_module, "_crash_basis", lambda f, b: None)
        mirrored = self.spy_on_phases(monkeypatch)
        for stream in range(3):
            problem = bernoulli_gaussian_problem(n // 2, n, RandomSource(124, stream=stream),
                                                 sigma_noise=0.01)
            mirrored.clear()
            s, report = basis_pursuit(problem)
            assert mirrored == [n]
            assert report.converged
            a, x = problem.mixing, problem.observation
            reference = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=x,
                                bounds=(0, None), method="highs")
            assert abs(np.abs(s).sum() - reference.fun) <= 1e-9 * max(1.0, reference.fun)


class TestFocuss:
    def test_one_sparse_fixed_point(self):
        rng = RandomSource(98)
        a = rng.standard_normal((6, 10))
        s0 = np.zeros(10)
        s0[4] = 1.5
        problem = SparseProblem(mixing=a, observation=a @ s0)
        # iterate the map once starting from the sparse point itself
        weighted = a * s0[None, :]
        q, *_ = np.linalg.lstsq(weighted, problem.observation, rcond=None)
        assert np.max(np.abs(s0 * q - s0)) < 1e-12

    def test_identity_matrix(self):
        x = np.array([0.3, 0.0, -1.2, 0.0])
        problem = SparseProblem(mixing=np.eye(4), observation=x)
        s, _ = focuss(problem, iters=10)
        assert np.max(np.abs(s - x)) < 1e-10

    def test_oracle_rate(self):
        rate = oracle_agreement(lambda p: focuss(p, iters=20), 2, seed_base=99)
        assert rate >= 90

    def test_residual_non_increasing(self):
        rng = RandomSource(100)
        problem, _ = sparse_instance(10, 20, 3, rng)
        _, report = focuss(problem, iters=25)
        resid = np.array(report.residuals)
        assert np.all(np.diff(resid) <= 1e-10)

    def test_fixed_points_are_basic_solutions(self):
        # on its support, a FOCUSS fixed point solves the restricted system
        rng = RandomSource(101)
        for seed in range(5):
            sub = RandomSource(101, stream=seed + 1)
            problem, _ = sparse_instance(4, 8, 2, sub)
            s, _ = focuss(problem, iters=60)
            support = detected_support(s)
            coef, *_ = np.linalg.lstsq(problem.mixing[:, support], problem.observation,
                                       rcond=None)
            assert np.max(np.abs(s[support] - coef)) < 1e-6


class TestFocussStep:
    """The QR minimum-norm step against the SVD least squares it replaces."""

    @staticmethod
    def _counting_lstsq(monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
        return calls, lstsq

    def test_full_rank_step_is_the_lstsq_step(self, monkeypatch):
        rng = RandomSource(103)
        problem = bernoulli_gaussian_problem(32, 64, rng, sigma_noise=0.01)
        a, x = problem.mixing, problem.observation
        s, *_ = np.linalg.lstsq(a, x, rcond=None)
        calls, lstsq = self._counting_lstsq(monkeypatch)
        weighted = a * s[None, :]
        step = _min_norm_step(weighted, x)
        assert calls == []  # the QR branch
        reference, *_ = lstsq(weighted, x, rcond=None)
        assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_collapsed_weights_drop_their_columns(self, monkeypatch):
        x = np.array([0.3, 0.0, -1.2, 0.0])
        calls, lstsq = self._counting_lstsq(monkeypatch)
        weighted = np.eye(4) * x[None, :]
        step = _min_norm_step(weighted, x)
        assert calls == []  # the zero-weight columns are dropped, the rest solved by QR
        reference, *_ = lstsq(weighted, x, rcond=None)
        assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_dependent_kept_columns_fall_back_to_lstsq(self, monkeypatch):
        column = np.array([1.0, -2.0, 0.5])
        weighted = np.column_stack([column, 3.0 * column, np.zeros(3), np.ones(3)])
        x = 2.0 * column - np.ones(3)
        calls, lstsq = self._counting_lstsq(monkeypatch)
        step = _min_norm_step(weighted, x)
        assert calls == [1]
        reference, *_ = lstsq(weighted, x, rcond=None)
        assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_noiseless_steps_rarely_fall_back(self, monkeypatch):
        # sigma_off = 0: the weights collapse onto the active sources, and the
        # R of the whole weighted matrix fails its test on 112 of 200 steps;
        # QR on the kept columns leaves 7 steps to the SVD least squares
        problems = [bernoulli_gaussian_problem(32, 64, RandomSource(2024, stream=seed),
                                               sigma_off=0.0) for seed in range(10)]
        calls, _ = self._counting_lstsq(monkeypatch)
        errors = []
        for problem in problems:
            s, report = focuss(problem, iters=20)
            assert report.iterations == 20
            truth = problem.true_source
            errors.append(np.sum((s - truth) ** 2) / np.sum(truth ** 2))
        assert len(calls) - len(problems) <= 10  # one start per problem, then the fallbacks
        assert np.median(errors) < 1e-20


class TestIde:
    def test_zero_observation(self):
        rng = RandomSource(102)
        a = rng.standard_normal((5, 12))
        problem = SparseProblem(mixing=a, observation=np.zeros(5))
        s, report = ide(problem)
        assert np.max(np.abs(s)) < 1e-12

    def test_bernoulli_gaussian_active_set(self):
        hits = 0
        for seed in range(50):
            rng = RandomSource(103, stream=seed + 1)
            problem = bernoulli_gaussian_problem(10, 20, rng, sigma_noise=0.0)
            truth = problem.true_source
            strong = set(np.flatnonzero(np.abs(truth) > 0.5))
            if not strong:
                hits += 1
                continue
            s, _ = ide(problem)
            hits += strong.issubset(set(detected_support(s, tol=1e-3)))
        assert hits >= 45

    def test_small_instance_matches_support_oracle(self):
        rng = RandomSource(104)
        problem, support = sparse_instance(4, 8, 1, rng)
        s, _ = ide(problem)
        coef, *_ = np.linalg.lstsq(problem.mixing[:, support], problem.observation,
                                   rcond=None)
        assert np.max(np.abs(s[support] - coef)) < 1e-6

    def test_oracle_rate(self):
        rate = oracle_agreement(lambda p: ide(p), 2, seed_base=105)
        assert rate >= 90

    @staticmethod
    def detector(problem, s):
        a, x = problem.mixing, problem.observation
        gram = a.T @ a
        return np.abs(a.T @ x - (gram @ s - np.diag(gram) * s)) / np.linalg.norm(a, axis=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_estimate_is_kkt_solution_of_final_active_set(self, seed):
        rng = RandomSource(118, stream=seed + 1)
        problem, _ = sparse_instance(12, 30, 3, rng)
        a, x = problem.mixing, problem.observation
        top = float(np.max(self.detector(problem, np.zeros(30))))
        schedule = [0.8 * top * 0.5**l for l in range(4)]
        s, report = ide(problem, schedule=schedule)
        assert report.flags == []
        previous, _ = ide(problem, schedule=schedule[:-1])
        active = self.detector(problem, previous) >= schedule[-1]
        a_a, a_i = a[:, active], a[:, ~active]
        p_mat = a_i @ a_i.T
        core = a_a.T @ np.linalg.solve(p_mat, a_a)
        kkt = np.zeros(30)
        kkt[active] = np.linalg.solve(core, a_a.T @ np.linalg.solve(p_mat, x))
        kkt[~active] = a_i.T @ np.linalg.solve(p_mat, x - a_a @ kkt[active])
        assert np.linalg.norm(s - kkt) <= 1e-9 * np.linalg.norm(kkt)

    @pytest.mark.parametrize("seed", range(6))
    def test_more_active_sources_than_rows_raises_both_flags(self, seed):
        rng = RandomSource(119, stream=seed + 1)
        a = rng.standard_normal((6, 10))
        problem = SparseProblem(mixing=a, observation=rng.standard_normal(6))
        levels = np.sort(self.detector(problem, np.zeros(10)))
        s, report = ide(problem, schedule=[0.5 * (levels[1] + levels[2])])  # 8 active
        assert "ridge-regularized inactive Gram" in report.flags
        assert "rank-deficient active block solved by least squares" in report.flags
        assert np.all(np.isfinite(s))
        # the ridged P is near singular, yet the estimate stays feasible
        assert np.linalg.norm(a @ s - problem.observation) <= 1e-7 * np.linalg.norm(
            problem.observation)

    @staticmethod
    def widely_scaled_problem():
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 16))
        a[:, :4] *= 1e4
        s = np.zeros(16)
        s[rng.choice(16, 3, replace=False)] = rng.standard_normal(3)
        return SparseProblem(a, a @ s)

    def test_widely_scaled_columns_rebuild_the_inactive_gram(self):
        # the downdate A A' - A_a A_a' cancels when column scales differ by
        # 1e4, and its Cholesky fails; P is rebuilt as A_i A_i' and ridged
        problem = self.widely_scaled_problem()
        s, report = ide(problem)
        assert np.all(np.isfinite(s))
        assert report.converged
        assert 0 < report.flags.count("ridge-regularized inactive Gram") <= report.iterations

    def test_unrepairable_inactive_gram_raises_numeric_error(self, monkeypatch):
        import sparsekit.sca as sca_module

        monkeypatch.setattr(sca_module, "_positive_definite", lambda p_mat: False)
        with pytest.raises(NumericError, match="positive definite"):
            ide(self.widely_scaled_problem())

    def test_equally_sparse_passes_keep_the_earliest_start_fraction(self):
        # noisy instances: several passes end equally dense, and all are
        # feasible with final residuals at rounding level
        ties = 0
        for t in range(8):
            problem = bernoulli_gaussian_problem(
                32, 64, RandomSource(120, stream=t + 1), sigma_noise=0.01)
            bound = 1e-7 * max(float(np.linalg.norm(problem.observation)), 1.0)
            passes = [ide(problem, start_fractions=(f,)) for f in IDE_START_FRACTIONS]
            sizes = [detected_support(s).size if report.residuals[-1] <= bound else math.inf
                     for s, report in passes]
            winners = [i for i, size in enumerate(sizes) if size == min(sizes)]
            ties += len(winners) > 1
            estimate, _ = ide(problem)
            assert np.array_equal(estimate, passes[winners[0]][0]), f"instance {t}"
        assert ties > 0


class TestSl0:
    def test_feasible_at_every_iterate(self):
        rng = RandomSource(106)
        problem, _ = sparse_instance(10, 20, 2, rng)
        s, report = sl0(problem)
        x_norm = np.linalg.norm(problem.observation)
        assert np.all(np.array(report.residuals) < 1e-8 * max(x_norm, 1.0))

    def test_oracle_rate(self):
        rate = oracle_agreement(
            lambda p: sl0(p, sigma_ratio=0.9, sigma_steps=120, mu=1.5), 2,
            seed_base=300,
        )
        assert rate >= 95

    def test_surrogate_counts_zeros_in_the_limit(self):
        rng = RandomSource(108)
        problem, support = sparse_instance(10, 20, 2, rng)
        s, _ = sl0(problem)
        nonzero = np.abs(s[detected_support(s)])
        sigma = 1e-6 * nonzero.min()
        surrogate = np.sum(np.exp(-(s**2) / (2 * sigma**2)))
        assert abs(surrogate - (20 - len(detected_support(s)))) < 1e-6

    def test_increasing_sigma_rejected(self):
        rng = RandomSource(109)
        problem, _ = sparse_instance(6, 12, 2, rng)
        with pytest.raises(ValueError):
            sl0(problem, sigma_seq=[0.1, 0.5])

    def test_singular_gram_projects_by_minimum_norm(self):
        # rank-1 mixing: A A' is singular, and every s with sum(s) = 1 is
        # feasible for x = A e_0; the minimum-norm point 1/16 stays put
        a = np.ones((8, 16))
        x = a[:, 0].copy()
        s, report = sl0(SparseProblem(a, x))
        assert np.all(np.isfinite(s))
        assert np.linalg.norm(a @ s - x) <= 1e-8 * np.linalg.norm(x)
        assert abs(np.sum(np.abs(s)) - 1.0) < 1e-12
        assert report.flags == ["singular Gram: minimum-norm projection"]


class TestConvergedMeansFeasible:
    @pytest.mark.parametrize("solver", [focuss, ide, sl0], ids=lambda f: f.__name__)
    def test_infeasible_end_is_not_converged(self, solver):
        # rank 1 with unequal column scales: x = 0..7 is off the range of A,
        # so every solver ends at the least-squares residual 6.48
        a = np.ones((8, 16))
        a[:, ::2] *= 2
        x = np.arange(8.0)
        _, report = solver(SparseProblem(mixing=a, observation=x))
        assert report.residuals[-1] > 0.5 * np.linalg.norm(x)
        assert not report.converged

    @pytest.mark.parametrize("solver", [focuss, ide, sl0], ids=lambda f: f.__name__)
    def test_feasible_end_is_converged(self, solver):
        rng = RandomSource(121)
        problem, _ = sparse_instance(12, 30, 3, rng)
        s, report = solver(problem)
        assert np.linalg.norm(problem.mixing @ s - problem.observation) <= 1e-7 * max(
            np.linalg.norm(problem.observation), 1.0)
        assert report.converged


class TestRip:
    def test_orthonormal_columns_zero(self):
        rng = RandomSource(110)
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        for k in (1, 2, 3, 4):
            assert rip_constant(q, k).delta < 1e-12

    def test_enumeration_deterministic(self):
        rng = RandomSource(111)
        a = rng.standard_normal((6, 10))
        first = rip_constant(a, 2)
        second = rip_constant(a, 2)
        assert first.delta == second.delta
        # direct re-enumeration oracle
        unit = a / np.linalg.norm(a, axis=0)
        best = 0.0
        for combo in itertools.combinations(range(10), 2):
            sv = np.linalg.svd(unit[:, combo], compute_uv=False)
            best = max(best, sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        assert abs(first.delta - best) < 1e-12

    def test_duplicated_column_degenerate(self):
        rng = RandomSource(112)
        a = rng.standard_normal((6, 5))
        a = np.hstack([a, a[:, :1]])
        assert rip_constant(a, 2).delta >= 1.0

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            rip_constant(np.ones((4, 50)), 25, budget=1000)

    def test_uniqueness_regime_all_solvers_recover(self):
        # delta_2k < 1 guarantees the k-sparse solution is unique; every
        # solver that returns a k-sparse feasible point must return it.
        # random Gaussian matrices only reach delta_2 < 1 at these sizes
        # once columns are normalized, so the check runs at k = 1
        rng = RandomSource(113)
        a = rng.standard_normal((10, 16))
        a = a / np.linalg.norm(a, axis=0)
        s_true = np.zeros(16)
        s_true[5] = 1.3
        problem = SparseProblem(mixing=a, observation=a @ s_true, true_source=s_true)
        assert rip_constant(a, 2).delta < 1.0
        recovered = 0
        for solver in (
            lambda p: matching_pursuit(p, k_max=1, orthogonal=True),
            basis_pursuit,
            lambda p: focuss(p, iters=25),
            ide,
            lambda p: sl0(p, sigma_ratio=0.9, sigma_steps=120, mu=1.5),
        ):
            s, _ = solver(problem)
            if len(detected_support(s)) == 1 and np.linalg.norm(
                problem.mixing @ s - problem.observation
            ) < 1e-6:
                assert np.max(np.abs(s - problem.true_source)) < 1e-6
                recovered += 1
        assert recovered == 5


class TestBernoulliGaussian:
    def test_defaults_and_consistency(self):
        rng = RandomSource(114)
        problem = bernoulli_gaussian_problem(8, 2000, rng)
        active = np.abs(problem.true_source) > 0.1
        expected = 0.1 * 2000
        assert abs(active.sum() - expected) <= 3 * math.sqrt(2000 * 0.1 * 0.9)

    def test_noiseless_in_range(self):
        rng = RandomSource(115)
        problem = bernoulli_gaussian_problem(6, 30, rng, sigma_noise=0.0)
        assert np.linalg.norm(
            problem.mixing @ problem.true_source - problem.observation
        ) < 1e-12

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            bernoulli_gaussian_problem(4, 8, RandomSource(116), p=1.5)
