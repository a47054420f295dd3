"""SCA solvers against the exhaustive l0 oracle, RIP, subspace modeling."""

import itertools
import math

import numpy as np
import pytest

from sparsekit.core import RandomSource, detected_support
from sparsekit.sca import (
    IDE_START_FRACTIONS,
    _min_norm_step,
    SparseProblem,
    basis_pursuit,
    bernoulli_gaussian_problem,
    focuss,
    ide,
    ksubspace_fit,
    matching_pursuit,
    rip_constant,
    simplex_solve,
    sl0,
    verify_reduced_costs,
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


class TestBasisPursuit:
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

    def test_infeasible_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        problem = SparseProblem(mixing=a, observation=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="infeasible"):
            basis_pursuit(problem)

    @pytest.mark.parametrize("shape", ["ones", "rank3"])
    def test_rank_deficient_consistent_system_reaches_the_l1_optimum(self, shape):
        # Phase 1 leaves artificials that no column can replace: each stands
        # for a redundant constraint, which must be dropped, not patched with
        # an arbitrary column into a singular basis.
        from scipy.optimize import linprog

        if shape == "ones":
            a = np.ones((8, 16))
            x = a[:, 0].copy()
        else:
            rng = RandomSource(120)
            a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 12))
            x = a @ np.r_[1.5, 0.0, 0.0, -0.7, np.zeros(8)]
        s, report = basis_pursuit(SparseProblem(mixing=a, observation=x))
        assert report.converged
        assert np.linalg.norm(a @ s - x) < 1e-9 * max(1.0, np.linalg.norm(x))
        n = a.shape[1]
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
            half = simplex_solve(np.ones(2 * n), eq, problem.observation)
            with monkeypatch.context() as patch:
                patch.setattr(sca_module, "_simplex_phase", full_tableau)
                full = simplex_solve(np.ones(2 * n), eq, problem.observation)
            assert half.iterations == full.iterations > 0
            assert half.basis == full.basis
            assert half.solution.tobytes() == full.solution.tobytes()

    def test_nearly_mirrored_lp_takes_the_generic_path(self, monkeypatch):
        # [E, -E + 1e-3 P] is not basis pursuit's split: it must be pivoted
        # column by column, and still reach the optimum
        from scipy.optimize import linprog

        import sparsekit.sca as sca_module

        rng = RandomSource(121)
        e = rng.standard_normal((8, 20))
        x = e @ np.r_[1.2, 0.0, -0.8, np.zeros(17)]
        mirrored = []
        phase = sca_module._simplex_phase
        monkeypatch.setattr(sca_module, "_simplex_phase",
                            lambda *args: mirrored.append(args[4]) or phase(*args))

        basis_pursuit(SparseProblem(mixing=e, observation=x))
        assert mirrored == [20, 20]

        mirrored.clear()
        eq = np.hstack([e, -e + 1e-3 * rng.standard_normal((8, 20))])
        result = simplex_solve(np.ones(40), eq, x)
        assert mirrored == [0, 0]
        reference = linprog(np.ones(40), A_eq=eq, b_eq=x, bounds=(0, None), method="highs")
        assert abs(result.objective - reference.fun) <= 1e-9 * max(reference.fun, 1.0)
        assert np.linalg.norm(eq @ result.solution - x) <= 1e-9 * np.linalg.norm(x)
        assert np.all(result.solution >= 0.0)

    def test_simplex_standalone(self):
        # min -x1 - 2 x2 s.t. x1 + x2 + u1 = 4, x1 + 3 x2 + u2 = 6
        cost = np.array([-1.0, -2.0, 0.0, 0.0])
        eq = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        rhs = np.array([4.0, 6.0])
        result = simplex_solve(cost, eq, rhs)
        assert abs(result.objective - (-5.0)) < 1e-10
        assert np.allclose(result.solution[:2], [3.0, 1.0], atol=1e-10)
        assert verify_reduced_costs(cost, eq, result.basis)


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

    def test_collapsed_weights_fall_back_to_lstsq(self, monkeypatch):
        x = np.array([0.3, 0.0, -1.2, 0.0])
        calls, lstsq = self._counting_lstsq(monkeypatch)
        weighted = np.eye(4) * x[None, :]
        step = _min_norm_step(weighted, x)
        assert calls == [1]
        reference, *_ = lstsq(weighted, x, rcond=None)
        assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))


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


class TestKSubspace:
    def test_single_subspace_least_squares(self):
        rng = RandomSource(117)
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        coords = rng.standard_normal((40, 2))
        data = coords @ basis.T
        bases, partition, info = ksubspace_fit(data, l=1, k=2)
        assert info["objective_trace"][-1] < 1e-12
        # recovered basis spans the same plane
        proj = bases[0] @ bases[0].T
        assert np.max(np.abs(data - data @ proj)) < 1e-10

    def test_two_planes_clean(self):
        rng = RandomSource(118)
        b1 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        b2 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        d1 = rng.standard_normal((30, 2)) @ b1.T
        d2 = rng.standard_normal((30, 2)) @ b2.T
        data = np.vstack([d1, d2])
        labels = np.r_[np.zeros(30, dtype=int), np.ones(30, dtype=int)]
        init = labels.copy()
        init[::7] = 1 - init[::7]  # corrupt the initial partition a little
        bases, partition, info = ksubspace_fit(data, l=2, k=2, initial_partition=init)
        assert info["objective_trace"][-1] < 1e-10
        agreement = max(
            np.mean(partition == labels), np.mean(partition == 1 - labels)
        )
        assert agreement == 1.0

    def test_empty_class_is_reseeded_and_flagged(self):
        # on exactly collinear data both classes fit the x axis with equal
        # distances, so argmin hands every point to class 0 and empties class 1
        data = np.array([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0], [4.0, 0.0], [0.5, 0.0]])
        for partition in (np.zeros(5, dtype=int), np.array([0, 0, 0, 0, 1])):
            bases, labels, info = ksubspace_fit(data, l=2, k=1, initial_partition=partition)
            assert set(info["flags"]) == {"re-seeded empty class 1"}
            assert len(bases) == 2 and np.array_equal(labels, np.zeros(5, dtype=int))
            assert info["objective_trace"][-1] == 0.0

    def test_noisy_objective_monotone(self):
        rng = RandomSource(119)
        b1 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        b2 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        data = np.vstack([
            rng.standard_normal((25, 2)) @ b1.T + 0.05 * rng.standard_normal((25, 3)),
            rng.standard_normal((25, 2)) @ b2.T + 0.05 * rng.standard_normal((25, 3)),
        ])
        _, _, info = ksubspace_fit(data, l=2, k=2)
        trace = np.array(info["objective_trace"])
        assert np.all(np.diff(trace) <= 1e-12)
