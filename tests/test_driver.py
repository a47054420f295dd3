"""The stacked-loop driver (core._LiveRows) over every solver it runs.

Each solver is called on a stack and on one signal. Its reports carry
Python types: residuals and snrs are lists of float, and iterations counts
the residuals. A one-signal call returns a 1-D estimate and one report, not
a one-row stack. No call writes to the caller's arrays, although the driver
hands out views of them while every row runs.
"""

import numpy as np
import pytest

from sparsekit.codes import (
    ConvCode,
    DftBlockCode,
    conv_encode,
    conv_erasure_decode,
    conv_impulsive_decode,
    elp_erasure_decode,
)
from sparsekit.core import RandomSource, SolverReport, SupportSet
from sparsekit.experiments import _sampled_instance, _sparse_time_instance
from sparsekit.sampling import (
    cg_accelerate,
    chebyshev_accelerate,
    conjugate_gradient,
    imat,
    iterative_reconstruct,
)

FIG15_CODE = ConvCode([1, 2, 3, 4, 5, 16], [16, 5, 4, 3, 2, 1])
BAND = SupportSet(np.arange(10, 18), 64)
# the operators of a CG stack: row 1's curvature vanishes at once
CG_MATRICES = np.array([np.eye(3), np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0])])


def _stack(instances):
    signals, observed, times = zip(*instances)
    return np.array(signals), np.array(observed), list(times)


def _masked():
    return _stack(_sampled_instance(64, BAND.indices, 16, RandomSource(seed)) for seed in range(4))


def _imat():
    # rows that converge, brake on a growing residual and run out of iterations
    return _stack(_sparse_time_instance(64, 4, 16, RandomSource(42, stream=t)) for t in range(7))


def _conv_erasures():
    streams, erasures = [], []
    for seed in range(3):
        rng = RandomSource(seed)
        y = conv_encode(rng.uniform(-1.0, 1.0, 20), FIG15_CODE)
        positions = np.sort(rng.choice(y.size, size=10 * seed + 5, replace=False))
        y[positions] = 0.0
        streams.append(y)
        erasures.append(SupportSet(positions, y.size))
    return np.array(streams), erasures


def _conv_impulses():
    streams = []
    for seed in range(3):
        rng = RandomSource(seed)
        y = conv_encode(rng.uniform(-1.0, 1.0, 20), FIG15_CODE)
        y[rng.choice(y.size, size=seed + 1, replace=False)] += 5.0
        streams.append(y)
    return np.array(streams)


def _block_erasures():
    code = DftBlockCode(l=16, p=16, q=15)
    received, erasures = [], []
    for seed in range(3):
        rng = RandomSource(seed)
        word = code.encode(rng.standard_normal(code.l))
        positions = np.sort(rng.choice(code.n, size=8, replace=False))
        word[positions] = 0.0
        received.append(word)
        erasures.append(SupportSet(positions, code.n))
    return code, np.array(received), erasures


def _cg_problem():
    return np.ones((3, 3)), np.full((3, 3), 0.5)


def _masked_run(solver):
    def run(inputs, row=None):
        signals, observed, times = inputs
        kwargs = dict(max_iters=300, eps=1e-3)
        if row is None:
            return solver(observed, times, BAND, reference=signals, **kwargs)
        return solver(observed[row], times[row], BAND, reference=signals[row], **kwargs)
    return run


def _imat_run(inputs, row=None):
    signals, observed, times = inputs
    kwargs = dict(max_iters=40, eps=1e-8)
    if row is None:
        estimates, _, reports = imat(observed, times, reference=signals, **kwargs)
    else:
        estimates, _, reports = imat(observed[row], times[row], reference=signals[row], **kwargs)
    return estimates, reports


def _cg_run(inputs, row=None):
    rhs, reference = inputs
    if row is None:
        return conjugate_gradient(
            lambda p, rows: np.matmul(CG_MATRICES[rows], p[:, :, None])[:, :, 0], rhs,
            reference=reference)
    return conjugate_gradient(lambda v: CG_MATRICES[row] @ v, rhs[row], reference=reference[row])


def _conv_erasure_run(inputs, row=None):
    streams, erasures = inputs
    if row is None:
        return conv_erasure_decode(streams, erasures, FIG15_CODE)
    return conv_erasure_decode(streams[row], erasures[row], FIG15_CODE)


def _conv_impulsive_run(inputs, row=None):
    (streams,) = inputs
    estimates, _, reports = conv_impulsive_decode(streams if row is None else streams[row],
                                                  FIG15_CODE, max_iters=60)
    return estimates, reports


# name: (inputs, run(inputs, row=None) -> (estimates, reports), runs with references)
SOLVERS = {
    "iterative_reconstruct": (_masked, _masked_run(iterative_reconstruct), True),
    "chebyshev_accelerate": (_masked, _masked_run(chebyshev_accelerate), True),
    "cg_accelerate": (_masked, _masked_run(cg_accelerate), True),
    "imat": (_imat, _imat_run, True),
    "conjugate_gradient": (_cg_problem, _cg_run, True),
    "conv_erasure_decode": (_conv_erasures, _conv_erasure_run, False),
    "conv_impulsive_decode": (lambda: (_conv_impulses(),), _conv_impulsive_run, False),
}


def assert_report_types(report, with_reference):
    assert type(report) is SolverReport
    assert type(report.residuals) is list and type(report.snrs) is list
    assert all(type(value) is float for value in report.residuals + report.snrs)
    assert type(report.iterations) is int and type(report.converged) is bool
    assert report.iterations == len(report.residuals)
    assert len(report.snrs) == (report.iterations if with_reference else 0)


class TestReportTypes:
    @pytest.mark.parametrize("name", SOLVERS)
    def test_stacked_and_solo_reports(self, name):
        make, run, with_reference = SOLVERS[name]
        inputs = make()
        estimates, reports = run(inputs)
        assert type(reports) is list and len(reports) == len(estimates) > 1
        for row, report in enumerate(reports):
            assert_report_types(report, with_reference)
            estimate, solo = run(inputs, row)
            assert type(estimate) is np.ndarray and estimate.shape == estimates.shape[1:]
            assert_report_types(solo, with_reference)
            assert (solo.residuals, solo.snrs, solo.iterations) == (
                report.residuals, report.snrs, report.iterations)

    def test_imat_braked_row_keeps_histories_to_its_best_iterate(self):
        _, reports = _imat_run(_imat())
        braked = [report for report in reports
                  if "residual grew for 3 iterations: kept best iterate" in report.flags]
        assert braked and len(braked) < len(reports)
        for report in braked:
            assert report.residuals[-1] == min(report.residuals)
            assert len(report.snrs) == report.iterations == len(report.residuals)

    def test_cg_row_with_vanished_curvature(self):
        _, reports = _cg_run(_cg_problem())
        assert reports[1].flags == ["curvature inner product vanished"]
        assert (reports[1].iterations, reports[1].residuals, reports[1].snrs) == (0, [], [])
        _, solo = _cg_run(_cg_problem(), 1)
        assert (solo.flags, solo.iterations, solo.snrs) == (reports[1].flags, 0, [])


def _arrays(inputs):
    """The ndarrays among inputs, with the indices of every SupportSet."""
    arrays = []
    for item in inputs:
        if isinstance(item, np.ndarray):
            arrays.append(item)
        else:
            arrays.extend(times.indices for times in item)
    return arrays


class TestCallerArraysUntouched:
    """Every stacked solver and its one-signal call leave the caller's
    arrays as they were, byte for byte."""

    @pytest.mark.parametrize("row", [None, 0], ids=["stack", "solo"])
    @pytest.mark.parametrize("name", [*SOLVERS, "elp_erasure_decode"])
    def test_inputs_keep_their_bytes(self, name, row):
        if name == "elp_erasure_decode":
            code, *inputs = _block_erasures()
            run = lambda inputs, row=None: elp_erasure_decode(  # noqa: E731
                inputs[0] if row is None else inputs[0][row],
                inputs[1] if row is None else inputs[1][row], code)
        else:
            make, run, _ = SOLVERS[name]
            inputs = make()
        before = [array.tobytes() for array in _arrays(inputs)]
        run(inputs, row)
        assert [array.tobytes() for array in _arrays(inputs)] == before
