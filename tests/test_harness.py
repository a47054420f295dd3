"""Experiment registry, CLI, manifests, and reproducibility contracts."""

import ast
import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sparsekit
from sparsekit import core, experiments, spectral
from sparsekit.cli import main as cli_main
from sparsekit.core import RandomSource, blas_threads
from sparsekit.experiments import (
    REGISTRY,
    ExperimentSpec,
    list_experiments,
    resolve_config,
    run_experiment,
)

REQUIRED_IDS = {"fig4", "fig6", "fig7", "fig10", "fig15", "fig17", "fig18",
                "fig20", "fig31", "fig32", "fig39", "fig40"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRegistry:
    def test_all_required_ids_registered(self):
        assert REQUIRED_IDS <= set(REGISTRY)

    def test_listing_mentions_key_scenarios(self):
        listing = {e["id"]: e for e in list_experiments()}
        assert "erasure" in listing["fig10"]["description"]
        assert "SER" in listing["fig39"]["description"]

    def test_every_id_round_trips_through_validator(self):
        for entry in list_experiments():
            definition, config, trials = resolve_config(
                ExperimentSpec(experiment_id=entry["id"])
            )
            assert config == entry["defaults"]
            assert trials == entry["trials"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            resolve_config(ExperimentSpec(experiment_id="fig99"))

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            resolve_config(
                ExperimentSpec(experiment_id="fig4", overrides={"bogus": 1})
            )

    def test_every_registry_default_passes_its_own_check(self):
        for experiment_id, definition in REGISTRY.items():
            _, config, _ = resolve_config(
                ExperimentSpec(experiment_id, overrides=dict(definition.defaults)))
            assert config == definition.defaults

    @pytest.mark.parametrize("experiment_id,key,value", [
        ("fig4", "osr", 2),  # a float parameter takes an int
        ("fig6", "rate_factors", [2.5, 3]),  # ints and floats mix in a list
        ("fig39", "cnr_grid_db", [20]),
    ])
    def test_override_of_a_fitting_type_accepted(self, experiment_id, key, value):
        _, config, _ = resolve_config(ExperimentSpec(experiment_id, overrides={key: value}))
        assert config[key] == value

    @pytest.mark.parametrize("experiment_id,key,value,expected", [
        ("fig4", "n", "abc", "an integer"),
        ("fig4", "n", True, "an integer"),
        ("fig4", "n", 64.0, "an integer"),
        ("fig4", "osr", False, "a number"),
        ("fig4", "osr", "1.0", "a number"),
        ("fig39", "constellation", 16, "a string"),
        ("fig6", "rate_factors", [], "a non-empty list of numbers"),
        ("fig6", "rate_factors", 2, "a non-empty list of numbers"),
        ("fig6", "rate_factors", [2, "x"], "a non-empty list of numbers"),
        ("fig6", "rate_factors", [2, True], "a non-empty list of numbers"),
    ])
    def test_override_of_the_wrong_type_rejected(self, experiment_id, key, value, expected):
        with pytest.raises(ValueError) as caught:
            resolve_config(ExperimentSpec(experiment_id, overrides={key: value}))
        assert str(caught.value) == (f"parameter {key!r} of {experiment_id} takes {expected}, "
                                     f"got {value!r}")

    @pytest.mark.parametrize("trials", [0, -3, "ten"])
    def test_trials_below_one_rejected_before_any_file(self, trials, tmp_path):
        # a run of no trials would average nothing: fig18 wrote NaN rows
        # and fig31 divided by zero
        with pytest.raises(ValueError,
                           match=f"^trials must be an integer >= 1, got {trials!r}$"):
            run_experiment(ExperimentSpec("fig18", trials=trials, out_dir=str(tmp_path)))
        assert os.listdir(tmp_path) == []


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == sparsekit.__version__


class TestRunExperiment:
    def test_fig10_writes_csv_and_manifest(self, tmp_path):
        spec = ExperimentSpec(
            experiment_id="fig10", seed=3, trials=3, out_dir=str(tmp_path),
            overrides={"scatter_max": 2},
        )
        manifest = run_experiment(spec)
        rows = read_csv(tmp_path / "fig10.csv")
        assert rows[0] == ["kind", "erasures", "snr_dft_db", "snr_sdft_db"]
        assert len(rows) == 1 + 16 + 2
        with open(tmp_path / "fig10_manifest.json") as fh:
            data = json.load(fh)
        assert data["experiment_id"] == "fig10"
        assert data["toolkit_version"] == sparsekit.__version__
        assert data["outputs"] == manifest.outputs
        assert data["config"]["params"]["scatter_max"] == 2

    def test_byte_identical_reruns(self, tmp_path):
        for d in ("a", "b"):
            os.makedirs(tmp_path / d)
        spec_a = ExperimentSpec("fig4", seed=7, trials=2, out_dir=str(tmp_path / "a"),
                                overrides={"iterations": 10})
        spec_b = ExperimentSpec("fig4", seed=7, trials=2, out_dir=str(tmp_path / "b"),
                                overrides={"iterations": 10})
        m_a = run_experiment(spec_a)
        m_b = run_experiment(spec_b)
        assert m_a.outputs == m_b.outputs
        assert (tmp_path / "a" / "fig4.csv").read_bytes() == (
            tmp_path / "b" / "fig4.csv"
        ).read_bytes()

    def test_fig31_row_count_schema(self, tmp_path):
        spec = ExperimentSpec(
            "fig31", seed=1, trials=3, out_dir=str(tmp_path),
            overrides={"sigma_grid": [0.01, 0.1], "n": 20, "m": 10},
        )
        run_experiment(spec)
        rows = read_csv(tmp_path / "fig31.csv")
        assert rows[0] == ["solver", "n", "m", "k_true", "sigma_nu", "seed",
                           "support_ok", "mse", "seconds"]
        assert len(rows) == 1 + 5 * 2  # solvers x sigma grid

    def test_benchmark_deterministic_apart_from_timing(self, tmp_path):
        outputs = []
        for d in ("a", "b"):
            os.makedirs(tmp_path / d)
            run_experiment(ExperimentSpec(
                "fig31", seed=5, trials=2, out_dir=str(tmp_path / d),
                overrides={"sigma_grid": [0.01], "n": 20, "m": 10},
            ))
            rows = read_csv(tmp_path / d / "fig31.csv")
            outputs.append([row[:-1] for row in rows])  # drop the seconds column
        assert outputs[0] == outputs[1]

    def test_fig18_emits_pseudospectrum_csv(self, tmp_path):
        run_experiment(ExperimentSpec(
            "fig18", seed=2, trials=2, out_dir=str(tmp_path),
            overrides={"grid_points": 256, "samples": 256},
        ))
        rows = read_csv(tmp_path / "fig18_pseudospectrum.csv")
        assert rows[0] == ["frequency", "power"]
        assert len(rows) == 1 + 256
        errors = read_csv(tmp_path / "fig18_errors.csv")
        assert {r[0] for r in errors[1:]} == {"prony", "pisarenko", "music"}


def _recorded_heights(monkeypatch):
    """Make experiments._stacks record its stack heights: one list per
    call, in call order."""
    calls, stacks = [], experiments._stacks

    def recording(sources, row_bytes):
        heights = []
        calls.append(heights)
        for stack in stacks(sources, row_bytes):
            heights.append(len(stack))
            yield stack

    monkeypatch.setattr(experiments, "_stacks", recording)
    return calls


class TestStacks:
    """Every stacked runner cuts a grid point's trials into the stacks of
    experiments._stacks: at most _STACK_BYTES // row_bytes rows each."""

    def test_heights(self, monkeypatch):
        monkeypatch.setattr(experiments, "_STACK_BYTES", 1000)

        def heights(count, row_bytes):
            return [len(stack) for stack in experiments._stacks(range(count), row_bytes)]

        assert list(experiments._stacks(range(7), 300)) == [[0, 1, 2], [3, 4, 5], [6]]
        assert heights(25, 100) == [10, 10, 5]
        assert heights(20, 100) == [10, 10]
        assert heights(0, 100) == []
        assert heights(3, 1001) == [1, 1, 1]  # a row above the budget stacks alone
        assert heights(2, 10**12) == [1, 1]

    def test_fig7_draws_no_source_past_its_last_stack(self, monkeypatch):
        built, source = [], experiments.RandomSource

        def counting(seed, stream):
            built.append(stream)
            return source(seed, stream)

        monkeypatch.setattr(experiments, "RandomSource", counting)
        calls = _recorded_heights(monkeypatch)
        definition = REGISTRY["fig7"]
        trials = definition.default_trials
        definition.runner({**definition.defaults, "k_values": [4]}, 11, trials)
        solved = [sum(heights) for heights in calls]
        assert len(built) == sum(solved)
        assert min(solved) < trials  # some sample count stopped before its last trial

    # reduced sizes at which each runner spans three stacks or more
    MULTI_STACK_RUNS = {
        "fig4": (50, {"n": 256, "iterations": 10}),
        "fig6": (11, {"n": 1024, "rate_factors": [2, 4], "iterations": 10}),
        "fig7": (20, {"k_values": [4]}),
        "fig10": (80, {"l": 124, "p": 4, "sdft_q": 5, "scatter_max": 2}),
        "fig15": (70, {"input_length": 200, "rates": [0.3, 0.7]}),
        "fig17": (80, {"variance_ratios": [5]}),
        "fig18": (15, {"samples": 4096, "grid_points": 2048}),
        "fig20": (63, {"sensors": 16, "snapshots": 50, "snr_grid_db": [0, 10]}),
    }

    @pytest.mark.parametrize("experiment_id", sorted(MULTI_STACK_RUNS))
    def test_outputs_do_not_depend_on_the_stack_height(self, experiment_id, tmp_path,
                                                       monkeypatch):
        trials, overrides = self.MULTI_STACK_RUNS[experiment_id]
        calls = _recorded_heights(monkeypatch)

        def run(out):
            calls.clear()
            run_experiment(ExperimentSpec(experiment_id, seed=11, trials=trials,
                                          out_dir=str(tmp_path / out), overrides=overrides))
            return [len(heights) for heights in calls]

        assert max(run("stacks")) >= 3
        monkeypatch.setattr(experiments, "_STACK_BYTES", 2**62)
        assert set(run("one")) == {1}
        names = sorted(name for name in os.listdir(tmp_path / "one") if name.endswith(".csv"))
        assert names
        for name in names:
            stacked, one = (tmp_path / "stacks" / name), (tmp_path / "one" / name)
            assert stacked.read_bytes() == one.read_bytes()

    @pytest.mark.parametrize("experiment_id", ["fig39", "fig40"])
    def test_ofdm_outputs_do_not_depend_on_the_stack_height(self, experiment_id, tmp_path,
                                                            monkeypatch):
        # 1-row stacks against one stack per CNR point; fig40's drift runs
        # block by block either way
        trials, overrides = 5, {"cnr_grid_db": [15.0, 25.0]}
        calls = _recorded_heights(monkeypatch)

        def run(out, budget):
            monkeypatch.setattr(experiments, "_STACK_BYTES", budget)
            calls.clear()
            run_experiment(ExperimentSpec(experiment_id, seed=11, trials=trials,
                                          out_dir=str(tmp_path / out), overrides=overrides))
            return {height for heights in calls for height in heights}

        assert run("rows", 1) == {1}
        assert run("one", 2**62) == {trials}
        name = f"{experiment_id}.csv"
        assert (tmp_path / "rows" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    @pytest.mark.parametrize("experiment_id, overrides, rows", [
        ("fig15", {"input_length": 200, "rates": [0.5]}, 33),
        ("fig17", {"variance_ratios": [5]}, 37),
    ])
    def test_working_set_does_not_grow_with_trials(self, experiment_id, overrides, rows,
                                                    monkeypatch):
        definition = REGISTRY[experiment_id]
        params = {**definition.defaults, **overrides}
        definition.runner(params, 11, 2)  # first-call allocations stay out of the peaks
        calls = _recorded_heights(monkeypatch)

        def peak(trials):
            tracemalloc.start()
            try:
                definition.runner(params, 11, trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(rows), peak(4 * rows)
        assert calls == [[rows], [rows] * 4]
        assert four - one < experiments._STACK_BYTES


class TestFig18Stacks:
    """fig18 solves its trials in consecutive stacks, each method one call
    per stack."""

    def test_errors_equal_one_trial_calls(self, tmp_path):
        seed, trials, grid_points = 5, 33, 256  # two stacks: 30 rows and 3
        run_experiment(ExperimentSpec("fig18", seed=seed, trials=trials, out_dir=str(tmp_path),
                                      overrides={"grid_points": grid_points}))
        params = REGISTRY["fig18"].defaults
        tones, k = experiments.FIG18_TONES, experiments.FIG18_TONES.k
        clean, grid = tones.synthesize(params["samples"]), spectral.default_grid(grid_points)
        errors = {"prony": [], "pisarenko": [], "music": []}
        for t in range(trials):
            y = experiments._fig18_noisy(clean, params["snr_db"], RandomSource(seed, stream=t + 1))
            estimates = {
                "prony": spectral.prony(y[: 2 * k], k).frequencies.real,
                "pisarenko": spectral.pisarenko(spectral.sample_covariance(y, k + 1), k)[0],
                "music": spectral.music(
                    spectral.sample_covariance(y, params["music_dimension"]), k, grid)[1],
            }
            for name, estimate in estimates.items():
                errors[name].append(experiments._fig18_error(estimate, tones.frequencies))
        expected = [["method", "median_freq_error", "mean_freq_error"]] + [
            [name, repr(float(np.median(values))), repr(float(np.mean(values)))]
            for name, values in errors.items()
        ]
        assert read_csv(tmp_path / "fig18_errors.csv") == expected


class TestStreamLedger:
    """Runners draw every trial from a stream that no other grid point of
    the run draws; a shared stream raises before the second point starts."""

    def test_a_stream_claimed_by_two_points_raises(self):
        ledger = experiments._StreamLedger(3)
        sources = list(ledger.claim("a", [1, 2]))
        assert [(rng.seed, rng.stream) for rng in sources] == [(3, 1), (3, 2)]
        assert sources[1].standard_normal() == RandomSource(3, 2).standard_normal()
        next(ledger.claim("a", [2]))  # one point may draw a stream again
        with pytest.raises(ValueError, match="^grid points a and b both draw stream 2$"):
            ledger.claim("b", [3, 2])

    def test_fig7_at_35_trials_raises(self, tmp_path):
        # stream 7_000_000 + 1000 k + 17 m + t repeats 34 trials later at m + 2
        with pytest.raises(ValueError, match="^grid points k=4, m=8 and k=4, m=10 both draw"
                                             " stream 7004170$"):
            run_experiment(ExperimentSpec("fig7", seed=11, trials=35, out_dir=str(tmp_path)))

    def test_fig20_at_snr_points_that_truncate_alike_raises(self, tmp_path):
        # int(snr) truncates both points to -2
        with pytest.raises(ValueError, match="^grid points -2.5 dB and -2 dB both draw"
                                             " stream 98000$"):
            run_experiment(ExperimentSpec("fig20", seed=11, out_dir=str(tmp_path),
                                          overrides={"snr_grid_db": [-2.5, -2]}))

    @pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
    def test_registry_defaults_draw_distinct_streams(self, experiment_id, monkeypatch):
        # a runner claims its streams whatever its solvers return, so the
        # costly solves of fig31, fig32 (every BENCH_SOLVERS solve) and of
        # fig39, fig40 (MIMAT) are stubbed; fig7, whose sample-count sweep
        # depends on its outcomes, runs unstubbed
        from sparsekit import ofdm

        monkeypatch.setattr(experiments, "_bench_trial",
                            lambda *args: (0, [(0.0, True, 0.0)] * len(experiments.BENCH_SOLVERS)))
        monkeypatch.setattr(ofdm, "estimate_mimat",
                            lambda rx, cfg, snr_linear: (None, ofdm.estimate_linear(rx, cfg), None))
        claims = []
        claim = experiments._StreamLedger.claim

        def recording(ledger, label, streams):
            claims.append(label)
            return claim(ledger, label, streams)

        monkeypatch.setattr(experiments._StreamLedger, "claim", recording)
        definition = REGISTRY[experiment_id]
        definition.runner(dict(definition.defaults), 11, definition.default_trials)
        assert claims


class TestTrialFanOut:
    """fig31 and fig32 spread their solves over an (n, sigma, trial) grid,
    solved in grid order in the calling process."""

    def test_rows_sum_the_trials_in_grid_order(self):
        n_grid, sigma_grid, trials, seed = [20, 24], [0.01, 0.1], 3, 4
        rows = experiments._bench_rows(n_grid, lambda n: n // 2, sigma_grid, trials, seed,
                                       0.1, 1.0, 0.01)
        expected = []
        for n_index, n in enumerate(n_grid):
            for s_index, sigma_nu in enumerate(sigma_grid):
                mse, ok, k_true = [0.0] * 5, [0] * 5, 0
                for t in range(trials):
                    rng = RandomSource(seed, stream=(n_index * 64 + s_index) * 10_000 + t)
                    k, outcomes = experiments._bench_trial(rng, n // 2, n, 0.1, 1.0, 0.01,
                                                           sigma_nu)
                    k_true += k
                    for i, (nmse, found, _) in enumerate(outcomes):
                        mse[i] += nmse
                        ok[i] += found
                expected += [(name, n, n // 2, round(k_true / trials, 2), sigma_nu, seed,
                              ok[i] / trials, mse[i] / trials)
                             for i, name in enumerate(experiments.BENCH_SOLVERS)]
        assert [row[:-1] for row in rows] == expected

    @pytest.mark.parametrize("experiment_id,overrides", [
        ("fig31", {"sigma_grid": [0.01, 0.1], "n": 20, "m": 10}),
        ("fig32", {"n_grid": [16, 24]}),
    ], ids=["fig31", "fig32"])
    def test_every_solve_runs_in_the_calling_process(self, tmp_path, monkeypatch,
                                                     experiment_id, overrides):
        pids, solve = [], experiments._bench_solve

        def recording_solve(name, problem):
            pids.append(os.getpid())
            return solve(name, problem)

        monkeypatch.setattr(experiments, "_bench_solve", recording_solve)
        run_experiment(ExperimentSpec(experiment_id, seed=11, trials=2, out_dir=str(tmp_path),
                                      overrides=overrides))
        rows = read_csv(tmp_path / f"{experiment_id}.csv")[1:]
        assert len(rows) == 2 * len(experiments.BENCH_SOLVERS)
        assert pids == [os.getpid()] * (2 * len(rows))


def test_manifest_records_the_environment(tmp_path):
    manifest = run_experiment(ExperimentSpec("fig4", seed=7, trials=2, out_dir=str(tmp_path),
                                             overrides={"iterations": 10}))
    with open(tmp_path / "fig4_manifest.json") as fh:
        environment = json.load(fh)["environment"]
    assert environment == manifest.environment
    assert set(environment) == {"blas_threads", "blas", "nproc", "OMP_NUM_THREADS",
                                "OPENBLAS_NUM_THREADS", "python", "numpy"}
    assert environment["blas_threads"] == (None if core._openblas() is None else 1)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment["blas"] == f"{blas['name']} {blas['version']}"
    assert environment["numpy"] == np.__version__


def test_manifest_blas_is_null_when_numpy_does_not_name_it(tmp_path, monkeypatch):
    def old_show_config(mode):  # a build whose config names no BLAS
        return {"Build Dependencies": {}}

    monkeypatch.setattr(np, "show_config", old_show_config)
    manifest = run_experiment(ExperimentSpec("fig4", seed=7, trials=1, out_dir=str(tmp_path),
                                             overrides={"iterations": 2}))
    assert manifest.environment["blas"] is None


def test_run_experiment_restores_the_callers_blas_threads(tmp_path):
    if core._openblas() is None:
        pytest.skip("numpy's OpenBLAS not found")
    with blas_threads(2):
        run_experiment(ExperimentSpec("fig4", seed=7, trials=1, out_dir=str(tmp_path),
                                      overrides={"iterations": 5}))
        assert core._openblas()[1]() == 2


class TestImatStackBound:
    """fig6 and fig7 solve their trials in imat stacks of at most
    _STACK_BYTES // (176 n + 8192) rows, an imat row's measured cost. Row
    counts only, no timing."""

    @staticmethod
    def _stack_rows(monkeypatch, experiment_id, trials, overrides):
        from sparsekit import sampling

        solve, rows = sampling.imat, []

        def counting(observed, *args, **kwargs):
            rows.append(np.shape(observed)[0] if np.ndim(observed) == 2 else 1)
            return solve(observed, *args, **kwargs)

        monkeypatch.setattr(sampling, "imat", counting)
        definition = REGISTRY[experiment_id]
        definition.runner({**definition.defaults, **overrides}, 11, trials)
        return rows

    @pytest.mark.parametrize("experiment_id, trials, overrides", [
        ("fig6", None, {}),
        ("fig6", 20, {"n": 1024}),
        ("fig6", 70, {}),
        ("fig7", None, {"k_values": [4]}),
    ], ids=["fig6-defaults", "fig6-n1024", "fig6-70-trials", "fig7-defaults-k4"])
    def test_stacks_stay_within_the_row_bound(self, monkeypatch, experiment_id, trials,
                                              overrides):
        definition = REGISTRY[experiment_id]
        trials = definition.default_trials if trials is None else trials
        n = {**definition.defaults, **overrides}["n"]
        bound = experiments._STACK_BYTES // (176 * n + 8192)
        rows = self._stack_rows(monkeypatch, experiment_id, trials, overrides)
        assert rows and max(rows) <= bound
        assert max(rows) == min(bound, trials)  # a stack is as tall as allowed

    def test_fig7_starts_no_stack_after_its_sample_count_is_decided(self, monkeypatch):
        from sparsekit import experiments

        count_wins, outcomes = experiments._fig7_wins, []

        def recording(n, k, m, streams):
            wins = count_wins(n, k, m, streams)
            outcomes.append((m, wins))
            return wins

        monkeypatch.setattr(experiments, "_fig7_wins", recording)
        trials = REGISTRY["fig7"].default_trials
        rows = self._stack_rows(monkeypatch, "fig7", trials, {"k_values": [4]})
        need = math.ceil(0.8 * trials)
        tally = {}  # sample count -> (wins, losses) before its next stack
        for height, (m, wins) in zip(rows, outcomes, strict=True):
            won, lost = tally.get(m, (0, 0))
            assert won < need and lost <= trials - need, f"a stack started after m={m} was decided"
            tally[m] = (won + wins, lost + height - wins)
        assert sum(rows) < trials * len(tally)  # some sample count stopped early


class TestCli:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for required in REQUIRED_IDS:
            assert required in out

    def test_run_with_flags_and_env_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPARSEKIT_OUT", str(tmp_path))
        code = cli_main(["run", "fig10", "--seed", "9", "--trials", "2",
                         "--set", "scatter_max=1"])
        assert code == 0
        assert (tmp_path / "fig10.csv").exists()
        printed = json.loads(capsys.readouterr().out)
        assert printed["experiment"] == "fig10"

    def test_run_with_spec_file_and_cli_override(self, tmp_path, capsys):
        spec_file = tmp_path / "run.yaml"
        spec_file.write_text(
            "experiment: fig10\nseed: 4\ntrials: 2\n"
            f"out: {tmp_path}\nparams:\n  scatter_max: 3\n"
        )
        code = cli_main(["run", "--spec", str(spec_file), "--set", "scatter_max=1"])
        assert code == 0
        with open(tmp_path / "fig10_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 4
        assert manifest["config"]["params"]["scatter_max"] == 1  # flag wins

    def test_unknown_experiment_exit_code(self, tmp_path, capsys):
        assert cli_main(["run", "fig99", "--out", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3", "ten"])
    def test_trials_below_one_exit_code(self, trials, tmp_path, capsys):
        spec_file = tmp_path / "run.yaml"
        spec_file.write_text(f"experiment: fig18\ntrials: {trials}\n")
        out = tmp_path / "out"
        argv = (["run", "--spec", str(spec_file)] if trials == "ten"
                else ["run", "fig18", "--trials", trials])
        assert cli_main(argv + ["--out", str(out)]) == 2
        expected = "'ten'" if trials == "ten" else trials
        assert capsys.readouterr().err == f"error: trials must be an integer >= 1, got {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["fig4", "--set", "n=abc"], "parameter 'n' of fig4 takes an integer, got 'abc'"),
        (["fig6", "--set", "iterations=0"], "fig6.csv would hold no data rows; "
                                            "check the parameters of fig6"),
        (["fig4", "--set", "n=["], "--set n is not valid YAML: expected the node content, "
                                   "but found '<stream end>' at line 1, column 2"),
        (["fig4", "--set", "n"], "--set expects key=value, got 'n'"),
    ], ids=["wrong type", "no data rows", "invalid yaml", "no equals sign"])
    def test_bad_override_exit_code(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", *argv, "--trials", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("experiment: fig4\nseed: abc\n", "seed must be an integer, got 'abc'"),
        (None, "cannot read spec file"),
        ("experiment: fig4\nparams: [1, 2]\n", "params must be a mapping, got [1, 2]"),
        ("experiment: [fig4", "is not valid YAML"),
    ], ids=["seed", "missing file", "params", "invalid yaml"])
    def test_bad_spec_file_exit_code(self, text, message, tmp_path, capsys):
        spec_file = tmp_path / "run.yaml"
        if text is not None:
            spec_file.write_text(text)
        out = tmp_path / "out"
        argv = ["run", "--spec", str(spec_file), "--trials", "1", "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()


def test_a_cli_run_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing the CLI and running an
    # experiment, manifest included, loads none of it
    src = os.path.dirname(os.path.dirname(sparsekit.__file__))
    probe = ("import sys, sparsekit.cli\n"
             "from sparsekit.experiments import ExperimentSpec, run_experiment\n"
             "run_experiment(ExperimentSpec('fig4', trials=1, out_dir=sys.argv[1]))\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "fig4_manifest.json").exists()


def test_runtime_imports_are_the_declared_dependencies():
    """Every package outside the standard library that a sparsekit module
    imports, at top level or inside a function, is a [project] dependency,
    and every dependency is imported."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    import_names = {"PyYAML": "yaml"}
    declared = {import_names.get(name, name)
                for name in (re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared)}
    imported = set()
    for module in pkgutil.iter_modules(sparsekit.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"sparsekit.{module.name}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared


def test_no_module_starts_a_process():
    """Every runner solves in the calling process, where a tracer and the
    process's own peak RSS see its work: no module imports multiprocessing
    or concurrent.futures, or names fork or prctl."""
    sites = []
    for module in pkgutil.iter_modules(sparsekit.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"sparsekit.{module.name}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any(name.startswith(("multiprocessing", "concurrent"))
                   or name in ("fork", "prctl") for name in names):
                sites.append(f"{module.name}:{node.lineno}")
    assert sites == []


class _ReadRecorder(dict):
    """Parameter dict that records every key a runner reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_every_registry_parameter_is_read(experiment_id):
    # a parameter its runner never reads would be a dead --set option
    definition = REGISTRY[experiment_id]
    params = _ReadRecorder(definition.defaults)
    definition.runner(params, 3, 1)
    assert params.read == set(definition.defaults)


def _unread_parameters(function):
    """Parameters of an ast function node that no name load in its body
    (nested functions and lambdas included) reads."""
    args = function.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    loads = {node.id for node in ast.walk(function)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in loads]


def _public_functions(tree):
    """Public top-level functions, and public methods (plus __init__) of
    public classes, as (qualified name, ast node)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        not item.name.startswith("_") or item.name == "__init__"):
                    yield f"{node.name}.{item.name}", item


@pytest.mark.parametrize(
    "module_name", sorted(m.name for m in pkgutil.iter_modules(sparsekit.__path__)))
def test_every_public_parameter_is_read(module_name):
    # a parameter its function never reads is an option that does nothing
    module = importlib.import_module(f"sparsekit.{module_name}")
    tree = ast.parse(inspect.getsource(module))
    unread = [f"{name}({param})" for name, node in _public_functions(tree)
              for param in _unread_parameters(node)]
    assert unread == []


def _loaded_names(path):
    """Every name a source file loads: plain names, attributes and the
    names it imports from modules."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_is_used():
    """A public function or method (dunders aside) that no file in src/ or
    tests/ loads, as a name, an attribute or an import, is dead code.

    Uses are matched by bare name, so a dead function that shares its name
    with a live one passes: this is a lower bound on the dead code.
    """
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    files = [os.path.join(folder, name)
             for top in ("src", "tests")
             for folder, _, names in os.walk(os.path.join(root, top))
             for name in names if name.endswith(".py")]
    loaded = set().union(*map(_loaded_names, files))
    unused = []
    for module in pkgutil.iter_modules(sparsekit.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"sparsekit.{module.name}")))
        unused += [f"{module.name}.{name}" for name, node in _public_functions(tree)
                   if not node.name.startswith("__") and node.name not in loaded]
    assert unused == []


def _called(node):
    """The dotted name a call node calls, such as 'np.fft.fft', else None."""
    if not isinstance(node, ast.Call):
        return None
    parts, func = [], node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    return ".".join([func.id, *reversed(parts)]) if isinstance(func, ast.Name) else None


def test_only_core_scales_an_fft():
    """The unitary DFT's 1/sqrt(n) is written once, in core: no other module
    multiplies or divides an np.fft.fft or np.fft.ifft call by a math.sqrt
    call."""
    sites = []
    for module in pkgutil.iter_modules(sparsekit.__path__):
        if module.name == "core":
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(f"sparsekit.{module.name}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
                operands = {_called(node.left), _called(node.right)}
                if "math.sqrt" in operands and operands & {"np.fft.fft", "np.fft.ifft"}:
                    sites.append(f"{module.name}:{node.lineno}")
    assert sites == []
