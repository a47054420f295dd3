"""Experiment registry, CLI, manifests, and reproducibility contracts."""

import csv
import json
import os
import subprocess
import sys

import pytest

import sparsekit
from sparsekit.cli import main as cli_main
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


def test_cli_and_harness_import_without_scipy_fft():
    # scipy (with its own BLAS) is loaded only when imat runs a DCT
    src = os.path.dirname(os.path.dirname(sparsekit.__file__))
    probe = "import sys, sparsekit.cli, sparsekit.experiments; print('scipy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


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
