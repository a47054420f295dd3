"""Golden outputs: every registry experiment at reduced trials, seed 7.

Each run is compared with the CSVs stored under tests/golden/: headers and
integer, bool and string cells exactly, float cells to a relative 1e-9
(an infinite value matches only itself), and the ``seconds`` timing column
not at all. A change that alters an output on purpose regenerates the
files and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
import os
import shutil
import tempfile

import pytest

from sparsekit.experiments import ExperimentSpec, run_experiment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_SEED = 7

# experiment id -> (trials, parameter overrides)
GOLDEN_RUNS = {
    "fig4": (5, {}),
    "fig6": (5, {}),
    "fig7": (4, {}),
    "fig10": (5, {}),
    "fig15": (5, {}),
    "fig17": (10, {}),
    "fig18": (10, {"grid_points": 256}),
    "fig20": (20, {}),
    "fig31": (4, {}),
    "fig32": (3, {}),
    "fig39": (4, {}),
    "fig40": (3, {}),
}

UNCOMPARED_COLUMNS = {"seconds"}


def _run(experiment_id, out_dir):
    trials, overrides = GOLDEN_RUNS[experiment_id]
    spec = ExperimentSpec(experiment_id, seed=GOLDEN_SEED, trials=trials,
                          out_dir=out_dir, overrides=overrides)
    return sorted(run_experiment(spec).outputs)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def _cells_match(expected, actual):
    value = _number(expected)
    if not isinstance(value, float):
        return actual == expected
    other = _number(actual)
    return other is not None and (other == value or math.isclose(other, value, rel_tol=1e-9))


def _compare(golden_path, actual_path):
    expected, actual = _read(golden_path), _read(actual_path)
    header = expected[0]
    assert actual[0] == header
    assert len(actual) == len(expected), "row count differs"
    for line, (want, got) in enumerate(zip(expected[1:], actual[1:]), start=2):
        assert len(got) == len(want), f"line {line}: field count differs"
        for column, w, g in zip(header, want, got):
            if column not in UNCOMPARED_COLUMNS:
                assert _cells_match(w, g), f"line {line}, {column}: {g} != golden {w}"


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_RUNS))
def test_outputs_match_golden(experiment_id, tmp_path):
    for filename in _run(experiment_id, str(tmp_path)):
        _compare(os.path.join(GOLDEN_DIR, filename), tmp_path / filename)


def test_cell_comparison_rules():
    assert _cells_match("3", "3") and not _cells_match("3", "3.0")
    assert _cells_match("True", "True") and not _cells_match("True", "False")
    assert _cells_match("burst", "burst") and not _cells_match("burst", "bursts")
    assert _cells_match("1.0", "1.0000000001") and not _cells_match("1.0", "1.00001")
    assert _cells_match("-inf", "-inf") and not _cells_match("-inf", "inf")
    assert not _cells_match("-inf", "-1e308")


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for experiment_id in sorted(GOLDEN_RUNS):
        with tempfile.TemporaryDirectory() as out_dir:
            for filename in _run(experiment_id, out_dir):
                shutil.copyfile(os.path.join(out_dir, filename),
                                os.path.join(GOLDEN_DIR, filename))


if __name__ == "__main__":
    regenerate()
