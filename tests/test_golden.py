"""Golden outputs: every registry experiment at reduced trials, seed 7.

Each run is compared with the CSVs stored under tests/golden/: headers and
integer, bool and string cells exactly, float cells to a relative 1e-9
(an infinite value matches only itself), and the ``seconds`` timing column
not at all. A run labelled other than its experiment id (a second geometry
of the same experiment) stores its CSVs under the label in place of the id.
A change that alters an output on purpose regenerates the files, all of
them or the named runs only, and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py [label ...]
"""

import csv
import math
import os
import shutil
import sys
import tempfile

import pytest

from sparsekit.experiments import ExperimentSpec, run_experiment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_SEED = 7

# label -> (experiment id, trials, parameter overrides)
GOLDEN_RUNS = {
    "fig4": ("fig4", 5, {}),
    "fig6": ("fig6", 5, {}),
    "fig7": ("fig7", 4, {}),
    "fig10": ("fig10", 5, {}),
    "fig15": ("fig15", 5, {}),
    "fig17": ("fig17", 10, {}),
    "fig18": ("fig18", 10, {"grid_points": 256}),
    "fig20": ("fig20", 20, {}),
    "fig31": ("fig31", 4, {}),
    "fig32": ("fig32", 3, {}),
    "fig39": ("fig39", 4, {}),
    # guard bands make the pilot dictionary a non-orthogonal partial DFT
    "fig39_guarded": ("fig39", 4, {"guard_left": 10, "guard_right": 9}),
    "fig40": ("fig40", 3, {}),
}

UNCOMPARED_COLUMNS = {"seconds"}


def _run(label, out_dir):
    """Run one golden entry; map each output file to its golden file name."""
    experiment_id, trials, overrides = GOLDEN_RUNS[label]
    spec = ExperimentSpec(experiment_id, seed=GOLDEN_SEED, trials=trials,
                          out_dir=out_dir, overrides=overrides)
    return {name: label + name[len(experiment_id):]
            for name in sorted(run_experiment(spec).outputs)}


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


@pytest.mark.parametrize("label", sorted(GOLDEN_RUNS))
def test_outputs_match_golden(label, tmp_path):
    for filename, golden in _run(label, str(tmp_path)).items():
        _compare(os.path.join(GOLDEN_DIR, golden), tmp_path / filename)


def test_cell_comparison_rules():
    assert _cells_match("3", "3") and not _cells_match("3", "3.0")
    assert _cells_match("True", "True") and not _cells_match("True", "False")
    assert _cells_match("burst", "burst") and not _cells_match("burst", "bursts")
    assert _cells_match("1.0", "1.0000000001") and not _cells_match("1.0", "1.00001")
    assert _cells_match("-inf", "-inf") and not _cells_match("-inf", "inf")
    assert not _cells_match("-inf", "-1e308")


def regenerate(labels):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for label in labels:
        with tempfile.TemporaryDirectory() as out_dir:
            for filename, golden in _run(label, out_dir).items():
                shutil.copyfile(os.path.join(out_dir, filename),
                                os.path.join(GOLDEN_DIR, golden))


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(GOLDEN_RUNS))
