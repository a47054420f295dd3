"""Property tests: invariants checked over generated inputs.

Examples are drawn deterministically (``derandomize=True``) and without a
per-example deadline, so a run depends neither on luck nor on host speed.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.ofdm import OfdmConfig

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def geometries(draw):
    """(n, pilot_spacing, guard_left, guard_right) leaving an active band."""
    n = draw(st.integers(2, 512))
    guard_left = draw(st.integers(0, n - 1))
    guard_right = draw(st.integers(0, n - 1 - guard_left))
    pilot_spacing = draw(st.integers(1, n))
    return {"n": n, "pilot_spacing": pilot_spacing,
            "guard_left": guard_left, "guard_right": guard_right}


def _strictly_increasing(indices):
    return bool(np.all(np.diff(indices) > 0))


class TestOfdmConfigCarriers:
    @PROPERTY_SETTINGS
    @given(geometries())
    def test_pilots_and_data_partition_the_active_band(self, geometry):
        cfg = OfdmConfig(**geometry)
        active = list(range(cfg.guard_left, cfg.n - cfg.guard_right))
        assert cfg.active.tolist() == active
        assert cfg.pilots.indices.tolist() == active[:: cfg.pilot_spacing]
        assert cfg.pilots.n == cfg.n
        pilots = set(cfg.pilots.indices.tolist())
        assert pilots <= set(active)
        assert cfg.data_carriers.tolist() == [i for i in active if i not in pilots]
        for indices in (cfg.active, cfg.pilots.indices, cfg.data_carriers):
            assert _strictly_increasing(indices)

    @PROPERTY_SETTINGS
    @given(geometries(), st.data())
    def test_replace_recomputes_the_carrier_sets(self, geometry, data):
        cfg = OfdmConfig(**geometry)
        guard_left = data.draw(st.integers(0, cfg.n - 1 - cfg.guard_right))
        replaced = dataclasses.replace(cfg, guard_left=guard_left)
        fresh = OfdmConfig(**{**geometry, "guard_left": guard_left})
        assert np.array_equal(replaced.active, fresh.active)
        assert np.array_equal(replaced.pilots.indices, fresh.pilots.indices)
        assert np.array_equal(replaced.data_carriers, fresh.data_carriers)

    @PROPERTY_SETTINGS
    @given(geometries())
    def test_equal_configs_compare_and_hash_equal(self, geometry):
        first, second = OfdmConfig(**geometry), OfdmConfig(**geometry)
        assert first == second
        assert hash(first) == hash(second)
        assert first != dataclasses.replace(first, n=first.n + 1)
