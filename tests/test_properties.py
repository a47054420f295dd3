"""Property tests: invariants checked over generated inputs.

Examples are drawn deterministically (``derandomize=True``) and without a
per-example deadline, so a run depends neither on luck nor on host speed.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.core import RandomSource
from sparsekit.ofdm import (
    ChannelProfile,
    MimatConfig,
    OfdmConfig,
    estimate_mimat,
    map_symbols,
    ofdm_link,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def geometries(draw):
    """(n, pilot_spacing, guard_left, guard_right, cp_length) leaving an
    active band."""
    n = draw(st.integers(2, 512))
    guard_left = draw(st.integers(0, n - 1))
    guard_right = draw(st.integers(0, n - 1 - guard_left))
    pilot_spacing = draw(st.integers(1, n))
    return {"n": n, "pilot_spacing": pilot_spacing,
            "guard_left": guard_left, "guard_right": guard_right,
            "cp_length": draw(st.integers(1, n))}


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


@st.composite
def mimat_links(draw):
    """(OfdmConfig, ChannelProfile, CNR in dB, block seed) with at least two
    pilots and every tap delay inside the cyclic prefix."""
    n = draw(st.integers(8, 256))
    guard_left = draw(st.integers(0, n // 4))
    guard_right = draw(st.integers(0, n // 4))
    active = n - guard_left - guard_right
    cfg = OfdmConfig(n=n, pilot_spacing=draw(st.integers(1, active - 1)),
                     guard_left=guard_left, guard_right=guard_right,
                     cp_length=draw(st.integers(1, n)))
    delays = draw(st.lists(st.integers(0, cfg.cp_length - 1), min_size=1, max_size=6,
                           unique=True))
    magnitudes = draw(st.lists(st.floats(0.1, 1.0), min_size=len(delays),
                               max_size=len(delays)))
    phases = draw(st.lists(st.floats(-np.pi, np.pi), min_size=len(delays),
                           max_size=len(delays)))
    profile = ChannelProfile(np.sort(delays), np.array(magnitudes) * np.exp(1j * np.array(phases)))
    return cfg, profile, draw(st.floats(10.0, 40.0)), draw(st.integers(0, 2**31))


class TestMimatProperties:
    @PROPERTY_SETTINGS
    @given(mimat_links())
    def test_support_in_prefix_finite_response_least_squares_gains(self, link):
        cfg, profile, cnr_db, seed = link
        rng = RandomSource(seed)
        data = rng.integers(0, cfg.symbols().size, cfg.data_carriers.size)
        rx = ofdm_link(map_symbols(data, cfg), profile, cfg, cnr_db, rng)
        snr = 10 ** (cnr_db / 10.0)
        estimate, response, _ = estimate_mimat(rx, cfg, MimatConfig(snr_linear=snr))

        delays = estimate.delays
        assert _strictly_increasing(delays)
        assert delays.min() >= 0 and delays.max() < cfg.cp_length
        assert np.all(np.isfinite(response))

        pilots = cfg.pilots.indices
        ls = rx[pilots] / cfg.pilot_values()
        fourier = np.exp(-2j * np.pi * np.outer(pilots, delays) / cfg.n)
        oracle, *_ = np.linalg.lstsq(fourier, ls, rcond=None)
        assert np.linalg.norm(estimate.gains - oracle) <= 1e-9 * np.linalg.norm(oracle)
