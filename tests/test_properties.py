"""Property tests: invariants checked over generated inputs.

Examples are drawn deterministically (``derandomize=True``) and without a
per-example deadline, so a run depends neither on luck nor on host speed.
"""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.codes import DftBlockCode, elp_erasure_decode
from sparsekit.core import (
    ComplexSignal,
    InstabilityError,
    RandomSource,
    SupportSet,
    sorted_dft,
)
from sparsekit.ofdm import (
    ChannelProfile,
    MimatConfig,
    OfdmConfig,
    estimate_mimat,
    map_symbols,
    ofdm_link,
)
from sparsekit.sca import SparseProblem, basis_pursuit

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


@st.composite
def sparse_systems(draw):
    """Gaussian A (m x n, m in [4, 24], n in [m, 3m]) and x = A s with a
    sparse s."""
    m = draw(st.integers(4, 24))
    n = draw(st.integers(m, 3 * m))
    k = draw(st.integers(1, max(1, m // 3)))
    rng = RandomSource(draw(st.integers(0, 2**31)))
    a = rng.standard_normal((m, n))
    s = np.zeros(n)
    s[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    return a, a @ s


class TestBasisPursuitProperties:
    @PROPERTY_SETTINGS
    @given(sparse_systems())
    def test_l1_norm_matches_an_independent_lp_solver(self, system):
        from scipy.optimize import linprog

        a, x = system
        n = a.shape[1]
        estimate, report = basis_pursuit(SparseProblem(mixing=a, observation=x))
        reference = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=x,
                            bounds=(0, None), method="highs")
        assert reference.status == 0
        assert abs(np.abs(estimate).sum() - reference.fun) <= 1e-9 * max(reference.fun, 1.0)
        assert np.linalg.norm(a @ estimate - x) <= 1e-8 * max(np.linalg.norm(x), 1.0)
        assert report.converged


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def complex_arrays(draw, size=None, magnitude=None):
    """Complex vectors of the given size (else 1 to 64) with finite parts,
    bounded by magnitude if given."""
    parts = st.floats(-magnitude, magnitude) if magnitude is not None else finite_floats
    size = size or draw(st.integers(1, 64))
    re = draw(st.lists(parts, min_size=size, max_size=size))
    im = draw(st.lists(parts, min_size=size, max_size=size))
    values = np.empty(size, dtype=np.complex128)
    values.real, values.imag = re, im
    return values


def coprime_to(n):
    return st.sampled_from([q for q in range(1, max(n, 2)) if math.gcd(q, n) == 1])


class TestComplexSignalRoundTrips:
    @PROPERTY_SETTINGS
    @given(complex_arrays())
    def test_csv_round_trip_is_exact(self, values):
        signal = ComplexSignal(values)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "signal.csv")
            signal.to_csv(path)
            assert ComplexSignal.from_csv(path).to_bytes() == signal.to_bytes()

    @PROPERTY_SETTINGS
    @given(complex_arrays())
    def test_bytes_round_trip_is_exact(self, values):
        signal = ComplexSignal(values)
        assert ComplexSignal.from_bytes(signal.to_bytes()).to_bytes() == signal.to_bytes()


class TestSortedDftInverse:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_inverse_undoes_the_transform_for_every_coprime_q(self, data):
        x = data.draw(complex_arrays(magnitude=1e6))
        q = data.draw(coprime_to(x.size))
        tol = 1e-12 * max(float(np.linalg.norm(x)), 1.0)
        assert np.max(np.abs(sorted_dft(sorted_dft(x, q), q, inverse=True) - x)) <= tol
        assert np.max(np.abs(sorted_dft(sorted_dft(x, q, inverse=True), q) - x)) <= tol


@st.composite
def block_codes(draw, max_l=32, max_p=16):
    l = draw(st.integers(1, max_l))
    p = draw(st.integers(0, max_p))
    return DftBlockCode(l=l, p=p, q=draw(coprime_to(l + p)))


class TestDftBlockCode:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_decode_inverts_encode(self, data):
        code = data.draw(block_codes())
        message = data.draw(complex_arrays(size=code.l, magnitude=1e6))
        decoded = code.decode(code.encode(message))
        assert np.max(np.abs(decoded - message)) <= 1e-12 * max(np.linalg.norm(message), 1.0)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_erasures_within_capacity_are_repaired_or_flagged_unstable(self, data):
        code = data.draw(block_codes(max_l=16, max_p=8))
        message = data.draw(complex_arrays(size=code.l, magnitude=1e6))
        codeword = code.encode(message)
        erased = data.draw(st.lists(st.integers(0, code.n - 1), max_size=code.p, unique=True))
        received = codeword.copy()
        received[erased] = np.nan  # erased samples are never read
        try:
            repaired = elp_erasure_decode(received, SupportSet(erased, code.n), code)
        except InstabilityError:
            return
        assert np.max(np.abs(repaired - codeword)) <= 1e-8 * max(np.linalg.norm(codeword), 1.0)


class TestSupportSetInvariants:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_sorted_unique_and_mask_partitions_the_range(self, data):
        n = data.draw(st.integers(1, 200))
        indices = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        if len(set(indices)) < len(indices):
            with pytest.raises(ValueError, match="unique"):
                SupportSet(indices, n)
            return
        support = SupportSet(indices, n)
        assert support.indices.tolist() == sorted(indices)
        complement = support.complement()
        assert np.all(np.diff(complement.indices) > 0)
        assert not np.any(support.mask() & complement.mask())
        assert np.all(support.mask() | complement.mask())
        assert len(support) + len(complement) == n
