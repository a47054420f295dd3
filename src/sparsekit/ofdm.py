"""Sparse multipath channel estimation for OFDM links.

The channel is a handful of integer-delay taps; its per-carrier response
is the (plain, non-unitary) DFT of the tap vector, so a unit tap has unit
magnitude on every carrier. Estimators work from comb pilots: least
squares plus linear interpolation as the baseline, and the iterative
threshold-and-MMSE tap estimator on top of it.
"""

import dataclasses
import functools
import math

import numpy as np

from .core import SolverReport, SupportSet, read_samples

QAM16 = np.array(
    [(re + 1j * im) for re in (-3, -1, 1, 3) for im in (-3, -1, 1, 3)],
    dtype=np.complex128,
) / math.sqrt(10.0)
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / math.sqrt(2.0)

CONSTELLATIONS = {"16qam": QAM16, "qpsk": QPSK}


@dataclasses.dataclass(frozen=True)
class ChannelProfile:
    """Sparse multipath taps: integer delays with complex gains."""

    delays: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        delays = np.atleast_1d(np.asarray(self.delays, dtype=np.intp))
        gains = np.atleast_1d(np.asarray(self.gains, dtype=np.complex128))
        if delays.size == 0 or delays.size != gains.size:
            raise ValueError("need matching non-empty delays and gains")
        if np.any(delays < 0) or np.any(np.diff(delays) <= 0):
            raise ValueError("delays must be unique, sorted, non-negative")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "gains", gains)

    @property
    def k(self):
        return self.delays.size

    def to_config(self):
        """Serializable form: list of (delay, re, im) rows."""
        return [(int(d), float(g.real), float(g.imag))
                for d, g in zip(self.delays, self.gains)]

    @classmethod
    def from_config(cls, rows):
        delays = [int(r[0]) for r in rows]
        gains = [complex(float(r[1]), float(r[2])) for r in rows]
        return cls(delays=np.array(delays), gains=np.array(gains))


def brazil_d_like_profile():
    """Fixed 6-tap stand-in profile for a severe UHF multipath channel."""
    delays = np.array([0, 2, 9, 23, 41, 58])
    powers_db = np.array([0.0, -0.5, -2.0, -5.0, -9.0, -13.0])
    phases = np.array([0.0, 2.2, -1.3, 0.7, 2.9, -0.4])
    gains = 10 ** (powers_db / 20.0) * np.exp(1j * phases)
    gains = gains / np.linalg.norm(gains)
    return ChannelProfile(delays=delays, gains=gains)


@dataclasses.dataclass(frozen=True)
class OfdmConfig:
    """Subcarrier geometry: guards, comb pilots, constellation, CP length.

    The sorted carrier index sets ``active``, ``pilots`` (a SupportSet) and
    ``data_carriers`` are derived once, at construction.
    """

    n: int = 256
    pilot_spacing: int = 4
    guard_left: int = 10
    guard_right: int = 9
    cp_length: int = 64
    constellation: str = "16qam"
    active: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    pilots: SupportSet = dataclasses.field(init=False, repr=False, compare=False)
    data_carriers: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.constellation not in CONSTELLATIONS:
            raise ValueError(f"unknown constellation {self.constellation!r}")
        for field in ("guard_left", "guard_right"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")
        if self.pilot_spacing < 1:
            raise ValueError("pilot_spacing must be at least 1")
        if not 1 <= self.cp_length <= self.n:
            raise ValueError(f"cp_length must lie in [1, n={self.n}]")
        if self.guard_left + self.guard_right >= self.n:
            raise ValueError("guards leave no active carriers")
        active = np.arange(self.guard_left, self.n - self.guard_right)
        pilots = SupportSet(active[:: self.pilot_spacing], self.n)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "pilots", pilots)
        object.__setattr__(self, "data_carriers", np.setdiff1d(active, pilots.indices))

    def pilot_values(self):
        # fixed unit-magnitude pilot pattern, known at the receiver
        idx = self.pilots.indices
        return np.exp(1j * np.pi * (idx * (idx + 1) % (2 * self.n)) / self.n)

    def symbols(self):
        return CONSTELLATIONS[self.constellation]


def channel_frequency_response(profile, cfg):
    """Per-carrier response H[i] = sum_l h_l exp(-2pi j i l / n)."""
    n = cfg.n
    if np.any(profile.delays >= n):
        raise ValueError("tap delays must be below the carrier count")
    carriers = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(carriers, profile.delays) / n) @ profile.gains


def map_symbols(data_indices, cfg):
    """Frequency-domain block: pilots at their comb, data on the rest."""
    block = np.zeros(cfg.n, dtype=np.complex128)
    block[cfg.pilots.indices] = cfg.pilot_values()
    block[cfg.data_carriers] = cfg.symbols()[data_indices]
    return block


def ofdm_link(tx_block, profile, cfg, cnr_db, rng):
    """Per-carrier channel multiply plus noise at the requested CNR.

    Noise lands on active carriers only; guard carriers stay exactly zero.
    """
    response = channel_frequency_response(profile, cfg)
    rx = response * tx_block
    active = cfg.active
    if cnr_db is not None:
        signal_power = float(np.mean(np.abs(rx[active]) ** 2))
        sigma = math.sqrt(signal_power / 10 ** (cnr_db / 10.0))
        noise = np.zeros(cfg.n, dtype=np.complex128)
        noise[active] = rng.complex_normal(active.size, scale=sigma)
        rx = rx + noise
    return rx


def pilot_least_squares(rx_block, cfg):
    """LS channel values at the pilot carriers: rx / known pilot; a
    non-finite received pilot raises ValueError."""
    pilots = read_samples(rx_block[cfg.pilots.indices], what="received pilots")
    return pilots / cfg.pilot_values()


def estimate_linear(rx_block, cfg):
    """Linear interpolation of the pilot LS values across the active band.

    Edges extend the nearest pilot value; guard carriers return zero.
    """
    return _interpolate_pilots(pilot_least_squares(rx_block, cfg), cfg)


def _interpolate_pilots(ls, cfg):
    idx = cfg.pilots.indices
    if idx.size < 2:
        raise ValueError("need at least two pilots to interpolate")
    active = cfg.active
    estimate = np.zeros(cfg.n, dtype=np.complex128)
    estimate[active] = np.interp(active, idx, ls.real) + 1j * np.interp(
        active, idx, ls.imag
    )
    return estimate


MIMAT_ALPHA = 0.6  # growth rate of the MIMAT threshold beta*exp(MIMAT_ALPHA*i)
MIMAT_ITERS = 10  # threshold-and-MMSE iterations before the support cleanup
REFINE_PRUNE_SIGMA = 2.4  # standard errors a tap kept by the cleanup must clear
REFINE_ADD_SIGMA = 3.0  # standard errors of residual a tap it adds must explain


def estimate_mimat(rx_block, cfg, snr_linear=1e12):
    """Sparse tap estimation: threshold the time-domain channel, re-solve
    the detected taps by MMSE on the pilot equations, repeat; finish with a
    significance-gated support cleanup and an unbiased value re-solve.

    The growing threshold beta*exp(MIMAT_ALPHA*i), i = 1..MIMAT_ITERS,
    discards false taps across iterations. beta is a quarter of the median
    magnitude of the initial time-domain estimate over the cyclic-prefix
    bins, floored at 1e-12 of its peak magnitude and at 1e-30: the first
    pass must admit even heavily interpolation-attenuated taps (candidates
    are capped at the pilot count to keep the solve determined). Inside the
    loop the tap gains come from the per-tap-dimensioned MMSE system at
    snr_linear (prior power split over the current candidates), which keeps
    the first wide-support solves tame even on guard-banded geometries. The
    final cleanup prunes taps below 2.4 standard errors, pulls in any tap
    the pilot residual still supports at 3 standard errors, and re-solves
    the survivors by plain least squares (shrinkage helps detection but
    biases values). Returns (ChannelProfile, frequency response, report).
    """
    report = SolverReport(solver="mimat")

    n = cfg.n
    cp = cfg.cp_length
    pilot_count = cfg.pilots.indices.size
    dictionary, gram = _pilot_dictionary(cfg)
    ls_values = pilot_least_squares(rx_block, cfg)
    projections = dictionary.conj().T @ ls_values
    h_time = np.fft.ifft(_interpolate_pilots(ls_values, cfg))
    floor = float(np.median(np.abs(h_time[:cp])))
    beta = max(0.25 * floor, 1e-12 * float(np.max(np.abs(h_time))), 1e-30)

    support = None
    gains = None
    for i in range(1, MIMAT_ITERS + 1):
        threshold = beta * math.exp(MIMAT_ALPHA * i)
        magnitudes = np.abs(h_time[:cp])
        candidates = np.flatnonzero(magnitudes > threshold)
        if candidates.size > pilot_count:
            order = np.argsort(magnitudes[candidates])[::-1]
            candidates = np.sort(candidates[order[:pilot_count]])
        if candidates.size == 0:
            if support is not None:
                report.flags.append(f"threshold emptied the support at iteration {i}")
                break
            candidates = np.array([int(np.argmax(magnitudes))])
            report.flags.append("empty initial support: kept largest tap")
        # snr_tap F^H (snr_tap F F^H + I)^-1 ls, pushed through to the
        # candidates-by-candidates system (F^H F + I / snr_tap) g = F^H ls
        snr_tap = snr_linear / candidates.size
        system = gram[candidates[:, None], candidates]
        system.flat[:: candidates.size + 1] += 1.0 / snr_tap
        tap_gains = np.linalg.solve(system, projections[candidates])
        h_time = np.zeros(n, dtype=np.complex128)
        h_time[candidates] = tap_gains
        report.iterations += 1
        fourier = dictionary[:, candidates]
        report.residuals.append(float(np.linalg.norm(fourier @ tap_gains - ls_values)))
        same = support is not None and np.array_equal(candidates, support) and (
            np.max(np.abs(tap_gains - gains)) < 1e-12 * max(np.max(np.abs(tap_gains)), 1e-30)
        )
        support, gains = candidates, tap_gains
        if same:
            report.converged = True
            break

    support, gains = _refine_support(ls_values, projections, dictionary, gram, support, report)
    profile = ChannelProfile(delays=support, gains=gains)
    response = channel_frequency_response(profile, cfg)
    return profile, response, report._finish()


@functools.lru_cache(maxsize=8)
def _pilot_dictionary(cfg):
    """Pilot-to-delay dictionary D = exp(-2pi j pilots x [0, cp) / n) and its
    Gram matrix D^H D, both read-only and built once per geometry.

    Every support MIMAT tries is a column subset of D; its normal matrix is
    the matching principal submatrix of the Gram matrix.
    """
    pilots = cfg.pilots.indices
    dictionary = np.exp(-2j * np.pi * np.outer(pilots, np.arange(cfg.cp_length)) / cfg.n)
    gram = dictionary.conj().T @ dictionary
    dictionary.flags.writeable = False
    gram.flags.writeable = False
    return dictionary, gram


def _refine_support(ls_values, projections, dictionary, gram, support, report):
    """Backward-prune / residual-augment the tap support; return it with its
    least-squares gains.

    Drops the weakest tap while any falls below REFINE_PRUNE_SIGMA standard
    errors; adds the best out-of-support tap while the pilot residual
    supports one at REFINE_ADD_SIGMA standard errors. Noiseless inputs
    leave an exact support untouched (the residual variance estimate
    collapses). The dictionary D holds one pilot column per candidate delay
    in [0, cp), gram is D^H D and projections is D^H ls_values.

    A step after an added tap, or the first, does one eigendecomposition
    V diag(lam) V^H of gram[S, S] and keeps the eigenvalues above
    |S| * eps * max(lam), the cutoff of pinv(D_S^H D_S). The gains
    V lam^-1 V^H projections[S] are then the minimum-norm least-squares
    solution (aliased delays, as when cp > n / pilot_spacing, make D_S
    rank-deficient), and the diagonal sum(|V|^2 / lam) of the
    pseudo-inverse scales the standard errors. When every eigenvalue is
    kept, the inverse Gram M = V lam^-1 V^H is formed once and each pruned
    tap i downdates it, M <- M[-i, -i] - M[-i, i] M[i, -i] / M[i, i] (a
    principal submatrix of a full-rank Gram is full rank, so no cutoff is
    needed), with gains M projections[S] and standard errors from diag(M):
    a run of prunes costs one factorization.
    """
    pilot_count, cp = dictionary.shape
    support = np.asarray(sorted(support), dtype=np.intp)
    inverse = None
    for _ in range(4 * cp):
        if inverse is None:
            eigvals, eigvecs = np.linalg.eigh(gram[support[:, None], support])
            keep = eigvals > support.size * np.finfo(float).eps * eigvals[-1]
            if keep.all():
                inverse = (eigvecs / eigvals) @ eigvecs.conj().T
            else:
                eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
                gains = eigvecs @ ((eigvecs.conj().T @ projections[support]) / eigvals)
                covariance = np.abs(eigvecs) ** 2 @ (1.0 / eigvals)
        if inverse is not None:
            gains = inverse @ projections[support]
            covariance = inverse.diagonal().real
        residual = ls_values - dictionary[:, support] @ gains
        dof = max(pilot_count - support.size, 1)
        sigma2 = max(float(np.vdot(residual, residual).real / dof), 1e-300)
        stderr = np.sqrt(covariance * sigma2)
        margin = np.abs(gains) - REFINE_PRUNE_SIGMA * stderr
        if support.size > 1 and (margin < 0).any():
            weakest = int(np.argmin(margin))
            if inverse is not None:
                rest = np.flatnonzero(np.arange(support.size) != weakest)
                inverse = inverse[np.ix_(rest, rest)] - np.outer(
                    inverse[rest, weakest], inverse[weakest, rest]) / inverse[weakest, weakest]
            support = np.delete(support, weakest)
            continue
        if support.size == cp or support.size >= pilot_count // 2:
            return support, gains
        # |D^H r| over all delays, as |r^H D| so that D is not conjugated
        scores = np.abs(residual.conj() @ dictionary) ** 2 / pilot_count
        scores[support] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] > REFINE_ADD_SIGMA**2 * sigma2:
            support = np.insert(support, np.searchsorted(support, best), best)
            inverse = None
        else:
            return support, gains
    report.flags.append("support refinement budget exhausted")
    gains, *_ = np.linalg.lstsq(dictionary[:, support], ls_values, rcond=None)
    return support, gains


def equalize(rx_block, channel_estimate, method="zf", snr_linear=None):
    """Per-carrier one-tap equalization, zero-forcing or MMSE.

    ZF flags carriers whose estimate is numerically zero (returned as the
    second value); MMSE needs the operating SNR.
    """
    h = np.asarray(channel_estimate, dtype=np.complex128)
    if method == "zf":
        dead = np.abs(h) < 1e-12
        safe = np.where(dead, 1.0, h)
        return np.where(dead, 0.0, rx_block / safe), np.flatnonzero(dead)
    if method == "mmse":
        if snr_linear is None:
            raise ValueError("MMSE equalization needs the SNR")
        weight = np.conj(h) / (np.abs(h) ** 2 + 1.0 / snr_linear)
        return weight * rx_block, np.array([], dtype=int)
    raise ValueError(f"unknown equalization method {method!r}")


def nearest_symbols(values, cfg):
    """Hard decisions: indices of the nearest constellation points."""
    table = cfg.symbols()
    distances = np.abs(values[:, None] - table[None, :])
    return np.argmin(distances, axis=1)


def ser_from_counts(errors, symbols):
    """Symbol error rate of errors in symbols decisions, with its 95%
    (1.96 sigma) binomial half-width."""
    rate = errors / symbols
    return rate, 1.96 * math.sqrt(max(rate * (1.0 - rate), 1e-300) / symbols)


def qam16_awgn_ser_theory(es_n0_db):
    """Closed-form 16-QAM symbol error rate over AWGN."""
    gamma = 10 ** (es_n0_db / 10.0)
    q_arg = math.sqrt(0.2 * gamma)
    q_val = 0.5 * math.erfc(q_arg / math.sqrt(2.0))
    p_side = 1.5 * q_val
    return 1.0 - (1.0 - p_side) ** 2


class TimeVaryingChannel:
    """First-order Gauss-Markov drift of the tap gains, one step per symbol.

    rho close to 1 is slow fading; each tap keeps its initial power as the
    stationary variance.
    """

    def __init__(self, profile, rho):
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        self.base = profile
        self.rho = rho
        self._gains = profile.gains.copy()

    def step(self, rng):
        scale = np.abs(self.base.gains)
        drift = rng.complex_normal(self._gains.size) * scale
        self._gains = self.rho * self._gains + math.sqrt(1.0 - self.rho**2) * drift
        return ChannelProfile(delays=self.base.delays, gains=self._gains)
