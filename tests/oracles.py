"""Closed-form references that tests compare the toolkit against."""

import math

import numpy as np

from sparsekit.spectral import CovarianceEstimate


def qam16_awgn_ser_theory(es_n0_db):
    """Closed-form 16-QAM symbol error rate over AWGN."""
    gamma = 10 ** (es_n0_db / 10.0)
    q_arg = math.sqrt(0.2 * gamma)
    q_val = 0.5 * math.erfc(q_arg / math.sqrt(2.0))
    p_side = 1.5 * q_val
    return 1.0 - (1.0 - p_side) ** 2


def exact_tone_covariance(model, dimension, noise_variance=0.0):
    """A diag(|b|^2) A^H + sigma^2 I for uncorrelated tones."""
    steering = np.exp(
        2j * np.pi * np.outer(np.arange(dimension), model.frequencies)
    )
    powers = np.abs(model.weights) ** 2
    cov = (steering * powers[None, :]) @ steering.conj().T
    cov += noise_variance * np.eye(dimension)
    return CovarianceEstimate(matrix=cov, snapshots=dimension)
