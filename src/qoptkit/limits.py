"""Phase-precision limits and related single-number benchmarks.

All phase bounds are one-standard-deviation uncertainties for a single probe
cycle. Two power-accounting conventions appear throughout and are easy to mix
up, so they are explicit everywhere:

  TOTAL    n0 photons enter the instrument.
  SAMPLE   n_sig photons traverse the sample arm; an ideal two-arm
           interferometer splits n0 = 2*n_sig, which is where the factor
           1/(2 sqrt(n_sig)) in the sample-referred shot-noise limit
           comes from.

The quantum Fisher information route is the single source of truth for
variance-based bounds: sql_sample and squeezed_vacuum_crb are both thin
wrappers over qfi_phase so the three can never drift apart. The phase
bounds take numpy arrays as well as scalars; domain.require_in rejects any
entry that is non-finite or out of range.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import require_in


class PowerConstraint(enum.Enum):
    TOTAL = "total"
    SAMPLE = "sample"


class BoundFamily(enum.Enum):
    SQL_TOTAL = "sql-total"
    SQL_SAMPLE = "sql-sample"
    QNL = "qnl"
    HEISENBERG = "heisenberg"
    LOSS = "loss"
    SQUEEZED_VACUUM_CRB = "squeezed-vacuum-crb"


@dataclass(frozen=True)
class PrecisionResult:
    """A phase bound together with how it was budgeted."""

    delta_phi: float
    family: BoundFamily
    constraint: PowerConstraint


def qfi_phase(number_variance: float) -> tuple[float, float]:
    """Fisher information and Cramer-Rao bound for phase from photon number.

    F = 4 * V(n_sig) for a phase written on the sample arm; the bound is
    delta_phi >= 1/sqrt(F). Returns (fisher, crb).
    """
    fisher = 4.0 * require_in(number_variance, "number variance", 0.0)
    return fisher, 1.0 / np.sqrt(fisher)


def sql_total(n0: float) -> PrecisionResult:
    """Shot-noise limit 1/sqrt(n0) referred to the total input power."""
    n0 = require_in(n0, "n0", 0.0)
    return PrecisionResult(1.0 / np.sqrt(n0), BoundFamily.SQL_TOTAL,
                           PowerConstraint.TOTAL)


def sql_sample(n_sig: float) -> PrecisionResult:
    """Shot-noise limit 1/(2 sqrt(n_sig)) referred to sample exposure.

    A coherent probe has V(n_sig) = n_sig, so this is the Cramer-Rao bound
    at Poisson number variance.
    """
    require_in(n_sig, "n_sig", 0.0)
    _, crb = qfi_phase(n_sig)
    return PrecisionResult(crb, BoundFamily.SQL_SAMPLE, PowerConstraint.SAMPLE)


def qnl(n0: float, eta: float) -> PrecisionResult:
    """Shot-noise limit after transmission eta: 1/sqrt(eta * n0)."""
    n0 = require_in(n0, "n0", 0.0)
    # lossless eta = 1 is a legitimate limit here, unlike for loss_bound
    eta = require_in(eta, "eta", 0.0, 1.0, hi_closed=True)
    return PrecisionResult(1.0 / np.sqrt(eta * n0), BoundFamily.QNL,
                           PowerConstraint.TOTAL)


def heisenberg(n0: float) -> PrecisionResult:
    """Heisenberg scaling 1/n0. Meaningful only for n0 >= 1."""
    n0 = require_in(n0, "n0", 1.0, lo_closed=True)
    return PrecisionResult(1.0 / n0, BoundFamily.HEISENBERG, PowerConstraint.TOTAL)


def loss_bound(n: float, eta: float,
               constraint: PowerConstraint = PowerConstraint.TOTAL) -> PrecisionResult:
    """Fundamental precision floor of a lossy channel.

    TOTAL:  sqrt((1-eta)/eta) / sqrt(n0)
    SAMPLE: sqrt((1-eta)/eta) / (2 sqrt(n_sig))

    No probe state, entangled or not, beats this through a channel of
    transmission eta.
    """
    n = require_in(n, "photon number", 0.0)
    # strict interior: at eta = 1 the floor is 0, at eta = 0 it diverges
    eta = require_in(eta, "eta", 0.0, 1.0)
    scale = np.sqrt((1.0 - eta) / eta)
    if constraint is PowerConstraint.TOTAL:
        dphi = scale / np.sqrt(n)
    elif constraint is PowerConstraint.SAMPLE:
        dphi = scale / (2.0 * np.sqrt(n))
    else:
        raise ValueError(f"unknown power constraint {constraint!r}")
    return PrecisionResult(dphi, BoundFamily.LOSS, constraint)


def loss_transition_n0(eta: float) -> float:
    """Input power where the loss floor crosses the Heisenberg line.

    Setting sqrt((1-eta)/eta)/sqrt(n0) = 1/n0 gives n0 = eta/(1-eta); below
    it Heisenberg scaling is the binding constraint, above it loss is.
    """
    require_in(eta, "eta", 0.0, 1.0)
    return eta / (1.0 - eta)


def squeezed_vacuum_crb(n: float) -> PrecisionResult:
    """Cramer-Rao bound of a squeezed-vacuum probe with <n_sig> = n.

    Squeezed vacuum has V(n) = 2(n^2 + n), hence F = 8(n^2 + n) and
    delta_phi = (1/(2 sqrt(2))) (n^2 + n)^{-1/2}: Heisenberg scaling from a
    Gaussian state.
    """
    n = require_in(n, "n", 0.0)
    _, crb = qfi_phase(2.0 * (n * n + n))
    return PrecisionResult(crb, BoundFamily.SQUEEZED_VACUUM_CRB,
                           PowerConstraint.SAMPLE)


# --- classical-instrument benchmarks -------------------------------------


def diffraction_limit(wavelength: float, numerical_aperture: float) -> float:
    """Transverse two-point resolution x_min = lambda / (2 NA)."""
    require_in(wavelength, "wavelength", 0.0)
    require_in(numerical_aperture, "NA", 0.0, 1.5, hi_closed=True)
    return wavelength / (2.0 * numerical_aperture)


def oct_coherence_length(center_wavelength: float, bandwidth: float) -> float:
    """Axial resolution of a Gaussian-spectrum interferometer.

    l_c = (4 ln 2 / pi) * lambda^2 / dlambda for FWHM bandwidth dlambda.
    """
    require_in(center_wavelength, "center wavelength", 0.0)
    require_in(bandwidth, "bandwidth", 0.0)
    return (4.0 * math.log(2.0) / math.pi) * center_wavelength**2 / bandwidth


def oct_sensitivity(n_sig: float) -> float:
    """Shot-noise-limited SNR of a reflectivity measurement, S = n_sig / 4.

    The smallest detectable reflectivity is 1/S.
    """
    require_in(n_sig, "n_sig", 0.0)
    return n_sig / 4.0


def dipole_scattering_fraction(radius: float, wavelength_in_medium: float,
                               index_ratio: float,
                               beam_waist: float) -> tuple[float, float]:
    """Rayleigh cross-section of a small sphere and its beam-coverage fraction.

    sigma = (8 pi / 3) k^4 a^6 ((m^2-1)/(m^2+2))^2 with k = 2 pi / lambda
    (lambda measured inside the medium) and m the particle/medium index
    ratio; the scattered fraction of a beam of waist w is sigma/(4 pi w^2).
    Returns (sigma, fraction).
    """
    require_in(radius, "radius", 0.0)
    require_in(wavelength_in_medium, "wavelength", 0.0)
    require_in(index_ratio, "index ratio", 0.0)
    require_in(beam_waist, "beam waist", 0.0)
    k = 2.0 * math.pi / wavelength_in_medium
    m2 = index_ratio * index_ratio
    sigma = (8.0 * math.pi / 3.0) * k**4 * radius**6 * ((m2 - 1.0) / (m2 + 2.0)) ** 2
    fraction = sigma / (4.0 * math.pi * beam_waist**2)
    return sigma, fraction


def signal_mode_amplitude(alpha: float, perturbation: float,
                          norm_coeff: float) -> float:
    """First-order amplitude scattered into the signal mode by a perturbation.

    alpha_sig = alpha * p / N where N normalizes the mode derivative. The
    perturbation is then read out exactly like a phase, with the uncertainty
    mapping delta_p = |N| * delta_phi, so every phase bound in this module
    applies to it directly.
    """
    if norm_coeff == 0.0:
        raise ValueError("norm coefficient must be nonzero: alpha*p/N divides by it")
    return alpha * perturbation / norm_coeff
