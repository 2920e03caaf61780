"""Phase-precision limits.

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
bounds take numpy arrays as well as scalars and return delta_phi itself: a
float, or an array of the input's shape. domain.require_in rejects any
entry that is non-finite or out of range.
"""
from __future__ import annotations

import enum

import numpy as np

from .domain import EFFICIENCY, require_in


class PowerConstraint(enum.Enum):
    TOTAL = "total"
    SAMPLE = "sample"


def qfi_phase(number_variance: float) -> tuple[float, float]:
    """Fisher information and Cramer-Rao bound for phase from photon number.

    F = 4 * V(n_sig) for a phase written on the sample arm; the bound is
    delta_phi >= 1/sqrt(F). Returns (fisher, crb).
    """
    fisher = 4.0 * require_in(number_variance, "number variance", 0.0)
    return fisher, 1.0 / np.sqrt(fisher)


def sql_total(n0: float):
    """Shot-noise limit 1/sqrt(n0) referred to the total input power."""
    return 1.0 / np.sqrt(require_in(n0, "n0", 0.0))


def sql_sample(n_sig: float):
    """Shot-noise limit 1/(2 sqrt(n_sig)) referred to sample exposure.

    A coherent probe has V(n_sig) = n_sig, so this is the Cramer-Rao bound
    at Poisson number variance.
    """
    require_in(n_sig, "n_sig", 0.0)
    return qfi_phase(n_sig)[1]


def qnl(n0: float, eta: float):
    """Shot-noise limit after transmission eta: 1/sqrt(eta * n0)."""
    n0 = require_in(n0, "n0", 0.0)
    eta = require_in(eta, "eta", *EFFICIENCY)
    return 1.0 / np.sqrt(eta * n0)


def heisenberg(n0: float):
    """Heisenberg scaling 1/n0. Meaningful only for n0 >= 1."""
    return 1.0 / require_in(n0, "n0", 1.0, lo_closed=True)


def loss_bound(n: float, eta: float,
               constraint: PowerConstraint = PowerConstraint.TOTAL):
    """Fundamental precision floor of a lossy channel.

    TOTAL:  sqrt((1-eta)/eta) / sqrt(n0)
    SAMPLE: sqrt((1-eta)/eta) / (2 sqrt(n_sig))

    No probe state, entangled or not, beats this through a channel of
    transmission eta. The floor is 0 at eta = 1, the lossless channel.
    """
    n = require_in(n, "photon number", 0.0)
    eta = require_in(eta, "eta", *EFFICIENCY)
    scale = np.sqrt((1.0 - eta) / eta)
    if constraint is PowerConstraint.TOTAL:
        return scale / np.sqrt(n)
    if constraint is PowerConstraint.SAMPLE:
        return scale / (2.0 * np.sqrt(n))
    raise ValueError(f"unknown power constraint {constraint!r}")


def squeezed_vacuum_crb(n: float):
    """Cramer-Rao bound of a squeezed-vacuum probe with <n_sig> = n.

    Squeezed vacuum has V(n) = 2(n^2 + n), hence F = 8(n^2 + n) and
    delta_phi = (1/(2 sqrt(2))) (n^2 + n)^{-1/2}: Heisenberg scaling from a
    Gaussian state.
    """
    n = require_in(n, "n", 0.0)
    return qfi_phase(2.0 * (n * n + n))[1]
