"""Bright-squeezed homodyne phase precision under loss, and the optimal
split of a photon budget between coherent amplitude and squeezing.

The probe is a minimum-uncertainty state (v_anti = 1/v_sqz throughout) whose
squeezed quadrature carries the phase signal. After transmission eta the
homodyne phase uncertainty is

    dphi = (1/(2 alpha)) * sqrt(V + (1-eta)/eta),        V = v_sqz

and spending a fixed exposure n_sig = alpha^2 + (V + 1/V - 2)/4 on both the
amplitude and the squeezing gives

    dphi = sqrt( (V + (1-eta)/eta) / (4 n_sig - V - 1/V + 2) ).

The V minimizing that expression has the closed form implemented in
optimal_squeezing; as n_sig grows at fixed eta < 1 the optimized precision
approaches the loss floor sqrt((1-eta)/eta)/(2 sqrt(n_sig)) from above. With
L = (1-eta)/eta the relative excess dphi/floor - 1 is

    1/(2 sqrt(n_sig L)) + (1 - 2L)/(8 n_sig L) + O((n_sig L)^(-3/2)),

so it falls as 1/(2 sqrt(n_sig L)) to leading order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AMPLITUDE, EFFICIENCY, POSITIVE, require_in
from .limits import sql_sample

def _loss_noise(eta):
    # vacuum admixed by the channel, in variance units: (1-eta)/eta
    return (1.0 - eta) / eta


def squeezed_precision(alpha: float, v_sqz: float, eta: float) -> float:
    """Homodyne phase precision (1/(2 alpha)) sqrt(v_sqz + (1-eta)/eta).

    Reduces to the sample-power shot-noise limit 1/(2 alpha) for a coherent
    probe (v_sqz = 1) without loss. Any v_sqz < 1 beats the quantum noise
    limit of the same lossy apparatus.
    """
    alpha = require_in(alpha, "alpha", *AMPLITUDE)
    v_sqz = require_in(v_sqz, "v_sqz", *POSITIVE)
    eta = require_in(eta, "eta", *EFFICIENCY)
    return np.sqrt(v_sqz + _loss_noise(eta)) / (2.0 * alpha)


def squeezing_photon_cost(v_sqz: float) -> float:
    """Photons locked up in the squeezed fluctuations: (V + 1/V - 2)/4."""
    v_sqz = require_in(v_sqz, "v_sqz", 0.0)
    return (v_sqz + 1.0 / v_sqz - 2.0) / 4.0


def squeezed_precision_budget(n_sig: float, v_sqz: float, eta: float) -> float:
    """Precision at fixed sample exposure n_sig = alpha^2 + squeezing cost.

    dphi = sqrt((V + (1-eta)/eta) / (4 n_sig - V - 1/V + 2)). Requires the
    budget to leave a positive alpha^2, i.e. 4 n_sig > V + 1/V - 2.
    """
    n = require_in(n_sig, "n_sig", 0.0)
    v = require_in(v_sqz, "v_sqz", 0.0, 1.0, hi_closed=True)
    eta = require_in(eta, "eta", *EFFICIENCY)
    amp2 = n - squeezing_photon_cost(v)
    if np.any(amp2 <= 0):
        raise ValueError(
            f"squeezing to v_sqz = {v_sqz} consumes the whole budget "
            f"n_sig = {n_sig}: need 4*n_sig > V + 1/V - 2"
        )
    return np.sqrt((v + _loss_noise(eta)) / (4.0 * amp2))


@dataclass(frozen=True)
class SqueezedBudgetReport:
    """Optimal squeezing level for a given exposure and efficiency."""

    n_sig: float
    eta: float
    v_opt: float
    n_opt_nonclassical: float
    delta_phi: float
    enhancement: float


def optimal_v_sqz(n_sig: float, eta: float) -> float:
    """Budget-optimal squeezed variance, closed form.

    V_opt = (eta + sqrt(4 eta (1-eta) n_sig + 1)) / (4 eta n_sig + eta + 1).
    Always in (0, 1]; tends to 1 (no squeezing) as eta -> 0 and to
    1/(2 n_sig + 1) as eta -> 1.
    """
    n_sig = require_in(n_sig, "n_sig", 0.0)
    eta = require_in(eta, "eta", *EFFICIENCY)
    disc = np.sqrt(4.0 * eta * (1.0 - eta) * n_sig + 1.0)
    return (eta + disc) / (4.0 * eta * n_sig + eta + 1.0)


def optimal_squeezing(n_sig: float, eta: float) -> SqueezedBudgetReport:
    """Evaluate the budget at its closed-form optimum.

    n_opt_nonclassical is the part of the exposure spent on squeezed photons,
    (V_opt + 1/V_opt - 2)/4; enhancement is the shot-noise limit over the
    achieved precision.
    """
    v_opt = optimal_v_sqz(n_sig, eta)
    dphi = squeezed_precision_budget(n_sig, v_opt, eta)
    return SqueezedBudgetReport(
        n_sig=n_sig,
        eta=eta,
        v_opt=v_opt,
        n_opt_nonclassical=squeezing_photon_cost(v_opt),
        delta_phi=dphi,
        enhancement=sql_sample(n_sig) / dphi,
    )
