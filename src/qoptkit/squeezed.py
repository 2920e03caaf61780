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

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Axis, FigureDataset
from .domain import (AMPLITUDE, COMPARE_N_SIG, EFFICIENCY, MAX_CELLS,
                     POSITIVE, check_size, require_grid, require_in)
from .limits import sql_sample
from .noon import noon_best_precision, noon_optimal_n

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


# -- strategy comparison ---------------------------------------------------


def default_eta_grid(n_points: int = 200, eta_min: float = 0.5,
                     eta_max: float = 0.999) -> np.ndarray:
    """eta in [eta_min, eta_max], log-spaced in the loss 1-eta, ascending."""
    return 1.0 - np.logspace(math.log10(1.0 - eta_min),
                             math.log10(1.0 - eta_max), n_points)


def default_n_sig_grid(n_points: int = 200) -> np.ndarray:
    """n_sig in [1, 100], log-spaced."""
    return np.logspace(0.0, 2.0, n_points)


def noon_vs_squeezed_grid(eta_grid=None, n_sig_grid=None) -> FigureDataset:
    """Ratio of optimal-NOON to optimal-squeezed precision on a 2-d grid.

    Ratio > 1 means the squeezed strategy is the more precise one at that
    (eta, n_sig). Metadata records the ratio extremes over the grid and where
    they occur.
    """
    eta_grid = require_grid(
        default_eta_grid() if eta_grid is None else eta_grid,
        "eta grid", 0.0, 1.0)
    n_sig_grid = require_grid(
        default_n_sig_grid() if n_sig_grid is None else n_sig_grid,
        "n_sig grid", *COMPARE_N_SIG)
    check_size(len(eta_grid) * len(n_sig_grid), MAX_CELLS, "grid cells")

    eta, n_sig = eta_grid[:, None], n_sig_grid[None, :]
    n_opt, _, _ = noon_optimal_n(eta)
    noon, _ = noon_best_precision(eta, n_sig, n_opt)
    flat = (noon / optimal_squeezing(n_sig, eta).delta_phi).reshape(-1)
    i_min, i_max = int(np.argmin(flat)), int(np.argmax(flat))
    return FigureDataset(
        figure_id="noon-vs-squeezed-ratio",
        axes=(
            Axis("eta", eta_grid, "log"),
            Axis("n_sig", n_sig_grid, "log"),
        ),
        columns={"ratio": flat},
        metadata={
            "ratio_min": float(flat[i_min]),
            "ratio_max": float(flat[i_max]),
            "ratio_min_at": {
                "eta": float(eta_grid[i_min // len(n_sig_grid)]),
                "n_sig": float(n_sig_grid[i_min % len(n_sig_grid)]),
            },
            "ratio_max_at": {
                "eta": float(eta_grid[i_max // len(n_sig_grid)]),
                "n_sig": float(n_sig_grid[i_max % len(n_sig_grid)]),
            },
        },
    )