"""Assembles the analysis modules into ready-to-plot FigureDataset tables.

Nothing here renders anything; these functions only evaluate the closed
forms over documented default grids (all overridable, all echoed in
metadata) so the datasets can be regenerated bit-identically.
"""
from __future__ import annotations

import numpy as np

from . import conditioning as cond
from .conditioning import DetectorKind, LossChannel
from .dataset import Axis, FigureDataset
from .domain import require_grid
from .limits import (
    PowerConstraint,
    heisenberg,
    loss_bound,
    sql_sample,
    squeezed_vacuum_crb,
)
from .noon import noon_optimal_n
from .squeezed import noon_vs_squeezed_grid, optimal_squeezing
from .states import PdcTwinBeam

PROBE = "probe"
DETECTOR = "detector"

DEFAULT_CONDITION_ETAS = (1.0, 0.7, 0.4, 0.1)
DEFAULT_SQZ_N_SIG = (1.0, 10.0, 100.0, 1000.0)


def _column_tag(value: float) -> str:
    return format(value, "g")


def fig_limits(n_sig_grid=None, eta_list=(0.5, 0.9, 0.99)) -> FigureDataset:
    """Phase-precision limit curves vs sample exposure.

    Columns: sql_sample, heisenberg at the matched total power n0 = 2*n_sig,
    the squeezed-vacuum bound, and the loss floor for each eta. At n_sig = 1
    the SQL and Heisenberg curves touch (both 0.5).
    """
    if n_sig_grid is None:
        n_sig_grid = np.logspace(0.0, 6.0, 121)
    # n_sig >= 0.5 so that n0 = 2*n_sig >= 1
    grid = require_grid(n_sig_grid, "n_sig grid", 0.5, lo_closed=True)
    eta_list = tuple(eta_list)
    require_grid(eta_list, "eta", 0.0, 1.0)
    cols: dict[str, np.ndarray] = {
        "sql_sample": sql_sample(grid).delta_phi,
        "heisenberg_n0": heisenberg(2.0 * grid).delta_phi,
        "squeezed_vacuum_crb": squeezed_vacuum_crb(grid).delta_phi,
    }
    for eta in eta_list:
        cols[f"loss_bound_eta_{_column_tag(eta)}"] = loss_bound(
            grid, eta, PowerConstraint.SAMPLE).delta_phi
    return FigureDataset(
        figure_id="phase-precision-limits",
        axes=(Axis("n_sig", grid, "log"),),
        columns=cols,
        metadata={
            "eta_list": list(eta_list),
            "describes": "sql 1/(2 sqrt(n)), heisenberg 1/(2n), "
                         "squeezed crb (1/(2 sqrt(2))) (n^2+n)^(-1/2), "
                         "loss floor sqrt((1-eta)/eta)/(2 sqrt(n))",
        },
    )


def fig_noon_loss(eta_grid=None) -> FigureDataset:
    """Optimal NOON size and its enhancement vs efficiency.

    Columns: n_opt, enhancement, stationarity root, and the unity reference
    the enhancement must cross near eta ~ 0.758.
    """
    if eta_grid is None:
        eta_grid = np.linspace(0.5, 0.99, 99)
    grid = require_grid(eta_grid, "eta", 0.0, 1.0)
    n_opt, enh, root = noon_optimal_n(grid)
    return FigureDataset(
        figure_id="noon-optimal-size",
        axes=(Axis("eta", grid, "linear"),),
        columns={
            "n_opt": n_opt,
            "enhancement": enh,
            "stationarity_root": root,
            "unity": np.ones_like(grid),
        },
        metadata={
            "describes": "argmax_N sqrt(N/(eta^-N + 1)) and its value",
        },
    )


def fig_squeezed_loss(eta_grid=None,
                      n_sig_list=DEFAULT_SQZ_N_SIG) -> FigureDataset:
    """Optimal squeezing vs efficiency for several photon budgets.

    Per n_sig: the budget-optimal squeezed variance, the photons it locks
    into squeezing, and the enhancement over shot noise. As eta -> 0 the
    optimum retreats to no squeezing at all (v_opt -> 1).
    """
    if eta_grid is None:
        eta_grid = np.linspace(0.01, 1.0, 100)
    grid = require_grid(eta_grid, "eta", 0.0, 1.0, hi_closed=True)
    n_sig_list = tuple(n_sig_list)
    # one row of reports per n_sig, one column per eta
    r = optimal_squeezing(require_grid(n_sig_list, "n_sig", 0.0)[:, None],
                          grid)
    cols: dict[str, np.ndarray] = {}
    for i, n_sig in enumerate(n_sig_list):
        tag = _column_tag(n_sig)
        cols[f"v_opt_n_{tag}"] = r.v_opt[i]
        cols[f"n_nonclassical_n_{tag}"] = r.n_opt_nonclassical[i]
        cols[f"enhancement_n_{tag}"] = r.enhancement[i]
    return FigureDataset(
        figure_id="squeezed-optimal-budget",
        axes=(Axis("eta", grid, "linear"),),
        columns=cols,
        metadata={
            "n_sig_list": list(n_sig_list),
            "describes": "v_opt = (eta + sqrt(4 eta (1-eta) n + 1))"
                         "/(4 eta n + eta + 1) and derived quantities",
        },
    )


def fig_compare(eta_grid=None, n_sig_grid=None) -> FigureDataset:
    """Optimal NOON / optimal squeezed precision ratio heatmap."""
    return noon_vs_squeezed_grid(eta_grid, n_sig_grid)


def _panel_pmf(side: str, detector: DetectorKind, state: PdcTwinBeam,
               eta: float, n_det: int):
    channel = LossChannel(eta)
    if side == PROBE:
        if detector is DetectorKind.NUMBER_RESOLVING:
            return cond.condition_probe_number_resolving(n_det, channel)
        return cond.condition_probe_bucket(state, channel)
    if side == DETECTOR:
        if detector is DetectorKind.NUMBER_RESOLVING:
            return cond.posterior_number_resolving(state, n_det, channel)
        return cond.posterior_bucket(state, channel)
    raise ValueError(f"side must be {PROBE!r} or {DETECTOR!r}, got {side!r}")


def fig_conditional(side: str, detector: DetectorKind,
                    eta_list=DEFAULT_CONDITION_ETAS,
                    epsilon: float = 0.5, n_det: int = 1) -> FigureDataset:
    """Heralded photon-number distributions, one pmf column per efficiency.

    side = "probe": the loss sits between the twin-beam source and the
    sample, after an ideal detection. side = "detector": the detection
    itself is lossy and the pmf is the Bayesian posterior for what reached
    the sample. Number-resolving panels condition on N_det = n_det; bucket
    panels condition on a click.
    """
    eta_list = tuple(eta_list)
    require_grid(eta_list, "eta", 0.0, 1.0, True, True)
    state = PdcTwinBeam(epsilon)
    pmfs = [
        _panel_pmf(side, detector, state, eta, n_det) for eta in eta_list
    ]
    n_max = max(p.n_max for p in pmfs)
    cols = {}
    for eta, p in zip(eta_list, pmfs):
        padded = np.zeros(n_max + 1)
        padded[: p.n_max + 1] = p.pmf
        cols[f"pmf_eta_{_column_tag(eta)}"] = padded
    return FigureDataset(
        figure_id=f"conditional-pmf-{side}-{detector.value}",
        axes=(Axis("n_photons", np.arange(n_max + 1.0), "linear"),),
        columns=cols,
        metadata={
            "side": side,
            "detector": detector.value,
            "epsilon": epsilon,
            "n_det": n_det,
            "eta_list": list(eta_list),
            "describes": "binomial thinning / Bayes with binomial likelihood "
                         "on the geometric twin-beam marginal",
        },
    )


FIGURES = {
    "fig-limits": fig_limits,
    "fig-noon-loss": fig_noon_loss,
    "fig-squeezed-loss": fig_squeezed_loss,
    "fig-compare": fig_compare,
    "fig-conditional": fig_conditional,
}
