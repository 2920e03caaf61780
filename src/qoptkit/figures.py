"""Every table of closed forms, as a ready-to-plot FigureDataset: the named
figures, the NOON best-precision curve and the NOON vs squeezed ratio grid.
Nothing here renders anything; these functions only evaluate the closed
forms over documented default grids (all overridable, all echoed in
metadata) so the datasets can be regenerated bit-identically.
"""
from __future__ import annotations

import math

import numpy as np

from . import conditioning as cond
from .conditioning import DetectorKind, LossChannel
from .dataset import Axis, FigureDataset
from .domain import (COMPARE_N_SIG, EFFICIENCY, MAX_CELLS, ONE_PHOTON_N_SIG,
                     TRANSMISSION, check_size, require_grid, require_in)
from .limits import (PowerConstraint, heisenberg, loss_bound, sql_sample,
                     squeezed_vacuum_crb)
from .noon import noon_best_precision, noon_optimal_n
from .squeezed import optimal_squeezing
from .states import PdcTwinBeam

PROBE = "probe"
DETECTOR = "detector"

DEFAULT_CONDITION_ETAS = (1.0, 0.7, 0.4, 0.1)
DEFAULT_SQZ_N_SIG = (1.0, 10.0, 100.0, 1000.0)


def _column_tags(values: tuple, name: str) -> list[str]:
    """Each value's %g text, which names its columns; two values with the same
    text would overwrite one column, so they are refused."""
    tags = [format(v, "g") for v in values]
    if len(set(tags)) < len(tags):
        raise ValueError(f"{name} values {', '.join(map(str, values))} must "
                         "differ in the 6 significant digits that name their "
                         "columns")
    return tags


def fig_limits(n_sig_grid=None, eta_list=(0.5, 0.9, 0.99)) -> FigureDataset:
    """Phase-precision limit curves vs sample exposure.

    Columns: sql_sample, heisenberg at the matched total power n0 = 2*n_sig,
    the squeezed-vacuum bound, and the loss floor for each eta. At n_sig = 1
    the SQL and Heisenberg curves touch (both 0.5).
    """
    if n_sig_grid is None:
        n_sig_grid = np.logspace(0.0, 6.0, 121)
    grid = require_grid(n_sig_grid, "n_sig grid", *ONE_PHOTON_N_SIG)
    eta_list = tuple(eta_list)
    require_grid(eta_list, "eta", 0.0, 1.0)
    cols: dict[str, np.ndarray] = {
        "sql_sample": sql_sample(grid),
        "heisenberg_n0": heisenberg(2.0 * grid),
        "squeezed_vacuum_crb": squeezed_vacuum_crb(grid),
    }
    for eta, tag in zip(eta_list, _column_tags(eta_list, "eta_list")):
        cols[f"loss_bound_eta_{tag}"] = loss_bound(grid, eta,
                                                   PowerConstraint.SAMPLE)
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
    grid = require_grid(eta_grid, "eta", *EFFICIENCY)
    n_sig_list = tuple(n_sig_list)
    # one row of reports per n_sig, one column per eta
    r = optimal_squeezing(require_grid(n_sig_list, "n_sig", 0.0)[:, None],
                          grid)
    tags = _column_tags(n_sig_list, "n_sig_list")
    cols: dict[str, np.ndarray] = {}
    for i, tag in enumerate(tags):
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


def noon_precision_curve(eta: float, n_sig_grid) -> FigureDataset:
    """Best NOON precision vs sample exposure, with its reference lines.

    Columns: delta_phi and n_state (the N in play) from noon_best_precision,
    and the sql_sample and loss_bound references; the loss reference is 0
    at eta=1.
    """
    require_in(eta, "eta", *EFFICIENCY)
    grid = require_grid(n_sig_grid, "n_sig grid", *ONE_PHOTON_N_SIG)
    require_in(np.diff(grid), "n_sig grid steps", 0.0)  # strictly ascending
    if eta < 1.0:
        n_opt, _, root = noon_optimal_n(eta)
    else:
        n_opt, root = math.inf, math.inf  # lossless: bigger N always helps
    dphi, n_state = noon_best_precision(eta, grid, n_opt)
    kink = n_opt / 2.0
    return FigureDataset(
        figure_id="noon-precision-curve",
        axes=(Axis("n_sig", grid, "log"),),
        columns={
            "delta_phi": dphi,
            "n_state": n_state,
            "sql_sample": sql_sample(grid),
            "loss_bound": loss_bound(grid, eta, PowerConstraint.SAMPLE),
        },
        metadata={
            "eta": eta,
            "n_opt": None if math.isinf(n_opt) else int(n_opt),
            "stationarity_root": None if math.isinf(root) else root,
            "kink_n_sig": None if math.isinf(kink) else kink,
        },
    )


def default_eta_grid(n_points: int = 200, eta_min: float = 0.5,
                     eta_max: float = 0.999) -> np.ndarray:
    """eta in [eta_min, eta_max], log-spaced in the loss 1-eta, ascending."""
    return 1.0 - np.logspace(math.log10(1.0 - eta_min),
                             math.log10(1.0 - eta_max), n_points)


def noon_vs_squeezed_grid(eta_grid=None, n_sig_grid=None) -> FigureDataset:
    """Ratio of optimal-NOON to optimal-squeezed precision on a 2-d grid.

    Ratio > 1 means the squeezed strategy is the more precise one at that
    (eta, n_sig). Metadata records the ratio extremes over the grid and where
    they occur. Default grids: default_eta_grid(), n_sig 200 log-spaced in
    [1, 100].
    """
    eta_grid = require_grid(
        default_eta_grid() if eta_grid is None else eta_grid,
        "eta grid", 0.0, 1.0)
    n_sig_grid = require_grid(
        np.logspace(0.0, 2.0, 200) if n_sig_grid is None else n_sig_grid,
        "n_sig grid", *COMPARE_N_SIG)
    check_size(len(eta_grid) * len(n_sig_grid), MAX_CELLS, "grid cells")
    eta, n_sig = eta_grid[:, None], n_sig_grid[None, :]
    n_opt, _, _ = noon_optimal_n(eta)
    noon, _ = noon_best_precision(eta, n_sig, n_opt)
    flat = (noon / optimal_squeezing(n_sig, eta).delta_phi).reshape(-1)
    i_min, i_max = int(np.argmin(flat)), int(np.argmax(flat))

    def at(k):  # the grid point of flat index k
        i, j = divmod(k, len(n_sig_grid))
        return {"eta": float(eta_grid[i]), "n_sig": float(n_sig_grid[j])}

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
            "ratio_min_at": at(i_min),
            "ratio_max_at": at(i_max),
        },
    )


def _panel_pmf(side: str, detector: DetectorKind, state: PdcTwinBeam,
               eta: float, n_det: int):
    channel = LossChannel(eta)
    if side == PROBE:
        if detector is DetectorKind.NUMBER_RESOLVING:
            return cond.condition_probe_number_resolving(state, n_det, channel)
        return cond.condition_probe_bucket(state, channel)
    if side == DETECTOR:
        if detector is DetectorKind.NUMBER_RESOLVING:
            return cond.posterior_number_resolving(state, n_det, channel)
        return cond.posterior_bucket(state, channel)
    raise ValueError(f"side must be {PROBE!r} or {DETECTOR!r}, got {side!r}")


def fig_conditional(side: str = PROBE, detector=DetectorKind.NUMBER_RESOLVING,
                    eta_list=DEFAULT_CONDITION_ETAS, epsilon: float = 0.5,
                    n_det: int = 1) -> FigureDataset:
    """Heralded photon-number distributions, one pmf column per efficiency.

    side = "probe": the loss sits between the twin-beam source and the
    sample, after an ideal detection. side = "detector": the detection
    itself is lossy and the pmf is the Bayesian posterior for what reached
    the sample. Number-resolving panels condition on N_det = n_det; bucket
    panels condition on a click. detector is a DetectorKind or its value.

    Each column is as long as the longest pmf; the table's cells pass
    check_size after each panel, so one too big is refused before the next.
    """
    detector = DetectorKind(detector)
    eta_list = tuple(eta_list)
    require_grid(eta_list, "eta", *TRANSMISSION)
    tags = _column_tags(eta_list, "eta_list")
    state = PdcTwinBeam(epsilon)
    pmfs, rows = [], 0
    for eta in eta_list:
        pmfs.append(_panel_pmf(side, detector, state, eta, n_det))
        rows = max(rows, len(pmfs[-1].pmf))
        check_size(len(eta_list) * rows, unit="table cells")
    table = np.zeros((len(eta_list), rows))
    for row, p in zip(table, pmfs):
        row[: len(p.pmf)] = p.pmf
    return FigureDataset(
        figure_id=f"conditional-pmf-{side}-{detector.value}",
        axes=(Axis("n_photons", np.arange(rows + 0.0), "linear"),),
        columns={f"pmf_eta_{tag}": row for tag, row in zip(tags, table)},
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
    "fig-compare": noon_vs_squeezed_grid,
    "fig-conditional": fig_conditional,
}
