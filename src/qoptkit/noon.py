"""Path-entangled N-photon (NOON) phase sensing with single-arm loss.

The probe arm transmits with efficiency eta while the reference arm, state
preparation, and detection are ideal. Everything is driven by the single-shot
precision

    dphi_1 = sqrt((eta^-N + 1)/2) / N

which reduces to the Heisenberg value 1/N at eta=1. Repeating the state M
times with the same sample exposure n_sig = M*N/2 gives

    dphi_M = (1/(2*sqrt(n_sig))) * sqrt((eta^-N + 1)/N)

so the enhancement over the sample-power shot-noise limit,
E = sqrt(N/(eta^-N + 1)), is independent of the exposure. E has an interior
maximum in N for every eta < 1; the maximizing N solves

    N*ln(eta) + eta^N + 1 = 0

(the continuous stationarity condition). In x = N ln(eta) it reads
x + e^x + 1 = 0, whose root is x* = -(1 + W(1/e)) = -1.278464542761074
(Lambert W; Corless et al., Adv. Comput. Math. 5, 329 (1996)), so

    N* = -1.278464542761074 / ln(eta)

in closed form, with the physical optimum being the best integer near N*.

eta^-N overflows double precision already at modest N for small eta, so all
evaluations of eta^-N + 1 go through logaddexp. noon_enhancement,
noon_optimal_n and noon_best_precision take numpy arrays as well as scalars
and evaluate elementwise, so whole grids go through one call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Axis, FigureDataset
from .domain import require_grid, require_in, require_int
from .limits import PowerConstraint, loss_bound, sql_sample

# Integer search never ranges past this; above it eta^-N either underflows
# the enhancement to 0 or the optimum is far beyond any plotted regime.
N_SEARCH_MAX = 200
# x* = -(1 + W(1/e)), the root of x + e^x + 1 = 0
STATIONARY_X = -1.278464542761074


@dataclass(frozen=True)
class NoonLossReport:
    """Repeated-NOON precision budget at fixed sample exposure."""

    n: float
    eta: float
    delta_phi_single: float
    delta_phi_m: float
    enhancement: float
    m_repetitions: float

    @property
    def integer_repetitions(self) -> bool:
        """False when M = 2*n_sig/N is a real-valued idealization."""
        return abs(self.m_repetitions - round(self.m_repetitions)) < 1e-9


def _backend(*args):
    """math when every argument is a scalar, numpy otherwise.

    numpy's vectorised exp and log differ from libm in the last bit for a
    few percent of arguments, and N ln(eta) amplifies a change in ln(eta)
    N|ln eta|-fold, so scalar results keep libm and stay bit-stable.
    """
    return math if all(np.ndim(x) == 0 for x in args) else np


def _log1p_eta_negn(n, eta, xp):
    """log(eta^-N + 1), overflow-safe."""
    return np.logaddexp(-n * xp.log(eta), 0.0)


def _exp_or_inf(x, xp):
    if xp is math:
        return math.exp(x) if x < 709.0 else math.inf
    with np.errstate(over="ignore"):
        return np.exp(x)


def noon_single_shot(n: float, eta: float) -> float:
    """One-state precision sqrt((eta^-N + 1)/2)/N; equals 1/N at eta=1."""
    require_int(n, "N", 1)
    require_in(eta, "eta", 0.0, 1.0, hi_closed=True)
    log1p = _log1p_eta_negn(n, eta, math)
    return _exp_or_inf(0.5 * (log1p - math.log(2.0)), math) / n


def noon_enhancement(n, eta):
    """Precision gain over the shot-noise limit: E = sqrt(N/(eta^-N + 1)).

    Exposure-independent: both the repeated-NOON precision and the shot-noise
    limit scale as 1/sqrt(n_sig). E > 1 is beyond-classical operation.
    """
    n = require_in(n, "N", 1.0, lo_closed=True)
    eta = require_in(eta, "eta", 0.0, 1.0, hi_closed=True)
    xp = _backend(n, eta)
    return xp.exp(0.5 * (xp.log(n) - _log1p_eta_negn(n, eta, xp)))


def _delta_phi_m(n, eta, n_sig):
    # real-valued core shared by the report path and the smooth curves
    xp = _backend(n, eta, n_sig)
    return _exp_or_inf(
        0.5 * (_log1p_eta_negn(n, eta, xp) - xp.log(n)), xp
    ) / (2.0 * xp.sqrt(n_sig))


def noon_repeated(n: float, eta: float, n_sig: float) -> NoonLossReport:
    """Budget report for M = 2*n_sig/N repetitions of an N-photon state.

    Requires n_sig >= N/2 so at least one full state fits the exposure. M is
    left real-valued; the report flags when it is not a whole number.
    """
    require_int(n, "N", 1)
    require_in(n_sig, "n_sig", 0.0)
    if n_sig < n / 2.0:
        raise ValueError(
            f"n_sig = {n_sig} cannot complete one N={n} state: need n_sig >= N/2"
        )
    m = 2.0 * n_sig / n
    return NoonLossReport(
        n=float(n),
        eta=eta,
        delta_phi_single=noon_single_shot(n, eta),
        delta_phi_m=_delta_phi_m(n, eta, n_sig),
        enhancement=noon_enhancement(n, eta),
        m_repetitions=m,
    )


def noon_threshold_efficiency(n: int) -> float:
    """Efficiency above which an N-photon state beats shot noise: (N-1)^(-1/N).

    Solves E = 1. Minimized over N at N=5 (eta ~ 0.758). N=2 returns 1.0,
    meaning no lossy two-photon advantage exists; warned because the returned
    "threshold" cannot be exceeded.
    """
    require_int(n, "N", 2)
    if n == 2:
        warnings.warn(
            "N=2 threshold is eta=1: a two-photon state never beats shot noise "
            "under any loss",
            stacklevel=2,
        )
        return 1.0
    return (n - 1.0) ** (-1.0 / n)


def noon_optimal_n(eta):
    """Best integer photon number per state at efficiency eta.

    Returns (n_opt, enhancement, root). root = STATIONARY_X / ln(eta) is the
    closed-form stationary point, and n_opt the enhancement-argmax over the
    integers next to it (ties to the smaller N, floor at 1, capped at
    N_SEARCH_MAX). A scalar eta gives (int, float, float); an array gives
    three arrays of its shape.
    """
    eta = require_in(eta, "eta", 0.0, 1.0)
    root = STATIONARY_X / _backend(eta).log(eta)
    # E rises up to the root and falls after it, so the best integer is
    # floor(root) or ceil(root), or the cap when the root lies past it
    base = np.maximum(1.0, np.floor(root) - 1.0)
    cands = np.minimum(base[..., None] + np.arange(4.0), N_SEARCH_MAX)
    enh = noon_enhancement(cands, eta[..., None])
    pick = np.argmax(enh, axis=-1)[..., None]  # first: ties keep smaller N
    n_opt = np.take_along_axis(cands, pick, -1)[..., 0]
    best = np.take_along_axis(enh, pick, -1)[..., 0]
    if np.ndim(root) == 0:
        return int(n_opt), float(best), float(root)
    return n_opt.astype(int), best, root


def noon_best_precision(eta, n_sig, n_opt):
    """Best NOON precision at exposure n_sig, and the photon number in play.

    Below the kink at n_sig = n_opt/2 a single state with N = 2*n_sig (real-
    valued idealization) beats any repetition strategy; above it, repeating
    the n_opt-photon state of noon_optimal_n wins. Both branches evaluate
    identically at the kink; n_opt = inf (lossless) keeps the single state
    everywhere. Broadcasts over its arguments; returns (delta_phi, n_state).
    """
    eta = require_in(eta, "eta", 0.0, 1.0, hi_closed=True)
    n_sig = require_in(n_sig, "n_sig", 0.0)
    n_state = np.where(n_sig <= n_opt / 2.0, 2.0 * n_sig, n_opt)
    return _delta_phi_m(n_state, eta, n_sig), n_state


def noon_flux_requirement(n: float, target_sql_n_sig: float,
                          constraint: PowerConstraint = PowerConstraint.SAMPLE,
                          ) -> float:
    """Trial rate at which N-photon states match a shot-noise-limited flux.

    SAMPLE budgeting equates 1/(N*sqrt(M)) with the sample-power shot-noise
    limit at n_sig photons/s, giving M = 4*n_sig/N^2 trials/s. TOTAL budgeting
    compares at equal total flux n photons/s, giving M = n/N^2 (the form
    behind order-of-magnitude source-rate estimates).
    """
    require_int(n, "N", 1)
    require_in(target_sql_n_sig, "target rate", 0.0)
    if constraint is PowerConstraint.SAMPLE:
        return 4.0 * target_sql_n_sig / (n * n)
    if constraint is PowerConstraint.TOTAL:
        return target_sql_n_sig / (n * n)
    raise ValueError(f"unknown power constraint {constraint!r}")


def noon_precision_curve(eta: float, n_sig_grid) -> FigureDataset:
    """Best NOON precision vs sample exposure, with its reference lines.

    Columns: delta_phi and n_state (the N in play) from noon_best_precision,
    and the sql_sample and loss_bound references. The loss reference is
    reported as 0 at eta=1.
    """
    require_in(eta, "eta", 0.0, 1.0, hi_closed=True)
    grid = require_grid(n_sig_grid, "n_sig grid", 0.0)
    require_in(np.diff(grid), "n_sig grid steps", 0.0)  # strictly ascending
    if eta < 1.0:
        n_opt, _, root = noon_optimal_n(eta)
        floor = loss_bound(grid, eta, PowerConstraint.SAMPLE).delta_phi
    else:
        n_opt, root = math.inf, math.inf  # lossless: bigger N always helps
        floor = np.zeros_like(grid)
    dphi, n_state = noon_best_precision(eta, grid, n_opt)
    kink = n_opt / 2.0
    return FigureDataset(
        figure_id="noon-precision-curve",
        axes=(Axis("n_sig", grid, "log"),),
        columns={
            "delta_phi": dphi,
            "n_state": n_state,
            "sql_sample": sql_sample(grid).delta_phi,
            "loss_bound": floor,
        },
        metadata={
            "eta": eta,
            "n_opt": None if math.isinf(n_opt) else int(n_opt),
            "stationarity_root": None if math.isinf(root) else root,
            "kink_n_sig": None if math.isinf(kink) else kink,
        },
    )
