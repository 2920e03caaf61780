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
and evaluate elementwise, so whole grids go through one call. Every quantity
is computed by numpy alone, so a scalar call returns, bit for bit, the entry
an array call gives at the same point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (EFFICIENCY, NOON_N, ONE_PHOTON_N_SIG, TARGET_RATE,
                     require_in, require_int)
from .limits import PowerConstraint

N_SEARCH_MAX = 200  # caps n_opt; binds for eta > e^(x*/200), about 0.99363
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


def _log1p_eta_negn(n, eta):
    """log(eta^-N + 1), overflow-safe."""
    return np.logaddexp(-n * np.log(eta), 0.0)


def _exp_or_inf(x):
    with np.errstate(over="ignore"):
        return np.exp(x)


def noon_single_shot(n: float, eta: float) -> float:
    """One-state precision sqrt((eta^-N + 1)/2)/N; equals 1/N at eta=1."""
    require_int(n, "N", *NOON_N)
    require_in(eta, "eta", *EFFICIENCY)
    log1p = _log1p_eta_negn(n, eta)
    return _exp_or_inf(0.5 * (log1p - math.log(2.0))) / n


def noon_enhancement(n, eta):
    """Precision gain over the shot-noise limit: E = sqrt(N/(eta^-N + 1)).

    Exposure-independent: both the repeated-NOON precision and the shot-noise
    limit scale as 1/sqrt(n_sig). E > 1 is beyond-classical operation.
    """
    n = require_in(n, "N", 1.0, lo_closed=True)
    eta = require_in(eta, "eta", *EFFICIENCY)
    return np.exp(0.5 * (np.log(n) - _log1p_eta_negn(n, eta)))


def _delta_phi_m(n, eta, n_sig):
    # real-valued core shared by the report path and the smooth curves
    return _exp_or_inf(0.5 * (_log1p_eta_negn(n, eta) - np.log(n))) / (
        2.0 * np.sqrt(n_sig))


def noon_repeated(n: float, eta: float, n_sig: float) -> NoonLossReport:
    """Budget report for M = 2*n_sig/N repetitions of an N-photon state.

    Requires n_sig >= N/2 so at least one full state fits the exposure. M is
    left real-valued; the report flags when it is not a whole number.
    """
    require_int(n, "N", *NOON_N)
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

    Solves E = 1. Minimized over N at N=5 (eta ~ 0.758). N=2 gives exactly
    1.0, a threshold no lossy channel reaches: a two-photon state never beats
    shot noise under any loss.
    """
    require_int(n, "N", 2)
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
    root = STATIONARY_X / np.log(eta)
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
    identically at the kink. n_opt is a whole number >= 1, or inf (lossless)
    to keep the single state everywhere. n_sig starts at 0.5, where that
    state holds one photon. Broadcasts; returns (delta_phi, n_state).
    """
    eta = require_in(eta, "eta", *EFFICIENCY)
    n_sig = require_in(n_sig, "n_sig", *ONE_PHOTON_N_SIG)
    n_opt = np.asarray(n_opt, dtype=float)
    ok = (n_opt >= 1.0) & (np.floor(n_opt) == n_opt)  # inf too: lossless
    if not ok.all():
        raise ValueError("n_opt must be a whole number >= 1 or inf, got "
                         f"{float(n_opt[~ok][0])!r}")
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
    require_int(n, "N", *NOON_N)
    require_in(target_sql_n_sig, "target rate", *TARGET_RATE)
    if constraint is PowerConstraint.SAMPLE:
        return 4.0 * target_sql_n_sig / (n * n)
    if constraint is PowerConstraint.TOTAL:
        return target_sql_n_sig / (n * n)
    raise ValueError(f"unknown power constraint {constraint!r}")
