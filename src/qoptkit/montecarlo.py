"""Seeded Monte-Carlo checks for the closed-form precision results.

Sampling model per experiment:
  coherent MZ    detector counts n_A, n_B independently Poisson with means
                 (eta*n0/2)(1 +- cos(phi)); phase read out from the count
                 difference around the half-fringe point phi = pi/2.
  NOON fringe    two-photon coincidence outcomes, P(same detector) =
                 (1 + cos(2*phi))/2: twice the classical fringe frequency.
  HOM            indistinguishable photon pairs always exit a balanced
                 splitter together; distinguishable ones route independently.
  homodyne       quadrature samples Gaussian with mean 2*sqrt(eta)*alpha*phi
                 and variance eta*v_sqz + (1-eta).
  absorption     heralded probes are exactly n_sig single photons (binomial
                 transmission); a coherent probe adds Poisson source noise.

Reproducibility contract: every draw comes from a counter-based Philox
generator keyed by (seed, stream constant), one stream per experiment, with
all draws vectorized in a fixed order. Same seed, same numbers, bit for bit,
regardless of how results are later aggregated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Axis, FigureDataset
from .domain import (
    MAX_CELLS,
    MAX_PHOTONS,
    MAX_TRIALS,
    check_size,
    require_in,
    require_int,
)
from .squeezed import squeezed_precision

DEFAULT_SEED = 97531

# Stream constants: one per experiment so adding draws to one simulation
# never shifts the numbers of another.
_STREAM_MZ = 11
_STREAM_FRINGE = 12
_STREAM_HOM = 13
_STREAM_HOMODYNE = 14
_STREAM_ABSORPTION = 15

# Gauss-Newton fringe fit: start point (offset, amplitude, angular frequency),
# iteration cap, step halvings tried per iteration, and the relative step
# size that counts as converged.
_FIT_P0 = (0.5, 0.5, 2.0)
_FIT_MAX_ITER = 500
_FIT_HALVINGS = 10
_FIT_XTOL = 1e-12

# The count-difference estimator linearizes the fringe around pi/2; past
# this offset the fringe curvature biases it beyond the advertised std.
_MZ_PHASE_WINDOW = 0.35


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([require_int(seed, "seed", 0, 2**64 - 1), stream],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """Common knobs for the estimation simulations.

    n_photons is n0 (total input) for the MZ experiment and alpha^2 (coherent
    exposure) for the homodyne experiment.
    """

    seed: int = DEFAULT_SEED
    trials: int = 10_000
    phase: float = math.pi / 2.0
    n_photons: float = 10_000.0
    eta: float = 1.0

    def __post_init__(self):
        check_size(require_int(self.trials, "trials", 1), MAX_TRIALS, "trials")
        require_in(self.phase, "phase", -math.pi, math.pi, True, True)
        require_in(self.n_photons, "n_photons", 0.0, MAX_PHOTONS,
                   hi_closed=True)
        require_in(self.eta, "eta", 0.0, 1.0, hi_closed=True)


@dataclass(frozen=True)
class SimReport:
    estimate_mean: float
    estimate_std: float
    std_error_of_std: float
    analytic_reference: float


def _report(estimates: np.ndarray, analytic: float) -> SimReport:
    std = float(np.std(estimates, ddof=1))
    return SimReport(
        estimate_mean=float(np.mean(estimates)),
        estimate_std=std,
        std_error_of_std=std / math.sqrt(2.0 * len(estimates)),
        analytic_reference=analytic,
    )


def simulate_coherent_mz(cfg: SimConfig) -> SimReport:
    """Phase estimation from Poisson count differences in a two-port MZ.

    Estimator phi_hat = pi/2 - (n_A - n_B)/(eta*n0), unbiased to first order
    near the half-fringe point; its std is 1/sqrt(eta*n0) at any operating
    phase (the two Poisson variances always sum to eta*n0).
    """
    require_int(cfg.trials, "trials", 100)  # a meaningful std estimate
    require_in(cfg.n_photons, "n0", 100.0, lo_closed=True)  # counting regime
    require_in(cfg.phase, "operating phase", math.pi / 2.0 - _MZ_PHASE_WINDOW,
               math.pi / 2.0 + _MZ_PHASE_WINDOW, True, True)
    n0, eta = cfg.n_photons, cfg.eta
    rng = _generator(cfg.seed, _STREAM_MZ)
    mean_a = eta * n0 * (1.0 + math.cos(cfg.phase)) / 2.0
    mean_b = eta * n0 * (1.0 - math.cos(cfg.phase)) / 2.0
    n_a = rng.poisson(mean_a, cfg.trials)
    n_b = rng.poisson(mean_b, cfg.trials)
    phi_hat = math.pi / 2.0 - (n_a - n_b) / (eta * n0)
    return _report(phi_hat, 1.0 / math.sqrt(eta * n0))


def simulate_noon_fringe(n_phase_points: int, trials: int,
                         seed: int = DEFAULT_SEED) -> FigureDataset:
    """Sampled two-photon coincidence fringe with its fitted period.

    Scans phi over [0, 2*pi], drawing per point how many of `trials` pairs
    land on the same detector, and fits rate = c + a*cos(omega*phi). The
    doubled fringe shows up as period 2*pi/omega = pi and the fit results
    land in the metadata (fitted_period, fitted_visibility).
    """
    # at least 5 phase points resolve the fringe
    check_size(require_int(n_phase_points, "phase points", 5), MAX_CELLS,
               "grid cells")
    check_size(require_int(trials, "trials", 1), MAX_TRIALS, "trials")
    rng = _generator(seed, _STREAM_FRINGE)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phase_points)
    p_same = (1.0 + np.cos(2.0 * phases)) / 2.0
    counts = rng.binomial(trials, np.clip(p_same, 0.0, 1.0))
    rate = counts / trials

    c, a, omega = _fit_fringe(phases, rate)
    return FigureDataset(
        figure_id="noon-two-photon-fringe",
        axes=(Axis("phase", phases, "linear"),),
        columns={"same_detector_rate": rate, "probability": p_same},
        metadata={
            "trials_per_point": trials,
            "seed": seed,
            "fitted_period": 2.0 * math.pi / abs(omega),
            "fitted_visibility": abs(a) / c,
            "fitted_offset": float(c),
            "describes": "P(same detector) = (1 + cos(2 phi))/2",
        },
    )


def _fit_fringe(phi: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit of y = c + a cos(omega phi) by Gauss-Newton.

    Each step is halved until the residual sum of squares stops rising,
    which keeps sparse fringes (few points, few trials) from oscillating.
    Raises RuntimeError when the iteration goes non-finite or has not
    converged after _FIT_MAX_ITER steps.
    """
    def residual(theta):
        return y - theta[0] - theta[1] * np.cos(theta[2] * phi)

    theta = np.array(_FIT_P0)
    r = residual(theta)
    for _ in range(_FIT_MAX_ITER):
        _, a, omega = theta
        jac = np.column_stack([np.ones_like(phi), np.cos(omega * phi),
                               -a * phi * np.sin(omega * phi)])
        step = np.linalg.lstsq(jac, r, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            raise RuntimeError("fringe fit diverged to a non-finite value")
        if np.all(np.abs(step) <= _FIT_XTOL * (np.abs(theta) + _FIT_XTOL)):
            return tuple(float(t) for t in theta + step)
        rss = r @ r
        for halving in range(_FIT_HALVINGS + 1):
            trial = theta + step / 2**halving
            r_trial = residual(trial)
            if r_trial @ r_trial <= rss:
                break
        theta, r = trial, r_trial
    raise RuntimeError(
        f"fringe fit did not converge in {_FIT_MAX_ITER} Gauss-Newton steps")


def simulate_hom(trials: int, distinguishable: bool,
                 seed: int = DEFAULT_SEED) -> float:
    """Cross-detector coincidence rate behind a balanced beam splitter.

    Indistinguishable pairs bunch: both photons take the same (random) port
    every trial, so the cross rate is exactly 0. Distinguishable photons
    route independently and coincide half the time.
    """
    # enough trials to resolve the rate
    check_size(require_int(trials, "trials", 1000), MAX_TRIALS, "trials")
    rng = _generator(seed, _STREAM_HOM)
    if distinguishable:
        port_1 = rng.integers(0, 2, trials)
        port_2 = rng.integers(0, 2, trials)
        return float(np.mean(port_1 != port_2))
    # one port draw per pair; both photons follow it, so no pair ever splits
    rng.integers(0, 2, trials)
    return 0.0


def simulate_homodyne_squeezed(cfg: SimConfig, v_sqz: float) -> SimReport:
    """Phase estimation from homodyne samples of a lossy squeezed probe.

    alpha = sqrt(cfg.n_photons). Samples the phase quadrature as Gaussian
    with mean 2*sqrt(eta)*alpha*phi and variance eta*v_sqz + (1-eta), then
    inverts the mean: phi_hat = y/(2*alpha*sqrt(eta)). The analytic std is
    sqrt(v_sqz + (1-eta)/eta)/(2*alpha).
    """
    require_in(v_sqz, "v_sqz", 0.0)
    require_int(cfg.trials, "trials", 100)  # a meaningful std estimate
    alpha2 = cfg.n_photons
    if alpha2 < 100.0 * max(1.0, v_sqz):
        raise ValueError(
            f"bright-probe gate violated: need alpha^2 >= 100*max(1, v_sqz), "
            f"got alpha^2 = {alpha2}, v_sqz = {v_sqz}"
        )
    alpha, eta = math.sqrt(alpha2), cfg.eta
    rng = _generator(cfg.seed, _STREAM_HOMODYNE)
    mean = 2.0 * math.sqrt(eta) * alpha * cfg.phase
    sigma = math.sqrt(eta * v_sqz + (1.0 - eta))
    y = rng.normal(mean, sigma, cfg.trials)
    phi_hat = y / (2.0 * alpha * math.sqrt(eta))
    return _report(phi_hat, squeezed_precision(alpha, v_sqz, eta))


def simulate_heralded_absorption(alpha_true: float, n_sig: int, heralded: bool,
                                 trials: int, seed: int = DEFAULT_SEED) -> SimReport:
    """Absorption estimation with heralded single photons vs a coherent probe.

    Heralded: exactly n_sig photons hit the sample, transmitted count is
    Binomial(n_sig, 1-alpha), estimator variance alpha(1-alpha)/n_sig.
    Coherent: the source count itself is Poisson(n_sig) before transmission,
    inflating the variance to (1-alpha)/n_sig. Both use
    alpha_hat = 1 - k/n_sig.
    """
    require_in(alpha_true, "absorption", 0.0, 1.0)
    n_sig = int(require_int(n_sig, "n_sig", 1, MAX_PHOTONS))
    # enough trials for a meaningful std estimate
    check_size(require_int(trials, "trials", 100), MAX_TRIALS, "trials")
    rng = _generator(seed, _STREAM_ABSORPTION)
    if heralded:
        k = rng.binomial(n_sig, 1.0 - alpha_true, trials)
        var = alpha_true * (1.0 - alpha_true) / n_sig
    else:
        source = rng.poisson(n_sig, trials)
        k = rng.binomial(source, 1.0 - alpha_true)
        var = (1.0 - alpha_true) / n_sig
    alpha_hat = 1.0 - k / n_sig
    return _report(alpha_hat, math.sqrt(var))