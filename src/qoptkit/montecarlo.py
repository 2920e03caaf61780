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
  absorption     transmitted count Binomial(n_sig, 1-alpha) for n_sig heralded
                 photons, Poisson(n_sig*(1-alpha)) for a thinned coherent one.

Reproducibility contract: every draw comes from a counter-based Philox
generator keyed by (seed, stream constant), one stream per experiment, with
all draws vectorized in a fixed order. Same seed, same numbers, bit for bit.
The trials run in chunks of CHUNK; each chunk draws all of its stages in turn
and folds its estimates' moments into a running (n, mean, M2) by the pairwise
update of Chan, Golub and LeVeque (Am. Stat. 37, 242 (1983)), so memory does
not grow with the trial count. A run of at most CHUNK trials gives np.mean and
np.std(ddof=1) of one sampler call per stage, bit for bit.

The fringe's period comes from a Gauss-Newton fit whose every step solves
its 3x3 normal equations by cofactors, from sums of elementwise products:
no simulation calls BLAS or LAPACK, whose first least-squares call would
add over 1 MB to a process's peak memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Axis, FigureDataset
from .domain import (ABSORPTION, ABSORPTION_N_SIG, EFFICIENCY, HOM_TRIALS,
                     HOMODYNE_EFFICIENCY, MZ_N0, MZ_PHASE, PHASE, PHASE_POINTS,
                     PHOTONS, POSITIVE, SEED, STD_TRIALS, TRIALS, require_in,
                     require_int)
from .squeezed import squeezed_precision

DEFAULT_SEED = 97531
# trials per chunk: every CLI default and golden (at most 10 000) is one
CHUNK = 2**14

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


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([require_int(seed, "seed", *SEED), stream],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """MZ and homodyne knobs; each simulation checks the fields it reads.

    n_photons is n0 (total input) for the MZ experiment and alpha^2 (coherent
    exposure) for the homodyne experiment.
    """

    seed: int = DEFAULT_SEED
    trials: int = 10_000
    phase: float = math.pi / 2.0
    n_photons: float = 10_000.0
    eta: float = 1.0


@dataclass(frozen=True)
class SimReport:
    estimate_mean: float
    estimate_std: float
    std_error_of_std: float
    analytic_reference: float


def _chunk_lengths(n: int):
    """The lengths of the chunks of n trials: CHUNK each, the last shorter."""
    return (min(CHUNK, n - i) for i in range(0, n, CHUNK))


def _report(trials: int, estimates, analytic: float) -> SimReport:
    """Sample mean and std (ddof = 1) of estimates(m) over chunks of trials.

    Each chunk's mean is np.add.reduce(x)/m and its M2 the sum of the
    deviations squared in place in x, as np.mean and np.std compute them;
    the chunks merge pairwise (Chan, Golub and LeVeque), which leaves the
    first chunk's mean and M2 exactly as they are.
    """
    n, mean, m2 = 0, 0.0, 0.0
    for m in _chunk_lengths(trials):
        x = estimates(m)
        x_mean = np.add.reduce(x) / m
        np.subtract(x, x_mean, out=x)
        np.multiply(x, x, out=x)
        delta = x_mean - mean
        n += m
        mean += delta * (m / n)
        m2 += np.add.reduce(x) + delta * delta * ((n - m) * m / n)
    std = math.sqrt(m2 / (n - 1))
    return SimReport(
        estimate_mean=float(mean),
        estimate_std=std,
        std_error_of_std=std / math.sqrt(2.0 * n),
        analytic_reference=analytic,
    )


def simulate_coherent_mz(cfg: SimConfig) -> SimReport:
    """Phase estimation from Poisson count differences in a two-port MZ.

    Estimator phi_hat = pi/2 - (n_A - n_B)/(eta*n0), unbiased to first order
    near the half-fringe point; its std is 1/sqrt(eta*n0) at any operating
    phase (the two Poisson variances always sum to eta*n0).
    """
    require_int(cfg.trials, "trials", *STD_TRIALS)
    n0 = float(require_in(cfg.n_photons, "n0", *MZ_N0))
    eta = float(require_in(cfg.eta, "eta", *EFFICIENCY))
    phase = float(require_in(cfg.phase, "operating phase", *MZ_PHASE))
    rng = _generator(cfg.seed, _STREAM_MZ)
    mean_a = eta * n0 * (1.0 + math.cos(phase)) / 2.0
    mean_b = eta * n0 * (1.0 - math.cos(phase)) / 2.0
    return _report(cfg.trials, lambda m: math.pi / 2.0 - (
        rng.poisson(mean_a, m) - rng.poisson(mean_b, m)) / (eta * n0),
        1.0 / math.sqrt(eta * n0))


def simulate_noon_fringe(n_phase_points: int, trials: int,
                         seed: int = DEFAULT_SEED) -> FigureDataset:
    """Sampled two-photon coincidence fringe with its fitted period.

    Scans phi over [0, 2*pi], drawing per point how many of `trials` pairs
    land on the same detector, and fits rate = c + a*cos(omega*phi). The
    doubled fringe shows up as period 2*pi/omega = pi and the fit results
    land in the metadata (fitted_period, fitted_visibility).
    """
    require_int(n_phase_points, "phase points", *PHASE_POINTS)
    require_int(trials, "trials", *TRIALS)
    rng = _generator(seed, _STREAM_FRINGE)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phase_points)
    p_same = (1.0 + np.cos(2.0 * phases)) / 2.0
    counts = rng.binomial(trials, np.clip(p_same, 0.0, 1.0))
    rate = counts / trials

    fit = _fit_fringe(phases, rate)
    if fit is None:
        raise ValueError(f"fringe fit failed at {n_phase_points} phase "
                         f"points, {trials} trials, seed {seed}")
    c, a, omega = fit
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


def _fit_fringe(phi: np.ndarray, y: np.ndarray) -> tuple | None:
    """Least-squares fit of y = c + a cos(omega phi) by Gauss-Newton.

    Each step solves the 3x3 normal equations J^T J step = J^T r by the
    cofactors of the symmetric J^T J, whose entries are sums of products of
    the Jacobian columns (1, cos(omega phi), -a phi sin(omega phi)), so no
    step calls BLAS or LAPACK. Each step is halved until the residual sum of
    squares stops rising, which keeps sparse fringes (few points, few trials)
    from oscillating; if no halving stops it, the iterate is the fit. Returns
    (c, a, omega), or None when a step goes non-finite or the iteration runs
    _FIT_MAX_ITER steps.
    """
    def residual(theta):
        return y - theta[0] - theta[1] * np.cos(theta[2] * phi)

    sum_ = np.add.reduce
    n = float(len(phi))
    theta = np.array(_FIT_P0)
    r = residual(theta)
    for _ in range(_FIT_MAX_ITER):
        _, a, omega = theta
        cos = np.cos(omega * phi)
        d_omega = -a * phi * np.sin(omega * phi)
        s01, s02, s11 = sum_(cos), sum_(d_omega), sum_(cos * cos)
        s12, s22 = sum_(cos * d_omega), sum_(d_omega * d_omega)
        b0, b1, b2 = sum_(r), sum_(cos * r), sum_(d_omega * r)
        c00, c01 = s11 * s22 - s12 * s12, s02 * s12 - s01 * s22
        c02, c11 = s01 * s12 - s02 * s11, n * s22 - s02 * s02
        c12, c22 = s01 * s02 - n * s12, n * s11 - s01 * s01
        det = n * c00 + s01 * c01 + s02 * c02
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.array([c00 * b0 + c01 * b1 + c02 * b2,
                             c01 * b0 + c11 * b1 + c12 * b2,
                             c02 * b0 + c12 * b1 + c22 * b2]) / det
        if not np.all(np.isfinite(step)):
            return None
        if np.all(np.abs(step) <= _FIT_XTOL * (np.abs(theta) + _FIT_XTOL)):
            return tuple(float(t) for t in theta + step)
        rss = sum_(r * r)
        for halving in range(_FIT_HALVINGS + 1):
            trial = theta + step / 2**halving
            r_trial = residual(trial)
            if sum_(r_trial * r_trial) <= rss:
                break
        else:
            return tuple(float(t) for t in theta)
        theta, r = trial, r_trial
    return None


def simulate_hom(trials: int, distinguishable: bool,
                 seed: int = DEFAULT_SEED) -> float:
    """Cross-detector coincidence rate behind a balanced beam splitter.

    Indistinguishable pairs bunch: both photons take the same (random) port
    every trial, so the cross rate is exactly 0 whatever port they take, and
    none is drawn. Distinguishable photons route independently and coincide
    half the time.
    """
    require_int(trials, "trials", *HOM_TRIALS)
    rng = _generator(seed, _STREAM_HOM)
    if not distinguishable:
        return 0.0
    cross = sum(np.count_nonzero(rng.integers(0, 2, m) != rng.integers(0, 2, m))
                for m in _chunk_lengths(trials))
    return float(cross / trials)


def simulate_homodyne_squeezed(cfg: SimConfig, v_sqz: float) -> SimReport:
    """Phase estimation from homodyne samples of a lossy squeezed probe.

    alpha = sqrt(cfg.n_photons). Samples the phase quadrature as Gaussian
    with mean 2*sqrt(eta)*alpha*phi and variance eta*v_sqz + (1-eta), then
    inverts the mean: phi_hat = y/(2*alpha*sqrt(eta)). The analytic std is
    sqrt(v_sqz + (1-eta)/eta)/(2*alpha).

    The samples come from the assumed Gaussian noise model itself, so this
    checks the estimator and its analytic std, not the noise model.
    """
    require_in(v_sqz, "v_sqz", *POSITIVE)
    require_int(cfg.trials, "trials", *STD_TRIALS)
    eta = float(require_in(cfg.eta, "eta", *HOMODYNE_EFFICIENCY))
    phase = float(require_in(cfg.phase, "phase", *PHASE))
    alpha2 = float(require_in(cfg.n_photons, "alpha^2", *PHOTONS))
    if alpha2 < 100.0 * max(1.0, v_sqz):
        raise ValueError(
            f"bright-probe gate violated: need alpha^2 >= 100*max(1, v_sqz), "
            f"got alpha^2 = {alpha2}, v_sqz = {v_sqz}"
        )
    alpha = math.sqrt(alpha2)
    rng = _generator(cfg.seed, _STREAM_HOMODYNE)
    mean = 2.0 * math.sqrt(eta) * alpha * phase
    sigma = math.sqrt(eta * v_sqz + (1.0 - eta))
    scale = 2.0 * alpha * math.sqrt(eta)
    return _report(cfg.trials, lambda m: rng.normal(mean, sigma, m) / scale,
                   squeezed_precision(alpha, v_sqz, eta))


def simulate_heralded_absorption(alpha_true: float, n_sig: int, heralded: bool,
                                 trials: int, seed: int = DEFAULT_SEED) -> SimReport:
    """Absorption estimation with heralded single photons vs a coherent probe.

    Heralded: exactly n_sig photons hit the sample, transmitted count is
    Binomial(n_sig, 1-alpha), estimator variance alpha(1-alpha)/n_sig.
    Coherent: a Poisson(n_sig) source thinned by the sample is drawn by its
    law, Poisson(n_sig*(1-alpha)), variance (1-alpha)/n_sig; this checks the
    estimator, not the thinning law. Both use alpha_hat = 1 - k/n_sig.
    """
    require_in(alpha_true, "absorption", *ABSORPTION)
    n_sig = int(require_int(n_sig, "n_sig", *ABSORPTION_N_SIG))
    require_int(trials, "trials", *STD_TRIALS)
    rng = _generator(seed, _STREAM_ABSORPTION)
    if heralded:
        def transmitted(m):
            return rng.binomial(n_sig, 1.0 - alpha_true, m)
        var = alpha_true * (1.0 - alpha_true) / n_sig
    else:
        def transmitted(m):  # a thinned Poisson count is Poisson
            return rng.poisson(n_sig * (1.0 - alpha_true), m)
        var = (1.0 - alpha_true) / n_sig
    return _report(trials, lambda m: 1.0 - transmitted(m) / n_sig,
                   math.sqrt(var))