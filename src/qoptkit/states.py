"""Quantum-state models and their photon-counting observables.

Everything here is a small immutable value type plus pure functions:
photon-number distributions (Poisson for coherent states, geometric for the
marginal of a down-conversion twin beam) and the second-order coherence
diagnostic built on top of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import EPSILON, check_size, require_in, require_int

# Normalization slack tolerated on any stored pmf. Every truncated support
# (the geometric prior's, and each heralding posterior's, sized from its own
# tail) leaves out less than TAIL_MASS, so conditional pmfs stay within 1e-12
# total variation of untruncated enumeration with orders of magnitude to
# spare.
NORM_TOL = 1e-9
TAIL_MASS = 1e-16


@dataclass(frozen=True)
class PhotonDistribution:
    """Probability mass over photon number N = 0..n_max.

    pmf[N] is the probability of counting N photons. Entries are stored
    unrenormalized (truncation tail simply missing), so the sum may fall
    short of 1 by up to the tail bound.
    """

    pmf: np.ndarray

    def __post_init__(self):
        p = require_in(self.pmf, "pmf entries", 0.0, 1.0, True, True)
        object.__setattr__(self, "pmf", p)
        s = float(p.sum())
        if abs(s - 1.0) > NORM_TOL:
            raise ValueError(f"pmf sums to {s!r}, outside 1 +- {NORM_TOL}")

    @property
    def n_max(self) -> int:
        return len(self.pmf) - 1

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.n_max + 1)

    def __eq__(self, other):
        if not isinstance(other, PhotonDistribution):
            return NotImplemented
        return self.n_max == other.n_max and np.array_equal(self.pmf, other.pmf)


def delta_distribution(n: int) -> PhotonDistribution:
    """Deterministic count: all mass at photon number n."""
    p = np.zeros(check_size(require_int(n, "photon number", 0) + 1))
    p[n] = 1.0
    return PhotonDistribution(p)


@dataclass(frozen=True)
class PdcTwinBeam:
    """Parametric down-conversion twin beam, interaction strength epsilon.

    Both marginals share the geometric distribution p(N) = (1-eps)*eps^N and
    the joint state is perfectly photon-number correlated.
    """

    epsilon: float

    def __post_init__(self):
        require_in(self.epsilon, "epsilon", *EPSILON)

    @property
    def mean_photons(self) -> float:
        return self.epsilon / (1.0 - self.epsilon)


# Binomial and Poisson probabilities by Loader's saddle-point form (C. Loader,
# "Fast and accurate computation of binomial probabilities", 2000; the method
# of R's dbinom and dpois). The log-probability is a sum of O(1) terms,
# Stirling-series corrections and deviances, so nothing large cancels. The
# relative error is not machine precision at any n, though: the roundings of
# 1 - p and of the mean enter the deviances, so it grows like
# |k - mean| * 2^-53, 1.1e-9 at k = 1e14 + 1e7, n = 1e15, p = 0.1. A
# cumulative log-factorial table loses about 1e-11 in total variation by
# n ~ 3600.

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15; entry 0 is
# a placeholder, since k = 0 and k = n take the edge forms below.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_LOG_2PI = math.log(2.0 * math.pi)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    # exact table up to 15, five terms of the Stirling series above
    m = np.maximum(n, 16.0)
    mm = m * m
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * mm))
                                   / mm) / mm) / mm) / m
    return np.where(n < 16, _STIRLERR[np.minimum(n, 15).astype(int)], series)


def _bd0(x: np.ndarray, mu) -> np.ndarray:
    # deviance x log(x/mu) + mu - x, for x > 0 and mu > 0
    return x * np.log1p((x - mu) / mu) - (x - mu)


def binomial_pmf(k, n, p: float) -> np.ndarray:
    """P(K = k) for K ~ Binomial(n, p), elementwise over broadcast k and n.

    Integer-valued k and n >= 0; k outside [0, n] has probability 0.
    """
    k, n = np.broadcast_arrays(np.asarray(k, dtype=float),
                               np.asarray(n, dtype=float))
    if p == 0.0:
        return (k == 0).astype(float)
    if p == 1.0:
        return (k == n).astype(float)
    q = 1.0 - p
    # interior form on 0 < k < n; the other lanes get a harmless stand-in
    inner = (k > 0) & (k < n)
    ki, ni = np.where(inner, k, 1.0), np.where(inner, n, 2.0)
    lc = (_stirlerr(ni) - _stirlerr(ki) - _stirlerr(ni - ki)
          - _bd0(ki, ni * p) - _bd0(ni - ki, ni * q))
    lf = _LOG_2PI + np.log(ki) + np.log((ni - ki) / ni)
    # q = 1 - p rounds to 1.0 for p <= 2^-54, where log1p(-q) would raise;
    # log(p) is the same exponent there (not the p == 0 case: p(1) = n p)
    log_p = math.log1p(-q) if q < 1.0 else math.log(p)
    edge = np.exp(n * np.where(k == 0, math.log1p(-p), log_p))
    out = np.where(inner, np.exp(lc - 0.5 * lf), edge)
    return np.where((k < 0) | (k > n), 0.0, out)


def poisson_pmf(k, mean: float) -> np.ndarray:
    """P(K = k) for K ~ Poisson(mean), elementwise over integer k >= 0."""
    k = np.asarray(k, dtype=float)
    if mean == 0.0:
        return (k == 0).astype(float)
    kk = np.maximum(k, 1.0)
    body = np.exp(-_stirlerr(kk) - _bd0(kk, mean)) / np.sqrt(2.0 * math.pi * kk)
    return np.where(k == 0, math.exp(-mean), body)


def coherent_pmf(mean_n: float, n_max: int | None = None) -> PhotonDistribution:
    """Poisson photon statistics of a coherent state: p(N) = e^-n n^N / N!.

    Default truncation n_max = max(32, ceil(mean + 12*sqrt(mean))) keeps the
    missing tail below 1e-12.
    """
    require_in(mean_n, "mean photon number", 0.0, lo_closed=True)
    if n_max is None:
        n_max = max(32, math.ceil(mean_n + 12.0 * math.sqrt(mean_n)))
    p = poisson_pmf(np.arange(check_size(n_max + 1)), mean_n)
    return PhotonDistribution(p)


def pdc_marginal_pmf(state: PdcTwinBeam, n_max: int | None = None) -> PhotonDistribution:
    """Geometric marginal of a twin beam: p(N) = (1-eps)*eps^N, mean eps/(1-eps)."""
    eps = state.epsilon
    if n_max is None:
        n_max = geometric_n_max(eps)
    n = np.arange(check_size(n_max + 1))
    return PhotonDistribution((1.0 - eps) * eps**n)


def geometric_n_max(epsilon: float) -> int:
    # eps^n_max <= TAIL_MASS, so the truncated tail sum eps^(n_max+1) is under it
    if epsilon == 0.0:
        return 0
    return math.ceil(math.log(TAIL_MASS) / math.log(epsilon))


def distribution_moments(d: PhotonDistribution) -> tuple[float, float]:
    """(mean, variance) by direct moment sums over the stored support."""
    n = d.support
    mean = float(np.dot(n, d.pmf))
    var = float(np.dot(n * n, d.pmf)) - mean * mean
    return mean, var


def g2_self(d: PhotonDistribution) -> float:
    """Second-order coherence g2 = 1 + V(n)/<n>^2 - 1/<n>.

    Equivalently <n(n-1)>/<n>^2. Coherent light gives 1, thermal 2, a single
    photon 0.
    """
    mean, var = distribution_moments(d)
    require_in(mean, "mean photon number", 0.0)  # g2 divides by <n>
    return 1.0 + var / mean**2 - 1.0 / mean
