"""Quantum-state models and their photon-counting observables.

Small immutable value types plus pure functions: photon-number pmfs
(Poisson for coherent states, geometric for a down-conversion twin beam's
marginal), outward_pmf, which builds a pmf from its exact step ratios, and
the second-order coherence diagnostic g2.
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


def outward_pmf(fall, rise) -> np.ndarray:
    """A unimodal pmf from its exact step ratios, normalized on its support.

    fall[i] = p(mode-1-i)/p(mode-i) and rise[j] = p(mode+1+j)/p(mode+j) are
    at most 1, so their running products outward from p(mode) = 1 lie in
    [0, 1]; divided by their sum they give p(mode - len(fall) .. mode +
    len(rise)).
    """
    m = len(fall)
    p = np.empty(m + 1 + len(rise))
    p[m] = 1.0
    np.cumprod(fall, out=p[:m][::-1])
    np.cumprod(rise, out=p[m + 1:])
    p /= p.sum()
    return p


def coherent_pmf(mean_n: float, n_max: int | None = None) -> PhotonDistribution:
    """Poisson photon statistics of a coherent state: p(N) = e^-n n^N / N!.

    Built by outward_pmf from p(N+1)/p(N) = mean/(N+1) over the longer of
    n_max and the default max(33, ceil(mean + 12*sqrt(mean))), which leaves
    out under TAIL_MASS: at most 9.4e-17, near mean 5.32 (a floor of 32
    would leave out 1.4e-16 near mean 5.045). A shorter n_max keeps a
    prefix, whose sum shows the cut.
    """
    require_in(mean_n, "mean photon number", 0.0, lo_closed=True)
    full = max(33, math.ceil(mean_n + 12.0 * math.sqrt(mean_n)))
    n_max = full if n_max is None else int(require_int(n_max, "n_max", 0))
    k = np.arange(check_size(max(n_max, full) + 1))
    mode = math.floor(mean_n)
    p = outward_pmf(k[mode:0:-1] / mean_n, mean_n / k[mode + 1:])
    return PhotonDistribution(p[:n_max + 1])


def pdc_marginal_pmf(state: PdcTwinBeam, n_max: int | None = None) -> PhotonDistribution:
    """Geometric marginal of a twin beam: p(N) = (1-eps)*eps^N, mean eps/(1-eps)."""
    eps = state.epsilon
    if n_max is None:
        n_max = geometric_n_max(eps)
    n = np.arange(check_size(require_int(n_max, "n_max", 0) + 1))
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
