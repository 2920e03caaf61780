"""Loss channels on photon-number distributions and heralding inference.

A transmission eta acts on counting statistics as binomial thinning: each
photon survives independently with probability eta, so

    p'(N) = sum_{N' >= N}  C(N', N) eta^N (1-eta)^(N'-N) p(N').

Thinning composes multiplicatively in eta, maps the mean to eta*mean and the
variance to eta^2 V + eta(1-eta)*mean, and leaves g2 unchanged. Thinned, a
geometric with ratio eps stays geometric with eps' = eta eps / (1 - eps +
eta eps), so the probe-side bucket pmf and the detector counts are closed form.

The heralding scenario: a twin beam with perfectly correlated photon numbers,
one beam monitored by a detector, the other sent to the sample. Loss before
the sample narrows what the sample sees (conditioning then thinning); loss in
front of the detector instead degrades what the detection tells us, handled
by Bayes' rule with the binomial detection likelihood

    p(N_det | N) = C(N, N_det) eta^N_det (1-eta)^(N-N_det).

On the geometric twin-beam prior both posteriors have closed forms: after
N_det counts the undetected photons N - N_det follow a negative binomial,
and a bucket click ("at least one photon") reweights the prior by the click
probability 1 - (1-eta)^N. Each pmf sizes its support from its own tail,
and every such support passes domain.check_size before allocation.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import check_size, require_in, require_int
from .states import (
    TAIL_MASS,
    PdcTwinBeam,
    PhotonDistribution,
    binomial_pmf,
    geometric_n_max,
    pdc_marginal_pmf,
)

# apply_loss's Horner block: 32 and 64 tie below ~1500 entries, 64 wins above
BLOCK = 64


@dataclass(frozen=True)
class LossChannel:
    """Linear loss with transmissivity eta, acting as binomial thinning."""

    eta: float

    def __post_init__(self):
        require_in(self.eta, "eta", 0.0, 1.0, True, True)


class DetectorKind(enum.Enum):
    NUMBER_RESOLVING = "number-resolving"
    BUCKET = "bucket"


@dataclass(frozen=True)
class DetectorModel:
    kind: DetectorKind
    efficiency: float = 1.0

    def __post_init__(self):
        require_in(self.efficiency, "efficiency", 0.0, 1.0, True, True)


def apply_loss(d: PhotonDistribution, channel: LossChannel) -> PhotonDistribution:
    """Binomial thinning of a count distribution; support length unchanged.

    Expands G(w) = sum_n p(n) w^n, w = 1 - eta + eta z, in powers of z by
    Horner's rule over blocks of B = BLOCK terms, H <- w^B H + sum_{j<B}
    p(n0 + j) w^j: block sums by one product with Pascal's triangle for w,
    w^B H by np.convolve with the Binomial(B, eta) row. That is n_max/B numpy
    steps, O(n_max^2) flops and O(n_max) memory; every term is nonnegative.
    """
    eta = channel.eta
    if eta == 1.0:
        return d
    k = np.arange(BLOCK + 1)
    down = k[:, None] - k
    # pascal[j, i] = C(j, i) (1-eta)^(j-i) eta^i, the coefficients of w^j
    ratio = np.maximum(down + 1, 0) / np.maximum(k, 1)  # C(j, i) / C(j, i-1)
    ratio[:, 0] = 1.0
    pascal = (np.cumprod(ratio, axis=1)
              * (1.0 - eta) ** np.maximum(down, 0) * eta**k)
    # zero padding above the top degree only adds exact zeros
    blocks = np.pad(d.pmf, (0, -len(d.pmf) % BLOCK)).reshape(-1, BLOCK)
    sums = blocks @ pascal[:BLOCK, :BLOCK]
    h = sums[-1]
    for s in sums[-2::-1]:
        h = np.convolve(h, pascal[BLOCK])
        h[:BLOCK] += s
    return PhotonDistribution(h[: len(d.pmf)])


def condition_probe_number_resolving(n_det: int,
                                     probe_loss: LossChannel) -> PhotonDistribution:
    """Probe statistics after an ideal N_det count, with loss before the sample.

    Perfect twin-beam correlation plus a perfect counter pins the probe at
    exactly n_det photons; thinning then gives Binomial(n_det, eta). The
    sample can never see more than n_det photons.
    """
    k = np.arange(check_size(require_int(n_det, "n_det", 0) + 1))
    return PhotonDistribution(binomial_pmf(k, n_det, probe_loss.eta))


def _thinned_ratio(epsilon: float, eta: float) -> float:
    # a geometric with ratio eps thinned by eta is geometric in eps'
    return eta * epsilon / (1.0 - epsilon + eta * epsilon)


def condition_probe_bucket(state: PdcTwinBeam,
                           probe_loss: LossChannel) -> PhotonDistribution:
    """Probe statistics after an ideal bucket click, with loss before the sample.

    The click leaves N = 1 + Geom(eps); thinned, that is Bernoulli(eta)
    convolved with Geom(eps'): p'(0) = (1-eta)(1-eps') and, for k >= 1,
    p'(k) = (1-eps') eps'^(k-1) ((1-eta) eps' + eta), on support
    geometric_n_max(eps') + 1, which leaves out less than TAIL_MASS.
    """
    eta = probe_loss.eta
    e2 = _thinned_ratio(state.epsilon, eta)
    geo = pdc_marginal_pmf(PdcTwinBeam(e2), geometric_n_max(e2) + 1).pmf
    return PhotonDistribution((1.0 - eta) * geo + eta * np.append(0.0, geo[:-1]))


def detector_count_distribution(state: PdcTwinBeam,
                                detector_loss: LossChannel) -> PhotonDistribution:
    """Counts at the monitoring detector: the thinned marginal, Geom(eps')."""
    return pdc_marginal_pmf(
        PdcTwinBeam(_thinned_ratio(state.epsilon, detector_loss.eta)))


def posterior_number_resolving(state: PdcTwinBeam, n_det: int,
                               detector_loss: LossChannel) -> PhotonDistribution:
    """What an imperfect N_det count implies about the conjugate beam.

    Bayes over the geometric prior with the binomial likelihood; every photon
    the detector missed is still present, so the support starts at n_det and
    extends upward. In closed form N - n_det ~ NegBin(n_det + 1, q) with
    q = eps (1 - eta), the chance that a photon exists and goes undetected:

        p(N | n_det) = (1 - q) Binomial(n_det; N, 1 - q),   N >= n_det.

    The support ends where the posterior's own tail drops below TAIL_MASS.
    """
    require_int(n_det, "n_det", 0)
    eps, eta = state.epsilon, detector_loss.eta
    n_prior = geometric_n_max(eps)
    if n_det > n_prior:
        raise ValueError(
            f"N_det = {n_det} lies beyond the truncated prior support "
            f"(n_max = {n_prior}): observation impossible at this epsilon"
        )
    if eta == 0.0 and n_det > 0:
        raise ValueError(
            f"P(N_det = {n_det}) = 0 at eta = {eta}: observation impossible"
        )
    q = eps * (1.0 - eta)
    # From m_env undetected photons on, the step ratio p(N+1)/p(N) =
    # q (m + n_det + 1)/(m + 1) is at most rho, so p(n_det + m_env + j) <=
    # rho^j; evaluate to where that envelope's tail is below TAIL_MASS.
    rho = 0.5 * (1.0 + q)
    m_env = math.ceil(q * n_det / (rho - q))
    m = np.arange(check_size(
        m_env + math.ceil(math.log(TAIL_MASS * (1.0 - rho)) / math.log(rho))
        + 1))
    body = (1.0 - q) * binomial_pmf(n_det, n_det + m, 1.0 - q)
    # the step ratio falls with m, so once it is below 1 the tail past m is
    # at most p ratio/(1 - ratio)
    ratio = q * (m + n_det + 1) / (m + 1)
    m_max = int(np.argmax((ratio < 1.0)
                          & (body * ratio < TAIL_MASS * (1.0 - ratio))))
    return PhotonDistribution(np.concatenate([np.zeros(n_det),
                                              body[: m_max + 1]]))


def posterior_bucket(state: PdcTwinBeam,
                     detector_loss: LossChannel) -> PhotonDistribution:
    """What an imperfect bucket click implies about the conjugate beam.

    Conditioning on "any click at all" reweights the prior by the click
    probability: p(N | click) = p(N) (1 - (1-eta)^N) / P(click), with
    P(click) = eps eta / (1 - eps + eps eta). Unlike the probe-loss case the
    tail above 1 survives: missed photons still reached the sample. The tail
    past n_max is below eps^(n_max+1) / P(click), which sets the support.
    """
    eps, eta = state.epsilon, detector_loss.eta
    if eps == 0.0 or eta == 0.0:
        raise ValueError(
            f"bucket click impossible: eps = {eps}, eta = {eta} gives "
            "P(N_det >= 1) = 0"
        )
    p_click = _thinned_ratio(eps, eta)  # P(N_det >= 1) at eta
    n_max = check_size(
        math.ceil(math.log(TAIL_MASS * p_click) / math.log(eps))) - 1
    log_miss = math.log1p(-eta) if eta < 1.0 else -math.inf
    click = np.zeros(n_max + 1)
    click[1:] = -np.expm1(np.arange(1, n_max + 1) * log_miss)
    return PhotonDistribution(pdc_marginal_pmf(state, n_max).pmf * click / p_click)


def min_detectable_absorption(n_sig: float, heralded: bool) -> float:
    """Smallest resolvable absorption coefficient at unit signal-to-noise.

    A coherent probe resolves alpha ~ n_sig^(-1/2); an ideal heralded
    single-photon stream removes the source shot noise and reaches
    alpha ~ n_sig^(-1).
    """
    require_in(n_sig, "n_sig", 0.0)
    return 1.0 / n_sig if heralded else 1.0 / math.sqrt(n_sig)
