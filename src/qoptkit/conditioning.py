"""Loss channels on photon-number distributions and heralding inference.

A transmission eta acts on counting statistics as binomial thinning: each
photon survives independently with probability eta, so

    p'(N) = sum_{N' >= N}  C(N', N) eta^N (1-eta)^(N'-N) p(N').

Thinning composes multiplicatively in eta, maps the mean to eta*mean and the
variance to eta^2 V + eta(1-eta)*mean, and leaves g2 unchanged. Thinned, a
geometric with ratio eps stays geometric with eps' = eta eps / (1 - eps +
eta eps), so the probe-side bucket pmf is closed form.

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

from .domain import (N_DET, TRANSMISSION, check_size, require_in, require_int,
                     require_observable)
from .states import (
    TAIL_MASS,
    PdcTwinBeam,
    PhotonDistribution,
    binomial_pmf,
    geometric_n_max,
    pdc_marginal_pmf,
)

# apply_loss's Horner block (32 and 64 tie below ~1500 entries, 64 wins
# above), and the longest product run from a posterior kernel anchor
BLOCK = 64
# apply_loss's Pascal triangle, C(j, i) for i, j <= BLOCK as running products
# of C(j, i)/C(j, i-1), and its index j - i, clipped to 0 where C(j, i) = 0
_K = np.arange(BLOCK + 1)
_DOWN = np.maximum(_K[:, None] - _K, 0)
_BINOM = np.cumprod(np.where(_K > 0, np.maximum(_K[:, None] - _K + 1, 0)
                             / np.maximum(_K, 1), 1.0), axis=1)


@dataclass(frozen=True)
class LossChannel:
    """Linear loss with transmissivity eta, acting as binomial thinning."""

    eta: float

    def __post_init__(self):
        require_in(self.eta, "eta", *TRANSMISSION)


class DetectorKind(enum.Enum):
    NUMBER_RESOLVING = "number-resolving"
    BUCKET = "bucket"


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
    # pascal[j, i] = C(j, i) (1-eta)^(j-i) eta^i, the coefficients of w^j
    pascal = _BINOM * ((1.0 - eta) ** _K)[_DOWN] * eta**_K
    # zero padding above the top degree only adds exact zeros
    blocks = np.pad(d.pmf, (0, -len(d.pmf) % BLOCK)).reshape(-1, BLOCK)
    sums = blocks @ pascal[:BLOCK, :BLOCK]
    h = sums[-1]
    for s in sums[-2::-1]:
        h = np.convolve(h, pascal[BLOCK])
        h[:BLOCK] += s
    # at eta near 0 entry 0 sums all the mass and can round one ulp past 1
    return PhotonDistribution(np.minimum(h[: len(d.pmf)], 1.0))


def condition_probe_number_resolving(state: PdcTwinBeam, n_det: int,
                                     probe_loss: LossChannel) -> PhotonDistribution:
    """Probe statistics after an ideal N_det count, with loss before the sample.

    Perfect twin-beam correlation plus a perfect counter pins the probe at
    exactly n_det photons; thinning then gives Binomial(n_det, eta). The
    sample can never see more than n_det photons. At eps = 0 no pair exists,
    and a count above 0 is refused as impossible.
    """
    require_int(n_det, "n_det", *N_DET)
    require_observable(n_det, state.epsilon, 1.0)
    k = np.arange(check_size(n_det + 1))
    return PhotonDistribution(binomial_pmf(k, n_det, probe_loss.eta))


def condition_probe_bucket(state: PdcTwinBeam,
                           probe_loss: LossChannel) -> PhotonDistribution:
    """Probe statistics after an ideal bucket click, with loss before the sample.

    The click leaves N = 1 + Geom(eps); thinned, that is Bernoulli(eta)
    convolved with Geom(eps'): p'(0) = (1-eta)(1-eps') and, for k >= 1,
    p'(k) = (1-eps') eps'^(k-1) ((1-eta) eps' + eta), on support
    geometric_n_max(eps') + 1, which leaves out less than TAIL_MASS. At
    eps = 0 no pair exists, and a click is refused as impossible.
    """
    eps, eta = state.epsilon, probe_loss.eta
    require_observable(1, eps, 1.0, bucket=True)
    e2 = eta * eps / (1.0 - eps + eta * eps)  # eps' of the module docstring
    geo = pdc_marginal_pmf(PdcTwinBeam(e2), geometric_n_max(e2) + 1).pmf
    return PhotonDistribution((1.0 - eta) * geo + eta * np.append(0.0, geo[:-1]))


def posterior_number_resolving(state: PdcTwinBeam, n_det: int,
                               detector_loss: LossChannel) -> PhotonDistribution:
    """What an imperfect N_det count implies about the conjugate beam.

    Bayes over the geometric prior with the binomial likelihood; every photon
    the detector missed is still present, so the support starts at n_det and
    extends upward. In closed form N - n_det ~ NegBin(n_det + 1, q) with
    q = eps (1 - eta), the chance that a photon exists and goes undetected:

        p(N | n_det) = (1 - q) Binomial(n_det; N, 1 - q),   N >= n_det.

    It holds for every n_det, however far past the prior's bulk; only an
    n_det > 0 at eps = 0 or eta = 0 is impossible, and refused. The support
    ends where the posterior's own tail drops below TAIL_MASS.
    """
    require_int(n_det, "n_det", *N_DET)
    eps, eta = state.epsilon, detector_loss.eta
    require_observable(n_det, eps, eta)
    q = eps * (1.0 - eta)
    # From m_env = q n_det/(rho - q) undetected photons on, the step ratio
    # r(m) = p(m+1)/p(m) = q (m + n_det + 1)/(m + 1) is at most rho, so
    # p(n_det + m_env + j) <= rho^j; the support ends before that envelope's
    # tail is below TAIL_MASS.
    rho = 0.5 * (1.0 + q)
    n_env = math.ceil(q * n_det / (rho - q)) + 1 + math.ceil(
        math.log(TAIL_MASS * (1.0 - rho)) / math.log(rho))
    check_size(n_det + n_env)  # the support also holds the n_det zeros

    def tail_below(m, p):  # p r/(1 - r) < TAIL_MASS, true from the cut on
        return q * (m + n_det + 1) / (m + 1) * (p + TAIL_MASS) < TAIL_MASS

    # Kernel values at one anchor per block of BLOCK entries, the entry
    # nearest the mode: the block's largest. Blocks run down from mode - 1
    # and up from the mode to the first anchor past the cut; their other
    # entries are products of exact step ratios away from the anchor.
    mode = math.floor(q * n_det / (1.0 - q))
    down = np.arange(mode - 1, -1, -BLOCK)
    up = np.arange(mode, n_env + BLOCK - 1, BLOCK)
    top = (1.0 - q) * binomial_pmf(n_det, n_det + np.append(down, up), 1.0 - q)
    blocks = np.argmax(tail_below(up, top[len(down):]))
    m_dn = np.maximum(down[:, None] - np.arange(BLOCK), 0)  # 0: padding
    m_up = up[:blocks, None] + np.arange(BLOCK)
    f = np.concatenate([(m_dn + 1) / (q * (m_dn + n_det + 1)),
                        q * (m_up + n_det) / np.maximum(m_up, 1)])  # lane 0: anchor
    f[:, 0] = top[:len(f)]
    p = np.cumprod(f, axis=1)
    pmf = np.concatenate([np.zeros(n_det), p[:len(down)].ravel()[mode - 1::-1],
                          p[len(down):].ravel(), top[len(f):len(f) + 1]])
    n0 = max(len(pmf) - BLOCK - 1, n_det)  # the cut lies in the last block
    cut = np.argmax(tail_below(np.arange(n0, len(pmf)) - n_det, pmf[n0:]))
    return PhotonDistribution(pmf[:n0 + cut + 1])


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
    require_observable(1, eps, eta, bucket=True)
    # P(click) = eps eta/keep underflows at tiny eps, so it enters by its
    # factors: p(N | click) = (1-eps) keep eps^(N-1) (1 - (1-eta)^N)/eta
    keep = 1.0 - eps + eps * eta
    n_max = check_size(math.ceil((math.log(TAIL_MASS) + math.log(eps)
                                  + math.log(eta / keep)) / math.log(eps))) - 1
    n = np.arange(1, n_max + 1)
    log_miss = math.log1p(-eta) if eta < 1.0 else -math.inf
    click = -np.expm1(n * log_miss) / eta  # divided first: no underflow
    pmf = (1.0 - eps) * keep * eps ** (n - 1) * click
    return PhotonDistribution(np.append(0.0, pmf))
