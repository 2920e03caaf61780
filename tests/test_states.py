import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import oracles
from qoptkit import (
    LossChannel,
    PdcTwinBeam,
    PhotonDistribution,
    coherent_pmf,
    condition_probe_number_resolving,
    delta_distribution,
    distribution_moments,
    g2_self,
    geometric_n_max,
    pdc_marginal_pmf,
)
from qoptkit.states import TAIL_MASS


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) as the probe side builds it: an ideal count of n
    photons thinned by transmission p."""
    return condition_probe_number_resolving(PdcTwinBeam(0.5), n,
                                            LossChannel(p)).pmf


def test_photon_distribution_validation():
    with pytest.raises(ValueError):
        PhotonDistribution(np.array([0.5, 0.6]))  # sums to 1.1
    with pytest.raises(ValueError):
        PhotonDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(TypeError):  # n_max is len(pmf) - 1, not an argument
        PhotonDistribution(np.array([0.5, 0.5]), n_max=3)
    with pytest.raises(ValueError):
        PhotonDistribution(np.array([np.nan, 1.0]))
    d = PhotonDistribution(np.array([0.25, 0.75]))
    assert d.n_max == 1
    assert np.array_equal(d.support, [0, 1])


def test_delta_distribution():
    d = delta_distribution(3)
    assert d.pmf[3] == 1.0 and d.pmf[:3].sum() == 0.0
    mean, var = distribution_moments(d)
    assert mean == 3.0 and var == 0.0
    with pytest.raises(ValueError):
        delta_distribution(-1)


def test_coherent_pmf_moments():
    d = coherent_pmf(3.0)
    mean, var = distribution_moments(d)
    assert mean == pytest.approx(3.0, rel=1e-12)
    assert var == pytest.approx(3.0, rel=1e-12)
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert g2_self(d) == pytest.approx(1.0, abs=1e-12)


def test_coherent_pmf_truncation():
    # default n_max keeps the missing tail under 1e-12 even for bright states
    for mean_n in (0.1, 1.0, 50.0, 400.0):
        d = coherent_pmf(mean_n)
        assert 1.0 - d.pmf.sum() < 1e-12
    d = coherent_pmf(2.0, n_max=64)
    assert d.n_max == 64
    with pytest.raises(ValueError):
        coherent_pmf(-1.0)


def test_pdc_marginal_is_thermal():
    tb = PdcTwinBeam(0.5)
    assert tb.mean_photons == 1.0
    d = pdc_marginal_pmf(tb)
    mean, var = distribution_moments(d)
    assert mean == pytest.approx(1.0, rel=1e-10)
    assert var == pytest.approx(2.0, rel=1e-10)  # thermal: V = m + m^2
    assert g2_self(d) == pytest.approx(2.0, abs=1e-9)
    assert d.pmf[0] == 0.5 and d.pmf[1] == 0.25


def test_pdc_validation_and_truncation():
    with pytest.raises(ValueError):
        PdcTwinBeam(1.0)
    with pytest.raises(ValueError):
        PdcTwinBeam(-0.1)
    assert geometric_n_max(0.0) == 0
    # cutoff rule: minimal n with eps^n <= 1e-16 (slack for pow rounding)
    for eps in (0.1, 0.5, 0.9):
        n = geometric_n_max(eps)
        assert eps ** n <= 1e-16 * (1.0 + 1e-9)
        assert eps ** (n - 1) > 1e-16


def test_g2_self_cases():
    # single photon: g2 = 0; two photons: 1/2
    assert g2_self(delta_distribution(1)) == 0.0
    assert g2_self(delta_distribution(2)) == 0.5
    with pytest.raises(ValueError):
        g2_self(delta_distribution(0))


# -- binomial and Poisson pmfs against 50-digit references -------------------

@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 16, 17, 40, 1000])
def test_binomial_pmf_against_exact(n):
    for p in (1e-4, 0.1, 0.5, 0.9, 0.999, 1.0 - 2.0**-53):
        got = binomial_pmf(n, p)
        assert oracles.exact_tv(got, oracles.exact_binomial(n, p)) <= 1e-14


def test_binomial_pmf_large_n():
    # a cumulative log-factorial table is off by TV ~2.6e-11 here
    got = binomial_pmf(3600, 0.5)
    assert oracles.exact_tv(got, oracles.exact_binomial(3600, 0.5)) <= 1e-14


def test_binomial_pmf_edges():
    # eta = 0 and 1 are exact: the ratios that would divide by them are unused
    assert np.array_equal(binomial_pmf(2, 0.0), [1.0, 0.0, 0.0])
    assert np.array_equal(binomial_pmf(2, 1.0), [0.0, 0.0, 1.0])
    assert np.array_equal(binomial_pmf(0, 0.3), [1.0])
    got = binomial_pmf(5, 0.3)
    assert got[0] == pytest.approx(0.7**5, rel=1e-15)
    assert got[5] == pytest.approx(0.3**5, rel=1e-15)
    want = [math.comb(5, k) * 0.3**k * 0.7 ** (5 - k) for k in range(6)]
    assert np.allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("p", [1e-17, 2.0**-54, 1e-300, 1.0 - 2.0**-53])
def test_binomial_pmf_tiny_p(p):
    # 1 - p rounds to 1.0 at the tiny p, and is 2^-53 exactly at the last
    for n in (0, 1, 5, 50):
        got = binomial_pmf(n, p)
        for g, e in zip(got, oracles.exact_binomial(n, p)):
            if e >= Decimal("2.3e-308"):
                assert abs(Decimal(float(g)) - e) <= Decimal("1e-12") * e


def test_poisson_pmf_edges():
    assert np.array_equal(coherent_pmf(0.0, 2).pmf, [1.0, 0.0, 0.0])
    # p(1) = 1e-300 is the only other entry above the underflow
    assert np.array_equal(coherent_pmf(1e-300).pmf[:3], [1.0, 1e-300, 0.0])
    got = coherent_pmf(2.5).pmf
    assert got[0] == math.exp(-2.5)
    assert got[3] == pytest.approx(math.exp(-2.5) * 2.5**3 / 6, rel=1e-15)
    for mean in (2.5, 1e5):
        d = coherent_pmf(mean)
        exact = oracles.exact_poisson(mean, d.n_max + 1)
        assert oracles.exact_tv(d.pmf, exact) <= 1e-14


def test_pmf_n_max_must_be_a_whole_number():
    for n_max in (40.5, 2.5, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            coherent_pmf(5.0, n_max)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            pdc_marginal_pmf(PdcTwinBeam(0.5), n_max)
    assert coherent_pmf(5.0, 40.0).n_max == 40
    assert pdc_marginal_pmf(PdcTwinBeam(0.0), 0).pmf.tolist() == [1.0]
    # a support shorter than the pmf's bulk is still refused by its sum
    with pytest.raises(ValueError, match="pmf sums to"):
        coherent_pmf(10.0, 5)


@pytest.mark.parametrize("mean_n", [0.0, 1.0, 5.0, 5.045, 5.32, 19.0, 1030.0])
def test_coherent_pmf_default_support_leaves_out_under_tail_mass(mean_n):
    # near mean 5 the floor sets the support: 32 left out 1.06e-16 at mean 5
    # and 1.36e-16 at 5.045
    d = coherent_pmf(mean_n)
    with localcontext() as ctx:
        ctx.prec = oracles.DIGITS
        left_out = 1 - sum(oracles.exact_poisson(mean_n, d.n_max + 1))
    assert float(left_out) < TAIL_MASS, d.n_max


@pytest.mark.parametrize("mean_n", [19.0, 274.0, 1030.0, 2000.0])
def test_coherent_pmf_within_promise(mean_n):
    # the 1e-12 total-variation promise, tail beyond n_max included
    d = coherent_pmf(mean_n)
    exact = oracles.exact_poisson(mean_n, d.n_max + 1)
    assert oracles.exact_tv(d.pmf, exact) <= 1e-12
