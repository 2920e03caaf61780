import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from qoptkit import (
    BunchingClass,
    EtpaCoherence,
    GaussianProbe,
    PdcTwinBeam,
    PhotonDistribution,
    bright_squeezed_g2,
    classify_bunching,
    coherent_pmf,
    delta_distribution,
    distribution_moments,
    etpa_cross_coherence,
    g2_self,
    gaussian_mean_photons,
    gaussian_photon_variance,
    geometric_n_max,
    pdc_marginal_pmf,
)
from qoptkit.states import binomial_pmf, poisson_pmf


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


def test_classify_bunching():
    assert classify_bunching(0.0) is BunchingClass.NONCLASSICAL_ANTIBUNCHED
    assert classify_bunching(0.999) is BunchingClass.NONCLASSICAL_ANTIBUNCHED
    assert classify_bunching(1.0) is BunchingClass.CLASSICAL_ALLOWED
    assert classify_bunching(2.0) is BunchingClass.CLASSICAL_ALLOWED
    with pytest.raises(ValueError):
        classify_bunching(-0.1)


def test_gaussian_probe_validation():
    with pytest.raises(ValueError):
        GaussianProbe(-1.0)
    with pytest.raises(ValueError):
        GaussianProbe(1.0, v_sqz=0.0)
    with pytest.raises(ValueError):
        GaussianProbe(1.0, v_sqz=0.5, v_anti=1.0)  # product < 1
    # pure minimum-uncertainty pair is fine despite float rounding
    GaussianProbe(1.0, v_sqz=0.3, v_anti=1.0 / 0.3)


def test_amplitude_axis_variance_rotation():
    p = GaussianProbe(5.0, 0.5, 2.0, 0.0)
    assert p.amplitude_axis_variance() == 2.0  # antisqueezed axis
    p = GaussianProbe(5.0, 0.5, 2.0, math.pi / 2.0)
    assert p.amplitude_axis_variance() == pytest.approx(0.5, rel=1e-12)
    p = GaussianProbe(5.0, 0.5, 2.0, math.pi / 4.0)
    assert p.amplitude_axis_variance() == pytest.approx(1.25, rel=1e-12)


def test_gaussian_moments_coherent_limit():
    p = GaussianProbe(3.0)  # vacuum variances
    assert gaussian_mean_photons(p) == 9.0
    assert gaussian_photon_variance(p) == 9.0  # Poissonian


def test_gaussian_moments_frozen():
    p = GaussianProbe(10.0, 0.5, 2.0, 0.0)
    assert gaussian_mean_photons(p) == pytest.approx(100.125, rel=1e-15)
    assert gaussian_photon_variance(p) == pytest.approx(200.28125, rel=1e-15)


def test_squeezed_vacuum_number_variance_identity():
    # pure squeezed vacuum: V(n) = 2(<n>^2 + <n>), any squeezing strength
    for r in (0.1, 0.5, 1.0, 2.0):
        p = GaussianProbe(0.0, math.exp(-2.0 * r), math.exp(2.0 * r))
        n = gaussian_mean_photons(p)
        assert gaussian_photon_variance(p) == pytest.approx(
            2.0 * (n * n + n), rel=1e-12)


def test_bright_squeezed_g2():
    alpha = math.sqrt(1000.0)
    # amplitude-antisqueezed orientation: super-Poissonian
    p = GaussianProbe(alpha, 0.5, 2.0, 0.0)
    assert bright_squeezed_g2(p) == pytest.approx(1.0 + 1.0 / 1000.125,
                                                  rel=1e-15)
    # amplitude-squeezed orientation: antibunched
    p = GaussianProbe(alpha, 0.5, 2.0, math.pi / 2.0)
    g2 = bright_squeezed_g2(p)
    assert g2 < 1.0
    assert classify_bunching(g2) is BunchingClass.NONCLASSICAL_ANTIBUNCHED


def test_bright_squeezed_g2_matches_exact_moments():
    # in the bright regime the expansion must agree with the full moments
    p = GaussianProbe(100.0, 0.5, 2.0, math.pi / 2.0)
    mean = gaussian_mean_photons(p)
    exact = 1.0 + (gaussian_photon_variance(p) - mean) / mean**2
    assert bright_squeezed_g2(p) == pytest.approx(exact, abs=1e-8)


def test_bright_gate_enforced():
    with pytest.raises(ValueError):
        bright_squeezed_g2(GaussianProbe(1.0, 0.5, 2.0))


def test_etpa_cross_coherence():
    r = etpa_cross_coherence(PdcTwinBeam(0.01))
    assert isinstance(r, EtpaCoherence)
    assert r.g2_cross == 100.0
    # truncated marginal sqrt(1-eps)|0> + sqrt(eps)|1> has g2_11 = 0
    assert r.classical_bound == 0.0
    assert r.violates_cauchy_schwarz
    with pytest.raises(ValueError):
        etpa_cross_coherence(PdcTwinBeam(0.2))  # truncation invalid
    with pytest.raises(ValueError):
        etpa_cross_coherence(PdcTwinBeam(0.0))


@given(st.floats(min_value=1e-4, max_value=0.1))
def test_etpa_always_nonclassical(eps):
    r = etpa_cross_coherence(PdcTwinBeam(eps))
    assert r.g2_cross == pytest.approx(1.0 / eps, rel=1e-12)
    assert r.violates_cauchy_schwarz


@given(st.floats(min_value=0.01, max_value=30.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_gaussian_variance_positive(alpha, v_sqz, theta):
    p = GaussianProbe(alpha, v_sqz, 1.0 / v_sqz, theta)
    assert gaussian_photon_variance(p) >= -1e-12
    # squeezing only ever adds photons (up to rounding at v_sqz ~ 1)
    assert gaussian_mean_photons(p) >= alpha**2 - 1e-12


def test_photon_variance_vs_phase_space_sampling():
    # independent route: sample the two quadratures as classical Gaussians
    # around the displaced means and histogram n = (x^2 + y^2 - 2)/4. The
    # sampler removes its constant +1/4 variance overshoot, after which the
    # Monte-Carlo variance must reproduce the closed-form moment.
    import oracles
    probe = GaussianProbe(6.0, 0.2, 5.0, 0.7)
    want = gaussian_photon_variance(probe)
    got = oracles.wigner_photon_variance(6.0, 0.2, 5.0, 0.7,
                                         samples=400_000, seed=20240823)
    assert got == pytest.approx(want, rel=0.02)


# -- binomial and Poisson kernel against 50-digit references ------------------

@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 16, 17, 40, 1000])
def test_binomial_pmf_against_exact(n):
    # covers the exact stirlerr table (n <= 15) and the series above it
    for p in (1e-4, 0.1, 0.5, 0.9, 0.999):
        got = binomial_pmf(np.arange(n + 1), n, p)
        assert oracles.exact_tv(got, oracles.exact_binomial(n, p)) <= 1e-14


def test_binomial_pmf_large_n():
    # a cumulative log-factorial table is off by TV ~2.6e-11 here
    got = binomial_pmf(np.arange(3601), 3600, 0.5)
    assert oracles.exact_tv(got, oracles.exact_binomial(3600, 0.5)) <= 1e-14


def test_binomial_pmf_edges():
    assert np.array_equal(binomial_pmf([0, 1, 2], 2, 0.0), [1.0, 0.0, 0.0])
    assert np.array_equal(binomial_pmf([0, 1, 2], 2, 1.0), [0.0, 0.0, 1.0])
    assert binomial_pmf(0, 0, 0.3) == 1.0
    assert np.array_equal(binomial_pmf([-1, 3], 2, 0.3), [0.0, 0.0])
    assert binomial_pmf(0, 5, 0.3) == pytest.approx(0.7**5, rel=1e-15)
    assert binomial_pmf(5, 5, 0.3) == pytest.approx(0.3**5, rel=1e-15)
    # broadcast over n at a fixed k, as the detector posterior uses it
    n = np.arange(2, 6)
    want = [math.comb(int(m), 2) * 0.3**2 * 0.7 ** (m - 2) for m in n]
    assert np.allclose(binomial_pmf(2, n, 0.3), want, rtol=1e-14, atol=0)


def test_poisson_pmf_edges():
    assert np.array_equal(poisson_pmf(np.arange(3), 0.0), [1.0, 0.0, 0.0])
    assert poisson_pmf(0, 2.5) == math.exp(-2.5)
    assert poisson_pmf(3, 2.5) == pytest.approx(
        math.exp(-2.5) * 2.5**3 / 6, rel=1e-15)


@pytest.mark.parametrize("mean_n", [19.0, 274.0, 1030.0, 2000.0])
def test_coherent_pmf_within_promise(mean_n):
    # the 1e-12 total-variation promise, tail beyond n_max included
    d = coherent_pmf(mean_n)
    exact = oracles.exact_poisson(mean_n, d.n_max + 1)
    assert oracles.exact_tv(d.pmf, exact) <= 1e-12
