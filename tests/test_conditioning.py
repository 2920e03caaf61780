import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qoptkit import (
    LossChannel,
    PdcTwinBeam,
    PhotonDistribution,
    apply_loss,
    coherent_pmf,
    condition_probe_bucket,
    condition_probe_number_resolving,
    delta_distribution,
    distribution_moments,
    g2_self,
    pdc_marginal_pmf,
    posterior_bucket,
    posterior_number_resolving,
)
from qoptkit.conditioning import BLOCK

weights = st.lists(st.floats(min_value=0.01, max_value=1.0),
                   min_size=2, max_size=10)
etas = st.floats(min_value=0.05, max_value=1.0)


def normalized(ws) -> PhotonDistribution:
    p = np.asarray(ws, dtype=float)
    return PhotonDistribution(p / p.sum())


def test_loss_channel_validation():
    LossChannel(0.0)
    LossChannel(1.0)
    with pytest.raises(ValueError):
        LossChannel(-0.1)
    with pytest.raises(ValueError):
        LossChannel(1.1)


def test_apply_loss_endpoints():
    d = normalized([0.2, 0.3, 0.5])
    assert apply_loss(d, LossChannel(1.0)) == d
    dark = apply_loss(d, LossChannel(0.0))
    assert dark.pmf[0] == pytest.approx(1.0, abs=1e-12)


def test_apply_loss_against_enumeration():
    d = normalized([0.1, 0.0, 0.4, 0.2, 0.3])
    for eta in (0.1, 0.4, 0.7, 0.95):
        got = apply_loss(d, LossChannel(eta))
        want = oracles.thin_pmf(list(d.pmf), eta)
        assert oracles.total_variation(got.pmf, want) < 1e-13


def test_apply_loss_binomial_on_fock():
    got = apply_loss(delta_distribution(4), LossChannel(0.3))
    for k in range(5):
        assert got.pmf[k] == pytest.approx(
            math.comb(4, k) * 0.3**k * 0.7 ** (4 - k), rel=1e-12)


@given(weights, etas, etas)
@settings(max_examples=200)
def test_thinning_composes(ws, eta1, eta2):
    d = normalized(ws)
    two_step = apply_loss(apply_loss(d, LossChannel(eta1)), LossChannel(eta2))
    one_step = apply_loss(d, LossChannel(eta1 * eta2))
    assert oracles.total_variation(two_step.pmf, one_step.pmf) < 1e-9


@given(weights, etas)
@settings(max_examples=200)
def test_thinning_moment_transform(ws, eta):
    d = normalized(ws)
    m, v = distribution_moments(d)
    m2, v2 = distribution_moments(apply_loss(d, LossChannel(eta)))
    assert math.isclose(m2, eta * m, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(v2, eta * eta * v + eta * (1.0 - eta) * m,
                        rel_tol=1e-9, abs_tol=1e-12)


@given(weights, st.floats(min_value=0.2, max_value=1.0))
@settings(max_examples=200)
def test_thinning_preserves_g2(ws, eta):
    d = normalized(ws)
    assert math.isclose(g2_self(apply_loss(d, LossChannel(eta))), g2_self(d),
                        rel_tol=1e-9, abs_tol=1e-9)


def test_probe_number_resolving_support_bound():
    # ideal count + perfect correlation caps the probe at n_det photons
    d = condition_probe_number_resolving(PdcTwinBeam(0.5), 3,
                                         LossChannel(0.6))
    assert d.n_max == 3  # P(N > N_det) = 0 by construction
    for k in range(4):
        assert d.pmf[k] == pytest.approx(
            math.comb(3, k) * 0.6**k * 0.4 ** (3 - k), rel=1e-12)
    with pytest.raises(ValueError):
        condition_probe_number_resolving(PdcTwinBeam(0.5), -1,
                                         LossChannel(0.6))


def test_probe_bucket_against_enumeration():
    for eta in (0.1, 0.4, 0.7, 1.0):
        got = condition_probe_bucket(PdcTwinBeam(0.5), LossChannel(eta))
        want = oracles.probe_side_bucket(0.5, eta)
        assert oracles.total_variation(got.pmf, want) < 1e-12
        assert got.pmf.sum() == pytest.approx(1.0, abs=1e-9)


def test_probe_number_resolving_refuses_a_count_without_pairs():
    with pytest.raises(ValueError, match="observation impossible"):
        condition_probe_number_resolving(PdcTwinBeam(0.0), 3, LossChannel(0.5))
    # no count at all is what eps = 0 always gives
    got = condition_probe_number_resolving(PdcTwinBeam(0.0), 0,
                                           LossChannel(0.5))
    assert got.pmf.tolist() == [1.0]


def test_probe_bucket_refuses_a_click_without_pairs():
    with pytest.raises(ValueError, match="bucket click impossible"):
        condition_probe_bucket(PdcTwinBeam(0.0), LossChannel(0.5))


def test_probe_bucket_lossless_is_shifted_geometric():
    got = condition_probe_bucket(PdcTwinBeam(0.5), LossChannel(1.0))
    assert got.pmf[0] == 0.0
    for n in range(1, 6):
        assert got.pmf[n] == pytest.approx(0.5**n, rel=1e-12)


def test_posterior_number_resolving_against_enumeration():
    for eta in (0.1, 0.4, 0.7, 1.0):
        for n_det in (0, 1, 3):
            got = posterior_number_resolving(PdcTwinBeam(0.5), n_det,
                                             LossChannel(eta))
            want = oracles.detector_side_number_resolving(0.5, n_det, eta)
            assert oracles.total_variation(got.pmf, want) < 1e-12


def test_posterior_number_resolving_tail_survives():
    # photons the detector missed still reached the sample
    d = posterior_number_resolving(PdcTwinBeam(0.5), 1, LossChannel(0.4))
    assert d.pmf[2:].sum() > 0.0
    assert d.pmf[0] == 0.0  # at least n_det photons existed
    # a perfect detector collapses the posterior to the count
    d = posterior_number_resolving(PdcTwinBeam(0.5), 2, LossChannel(1.0))
    assert d.pmf[2] == pytest.approx(1.0, abs=1e-12)


def test_posterior_number_resolving_errors():
    # a count is impossible only with no photons or a blind detector
    with pytest.raises(ValueError, match="observation impossible"):
        posterior_number_resolving(PdcTwinBeam(0.0), 1, LossChannel(0.4))
    with pytest.raises(ValueError, match="observation impossible"):
        posterior_number_resolving(PdcTwinBeam(0.5), 1, LossChannel(0.0))
    with pytest.raises(ValueError):
        posterior_number_resolving(PdcTwinBeam(0.5), -1, LossChannel(0.4))


def test_posterior_bucket_against_enumeration():
    for eta in (0.1, 0.4, 0.7, 1.0):
        got = posterior_bucket(PdcTwinBeam(0.5), LossChannel(eta))
        want = oracles.detector_side_bucket(0.5, eta)
        assert oracles.total_variation(got.pmf, want) < 1e-12


def test_posterior_bucket_direct_form():
    # second route: p(N | click) = p(N) (1 - (1-eta)^N) / P(click)
    state, eta = PdcTwinBeam(0.5), 0.4
    got = posterior_bucket(state, LossChannel(eta))
    prior = pdc_marginal_pmf(state)
    p_click = 1.0 - oracles.thin_pmf(oracles.geometric_pmf_list(0.5), eta)[0]
    n = prior.support
    direct = prior.pmf * (1.0 - (1.0 - eta) ** n) / p_click
    assert oracles.total_variation(got.pmf, direct) < 1e-11


def test_posterior_bucket_errors():
    with pytest.raises(ValueError):
        posterior_bucket(PdcTwinBeam(0.0), LossChannel(0.5))
    with pytest.raises(ValueError):
        posterior_bucket(PdcTwinBeam(0.5), LossChannel(0.0))


# -- the 1e-12 total-variation promise at the edges of the domain ------------

def assert_entrywise(got, exact):
    """Every entry whose exact value is in the normal float range (from
    2.3e-308 up) nonzero and within 1e-12 relative of the 50-digit law, and
    the TV promise kept. Products of step ratios run from a subnormal entry
    instead of from the mode fail this: 9.7e-12 at (0.99, 0.01, 300)."""
    assert len(exact) >= len(got)
    for g, e in zip(got, exact):
        if e >= Decimal("2.3e-308"):
            assert g > 0.0
            assert abs(Decimal(float(g)) - e) <= Decimal("1e-12") * e
    assert oracles.exact_tv(got, exact) <= 1e-12


@pytest.mark.parametrize("eps, eta, n_det", [
    (0.95, 0.05, 60), (0.9, 0.01, 30), (0.99, 0.01, 300)])
def test_posterior_number_resolving_heavy_tail(eps, eta, n_det):
    # the posterior's tail is far heavier than the prior's: a support cut at
    # the prior's 1e-16 point lost TV 0.11, 0.089 and 1.0 here
    # (0.99, 0.01, 300) also underflows p(n_det) ~ 1e-512, so the products
    # below the mode must keep every normal-range digit of the entries above it
    got = posterior_number_resolving(PdcTwinBeam(eps), n_det, LossChannel(eta))
    assert_entrywise(got.pmf,
                     oracles.exact_posterior_number_resolving(eps, n_det, eta))


@pytest.mark.parametrize("eps, eta, n_det", [
    (0.5, 0.9, 60), (0.5, 0.4, 100), (0.1, 0.5, 30), (0.9, 0.5, 400)])
def test_posterior_number_resolving_past_the_prior_bulk(eps, eta, n_det):
    # each n_det lies past the prior's own 1e-16 point: the closed form
    # holds there all the same
    got = posterior_number_resolving(PdcTwinBeam(eps), n_det, LossChannel(eta))
    exact = oracles.exact_posterior_number_resolving(eps, n_det, eta)
    assert oracles.exact_tv(got.pmf, exact) <= 1e-12


def test_posterior_bucket_heavy_tail():
    eps, eta = 0.99, 0.01
    got = posterior_bucket(PdcTwinBeam(eps), LossChannel(eta))
    exact = oracles.exact_posterior_bucket(eps, eta)
    assert oracles.exact_tv(got.pmf, exact) <= 1e-12


@pytest.mark.parametrize("eps", [5e-324, 2.2250738585e-313, 1e-300])
@pytest.mark.parametrize("eta", [1.0, 0.7, 0.4, 0.1])
def test_posterior_bucket_tiny_epsilon(eps, eta):
    # P(click) = eps eta/(1 - eps + eps eta) is subnormal here, and
    # TAIL_MASS P(click) is 0 in floating point
    got = posterior_bucket(PdcTwinBeam(eps), LossChannel(eta))
    exact = oracles.exact_posterior_bucket(eps, eta)
    assert oracles.exact_tv(got.pmf, exact) <= 1e-12


@pytest.mark.parametrize("eta", [1e-200, 1e-320, 5e-324])
def test_posterior_bucket_tiny_efficiency(eta):
    # 1 - eta is 1 even at 50 digits, so the reference is the eta -> 0 law
    # p(N | click) = N (1-eps)^2 eps^(N-1), off by O(N eta)
    got = posterior_bucket(PdcTwinBeam(0.5), LossChannel(eta)).pmf
    n = np.arange(len(got))
    assert got == pytest.approx(n * 0.25 * 0.5 ** (n - 1.0), rel=1e-12)


@pytest.mark.parametrize("eta", [0.01, 0.3, 0.9])
def test_apply_loss_coherent_stays_poisson(eta):
    mean = 1030.0
    got = apply_loss(coherent_pmf(mean), LossChannel(eta))
    exact = oracles.exact_poisson(eta * mean, got.n_max + 1)
    assert oracles.exact_tv(got.pmf, exact) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 1])
@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.37, 0.999, 1.0])
def test_apply_loss_fock_across_block_edges(n, eta):
    got = apply_loss(delta_distribution(n), LossChannel(eta)).pmf
    p = Fraction(eta)
    for k in range(n + 1):
        want = math.comb(n, k) * p**k * (1 - p) ** (n - k)
        # entries below the normal float range lose their relative precision
        slack = Fraction(1e-12) * want + Fraction(1e-300)
        assert abs(Fraction(got[k]) - want) <= slack


@pytest.mark.parametrize("eta", [1e-3, 0.05, 0.5, 0.999])
def test_apply_loss_long_coherent_stays_poisson(eta):
    mean = 2000.0
    got = apply_loss(coherent_pmf(mean), LossChannel(eta))
    exact = oracles.exact_poisson(eta * mean, got.n_max + 1)
    assert oracles.exact_tv(got.pmf, exact) <= 1e-12


@pytest.mark.parametrize("mean", [3.0, 10.0, 19.0])
@pytest.mark.parametrize("eta", [0.0, 1e-300, 1e-20])
def test_apply_loss_near_zero_transmission(mean, eta):
    # entry 0 then sums all the mass, and must not round past 1
    d = coherent_pmf(mean)
    got = apply_loss(d, LossChannel(eta))
    want = oracles.thin_pmf(list(d.pmf), eta)
    assert oracles.total_variation(got.pmf, want) <= 1e-12


def test_apply_loss_near_zero_transmission_on_random_pmfs():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        d = normalized(rng.random(rng.integers(2, 300)))
        for eta in (0.0, 1e-300, 1e-20):
            got = apply_loss(d, LossChannel(eta)).pmf
            assert got[0] == pytest.approx(1.0, abs=1e-12)


def test_exact_geometric_laws_match_enumeration():
    # the closed-form oracles below, checked once against direct thinning
    for eta in (0.1, 0.4, 0.7, 1.0):
        want = oracles.thin_pmf(oracles.geometric_pmf_list(0.5), eta)
        got = oracles.exact_thinned_geometric(0.5, eta, len(want))
        assert oracles.total_variation([float(x) for x in got], want) < 1e-14
        want = oracles.probe_side_bucket(0.5, eta)
        got = oracles.exact_probe_bucket(0.5, eta, len(want))
        assert oracles.total_variation([float(x) for x in got], want) < 1e-14


@pytest.mark.parametrize("eps", [0.5, 0.99, 0.999])
@pytest.mark.parametrize("eta", [1e-3, 0.5, 0.999, 1.0])
def test_thinned_geometrics_against_exact_laws(eps, eta):
    got = condition_probe_bucket(PdcTwinBeam(eps), LossChannel(eta))
    exact = oracles.exact_probe_bucket(eps, eta, got.n_max + 1)
    assert oracles.exact_tv(got.pmf, exact) <= 1e-12


def test_geometric_supports_refuse_oversize():
    # eps = 0.999999 puts the 1e-16 point of the prior at 36.8 M photons
    state = PdcTwinBeam(0.999999)
    for build in (lambda: pdc_marginal_pmf(state),
                  lambda: condition_probe_bucket(state, LossChannel(1.0))):
        with pytest.raises(ValueError, match="support points"):
            build()
    # a posterior whose own support fits still works past the prior's cap
    d = posterior_number_resolving(state, 3, LossChannel(0.5))
    assert d.n_max < 200


def test_posteriors_refuse_oversized_support():
    # near eps = 1 the exact posteriors need tens of millions of entries;
    # both refuse before allocating them
    with pytest.raises(ValueError, match="support points"):
        posterior_number_resolving(PdcTwinBeam(0.999), 30_000,
                                   LossChannel(0.001))
    with pytest.raises(ValueError, match="support points"):
        posterior_bucket(PdcTwinBeam(1.0 - 1e-7), LossChannel(0.5))


# -- supports and modes at the lengths where a blocked recurrence breaks -----

@pytest.mark.parametrize("eps, length", [
    (0.6134, 63), (0.6192, 64), (0.6249, 65), (0.8314, 128), (0.8333, 129)])
def test_posterior_number_resolving_kept_length_at_block_edges(eps, length):
    # at n_det = 0 the mode is N = 0, so every kept entry is a product of
    # rising step ratios; the cut sits at, just before or just past a
    # multiple of 64 entries
    got = posterior_number_resolving(PdcTwinBeam(eps), 0, LossChannel(0.1))
    assert len(got.pmf) == length
    assert_entrywise(got.pmf,
                     oracles.exact_posterior_number_resolving(eps, 0, 0.1))


@pytest.mark.parametrize("n_det, mode", [
    (49, 63), (50, 64), (51, 65), (100, 128), (101, 129)])
def test_posterior_number_resolving_mode_at_block_edges(n_det, mode):
    # q = 0.5625 puts the mode at floor(9 n_det/7) undetected photons (a tie
    # with the entry below at n_det = 49), so the falling products below it
    # run just under, at and just over 64 and 128 steps
    got = posterior_number_resolving(PdcTwinBeam(0.75), n_det,
                                     LossChannel(0.25)).pmf
    assert got[n_det + mode] == pytest.approx(got.max(), rel=1e-12)
    assert_entrywise(got, oracles.exact_posterior_number_resolving(
        0.75, n_det, 0.25))
