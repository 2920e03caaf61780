import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from qoptkit import (
    PowerConstraint,
    loss_bound,
    noon_best_precision,
    noon_enhancement,
    noon_flux_requirement,
    noon_optimal_n,
    noon_precision_curve,
    noon_repeated,
    noon_single_shot,
    noon_threshold_efficiency,
    optimal_squeezing,
    sql_sample,
)


def test_single_shot_lossless_is_heisenberg():
    for n in (1, 2, 5, 40):
        assert noon_single_shot(n, 1.0) == pytest.approx(1.0 / n, rel=1e-15)


def test_single_shot_frozen():
    # sqrt((0.8^-4 + 1)/2)/4
    assert noon_single_shot(4, 0.8) == pytest.approx(0.32793893534086493,
                                                     rel=1e-14)
    expect = math.sqrt((0.8**-4 + 1.0) / 2.0) / 4.0
    assert noon_single_shot(4, 0.8) == pytest.approx(expect, rel=1e-14)


def test_single_shot_overflow_safe():
    # eta^-N far beyond double range must come back inf, not raise
    assert noon_single_shot(400, 0.01) == math.inf
    # and moderately extreme values stay finite and correct in log space
    v = noon_single_shot(100, 0.5)
    assert math.isfinite(v)
    assert v == pytest.approx(math.sqrt((2.0**100 + 1) / 2.0) / 100.0,
                              rel=1e-12)


def test_single_shot_validation():
    with pytest.raises(ValueError):
        noon_single_shot(0, 0.9)
    with pytest.raises(ValueError):
        noon_single_shot(2.5, 0.9)
    with pytest.raises(ValueError):
        noon_single_shot(2, 0.0)
    with pytest.raises(ValueError):
        noon_single_shot(2, 1.1)


def test_enhancement_frozen():
    assert noon_enhancement(12, 0.9) == pytest.approx(1.6256570196122009,
                                                      rel=1e-14)
    # lossless: E = sqrt(N/2)
    assert noon_enhancement(8, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_enhancement_vs_precision_consistency():
    # E must equal sql_sample / dphi_M at any exposure
    for n, eta, n_sig in ((3, 0.7, 10.0), (12, 0.9, 600.0), (2, 0.55, 1.0)):
        r = noon_repeated(n, eta, n_sig)
        assert r.enhancement == pytest.approx(
            sql_sample(n_sig) / r.delta_phi_m, rel=1e-12)


def test_repeated_frozen():
    r = noon_repeated(12, 0.9, 600.0)
    assert r.m_repetitions == 100.0
    assert r.integer_repetitions
    assert r.enhancement == pytest.approx(1.6256570196122009, rel=1e-14)
    assert r.delta_phi_single == noon_single_shot(12, 0.9)
    r = noon_repeated(12, 0.9, 601.0)
    assert not r.integer_repetitions


def test_repeated_exposure_gate():
    noon_repeated(4, 0.9, 2.0)  # exactly one state allowed
    with pytest.raises(ValueError):
        noon_repeated(4, 0.9, 1.9)


def test_threshold_frozen():
    assert noon_threshold_efficiency(3) == pytest.approx(2.0 ** (-1.0 / 3.0),
                                                         rel=1e-14)
    assert noon_threshold_efficiency(5) == pytest.approx(4.0 ** (-1.0 / 5.0),
                                                         rel=1e-14)
    assert noon_threshold_efficiency(3) == pytest.approx(0.7937005259840998,
                                                         rel=1e-14)
    assert noon_threshold_efficiency(5) == pytest.approx(0.757858283255199,
                                                         rel=1e-14)


def test_threshold_minimum_at_five():
    values = {n: noon_threshold_efficiency(n) for n in range(2, 40)}
    assert min(values, key=values.get) == 5


def test_threshold_n2_is_one_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert noon_threshold_efficiency(2) == 1.0
    with pytest.raises(ValueError):
        noon_threshold_efficiency(1)


def test_threshold_means_unit_enhancement():
    for n in (3, 5, 9, 20):
        eta_c = noon_threshold_efficiency(n)
        assert noon_enhancement(n, eta_c) == pytest.approx(1.0, rel=1e-12)
        assert noon_enhancement(n, eta_c + 0.01) > 1.0
        assert noon_enhancement(n, eta_c - 0.01) < 1.0


def test_optimal_n_frozen():
    n, e, root = noon_optimal_n(0.9)
    assert n == 12
    assert e == pytest.approx(1.6256570196122009, rel=1e-13)
    assert root == pytest.approx(12.134190259501338, rel=1e-9)
    n, e, root = noon_optimal_n(0.5)
    assert n == 2
    assert e == pytest.approx(math.sqrt(2.0 / 5.0), rel=1e-13)


def test_optimal_n_matches_exhaustive_scan():
    for eta in (0.55, 0.6, 0.75, 0.9, 0.95, 0.99):
        n_lib, e_lib, root = noon_optimal_n(eta)
        n_scan, e_scan = oracles.noon_scan_best(eta)
        assert n_lib == n_scan
        assert e_lib == pytest.approx(e_scan, rel=1e-12)
        # root really solves N ln(eta) + eta^N + 1 = 0
        assert abs(root * math.log(eta) + eta**root + 1.0) < 1e-10


def test_optimal_n_pins_to_search_bound():
    # at very high eta the stationary point runs past N = 200; the best
    # admissible integer is the bound itself
    n, e, root = noon_optimal_n(0.999)
    assert root > 200.0
    assert n == 200
    assert e == pytest.approx(noon_enhancement(200, 0.999), rel=1e-14)


def test_scalar_call_equals_array_entry_bit_for_bit():
    # one numpy path: a scalar call is the array call at one point, so even
    # the last bit agrees (libm and numpy's SIMD log/exp need not)
    rng = np.random.default_rng(2024)
    n = rng.integers(1, 400, 2000).astype(float)
    eta = rng.uniform(0.3, 1.0, 2000)
    n_sig = 10.0 ** rng.uniform(-0.3, 4.0, 2000)  # a NOON n_sig is >= 0.5
    enh = noon_enhancement(n, eta)
    n_opt, best, root = noon_optimal_n(eta)
    dphi, n_state = noon_best_precision(eta, n_sig, n_opt)
    for i in range(len(eta)):
        assert noon_enhancement(n[i], eta[i]) == enh[i], (n[i], eta[i])
        one = noon_optimal_n(eta[i])
        assert one == (n_opt[i], best[i], root[i]), eta[i]
        one = noon_best_precision(eta[i], n_sig[i], n_opt[i])
        assert one == (dphi[i], n_state[i]), (eta[i], n_sig[i])


def test_optimal_n_rejects_lossless():
    with pytest.raises(ValueError):
        noon_optimal_n(1.0)


def test_flux_requirement():
    assert noon_flux_requirement(5, 1e12, PowerConstraint.TOTAL) == \
        pytest.approx(4e10, rel=1e-15)
    assert noon_flux_requirement(1, 7.0) == pytest.approx(28.0, rel=1e-15)
    assert noon_flux_requirement(2, 100.0) == pytest.approx(100.0, rel=1e-15)
    with pytest.raises(ValueError):
        noon_flux_requirement(3, 0.0)


def test_precision_curve_branches():
    grid = np.linspace(1.0, 60.0, 301)
    ds = noon_precision_curve(0.9, grid)
    n_opt = ds.metadata["n_opt"]
    assert n_opt == 12
    assert ds.metadata["kink_n_sig"] == 6.0
    n_state = ds.columns["n_state"]
    below = grid <= 6.0
    assert np.allclose(n_state[below], 2.0 * grid[below])
    assert np.all(n_state[~below] == 12.0)
    # the curve is continuous across the branch switch: on a fine grid
    # straddling n_sig = 6 the steps shrink to the grid resolution
    fine = np.linspace(5.9, 6.1, 21)
    dphi = noon_precision_curve(0.9, fine).columns["delta_phi"]
    rel_step = np.abs(np.diff(dphi)) / dphi[:-1]
    assert rel_step.max() < 0.01


def test_precision_curve_never_beats_loss_floor():
    grid = np.logspace(0.0, 4.0, 120)
    for eta in (0.6, 0.9, 0.99):
        ds = noon_precision_curve(eta, grid)
        floor = ds.columns["loss_bound"]
        assert np.all(ds.columns["delta_phi"] >= floor * (1.0 - 1e-12))
        ref = np.array([
            loss_bound(n, eta, PowerConstraint.SAMPLE) for n in grid
        ])
        assert np.allclose(floor, ref, rtol=1e-14)


def test_precision_curve_lossless():
    grid = np.logspace(0.0, 2.0, 10)
    ds = noon_precision_curve(1.0, grid)
    assert ds.metadata["n_opt"] is None
    assert ds.metadata["kink_n_sig"] is None
    assert np.all(ds.columns["loss_bound"] == 0.0)
    # single-state Heisenberg all the way: dphi = 1/(2 n_sig)
    assert np.allclose(ds.columns["delta_phi"], 1.0 / (2.0 * grid),
                       rtol=1e-12)


def test_precision_curve_grid_validation():
    with pytest.raises(ValueError):
        noon_precision_curve(0.9, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        noon_precision_curve(0.9, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        noon_precision_curve(0.9, np.array([]))


@given(st.floats(min_value=0.3, max_value=0.995))
def test_optimal_n_is_local_argmax(eta):
    n, e, _ = noon_optimal_n(eta)
    if n > 1:
        assert e >= noon_enhancement(n - 1, eta)
    if n < 200:
        assert e > noon_enhancement(n + 1, eta) - 1e-15


@given(st.integers(min_value=1, max_value=60),
       st.floats(min_value=0.2, max_value=0.999),
       st.floats(min_value=30.0, max_value=1e6))
def test_repeated_never_beats_loss_floor(n, eta, n_sig):
    r = noon_repeated(n, eta, n_sig)
    floor = loss_bound(n_sig, eta, PowerConstraint.SAMPLE)
    assert r.delta_phi_m >= floor * (1.0 - 1e-12)


def test_postselection_monte_carlo_confirms_single_shot():
    # independent sampling route: survival-thinned fringe at the half-fringe
    # operating point reproduces sqrt((eta^-N + 1)/2)/N
    std, se = oracles.noon_postselected_precision(4, 0.8, 20000, 300, seed=11)
    assert abs(std - noon_single_shot(4, 0.8)) < 4.0 * se
    std, se = oracles.noon_postselected_precision(3, 0.9, 20000, 300, seed=12)
    assert abs(std - noon_single_shot(3, 0.9)) < 4.0 * se


def test_no_precision_beats_the_loss_floor():
    # no state beats the channel's floor: check NOON and squeezed light at
    # the domain's edges, eta from the least normal float to 1 - 2^-53 and
    # n_sig from a one-photon NOON state to MAX_PHOTONS
    eta = np.concatenate([[2.0**-1022], np.geomspace(1e-300, 0.5, 40),
                          1.0 - np.geomspace(0.25, 2.0**-53, 40)])[:, None]
    n_sig = np.geomspace(0.5, 1e18, 45)
    floor = loss_bound(n_sig, eta, PowerConstraint.SAMPLE) * (1.0 - 1e-12)
    noon, _ = noon_best_precision(eta, n_sig, noon_optimal_n(eta)[0])
    assert np.all(noon >= floor)
    assert np.all(optimal_squeezing(n_sig, eta).delta_phi >= floor)
    # below half a photon of exposure a NOON state would hold less than one
    with pytest.raises(ValueError, match="n_sig"):
        noon_best_precision(0.001, 0.01, 1)


@pytest.mark.parametrize("n_opt", [math.nan, 0, 2.5, -1.0, -math.inf,
                                   [3, 2.5]])
def test_best_precision_refuses_n_opt_that_is_not_a_photon_number(n_opt):
    with pytest.raises(ValueError, match="n_opt must be a whole number"):
        noon_best_precision(0.9, 3.0, n_opt)
