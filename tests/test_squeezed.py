import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qoptkit import (
    PowerConstraint,
    default_eta_grid,
    loss_bound,
    noon_vs_squeezed_grid,
    optimal_squeezing,
    optimal_v_sqz,
    sql_sample,
    squeezed_precision,
    squeezed_precision_budget,
    squeezing_photon_cost,
)


def test_precision_fixed_state():
    # coherent lossless probe recovers 1/(2 alpha)
    assert squeezed_precision(5.0, 1.0, 1.0) == 0.1
    assert squeezed_precision(10.0, 0.1, 1.0) == pytest.approx(
        0.015811388300841896, rel=1e-15)
    # loss admixes (1-eta)/eta of vacuum into the squeezed quadrature
    assert squeezed_precision(10.0, 0.1, 0.5) == pytest.approx(
        math.sqrt(1.1) / 20.0, rel=1e-15)


def test_precision_validation():
    with pytest.raises(ValueError):
        squeezed_precision(0.0, 0.5, 0.9)
    with pytest.raises(ValueError):
        squeezed_precision(1.0, 0.0, 0.9)
    with pytest.raises(ValueError):
        squeezed_precision(1.0, 0.5, 0.0)


def test_squeezing_photon_cost():
    assert squeezing_photon_cost(1.0) == 0.0
    assert squeezing_photon_cost(0.5) == 0.125
    # cost is symmetric in V <-> 1/V
    assert squeezing_photon_cost(0.2) == pytest.approx(
        squeezing_photon_cost(5.0), rel=1e-12)


def test_budget_frozen():
    assert squeezed_precision_budget(10.0, 0.1775, 0.5) == pytest.approx(
        0.18038232636067958, rel=1e-14)
    assert squeezed_precision_budget(10.0, 1.0, 1.0) == pytest.approx(
        sql_sample(10.0), rel=1e-14)


def test_budget_consistency_with_fixed_state():
    # spending the budget must equal the fixed-state formula at the implied
    # alpha
    n_sig, v, eta = 7.0, 0.3, 0.8
    alpha = math.sqrt(n_sig - squeezing_photon_cost(v))
    assert squeezed_precision_budget(n_sig, v, eta) == pytest.approx(
        squeezed_precision(alpha, v, eta), rel=1e-13)


def test_budget_infeasible_squeezing():
    # V + 1/V - 2 >= 4 n_sig leaves nothing for the carrier
    with pytest.raises(ValueError):
        squeezed_precision_budget(0.5, 0.1, 0.9)
    with pytest.raises(ValueError):
        squeezed_precision_budget(10.0, 1.5, 0.9)
    with pytest.raises(ValueError):
        squeezed_precision_budget(10.0, 0.5, 1.2)


def test_optimal_v_frozen():
    assert optimal_v_sqz(10.0, 0.5) == pytest.approx(0.17751743210955348,
                                                     rel=1e-14)
    # lossless closed form: V_opt = 1/(2 n + 1)
    assert optimal_v_sqz(4.0, 1.0) == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert optimal_v_sqz(10.0, 1.0) == pytest.approx(1.0 / 21.0, rel=1e-14)


def test_optimal_v_limits():
    # no point squeezing a hopeless channel
    assert optimal_v_sqz(10.0, 1e-6) == pytest.approx(1.0, abs=1e-2)
    for n_sig in (0.5, 1.0, 10.0, 1e4):
        for eta in (0.1, 0.5, 0.9, 1.0):
            assert 0.0 < optimal_v_sqz(n_sig, eta) <= 1.0


def test_optimal_squeezing_lossless_identities():
    r = optimal_squeezing(4.0, 1.0)
    assert r.v_opt == pytest.approx(1.0 / 9.0, rel=1e-13)
    assert r.delta_phi == pytest.approx(1.0 / (2.0 * math.sqrt(20.0)),
                                        rel=1e-13)
    assert r.enhancement == pytest.approx(math.sqrt(5.0), rel=1e-13)


def test_optimal_squeezing_frozen():
    r = optimal_squeezing(10.0, 0.5)
    assert r.delta_phi == pytest.approx(0.18038232622528208, rel=1e-14)
    assert r.enhancement == pytest.approx(0.8765486415279303, rel=1e-14)
    assert r.n_opt_nonclassical == pytest.approx(
        squeezing_photon_cost(r.v_opt), rel=1e-14)
    assert r.n_sig == 10.0 and r.eta == 0.5


def test_closed_form_matches_golden_section():
    rng = np.random.default_rng(5)
    for _ in range(20):
        eta = rng.uniform(0.05, 0.999)
        n_sig = 10.0 ** rng.uniform(-0.3, 4.0)
        v_star = oracles.golden_minimize(
            lambda v: squeezed_precision_budget(n_sig, v, eta), 1e-9, 1.0)
        assert abs(optimal_v_sqz(n_sig, eta) - v_star) < 1e-6


def test_optimum_is_stationary():
    for eta, n_sig in ((0.5, 10.0), (0.9, 100.0), (0.99, 3.0)):
        v0 = optimal_v_sqz(n_sig, eta)
        h = 1e-5 * v0
        f = lambda v: squeezed_precision_budget(n_sig, v, eta) ** 2
        d1 = (f(v0 + h) - f(v0 - h)) / (2.0 * h)
        d2 = (f(v0 + h) - 2.0 * f(v0) + f(v0 - h)) / (h * h)
        assert abs(d1) <= 1e-6 * abs(d2) * v0


def test_asymptote_excess_scaling():
    # optimized precision approaches the loss floor like 1 + 1/(2 sqrt(nL));
    # at n_sig = 1000 L^-1 the excess is ~1.6%, never inside 1%
    for eta in (0.5, 0.9, 0.99):
        big_l = (1.0 - eta) / eta
        n_sig = 1000.0 / big_l
        dphi = optimal_squeezing(n_sig, eta).delta_phi
        floor = loss_bound(n_sig, eta, PowerConstraint.SAMPLE)
        excess = dphi / floor - 1.0
        assert 0.014 < excess < 0.018
        # prediction 1/(2 sqrt(n L)) = 1/(2 sqrt(1000))
        assert excess == pytest.approx(1.0 / (2.0 * math.sqrt(1000.0)),
                                       rel=0.05)


def test_default_grids():
    eta = default_eta_grid()
    assert len(eta) == 200
    assert eta[0] == pytest.approx(0.5, rel=1e-12)
    assert eta[-1] == pytest.approx(0.999, rel=1e-12)
    assert np.all(np.diff(eta) > 0)
    n_sig = noon_vs_squeezed_grid().axis("n_sig").values
    assert len(n_sig) == 200
    assert n_sig[0] == 1.0 and n_sig[-1] == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("args, message", [
    ((5, 1.5, 0.999), "eta_min must be finite and lie in"),
    ((0, 0.5, 0.9), "n_points must be an integer in [2, "),
    ((3, 0.9, 0.5), "eta_max must be finite and lie in (0.9, 1), got 0.5"),
    ((3, 0.5, 1.0), "eta_max must be finite and lie in (0.5, 1), got 1.0"),
    ((2.5, 0.5, 0.9), "n_points must be an integer"),
    ((3, float("nan"), 0.9), "eta_min must be finite"),
])
def test_default_eta_grid_refuses_by_name(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        default_eta_grid(*args)


def test_grid_dataset_small():
    eta = np.array([0.6, 0.8, 0.95])
    n_sig = np.array([1.0, 10.0, 100.0])
    ds = noon_vs_squeezed_grid(eta, n_sig)
    assert ds.figure_id == "noon-vs-squeezed-ratio"
    assert ds.n_rows == 9
    ratio = ds.columns["ratio"]
    assert np.all(ratio > 0.0)
    assert ds.metadata["ratio_min"] == ratio.min()
    assert ds.metadata["ratio_max"] == ratio.max()
    at = ds.metadata["ratio_max_at"]
    # the flat index decodes back to a grid point holding the max
    i = list(eta).index(at["eta"])
    j = list(n_sig).index(at["n_sig"])
    assert ratio[i * 3 + j] == ratio.max()


def test_grid_validation():
    with pytest.raises(ValueError):
        noon_vs_squeezed_grid(np.array([1.0]), np.array([10.0]))
    with pytest.raises(ValueError):
        noon_vs_squeezed_grid(np.array([0.9]), np.array([200.0]))
    with pytest.raises(ValueError):
        noon_vs_squeezed_grid(np.array([]), np.array([10.0]))


@given(st.floats(min_value=0.05, max_value=0.999),
       st.floats(min_value=0.5, max_value=1e4))
@settings(max_examples=60)
def test_optimal_beats_no_squeezing(eta, n_sig):
    best = squeezed_precision_budget(n_sig, optimal_v_sqz(n_sig, eta), eta)
    plain = squeezed_precision_budget(n_sig, 1.0, eta)
    assert best <= plain * (1.0 + 1e-12)


@given(st.floats(min_value=0.05, max_value=0.999),
       st.floats(min_value=0.5, max_value=1e4))
@settings(max_examples=60)
def test_optimal_respects_loss_floor(eta, n_sig):
    dphi = optimal_squeezing(n_sig, eta).delta_phi
    floor = loss_bound(n_sig, eta, PowerConstraint.SAMPLE)
    assert dphi >= floor * (1.0 - 1e-12)


def test_v_opt_is_no_worse_than_its_neighbours():
    # an invariant that needs no oracle, on the domain-edge grid of
    # test_noon's loss-floor test: nudging V_opt by 1e-6 either way, inside
    # (0, 1] and with a positive budget left, never improves the precision
    eta = np.concatenate([[2.0**-1022], np.geomspace(1e-300, 0.5, 40),
                          1.0 - np.geomspace(0.25, 2.0**-53, 40)])[:, None]
    n_sig = np.geomspace(0.5, 1e18, 45)
    eta, n_sig = np.broadcast_arrays(eta, n_sig)
    v_opt = optimal_v_sqz(n_sig, eta)
    best = squeezed_precision_budget(n_sig, v_opt, eta)
    for v in (v_opt * (1.0 - 1e-6), v_opt * (1.0 + 1e-6)):
        ok = (v <= 1.0) & (n_sig > squeezing_photon_cost(v))
        near = squeezed_precision_budget(n_sig[ok], v[ok], eta[ok])
        assert np.all(near >= best[ok] * (1.0 - 1e-12))
