import numpy as np
import pytest

import oracles
from qoptkit import DetectorKind, optimal_v_sqz
from qoptkit.figures import (
    DEFAULT_CONDITION_ETAS,
    DETECTOR,
    FIGURES,
    PROBE,
    fig_conditional,
    fig_limits,
    fig_noon_loss,
    fig_squeezed_loss,
    noon_vs_squeezed_grid,
)


def test_figure_registry():
    assert set(FIGURES) == {"fig-limits", "fig-noon-loss",
                            "fig-squeezed-loss", "fig-compare",
                            "fig-conditional"}


def test_fig_limits_structure():
    grid = np.logspace(0.0, 3.0, 13)
    ds = fig_limits(grid, eta_list=(0.5, 0.9))
    assert ds.figure_id == "phase-precision-limits"
    assert set(ds.columns) == {"sql_sample", "heisenberg_n0",
                               "squeezed_vacuum_crb", "loss_bound_eta_0.5",
                               "loss_bound_eta_0.9"}
    # SQL and Heisenberg touch at n_sig = 1 (both 0.5) and diverge after
    assert ds.columns["sql_sample"][0] == ds.columns["heisenberg_n0"][0] == 0.5
    assert np.all(ds.columns["heisenberg_n0"][1:] <
                  ds.columns["sql_sample"][1:])
    assert np.all(ds.columns["squeezed_vacuum_crb"] <
                  ds.columns["heisenberg_n0"])
    # eta = 0.5 floor coincides with the SQL, eta = 0.9 sits below it
    assert np.allclose(ds.columns["loss_bound_eta_0.5"],
                       ds.columns["sql_sample"], rtol=1e-12)
    assert np.all(ds.columns["loss_bound_eta_0.9"] <
                  ds.columns["sql_sample"])


def test_fig_limits_validation():
    with pytest.raises(ValueError):
        fig_limits(np.array([0.1, 1.0]))
    with pytest.raises(ValueError):
        fig_limits(eta_list=())


def test_fig_limits_n_sig_ends_at_the_photon_cap():
    # past 1e154 photons n^2 overflows the squeezed-vacuum bound; the grid
    # is refused by name first, and the cap itself still answers
    with pytest.raises(ValueError, match="n_sig grid"):
        fig_limits([1.0, 1e160])
    ds = fig_limits([1.0, 1e18])
    assert all(np.all(np.isfinite(c)) for c in ds.columns.values())


def test_fig_noon_loss_crosses_unity():
    grid = np.linspace(0.7, 0.82, 25)
    ds = fig_noon_loss(grid)
    enh = ds.columns["enhancement"]
    assert np.all(ds.columns["unity"] == 1.0)
    # the best enhancement crosses 1 at the global threshold ~ 0.7579
    sign_change = np.nonzero(np.diff(np.sign(enh - 1.0)))[0]
    assert len(sign_change) == 1
    crossing = grid[sign_change[0]]
    assert 0.74 < crossing < 0.7579
    # integer sizes, each matching the scan oracle
    for eta, n in zip(grid[::6], ds.columns["n_opt"][::6]):
        assert n == oracles.noon_scan_best(eta)[0]


def test_fig_noon_loss_validation():
    with pytest.raises(ValueError):
        fig_noon_loss(np.array([0.5, 1.0]))


def test_fig_squeezed_loss_columns():
    grid = np.linspace(0.1, 1.0, 10)
    ds = fig_squeezed_loss(grid, n_sig_list=(1.0, 100.0))
    assert set(ds.columns) == {
        "v_opt_n_1", "n_nonclassical_n_1", "enhancement_n_1",
        "v_opt_n_100", "n_nonclassical_n_100", "enhancement_n_100",
    }
    for i, eta in enumerate(grid):
        assert ds.columns["v_opt_n_100"][i] == pytest.approx(
            optimal_v_sqz(100.0, eta), rel=1e-13)
    # more budget, deeper optimal squeezing, everywhere
    assert np.all(ds.columns["v_opt_n_100"] < ds.columns["v_opt_n_1"])
    # lossless enhancement is sqrt(n_sig + 1)
    assert ds.columns["enhancement_n_100"][-1] == pytest.approx(
        np.sqrt(101.0), rel=1e-12)
    with pytest.raises(ValueError):
        fig_squeezed_loss(n_sig_list=())


def test_fig_compare_alias():
    assert FIGURES["fig-compare"] is noon_vs_squeezed_grid
    ds = FIGURES["fig-compare"](np.array([0.8, 0.9]), np.array([5.0, 50.0]))
    assert ds.figure_id == "noon-vs-squeezed-ratio"
    assert ds.n_rows == 4


def test_fig_conditional_probe_number_resolving():
    ds = fig_conditional(PROBE, DetectorKind.NUMBER_RESOLVING)
    assert ds.figure_id == "conditional-pmf-probe-number-resolving"
    assert set(ds.columns) == {"pmf_eta_1", "pmf_eta_0.7", "pmf_eta_0.4",
                               "pmf_eta_0.1"}
    # n_det = 1 default: probe never holds more than one photon
    assert ds.axis("n_photons").values[-1] == 1.0
    assert ds.columns["pmf_eta_1"][1] == 1.0
    assert ds.columns["pmf_eta_0.4"][0] == pytest.approx(0.6, rel=1e-12)


def test_fig_conditional_detector_bucket():
    ds = fig_conditional(DETECTOR, DetectorKind.BUCKET, eta_list=(0.4, 0.1),
                         epsilon=0.5)
    assert ds.figure_id == "conditional-pmf-detector-bucket"
    for eta in (0.4, 0.1):
        col = ds.columns[f"pmf_eta_{eta:g}"]
        want = oracles.detector_side_bucket(0.5, eta)
        assert oracles.total_variation(col, want) < 1e-12
        assert col[0] == 0.0  # a click rules out the vacuum


def test_fig_conditional_columns_share_support():
    ds = fig_conditional(PROBE, DetectorKind.BUCKET)
    n_rows = len(ds.axis("n_photons").values)
    for col in ds.columns.values():
        assert len(col) == n_rows
        assert col.sum() == pytest.approx(1.0, abs=1e-9)


def test_fig_conditional_metadata_and_errors():
    ds = fig_conditional(DETECTOR, DetectorKind.NUMBER_RESOLVING,
                         eta_list=(0.7,), epsilon=0.3, n_det=2)
    assert ds.metadata["side"] == DETECTOR
    assert ds.metadata["epsilon"] == 0.3
    assert ds.metadata["n_det"] == 2
    assert ds.metadata["eta_list"] == [0.7]
    with pytest.raises(ValueError):
        fig_conditional("sample", DetectorKind.BUCKET)
    with pytest.raises(ValueError):
        fig_conditional(PROBE, DetectorKind.BUCKET, eta_list=())


@pytest.mark.parametrize("side", [PROBE, DETECTOR])
def test_fig_conditional_refuses_a_count_without_pairs(side):
    # at epsilon = 0 no pair exists: both sides refuse a count above 0 and a
    # click, and answer a count of 0
    with pytest.raises(ValueError, match="observation impossible"):
        fig_conditional(side, DetectorKind.NUMBER_RESOLVING, (0.5,), 0.0, 3)
    with pytest.raises(ValueError, match="bucket click impossible"):
        fig_conditional(side, DetectorKind.BUCKET, (0.5,), 0.0)
    ds = fig_conditional(side, DetectorKind.NUMBER_RESOLVING, (0.5,), 0.0, 0)
    assert list(ds.columns["pmf_eta_0.5"]) == [1.0]


@pytest.mark.parametrize("build, name", [
    (lambda: fig_limits(np.logspace(0.0, 1.0, 3), eta_list=(0.5, 0.5)),
     "eta_list"),
    (lambda: fig_squeezed_loss(np.linspace(0.5, 1.0, 3),
                               n_sig_list=(10, 10.0000001)), "n_sig_list"),
    (lambda: fig_conditional(eta_list=(0.1234561, 0.1234562)), "eta_list"),
])
def test_values_that_share_a_column_name_are_refused(build, name):
    # each value names its columns by its %g text, 6 significant digits
    with pytest.raises(ValueError, match=name):
        build()


def test_default_condition_etas_frozen():
    assert DEFAULT_CONDITION_ETAS == (1.0, 0.7, 0.4, 0.1)
