import math

import numpy as np
import pytest

from qoptkit import (
    PowerConstraint,
    diffraction_limit,
    dipole_scattering_fraction,
    heisenberg,
    loss_bound,
    loss_transition_n0,
    oct_coherence_length,
    oct_sensitivity,
    qfi_phase,
    qnl,
    signal_mode_amplitude,
    sql_sample,
    sql_total,
    squeezed_vacuum_crb,
)

N_GRID = np.logspace(0.0, 8.0, 20)


def test_sql_total_hand_values():
    assert sql_total(100.0) == 0.1
    assert sql_total(1.0) == 1.0
    for n in N_GRID:
        assert math.isclose(sql_total(n), 1.0 / math.sqrt(n), rel_tol=1e-15)


def test_sql_sample_hand_values():
    assert sql_sample(25.0) == 0.1
    for n in N_GRID:
        assert math.isclose(sql_sample(n), 0.5 / math.sqrt(n),
                            rel_tol=1e-15)


def test_qnl_hand_values():
    assert qnl(100.0, 0.25) == 0.2
    # lossless QNL collapses to the total-power SQL
    assert qnl(64.0, 1.0) == sql_total(64.0)
    for n in N_GRID:
        assert math.isclose(qnl(n, 0.5), math.sqrt(2.0 / n),
                            rel_tol=1e-15)


def test_heisenberg_hand_values():
    assert heisenberg(50.0) == 0.02
    assert heisenberg(1.0) == 1.0
    with pytest.raises(ValueError):
        heisenberg(0.5)


def test_loss_bound_both_conventions():
    # sqrt((1-eta)/eta) = 1 at eta = 0.5
    assert loss_bound(100.0, 0.5) == 0.1
    assert loss_bound(25.0, 0.5, PowerConstraint.SAMPLE) == 0.1
    for n in N_GRID:
        scale = math.sqrt(0.2 / 0.8)
        assert math.isclose(loss_bound(n, 0.8),
                            scale / math.sqrt(n), rel_tol=1e-15)
        assert math.isclose(
            loss_bound(n, 0.8, PowerConstraint.SAMPLE),
            scale / (2.0 * math.sqrt(n)), rel_tol=1e-15)


def test_loss_bound_rejects_endpoints():
    # the lossless channel has no floor; eta = 0 transmits nothing
    for constraint in PowerConstraint:
        assert loss_bound(10.0, 1.0, constraint) == 0.0
    for eta in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            loss_bound(10.0, eta)


def test_loss_transition_crossing():
    # at n0 = eta/(1-eta) the loss floor meets the Heisenberg line
    for eta in (0.6, 0.75, 0.9, 0.99):
        n0 = loss_transition_n0(eta)
        assert math.isclose(loss_bound(n0, eta),
                            heisenberg(n0), rel_tol=1e-12)
    assert loss_transition_n0(0.9) == pytest.approx(9.0, rel=1e-15)


def test_qfi_single_source_of_truth():
    # both wrappers must route through qfi_phase bit-consistently
    for n in N_GRID:
        _, crb = qfi_phase(n)
        assert sql_sample(n) == crb
        _, crb = qfi_phase(2.0 * (n * n + n))
        assert squeezed_vacuum_crb(n) == crb
    fisher, crb = qfi_phase(25.0)
    assert fisher == 100.0 and crb == 0.1


def test_squeezed_vacuum_crb_closed_form():
    for n in N_GRID:
        expect = 1.0 / (2.0 * math.sqrt(2.0) * math.sqrt(n * n + n))
        assert math.isclose(squeezed_vacuum_crb(n), expect,
                            rel_tol=1e-14)
    assert squeezed_vacuum_crb(3.0) == pytest.approx(
        0.10206207261596577, rel=1e-15)


def test_bound_orderings():
    for n in N_GRID:
        assert heisenberg(n) <= sql_total(n)
        assert squeezed_vacuum_crb(n) < heisenberg(n)
        for eta in (0.3, 0.7, 0.95):
            assert qnl(n, eta) >= sql_total(n)
        # below half transmission the loss floor sits above the SQL
        assert loss_bound(n, 0.4) > sql_total(n)
        assert loss_bound(n, 0.6) < sql_total(n)


def test_scaling_with_photon_number():
    for n in N_GRID:
        assert math.isclose(sql_total(2 * n),
                            sql_total(n) / math.sqrt(2.0),
                            rel_tol=1e-14)
        assert math.isclose(heisenberg(2 * n),
                            heisenberg(n) / 2.0, rel_tol=1e-14)


def test_positive_input_validation():
    for fn in (sql_total, sql_sample, oct_sensitivity):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)
    with pytest.raises(ValueError):
        qnl(10.0, 0.0)
    with pytest.raises(ValueError):
        qfi_phase(0.0)
    with pytest.raises(ValueError):
        loss_transition_n0(1.0)


def test_diffraction_limit():
    assert diffraction_limit(400e-9, 1.0) == pytest.approx(200e-9, rel=1e-15)
    assert diffraction_limit(1064e-9, 0.532) == pytest.approx(1000e-9, rel=1e-15)
    assert diffraction_limit(750e-9, 1.25) == pytest.approx(300e-9, rel=1e-15)
    with pytest.raises(ValueError):
        diffraction_limit(500e-9, 0.0)
    with pytest.raises(ValueError):
        diffraction_limit(500e-9, 2.0)


def test_oct_coherence_length():
    assert oct_coherence_length(800e-9, 28e-9) == pytest.approx(20.2e-6,
                                                                abs=0.1e-6)
    assert oct_coherence_length(800e-9, 300e-9) == pytest.approx(1.88e-6,
                                                                 abs=0.01e-6)
    # huge bandwidth: l_c -> 1.765 * lambda
    lam = 800e-9
    assert oct_coherence_length(lam, lam / 2.0) == pytest.approx(
        (8.0 * math.log(2.0) / math.pi) * lam, rel=1e-12)


def test_oct_sensitivity():
    assert oct_sensitivity(4e6) == 1e6
    assert oct_sensitivity(4.0) == 1.0
    assert oct_sensitivity(4e10) == 1e10


def test_dipole_scattering_fraction():
    # silica bead (a = 150 nm) in water, 750 nm vacuum light focussed to 1 um
    n_water = 1.33
    sigma, frac = dipole_scattering_fraction(
        150e-9, 750e-9 / n_water, 1.425 / n_water, 1e-6)
    assert sigma == pytest.approx(3e-15, rel=0.20)
    assert frac == pytest.approx(3e-4, rel=0.25)
    # independent arithmetic route
    k = 2.0 * math.pi * n_water / 750e-9
    m2 = (1.425 / n_water) ** 2
    expect = 8.0 * math.pi / 3.0 * k**4 * (150e-9) ** 6 \
        * ((m2 - 1.0) / (m2 + 2.0)) ** 2
    assert sigma == pytest.approx(expect, rel=1e-12)
    assert frac == pytest.approx(sigma / (4.0 * math.pi * 1e-12), rel=1e-12)


def test_dipole_index_matched_particle():
    sigma, frac = dipole_scattering_fraction(100e-9, 600e-9, 1.0, 1e-6)
    assert sigma == 0.0 and frac == 0.0
    with pytest.raises(ValueError):
        dipole_scattering_fraction(-1e-9, 600e-9, 1.1, 1e-6)


def test_signal_mode_amplitude():
    assert signal_mode_amplitude(10.0, 0.0, 2.0) == 0.0
    assert signal_mode_amplitude(10.0, 0.1, 1.0) == pytest.approx(1.0,
                                                                  rel=1e-15)
    assert signal_mode_amplitude(2.0, -0.5, 4.0) == -0.25
    with pytest.raises(ValueError):
        signal_mode_amplitude(1.0, 0.1, 0.0)
