import math

import numpy as np
import pytest

from qoptkit import (
    PowerConstraint,
    heisenberg,
    loss_bound,
    qfi_phase,
    qnl,
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
        n0 = eta / (1.0 - eta)
        assert math.isclose(loss_bound(n0, eta),
                            heisenberg(n0), rel_tol=1e-12)


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
    for fn in (sql_total, sql_sample):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)
    with pytest.raises(ValueError):
        qnl(10.0, 0.0)
    with pytest.raises(ValueError):
        qfi_phase(0.0)
