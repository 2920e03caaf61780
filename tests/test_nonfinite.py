"""Non-finite entries anywhere in a grid or list are refused by name.

The grid builders evaluate whole arrays at once, so each range check must
reject NaN (which fails every comparison) and +-inf on its own, before any
value reaches a column.
"""
import math

import numpy as np
import pytest

from qoptkit import (
    PowerConstraint,
    fig_limits,
    fig_noon_loss,
    fig_squeezed_loss,
    heisenberg,
    loss_bound,
    noon_best_precision,
    noon_enhancement,
    noon_optimal_n,
    noon_precision_curve,
    noon_vs_squeezed_grid,
    optimal_squeezing,
    optimal_v_sqz,
    qnl,
    sql_sample,
    sql_total,
    squeezed_precision_budget,
    squeezed_vacuum_crb,
)
from qoptkit.cli import run

BAD = (math.nan, math.inf, -math.inf)


def spoil(values, bad):
    out = np.array(values, dtype=float)
    out[len(out) // 2] = bad
    return out


ETA = np.linspace(0.55, 0.95, 5)
N_SIG = np.logspace(0.0, 2.0, 5)

# (name the message must carry, call with the spoiled input)
CASES = {
    "fig_limits grid": ("n_sig grid", lambda b: fig_limits(spoil(N_SIG, b))),
    "fig_limits eta_list": ("eta", lambda b: fig_limits(
        N_SIG, eta_list=tuple(spoil((0.5, 0.9, 0.99), b)))),
    "fig_noon_loss grid": ("eta", lambda b: fig_noon_loss(spoil(ETA, b))),
    "fig_squeezed_loss grid": ("eta", lambda b: fig_squeezed_loss(
        spoil(ETA, b))),
    "fig_squeezed_loss n_sig_list": ("n_sig", lambda b: fig_squeezed_loss(
        ETA, n_sig_list=tuple(spoil((1.0, 10.0, 100.0), b)))),
    "noon_precision_curve grid": ("n_sig grid", lambda b: noon_precision_curve(
        0.9, spoil(N_SIG, b))),
    "noon_precision_curve eta": ("eta", lambda b: noon_precision_curve(
        b, N_SIG)),
    "noon_vs_squeezed_grid eta": ("eta grid", lambda b: noon_vs_squeezed_grid(
        spoil(ETA, b), N_SIG)),
    "noon_vs_squeezed_grid n_sig": ("n_sig grid",
                                    lambda b: noon_vs_squeezed_grid(
                                        ETA, spoil(N_SIG, b))),
    "noon_optimal_n": ("eta", lambda b: noon_optimal_n(spoil(ETA, b))),
    "noon_enhancement N": ("N", lambda b: noon_enhancement(
        spoil(N_SIG, b), 0.9)),
    "noon_enhancement eta": ("eta", lambda b: noon_enhancement(
        4.0, spoil(ETA, b))),
    "noon_best_precision": ("n_sig", lambda b: noon_best_precision(
        0.9, spoil(N_SIG, b), 12)),
    "sql_sample": ("n_sig", lambda b: sql_sample(spoil(N_SIG, b))),
    "sql_total": ("n0", lambda b: sql_total(spoil(N_SIG, b))),
    "qnl": ("eta", lambda b: qnl(N_SIG, spoil(ETA, b))),
    "heisenberg": ("n0", lambda b: heisenberg(spoil(N_SIG, b))),
    "squeezed_vacuum_crb": ("n", lambda b: squeezed_vacuum_crb(
        spoil(N_SIG, b))),
    "loss_bound n": ("photon number", lambda b: loss_bound(
        spoil(N_SIG, b), 0.9, PowerConstraint.SAMPLE)),
    "loss_bound eta": ("eta", lambda b: loss_bound(
        N_SIG, spoil(ETA, b), PowerConstraint.SAMPLE)),
    "optimal_v_sqz": ("n_sig", lambda b: optimal_v_sqz(spoil(N_SIG, b), 0.9)),
    "optimal_squeezing": ("eta", lambda b: optimal_squeezing(
        N_SIG, spoil(ETA, b))),
    "squeezed_precision_budget": ("v_sqz", lambda b: squeezed_precision_budget(
        N_SIG, spoil(np.full(5, 0.5), b), 0.9)),
}


@pytest.mark.parametrize("bad", BAD, ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_nonfinite_entry_is_refused_by_name(case, bad):
    name, call = CASES[case]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(bad)


@pytest.mark.parametrize("value", ("inf", "nan", "-inf"))
def test_cli_limits_refuses_nonfinite_n_sig(value, capsys):
    assert run(["limits", f"--n-sig={value}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--n-sig" in err


@pytest.mark.parametrize("argv", (
    ["noon", "--curve", "--eta", "0.9", "--n-sig-max", "inf"],
    ["compare", "--n-sig-min", "nan"],
    ["compare", "--eta-max", "nan"],
))
def test_cli_grid_bounds_refuse_nonfinite(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.count("\n") == 1
