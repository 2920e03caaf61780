"""Quantum-limited optical phase metrology toolkit.

Precision bounds (shot-noise, Heisenberg, loss floors, Fisher-information
routes), photon-counting statistics and their transformation under loss,
NOON-state and squeezed-light strategy optimization, Bayesian heralding
inference, and seeded Monte-Carlo experiments that check the closed forms.
"""
from .conditioning import (
    DetectorKind,
    LossChannel,
    apply_loss,
    condition_probe_bucket,
    condition_probe_number_resolving,
    posterior_bucket,
    posterior_number_resolving,
)
from .dataset import Axis, FigureDataset, parse_csv, write_text_atomic
from .figures import (
    fig_compare,
    fig_conditional,
    fig_limits,
    fig_noon_loss,
    fig_squeezed_loss,
)
from .limits import (
    PowerConstraint,
    heisenberg,
    loss_bound,
    qfi_phase,
    qnl,
    sql_sample,
    sql_total,
    squeezed_vacuum_crb,
)
from .montecarlo import (
    DEFAULT_SEED,
    SimConfig,
    SimReport,
    simulate_coherent_mz,
    simulate_heralded_absorption,
    simulate_hom,
    simulate_homodyne_squeezed,
    simulate_noon_fringe,
)
from .noon import (
    NoonLossReport,
    noon_best_precision,
    noon_enhancement,
    noon_flux_requirement,
    noon_optimal_n,
    noon_precision_curve,
    noon_repeated,
    noon_single_shot,
    noon_threshold_efficiency,
)
from .squeezed import (
    SqueezedBudgetReport,
    default_eta_grid,
    default_n_sig_grid,
    noon_vs_squeezed_grid,
    optimal_squeezing,
    optimal_v_sqz,
    squeezed_precision,
    squeezed_precision_budget,
    squeezing_photon_cost,
)
from .states import (
    PdcTwinBeam,
    PhotonDistribution,
    coherent_pmf,
    delta_distribution,
    distribution_moments,
    g2_self,
    geometric_n_max,
    pdc_marginal_pmf,
)

__version__ = "0.1.0"
