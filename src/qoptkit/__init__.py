"""Quantum-limited optical phase metrology toolkit.

Precision bounds (shot-noise, Heisenberg, loss floors, Fisher-information
routes), photon-counting statistics and their transformation under loss,
NOON-state and squeezed-light strategy optimization, Bayesian heralding
inference, and seeded Monte-Carlo experiments that check the closed forms.

`import qoptkit` loads neither numpy nor any submodule: each name below is
imported from its submodule on first use (PEP 562), so importing the
library leaves numpy's start-up, BLAS threads included, to its caller.
"""
import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "conditioning": ("DetectorKind", "LossChannel", "apply_loss",
                     "condition_probe_bucket",
                     "condition_probe_number_resolving", "posterior_bucket",
                     "posterior_number_resolving"),
    "dataset": ("Axis", "FigureDataset", "parse_csv", "write_text_atomic"),
    "figures": ("default_eta_grid", "fig_conditional", "fig_limits",
                "fig_noon_loss", "fig_squeezed_loss", "noon_precision_curve",
                "noon_vs_squeezed_grid"),
    "limits": ("PowerConstraint", "heisenberg", "loss_bound", "qfi_phase",
               "qnl", "sql_sample", "sql_total", "squeezed_vacuum_crb"),
    "montecarlo": ("DEFAULT_SEED", "SimConfig", "SimReport",
                   "simulate_coherent_mz", "simulate_heralded_absorption",
                   "simulate_hom", "simulate_homodyne_squeezed",
                   "simulate_noon_fringe"),
    "noon": ("NoonLossReport", "noon_best_precision", "noon_enhancement",
             "noon_flux_requirement", "noon_optimal_n", "noon_repeated",
             "noon_single_shot", "noon_threshold_efficiency"),
    "squeezed": ("SqueezedBudgetReport", "optimal_squeezing", "optimal_v_sqz",
                 "squeezed_precision", "squeezed_precision_budget",
                 "squeezing_photon_cost"),
    "states": ("PdcTwinBeam", "PhotonDistribution", "coherent_pmf",
               "delta_distribution", "distribution_moments", "g2_self",
               "geometric_n_max", "pdc_marginal_pmf"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
