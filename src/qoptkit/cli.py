"""Command-line front end: every analysis and simulation as a reproducible,
file-emitting command.

Output is a FigureDataset in CSV (RFC 4180, 17 significant digits) or JSON
(figure_id / axes / columns / metadata). Writes are atomic (temp file +
rename in the destination directory). A relative --out path is resolved
against $QOPTKIT_OUT_DIR when that is set. Without --out, the dataset goes
to standard output; all diagnostics go to standard error.

Exit status: 0 success, 2 flag/precondition validation failure, 1 runtime
failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import figures, limits, montecarlo, noon, squeezed
from .conditioning import DetectorKind
from .dataset import FigureDataset, write_text_atomic
from .domain import MAX_CELLS, MAX_PHOTONS, check_size, require_in, require_int
from .montecarlo import DEFAULT_SEED, SimConfig

OUT_DIR_ENV = "QOPTKIT_OUT_DIR"


def _scalar_dataset(figure_id: str, values: dict[str, float],
                    metadata: dict) -> FigureDataset:
    cols = {k: np.array([float(v)]) for k, v in values.items()}
    return FigureDataset(figure_id, axes=(), columns=cols, metadata=metadata)


def _report_dataset(figure_id: str, report, metadata: dict) -> FigureDataset:
    values = {k: getattr(report, k) for k in report.__dataclass_fields__}
    return _scalar_dataset(figure_id, values, metadata)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            return os.path.join(base, path)
    return path


def _emit(dataset: FigureDataset, fmt: str, out: str | None) -> None:
    text = dataset.to_csv() if fmt == "csv" else dataset.to_json()
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(path, text)


def _n_sig_grid(args) -> np.ndarray:
    require_in(args.n_sig_min, "--n-sig-min", 0.0)
    require_in(args.n_sig_max, "--n-sig-max", args.n_sig_min)
    points = require_int(args.n_sig_points, "--n-sig-points", 2)
    return np.logspace(math.log10(args.n_sig_min), math.log10(args.n_sig_max),
                       check_size(points, MAX_CELLS, "grid cells"))


def _eta_grid_log_loss(args) -> np.ndarray:
    require_in(args.eta_min, "--eta-min", 0.0, 1.0)
    require_in(args.eta_max, "--eta-max", args.eta_min, 1.0)
    points = require_int(args.eta_points, "--eta-points", 2)
    return 1.0 - np.logspace(math.log10(1.0 - args.eta_min),
                             math.log10(1.0 - args.eta_max),
                             check_size(points, MAX_CELLS, "grid cells"))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="output file; omitted = stdout; relative paths "
                             f"resolve against ${OUT_DIR_ENV} when set")

    parser = argparse.ArgumentParser(
        prog="qoptkit",
        description="Quantum-limited phase metrology: precision bounds, "
                    "photon statistics under loss, strategy optimization, "
                    "and seeded Monte-Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "limits", parents=[common],
        help="phase-precision bounds at one operating point",
        description="Evaluates 1/sqrt(n0), 1/(2 sqrt(n_sig)), "
                    "1/sqrt(eta n0), 1/n0, sqrt((1-eta)/eta)/(2 sqrt(n_sig)) "
                    "and the squeezed-vacuum bound "
                    "(1/(2 sqrt(2))) (n^2+n)^(-1/2) at n0 = 2 n_sig.")
    p.add_argument("--n-sig", type=float, required=True,
                   help="photons through the sample arm")
    p.add_argument("--eta", type=float, default=0.9,
                   help="efficiency for the eta-dependent bounds")

    p = sub.add_parser(
        "noon", parents=[common],
        help="NOON-state precision under loss",
        description="Single state: sqrt((eta^-N + 1)/2)/N. Repeated: "
                    "(1/(2 sqrt(n_sig))) sqrt((eta^-N + 1)/N). Threshold: "
                    "(N-1)^(-1/N). Optimal N solves N ln eta + eta^N + 1 = 0.")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--threshold", action="store_true",
                      help="efficiency above which N photons beat shot noise")
    mode.add_argument("--optimal", action="store_true",
                      help="best N and enhancement at --eta")
    mode.add_argument("--curve", action="store_true",
                      help="best precision vs n_sig at --eta")
    mode.add_argument("--flux", action="store_true",
                      help="trial rate matching a shot-noise-limited flux")
    p.add_argument("--n", type=int, help="photons per NOON state")
    p.add_argument("--eta", type=float, help="probe-arm efficiency")
    p.add_argument("--n-sig", type=float, help="sample exposure")
    p.add_argument("--target-rate", type=float,
                   help="photon rate to match (for --flux)")
    p.add_argument("--total-power", action="store_true",
                   help="budget --flux at equal total flux (n/N^2) instead "
                        "of equal sample exposure (4 n_sig/N^2)")
    p.add_argument("--n-sig-min", type=float, default=1.0)
    p.add_argument("--n-sig-max", type=float, default=1e4)
    p.add_argument("--n-sig-points", type=int, default=200)

    p = sub.add_parser(
        "squeezed", parents=[common],
        help="bright-squeezed homodyne precision under loss",
        description="Fixed state: (1/(2 alpha)) sqrt(V + (1-eta)/eta). "
                    "Fixed budget: sqrt((V + (1-eta)/eta)/(4 n_sig - V - 1/V "
                    "+ 2)); optimal V = (eta + sqrt(4 eta (1-eta) n_sig + 1))"
                    "/(4 eta n_sig + eta + 1).")
    p.add_argument("--n-sig", type=float, help="sample exposure budget")
    p.add_argument("--eta", type=float, required=True, help="efficiency")
    p.add_argument("--v-sqz", type=float,
                   help="squeezed quadrature variance (vacuum units)")
    p.add_argument("--alpha", type=float,
                   help="coherent amplitude (bypasses the budget)")

    p = sub.add_parser(
        "compare", parents=[common],
        help="optimal NOON vs optimal squeezed precision ratio grid",
        description="Ratio of the two optimized precisions on an "
                    "(eta, n_sig) grid; ratio > 1 means squeezed wins.")
    p.add_argument("--eta-min", type=float, default=0.5)
    p.add_argument("--eta-max", type=float, default=0.999)
    p.add_argument("--eta-points", type=int, default=200)
    p.add_argument("--n-sig-min", type=float, default=1.0)
    p.add_argument("--n-sig-max", type=float, default=100.0)
    p.add_argument("--n-sig-points", type=int, default=200)

    p = sub.add_parser(
        "condition", parents=[common],
        help="heralded photon-number distributions under loss",
        description="Binomial thinning p'(N) = sum C(N',N) eta^N "
                    "(1-eta)^(N'-N) p(N') on the probe side; Bayes with the "
                    "binomial detection likelihood on the detector side.")
    p.add_argument("--side", choices=(figures.PROBE, figures.DETECTOR),
                   default=figures.PROBE,
                   help="where the loss acts (default probe)")
    p.add_argument("--detector",
                   choices=tuple(k.value for k in DetectorKind),
                   default=DetectorKind.NUMBER_RESOLVING.value)
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="twin-beam interaction strength (default 0.5)")
    p.add_argument("--eta", type=float, action="append", default=None,
                   help="efficiency; repeatable (default 1, 0.7, 0.4, 0.1)")
    p.add_argument("--n-det", type=int, default=1,
                   help="conditioned count for number-resolving detection")

    p = sub.add_parser(
        "simulate", parents=[],
        help="seeded Monte-Carlo experiments")
    sim = p.add_subparsers(dest="experiment", required=True)

    s = sim.add_parser(
        "mz", parents=[common],
        help="coherent Mach-Zehnder phase estimation",
        description="n_A, n_B ~ Poisson(eta n0 (1 +- cos phi)/2); "
                    "phi_hat = pi/2 - (n_A - n_B)/(eta n0); std vs "
                    "1/sqrt(eta n0).")
    s.add_argument("--n0", type=float, default=1e4)
    s.add_argument("--eta", type=float, default=1.0)
    s.add_argument("--phase", type=float, default=math.pi / 2.0)
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)

    s = sim.add_parser(
        "noon-fringe", parents=[common],
        help="two-photon coincidence fringe",
        description="P(same detector) = (1 + cos 2 phi)/2 sampled per phase "
                    "point; fitted period pi.")
    s.add_argument("--phase-points", type=int, default=33)
    s.add_argument("--trials", type=int, default=1000,
                   help="pairs per phase point")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)

    s = sim.add_parser(
        "hom", parents=[common],
        help="two-photon interference at a balanced splitter",
        description="Indistinguishable pairs never split (cross rate 0); "
                    "distinguishable pairs split half the time.")
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--distinguishable", action="store_true")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)

    s = sim.add_parser(
        "homodyne", parents=[common],
        help="squeezed-probe homodyne phase estimation",
        description="y ~ N(2 sqrt(eta) alpha phi, eta V + 1 - eta); "
                    "phi_hat = y/(2 alpha sqrt(eta)); std vs "
                    "(1/(2 alpha)) sqrt(V + (1-eta)/eta).")
    s.add_argument("--alpha", type=float, default=10.0)
    s.add_argument("--v-sqz", type=float, default=1.0)
    s.add_argument("--eta", type=float, default=1.0)
    s.add_argument("--phase", type=float, default=0.0)
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)

    s = sim.add_parser(
        "absorption", parents=[common],
        help="absorption estimation, heralded vs coherent probe",
        description="Heralded: k ~ Binomial(n_sig, 1-a), var a(1-a)/n_sig; "
                    "coherent: Poisson source, var (1-a)/n_sig.")
    s.add_argument("--alpha-true", type=float, default=0.1)
    s.add_argument("--n-sig", type=int, default=10_000)
    s.add_argument("--heralded", action="store_true")
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser(
        "figure", parents=[common],
        help="emit a complete figure dataset by name",
        description="Names: " + ", ".join(sorted(figures.FIGURES)) + ". "
                    "fig-conditional takes --side/--detector/--epsilon/"
                    "--n-det; the others use their documented default grids.")
    p.add_argument("name", choices=tuple(sorted(figures.FIGURES)))
    p.add_argument("--side", choices=(figures.PROBE, figures.DETECTOR),
                   default=None)
    p.add_argument("--detector",
                   choices=tuple(k.value for k in DetectorKind), default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n-det", type=int, default=None)

    return parser


def _require(args, names: list[str], context: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ValueError(f"{context} requires {flags}")


def _cmd_limits(args) -> FigureDataset:
    n_sig, eta = args.n_sig, args.eta
    require_in(n_sig, "--n-sig", 0.0)
    n0 = 2.0 * n_sig
    values = {
        "sql_total": limits.sql_total(n0).delta_phi,
        "sql_sample": limits.sql_sample(n_sig).delta_phi,
        "qnl": limits.qnl(n0, eta).delta_phi,
        "heisenberg": limits.heisenberg(n0).delta_phi,
        "loss_bound_sample": (
            0.0 if eta == 1.0 else
            limits.loss_bound(n_sig, eta, limits.PowerConstraint.SAMPLE).delta_phi),
        "squeezed_vacuum_crb": limits.squeezed_vacuum_crb(n_sig).delta_phi,
    }
    return _scalar_dataset("precision-limits-point", values,
                           {"n_sig": n_sig, "n0": n0, "eta": eta})


def _cmd_noon(args) -> FigureDataset:
    if args.threshold:
        _require(args, ["n"], "--threshold")
        value = noon.noon_threshold_efficiency(args.n)
        return _scalar_dataset("noon-threshold",
                               {"threshold_efficiency": value},
                               {"n": args.n})
    if args.optimal:
        _require(args, ["eta"], "--optimal")
        n_opt, enh, root = noon.noon_optimal_n(args.eta)
        return _scalar_dataset(
            "noon-optimal",
            {"n_opt": n_opt, "enhancement": enh, "stationarity_root": root},
            {"eta": args.eta})
    if args.curve:
        _require(args, ["eta"], "--curve")
        return noon.noon_precision_curve(args.eta, _n_sig_grid(args))
    if args.flux:
        _require(args, ["n", "target-rate"], "--flux")
        constraint = (limits.PowerConstraint.TOTAL if args.total_power
                      else limits.PowerConstraint.SAMPLE)
        rate = noon.noon_flux_requirement(args.n, args.target_rate, constraint)
        return _scalar_dataset(
            "noon-flux",
            {"trials_per_second": rate},
            {"n": args.n, "target_rate": args.target_rate,
             "constraint": constraint.value})
    _require(args, ["n", "eta", "n-sig"], "noon report")
    report = noon.noon_repeated(args.n, args.eta, args.n_sig)
    return _report_dataset("noon-loss-report", report, {"n_sig": args.n_sig})


def _cmd_squeezed(args) -> FigureDataset:
    if args.alpha is not None:
        _require(args, ["v-sqz"], "--alpha mode")
        dphi = squeezed.squeezed_precision(args.alpha, args.v_sqz, args.eta)
        return _scalar_dataset(
            "squeezed-precision", {"delta_phi": dphi},
            {"alpha": args.alpha, "v_sqz": args.v_sqz, "eta": args.eta})
    _require(args, ["n-sig"], "squeezed")
    if args.v_sqz is not None:
        dphi = squeezed.squeezed_precision_budget(args.n_sig, args.v_sqz,
                                                  args.eta)
        return _scalar_dataset(
            "squeezed-budget-precision", {"delta_phi": dphi},
            {"n_sig": args.n_sig, "v_sqz": args.v_sqz, "eta": args.eta})
    report = squeezed.optimal_squeezing(args.n_sig, args.eta)
    return _report_dataset("squeezed-optimal-report", report, {})


def _cmd_compare(args) -> FigureDataset:
    return squeezed.noon_vs_squeezed_grid(_eta_grid_log_loss(args),
                                          _n_sig_grid(args))


def _cmd_condition(args) -> FigureDataset:
    eta_list = (tuple(args.eta) if args.eta
                else figures.DEFAULT_CONDITION_ETAS)
    return figures.fig_conditional(
        args.side, DetectorKind(args.detector), eta_list,
        args.epsilon, args.n_det)


def _cmd_simulate(args) -> FigureDataset:
    if args.experiment == "mz":
        cfg = SimConfig(seed=args.seed, trials=args.trials, phase=args.phase,
                        n_photons=args.n0, eta=args.eta)
        report = montecarlo.simulate_coherent_mz(cfg)
        return _report_dataset(
            "sim-coherent-mz", report,
            {"n0": args.n0, "eta": args.eta, "phase": args.phase,
             "trials": args.trials, "seed": args.seed})
    if args.experiment == "noon-fringe":
        return montecarlo.simulate_noon_fringe(args.phase_points, args.trials,
                                               args.seed)
    if args.experiment == "hom":
        rate = montecarlo.simulate_hom(args.trials, args.distinguishable,
                                       args.seed)
        return _scalar_dataset(
            "sim-hom", {"cross_coincidence_rate": rate},
            {"trials": args.trials, "distinguishable": args.distinguishable,
             "seed": args.seed})
    if args.experiment == "absorption":
        report = montecarlo.simulate_heralded_absorption(
            args.alpha_true, args.n_sig, args.heralded, args.trials, args.seed)
        return _report_dataset(
            "sim-absorption", report,
            {"alpha_true": args.alpha_true, "n_sig": args.n_sig,
             "heralded": args.heralded, "trials": args.trials,
             "seed": args.seed})
    # checked before squaring, which would overflow past 1.3e154
    require_in(args.alpha, "--alpha", 0.0, math.sqrt(MAX_PHOTONS),
               hi_closed=True)
    cfg = SimConfig(seed=args.seed, trials=args.trials, phase=args.phase,
                    n_photons=args.alpha**2, eta=args.eta)
    report = montecarlo.simulate_homodyne_squeezed(cfg, args.v_sqz)
    return _report_dataset(
        "sim-homodyne", report,
        {"alpha": args.alpha, "v_sqz": args.v_sqz, "eta": args.eta,
         "phase": args.phase, "trials": args.trials, "seed": args.seed})


def _cmd_figure(args) -> FigureDataset:
    extras = {"side": args.side, "detector": args.detector,
              "epsilon": args.epsilon, "n_det": args.n_det}
    given = {k for k, v in extras.items() if v is not None}
    if args.name == "fig-conditional":
        return figures.fig_conditional(
            side=args.side or figures.PROBE,
            detector=DetectorKind(args.detector
                                  or DetectorKind.NUMBER_RESOLVING.value),
            epsilon=0.5 if args.epsilon is None else args.epsilon,
            n_det=1 if args.n_det is None else args.n_det,
        )
    if given:
        flags = ", ".join("--" + k.replace("_", "-") for k in sorted(given))
        raise ValueError(f"{flags} only apply to fig-conditional")
    return figures.FIGURES[args.name]()


_DISPATCH = {
    "limits": _cmd_limits,
    "noon": _cmd_noon,
    "squeezed": _cmd_squeezed,
    "compare": _cmd_compare,
    "condition": _cmd_condition,
    "simulate": _cmd_simulate,
    "figure": _cmd_figure,
}


def run(argv) -> int:
    """Execute one command; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        # an overflow surfaces as a non-finite column, which FigureDataset
        # refuses by name, so numpy's own warning would only repeat it
        with np.errstate(all="ignore"):
            dataset = _DISPATCH[args.command](args)
        _emit(dataset, args.format, args.out)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - process boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
