"""Command-line front end: every analysis and simulation as a reproducible,
file-emitting command.

Output is a FigureDataset in CSV (RFC 4180, 17 significant digits) or JSON
(figure_id / axes / columns / metadata). JSON metadata adds qoptkit_version
and arguments (each parsed flag in parse order, defaults filled in, except
--format and --out) to what the library builder records, so no path enters
a dataset. Writes are atomic (temp file + rename in the destination
directory). A relative --out path is resolved against $QOPTKIT_OUT_DIR when
that is set. Without --out, the dataset goes to standard output; all
diagnostics go to standard error.

A qoptkit process runs numpy's BLAS on one thread unless OPENBLAS_NUM_THREADS
is already set: this module sets that default before it imports numpy, which
`import qoptkit` does not load (the package imports each submodule on first
use).

Exit status: 0 success, 2 flag/precondition validation failure (a flag
outside its domain is refused at parse time, by name), 1 runtime failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

# no command's BLAS work is big enough to pay for OpenBLAS's thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read by `import numpy`
import numpy as np

from . import __version__, figures, limits, montecarlo, noon, squeezed
from .conditioning import DetectorKind
from .dataset import FigureDataset, write_text_atomic
from .domain import (ABSORPTION, ABSORPTION_N_SIG, AMPLITUDE, COMPARE_N_SIG,
                     EFFICIENCY, EPSILON, GRID_POINTS, HOM_TRIALS,
                     HOMODYNE_EFFICIENCY, LOG_LOSS, MAX_PHOTONS, MZ_N0,
                     MZ_PHASE, N_DET, NOON_N, ONE_PHOTON_N_SIG, PHASE,
                     PHASE_POINTS, PHOTONS, POSITIVE, SEED, STD_TRIALS,
                     TARGET_RATE, TRANSMISSION, TRIALS, require_in,
                     require_int)
from .montecarlo import DEFAULT_SEED, SimConfig

OUT_DIR_ENV = "QOPTKIT_OUT_DIR"


def _scalar_dataset(figure_id: str, values: dict[str, float]) -> FigureDataset:
    cols = {k: np.array([float(v)]) for k, v in values.items()}
    return FigureDataset(figure_id, axes=(), columns=cols)


def _report_dataset(figure_id: str, report) -> FigureDataset:
    values = {k: getattr(report, k) for k in report.__dataclass_fields__}
    return _scalar_dataset(figure_id, values)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            return os.path.join(base, path)
    return path


def _emit(dataset: FigureDataset, args) -> None:
    arguments = {k: v for k, v in vars(args).items()
                 if k not in ("format", "out")}
    dataset.metadata.update(qoptkit_version=__version__, arguments=arguments)
    text = dataset.to_csv() if args.format == "csv" else dataset.to_json()
    path = _resolve_out(args.out)
    if path is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(path, text)


def _given(args, names: list[str]) -> str:
    return " ".join(f"--{n} {getattr(args, n.replace('-', '_'))!r}"
                    for n in names)


def _ascending(grid: np.ndarray, args, axis: str) -> np.ndarray:
    if not np.all(np.diff(grid) > 0):
        flags = _given(args, [f"{axis}-min", f"{axis}-max", f"{axis}-points"])
        raise ValueError(f"{flags} give no strictly increasing grid: max must "
                         "exceed min by enough for that many distinct points")
    return grid


def _n_sig_grid(args) -> np.ndarray:
    return _ascending(np.logspace(math.log10(args.n_sig_min),
                                  math.log10(args.n_sig_max),
                                  args.n_sig_points), args, "n-sig")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other refusal
        self.exit(2, f"error: {message}\n")


def flag(domain):
    """argparse type: a number in domain (an int where its ends are ints),
    refused in one line that argparse prefixes with the flag's name."""
    kind = int if isinstance(domain[0], int) else float

    def parse(text):
        x = kind(text)
        try:
            (require_int if kind is int else require_in)(x, "", *domain)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
        return x

    parse.__name__ = kind.__name__  # no number: "invalid int value: 'x'"
    parse.domain = domain
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="output file; omitted = stdout; relative paths "
                             f"resolve against ${OUT_DIR_ENV} when set")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=flag(SEED), default=DEFAULT_SEED)
    # fig-conditional's flags; one left out takes fig_conditional's default
    conditional = argparse.ArgumentParser(add_help=False)
    conditional.add_argument("--side", choices=(figures.PROBE, figures.DETECTOR),
                             help="where the loss acts")
    conditional.add_argument("--detector",
                             choices=tuple(k.value for k in DetectorKind))
    conditional.add_argument("--epsilon", type=flag(EPSILON),
                             help="twin-beam interaction strength")
    conditional.add_argument("--n-det", type=flag(N_DET),
                             help="number-resolving count conditioned on")

    parser = _Parser(
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
    p.add_argument("--n-sig", type=flag(ONE_PHOTON_N_SIG), required=True,
                   help="photons through the sample arm")
    p.add_argument("--eta", type=flag(EFFICIENCY), default=0.9,
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
    p.add_argument("--n", type=flag(NOON_N), help="photons per NOON state")
    p.add_argument("--eta", type=flag(EFFICIENCY), help="probe-arm efficiency")
    p.add_argument("--n-sig", type=flag(PHOTONS), help="sample exposure")
    p.add_argument("--target-rate", type=flag(TARGET_RATE),
                   help="photon rate to match (for --flux)")
    p.add_argument("--total-power", action="store_true",
                   help="budget --flux at equal total flux (n/N^2) instead "
                        "of equal sample exposure (4 n_sig/N^2)")
    p.add_argument("--n-sig-min", type=flag(ONE_PHOTON_N_SIG), default=1.0)
    p.add_argument("--n-sig-max", type=flag(PHOTONS), default=1e4)
    p.add_argument("--n-sig-points", type=flag(GRID_POINTS), default=200)

    p = sub.add_parser(
        "squeezed", parents=[common],
        help="bright-squeezed homodyne precision under loss",
        description="Fixed state: (1/(2 alpha)) sqrt(V + (1-eta)/eta). "
                    "Fixed budget: sqrt((V + (1-eta)/eta)/(4 n_sig - V - 1/V "
                    "+ 2)); optimal V = (eta + sqrt(4 eta (1-eta) n_sig + 1))"
                    "/(4 eta n_sig + eta + 1).")
    p.add_argument("--n-sig", type=flag(PHOTONS), help="sample exposure budget")
    p.add_argument("--eta", type=flag(EFFICIENCY), required=True,
                   help="efficiency")
    p.add_argument("--v-sqz", type=flag(POSITIVE),
                   help="squeezed quadrature variance (vacuum units)")
    p.add_argument("--alpha", type=flag(AMPLITUDE),
                   help="coherent amplitude (bypasses the budget)")

    p = sub.add_parser(
        "compare", parents=[common],
        help="optimal NOON vs optimal squeezed precision ratio grid",
        description="Ratio of the two optimized precisions on an "
                    "(eta, n_sig) grid; ratio > 1 means squeezed wins.")
    p.add_argument("--eta-min", type=flag(LOG_LOSS), default=0.5)
    p.add_argument("--eta-max", type=flag(LOG_LOSS), default=0.999)
    p.add_argument("--eta-points", type=flag(GRID_POINTS), default=200)
    p.add_argument("--n-sig-min", type=flag(COMPARE_N_SIG), default=1.0)
    p.add_argument("--n-sig-max", type=flag(COMPARE_N_SIG), default=100.0)
    p.add_argument("--n-sig-points", type=flag(GRID_POINTS), default=200)

    p = sub.add_parser(
        "condition", parents=[common, conditional],
        help="heralded photon-number distributions under loss",
        description="Binomial thinning p'(N) = sum C(N',N) eta^N "
                    "(1-eta)^(N'-N) p(N') on the probe side; Bayes with the "
                    "binomial detection likelihood on the detector side. A "
                    "flag left out takes figures.fig_conditional's default.")
    p.add_argument("--eta", dest="eta_list", type=flag(TRANSMISSION),
                   action="append", metavar="ETA", help="efficiency; repeatable")
    p.set_defaults(name="fig-conditional")

    p = sub.add_parser("simulate", help="seeded Monte-Carlo experiments")
    sim = p.add_subparsers(dest="experiment", required=True)

    s = sim.add_parser(
        "mz", parents=[common, seeded],
        help="coherent Mach-Zehnder phase estimation",
        description="n_A, n_B ~ Poisson(eta n0 (1 +- cos phi)/2); "
                    "phi_hat = pi/2 - (n_A - n_B)/(eta n0); std vs "
                    "1/sqrt(eta n0).")
    s.add_argument("--n0", type=flag(MZ_N0), default=1e4)
    s.add_argument("--eta", type=flag(EFFICIENCY), default=1.0)
    s.add_argument("--phase", type=flag(MZ_PHASE), default=math.pi / 2.0)
    s.add_argument("--trials", type=flag(STD_TRIALS), default=10_000)

    s = sim.add_parser(
        "noon-fringe", parents=[common, seeded],
        help="two-photon coincidence fringe",
        description="P(same detector) = (1 + cos 2 phi)/2 sampled per phase "
                    "point; fitted period pi.")
    s.add_argument("--phase-points", type=flag(PHASE_POINTS), default=33)
    s.add_argument("--trials", type=flag(TRIALS), default=1000,
                   help="pairs per phase point")

    s = sim.add_parser(
        "hom", parents=[common, seeded],
        help="two-photon interference at a balanced splitter",
        description="Indistinguishable pairs never split (cross rate 0); "
                    "distinguishable pairs split half the time.")
    s.add_argument("--trials", type=flag(HOM_TRIALS), default=10_000)
    s.add_argument("--distinguishable", action="store_true")

    s = sim.add_parser(
        "homodyne", parents=[common, seeded],
        help="squeezed-probe homodyne phase estimation",
        description="y ~ N(2 sqrt(eta) alpha phi, eta V + 1 - eta); "
                    "phi_hat = y/(2 alpha sqrt(eta)); std vs "
                    "(1/(2 alpha)) sqrt(V + (1-eta)/eta).")
    # the simulation stops alpha^2 at MAX_PHOTONS (PHOTONS); below 10 the
    # bright-probe gate alpha^2 >= 100 max(1, V) refuses every V
    s.add_argument("--alpha", default=10.0,
                   type=flag((10.0, math.sqrt(MAX_PHOTONS), True, True)))
    s.add_argument("--v-sqz", type=flag(POSITIVE), default=1.0)
    s.add_argument("--eta", type=flag(HOMODYNE_EFFICIENCY), default=1.0)
    s.add_argument("--phase", type=flag(PHASE), default=0.0)
    s.add_argument("--trials", type=flag(STD_TRIALS), default=10_000)

    s = sim.add_parser(
        "absorption", parents=[common, seeded],
        help="absorption estimation, heralded vs coherent probe",
        description="Heralded: k ~ Binomial(n_sig, 1-a), var a(1-a)/n_sig; "
                    "coherent: Poisson source, var (1-a)/n_sig.")
    s.add_argument("--alpha-true", type=flag(ABSORPTION), default=0.1)
    s.add_argument("--n-sig", type=flag(ABSORPTION_N_SIG), default=10_000)
    s.add_argument("--heralded", action="store_true")
    s.add_argument("--trials", type=flag(STD_TRIALS), default=10_000)

    p = sub.add_parser(
        "figure", parents=[common, conditional],
        help="emit a complete figure dataset by name",
        description="Names: " + ", ".join(sorted(figures.FIGURES)) + ". "
                    "fig-conditional takes --side/--detector/--epsilon/"
                    "--n-det; the others use their documented default grids.")
    p.add_argument("name", choices=tuple(sorted(figures.FIGURES)))

    return parser


def _require(args, names: list[str], context: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ValueError(f"{context} requires {flags}")


def _cmd_limits(args) -> FigureDataset:
    n_sig, eta = args.n_sig, args.eta
    n0 = 2.0 * n_sig
    values = {
        "sql_total": limits.sql_total(n0),
        "sql_sample": limits.sql_sample(n_sig),
        "qnl": limits.qnl(n0, eta),
        "heisenberg": limits.heisenberg(n0),
        "loss_bound_sample": limits.loss_bound(n_sig, eta,
                                               limits.PowerConstraint.SAMPLE),
        "squeezed_vacuum_crb": limits.squeezed_vacuum_crb(n_sig),
    }
    return _scalar_dataset("precision-limits-point", values)


def _cmd_noon(args) -> FigureDataset:
    if args.threshold:
        _require(args, ["n"], "--threshold")
        value = noon.noon_threshold_efficiency(args.n)
        return _scalar_dataset("noon-threshold",
                               {"threshold_efficiency": value})
    if args.optimal:
        _require(args, ["eta"], "--optimal")
        if args.eta == 1.0:
            raise ValueError("argument --eta: --optimal needs eta < 1; a "
                             "lossless channel has no finite optimal N")
        n_opt, enh, root = noon.noon_optimal_n(args.eta)
        return _scalar_dataset(
            "noon-optimal",
            {"n_opt": n_opt, "enhancement": enh, "stationarity_root": root})
    if args.curve:
        _require(args, ["eta"], "--curve")
        return figures.noon_precision_curve(args.eta, _n_sig_grid(args))
    if args.flux:
        _require(args, ["n", "target-rate"], "--flux")
        constraint = (limits.PowerConstraint.TOTAL if args.total_power
                      else limits.PowerConstraint.SAMPLE)
        rate = noon.noon_flux_requirement(args.n, args.target_rate, constraint)
        return _scalar_dataset("noon-flux", {"trials_per_second": rate})
    _require(args, ["n", "eta", "n-sig"], "noon report")
    # the report's sqrt(eta^-N) overflows past N ln(1/eta) = 2 ln(max float)
    edge = 2.0 * math.log(sys.float_info.max)
    if args.n * -math.log(args.eta) >= edge:
        raise ValueError(f"--n {args.n} and --eta {args.eta!r} put sqrt(eta^-N) "
                         f"past the largest float: the report needs "
                         f"N ln(1/eta) < {edge:.6g}")
    report = noon.noon_repeated(args.n, args.eta, args.n_sig)
    return _report_dataset("noon-loss-report", report)


def _finite(dphi, args, names: list[str]) -> None:
    if not math.isfinite(dphi):
        raise ValueError(f"{_given(args, names)} put delta_phi past the "
                         "largest float")


def _cmd_squeezed(args) -> FigureDataset:
    if args.alpha is not None:
        _require(args, ["v-sqz"], "--alpha mode")
        dphi = squeezed.squeezed_precision(args.alpha, args.v_sqz, args.eta)
        _finite(dphi, args, ["alpha", "v-sqz", "eta"])
        return _scalar_dataset("squeezed-precision", {"delta_phi": dphi})
    _require(args, ["n-sig"], "squeezed")
    if args.v_sqz is not None:
        if args.v_sqz > 1.0:
            raise ValueError("argument --v-sqz: a budget (--n-sig) takes "
                             f"v_sqz in (0, 1], got {args.v_sqz!r}")
        dphi = squeezed.squeezed_precision_budget(args.n_sig, args.v_sqz,
                                                  args.eta)
        _finite(dphi, args, ["n-sig", "v-sqz", "eta"])
        return _scalar_dataset("squeezed-budget-precision",
                               {"delta_phi": dphi})
    report = squeezed.optimal_squeezing(args.n_sig, args.eta)
    _finite(report.delta_phi, args, ["n-sig", "eta"])
    return _report_dataset("squeezed-optimal-report", report)


def _cmd_compare(args) -> FigureDataset:
    # reversed bounds get the message of bounds too close for the points
    _ascending(np.array([args.eta_min, args.eta_max]), args, "eta")
    eta_grid = _ascending(figures.default_eta_grid(
        args.eta_points, args.eta_min, args.eta_max), args, "eta")
    return figures.noon_vs_squeezed_grid(eta_grid, _n_sig_grid(args))


def _cmd_simulate(args) -> FigureDataset:
    if args.experiment == "mz":
        cfg = SimConfig(seed=args.seed, trials=args.trials, phase=args.phase,
                        n_photons=args.n0, eta=args.eta)
        report = montecarlo.simulate_coherent_mz(cfg)
        return _report_dataset("sim-coherent-mz", report)
    if args.experiment == "noon-fringe":
        return montecarlo.simulate_noon_fringe(args.phase_points, args.trials,
                                               args.seed)
    if args.experiment == "hom":
        rate = montecarlo.simulate_hom(args.trials, args.distinguishable,
                                       args.seed)
        return _scalar_dataset("sim-hom", {"cross_coincidence_rate": rate})
    if args.experiment == "absorption":
        report = montecarlo.simulate_heralded_absorption(
            args.alpha_true, args.n_sig, args.heralded, args.trials, args.seed)
        return _report_dataset("sim-absorption", report)
    cfg = SimConfig(seed=args.seed, trials=args.trials, phase=args.phase,
                    n_photons=args.alpha**2, eta=args.eta)
    report = montecarlo.simulate_homodyne_squeezed(cfg, args.v_sqz)
    return _report_dataset("sim-homodyne", report)


def _cmd_figure(args) -> FigureDataset:
    given = {k: v for k in ("side", "detector", "eta_list", "epsilon", "n_det")
             if (v := getattr(args, k, None)) is not None}
    if args.name == "fig-conditional":
        return figures.fig_conditional(**given)
    if given:
        flags = ", ".join("--" + k.replace("_", "-") for k in sorted(given))
        raise ValueError(f"{flags} only apply to fig-conditional")
    return figures.FIGURES[args.name]()


_DISPATCH = {
    "limits": _cmd_limits,
    "noon": _cmd_noon,
    "squeezed": _cmd_squeezed,
    "compare": _cmd_compare,
    "condition": _cmd_figure,
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
        _emit(dataset, args)
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
