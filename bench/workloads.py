"""The four benchmark workloads: seeded inputs, the ops, their checks.

Each workload is an endless sequence of blocks; block k is drawn from
numpy's generator keyed by (seed, k), so the same seed gives the same ops
in the same order, in the untraced and in the traced run alike. Every op
has a `run` (the timed call into the program) and a `check` (the reference
comparison, run outside the timed region).

Sizes that set an op's cost (grid cells, pmf support, trials, epsilon) are
not drawn: every block holds the same sizes, one op per (kind, stratum) of
the size range, placed so that the kinds between them cover the range
evenly (`stratum_point`). Every run therefore does the same mix of work
whatever its seed and however many blocks fit in its time, which keeps the
throughput steady. The seed sets all other inputs (grid ranges,
efficiencies, counts, simulation seeds) and the order of the ops.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import qoptkit as q

import reference as ref

# The three (epsilon, eta, n_det) points where the detector-side posterior
# is truncated by the prior's support.
EDGE_CASES = ((0.95, 0.05, 60), (0.9, 0.01, 30), (0.99, 0.01, 300))
# block key of the untimed warm-up op, apart from every timed block
WARM_UP = 2**32 - 1


class Op:
    __slots__ = ("kind", "layer", "run", "check")

    def __init__(self, kind, run, check, layer=""):
        self.kind, self.run, self.check, self.layer = kind, run, check, layer


def stratum_point(kind: int, kinds: int, stratum: int, strata: int) -> float:
    """Fixed point in [0, 1) for one (kind, stratum) slot.

    Stratum s covers [s/strata, (s+1)/strata); inside it, kind b sits at
    offset (b + 1/2)/kinds, so the kinds together fill every stratum evenly.
    """
    return (stratum + (kind + 0.5) / kinds) / strata


def log_point(x: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + x * (math.log10(hi) - math.log10(lo)))


def _columns(ds) -> dict:
    cols = {a.name: a.values for a in ds.axes}
    cols.update(ds.columns)
    return cols


# -- closed-form checks shared by the warm and the CLI workloads ------------

def check_limits_point(c, n_sig, eta):
    n0 = 2.0 * n_sig
    return ref.first_failure(
        ref.close("sql_total", c["sql_total"], 1.0 / np.sqrt(n0)),
        ref.close("sql_sample", c["sql_sample"], ref.sql_sample(n_sig)),
        ref.close("qnl", c["qnl"], 1.0 / np.sqrt(eta * n0)),
        ref.close("heisenberg", c["heisenberg"], 1.0 / n0),
        ref.close("loss_bound_sample", c["loss_bound_sample"],
                  ref.loss_floor(n_sig, eta)),
        ref.close("squeezed_vacuum_crb", c["squeezed_vacuum_crb"],
                  ref.squeezed_vacuum_crb(n_sig)))


def check_fig_limits(c, eta_list):
    n = c["n_sig"]
    return ref.first_failure(
        ref.close("sql_sample", c["sql_sample"], ref.sql_sample(n)),
        ref.close("heisenberg_n0", c["heisenberg_n0"], 1.0 / (2.0 * n)),
        ref.close("squeezed_vacuum_crb", c["squeezed_vacuum_crb"],
                  ref.squeezed_vacuum_crb(n)),
        *(ref.close(f"loss_bound_eta_{eta:g}", c[f"loss_bound_eta_{eta:g}"],
                    ref.loss_floor(n, eta)) for eta in eta_list))


def check_noon_optimal(c, eta):
    n_opt, enh = ref.noon_optimum(eta)
    return ref.first_failure(
        ref.close("n_opt", c["n_opt"], n_opt),
        ref.close("enhancement", c["enhancement"], enh),
        ref.close("stationarity_root", c["stationarity_root"],
                  ref.noon_root(eta)))


def check_fig_noon_loss(c):
    return ref.first_failure(check_noon_optimal(c, c["eta"]),
                             ref.close("unity", c["unity"], np.ones_like(c["eta"])))


def check_squeezed_report(c, n_sig, eta):
    v, cost, dphi, enh = ref.squeezed_optimum(n_sig, eta)
    return ref.first_failure(
        ref.close("v_opt", c["v_opt"], v),
        ref.close("n_opt_nonclassical", c["n_opt_nonclassical"], cost),
        ref.close("delta_phi", c["delta_phi"], dphi),
        ref.close("enhancement", c["enhancement"], enh))


def check_fig_squeezed_loss(c, n_sig_list):
    eta = c["eta"]
    reasons = []
    for n in n_sig_list:
        v, cost, _, enh = ref.squeezed_optimum(float(n), eta)
        reasons += [
            ref.close(f"v_opt_n_{n:g}", c[f"v_opt_n_{n:g}"], v),
            ref.close(f"n_nonclassical_n_{n:g}", c[f"n_nonclassical_n_{n:g}"],
                      cost),
            ref.close(f"enhancement_n_{n:g}", c[f"enhancement_n_{n:g}"], enh)]
    return ref.first_failure(*reasons)


def check_noon_curve(c, eta):
    n = c["n_sig"]
    n_opt, _ = ref.noon_optimum(eta)
    dphi, n_state = ref.noon_best_delta_phi(eta, n, n_opt[0])
    return ref.first_failure(
        ref.close("delta_phi", c["delta_phi"], dphi),
        ref.close("n_state", c["n_state"], n_state),
        ref.close("sql_sample", c["sql_sample"], ref.sql_sample(n)),
        ref.close("loss_bound", c["loss_bound"], ref.loss_floor(n, eta)))


def check_compare(eta_axis, n_axis, ratio):
    n_opt, _ = ref.noon_optimum(eta_axis)
    eta, n = eta_axis[:, None], n_axis[None, :]
    noon, _ = ref.noon_best_delta_phi(eta, n, n_opt[:, None])
    sqz = ref.squeezed_optimum(n, eta)[2]
    return ref.close("ratio", ratio, (noon / sqz).reshape(-1))


def exact_conditional(side, bucket, eps, eta, n_det, length):
    if side == "probe":
        return (ref.probe_bucket(eps, eta, length) if bucket
                else ref.binomial_pmf(n_det, eta))
    return (ref.posterior_bucket(eps, eta, length) if bucket
            else ref.posterior_number_resolving(eps, eta, n_det, length))


def check_conditional(c, side, bucket, eps, n_det, eta_list):
    reasons = []
    for eta in eta_list:
        col = c[f"pmf_eta_{eta:g}"]
        exact = exact_conditional(side, bucket, eps, eta, n_det, len(col))
        reasons.append(ref.pmf_check(f"pmf_eta_{eta:g}", col, exact,
                                     side == "detector" and not bucket))
    return ref.first_failure(*reasons)


def check_round_trip(ds, text: str, fmt: str, path: str) -> str | None:
    """The written file holds the text, and the text holds the dataset."""
    with open(path, newline="") as fh:
        if fh.read() != text:
            return f"{path}: file differs from the serialized text"
    if fmt == "json":
        obj = json.loads(text)
        got = {a["name"]: np.asarray(a["values"]) for a in obj["axes"]}
        got.update({k: np.asarray(v) for k, v in obj["columns"].items()})
        want = _columns(ds)
    else:
        header, table = parse_csv_text(text)
        got = dict(zip(header, table.T))
        grids = np.meshgrid(*(a.values for a in ds.axes), indexing="ij")
        want = {a.name: g.reshape(-1) for a, g in zip(ds.axes, grids)}
        want.update(ds.columns)
    if set(got) != set(want):
        return f"{fmt}: columns {sorted(got)} != {sorted(want)}"
    for k, v in want.items():
        if not np.array_equal(got[k], v):
            return f"{fmt}: column {k!r} does not round-trip"
    return None


def parse_csv_text(text: str):
    header = next(csv.reader(io.StringIO(text)))
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return header, table


def read_output(path: str, fmt: str) -> dict:
    """Columns of a dataset file written by the CLI, axes included."""
    with open(path, newline="") as fh:
        text = fh.read()
    if fmt == "json":
        obj = json.loads(text)
        cols = {a["name"]: np.asarray(a["values"], dtype=float)
                for a in obj["axes"]}
        cols.update({k: np.asarray(v, dtype=float)
                     for k, v in obj["columns"].items()})
        return cols
    header, table = parse_csv_text(text)
    return dict(zip(header, table.T))


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    # CPU time of the ops is spent in child processes (cli-cold)
    cpu_children = False
    # ops it takes to run every kind of op once (a warm block does)
    kinds = 0

    def __init__(self, seed: int, tiny: bool, out_dir: str, root: str):
        self.seed, self.tiny, self.out_dir, self.root = seed, tiny, out_dir, root

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])

    def blocks(self):
        k = 0
        while True:
            yield self.block(k)
            k += 1

    def block(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> Op:
        raise NotImplementedError


class SweepWarm(Workload):
    """Grid datasets built, serialized and written in one warm interpreter."""

    name = "sweep-warm"
    KINDS = ("compare", "curve", "limits", "noon_loss", "squeezed_loss")
    # where each kind sits inside the strata: the two costliest builders
    # (noon_loss, squeezed_loss) neither both low nor both high
    OFFSET = (2, 0, 4, 1, 3)
    STRATA = 3

    def cells_range(self):
        return (100.0, 1000.0) if self.tiny else (100.0, 1.0e4)

    def block(self, k):
        rng = self.rng(k)
        lo, hi = self.cells_range()
        ops = []
        for b, kind in enumerate(self.KINDS):
            for s in range(self.STRATA):
                x = stratum_point(self.OFFSET[b], len(self.KINDS), s,
                                  self.STRATA)
                fmt = "csv" if (b + s) % 2 == 0 else "json"
                ops.append(self._op(kind, round(log_point(x, lo, hi)),
                                    fmt, rng))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self):
        return self._op("compare", 100, "csv", self.rng(WARM_UP))

    def _op(self, kind, cells, fmt, rng):
        path = os.path.join(self.out_dir, f"sweep-{kind}.{fmt}")
        if kind == "compare":
            side = max(2, round(math.sqrt(cells)))
            eta = 1.0 - np.logspace(math.log10(1.0 - rng.uniform(0.3, 0.6)),
                                    math.log10(1.0 - rng.uniform(0.99, 0.999)),
                                    side)
            n_sig = np.logspace(0.0, math.log10(rng.uniform(10.0, 100.0)),
                                max(2, round(cells / side)))
            build = lambda: q.noon_vs_squeezed_grid(eta, n_sig)
            check = lambda ds: check_compare(eta, n_sig, ds.columns["ratio"])
        elif kind == "curve":
            eta = float(rng.uniform(0.5, 0.995))
            grid = np.logspace(0.0, rng.uniform(3.0, 6.0), cells)
            build = lambda: q.noon_precision_curve(eta, grid)
            check = lambda ds: check_noon_curve(_columns(ds), eta)
        elif kind == "limits":
            # one efficiency per third of (0.05, 0.95): always 3 columns
            etas = tuple(round(float(x), 3) for x in
                         0.05 + 0.3 * (np.arange(3) + rng.random(3)))
            grid = np.logspace(0.0, rng.uniform(4.0, 6.0), cells)
            build = lambda: q.fig_limits(grid, etas)
            check = lambda ds: check_fig_limits(_columns(ds), etas)
        elif kind == "noon_loss":
            grid = np.linspace(rng.uniform(0.3, 0.6), rng.uniform(0.95, 0.99),
                               cells)
            build = lambda: q.fig_noon_loss(grid)
            check = lambda ds: check_fig_noon_loss(_columns(ds))
        else:
            grid = np.linspace(rng.uniform(0.01, 0.1), 1.0, cells)
            # one exposure per decade of [1, 1e4): always 4 column groups
            n_list = tuple(int(10.0 ** (d + rng.random())) for d in range(4))
            build = lambda: q.fig_squeezed_loss(grid, n_list)
            check = lambda ds: check_fig_squeezed_loss(_columns(ds), n_list)

        def run():
            ds = build()
            text = ds.to_csv() if fmt == "csv" else ds.to_json()
            q.write_text_atomic(path, text)
            return ds, text

        def verify(out):
            ds, text = out
            return ref.first_failure(check(ds),
                                     check_round_trip(ds, text, fmt, path))

        return Op(f"{kind}:{fmt}", run, verify, "figures")


class Heralding(Workload):
    """Heralded pmfs and thinned coherent pmfs, with the edge cases."""

    name = "heralding"
    KINDS = (("detector", False), ("detector", True), ("probe", False),
             ("probe", True))
    EPS_STRATA = 4
    LOSS_STRATA = 4

    def block(self, k):
        rng = self.rng(k)
        eps_hi = 0.5 if self.tiny else 0.95
        ops = []
        for b, (side, bucket) in enumerate(self.KINDS):
            for s in range(self.EPS_STRATA):
                x = stratum_point(b, len(self.KINDS), s, self.EPS_STRATA)
                eps = 0.1 + x * (eps_hi - 0.1)
                eta = float(rng.uniform(0.05, 1.0))
                thinned = eta * eps / (1.0 - eps + eta * eps)
                n_det = int(rng.geometric(1.0 - thinned)) - 1
                ops.append(self._conditional(side, bucket, eps, eta,
                                             n_det))
        for s in range(self.LOSS_STRATA):
            mean = log_point(stratum_point(0, 1, s, self.LOSS_STRATA),
                             10.0, 100.0 if self.tiny else 2000.0)
            ops.append(self._loss(mean, float(rng.uniform(0.05, 0.99))))
        for eps, eta, n_det in EDGE_CASES:
            ops.append(self._conditional("detector", False, eps, eta,
                                         n_det))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self):
        return self._conditional("detector", False, 0.5, 0.5, 1)

    def _conditional(self, side, bucket, eps, eta, n_det):
        detector = q.DetectorKind.BUCKET if bucket else q.DetectorKind.NUMBER_RESOLVING

        def run():
            return q.fig_conditional(side, detector, (eta,), eps, n_det)

        def check(ds):
            return check_conditional(ds.columns, side, bucket, eps, n_det,
                                     (eta,))

        kind = f"{side}-{'bucket' if bucket else 'number'}"
        return Op(kind, run, check, "conditioning")

    def _loss(self, mean, eta):
        def run():
            return q.apply_loss(q.coherent_pmf(mean), q.LossChannel(eta))

        def check(d):
            return ref.pmf_check("thinned coherent", d.pmf,
                                 ref.poisson_pmf(eta * mean, len(d.pmf)), False)

        return Op("loss", run, check, "conditioning")


class MonteCarlo(Workload):
    """Seeded simulate_* calls with trials log-uniform over 1e4..1e6."""

    name = "montecarlo"
    KINDS = ("mz", "homodyne", "absorption", "hom", "fringe")
    STRATA = 3

    def block(self, k):
        rng = self.rng(k)
        hi = 2.0e4 if self.tiny else 1.0e6
        ops = []
        for b, kind in enumerate(self.KINDS):
            for s in range(self.STRATA):
                x = stratum_point(b, len(self.KINDS), s, self.STRATA)
                ops.append(self._op(kind, round(log_point(
                    x, 1.0e4, hi)), s % 2 == 0, rng))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self):
        return self._op("mz", 10_000, True, self.rng(WARM_UP))

    def _op(self, kind, trials, flag, rng):
        seed = int(rng.integers(0, 2**63))
        if kind == "mz":
            cfg = q.SimConfig(seed=seed, trials=trials,
                              phase=math.pi / 2 + rng.uniform(-0.3, 0.3),
                              n_photons=10.0 ** rng.uniform(2.0, 6.0),
                              eta=float(rng.uniform(0.1, 1.0)))
            run = lambda: q.simulate_coherent_mz(cfg)
            check = lambda r: ref.sim_report(
                r, 1.0 / math.sqrt(cfg.eta * cfg.n_photons))
        elif kind == "homodyne":
            v, eta = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
            cfg = q.SimConfig(seed=seed, trials=trials,
                              phase=float(rng.uniform(-0.1, 0.1)),
                              n_photons=float(rng.uniform(10.0, 100.0)) ** 2,
                              eta=eta)
            run = lambda: q.simulate_homodyne_squeezed(cfg, v)
            check = lambda r: ref.sim_report(r, math.sqrt(
                v + (1.0 - eta) / eta) / (2.0 * math.sqrt(cfg.n_photons)))
        elif kind == "absorption":
            a, n_sig = float(rng.uniform(0.05, 0.5)), int(rng.integers(1000, 100_000))
            var = a * (1.0 - a) / n_sig if flag else (1.0 - a) / n_sig
            run = lambda: q.simulate_heralded_absorption(a, n_sig, flag,
                                                         trials, seed)
            check = lambda r: ref.sim_report(r, math.sqrt(var))
        elif kind == "hom":
            run = lambda: q.simulate_hom(trials, flag, seed)
            check = lambda rate: ref.within_se(
                "cross_coincidence_rate", rate, 0.5 if flag else 0.0,
                math.sqrt(0.25 / trials) if flag else 0.0)
        else:
            points = int(rng.integers(17, 66))
            run = lambda: q.simulate_noon_fringe(points, trials, seed)
            check = lambda ds: ref.first_failure(
                ref.fringe_rates(_columns(ds), trials),
                None if math.isfinite(ds.metadata["fitted_period"])
                else "fitted_period: non-finite output")
        return Op(kind, run, check, "montecarlo")


class CliCold(Workload):
    """Each op is a fresh `python -m qoptkit.cli` process writing --out."""

    name = "cli-cold"
    cpu_children = True
    COMMANDS = ("limits", "noon-optimal", "noon-threshold", "squeezed",
                "condition", "sim-mz", "sim-hom", "sim-homodyne",
                "sim-absorption", "sim-noon-fringe", "fig-limits",
                "fig-noon-loss", "fig-squeezed-loss", "fig-conditional")
    kinds = len(COMMANDS)
    # set by the worker for the traced run: each child then records spans
    spans_dir: str | None = None

    def __init__(self, *args):
        super().__init__(*args)
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(self.root, "src"))
        self.counter = 0

    def block(self, k):
        """One op: the (k mod 14)-th of cycle k // 14 of the command mix.

        Every command costs about the same (the import dominates), so the
        loop may stop after any op and more ops fit in a run.
        """
        cycle, pos = divmod(k, len(self.COMMANDS))
        rng = self.rng(cycle)
        ops = [self._op(self.COMMANDS[i], rng, cycle)
               for i in rng.permutation(len(self.COMMANDS))]
        return [ops[pos]]

    def warm_up(self):
        return self._op("limits", self.rng(WARM_UP), 0)

    def _op(self, command, rng, k):
        argv, check = self._command(command, rng)
        fmt = "csv" if (k + self.COMMANDS.index(command)) % 2 == 0 else "json"
        path = os.path.join(self.out_dir, f"cli-{command}.{fmt}")
        argv = argv + ["--format", fmt, "--out", path]

        def run():
            self.counter += 1
            if self.spans_dir is None:
                cmd = [sys.executable, "-m", "qoptkit.cli", *argv]
            else:
                spans = os.path.join(self.spans_dir, f"op-{self.counter}.npz")
                cmd = [sys.executable, os.path.join(self.root, "bench",
                                                    "cli_shim.py"), spans, *argv]
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=120)
            return proc.returncode, proc.stderr

        def verify(out):
            code, err = out
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"
            return check(read_output(path, fmt))

        layer = "conditioning" if "condition" in command else "cli"
        return Op(command, run, verify, layer)

    def _command(self, command, rng):
        seed = int(rng.integers(0, 2**63))
        if command == "limits":
            n_sig, eta = 10.0 ** rng.uniform(0, 6), float(rng.uniform(0.05, 0.99))
            return (["limits", "--n-sig", repr(n_sig), "--eta", repr(eta)],
                    lambda c: check_limits_point(c, n_sig, eta))
        if command == "noon-optimal":
            eta = float(rng.uniform(0.5, 0.99))
            return (["noon", "--optimal", "--eta", repr(eta)],
                    lambda c: check_noon_optimal(c, eta))
        if command == "noon-threshold":
            n = int(rng.integers(3, 41))
            return (["noon", "--threshold", "--n", str(n)],
                    lambda c: ref.close("threshold_efficiency",
                                        c["threshold_efficiency"],
                                        (n - 1.0) ** (-1.0 / n)))
        if command == "squeezed":
            n_sig, eta = 10.0 ** rng.uniform(0, 4), float(rng.uniform(0.05, 0.99))
            return (["squeezed", "--n-sig", repr(n_sig), "--eta", repr(eta)],
                    lambda c: check_squeezed_report(c, n_sig, eta))
        if command in ("condition", "fig-conditional"):
            side = ("probe", "detector")[int(rng.integers(2))]
            bucket = bool(rng.integers(2))
            eps, n_det = float(rng.uniform(0.1, 0.9)), int(rng.integers(0, 6))
            head = (["condition"] if command == "condition"
                    else ["figure", "fig-conditional"])
            return (head + ["--side", side, "--detector",
                            "bucket" if bucket else "number-resolving",
                            "--epsilon", repr(eps), "--n-det", str(n_det)],
                    lambda c: check_conditional(c, side, bucket, eps, n_det,
                                                (1.0, 0.7, 0.4, 0.1)))
        if command == "sim-mz":
            n0, eta = 10.0 ** rng.uniform(2, 6), float(rng.uniform(0.1, 1.0))
            phase = math.pi / 2 + rng.uniform(-0.3, 0.3)
            return (["simulate", "mz", "--n0", repr(n0), "--eta", repr(eta),
                     "--phase", repr(phase), "--seed", str(seed)],
                    lambda c: check_sim(c, 1.0 / math.sqrt(eta * n0)))
        if command == "sim-hom":
            dist = bool(rng.integers(2))
            return (["simulate", "hom", "--seed", str(seed)]
                    + (["--distinguishable"] if dist else []),
                    lambda c: ref.within_se(
                        "cross_coincidence_rate",
                        float(c["cross_coincidence_rate"][0]),
                        0.5 if dist else 0.0,
                        math.sqrt(0.25 / 10_000) if dist else 0.0))
        if command == "sim-homodyne":
            alpha, v = float(rng.uniform(10, 100)), float(rng.uniform(0.1, 1.0))
            eta = float(rng.uniform(0.1, 1.0))
            return (["simulate", "homodyne", "--alpha", repr(alpha),
                     "--v-sqz", repr(v), "--eta", repr(eta), "--phase",
                     repr(float(rng.uniform(-0.1, 0.1))), "--seed", str(seed)],
                    lambda c: check_sim(c, math.sqrt(v + (1 - eta) / eta) / (
                        2.0 * math.sqrt(alpha ** 2))))
        if command == "sim-absorption":
            a, n_sig = float(rng.uniform(0.05, 0.5)), int(rng.integers(1000, 100_000))
            heralded = bool(rng.integers(2))
            var = a * (1 - a) / n_sig if heralded else (1 - a) / n_sig
            return (["simulate", "absorption", "--alpha-true", repr(a),
                     "--n-sig", str(n_sig), "--seed", str(seed)]
                    + (["--heralded"] if heralded else []),
                    lambda c: check_sim(c, math.sqrt(var)))
        if command == "sim-noon-fringe":
            return (["simulate", "noon-fringe", "--seed", str(seed)],
                    lambda c: ref.fringe_rates(c, 1000))
        if command == "fig-limits":
            return (["figure", "fig-limits"],
                    lambda c: check_fig_limits(c, (0.5, 0.9, 0.99)))
        if command == "fig-noon-loss":
            return ["figure", "fig-noon-loss"], check_fig_noon_loss
        if command == "fig-squeezed-loss":
            return (["figure", "fig-squeezed-loss"],
                    lambda c: check_fig_squeezed_loss(c, (1, 10, 100, 1000)))
        raise ValueError(f"unknown command {command!r}")


def check_sim(c, analytic):
    return ref.first_failure(
        ref.close("analytic_reference", c["analytic_reference"], [analytic]),
        ref.within_se("estimate_std", float(c["estimate_std"][0]), analytic,
                      float(c["std_error_of_std"][0])))


WORKLOADS = {w.name: w for w in (CliCold, SweepWarm, Heralding, MonteCarlo)}
