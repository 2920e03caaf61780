"""Acceptance checklist: one numbered end-to-end criterion per test.

Each test prints a single PASS/FAIL line past the capture machinery so a
plain `pytest -v` run reads as a checklist with the measured numbers inline.

Criterion 5 checks that the budget-optimized squeezed excess over the
lossy-channel floor follows, to 1%, the two-term law documented in
qoptkit.squeezed, and that its leading term 1/(2 sqrt(n_sig L)), with
L = (1-eta)/eta, sets the rate.
"""
import math
import time

import numpy as np
import pytest

import oracles
from qoptkit import (
    DEFAULT_SEED,
    LossChannel,
    PdcTwinBeam,
    PhotonDistribution,
    PowerConstraint,
    SimConfig,
    apply_loss,
    condition_probe_bucket,
    condition_probe_number_resolving,
    distribution_moments,
    g2_self,
    heisenberg,
    loss_bound,
    noon_optimal_n,
    noon_threshold_efficiency,
    noon_vs_squeezed_grid,
    optimal_squeezing,
    optimal_v_sqz,
    posterior_bucket,
    posterior_number_resolving,
    qnl,
    simulate_coherent_mz,
    simulate_heralded_absorption,
    simulate_hom,
    simulate_homodyne_squeezed,
    simulate_noon_fringe,
    sql_sample,
    sql_total,
    squeezed_precision,
    squeezed_precision_budget,
    squeezed_vacuum_crb,
)
from qoptkit.cli import run

PANEL_ETAS = (1.0, 0.7, 0.4, 0.1)


@pytest.fixture
def say(capsys):
    def _say(msg: str) -> None:
        with capsys.disabled():
            print(msg)
    return _say


def test_criterion_01_bound_identities(say):
    t0 = time.perf_counter()
    grid = np.logspace(0.0, 8.0, 20)
    eta = 0.8
    worst = 0.0
    for n in grid:
        pairs = (
            (sql_total(n), 1.0 / math.sqrt(n)),
            (sql_sample(n), 1.0 / (2.0 * math.sqrt(n))),
            (qnl(n, eta), 1.0 / math.sqrt(eta * n)),
            (heisenberg(n), 1.0 / n),
            (loss_bound(n, eta),
             math.sqrt((1.0 - eta) / eta) / math.sqrt(n)),
            (loss_bound(n, eta, PowerConstraint.SAMPLE),
             math.sqrt((1.0 - eta) / eta) / (2.0 * math.sqrt(n))),
            (squeezed_vacuum_crb(n),
             1.0 / (2.0 * math.sqrt(2.0 * (n * n + n)))),
        )
        for got, want in pairs:
            worst = max(worst, abs(got - want) / want)
        # structural orderings at every point
        assert heisenberg(n) <= sql_total(n)
        assert squeezed_vacuum_crb(n) < heisenberg(n)
        assert qnl(n, eta) >= sql_total(n)
        assert loss_bound(n, 0.4) > sql_total(n)
        assert loss_bound(n, 0.6) < sql_total(n)
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    say(f"criterion 1: {'PASS' if ok else 'FAIL'} bound identities "
        f"(max rel err {worst:.2e}, {dt * 1e3:.0f} ms)")
    assert worst < 1e-12
    assert dt < 1.0


def test_criterion_02_noon_thresholds(say):
    e3 = abs(noon_threshold_efficiency(3) - 2.0 ** (-1.0 / 3.0))
    e5 = abs(noon_threshold_efficiency(5) - 4.0 ** (-1.0 / 5.0))
    table = {n: noon_threshold_efficiency(n) for n in range(2, 60)}
    n_best = min(table, key=table.get)
    ok = e3 < 1e-12 and e5 < 1e-12 and n_best == 5
    say(f"criterion 2: {'PASS' if ok else 'FAIL'} thresholds "
        f"(N=3 err {e3:.1e}, N=5 err {e5:.1e}, argmin N={n_best}, "
        f"eta ~ {table[3]:.3f}/{table[5]:.3f})")
    assert e3 < 1e-12 and e5 < 1e-12
    assert n_best == 5


def test_criterion_03_noon_optimum_vs_scan(say):
    t0 = time.perf_counter()
    worst_e, worst_res = 0.0, 0.0
    for eta in (0.6, 0.75, 0.9, 0.95, 0.99):
        n_lib, e_lib, root = noon_optimal_n(eta)
        n_scan, e_scan = oracles.noon_scan_best(eta)
        assert n_lib == n_scan
        worst_e = max(worst_e, abs(e_lib - e_scan))
        worst_res = max(worst_res,
                        abs(root * math.log(eta) + eta**root + 1.0))
    dt = time.perf_counter() - t0
    ok = worst_e < 1e-10 and worst_res < 1e-10 and dt < 1.0
    say(f"criterion 3: {'PASS' if ok else 'FAIL'} optimal N vs scan "
        f"(max dE {worst_e:.1e}, max residual {worst_res:.1e}, "
        f"{dt * 1e3:.0f} ms)")
    assert worst_e < 1e-10
    assert worst_res < 1e-10
    assert dt < 1.0


def test_criterion_04_squeezed_optimum(say):
    rng = np.random.default_rng(20240817)
    worst_v, worst_grad = 0.0, 0.0
    for _ in range(100):
        eta = rng.uniform(0.05, 0.999)
        n_sig = 10.0 ** rng.uniform(math.log10(0.5), 4.0)
        v0 = optimal_v_sqz(n_sig, eta)
        v_star = oracles.golden_minimize(
            lambda v: squeezed_precision_budget(n_sig, v, eta), 1e-9, 1.0)
        worst_v = max(worst_v, abs(v0 - v_star))
        # stationarity: central difference of dphi^2 at the closed form
        h = 1e-5 * v0
        f = lambda v: squeezed_precision_budget(n_sig, v, eta) ** 2
        d1 = (f(v0 + h) - f(v0 - h)) / (2.0 * h)
        d2 = (f(v0 + h) - 2.0 * f(v0) + f(v0 - h)) / (h * h)
        worst_grad = max(worst_grad, abs(d1) / (abs(d2) * v0))
    ok = worst_v < 1e-6 and worst_grad < 1e-6
    say(f"criterion 4: {'PASS' if ok else 'FAIL'} squeezed optimum "
        f"(max |dV| {worst_v:.1e}, max grad/curvature {worst_grad:.1e}, "
        "100 random pairs)")
    assert worst_v < 1e-6
    assert worst_grad < 1e-6


def test_criterion_05_asymptote_within_one_percent(say):
    def excess(n_sig, eta):
        dphi = optimal_squeezing(n_sig, eta).delta_phi
        floor = loss_bound(n_sig, eta, PowerConstraint.SAMPLE)
        return dphi / floor - 1.0

    rows = []
    rates = []
    for eta in (0.5, 0.9, 0.99):
        loss = (1.0 - eta) / eta
        n_sig = 1000.0 * eta / (1.0 - eta)
        nl = n_sig * loss
        law = 1.0 / (2.0 * math.sqrt(nl)) + (1.0 - 2.0 * loss) / (8.0 * nl)
        rows.append((eta, excess(n_sig, eta), law))
        # leading-order rate: 2 sqrt(nL) * excess -> 1 as nL grows
        rates.append([abs(2.0 * math.sqrt(x) * excess(x / loss, eta) - 1.0)
                      for x in (1e3, 1e4, 1e5, 1e6)])
    worst_law = max(abs(x / law - 1.0) for _, x, law in rows)
    falls = all(a > b for r in rates for a, b in zip(r, r[1:]))
    worst_tail = max(r[-1] for r in rates)
    detail = ", ".join(f"eta={e}: {x * 100:.3f}% vs law {law * 100:.3f}%"
                       for e, x, law in rows)
    ok = worst_law <= 0.01 and falls and worst_tail < 1e-3
    say(f"criterion 5: {'PASS' if ok else 'FAIL'} asymptote within 1% of "
        f"1/(2 sqrt(nL)) + (1-2L)/(8nL) ({detail}; max rel dev "
        f"{worst_law:.1e}; |2 sqrt(nL) e - 1| falls per decade to "
        f"{worst_tail:.1e} at nL = 1e6)")
    assert worst_law <= 0.01, (
        "optimized squeezed excess over the loss floor at n_sig = "
        f"1000*eta/(1-eta) deviates from the two-term law by {worst_law:.2%}")
    assert falls, f"|2 sqrt(nL) e - 1| does not fall every decade: {rates}"
    assert worst_tail < 1e-3


def test_criterion_06_strategy_ratio_grid(say):
    t0 = time.perf_counter()
    ds = noon_vs_squeezed_grid()
    eta = ds.axis("eta").values
    n_sig = ds.axis("n_sig").values
    ratio = ds.columns["ratio"].reshape(len(eta), len(n_sig))
    r_min, r_max = ratio.min(), ratio.max()
    # unity contour: some sign-change edge of (ratio - 1) must sit within one
    # grid cell of the point (eta, n_sig) = (0.97, 8)
    i = int(np.argmin(np.abs(eta - 0.97)))
    j = int(np.argmin(np.abs(n_sig - 8.0)))
    s = np.sign(ratio - 1.0)
    edges = [(r + 0.5, c) for r, c in zip(*np.nonzero(np.diff(s, axis=0)))]
    edges += [(r, c + 0.5) for r, c in zip(*np.nonzero(np.diff(s, axis=1)))]
    dist = min(max(abs(r - i), abs(c - j)) for r, c in edges)
    dt = time.perf_counter() - t0
    ok = (abs(r_min - 0.96) <= 0.02 and abs(r_max - 1.63) <= 0.02
          and dist <= 1.0 and dt < 30.0)
    say(f"criterion 6: {'PASS' if ok else 'FAIL'} ratio grid "
        f"(min {r_min:.4f}, max {r_max:.4f}, unity contour {dist:.1f} "
        f"cells from (0.97, 8), {dt:.1f} s)")
    assert abs(r_min - 0.96) <= 0.02
    assert abs(r_max - 1.63) <= 0.02
    assert dist <= 1.0
    assert dt < 30.0


def test_criterion_07_conditioning_oracle(say):
    eps = 0.5
    n_det = 1
    worst = 0.0
    state = PdcTwinBeam(eps)
    for eta in PANEL_ETAS:
        ch = LossChannel(eta)
        panels = {
            "probe-nr": (condition_probe_number_resolving(state, n_det, ch),
                         oracles.probe_side_number_resolving(eps, n_det, eta)),
            "probe-bucket": (condition_probe_bucket(state, ch),
                             oracles.probe_side_bucket(eps, eta)),
            "det-nr": (posterior_number_resolving(state, n_det, ch),
                       oracles.detector_side_number_resolving(eps, n_det, eta)),
            "det-bucket": (posterior_bucket(state, ch),
                           oracles.detector_side_bucket(eps, eta)),
        }
        for name, (lib, ora) in panels.items():
            tv = oracles.total_variation(lib.pmf, ora)
            worst = max(worst, tv)
            assert abs(lib.pmf.sum() - 1.0) < 1e-9, (name, eta)
        # probe-side ideal count caps the support exactly
        assert panels["probe-nr"][0].n_max == n_det
        # detector-side inefficiency leaves mass above the count
        if eta < 1.0:
            assert panels["det-nr"][0].pmf[n_det + 1:].sum() > 0.0
    ok = worst < 1e-12
    say(f"criterion 7: {'PASS' if ok else 'FAIL'} conditioning vs "
        f"enumeration (16 panels, max TV {worst:.2e})")
    assert worst < 1e-12


def test_criterion_08_thinning_laws(say):
    rng = np.random.default_rng(97)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 13))
        p = rng.dirichlet(np.ones(size))
        d = PhotonDistribution(p)
        eta1, eta2 = rng.uniform(0.05, 1.0, size=2)
        thinned = apply_loss(d, LossChannel(eta1))
        # composition
        two = apply_loss(thinned, LossChannel(eta2))
        one = apply_loss(d, LossChannel(eta1 * eta2))
        worst = max(worst, oracles.total_variation(two.pmf, one.pmf))
        # moment transform
        m, v = distribution_moments(d)
        m1, v1 = distribution_moments(thinned)
        worst = max(worst, abs(m1 - eta1 * m))
        worst = max(worst,
                    abs(v1 - (eta1**2 * v + eta1 * (1.0 - eta1) * m)))
        # g2 invariance
        worst = max(worst, abs(g2_self(thinned) - g2_self(d)))
    ok = worst < 1e-9
    say(f"criterion 8: {'PASS' if ok else 'FAIL'} thinning laws "
        f"(1000 random pmfs, max deviation {worst:.2e})")
    assert worst < 1e-9


def test_criterion_09_monte_carlo_vs_analytic(say):
    t0 = time.perf_counter()
    pulls = []
    r = simulate_coherent_mz(SimConfig(seed=DEFAULT_SEED, trials=10_000,
                                       n_photons=10_000.0))
    pulls.append(("mz",
                  (r.estimate_std - r.analytic_reference)
                  / r.std_error_of_std))
    for v_sqz in (1.0, 0.1):
        for eta in (1.0, 0.5):
            cfg = SimConfig(seed=DEFAULT_SEED, trials=10_000,
                            n_photons=100.0, eta=eta)
            r = simulate_homodyne_squeezed(cfg, v_sqz)
            assert r.analytic_reference == pytest.approx(
                squeezed_precision(10.0, v_sqz, eta), rel=1e-12)
            pulls.append((f"homodyne v={v_sqz} eta={eta}",
                          (r.estimate_std - r.analytic_reference)
                          / r.std_error_of_std))
    dt = time.perf_counter() - t0
    worst_name, worst = max(pulls, key=lambda kv: abs(kv[1]))
    ok = abs(worst) < 4.0 and dt < 10.0
    say(f"criterion 9: {'PASS' if ok else 'FAIL'} Monte Carlo vs analytic "
        f"(worst pull {worst:+.2f} se at {worst_name}, {dt:.1f} s)")
    for name, pull in pulls:
        assert abs(pull) < 4.0, (name, pull)
    assert dt < 10.0


def test_criterion_10_fringe_doubling_and_hom(say):
    ds = simulate_noon_fringe(33, 100_000, seed=DEFAULT_SEED)
    period = ds.metadata["fitted_period"]
    vis = ds.metadata["fitted_visibility"]
    hom = simulate_hom(10_000, distinguishable=False)
    ok = (abs(period - math.pi) / math.pi < 0.01
          and abs(vis - 1.0) < 0.02 and hom == 0.0)
    say(f"criterion 10: {'PASS' if ok else 'FAIL'} fringe doubling "
        f"(period {period:.5f} vs pi, visibility {vis:.4f}, "
        f"HOM cross rate {hom})")
    assert abs(period - math.pi) / math.pi < 0.01
    assert abs(vis - 1.0) < 0.02
    assert hom == 0.0


def test_criterion_11_heralded_absorption(say):
    her = simulate_heralded_absorption(0.1, 10_000, True, 10_000,
                                       seed=DEFAULT_SEED)
    coh = simulate_heralded_absorption(0.1, 10_000, False, 10_000,
                                       seed=DEFAULT_SEED)
    ratio = her.estimate_std**2 / coh.estimate_std**2
    ok = abs(ratio - 0.1) <= 0.01
    say(f"criterion 11: {'PASS' if ok else 'FAIL'} heralded absorption "
        f"(variance ratio {ratio:.4f} vs 0.1 +- 10%)")
    assert ratio == pytest.approx(0.1, abs=0.01)


def test_criterion_12_command_determinism(say, tmp_path):
    commands = [
        ["simulate", "mz", "--trials", "4000"],
        ["simulate", "noon-fringe"],
        ["simulate", "hom"],
        ["simulate", "homodyne", "--v-sqz", "0.5", "--eta", "0.8"],
        ["simulate", "absorption", "--heralded"],
        ["figure", "fig-limits"],
        ["figure", "fig-noon-loss"],
        ["figure", "fig-squeezed-loss"],
        ["figure", "fig-compare"],
        ["figure", "fig-conditional", "--side", "detector",
         "--detector", "bucket"],
    ]
    n_checked = 0
    for idx, argv in enumerate(commands):
        for fmt in ("csv", "json"):
            a = tmp_path / f"{idx}-a.{fmt}"
            b = tmp_path / f"{idx}-b.{fmt}"
            assert run(argv + ["--format", fmt, "--out", str(a)]) == 0, argv
            assert run(argv + ["--format", fmt, "--out", str(b)]) == 0, argv
            assert a.read_bytes() == b.read_bytes(), (argv, fmt)
            n_checked += 1
    say(f"criterion 12: PASS determinism ({n_checked} command reruns "
        "byte-identical)")
