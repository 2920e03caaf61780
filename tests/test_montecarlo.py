import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from qoptkit import (
    DEFAULT_SEED,
    montecarlo,
    SimConfig,
    SimReport,
    simulate_coherent_mz,
    simulate_heralded_absorption,
    simulate_hom,
    simulate_homodyne_squeezed,
    simulate_noon_fringe,
    squeezed_precision,
)
from qoptkit.cli import run
from qoptkit.domain import MAX_TRIALS
from qoptkit.montecarlo import CHUNK

# chunk-sized float64 arrays a simulation may hold at its peak
PEAK_CHUNKS = 6


def _homodyne(cfg):
    return simulate_homodyne_squeezed(cfg, 1.0)


# (simulation, SimConfig field, a value outside the simulation's domain for
# it, the name the refusal gives); the other fields are valid for both
REFUSALS = [
    (simulate_coherent_mz, "seed", -1, "seed"),
    (simulate_coherent_mz, "trials", 50, "trials"),
    (simulate_coherent_mz, "phase", 0.0, "operating phase"),
    (simulate_coherent_mz, "n_photons", 10.0, "n0"),
    (simulate_coherent_mz, "eta", 0.0, "eta"),
    (_homodyne, "seed", 2**64, "seed"),
    (_homodyne, "trials", 10, "trials"),
    (_homodyne, "phase", 4.0, "phase"),
    (_homodyne, "n_photons", math.nan, "alpha\\^2"),
    (_homodyne, "eta", 1.2, "eta"),
]


def test_sim_config_is_a_plain_record():
    # each simulation checks the fields it reads; the record checks nothing
    assert not hasattr(SimConfig, "__post_init__")
    assert SimConfig(trials=0, eta=2.0).trials == 0
    assert SimConfig().seed == DEFAULT_SEED


def test_sim_config_validation():
    for simulate, field, bad, name in REFUSALS:
        cfg = SimConfig(**{"trials": 100, "n_photons": 100.0, field: bad})
        with pytest.raises(ValueError, match=f"^{name} must be"):
            simulate(cfg)


@pytest.mark.parametrize("simulate, names", [
    (simulate_coherent_mz, ["trials", "n0", "eta", "operating phase", "seed"]),
    (_homodyne, ["v_sqz", "trials", "eta", "phase", "alpha^2", "seed"]),
], ids=["mz", "homodyne"])
def test_each_simulation_input_is_checked_once(simulate, names, monkeypatch):
    seen = []

    def counted(real):
        def check(x, name, *domain):
            seen.append(name)
            return real(x, name, *domain)
        return check
    for check in ("require_in", "require_int"):
        monkeypatch.setattr(montecarlo, check,
                            counted(getattr(montecarlo, check)))
    simulate(SimConfig(trials=100, n_photons=100.0))
    assert sorted(seen) == sorted(names)


def test_mz_matches_shot_noise():
    cfg = SimConfig(trials=10_000, n_photons=10_000.0)
    r = simulate_coherent_mz(cfg)
    assert isinstance(r, SimReport)
    assert r.analytic_reference == pytest.approx(0.01, rel=1e-12)
    assert abs(r.estimate_std - r.analytic_reference) < 4.0 * r.std_error_of_std
    assert abs(r.estimate_mean - math.pi / 2.0) < 4.0 * 0.01 / 100.0


def test_mz_with_loss():
    cfg = SimConfig(trials=10_000, n_photons=10_000.0, eta=0.25)
    r = simulate_coherent_mz(cfg)
    assert r.analytic_reference == pytest.approx(0.02, rel=1e-12)
    assert abs(r.estimate_std - 0.02) < 4.0 * r.std_error_of_std


def test_mz_off_the_fringe_center():
    # the count-difference variance is phase independent for Poisson arms
    cfg = SimConfig(trials=10_000, n_photons=10_000.0,
                    phase=math.pi / 2.0 + 0.3)
    r = simulate_coherent_mz(cfg)
    assert abs(r.estimate_std - 0.01) < 4.0 * r.std_error_of_std


def test_mz_deterministic():
    cfg = SimConfig(trials=2_000, n_photons=1_000.0)
    assert simulate_coherent_mz(cfg) == simulate_coherent_mz(cfg)
    other = simulate_coherent_mz(SimConfig(seed=DEFAULT_SEED + 1,
                                           trials=2_000, n_photons=1_000.0))
    assert other != simulate_coherent_mz(cfg)


def test_mz_validation():
    with pytest.raises(ValueError):
        simulate_coherent_mz(SimConfig(trials=50))
    with pytest.raises(ValueError):
        simulate_coherent_mz(SimConfig(n_photons=10.0))
    with pytest.raises(ValueError):
        simulate_coherent_mz(SimConfig(phase=0.0))  # outside linear window


def test_fringe_period_doubling():
    ds = simulate_noon_fringe(33, 2_000)
    assert ds.figure_id == "noon-two-photon-fringe"
    # the coincidence fringe oscillates at twice the phase frequency
    assert ds.metadata["fitted_period"] == pytest.approx(math.pi, rel=0.02)
    assert ds.metadata["fitted_visibility"] == pytest.approx(1.0, abs=0.05)
    phases = ds.axis("phase").values
    assert phases[0] == 0.0 and phases[-1] == pytest.approx(2.0 * math.pi)
    expect = (1.0 + np.cos(2.0 * phases)) / 2.0
    assert np.allclose(ds.columns["probability"], expect, atol=1e-12)


def test_fringe_deterministic():
    assert simulate_noon_fringe(15, 500) == simulate_noon_fringe(15, 500)
    assert simulate_noon_fringe(15, 500) != simulate_noon_fringe(15, 500,
                                                                 seed=3)


# inputs on which the fit once stalled at rounding level and ran out of steps
STALLED_FITS = [(35, 184785, 6264094095420345554),
                (25, 1018372, 302372324862457185),
                (54, 7154423, 6547190821827306521),
                (44, 2429319, 4229909532532667744),
                (38, 857696, 1858739381307298474)]


@pytest.mark.parametrize("points, trials, seed", STALLED_FITS)
def test_fringe_fit_does_not_stall(points, trials, seed):
    ds = simulate_noon_fringe(points, trials, seed)
    assert abs(ds.metadata["fitted_period"] - math.pi) < 1e-3


def test_fringe_fit_answers_at_the_edges():
    for points in (5, 6, 17, 33, 400):
        for trials in (1, 2, 10, 10**6, MAX_TRIALS):
            for seed in range(40):
                ds = simulate_noon_fringe(points, trials, seed)
                assert math.isfinite(ds.metadata["fitted_period"]), \
                    (points, trials, seed)


def _fringe_inputs():
    """(points, trials, seed): a corner of the edges and 200 seeded draws."""
    rng = np.random.default_rng(2929)
    edges = [(p, t, s) for p in (5, 6, 33, 400) for t in (1, 10, MAX_TRIALS)
             for s in range(3)]
    return edges + STALLED_FITS + [
        (int(rng.integers(5, 401)),
         int(math.exp(rng.uniform(0.0, math.log(MAX_TRIALS)))),
         int(rng.integers(0, 2**63))) for _ in range(200)]


def test_fringe_fit_matches_the_lstsq_reference():
    # the closed-form 3x3 step solves the normal equations that lstsq solves
    # through the Jacobian; on flat minima the two iterations stop apart by
    # up to a few 1e-9 in omega at an equal residual sum
    for points, trials, seed in _fringe_inputs():
        ds = simulate_noon_fringe(points, trials, seed)
        phi = ds.axis("phase").values
        y = ds.columns["same_detector_rate"]
        ref = oracles.lstsq_fringe_fit(phi, y)
        assert ref is not None, (points, trials, seed)
        assert ds.metadata["fitted_period"] == pytest.approx(
            2.0 * math.pi / abs(ref[2]), rel=1e-8), (points, trials, seed)
        got = montecarlo._fit_fringe(phi, y)
        assert oracles.fringe_rss(phi, y, got) == pytest.approx(
            oracles.fringe_rss(phi, y, ref), rel=1e-12, abs=0.0)


def test_failed_fringe_fit_exits_2_and_names_its_inputs(monkeypatch, capsys):
    monkeypatch.setattr(montecarlo, "_FIT_MAX_ITER", 1)
    assert run(["simulate", "noon-fringe", "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: fringe fit failed at 33 phase points, 1000 "
                   "trials, seed 7\n")


def test_fringe_validation():
    with pytest.raises(ValueError):
        simulate_noon_fringe(3, 100)
    with pytest.raises(ValueError):
        simulate_noon_fringe(33, 0)


def test_hom_indistinguishable_never_splits():
    assert simulate_hom(10_000, distinguishable=False) == 0.0


def test_hom_distinguishable_splits_half_the_time():
    rate = simulate_hom(100_000, distinguishable=True)
    assert rate == pytest.approx(0.5, abs=0.01)
    assert simulate_hom(100_000, True) == rate  # deterministic
    with pytest.raises(ValueError):
        simulate_hom(100, True)


def test_homodyne_coherent_limit():
    cfg = SimConfig(trials=10_000, n_photons=100.0)
    r = simulate_homodyne_squeezed(cfg, v_sqz=1.0)
    assert r.analytic_reference == pytest.approx(0.05, rel=1e-12)
    assert abs(r.estimate_std - 0.05) < 4.0 * r.std_error_of_std


def test_homodyne_squeezed_lossy():
    cfg = SimConfig(trials=10_000, n_photons=100.0, eta=0.5, phase=0.01)
    r = simulate_homodyne_squeezed(cfg, v_sqz=0.1)
    want = squeezed_precision(10.0, 0.1, 0.5)
    assert r.analytic_reference == pytest.approx(want, rel=1e-12)
    assert abs(r.estimate_std - want) < 4.0 * r.std_error_of_std
    # estimator is unbiased at the true phase
    assert abs(r.estimate_mean - 0.01) < 4.0 * want / 100.0


def test_homodyne_gate_and_validation():
    with pytest.raises(ValueError):
        simulate_homodyne_squeezed(SimConfig(n_photons=50.0), 1.0)
    with pytest.raises(ValueError):
        simulate_homodyne_squeezed(SimConfig(n_photons=100.0), 0.0)
    with pytest.raises(ValueError):
        simulate_homodyne_squeezed(SimConfig(n_photons=100.0, trials=10), 1.0)


def test_homodyne_deterministic():
    cfg = SimConfig(trials=1_000, n_photons=400.0)
    assert simulate_homodyne_squeezed(cfg, 0.5) == \
        simulate_homodyne_squeezed(cfg, 0.5)


def test_absorption_heralded_vs_coherent():
    her = simulate_heralded_absorption(0.1, 10_000, True, 10_000)
    coh = simulate_heralded_absorption(0.1, 10_000, False, 10_000)
    assert her.analytic_reference == pytest.approx(math.sqrt(9e-6), rel=1e-12)
    assert coh.analytic_reference == pytest.approx(math.sqrt(9e-5), rel=1e-12)
    for r in (her, coh):
        assert abs(r.estimate_std - r.analytic_reference) < \
            4.0 * r.std_error_of_std
        assert abs(r.estimate_mean - 0.1) < 4.0 * r.analytic_reference / 100.0
    # removing source shot noise buys a factor alpha in variance
    ratio = her.estimate_std**2 / coh.estimate_std**2
    assert ratio == pytest.approx(0.1, rel=0.1)


def test_absorption_validation():
    with pytest.raises(ValueError):
        simulate_heralded_absorption(0.0, 100, True, 1000)
    with pytest.raises(ValueError):
        simulate_heralded_absorption(0.1, 0, True, 1000)
    with pytest.raises(ValueError):
        simulate_heralded_absorption(0.1, 100, True, 10)


def test_absorption_deterministic():
    a = simulate_heralded_absorption(0.2, 500, True, 500)
    b = simulate_heralded_absorption(0.2, 500, True, 500)
    assert a == b


def _moments(report):
    return (report.estimate_mean, report.estimate_std,
            report.std_error_of_std)


def _simulations(trials, chunk):
    """(report moments, oracle moments) of each SimReport simulation at
    trials, the oracle drawing in chunks of chunk trials."""
    cfg = SimConfig(seed=trials, trials=trials, phase=1.8, n_photons=4.7e4,
                    eta=0.3)
    yield (_moments(simulate_coherent_mz(cfg)),
           oracles.streamed_mz(trials, trials, chunk, 1.8, 4.7e4, 0.3))
    yield (_moments(simulate_homodyne_squeezed(cfg, 0.4)),
           oracles.streamed_homodyne(trials, trials, chunk, 1.8, 4.7e4, 0.3,
                                     0.4))
    for heralded in (True, False):
        yield (_moments(simulate_heralded_absorption(0.2, 37, heralded,
                                                     trials, 5)),
               oracles.streamed_absorption(5, trials, chunk, 0.2, 37,
                                           heralded))


def _check_hom(trials, chunk):
    for distinguishable in (True, False):
        rate = simulate_hom(trials, distinguishable, seed=trials)
        assert type(rate) is float
        assert rate == oracles.streamed_hom(trials, trials, chunk,
                                            distinguishable)


@pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK])
def test_one_chunk_equals_the_whole_call_draws(trials):
    # up to CHUNK trials a run is one chunk: one sampler call per stage, then
    # np.mean and np.std(ddof=1), bit for bit; so every golden and CLI default
    # (at most 10 000 trials) keeps the bytes of the whole-call draws
    for chunk in (CHUNK, trials):  # the streamed order, then the whole call
        for got, want in _simulations(trials, chunk):
            assert got == want
        _check_hom(trials, chunk)


@pytest.mark.parametrize("trials", [CHUNK + 1, 3 * CHUNK + 7])
def test_many_chunks_equal_the_streamed_draws(trials):
    # past one chunk the stages alternate chunk by chunk; the moments merged
    # across chunks differ from np.mean and np.std of all the estimates only
    # by rounding
    for got, want in _simulations(trials, CHUNK):
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    _check_hom(trials, CHUNK)


@pytest.mark.parametrize("simulate", [
    lambda n: simulate_coherent_mz(SimConfig(trials=n)),
    lambda n: simulate_homodyne_squeezed(
        SimConfig(trials=n, n_photons=100.0, eta=0.8), 0.5),
    lambda n: simulate_heralded_absorption(0.1, 10_000, True, n),
    lambda n: simulate_heralded_absorption(0.1, 10_000, False, n),
    lambda n: simulate_hom(n, distinguishable=True),
    lambda n: simulate_hom(n, distinguishable=False),
], ids=["mz", "homodyne", "absorption-heralded", "absorption-coherent",
        "hom-distinguishable", "hom-indistinguishable"])
def test_simulation_holds_no_trial_array(simulate):
    # after a warm-up run, a few chunk-sized arrays (the draws, the estimates
    # and their deviations) and the generator, whatever the trial count
    simulate(CHUNK + 1)
    for trials in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            simulate(trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_CHUNKS * 8 * CHUNK, (trials, peak)


def _max_rss_kib(*argv):
    """Peak RSS (VmHWM) of a fresh process running the CLI on argv, in KiB.

    The child reads its own: the ru_maxrss that wait4 reports would carry
    the spawning process's peak across the exec.
    """
    child = ("import sys\n"
             "from qoptkit.cli import run\n"
             "status = run(sys.argv[1:])\n"
             "with open('/proc/self/status') as f:\n"
             "    hwm = [l for l in f if l.startswith('VmHWM:')]\n"
             "print(hwm[0].split()[1], file=sys.stderr)\n"
             "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", child, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1])


@pytest.mark.parametrize("argv", [["mz"], ["absorption"]],
                         ids=["mz", "absorption-coherent"])
def test_largest_simulation_adds_no_trial_array_in_a_fresh_process(argv):
    # at MAX_TRIALS a run may add 16 MiB of allocator slack to a 100-trial
    # run; one trial-sized array would add 64 MiB
    small = _max_rss_kib("simulate", *argv, "--trials", "100")
    large = _max_rss_kib("simulate", *argv, "--trials", str(MAX_TRIALS))
    assert large - small <= 16 * 2**10, (small, large)


def test_fringe_fit_loads_no_lapack_workspace_in_a_fresh_process():
    # an lstsq step lifted the peak by 1.5-1.7 MiB over a run that fits
    # nothing; the closed-form step adds about 0.3 MiB
    small = _max_rss_kib("simulate", "mz", "--trials", "100")
    fringe = _max_rss_kib("simulate", "noon-fringe")
    assert fringe - small <= 768, (small, fringe)
