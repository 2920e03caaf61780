import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from qoptkit import (
    DEFAULT_SEED,
    SimConfig,
    SimReport,
    simulate_coherent_mz,
    simulate_heralded_absorption,
    simulate_hom,
    simulate_homodyne_squeezed,
    simulate_noon_fringe,
    squeezed_precision,
)
from qoptkit.domain import MAX_TRIALS
from qoptkit.montecarlo import CHUNK


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    with pytest.raises(ValueError):
        SimConfig(n_photons=0.0)
    with pytest.raises(ValueError):
        SimConfig(eta=0.0)
    with pytest.raises(ValueError):
        SimConfig(eta=1.2)
    assert SimConfig().seed == DEFAULT_SEED


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


# trial counts around the chunk edges of the second draw stage
CHUNK_EDGES = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def _moments(report):
    return (report.estimate_mean, report.estimate_std,
            report.std_error_of_std)


@pytest.mark.parametrize("trials", CHUNK_EDGES)
def test_simulations_equal_the_one_shot_draws_at_chunk_edges(trials):
    # chunked draws and in-place moments reproduce one whole sampler call
    # per stage followed by np.mean and np.std(ddof=1), bit for bit
    cfg = SimConfig(seed=trials, trials=trials, phase=1.8, n_photons=4.7e4,
                    eta=0.3)
    assert _moments(simulate_coherent_mz(cfg)) == oracles.one_shot_mz(
        trials, trials, 1.8, 4.7e4, 0.3)
    assert _moments(simulate_homodyne_squeezed(cfg, 0.4)) == \
        oracles.one_shot_homodyne(trials, trials, 1.8, 4.7e4, 0.3, 0.4)
    for heralded in (True, False):
        got = simulate_heralded_absorption(0.2, 37, heralded, trials, 5)
        assert _moments(got) == oracles.one_shot_absorption(
            5, trials, 0.2, 37, heralded)
    for distinguishable in (True, False):
        rate = simulate_hom(trials, distinguishable, seed=trials)
        assert type(rate) is float
        assert rate == oracles.one_shot_hom(trials, trials, distinguishable)


MEMORY_TRIALS = 200_000


@pytest.mark.parametrize("simulate, bytes_per_trial", [
    (lambda n: simulate_coherent_mz(SimConfig(trials=n)), 8),
    (lambda n: simulate_homodyne_squeezed(
        SimConfig(trials=n, n_photons=100.0, eta=0.8), 0.5), 8),
    (lambda n: simulate_heralded_absorption(0.1, 10_000, True, n), 8),
    (lambda n: simulate_heralded_absorption(0.1, 10_000, False, n), 8),
    (lambda n: simulate_hom(n, distinguishable=True), 1),
    (lambda n: simulate_hom(n, distinguishable=False), 0),
], ids=["mz", "homodyne", "absorption-heralded", "absorption-coherent",
        "hom-distinguishable", "hom-indistinguishable"])
def test_simulation_holds_at_most_one_trial_array(simulate, bytes_per_trial):
    # one 8-byte array of the trial length, or for distinguishable HOM one
    # boolean port; plus a few int64 chunks (the second stage's draws and the
    # copies a conversion makes) and the generator
    tracemalloc.start()
    try:
        simulate(MEMORY_TRIALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_trial * MEMORY_TRIALS + 32 * CHUNK


def _max_rss_kib(*argv):
    """ru_maxrss of a fresh `python -m qoptkit.cli` process, in KiB."""
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "qoptkit.cli", *argv],
        os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss


def test_largest_simulation_adds_one_trial_array_in_a_fresh_process():
    # at MAX_TRIALS the MZ run may add 8 bytes per trial (64 MiB) to a
    # 100-trial run, plus 16 MiB for chunks and allocator slack; a second
    # trial-sized array would add 64 MiB more
    small = _max_rss_kib("simulate", "mz", "--trials", "100")
    large = _max_rss_kib("simulate", "mz", "--trials", str(MAX_TRIALS))
    assert large - small <= (8 * MAX_TRIALS + 16 * 2**20) // 1024
