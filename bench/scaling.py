"""Scaling report: per-layer time against the sizes that set the cost.

    python3 bench/run.py --scaling

Not gated. Times single calls into each layer (median of 3 in one warm
process) against pmf support n_max, grid cells and Monte-Carlo trials,
prints one table line per point and, last, one JSON object with them all.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
import tempfile
import time

N_MAX = (100, 300, 1000, 2500)
CELLS = (100, 1000, 10_000, 40_000)
TRIALS = (10_000, 100_000, 1_000_000)
REPEATS = 3


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def points(q, np, out_dir):
    for n_max in N_MAX:
        # coherent mean whose default support (mean + 12 sqrt(mean)) is n_max
        mean = ((-12.0 + math.sqrt(144.0 + 4.0 * n_max)) / 2.0) ** 2
        pmf = q.coherent_pmf(mean, n_max)
        eps = math.exp(math.log(1e-16) / n_max)
        state = q.PdcTwinBeam(eps)
        yield "n_max", n_max, "states.coherent_pmf", timed(
            lambda: q.coherent_pmf(mean, n_max))
        yield "n_max", n_max, "conditioning.apply_loss", timed(
            lambda: q.apply_loss(pmf, q.LossChannel(0.7)))
        if n_max <= 1000:
            yield "n_max", n_max, "conditioning.posterior_bucket", timed(
                lambda: q.posterior_bucket(state, q.LossChannel(0.5)))
        yield "n_max", n_max, "conditioning.posterior_number_resolving", timed(
            lambda: q.posterior_number_resolving(state, 3, q.LossChannel(0.5)))
    for cells in CELLS:
        side = round(math.sqrt(cells))
        builders = {
            "squeezed.noon_vs_squeezed_grid": lambda: q.noon_vs_squeezed_grid(
                1.0 - np.logspace(math.log10(0.5), -3.0, side),
                np.logspace(0.0, 2.0, cells // side)),
            "noon.noon_precision_curve": lambda: q.noon_precision_curve(
                0.9, np.logspace(0.0, 4.0, cells)),
            "figures.fig_limits": lambda: q.fig_limits(
                np.logspace(0.0, 6.0, cells)),
            "figures.fig_noon_loss": lambda: q.fig_noon_loss(
                np.linspace(0.5, 0.99, cells)),
            "figures.fig_squeezed_loss": lambda: q.fig_squeezed_loss(
                np.linspace(0.01, 1.0, cells)),
        }
        for name, build in builders.items():
            yield "cells", cells, name, timed(build)
        ds = builders["figures.fig_limits"]()
        text = ds.to_csv()
        yield "cells", cells, "dataset.to_csv", timed(ds.to_csv)
        yield "cells", cells, "dataset.to_json", timed(ds.to_json)
        path = os.path.join(out_dir, "scaling.csv")
        yield "cells", cells, "dataset.write_text_atomic", timed(
            lambda: q.write_text_atomic(path, text))
    for trials in TRIALS:
        cfg = q.SimConfig(trials=trials)
        yield "trials", trials, "montecarlo.simulate_coherent_mz", timed(
            lambda: q.simulate_coherent_mz(cfg))
        yield "trials", trials, "montecarlo.simulate_homodyne_squeezed", timed(
            lambda: q.simulate_homodyne_squeezed(cfg, 0.5))
        yield "trials", trials, "montecarlo.simulate_heralded_absorption", timed(
            lambda: q.simulate_heralded_absorption(0.1, 10_000, False, trials))
        yield "trials", trials, "montecarlo.simulate_hom", timed(
            lambda: q.simulate_hom(trials, True))
        yield "trials", trials, "montecarlo.simulate_noon_fringe", timed(
            lambda: q.simulate_noon_fringe(33, trials))


def main(root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np

    import qoptkit as q
    run_dir = os.path.join(root, "bench", "_run")
    os.makedirs(run_dir, exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory(dir=run_dir) as out_dir:
        for axis, size, call, ms in points(q, np, out_dir):
            print(f"{axis:<7} {size:>9} {call:<44} {ms:>12.3f} ms", flush=True)
            rows.append({"axis": axis, "size": size, "call": call, "ms": ms})
    print(json.dumps({"scaling": rows}))
    return 0
