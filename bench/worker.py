"""One benchmark process: set up from a fresh interpreter, then run ops.

    python bench/worker.py WORKLOAD SEED SECONDS MODE [--tiny]

MODE is `setup` (set up, print READY, exit), `run` (closed loop, one
client, untraced) or `trace` (half the time untraced, then half traced, on
the same op sequence). Set-up is `import qoptkit`, generating the first
block of inputs and one untimed warm-up op; READY marks the first timed
op. The last stdout line is one JSON object with the raw measurements.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# first, before the harness loads numpy, so that the import is measured whole
IMPORT = tracing.import_qoptkit(ROOT) if __name__ == "__main__" else None

import reference as ref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# ops per block in the smoke run (--tiny)
TINY_OPS = 4


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it has one."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def closed_loop(wl, seconds: float, tiny: bool, tracer=None,
                min_ops: int = 0) -> dict:
    """Run whole blocks of ops, one op at a time, while they fit in `seconds`.

    A new block starts only if the last one would still end in time, so
    every run does the same mix; the first block always runs, and so do
    blocks until `min_ops` ops are done. Each op is timed alone; its
    reference check runs after the clock stops.
    """
    who = resource.RUSAGE_CHILDREN if wl.cpu_children else resource.RUSAGE_SELF
    lat, cpu, ok = [], 0.0, 0
    failed, layer_failed = Counter(), Counter()
    examples: list[str] = []
    t_start = time.perf_counter()
    for block in wl.blocks():
        t_block = time.perf_counter()
        for op in block[:TINY_OPS] if tiny else block:
            r0, t0 = resource.getrusage(who), time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.run_op(
                    len(lat), op.run)
                error = None
            except Exception as exc:  # noqa: BLE001 - an op failure is data
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1, r1 = time.perf_counter(), resource.getrusage(who)
            lat.append(t1 - t0)
            cpu += (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
            reason = error or op.check(out)
            if reason is None:
                ok += 1
            else:
                known = reason.startswith(ref.KNOWN_TRUNCATION)
                failed["known" if known else "unexpected"] += 1
                layer_failed[op.layer] += 1
                if len(examples) < 8 and (not known or len(examples) < 2):
                    examples.append(f"{op.kind}: {reason}")
        now = time.perf_counter()
        if tiny or (len(lat) >= min_ops
                    and now - t_start + (now - t_block) > seconds):
            break
    return {"lat_s": lat, "cpu_s": cpu, "ok": ok, "attempted": len(lat),
            "timed_s": sum(lat), "wall_s": time.perf_counter() - t_start,
            "failed": dict(failed), "layer_failed": dict(layer_failed),
            "examples": examples,
            "rss_kb": resource.getrusage(who).ru_maxrss}


def cli_spans(spans_dir: str) -> tuple[dict, Counter, dict, dict]:
    """Spans, counts and maxima of every cli-cold child, plus their imports."""
    parts, counts, maxima, imports = [], Counter(), {}, []
    for name in sorted(os.listdir(spans_dir)):
        spans, c, m = tracing.load(os.path.join(spans_dir, name))
        parts.append(spans)
        imports.append({k[len("import."):]: v for k, v in c.items()
                        if k.startswith("import.")})
        counts.update({k: v for k, v in c.items()
                       if not k.startswith("import.")})
        for k, v in m.items():
            maxima[k] = max(maxima.get(k, 0.0), v)
    return tracing.merge(parts), counts, maxima, imports


def per_layer(run: dict, traced: dict, spans: dict, counts, maxima,
              imports: list[dict]) -> dict:
    """The per-layer metrics: times and counts per op, peaks as peaks."""
    busy, own, calls, by_name = tracing.layer_times(spans)
    n = traced["attempted"]

    def ms(seconds):
        return 1e3 * seconds / n

    def all_calls(fn):
        return counts.get(f"boundary:{fn}", 0) + counts.get(f"inner:{fn}", 0)

    mc_sampling_s = busy.get("montecarlo", 0.0) - busy.get(tracing.FIT, 0.0)
    draws = counts.get("montecarlo.draws", 0)
    m = {
        "import.qoptkit_s": statistics.median(i["qoptkit_s"] for i in imports),
        "import.modules_loaded": imports[-1]["modules_loaded"],
        "import.scipy_modules": imports[-1]["scipy_modules"],
        "cli.parse_ms": ms(busy.get(tracing.PARSE, 0.0)),
        "cli.self_ms": ms(own.get("cli", 0.0)),
        "figures.self_ms": ms(own.get("figures", 0.0)),
        "noon.optimal_n_calls": all_calls("noon.noon_optimal_n") / n,
        "states.support_len_max": maxima.get("states.support_len_max", 0),
        "states.support_len_sum": counts.get("states.support_len_sum", 0) / n,
        "conditioning.inner_posterior_calls": counts.get(
            "inner:conditioning.posterior_number_resolving", 0) / n,
        "conditioning.thinning_matrix_bytes": maxima.get(
            "conditioning.thinning_matrix_bytes", 0),
        "conditioning.failed": traced["layer_failed"].get("conditioning", 0) / n,
        "montecarlo.draws": draws / n,
        "montecarlo.draws_per_s": draws / mc_sampling_s if mc_sampling_s else 0.0,
        "montecarlo.fit_ms": ms(busy.get(tracing.FIT, 0.0)),
        "dataset.rows": counts.get("dataset.rows", 0) / n,
        "dataset.bytes_out": counts.get("dataset.bytes_out", 0) / n,
        "dataset.csv_ms": ms(by_name.get("dataset.to_csv", 0.0)),
        "dataset.json_ms": ms(by_name.get("dataset.to_json", 0.0)),
        "dataset.write_ms": ms(by_name.get("dataset.write_text_atomic", 0.0)),
        "trace.overhead_ratio": (traced["ok"] / traced["timed_s"])
        / (run["ok"] / run["timed_s"]),
    }
    for layer in ("limits", "noon", "squeezed", "conditioning"):
        m[f"{layer}.calls"] = calls.get(layer, 0) / n
    for layer in ("limits", "noon", "squeezed", "states", "conditioning",
                  "montecarlo"):
        m[f"{layer}.busy_ms"] = ms(busy.get(layer, 0.0))
    return m


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    tiny = "--tiny" in argv[4:]
    out_dir = os.path.join(ROOT, "bench", "_run", f"{name}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        wl = WORKLOADS[name](seed, tiny, out_dir, ROOT)
        wl.block(0)  # input generation belongs to set-up; the loop redraws it
        warm = wl.warm_up()
        reason = warm.check(warm.run())
        if reason is not None:
            print(f"error: warm-up op failed: {reason}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        if mode == "setup":
            return 0
        result = {"import": IMPORT, "blas_threads": blas_threads()}
        if mode == "run":
            result["run"] = closed_loop(wl, seconds, tiny)
        else:
            # the traced half must see every kind of op at least once
            result["run"] = closed_loop(wl, seconds / 2, tiny,
                                        min_ops=wl.kinds)
            if name == "cli-cold":
                # each CLI child records its own spans (cli_shim.py)
                wl.spans_dir = os.path.join(out_dir, "spans")
                os.makedirs(wl.spans_dir)
                traced = closed_loop(wl, seconds / 2, tiny, min_ops=wl.kinds)
                spans, counts, maxima, imports = cli_spans(wl.spans_dir)
            else:
                tracer = tracing.Tracer()
                tracer.install()
                traced = closed_loop(wl, seconds / 2, tiny, tracer,
                                     min_ops=wl.kinds)
                spans, counts, maxima, imports = (
                    tracer.spans(), tracer.counts, tracer.maxima, [IMPORT])
            tracing.save(os.path.join(ROOT, "bench", "_run",
                                      f"spans-{name}.npz"),
                         spans, counts, maxima)
            result["traced"] = traced
            result["layers"] = per_layer(result["run"], traced, spans, counts,
                                         maxima, imports)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
