"""qoptkit benchmark: cold CLI, warm sweeps, heralding pmfs, Monte-Carlo.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --tiny                  # smoke run: names check
    python3 bench/run.py --scaling               # per-layer scaling report

Run from anywhere; the package is imported from ../src, not installed. Each
workload runs in fresh worker processes (bench/worker.py). Set-up is timed
from the spawn of a fresh interpreter to its first timed op, three times
per run, and reported as the median. The untraced run (--trace 0) reports
the end-to-end metrics; the traced run (--trace 1) the per-layer ones. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
`correct` is false when any op fails in a way that is not the documented
posterior-truncation defect; such known failures still count in `failed`.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-cold", "sweep-warm", "heralding", "montecarlo")
SETUPS = 3
# one worker may take this long before it is killed; a run must end in 180 s
WORKER_TIMEOUT_S = 150.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json names it."""
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return seconds to its READY line and its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return t_ready, json.loads(lines[-1]) if lines else None


def fresh_process_s(code: str, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def machine_facts(repeats: int) -> dict:
    """Facts printed with every result; not gated."""
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "python_pass_s": fresh_process_s("pass", repeats),
        "import_numpy_s": fresh_process_s("import numpy", repeats),
        "src_lines": src_lines(),
    }


def tail(lat_ms: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it."""
    lat = sorted(lat_ms)
    k = len(lat) - 10
    if k < 1:
        return lat[-1], "max (fewer than 11 samples)"
    return lat[k - 1], f"p{100.0 * k / len(lat):.1f}"


def end_to_end(run: dict, setups: list[float],
               children: bool) -> tuple[dict, dict]:
    """(metrics, notes) from one untraced worker run."""
    lat_ms = [1e3 * x for x in run["lat_s"]]
    n = len(lat_ms)
    tail_ms, pct = tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": run["ok"] / run["timed_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "cpu_ms_per_op": 1e3 * run["cpu_s"] / n,
        "peak_rss_mb": run["rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh starts",
        "ops_per_s": f"{run['ok']} verified ops / {run['timed_s']:.3f} s timed",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"{pct}, n={n}",
        "cpu_ms_per_op": f"n={n}",
        "peak_rss_mb": "max over the CLI processes" if children else
                       "worker process",
    }
    return metrics, notes


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   tiny: bool) -> dict:
    extra = ["--tiny"] if tiny else []
    setups = [spawn([name, str(seed), str(seconds), "setup", *extra])[0]
              for _ in range(0 if tiny else SETUPS - 1)]
    t_ready, result = spawn([name, str(seed), str(seconds),
                             "trace" if trace else "run", *extra])
    setups.append(t_ready)
    metrics, notes = end_to_end(result["run"], setups, name == "cli-cold")
    runs = [result["run"]] + ([result["traced"]] if trace else [])
    failed = {}
    for r in runs:
        for kind, count in r["failed"].items():
            failed[kind] = failed.get(kind, 0) + count
    return {
        "workload": name,
        "metrics": metrics,
        "notes": notes,
        "layers": result.get("layers", {}),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "examples": result["run"]["examples"],
        "import": result["import"],
        "blas_threads": result["blas_threads"],
    }


def report(res: dict, trace: bool, facts: dict) -> dict:
    """Print one workload's table and return its result object."""
    units = metric_units()
    name = res["workload"]
    attempted = res["attempted"]
    n_failed = sum(res["failed"].values())
    print(f"== {name}: {attempted} ops attempted, {n_failed} failed "
          f"(fail_ratio {n_failed / attempted:.4f} 1; "
          f"{res['failed'].get('known', 0)} known, "
          f"{res['failed'].get('unexpected', 0)} unexpected)")
    for example in res["examples"]:
        print(f"   failure: {example}")
    if trace:
        metrics = res["layers"]
        for key, value in sorted(metrics.items()):
            print(f"   {name:<11} {key:<36} {value:>16.6g}")
    else:
        metrics = res["metrics"]
        for key, value in metrics.items():
            print(f"   {name:<11} {key:<14} {value:>14.4f} "
                  f"{units[key]:<4} {res['notes'][key]}")
    print("   facts " + json.dumps(dict(facts, blas_threads=res["blas_threads"],
                                          **{f"import_{k}": v for k, v in
                                             res["import"].items()})))
    return {"correct": res["failed"].get("unexpected", 0) == 0,
            "attempted": attempted, "failed": n_failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a handful of ops per workload, traced and not; "
                         "fails unless every metric name is printed")
    ap.add_argument("--scaling", action="store_true",
                    help="per-layer time against n_max, grid cells, trials")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qoptkit", "__init__.py")):
        print(f"error: no qoptkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.scaling:
        import scaling
        return scaling.main(ROOT)
    if args.tiny:
        return tiny_check()
    facts = machine_facts(1 if args.seconds < 1 else 3)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [report(bench_workload(n, args.seed, args.seconds,
                                         bool(args.trace), False),
                          bool(args.trace), facts) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}/{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


def tiny_check() -> int:
    """Every workload, a few ops, both modes: every metric must print.

    Fails when a metric of BENCHMARK.json is missing, or when an op fails
    in a way that is not the known defect.
    """
    spec = load_spec()
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    facts = machine_facts(1)
    missing = []
    for name in WORKLOADS:
        for trace in (0, 1):
            out = report(bench_workload(name, 7, 0.5, bool(trace), True),
                         bool(trace), facts)
            missing += [f"{name} --trace {trace}: {m}" for m in want[trace]
                        if m not in out["metrics"]]
            if not out["correct"]:
                missing.append(f"{name} --trace {trace}: unexpected failure")
    for m in missing:
        print(f"tiny: missing {m}")
    print(json.dumps({"tiny": "ok" if not missing else "failed",
                      "missing": missing}))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
