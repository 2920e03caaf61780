"""Span tracing from outside the library, by wrapping its public functions.

install() replaces every public function of the qoptkit modules, wherever a
module global or a module-level dict refers to it, with a wrapper. A call
that crosses a layer boundary (the caller's layer differs from the
callee's) records a span; a call inside one layer records none but is still
counted, so counts such as the posterior calls made by the bucket mixture
are measured where the work happens.

Spans live in flat arrays in memory (name, start, end, parent, op id) and
are written out once, with save(), when the run ends. layer_times()
turns them into the per-layer metrics: busy time (wall time with at least one
call into the layer open), self time (a span minus its child spans) and
the counts made at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("limits", "noon", "squeezed", "states", "conditioning",
          "montecarlo", "figures", "dataset", "cli")
# argparse work inside cli.run and the fringe fit inside montecarlo get
# layers of their own, so that they form spans inside their callers
PARSE = "cli.parse"
FIT = "montecarlo.fit"
OP = "op"


def import_qoptkit(root: str) -> dict:
    """Import the package from root/src and measure what the import loads."""
    sys.path.insert(0, os.path.join(root, "src"))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import qoptkit  # noqa: F401
    seconds = time.perf_counter() - t0
    return {"qoptkit_s": seconds, "modules_loaded": len(sys.modules) - before,
            "scipy_modules": sum(1 for m in sys.modules
                                 if m == "scipy" or m.startswith("scipy."))}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [-1]
        self._layer_stack = [None]
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._layer_stack.append(layer)
        return idx

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn, recording a span unless the caller is in the same layer."""
        if self._layer_stack[-1] == layer:
            return fn(*args, **kwargs)
        idx = self._open(name, layer)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._layer_stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def run_op(self, op_id: int, fn):
        """Run one benchmark op under a root span carrying its id."""
        self.op_id = op_id
        return self.span(OP, OP, fn)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- installation --------------------------------------------------------

    def wrap(self, qualname: str, layer: str, fn):
        tracer = self
        hook = _HOOKS.get(qualname.rsplit(".", 1)[-1])
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            where = "inner" if tracer._layer_stack[-1] == layer else "boundary"
            tracer.counts[f"{where}:{qualname}"] += 1
            result = tracer.span(qualname, layer, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public qoptkit function in place; call once."""
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qoptkit.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    sub = PARSE if attr == "build_parser" else layer
                    replace[obj] = self.wrap(f"{layer}.{attr}", sub, obj)
        for name in [n for n in sys.modules if n.split(".")[0] == "qoptkit"]:
            space = vars(sys.modules[name])
            for attr, obj in list(space.items()):
                if inspect.isfunction(obj) and obj in replace:
                    space[attr] = replace[obj]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replace:
                            obj[key] = replace[val]
        from qoptkit.dataset import FigureDataset
        for meth in ("to_csv", "to_json"):
            setattr(FigureDataset, meth, self.wrap(
                f"dataset.{meth}", "dataset", getattr(FigureDataset, meth)))
        mc = importlib.import_module("qoptkit.montecarlo")
        fit = getattr(getattr(mc, "optimize", None), "curve_fit", None)
        if fit is not None:
            mc.optimize = _Proxy(mc.optimize,
                                 curve_fit=self.wrap(FIT, FIT, fit))

    # -- output --------------------------------------------------------------

    def spans(self) -> dict:
        import numpy as np
        return {"names": list(self.names), "layers": list(self.layers),
                "name": np.asarray(self.name), "start": np.asarray(self.start),
                "end": np.asarray(self.end), "parent": np.asarray(self.parent),
                "op": np.asarray(self.op)}

    def save(self, path: str) -> None:
        save(path, self.spans(), self.counts, self.maxima)


def save(path: str, spans: dict, counts: dict, maxima: dict) -> None:
    """Write spans and counters as one .npz file."""
    import json

    import numpy as np
    np.savez(path, names=np.array(spans["names"], dtype=str),
             layers=np.array(spans["layers"], dtype=str),
             counters=np.array(json.dumps({"counts": counts,
                                           "maxima": maxima})),
             **{k: spans[k] for k in ("name", "start", "end", "parent", "op")})


def load(path: str) -> tuple[dict, dict, dict]:
    """(spans, counts, maxima) as written by Tracer.save."""
    import json

    import numpy as np
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "start", "end", "parent", "op")}
        spans["names"] = [str(x) for x in z["names"]]
        spans["layers"] = [str(x) for x in z["layers"]]
        counters = json.loads(str(z["counters"]))
    return spans, counters["counts"], counters["maxima"]


class _Proxy:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **override):
        self._target = target
        self.__dict__.update(override)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


# -- counters computed from a call's arguments and result --------------------

def _support(tracer, a, result):
    n = len(result.pmf)
    tracer.count("states.support_len_sum", n)
    tracer.peak("states.support_len_max", n)


def _apply_loss(tracer, a, result):
    if a["channel"].eta != 1.0:
        tracer.peak("conditioning.thinning_matrix_bytes",
                    8 * len(a["d"].pmf) ** 2)


def _parser(tracer, a, parser):
    parse = parser.parse_args
    parser.parse_args = functools.partial(tracer.span, "cli.parse_args",
                                          PARSE, parse)


def _rows(tracer, a, result):
    tracer.count("dataset.rows", a["self"].n_rows)


def _bytes(tracer, a, result):
    tracer.count("dataset.bytes_out", len(a["text"]))


def _draws(per_call):
    def hook(tracer, a, result):
        tracer.count("montecarlo.draws", per_call(a))
    return hook


_HOOKS = {
    "coherent_pmf": _support,
    "pdc_marginal_pmf": _support,
    "delta_distribution": _support,
    "apply_loss": _apply_loss,
    "build_parser": _parser,
    "to_csv": _rows,
    "to_json": _rows,
    "write_text_atomic": _bytes,
    # random variates per call: trials times draws per trial
    "simulate_coherent_mz": _draws(lambda a: 2 * a["cfg"].trials),
    "simulate_homodyne_squeezed": _draws(lambda a: a["cfg"].trials),
    "simulate_heralded_absorption": _draws(
        lambda a: a["trials"] * (1 if a["heralded"] else 2)),
    "simulate_hom": _draws(
        lambda a: a["trials"] * (2 if a["distinguishable"] else 1)),
    "simulate_noon_fringe": _draws(lambda a: a["n_phase_points"]),
}


# -- aggregation -------------------------------------------------------------

def layer_times(spans: dict) -> tuple[dict, dict, dict, dict]:
    """Per layer: busy seconds, self seconds, boundary spans; per name: seconds.
    """
    import numpy as np
    layer_names = sorted(set(spans["layers"]))
    layer_id = np.array([layer_names.index(x) for x in spans["layers"]],
                        dtype=np.int64)
    nid, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    lay = layer_id[nid] if len(nid) else np.zeros(0, dtype=np.int64)
    child = np.zeros(len(dur))
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    # nearest ancestor in the same layer, by pointer jumping; a span
    # without one is outermost, and only those add to busy time
    anc = parent.copy()
    while True:
        step = (anc >= 0) & (lay[np.maximum(anc, 0)] != lay)
        if not step.any():
            break
        anc[step] = parent[anc[step]]
    outer = anc < 0
    n = len(layer_names)
    busy = np.bincount(lay[outer], weights=dur[outer], minlength=n)
    own = np.bincount(lay, weights=dur - child, minlength=n)
    calls = np.bincount(lay, minlength=n)
    total = np.bincount(nid, weights=dur, minlength=len(spans["names"]))
    return ({x: float(busy[i]) for i, x in enumerate(layer_names)},
            {x: float(own[i]) for i, x in enumerate(layer_names)},
            {x: int(calls[i]) for i, x in enumerate(layer_names)},
            {x: float(total[i]) for i, x in enumerate(spans["names"])})


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets (e.g. one per child process) into one."""
    import numpy as np
    names, layers, ids = [], [], {}
    out = {k: [] for k in ("name", "start", "end", "parent", "op")}
    offset = 0
    for p in parts:
        remap = []
        for nm, ly in zip(p["names"], p["layers"]):
            if nm not in ids:
                ids[nm] = len(names)
                names.append(nm)
                layers.append(ly)
            remap.append(ids[nm])
        remap = np.array(remap or [0], dtype=np.int64)
        out["name"].append(remap[p["name"]] if len(p["name"]) else p["name"])
        out["parent"].append(np.where(p["parent"] >= 0, p["parent"] + offset,
                                      -1))
        for k in ("start", "end", "op"):
            out[k].append(p[k])
        offset += len(p["start"])
    merged = {k: (np.concatenate(v) if v else np.zeros(0))
              for k, v in out.items()}
    for k in ("name", "parent", "op"):
        merged[k] = merged[k].astype(np.int64)
    merged["names"], merged["layers"] = names, layers
    return merged
