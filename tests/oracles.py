"""Independent brute-force / Monte-Carlo oracles used by the test suite.

Everything in here is deliberately written against the library: pure-python
enumeration with math.comb, exact-ratio recurrences in 50-digit decimal
arithmetic, hand-rolled optimizers, and samplers that share no code path with
the implementations they check.
"""
from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext

import numpy as np

# geometric tail cutoff used by every enumeration below; tighter than the
# library's 1e-12 so oracle truncation never dominates a comparison
TAIL = 1e-15


def geometric_pmf_list(epsilon: float) -> list[float]:
    """Twin-beam marginal p(N) = (1-eps) eps^N, truncated to tail < TAIL."""
    if epsilon == 0.0:
        return [1.0]
    n_cut = math.ceil(math.log(TAIL) / math.log(epsilon))
    return [(1.0 - epsilon) * epsilon**n for n in range(n_cut + 1)]


def binom_pmf(k: int, n: int, p: float) -> float:
    if k < 0 or k > n:
        return 0.0
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def thin_pmf(pmf, eta: float) -> list[float]:
    """Direct double-sum binomial thinning."""
    out = [0.0] * len(pmf)
    for n_src, p_src in enumerate(pmf):
        for k in range(n_src + 1):
            out[k] += p_src * binom_pmf(k, n_src, eta)
    return out


def probe_side_number_resolving(epsilon: float, n_det: int,
                                eta: float) -> list[float]:
    """Enumerate: perfect detector reads N_det, probe then thinned.

    The twin beam is perfectly correlated, so conditioning on the count
    pins the probe at n_det before the loss.
    """
    del epsilon  # the perfect count removes all epsilon dependence
    start = [0.0] * (n_det + 1)
    start[n_det] = 1.0
    return thin_pmf(start, eta)


def probe_side_bucket(epsilon: float, eta: float) -> list[float]:
    """Enumerate: click removes N=0, renormalize, then thin."""
    pmf = geometric_pmf_list(epsilon)
    pmf[0] = 0.0
    total = sum(pmf)
    pmf = [p / total for p in pmf]
    return thin_pmf(pmf, eta)


def detector_side_joint(epsilon: float, eta: float) -> list[list[float]]:
    """joint[n][n_det] = p(N = n, N_det = n_det) with a lossy detector."""
    prior = geometric_pmf_list(epsilon)
    return [
        [p * binom_pmf(n_det, n, eta) for n_det in range(n + 1)]
        for n, p in enumerate(prior)
    ]


def detector_side_number_resolving(epsilon: float, n_det: int,
                                   eta: float) -> list[float]:
    joint = detector_side_joint(epsilon, eta)
    col = [row[n_det] if n_det < len(row) else 0.0 for row in joint]
    total = sum(col)
    return [c / total for c in col]


def detector_side_bucket(epsilon: float, eta: float) -> list[float]:
    joint = detector_side_joint(epsilon, eta)
    clicked = [sum(row[1:]) for row in joint]
    total = sum(clicked)
    return [c / total for c in clicked]


# -- exact pmfs in 50-digit decimal arithmetic --------------------------------
# math.comb times float powers overflows past n ~ 1030; these recurrences do
# not, and carry 50 significant digits, so they can judge 1e-15 differences.

DIGITS = 50


def _ratio_walk(first: Decimal, ratio, length: int) -> list[Decimal]:
    out = [first]
    for k in range(length - 1):
        out.append(out[-1] * ratio(k))
    return out


def exact_binomial(n: int, p: float) -> list[Decimal]:
    """Binomial(n, p) at k = 0..n for the float p taken exactly."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        dp = Decimal(p)
        if dp == 1:
            return [Decimal(0)] * n + [Decimal(1)]
        odds = dp / (1 - dp)
        return _ratio_walk((1 - dp) ** n, lambda k: odds * (n - k) / (k + 1),
                           n + 1)


def exact_poisson(mean: float, length: int) -> list[Decimal]:
    """Poisson(mean) at k = 0..length-1 for the float mean taken exactly."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam = Decimal(mean)
        return _ratio_walk((-lam).exp(), lambda k: lam / (k + 1), length)


def exact_thinned_geometric(epsilon: float, eta: float,
                            length: int) -> list[Decimal]:
    """Geometric (1-eps) eps^N thinned by eta: geometric in eps' =
    eta eps / (1 - eps + eta eps), at k = 0..length-1."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e, t = Decimal(epsilon), Decimal(eta)
        e2 = t * e / (1 - e + t * e)
        return _ratio_walk(1 - e2, lambda k: e2, length)


def exact_probe_bucket(epsilon: float, eta: float,
                       length: int) -> list[Decimal]:
    """Click-conditioned geometric (N >= 1) thinned by eta, for eps > 0.

    The prior is (1-eps) delta_0 + eps (1 + Geom(eps)), and thinning is
    linear, so the thinned click-conditioned law is the thinned geometric
    minus (1-eps) delta_0, divided by eps.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e = Decimal(epsilon)
        out = [x / e for x in exact_thinned_geometric(epsilon, eta, length)]
        out[0] -= (1 - e) / e
        return out


def exact_bayes(prior_ratio, likelihood_ratio, first: int,
                rel_cut: float = 1e-40) -> list[Decimal]:
    """Normalized prior x likelihood over N >= first, zeros below first.

    Both factors are given by their step ratios f(N+1)/f(N) at N; the walk
    runs until the unnormalized weights fall below rel_cut of their peak
    while still falling, so the mass left out is negligible at 1e-12.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w, n, peak = [Decimal(1)], first, Decimal(1)
        while True:
            nxt = w[-1] * prior_ratio(n) * likelihood_ratio(n)
            n += 1
            w.append(nxt)
            peak = max(peak, nxt)
            if nxt < w[-2] and nxt < peak * Decimal(rel_cut):
                break
        total = sum(w, Decimal(0))
        return [Decimal(0)] * first + [x / total for x in w]


def exact_posterior_number_resolving(epsilon: float, n_det: int,
                                     eta: float) -> list[Decimal]:
    """Bayes: prior (1-eps) eps^N, likelihood Binomial(N, eta) at n_det."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e, miss = Decimal(epsilon), 1 - Decimal(eta)
        return exact_bayes(lambda n: e,
                           lambda n: miss * (n + 1) / (n + 1 - n_det), n_det)


def exact_posterior_bucket(epsilon: float, eta: float) -> list[Decimal]:
    """Bayes: prior (1-eps) eps^N, likelihood of a click 1 - (1-eta)^N."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e, miss = Decimal(epsilon), 1 - Decimal(eta)
        return exact_bayes(
            lambda n: e, lambda n: (1 - miss ** (n + 1)) / (1 - miss ** n), 1)


def exact_tv(pmf, exact: list[Decimal]) -> float:
    """Total variation of a float pmf from an exact one of total mass one.

    Exact mass beyond the float pmf's support counts in full, so a truncated
    pmf pays for its missing tail.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        pmf = [Decimal(float(x)) for x in pmf]
        n = max(len(pmf), len(exact))
        pmf += [Decimal(0)] * (n - len(pmf))
        exact = list(exact) + [Decimal(0)] * (n - len(exact))
        dev = sum((abs(a - b) for a, b in zip(pmf, exact)), Decimal(0))
        dev += abs(1 - sum(exact, Decimal(0)))
        return float(dev / 2)


def total_variation(p, q) -> float:
    n = max(len(p), len(q))
    p = list(p) + [0.0] * (n - len(p))
    q = list(q) + [0.0] * (n - len(q))
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


# -- optimizers ------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_minimize(fn, lo: float, hi: float, tol: float = 1e-9,
                    max_iter: int = 200) -> float:
    """Golden-section search for a unimodal minimum on [lo, hi].

    fn may raise ValueError outside its domain; that counts as +inf so the
    bracket can start wider than the feasible region.
    """

    def safe(x: float) -> float:
        try:
            return fn(x)
        except ValueError:
            return math.inf

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = safe(c), safe(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = safe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = safe(d)
    return 0.5 * (a + b)


def noon_scan_best(eta: float, n_max: int = 200) -> tuple[int, float]:
    """Exhaustive integer scan of the NOON enhancement sqrt(N/(eta^-N + 1))."""
    best_n, best_e = 1, -1.0
    for n in range(1, n_max + 1):
        e = math.sqrt(n / ((1.0 / eta) ** n + 1.0))
        if e > best_e:
            best_n, best_e = n, e
    return best_n, best_e


# -- Monte-Carlo oracles ---------------------------------------------------


def noon_postselected_precision(n: int, eta: float, trials: int, repeats: int,
                                seed: int) -> tuple[float, float]:
    """MC estimate of the single-state NOON precision under probe-arm loss.

    Runs `repeats` experiments of `trials` input states each at the
    half-fringe point. Surviving-both-branches events keep a reduced-
    visibility fringe v = 2 eta^(N/2)/(eta^N + 1); lost-photon events are
    discarded (post-selection). Returns (std of the per-experiment phase
    estimate, its standard error), scaled back to a single input state by
    sqrt(trials).
    """
    rng = np.random.default_rng(seed)
    keep_p = (eta**n + 1.0) / 2.0
    vis = 2.0 * eta ** (n / 2.0) / (eta**n + 1.0)
    estimates = []
    for _ in range(repeats):
        kept = rng.binomial(trials, keep_p)
        if kept == 0:
            continue
        # operating point N*phi = pi/2: p(same) = (1 + vis*cos(N phi))/2 = 1/2
        same = rng.binomial(kept, 0.5)
        p_hat = same / kept
        # linear inversion around the operating point, slope -vis*N/2
        estimates.append(-2.0 * (p_hat - 0.5) / (vis * n))
    est = np.asarray(estimates)
    # scale the per-experiment spread back to a single input state
    std = float(np.std(est, ddof=1)) * math.sqrt(trials)
    return std, std / math.sqrt(2.0 * len(est))


# The seeded simulations in their draw order: the trials run in chunks of
# `chunk`, each chunk draws its stages in turn with one sampler call each, and
# the moments are np.mean and np.std(ddof=1) of all the estimates. With chunk
# >= trials that is one whole sampler call per stage, the order every golden
# output was drawn in. Streams are the library's per-experiment constants.

def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _moments(estimates) -> tuple[float, float, float]:
    """(mean, std, std error of the std) of a SimReport."""
    std = float(np.std(estimates, ddof=1))
    return (float(np.mean(estimates)), std,
            std / math.sqrt(2.0 * len(estimates)))


def _in_chunks(trials: int, chunk: int, draw) -> np.ndarray:
    """draw(m) for each chunk of m trials, in order, concatenated."""
    return np.concatenate([draw(min(chunk, trials - i))
                           for i in range(0, trials, chunk)])


def streamed_mz(seed: int, trials: int, chunk: int, phase: float, n0: float,
                eta: float) -> tuple[float, float, float]:
    rng = _philox(seed, 11)

    def count_difference(m):
        n_a = rng.poisson(eta * n0 * (1.0 + math.cos(phase)) / 2.0, m)
        n_b = rng.poisson(eta * n0 * (1.0 - math.cos(phase)) / 2.0, m)
        return n_a - n_b
    diff = _in_chunks(trials, chunk, count_difference)
    return _moments(math.pi / 2.0 - diff / (eta * n0))


def streamed_hom(seed: int, trials: int, chunk: int,
                 distinguishable: bool) -> float:
    rng = _philox(seed, 13)

    def split(m):
        port_1 = rng.integers(0, 2, m).astype(bool)
        port_2 = (rng.integers(0, 2, m).astype(bool) if distinguishable
                  else port_1)
        return port_1 != port_2
    return float(np.mean(_in_chunks(trials, chunk, split)))


def streamed_homodyne(seed: int, trials: int, chunk: int, phase: float,
                      alpha2: float, eta: float,
                      v_sqz: float) -> tuple[float, float, float]:
    rng = _philox(seed, 14)
    alpha = math.sqrt(alpha2)
    y = _in_chunks(trials, chunk, lambda m: rng.normal(
        2.0 * math.sqrt(eta) * alpha * phase,
        math.sqrt(eta * v_sqz + (1.0 - eta)), m))
    return _moments(y / (2.0 * alpha * math.sqrt(eta)))


def streamed_absorption(seed: int, trials: int, chunk: int, alpha_true: float,
                        n_sig: int, heralded: bool) -> tuple[float, float, float]:
    rng = _philox(seed, 15)

    def transmitted(m):
        if heralded:
            return rng.binomial(n_sig, 1.0 - alpha_true, m)
        # a Poisson(n_sig) source thinned by 1 - alpha_true, by its law
        return rng.poisson(n_sig * (1.0 - alpha_true), m)
    return _moments(1.0 - _in_chunks(trials, chunk, transmitted) / n_sig)


# -- serialization ---------------------------------------------------------
# The dataset writers as first written, one Python call per cell or per JSON
# token; the library's column-wise writers must reproduce their bytes.


def csv_reference(ds) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")  # RFC-4180 line endings
    w.writerow(ds.header())
    for row in ds.rows():
        w.writerow([format(x, ".17g") for x in row])
    return buf.getvalue()


def json_reference(ds) -> str:
    obj = {
        "figure_id": ds.figure_id,
        "axes": [
            {"name": a.name, "scale": a.scale, "values": a.values.tolist()}
            for a in ds.axes
        ],
        "columns": {k: v.tolist() for k, v in ds.columns.items()},
        "metadata": _jsonable(ds.metadata),
    }
    return json.dumps(obj, indent=2) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value
