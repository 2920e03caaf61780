"""Independent reference values for every benchmark op.

Written from the paper's closed forms in plain numpy, math and decimal, so
that they share no code path with the library they check:

  analytic   precision bounds, NOON and squeezed optima: rtol 1e-9.
  pmfs       exact heralding posteriors and thinned distributions, evaluated
             by exact-ratio recurrences in 50-digit decimal arithmetic:
             total variation 1e-12 (the promise in states.py).
  sampling   seeded simulations: finite, and within 5 standard errors of
             the analytic value.

Every check returns None when the output is right and a short reason when
it is not. A reason that starts with KNOWN_TRUNCATION is the documented
posterior-truncation defect (the pmf equals the exact posterior restricted
to the prior's truncated support and renormalised); any other reason is an
unexpected failure.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

RTOL = 1e-9
PMF_TV = 1e-12
N_SE = 5.0
KNOWN_TRUNCATION = "known: posterior truncated at the prior's support"

# x* = -(1 + W(1/e)) solves x + e^x + 1 = 0, the NOON stationarity
# condition in x = N ln(eta); so N* = NOON_ROOT_X / ln(eta).
NOON_ROOT_X = -1.278464542761074
# the library searches photon numbers N <= 200 per NOON state
NOON_N_MAX = 200


# -- analytic closed forms ---------------------------------------------------

def close(name: str, got, want, rtol: float = RTOL) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if want.ndim == 0:
        want = np.broadcast_to(want, got.shape)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != {want.shape}"
    if not np.all(np.isfinite(got)):
        return f"{name}: non-finite output"
    bad = ~np.isclose(got, want, rtol=rtol, atol=0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        return (f"{name}: {got.reshape(-1)[i]!r} != {want.reshape(-1)[i]!r} "
                f"(rtol {rtol})")
    return None


def first_failure(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def sql_sample(n):
    return 1.0 / (2.0 * np.sqrt(n))


def loss_floor(n, eta):
    return np.sqrt((1.0 - eta) / eta) / (2.0 * np.sqrt(n))


def squeezed_vacuum_crb(n):
    return 1.0 / (2.0 * math.sqrt(2.0) * np.sqrt(n * n + n))


def noon_root(eta):
    return NOON_ROOT_X / np.log(eta)


def noon_enhancement(n, eta):
    return np.sqrt(n / (np.power(eta, -n) + 1.0))


def noon_optimum(eta):
    """(n_opt, enhancement): integer argmax next to the closed-form root.

    The enhancement is unimodal in N, so the best admissible N is one of
    the integers around the root, or the search bound past it.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    root = noon_root(eta)
    base = np.maximum(1.0, np.floor(root) - 1.0)
    cands = np.minimum(base[:, None] + np.arange(4.0)[None, :], NOON_N_MAX)
    enh = noon_enhancement(cands, eta[:, None])
    pick = np.argmax(enh, axis=1)  # first maximum: ties keep the smaller N
    rows = np.arange(len(eta))
    return cands[rows, pick], enh[rows, pick]


def noon_delta_phi(n_state, eta, n_sig):
    return np.sqrt((np.power(eta, -n_state) + 1.0) / n_state) / (
        2.0 * np.sqrt(n_sig))


def noon_best_delta_phi(eta, n_sig, n_opt):
    """Single 2*n_sig-photon state below the kink n_opt/2, repeats above."""
    n_state = np.where(n_sig <= n_opt / 2.0, 2.0 * n_sig, n_opt)
    return noon_delta_phi(n_state, eta, n_sig), n_state


def squeezed_optimum(n_sig, eta):
    """(v_opt, photons in squeezing, delta_phi, enhancement)."""
    v = (eta + np.sqrt(4.0 * eta * (1.0 - eta) * n_sig + 1.0)) / (
        4.0 * eta * n_sig + eta + 1.0)
    cost = (v + 1.0 / v - 2.0) / 4.0
    dphi = np.sqrt((v + (1.0 - eta) / eta) / (4.0 * (n_sig - cost)))
    return v, cost, dphi, sql_sample(n_sig) / dphi


# -- exact photon-number pmfs ------------------------------------------------

def _recurrence_pmf(first: Decimal, ratio, length: int) -> list[Decimal]:
    """p[0] = first, p[k+1] = p[k] * ratio(k), in the caller's context."""
    out = [first]
    for k in range(length - 1):
        out.append(out[-1] * ratio(k))
    return out


def _d(x: float) -> Decimal:
    return Decimal(float(x))


def tv_distance(pmf, exact: list[Decimal]) -> float:
    """Total variation against an exact pmf whose total mass is one.

    exact covers at least len(pmf) entries. The mass it leaves out lies
    beyond the output's support and counts in full, so a truncated output
    pays for its missing tail.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        dev = sum(abs(_d(p) - q) for p, q in zip(pmf, exact))
        dev += sum(exact[len(pmf):], Decimal(0))
        dev += Decimal(1) - sum(exact, Decimal(0))
        return float(dev / 2)


def binomial_pmf(n: int, p: float) -> list[Decimal]:
    with localcontext() as ctx:
        ctx.prec = 50
        if p == 1.0:
            return [Decimal(0)] * n + [Decimal(1)]
        dp = _d(p)
        odds = dp / (1 - dp)
        return _recurrence_pmf((1 - dp) ** n,
                               lambda k: odds * (n - k) / (k + 1), n + 1)


def poisson_pmf(mean: float, length: int) -> list[Decimal]:
    with localcontext() as ctx:
        ctx.prec = 50
        lam = _d(mean)
        return _recurrence_pmf((-lam).exp(), lambda k: lam / (k + 1), length)


def posterior_number_resolving(eps: float, eta: float, n_det: int,
                               length: int) -> list[Decimal]:
    """N given N_det: n_det + NegBin(n_det + 1, q = eps (1 - eta))."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = _d(eps) * (1 - _d(eta))
        body = _recurrence_pmf((1 - q) ** (n_det + 1),
                               lambda k: q * (n_det + k + 1) / (k + 1),
                               max(length - n_det, 1))
        return [Decimal(0)] * n_det + body


def posterior_bucket(eps: float, eta: float, length: int) -> list[Decimal]:
    """N given a click: p(N) (1 - (1-eta)^N) / P(click)."""
    with localcontext() as ctx:
        ctx.prec = 50
        e, miss = _d(eps), 1 - _d(eta)
        p_click = e * _d(eta) / (1 - e * miss)
        out, prior, miss_n = [], (1 - e), Decimal(1)
        for _ in range(length):
            out.append(prior * (1 - miss_n) / p_click)
            prior *= e
            miss_n *= miss
        return out


def probe_bucket(eps: float, eta: float, length: int) -> list[Decimal]:
    """Click-conditioned geometric (N >= 1), thinned by eta.

    Thinning maps the geometric to a geometric with eps' = eta eps /
    (1 - eps + eta eps), and removing N = 0 before thinning removes
    (1 - eps) from the thinned zero bin.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        e, t = _d(eps), _d(eta)
        e2 = t * e / (1 - e + t * e)
        out = _recurrence_pmf((1 - e2) / e, lambda k: e2, length)
        out[0] -= (1 - e) / e
        return out


def pmf_check(name: str, pmf, exact: list[Decimal],
              may_truncate: bool) -> str | None:
    """TV check; may_truncate marks a detector-side number-resolving pmf."""
    pmf = [float(x) for x in pmf]
    if not all(math.isfinite(x) for x in pmf):
        return f"{name}: non-finite output"
    tv = tv_distance(pmf, exact)
    if tv <= PMF_TV:
        return None
    if may_truncate:
        with localcontext() as ctx:
            ctx.prec = 50
            head = exact[:len(pmf)]
            mass = sum(head, Decimal(0))
            if tv_distance(pmf, [q / mass for q in head]) <= PMF_TV:
                return f"{KNOWN_TRUNCATION}: {name} TV {tv:.3g}"
    return f"{name}: TV {tv:.3g} > {PMF_TV:g}"


# -- seeded simulations ------------------------------------------------------

def within_se(name: str, got: float, want: float, se: float) -> str | None:
    if not (math.isfinite(got) and math.isfinite(se)):
        return f"{name}: non-finite output"
    if abs(got - want) > N_SE * se:
        return (f"{name}: {got!r} is {abs(got - want) / se:.1f} standard "
                f"errors from {want!r}")
    return None


def sim_report(report, analytic: float) -> str | None:
    return first_failure(
        close("analytic_reference", report.analytic_reference, analytic),
        within_se("estimate_std", report.estimate_std, analytic,
                  report.std_error_of_std))


def fringe_rates(cols, trials: int) -> str | None:
    """Sampled same-detector rates against (1 + cos 2 phi)/2, point by point."""
    p = (1.0 + np.cos(2.0 * np.asarray(cols["phase"]))) / 2.0
    bad = close("probability", cols["probability"], p)
    if bad:
        return bad
    rates = np.asarray(cols["same_detector_rate"], dtype=float)
    se = np.sqrt(p * (1.0 - p) / trials)
    if not np.all(np.isfinite(rates)):
        return "same_detector_rate: non-finite output"
    pulls = np.abs(rates - p) - N_SE * se
    if np.any(pulls > 1e-12):
        i = int(np.argmax(pulls))
        return (f"same_detector_rate[{i}] = {rates[i]!r} is more than "
                f"{N_SE:g} standard errors from {p[i]!r}")
    return None
