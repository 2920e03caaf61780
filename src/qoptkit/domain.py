"""The input domain: the one place that decides whether an input is acceptable.

Every failure is a ValueError that names the input or the limit. The limits
below are the input envelope: every support, grid and trial count is checked
against them before anything of that length is allocated. The named domains
after them are read both by the CLI flags' types and by the library checks.
"""
from __future__ import annotations

import math

import numpy as np

# MAX_SUPPORT and MAX_CELLS keep the largest call near 250 MB: a heralding
# posterior holds about a dozen float arrays of its support length, and a
# conditional table at most that many cells; a grid dataset about 250 bytes
# per cell through serialization. A simulation streams its trials in chunks,
# so MAX_TRIALS bounds its run time, not its memory.
MAX_SUPPORT = 2**21
MAX_CELLS = 2**20
MAX_TRIALS = 2**23
# numpy's Poisson sampler refuses means above about 9.2e18
MAX_PHOTONS = 1e18

# (lo, hi, lo_closed, hi_closed) for require_in, or (lo, hi) of ints
POSITIVE = (0.0, math.inf)
PHOTONS = (0.0, MAX_PHOTONS, False, True)
# n0 = 2 n_sig >= 1 photons: the Heisenberg bound 1/n0 needs one, and so
# does a single NOON state, whose precision with less would beat the floor
ONE_PHOTON_N_SIG = (0.5, MAX_PHOTONS, True, True)
EFFICIENCY = (2.0**-1022, 1.0, True, True)  # normal, so (1-eta)/eta is finite
# normal, so the homodyne dphi ~ 1/(2 alpha) is finite
AMPLITUDE = (2.0**-1022, math.inf, True, False)
TARGET_RATE = (0.0, 2.0**1022)  # 4 rate/N^2 stays below the largest float
# the homodyne sum of squares, ~trials/(4 alpha^2 eta), stays finite
HOMODYNE_EFFICIENCY = (1e-300, 1.0, True, True)
TRANSMISSION = (0.0, 1.0, True, True)
LOG_LOSS = (2.0**-54, 1.0)  # from here up 1 - eta < 1 in floating point
COMPARE_N_SIG = (0.5, 100.0, True, True)
EPSILON = (0.0, 1.0, True, False)  # (1-eps)*eps^N is unnormalizable at 1
ABSORPTION = (0.0, 1.0)
PHASE = (-math.pi, math.pi, True, True)
# the count-difference estimator linearizes the fringe around pi/2; past
# 0.35 off it the fringe curvature biases it beyond the advertised std
MZ_PHASE = (math.pi / 2.0 - 0.35, math.pi / 2.0 + 0.35, True, True)
MZ_N0 = (100.0, MAX_PHOTONS, True, True)  # the counting regime
SEED = (0, 2**64 - 1)
N_DET = (0, 2**53)
NOON_N = (1, 2**53)
ABSORPTION_N_SIG = (1, int(MAX_PHOTONS))
GRID_POINTS = (2, MAX_CELLS)
PHASE_POINTS = (5, MAX_CELLS)  # at least 5 phase points resolve the fringe
TRIALS = (1, MAX_TRIALS)
STD_TRIALS = (100, MAX_TRIALS)  # a meaningful std estimate
HOM_TRIALS = (1000, MAX_TRIALS)  # enough trials to resolve the rate


def require_in(x, name: str, lo: float, hi: float = math.inf,
               lo_closed: bool = False, hi_closed: bool = False) -> np.ndarray:
    """x as a float array, after checking every entry is finite and in range.

    The interval runs from lo to hi, open at each end unless closed there.
    Only the least and the greatest entry are compared: NaN propagates into
    both and fails every comparison. The ValueError names the input and its
    first bad entry.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        least = most = float(a)
    elif a.size:
        least, most = float(a.min()), float(a.max())
    else:
        return a
    if ((least >= lo if lo_closed else least > lo)
            and (most <= hi if hi_closed else most < hi)
            and -math.inf < least and most < math.inf):
        return a
    ok = (np.isfinite(a) & (a >= lo if lo_closed else a > lo)
          & (a <= hi if hi_closed else a < hi))
    bad = float(a.reshape(-1)[~ok.reshape(-1)][0])
    interval = "%s%g, %g%s" % ("[" if lo_closed else "(", lo, hi,
                               "]" if hi_closed else ")")
    raise ValueError(f"{name} must be finite and lie in {interval}, "
                     f"got {bad!r}")


def require_int(n, name: str, lo: int, hi: float = 2**53):
    """n unchanged, after checking it is a whole number in [lo, hi].

    Up to the default hi every count is exact as a float, so no float
    expression downstream overflows or rounds it.
    """
    if lo <= n <= hi and n % 1 == 0:
        return n
    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {n!r}")


def require_grid(values, name: str, lo: float, hi: float = math.inf,
                 lo_closed: bool = False, hi_closed: bool = False) -> np.ndarray:
    """values as a nonempty 1-d float array whose entries pass require_in."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    return require_in(a, name, lo, hi, lo_closed, hi_closed)


def require_observable(n_det: int, eps: float, eta: float,
                       bucket: bool = False) -> int:
    """n_det unchanged, or a ValueError: a count above 0 (a bucket click is
    one) needs a twin-beam pair, eps > 0, and a detector that sees it, eta >
    0 (the probe side's detector is ideal, eta = 1)."""
    if n_det <= 0 or (eps > 0.0 and eta > 0.0):
        return n_det
    zero = f"eps = {eps}" if eps == 0.0 else f"eta = {eta}"
    raise ValueError(f"bucket click impossible: {zero} gives P(N_det >= 1) = 0"
                     if bucket else
                     f"P(N_det = {n_det}) = 0 at {zero}: observation impossible")


def check_size(n: int, limit: int = MAX_SUPPORT,
               unit: str = "support points") -> int:
    """n unchanged, or a ValueError naming the limit when n exceeds it."""
    if n > limit:
        raise ValueError(f"this input needs {n} {unit}, over the limit "
                         f"of {limit}")
    return n
