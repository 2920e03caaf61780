"""The input domain: the one place that decides whether an input is acceptable.

Every failure is a ValueError that names the input or the limit. The limits
below are the input envelope: every support, grid and trial count passes
check_size before anything of that length is allocated.
"""
from __future__ import annotations

import math

import numpy as np

# Each size limit keeps the largest call near 250 MB: a heralding posterior
# holds about a dozen float arrays of its support length, a grid dataset
# about 250 bytes per cell through serialization, a simulation about 32
# bytes per trial.
MAX_SUPPORT = 2**21
MAX_CELLS = 2**20
MAX_TRIALS = 2**23
# numpy's Poisson sampler refuses means above about 9.2e18
MAX_PHOTONS = 1e18


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


def check_size(n: int, limit: int = MAX_SUPPORT,
               unit: str = "support points") -> int:
    """n unchanged, or a ValueError naming the limit when n exceeds it."""
    if n > limit:
        raise ValueError(f"this input needs {n} {unit}, over the limit "
                         f"of {limit}")
    return n
