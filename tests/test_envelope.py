"""The input envelope: every argv either prints a finite dataset or is refused.

A refusal is exit status 2 with a one-line diagnostic on stderr, made before
any large allocation. Exit 1 (an uncaught runtime failure) is always a bug.
Everything here runs cli.run in process at small sizes; the extreme inputs
are checked by their up-front rejection, never by allocating them.
"""
import contextlib
import io
import math
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoptkit import parse_csv
from qoptkit.cli import run
from qoptkit.domain import (
    MAX_CELLS,
    MAX_SUPPORT,
    MAX_TRIALS,
    check_size,
    require_grid,
    require_in,
    require_int,
)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def address_space_cap(margin=2**30):
    """Cap this process's address space a margin above its current size, so
    that a check that regresses fails with MemoryError (exit 1) instead of
    allocating the gigabytes it was meant to refuse."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:  # no /proc: the tracemalloc bound still catches it
        yield
        return
    resource.setrlimit(resource.RLIMIT_AS, (min(size + margin, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# -- the validator itself ----------------------------------------------------

@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, -1.0, 2.0))
def test_require_in_finds_the_first_bad_entry(bad):
    grid = np.linspace(0.1, 0.9, 9)
    grid[4], grid[7] = bad, 0.0
    with pytest.raises(ValueError, match=rf"^eta must be finite and lie in "
                                         rf"\(0, 1\], got {bad!r}$"):
        require_in(grid, "eta", 0.0, 1.0, hi_closed=True)


def test_require_in_bounds():
    assert require_in(0.0, "x", 0.0, 1.0, lo_closed=True) == 0.0
    assert require_in(1.0, "x", 0.0, 1.0, hi_closed=True) == 1.0
    for x in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^x must be finite and lie in "
                                             r"\(0, 1\)"):
            require_in(x, "x", 0.0, 1.0)
    assert require_in([], "x", 0.0).shape == (0,)
    # a closed infinite end still refuses the infinity itself
    with pytest.raises(ValueError, match="got -inf"):
        require_in(-math.inf, "x", -math.inf, lo_closed=True)


def test_require_int():
    assert require_int(3, "n", 1) == 3
    assert require_int(4.0, "n", 1) == 4.0
    assert require_int(2**64 - 1, "seed", 0, 2**64 - 1) == 2**64 - 1
    for n in (0, 2.5, math.nan, math.inf, 2**53 + 1, 10**400):
        with pytest.raises(ValueError,
                           match=r"^n must be an integer in \[1, 9007199254"):
            require_int(n, "n", 1)


def test_require_grid():
    assert np.array_equal(require_grid((0.5, 0.9), "eta", 0.0, 1.0),
                          [0.5, 0.9])
    for grid in ((), [[0.5, 0.9]], 0.5):
        with pytest.raises(ValueError,
                           match="^eta must be a nonempty 1-d array$"):
            require_grid(grid, "eta", 0.0, 1.0)


def test_check_size_names_the_limit():
    assert check_size(MAX_SUPPORT) == MAX_SUPPORT
    with pytest.raises(ValueError, match=f"^this input needs {MAX_TRIALS + 1} "
                                         f"trials, over the limit of "
                                         f"{MAX_TRIALS}$"):
        check_size(MAX_TRIALS + 1, MAX_TRIALS, "trials")


# -- extreme inputs: refused up front, by name ---------------------------------

# (argv, text the one-line diagnostic must carry); each of these used to
# exit 1, or to exit 2 with a message that named no input. The n_det supports
# are in tests/test_cli.py.
EXTREMES = [
    (["compare", "--eta-points", "100000", "--n-sig-points", "100000"],
     f"limit of {MAX_CELLS}"),
    (["noon", "--curve", "--eta", "0.9", "--n-sig-points", "1000000000"],
     f"limit of {MAX_CELLS}"),
    (["simulate", "noon-fringe", "--phase-points", "1000000000"],
     f"limit of {MAX_CELLS}"),
    (["simulate", "noon-fringe", "--trials", "10000000000"],
     f"limit of {MAX_TRIALS}"),
    (["simulate", "mz", "--trials", "10000000000"], f"limit of {MAX_TRIALS}"),
    (["simulate", "hom", "--trials", "10000000000"], f"limit of {MAX_TRIALS}"),
    (["simulate", "absorption", "--trials", "10000000000"],
     f"limit of {MAX_TRIALS}"),
    (["simulate", "homodyne", "--trials", "10000000000"],
     f"limit of {MAX_TRIALS}"),
    (["simulate", "homodyne", "--alpha", "1e200"], "--alpha"),
    (["simulate", "mz", "--n0", "1e300"], "n_photons"),
    (["simulate", "mz", "--n0", "inf"], "n_photons"),
    (["simulate", "mz", "--phase", "nan"], "phase"),
    (["simulate", "homodyne", "--phase", "nan"], "phase"),
    (["simulate", "absorption", "--n-sig", "10000000000000000000000"],
     "n_sig"),
    (["simulate", "mz", "--seed", str(2**64)], "seed"),
    (["noon", "--flux", "--n", "3", "--target-rate", "inf"], "target rate"),
    (["noon", "--n", "3", "--eta", "0.9", "--n-sig", "nan"], "n_sig"),
    (["noon", "--threshold", "--n", str(10**400)], "N must be an integer"),
]


@pytest.mark.parametrize("argv, names", EXTREMES,
                         ids=[" ".join(a)[:48] for a, _ in EXTREMES])
def test_extreme_input_refused_before_allocating(argv, names):
    tracemalloc.start()
    try:
        with address_space_cap():
            code, _, err = run_captured(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.count("\n") == 1 and names in err
    assert peak < 10 * 2**20


# -- property: any small argv exits 0 with a finite dataset, or 2 -------------

SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320, 1e-300, 1.0,
           1e18, 1e154, 1e300, 1.7e308)


def values(lo, hi):
    """Mostly a float in the command's working range; one draw in five is an
    edge of the float line."""
    regular = st.floats(min_value=lo, max_value=hi)
    return st.one_of(regular, regular, regular, regular,
                     st.sampled_from(SPECIAL))


def counts(lo, hi):
    regular = st.integers(min_value=lo, max_value=hi)
    return st.one_of(regular, regular, regular, regular,
                     st.sampled_from((-1, 0, 2**53 + 1, 10**30)))


def flags(required=(), **spec):
    """Strategy for an argv tail: each flag given or, unless argparse
    requires it, left out."""
    # --flag=value: argparse would read a separate "-inf" as an option
    parts = [strategy.map(lambda v, f=flag: [f"--{f.replace('_', '-')}={v!r}"])
             for flag, strategy in spec.items()]
    parts = [p if f in required else st.one_of(st.just([]), p)
             for f, p in zip(spec, parts)]
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


ETA = values(0.0, 1.0)
# epsilon stays clear of 1, where supports grow toward MAX_SUPPORT
EPSILON = st.one_of(st.sampled_from((math.nan, math.inf, -0.1, 0.0, 1.0)),
                    st.floats(min_value=0.0, max_value=0.99))
TRIALS = counts(100, 2000)

COMMANDS = st.one_of(
    flags(("n_sig",), n_sig=values(0.0, 1e6), eta=ETA).map(
        lambda t: ["limits"] + t),
    flags(n=counts(2, 300)).map(lambda t: ["noon", "--threshold"] + t),
    flags(eta=ETA).map(lambda t: ["noon", "--optimal"] + t),
    flags(eta=ETA, n_sig_min=values(0.1, 10.0), n_sig_max=values(10.0, 1e6),
          n_sig_points=counts(2, 50)).map(lambda t: ["noon", "--curve"] + t),
    flags(n=counts(1, 300), target_rate=values(0.0, 1e9)).map(
        lambda t: ["noon", "--flux"] + t),
    flags(n=counts(1, 300), eta=ETA, n_sig=values(0.0, 1e6)).map(
        lambda t: ["noon"] + t),
    flags(("eta",), n_sig=values(0.0, 1e6), eta=ETA, v_sqz=values(0.0, 2.0),
          alpha=values(0.0, 1e3)).map(lambda t: ["squeezed"] + t),
    flags(eta_min=values(0.0, 0.6), eta_max=values(0.6, 1.0),
          eta_points=counts(2, 12), n_sig_min=values(0.1, 10.0),
          n_sig_max=values(10.0, 100.0), n_sig_points=counts(2, 12)).map(
        lambda t: ["compare"] + t),
    st.tuples(st.sampled_from(("probe", "detector")),
              st.sampled_from(("bucket", "number-resolving")),
              flags(epsilon=EPSILON, eta=ETA, n_det=counts(0, 40))).map(
        lambda t: ["condition", "--side", t[0], "--detector", t[1]] + t[2]),
    flags(n0=values(100.0, 1e8), eta=ETA, phase=values(1.2, 1.95),
          trials=TRIALS, seed=counts(0, 2**64 - 1)).map(
        lambda t: ["simulate", "mz"] + t),
    flags(phase_points=counts(5, 40), trials=counts(1, 2000)).map(
        lambda t: ["simulate", "noon-fringe"] + t),
    flags(trials=counts(1000, 3000)).map(
        lambda t: ["simulate", "hom"] + t),
    flags(alpha=values(10.0, 1e3), v_sqz=values(0.0, 2.0), eta=ETA,
          phase=values(-0.5, 0.5), trials=TRIALS).map(
        lambda t: ["simulate", "homodyne"] + t),
    flags(alpha_true=values(0.0, 1.0), n_sig=counts(1, 10**6),
          trials=TRIALS).map(lambda t: ["simulate", "absorption"] + t),
    flags(epsilon=EPSILON, n_det=counts(0, 40)).map(
        lambda t: ["figure", "fig-conditional"] + t),
)


# noon --threshold --n 2 warns that its threshold cannot be exceeded
@pytest.mark.filterwarnings("ignore:N=2 threshold")
@given(COMMANDS)
@settings(max_examples=300, deadline=None)
def test_any_small_argv_prints_a_finite_dataset_or_exits_2(argv):
    code, out, err = run_captured(argv)
    assert code in (0, 2), (argv, err)
    if code == 0:
        _, rows = parse_csv(out)
        assert np.all(np.isfinite(rows)), argv
    else:
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
