"""The input envelope: every argv either prints a finite dataset or is refused.

A refusal is exit status 2 with a one-line diagnostic on stderr, made before
any large allocation. Exit 1 (an uncaught runtime failure) is always a bug.
Everything here runs cli.run in process at small sizes; the extreme inputs
are checked by their up-front rejection, never by allocating them.
"""
import argparse
import contextlib
import io
import math
import re
import resource
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoptkit import parse_csv
from qoptkit.cli import build_parser, run
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

# (argv, text the one-line diagnostic must carry). A flag outside its domain
# is refused at parse time by name, and a size flag's refusal also names its
# limit; a size that no single flag decides is refused by the library, naming
# the limit. The n_det supports are in tests/test_cli.py.
EXTREMES = [
    (["compare", "--eta-points", "100000", "--n-sig-points", "100000"],
     f"limit of {MAX_CELLS}"),
    (["noon", "--curve", "--eta", "0.9", "--n-sig-points", "1000000000"],
     f"argument --n-sig-points: must be an integer in [2, {MAX_CELLS}]"),
    (["simulate", "noon-fringe", "--phase-points", "1000000000"],
     f"argument --phase-points: must be an integer in [5, {MAX_CELLS}]"),
    (["simulate", "noon-fringe", "--trials", "10000000000"],
     f"argument --trials: must be an integer in [1, {MAX_TRIALS}]"),
    (["simulate", "mz", "--trials", "10000000000"],
     f"argument --trials: must be an integer in [100, {MAX_TRIALS}]"),
    (["simulate", "hom", "--trials", "10000000000"],
     f"argument --trials: must be an integer in [1000, {MAX_TRIALS}]"),
    (["simulate", "absorption", "--trials", "10000000000"],
     f"argument --trials: must be an integer in [100, {MAX_TRIALS}]"),
    (["simulate", "homodyne", "--trials", "10000000000"],
     f"argument --trials: must be an integer in [100, {MAX_TRIALS}]"),
    (["simulate", "homodyne", "--alpha", "1e200"], "argument --alpha"),
    (["simulate", "homodyne", "--alpha", "1e-300"], "argument --alpha"),
    (["simulate", "mz", "--n0", "1e300"], "argument --n0"),
    (["simulate", "mz", "--n0", "inf"], "argument --n0"),
    (["simulate", "mz", "--phase", "nan"], "argument --phase"),
    (["simulate", "homodyne", "--phase", "nan"], "argument --phase"),
    (["simulate", "absorption", "--n-sig", "10000000000000000000000"],
     "argument --n-sig"),
    (["simulate", "mz", "--seed", str(2**64)],
     f"argument --seed: must be an integer in [0, {2**64 - 1}]"),
    (["noon", "--flux", "--n", "3", "--target-rate", "inf"],
     "argument --target-rate"),
    (["noon", "--n", "3", "--eta", "0.9", "--n-sig", "nan"],
     "argument --n-sig"),
    (["noon", "--threshold", "--n", str(10**400)],
     "argument --n: must be an integer"),
    # n_sig^2 overflows past 1.3e154; every photon-number flag stops at 1e18
    (["limits", "--n-sig", "1e154"], "argument --n-sig: must be finite and "
                                     "lie in [0.5, 1e+18]"),
    (["noon", "--curve", "--eta", "0.9", "--n-sig-max", "1e300"],
     "argument --n-sig-max: must be finite and lie in (0, 1e+18]"),
    # (1 - eta)/eta overflows below the least normal float
    (["squeezed", "--eta", "1e-320", "--n-sig", "10"], "argument --eta"),
    (["noon", "--curve", "--eta", "1e-320"], "argument --eta"),
    # 1 - 1e-300 rounds to 1, so the log-loss grid would start at eta = 0
    (["compare", "--eta-min", "1e-300", "--eta-max", "0.5"],
     "argument --eta-min"),
    # n0 = 2 n_sig would fall below the Heisenberg bound's n0 >= 1
    (["limits", "--n-sig", "1e-300"], "argument --n-sig"),
    (["compare", "--n-sig-max", "200"], "argument --n-sig-max"),
    # 4 rate/N^2, 1/(2 alpha) and a single state's dphi ~ 1/(2 n_sig) would
    # overflow to a non-finite column
    (["noon", "--flux", "--n", "1", "--target-rate", "1e308"],
     "argument --target-rate"),
    (["squeezed", "--alpha", "1e-320", "--v-sqz", "1", "--eta", "0.5"],
     "argument --alpha"),
    (["noon", "--curve", "--eta", "0.5", "--n-sig-min", "1e-320",
      "--n-sig-max", "1"], "argument --n-sig-min"),
    # in the flag's domain, but the lossless channel has no finite optimum
    (["noon", "--optimal", "--eta", "1"],
     "argument --eta: --optimal needs eta < 1"),
    # each flag is in its domain; together they overflow the report
    (["noon", "--n", "171", "--eta", "1e-300", "--n-sig", "29200"],
     "--n 171 and --eta 1e-300 put sqrt(eta^-N) past the largest float"),
    (["squeezed", "--alpha", "1e-300", "--v-sqz", "1e300", "--eta", "0.5"],
     "--alpha 1e-300 --v-sqz 1e+300 --eta 0.5 put delta_phi past the largest "
     "float"),
    (["squeezed", "--alpha", "1", "--v-sqz", "1.7e308", "--eta", "2.3e-308"],
     "--alpha 1.0 --v-sqz 1.7e+308 --eta 2.3e-308 put delta_phi past"),
    (["squeezed", "--n-sig", "1e-300", "--eta", "2.3e-308"],
     "--n-sig 1e-300 --eta 2.3e-308 put delta_phi past"),
    (["squeezed", "--n-sig", "1e-300", "--v-sqz", "1", "--eta", "2.3e-308"],
     "--n-sig 1e-300 --v-sqz 1.0 --eta 2.3e-308 put delta_phi past"),
    (["squeezed", "--n-sig", "1e-300", "--eta", "1e-10"],
     "--n-sig 1e-300 --eta 1e-10 put delta_phi past"),
    # a budget's squeezed variance is at most 1; --alpha mode takes any V > 0
    (["squeezed", "--n-sig", "1e18", "--eta", "0.5", "--v-sqz", "9.99"],
     "argument --v-sqz: a budget (--n-sig) takes v_sqz in (0, 1]"),
    # max above min, but too close for the points to differ
    (["noon", "--curve", "--eta", "0.5", "--n-sig-min", "1", "--n-sig-max",
      "1.0000000000000002", "--n-sig-points", "23"],
     "--n-sig-min 1.0 --n-sig-max 1.0000000000000002 --n-sig-points 23 give "
     "no strictly increasing grid"),
    (["compare", "--eta-min", "0.5", "--eta-max", "0.5000000000000001",
      "--eta-points", "5"],
     "--eta-min 0.5 --eta-max 0.5000000000000001 --eta-points 5 give no"),
    (["compare", "--n-sig-min", "1", "--n-sig-max", "1.0000000000000002",
      "--n-sig-points", "5"],
     "--n-sig-min 1.0 --n-sig-max 1.0000000000000002 --n-sig-points 5 give"),
    (["compare", "--eta-min", "0.9", "--eta-max", "0.5"],
     "--eta-min 0.9 --eta-max 0.5 --eta-points 200 give no"),
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


def test_squeezed_keeps_a_finite_answer_at_the_least_normal_eta():
    # (1 - eta)/eta is about 4.3e307, still finite, and so is delta_phi
    code, out, _ = run_captured(["squeezed", "--n-sig", "1e18", "--eta",
                                 "2.3e-308"])
    assert code == 0
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["delta_phi"] == 3.2969023669789348e+144


@pytest.mark.parametrize("n", (3, 1000))
def test_noon_report_edge_where_sqrt_eta_pow_minus_n_overflows(n):
    # the least eta with N ln(1/eta) below 2 ln(max float) is taken, with a
    # finite report; the next float down is refused, naming both flags
    edge = 2.0 * math.log(sys.float_info.max)
    eta = math.exp(-edge / n)
    while n * -math.log(eta) < edge:
        eta = math.nextafter(eta, 0.0)
    while n * -math.log(eta) >= edge:
        eta = math.nextafter(eta, 1.0)
    argv = ["noon", "--n", str(n), "--n-sig", "1e6", "--eta"]
    code, out, _ = run_captured(argv + [repr(eta)])
    assert code == 0 and np.all(np.isfinite(parse_csv(out)[1]))
    code, _, err = run_captured(argv + [repr(math.nextafter(eta, 0.0))])
    assert code == 2 and err.count("\n") == 1
    assert f"--n {n} and --eta " in err and "N ln(1/eta) < 1419.57" in err


@pytest.mark.parametrize("argv, names", [
    (["limits"], "the following arguments are required: --n-sig"),
    (["condition", "--n-det", "x"], "argument --n-det: invalid int value"),
    (["simulate"], "the following arguments are required: experiment"),
    (["simulate", "mz", "--trials", "1.5"], "argument --trials"),
    ([], "the following arguments are required: command"),
])
def test_argparse_refusal_is_one_line(argv, names):
    # argparse's own failures, subcommands included, read like the others
    code, out, err = run_captured(argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and names in err


# -- every numeric flag is a typed domain --------------------------------------

def numeric_flags(parser, path=()):
    """(subcommand path, option, type) of each flag that takes a number."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from numeric_flags(sub, path + (name,))
        elif action.option_strings and action.type is not None:
            yield path, action.option_strings[0], action.type


NUMERIC_FLAGS = list(numeric_flags(build_parser()))


def parse_error(argv):
    """What argparse prints to stderr for argv; empty when it parses."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pass
    return err.getvalue()


def test_every_numeric_flag_is_counted():
    assert len(NUMERIC_FLAGS) == 44


@pytest.mark.parametrize("path, option, kind", NUMERIC_FLAGS,
                         ids=[" ".join(p + (o,)) for p, o, _ in NUMERIC_FLAGS])
def test_numeric_flag_refuses_by_name_outside_its_domain(path, option, kind):
    assert kind not in (float, int), f"{option} has a bare {kind.__name__}"
    integer = kind.__name__ == "int"
    # an integer range is closed; a float interval is open where not closed
    lo, hi, lo_closed, hi_closed = (*kind.domain, integer, integer)[:4]

    def accepted(value):
        return f"argument {option}:" not in parse_error(
            [*path, f"{option}={value!r}"])

    def refused(value):
        err = parse_error([*path, f"{option}={value!r}"])
        return (err.count("\n") == 1
                and err.startswith(f"error: argument {option}: "))

    for end, out, closed in ((lo, -1, lo_closed), (hi, 1, hi_closed)):
        if math.isinf(end):
            continue
        if closed:
            past = end + out if integer else math.nextafter(end, out * math.inf)
            assert accepted(end) and refused(past)
        else:  # the end itself is out, the next float in is in
            assert refused(end)
            assert accepted(math.nextafter(end, -out * math.inf))
    for bad in ("nan", "inf", "-inf"):
        err = parse_error([*path, f"{option}={bad}"])
        assert err.count("\n") == 1 and f"argument {option}: " in err


# -- property: any small argv exits 0 with a finite dataset, or 2 -------------

SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320, 1e-300, 1.0,
           1e18, 1e154, 1e300, 1.7e308)
# each finite end of a flag's domain, and the floats on either side of it
EDGES = tuple(x for end in sorted({e for _, _, kind in NUMERIC_FLAGS
                                   for e in kind.domain[:2]
                                   if isinstance(e, float) and math.isfinite(e)})
              for x in (end, math.nextafter(end, -math.inf),
                        math.nextafter(end, math.inf)))


def values(lo, hi):
    """Mostly a float in the command's working range; one draw in six is an
    edge of the float line, and one an edge of some flag's domain."""
    regular = st.floats(min_value=lo, max_value=hi)
    return st.one_of(regular, regular, regular, regular,
                     st.sampled_from(SPECIAL), st.sampled_from(EDGES))


def counts(lo, hi):
    regular = st.integers(min_value=lo, max_value=hi)
    return st.one_of(regular, regular, regular, regular,
                     st.sampled_from((-1, 0, 2**53 + 1, 10**30)))


def flags(**spec):
    """Strategy for an argv tail: each flag given or left out, so argparse's
    own refusals (a required flag missing) are drawn too."""
    # --flag=value: argparse would read a separate "-inf" as an option
    parts = [strategy.map(lambda v, f=flag: [f"--{f.replace('_', '-')}={v!r}"])
             for flag, strategy in spec.items()]
    parts = [st.one_of(st.just([]), p) for p in parts]
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


ETA = values(0.0, 1.0)
# epsilon stays clear of 1, where supports grow toward MAX_SUPPORT
EPSILON = st.one_of(st.sampled_from((math.nan, math.inf, -0.1, 0.0, 1.0)),
                    st.floats(min_value=0.0, max_value=0.99))
TRIALS = counts(100, 2000)

COMMANDS = st.one_of(
    flags(n_sig=values(0.0, 1e6), eta=ETA).map(
        lambda t: ["limits"] + t),
    flags(n=counts(2, 300)).map(lambda t: ["noon", "--threshold"] + t),
    flags(eta=ETA).map(lambda t: ["noon", "--optimal"] + t),
    flags(eta=ETA, n_sig_min=values(0.1, 10.0), n_sig_max=values(10.0, 1e6),
          n_sig_points=counts(2, 50)).map(lambda t: ["noon", "--curve"] + t),
    flags(n=counts(1, 300), target_rate=values(0.0, 1e9)).map(
        lambda t: ["noon", "--flux"] + t),
    flags(n=counts(1, 300), eta=ETA, n_sig=values(0.0, 1e6)).map(
        lambda t: ["noon"] + t),
    flags(n_sig=values(0.0, 1e6), eta=ETA, v_sqz=values(0.0, 2.0),
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


# the refusals that name no flag, each a kind README lists: an impossible
# observation, the bright-probe gate, a spent squeezing budget, a size limit
# and the noon report's one-state rule. Any other refusal names its flags.
REFUSAL_KINDS = ("observation impossible", "bucket click impossible",
                 "bright-probe gate", "consumes the whole budget",
                 "over the limit of", "cannot complete one N=")


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
        assert (re.search(r"--[a-z]", err)
                or any(kind in err for kind in REFUSAL_KINDS)), (argv, err)
