"""Cold start: what a fresh `qoptkit` process imports and starts.

scipy's import alone takes about a second, several times the rest of a
`qoptkit` process, so it must stay off the import path of the package.
`import qoptkit` loads no submodule and no numpy, and `qoptkit.cli` starts
numpy's OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is already set.
`noon` and `squeezed` return values only: neither loads the dataset module
nor the other.
Each check runs in a fresh interpreter, since this one has numpy loaded.
"""
import hashlib
import json
import os
import subprocess
import sys

import pytest

import qoptkit
from test_golden import COMMANDS, GOLDEN

PROBE = """
import json, os, sys
import qoptkit
from qoptkit import cli
out = sys.argv[1]
commands = [
    ["limits", "--n-sig", "25"],
    ["condition", "--side", "detector", "--detector", "bucket"],
    ["simulate", "noon-fringe"],
]
codes = [cli.run(argv + ["--out", os.path.join(out, f"{i}.csv")])
         for i, argv in enumerate(commands)]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def child(args, **env):
    """Run `python args` on this checkout's qoptkit; env entries set to None
    are removed from the child's environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qoptkit.__file__)))
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, full.get("PYTHONPATH")) if p)
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=full, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_qoptkit_loads_no_submodule_and_no_numpy():
    out = child(["-c", "import sys, qoptkit; print(sorted(m for m in "
                       "sys.modules if m.startswith(('numpy', 'qoptkit.'))))"])
    assert out == "[]\n"


@pytest.mark.parametrize("module, absent", [
    ("noon", ("dataset", "squeezed")), ("squeezed", ("noon", "dataset"))])
def test_closed_form_modules_build_no_table(module, absent):
    # the tables of noon's and squeezed's closed forms are built in figures
    loaded = json.loads(child(["-c", f"import json, sys, qoptkit.{module}; "
                                     "print(json.dumps(list(sys.modules)))"]))
    assert f"qoptkit.{module}" in loaded
    assert not {f"qoptkit.{m}" for m in absent} & set(loaded)


@pytest.mark.parametrize("given, kept", [(None, "1"), ("2", "2")])
def test_cli_defaults_openblas_to_one_thread_and_keeps_a_given_count(given,
                                                                     kept):
    out = child(["-c", "import os, qoptkit.cli; "
                       "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                OPENBLAS_NUM_THREADS=given)
    assert out == kept + "\n"


@pytest.mark.parametrize("name, fmt", [("sim-noon-fringe", "csv"),
                                       ("sim-noon-fringe", "json"),
                                       ("limits", "csv")])
def test_fresh_cli_process_writes_the_golden_bytes(name, fmt, tmp_path):
    # in process, pytest's numpy already runs BLAS with its default pool; no
    # command path reaches BLAS or LAPACK, and the fringe fit solves its
    # Gauss-Newton steps in closed form
    path = tmp_path / f"out.{fmt}"
    child(["-m", "qoptkit.cli", *COMMANDS[name], "--format", fmt,
           "--out", str(path)], OPENBLAS_NUM_THREADS=None)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(name, fmt)]


def test_commands_load_no_scipy(tmp_path):
    result = json.loads(child(["-c", PROBE, str(tmp_path)]).splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == []
