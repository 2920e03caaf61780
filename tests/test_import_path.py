"""Cold start: importing qoptkit and running commands loads no scipy.

scipy's import alone takes about a second, several times the rest of a
`qoptkit` process, so it must stay off the import path of the package.
"""
import json
import os
import subprocess
import sys

import qoptkit

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


def test_commands_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qoptkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == []
