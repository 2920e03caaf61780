"""Smoke test of the harness: the tiny mode must print every metric name.

Run with `python -m pytest -q bench`. It starts the benchmark's worker
processes one at a time and takes about half a minute.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_tiny_mode_prints_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--tiny"], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last == {"tiny": "ok", "missing": []}
