"""Traced stand-in for `python -m qoptkit.cli`, run by the traced cli-cold ops.

    python bench/cli_shim.py SPANS.npz ARGS...

Times `import qoptkit`, wraps the library's public functions, runs
qoptkit.cli.run(ARGS) under one op span, writes the spans to SPANS.npz when
the command ends and exits with the command's status.
"""
import os
import sys

import tracing

if __name__ == "__main__":
    facts = tracing.import_qoptkit(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from qoptkit import cli

    tracer = tracing.Tracer()
    tracer.install()
    for key, value in facts.items():
        tracer.count(f"import.{key}", value)
    try:
        status = tracer.run_op(0, lambda: cli.run(sys.argv[2:]))
    finally:
        tracer.save(sys.argv[1])
    sys.exit(status)
