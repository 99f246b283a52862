"""Run one traced CLI request: ``clitrace.py SPANS_FILE ARGV...``.

Installs the span tracer, calls ``nodalcodes.cli.run(ARGV)`` in this fresh
process exactly as ``python -m nodalcodes.cli`` would, and writes the spans
to SPANS_FILE as JSON before exiting with the command's exit code.
"""

import json
import sys

import tracer as tracing
from nodalcodes import cli

if __name__ == "__main__":
    t = tracing.Tracer()
    tracing.install(t)
    t.begin_op(0)
    try:
        code = cli.run(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as f:
            json.dump(t.end_op(), f)
    sys.exit(code)
