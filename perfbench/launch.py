"""Run one latglue CLI command with the tracer installed (traced golden jobs).

usage: python3 perfbench/launch.py SPANS_OUT -- CLI_ARGS...

Imports the package (as ``python -m latglue.cli`` would), installs the
tracer's wrappers, calls ``latglue.cli.main(CLI_ARGS)`` and writes the
spans to SPANS_OUT.  Stdout is exactly the command's own output.
"""

from __future__ import annotations

import sys
from time import perf_counter

import latglue.cli  # imported before the tracer: import cost is process start
from tracer import Tracer


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_OUT -- CLI_ARGS...")
    start = perf_counter()
    tracer = Tracer()
    tracer.install()
    install_s = perf_counter() - start
    try:
        return latglue.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out, {"install_s": install_s})


if __name__ == "__main__":
    sys.exit(main())
