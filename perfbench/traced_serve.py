"""Run ``repro serve`` with the benchmark's span tracer installed.

Usage: ``python traced_serve.py SPANS_FILE [repro serve options]``

The daemon is the program's own ``repro serve`` entry point; the only
difference from an untraced daemon is that its layer boundaries are
wrapped (see :mod:`spans`).  On shutdown (SIGINT) the spans kept in
memory are written to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
