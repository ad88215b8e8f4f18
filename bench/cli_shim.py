"""Run one tracksim CLI command under the benchmark's tracer.

usage: python3 bench/cli_shim.py SPANS_FILE CLI_ARG...

Used only by traced runs; untraced runs start ``python3 -m tracksim.cli``
directly. ``src`` must be on PYTHONPATH. The first line of SPANS_FILE
records when ``import tracksim.cli`` finished, so the parent can measure
interpreter start-up plus import.
"""

import sys
import time

import tracksim.cli

IMPORT_DONE = time.monotonic()

import tracer  # noqa: E402  (this directory is sys.path[0])


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    try:
        return tracksim.cli.main(argv)
    finally:
        tr.write(spans_file, {"import_done": IMPORT_DONE})


if __name__ == "__main__":
    sys.exit(main())
