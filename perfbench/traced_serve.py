"""``repro serve`` with the layer tracer installed in the server process.

Usage: ``python perfbench/traced_serve.py STATS_JSON serve [ARGS...]``

Runs the ``repro`` CLI with ``ARGS`` exactly as ``python -m repro`` would,
after wrapping the layer entry points (see :mod:`layers`).  When the
server stops (SIGINT), the tracer snapshot is written to ``STATS_JSON``.
"""

from __future__ import annotations

import json
import os
import sys

from layers import Tracer


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer().install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        tmp = stats_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(tracer.snapshot(), fh)
        os.replace(tmp, stats_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
