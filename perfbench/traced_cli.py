"""Run one chartqa CLI command with spans around the layer functions.

Usage: ``python3 perfbench/traced_cli.py SUMMARY.json SRC_DIR ARGS...``.
The command's exit code is passed through; the span summary (per-layer
calls, total and self seconds, top-level coverage and result counters) is
written to SUMMARY.json when the command returns.
"""

import json
import sys


def main() -> int:
    summary_path, src_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src_dir)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    from chartqa import cli

    try:
        return cli.cli_dispatch(argv)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
