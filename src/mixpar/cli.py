"""Command line entry point: `mixpar run <config> [options]`.

Exit codes: 0 pass, 1 rate-threshold failure, 2 usage/config error,
3 solver failure, 4 internal error.  `main` lets any other exception
propagate, as the bug it is; `command`, the `mixpar` command, reports
it in one line and exits 4.  The RUN_SEED environment variable is
reserved and ignored by the deterministic paths.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ConfigParseError, load_config
from .runner import run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(prog="mixpar")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a refinement study")
    runp.add_argument("config", help="key=value or JSON config file")
    runp.add_argument("--jobs", type=int, default=None,
                      help="levels to run concurrently (1 = deterministic)")
    runp.add_argument("--vtk-every", type=int, default=None,
                      help="write a VTK snapshot every m-th step")
    runp.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    overrides = {key: getattr(args, key)
                 for key in ("jobs", "vtk_every", "out")
                 if getattr(args, key) is not None}
    try:
        # replace() validates the overridden config like a parsed one
        cfg = dataclasses.replace(load_config(args.config), **overrides)
    except ConfigParseError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    return run_experiment(cfg)


def command(argv=None):
    """`main`, with any exception but KeyboardInterrupt reported in one
    line as exit 4."""
    try:
        return main(argv)
    except Exception as err:
        detail = " ".join(str(err).splitlines())
        print(f"internal error: {type(err).__name__}: {detail}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(command())
