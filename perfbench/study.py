"""Run one `mixpar run` study in this process and record what it did.

    python3 study.py {setup|trace} STATS_JSON -- run CONFIG [mixpar options]

`setup` wraps only the per-level entry and the load, enough for the
set-up time; `trace` wraps every layer boundary (see tracing.py).  Either
way the study runs through ``mixpar.cli.main`` with the given arguments,
the wrappers are removed afterwards, and STATS_JSON receives the spans,
the counters and the peak resident memory.  The exit code is the CLI's.
"""
from __future__ import annotations

import json
import resource
import sys

import tracing


def main(argv):
    mode, stats_path, sep, *cli_args = argv
    if mode not in ("setup", "trace") or sep != "--":
        raise SystemExit(__doc__)
    from mixpar import cli

    tracer = tracing.Tracer()
    tracing.install(tracer, full=(mode == "trace"))
    try:
        code = tracer.call(tracing.ROOT_SPAN, cli.main, cli_args)
    finally:
        tracer.restore()
    stats = tracer.to_json()
    stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
