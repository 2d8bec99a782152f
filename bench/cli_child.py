"""Traced ``configforge`` command for the cli-roundtrip workload.

    python3 bench/cli_child.py STATS_JSON COMMAND [ARGS...]

Times the import of ``configforge.cli``, installs the tracer, runs the
command as ``python -m configforge`` would, writes the trace aggregates
to STATS_JSON and exits with the command's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import configforge.cli  # noqa: E402  (the import is what is timed)
import_s = time.perf_counter() - t0

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    stats_path, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.import_s.append(import_s)
    tracer.install(wl.program())
    code = configforge.cli.main(args)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
