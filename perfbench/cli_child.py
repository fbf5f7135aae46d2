"""Traced stand-in for `python3 -m fermichip.cli ARGS...` in the traced cli run.

Usage: cli_child.py TRACE_OUT ARGS...  Runs fermichip.cli.main(ARGS) with the
layer wrappers of perfbench.spans installed, wraps the paper-check groups,
writes the totals and spans to TRACE_OUT and exits with main's code.
"""

import sys

from fermichip import benchmarks, cli

from spans import Tracer, install


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    groups = benchmarks.BENCHMARK_GROUPS
    for i, group in enumerate(groups):
        name = group.__name__ if group.__name__ in ("fit_rows", "numerics_rows") else "other_rows"
        groups[i] = tracer.span("benchmarks." + name, group)
    code = tracer.span("cli." + argv[0], cli.main)(argv)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
