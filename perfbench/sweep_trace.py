"""Run the friedrichs CLI with the benchmark's tracer installed.

    python3 perfbench/sweep_trace.py SPANS.jsonl <friedrichs arguments>

Takes the same arguments as `python3 -m friedrichs`, runs them under one
`cli.sweep` span with every layer wrapped, and writes the spans to
SPANS.jsonl.  The traced benchmark run of zone_sweep uses it in place of
the plain CLI.
"""

import sys

from friedrichs import cli

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracing.instrument(tracer), tracer.span("cli.sweep"):
        code = cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
