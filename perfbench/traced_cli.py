"""Run one `sl2swc` command with spans recorded around the layers' public calls.

    python perfbench/traced_cli.py SPANS_OUT OP_INDEX T0_NS -- <sl2swc arguments>

T0_NS is the CLOCK_MONOTONIC time at which the parent started this process;
the interpreter start plus `import sl2swc.cli` is measured from it.  The
command's stdout, stderr and exit code are those of `sl2swc` itself; the spans
go to SPANS_OUT as JSON.
"""

import sys
import time

if __name__ == "__main__":
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        sys.exit("usage: traced_cli.py SPANS_OUT OP_INDEX T0_NS -- ARGS...")
    spans_out, op, t0_ns, _, *cli_args = sys.argv[1:]
    import sl2swc.cli as cli

    startup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(t0_ns)) / 1e9
    import tracer

    rec = tracer.Recorder(int(op))
    tracer.install(rec)
    try:
        code = cli.run(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(rec, spans_out, startup_s)
    sys.exit(code)
