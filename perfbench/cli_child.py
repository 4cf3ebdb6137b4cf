"""Run bardina subcommands in this fresh process, as the `bardina` script would.

    python3 perfbench/cli_child.py SPANS CALLS

CALLS is a JSON list of argument lists, run in order through
`bardina.cli.parse_and_dispatch`; the first non-zero exit code ends the
process with that code.  SPANS is "-" for an untraced run, or the path the
recorded spans are written to.  The last line on standard error is the BLAS
state the subcommands left behind: the thread variables and the pool size
OpenBLAS actually runs with.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spans_path, calls = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bardina import cli

    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    for argv in calls:
        code = cli.parse_and_dispatch(argv)
        if code:
            return code
    if tracer:
        tracer.dump(spans_path)
    import hostinfo

    seen = dict(hostinfo.blas_env(), openblas_threads=hostinfo.openblas_threads())
    print("# blas seen: " + json.dumps(seen, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
