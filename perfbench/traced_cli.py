"""Run one medialq command in-process with its public functions traced.

Usage: python traced_cli.py TRACE.json VERB ARGS...

Behaves like ``python -m medialq VERB ARGS...`` (same report on stdout, same
exit code) and writes the tracer's spans and totals to TRACE.json.
"""

import sys

import tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    tracer.install(t)
    from medialq import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        t.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
