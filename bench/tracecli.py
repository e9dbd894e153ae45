"""Run one lanedual CLI command with the benchmark's tracer installed.

    python3 bench/tracecli.py SPANS.json <lanedual arguments...>

The import of lanedual.cli is recorded as the span ``cli.import`` and the
command as ``cli.main``; the spans, counters and absent entry points are
written to SPANS.json when the command ends, whatever its outcome. The
exit code is the command's.
"""

import json
import sys

from tracing import Tracer


def main(argv):
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    rc = 1
    try:
        with tracer.span("cli.import"):
            import lanedual.cli
        # cmd_verify imports the battery lazily; import it now so that it
        # is wrapped too
        import lanedual.acceptance  # noqa: F401
        with tracer, tracer.span("cli.main"):
            rc = lanedual.cli.main(args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "absent": sorted(tracer.absent)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
