"""Run one `afq` command under the benchmark's tracer.

Used for the traced phase of the cli_cold workload, whose operations are
separate processes. Writes the spans to SPANS.json and exits with the
command's exit code; a crash prints its traceback and exits 1, as
`python -m afq.cli` would.

Usage: python bench/trace_child.py SPANS.json -- <afq arguments>
"""

import json
import sys
import traceback

import tracing


def main(argv):
    spans_path, _, *args = argv
    tracer = tracing.Tracer()
    tracer.install()
    from afq import cli
    tracer.recording = True
    try:
        rc = cli.main(args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        tracer.recording = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
