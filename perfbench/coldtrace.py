"""Run one caw CLI call in this process with span hooks installed.

    python perfbench/coldtrace.py SPANS_JSON caw-arguments...

Behaves like ``python -m caw caw-arguments...`` (same stdout, stderr and
exit code) and also writes the spans of the call to SPANS_JSON.  The traced
cold-process runs of the benchmark use it in place of ``-m caw``.
"""

import json
import sys

from spans import Recorder


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import caw.cli

    rec = Recorder()
    rec.install()
    run_command = rec.wrap("cli.run_command", caw.cli.run_command)
    try:
        code = run_command(argv)
    finally:
        rec.restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.to_json(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
