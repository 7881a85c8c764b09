"""Run one ``tunnelkit`` CLI command in this process and report its timings.

    python perfbench/child.py OUT_JSON TRACE ARGS...

The traced benchmark run starts this script instead of
``python -m tunnelkit``. It times the import of ``tunnelkit.cli`` and the
command itself from inside the child. With TRACE=1 it also records the
layer spans of the command. Timings, exit code and spans go to OUT_JSON.
The command's stdout and exit code pass through unchanged.
"""

import sys
from time import perf_counter


def main() -> int:
    out_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = perf_counter()
    import tunnelkit.cli as cli
    t1 = perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.request_id = 0
        tracer.install()
    t2 = perf_counter()
    rc = cli.main(argv)
    t3 = perf_counter()
    if tracer is not None:
        tracer.uninstall()
    sys.stdout.flush()

    import json

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "import_ms": 1e3 * (t1 - t0),
            "command_ms": 1e3 * (t3 - t2),
            "spans": tracer.to_payload() if tracer is not None else None,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
