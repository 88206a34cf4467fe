"""Run one ``hrd`` command in this process, as the console script does:
``python3 perfbench/launch.py <hrd arguments>``, with ``src`` on PYTHONPATH.

When PERFBENCH_TRACE_FILE names a file, the launcher also times
``import hrd.cli`` and ``hrd.cli.run(argv)``, wraps the program's public
functions (see spans.py), and writes the spans and their totals to that
file before it exits with the command's exit code.
"""

import json
import os
import sys
from time import perf_counter


def main() -> int:
    argv = sys.argv[1:]
    out = os.environ.get("PERFBENCH_TRACE_FILE")
    if not out:
        import hrd.cli

        return hrd.cli.run(argv)

    t0 = perf_counter()
    import hrd.cli

    t1 = perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    t2 = perf_counter()
    try:
        return hrd.cli.run(argv)
    finally:
        t3 = perf_counter()
        sys.stdout.flush()
        record = {
            "argv": argv,
            "import_ms": (t1 - t0) * 1000,
            "run_ms": (t3 - t2) * 1000,
            "totals": tracer.summary(),
            "spans": tracer.records(),
        }
        with open(out, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
