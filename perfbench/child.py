"""Run one smallarea CLI command in this process, as the benchmark's child.

    python3 perfbench/child.py RESULT_JSON TRACE -- CLI_ARGS...

Records the monotonic time at which the `Runtime` constructor returns (the end
of set-up), the number of threads, and with TRACE=1 the spans of
tracer.Tracer, and writes them to RESULT_JSON when the command ends. Exits
with the command's exit code.
"""

import json
import os
import sys

from tracer import Tracer, clock


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RESULT_JSON 0|1 -- CLI_ARGS...")
    tracer = Tracer() if trace == "1" else None

    t0 = clock()
    import smallarea.cli as cli

    if tracer is not None:
        tracer.add_span("cli.import", t0, clock())
        tracer.install()

    ready = []
    init = cli.Runtime.__init__

    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        ready.append(clock())

    cli.Runtime.__init__ = timed_init

    code = cli.main(argv)
    # OS threads alive at the end, BLAS pool included: cpu_s can exceed wall_s.
    result = {"ready": ready[0] if ready else None, "threads": len(os.listdir("/proc/self/task"))}
    if tracer is not None:
        result.update(tracer.dump())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
