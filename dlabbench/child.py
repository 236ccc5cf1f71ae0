"""One timed pass in a fresh process.

    python3 dlabbench/child.py SPAWN_NS ARGVS_JSON

SPAWN_NS is CLOCK_MONOTONIC, in nanoseconds, read by the parent just before
it started this process.  The pass imports dirichlet_lab.cli, runs each argv
list of ARGVS_JSON through cli.run in order, and prints one JSON line: the
set-up time (spawn until cli is imported), the seconds spent in cli.run, the
peak resident memory, and each command's exit code and output.  With an
empty ARGVS_JSON it only measures set-up.
"""

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def peak_rss_kb():
    """This process's own peak resident memory.  Linux starts ru_maxrss at
    the parent's peak when a forked child execs, so VmHWM is read first."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    spawn_ns = int(sys.argv[1])
    argvs = json.loads(sys.argv[2])
    from dirichlet_lab import cli

    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    wall = 0.0
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        except Exception:  # a traceback is a failed command, not a lost pass
            code = "traceback"
            err.write(traceback.format_exc())
        took = time.perf_counter() - start
        wall += took
        results.append({"code": code, "wall_s": took, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:]})
    print(json.dumps({"setup_s": setup_s, "wall_s": wall,
                      "peak_rss_mb": peak_rss_kb() / 1024.0,
                      "source": cli.__file__, "commands": results}))


if __name__ == "__main__":
    main()
