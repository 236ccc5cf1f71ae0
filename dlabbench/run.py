"""The dlab benchmark.

    python3 dlabbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.  With
--trace 0 every timed pass is a fresh process (child.py) that runs the
workload's dlab commands through dirichlet_lab.cli.run, at --threads 1 or
--threads 2, whichever has had less time so far, until less than half of
the next pass would fit in S seconds (at least one pass of each), so a run
lasts S seconds on average.  Before each pass the run times calibrate() and
an import-only process; the reported times are scaled to a fixed host speed
(see CALIBRATION_REF_S).  Every command's output is checked: exit 0,
byte-identical documents at both thread counts, the closed-form invariants
of workloads.py, and on seed 0 the values pinned from the seed commit.
With --trace 1 one untraced --threads 1 pass is followed by the traced run
(traced.py), which reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Lines before it give the machine facts, the calibration and,
for each timing, raw and scaled, its median, its tail percentile and the
sample count.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The host's speed drifts by 20-40% over minutes on a shared machine, for
# the program and for any other code alike, which is more than a run can
# average out.  So every run also times calibrate(), the benchmark's own
# fixed numpy work, between the passes, and reports each time scaled by
# CALIBRATION_REF_S / (the run's median calibration): seconds at a fixed
# host speed.  A faster program lowers the scaled time as much as the raw
# one; calibrate() imports nothing from the program.  The raw times are
# printed before the result.
CALIBRATION_REF_S = 0.2  # about calibrate() on the 2-core host, when quiet
CALIBRATION_THREADS = 2  # one per core: each core's speed drifts on its own
_CAL_T = numpy.linspace(1000.0, 1100.0, 12000)
_CAL_LOGN = numpy.log(numpy.arange(1.0, 201.0))
_CAL_GRID = numpy.arange(1, 1_000_001) * 0.01
_CAL_OMEGA = numpy.log(numpy.array([2.0, 3.0, 5.0, 7.0])) / (2.0 * numpy.pi)
PASS_TIMEOUT_S = 170

# The same on both sides of every comparison: dlab's own --threads workers
# each call BLAS single-threaded, so --threads 2 never exceeds two cores.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    env.pop("DLAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(script, *args):
    """Run one child script to completion; its last stdout line is JSON."""
    argv = [sys.executable, str(HERE / script), str(time.monotonic_ns())]
    try:
        proc = subprocess.run(argv + list(args), cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %d s" % (script, PASS_TIMEOUT_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s failed (exit %d): %s" % (
            script, proc.returncode, proc.stderr.strip()[-800:]))
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    source = Path(doc.get("source", "")).resolve()
    if ROOT / "src" not in source.parents:
        raise BenchError("dirichlet_lab was imported from %s, not ./src" % source)
    return doc


def calibrate():
    """Seconds for a fixed piece of work, averaged over CALIBRATION_THREADS
    threads run at once: complex exponentials as in series evaluation, then
    fractional parts and box tests as in the torus.  numpy releases the GIL
    in these, so the threads run on separate cores."""
    def timed(_):
        start = time.perf_counter()
        numpy.exp(-1j * numpy.outer(_CAL_T, _CAL_LOGN)).sum(axis=1)
        frac = numpy.outer(_CAL_GRID, _CAL_OMEGA) % 1.0
        ((frac > 0.25) & (frac < 0.5)).all(axis=1).sum()
        return time.perf_counter() - start

    with ThreadPoolExecutor(CALIBRATION_THREADS) as pool:
        return statistics.mean(pool.map(timed, range(CALIBRATION_THREADS)))


def run_pass(cmds, threads):
    return spawn("child.py", json.dumps(
        [c.argv + ["--threads", str(threads)] for c in cmds]))


def machine_facts():
    import numpy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("openblas configuration",
                                                     info.get("version")))
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": " ".join(blas.split()), "env": PINNED_ENV}


def tail_percentile(samples):
    """(p, value): the highest percentile with at least ten samples beyond
    it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(name, unit, samples):
    tail = tail_percentile(samples)
    tail_text = ("p%.0f=%.6g" % tail) if tail else "tail=n/a (needs >= 11)"
    return "# %s: median=%.6g %s, %s, n=%d" % (
        name, statistics.median(samples), unit, tail_text, len(samples))


def check_pass(cmds, doc, reference, pins):
    """Failed-command count of one pass; records first outputs in reference."""
    failed = 0
    for i, (cmd, res) in enumerate(zip(cmds, doc["commands"])):
        problems = []
        if res["code"] != 0:
            problems.append("exit %s: %s" % (res["code"], res["stderr"].strip()[-300:]))
        else:
            problems += workloads.check(cmd, res["stdout"],
                                        pins[i] if pins else None)
            if reference.setdefault(i, res["stdout"]) != res["stdout"]:
                problems.append("output differs across --threads")
        if problems:
            failed += 1
            print("# FAILED %s: %s" % (" ".join(cmd.argv), "; ".join(problems)))
    return failed


def timed_run(workload, seed, seconds, size):
    """The end-to-end metrics, from untraced fresh-process passes."""
    cmds = workloads.commands(workload, seed, size)
    pins = workloads.load_pins()[workload] if seed == 0 and size == "full" else None
    spawn("child.py", "[]")  # warm-up: byte-compile, fill the page cache
    calibrate()  # warm-up: first touch of its arrays' memory
    calibrations = []
    setups = []
    samples = {1: [], 2: []}
    rss = {1: [], 2: []}
    spent = {1: 0.0, 2: 0.0}
    reference = {}
    attempted = failed = 0
    end = time.perf_counter() + seconds
    while True:
        # The side with less time spent goes next, so the noisier and
        # cheaper --threads 2 pass gets more samples.
        threads = min(spent, key=lambda t: (spent[t], t))
        started = time.perf_counter()
        # Host speed and set-up are sampled between all the passes, not in
        # one burst, since the host's speed changes within seconds.
        calibrations.append(calibrate())
        setups.append(spawn("child.py", "[]")["setup_s"])
        calibrations.append(calibrate())
        doc = run_pass(cmds, threads)
        spent[threads] += time.perf_counter() - started
        setups.append(doc["setup_s"])
        samples[threads].append(doc["wall_s"])
        rss[threads].append(doc["peak_rss_mb"])
        attempted += len(cmds)
        failed += check_pass(cmds, doc, reference, pins)
        if samples[1] and samples[2]:
            nxt = min(spent, key=lambda t: (spent[t], t))
            if time.perf_counter() + spent[nxt] / len(samples[nxt]) / 2 > end:
                break
    calibrations.append(calibrate())
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    print(describe("calibrate_s", "s", calibrations))
    print("# times below: raw, then scaled by %.6g / %.6g = %.6g"
          % (CALIBRATION_REF_S, statistics.median(calibrations), scale))
    for name, unit, values in (("wall_s.t1", "s", samples[1]),
                               ("wall_s.t2", "s", samples[2]),
                               ("setup_s", "s", setups)):
        print(describe(name + " raw", unit, values))
        print(describe(name, unit, [v * scale for v in values]))
    for name, unit, values in (("peak_rss_mb.t1", "MB", rss[1]),
                               ("peak_rss_mb.t2", "MB", rss[2])):
        print(describe(name, unit, values))
    print("# failed_frac: %d/%d" % (failed, attempted))
    metrics = {
        "wall_s.t1": (statistics.median(samples[1]) * scale, "s"),
        "wall_s.t2": (statistics.median(samples[2]) * scale, "s"),
        "setup_s": (statistics.median(setups) * scale, "s"),
        "peak_rss_mb.t1": (statistics.median(rss[1]), "MB"),
        "peak_rss_mb.t2": (statistics.median(rss[2]), "MB"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
    }
    return attempted, failed, metrics


def traced_run(workload, seed, size):
    """The per-layer metrics: one untraced pass, then the traced run."""
    cmds = workloads.commands(workload, seed, size)
    pins = workloads.load_pins()[workload] if seed == 0 and size == "full" else None
    spawn("child.py", "[]")
    untraced = run_pass(cmds, 1)
    failed = check_pass(cmds, untraced, {}, pins)
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d-%s.json" % (workload, seed, size))
    traced = spawn("traced.py", json.dumps(
        {"workload": workload, "seed": seed, "size": size, "spans": str(spans)}))
    attempted = 2 * len(cmds)
    for i, (cmd, res) in enumerate(zip(cmds, untraced["commands"])):
        values = traced["values"][i]
        ok = res["code"] == 0 and values is not None
        if ok:
            try:
                ok = workloads.key_values(cmd, res["stdout"]) == values
            except (ValueError, KeyError):
                ok = False
        if not ok or i in traced["t2_mismatch"]:
            failed += 1
            print("# FAILED traced %s: %s" % (" ".join(cmd.argv), "failed or differs"
                  " from the CLI document" if not ok else "differs across threads"))
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = (traced["pass_wall_s"] - untraced["wall_s"], "s")
    print("# traced pass %.3f s, untraced pass %.3f s; spans in %s"
          % (traced["pass_wall_s"], untraced["wall_s"], spans.relative_to(ROOT)))
    for name in ("zeta.busy_s", "series.busy_s"):
        print("# %s / untraced wall_s.t1 = %.3f"
              % (name, metrics[name][0] / untraced["wall_s"]))
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny runs the same commands at smoke-test size")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dirichlet_lab" / "cli.py").is_file():
        sys.stderr.write("dlabbench: no program source at %s\n" % (ROOT / "src"))
        return 2
    if args.seed < 0:
        sys.stderr.write("dlabbench: --seed must be >= 0\n")
        return 2
    try:
        print("# machine: " + json.dumps(machine_facts(), sort_keys=True))
        print("# workload %s seed %d size %s: %s" % (
            args.workload, args.seed, args.size, " ; ".join(
                " ".join(c.argv) for c in workloads.commands(
                    args.workload, args.seed, args.size))))
        if args.trace:
            attempted, failed, metrics = traced_run(args.workload, args.seed,
                                                    args.size)
        else:
            attempted, failed, metrics = timed_run(args.workload, args.seed,
                                                   args.seconds, args.size)
    except BenchError as exc:
        sys.stderr.write("dlabbench: %s\n" % exc)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
