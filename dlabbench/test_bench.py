"""Self-tests for the benchmark: python3 -m pytest dlabbench -q

They run the program from ./src, so run them from the root of a checkout.
"""

import json
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy
import pytest

import run
import workloads
from tracing import Tracer, covered, self_time

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_smoke_run(workload, trace):
    result = _bench(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _corrupt(text, value):
    """text with the first decimal of the number `value` changed."""
    old = repr(value)
    i = old.index(".") + 1
    new = old[:i] + str((int(old[i]) + 1) % 10) + old[i + 1:]
    assert old in text
    return text.replace(old, new, 1)


def test_changed_digit_counts_as_failure():
    # Seed-0 recur-desk zeros and two-term moment: cheap, and pinned.
    cmds = workloads.commands("recur-desk", 0)
    pins = workloads.load_pins()["recur-desk"]
    picked = [1, 5]
    cmds = [cmds[i] for i in picked]
    pins = [pins[i] for i in picked]
    doc = run.run_pass(cmds, 1)
    assert run.check_pass(cmds, doc, {}, pins) == 0
    for i, key in ((0, "im"), (1, "estimate")):
        value = workloads.key_values(cmds[i], doc["commands"][i]["stdout"])[key]
        value = value[5] if isinstance(value, list) else value
        bad = json.loads(json.dumps(doc))
        bad["commands"][i]["stdout"] = _corrupt(doc["commands"][i]["stdout"], value)
        assert run.check_pass(cmds, bad, {}, pins) == 1


def test_nonzero_exit_and_thread_mismatch_count_as_failures():
    cmds = workloads.commands("moment-zeta", 1, "tiny")
    doc = run.run_pass(cmds, 1)
    reference = {}
    assert run.check_pass(cmds, doc, reference, None) == 0
    other = json.loads(json.dumps(doc))
    other["commands"][0]["stdout"] = doc["commands"][0]["stdout"].replace("\n", " \n", 1)
    assert run.check_pass(cmds, other, reference, None) == 1
    other["commands"][0]["code"] = 2
    assert run.check_pass(cmds, other, {}, None) == 1


def test_self_time_with_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        # two threads' evaluator calls overlap on [3, 4]
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},
        # reaches past the parent's end: only [8, 10] is inside
        {"id": 4, "parent": 1, "start": 8.0, "end": 12.0},
        # a grandchild is covered by its parent already
        {"id": 5, "parent": 2, "start": 2.0, "end": 3.0},
    ]
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    assert self_time(spans[0], spans) == 3.0
    assert self_time(spans[1], spans) == 2.0


def test_wrapper_counts_busy_time_of_concurrent_calls():
    tr = Tracer()
    tr.pass_id = "t2"
    barrier = threading.Barrier(2, timeout=10)

    def slow(s):
        barrier.wait()  # both calls are in flight at once
        time.sleep(0.2)
        return s

    f = tr.wrap(slow, "series.eval", terms=2)
    with tr.span("moments.estimate_moment"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(f, [1.0, 2.0]))
    calls = [s for s in tr.spans if s["name"] == "series.eval"]
    parent = next(s for s in tr.spans if s["name"] == "moments.estimate_moment")
    assert len(calls) == 2 and all(s["parent"] == parent["id"] for s in calls)
    busy = sum(s["end"] - s["start"] for s in calls)
    wall = parent["end"] - parent["start"]
    assert busy >= 0.4 and busy > 1.5 * wall - 0.05
    assert 0.0 <= self_time(parent, tr.spans) < wall - 0.15


def test_calibration_imports_nothing_from_the_program():
    code = ("import sys, run; assert run.calibrate() > 0; "
            "assert not [m for m in sys.modules if m.startswith('dirichlet_lab')]")
    subprocess.run([sys.executable, "-c", code], cwd=run.HERE, check=True,
                   env=run.child_env(), timeout=60)


def test_peak_rss_is_the_pass_process_own():
    big = numpy.ones(40_000_000)  # raises this process's peak by 320 MB
    del big
    assert run.spawn("child.py", "[]")["peak_rss_mb"] < 200


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    p, value = run.tail_percentile(list(range(20)))
    assert p == 50.0 and value == 9 and sum(x > value for x in range(20)) == 10


def test_seed_zero_runs_the_defined_argv():
    argv = [" ".join(c.argv) for w in workloads.WORKLOADS
            for c in workloads.commands(w, 0)]
    assert argv == [
        "moment --series zeta --sigma 0.75 --k 1 --T 2000 --step 0.01",
        "flow --suite standard --T 100000 --step 0.01 --format csv",
        "recur --series eta-factor --s0 1+0i --r 0.05 --T 100 --t-step 0.01",
        "zeros --series builtin:eta-factor --rect 0.5,1.5,-1,1000",
        "density --series zeta --sigma-list 0.4,0.6,0.8 --T 200 --format csv",
        "mollify --series zeta --sigma 0.75 --X-list 10,100,1000 --N 100000"
        " --format csv",
        "truncate --series zeta --s 1.5 --k 8 --M 1000000",
        "moment --series dlabbench/two_term.json --sigma 1.0 --T 5000",
    ]


@pytest.mark.parametrize("seed", (1, 2, 3, 7))
def test_other_seeds_keep_the_grid_sizes(seed):
    for w in workloads.WORKLOADS:
        base, other = workloads.commands(w, 0), workloads.commands(w, seed)
        assert [c.kind for c in base] == [c.kind for c in other]
        for b, o in zip(base, other):
            for step in ("step", "t_step"):
                if step in b.params:
                    assert (round(b.params["T"] / b.params[step])
                            == round(o.params["T"] / o.params[step]))
