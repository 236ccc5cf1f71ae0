"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "criterion NN <name>: ... -> PASS/FAIL" line with
the measured numbers before asserting, so a red run still reports what was
actually observed.  CLI invocations go through run_cached: criterion 10
re-reads the very same runs to compare output bytes across thread counts.
"""

import json
import math

import numpy as np
import pytest

from dirichlet_lab import (
    Rectangle,
    TorusPoint,
    builtin_series,
    default_evaluator,
    smooth_truncation_eval,
    twisted_eval,
    winding_count,
)
from dirichlet_lab.primes import log_frequencies, primes_up_to

from _harness import run_cached
from _oracles import (
    FOURTH_MEAN_0_75_T2000,
    FOURTH_TARGET_0_75,
    LOG2_OVER_2PI,
    RVM_100,
    SECOND_MEAN_0_75_T2000,
    TWO_TERM_LIMIT,
    ZETA_1_5,
    two_term_mean,
)

# Criterion 3's coefficient file (1 + 2^{-s}) is written by the c3_path
# fixture; this placeholder in its argv stands for the file's path.
C3_SERIES = "<two-term file>"

A1 = ["moment", "--series", "zeta", "--sigma", "0.75", "--k", "1",
      "--T", "2000", "--step", "0.01"]
A2 = ["moment", "--series", "zeta", "--sigma", "0.75", "--k", "2",
      "--T", "2000", "--step", "0.01"]
A3A = ["moment", "--series", C3_SERIES, "--sigma", "1.0", "--T", "5000"]
A3B = ["moment", "--series", C3_SERIES, "--sigma", "1.0", "--T", "10000"]
A5 = ["flow", "--suite", "standard", "--T", "100000", "--step", "0.01",
      "--format", "csv"]
A6 = ["zeros", "--series", "builtin:eta-factor", "--rect", "0.5,1.5,-1,100"]
A7 = ["density", "--series", "zeta", "--sigma-list", "0.4,0.6", "--T", "100",
      "--format", "csv"]
A8 = ["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05",
      "--T", "100", "--t-step", "0.01"]
A9 = ["mollify", "--series", "zeta", "--sigma", "0.75",
      "--X-list", "10,100,1000", "--N", "100000", "--format", "csv"]

CLI_CRITERIA = [A1, A2, A3A, A3B, A5, A6, A7, A8, A9]

_C4 = {}


@pytest.fixture(scope="module")
def c3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("dlab-accept") / "two_term.json"
    path.write_text(json.dumps(
        {"kind": "explicit", "coeffs": [[1, 1.0, 0.0], [2, 1.0, 0.0]]}))
    return str(path)


def _with_c3(argv, c3_path):
    return [c3_path if a == C3_SERIES else a for a in argv]


def _line(num, name, ok, detail):
    print("criterion %02d %s: %s -> %s" % (num, name, detail, "PASS" if ok else "FAIL"))
    return ok


def _doc(argv):
    code, out, _ = run_cached(argv + ["--threads", "4"])
    assert code == 0, "exit %d for %r" % (code, argv)
    return json.loads(out)


def _csv_rows(argv):
    code, out, _ = run_cached(argv + ["--threads", "4"])
    assert code == 0, "exit %d for %r" % (code, argv)
    lines = out.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_criterion_01_second_moment_zeta():
    est = _doc(A1)["result"]["estimate"]
    ref = SECOND_MEAN_0_75_T2000
    rel = abs(est - ref) / ref
    gap = (est - ZETA_1_5) / ZETA_1_5
    ok = rel <= 0.01
    assert _line(1, "second-moment", ok,
                 "estimate=%.6f finite-T mean=%.6f rel=%.4f (tol 0.01); "
                 "limit zeta(3/2)=%.6f, gap to limit=%+.4f"
                 % (est, ref, rel, ZETA_1_5, gap))


def test_criterion_02_fourth_moment_zeta():
    est = _doc(A2)["result"]["estimate"]
    ref = FOURTH_MEAN_0_75_T2000
    rel = abs(est - ref) / ref
    gap = (est - FOURTH_TARGET_0_75) / FOURTH_TARGET_0_75
    ok = rel <= 1e-6
    assert _line(2, "fourth-moment", ok,
                 "estimate=%.6f mpmath finite-T mean=%.6f rel=%.2e (tol 1e-6); "
                 "limit zeta(3/2)^4/zeta(3)=%.6f, gap to limit=%+.4f"
                 % (est, ref, rel, FOURTH_TARGET_0_75, gap))


def test_criterion_03_two_term_mean_square(c3_path):
    ok, parts = True, []
    for argv in (_with_c3(A3A, c3_path), _with_c3(A3B, c3_path)):
        T = float(argv[argv.index("--T") + 1])
        est = _doc(argv)["result"]["estimate"]
        err = abs(est - TWO_TERM_LIMIT)
        envelope = 1.0 / (T * math.log(2.0))
        exact = two_term_mean(T)
        rel_exact = abs(est - exact) / exact
        ok = (ok and err / TWO_TERM_LIMIT <= 0.01 and err <= envelope
              and rel_exact <= 1e-9)
        parts.append("T=%g: estimate=%.6f rel=%.4f (tol 0.01), |error|=%.3e "
                     "(envelope 1/(T log 2)=%.3e), rel to exact finite-T "
                     "mean=%.1e (tol 1e-9)"
                     % (T, est, err / TWO_TERM_LIMIT, err, envelope, rel_exact))
    assert _line(3, "two-term-mean-square", ok,
                 "limit=%.4f; %s" % (TWO_TERM_LIMIT, "; ".join(parts)))


def _c4_diffs():
    spec = builtin_series("zeta")
    rng = np.random.default_rng(12345)
    diffs = []
    for _ in range(100):
        t = float(rng.uniform(-100.0, 100.0))
        sigma = float(rng.uniform(0.6, 2.0))
        im = float(rng.uniform(-50.0, 50.0))
        k = int(rng.integers(1, 9))
        s = complex(sigma, im)
        nprimes = len(primes_up_to(2**k))
        theta = TorusPoint(coords=np.mod(t * log_frequencies(nprimes), 1.0))
        twisted = twisted_eval(spec, theta, s, k, 10000)
        shifted, _ = smooth_truncation_eval(spec, s + 1j * t, k, 10000)
        diffs.append(abs(twisted - shifted))
    return diffs


def test_criterion_04_twist_matches_vertical_shift():
    diffs = _c4_diffs()
    _C4["diffs"] = diffs
    worst = max(diffs)
    ok = worst < 1e-9
    assert _line(4, "twist-shift-identity", ok,
                 "100 random (s, t, k), max |twisted - shifted| = %.3e (tol 1e-9)"
                 % worst)


def test_criterion_05_flow_suite_equidistribution():
    header, rows = _csv_rows(A5)
    assert header == "t-horizon,estimate,target,error"
    worst = max(float(r[3]) for r in rows)
    ok = worst <= 0.01
    assert _line(5, "flow-suite", ok,
                 "%d boxes at T=1e5, max |fraction - volume| = %.5f (tol 0.01)"
                 % (len(rows), worst))


def test_criterion_06_ladder_zero_census():
    res = _doc(A6)["result"]
    worst = max(z["residual"] for z in res["zeros"]) if res["zeros"] else 0.0
    w = winding_count(
        default_evaluator(builtin_series("eta-factor")),
        Rectangle(0.5, 1.5, -1.0, 100.0),
    )
    ok = res["count"] == 12 and worst < 1e-8 and w == 12
    assert _line(6, "ladder-zero-census", ok,
                 "count=%d (want 12), max residual=%.2e (tol 1e-8), "
                 "winding=%d" % (res["count"], worst, w))


def test_criterion_07_zero_density_window():
    header, rows = _csv_rows(A7)
    assert header == "sigma,T,count"
    counts = {float(r[0]): int(r[2]) for r in rows}
    ok = counts[0.4] == 29 and counts[0.6] == 0
    assert _line(7, "zero-density-window", ok,
                 "N(0.4, 100)=%d (want 29, smooth count %.3f), N(0.6, 100)=%d "
                 "(want 0)" % (counts[0.4], RVM_100, counts[0.6]))


def test_criterion_08_recurrent_zero_rate():
    res = _doc(A8)["result"]
    rate = res["lower_bound_rate"]
    rel = abs(rate - LOG2_OVER_2PI) / LOG2_OVER_2PI
    verified = bool(res["verified"]) and all(res["verified"])
    ok = rel <= 0.05 and verified and res["hits"]
    assert _line(8, "recurrent-zero-rate", ok,
                 "%d hits, rate=%.6f vs log2/2pi=%.6f rel=%.4f (tol 0.05), "
                 "all verified=%s" % (len(res["hits"]), rate, LOG2_OVER_2PI,
                                      rel, verified))


def test_criterion_09_mollifier_tail_decay():
    header, rows = _csv_rows(A9)
    assert header == "X,tail"
    tails = [float(r[1]) for r in rows]
    ok = all(b < a for a, b in zip(tails, tails[1:])) and tails[-1] < 0.5 * tails[0]
    assert _line(9, "mollifier-tail-decay", ok,
                 "tails at X=10,100,1000: %.6f %.6f %.6f (strictly decreasing, "
                 "last < half of first)" % tuple(tails))


def test_criterion_10_thread_determinism(c3_path):
    mismatches = []
    for argv in (_with_c3(a, c3_path) for a in CLI_CRITERIA):
        outs = []
        for extra in ((), ("--threads", "1"), ("--threads", "4"),
                      ("--threads", "8")):
            code, out, _ = run_cached(argv + list(extra))
            assert code == 0, "exit %d for %r" % (code, argv + list(extra))
            outs.append(out)
        if any(o != outs[0] for o in outs[1:]):
            mismatches.append(argv[0])
    ref = _C4.get("diffs") or _c4_diffs()
    replay_equal = _c4_diffs() == ref
    ok = not mismatches and replay_equal
    assert _line(10, "thread-determinism", ok,
                 "%d commands x 4 thread settings byte-identical "
                 "(mismatches: %s), library replay bit-identical=%s"
                 % (len(CLI_CRITERIA), mismatches or "none", replay_equal))
