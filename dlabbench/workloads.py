"""The three benchmark workloads: their commands per seed, and the checks
every command's output must pass.

A command carries the exact `dlab` argv and the same inputs as numbers, so
the traced run can feed them to the library functions the CLI handlers
call.  Seed 0 runs exactly the argv the benchmark was defined with.  Other
seeds perturb sigma, T and the rectangle bounds, and move s0 along the
ladder 1 + 2 pi i k / log 2, while the grid sizes (and so the work) stay
fixed; on those seeds only the invariants are checked.
"""

import csv
import io
import json
import math
import random
from pathlib import Path

# recur-desk is the recur command followed by five serial "desk" commands.
# Timed alone, the desk commands' 4 s passes spread too much from run to
# run on a shared 2-core host to hold a 25% bound, and a fourth workload
# would shorten every run; one pass with recur keeps each module measured.
WORKLOADS = ("moment-zeta", "flow-suite", "recur-desk")

# The 1 + 2^{-s} coefficient file, relative to the checkout root.
TWO_TERM = "dlabbench/two_term.json"
PINS = Path(__file__).resolve().parent / "pins.json"

PERIOD = 2.0 * math.pi / math.log(2.0)  # zero spacing of 1 - 2^{1-s}

# Regression-pin tolerance, as in the repository's own pins.  The absolute
# floor covers values that are zero up to rounding (the zero at t = 0).
PIN_REL = 1e-9
PIN_ABS = 1e-12

# Zeta zero ordinates: the first four, and the 79th and 80th, which bracket
# every density horizon the workloads use.
_ZETA_FIRST = (14.134725142, 21.022039639, 25.010857580, 30.424876126)
_ZETA_79_80 = (198.015309676, 201.264751944)


class Command:
    """One dlab invocation (argv without --threads) and its inputs."""

    def __init__(self, kind, argv, **params):
        self.kind = kind
        self.argv = list(argv)
        self.params = params

    def __repr__(self):
        return "Command(%s)" % " ".join(self.argv)


SIZES = ("full", "tiny")

# Base parameters as argv text.  "tiny" keeps every check meaningful at
# smoke-test size: a coarser zeta step (the finite-T moment prediction needs
# T ~ 2000), a coarser flow grid, and a shorter mollifier range.
_BASE = {
    "full": {"moment_T": "2000", "moment_step": "0.01", "flow_T": "100000",
             "flow_step": "0.01", "recur_T": "100", "rect_t_hi": "1000",
             "density_T": "200", "X_list": "10,100,1000", "N": "100000",
             "M": "1000000", "two_T": "5000"},
    "tiny": {"moment_T": "2000", "moment_step": "0.05", "flow_T": "10000",
             "flow_step": "0.1", "recur_T": "10", "rect_t_hi": "30",
             "density_T": "28", "X_list": "10,30,100", "N": "20000",
             "M": "10000", "two_T": "50"},
}


def commands(workload, seed, size="full"):
    """The commands of one pass of `workload` on `seed`, in order."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    base = _BASE[size]
    rng = random.Random("%s/%d" % (workload, seed))

    def pick(text, lo, hi, digits=6):
        # The exact text on seed 0, else its value + U(lo, hi).
        if seed == 0:
            return text
        return repr(round(float(text) + rng.uniform(lo, hi), digits))

    def scaled_step(T, T0, step0="0.01"):
        # Keeps T / step, the grid size, at T0 / step0.
        if seed == 0:
            return step0
        return repr(float(T) / round(float(T0) / float(step0)))

    if workload == "moment-zeta":
        sigma = pick("0.75", -0.05, 0.05)
        T0 = base["moment_T"]
        T = pick(T0, -0.99, 0.0)  # keeps the truncation ceil(T) fixed
        step = scaled_step(T, T0, base["moment_step"])
        argv = ["moment", "--series", "zeta", "--sigma", sigma, "--k", "1",
                "--T", T, "--step", step]
        return [_moment(argv, "zeta", sigma, T, step)]
    if workload == "flow-suite":
        T0 = base["flow_T"]
        T = pick(T0, -0.01 * float(T0), 0.0, digits=3)
        step = scaled_step(T, T0, base["flow_step"])
        argv = ["flow", "--suite", "standard", "--T", T, "--step", step,
                "--format", "csv"]
        return [Command("flow", argv, T=float(T), step=float(step))]

    # recur-desk: recur, then five serial commands of which only the last,
    # the two-term moment, runs on threads.
    k = 0 if seed == 0 else rng.randint(-3, 3)
    s0 = "1+0i" if k == 0 else "1%s%ri" % ("+-"[k < 0], abs(k * PERIOD))
    T0 = base["recur_T"]
    T = pick(T0, -0.2, 0.4, digits=4)  # keeps floor(T / PERIOD)
    t_step = scaled_step(T, T0)
    recur = Command("recur", ["recur", "--series", "eta-factor", "--s0", s0,
                              "--r", "0.05", "--T", T, "--t-step", t_step],
                    s0=complex(1.0, k * PERIOD), r=0.05, T=float(T),
                    t_step=float(t_step))
    rect = [pick("0.5", -0.05, 0.05), pick("1.5", -0.05, 0.05),
            pick("-1", -0.5, 0.5), pick(base["rect_t_hi"], -0.5, 0.5)]
    sigmas = [pick(s, -0.03, 0.03) for s in ("0.4", "0.6", "0.8")]
    T_density = pick(base["density_T"], -1.5, 1.0, digits=4)
    sigma_mollify = pick("0.75", 0.0, 0.03)  # below 0.75 the tail needs N > 1e5
    s_truncate = pick("1.5", -0.1, 0.1)
    sigma_two = pick("1.0", -0.1, 0.1)
    T_two = pick(base["two_T"], -0.99, 0.0)
    step_two = scaled_step(T_two, base["two_T"])
    return [
        recur,
        Command("zeros", ["zeros", "--series", "builtin:eta-factor",
                          "--rect", ",".join(rect)],
                rect=[float(x) for x in rect]),
        Command("density", ["density", "--series", "zeta", "--sigma-list",
                            ",".join(sigmas), "--T", T_density,
                            "--format", "csv"],
                sigmas=[float(x) for x in sigmas], T=float(T_density)),
        Command("mollify", ["mollify", "--series", "zeta", "--sigma",
                            sigma_mollify, "--X-list", base["X_list"],
                            "--N", base["N"], "--format", "csv"],
                sigma=float(sigma_mollify),
                X_list=[int(x) for x in base["X_list"].split(",")],
                N=int(base["N"])),
        Command("truncate", ["truncate", "--series", "zeta", "--s", s_truncate,
                             "--k", "8", "--M", base["M"]],
                s=float(s_truncate), k=8, M=int(base["M"])),
        _moment(["moment", "--series", TWO_TERM, "--sigma", sigma_two,
                 "--T", T_two] + ([] if seed == 0 else ["--step", step_two]),
                TWO_TERM, sigma_two, T_two, step_two),
    ]


def _moment(argv, series, sigma, T, step):
    return Command("moment", argv, series=series, sigma=float(sigma), k=1,
                   T=float(T), step=float(step))


# ---------------------------------------------------------------------------
# Key values of a document


def key_values(cmd, text):
    """The values of a command's output document that the checks read.

    Raises ValueError (or KeyError) when the document does not parse.
    """
    if cmd.kind in ("flow", "density", "mollify"):
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty CSV document")
        cols = {key: [float(row[key]) for row in rows] for key in rows[0]}
        if cmd.kind == "flow":
            return {"t_horizon": cols["t-horizon"], "estimate": cols["estimate"],
                    "target": cols["target"], "error": cols["error"]}
        if cmd.kind == "density":
            return {"sigma": cols["sigma"],
                    "count": [int(c) for c in cols["count"]]}
        return {"X": [int(x) for x in cols["X"]], "tail": cols["tail"]}
    res = json.loads(text)["result"]
    if cmd.kind == "moment":
        return {"estimate": res["estimate"]}
    if cmd.kind == "zeros":
        return {"count": res["count"],
                "re": [z["re"] for z in res["zeros"]],
                "im": [z["im"] for z in res["zeros"]],
                "residual": [z["residual"] for z in res["zeros"]],
                "confirmed": [z["confirmed"] for z in res["zeros"]]}
    if cmd.kind == "recur":
        return {key: res[key] for key in ("hits", "hit_integrals", "verified",
                                          "lower_bound_rate", "m0",
                                          "threshold")}
    if cmd.kind == "truncate":
        return {"re": res["value"]["re"], "im": res["value"]["im"],
                "tail_bound": res["tail_bound"]}
    raise ValueError("unknown command kind %r" % cmd.kind)


# Keys whose values are pinned; residuals sit at rounding level and are
# bounded by the invariants instead.
_UNPINNED = {"residual"}


def pinned_view(values):
    return {k: v for k, v in values.items() if k not in _UNPINNED}


def load_pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b):
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= max(PIN_REL * max(abs(a), abs(b)), PIN_ABS)


def pin_problems(values, pinned):
    """Keys whose value differs from the pin by more than 1e-9 relative."""
    return ["%s differs from its pin" % key
            for key, want in pinned.items()
            if key not in values or not _close(values[key], want)]


# ---------------------------------------------------------------------------
# Invariants: closed-form facts that hold on every seed


def _zeta_real(x):
    """zeta(x) for real x in (0, 3), x != 1, by Euler-Maclaurin (N = 20)."""
    N = 20
    bern = (1.0 / 12, -1.0 / 720, 1.0 / 30240, -1.0 / 1209600, 1.0 / 47900160)
    total = sum(n ** -x for n in range(1, N))
    total += N ** (1.0 - x) / (x - 1.0) + 0.5 * N ** -x
    rising = x
    for k, c in enumerate(bern, start=1):
        total += c * rising * N ** (-x - 2 * k + 1)
        rising *= (x + 2 * k - 1) * (x + 2 * k)
    return total


def moment_zeta_prediction(sigma, T):
    """Finite-T mean square of zeta on Re s = sigma, 1/2 < sigma < 1:
    zeta(2 sigma) + (2 pi)^{2 sigma - 1} zeta(2 - 2 sigma) T^{1 - 2 sigma}
    / (2 - 2 sigma) (Titchmarsh ch. VII)."""
    return (_zeta_real(2.0 * sigma)
            + (2.0 * math.pi) ** (2.0 * sigma - 1.0) * _zeta_real(2.0 - 2.0 * sigma)
            * T ** (1.0 - 2.0 * sigma) / (2.0 - 2.0 * sigma))


def two_term_mean(sigma, T):
    """(1/T) * integral over [0, T] of |1 + 2^{-sigma-it}|^2, exactly."""
    L = math.log(2.0)
    return 1.0 + 4.0 ** -sigma + 2.0 * 2.0 ** -sigma * math.sin(T * L) / (T * L)


def _primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def zeta_smooth_euler(s, r):
    """Sum of n^{-s} over all r-smooth n: the Euler product over p <= r."""
    out = 1.0 + 0j
    for p in _primes_up_to(r):
        out /= 1.0 - p ** -complex(s)
    return out


def zeta_zero_count(T):
    """Number of zeta zeros with 0 < Im s <= T, for the horizons used here."""
    if _ZETA_79_80[0] < T < _ZETA_79_80[1]:
        return 79
    if T < _ZETA_FIRST[-1]:
        return sum(1 for g in _ZETA_FIRST if g <= T)
    raise ValueError("no zero count recorded for T = %r" % T)


def invariant_problems(cmd, v):
    """Closed-form facts the document must satisfy, as a list of problems."""
    p = cmd.params
    out = []

    def need(ok, what):
        if not ok:
            out.append(what)

    if cmd.kind == "moment":
        est = v["estimate"]
        need(math.isfinite(est), "estimate is not finite")
        if p["series"] == "zeta":
            pred = moment_zeta_prediction(p["sigma"], p["T"])
            need(abs(est - pred) <= 0.01 * pred,
                 "estimate %r is not within 1%% of %r" % (est, pred))
        else:
            exact = two_term_mean(p["sigma"], p["T"])
            need(abs(est - exact) <= 1e-6 * exact,
                 "estimate %r is not within 1e-6 of %r" % (est, exact))
    elif cmd.kind == "flow":
        need(len(v["error"]) == 10, "the suite has 10 boxes")
        need(all(e <= 0.01 for e in v["error"]), "a flow error exceeds 0.01")
        need(all(e == abs(a - b) for e, a, b in
                 zip(v["error"], v["estimate"], v["target"])),
             "error is not |estimate - target|")
    elif cmd.kind == "recur":
        hits = v["hits"]
        kmax = int(p["T"] // PERIOD)
        ks = sorted(round(h / PERIOD) for h in hits)
        want = [k for k in range(-kmax, kmax + 1) if k != 0]
        need(ks == want, "hits are not the ladder multiples %d..%d" % (-kmax, kmax))
        need(all(abs(h - round(h / PERIOD) * PERIOD) <= p["t_step"] for h in hits),
             "a hit is farther than t_step from the ladder")
        need(len(v["verified"]) == len(hits) and all(v["verified"]),
             "a hit is not Rouche-verified")
        need(v["lower_bound_rate"] == len(hits) / (2.0 * p["T"]),
             "rate is not hits / 2T")
    elif cmd.kind == "zeros":
        lo, hi, t_lo, t_hi = p["rect"]
        ks = [k for k in range(math.ceil(t_lo / PERIOD), math.floor(t_hi / PERIOD) + 1)
              if t_lo < k * PERIOD < t_hi] if lo < 1.0 < hi else []
        need(v["count"] == len(ks) == len(v["im"]),
             "count %r, want %d ladder zeros" % (v["count"], len(ks)))
        if len(v["im"]) == len(ks):
            need(all(abs(re - 1.0) <= 1e-8 and abs(im - k * PERIOD) <= 1e-8
                     for re, im, k in zip(v["re"], v["im"], ks)),
                 "a zero is off the ladder 1 + 2 pi i k / log 2")
        need(all(r <= 1e-8 for r in v["residual"]), "a residual exceeds 1e-8")
        need(all(v["confirmed"]), "a zero is unconfirmed")
    elif cmd.kind == "density":
        want = [zeta_zero_count(p["T"]) if s < 0.5 else 0 for s in p["sigmas"]]
        need(v["count"] == want, "counts %r, want %r" % (v["count"], want))
    elif cmd.kind == "mollify":
        t = v["tail"]
        need(all(x > 0 and math.isfinite(x) for x in t), "a tail is not positive")
        need(all(b < a for a, b in zip(t, t[1:])) and t[-1] < 0.5 * t[0],
             "tails do not decay")
    elif cmd.kind == "truncate":
        value = complex(v["re"], v["im"])
        full = zeta_smooth_euler(p["s"], 2 ** p["k"])
        need(abs(value - full) <= v["tail_bound"] + 1e-12,
             "value is not within tail_bound of the Euler product")
    return out


def check(cmd, text, pinned=None):
    """All problems with one output document; empty when it passes."""
    try:
        values = key_values(cmd, text)
        problems = invariant_problems(cmd, values)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["document does not parse: %s" % exc]
    if pinned is not None:
        problems += pin_problems(values, pinned)
    return problems
