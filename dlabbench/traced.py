"""The traced run, in a fresh process.

    python3 dlabbench/traced.py SPAWN_NS '{"workload": ..., "seed": ...,
                                          "size": ..., "spans": PATH}'

It feeds a workload's inputs to the public library functions that the
dlab handlers call, the way the handlers call them, with every evaluator
callable wrapped.  Pass t1 replays the CLI pass at one thread.  Pass t2
repeats the threaded calls at two threads, for speed-up and utilization.
The probe pass times public calls that the handlers only make internally.
Spans are kept in memory and written to PATH at the end; stdout gets one
JSON line with the per-layer metrics and the result values of pass t1.
"""

import json
import sys
import time
import traceback

import workloads
from tracing import Tracer, self_time

from dirichlet_lab.coefficients import builtin_series, load_source
from dirichlet_lab.convolution import inverse_coefficients, mollifier_coefficients
from dirichlet_lab.moments import QuadratureConfig, estimate_moment
from dirichlet_lab.primes import smooth_enumerate
from dirichlet_lab.series import default_evaluator, smooth_truncation_eval
from dirichlet_lab.torus import FlowConfig, box_hitting_fraction, standard_box_suite
from dirichlet_lab.zeros import (
    Rectangle,
    density_table,
    mollifier_tail_decay,
    recurrence_scan,
    rouche_verify,
    zero_scan,
)

CLI_N = 100_000  # the handlers' default --N for evaluators
THREADED = ("moments.estimate_moment", "zeros.recurrence_scan")
THREADED_KINDS = ("moment", "flow", "recur")  # the commands pass t2 repeats
ZEROS = ("zeros.zero_scan", "zeros.density_table", "zeros.recurrence_scan",
         "zeros.rouche_verify")


def traced_evaluator(tr, spec):
    """The evaluator the handlers build, wrapped.  The layer is named after
    the series, not the evaluator's class, so a new kernel keeps its name.
    Every non-zeta series in the workloads is an explicit polynomial."""
    ev = default_evaluator(spec, CLI_N)
    if spec.label == "zeta" and spec.has_pole_at_one:
        return tr.wrap(ev, "zeta.eval")
    terms = sum(1 for _, a in spec.coeffs.entries if a != 0)
    return tr.wrap(ev, "series.eval", terms=terms)


def run_command(tr, cmd, threads, keep):
    """The library calls of one dlab command; returns its result values."""
    p = cmd.params
    if cmd.kind == "moment":
        if p["series"] == "zeta":
            spec = builtin_series("zeta")
        else:
            with tr.span("coefficients.load_source"):
                spec = load_source(p["series"])
        f = traced_evaluator(tr, spec)
        with tr.span("moments.estimate_moment", threads=threads):
            rep = estimate_moment(spec, p["sigma"], p["k"], p["T"],
                                  cfg=QuadratureConfig(step=p["step"]),
                                  evaluator=f, threads=threads)
        return {"estimate": rep.estimate}
    if cmd.kind == "flow":
        rows = []
        for box in standard_box_suite():
            cfg = FlowConfig(dims=box.dims, T=p["T"], step=p["step"])
            with tr.span("torus.box_hitting_fraction", threads=threads,
                         dims=box.dims, grid_points=cfg.grid_size()):
                est = box_hitting_fraction(cfg, box, threads=threads)
            rows.append((est, box.volume))
        return {"t_horizon": [p["T"]] * len(rows),
                "estimate": [e for e, _ in rows], "target": [v for _, v in rows],
                "error": [abs(e - v) for e, v in rows]}
    if cmd.kind == "recur":
        f = traced_evaluator(tr, builtin_series("eta-factor"))
        with tr.span("zeros.recurrence_scan", threads=threads):
            rep = recurrence_scan(f, p["s0"], p["r"], p["T"], p["t_step"],
                                  grid=64, threads=threads)
        out = {"hits": list(rep.hits), "hit_integrals": list(rep.hit_integrals),
               "lower_bound_rate": rep.lower_bound_rate, "m0": rep.m0,
               "threshold": rep.threshold}
        if threads == 1:
            verified = []
            for t_j in rep.hits:
                with tr.span("zeros.rouche_verify"):
                    verified.append(rouche_verify(f, rep.s0, t_j, rep.r, rep.m0))
            out["verified"] = verified
        return out
    if cmd.kind == "zeros":
        f = traced_evaluator(tr, builtin_series("eta-factor"))
        with tr.span("zeros.zero_scan"):
            recs = zero_scan(f, Rectangle(*p["rect"]), tol=1e-10,
                             boundary_step=0.01)
        return {"count": len(recs),
                "re": [r.location.real for r in recs],
                "im": [r.location.imag for r in recs],
                "residual": [r.refinement_residual for r in recs],
                "confirmed": [r.winding_confirmed for r in recs]}
    if cmd.kind == "density":
        spec = builtin_series("zeta")
        f = traced_evaluator(tr, spec)
        with tr.span("zeros.density_table"):
            table = density_table(f, p["sigmas"], p["T"], sigma_hi=1.2,
                                  boundary_step=0.01,
                                  exclude_origin=spec.has_pole_at_one)
        return {"sigma": [s for s, _, _ in table],
                "count": [c for _, _, c in table]}
    if cmd.kind == "mollify":
        spec = builtin_series("zeta")
        with tr.span("coefficients.dense", N=p["N"]):
            a = spec.coeffs.dense(p["N"])
        with tr.span("convolution.inverse_coefficients"):
            b = inverse_coefficients(spec, p["N"])
        with tr.span("zeros.mollifier_tail_decay"):
            pairs = mollifier_tail_decay(a, b, p["sigma"], p["X_list"], p["N"])
        keep["mollify"] = (a, b, p["X_list"], p["N"])
        return {"X": [X for X, _ in pairs], "tail": [t for _, t in pairs]}
    if cmd.kind == "truncate":
        spec = builtin_series("zeta")
        # The handler enumerates inside smooth_truncation_eval; enumerating
        # first times that step cold, and the call then finds it cached.
        with tr.span("primes.smooth_enumerate") as attrs:
            attrs["members"] = len(smooth_enumerate(2 ** p["k"], p["M"]))
        with tr.span("series.smooth_truncation_eval"):
            value, bound = smooth_truncation_eval(spec, complex(p["s"]), p["k"],
                                                  p["M"])
        return {"re": value.real, "im": value.imag, "tail_bound": bound}
    raise ValueError("unknown command kind %r" % cmd.kind)


def probe(tr, keep):
    """Public calls the handlers make only inside other calls."""
    if "mollify" in keep:
        a, b, xs, N = keep["mollify"]
        for X in xs:
            with tr.span("convolution.mollifier_coefficients", X=X):
                mollifier_coefficients(a, b, X, N)


def layer_metrics(spans, t2_wall):
    """Per-layer metrics from the spans of passes t1, t2 and probe."""
    by_pass = {}
    for s in spans:
        by_pass.setdefault(s["pass"].rsplit("/", 1)[-1], []).append(s)
    t1 = by_pass.get("t1", [])
    t2 = by_pass.get("t2", [])
    probes = by_pass.get("probe", [])
    ids = {s["id"]: s for s in t1}

    def dur(s):
        return s["end"] - s["start"]

    def named(name, pool=t1):
        return [s for s in pool if s["name"] == name]

    def total(name, pool=t1):
        return sum(dur(s) for s in named(name, pool))

    def self_total(name):
        return sum(self_time(s, t1) for s in named(name))

    def under(s, names):
        parent = ids.get(s["parent"])
        return parent is not None and parent["name"] in names

    m = {}
    zeta = named("zeta.eval")
    m["zeta.calls"] = (len(zeta), "count")
    m["zeta.points"] = (sum(s["points"] for s in zeta), "count")
    m["zeta.busy_s"] = (sum(dur(s) for s in zeta), "s")
    m["zeta.points_per_s"] = (m["zeta.points"][0] / m["zeta.busy_s"][0]
                              if zeta else 0.0, "1/s")
    ser = named("series.eval")
    m["series.calls"] = (len(ser), "count")
    m["series.points"] = (sum(s["points"] for s in ser), "count")
    m["series.terms"] = (max((s["terms"] for s in ser), default=0), "count")
    m["series.busy_s"] = (sum(dur(s) for s in ser), "s")
    m["series.point_terms_per_s"] = (
        sum(s["points"] * s["terms"] for s in ser) / m["series.busy_s"][0]
        if ser else 0.0, "1/s")
    m["series.smooth_truncation_eval_s"] = (total("series.smooth_truncation_eval"), "s")
    evals = zeta + ser
    m["moments.nodes"] = (sum(s["points"] for s in evals
                              if under(s, ("moments.estimate_moment",))), "count")
    m["moments.estimate_moment_self_s"] = (self_total("moments.estimate_moment"), "s")
    boxes = named("torus.box_hitting_fraction")
    m["torus.grid_points"] = (sum(s["grid_points"] for s in boxes), "count")
    for d in (1, 2, 3, 4):
        m["torus.box_hitting_fraction_s.d%d" % d] = (
            sum(dur(s) for s in boxes if s["dims"] == d), "s")
    box_time = sum(dur(s) for s in boxes)
    m["torus.grid_points_per_s"] = (m["torus.grid_points"][0] / box_time
                                    if boxes else 0.0, "1/s")
    m["zeros.recurrence_scan_self_s"] = (self_total("zeros.recurrence_scan"), "s")
    m["zeros.rouche_verify_s"] = (total("zeros.rouche_verify"), "s")
    m["zeros.zero_scan_self_s"] = (self_total("zeros.zero_scan"), "s")
    m["zeros.density_table_self_s"] = (self_total("zeros.density_table"), "s")
    m["zeros.mollifier_tail_decay_s"] = (total("zeros.mollifier_tail_decay"), "s")
    m["zeros.boundary_points"] = (sum(
        s["points"] for s in evals if s["points"] > 1
        and under(s, ("zeros.zero_scan", "zeros.density_table"))), "count")
    m["zeros.scalar_calls"] = (sum(1 for s in evals if s["points"] == 1
                                   and under(s, ZEROS)), "count")
    m["convolution.inverse_coefficients_s"] = (total("convolution.inverse_coefficients"), "s")
    m["convolution.mollifier_coefficients_s"] = (
        total("convolution.mollifier_coefficients", probes), "s")
    m["coefficients.dense_s"] = (total("coefficients.dense"), "s")
    m["coefficients.load_source_s"] = (total("coefficients.load_source"), "s")
    m["primes.smooth_enumerate_cold_s"] = (total("primes.smooth_enumerate"), "s")
    m["primes.smooth_members"] = (sum(s["members"] for s in
                                      named("primes.smooth_enumerate")), "count")
    m["parallel.chunks"] = (sum(1 for s in evals if under(s, THREADED)), "count")
    for key, name in (("moment", "moments.estimate_moment"),
                      ("flow", "torus.box_hitting_fraction"),
                      ("recur", "zeros.recurrence_scan")):
        one, two = total(name), total(name, t2)
        m["parallel.speedup." + key] = (one / two if two else 0.0, "ratio")
    t2_busy = sum(dur(s) for s in t2 if s["name"] in ("zeta.eval", "series.eval"))
    m["parallel.utilization.t2"] = (t2_busy / (2.0 * t2_wall) if t2_wall else 0.0,
                                    "ratio")
    return m


def attempt(fn, *args):
    """fn(*args), or None after reporting the error: a failed command is
    counted by the caller, never allowed to end the run."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def main():
    job = json.loads(sys.argv[2])
    cmds = workloads.commands(job["workload"], job["seed"], job["size"])
    tr = Tracer()
    keep = {}
    run_id = "%s/seed%d/%s" % (job["workload"], job["seed"], job["size"])

    tr.pass_id = run_id + "/t1"
    start = time.perf_counter()
    values = []
    for cmd in cmds:
        with tr.span("dlab." + cmd.kind):
            values.append(attempt(run_command, tr, cmd, 1, keep))
    pass_wall = time.perf_counter() - start

    tr.pass_id = run_id + "/t2"
    t2_wall = 0.0
    mismatch = []
    for i, (cmd, want) in enumerate(zip(cmds, values)):
        if cmd.kind in THREADED_KINDS and want is not None:
            start = time.perf_counter()
            got = attempt(run_command, tr, cmd, 2, keep)
            t2_wall += time.perf_counter() - start
            if got is None or any(got[k] != want[k] for k in got):
                mismatch.append(i)

    tr.pass_id = run_id + "/probe"
    probe(tr, keep)

    tr.write(job["spans"])
    metrics = layer_metrics(tr.spans, t2_wall)
    print(json.dumps({"values": values, "t2_mismatch": mismatch,
                      "pass_wall_s": pass_wall, "metrics": metrics,
                      "source": sys.modules["dirichlet_lab"].__file__}))


if __name__ == "__main__":
    main()
