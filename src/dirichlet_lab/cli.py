"""dlab: reproducible command-line experiments over the library modules.

One invocation runs exactly one experiment and writes one machine-readable
document (JSON by default, CSV where a row shape is defined) to stdout or
--out.  JSON documents embed the resolved experiment configuration so a run
can be replayed from its own output.  Exit codes: 0 success, 1 precondition
error, 2 numerical failure, 64 usage.
"""

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict

from .coefficients import SeriesSpec, builtin_series, load_source
from .convolution import _inverse_of_table
from .errors import AccuracyWarning, NumericalError, PreconditionError
from .moments import QuadratureConfig, estimate_moment
from .parallel import resolve_threads
from .series import default_evaluator, smooth_truncation_eval
from .torus import Box, FlowConfig, box_hitting_fractions, standard_box_suite
from .zeros import (
    Rectangle,
    _rouche_checks,
    density_table,
    mollifier_tail_decay,
    recurrence_scan,
    zero_scan,
)

__all__ = ["UsageError", "main", "run"]


class UsageError(argparse.ArgumentTypeError):
    """Bad argv: unknown subcommand/flag or malformed value (exit 64).

    An ArgumentTypeError, so argparse keeps the message when an option's
    type function raises it.
    """


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"

# A token that starts like a negative number: -0.5,0.5,0,30 or -1+0i or -.2.
_NEGATIVE = re.compile(r"-[\d.]")


def _attach_negative_values(argv):
    """argv with each `--opt VALUE` whose VALUE starts like a negative
    number written as `--opt=VALUE`.  argparse takes a token that starts
    with '-' for an option unless it is a plain number, so `--rect
    -0.5,0.5,0,30` or `--s0 -1+0i` would lose its value."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if _NEGATIVE.match(tok) and re.fullmatch(r"--[^=]+", prev):
            out[-1] = prev + "=" + tok
        else:
            out.append(tok)
    return out


def _parse_float(text: str) -> float:
    """argparse type for real options: a finite number (no nan, no inf)."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError("expected a finite number: %r" % text)
    return x


def _parse_complex(text: str) -> complex:
    """Finite complex literals of the form a+bi (also bare a, bare bi)."""
    z = _parse_complex_literal(text)
    if not cmath.isfinite(z):
        raise UsageError("complex values must be finite: %r" % text)
    return z


def _parse_complex_literal(text: str) -> complex:
    t = text.strip().replace(" ", "")
    m = re.fullmatch(r"([+-]?%s)" % _NUM, t)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = re.fullmatch(r"([+-]?(?:%s)?)i" % _NUM, t)
    if m:
        c = m.group(1)
        im = 1.0 if c in ("", "+") else -1.0 if c == "-" else float(c)
        return complex(0.0, im)
    m = re.fullmatch(r"([+-]?%s)([+-](?:%s)?)i" % (_NUM, _NUM), t)
    if m:
        c = m.group(2)
        im = 1.0 if c == "+" else -1.0 if c == "-" else float(c)
        return complex(float(m.group(1)), im)
    raise UsageError("complex values use the form a+bi: %r" % text)


def _parse_floats(text: str):
    """argparse type for list options: comma-separated finite numbers."""
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("expected comma-separated numbers: %r" % text)
    if not all(map(math.isfinite, vals)):
        raise UsageError("expected finite numbers: %r" % text)
    return vals


def _parse_ints(text: str):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("expected comma-separated integers: %r" % text)


def _parse_rect(text: str):
    vals = _parse_floats(text)
    if len(vals) != 4:
        raise UsageError("expected sigma_lo,sigma_hi,t_lo,t_hi: %r" % text)
    return vals


def _resolve_series(ref: str) -> SeriesSpec:
    if ref.startswith("builtin:"):
        return builtin_series(ref[len("builtin:") :])
    if os.path.exists(ref):
        return load_source(ref)
    return builtin_series(ref)


def _cplx(z: complex):
    return {"re": float(z.real), "im": float(z.imag)}


def _csv_cell(c) -> str:
    if c is None:
        return ""
    if isinstance(c, float):
        return repr(float(c))  # plain shortest round-trip, even for np floats
    return str(c)


def _config(args) -> dict:
    """Every parsed option, with --format recorded as `output`."""
    # threads intentionally left out: outputs must not vary with worker count.
    cfg = {"output": args.fmt}
    for key, value in vars(args).items():
        if key not in ("fmt", "out", "threads"):
            cfg[key] = _cplx(value) if isinstance(value, complex) else value
    return cfg


def _render(args, result, csv_header, csv_rows) -> str:
    """The JSON document, or the CSV rows projected from result's row dicts:
    column c reads key c.replace("-", "_")."""
    if args.fmt == "csv":
        if csv_header is None:
            raise UsageError("%s emits JSON only" % args.subcommand)
        keys = [c.replace("-", "_") for c in csv_header.split(",")]
        lines = [csv_header]
        lines.extend(",".join(_csv_cell(row[k]) for k in keys) for row in csv_rows)
        return "\n".join(lines) + "\n"
    doc = {"experiment": args.subcommand, "config": _config(args), "result": result}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (result, csv_header, csv_rows), where the
# CSV rows are dicts of the result itself.


def _cmd_moment(args, threads):
    spec = _resolve_series(args.series)
    cfg = QuadratureConfig(step=args.step, rule=args.rule)
    evaluator = default_evaluator(spec, args.N)
    rep = estimate_moment(
        spec, args.sigma, args.k, args.T,
        cfg=cfg, evaluator=evaluator, threads=threads,
    )
    result = asdict(rep)
    return result, "sigma,k,T,step,estimate,target,rel_error", [result]


def _cmd_zeros(args, threads):
    spec = _resolve_series(args.series)
    f = default_evaluator(spec, args.N)
    records = zero_scan(f, Rectangle(*args.rect), tol=args.tol, boundary_step=args.step)
    zeros = [
        {"re": rec.location.real, "im": rec.location.imag,
         "residual": rec.refinement_residual, "confirmed": rec.winding_confirmed}
        for rec in records
    ]
    return {"count": len(zeros), "zeros": zeros}, "re,im,residual", zeros


def _cmd_density(args, threads):
    spec = _resolve_series(args.series)
    f = default_evaluator(spec, args.N)
    table = density_table(
        f, args.sigma_list, args.T,
        sigma_hi=args.sigma_hi,
        boundary_step=args.step,
        exclude_origin=spec.has_pole_at_one,
    )
    rows = [{"sigma": s, "T": T, "count": c} for s, T, c in table]
    return {"rows": rows}, "sigma,T,count", rows


def _cmd_flow(args, threads):
    if "suite" in args and "box" in args:
        raise UsageError("--box and --suite are mutually exclusive")
    if "suite" in args:
        boxes = standard_box_suite()
    elif "box" in args:
        if len(args.box) % 2:
            raise UsageError("--box takes one lo,hi pair per dimension")
        boxes = [Box(lo=tuple(args.box[0::2]), hi=tuple(args.box[1::2]))]
    else:
        raise UsageError("flow needs --box or --suite")
    # Coordinate i of the flow depends on step and lam_i only, so one cloud
    # of the widest box's dimension serves every box.
    cfg = FlowConfig(dims=max(box.dims for box in boxes), T=args.T, step=args.step)
    ests = box_hitting_fractions(cfg, boxes, threads=threads)
    rows = [
        {"t_horizon": args.T, "estimate": est, "target": box.volume,
         "error": abs(est - box.volume), "box": {"lo": list(box.lo), "hi": list(box.hi)}}
        for box, est in zip(boxes, ests)
    ]
    return {"rows": rows}, "t-horizon,estimate,target,error", rows


def _cmd_recur(args, threads):
    spec = _resolve_series(args.series)
    f = default_evaluator(spec, args.N)
    rep = recurrence_scan(
        f, args.s0, args.r, args.T, args.t_step, grid=args.grid, threads=threads
    )
    result = asdict(rep)
    result["s0"] = _cplx(rep.s0)
    result["verified"] = _rouche_checks(f, rep.s0, rep.hits, rep.r)
    return result, None, None


def _cmd_mollify(args, threads):
    spec = _resolve_series(args.series)
    # One table serves the inverse and the mollified series.  The tails
    # read b_1..b_X only, so the inverse stops at the largest X below N.
    a = spec.coeffs.dense(args.N)
    b = _inverse_of_table(a[: max(1, min(args.N, max(args.X_list))) + 1])
    pairs = [
        {"X": X, "tail": tail}
        for X, tail in mollifier_tail_decay(a, b, args.sigma, args.X_list, args.N)
    ]
    return {"pairs": pairs}, "X,tail", pairs


def _cmd_truncate(args, threads):
    spec = _resolve_series(args.series)
    value, bound = smooth_truncation_eval(spec, args.s, args.k, args.M)
    result = {"value": _cplx(value), "tail_bound": bound, "k": args.k, "M": args.M}
    return result, "re,im,tail_bound", [dict(result["value"], tail_bound=bound)]


def _add_common(sp, series=True):
    if series:
        sp.add_argument(
            "--series", required=True,
            help="builtin name, builtin:NAME, or a coefficient JSON path",
        )
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write the document here instead of stdout")
    sp.add_argument("--threads", type=int, default=None,
                    help="worker cap (default: DLAB_THREADS or 1)")


@functools.cache
def _build_parser() -> _Parser:
    """The argv parser, built once per process.  It holds no handler: run
    looks up _cmd_<subcommand> when it dispatches."""
    p = _Parser(prog="dlab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    sp = sub.add_parser("moment", help="quadrature mean of |f|^{2k} over [0, T]")
    _add_common(sp)
    sp.add_argument("--sigma", type=_parse_float, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--T", type=_parse_float, required=True)
    sp.add_argument("--step", type=_parse_float, default=0.01)
    sp.add_argument("--rule", choices=("simpson", "trapezoid"), default="simpson")
    sp.add_argument("--N", type=int, default=100_000,
                    help="truncation length for generic series evaluators")

    sp = sub.add_parser("zeros", help="scan a rectangle for zeros")
    _add_common(sp)
    sp.add_argument("--rect", type=_parse_rect, required=True,
                    help="sigma_lo,sigma_hi,t_lo,t_hi")
    sp.add_argument("--tol", type=_parse_float, default=1e-10)
    sp.add_argument("--step", type=_parse_float, default=0.01, help="boundary step")
    sp.add_argument("--N", type=int, default=100_000)

    sp = sub.add_parser("density", help="zero counts right of each sigma, up to height T")
    _add_common(sp)
    sp.add_argument("--sigma-list", type=_parse_floats, required=True)
    sp.add_argument("--T", type=_parse_float, required=True)
    sp.add_argument("--sigma-hi", type=_parse_float, default=1.2)
    sp.add_argument("--step", type=_parse_float, default=0.01, help="boundary step")
    sp.add_argument("--N", type=int, default=100_000)

    sp = sub.add_parser("flow", help="torus flow box-hitting fractions")
    _add_common(sp, series=False)
    sp.add_argument("--T", type=_parse_float, required=True)
    sp.add_argument("--step", type=_parse_float, default=0.01)
    # Left out of the namespace, and so of the config block, unless given.
    sp.add_argument("--box", type=_parse_floats, default=argparse.SUPPRESS,
                    help="lo,hi pairs, one per dimension")
    sp.add_argument("--suite", choices=("standard",), default=argparse.SUPPRESS)

    sp = sub.add_parser("recur", help="near-recurrence scan around a seed zero")
    _add_common(sp)
    sp.add_argument("--s0", type=_parse_complex, required=True, help="seed zero, a+bi")
    sp.add_argument("--r", type=_parse_float, required=True, help="disc radius")
    sp.add_argument("--T", type=_parse_float, required=True)
    sp.add_argument("--t-step", type=_parse_float, default=0.01)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--N", type=int, default=100_000)

    sp = sub.add_parser("mollify", help="mollified tail decay across cutoffs X")
    _add_common(sp)
    sp.add_argument("--sigma", type=_parse_float, required=True)
    sp.add_argument("--X-list", type=_parse_ints, required=True,
                    help="comma-separated cutoffs")
    sp.add_argument("--N", type=int, default=100_000)

    sp = sub.add_parser("truncate", help="smooth truncation value with tail bound")
    _add_common(sp)
    sp.add_argument("--s", type=_parse_complex, required=True, help="a+bi")
    sp.add_argument("--k", type=int, required=True, help="smoothness 2^k")
    sp.add_argument("--M", type=int, default=None,
                    help="index cutoff; omit for the pure Euler-product route")

    return p


@functools.cache
def _pin_blas() -> bool:
    """Put numpy's bundled OpenBLAS on one thread, once per process; True
    when a thread setter was found.

    OpenBLAS rounds its one-thread and threaded products differently, so a
    document on the kernel's matrix products would otherwise depend on
    OPENBLAS_NUM_THREADS in its last bits.  Called at the first run, not at
    import, so that importing the package stays cheap.  A BLAS without
    either setter (MKL, Accelerate, a system OpenBLAS) is left alone.
    """
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name)(1)
                return True
    return False


def run(argv=None) -> int:
    """Parse argv, run one experiment, write one document.  Returns the
    process exit code.  Every stderr line starts with `dlab:`: a failed run
    prints one error line, and a successful run prints each distinct warning
    message it raised once, sorted, as a `dlab: warning:` line.  The first
    run in a process pins BLAS to one thread (_pin_blas)."""
    _pin_blas()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AccuracyWarning)
        try:
            parser = _build_parser()
            args = parser.parse_args(
                _attach_negative_values(sys.argv[1:] if argv is None else argv)
            )
            threads = resolve_threads(args.threads)
            handler = globals()["_cmd_" + args.subcommand]
            result, csv_header, csv_rows = handler(args, threads)
            text = _render(args, result, csv_header, csv_rows)
        except UsageError as exc:
            sys.stderr.write("dlab: usage: %s\n" % exc)
            return 64
        except PreconditionError as exc:
            sys.stderr.write("dlab: precondition: %s\n" % exc)
            return 1
        except NumericalError as exc:
            sys.stderr.write("dlab: numerical: %s\n" % exc)
            return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for message in sorted({str(w.message) for w in caught}):
        sys.stderr.write("dlab: warning: %s\n" % message)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
