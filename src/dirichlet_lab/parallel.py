"""Thread-pool plumbing with order-preserving, scheduling-independent reduction.

`map_spans` is the one place where a range is cut into work windows.  The
window size is fixed by the problem parameters, never by the worker count,
and window results come back in window order.  Outputs are therefore
byte-identical for any --threads setting.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

from .errors import PreconditionError

__all__ = ["resolve_threads"]

ENV_THREADS = "DLAB_THREADS"

# No run cuts more windows than this; a larger range is refused before its
# window list is built.
_MAX_WINDOWS = 1 << 20


def resolve_threads(requested=None) -> int:
    """Worker count: explicit argument, else the DLAB_THREADS variable, else 1."""
    if requested is not None:
        n = int(requested)
    else:
        raw = os.environ.get(ENV_THREADS, "").strip() or "1"
        try:
            n = int(raw)
        except ValueError:
            msg = "thread count must be an integer: %s=%r" % (ENV_THREADS, raw)
            raise PreconditionError(msg) from None
    if n < 1:
        raise PreconditionError("thread count must be >= 1")
    return n


def finite_steps(T: float, step: float, what: str) -> float:
    """T / step, or PreconditionError when that grid size is not finite."""
    steps = T / step
    if not math.isfinite(steps):
        raise PreconditionError("%s T/step must be finite" % what)
    return steps


def check_windows(n: int, chunk: int) -> None:
    """PreconditionError when range(n) needs more than _MAX_WINDOWS windows."""
    if -(-n // chunk) > _MAX_WINDOWS:
        raise PreconditionError(
            "the range needs more than %d windows of %d" % (_MAX_WINDOWS, chunk)
        )


def map_spans(fn, n: int, chunk: int, threads=None) -> list:
    """[fn(lo, hi) for each window [lo, min(lo + chunk, n)) of range(n)].

    Windows run concurrently on min(threads, windows, cores) workers; the
    result list is in window order whatever the scheduling.  More than
    _MAX_WINDOWS windows raise PreconditionError before any window is listed.
    """
    threads = resolve_threads(threads)
    check_windows(n, chunk)
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    workers = min(threads, len(spans), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*spans)))
