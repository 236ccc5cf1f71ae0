"""Thread-pool plumbing with order-preserving, scheduling-independent reduction.

Work is always split into chunks whose boundaries are fixed by the problem
parameters, never by the worker count, and chunk results are combined in chunk
order.  Outputs are therefore byte-identical for any --threads setting.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import PreconditionError

ENV_THREADS = "DLAB_THREADS"


def resolve_threads(requested=None) -> int:
    """Worker count: explicit argument, else the DLAB_THREADS variable, else 1."""
    if requested is not None:
        n = int(requested)
    else:
        raw = os.environ.get(ENV_THREADS, "").strip()
        n = int(raw) if raw else 1
    if n < 1:
        raise PreconditionError("thread count must be >= 1")
    return n


def map_chunks(fn, items, threads=None):
    """Apply fn to every item and return results in input order.

    Items run concurrently when threads > 1; ordering of the result list never
    depends on scheduling.
    """
    threads = resolve_threads(threads)
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
