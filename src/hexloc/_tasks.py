"""Independent tasks on up to one thread per core."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def map_tasks(fn, items) -> list:
    """``[fn(item) for item in items]``, one task per item on up to one
    thread per core.

    Each task starts as soon as its item is yielded, so the work a generator
    does between items overlaps the tasks already running. Meant for tasks
    whose work is mostly numpy and FFT code, which releases the interpreter
    lock. Results, and the first error, come out in item order, as from the
    serial loop, once every started task has finished.
    """
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return list(pool.map(fn, items))
