"""An ordered map over worker processes, one per available CPU.

``monte_carlo_validate`` runs its trials, ``write_dataset_file`` encodes
its records, and the dataset reader behind ``read_dataset_file``,
``load_dataset``, ``condet calibrate``, ``condet infer`` and ``condet
evaluate`` decodes, checks and processes the image records of a dataset
file through ``ordered_map``. The reader's parent scans the file for span
boundaries and hands each worker a byte span, which the worker reads from
the file itself, so only offsets pass to it and the file's text is never
held in the parent. The reader's workers read each span of records into
arrays for the three commands: those of ``condet calibrate`` and ``condet
evaluate`` return the arrays, and those of ``condet infer`` return the
span's encoded predictions, built from them. The workers of
``read_dataset_file`` and ``load_dataset`` return records and samples. The
results come back in item order whatever the worker count, so callers get
the same output from any count. The workers form a ``concurrent.futures``
process pool, which fails the map when one of them dies, where a
``multiprocessing.Pool`` would start a replacement and wait forever for the
lost result.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Iterator, Sequence

#: In a worker process: the function and the shared arguments of the map it
#: serves, set once when the worker starts.
_task: tuple[Callable, tuple] | None = None


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _start_worker(fn: Callable, shared: tuple) -> None:
    global _task
    _task = (fn, shared)


def _call(item):
    fn, shared = _task
    return fn(*shared, item)


def ordered_map(fn: Callable, shared: tuple, items: Sequence) -> Iterator:
    """Yield ``fn(*shared, item)`` for each of ``items``, in order.

    The calls run in worker processes, one per CPU this process may run on
    (so ``taskset`` limits them) and at most one per item. ``fn`` and
    ``shared`` reach each worker once, when it starts: under ``fork`` the
    worker inherits them, so only the items and the results are pickled.
    The first failing call in item order re-raises its exception here, and a
    worker that dies (killed by a signal, say) raises ``BrokenProcessPool``
    instead of leaving the map waiting for its result. With one worker, or in
    a daemonic process (which may not start children), the calls run in this
    process. Close the iterator, or exhaust it, to stop and join every
    worker; calls already handed to a worker finish first.
    """
    workers = min(_available_cpus(), len(items))
    if workers > 1:
        # Imported only here: their ~12 ms import would land on every condet
        # command, and a one-worker map does not need them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if not multiprocessing.current_process().daemon:
            # A forked worker starts without importing numpy and condet
            # again. numpy's OpenBLAS shuts its threads down around a fork.
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
            # ``map`` yields in item order and raises at the first failed
            # item; leaving the block cancels the calls not yet started and
            # joins every worker.
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(method),
                initializer=_start_worker,
                initargs=(fn, shared),
            ) as pool:
                yield from pool.map(_call, items)
            return
    yield from map(partial(fn, *shared), items)
