"""Seeded random-number streams and the worker processes they feed.

Everything stochastic in this package runs off numpy's PCG64 generator.
Repetition units (Monte-Carlo trials, restart attempts) get their own child
stream so that running them serially, in forked worker processes, or out
of order cannot change any result.
"""

from __future__ import annotations

import os

import numpy as np

U64_MASK = 0xFFFF_FFFF_FFFF_FFFF


def master_stream(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit unsigned seed."""
    return np.random.default_rng(int(seed) & U64_MASK)


def derive_stream(seed: int, index: int) -> np.random.Generator:
    """Child PCG64 generator for repetition ``index``.

    Splitting rule: the child is seeded with ``seed XOR index`` (both taken
    as 64-bit unsigned values). numpy's SeedSequence hashes the result, so
    nearby indices still produce statistically independent streams.
    """
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return np.random.default_rng((int(seed) ^ int(index)) & U64_MASK)


def worker_count() -> int:
    """Worker cap: CVILAB_THREADS when set, at most the CPUs this process
    may run on, else that CPU count. The trials and the FPC k-selection run
    in up to this many forked worker processes (:func:`fork_map`); results
    never depend on the count."""
    usable = getattr(os, "sched_getaffinity", None)
    cpus = len(usable(0)) if usable else os.cpu_count() or 1
    raw = os.environ.get("CVILAB_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"CVILAB_THREADS must be a positive integer, got {raw!r}")
        return min(value, cpus)
    return cpus


def _install(fn) -> None:  # the pool initializer, run in each forked worker
    global _worker_fn
    _worker_fn = fn


def _call(item):
    return _worker_fn(item)


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` in up to :func:`worker_count` forked
    processes, one item per task, last first (a larger k costs more). ``fn``
    reaches them through fork, not pickle, so closures work. The first
    failing item in item order raises. One worker or item, no ``fork``, or
    a call inside a worker runs the plain loop. No worker outlives the call."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers > 1:
        import multiprocessing as mp
        if "fork" in mp.get_all_start_methods() and mp.parent_process() is None:
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers, mp.get_context("fork"), _install, (fn,))
            try:
                pending = [pool.submit(_call, item) for item in reversed(items)]
                return [future.result() for future in reversed(pending)]
            finally:
                # Drops the tasks not yet started and joins every worker.
                pool.shutdown(cancel_futures=True)
    return [fn(item) for item in items]
