"""Seeded random-number streams and the worker processes they feed.

Everything stochastic in this package runs off numpy's PCG64 generator.
Repetition units (Monte-Carlo trials, restart attempts) get their own child
stream so that running them serially, in forked worker processes, or out
of order cannot change any result. The workers are bare forks that take
item numbers from one pipe; no helper thread runs beside them.
"""

from __future__ import annotations

import os
import pickle

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
    in up to this many forked workers (:func:`fork_map`); results never
    depend on the count."""
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


_in_worker = False  # set in each forked worker, so that a call inside it runs serially


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` in up to :func:`worker_count` forked
    workers, with no helper thread. ``fn`` reaches them through fork, not
    pickle, so closures work. The workers take item numbers from one pipe,
    last item first (a larger k costs more), and each answers once. The
    first failing item in item order raises; a worker that dies raises
    ``BrokenProcessPool``. One worker or item, no ``fork``, or a call inside
    a worker runs the plain loop. No worker outlives the call."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers < 2 or _in_worker or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    from multiprocessing.connection import Pipe
    todo, feed = (open(fd, mode, buffering=0) for fd, mode in zip(os.pipe(), ("rb", "wb")))
    children = []  # (pid, answer receiver) of each worker
    try:
        for _ in range(workers):
            receiver, sender = Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                _work(fn, items, todo, feed, sender)
            children.append((pid, receiver))
            sender.close()
        todo.close()  # with no worker left, a write fails instead of blocking
        numbers = memoryview(np.arange(len(items) - 1, -1, -1, dtype="<u4").tobytes())
        try:
            while numbers:
                numbers = numbers[feed.write(numbers):]
        except BrokenPipeError:
            pass  # every worker is gone; reading their answers says so
        feed.close()
        answers = {}
        for _, receiver in children:
            try:
                answers.update(receiver.recv())
            except EOFError:
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool("a fork_map worker exited before it answered") from None
    except BaseException:
        from signal import SIGKILL
        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        todo.close()
        feed.close()
        for pid, receiver in children:
            receiver.close()
            os.waitpid(pid, 0)
    for ok, value in map(answers.get, range(len(items))):
        if not ok:
            raise value
    return [pickle.loads(answers[i][1]) for i in range(len(items))]


def _work(fn, items, todo, feed, sender) -> None:
    """A forked worker: ``fn`` on each item number read from ``todo`` until
    the pipe is dry (it holds whole 4-byte numbers only), then one answer,
    ``{number: (True, pickled value) or (False, exception)}``, and exit."""
    global _in_worker
    _in_worker, results = True, {}
    try:
        feed.close()
        while number := todo.read(4):
            i = int.from_bytes(number, "little")
            try:
                results[i] = True, pickle.dumps(fn(items[i]))
            except Exception as exc:  # an unpicklable value fails as its item does
                results[i] = False, exc
        sender.send(results)
    finally:
        os._exit(0)  # never back into the caller's code; the parent reads no exit code
