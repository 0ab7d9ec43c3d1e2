"""Span recorder that times cvilab's layers from outside.

The tracer patches module attributes, so a function has to be wrapped at
the name its caller resolves: ``cvilab.pipeline`` imports
``parse_readings`` by name, ``cvilab.perturb`` imports ``evaluate_labels``
by name, and ``cvi`` and ``fcm`` each hold their own ``cdist``.

A span's self time is its duration minus the durations of the spans it
directly encloses. Each thread keeps its own span stack, so work done in
a pool thread is credited to that thread's spans and never subtracted
from a span in the thread that waits for it; self times are then summed
over threads.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory spans and counters, aggregated per name."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        # Wrap targets the program no longer has, e.g. after a refactor.
        self.missing: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = [0.0]  # time covered by direct child spans
        stack.append(frame)
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[0]

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Run ``owner.attr`` inside a span; ``after(args, kwargs, result)``
        runs once the span has closed, so its cost lands on the caller.

        A missing target is recorded in ``missing``, and a counter that
        raises is counted under ``<name>.counter_errors``: the tracer must
        never change what the program does.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception:
                    self.add(f"{name}.counter_errors")
            return result

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class CvilabProbe:
    """Installs the layer spans and counters on the imported cvilab modules
    and turns what they record into the per-layer metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._fit_keys: set[tuple[str, int, int]] = set()

    def begin_operation(self) -> None:
        self._fit_keys.clear()

    def install(self) -> None:
        from cvilab import cli, cvi, fcm, pca, perturb, pipeline

        t = self.tracer
        for attr in (
            "parse_readings",
            "profiles_from_readings",
            "generate_synthetic",
            "write_profiles_csv",
            "read_profiles_csv",
        ):
            after = self._count_rows if attr == "parse_readings" else None
            t.wrap(pipeline, attr, f"profiles.{attr}", after)
        t.wrap(pca, "fit_pca", "pca.fit_pca")
        t.wrap(pca, "project", "pca.project")
        t.wrap(fcm, "select_cluster_count", "fcm.select_cluster_count")
        t.wrap(fcm, "fit_fcm", "fcm.fit_fcm", self._count_fit)
        t.wrap(fcm, "cdist", "fcm.cdist")
        t.wrap(cvi, "evaluate_all", "cvi.evaluate_all")
        count_eval = self._count_eval
        t.wrap(cvi, "evaluate_labels", "cvi.evaluate_labels", count_eval)
        t.wrap(perturb, "evaluate_labels", "cvi.evaluate_labels", count_eval)
        t.wrap(cvi, "cdist", "cvi.cdist", self._count_pairs)
        for attr in ("outlier_experiment", "density_experiment", "diameter_experiment"):
            t.wrap(perturb, attr, f"perturb.{attr}")
        t.wrap(perturb, "inject_density", "perturb.inject_density", self._count_injected)
        t.wrap(perturb, "shrink_clusters", "perturb.shrink_clusters")
        # The experiment's thread waits here while its trials run in the pool.
        t.wrap(perturb, "_run_trials", "perturb.run_trials")
        for attr in ("update_manifest", "verify_manifest", "emit_report"):
            t.wrap(pipeline, attr, f"pipeline.{attr}")
        if hasattr(pipeline, "_sha256"):
            t.patch(pipeline, "_sha256", self._counted_sha(pipeline._sha256))
        else:
            t.missing.append("pipeline._sha256")
        t.wrap(cli, "main", "cli.main")
        t.patch(cli, "main", self._cpu_timed(cli.main))

    def _count_rows(self, args, kwargs, series) -> None:
        self.tracer.add("profiles.parse_readings.rows", sum(len(s.times) for s in series))

    def _count_fit(self, args, kwargs, model) -> None:
        data, config = args  # every cvilab caller passes both positionally
        t = self.tracer
        iterations = len(model.objective_trace)
        t.add("fcm.fit_fcm.iterations", iterations)
        if iterations >= config.max_iter:
            t.add("fcm.fit_fcm.unconverged")
        digest = hashlib.sha1(np.ascontiguousarray(data, dtype=float).tobytes()).hexdigest()
        key = (digest, config.k, config.seed)
        if key in self._fit_keys:
            t.add("fcm.fit_fcm.repeat_calls")
        self._fit_keys.add(key)

    def _count_pairs(self, args, kwargs, distances) -> None:
        self.tracer.add("cvi.cdist.pairs", distances.size)

    def _count_eval(self, args, kwargs, report) -> None:
        n = len(args[0])
        self.tracer.add("cvi.evaluate_labels.pairs", n * n)

    def _count_injected(self, args, kwargs, points) -> None:
        self.tracer.add("perturb.inject_density.points", len(points))

    def _counted_sha(self, sha):
        def counted(path):
            try:
                self.tracer.add("pipeline.hashed_bytes", os.path.getsize(path))
            except (OSError, TypeError):
                self.tracer.add("pipeline.hashed_bytes.counter_errors")
            return sha(path)

        return counted

    def _cpu_timed(self, main):
        def timed(*args, **kwargs):
            start = time.process_time()
            try:
                return main(*args, **kwargs)
            finally:
                self.tracer.add("cli.main.cpu_s", time.process_time() - start)

        return timed

    def metrics(self, operations: int) -> dict[str, float]:
        """Per-operation means of every per-layer metric; 0 where the
        workload never entered the layer."""
        t = self.tracer

        def self_s(name: str) -> float:
            return t.self_s.get(name, 0.0)

        def calls(name: str) -> int:
            return t.calls.get(name, 0)

        def count(name: str) -> float:
            return t.counts.get(name, 0.0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        totals = {
            "profiles.parse_readings.self_s": self_s("profiles.parse_readings"),
            "profiles.parse_readings.rows": count("profiles.parse_readings.rows"),
            "profiles.profiles_from_readings.self_s": self_s("profiles.profiles_from_readings"),
            "profiles.generate_synthetic.self_s": self_s("profiles.generate_synthetic"),
            "profiles.write_profiles_csv.self_s": self_s("profiles.write_profiles_csv"),
            "profiles.read_profiles_csv.self_s": self_s("profiles.read_profiles_csv"),
            "pca.fit_pca.self_s": self_s("pca.fit_pca"),
            "pca.project.calls": calls("pca.project"),
            "fcm.select_cluster_count.self_s": self_s("fcm.select_cluster_count"),
            "fcm.fit_fcm.calls": calls("fcm.fit_fcm"),
            "fcm.fit_fcm.self_s": self_s("fcm.fit_fcm"),
            "fcm.fit_fcm.iterations": count("fcm.fit_fcm.iterations"),
            "fcm.fit_fcm.unconverged": count("fcm.fit_fcm.unconverged"),
            "fcm.fit_fcm.repeat_calls": count("fcm.fit_fcm.repeat_calls"),
            "fcm.cdist.calls": calls("fcm.cdist"),
            "fcm.cdist.self_s": self_s("fcm.cdist"),
            "cvi.evaluate_labels.calls": calls("cvi.evaluate_labels"),
            "cvi.evaluate_labels.self_s": self_s("cvi.evaluate_labels"),
            "cvi.evaluate_labels.pairs": count("cvi.evaluate_labels.pairs"),
            "cvi.evaluate_all.self_s": self_s("cvi.evaluate_all"),
            "cvi.cdist.calls": calls("cvi.cdist"),
            "cvi.cdist.pairs": count("cvi.cdist.pairs"),
            "perturb.outlier_experiment.self_s": self_s("perturb.outlier_experiment"),
            "perturb.density_experiment.self_s": self_s("perturb.density_experiment"),
            "perturb.diameter_experiment.self_s": self_s("perturb.diameter_experiment"),
            "perturb.inject_density.calls": calls("perturb.inject_density"),
            "perturb.inject_density.points": count("perturb.inject_density.points"),
            "perturb.inject_density.self_s": self_s("perturb.inject_density"),
            "perturb.shrink_clusters.self_s": self_s("perturb.shrink_clusters"),
            "perturb.pool_wait_s": self_s("perturb.run_trials"),
            "pipeline.update_manifest.self_s": self_s("pipeline.update_manifest"),
            "pipeline.verify_manifest.self_s": self_s("pipeline.verify_manifest"),
            "pipeline.emit_report.self_s": self_s("pipeline.emit_report"),
            "pipeline.hashed_bytes": count("pipeline.hashed_bytes"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.cpu_s": count("cli.main.cpu_s"),
        }
        out = {name: value / operations for name, value in totals.items()}
        out["profiles.parse_readings.rows_per_s"] = ratio(
            totals["profiles.parse_readings.rows"], totals["profiles.parse_readings.self_s"]
        )
        out["cvi.pair_passes"] = ratio(
            totals["cvi.cdist.pairs"], totals["cvi.evaluate_labels.pairs"]
        )
        return out

    def notes(self) -> list[str]:
        """Wrap targets not found and counters that failed, if any."""
        t = self.tracer
        notes = [f"not traced, missing: {name}" for name in t.missing]
        notes += [
            f"{name}: {count:.0f}"
            for name, count in sorted(t.counts.items())
            if name.endswith(".counter_errors")
        ]
        return notes

    def experiments_wall_s(self) -> float:
        """Wall time inside the three experiments, summed."""
        return sum(
            self.tracer.total_s.get(f"perturb.{kind}_experiment", 0.0)
            for kind in ("outlier", "density", "diameter")
        )
