"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import CvilabProbe, Tracer  # noqa: E402


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


class ScriptedClock:
    """Returns the given instants in order, whichever thread asks."""

    def __init__(self, *instants: float):
        self._instants = iter(instants)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return next(self._instants)


def test_nested_span_self_time_excludes_children():
    tracer = Tracer(clock=ScriptedClock(0.0, 1.0, 4.0, 5.0, 6.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert tracer.total_s["outer"] == 10.0
    assert tracer.self_s["outer"] == 10.0 - 3.0 - 1.0
    assert tracer.self_s["inner"] == 4.0
    assert tracer.calls["inner"] == 2


def test_spans_in_other_threads_are_summed_not_subtracted():
    tracer = Tracer(clock=ScriptedClock(0.0, 2.0, 7.0, 7.5, 8.0, 9.0, 10.0, 12.0))

    def trial():
        with tracer.span("inner"):
            pass

    with tracer.span("outer"):
        first = threading.Thread(target=trial)
        first.start()
        first.join(timeout=10)
        second = threading.Thread(target=trial)
        second.start()
        second.join(timeout=10)
        with tracer.span("own"):
            pass
    assert not first.is_alive() and not second.is_alive()
    # The waiting thread's span keeps the time its pool threads worked.
    assert tracer.self_s["outer"] == 12.0 - 1.0
    assert tracer.self_s["inner"] == 5.0 + 0.5
    assert tracer.self_s["own"] == 1.0


def test_restore_puts_back_the_original_function():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tracer = Tracer()
    tracer.wrap(Owner, "f", "owner.f", after=lambda args, kwargs, result: tracer.add("seen", result))
    assert Owner.f(1) == 2
    tracer.restore()
    assert Owner.f is original
    assert tracer.calls["owner.f"] == 1 and tracer.counts["seen"] == 2


def test_tracer_never_changes_what_the_program_does():
    class Owner:
        @staticmethod
        def f(x):
            return x * 2

    def broken_counter(args, kwargs, result):
        raise KeyError("renamed field")

    tracer = Tracer()
    tracer.wrap(Owner, "f", "owner.f", after=broken_counter)
    tracer.wrap(Owner, "gone", "owner.gone")
    assert Owner.f(3) == 6
    tracer.restore()
    assert tracer.missing == ["Owner.gone"]
    assert tracer.counts["owner.f.counter_errors"] == 1


def test_readings_generator_is_a_function_of_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "READINGS_HOUSEHOLDS", 6)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    rows = [workloads.write_readings_csv(path, seed) for path, seed in zip(paths, (3, 3, 4))]
    assert rows == [6 * 28 * 96] * 3
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "household_id,timestamp,kw"
    assert lines[1].startswith("hh-0000,2024-03-04T00:00:00Z,")
    assert lines[-1].startswith("hh-0005,2024-03-31T23:45:00Z,")


TINY = workloads.Workload(
    name="tiny",
    config={
        "synth.clusters": "3",
        "synth.cluster-size": "20",
        "synth.outliers": "2",
        "experiments": "outliers,density,diameter",
        "trials": "4",
    },
    commands=("run",),
    populations=1,
)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Three operations on one population: untraced, traced, untraced."""
    from cvilab import cli

    work = tmp_path_factory.mktemp("tiny")
    config = work / "cvilab.conf"
    config.write_text(workloads.config_text(TINY, workloads.DEFAULT_SEED, None))
    probe = CvilabProbe(Tracer())
    ops = []
    for i in range(3):
        out = work / f"op{i}"
        if i == 1:
            probe.install()
        try:
            wall, code = worker.run_operation(cli, TINY, config, out)
        finally:
            probe.tracer.restore()
        ops.append({"pop": workloads.DEFAULT_SEED, "out": str(out), "wall_s": wall, "code": code})
    return ops, probe


def _pinned(ops) -> workloads.Workload:
    out = Path(ops[0]["out"])
    verdicts = {
        kind: json.loads((out / f"experiment_{kind}.json").read_text())["verdicts"]
        for kind in TINY.experiments
    }
    k = len(json.loads((out / "cluster.json").read_text())["centroids"])
    return replace(TINY, pinned_k=k, pinned_verdicts=verdicts)


def _checked(workload, ops):
    ops = [dict(op) for op in ops]
    worker.check_operations(workload, ops, oracles)
    return ops


def test_clean_operations_pass_every_check(tiny_runs):
    ops, _ = tiny_runs
    assert [op["problems"] for op in _checked(_pinned(ops), ops)] == [[], [], []]


def test_traced_operation_counts_layers(tiny_runs):
    _, probe = tiny_runs
    layers = probe.metrics(1)
    assert layers["cli.main.calls"] == 1
    assert layers["fcm.fit_fcm.repeat_calls"] == 1
    assert layers["fcm.fit_fcm.calls"] == layers["fcm.fit_fcm.repeat_calls"] + 9
    # evaluate_all, then baseline plus rows for 2 singletons and 2 x 4 trials
    assert layers["cvi.evaluate_labels.calls"] == 1 + (1 + 2**2) + 2 * (1 + 4)
    assert 4.0 <= layers["cvi.pair_passes"] < 4.2
    assert layers["perturb.inject_density.points"] == 4 * 60
    assert layers["pipeline.hashed_bytes"] > 0


def test_corrupted_artifact_fails_the_operation(tiny_runs):
    ops, _ = tiny_runs
    target = Path(ops[2]["out"]) / "cvi.json"
    original = target.read_bytes()
    target.write_bytes(original + b" ")
    try:
        checked = _checked(_pinned(ops), ops)
    finally:
        target.write_bytes(original)
    assert [bool(op["problems"]) for op in checked] == [False, False, True]
    assert any("cvi.json" in problem for problem in checked[2]["problems"])


def test_wrong_pinned_verdict_fails_every_operation(tiny_runs):
    ops, _ = tiny_runs
    workload = _pinned(ops)
    actual = workload.pinned_verdicts["density"]["sh"]
    wrong = "POSITIVE" if actual != "POSITIVE" else "NEGATIVE"
    workload = replace(
        workload,
        pinned_verdicts={**workload.pinned_verdicts, "density": {"sh": wrong}},
    )
    assert all(op["problems"] for op in _checked(workload, ops))


def test_nonzero_exit_fails_the_operation(tiny_runs):
    ops, _ = tiny_runs
    broken = [dict(ops[0], code=1)] + ops[1:]
    checked = _checked(_pinned(ops), broken)
    assert checked[0]["problems"] == ["exit code 1"]


def test_malformed_reference_artifact_fails_without_crashing(tiny_runs):
    ops, _ = tiny_runs
    target = Path(ops[0]["out"]) / "cluster.json"
    original = target.read_bytes()
    target.write_bytes(original[: len(original) // 2])
    try:
        checked = _checked(_pinned([ops[1]]), ops)
    finally:
        target.write_bytes(original)
    assert all(op["problems"] for op in checked)
    assert any("unreadable artifact" in problem for problem in checked[0]["problems"])
