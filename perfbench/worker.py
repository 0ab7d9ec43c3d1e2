"""The process that runs one workload; started by run.py.

It imports cvilab once, then sends operations in a closed loop: one
client, the next operation only after the previous one returned. Each
operation calls ``cvilab.cli.main`` in-process with a fresh output
directory. Output checks run after the loop, outside every timed region,
and the result goes to a JSON file for run.py to report.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import CvilabProbe, Tracer

ROOT = Path.cwd()


def _import_cvilab():
    """cvilab from this checkout's src/, never an installed copy."""
    import cvilab
    from cvilab import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cvilab.__file__).resolve().parents:
        raise SystemExit(f"cvilab imported from {cvilab.__file__}, expected under {src}")
    return cli


def run_operation(cli, workload, config: Path, out: Path) -> tuple[float, int]:
    """Wall seconds and exit code of one operation."""
    start = time.perf_counter()
    code = 0
    for command in workload.commands:
        # Looked up on every call so that a traced run sees the wrapper.
        code = cli.main([command, "--config", str(config), "--out", str(out)])
        if code:
            break
    return time.perf_counter() - start, code


def check_operations(workload, ops: list[dict], oracles) -> None:
    """Attach the problems of each operation; the first operation of each
    population is the reference the others must match byte for byte."""
    reference: dict[int, Path] = {}
    semantic: dict[int, list[str]] = {}
    for op in ops:
        out, pop = Path(op["out"]), op["pop"]
        if op["code"] != 0:
            op["problems"] = [f"exit code {op['code']}"]
            continue
        problems = checks.manifest_problems(out)
        if pop in reference:
            problems += checks.artifact_differences(reference[pop], out)
        else:
            reference[pop] = out
            # The naive oracles are O(N^2) Python loops: one population suffices.
            try:
                semantic[pop] = checks.output_problems(
                    workload, pop, out, oracles if not semantic else None
                )
            except (OSError, ValueError, KeyError, TypeError) as exc:
                semantic[pop] = [f"unreadable artifact: {exc!r}"]
        op["problems"] = problems + semantic[pop]


def closed_loop(cli, workload, configs: dict[int, Path], work: Path, seconds: float) -> list[dict]:
    """Untraced operations cycling over the populations for ``seconds``,
    and at least once more than there are populations, so that every
    population runs and one runs twice."""
    pops = list(configs)
    ops: list[dict] = []
    start = time.perf_counter()
    while len(ops) <= len(pops) or time.perf_counter() - start < seconds:
        pop = pops[len(ops) % len(pops)]
        out = work / "ops" / f"{len(ops):03d}"
        wall, code = run_operation(cli, workload, configs[pop], out)
        ops.append({"pop": pop, "out": str(out), "wall_s": wall, "code": code})
    return ops


def traced_loop(cli, workload, configs: dict[int, Path], work: Path, seconds: float):
    """Alternating untraced and traced operations on one population, for
    ``seconds`` and at least one of each. Returns the operations, the
    per-layer metrics, how many operations they average over, and the
    tracer's notes."""
    pop = next(iter(configs))
    probe = CvilabProbe(Tracer())
    ops: list[dict] = []
    start = time.perf_counter()
    while len(ops) < 2 or time.perf_counter() - start < seconds:
        traced = len(ops) % 2 == 1
        out = work / "ops" / f"{len(ops):03d}"
        if traced:
            probe.begin_operation()
            probe.install()
        try:
            wall, code = run_operation(cli, workload, configs[pop], out)
        finally:
            probe.tracer.restore()
        ops.append({"pop": pop, "out": str(out), "wall_s": wall, "code": code, "traced": traced})

    traced_ops = [op for op in ops if op["traced"]]
    layers = probe.metrics(len(traced_ops))
    layers["trace.overhead"] = statistics.median(
        op["wall_s"] for op in traced_ops
    ) / statistics.median(op["wall_s"] for op in ops if not op["traced"])
    layers["perturb.pool_speedup"] = 0.0
    if workload.experiments:
        # One more traced operation with a single trial worker: how much
        # the thread pool saves on the experiments.
        serial = CvilabProbe(Tracer())
        serial.install()
        workers = os.environ["CVILAB_THREADS"]
        os.environ["CVILAB_THREADS"] = "1"
        out = work / "ops" / f"{len(ops):03d}"
        try:
            wall, code = run_operation(cli, workload, configs[pop], out)
        finally:
            serial.tracer.restore()
            os.environ["CVILAB_THREADS"] = workers
        ops.append({"pop": pop, "out": str(out), "wall_s": wall, "code": code, "traced": True})
        pooled = probe.experiments_wall_s() / len(traced_ops)
        layers["perturb.pool_speedup"] = serial.experiments_wall_s() / pooled if pooled else 0.0
    return ops, layers, len(traced_ops), probe.notes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = _import_cvilab()
    workload = workloads.WORKLOADS[args.workload]
    configs = {
        pop: args.work / f"pop-{pop}" / "cvilab.conf"
        for pop in workload.population_seeds(args.seed, bool(args.trace))
    }
    if args.trace:
        ops, layers, traced, notes = traced_loop(cli, workload, configs, args.work, args.seconds)
    else:
        ops = closed_loop(cli, workload, configs, args.work, args.seconds)
        layers, traced, notes = None, 0, []
    # Linux reports ru_maxrss in KiB; read before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    check_operations(workload, ops, oracles)

    import numpy
    import scipy

    result = {
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "traced_operations": traced,
        "trace_notes": notes,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
