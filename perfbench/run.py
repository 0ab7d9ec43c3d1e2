"""cvilab benchmark: one workload, measured end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-trials --seed 0 --seconds 30 --trace 0

Workloads are listed in perfbench/workloads.py and BENCHMARK.json. With
``--trace 0`` it reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` the per-layer metrics, timed by wrapping
cvilab's public functions from outside. Every line but the last is for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The load is a closed loop from one process: a worker interpreter imports
cvilab once and runs one operation at a time. Compute threads are pinned
to the usable cores (``CVILAB_THREADS``) and BLAS runs single-threaded,
so the load never runs more compute threads than there are cores. Only
the standard library, numpy and scipy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# A run, set-up included, ends within three minutes.
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "profiles.parse_readings.self_s": "s",
    "profiles.parse_readings.rows": "count",
    "profiles.parse_readings.rows_per_s": "rows/s",
    "profiles.profiles_from_readings.self_s": "s",
    "profiles.generate_synthetic.self_s": "s",
    "profiles.write_profiles_csv.self_s": "s",
    "profiles.read_profiles_csv.self_s": "s",
    "pca.fit_pca.self_s": "s",
    "pca.project.calls": "count",
    "fcm.select_cluster_count.self_s": "s",
    "fcm.fit_fcm.calls": "count",
    "fcm.fit_fcm.self_s": "s",
    "fcm.fit_fcm.iterations": "count",
    "fcm.fit_fcm.unconverged": "count",
    "fcm.fit_fcm.repeat_calls": "count",
    "fcm.cdist.calls": "count",
    "fcm.cdist.self_s": "s",
    "cvi.evaluate_labels.calls": "count",
    "cvi.evaluate_labels.self_s": "s",
    "cvi.evaluate_labels.pairs": "count",
    "cvi.evaluate_all.self_s": "s",
    "cvi.cdist.calls": "count",
    "cvi.cdist.pairs": "count",
    "cvi.pair_passes": "ratio",
    "perturb.outlier_experiment.self_s": "s",
    "perturb.density_experiment.self_s": "s",
    "perturb.diameter_experiment.self_s": "s",
    "perturb.inject_density.calls": "count",
    "perturb.inject_density.points": "count",
    "perturb.inject_density.self_s": "s",
    "perturb.shrink_clusters.self_s": "s",
    "perturb.pool_wait_s": "s",
    "perturb.pool_speedup": "ratio",
    "pipeline.update_manifest.self_s": "s",
    "pipeline.verify_manifest.self_s": "s",
    "pipeline.emit_report.self_s": "s",
    "pipeline.hashed_bytes": "bytes",
    "cli.main.calls": "count",
    "cli.main.cpu_s": "s",
    "trace.overhead": "ratio",
}


def checkout_root() -> Path:
    """The directory the benchmark runs from; it must hold cvilab's source
    and the reference indices the checks compare against."""
    root = Path.cwd()
    for needed in ("src/cvilab/__init__.py", "tests/oracles.py"):
        if not (root / needed).is_file():
            raise SystemExit(f"perfbench: {needed} not found under {root}; run from a cvilab checkout")
    return root


def child_env(root: Path, cores: int) -> dict[str, str]:
    env = dict(os.environ)
    path = [str(root / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["CVILAB_THREADS"] = str(cores)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(root: Path, env: dict[str, str]) -> list[float]:
    """Wall seconds for fresh interpreters to import cvilab.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import cvilab.cli"], cwd=root, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def write_inputs(workload, pops: list[int], work: Path) -> float:
    """Config (and readings CSV) per population; returns generation seconds."""
    start = time.perf_counter()
    for pop in pops:
        folder = work / f"pop-{pop}"
        folder.mkdir(parents=True)
        readings = None
        if workload.readings:
            readings = folder / "readings.csv"
            workloads.write_readings_csv(readings, pop)
        (folder / "cvilab.conf").write_text(workloads.config_text(workload, pop, readings))
    return time.perf_counter() - start


def source_identity(root: Path) -> str:
    """Git commit when the checkout is a repository, and a digest of the
    cvilab sources either way."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cvilab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or "none"
    return f"commit={commit} src_sha256={digest.hexdigest()[:16]}"


def run_worker(args, env: dict[str, str], work: Path, root: Path, budget_s: float) -> dict:
    result = work / "result.json"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work={work}",
        f"--result={result}",
    ]
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker exceeded {budget_s:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"perfbench: worker exited with code {code}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    started = time.perf_counter()
    # Turn a termination request into SystemExit, so the worker is stopped
    # and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="cvilab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = checkout_root()
    workload = workloads.WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    env = child_env(root, cores)
    pops = workload.population_seeds(args.seed, bool(args.trace))
    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup(root, env)
        generate_s = write_inputs(workload, pops, work)
        budget = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        result = run_worker(args, env, work, root, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    ops = result["ops"]
    failed = [op for op in ops if op["problems"]]
    versions = " ".join(f"{k}={v}" for k, v in result["versions"].items())
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"env: nproc={os.cpu_count()} usable_cores={cores} CVILAB_THREADS={env['CVILAB_THREADS']} "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} {versions} {source_identity(root)}"
    )
    print(
        f"inputs: cvilab seeds {pops}; generated in {generate_s:.3f} s "
        "(benchmark cost, not a program metric)"
    )
    if workload.notes:
        print(f"note: {workload.notes}")
    for op in failed:
        print(f"FAILED operation {Path(op['out']).name} (cvilab seed {op['pop']}): {'; '.join(op['problems'])}")
    print(f"failed_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}")

    if args.trace:
        metrics = {name: result["layers"][name] for name in LAYER_UNITS}
        print(
            "per-layer metrics: per-operation means over "
            f"{result['traced_operations']} traced operations"
        )
        for name, value in metrics.items():
            print(f"  {name:<42} {value:>16.6g} {LAYER_UNITS[name]}")
        for note in result["trace_notes"]:
            print(f"trace note: {note}")
        print(
            f"tracing overhead {metrics['trace.overhead']:.4f} (traced wall_s / untraced wall_s); "
            "traced artifacts byte-identical to untraced: "
            f"{'NO' if any(op['problems'] for op in ops if op['traced']) else 'yes'}"
        )
    else:
        pop_count = len({op["pop"] for op in ops})
        metrics = {
            "wall_s": statistics.median(op["wall_s"] for op in ops),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        samples = {
            "wall_s": f"n={len(ops)} operations over {pop_count} populations",
            "setup_s": f"n={len(setup)} fresh interpreters",
            "peak_rss_mb": "n=1 worker process",
        }
        for name, value in metrics.items():
            print(f"{name:<12} {value:>12.6f} {END_TO_END_UNITS[name]:<3} ({samples[name]})")
        print("operation wall_s, in order:", " ".join(f"{op['wall_s']:.3f}" for op in ops))
        print("setup_s samples:", " ".join(f"{t:.3f}" for t in setup))
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
