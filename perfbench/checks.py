"""Output checks for one benchmark operation.

Each function returns a list of problems; an empty list means the check
passed. None of them imports cvilab: the artifacts are read as files, so
a defect in the program cannot also hide itself in the check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Workload

INDEX_NAMES = ("sh", "ch", "db", "di", "xb")
TRIAL_VERDICTS = ("POSITIVE", "NEGATIVE", "INCONCLUSIVE")
OUTLIER_VERDICTS = ("IMPROVES_ON_REMOVAL", "IMPROVES_ON_ADDITION", "UNAFFECTED", "MIXED")
MAX_K = 10
# profiles.csv keeps 9 significant digits, so indices recomputed from it
# differ from the full-precision ones; the observed gap is below 5e-9.
ORACLE_RTOL = 1e-6


def manifest_problems(out: Path) -> list[str]:
    """Every file is listed in manifest.json with its SHA-256."""
    try:
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable manifest: {exc}"]
    problems = []
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    for name in sorted(on_disk - set(artifacts)):
        problems.append(f"{name} is not in the manifest")
    for name, digest in sorted(artifacts.items()):
        target = out / name
        if not target.is_file():
            problems.append(f"{name} is in the manifest but missing")
        elif hashlib.sha256(target.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} does not match its manifest digest")
    return problems


def _comparable(out: Path, name: str) -> bytes:
    data = (out / name).read_bytes()
    if name != "manifest.json":
        return data
    payload = json.loads(data)
    payload.pop("created_utc", None)
    payload.get("config", {}).pop("out", None)
    return json.dumps(payload, sort_keys=True).encode()


def artifact_differences(reference: Path, out: Path) -> list[str]:
    """Artifacts that differ between two operations on the same inputs;
    the manifest's ``created_utc`` and echoed output path are ignored."""
    names_ref = {p.name for p in reference.iterdir()}
    names_out = {p.name for p in out.iterdir()}
    problems = [f"{name} missing" for name in sorted(names_ref - names_out)]
    problems += [f"{name} unexpected" for name in sorted(names_out - names_ref)]
    for name in sorted(names_ref & names_out):
        if _comparable(reference, name) != _comparable(out, name):
            problems.append(f"{name} differs from the reference operation")
    return problems


def _verdict_problems(workload: Workload, cvilab_seed: int, out: Path, labels) -> list[str]:
    problems = []
    singletons = sum(1 for c in np.bincount(labels) if c == 1)
    for kind in workload.experiments:
        report = json.loads((out / f"experiment_{kind}.json").read_text())
        expected_rows = 2**singletons if kind == "outliers" else workload.trials
        if len(report["rows"]) != expected_rows:
            problems.append(f"{kind}: {len(report['rows'])} rows, expected {expected_rows}")
        verdicts = report["verdicts"]
        allowed = OUTLIER_VERDICTS if kind == "outliers" else TRIAL_VERDICTS
        if sorted(verdicts) != sorted(INDEX_NAMES):
            problems.append(f"{kind}: verdicts for {sorted(verdicts)}")
        problems += [
            f"{kind}/{name}: verdict {value!r} is not allowed"
            for name, value in verdicts.items()
            if value not in allowed
        ]
        if cvilab_seed == DEFAULT_SEED:
            pinned = workload.pinned_verdicts.get(kind, {})
            problems += [
                f"{kind}/{name}: verdict {verdicts.get(name)!r}, pinned {value!r}"
                for name, value in pinned.items()
                if verdicts.get(name) != value
            ]
    return problems


def _reduced_points(out: Path) -> np.ndarray:
    """Profiles from profiles.csv projected with pca.json."""
    with open(out / "profiles.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    x = np.array([[float(v) for v in row[1:]] for row in rows])
    x /= np.linalg.norm(x, axis=1)[:, None]
    pca = json.loads((out / "pca.json").read_text())
    components = np.array(pca["components"])[: pca["chosen_dprime"]]
    return (x - np.array(pca["mean"])) @ components.T


def oracle_problems(out: Path, labels: np.ndarray, oracles) -> list[str]:
    """Baseline sh, ch, db and di against the naive reference indices."""
    reported = json.loads((out / "cvi.json").read_text())
    points = _reduced_points(out)
    naive = {
        "sh": oracles.naive_silhouette,
        "ch": oracles.naive_calinski_harabasz,
        "db": oracles.naive_davies_bouldin,
        "di": oracles.naive_dunn,
    }
    problems = []
    for name, index in naive.items():
        expected = index(points, labels)
        value = reported[name]
        if value is None or not math.isclose(value, expected, rel_tol=ORACLE_RTOL):
            problems.append(f"cvi.json {name}={value}, naive oracle gives {expected}")
    return problems


def output_problems(workload: Workload, cvilab_seed: int, out: Path, oracles=None) -> list[str]:
    """Chosen k, experiment shape and verdicts, and (given the oracle
    module) the baseline indices. A missing or malformed artifact raises
    OSError, ValueError, KeyError or TypeError."""
    cluster = json.loads((out / "cluster.json").read_text())
    labels = np.asarray(cluster["labels"], dtype=int)
    k = len(cluster["centroids"])
    problems = []
    if cvilab_seed == DEFAULT_SEED and workload.pinned_k is not None:
        if k != workload.pinned_k:
            problems.append(f"k={k}, pinned {workload.pinned_k}")
    elif not 2 <= k <= MAX_K:
        problems.append(f"k={k} outside 2..{MAX_K}")
    problems += _verdict_problems(workload, cvilab_seed, out, labels)
    if oracles is not None:
        problems += oracle_problems(out, labels, oracles)
    return problems
