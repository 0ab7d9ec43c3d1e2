"""Seeded perturbation experiments over a fixed partition.

Three experiments measure how the five validation indices respond to a
known structure change: enumerating every inclusion subset of the
singleton clusters, injecting extra points near each cluster's center,
and shrinking every cluster's radius. The partition is held fixed while
the indices are recomputed (an optional refit callback re-clusters
instead), trials draw from per-trial derived RNG streams so runs are
bit-reproducible at any worker count, and a per-index verdict summarizes
whether the perturbation helped.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cvi import (
    CviReport,
    HIGHER_IS_BETTER,
    INDEX_NAMES,
    PartitionGeometry,
    evaluate_geometry,
    evaluate_labels,
    partition_geometry,
    report_from_dict,
    report_to_dict,
)
from .rng import derive_stream, fork_map, worker_count  # noqa: F401 (perturb.worker_count)

EXPERIMENT_KINDS = ("outliers", "density", "diameter")

# Absolute tolerance for "all subset rows equal" in the outlier verdict,
# and the smaller tolerance below which a single subset-pair delta is
# treated as a tie and dropped.
EQUAL_TOL = 1e-9
DELTA_TIE_TOL = 1e-12

SIGN_TEST_ALPHA = 0.05

_MAX_SINGLETONS = 16


class ExperimentSkipped(ValueError):
    """The partition cannot support the experiment: no singleton clusters
    to toggle, too many to enumerate, fewer than two clusters that are
    not singletons, a cluster of zero radius to inject into, or a ball
    the sampler cannot draw from."""


class RejectionBudgetError(ExperimentSkipped):
    """The ball sampler ran out of attempts; geometry likely overlaps."""


@dataclass(frozen=True)
class PerturbConfig:
    seed: int = 0
    trials: int = 100
    density_add_fraction: float = 1.0
    shrink_factor: float = 0.8
    sigma_divisor: float = 4.0
    max_rejection_attempts: int = 1000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if not 0 < self.sigma_divisor < math.inf:
            raise ValueError(f"sigma_divisor must be finite and positive, got {self.sigma_divisor!r}")
        if self.max_rejection_attempts < 1:
            raise ValueError("max_rejection_attempts must be positive")
        if not 0 <= self.density_add_fraction < math.inf:
            raise ValueError(
                f"density_add_fraction must be finite and nonnegative, got {self.density_add_fraction!r}"
            )


@dataclass(frozen=True)
class ExperimentRow:
    """One variant (outlier subset) or one trial of a perturbation."""

    variant: str
    report: CviReport
    kept: tuple[int, ...] | None = None
    trial: int | None = None


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    seed: int
    config: PerturbConfig
    baseline: CviReport
    rows: tuple[ExperimentRow, ...]
    average: CviReport | None
    degenerate_counts: tuple[tuple[str, int], ...]
    verdicts: tuple[tuple[str, str], ...]

    def verdict_map(self) -> dict[str, str]:
        return dict(self.verdicts)


def find_singleton_clusters(labels) -> list[int]:
    """Labels of clusters with exactly one member, ascending."""
    values, counts = np.unique(labels, return_counts=True)
    return [int(v) for v, c in zip(values, counts) if c == 1]


def _remove_clusters(points, labels, drop) -> tuple[np.ndarray, np.ndarray]:
    """Drop whole clusters and renumber the survivors to 0..k'-1."""
    x = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    keep = ~np.isin(y, list(drop))
    kept_x = x[keep]
    _, renumbered = np.unique(y[keep], return_inverse=True)
    return kept_x, renumbered


def _sample_in_ball(
    rng, center, radius, sigma, centroids, own, budget, count
) -> np.ndarray:
    """``count`` Gaussian draws around ``center`` accepted inside the ball
    and the center's own nearest-centroid region, in stream order.

    Each round draws exactly as many candidates as are still missing, so
    the accepted points and the generator's final state are those of
    testing one candidate at a time. Running out of budget means
    ``budget`` consecutive rejections, counted across rounds.
    """
    out = np.empty((count, center.shape[0]))
    filled = 0
    run = 0  # rejections since the last accepted draw
    while filled < count:
        missing = count - filled
        samples = center + rng.normal(0.0, sigma, size=(missing, center.shape[0]))
        gaps = np.linalg.norm(centroids - samples[:, None, :], axis=2)
        accepted = np.flatnonzero(
            (gaps[:, own] <= radius) & (gaps[:, own] == gaps.min(axis=1))
        )
        runs = np.diff(accepted, prepend=-1 - run, append=missing) - 1
        if runs.max() >= budget:
            raise RejectionBudgetError(
                f"no acceptable sample for cluster {own} in {budget} attempts"
            )
        run = int(runs[-1])
        out[filled : filled + accepted.shape[0]] = samples[accepted]
        filled += accepted.shape[0]
    return out


def inject_density(
    geom: PartitionGeometry,
    cluster: int,
    count: int,
    rng,
    *,
    sigma_divisor: float = 4.0,
    max_rejection_attempts: int = 1000,
) -> np.ndarray:
    """Sample ``count`` new members for label ``cluster`` of ``geom``.

    Draws isotropic Gaussians at the cluster's mean with sigma =
    radius / sigma_divisor and accepts a draw only when it lies within
    the cluster's radius and nearer to this cluster's center than to any
    other. Returns the accepted points; the caller labels them.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    own = int(np.searchsorted(geom.label_values, cluster))
    if own == geom.k or geom.label_values[own] != cluster or geom.cluster_sizes[own] < 2:
        raise ValueError(f"cluster {cluster} is singleton or missing")
    radius = float(geom.radii[own])
    if radius == 0.0:
        raise ExperimentSkipped(f"cluster {cluster} has zero radius")
    return _sample_in_ball(
        rng, geom.centroids[own], radius, radius / sigma_divisor, geom.centroids, own,
        max_rejection_attempts, count,
    )


def shrink_clusters(geom: PartitionGeometry, config: PerturbConfig, rng) -> np.ndarray:
    """Shrink every cluster's radius by ``config.shrink_factor``.

    Members inside the reduced radius stay put; each member beyond it is
    replaced, at its own row, by a fresh draw from the ball sampler at
    the reduced radius (rows in ascending order take the draws in stream
    order), so per-cluster counts never change. Acceptance
    tests run against the input partition's centroids throughout.
    Singleton and zero-radius clusters are left untouched.
    """
    out = geom.points.copy()
    for own in range(geom.k):
        if geom.cluster_sizes[own] < 2 or geom.radii[own] == 0.0:
            continue
        reduced = config.shrink_factor * float(geom.radii[own])
        fringe = np.flatnonzero((geom.canon == own) & (geom.own_gaps > reduced))
        out[fringe] = _sample_in_ball(
            rng,
            geom.centroids[own],
            reduced,
            reduced / config.sigma_divisor,
            geom.centroids,
            own,
            config.max_rejection_attempts,
            fringe.shape[0],
        )
    return out


def _average_rows(
    rows: list[ExperimentRow], k_effective: int
) -> tuple[CviReport, tuple[tuple[str, int], ...]]:
    values: dict[str, float | None] = {}
    counts: list[tuple[str, int]] = []
    for name in INDEX_NAMES:
        finite = [
            row.report.value_map()[name]
            for row in rows
            if row.report.value_map()[name] is not None
            and math.isfinite(row.report.value_map()[name])
        ]
        counts.append((name, len(rows) - len(finite)))
        values[name] = math.fsum(finite) / len(finite) if finite else None
    average = CviReport(k_effective=k_effective, fuzzy=False, **values)
    return average, tuple(counts)


def _run_trials(trial_fn, trials: int) -> list[ExperimentRow]:
    return fork_map(trial_fn, range(trials))


def outlier_experiment(points, labels, config: PerturbConfig, refit=None) -> ExperimentReport:
    """Recompute the indices under every inclusion subset of the
    singleton clusters.

    Emits one row per subset in binary-counting order with the first
    singleton as the most significant bit, so the all-excluded subset
    comes first and the all-kept subset (identical to the baseline)
    last. Excluded singletons' points are removed and the survivors
    renumbered; the partition itself is never refitted unless ``refit``
    is given.
    """
    x = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    singletons = find_singleton_clusters(labels)
    s = len(singletons)
    if s == 0:
        raise ExperimentSkipped("no singleton clusters to toggle")
    if s > _MAX_SINGLETONS:
        raise ExperimentSkipped(f"{s} singleton clusters would enumerate 2^{s} subsets")
    baseline = evaluate_labels(x, labels)
    rows: list[ExperimentRow] = []
    for code in range(2**s):
        kept = tuple(
            singletons[i] for i in range(s) if code & (1 << (s - 1 - i))
        )
        excluded = [v for v in singletons if v not in kept]
        sub_x, sub_labels = _remove_clusters(x, labels, excluded)
        if refit is not None and excluded:
            sub_labels = refit(sub_x)
        variant = ",".join(str(v) for v in kept) if kept else "none"
        rows.append(
            ExperimentRow(
                variant=variant, report=evaluate_labels(sub_x, sub_labels), kept=kept
            )
        )
    report = ExperimentReport(
        kind="outliers",
        seed=config.seed,
        config=config,
        baseline=baseline,
        rows=tuple(rows),
        average=None,
        degenerate_counts=(),
        verdicts=(),
    )
    return replace(report, verdicts=tuple(judge_hypothesis(report).items()))


def _trial_experiment(
    kind: str, points, labels, config: PerturbConfig, perturb_fn, refit
) -> ExperimentReport:
    """Shared trial loop: the singleton-free baseline's geometry, measured
    once, is scored and handed to every seeded trial; then averages."""
    labels = np.asarray(labels)
    base_x, base_labels = _remove_clusters(points, labels, find_singleton_clusters(labels))
    if np.unique(base_labels).shape[0] < 2:
        raise ExperimentSkipped("need at least 2 non-singleton clusters")
    geom = partition_geometry(base_x, base_labels)
    baseline = evaluate_geometry(geom)

    def one_trial(t: int) -> ExperimentRow:
        trial_x, trial_labels = perturb_fn(geom, derive_stream(config.seed, t))
        if refit is not None:
            trial_labels = refit(trial_x)
        return ExperimentRow(
            variant=str(t), report=evaluate_labels(trial_x, trial_labels), trial=t
        )

    rows = _run_trials(one_trial, config.trials)
    average, counts = _average_rows(rows, geom.k)
    report = ExperimentReport(
        kind=kind,
        seed=config.seed,
        config=config,
        baseline=baseline,
        rows=tuple(rows),
        average=average,
        degenerate_counts=counts,
        verdicts=(),
    )
    return replace(report, verdicts=tuple(judge_hypothesis(report).items()))


def density_experiment(points, labels, config: PerturbConfig, refit=None) -> ExperimentReport:
    """Inject ceil(fraction * size) new points into every cluster per
    trial and compare the indices against the singleton-free baseline."""

    def perturb(geom, rng):
        pieces = [geom.points]
        new_labels = [geom.labels]
        for value, size in zip(geom.label_values, geom.cluster_sizes):
            count = math.ceil(config.density_add_fraction * int(size))
            if count < 1:
                continue
            pieces.append(inject_density(
                geom, int(value), count, rng, sigma_divisor=config.sigma_divisor,
                max_rejection_attempts=config.max_rejection_attempts,
            ))
            new_labels.append(np.full(count, value, dtype=geom.labels.dtype))
        return np.vstack(pieces), np.concatenate(new_labels)

    return _trial_experiment("density", points, labels, config, perturb, refit)


def diameter_experiment(points, labels, config: PerturbConfig, refit=None) -> ExperimentReport:
    """Shrink every cluster's radius per trial and compare the indices
    against the singleton-free baseline."""

    def perturb(geom, rng):
        return shrink_clusters(geom, config, rng), geom.labels

    return _trial_experiment("diameter", points, labels, config, perturb, refit)


def _sign_test_tail(n: int, wins: int) -> float:
    """P[X >= wins] for X ~ Binomial(n, 1/2), exactly."""
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2**n


def _judge_outlier_values(values: list[float | None], higher_better: bool, rows) -> str:
    if any(v is None for v in values):
        return "MIXED"
    if all(math.isinf(v) for v in values):
        return "UNAFFECTED"
    if any(math.isinf(v) for v in values):
        return "MIXED"
    if max(values) - min(values) <= EQUAL_TOL:
        return "UNAFFECTED"
    by_subset = {frozenset(row.kept): v for row, v in zip(rows, values)}
    singletons = sorted(set().union(*(row.kept for row in rows)))
    improved = worsened = 0
    for subset, value in by_subset.items():
        for o in singletons:
            if o in subset:
                continue
            delta = by_subset[subset | {o}] - value
            if abs(delta) <= DELTA_TIE_TOL:
                continue
            if (delta > 0) == higher_better:
                improved += 1
            else:
                worsened += 1
    if improved and not worsened:
        return "IMPROVES_ON_ADDITION"
    if worsened and not improved:
        return "IMPROVES_ON_REMOVAL"
    return "MIXED"


def _judge_trial_values(
    baseline: float | None, values: list[float | None], higher_better: bool
) -> str:
    if baseline is None or not math.isfinite(baseline):
        return "INCONCLUSIVE"
    improved = worsened = 0
    for v in values:
        if v is None or not math.isfinite(v):
            continue
        delta = v - baseline
        if delta == 0.0:
            continue
        if (delta > 0) == higher_better:
            improved += 1
        else:
            worsened += 1
    n = improved + worsened
    if n == 0:
        return "INCONCLUSIVE"
    if improved >= worsened and _sign_test_tail(n, improved) <= SIGN_TEST_ALPHA:
        return "POSITIVE"
    if worsened > improved and _sign_test_tail(n, worsened) <= SIGN_TEST_ALPHA:
        return "NEGATIVE"
    return "INCONCLUSIVE"


def judge_hypothesis(report: ExperimentReport) -> dict[str, str]:
    """Per-index verdict for an experiment.

    Outlier kind: UNAFFECTED when every subset row agrees within 1e-9;
    otherwise each (subset, subset + one singleton) pair votes on whether
    adding that singleton improves the index, and unanimous votes give
    IMPROVES_ON_ADDITION or IMPROVES_ON_REMOVAL, anything else MIXED.

    Trial kinds: paired one-sided sign test of per-trial deltas against
    the baseline at significance 0.05 gives POSITIVE or NEGATIVE in the
    index's own improvement direction, else INCONCLUSIVE.
    """
    if not report.rows:
        raise ValueError("experiment report has no rows")
    verdicts: dict[str, str] = {}
    for name in INDEX_NAMES:
        higher = HIGHER_IS_BETTER[name]
        values = [row.report.value_map()[name] for row in report.rows]
        if report.kind == "outliers":
            verdicts[name] = _judge_outlier_values(values, higher, report.rows)
        else:
            base = report.baseline.value_map()[name]
            verdicts[name] = _judge_trial_values(base, values, higher)
    return verdicts


def experiment_to_dict(report: ExperimentReport) -> dict:
    return {
        "kind": report.kind,
        "seed": report.seed,
        "config": asdict(report.config),
        "baseline": report_to_dict(report.baseline),
        "rows": [
            {
                "variant": row.variant,
                "kept": list(row.kept) if row.kept is not None else None,
                "trial": row.trial,
                "cvi": report_to_dict(row.report),
            }
            for row in report.rows
        ],
        "average": report_to_dict(report.average) if report.average else None,
        "degenerate_counts": dict(report.degenerate_counts),
        "verdicts": dict(report.verdicts),
    }


def experiment_from_dict(payload: dict) -> ExperimentReport:
    rows = tuple(
        ExperimentRow(
            variant=entry["variant"],
            report=report_from_dict(entry["cvi"]),
            kept=tuple(entry["kept"]) if entry["kept"] is not None else None,
            trial=entry["trial"],
        )
        for entry in payload["rows"]
    )
    average = payload.get("average")
    return ExperimentReport(
        kind=payload["kind"],
        seed=int(payload["seed"]),
        config=PerturbConfig(**payload["config"]),
        baseline=report_from_dict(payload["baseline"]),
        rows=rows,
        average=report_from_dict(average) if average else None,
        degenerate_counts=tuple(payload.get("degenerate_counts", {}).items()),
        verdicts=tuple(payload.get("verdicts", {}).items()),
    )


def experiment_to_json(report: ExperimentReport) -> str:
    return json.dumps(experiment_to_dict(report), indent=2)


def experiment_from_json(text: str) -> ExperimentReport:
    return experiment_from_dict(json.loads(text))


def _csv_cell(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return ""
    return "%.9g" % value


def experiment_to_csv(report: ExperimentReport) -> str:
    """Flat table: one row per variant or trial, plus AVERAGE when the
    experiment averages over trials. Non-finite values print empty."""
    lines = ["variant," + ",".join(INDEX_NAMES) + ",k_effective"]
    for row in report.rows:
        cells = [_csv_cell(row.report.value_map()[n]) for n in INDEX_NAMES]
        lines.append(",".join([row.variant, *cells, str(row.report.k_effective)]))
    if report.average is not None:
        cells = [_csv_cell(report.average.value_map()[n]) for n in INDEX_NAMES]
        lines.append(",".join(["AVERAGE", *cells, str(report.average.k_effective)]))
    return "\n".join(lines) + "\n"
