"""Seeded perturbation experiments over a fixed partition.

Three experiments measure how the five validation indices respond to a
known structure change: enumerating every inclusion subset of the
singleton clusters, injecting extra points near each cluster's center,
and shrinking every cluster's radius. The partition is held fixed while
the indices are recomputed (an optional ``refit(points, k) -> labels``
re-clusters each variant at its cluster count instead), trials draw from
per-trial derived RNG streams so runs are bit-reproducible at any worker
count, and a per-index verdict summarizes whether the perturbation helped.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

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
from .rng import derive_stream, fork_map

EXPERIMENT_KINDS = ("outliers", "density", "diameter")

# Absolute tolerance for "all subset rows equal" in the outlier verdict,
# and the smaller tolerance below which a single subset-pair delta is
# treated as a tie and dropped.
EQUAL_TOL = 1e-9
DELTA_TIE_TOL = 1e-12

SIGN_TEST_ALPHA = 0.05

_MAX_SINGLETONS = 16

Trial = tuple[np.ndarray, np.ndarray]  # one trial's points and labels


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
        if self.density_add_fraction > 100:  # a trial's data stay within 101x the partition's
            raise ValueError("density_add_fraction must be at most 100 (points a trial adds per "
                             f"cluster member), got {self.density_add_fraction!r}")


@dataclass(frozen=True)
class ExperimentRow:
    """One variant (outlier subset) or one trial of a perturbation."""

    report: CviReport
    kept: tuple[int, ...] | None = None
    trial: int | None = None

    @property
    def variant(self) -> str:
        """The singletons kept ("none", "3,4"), or the trial number."""
        return str(self.trial) if self.kept is None else ",".join(map(str, self.kept)) or "none"


@dataclass(frozen=True)
class ExperimentReport:
    """The config and the measured indices; the rest is derived from them."""

    kind: str
    config: PerturbConfig
    baseline: CviReport
    rows: tuple[ExperimentRow, ...]

    @cached_property
    def _averaged(self) -> tuple[CviReport | None, tuple[tuple[str, int], ...]]:
        if self.kind == "outliers":
            return None, ()
        return _average_rows(self.rows, self.baseline.k_effective)

    @property
    def average(self) -> CviReport | None:
        """Each index's mean over the trials' finite values; None for outliers."""
        return self._averaged[0]

    @property
    def degenerate_counts(self) -> tuple[tuple[str, int], ...]:
        """Per index, the trials whose value is not finite; () for outliers."""
        return self._averaged[1]

    @cached_property
    def verdicts(self) -> tuple[tuple[str, str], ...]:
        return tuple(judge_hypothesis(self).items())

    def verdict_map(self) -> dict[str, str]:
        return dict(self.verdicts)


def find_singleton_clusters(labels) -> list[int]:
    """Labels of clusters with exactly one member, ascending."""
    values, counts = np.unique(labels, return_counts=True)
    return [int(v) for v, c in zip(values, counts) if c == 1]


def _remove_clusters(points, labels, drop) -> tuple[np.ndarray, np.ndarray]:
    """Drop whole clusters; the survivors keep their labels, and so their order."""
    y = np.asarray(labels)
    keep = ~np.isin(y, list(drop))
    return np.asarray(points, dtype=float)[keep], y[keep]


def _sample_in_ball(geom, own: int, radius: float, config, rng, count: int) -> np.ndarray:
    """``count`` Gaussian draws at cluster ``own``'s centroid, sigma =
    radius / sigma_divisor, accepted inside the ball and the cluster's own
    nearest-centroid region of ``geom``, in stream order.

    Each round draws exactly as many candidates as are still missing, so
    the accepted points and the generator's final state are those of
    testing one candidate at a time. Running out of budget means
    ``max_rejection_attempts`` consecutive rejections, counted across rounds.
    """
    center = geom.centroids[own]
    sigma, budget = radius / config.sigma_divisor, config.max_rejection_attempts
    out = np.empty((count, center.shape[0]))
    filled, run = 0, 0  # run: rejections since the last accepted draw
    while filled < count:
        missing = count - filled
        samples = center + rng.normal(0.0, sigma, size=(missing, center.shape[0]))
        # A gap that overflows to inf lies outside every ball: rejected anyway.
        with np.errstate(over="ignore"):
            gaps = np.linalg.norm(geom.centroids - samples[:, None, :], axis=2)
        accepted = np.flatnonzero((gaps[:, own] <= radius) & (gaps[:, own] == gaps.min(axis=1)))
        runs = np.diff(accepted, prepend=-1 - run, append=missing) - 1
        if runs.max() >= budget:
            raise RejectionBudgetError(
                f"no acceptable sample for cluster {own} in {budget} attempts"
            )
        run = int(runs[-1])
        out[filled : filled + accepted.shape[0]] = samples[accepted]
        filled += accepted.shape[0]
    return out


def inject_density(geom: PartitionGeometry, config: PerturbConfig, rng) -> Trial:
    """One density trial: ``geom``'s points and labels, then for each
    cluster in turn ceil(density_add_fraction * size) new members, drawn by
    the ball sampler at its radius. A cluster of zero radius skips the
    experiment."""
    points, labels = [geom.points], [geom.labels]
    for own, value in enumerate(geom.label_values):
        count = math.ceil(config.density_add_fraction * int(geom.cluster_sizes[own]))
        if count and geom.radii[own] == 0.0:
            raise ExperimentSkipped(f"cluster {value} has zero radius")
        points.append(_sample_in_ball(geom, own, float(geom.radii[own]), config, rng, count))
        labels.append(np.full(count, value, dtype=geom.labels.dtype))
    return np.vstack(points), np.concatenate(labels)


def shrink_clusters(geom: PartitionGeometry, config: PerturbConfig, rng) -> Trial:
    """One diameter trial: ``geom``'s partition with every cluster's radius
    shrunk by ``config.shrink_factor``.

    Members inside the reduced radius stay put; each member beyond it is
    replaced, at its own row, by a fresh draw from the ball sampler at
    the reduced radius (rows in ascending order take the draws in stream
    order), so the labels never change. Acceptance tests run against the
    input partition's centroids throughout. A cluster of zero radius, as
    every singleton is, is left untouched.
    """
    out = geom.points.copy()
    for own in range(geom.k):
        if geom.radii[own] == 0.0:
            continue
        reduced = config.shrink_factor * float(geom.radii[own])
        fringe = np.flatnonzero((geom.canon == own) & (geom.own_gaps > reduced))
        out[fringe] = _sample_in_ball(geom, own, reduced, config, rng, fringe.shape[0])
    return out, geom.labels


def _average_rows(
    rows: tuple[ExperimentRow, ...], k_effective: int
) -> tuple[CviReport, tuple[tuple[str, int], ...]]:
    values: dict[str, float | None] = {}
    counts: list[tuple[str, int]] = []
    for name in INDEX_NAMES:
        column = [getattr(row.report, name) for row in rows]
        finite = [v for v in column if v is not None and math.isfinite(v)]
        counts.append((name, len(rows) - len(finite)))
        values[name] = math.fsum(finite) / len(finite) if finite else None
    average = CviReport(k_effective=k_effective, **values)
    return average, tuple(counts)


def outlier_experiment(points, labels, config: PerturbConfig, refit=None) -> ExperimentReport:
    """Recompute the indices under every inclusion subset of the
    singleton clusters.

    Emits one row per subset in binary-counting order with the first
    singleton as the most significant bit, so the all-excluded subset
    comes first and the all-kept subset, the baseline, last. Excluded
    singletons' points are removed; the survivors keep their labels. Given
    ``refit``, a subset that excludes a singleton is refit at the count of
    clusters it keeps, if that is at least 2; the all-kept subset never is.
    """
    singletons = find_singleton_clusters(labels)
    s = len(singletons)
    if s == 0:
        raise ExperimentSkipped("no singleton clusters to toggle")
    if s > _MAX_SINGLETONS:
        raise ExperimentSkipped(f"{s} singleton clusters would enumerate 2^{s} subsets")
    rows: list[ExperimentRow] = []
    for code in range(2**s):
        kept = tuple(
            singletons[i] for i in range(s) if code & (1 << (s - 1 - i))
        )
        excluded = [v for v in singletons if v not in kept]
        sub_x, sub_labels = _remove_clusters(points, labels, excluded)
        k = np.unique(sub_labels).shape[0]
        if refit is not None and excluded and k >= 2:
            sub_labels = refit(sub_x, k)
        rows.append(ExperimentRow(report=evaluate_labels(sub_x, sub_labels), kept=kept))
    return ExperimentReport("outliers", config, rows[-1].report, tuple(rows))


def _trial_experiment(kind, points, labels, config, perturb, refit) -> ExperimentReport:
    """Shared trial loop: the singleton-free baseline's geometry, measured
    once, must hold 2 clusters or more; it is scored and handed with its own
    derived stream to ``perturb(geom, config, rng)`` for each trial's data."""
    base_x, base_labels = _remove_clusters(points, labels, find_singleton_clusters(labels))
    geom = partition_geometry(base_x, base_labels)
    if geom.k < 2:
        raise ExperimentSkipped("need at least 2 non-singleton clusters")
    baseline = evaluate_geometry(geom)

    def one_trial(t: int) -> ExperimentRow:
        trial_x, trial_labels = perturb(geom, config, derive_stream(config.seed, t))
        if refit is not None:
            trial_labels = refit(trial_x, geom.k)
        return ExperimentRow(report=evaluate_labels(trial_x, trial_labels), trial=t)

    rows = fork_map(one_trial, range(config.trials))
    return ExperimentReport(kind, config, baseline, tuple(rows))


def density_experiment(points, labels, config: PerturbConfig, refit=None) -> ExperimentReport:
    """Inject ceil(fraction * size) new points into every cluster per
    trial and compare the indices against the singleton-free baseline."""
    return _trial_experiment("density", points, labels, config, inject_density, refit)


def diameter_experiment(points, labels, config: PerturbConfig, refit=None) -> ExperimentReport:
    """Shrink every cluster's radius per trial and compare the indices
    against the singleton-free baseline."""
    return _trial_experiment("diameter", points, labels, config, shrink_clusters, refit)


def _sign_test_tail(n: int, wins: int) -> float:
    """P[X >= wins] for X ~ Binomial(n, 1/2), exactly."""
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2**n


def _votes(deltas: list[float], higher_better: bool, tie: float) -> tuple[int, int]:
    """(improved, worsened): the deltas beyond ``tie`` in size, by the index's direction."""
    moved = [d for d in deltas if abs(d) > tie]
    improved = sum((d > 0) == higher_better for d in moved)
    return improved, len(moved) - improved


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
    deltas = [by_subset[subset | {o}] - value for subset, value in by_subset.items()
              for o in singletons if o not in subset]
    improved, worsened = _votes(deltas, higher_better, tie=DELTA_TIE_TOL)
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
    deltas = [v - baseline for v in values if v is not None and math.isfinite(v)]
    improved, worsened = _votes(deltas, higher_better, tie=0.0)
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
        "seed": report.config.seed,
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
    """The measured part of a record; the seed, averages, degenerate
    counts, verdicts and variant names stored beside it are derived again."""
    rows = tuple(
        ExperimentRow(
            report=report_from_dict(entry["cvi"]),
            kept=tuple(entry["kept"]) if entry["kept"] is not None else None,
            trial=entry["trial"],
        )
        for entry in payload["rows"]
    )
    config = PerturbConfig(**payload["config"])
    return ExperimentReport(payload["kind"], config, report_from_dict(payload["baseline"]), rows)


def _csv_cell(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return ""
    return "%.9g" % value


def experiment_to_csv(report: ExperimentReport) -> str:
    """Flat table: one row per variant or trial, plus AVERAGE when the
    experiment averages over trials. Non-finite values print empty."""
    lines = ["variant," + ",".join(INDEX_NAMES) + ",k_effective"]
    scored = [(row.variant, row.report) for row in report.rows]
    if report.average is not None:
        scored.append(("AVERAGE", report.average))
    for variant, scores in scored:
        cells = [_csv_cell(scores.value_map()[n]) for n in INDEX_NAMES]
        lines.append(",".join([variant, *cells, str(scores.k_effective)]))
    return "\n".join(lines) + "\n"
