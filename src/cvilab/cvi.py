"""Cluster validation indices and the geometry statistics behind them.

Five scores over a crisp partition: silhouette, Calinski-Harabasz,
Davies-Bouldin, Dunn and Xie-Beni, each read from one
:class:`PartitionGeometry`; :func:`evaluate_all` alone scores Xie-Beni
fuzzily, from a fitted model's memberships and centroids. Distances are
Euclidean throughout. Structural
degeneracies that send a score to infinity (zero within-cluster scatter,
zero max diameter) return ``math.inf`` and are flagged "degenerate" in
reports instead of being serialized as a float; a genuine division by
zero (coincident centroids) raises :class:`CoincidentCentroidsError`.

One pass over the points sorted by cluster yields the silhouette's
per-cluster distance sums, the diameters and the minimum separation: a
row chunk of cluster i is measured against cluster i and every later
cluster, so each inter-cluster pair is computed once. Rows are chunked
so memory stays bounded, and every distance is computed pair by pair
(no matrix product shortcuts), so a min or max over a subset of the
points equals the same min or max over the full set bit for bit
whenever the attaining pair survives the subsetting. Besides that pass,
a geometry measures only its k×k centroid gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INDEX_NAMES = ("sh", "ch", "db", "di", "xb")

# Direction in which each index reads "better": silhouette,
# Calinski-Harabasz and Dunn rise with quality, Davies-Bouldin and
# Xie-Beni fall.
HIGHER_IS_BETTER = {"sh": True, "ch": True, "db": False, "di": True, "xb": False}

_CHUNK = 512


def cdist(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """scipy's Euclidean ``cdist``, imported at the first distance: a
    command that measures none never loads ``scipy.spatial``."""
    from scipy.spatial import distance
    return distance.cdist(xa, xb)


class CoincidentCentroidsError(ValueError):
    """Two distinct clusters share a centroid; the index divides by zero."""


@dataclass(frozen=True)
class PartitionGeometry:
    """Shared per-cluster statistics of a crisp partition.

    ``centroids[i]`` belongs to ``label_values[i]`` (sorted distinct
    labels) and ``canon[p]`` is the position of point p's label there.
    Per-cluster statistics are read from each cluster's contiguous block
    of the points sorted stably by ``canon``. ``own_gaps[p]`` is point
    p's distance to its centroid; ``mean_scatter`` and ``radii`` are
    each cluster's mean and max of those. ``within``, the sum of their
    squares taken before the square root, is the compactness that
    Calinski-Harabasz and Xie-Beni share. Diameters are max pairwise
    intra-cluster distances, ``min_separation_points`` the minimum over
    inter-cluster point pairs, and ``centroid_gaps`` the k×k centroid
    distances with an infinite diagonal. Singletons have diameter,
    scatter and radius 0. ``distance_sums[p, i]`` is the summed distance
    from point p to the members of cluster i; per-point arrays follow
    the input order.
    """

    points: np.ndarray
    labels: np.ndarray
    label_values: np.ndarray
    canon: np.ndarray
    centroids: np.ndarray
    data_centroid: np.ndarray
    cluster_sizes: np.ndarray
    diameters: np.ndarray
    own_gaps: np.ndarray
    mean_scatter: np.ndarray
    radii: np.ndarray
    within: float
    min_separation_points: float
    centroid_gaps: np.ndarray
    distance_sums: np.ndarray

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _distance_pass(
    xs: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Distance sums (in sorted row order), diameters and minimum
    separation of points sorted by cluster, cluster i being
    ``xs[bounds[i]:bounds[i + 1]]``. A chunk of cluster i is measured
    against cluster i and all later clusters; the later blocks' column
    sums fill cluster i's column for the later points."""
    k = bounds.shape[0] - 1
    sums = np.zeros((xs.shape[0], k))
    diameters = np.zeros(k)
    min_sep = math.inf
    for i in range(k):
        start, stop = bounds[i], bounds[i + 1]
        offsets = bounds[i:-1] - start
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            dist = cdist(xs[lo:hi], xs[start:])
            diameters[i] = max(diameters[i], dist[:, : stop - start].max())
            sums[lo:hi, i:] = np.add.reduceat(dist, offsets, axis=1)
            later = dist[:, stop - start :]
            min_sep = min(min_sep, later.min(initial=math.inf))
            sums[stop:, i] += later.sum(axis=0)
    return sums, diameters, float(min_sep)


def _centroid_gaps(centroids: np.ndarray) -> np.ndarray:
    gaps = cdist(centroids, centroids)
    np.fill_diagonal(gaps, math.inf)
    return gaps


def partition_geometry(points, labels) -> PartitionGeometry:
    """Compute the shared statistics every index draws on."""
    x = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError("labels must be 1-D and match the number of points")
    if not np.all(np.isfinite(x)):
        raise ValueError("points contain non-finite entries")
    label_values, canon = np.unique(y, return_inverse=True)
    k = label_values.shape[0]
    sizes = np.bincount(canon, minlength=k)
    order = np.argsort(canon, kind="stable")
    xs = x[order]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    centroids = np.empty((k, x.shape[1]))
    own_gaps = np.empty(x.shape[0])
    scatter = np.empty(k)
    radii = np.empty(k)
    cluster_within = np.empty(k)
    for c in range(k):
        members = xs[bounds[c] : bounds[c + 1]]
        centroids[c] = members.mean(axis=0)
        diff = members - centroids[c]
        # np.linalg.norm's own arithmetic, its squares kept for ``within``.
        squared = (diff * diff).sum(axis=1)
        norms = np.sqrt(squared)
        own_gaps[order[bounds[c] : bounds[c + 1]]] = norms
        scatter[c], radii[c], cluster_within[c] = norms.mean(), norms.max(), squared.sum()
    sorted_sums, diameters, min_sep_points = _distance_pass(xs, bounds)
    sums = np.empty_like(sorted_sums)
    sums[order] = sorted_sums
    return PartitionGeometry(
        points=x,
        labels=y,
        label_values=label_values,
        canon=canon,
        centroids=centroids,
        data_centroid=x.mean(axis=0) if x.shape[0] else np.full(x.shape[1], math.nan),
        cluster_sizes=sizes,
        diameters=diameters,
        own_gaps=own_gaps,
        mean_scatter=scatter,
        radii=radii,
        within=float(cluster_within.sum()),
        min_separation_points=min_sep_points,
        centroid_gaps=_centroid_gaps(centroids),
        distance_sums=sums,
    )


def _silhouette(geom: PartitionGeometry) -> float:
    k = geom.k
    if k < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    n = geom.points.shape[0]
    if n < 3:
        raise ValueError("silhouette needs at least 3 points")
    sizes, canon, sums = geom.cluster_sizes, geom.canon, geom.distance_sums
    rows = np.arange(n)
    own_size = sizes[canon]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(own_size > 1, sums[rows, canon] / np.maximum(own_size - 1, 1), 0.0)
    other = sums / sizes[None, :]
    other[rows, canon] = math.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    with np.errstate(invalid="ignore"):
        s = np.where(denom > 0, (b - a) / denom, 0.0)
    s[own_size == 1] = 0.0
    return float(s.mean())


def _calinski_harabasz(geom: PartitionGeometry) -> float:
    n = geom.points.shape[0]
    k = geom.k
    if k < 2:
        raise ValueError("index needs at least 2 clusters")
    if k >= n:
        raise ValueError("index needs k < N")
    spread = np.square(geom.centroids - geom.data_centroid).sum(axis=1)
    between = float((geom.cluster_sizes * spread).sum())
    if geom.within == 0.0:
        return math.inf
    return (between / (k - 1)) / (geom.within / (n - k))


def _davies_bouldin(geom: PartitionGeometry) -> float:
    k = geom.k
    if k < 2:
        raise ValueError("index needs at least 2 clusters")
    if geom.centroid_gaps.min() == 0.0:
        raise CoincidentCentroidsError("two clusters share a centroid")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (geom.mean_scatter[:, None] + geom.mean_scatter[None, :]) / geom.centroid_gaps
    ratio[np.diag_indices(k)] = -math.inf
    return float(ratio.max(axis=1).mean())


def _dunn(geom: PartitionGeometry) -> float:
    if geom.k < 2:
        raise ValueError("index needs at least 2 clusters")
    max_diameter = float(geom.diameters.max())
    if max_diameter == 0.0:
        return math.inf
    return geom.min_separation_points / max_diameter


def _xie_beni_ratio(scatter: float, n: int, gaps: np.ndarray) -> float:
    """Xie-Beni from its scatter and the centroid gaps (infinite diagonal)."""
    if gaps.shape[0] < 2:
        raise ValueError("index needs at least 2 clusters")
    min_gap = float(gaps.min())
    if min_gap == 0.0:
        raise CoincidentCentroidsError("two centroids coincide")
    return scatter / (n * min_gap**2)


def _xie_beni(geom: PartitionGeometry) -> float:
    return _xie_beni_ratio(geom.within, geom.points.shape[0], geom.centroid_gaps)


def silhouette(points, labels) -> float:
    """Mean silhouette width.

    Per point: a = mean distance to co-members (self excluded), b = the
    smallest over other clusters of the mean distance to that cluster's
    members, s = (b-a)/max(a,b). Points in singleton clusters contribute
    s = 0, as does a 0/0 (all relevant distances zero).
    """
    return _silhouette(partition_geometry(points, labels))


def calinski_harabasz(points, labels) -> float:
    """Between/within variance ratio, degree-of-freedom adjusted.

    Returns ``math.inf`` when the within-cluster scatter is exactly zero
    (every point sits on its centroid); callers report that case as
    degenerate rather than as a number.
    """
    return _calinski_harabasz(partition_geometry(points, labels))


def davies_bouldin(points, labels) -> float:
    """Mean over clusters of the worst (scatter_i + scatter_j) / gap_ij
    over partners j, pairwise over distinct clusters."""
    return _davies_bouldin(partition_geometry(points, labels))


def dunn(points, labels) -> float:
    """Min single-linkage inter-cluster distance over max cluster diameter.

    Returns ``math.inf`` when the max diameter is zero (every cluster a
    singleton, or all members coincident); reported as degenerate.
    """
    return _dunn(partition_geometry(points, labels))


def xie_beni(points, labels) -> float:
    """Within-cluster sum of squared distances to the centroids over N
    times the squared minimum centroid separation. The fuzzy form, over a
    fitted model's memberships, is scored by :func:`evaluate_all`."""
    return _xie_beni(partition_geometry(points, labels))


@dataclass(frozen=True)
class CviReport:
    """All five index values for one partition.

    A value is a finite float normally, ``math.inf`` when flagged in
    ``degenerate``, and ``None`` when the index raised (message kept in
    ``errors``). ``fuzzy`` records whether the Xie-Beni value used a
    membership matrix rather than hard labels.
    """

    sh: float | None
    ch: float | None
    db: float | None
    di: float | None
    xb: float | None
    k_effective: int
    fuzzy: bool
    degenerate: tuple[str, ...] = ()
    errors: tuple[tuple[str, str], ...] = ()

    def value_map(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in INDEX_NAMES}


def _report(geom: PartitionGeometry, xie_beni_index, fuzzy: bool) -> CviReport:
    """A failing index is recorded in the report; the others still run."""
    values: dict = {}
    degenerate, errors = [], []
    indices = (_silhouette, _calinski_harabasz, _davies_bouldin, _dunn, xie_beni_index)
    for name, index in zip(INDEX_NAMES, indices):
        try:
            values[name] = index(geom)
        except ValueError as exc:
            values[name] = None
            errors.append((name, str(exc)))
            continue
        if math.isinf(values[name]):
            degenerate.append(name)
    return CviReport(k_effective=geom.k, fuzzy=fuzzy, degenerate=tuple(degenerate),
                     errors=tuple(errors), **values)


def evaluate_geometry(geom: PartitionGeometry) -> CviReport:
    """All five indices on a hard partition's geometry, Xie-Beni crisp."""
    return _report(geom, _xie_beni, fuzzy=False)


def evaluate_labels(points, labels) -> CviReport:
    """All five indices on a hard partition, from one shared geometry.
    With no points, every index is recorded in ``errors``."""
    return evaluate_geometry(partition_geometry(points, labels))


def evaluate_all(points, model) -> CviReport:
    """All five indices for a fitted model's partition.

    The four label-based indices use the hardened labels. Xie-Beni is
    fuzzy: the memberships raised to the model's fuzzifier weigh the
    squared distances to the fitted centroids, and the separation is that
    of the fitted centroids, so the crisp Xie-Beni is never computed.
    Singleton clusters count as clusters.
    """

    def fuzzy_xie_beni(geom: PartitionGeometry) -> float:
        u = np.asarray(model.memberships, dtype=float)
        if u.shape[0] != geom.points.shape[0]:
            raise ValueError("membership rows must match the number of points")
        centroids = np.asarray(model.centroids, dtype=float)
        gaps = _centroid_gaps(centroids)
        scatter = float(((u**model.fuzzifier) * cdist(geom.points, centroids) ** 2).sum())
        return _xie_beni_ratio(scatter, geom.points.shape[0], gaps)

    return _report(partition_geometry(points, model.labels), fuzzy_xie_beni, fuzzy=True)


def report_to_dict(report: CviReport) -> dict:
    payload: dict = {}
    for name in INDEX_NAMES:
        value = getattr(report, name)
        payload[name] = value if value is not None and math.isfinite(value) else None
    payload["k_effective"] = report.k_effective
    payload["fuzzy"] = report.fuzzy
    payload["degenerate_flags"] = list(report.degenerate)
    payload["errors"] = {name: message for name, message in report.errors}
    return payload


def report_from_dict(payload: dict) -> CviReport:
    values: dict = {}
    degenerate = tuple(payload.get("degenerate_flags", ()))
    errors = tuple((k, v) for k, v in payload.get("errors", {}).items())
    for name in INDEX_NAMES:
        raw = payload.get(name)
        if raw is not None:
            values[name] = float(raw)
        elif name in degenerate:
            values[name] = math.inf
        else:
            values[name] = None
    return CviReport(
        k_effective=int(payload["k_effective"]),
        fuzzy=bool(payload["fuzzy"]),
        degenerate=degenerate,
        errors=errors,
        **values,
    )
