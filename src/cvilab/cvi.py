"""Cluster validation indices and the geometry statistics behind them.

Five scores over a crisp partition, each read from one
:class:`PartitionGeometry` and returned together in a :class:`CviReport`:

- ``sh``, mean silhouette width. Per point, a = mean distance to
  co-members (self excluded), b = the smallest over other clusters of the
  mean distance to that cluster's members, s = (b-a)/max(a,b); a point in
  a singleton cluster, or with a 0/0, scores s = 0.
- ``ch``, Calinski-Harabasz: between/within variance ratio, adjusted for
  degrees of freedom.
- ``db``, Davies-Bouldin: mean over clusters of the worst
  (scatter_i + scatter_j) / gap_ij over partners j.
- ``di``, Dunn: min single-linkage inter-cluster distance over max cluster
  diameter.
- ``xb``, Xie-Beni: within-cluster sum of squared distances to the
  centroids over N times the squared minimum centroid separation. It is
  the crisp form, from the labels alone, wherever a partition is scored.

Distances are Euclidean throughout. Zero within-cluster scatter (ch) or
zero max diameter (di) sends a score to ``math.inf``, flagged "degenerate"
in reports instead of being serialized as a float. Coincident centroids
(db, xb) are a genuine division by zero: both raise one ``ValueError``, whose
text the report records in its ``errors``. With fewer than 2 clusters, every
index is such an error.

One pass over the points sorted by cluster yields the silhouette's
per-cluster distance sums, the diameters and the minimum separation: a
row chunk of cluster i is measured against cluster i and every later
cluster, so each inter-cluster pair is computed once. Rows are chunked
so memory stays bounded, and scipy's compiled kernel (:func:`cdist`)
computes every distance pair by pair, with no matrix product shortcut,
so a min or max over a subset of the points equals the same min or max
over the full set bit for bit whenever the attaining pair survives the
subsetting. Besides that pass, a geometry measures only its k×k centroid gaps.
"""

from __future__ import annotations

import functools
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
    """The Euclidean distance of each row of ``xa`` to each row of ``xb``."""
    return euclidean_kernel()(xa, xb)


@functools.cache
def euclidean_kernel():
    """scipy's compiled kernel behind ``cdist(xa, xb, "euclidean")``, loaded alone at
    the first distance: importing ``scipy.spatial`` maps linalg, sparse and qhull too."""
    import importlib.machinery
    import importlib.util
    import os
    import scipy
    where = os.path.join(scipy.__path__[0], "spatial")
    spec = importlib.machinery.PathFinder.find_spec("scipy.spatial._distance_pybind", [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no _distance_pybind in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cdist_euclidean


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
    gaps = cdist(centroids, centroids)
    np.fill_diagonal(gaps, math.inf)
    return PartitionGeometry(
        points=x,
        labels=y,
        label_values=label_values,
        canon=canon,
        centroids=centroids,
        cluster_sizes=sizes,
        diameters=diameters,
        own_gaps=own_gaps,
        mean_scatter=scatter,
        radii=radii,
        within=float(cluster_within.sum()),
        min_separation_points=min_sep_points,
        centroid_gaps=gaps,
        distance_sums=sums,
    )


def _silhouette(geom: PartitionGeometry) -> float:
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
    if k >= n:
        raise ValueError("index needs k < N")
    spread = np.square(geom.centroids - geom.points.mean(axis=0)).sum(axis=1)
    between = float((geom.cluster_sizes * spread).sum())
    if geom.within == 0.0:
        return math.inf
    return (between / (k - 1)) / (geom.within / (n - k))


def _min_centroid_gap(geom: PartitionGeometry) -> float:
    min_gap = float(geom.centroid_gaps.min())
    if min_gap == 0.0:
        raise ValueError("two clusters share a centroid")
    return min_gap


def _davies_bouldin(geom: PartitionGeometry) -> float:
    _min_centroid_gap(geom)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (geom.mean_scatter[:, None] + geom.mean_scatter[None, :]) / geom.centroid_gaps
    ratio[np.diag_indices(geom.k)] = -math.inf
    return float(ratio.max(axis=1).mean())


def _dunn(geom: PartitionGeometry) -> float:
    max_diameter = float(geom.diameters.max())
    if max_diameter == 0.0:
        return math.inf
    return geom.min_separation_points / max_diameter


def _xie_beni(geom: PartitionGeometry) -> float:
    return geom.within / (geom.points.shape[0] * _min_centroid_gap(geom) ** 2)


@dataclass(frozen=True)
class CviReport:
    """All five index values for one partition.

    A value is a finite float normally, ``math.inf`` when the index is
    degenerate, and ``None`` when the index raised (message kept in
    ``errors``). All five are read from the hard labels, Xie-Beni too.
    """

    sh: float | None
    ch: float | None
    db: float | None
    di: float | None
    xb: float | None
    k_effective: int
    errors: tuple[tuple[str, str], ...] = ()

    def value_map(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in INDEX_NAMES}

    @property
    def degenerate(self) -> tuple[str, ...]:
        """The indices whose value is infinite, in index order."""
        return tuple(n for n, v in self.value_map().items() if v is not None and math.isinf(v))


def evaluate_geometry(geom: PartitionGeometry) -> CviReport:
    """All five indices on a hard partition's geometry. A failing index is
    recorded in the report; the others still run. With fewer than 2
    clusters in ``geom``, every index fails alike."""
    values: dict = {}
    errors = []
    indices = (_silhouette, _calinski_harabasz, _davies_bouldin, _dunn, _xie_beni)
    for name, index in zip(INDEX_NAMES, indices):
        try:
            if geom.k < 2:
                raise ValueError("index needs at least 2 clusters")
            values[name] = index(geom)
        except ValueError as exc:
            values[name] = None
            errors.append((name, str(exc)))
    return CviReport(k_effective=geom.k, errors=tuple(errors), **values)


def evaluate_labels(points, labels) -> CviReport:
    """All five indices on a hard partition, from one shared geometry."""
    return evaluate_geometry(partition_geometry(points, labels))


def report_to_dict(report: CviReport) -> dict:
    finite = {name: value if value is not None and math.isfinite(value) else None
              for name, value in report.value_map().items()}
    return {**finite, "k_effective": report.k_effective,
            "degenerate_flags": list(report.degenerate), "errors": dict(report.errors)}


def report_from_dict(payload: dict) -> CviReport:
    """JSON holds an infinite value as null, its index in ``degenerate_flags``."""
    degenerate = tuple(payload.get("degenerate_flags", ()))
    errors = tuple((k, v) for k, v in payload.get("errors", {}).items())
    values = {name: float(payload[name]) if payload.get(name) is not None
              else math.inf if name in degenerate else None for name in INDEX_NAMES}
    return CviReport(k_effective=int(payload["k_effective"]), errors=errors, **values)
