"""Fuzzy c-means clustering and partition-coefficient model selection.

Classic alternating optimization: memberships from centroid distances
(exponent 2/(m-1)), centroids as membership-weighted means, repeated until
the centroids stop moving. Fitting is seeded and restarted; the restart with
the lowest final objective wins. Its clusters are numbered in the order of
their first member in point order, clusters with no member last, so
restarts that reach one optimum under different numberings, and tie up to
rounding, still give one numbering. The fuzzy partition coefficient,
maximized over a candidate range, picks the cluster count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cvi import cdist, euclidean_kernel
from .rng import derive_stream, fork_map

K_MAX_DEFAULT = 10


@dataclass(frozen=True)
class FcmConfig:
    """Knobs for a fuzzy c-means fit; ``fuzzifier`` is a finite m > 1."""

    k: int
    fuzzifier: float = 2.0
    max_iter: int = 300
    tol: float = 1e-6
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not (isinstance(self.fuzzifier, (int, float)) and 1.0 < self.fuzzifier < math.inf):
            raise ValueError("fuzzifier must be finite and exceed 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class ClusterModel:
    """What one fuzzy c-means fit decided; its memberships are not kept.

    ``labels`` is the per-point argmax of the winning restart's memberships
    (ties to the lowest index), ``fpc`` their partition coefficient, and
    ``objective_trace`` its objective after each iteration. A fitted model
    numbers its clusters by first member: the labels first appear in the
    order 0, 1, 2, ..., and the clusters with no member come last.
    """

    centroids: np.ndarray        # (k, d)
    fuzzifier: float
    labels: np.ndarray           # (N,)
    objective_trace: np.ndarray  # (iterations,)
    fpc: float

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def empty_clusters(self) -> tuple[int, ...]:
        """The clusters that received no points under hardening."""
        return tuple(j for j in range(self.k) if not np.any(self.labels == j))


def _memberships_from_distances(dist: np.ndarray, m: float) -> np.ndarray:
    """Memberships of a (..., k, N) stack of centroid-point distances."""
    # Scale by each point's min distance so the power stays in [0, 1] and
    # cannot overflow. A point whose min is 0 divides by zero here and is
    # then overwritten: a point sitting on a centroid gets crisp
    # membership to the first such centroid (standard singularity fix).
    nearest = dist.min(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = dist / nearest
        u **= -2.0 / (m - 1.0)
        u /= u.sum(axis=-2, keepdims=True)
    hit = nearest == 0.0
    if hit.any():
        zero = dist == 0.0
        u = np.where(hit, zero & (np.cumsum(zero, axis=-2) == 1), u)
    return u


def _distances(centroids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(R, k, N) distances of an (R, k, d) centroid stack, in one ``cdist``."""
    r, k, d = centroids.shape
    return cdist(centroids.reshape(-1, d), x).reshape(r, k, x.shape[0])


def _first_member_order(u: np.ndarray) -> list[int]:
    """The clusters of a (k, N) membership block in the order of their first
    member, taking the points in order. A point tied between clusters counts
    for the one placed first, or else the lowest-indexed, as ``argmax`` will
    harden it once reordered. Clusters with no member follow, in order."""
    top = u == u.max(axis=0)
    order: list[int] = []
    while (free := ~top[order].any(axis=0)).any():
        order.append(int(np.argmax(top[:, np.argmax(free)])))
    return order + [j for j in range(len(u)) if j not in order]


def fit_fcm(data: np.ndarray, config: FcmConfig) -> ClusterModel:
    """Fit fuzzy c-means; best of ``config.restarts`` seeded starts.

    Each restart initializes centroids at k distinct data points drawn from
    its own child stream, so the fit is bit-deterministic for a given seed
    and config. Iteration stops when the largest centroid displacement
    drops below ``tol`` or ``max_iter`` is reached. The restarts advance
    together as one (restart, cluster, point) stack, and a restart leaves
    the stack when it stops; no restart's bits depend on the others in it.
    Each step computes the point-centroid distances of all restarts in one
    pass: they give this step's objectives and the next memberships. The
    winner's clusters are then numbered by first member (see ``ClusterModel``).
    """
    x = np.ascontiguousarray(np.asarray(data, dtype=float))
    if x.ndim != 2:
        raise ValueError("expected a 2-D data matrix")
    n = x.shape[0]
    if n <= config.k:
        raise ValueError(f"need more points ({n}) than clusters ({config.k})")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite entries")
    m = float(config.fuzzifier)

    centroids = np.stack([
        x[derive_stream(config.seed, restart).choice(n, size=config.k, replace=False)]
        for restart in range(config.restarts)
    ])
    final_centroids = np.empty_like(centroids)
    final_u = np.empty((config.restarts, config.k, n))
    traces: list[list[float]] = [[] for _ in range(config.restarts)]
    live = np.arange(config.restarts)
    u = _memberships_from_distances(_distances(centroids, x), m)
    for _ in range(config.max_iter):
        w = u**m
        weights = w.sum(axis=-1, keepdims=True)
        # A cluster with zero total weight keeps its previous centroid.
        with np.errstate(divide="ignore", invalid="ignore"):
            new_centroids = np.where(weights > 0, np.matmul(w, x) / weights, centroids)
        dist = _distances(new_centroids, x)
        for restart, value in zip(live, (w * dist**2).sum(axis=(1, 2))):
            traces[restart].append(float(value))
        shift = np.linalg.norm(new_centroids - centroids, axis=-1).max(axis=-1)
        centroids = new_centroids
        done = shift < config.tol
        if done.any():
            final_centroids[live[done]] = centroids[done]
            final_u[live[done]] = u[done]
            keep = ~done
            live, centroids, dist = live[keep], centroids[keep], dist[keep]
            if not len(live):
                break
        u = _memberships_from_distances(dist, m)
    else:
        # The restarts still in the stack stopped at max_iter.
        final_centroids[live] = centroids
        final_u[live] = u

    # The lowest final objective wins; min keeps the first of equals.
    best = min(range(config.restarts), key=lambda restart: traces[restart][-1])
    order = _first_member_order(final_u[best])
    u = np.ascontiguousarray(final_u[best][order].T)
    return ClusterModel(
        centroids=final_centroids[best][order],
        fuzzifier=m,
        labels=np.argmax(u, axis=1),
        objective_trace=np.array(traces[best], dtype=float),
        fpc=fuzzy_partition_coefficient(u),
    )


def fuzzy_partition_coefficient(u: np.ndarray) -> float:
    """Mean squared membership, 1/N * sum(u^2): 1 for a crisp partition,
    1/k for a maximally fuzzy one."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.size == 0:
        raise ValueError("membership matrix must be 2-D and nonempty")
    return float(np.square(u).sum() / u.shape[0])


def select_cluster_count(
    data: np.ndarray,
    config: FcmConfig,
    k_range: tuple[int, int] = (2, K_MAX_DEFAULT),
) -> tuple[list[tuple[int, float]], ClusterModel]:
    """Fit every k in ``k_range`` and pick the FPC argmax (ties: smaller k).

    Returns the (k, FPC) curve for export and the winning model, whose ``k``
    is the chosen one; the pipeline uses it rather than fitting k* again.
    Refitting with ``k=k*`` reproduces the winning model bit for bit, so the
    curve alone is enough to resume from.
    """
    x = np.asarray(data, dtype=float)
    lo, hi = k_range
    if lo < 2 or hi < lo:
        raise ValueError(f"bad k range [{lo}, {hi}]")
    if hi > x.shape[0] - 1:
        raise ValueError(f"k range upper bound {hi} exceeds N-1 = {x.shape[0] - 1}")
    euclidean_kernel()  # loaded before the fork: every worker inherits it
    # One k per worker task; fork_map hands out the costliest, largest k first.
    models = fork_map(lambda k: fit_fcm(x, replace(config, k=k)), range(lo, hi + 1))
    # max keeps the first of equal FPCs, so a tie goes to the smaller k.
    return [(model.k, model.fpc) for model in models], max(models, key=lambda model: model.fpc)


def model_to_dict(model: ClusterModel) -> dict:
    return {
        "centroids": model.centroids.tolist(),
        "m": model.fuzzifier,
        "labels": model.labels.tolist(),
        "objective_trace": model.objective_trace.tolist(),
        "empty_clusters": list(model.empty_clusters),
        "fpc": model.fpc,
    }


def model_from_dict(payload: dict) -> ClusterModel:
    centroids, labels = np.array(payload["centroids"], dtype=float), np.array(payload["labels"])
    if labels.dtype.kind not in "iu" or not np.all((labels >= 0) & (labels < len(centroids))):
        raise ValueError("labels must be cluster numbers 0..k-1")
    return ClusterModel(
        centroids=centroids,
        fuzzifier=float(payload["m"]),
        labels=labels,
        objective_trace=np.array(payload["objective_trace"], dtype=float),
        fpc=float(payload["fpc"]),
    )
