"""Independent reference implementations used to cross-check the package.

Everything here is written formula-first: plain loops over an explicitly
built distance matrix, a Jacobi eigensolver, scipy's binomial tail.  None
of it shares code with the package, so agreement between the two routes
is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """Full pairwise Euclidean distances, one row at a time."""

    return np.array(
        [np.sqrt(((points - row) ** 2).sum(axis=1)) for row in points]
    )


def naive_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    dist = distance_matrix(points)
    labels = np.asarray(labels)
    values = sorted(set(int(v) for v in labels))
    n = len(labels)
    scores = []
    for i in range(n):
        own = int(labels[i])
        own_members = [j for j in range(n) if labels[j] == own and j != i]
        if not own_members:
            scores.append(0.0)
            continue
        a = sum(dist[i, j] for j in own_members) / len(own_members)
        b = math.inf
        for other in values:
            if other == own:
                continue
            members = [j for j in range(n) if labels[j] == other]
            b = min(b, sum(dist[i, j] for j in members) / len(members))
        denom = max(a, b)
        scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return sum(scores) / n


def naive_calinski_harabasz(points: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    values = sorted(set(int(v) for v in labels))
    n, k = len(labels), len(values)
    grand = points.mean(axis=0)
    between = 0.0
    within = 0.0
    for value in values:
        members = points[labels == value]
        center = members.mean(axis=0)
        between += len(members) * float(((center - grand) ** 2).sum())
        within += float(((members - center) ** 2).sum())
    if within == 0.0:
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


def naive_davies_bouldin(points: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    values = sorted(set(int(v) for v in labels))
    centers = [points[labels == v].mean(axis=0) for v in values]
    scatters = []
    for value, center in zip(values, centers):
        members = points[labels == value]
        scatters.append(
            float(np.sqrt(((members - center) ** 2).sum(axis=1)).mean())
        )
    k = len(values)
    total = 0.0
    for i in range(k):
        worst = -math.inf
        for j in range(k):
            if j == i:
                continue
            gap = float(np.sqrt(((centers[i] - centers[j]) ** 2).sum()))
            worst = max(worst, (scatters[i] + scatters[j]) / gap)
        total += worst
    return total / k


def naive_dunn(points: np.ndarray, labels: np.ndarray) -> float:
    dist = distance_matrix(points)
    labels = np.asarray(labels)
    n = len(labels)
    max_diameter = 0.0
    min_separation = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                max_diameter = max(max_diameter, dist[i, j])
            else:
                min_separation = min(min_separation, dist[i, j])
    if max_diameter == 0.0:
        return math.inf
    return min_separation / max_diameter


def naive_xie_beni_crisp(points: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    values = sorted(set(int(v) for v in labels))
    centers = [points[labels == v].mean(axis=0) for v in values]
    scatter = 0.0
    for i, label in enumerate(labels):
        center = centers[values.index(int(label))]
        scatter += float(((points[i] - center) ** 2).sum())
    min_gap_sq = math.inf
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            min_gap_sq = min(
                min_gap_sq, float(((centers[i] - centers[j]) ** 2).sum())
            )
    return scatter / (len(labels) * min_gap_sq)


def naive_fpc(memberships: np.ndarray) -> float:
    n, k = memberships.shape
    total = 0.0
    for i in range(n):
        for j in range(k):
            total += memberships[i, j] ** 2
    return total / n


def naive_fcm_trace(
    points: np.ndarray,
    initial_centroids: np.ndarray,
    fuzzifier: float,
    iterations: int,
) -> list[float]:
    """Reference alternating-update loop, trace of objective values.

    Entry t records the objective of the memberships computed from the
    centroids of step t against the centroids of step t+1, matching the
    accounting of the implementation under test.
    """

    m = fuzzifier
    centroids = np.array(initial_centroids, dtype=float)
    trace = []
    for _ in range(iterations):
        u = _reference_memberships(points, centroids, m)
        weights = u ** m
        new_centroids = centroids.copy()
        for j in range(centroids.shape[0]):
            w = weights[:, j]
            total = w.sum()
            if total > 0.0:
                new_centroids[j] = (w[:, None] * points).sum(axis=0) / total
        objective = 0.0
        for i in range(points.shape[0]):
            for j in range(centroids.shape[0]):
                d_sq = float(((points[i] - new_centroids[j]) ** 2).sum())
                objective += weights[i, j] * d_sq
        trace.append(objective)
        centroids = new_centroids
    return trace


def _reference_memberships(
    points: np.ndarray, centroids: np.ndarray, m: float
) -> np.ndarray:
    n, k = points.shape[0], centroids.shape[0]
    u = np.zeros((n, k))
    for i in range(n):
        dists = [
            math.sqrt(float(((points[i] - centroids[j]) ** 2).sum()))
            for j in range(k)
        ]
        if min(dists) == 0.0:
            u[i, dists.index(0.0)] = 1.0
            continue
        for j in range(k):
            u[i, j] = 1.0 / sum(
                (dists[j] / dists[l]) ** (2.0 / (m - 1.0)) for l in range(k)
            )
    return u


def jacobi_eigh(matrix: np.ndarray, sweeps: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalisation of a symmetric matrix.

    Returns eigenvalues sorted descending and the matching eigenvectors
    as columns.  Independent of LAPACK on purpose.
    """

    a = np.array(matrix, dtype=float)
    d = a.shape[0]
    vecs = np.eye(d)
    for _ in range(sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(d) for q in range(d) if p != q))
        if off < 1e-14:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(d)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], vecs[:, order]


def binomial_upper_tail(wins: int, trials: int) -> float:
    """P[X >= wins] for X ~ Binomial(trials, 1/2), via scipy."""

    if wins <= 0:
        return 1.0
    return float(stats.binom.sf(wins - 1, trials, 0.5))


def label_agreement(found: np.ndarray, truth: np.ndarray) -> float:
    """Best-permutation agreement rate between two labelings."""

    from scipy.optimize import linear_sum_assignment

    found = np.asarray(found)
    truth = np.asarray(truth)
    f_values = sorted(set(int(v) for v in found))
    t_values = sorted(set(int(v) for v in truth))
    overlap = np.zeros((len(f_values), len(t_values)))
    for fi, fv in enumerate(f_values):
        for ti, tv in enumerate(t_values):
            overlap[fi, ti] = np.sum((found == fv) & (truth == tv))
    rows, cols = linear_sum_assignment(-overlap)
    return float(overlap[rows, cols].sum()) / len(found)


def random_instance(
    rng: np.random.Generator,
    max_points: int = 200,
    max_clusters: int = 10,
    max_dims: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Random labeled point set with every cluster nonempty."""

    k = int(rng.integers(2, max_clusters + 1))
    n = int(rng.integers(max(k + 1, 20), max_points + 1))
    d = int(rng.integers(1, max_dims + 1))
    centers = rng.normal(0.0, 4.0, size=(k, d))
    labels = np.concatenate(
        [np.arange(k), rng.integers(0, k, size=n - k)]
    ).astype(int)
    rng.shuffle(labels)
    points = centers[labels] + rng.normal(0.0, 1.0, size=(n, d))
    return points, labels
