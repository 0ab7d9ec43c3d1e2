"""Load-profile ingestion and synthesis.

Raw smart-meter readings arrive as 15-minute kW samples per household. Each
household is condensed to a 96-slot daily profile (per-slot median over all
observed days) and scaled to unit Euclidean norm, so that clustering sees
demand *shape* rather than magnitude. A seeded synthetic generator stands in
for metered data in tests and experiments.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .rng import master_stream

SLOTS_PER_DAY = 96
SLOT_MINUTES = 15

PROFILE_CSV_HEADER = ["household_id"] + [
    f"t{(s * SLOT_MINUTES) // 60:02d}{(s * SLOT_MINUTES) % 60:02d}"
    for s in range(SLOTS_PER_DAY)
]


class CsvFormatError(ValueError):
    """Malformed readings CSV; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ZeroProfileError(ValueError):
    """A profile with no energy at all cannot be normalized."""


class MissingSlotError(ValueError):
    """A daily slot has no observations; medians are undefined for it."""


@dataclass(frozen=True)
class ReadingSeries:
    """Time-sorted 15-minute readings for one household."""

    household_id: str
    times: tuple[datetime, ...]
    loads: np.ndarray  # kW, nonnegative, same length as times

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class DailyProfile:
    """Unit-norm 96-slot median daily profile of one household."""

    household_id: str
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (SLOTS_PER_DAY,):
            raise ValueError(f"profile must have {SLOTS_PER_DAY} slots")
        if np.any(self.values < 0):
            raise ValueError("profile entries must be nonnegative")
        norm = float(np.linalg.norm(self.values))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"profile norm {norm} is not 1 within 1e-9")


@dataclass(frozen=True)
class ProfileMatrix:
    """Stack of daily profiles in stable (sorted) household order."""

    households: tuple[str, ...]
    values: np.ndarray  # (N, 96)

    def __post_init__(self):
        if len(self.households) != self.values.shape[0]:
            raise ValueError("household count does not match row count")
        if len(set(self.households)) != len(self.households):
            raise ValueError("household ids must be unique")

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_profiles(cls, profiles: list[DailyProfile]) -> "ProfileMatrix":
        return cls(
            households=tuple(p.household_id for p in profiles),
            values=np.array([p.values for p in profiles], dtype=float),
        )


def _open_text(source) -> io.TextIOBase:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.TextIOBase):
        return source
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return io.StringIO(data)


def _parse_timestamp(raw: str, line: int) -> datetime:
    try:
        ts = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    except ValueError:
        raise CsvFormatError(line, f"bad ISO-8601 timestamp {raw!r}") from None
    if ts.minute % SLOT_MINUTES or ts.second or ts.microsecond:
        raise CsvFormatError(line, f"timestamp {raw!r} is not on a 15-minute boundary")
    return ts


def _offset_name(offset: timedelta | None) -> str:
    return "naive" if offset is None else timezone(offset).tzname(None)


def parse_readings(csv_source) -> list[ReadingSeries]:
    """Parse a readings CSV into one time-sorted series per household.

    Expected layout: header ``household_id,timestamp,kw``, ISO-8601
    timestamps on 15-minute boundaries, nonnegative finite kW with a dot
    decimal separator. Rows may arrive in any order; several files may be
    concatenated upstream. Every row of a household carries the UTC offset
    of its first row (naive timestamps count as one offset of their own),
    so its samples slot and de-duplicate by the same wall clock. Errors
    report the offending line number.
    """
    fh = _open_text(csv_source)
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(1, "empty input, expected header household_id,timestamp,kw") from None
    if [h.strip() for h in header] != ["household_id", "timestamp", "kw"]:
        raise CsvFormatError(1, f"unexpected header {header!r}")

    offsets: dict[str, timedelta | None] = {}
    per_house: dict[str, dict[datetime, float]] = {}
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise CsvFormatError(line, f"expected 3 fields, got {len(row)}")
        hid = row[0].strip()
        if not hid:
            raise CsvFormatError(line, "empty household_id")
        ts = _parse_timestamp(row[1], line)
        try:
            kw = float(row[2])
        except ValueError:
            raise CsvFormatError(line, f"bad kW value {row[2]!r}") from None
        if not math.isfinite(kw):
            raise CsvFormatError(line, f"non-finite kW value {row[2]!r}")
        if kw < 0:
            raise CsvFormatError(line, f"negative kW value {kw}")
        offset = ts.utcoffset()
        samples = per_house.get(hid)
        if samples is None:
            samples = per_house[hid] = {}
            offsets[hid] = offset
        elif offset != offsets[hid]:
            raise CsvFormatError(
                line,
                f"mixed UTC offsets for {hid}: {_offset_name(offset)} here, "
                f"{_offset_name(offsets[hid])} on its first row",
            )
        if ts in samples:
            raise CsvFormatError(line, f"duplicate reading for {hid} at {ts.isoformat()}")
        samples[ts] = kw

    series = []
    for hid in sorted(per_house):
        samples = sorted(per_house[hid].items())
        series.append(
            ReadingSeries(
                household_id=hid,
                times=tuple(t for t, _ in samples),
                loads=np.array([v for _, v in samples], dtype=float),
            )
        )
    return series


def _slot_of(ts: datetime) -> int:
    return ts.hour * 4 + ts.minute // SLOT_MINUTES


def median_daily_profile(series: ReadingSeries) -> np.ndarray:
    """Per-slot median over all observed days, in kW.

    Even observation counts take the mean of the two central order
    statistics. Every one of the 96 slots needs at least one observation;
    gaps are an error rather than being imputed.
    """
    buckets: list[list[float]] = [[] for _ in range(SLOTS_PER_DAY)]
    for ts, kw in zip(series.times, series.loads):
        buckets[_slot_of(ts)].append(kw)
    missing = [s for s, b in enumerate(buckets) if not b]
    if missing:
        raise MissingSlotError(
            f"household {series.household_id}: no observations for "
            f"{len(missing)} slot(s), first missing slot {missing[0]}"
        )
    return np.array([np.median(b) for b in buckets], dtype=float)


def l2_normalize(profile: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm."""
    vec = np.asarray(profile, dtype=float)
    if not np.all(np.isfinite(vec)):
        raise ValueError("profile contains non-finite entries")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroProfileError("all-zero profile cannot be normalized")
    return vec / norm


def profiles_from_readings(series: list[ReadingSeries]) -> ProfileMatrix:
    """Median + normalize every series and stack into a ProfileMatrix."""
    profiles = [
        DailyProfile(s.household_id, l2_normalize(median_daily_profile(s)))
        for s in series
    ]
    return ProfileMatrix.from_profiles(profiles)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a seeded synthetic household population.

    Each of ``cluster_count`` clusters gets ``cluster_size`` profiles built
    as its template plus isotropic Gaussian noise of scale ``spread``,
    clipped at zero and unit-normalized. Outliers are single extra profiles;
    in ``"far"`` mode they sit at >= 5x the maximum inter-template distance
    from every template (measured before normalization, realized as spikes
    on otherwise-quiet slots so they stay remote after normalization too),
    in ``"near"`` mode they sit at the template centroid.
    """

    templates: np.ndarray  # (cluster_count, 96)
    cluster_size: int
    spread: float
    outlier_count: int = 0
    outlier_mode: str = "far"
    seed: int = 0

    def __post_init__(self):
        t = np.asarray(self.templates, dtype=float)
        object.__setattr__(self, "templates", t)
        if t.ndim != 2 or t.shape[1] != SLOTS_PER_DAY or t.shape[0] < 1:
            raise ValueError(f"templates must be (clusters, {SLOTS_PER_DAY})")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ValueError("templates must be finite and nonnegative")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be positive")
        if self.spread < 0:
            raise ValueError("spread must be nonnegative")
        if self.outlier_count < 0:
            raise ValueError("outlier_count must be nonnegative")
        if self.outlier_mode not in ("far", "near"):
            raise ValueError("outlier_mode must be 'far' or 'near'")

    @property
    def cluster_count(self) -> int:
        return self.templates.shape[0]


def synthetic_templates(count: int) -> np.ndarray:
    """Deterministic bank of plausible daily load shapes.

    Template i is a constant base load plus a Gaussian demand bump whose
    peak hour advances with i, so any two templates are distinct but share
    the common "always some load, one busy period" structure of household
    profiles.
    """
    if count < 1:
        raise ValueError("need at least one template")
    slots = np.arange(SLOTS_PER_DAY, dtype=float)
    templates = np.empty((count, SLOTS_PER_DAY))
    for i in range(count):
        center = (28.0 + i * SLOTS_PER_DAY / max(count, 3)) % SLOTS_PER_DAY
        offset = np.minimum(np.abs(slots - center), SLOTS_PER_DAY - np.abs(slots - center))
        templates[i] = 0.3 + 1.2 * np.exp(-0.5 * (offset / 6.0) ** 2)
    return templates


def _far_outliers(templates: np.ndarray, count: int) -> np.ndarray:
    # Spikes on the quietest slots: far from every template before
    # normalization (>= 5x max inter-template distance) and nearly
    # orthogonal to them after, so they stay remote on the unit sphere.
    k = templates.shape[0]
    gaps = np.linalg.norm(templates[:, None, :] - templates[None, :, :], axis=2)
    base = float(gaps.max()) if k > 1 else 0.0
    if base == 0.0:
        base = max(float(np.linalg.norm(templates, axis=1).max()), 1.0)
    quiet = np.argsort(templates.sum(axis=0), kind="stable")
    outliers = np.zeros((count, SLOTS_PER_DAY))
    max_norm = float(np.linalg.norm(templates, axis=1).max())
    for i in range(count):
        slot = int(quiet[i % SLOTS_PER_DAY])
        outliers[i, slot] = 5.0 * base + max_norm + (i + 1) * base
    dists = np.linalg.norm(outliers[:, None, :] - templates[None, :, :], axis=2)
    assert np.all(dists >= 5.0 * base)
    return outliers


def generate_synthetic(spec: SynthSpec) -> tuple[ProfileMatrix, np.ndarray]:
    """Generate a profile population and its ground-truth labels.

    Pure function of the recipe: the same ``SynthSpec`` yields
    bit-identical output.
    Cluster members get labels 0..k-1; each outlier gets its own label
    k, k+1, ... since it is meant to surface as a singleton cluster.
    """
    rng = master_stream(spec.seed)
    k = spec.cluster_count
    rows = []
    labels = []
    for j in range(k):
        noise = rng.normal(0.0, spec.spread, size=(spec.cluster_size, SLOTS_PER_DAY))
        raw = np.clip(spec.templates[j] + noise, 0.0, None)
        for r in range(spec.cluster_size):
            if not raw[r].any():
                raise ZeroProfileError(
                    f"cluster {j} member {r}: noise clipping produced an all-zero profile"
                )
            rows.append(l2_normalize(raw[r]))
            labels.append(j)
    if spec.outlier_count:
        if spec.outlier_mode == "far":
            raw_outliers = _far_outliers(spec.templates, spec.outlier_count)
        else:
            raw_outliers = np.broadcast_to(
                spec.templates.mean(axis=0), (spec.outlier_count, SLOTS_PER_DAY)
            )
        for i in range(spec.outlier_count):
            rows.append(l2_normalize(raw_outliers[i]))
            labels.append(k + i)

    width = max(3, len(str(len(rows) - 1)))
    households = tuple(f"synth-{i:0{width}d}" for i in range(len(rows)))
    matrix = ProfileMatrix(households=households, values=np.array(rows, dtype=float))
    return matrix, np.array(labels, dtype=int)


def write_profiles_csv(matrix: ProfileMatrix, target) -> None:
    """Write the profile matrix as CSV (9 significant digits)."""
    own = isinstance(target, (str, os.PathLike))
    fh = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_CSV_HEADER)
        for hid, row in zip(matrix.households, matrix.values):
            writer.writerow([hid] + [format(v, ".9g") for v in row])
    finally:
        if own:
            fh.close()


def read_profiles_csv(source) -> ProfileMatrix:
    """Read a profile CSV written by :func:`write_profiles_csv`.

    Rows are re-normalized: 9-digit rounding can push the stored norm just
    outside the 1e-9 unit-norm tolerance.
    """
    fh = _open_text(source)
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != PROFILE_CSV_HEADER:
        raise ValueError("unexpected profile CSV header")
    households = []
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != SLOTS_PER_DAY + 1:
            raise ValueError(f"profile row for {row[0]!r} has {len(row) - 1} slots")
        households.append(row[0])
        rows.append(l2_normalize(np.array([float(v) for v in row[1:]], dtype=float)))
    return ProfileMatrix(households=tuple(households), values=np.array(rows, dtype=float))
