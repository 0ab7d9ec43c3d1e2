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
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain

import numpy as np

from .rng import master_stream

SLOTS_PER_DAY = 96
SLOT_MINUTES = 15

PROFILE_CSV_HEADER = ["household_id"] + [
    f"t{(s * SLOT_MINUTES) // 60:02d}{(s * SLOT_MINUTES) % 60:02d}"
    for s in range(SLOTS_PER_DAY)
]

_HEADER = ["household_id", "timestamp", "kw"]

# Bytes of whole lines the columnar reader takes at a time. Per row, only
# two int32 codes and a float64 kW outlive a block.
_BLOCK_BYTES = 1 << 22


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


@contextmanager
def _open_text(source):
    """A text handle on a path, bytes or a stream; only a file opened here
    is closed on exit."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield fh
        return
    if not isinstance(source, io.TextIOBase):
        data = source if isinstance(source, bytes) else source.read()
        source = _text_buffer(data.decode("utf-8") if isinstance(data, bytes) else data)
    yield source


def _text_buffer(text: str) -> io.StringIO:
    # Lines end at \r, \n or \r\n, as in a file opened with newline="".
    return io.StringIO(text, newline="")


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

    ``csv_source`` is a path, bytes or a stream; a stream is read whole
    first, and every source is read as a file opened with ``newline=""``.
    The source is read in blocks of whole lines, and each distinct
    household, timestamp and kW string is parsed once. Input outside the
    plain grammar (quotes, blank lines, a wrong comma count, bytes that are
    not UTF-8) or breaking a rule above goes through the row parser instead,
    which raises the line-numbered error. The series share one ``datetime``
    per distinct timestamp string.
    """
    if not isinstance(csv_source, (str, os.PathLike, bytes)):
        data = csv_source.read()
        csv_source = data if isinstance(data, bytes) else _text_buffer(data)
    try:
        with _open_bytes(csv_source) as fh:
            return _parse_columnar(_line_blocks(fh))
    except _RowPath:
        pass
    with _open_text(csv_source) as fh:
        return _parse_rows(fh)


def _parse_rows(fh) -> list[ReadingSeries]:
    """The row-by-row parser: the reference for the columnar reader, and
    the one place that words the line-numbered errors."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(1, "empty input, expected header household_id,timestamp,kw") from None
    if [h.strip() for h in header] != _HEADER:
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


class _RowPath(Exception):
    """The input is outside the columnar reader's plain grammar or breaks a
    rule; the row parser takes the whole source."""


def _open_bytes(source) -> io.BufferedIOBase:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    if isinstance(source, io.StringIO):
        try:
            return io.BytesIO(source.getvalue().encode("utf-8"))
        except UnicodeEncodeError:
            raise _RowPath from None
    return io.BytesIO(source)


def _line_blocks(fh):
    """The stream in blocks of whole lines, about ``_BLOCK_BYTES`` each."""
    tail = b""
    while chunk := fh.read(_BLOCK_BYTES):
        chunk = tail + chunk
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield chunk[:cut]
        tail = chunk[cut:]
    if tail:
        yield tail


def _block_lines(block: bytes) -> np.ndarray:
    """The block's lines as a byte-string array, each with exactly two
    commas and no quote, NUL or bare carriage return."""
    if b'"' in block or b"\0" in block:
        raise _RowPath
    if b"\r" in block:
        if block.count(b"\r") != block.count(b"\r\n"):
            raise _RowPath
        block = block.replace(b"\r\n", b"\n")
    parts = block.split(b"\n")
    if not parts[-1]:
        parts.pop()
    # The array is as wide as the longest line: refuse lines so uneven
    # that it would dwarf the block.
    if len(parts) * max(map(len, parts)) > 4 * len(block):
        raise _RowPath
    lines = np.array(parts)
    if np.any(np.strings.count(lines, b",") != 2):
        raise _RowPath
    return lines


def _each(parse, raws) -> list:
    """``parse`` of each distinct raw field, decoded as UTF-8."""
    try:
        return [parse(raw.decode("utf-8")) for raw in raws]
    except ValueError:  # CsvFormatError and UnicodeDecodeError included
        raise _RowPath from None


def _coded(column: np.ndarray, values_of, dtype) -> np.ndarray:
    """``values_of(distinct values)`` spread back over the column's rows."""
    if column.itemsize <= 8:
        # Up to 8 bytes fit one integer, which sorts several times faster
        # (no value holds a NUL, so the padding keeps values apart).
        keys, inverse = np.unique(column.astype("S8").view(np.uint64), return_inverse=True)
        distinct = keys.view("S8")
    else:
        distinct = np.unique(column, sorted=False)
        distinct.sort()
        inverse = np.searchsorted(distinct, column)
    return np.asarray(values_of(distinct.tolist()), dtype=dtype)[inverse]


def _household(text: str) -> str:
    hid = text.strip()
    if not hid:
        raise ValueError
    return hid


def _load(text: str) -> float:
    kw = float(text)
    if not (math.isfinite(kw) and kw >= 0):
        raise ValueError
    return kw


def _numbering(table: dict[bytes, int]):
    """Codes of distinct values, numbering the values new to ``table``."""
    return lambda distinct: [table.setdefault(v, len(table)) for v in distinct]


def _block_columns(lines: np.ndarray, households: dict, stamps: dict):
    """Household codes, timestamp codes and kW of one block's rows."""
    hid, _, rest = np.strings.partition(lines, b",")
    ts, _, kw = np.strings.partition(rest, b",")
    # kW strings are parsed per block: a table of them could grow with
    # the row count.
    return (
        _coded(hid, _numbering(households), np.int32),
        _coded(ts, _numbering(stamps), np.int32),
        _coded(kw, lambda distinct: _each(_load, distinct), np.float64),
    )


def _parse_columnar(blocks) -> list[ReadingSeries]:
    """The series of a plain, valid source; :class:`_RowPath` otherwise."""
    blocks = map(_block_lines, blocks)
    lines = next(blocks, None)
    if lines is None:
        raise _RowPath
    (header,) = _each(lambda text: [h.strip() for h in text.split(",")], lines[:1])
    if header != _HEADER:
        raise _RowPath
    households: dict[bytes, int] = {}
    stamps: dict[bytes, int] = {}
    columns = [
        _block_columns(lines, households, stamps)
        for lines in chain([lines[1:]], blocks)
        if lines.size
    ]
    if not columns:
        return []
    hid_code, ts_code, kw = (np.concatenate(c) for c in zip(*columns))
    del columns

    names = _each(_household, households)
    times = _each(lambda text: _parse_timestamp(text, 0), stamps)
    ids = sorted(set(names))
    position = {hid: i for i, hid in enumerate(ids)}
    walls = [t.replace(tzinfo=None) for t in times]
    rank_of = {w: r for r, w in enumerate(sorted(set(walls)))}
    offsets: dict[timedelta | None, int] = {}

    # One int64 key orders the rows by household, then wall-clock rank.
    key = np.array([position[n] for n in names], dtype=np.int64)[hid_code]
    key *= len(rank_of)
    key += np.array([rank_of[w] for w in walls], dtype=np.int64)[ts_code]
    order = np.argsort(key, kind="stable")
    key, ts_code, kw = key[order], ts_code[order], kw[order]
    del order
    house = key // len(rank_of)
    offset = np.array(
        [offsets.setdefault(t.utcoffset(), len(offsets)) for t in times], dtype=np.int32
    )[ts_code]
    # Each household keeps one offset, so an equal key is a duplicate.
    same_house = house[1:] == house[:-1]
    if np.any(key[1:] == key[:-1]) or np.any(same_house & (offset[1:] != offset[:-1])):
        raise _RowPath

    bounds = np.flatnonzero(~same_house) + 1
    sorted_times = np.array(times, dtype=object)[ts_code]
    return [
        ReadingSeries(household_id=hid, times=tuple(t.tolist()), loads=loads)
        for hid, t, loads in zip(ids, np.split(sorted_times, bounds), np.split(kw, bounds))
    ]


def _slot_of(ts: datetime) -> int:
    return ts.hour * 4 + ts.minute // SLOT_MINUTES


def _slots(times) -> np.ndarray:
    """Daily slot of each timestamp, derived once per distinct object:
    :func:`parse_readings` shares one ``datetime`` per distinct timestamp."""
    ids = np.fromiter(map(id, times), dtype=np.intp, count=len(times))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return np.array([_slot_of(times[i]) for i in first], dtype=np.uint8)[inverse]


def _slot_medians(series: ReadingSeries, slots: np.ndarray) -> np.ndarray:
    # Loads sorted, then stably by slot: each slot's loads in order, as a
    # lexsort by (slot, load) gives them but several times faster on uint8
    # slots. An odd count takes its middle element as it is and an even
    # count the mean (a + b) / 2 of the two central ones, as np.median does.
    loads = np.asarray(series.loads, dtype=float)
    by_load = np.argsort(loads)
    ordered = loads[by_load[np.argsort(slots[by_load], kind="stable")]]
    counts = np.bincount(slots, minlength=SLOTS_PER_DAY)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise MissingSlotError(
            f"household {series.household_id}: no observations for "
            f"{missing.size} slot(s), first missing slot {missing[0]}"
        )
    starts = np.cumsum(counts) - counts
    medians = ordered[starts + (counts - 1) // 2]
    even = counts % 2 == 0
    medians[even] = (medians[even] + ordered[(starts + counts // 2)[even]]) / 2
    return medians


def median_daily_profile(series: ReadingSeries) -> np.ndarray:
    """Per-slot median over all observed days, in kW.

    Even observation counts take the mean of the two central order
    statistics. Every one of the 96 slots needs at least one observation;
    gaps are an error rather than being imputed.
    """
    return _slot_medians(series, _slots(series.times))


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
    times = list(chain.from_iterable(s.times for s in series))
    bounds = np.cumsum([len(s) for s in series])[:-1]
    profiles = [
        l2_normalize(_slot_medians(s, slots))
        for s, slots in zip(series, np.split(_slots(times), bounds))
    ]
    return ProfileMatrix(
        households=tuple(s.household_id for s in series),
        values=np.array(profiles, dtype=float),
    )


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
        if not 0 <= self.spread < math.inf:
            raise ValueError(f"spread must be finite and nonnegative, got {self.spread!r}")
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
    """Write the profile matrix as CSV, each value as its shortest
    round-trip ``repr``, so :func:`read_profiles_csv` gets back the same
    bits."""
    own = isinstance(target, (str, os.PathLike))
    fh = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_CSV_HEADER)
        for hid, row in zip(matrix.households, matrix.values.tolist()):
            writer.writerow([hid] + [repr(v) for v in row])
    finally:
        if own:
            fh.close()


def read_profiles_csv(source) -> ProfileMatrix:
    """Read a profile CSV written by :func:`write_profiles_csv`.

    The values come back bit for bit as stored; a value that is not finite
    is rejected.
    """
    households = []
    rows = []
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PROFILE_CSV_HEADER:
            raise ValueError("unexpected profile CSV header")
        for row in reader:
            if not row:
                continue
            if len(row) != SLOTS_PER_DAY + 1:
                raise ValueError(f"profile row for {row[0]!r} has {len(row) - 1} slots")
            households.append(row[0])
            rows.append([float(v) for v in row[1:]])
    values = np.array(rows, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("profile contains non-finite entries")
    return ProfileMatrix(households=tuple(households), values=values)
