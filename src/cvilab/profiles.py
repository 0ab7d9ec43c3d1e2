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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain
from typing import NamedTuple

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
# two int32 codes and the index of its kW value outlive a block.
_BLOCK_BYTES = 1 << 22


class CsvFormatError(ValueError):
    """Malformed readings or profile CSV; carries the offending 1-based
    line number."""

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
        # Lines end at \r, \n or \r\n, as in a file opened with newline="".
        source = io.StringIO(data.decode("utf-8") if isinstance(data, bytes) else data, newline="")
    yield source


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


def ingest_readings(sources) -> ProfileMatrix:
    """The unit-norm daily profiles of the households in readings CSVs.

    Expected layout: header ``household_id,timestamp,kw``, ISO-8601
    timestamps on 15-minute boundaries, nonnegative finite kW with a dot
    decimal separator, rows in any order. Within a source, every row of a
    household carries the UTC offset of its first row (naive counts as one
    offset), so its samples slot and de-duplicate by one wall clock.

    Each source is a path, bytes or a stream (read whole first), read as a
    file opened with ``newline=""`` in blocks of whole lines; each distinct
    household, timestamp and kW string is parsed once. Input outside the plain grammar
    (quotes, blank lines, a wrong comma count, bytes that are not UTF-8), with no
    rows, or breaking a rule goes to the row parser, which raises the line-numbered
    error. All sources are read before any median is taken. The households
    come out in sorted id order; the first one with an empty slot or no
    energy raises, and one in two sources gives two rows, which
    :class:`ProfileMatrix` rejects.
    """
    files = [_read(source) for source in sources]
    ids = sorted((hid, n, i) for n, f in enumerate(files) for i, hid in enumerate(f.households))
    group_of = [np.empty(len(f.households), dtype=np.intp) for f in files]
    for group, (_, n, i) in enumerate(ids):
        group_of[n][i] = group
    house = np.concatenate([group[f.house] for group, f in zip(group_of, files)])
    slot = np.concatenate([_slots(f.times)[f.stamp] for f in files])
    loads, load = _ranked([f.loads for f in files], [f.load for f in files])
    return _profile_matrix([hid for hid, _, _ in ids], house, slot, load, loads)


def parse_readings(csv_source) -> list[ReadingSeries]:
    """One time-sorted series per household of a readings CSV, read and
    checked as :func:`ingest_readings` reads each source. The series share
    one ``datetime`` per distinct timestamp string."""
    readings = _read(csv_source)
    order = np.argsort(_clock_keys(readings))
    stamps = readings.stamp[order].tolist()
    loads = readings.loads[readings.load[order]]
    ends = np.cumsum(np.bincount(readings.house, minlength=len(readings.households)))
    return [
        ReadingSeries(hid, tuple(readings.times[i] for i in stamps[start:end]), loads[start:end])
        for hid, start, end in zip(readings.households, chain([0], ends), ends)
    ]


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
        samples = per_house.setdefault(hid, {})
        if offset != offsets.setdefault(hid, offset):
            raise CsvFormatError(
                line,
                f"mixed UTC offsets for {hid}: {_offset_name(offset)} here, "
                f"{_offset_name(offsets[hid])} on its first row",
            )
        if ts in samples:
            raise CsvFormatError(line, f"duplicate reading for {hid} at {ts.isoformat()}")
        samples[ts] = kw
    if not per_house:
        raise CsvFormatError(2, "no readings after the header")

    series = []
    for hid in sorted(per_house):
        times, loads = zip(*sorted(per_house[hid].items()))
        series.append(ReadingSeries(hid, times, np.array(loads, dtype=float)))
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


class _Readings(NamedTuple):
    """Rows as codes: ``house`` indexes ``households``, ``stamp`` the parsed
    ``times`` and ``load`` the distinct kW values in ``loads``, ordered by
    their int64 bits (as by value, with ``-0.0`` just below ``0.0``)."""

    households: list[str]
    house: np.ndarray
    stamp: np.ndarray
    times: list[datetime]
    load: np.ndarray
    loads: np.ndarray


def _read(source) -> _Readings:
    """One source, through the columnar reader or else the row parser."""
    if not isinstance(source, (str, os.PathLike, bytes)):
        data = source.read()
        source = data if isinstance(data, bytes) else io.StringIO(data, newline="")
    try:
        with _open_bytes(source) as fh:
            return _read_columns(_line_blocks(fh))
    except _RowPath:
        pass
    with _open_text(source) as fh:
        return _from_series(_parse_rows(fh))


def _from_series(series: list[ReadingSeries]) -> _Readings:
    """Series as codes, in the order given, one stamp per reading."""
    times = list(chain.from_iterable(s.times for s in series))
    kw = np.concatenate([np.empty(0)] + [np.asarray(s.loads, dtype=float) for s in series])
    loads, load = _ranked([kw], [np.arange(kw.size)])
    house = np.repeat(np.arange(len(series)), [len(s) for s in series])
    ids = [s.household_id for s in series]
    return _Readings(ids, house, np.arange(len(times)), times, load, loads)


def _block_fields(block: bytes) -> list[np.ndarray]:
    """The household, timestamp and kW fields of a block's lines, as byte
    strings; each line must hold exactly two commas and no quote, NUL or
    bare carriage return."""
    if b'"' in block or b"\0" in block:
        raise _RowPath
    if b"\r" in block:
        if block.count(b"\r") != block.count(b"\r\n"):
            raise _RowPath
        block = block.replace(b"\r\n", b"\n")
    if not block.endswith(b"\n"):
        block += b"\n"
    buf = np.frombuffer(block, np.uint8)
    marks = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if marks.size % 3 or np.any(buf[marks].reshape(-1, 3) != np.frombuffer(b",,\n", np.uint8)):
        raise _RowPath
    first, second, ends = marks.reshape(-1, 3).T
    starts = np.concatenate(([0], ends[:-1] + 1))
    # Each field array is as wide as its longest field: refuse lines so
    # uneven that the arrays would dwarf the block.
    longest = int((ends - starts).max())
    if ends.size * longest > 4 * len(block):
        raise _RowPath
    # Padded so that a window as wide as any line fits after every start.
    buf = np.frombuffer(block + bytes(longest), np.uint8)
    fields = []
    for start, stop in ((starts, first), (first + 1, second), (second + 1, ends)):
        # A window as wide as the widest field from each start; the bytes
        # past each field are zeroed one byte column at a time.
        size = stop - start
        width = max(int(size.max()), 1)
        field = np.ndarray((buf.size - width + 1,), f"S{width}", buf, strides=(1,))[start]
        for j in range(int(size.min()), width):
            field.view(np.uint8).reshape(-1, width)[size <= j, j] = 0
        fields.append(field)
    return fields


def _each(parse, raws) -> list:
    """``parse`` of each distinct raw field, decoded as UTF-8."""
    try:
        return [parse(raw.decode("utf-8")) for raw in raws]
    except ValueError:  # CsvFormatError and UnicodeDecodeError included
        raise _RowPath from None


def _distinct(column: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The column's distinct values, and each row's index among them."""
    # Coded 8 bytes at a time: integers sort several times faster than
    # byte strings (no value holds a NUL, so the padding keeps values apart).
    width = -(-column.itemsize // 8)
    words = column.astype(f"S{8 * width}").view(np.uint64).reshape(-1, width)
    code = np.zeros(column.size, dtype=np.intp)
    for word in words.T:
        if np.any(word != word[:1]):  # a word all rows share adds nothing
            keys, inverse = np.unique(word, return_inverse=True)
            if code.any():
                inverse = np.unique(code * keys.size + inverse, return_inverse=True)[1]
            code = inverse
    first = np.empty(code.max(initial=-1) + 1, dtype=np.intp)
    first[code] = np.arange(column.size)
    return column[first].tolist(), code


def _coded(column: np.ndarray, table: dict[bytes, int]) -> np.ndarray:
    """Codes of the column's values, numbering the values new to ``table``."""
    distinct, inverse = _distinct(column)
    return np.array([table.setdefault(v, len(table)) for v in distinct], dtype=np.int32)[inverse]


def _ranked(tables: list[np.ndarray], codes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One table of the distinct values of ``tables``, ordered by their
    int64 bits, and ``codes`` (indices into their own tables) into it."""
    bits = np.unique(np.concatenate(tables).view(np.int64))
    ranks = [np.searchsorted(bits, t.view(np.int64))[c] for t, c in zip(tables, codes)]
    return bits.view(np.float64), np.concatenate(ranks)


def _read_columns(blocks) -> _Readings:
    """The rows of a plain, valid source; :class:`_RowPath` otherwise."""
    blocks = map(_block_fields, blocks)
    fields = next(blocks, None)
    if fields is None or _each(str.strip, [f[0] for f in fields]) != _HEADER:
        raise _RowPath
    households: dict[bytes, int] = {}
    stamps: dict[bytes, int] = {}
    hid_code, ts_code, tables, codes = zip(*(
        # kW strings are parsed per block: a table of them could grow
        # with the row count.
        (_coded(hid, households), _coded(ts, stamps), *_distinct(kw))
        for hid, ts, kw in chain([[f[1:] for f in fields]], blocks)
    ))
    loads, load = _ranked([np.array(_each(float, t), dtype=float) for t in tables], codes)
    names = _each(str.strip, households)
    times = _each(lambda text: _parse_timestamp(text, 0), stamps)
    if not names or "" in names or not np.all(np.isfinite(loads) & (loads >= 0)):
        raise _RowPath
    ids = sorted(set(names))
    house = np.searchsorted(ids, names)[np.concatenate(hid_code)]
    readings = _Readings(ids, house, np.concatenate(ts_code), times, load, loads)
    # Each household keeps one offset, so an equal wall clock is a duplicate.
    keys = np.sort(_clock_keys(readings))
    offsets = {offset: i for i, offset in enumerate({t.utcoffset() for t in times})}
    pairs = house * len(offsets) + np.array([offsets[t.utcoffset()] for t in times])[readings.stamp]
    if np.any(keys[1:] == keys[:-1]) or (len(offsets) > 1 and np.unique(pairs).size != len(ids)):
        raise _RowPath
    return readings


def _clock_keys(readings: _Readings) -> np.ndarray:
    """One int64 per row, ordering the rows by household, then wall clock."""
    walls = [t.replace(tzinfo=None) for t in readings.times]
    rank_of = {w: r for r, w in enumerate(sorted(set(walls)))}
    keys = readings.house.astype(np.int64) * len(rank_of)
    keys += np.array([rank_of[w] for w in walls], dtype=np.int64)[readings.stamp]
    return keys


def _slots(times) -> np.ndarray:
    """The daily slot of each timestamp."""
    return np.array([t.hour * 4 + t.minute // SLOT_MINUTES for t in times], dtype=np.uint8)


def _medians(households, group, slot, load, loads):
    """The 96 slot medians of each household in turn; lazy, so that the
    first household's error wins, whatever its kind.

    One sort of an int64 key per row, ``(group * 96 + slot) * K + load``
    over the ``K`` distinct values (below 2**63 up to some 3e8 rows), puts
    every slot's loads in order. An odd count takes its middle element as
    it is, an even count the mean (a + b) / 2 of the central two, as
    np.median does."""
    cell = group * SLOTS_PER_DAY + slot
    counts = np.bincount(cell, minlength=len(households) * SLOTS_PER_DAY)
    keys = np.sort(cell * loads.size + load)
    # An empty slot reads a neighbour or the nan at the end; its household
    # raises before the value is used.
    ordered = np.append(loads[keys % max(loads.size, 1)], np.nan)
    starts = np.cumsum(counts) - counts
    medians = ordered[starts + (counts - 1) // 2]
    even = counts % 2 == 0
    with np.errstate(over="ignore"):  # a mean past the float range is inf
        medians[even] = (medians[even] + ordered[(starts + counts // 2)[even]]) / 2
    for hid, median, count in zip(
        households, medians.reshape(-1, SLOTS_PER_DAY), counts.reshape(-1, SLOTS_PER_DAY)
    ):
        missing = np.flatnonzero(count == 0)
        if missing.size:
            raise MissingSlotError(
                f"household {hid}: no observations for "
                f"{missing.size} slot(s), first missing slot {missing[0]}"
            )
        yield median


def _profile_matrix(households, group, slot, load, loads) -> ProfileMatrix:
    profiles = [l2_normalize(m) for m in _medians(households, group, slot, load, loads)]
    return ProfileMatrix(households=tuple(households), values=np.array(profiles, dtype=float))


def median_daily_profile(series: ReadingSeries) -> np.ndarray:
    """Per-slot median over all observed days, in kW.

    Even observation counts take the mean of the two central order
    statistics. Every one of the 96 slots needs at least one observation;
    gaps are an error rather than being imputed.
    """
    r = _from_series([series])
    (profile,) = _medians(r.households, r.house, _slots(r.times), r.load, r.loads)
    return profile


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
    r = _from_series(series)
    return _profile_matrix(r.households, r.house, _slots(r.times), r.load, r.loads)


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
    with open(target, "w", encoding="utf-8", newline="") if own else nullcontext(target) as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_CSV_HEADER)
        for hid, row in zip(matrix.households, matrix.values.tolist()):
            writer.writerow([hid] + [repr(v) for v in row])


def read_profiles_csv(source) -> ProfileMatrix:
    """Read a profile CSV written by :func:`write_profiles_csv`.

    The values come back bit for bit as stored. A wrong header or field
    count, an empty or repeated household id, a value that is not a finite
    number or a file with no profiles raises :class:`CsvFormatError` with
    the line.
    """
    households = []
    rows = []
    lines = []  # where each row ends, for the checks made after reading
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        if next(reader, None) != PROFILE_CSV_HEADER:
            raise CsvFormatError(1, "unexpected profile CSV header")
        for row in reader:
            if not row:
                continue
            if len(row) != SLOTS_PER_DAY + 1:
                raise CsvFormatError(
                    reader.line_num, f"profile row for {row[0]!r} has {len(row) - 1} slots"
                )
            if not row[0]:
                raise CsvFormatError(reader.line_num, "empty household_id")
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:  # "could not convert string to float: 'x'"
                raise CsvFormatError(reader.line_num, str(exc)) from None
            households.append(row[0])
            lines.append(reader.line_num)
    if not rows:
        raise CsvFormatError(2, "no profiles after the header")
    if len(set(households)) != len(households):
        dup = next(i for i, hid in enumerate(households) if households.index(hid) < i)
        raise CsvFormatError(lines[dup], f"duplicate household_id {households[dup]!r}")
    values = np.array(rows, dtype=float)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise CsvFormatError(lines[int(bad.argmax())], "profile contains non-finite entries")
    return ProfileMatrix(households=tuple(households), values=values)
