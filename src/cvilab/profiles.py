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
import stat
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from types import SimpleNamespace
from typing import Iterator, NamedTuple

import numpy as np

from .rng import derive_stream, fork_map

SLOTS_PER_DAY = 96
SLOT_MINUTES = 15

PROFILE_CSV_HEADER = ["household_id"] + [
    f"t{(s * SLOT_MINUTES) // 60:02d}{(s * SLOT_MINUTES) % 60:02d}"
    for s in range(SLOTS_PER_DAY)
]

_HEADER = ["household_id", "timestamp", "kw"]

# Bytes of whole lines a columnar reader worker takes at a time; a block holds ~3.5 bytes
# per byte while it is cut, and leaves three uint16 codes per row. Twice this peaked 2.6 MiB
# higher on an 806,400-row file read in one process; half this ran slower, and no lower.
_BLOCK_BYTES = 1 << 20
_CHUNK = 1 << 14  # rows per gather: numpy copies int32 indices to intp whole


class CsvFormatError(ValueError):
    """Malformed readings or profile CSV; carries the offending 1-based
    line number and the message without it."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):  # the default rebuilds from args: the formatted text alone
        return type(self), (self.line, self.message)


class ZeroProfileError(ValueError):
    """A profile with no energy at all cannot be normalized."""


class MissingSlotError(ValueError):
    """A daily slot has no observations; medians are undefined for it."""


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

    def __len__(self) -> int:
        return self.values.shape[0]


def _text_lines(source):
    """The lines of a path, bytes or a stream, read whole, each ending at
    CR, LF or CR LF as in a file opened with ``newline=""``. The line of the
    first byte that is not UTF-8 raises once reached, so an error the
    reader finds on an earlier line wins."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            source = fh.read()
    data = source if isinstance(source, bytes) else source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = io.StringIO(data[: exc.start].decode("utf-8"), newline="")
            whole = [line for line in head if line.endswith(("\r", "\n"))]
            yield from whole
            raise CsvFormatError(len(whole) + 1, "not UTF-8") from None
    yield from io.StringIO(data, newline="")


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

    Each source is a path to a regular file (else a ValueError) or bytes
    (else a TypeError), read as a file opened with ``newline=""`` in blocks
    of whole lines, cut in forked workers; each distinct household, timestamp
    and kW string is parsed once. Input outside the plain grammar (quotes,
    blank lines, a wrong comma count, non-UTF-8 bytes), with no rows, or
    breaking a rule goes to the row parser, which raises the line-numbered
    error. All sources are read before any median. The households come out
    in sorted id order; the first with an empty slot or no energy raises,
    and one in two sources gives two rows, which :class:`ProfileMatrix` rejects.
    """
    files = [_read(source) for source in sources]
    if not files:
        raise ValueError("no readings source given")
    ids = sorted((hid, n, i) for n, f in enumerate(files) for i, hid in enumerate(f.households))
    group_of = [np.empty(len(f.households), dtype=np.int32) for f in files]
    for group, (_, n, i) in enumerate(ids):
        group_of[n][i] = group
    loads, ranks = _ranked([f.loads for f in files])
    sizes = (len(ids), SLOTS_PER_DAY, loads.size)
    keys = [_sort_keys([(group, f.house), (_slots(f.times), f.stamp), (rank, f.load)], sizes)
            for group, f, rank in zip(group_of, files, ranks)]
    del files  # the medians need the keys only
    keys = np.concatenate(keys)
    households = [hid for hid, _, _ in ids]
    profiles = [l2_normalize(m) for m in _medians(households, keys, loads)]
    return ProfileMatrix(households=tuple(households), values=np.array(profiles, dtype=float))


def _parse_rows(lines) -> _Readings:
    """The row-by-row parser, one stamp per row: the reference for the
    columnar reader, and the one place that words the line-numbered errors."""
    reader = csv.reader(lines)
    if (header := next(reader, None)) is None:
        raise CsvFormatError(1, "empty input, expected header household_id,timestamp,kw")
    if [h.strip() for h in header] != _HEADER:
        raise CsvFormatError(1, f"unexpected header {header!r}")

    offsets: dict[str, timedelta | None] = {}
    seen: set[tuple[str, datetime]] = set()
    hids, times, kws = [], [], []
    for row in reader:
        line = reader.line_num  # where the row ends
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
        if offset != offsets.setdefault(hid, offset):
            raise CsvFormatError(line, f"mixed UTC offsets for {hid}: {_offset_name(offset)} "
                                 f"here, {_offset_name(offsets[hid])} on its first row")
        if (hid, ts) in seen:
            raise CsvFormatError(line, f"duplicate reading for {hid} at {ts.isoformat()}")
        seen.add((hid, ts))
        hids.append(hid)
        times.append(ts)
        kws.append(kw)
    if not offsets:
        raise CsvFormatError(2, "no readings after the header")

    ids = sorted(offsets)
    code = {hid: i for i, hid in enumerate(ids)}
    house = np.array([code[hid] for hid in hids], dtype=np.int32)
    loads, (load,) = _ranked([np.array(kws, dtype=float)])
    return _Readings(ids, house, np.arange(len(times), dtype=np.int32), times, load, loads)


class _RowPath(Exception):
    """The input is outside the columnar reader's plain grammar or breaks a
    rule; the row parser takes the whole source."""


class _Readings(NamedTuple):
    """Rows as int32 codes: ``house`` indexes ``households``, ``stamp`` the
    parsed ``times`` and ``load`` the distinct kW values in ``loads``, ordered
    by their int64 bits (as by value, with ``-0.0`` just below ``0.0``)."""

    households: list[str]
    house: np.ndarray
    stamp: np.ndarray
    times: list[datetime]
    load: np.ndarray
    loads: np.ndarray


def _open(source):
    return open(source, "rb") if isinstance(source, (str, os.PathLike)) else io.BytesIO(source)


def _read(source) -> _Readings:
    """One path or bytes, through the columnar reader or else the row parser. A
    path must be a regular file: the blocks are read by offset, and a FIFO blocks."""
    path = isinstance(source, (str, os.PathLike))
    if not path and not isinstance(source, bytes):
        raise TypeError(f"readings source must be a path or bytes, not {type(source).__name__}")
    if path and not stat.S_ISREG(os.stat(source).st_mode):  # stat never blocks
        raise ValueError(f"readings input is not a regular file: {source}")
    try:
        return _read_columns(source)
    except _RowPath:
        pass
    return _parse_rows(_text_lines(source))


def _block_fields(block: bytearray) -> list[np.ndarray]:
    """The household, timestamp and kW fields of a block's lines, as byte
    strings; each line must hold exactly two commas and no quote, NUL or
    bare carriage return."""
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    if b'"' in block or b"\0" in block or b"\r" in block:  # the last one a bare CR
        raise _RowPath
    if not block.endswith(b"\n"):
        block += b"\n"
    # One scan per byte value: each makes a mask as long as the block.
    ends, commas = (np.flatnonzero(np.frombuffer(block, np.uint8) == ord(c)) for c in "\n,")
    first, second = commas[0::2], commas[1::2]
    if commas.size != 2 * ends.size or np.any(second > ends) or np.any(first[1:] < ends[:-1]):
        raise _RowPath
    starts = np.concatenate(([0], ends[:-1] + 1))
    # Each field array is as wide as its longest field: refuse lines so
    # uneven that the arrays would dwarf the block.
    longest = int((ends - starts).max())
    if ends.size * longest > 4 * len(block):
        raise _RowPath
    # Padded in place, so that a window as wide as any line fits after every start.
    block += bytes(longest)
    buf = np.frombuffer(block, np.uint8)
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


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column's distinct values, and each row's index among them: uint16
    if fewer than 65,536, else int32."""
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
    return column[first], code.astype(np.uint16 if first.size < 1 << 16 else np.int32)


def _merged(tables: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct strings of ``tables``, and each table's indices into them."""
    distinct, inverse = _distinct(np.concatenate(tables))
    return distinct, np.split(inverse, np.cumsum([t.size for t in tables[:-1]]))


def _ranked(tables: list[np.ndarray]) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """One table of the distinct values of ``tables``, ordered by their int64
    bits, and each table's values as int32 indices into it, made lazily."""
    bits = np.unique(np.concatenate(tables).view(np.int64))
    return bits.view(np.float64), (np.searchsorted(bits, t.view(np.int64)).astype(np.int32)
                                   for t in tables)


def _sort_keys(digits, sizes) -> np.ndarray:
    """One key per row: its digits ``table[codes]`` (``codes`` for a None table)
    in base ``sizes``, the first most significant; int32 if all fit, else int64."""
    keys = np.zeros(len(digits[0][1]), np.int32 if math.prod(sizes) < 2**31 else np.int64)
    for i in range(0, keys.size, _CHUNK):
        key = keys[i : i + _CHUNK]
        for (table, codes), size in zip(digits, sizes):
            key *= size
            key += codes[i : i + _CHUNK] if table is None else table[codes[i : i + _CHUNK]]
    return keys


def _block_table(source, span: tuple[int, int]) -> list[np.ndarray]:
    """The lines in a byte span, read by offset: their distinct household strings,
    timestamp strings and kW values, each followed by the rows' codes into it."""
    with _open(source) as fh:
        fh.seek(span[0])
        fields = _block_fields(bytearray(fh.read(span[1] - span[0])))
    (hids, house), (stamps, stamp), (kws, load) = map(_distinct, fields)
    # kW strings are parsed per block: a table of them could grow with the row count.
    return [hids, house, stamps, stamp, np.array(_each(float, kws)), load]


def _read_columns(source) -> _Readings:
    """The rows of a plain, valid path or bytes; :class:`_RowPath` otherwise. The
    blocks are cut and coded in :func:`fork_map` workers, and merged a column at a time."""
    with _open(source) as fh:
        if _each(str.strip, [f[0] for f in _block_fields(bytearray(fh.readline()))]) != _HEADER:
            raise _RowPath
        cuts, size = [fh.tell()], fh.seek(0, os.SEEK_END)
        while cuts[-1] < size:  # a block: _BLOCK_BYTES and the rest of the line
            fh.seek(cuts[-1] + _BLOCK_BYTES)
            fh.readline()
            cuts.append(min(fh.tell(), size))
    tables = fork_map(partial(_block_table, source), zip(cuts, cuts[1:]))
    if not tables:  # no rows
        raise _RowPath
    (hids, house_of), (stamps, stamp_of) = (_merged([t[i] for t in tables]) for i in (0, 2))
    loads, load_of = _ranked([t[4] for t in tables])
    names = _each(str.strip, hids)
    times = _each(lambda text: _parse_timestamp(text, 0), stamps)
    if "" in names or not np.all(np.isfinite(loads) & (loads >= 0)):
        raise _RowPath
    ids = sorted(set(names))
    house_id, rows = np.searchsorted(ids, names).astype(np.int32), sum(t[1].size for t in tables)

    def merge(i, maps):  # column i of every block through its map, each block's codes dropped
        joined, at = np.empty(rows, np.int32), 0
        for table, mapping in zip(tables, maps):
            codes, table[i] = table[i], None
            joined[at : at + codes.size] = mapping[codes]
            at += codes.size
        return joined

    house, stamp = merge(1, (house_id[m] for m in house_of)), merge(3, stamp_of)
    load = merge(5, load_of)
    del tables  # the distinct strings are parsed: only the codes stay

    def pairs(of):  # distinct (household, ``of`` of the timestamp) pairs of the rows
        table = {}
        column = np.array([table.setdefault(of(t), len(table)) for t in times], dtype=np.int32)
        keys = _sort_keys([(None, house), (column, stamp)], (len(ids), len(table)))
        keys.sort()
        steps = (np.diff(keys[i : i + _CHUNK + 1]) for i in range(0, keys.size, _CHUNK))
        return 1 + sum(map(np.count_nonzero, steps))

    # Each household keeps one offset, so an equal wall clock is a duplicate.
    if pairs(lambda t: t.replace(tzinfo=None)) < house.size or len(
            {t.utcoffset() for t in times}) > 1 and pairs(datetime.utcoffset) > len(ids):
        raise _RowPath
    return _Readings(ids, house, stamp, times, load, loads)


def _slots(times) -> np.ndarray:
    """The daily slot of each timestamp."""
    return np.array([t.hour * 4 + t.minute // SLOT_MINUTES for t in times], dtype=np.uint8)


def _medians(households, keys, loads):
    """The 96 slot medians of each household in turn; lazy, so that the
    first household's error wins, whatever its kind.

    ``keys`` holds a key per row, ``(group * 96 + slot) * K + load`` over the
    ``K`` distinct ``loads`` (int32 up to some 22 households with 1e6 values),
    sorted here in place; only each slot's central one or two keys are read
    back, for its middle load or the mean (a + b) / 2 of two, as np.median."""
    keys.sort()
    bounds = np.arange(len(households) * SLOTS_PER_DAY + 1, dtype=keys.dtype) * loads.size
    starts = np.searchsorted(keys, bounds)  # bounds of the keys' type: no copy of the keys
    counts = np.diff(starts)
    # An empty slot reads a neighbour; its household raises before the value is used.
    low, high = (loads[keys.take(starts[:-1] + i, mode="clip") % loads.size]
                 for i in ((counts - 1) // 2, counts // 2))
    with np.errstate(over="ignore"):  # a mean past the float range is inf
        medians = np.where(counts % 2, low, (low + high) / 2)
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


def l2_normalize(profile: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm."""
    vec = np.asarray(profile, dtype=float)
    if not np.all(np.isfinite(vec)):
        raise ValueError("profile contains non-finite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm in (0.0, math.inf) and vec.any():
        # The sum of squares under- or overflowed: scale by the largest
        # entry first, which leaves it within the float range.
        vec = vec / np.abs(vec).max()
        norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroProfileError("all-zero profile cannot be normalized")
    return vec / norm


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a seeded synthetic household population.

    Each of ``clusters`` clusters gets ``cluster_size`` profiles built as
    its :func:`synthetic_templates` shape plus isotropic Gaussian noise of
    scale ``spread``, clipped at zero and unit-normalized. The ``outliers``
    are single extra profiles; in ``"far"`` mode they sit at >= 5x the
    maximum inter-template distance from every template (measured before
    normalization, realized as spikes on otherwise-quiet slots so they stay
    remote after normalization too), in ``"near"`` mode they sit at the
    template centroid.
    """

    clusters: int = 3
    cluster_size: int = 30
    spread: float = 0.02
    outliers: int = 0
    outlier_mode: str = "far"
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1:
            raise ValueError("need at least one template")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be positive")
        if not 0 <= self.spread < math.inf:
            raise ValueError(f"spread must be finite and nonnegative, got {self.spread!r}")
        if self.outliers < 0:
            raise ValueError("outliers must be nonnegative")
        if self.outlier_mode not in ("far", "near"):
            raise ValueError("outlier_mode must be 'far' or 'near'")


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
    gaps = np.linalg.norm(templates[:, None, :] - templates[None, :, :], axis=2)
    max_norm = float(np.linalg.norm(templates, axis=1).max())
    base = float(gaps.max())  # 0 for a single template
    if base == 0.0:
        base = max(max_norm, 1.0)
    quiet = np.argsort(templates.sum(axis=0), kind="stable")
    outliers = np.zeros((count, SLOTS_PER_DAY))
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
    rng = derive_stream(spec.seed, 0)
    templates = synthetic_templates(spec.clusters)
    rows = []
    for j, template in enumerate(templates):
        noise = rng.normal(0.0, spec.spread, size=(spec.cluster_size, SLOTS_PER_DAY))
        raw = np.clip(template + noise, 0.0, None)
        for r in range(spec.cluster_size):
            if not raw[r].any():
                raise ZeroProfileError(
                    f"cluster {j} member {r}: noise clipping produced an all-zero profile"
                )
            rows.append(l2_normalize(raw[r]))
    if spec.outlier_mode == "far":
        outliers = _far_outliers(templates, spec.outliers)
    else:
        outliers = np.broadcast_to(templates.mean(axis=0), (spec.outliers, SLOTS_PER_DAY))
    rows.extend(map(l2_normalize, outliers))
    sizes = [spec.cluster_size] * spec.clusters + [1] * spec.outliers
    labels = np.arange(len(sizes)).repeat(sizes)

    width = max(3, len(str(len(rows) - 1)))
    households = tuple(f"synth-{i:0{width}d}" for i in range(len(rows)))
    return ProfileMatrix(households=households, values=np.array(rows, dtype=float)), labels


def write_profiles_csv(matrix: ProfileMatrix, stream) -> None:
    """Write the profile matrix as CSV to a text stream (opened with
    ``newline=""`` if it is a file), each value as its shortest round-trip
    ``repr``, so :func:`read_profiles_csv` gets back the same bits."""
    csv.writer(stream).writerow(PROFILE_CSV_HEADER)
    heads = []  # "<id>,\r\n" as csv writes it: an id quoted where the row would quote it
    ids = csv.writer(SimpleNamespace(write=heads.append))
    for hid, row in zip(matrix.households, matrix.values):  # row by row: nothing joined whole
        ids.writerow([hid, ""])
        stream.write(heads.pop()[:-2] + repr(row.tolist())[1:-1].replace(", ", ",") + "\r\n")


def read_profiles_csv(source) -> ProfileMatrix:
    """Read a profile CSV written by :func:`write_profiles_csv`.

    The values come back bit for bit as stored. A wrong header or field
    count, an empty or repeated household id, a value that is not a finite
    number or a file with no profiles raises :class:`CsvFormatError` with
    the line.
    """
    profiles: dict[str, list[float]] = {}
    reader = csv.reader(_text_lines(source))
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
            values = [float(v) for v in row[1:]]
        except ValueError as exc:  # "could not convert string to float: 'x'"
            raise CsvFormatError(reader.line_num, str(exc)) from None
        if row[0] in profiles:
            raise CsvFormatError(reader.line_num, f"duplicate household_id {row[0]!r}")
        if not all(map(math.isfinite, values)):
            raise CsvFormatError(reader.line_num, "profile contains non-finite entries")
        profiles[row[0]] = values
    if not profiles:
        raise CsvFormatError(2, "no profiles after the header")
    return ProfileMatrix(households=tuple(profiles), values=np.array(list(profiles.values())))
