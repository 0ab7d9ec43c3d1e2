"""Reading ingestion, median profiles, normalization, synthesis."""

import gc
import io
import tracemalloc
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cvilab import (
    CsvFormatError,
    FcmConfig,
    MissingSlotError,
    ProfileMatrix,
    SynthSpec,
    ZeroProfileError,
    fit_fcm,
    fit_pca,
    generate_synthetic,
    ingest_readings,
    l2_normalize,
    project,
    read_profiles_csv,
    synthetic_templates,
    write_profiles_csv,
)
from cvilab import profiles
from cvilab.profiles import PROFILE_CSV_HEADER, SLOTS_PER_DAY


# Timestamp suffix -> UTC offset; "" is naive, Z and +00:00 are one offset.
OFFSET_OF = {
    "": None,
    "Z": timedelta(0),
    "+00:00": timedelta(0),
    "+01:00": timedelta(hours=1),
    "-05:00": timedelta(hours=-5),
    "+05:30": timedelta(hours=5, minutes=30),
}


def csv_bytes(rows, header="household_id,timestamp,kw"):
    return ("\n".join([header] + rows) + "\n").encode()


def full_day_rows(hid, day, values):
    base = datetime.fromisoformat(day)
    return [
        f"{hid},{(base + timedelta(minutes=15 * s)).isoformat()},{values[s]}"
        for s in range(SLOTS_PER_DAY)
    ]


class TestParseReadings:
    def test_two_rows_one_series(self):
        data = csv_bytes(
            ["A,2024-01-01T00:00:00,1.5", "A,2024-01-01T00:15:00,2.0"]
        )
        assert read_rows(data) == [
            ("A", "2024-01-01T00:00:00", bits(1.5)),
            ("A", "2024-01-01T00:15:00", bits(2.0)),
        ]

    def test_households_in_sorted_order(self):
        data = csv_bytes(
            ["b,2024-01-01T00:00:00,1", "a,2024-01-01T00:00:00,1"]
        )
        assert profiles._read(data).households == ["a", "b"]

    def test_negative_kw_names_line(self):
        data = csv_bytes(
            ["A,2024-01-01T00:00:00,1.0", "A,2024-01-01T00:15:00,-1.0"]
        )
        with pytest.raises(CsvFormatError, match="line 3") as err:
            ingest_readings([data])
        assert err.value.line == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_kw_rejected(self, bad):
        data = csv_bytes([f"A,2024-01-01T00:00:00,{bad}"])
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_readings([data])

    def test_unparsable_kw_rejected(self):
        data = csv_bytes(["A,2024-01-01T00:00:00,1;5"])
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_readings([data])

    def test_bad_timestamp_rejected(self):
        data = csv_bytes(["A,not-a-time,1.0"])
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_readings([data])

    def test_off_grid_timestamp_rejected(self):
        data = csv_bytes(["A,2024-01-01T00:07:00,1.0"])
        with pytest.raises(CsvFormatError, match="15-minute"):
            ingest_readings([data])

    def test_duplicate_reading_rejected(self):
        data = csv_bytes(
            ["A,2024-01-01T00:00:00,1.0", "A,2024-01-01T00:00:00,2.0"]
        )
        with pytest.raises(CsvFormatError, match="duplicate"):
            ingest_readings([data])

    def test_wrong_field_count_rejected(self):
        data = csv_bytes(["A,2024-01-01T00:00:00"])
        with pytest.raises(CsvFormatError, match="3 fields"):
            ingest_readings([data])

    def test_bad_header_rejected(self):
        data = csv_bytes([], header="house,when,load")
        with pytest.raises(CsvFormatError) as err:
            ingest_readings([data])
        assert err.value.line == 1

    def test_empty_input_rejected(self):
        with pytest.raises(CsvFormatError) as err:
            ingest_readings([b""])
        assert err.value.line == 1

    @pytest.mark.parametrize("data", [
        b"household_id,timestamp,kw",
        b"household_id,timestamp,kw\n",
        b"household_id,timestamp,kw\r\n\r\n",  # blank lines: the row parser's path
    ])
    def test_header_without_rows_rejected(self, data):
        with pytest.raises(CsvFormatError) as err:
            ingest_readings([data])
        assert err.value.line == 2
        assert str(err.value) == "line 2: no readings after the header"

    def test_no_source_rejected(self):
        with pytest.raises(ValueError, match="no readings source given"):
            ingest_readings([])

    @pytest.mark.parametrize("source, kind", [
        (io.BytesIO(b"household_id,timestamp,kw\n"), "BytesIO"),
        (bytearray(b"household_id,timestamp,kw\n"), "bytearray"),
        (memoryview(b"household_id,timestamp,kw\n"), "memoryview"),
        (7, "int"),
    ], ids=["BytesIO", "bytearray", "memoryview", "int"])
    def test_source_of_another_kind_rejected(self, source, kind):
        with pytest.raises(TypeError) as err:
            ingest_readings([source])
        assert str(err.value) == f"readings source must be a path or bytes, not {kind}"

    def test_error_names_the_physical_line(self):
        # The quoted household id spans lines 2 and 3.
        data = b'household_id,timestamp,kw\n"H\n1",2024-01-01T00:00:00,1.0\nH2,notatime,1.0\n'
        with pytest.raises(CsvFormatError, match="line 4: bad ISO-8601") as err:
            ingest_readings([data])
        assert err.value.line == 4

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        rows = ["A,2024-01-01T00:00:00,1.0", "A,2024-01-01T00:15:00,2.0", "B,?,1.0"]
        data = csv_bytes(rows).replace(b",2.0", b",\xff2.0")
        path = tmp_path / "readings.csv"
        path.write_bytes(data)
        for source in (path, data):
            with pytest.raises(CsvFormatError) as err:
                ingest_readings([source])
            assert (err.value.line, str(err.value)) == (3, "line 3: not UTF-8")
        # A rule broken on an earlier line is reported first.
        with pytest.raises(CsvFormatError, match="line 2: negative kW"):
            ingest_readings([data.replace(b",1.0\n", b",-1.0\n", 1)])

    def test_zulu_timestamps_accepted(self):
        data = csv_bytes(["A,2024-01-01T00:00:00Z,1.0"])
        assert read_rows(data) == [("A", "2024-01-01T00:00:00+00:00", bits(1.0))]

    def test_naive_after_zoned_names_line(self):
        data = csv_bytes(
            ["A,2024-01-01T00:00:00Z,1.0", "A,2024-01-01T00:15:00,1.0"]
        )
        with pytest.raises(CsvFormatError, match="mixed UTC offsets") as err:
            ingest_readings([data])
        assert err.value.line == 3

    def test_zoned_after_naive_names_line(self):
        data = csv_bytes(
            [
                "A,2024-01-01T00:00:00,1.0",
                "B,2024-01-01T00:00:00+02:00,1.0",
                "A,2024-01-01T00:15:00+01:00,1.0",
            ]
        )
        with pytest.raises(CsvFormatError, match="naive on its first row") as err:
            ingest_readings([data])
        assert err.value.line == 4

    def test_same_instant_in_another_offset_is_mixed_not_duplicate(self):
        # 00:00Z and 01:00+01:00 are one instant but slots 0 and 4.
        data = csv_bytes(
            ["A,2024-01-01T00:00:00Z,1.0", "A,2024-01-01T01:00:00+01:00,2.0"]
        )
        with pytest.raises(CsvFormatError, match="UTC\\+01:00 here, UTC on") as err:
            ingest_readings([data])
        assert err.value.line == 3

    def test_local_time_across_dst_change_is_refused(self):
        # 01:45+01:00 and 03:00+02:00 are 15 minutes apart (CET -> CEST);
        # the same rows written in UTC parse.
        local = ["A,2024-03-31T01:45:00+01:00,1.0", "A,2024-03-31T03:00:00+02:00,2.0"]
        offsets = "UTC\\+02:00 here, UTC\\+01:00"
        with pytest.raises(CsvFormatError, match=offsets) as err:
            ingest_readings([csv_bytes(local)])
        assert err.value.line == 3
        utc = ["A,2024-03-31T00:45:00Z,1.0", "A,2024-03-31T01:00:00Z,2.0"]
        assert [kw for *_, kw in read_rows(csv_bytes(utc))] == [bits(1.0), bits(2.0)]

    def test_offset_is_per_household_and_spelling_free(self):
        data = csv_bytes(
            [
                "A,2024-01-01T00:00:00Z,1.0",
                "B,2024-01-01T00:00:00-05:00,2.0",
                "A,2024-01-01T00:15:00+00:00,3.0",
                "C,2024-01-01T00:00:00,4.0",
            ]
        )
        assert read_rows(data) == [
            ("A", "2024-01-01T00:00:00+00:00", bits(1.0)),
            ("A", "2024-01-01T00:15:00+00:00", bits(3.0)),
            ("B", "2024-01-01T00:00:00-05:00", bits(2.0)),
            ("C", "2024-01-01T00:00:00", bits(4.0)),
        ]

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from("ab"),
                st.integers(min_value=0, max_value=300),
                st.sampled_from(sorted(OFFSET_OF)),
            ),
            min_size=1,
            max_size=25,
            unique_by=lambda row: row[:2],
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_first_row_fixes_each_households_offset(self, rows):
        base = datetime(2024, 1, 1)
        lines = [
            f"{hid},{(base + timedelta(minutes=15 * slot)).isoformat()}{suffix},1.0"
            for hid, slot, suffix in rows
        ]
        first: dict[str, object] = {}
        offending = None
        for line, (hid, _, suffix) in enumerate(rows, start=2):
            if first.setdefault(hid, OFFSET_OF[suffix]) != OFFSET_OF[suffix]:
                offending = line
                break
        if offending is None:
            readings = profiles._read(csv_bytes(lines))
            assert readings.house.size == len(rows)
            offsets = {
                (readings.households[h], readings.times[t].utcoffset())
                for h, t in zip(readings.house, readings.stamp)
            }
            assert offsets == set(first.items())
        else:
            with pytest.raises(CsvFormatError, match="mixed UTC offsets") as err:
                ingest_readings([csv_bytes(lines)])
            assert err.value.line == offending

    def test_bulk_file_against_count_and_sort_oracle(self):
        # 50 households x 180 days x 96 slots, checked against plain
        # per-household row counting and np.median over each slot's days.
        rng = np.random.default_rng(3)
        days, houses = 180, 50
        day_stamps = [
            (datetime(2024, 1, 1) + timedelta(days=d, minutes=15 * s)).isoformat()
            for d in range(days)
            for s in range(SLOTS_PER_DAY)
        ]
        rows, want = [], []
        for h in range(houses):
            texts = [f"{kw:.3f}" for kw in rng.random(len(day_stamps))]
            loads = np.array([float(kw) for kw in texts])
            hid = f"H{h:02d}"
            rows.extend(f"{hid},{ts},{kw}" for ts, kw in zip(day_stamps, texts))
            want.append(l2_normalize(np.median(loads.reshape(days, SLOTS_PER_DAY), axis=0)))
        data = csv_bytes(rows)
        counts = np.bincount(profiles._read(data).house)
        assert counts.tolist() == [days * SLOTS_PER_DAY] * houses
        matrix = ingest_readings([data])
        assert matrix.households == tuple(f"H{h:02d}" for h in range(houses))
        assert matrix.values.tobytes() == np.array(want).tobytes()


def bits(kw):
    """The int64 bits of a kW value."""
    return int(np.float64(kw).view(np.int64))


def rows_of(readings):
    """Readings in one canonical form, whichever reader made them: sorted
    (household, ISO timestamp, kW bits) rows."""
    load_bits = readings.loads.view(np.int64).tolist()
    return sorted(
        (readings.households[h], readings.times[t].isoformat(), load_bits[k])
        for h, t, k in zip(*(a.tolist() for a in (readings.house, readings.stamp, readings.load)))
    )


def read_rows(source):
    return rows_of(profiles._read(source))


def row_parse(source):
    """The row parser on the whole source: the reference for the columnar reader."""
    return profiles._parse_rows(profiles._text_lines(source))


def outcome(read, source):
    """What a reader makes of a source: its rows, or the error it raised."""
    try:
        readings = read(source)
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc), getattr(exc, "line", None)
    return rows_of(readings)


def profile_outcome(compute):
    """The profiles ``compute()`` gives, or the error it raises."""
    try:
        matrix = compute()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return matrix.households, matrix.values.tobytes()


def forbid_row_parser(monkeypatch):
    def row_parser(lines):
        raise AssertionError("the row parser ran")

    monkeypatch.setattr(profiles, "_parse_rows", row_parser)


def force_row_parser(monkeypatch):
    def columnar(blocks):
        raise profiles._RowPath

    monkeypatch.setattr(profiles, "_read_columns", columnar)


HOUSEHOLDS = ("a", "b", "hh-7", "\u00dc")
# Spellings of a valid row, then of a faulty one.
GOOD_KW = ("0.5", "1", "2.25", " 3.0 ", "1e308", "-0.0")
BAD_KW = ("-1.0", "nan", "inf", "1;5", "")
GOOD_ROWS = ("", "", "", "padded-id", "short-stamp", "padded-stamp", "respelled-utc")
BAD_ROWS = ("other-offset", "dup", "dup-respelled", "off-grid", "bad-stamp", "empty-id")
# Rows outside the plain grammar: the whole file goes to the row parser.
GRAMMAR_BREAKS = ("quoted", "extra-field", "missing-field", "blank-line", "space-line",
                  "bare-cr", "non-utf8")


def _reading_line(draw, hid, day, slot, kw, spelling, suffix_of, previous):
    """One readings row for ``hid`` at ``day``/``slot``, spelled as asked."""
    suffix = suffix_of[hid]
    if spelling == "other-offset":
        suffix = draw(st.sampled_from(sorted(OFFSET_OF)))
    if spelling.startswith("dup") and previous is not None:
        hid, day, slot = previous
        suffix = suffix_of[hid]
    when = datetime(2024, 1, 1) + timedelta(days=day, minutes=15 * slot)
    stamp = when.isoformat()
    if spelling in ("short-stamp", "dup-respelled"):
        stamp = stamp[:-3]
    if spelling in ("dup-respelled", "respelled-utc") and suffix in ("Z", "+00:00"):
        suffix = {"Z": "+00:00", "+00:00": "Z"}[suffix]
    if spelling == "off-grid":
        stamp = (when + timedelta(minutes=7)).isoformat()
    if spelling == "bad-stamp":
        stamp = "not-a-time"
    stamp += suffix
    house = {"padded-id": f" {hid}  ", "empty-id": " ", "quoted": f'"{hid}"'}.get(spelling, hid)
    if spelling == "padded-stamp":
        stamp = f" {stamp} "
    line = f"{house},{stamp},{kw}"
    if spelling == "extra-field":
        line += ",1"
    if spelling == "missing-field":
        line = f"{house},{stamp}"
    raw = line.encode()
    if spelling in ("blank-line", "space-line"):
        raw = (b"" if spelling == "blank-line" else b"  ") + b"\n" + raw
    if spelling == "bare-cr":
        raw = b"\r" + raw
    if spelling == "non-utf8":
        raw = b"\xff" + raw
    return raw


@st.composite
def readings_files(draw, full_days=False):
    """Small readings files, mostly well formed, as bytes; also whether
    every row stays within the plain grammar the columnar reader takes.
    With ``full_days``, most households first get one reading per slot of
    a day of their own, so that their medians are defined."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = draw(st.sampled_from(
        ["household_id,timestamp,kw"] * 8 + [" household_id , timestamp,kw", "house,when,load"]
    ))
    suffix_of = {hid: draw(st.sampled_from(sorted(OFFSET_OF))) for hid in HOUSEHOLDS}
    faulty = draw(st.booleans())
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(HOUSEHOLDS),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=SLOTS_PER_DAY - 1),
            st.integers(min_value=1, max_value=6),
            st.sampled_from(GOOD_KW * 4 + BAD_KW if faulty else GOOD_KW),
            st.sampled_from(GOOD_ROWS * 4 + BAD_ROWS + GRAMMAR_BREAKS if faulty else GOOD_ROWS),
        ),
        max_size=30,
        unique_by=lambda row: row[:3],
    ))
    plain = header != "house,when,load"
    lines = [header.encode()]
    for hid in HOUSEHOLDS if full_days else ():
        kw = draw(st.sampled_from([None, "0", "-0.0", "0.5", "2.25", "1e308"]))
        if kw is not None:
            lines += [
                _reading_line(draw, hid, 3, slot, kw, "", suffix_of, None)
                for slot in range(SLOTS_PER_DAY)
            ]
    previous = None
    for hid, day, first_slot, run, kw, spelling in rows:
        # A run of consecutive slots, the first one spelled as drawn.
        for slot in range(first_slot, min(first_slot + run, SLOTS_PER_DAY)):
            lines.append(_reading_line(draw, hid, day, slot, kw, spelling, suffix_of, previous))
            previous = (hid, day, slot)
            spelling = ""
    plain = plain and not any(s in GRAMMAR_BREAKS for *_, s in rows)
    data = newline.encode().join(lines)
    if draw(st.booleans()):
        data += newline.encode()
    return data, plain


class TestColumnarReader:
    """The columnar reader against the row parser it falls back on."""

    @given(
        file=readings_files(),
        block=st.sampled_from([16, 64, 1 << 22]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_rows_or_same_error_as_row_parser(self, tmp_path_factory, file, block):
        data, plain = file
        path = tmp_path_factory.getbasetemp() / "columnar-property.csv"
        path.write_bytes(data)
        row_calls = []
        real_rows = profiles._parse_rows

        def counted_rows(lines):
            row_calls.append(lines)
            return real_rows(lines)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(profiles, "_BLOCK_BYTES", block)
            mp.setattr(profiles, "_parse_rows", counted_rows)
            want = outcome(row_parse, path)
            for source in (path, data):  # bytes read as the file does
                row_calls.clear()
                assert outcome(profiles._read, source) == want
                if plain and isinstance(want, list):
                    assert not row_calls  # plain, valid input stays columnar

    @given(
        file=readings_files(full_days=True),
        block=st.sampled_from([16, 64, 1 << 22]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_profiles_or_same_error_as_row_parser(self, file, block):
        data, _ = file
        with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
            force_row_parser(mp)
            want = profile_outcome(lambda: ingest_readings([data]))
            mp.undo()
            mp.setattr(profiles, "_BLOCK_BYTES", block)
            assert profile_outcome(lambda: ingest_readings([data])) == want

    def test_households_split_across_blocks(self, monkeypatch):
        rows = []
        for day in ("2024-01-01", "2024-01-02"):
            for hid in ("b", "a"):
                rows += [
                    f"{hid},{day}T{slot // 4:02d}:{slot % 4 * 15:02d}:00Z,{slot / 8}"
                    for slot in range(SLOTS_PER_DAY)
                ]
        data = csv_bytes(rows)
        want = outcome(row_parse, data)
        forbid_row_parser(monkeypatch)
        for block in (100, 1000, 1 << 22):
            monkeypatch.setattr(profiles, "_BLOCK_BYTES", block)
            assert outcome(profiles._read, data) == want
        assert np.bincount(profiles._read(data).house).tolist() == [2 * SLOTS_PER_DAY] * 2

    def test_crlf_and_padding_stay_columnar(self, monkeypatch):
        data = b"household_id, timestamp ,kw\r\n A ,2024-01-01T00:15 , 2.5\r\nA,2024-01-01T00:00,1\r\n"
        forbid_row_parser(monkeypatch)
        assert read_rows(data) == [
            ("A", "2024-01-01T00:00:00", bits(1.0)),
            ("A", "2024-01-01T00:15:00", bits(2.5)),
        ]
        with pytest.raises(AssertionError, match="row parser ran"):  # mixed offsets
            read_rows(data.replace(b"00:00,", b"00:00Z,"))

    def test_path_sources_are_closed(self, tmp_path):
        rows = full_day_rows("A", "2024-01-01T00:00:00", [1.0] * SLOTS_PER_DAY)
        readings = tmp_path / "readings.csv"
        readings.write_bytes(csv_bytes(rows))
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(csv_bytes(rows).replace(b"\nA,", b'\n"A",', 1))
        matrix, _ = generate_synthetic(
            SynthSpec(clusters=2, cluster_size=2, spread=0.01)
        )
        stored = tmp_path / "profiles.csv"
        with open(stored, "w", encoding="utf-8", newline="") as fh:
            write_profiles_csv(matrix, fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ingest_readings([readings])
            ingest_readings([quoted])
            read_profiles_csv(stored)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        with open(stored, encoding="utf-8", newline="") as other:
            read_profiles_csv(other)
            assert not other.closed


def meter_export(path, households, days, seed=0):
    """A household-major, time-ascending readings CSV at one offset (``Z``),
    kW to 3 decimals, as a meter export writes it; returns the row count."""
    rng = np.random.default_rng(seed)
    stamps = [
        (datetime(2024, 3, 4) + timedelta(minutes=15 * s)).isoformat() + "Z"
        for s in range(days * SLOTS_PER_DAY)
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("household_id,timestamp,kw\n")
        for h in range(households):
            kw = rng.lognormal(-0.5, 0.6, size=len(stamps)).tolist()
            fh.write("".join(f"hh-{h:04d},{ts},{v:.3f}\n" for ts, v in zip(stamps, kw)))
    return households * len(stamps)


class TestIngestMemory:
    """Per row, ingestion keeps three int32 codes and builds one int64 sort
    key at a time, and holds no block it has finished with, so its traced
    peak stays a small multiple of 12 bytes."""

    def test_traced_peak_per_row(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = meter_export(path, households=300, days=28)
        ingest_readings([path])  # imports and first-call caches stay out of the peak
        tracemalloc.start()
        try:
            matrix = ingest_readings([path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(matrix) == 300
        assert peak / rows <= 32, f"{peak / rows:.1f} traced bytes per row"

    def test_row_codes_are_int32(self):
        rows = full_day_rows("b", "2024-01-01T00:00:00", [0.5] * SLOTS_PER_DAY)
        rows += full_day_rows("a", "2024-01-01T00:00:00", [1.5] * SLOTS_PER_DAY)
        data = csv_bytes(rows)
        quoted = data.replace(b"\na,", b'\n"a",', 1)  # read by the row parser
        for source in (data, quoted):
            r = profiles._read(source)
            assert [a.dtype for a in (r.house, r.stamp, r.load)] == [np.dtype(np.int32)] * 3


def slot_medians(data):
    """The per-slot medians, in kW, of the one household in a readings CSV."""
    r = profiles._read(data)
    (median,) = profiles._medians(
        r.households, r.house, profiles._slots(r.times)[r.stamp], r.load, r.loads
    )
    return median


class TestMedianDailyProfile:
    def test_single_day_verbatim(self):
        values = np.random.default_rng(0).random(SLOTS_PER_DAY)
        profile = slot_medians(csv_bytes(full_day_rows("A", "2024-01-01T00:00:00", values)))
        np.testing.assert_allclose(profile, np.round(values, 12), atol=5e-13)

    def test_even_count_takes_middle_mean(self):
        rows = full_day_rows("A", "2024-01-01T00:00:00", [1.0] * SLOTS_PER_DAY)
        rows += full_day_rows("A", "2024-01-02T00:00:00", [3.0] * SLOTS_PER_DAY)
        assert slot_medians(csv_bytes(rows)).tolist() == [2.0] * SLOTS_PER_DAY

    def test_seven_days_match_sort_and_pick_oracle(self):
        rng = np.random.default_rng(9)
        data = rng.random((7, SLOTS_PER_DAY)) * 4
        rows = []
        for d in range(7):
            rows += full_day_rows("A", f"2024-01-0{d + 1}T00:00:00", data[d])
        profile = slot_medians(csv_bytes(rows))
        for s in range(SLOTS_PER_DAY):
            ordered = sorted(float(f"{v:.17g}") for v in data[:, s])
            assert profile[s] == pytest.approx(ordered[3], abs=1e-12)

    def test_missing_slot_is_an_error(self):
        rows = full_day_rows("A", "2024-01-01T00:00:00", [1.0] * SLOTS_PER_DAY)
        with pytest.raises(MissingSlotError, match="slot"):
            slot_medians(csv_bytes(rows[:-1]))

    def test_day_permutation_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.random((5, SLOTS_PER_DAY))
        orders = [[0, 1, 2, 3, 4], [4, 2, 0, 3, 1]]
        results = []
        for order in orders:
            rows = []
            for i, d in enumerate(order):
                rows += full_day_rows("A", f"2024-01-0{i + 1}T00:00:00", data[d])
            results.append(slot_medians(csv_bytes(rows)))
        np.testing.assert_array_equal(results[0], results[1])


# Ties, and loads near the float maximum where (a + a) / 2 would overflow.
# No -0.0: it ties with 0.0, and which of the two a selection returns is
# not specified.
MEDIAN_LOADS = (0.0, 0.25, 1.0, 1.0, 3.5, 7.125, 1.5e308, 1.7976931348623157e308)


@st.composite
def slot_buckets(draw, loads=MEDIAN_LOADS, min_count=1):
    """Each slot's (day, kW) readings for one household, an uneven number
    of days per slot (missing days)."""
    counts = draw(st.lists(
        st.integers(min_value=min_count, max_value=5),
        min_size=SLOTS_PER_DAY, max_size=SLOTS_PER_DAY,
    ))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return [
        [(int(day), loads[i]) for day, i in zip(rng.choice(7, size=count, replace=False),
                                               rng.integers(len(loads), size=count))]
        for count in counts
    ]


def buckets_csv(households):
    """Readings CSV bytes of ``{household: slot buckets}``, rows shuffled."""
    rows = [
        f"{hid},{(datetime(2024, 1, 1) + timedelta(days=day, minutes=15 * s)).isoformat()},{kw!r}"
        for hid, buckets in households.items()
        for s, bucket in enumerate(buckets)
        for day, kw in bucket
    ]
    return csv_bytes(list(np.random.default_rng(len(rows)).permutation(rows)))


def median_reference(buckets):
    """Plain per-slot np.median: the medians as they were first defined."""
    return np.array([np.median([kw for _, kw in bucket]) for bucket in buckets], dtype=float)


class TestGroupedMedian:
    """Every median comes from one sort over all households' rows; the
    medians must be np.median's, byte for byte."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_per_slot_np_median(self, data):
        buckets = data.draw(slot_buckets())
        with np.errstate(over="ignore"):
            want = median_reference(buckets)
            got = slot_medians(buckets_csv({"A": buckets}))
        assert got.tobytes() == want.tobytes()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_profiles_bitwise_equal_to_reference(self, data):
        loads = MEDIAN_LOADS[1:6]
        households = {hid: data.draw(slot_buckets(loads)) for hid in ("c", "a", "b")}
        matrix = ingest_readings([buckets_csv(households)])
        want = np.array([l2_normalize(median_reference(households[h])) for h in "abc"])
        assert matrix.households == ("a", "b", "c")
        assert matrix.values.tobytes() == want.tobytes()

    def test_sort_key_past_int32(self):
        # (group * 96 + slot) * K + load reaches ~2.2e9 here: a key built in
        # int32 from the int32 codes would wrap and misorder the loads.
        houses, size = 23, 10**6
        loads = np.unique(np.random.default_rng(5).random(size * 2))[:size]
        assert loads.size == size
        group = np.repeat(np.arange(houses, dtype=np.int32), SLOTS_PER_DAY)
        slot = np.tile(np.arange(SLOTS_PER_DAY, dtype=np.uint8), houses)
        load = np.random.default_rng(6).integers(size, size=group.size).astype(np.int32)
        assert (int(group[-1]) * SLOTS_PER_DAY + int(slot[-1])) * size + int(load[-1]) > 2**31
        order = np.random.default_rng(7).permutation(group.size)
        medians = profiles._medians(
            [f"H{h}" for h in range(houses)], group[order], slot[order], load[order], loads
        )
        want = [[np.median(loads[load[(group == h) & (slot == s)]]) for s in range(SLOTS_PER_DAY)]
                for h in range(houses)]
        assert np.array(list(medians)).tobytes() == np.array(want).tobytes()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_empty_slot_message(self, data):
        buckets = data.draw(slot_buckets(min_count=0))
        assume(any(buckets))  # a file with no readings fails earlier
        missing = [s for s, bucket in enumerate(buckets) if not bucket]
        readings = buckets_csv({"H7": buckets})
        if not missing:
            with np.errstate(over="ignore"):
                np.testing.assert_array_equal(slot_medians(readings), median_reference(buckets))
            return
        message = (
            f"household H7: no observations for {len(missing)} slot(s), "
            f"first missing slot {missing[0]}"
        )
        for compute in (slot_medians, lambda data: ingest_readings([data])):
            with pytest.raises(MissingSlotError) as err:
                compute(readings)
            assert str(err.value) == message


class TestL2Normalize:
    def test_three_four_five(self):
        vec = np.zeros(SLOTS_PER_DAY)
        vec[0], vec[1] = 3.0, 4.0
        out = l2_normalize(vec)
        assert out[0] == pytest.approx(0.6, abs=1e-15)
        assert out[1] == pytest.approx(0.8, abs=1e-15)
        assert np.all(out[2:] == 0)

    def test_idempotent_on_unit_vectors(self):
        rng = np.random.default_rng(1)
        unit = l2_normalize(rng.random(SLOTS_PER_DAY) + 0.1)
        again = l2_normalize(unit)
        assert np.abs(again - unit).max() < 1e-12

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            out = l2_normalize(rng.random(SLOTS_PER_DAY) + 1e-6)
            assert abs(float(out @ out) - 1.0) < 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroProfileError):
            l2_normalize(np.zeros(SLOTS_PER_DAY))

    @pytest.mark.parametrize("scale", [1e300, 1.7976931348623157e308, 1e-170, 5e-324])
    def test_sum_of_squares_out_of_range(self, scale):
        # The squares of these entries over- or underflow; the profile is
        # still the unit vector of its shape, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l2_normalize(np.full(SLOTS_PER_DAY, scale))
        assert out.tobytes() == l2_normalize(np.ones(SLOTS_PER_DAY)).tobytes()

    @pytest.mark.parametrize("scale", [1e300, 1e-170])
    def test_shape_kept_when_squares_out_of_range(self, scale):
        vec = np.zeros(SLOTS_PER_DAY)
        vec[:2] = 3 * scale, 4 * scale
        assert l2_normalize(vec)[:2] == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_finite_norm_keeps_its_bits(self):
        vec = np.random.default_rng(5).random(SLOTS_PER_DAY)
        assert l2_normalize(vec).tobytes() == (vec / np.linalg.norm(vec)).tobytes()

    def test_non_finite_rejected(self):
        vec = np.ones(SLOTS_PER_DAY)
        vec[5] = np.nan
        with pytest.raises(ValueError):
            l2_normalize(vec)

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_invariance(self, scale, seed):
        vec = np.random.default_rng(seed).random(SLOTS_PER_DAY) + 0.01
        base = l2_normalize(vec)
        scaled = l2_normalize(vec * scale)
        assert np.abs(scaled - base).max() < 1e-12


class TestGenerateSynthetic:
    def test_zero_spread_gives_identical_cluster_rows(self):
        spec = SynthSpec(clusters=3, cluster_size=5, spread=0.0)
        matrix, labels = generate_synthetic(spec)
        assert len(matrix) == 15
        for j in range(3):
            rows = matrix.values[labels == j]
            assert np.all(rows == rows[0])

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(
            clusters=4,
            cluster_size=7,
            spread=0.05,
            outliers=2,
            seed=123,
        )
        m1, l1 = generate_synthetic(spec)
        m2, l2 = generate_synthetic(spec)
        assert m1.households == m2.households
        assert m1.values.tobytes() == m2.values.tobytes()
        assert np.array_equal(l1, l2)

    def test_unit_norm_rows(self):
        spec = SynthSpec(
            clusters=3,
            cluster_size=10,
            spread=0.05,
            outliers=3,
            seed=5,
        )
        matrix, _ = generate_synthetic(spec)
        norms = np.linalg.norm(matrix.values, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9
        assert np.all(matrix.values >= 0)

    def test_outliers_get_singleton_labels(self):
        spec = SynthSpec(
            clusters=3,
            cluster_size=4,
            spread=0.01,
            outliers=2,
            seed=8,
        )
        _, labels = generate_synthetic(spec)
        assert list(labels[-2:]) == [3, 4]
        assert (labels == 3).sum() == 1 and (labels == 4).sum() == 1

    def test_far_outliers_remote_after_normalization(self):
        spec = SynthSpec(
            clusters=3,
            cluster_size=10,
            spread=0.02,
            outliers=2,
            seed=3,
        )
        matrix, labels = generate_synthetic(spec)
        members = matrix.values[labels < 3]
        within = max(
            np.linalg.norm(members[labels[labels < 3] == j]
                           - members[labels[labels < 3] == j].mean(axis=0), axis=1).max()
            for j in range(3)
        )
        for out_row in matrix.values[labels >= 3]:
            gap = np.linalg.norm(members - out_row, axis=1).min()
            assert gap > 10 * within

    def test_near_outliers_sit_at_template_centroid(self):
        templates = synthetic_templates(3)
        spec = SynthSpec(
            clusters=3,
            cluster_size=2,
            spread=0.0,
            outliers=1,
            outlier_mode="near",
            seed=0,
        )
        matrix, labels = generate_synthetic(spec)
        expected = l2_normalize(templates.mean(axis=0))
        np.testing.assert_allclose(matrix.values[labels == 3][0], expected, atol=1e-12)

    def test_recovers_planted_partition(self):
        # Nine well-separated clusters, ~2000 profiles: hardened FCM on
        # the reduced data should match ground truth almost perfectly.
        spec = SynthSpec(
            clusters=9,
            cluster_size=222,
            spread=0.01,
            seed=77,
        )
        matrix, truth = generate_synthetic(spec)
        assert len(matrix) == 1998
        pca = fit_pca(matrix)
        reduced = project(pca, matrix, 8)
        model = fit_fcm(reduced, FcmConfig(k=9, seed=1, restarts=3))
        assert oracles.label_agreement(model.labels, truth) >= 0.99

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="need at least one template"):
            SynthSpec(clusters=0, cluster_size=1, spread=0.1)
        with pytest.raises(ValueError):
            SynthSpec(clusters=2, cluster_size=0, spread=0.1)
        with pytest.raises(ValueError):
            SynthSpec(clusters=2, cluster_size=1, spread=-0.1)
        with pytest.raises(ValueError, match="outliers must be nonnegative"):
            SynthSpec(clusters=2, cluster_size=1, spread=0.1, outliers=-1)
        with pytest.raises(ValueError):
            SynthSpec(clusters=2, cluster_size=1, spread=0.1, outlier_mode="sideways")

    def test_templates_need_positive_count(self):
        with pytest.raises(ValueError):
            synthetic_templates(0)


class TestProfileCsv:
    def test_header_slot_names(self):
        assert PROFILE_CSV_HEADER[0] == "household_id"
        assert PROFILE_CSV_HEADER[1] == "t0000"
        assert PROFILE_CSV_HEADER[2] == "t0015"
        assert PROFILE_CSV_HEADER[-1] == "t2345"
        assert len(PROFILE_CSV_HEADER) == SLOTS_PER_DAY + 1

    def test_round_trip(self, tmp_path):
        spec = SynthSpec(clusters=3, cluster_size=4, spread=0.03, seed=2)
        matrix, _ = generate_synthetic(spec)
        path = tmp_path / "profiles.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_profiles_csv(matrix, fh)
        back = read_profiles_csv(path)
        assert back.households == matrix.households
        assert back.values.tobytes() == matrix.values.tobytes()
        norms = np.linalg.norm(back.values, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9
        edges = ProfileMatrix(
            households=("edge",), values=np.array([[5e-324, 1e-300, 0.1, 1 / 3] * 24])
        )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_profiles_csv(edges, fh)
        assert read_profiles_csv(path).values.tobytes() == edges.values.tobytes()

    def test_read_rejects_non_finite(self):
        for bad in ("nan", "inf"):
            text = ",".join(PROFILE_CSV_HEADER) + "\nA," + ",".join([bad] + ["0.1"] * 95) + "\n"
            with pytest.raises(ValueError, match="profile contains non-finite entries"):
                read_profiles_csv(io.StringIO(text))

    def test_read_rejects_surprise_header(self):
        with pytest.raises(CsvFormatError, match="line 1: unexpected profile CSV header"):
            read_profiles_csv(io.StringIO("who,what\n"))

    def test_read_rejects_short_row(self):
        text = ",".join(PROFILE_CSV_HEADER) + "\nA,1.0,2.0\n"
        with pytest.raises(ValueError, match="slots"):
            read_profiles_csv(io.StringIO(text))

    @staticmethod
    def profile_text(*rows):
        """A profile CSV: the header, then one line per row."""
        return "\n".join([",".join(PROFILE_CSV_HEADER), *rows]) + "\n"

    def read_error(self, text):
        with pytest.raises(CsvFormatError) as err:
            read_profiles_csv(io.StringIO(text))
        return err.value

    def test_bad_value_names_its_line(self):
        good = "A," + ",".join(["0.1"] * 96)
        bad = "B," + ",".join(["0.1"] * 40 + ["x"] + ["0.1"] * 55)
        err = self.read_error(self.profile_text(good, "", bad))
        assert err.line == 4
        assert str(err) == "line 4: could not convert string to float: 'x'"

    def test_short_row_names_its_line(self):
        err = self.read_error(self.profile_text("a," + ",".join(["0.1"] * 96), "b,1.0,2.0"))
        assert str(err) == "line 3: profile row for 'b' has 2 slots"

    def test_non_finite_names_its_line(self):
        rows = [f"h{i}," + ",".join(["0.1"] * 96) for i in range(3)]
        rows[2] = rows[2][: -len("0.1")] + "nan"
        err = self.read_error(self.profile_text(*rows))
        assert str(err) == "line 4: profile contains non-finite entries"

    def test_header_without_rows_is_an_error(self):
        err = self.read_error(self.profile_text())
        assert str(err) == "line 2: no profiles after the header"

    def test_empty_household_id_rejected(self):
        err = self.read_error(self.profile_text("," + ",".join(["0.1"] * 96)))
        assert str(err) == "line 2: empty household_id"

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        good = "a," + ",".join(["0.1"] * 96)
        data = self.profile_text(good, "b" + good[1:], "c,1.0").encode()
        data = data.replace(b"\nb,", b"\nb\xff,")
        path = tmp_path / "profiles.csv"
        path.write_bytes(data)
        for source in (path, data, io.BytesIO(data)):
            with pytest.raises(CsvFormatError) as err:
                read_profiles_csv(source)
            assert (err.value.line, str(err.value)) == (3, "line 3: not UTF-8")
        # A rule broken on an earlier line is reported first.
        with pytest.raises(CsvFormatError, match="line 2: profile row for 'a' has 1 slots"):
            read_profiles_csv(data.replace(good.encode(), b"a,1.0", 1))

    @pytest.mark.parametrize("rows, expected", [
        ([b"a,0.1", b"a,0.1", b"c\xff,0.1"], "line 3: duplicate household_id 'a'"),
        ([b"a,nan", b"b,0.1", b"b,0.1"], "line 2: profile contains non-finite entries"),
    ])
    def test_first_bad_row_is_reported(self, rows, expected):
        """Each row is checked as it is read, before any later line."""
        header = ",".join(PROFILE_CSV_HEADER).encode()
        data = b"\n".join([header] + [row + b",0.1" * 95 for row in rows]) + b"\n"
        with pytest.raises(CsvFormatError) as err:
            read_profiles_csv(data)
        assert str(err.value) == expected

    def test_repeated_household_names_its_line(self):
        rows = [f"{hid}," + ",".join(["0.1"] * 96) for hid in ("a", "b", "c", "b")]
        err = self.read_error(self.profile_text(*rows))
        assert str(err) == "line 5: duplicate household_id 'b'"

    def test_ingest_readings_end_to_end(self):
        rng = np.random.default_rng(6)
        rows = []
        for hid in ["a", "b"]:
            for d in range(2):
                rows += full_day_rows(
                    hid, f"2024-01-0{d + 1}T00:00:00", rng.random(SLOTS_PER_DAY) + 0.5
                )
        matrix = ingest_readings([csv_bytes(rows)])
        assert matrix.households == ("a", "b")
        assert matrix.values.shape[1] == SLOTS_PER_DAY
        assert np.abs(np.linalg.norm(matrix.values, axis=1) - 1.0).max() < 1e-9

    def test_matrix_rejects_duplicate_households(self):
        values = np.eye(2, SLOTS_PER_DAY) + 0.0
        values = values / np.linalg.norm(values, axis=1, keepdims=True)
        with pytest.raises(ValueError, match="unique"):
            ProfileMatrix(households=("a", "a"), values=values)
