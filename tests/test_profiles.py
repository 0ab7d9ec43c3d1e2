"""Reading ingestion, median profiles, normalization, synthesis."""

import gc
import io
import math
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
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
    median_daily_profile,
    parse_readings,
    profiles_from_readings,
    project,
    read_profiles_csv,
    synthetic_templates,
    write_profiles_csv,
)
from cvilab import profiles
from cvilab.profiles import PROFILE_CSV_HEADER, SLOTS_PER_DAY, ReadingSeries


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
        series = parse_readings(data)
        assert len(series) == 1
        assert series[0].household_id == "A"
        assert len(series[0]) == 2
        assert list(series[0].loads) == [1.5, 2.0]

    def test_rows_sorted_within_household(self):
        data = csv_bytes(
            [
                "A,2024-01-01T00:15:00,2.0",
                "A,2024-01-01T00:00:00,1.0",
                "A,2024-01-02T00:00:00,3.0",
            ]
        )
        (series,) = parse_readings(data)
        assert list(series.loads) == [1.0, 2.0, 3.0]
        assert list(series.times) == sorted(series.times)

    def test_households_in_sorted_order(self):
        data = csv_bytes(
            ["b,2024-01-01T00:00:00,1", "a,2024-01-01T00:00:00,1"]
        )
        assert [s.household_id for s in parse_readings(data)] == ["a", "b"]

    def test_negative_kw_names_line(self):
        data = csv_bytes(
            ["A,2024-01-01T00:00:00,1.0", "A,2024-01-01T00:15:00,-1.0"]
        )
        with pytest.raises(CsvFormatError, match="line 3") as err:
            parse_readings(data)
        assert err.value.line == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_kw_rejected(self, bad):
        data = csv_bytes([f"A,2024-01-01T00:00:00,{bad}"])
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_readings(data)

    def test_unparsable_kw_rejected(self):
        data = csv_bytes(["A,2024-01-01T00:00:00,1;5"])
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_readings(data)

    def test_bad_timestamp_rejected(self):
        data = csv_bytes(["A,not-a-time,1.0"])
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_readings(data)

    def test_off_grid_timestamp_rejected(self):
        data = csv_bytes(["A,2024-01-01T00:07:00,1.0"])
        with pytest.raises(CsvFormatError, match="15-minute"):
            parse_readings(data)

    def test_duplicate_reading_rejected(self):
        data = csv_bytes(
            ["A,2024-01-01T00:00:00,1.0", "A,2024-01-01T00:00:00,2.0"]
        )
        with pytest.raises(CsvFormatError, match="duplicate"):
            parse_readings(data)

    def test_wrong_field_count_rejected(self):
        data = csv_bytes(["A,2024-01-01T00:00:00"])
        with pytest.raises(CsvFormatError, match="3 fields"):
            parse_readings(data)

    def test_bad_header_rejected(self):
        data = csv_bytes([], header="house,when,load")
        with pytest.raises(CsvFormatError) as err:
            parse_readings(data)
        assert err.value.line == 1

    def test_empty_input_rejected(self):
        with pytest.raises(CsvFormatError) as err:
            parse_readings(b"")
        assert err.value.line == 1

    @pytest.mark.parametrize("data", [
        b"household_id,timestamp,kw",
        b"household_id,timestamp,kw\n",
        b"household_id,timestamp,kw\r\n\r\n",  # blank lines: the row parser's path
    ])
    def test_header_without_rows_rejected(self, data):
        for read in (parse_readings, lambda source: ingest_readings([source])):
            with pytest.raises(CsvFormatError) as err:
                read(data)
            assert err.value.line == 2
            assert str(err.value) == "line 2: no readings after the header"

    def test_zulu_timestamps_accepted(self):
        data = csv_bytes(["A,2024-01-01T00:00:00Z,1.0"])
        (series,) = parse_readings(data)
        assert len(series) == 1

    def test_naive_after_zoned_names_line(self):
        data = csv_bytes(
            ["A,2024-01-01T00:00:00Z,1.0", "A,2024-01-01T00:15:00,1.0"]
        )
        with pytest.raises(CsvFormatError, match="mixed UTC offsets") as err:
            parse_readings(data)
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
            parse_readings(data)
        assert err.value.line == 4

    def test_same_instant_in_another_offset_is_mixed_not_duplicate(self):
        # 00:00Z and 01:00+01:00 are one instant but slots 0 and 4.
        data = csv_bytes(
            ["A,2024-01-01T00:00:00Z,1.0", "A,2024-01-01T01:00:00+01:00,2.0"]
        )
        with pytest.raises(CsvFormatError, match="UTC\\+01:00 here, UTC on") as err:
            parse_readings(data)
        assert err.value.line == 3

    def test_local_time_across_dst_change_is_refused(self):
        # 01:45+01:00 and 03:00+02:00 are 15 minutes apart (CET -> CEST);
        # the same rows written in UTC parse.
        local = ["A,2024-03-31T01:45:00+01:00,1.0", "A,2024-03-31T03:00:00+02:00,2.0"]
        offsets = "UTC\\+02:00 here, UTC\\+01:00"
        with pytest.raises(CsvFormatError, match=offsets) as err:
            parse_readings(csv_bytes(local))
        assert err.value.line == 3
        utc = ["A,2024-03-31T00:45:00Z,1.0", "A,2024-03-31T01:00:00Z,2.0"]
        (series,) = parse_readings(csv_bytes(utc))
        assert list(series.loads) == [1.0, 2.0]

    def test_offset_is_per_household_and_spelling_free(self):
        data = csv_bytes(
            [
                "A,2024-01-01T00:00:00Z,1.0",
                "B,2024-01-01T00:00:00-05:00,2.0",
                "A,2024-01-01T00:15:00+00:00,3.0",
                "C,2024-01-01T00:00:00,4.0",
            ]
        )
        a, b, c = parse_readings(data)
        assert list(a.loads) == [1.0, 3.0]
        assert b.times[0].utcoffset() == timedelta(hours=-5)
        assert c.times[0].tzinfo is None

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
            series = parse_readings(csv_bytes(lines))
            assert sum(len(s) for s in series) == len(rows)
            for s in series:
                assert {t.utcoffset() for t in s.times} == {first[s.household_id]}
                assert list(s.times) == sorted(s.times)
        else:
            with pytest.raises(CsvFormatError, match="mixed UTC offsets") as err:
                parse_readings(csv_bytes(lines))
            assert err.value.line == offending

    def test_bulk_file_against_count_and_sort_oracle(self):
        # 50 households x 180 days x 96 slots, checked against plain
        # per-household row counting and pairwise time ordering.
        rng = np.random.default_rng(3)
        days, houses = 180, 50
        day_stamps = [
            (datetime(2024, 1, 1) + timedelta(days=d, minutes=15 * s)).isoformat()
            for d in range(days)
            for s in range(SLOTS_PER_DAY)
        ]
        rows = []
        for h in range(houses):
            loads = rng.random(len(day_stamps))
            hid = f"H{h:02d}"
            rows.extend(
                f"{hid},{ts},{loads[i]:.3f}" for i, ts in enumerate(day_stamps)
            )
        series = parse_readings(csv_bytes(rows))
        assert len(series) == houses
        for s in series:
            assert len(s) == days * SLOTS_PER_DAY
            times = s.times
            assert all(times[i] < times[i + 1] for i in range(len(times) - 1))


def row_parse(source):
    """The row parser on a fresh handle: the reference for parse_readings."""
    with profiles._open_text(source) as fh:
        return profiles._parse_rows(fh)


def outcome(parse, source):
    """What a parser makes of a source: the series, or the error it raised."""
    try:
        series = parse(source)
    except Exception as exc:  # the two parsers must fail alike
        return type(exc), str(exc), getattr(exc, "line", None)
    return [
        (s.household_id, s.times, tuple(t.isoformat() for t in s.times), s.loads.tobytes())
        for s in series
    ]


def profile_outcome(compute):
    """The profiles ``compute()`` gives, or the error it raises."""
    try:
        matrix = compute()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return matrix.households, matrix.values.tobytes()


def forbid_row_parser(monkeypatch):
    def row_parser(fh):
        raise AssertionError("the row parser ran")

    monkeypatch.setattr(profiles, "_parse_rows", row_parser)


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
    """parse_readings against the row parser it falls back on."""

    @given(
        file=readings_files(),
        block=st.sampled_from([16, 64, 1 << 22]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_series_or_same_error_as_row_parser(self, tmp_path_factory, file, block):
        data, plain = file
        path = tmp_path_factory.getbasetemp() / "columnar-property.csv"
        path.write_bytes(data)
        # Bytes and a stream parse as the file does. Only bytes that are
        # not UTF-8 differ: a file reports the bad byte at another offset.
        sources = [lambda: path, lambda: data]
        reference = path
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            reference = None
        else:
            sources.append(lambda: io.StringIO(text))
        row_calls = []
        real_rows = profiles._parse_rows

        def counted_rows(fh):
            row_calls.append(fh)
            return real_rows(fh)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(profiles, "_BLOCK_BYTES", block)
            mp.setattr(profiles, "_parse_rows", counted_rows)
            for source in sources:
                want = outcome(row_parse, source() if reference is None else reference)
                row_calls.clear()
                assert outcome(parse_readings, source()) == want
                if plain and isinstance(want, list):
                    assert not row_calls  # plain, valid input stays columnar

    @given(
        file=readings_files(full_days=True),
        block=st.sampled_from([16, 64, 1 << 22]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_profiles_or_same_error_as_row_parser(self, file, block):
        data, _ = file
        with np.errstate(over="ignore"):
            want = profile_outcome(lambda: profiles_from_readings(row_parse(data)))
            with pytest.MonkeyPatch.context() as mp:
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
            assert outcome(parse_readings, data) == want
        assert [len(s) for s in parse_readings(data)] == [2 * SLOTS_PER_DAY] * 2

    def test_timestamps_shared_per_distinct_string(self):
        data = csv_bytes(
            ["a,2024-01-01T00:00:00Z,1", "b,2024-01-01T00:00:00Z,2", "c,2024-01-01T00:00:00+00:00,3"]
        )
        a, b, c = parse_readings(data)
        assert a.times[0] is b.times[0]
        assert c.times == a.times

    def test_crlf_and_padding_stay_columnar(self, monkeypatch):
        data = b"household_id, timestamp ,kw\r\n A ,2024-01-01T00:15 , 2.5\r\nA,2024-01-01T00:00,1\r\n"
        forbid_row_parser(monkeypatch)
        (series,) = parse_readings(data)
        assert series.household_id == "A"
        assert list(series.loads) == [1.0, 2.5]
        with pytest.raises(AssertionError, match="row parser ran"):  # mixed offsets
            parse_readings(data.replace(b"00:00,", b"00:00Z,"))

    def test_path_sources_are_closed(self, tmp_path):
        readings = tmp_path / "readings.csv"
        readings.write_bytes(csv_bytes(["A,2024-01-01T00:00:00,1.0"]))
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(csv_bytes(['"A",2024-01-01T00:00:00,1.0']))
        matrix, _ = generate_synthetic(
            SynthSpec(templates=synthetic_templates(2), cluster_size=2, spread=0.01)
        )
        stored = tmp_path / "profiles.csv"
        write_profiles_csv(matrix, stored)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_readings(readings)
            parse_readings(quoted)
            read_profiles_csv(stored)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        with open(readings, encoding="utf-8", newline="") as own, open(
            stored, encoding="utf-8", newline=""
        ) as other:
            parse_readings(own)
            read_profiles_csv(other)
            assert not own.closed and not other.closed


class TestMedianDailyProfile:
    def test_single_day_verbatim(self):
        values = np.random.default_rng(0).random(SLOTS_PER_DAY)
        (series,) = parse_readings(
            csv_bytes(full_day_rows("A", "2024-01-01T00:00:00", values))
        )
        profile = median_daily_profile(series)
        np.testing.assert_allclose(profile, np.round(values, 12), atol=5e-13)

    def test_even_count_takes_middle_mean(self):
        rows = full_day_rows("A", "2024-01-01T00:00:00", [1.0] * SLOTS_PER_DAY)
        rows += full_day_rows("A", "2024-01-02T00:00:00", [3.0] * SLOTS_PER_DAY)
        (series,) = parse_readings(csv_bytes(rows))
        assert median_daily_profile(series).tolist() == [2.0] * SLOTS_PER_DAY

    def test_seven_days_match_sort_and_pick_oracle(self):
        rng = np.random.default_rng(9)
        data = rng.random((7, SLOTS_PER_DAY)) * 4
        rows = []
        for d in range(7):
            rows += full_day_rows("A", f"2024-01-0{d + 1}T00:00:00", data[d])
        (series,) = parse_readings(csv_bytes(rows))
        profile = median_daily_profile(series)
        for s in range(SLOTS_PER_DAY):
            ordered = sorted(float(f"{v:.17g}") for v in data[:, s])
            assert profile[s] == pytest.approx(ordered[3], abs=1e-12)

    def test_missing_slot_is_an_error(self):
        rows = full_day_rows("A", "2024-01-01T00:00:00", [1.0] * SLOTS_PER_DAY)
        (series,) = parse_readings(csv_bytes(rows[:-1]))
        with pytest.raises(MissingSlotError, match="slot"):
            median_daily_profile(series)

    def test_day_permutation_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.random((5, SLOTS_PER_DAY))
        orders = [[0, 1, 2, 3, 4], [4, 2, 0, 3, 1]]
        results = []
        for order in orders:
            rows = []
            for i, d in enumerate(order):
                rows += full_day_rows("A", f"2024-01-0{i + 1}T00:00:00", data[d])
            (series,) = parse_readings(csv_bytes(rows))
            results.append(median_daily_profile(series))
        np.testing.assert_array_equal(results[0], results[1])


def median_reference(series):
    """Plain per-slot buckets and np.median: the medians as they were
    first defined."""
    buckets = [[] for _ in range(SLOTS_PER_DAY)]
    for ts, kw in zip(series.times, series.loads):
        buckets[ts.hour * 4 + ts.minute // 15].append(kw)
    return np.array([np.median(b) for b in buckets], dtype=float)


# Ties, and loads near the float maximum where (a + a) / 2 would overflow.
# No -0.0: it ties with 0.0, and which of the two a selection returns is
# not specified.
MEDIAN_LOADS = (0.0, 0.25, 1.0, 1.0, 3.5, 7.125, 1.5e308, 1.7976931348623157e308)


@st.composite
def slot_series(draw, hid, stamps, loads=MEDIAN_LOADS, min_count=1):
    """A series with an uneven number of days per slot (missing days),
    reusing the datetime objects in ``stamps`` the way parse_readings does."""
    counts = draw(st.lists(
        st.integers(min_value=min_count, max_value=5),
        min_size=SLOTS_PER_DAY, max_size=SLOTS_PER_DAY,
    ))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = []
    for slot, count in enumerate(counts):
        days = rng.choice(7, size=count, replace=False)
        pairs += [(stamps[day, slot], loads[i]) for day, i in zip(days, rng.integers(len(loads), size=count))]
    pairs.sort(key=lambda pair: pair[0])
    return ReadingSeries(
        hid, tuple(t for t, _ in pairs), np.array([kw for _, kw in pairs], dtype=float)
    )


STAMPS = {
    (day, slot): datetime(2024, 1, 1) + timedelta(days=day, minutes=15 * slot)
    for day in range(7)
    for slot in range(SLOTS_PER_DAY)
}


class TestGroupedMedian:
    """median_daily_profile and profiles_from_readings take every median
    from one sort over all households; the medians must be np.median's,
    byte for byte."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_per_slot_np_median(self, data):
        series = data.draw(slot_series("A", STAMPS))
        with np.errstate(over="ignore"):
            want = median_reference(series)
            got = median_daily_profile(series)
        assert got.tobytes() == want.tobytes()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_profiles_bitwise_equal_to_reference(self, data):
        # Households a and b share datetime objects; c has equal copies.
        copies = {key: t.replace() for key, t in STAMPS.items()}
        loads = MEDIAN_LOADS[1:6]
        series = [
            data.draw(slot_series("a", STAMPS, loads)),
            data.draw(slot_series("b", STAMPS, loads)),
            data.draw(slot_series("c", copies, loads)),
        ]
        matrix = profiles_from_readings(series)
        want = np.array([l2_normalize(median_reference(s)) for s in series])
        assert matrix.households == ("a", "b", "c")
        assert matrix.values.tobytes() == want.tobytes()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_empty_slot_message(self, data):
        series = data.draw(slot_series("H7", STAMPS, min_count=0))
        missing = [s for s, v in enumerate(median_reference_counts(series)) if v == 0]
        if not missing:
            np.testing.assert_array_equal(median_daily_profile(series), median_reference(series))
            return
        message = (
            f"household H7: no observations for {len(missing)} slot(s), "
            f"first missing slot {missing[0]}"
        )
        for compute in (median_daily_profile, lambda s: profiles_from_readings([s])):
            with pytest.raises(MissingSlotError) as err:
                compute(series)
            assert str(err.value) == message


def median_reference_counts(series):
    counts = [0] * SLOTS_PER_DAY
    for ts in series.times:
        counts[ts.hour * 4 + ts.minute // 15] += 1
    return counts


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
        spec = SynthSpec(
            templates=synthetic_templates(3), cluster_size=5, spread=0.0
        )
        matrix, labels = generate_synthetic(spec)
        assert len(matrix) == 15
        for j in range(3):
            rows = matrix.values[labels == j]
            assert np.all(rows == rows[0])

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(
            templates=synthetic_templates(4),
            cluster_size=7,
            spread=0.05,
            outlier_count=2,
            seed=123,
        )
        m1, l1 = generate_synthetic(spec)
        m2, l2 = generate_synthetic(spec)
        assert m1.households == m2.households
        assert m1.values.tobytes() == m2.values.tobytes()
        assert np.array_equal(l1, l2)

    def test_unit_norm_rows(self):
        spec = SynthSpec(
            templates=synthetic_templates(3),
            cluster_size=10,
            spread=0.05,
            outlier_count=3,
            seed=5,
        )
        matrix, _ = generate_synthetic(spec)
        norms = np.linalg.norm(matrix.values, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9
        assert np.all(matrix.values >= 0)

    def test_outliers_get_singleton_labels(self):
        spec = SynthSpec(
            templates=synthetic_templates(3),
            cluster_size=4,
            spread=0.01,
            outlier_count=2,
            seed=8,
        )
        _, labels = generate_synthetic(spec)
        assert list(labels[-2:]) == [3, 4]
        assert (labels == 3).sum() == 1 and (labels == 4).sum() == 1

    def test_far_outliers_remote_after_normalization(self):
        spec = SynthSpec(
            templates=synthetic_templates(3),
            cluster_size=10,
            spread=0.02,
            outlier_count=2,
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
            templates=templates,
            cluster_size=2,
            spread=0.0,
            outlier_count=1,
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
            templates=synthetic_templates(9),
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
        templates = synthetic_templates(2)
        with pytest.raises(ValueError):
            SynthSpec(templates=templates, cluster_size=0, spread=0.1)
        with pytest.raises(ValueError):
            SynthSpec(templates=templates, cluster_size=1, spread=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(templates=templates, cluster_size=1, spread=0.1,
                      outlier_mode="sideways")
        with pytest.raises(ValueError):
            SynthSpec(templates=np.ones((2, 5)), cluster_size=1, spread=0.1)

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
        spec = SynthSpec(
            templates=synthetic_templates(3), cluster_size=4, spread=0.03, seed=2
        )
        matrix, _ = generate_synthetic(spec)
        path = tmp_path / "profiles.csv"
        write_profiles_csv(matrix, path)
        back = read_profiles_csv(path)
        assert back.households == matrix.households
        assert back.values.tobytes() == matrix.values.tobytes()
        norms = np.linalg.norm(back.values, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9
        edges = ProfileMatrix(
            households=("edge",), values=np.array([[5e-324, 1e-300, 0.1, 1 / 3] * 24])
        )
        write_profiles_csv(edges, path)
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

    def test_repeated_household_names_its_line(self):
        rows = [f"{hid}," + ",".join(["0.1"] * 96) for hid in ("a", "b", "c", "b")]
        err = self.read_error(self.profile_text(*rows))
        assert str(err) == "line 5: duplicate household_id 'b'"

    def test_profiles_from_readings_end_to_end(self):
        rng = np.random.default_rng(6)
        rows = []
        for hid in ["a", "b"]:
            for d in range(2):
                rows += full_day_rows(
                    hid, f"2024-01-0{d + 1}T00:00:00", rng.random(SLOTS_PER_DAY) + 0.5
                )
        matrix = profiles_from_readings(parse_readings(csv_bytes(rows)))
        assert matrix.households == ("a", "b")
        assert matrix.dimension == SLOTS_PER_DAY
        assert np.abs(np.linalg.norm(matrix.values, axis=1) - 1.0).max() < 1e-9

    def test_matrix_rejects_duplicate_households(self):
        values = np.eye(2, SLOTS_PER_DAY) + 0.0
        values = values / np.linalg.norm(values, axis=1, keepdims=True)
        with pytest.raises(ValueError, match="unique"):
            ProfileMatrix(households=("a", "a"), values=values)
