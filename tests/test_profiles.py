"""Reading ingestion, median profiles, normalization, synthesis."""

import io
import math
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
    l2_normalize,
    median_daily_profile,
    parse_readings,
    profiles_from_readings,
    project,
    read_profiles_csv,
    synthetic_templates,
    write_profiles_csv,
)
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
        assert np.abs(back.values - matrix.values).max() < 1e-8
        norms = np.linalg.norm(back.values, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9

    def test_read_rejects_surprise_header(self):
        with pytest.raises(ValueError, match="header"):
            read_profiles_csv(io.StringIO("who,what\n"))

    def test_read_rejects_short_row(self):
        text = ",".join(PROFILE_CSV_HEADER) + "\nA,1.0,2.0\n"
        with pytest.raises(ValueError, match="slots"):
            read_profiles_csv(io.StringIO(text))

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
