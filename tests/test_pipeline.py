"""End-to-end tests for the config loader, pipeline stages, manifest
bookkeeping, and the command-line front end (driven in-process)."""

import argparse
import builtins
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvilab
import oracles
from cvilab import cli, cvi, perturb
from cvilab import fcm as fcm_mod
from cvilab import pipeline as pl
from cvilab.pca import project

CORE_ARTIFACTS = [
    "profiles.csv",
    "synth_labels.csv",
    "pca.json",
    "cevr.csv",
    "cluster.json",
    "fpc.csv",
    "cvi.json",
]

CANONICAL_CFG = (
    "# canonical demo configuration\n"
    "synth.clusters = 3\n"
    "synth.cluster-size = 30\n"
    "synth.spread = 0.02\n"
    "synth.outliers = 3   # far spikes by default\n"
    "seed = 42\n"
    "k = 6\n"
    "dprime = elbow\n"
    "trials = 4\n"
)


def small_raw(out_dir, **extra):
    raw = {
        "synth.clusters": ["3"],
        "synth.cluster-size": ["10"],
        "synth.spread": ["0.02"],
        "seed": ["5"],
        "k": ["3"],
        "out": [str(out_dir)],
    }
    for key, value in extra.items():
        raw[key.replace("_", "-")] = [value]
    return raw


def cli_error(capsys, argv):
    """Run the CLI expecting failure; returns the parsed stderr object."""
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    return json.loads(captured.err)


class TestParseConfigText:
    def test_basic_pairs(self):
        raw = pl.parse_config_text("seed = 7\nk=3\n")
        assert raw == {"seed": ["7"], "k": ["3"]}

    def test_comments_and_blank_lines(self):
        text = "# full-line comment\n\nseed = 7  # trailing note\n   \nk = 2\n"
        assert pl.parse_config_text(text) == {"seed": ["7"], "k": ["2"]}

    def test_repeats_accumulate(self):
        raw = pl.parse_config_text("input = a.csv\ninput = b.csv\n")
        assert raw["input"] == ["a.csv", "b.csv"]

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="config line 1"):
            pl.parse_config_text("seed 7\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError, match="config line 2"):
            pl.parse_config_text("seed = 1\nk =\n")

    def test_comment_swallowing_value_rejected(self):
        with pytest.raises(ValueError, match="empty key or value"):
            pl.parse_config_text("seed = # nothing left\n")


class TestBuildRunConfig:
    def test_defaults(self):
        config = pl.build_run_config({})
        assert config.inputs == ()
        assert config.synth is None
        assert config.out_dir == "out"
        assert config.seed == 0
        assert config.dprime == "elbow"
        assert config.k == "fpc"
        assert config.fuzzifier == 2.0
        assert config.space == "reduced"
        assert config.recluster is False
        assert config.experiments == ()
        assert config.perturb.trials == 100
        assert config.perturb.density_add_fraction == 1.0
        assert config.perturb.shrink_factor == 0.8
        assert config.perturb.sigma_divisor == 4.0
        assert config.perturb.max_rejection_attempts == 1000

    def test_unknown_keys_rejected_sorted(self):
        with pytest.raises(ValueError, match="unknown config keys: als, bogus"):
            pl.build_run_config({"bogus": ["1"], "als": ["2"]})

    def test_comma_lists_flatten(self):
        raw = {"input": ["a.csv,b.csv", "c.csv"], "experiments": ["outliers, density"]}
        config = pl.build_run_config(raw)
        assert config.inputs == ("a.csv", "b.csv", "c.csv")
        assert config.experiments == ("outliers", "density")

    def test_synth_block_defaults(self):
        config = pl.build_run_config({"synth.clusters": ["4"]})
        assert config.synth is not None
        assert config.synth.clusters == 4
        assert config.synth.cluster_size == 30
        assert config.synth.spread == 0.02
        assert config.synth.outliers == 0
        assert config.synth.outlier_mode == "far"

    def test_perturb_inherits_master_seed(self):
        config = pl.build_run_config({"seed": ["9"], "trials": ["17"]})
        assert config.perturb.seed == 9
        assert config.perturb.trials == 17

    def test_last_value_wins(self):
        config = pl.build_run_config({"seed": ["1", "2", "3"]})
        assert config.seed == 3

    def test_bad_integer_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            pl.build_run_config({"seed": ["xyz"]})

    def test_bad_float_rejected(self):
        with pytest.raises(ValueError, match="shrink must be a number"):
            pl.build_run_config({"shrink": ["wide"]})

    def test_bad_recluster_rejected(self):
        with pytest.raises(ValueError, match="recluster must be true or false"):
            pl.build_run_config({"recluster": ["maybe"]})

    def test_both_data_sources_rejected(self):
        raw = {"input": ["a.csv"], "synth.clusters": ["2"]}
        with pytest.raises(ValueError, match="not both"):
            pl.build_run_config(raw)

    def test_m_default_parses_to_two(self):
        assert pl.build_run_config({"m": ["default"]}).fuzzifier == 2.0

    def test_typed_numeric_settings(self):
        raw = {"dprime": ["5"], "k": ["4"], "m": ["2.5"]}
        config = pl.build_run_config(raw)
        assert config.dprime == 5
        assert config.k == 4
        assert config.fuzzifier == 2.5


class TestLoadRunConfig:
    def test_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("seed = 1\nout = from_file\n")
        config = pl.load_run_config(cfg, {"seed": ["2"]})
        assert config.seed == 2
        assert config.out_dir == "from_file"

    def test_empty_override_ignored(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("seed = 1\n")
        config = pl.load_run_config(cfg, {"seed": []})
        assert config.seed == 1

    def test_overrides_without_file(self):
        config = pl.load_run_config(None, {"synth.clusters": ["2"], "seed": ["8"]})
        assert config.synth is not None and config.synth.clusters == 2
        assert config.seed == 8


class TestConfigTable:
    """Names and values that the one table of config keys fixes."""

    def test_manifest_echo_of_a_synthetic_config(self):
        raw = {
            "out": ["o"], "seed": ["7"], "dprime": ["3"], "k": ["4"], "m": ["1.5"],
            "trials": ["9"], "shrink": ["0.5"], "density-fraction": ["0.25"],
            "sigma-divisor": ["3"], "max-rejection-attempts": ["50"],
            "recluster": ["true"], "space": ["original"],
            "experiments": ["density", "diameter"], "synth.clusters": ["5"],
            "synth.cluster-size": ["12"], "synth.spread": ["0.05"],
            "synth.outliers": ["2"], "synth.outlier-mode": ["near"],
        }
        assert pl.config_to_dict(pl.build_run_config(raw)) == {
            "input": [],
            "synth": {"clusters": 5, "cluster_size": 12, "spread": 0.05,
                      "outliers": 2, "outlier_mode": "near"},
            "out": "o", "seed": 7, "dprime": 3, "k": 4, "m": 1.5,
            "space": "original", "recluster": True,
            "experiments": ["density", "diameter"],
            "trials": 9, "shrink": 0.5, "density_fraction": 0.25,
            "sigma_divisor": 3.0, "max_rejection_attempts": 50,
        }

    def test_manifest_echo_of_a_readings_config(self):
        raw = {"input": ["a.csv,b.csv", "c.csv"]}
        assert pl.config_to_dict(pl.build_run_config(raw)) == {
            "input": ["a.csv", "b.csv", "c.csv"], "synth": None,
            "out": "out", "seed": 0, "dprime": "elbow", "k": "fpc", "m": 2.0,
            "space": "reduced", "recluster": False, "experiments": [],
            "trials": 100, "shrink": 0.8, "density_fraction": 1.0,
            "sigma_divisor": 4.0, "max_rejection_attempts": 1000,
        }

    def test_readme_config_block_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("cat > lab.cfg <<'EOF'\n", 1)[1].split("\nEOF", 1)[0]
        config = pl.build_run_config(pl.parse_config_text(block))
        assert config.synth == cvilab.SynthSpec(
            clusters=3, cluster_size=30, spread=0.02, outliers=3, seed=42
        )
        assert (config.seed, config.k, config.dprime, config.perturb.trials) == (
            42, 6, "elbow", 100
        )
        assert config.experiments == ("outliers", "density", "diameter")
        assert config.out_dir == "out"

    def test_repeated_flags_accumulate_like_the_file(self):
        parser = argparse.ArgumentParser()
        cli._add_flags(parser)
        args = parser.parse_args([
            "--input", "a.csv", "--input", "b.csv", "--experiments", "density",
            "--experiments", "diameter", "--seed", "1", "--seed", "2",
        ])
        config = pl.load_run_config(None, cli._overrides(args))
        assert config.inputs == ("a.csv", "b.csv")
        assert config.experiments == ("density", "diameter")
        assert config.seed == 2


def run_core_stages(config):
    """Data through indices, as the staged commands run them: every core
    artifact written and digested; returns the manifest they leave."""
    for stage in (pl.stage_data, pl.stage_cluster, pl.stage_validate):
        stage(config)
    return pl.load_manifest(config.out_dir)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    config = pl.build_run_config(small_raw(out))
    manifest = run_core_stages(config)
    pca_model, model, report = pl._load_stored(config, "pca.json", "cluster.json", "cvi.json")
    return out, config, pca_model, model, report, manifest


@pytest.fixture(scope="module")
def curve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve")
    config = pl.build_run_config(small_raw(out, k="fpc"))
    run_core_stages(config)
    return out


class TestRunPipeline:
    def test_core_artifacts_written(self, small_run):
        out, _, _, _, _, manifest = small_run
        for name in CORE_ARTIFACTS:
            assert (out / name).exists(), name
        assert sorted(manifest.artifacts) == sorted(CORE_ARTIFACTS)

    def test_manifest_verifies_clean(self, small_run):
        out = small_run[0]
        assert pl.verify_manifest(out) == []

    def test_tampering_detected(self, small_run):
        out = small_run[0]
        target = out / "cvi.json"
        original = target.read_bytes()
        try:
            target.write_bytes(original + b" ")
            assert pl.verify_manifest(out) == ["cvi.json"]
        finally:
            target.write_bytes(original)
        assert pl.verify_manifest(out) == []

    def test_missing_artifact_detected(self, small_run):
        out = small_run[0]
        target = out / "cevr.csv"
        original = target.read_bytes()
        try:
            target.unlink()
            assert pl.verify_manifest(out) == ["cevr.csv"]
        finally:
            target.write_bytes(original)

    def test_fixed_k_gives_single_fpc_row(self, small_run):
        out, _, _, model, _, _ = small_run
        lines = (out / "fpc.csv").read_text().strip().splitlines()
        assert lines[0] == "k,fpc"
        assert len(lines) == 2
        assert lines[1].startswith("3,")
        assert model.k == 3

    def test_fpc_selection_writes_full_curve(self, curve_run):
        lines = (curve_run / "fpc.csv").read_text().strip().splitlines()
        ks = [int(row.split(",")[0]) for row in lines[1:]]
        assert ks == list(range(2, 11))  # n=30 caps the sweep at k=10
        model = json.loads((curve_run / "cluster.json").read_text())
        assert len(model["centroids"]) == 3

    def test_curve_peak_matches_chosen_k(self, curve_run):
        lines = (curve_run / "fpc.csv").read_text().strip().splitlines()
        curve = [(int(k), float(v)) for k, v in (row.split(",") for row in lines[1:])]
        best_k = max(curve, key=lambda kv: (kv[1], -kv[0]))[0]
        assert best_k == 3

    def test_cluster_json_holds_the_fpc_not_the_memberships(self, curve_run):
        """Nothing reads the memberships and the FPC is taken at fit time, so
        cluster.json keeps the chosen fit's FPC: its row of fpc.csv."""
        model = json.loads((curve_run / "cluster.json").read_text())
        assert set(model) == {
            "centroids", "m", "labels", "objective_trace", "empty_clusters", "fpc",
        }
        lines = (curve_run / "fpc.csv").read_text().strip().splitlines()
        rows = dict(row.split(",") for row in lines[1:])
        assert "%.9g" % model["fpc"] == rows[str(len(model["centroids"]))]

    def test_synth_labels_align_with_profiles(self, small_run):
        out = small_run[0]
        prof = (out / "profiles.csv").read_text().strip().splitlines()
        labels = (out / "synth_labels.csv").read_text().strip().splitlines()
        assert labels[0] == "household_id,label"
        assert len(labels) == len(prof)
        prof_ids = [row.split(",")[0] for row in prof[1:]]
        label_ids = [row.split(",")[0] for row in labels[1:]]
        assert prof_ids == label_ids

    def test_report_artifacts(self, small_run):
        out, config, _, model, _, _ = small_run
        pl.emit_report(config)
        assert {"scatter2d.csv", "summary.txt"} <= pl.load_manifest(out).artifacts.keys()
        scatter = (out / "scatter2d.csv").read_text().strip().splitlines()
        assert scatter[0] == "x,y,cluster"
        assert len(scatter) == 31  # one row per household
        clusters = {int(row.split(",")[2]) for row in scatter[1:]}
        assert clusters <= set(range(model.k))
        summary = (out / "summary.txt").read_text()
        assert "households: 30" in summary
        assert "k: 3" in summary
        for name in ("sh", "ch", "db", "di", "xb"):
            assert name in summary

    @pytest.mark.parametrize("space", ["reduced", "original"])
    def test_cvi_json_is_the_crisp_report(self, tmp_path, space):
        """In either space, cvi.json scores the stored labels on that space's
        points as the experiments do: Xie-Beni is the crisp form."""
        config = pl.build_run_config(small_raw(tmp_path, space=space))
        run_core_stages(config)
        matrix, pca_model, model = pl._load_stored(config, *pl._FITTED)
        points = (matrix.values if space == "original"
                  else project(pca_model, matrix, pca_model.chosen_dprime))
        payload = json.loads((tmp_path / "cvi.json").read_text())
        assert set(payload) == {*cvilab.INDEX_NAMES, "k_effective", "degenerate_flags", "errors"}
        want = oracles.naive_xie_beni_crisp(points, model.labels)
        assert payload["xb"] == pytest.approx(want, rel=1e-10, abs=0)
        assert payload == cvi.report_to_dict(cvi.evaluate_labels(points, model.labels))

    def test_experiment_reuses_stored_artifacts(self, small_run):
        out = small_run[0]
        # no data source in this config: only the on-disk artifacts exist
        config = pl.build_run_config(
            {"out": [str(out)], "trials": ["2"], "seed": ["5"]}
        )
        report = pl.run_experiment("density", config)
        listed = pl.load_manifest(out).artifacts
        assert {"experiment_density.json", "experiment_density.csv"} <= listed.keys()
        # The report made stale is unlisted at once; its files (if an earlier
        # test wrote them) stay until the step that ends every command.
        assert not {"summary.txt", "scatter2d.csv"} & listed.keys()
        pl.remove_unlisted(out)
        assert sorted(listed) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert pl.verify_manifest(out) == []
        assert report.kind == "density"
        assert len(report.rows) == 2

    def test_experiment_without_baseline_or_source(self, tmp_path):
        config = pl.build_run_config({"out": [str(tmp_path / "void")]})
        with pytest.raises(FileNotFoundError) as err:
            pl.run_experiment("outliers", config)
        assert str(err.value) == "missing artifact: profiles.csv (run synth or preprocess first)"

    def test_unknown_experiment_kind(self, small_run):
        config = small_run[1]
        with pytest.raises(ValueError, match="unknown experiment kind"):
            pl.run_experiment("bogus", config)

    def test_stage_cluster_needs_profiles(self, tmp_path):
        config = pl.build_run_config({"out": [str(tmp_path / "bare")]})
        with pytest.raises(FileNotFoundError, match="profiles.csv"):
            pl.stage_cluster(config)

    def test_stage_validate_needs_models(self, tmp_path):
        out = tmp_path / "halfway"
        config = pl.build_run_config(small_raw(out))
        pl.stage_data(config)
        with pytest.raises(FileNotFoundError, match="pca.json"):
            pl.stage_validate(config)


def assert_models_bitwise_equal(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
            assert x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name


@pytest.fixture
def fitted_k(monkeypatch):
    """k of every fit_fcm call made during the test. The calls are
    recorded in this process, so the fits run here."""
    monkeypatch.setenv("CVILAB_THREADS", "1")
    ks = []
    real_fit = fcm_mod.fit_fcm

    def counting_fit(data, cfg):
        ks.append(cfg.k)
        return real_fit(data, cfg)

    monkeypatch.setattr(fcm_mod, "fit_fcm", counting_fit)
    return ks


class TestFitModels:
    def test_fpc_selection_keeps_the_winning_model(self, tmp_path, fitted_k):
        config = pl.build_run_config(small_raw(tmp_path, k="fpc"))
        matrix, _ = pl._load_profiles(config)
        pca_model, model, curve, _ = pl._fit_models(config, matrix)
        k_hi = min(fcm_mod.K_MAX_DEFAULT, len(matrix) - 1)
        assert fitted_k == list(range(2, k_hi + 1))  # k_hi - 1 fits, no refit
        k_star = max(curve, key=lambda kv: (kv[1], -kv[0]))[0]
        assert model.k == k_star
        reduced = project(pca_model, matrix, pca_model.chosen_dprime)
        template = fcm_mod.FcmConfig(k=k_star, fuzzifier=config.fuzzifier, seed=config.seed)
        refit = fcm_mod.fit_fcm(reduced, template)
        assert_models_bitwise_equal(model, refit)

    def test_fpc_selection_alike_at_every_worker_count(self, monkeypatch):
        """The k fits run in forked workers: same k, curve and model bits."""
        data = np.random.default_rng(4).normal(size=(60, 3))
        data[:20] += 6.0
        template = fcm_mod.FcmConfig(k=2, seed=5)
        runs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("CVILAB_THREADS", workers)
            runs.append(fcm_mod.select_cluster_count(data, template, (2, 6)))
        for curve, model in runs[1:]:
            assert curve == runs[0][0]
            assert_models_bitwise_equal(model, runs[0][1])

    def test_fixed_k_fits_once(self, tmp_path, fitted_k):
        config = pl.build_run_config(small_raw(tmp_path))
        matrix, _ = pl._load_profiles(config)
        _, model, curve, _ = pl._fit_models(config, matrix)
        assert fitted_k == [3]
        assert [k for k, _ in curve] == [3] and model.k == 3

    def test_fixed_k_is_fit_fcm_bit_for_bit(self, tmp_path, fitted_k):
        config = pl.build_run_config(small_raw(tmp_path, m="1.7"))
        matrix, _ = pl._load_profiles(config)
        pca_model, model, curve, _ = pl._fit_models(config, matrix)
        assert fitted_k == [3]
        reduced = project(pca_model, matrix, pca_model.chosen_dprime)
        alone = fcm_mod.fit_fcm(reduced, fcm_mod.FcmConfig(k=3, fuzzifier=1.7, seed=5))
        assert_models_bitwise_equal(model, alone)
        assert curve == [(3, alone.fpc)]


class TestManifestMerge:
    def test_later_updates_keep_earlier_entries(self, tmp_path):
        config = pl.build_run_config({"out": [str(tmp_path)]})
        pl._write(config, {"cvi.json": "alpha\n"})
        pl._write(config, {"experiment_density.json": "beta\n"})
        manifest = pl.load_manifest(tmp_path)
        assert sorted(manifest.artifacts) == ["cvi.json", "experiment_density.json"]
        assert pl.verify_manifest(tmp_path) == []

    def test_rewritten_artifact_gets_fresh_digest(self, tmp_path):
        config = pl.build_run_config({"out": [str(tmp_path)]})
        pl._write(config, {"cvi.json": "alpha\n"})
        first = pl.load_manifest(tmp_path).artifacts["cvi.json"]
        pl._write(config, {"cvi.json": "alpha prime\n"})
        second = pl.load_manifest(tmp_path).artifacts["cvi.json"]
        assert first != second
        assert pl.verify_manifest(tmp_path) == []


@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    """An output directory after synth, cluster, validate, the density
    experiment and report."""
    out = tmp_path_factory.mktemp("reported") / "out"
    argv = ["--synth.clusters", "3", "--synth.cluster-size", "10", "--seed", "5",
            "--k", "3", "--trials", "2", "--out", str(out)]
    for command in (["synth"], ["cluster"], ["validate"], ["experiment", "density"], ["report"]):
        assert cli.main([*command, *argv]) == 0
    return out


class TestStoredDigests:
    """A staged command checks each listed artifact's digest before it
    parses the bytes, so an edited artifact is a digest mismatch, not
    whatever its parser trips on."""

    @pytest.mark.parametrize("name, edit, command", [
        ("cluster.json", lambda text: '{"k": "x"}\n', "validate"),
        ("cvi.json", lambda text: "[]\n", "report"),
        ("pca.json", lambda text: "not json\n", "validate"),
        ("profiles.csv", lambda text: re.sub(r"\n([^,]*),[^,]*", r"\n\1,abc", text, count=1),
         "cluster"),
        ("experiment_density.json", lambda text: re.sub(r'"sh": [^,]*', '"sh": 0.5', text, count=1),
         "report"),
        ("experiment_density.json", lambda text: text[: len(text) // 2], "report"),
    ])
    def test_edited_artifact_is_a_digest_mismatch(
        self, capsys, reported, tmp_path, name, edit, command
    ):
        out = tmp_path / "out"
        shutil.copytree(reported, out)
        target = out / name
        edited = edit(target.read_text())
        assert edited != target.read_text()
        target.write_text(edited)
        err = cli_error(capsys, [command, "--out", str(out)])
        assert err == {"error": "RuntimeError", "message": f"artifact digest mismatch: {name}"}
        assert (out / "summary.txt").read_bytes() == (reported / "summary.txt").read_bytes()

    def test_reader_is_looked_up_when_called(self, small_run, monkeypatch):
        # perfbench times read_profiles_csv by replacing the module attribute
        calls = []
        original = pl.read_profiles_csv
        monkeypatch.setattr(pl, "read_profiles_csv", lambda data: calls.append(1) or original(data))
        pl._load_stored(small_run[1], "profiles.csv")
        assert calls == [1]


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    root = tmp_path_factory.mktemp("staged")
    out = root / "out"
    cfg = root / "lab.cfg"
    cfg.write_text(CANONICAL_CFG + f"experiments = outliers,density\nout = {out}\n")
    stages = [
        ["synth"],
        ["cluster"],
        ["validate"],
        ["experiment", "outliers"],
        ["experiment", "density"],
        ["report"],
    ]
    codes = [cli.main(argv + ["--config", str(cfg)]) for argv in stages]
    return out, cfg, codes


class TestStagedCli:
    def test_every_stage_succeeds(self, staged):
        assert staged[2] == [0, 0, 0, 0, 0, 0]

    def test_manifest_accumulates_across_stages(self, staged):
        out = staged[0]
        manifest = pl.load_manifest(out)
        expected = CORE_ARTIFACTS + [
            "experiment_outliers.json",
            "experiment_outliers.csv",
            "experiment_density.json",
            "experiment_density.csv",
            "summary.txt",
            "scatter2d.csv",
        ]
        assert sorted(manifest.artifacts) == sorted(expected)
        assert pl.verify_manifest(out) == []

    def test_manifest_echoes_config(self, staged):
        manifest = pl.load_manifest(staged[0])
        assert manifest.seed == 42
        assert manifest.config["seed"] == 42
        assert manifest.config["k"] == 6
        assert manifest.config["experiments"] == ["outliers", "density"]
        assert manifest.config["synth"]["clusters"] == 3
        assert manifest.config["synth"]["cluster_size"] == 30
        assert manifest.input_digests["synth"] == manifest.artifacts["profiles.csv"]

    def test_outlier_rows_cover_every_subset(self, staged):
        out = staged[0]
        report = perturb.experiment_from_dict(
            json.loads((out / "experiment_outliers.json").read_text())
        )
        variants = [row.variant for row in report.rows]
        assert len(variants) == 8  # three far outliers, 2^3 subsets
        singles = list(report.rows[-1].kept)
        assert singles == sorted(singles) and len(singles) == 3
        expected = []
        for code in range(8):
            kept = tuple(
                s for j, s in enumerate(singles) if code & (1 << (len(singles) - 1 - j))
            )
            expected.append(",".join(str(c) for c in kept) or "none")
            assert report.rows[code].kept == kept
        assert variants == expected

    def test_stored_verdicts_match_rejudged(self, staged):
        out = staged[0]
        for kind in ("outliers", "density"):
            report = perturb.experiment_from_dict(
                json.loads((out / f"experiment_{kind}.json").read_text())
            )
            assert perturb.judge_hypothesis(report) == report.verdict_map()

    def test_summary_covers_experiments(self, staged):
        summary = (staged[0] / "summary.txt").read_text()
        assert "experiment: outliers" in summary
        assert "experiment: density" in summary
        report = perturb.experiment_from_dict(
            json.loads((staged[0] / "experiment_outliers.json").read_text())
        )
        for verdict in report.verdict_map().values():
            assert verdict in summary

    def test_scatter_row_per_household(self, staged):
        lines = (staged[0] / "scatter2d.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,cluster"
        assert len(lines) == 94  # 90 members + 3 outliers + header

    @pytest.mark.parametrize("kind, edit", [
        ("outliers", lambda payload: payload["rows"].pop()),
        ("density", lambda payload: payload.update(rows=[])),
    ], ids=["outliers-last-row-dropped", "density-no-rows"])
    def test_record_that_cannot_be_judged_is_malformed(
        self, capsys, staged, tmp_path, kind, edit
    ):
        """A listed record whose digest matches but whose verdicts cannot be
        derived again is a malformed artifact, not the judge's own error."""
        out = tmp_path / "out"
        shutil.copytree(staged[0], out)
        name = f"experiment_{kind}.json"
        payload = json.loads((out / name).read_text())
        edit(payload)
        text = json.dumps(payload)
        (out / name).write_text(text)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"][name] = hashlib.sha256(text.encode()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        err = cli_error(capsys, ["report", "--out", str(out)])
        assert err == {"error": "ValueError", "message": f"malformed artifact: {name}"}


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cfg = root / "lab.cfg"
    cfg.write_text(CANONICAL_CFG + "experiments = outliers,density,diameter\n")

    def run_with_threads(name, threads):
        out = root / name
        saved = os.environ.pop("CVILAB_THREADS", None)
        if threads is not None:
            os.environ["CVILAB_THREADS"] = threads
        try:
            rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        finally:
            os.environ.pop("CVILAB_THREADS", None)
            if saved is not None:
                os.environ["CVILAB_THREADS"] = saved
        return rc, out

    runs = [run_with_threads("r1", None), run_with_threads("r2", "1"),
            run_with_threads("r3", "6")]
    return cfg, runs


class TestRunCommand:
    def test_run_succeeds_and_writes_everything(self, full_runs):
        _, runs = full_runs
        assert [rc for rc, _ in runs] == [0, 0, 0]
        out = runs[0][1]
        names = sorted(p.name for p in out.iterdir())
        expected = sorted(
            CORE_ARTIFACTS
            + [f"experiment_{kind}.{ext}"
               for kind in ("outliers", "density", "diameter")
               for ext in ("json", "csv")]
            + ["summary.txt", "scatter2d.csv", "manifest.json"]
        )
        assert names == expected

    def test_identical_artifacts_across_directories_and_threads(self, full_runs):
        _, runs = full_runs
        d1, d2, d3 = (out for _, out in runs)
        names = sorted(p.name for p in d1.iterdir())
        assert sorted(p.name for p in d2.iterdir()) == names
        assert sorted(p.name for p in d3.iterdir()) == names
        for name in names:
            if name == "manifest.json":
                continue  # carries a timestamp and the output path
            bytes1 = (d1 / name).read_bytes()
            assert bytes1 == (d2 / name).read_bytes(), name
            assert bytes1 == (d3 / name).read_bytes(), name

    def test_summary_prints_one_baseline_per_index(self, full_runs):
        """summary.txt's baseline indices are the outliers table's baseline
        cells: one partition has one score per index."""
        lines = (full_runs[1][0][1] / "summary.txt").read_text().splitlines()

        def column(title):
            start = lines.index(title) + 2  # past the title and the header row
            return {row.split()[0]: row.split()[1] for row in lines[start:start + 5]}

        outliers = next(line for line in lines if line.startswith("experiment: outliers ("))
        assert list(column("baseline indices")) == list(cvilab.INDEX_NAMES)
        assert column("baseline indices") == column(outliers)

    def test_manifests_agree_modulo_timestamp_and_out(self, full_runs):
        _, runs = full_runs
        payloads = []
        for _, out in runs[:2]:
            payload = json.loads((out / "manifest.json").read_text())
            payload.pop("created_utc")
            payload["config"].pop("out")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_seed_flag_overrides_config(self, full_runs, tmp_path):
        cfg, runs = full_runs
        out = tmp_path / "seed43"
        rc = cli.main(["synth", "--config", str(cfg), "--out", str(out),
                       "--seed", "43"])
        assert rc == 0
        baseline = (runs[0][1] / "profiles.csv").read_bytes()
        assert (out / "profiles.csv").read_bytes() != baseline

    def test_experiment_command_needs_a_fitted_partition(self, full_runs, tmp_path, capsys):
        # A data source in the config does not stand in for the stored
        # partition: the experiment command runs no earlier stage.
        cfg, _ = full_runs
        out = tmp_path / "bare"
        argv = ["experiment", "outliers", "--config", str(cfg), "--out", str(out)]
        assert cli_error(capsys, argv) == {
            "error": "FileNotFoundError",
            "message": "missing artifact: profiles.csv (run synth or preprocess first)",
        }
        assert not out.exists()
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_error(capsys, argv) == {
            "error": "FileNotFoundError", "message": "missing artifact: pca.json (run cluster first)",
        }
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "profiles.csv", "synth_labels.csv"]

    def test_failed_run_guards_what_it_wrote(self, tmp_path, capsys, monkeypatch):
        """A run that fails part-way, in a fresh or a used directory, leaves
        a manifest of every artifact it wrote and no other artifact, so an
        edit to one of them still fails the next command."""
        def flags(out):
            return [f"--{key}={value}" for key, values in small_raw(out).items()
                    for value in values]

        used = tmp_path / "used"
        assert cli.main(["run", *flags(used), "--synth.outliers", "1", "--trials", "2",
                         "--experiments", "outliers,density,diameter"]) == 0

        def fail(*args, **kwargs):
            raise MemoryError("cannot allocate the injected points")

        monkeypatch.setattr(perturb, "density_experiment", fail)
        for out in (tmp_path / "fresh", used):
            assert cli_error(capsys, ["run", *flags(out), "--experiments", "density"]) == {
                "error": "MemoryError", "message": "cannot allocate the injected points"}
            files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            assert sorted(pl.load_manifest(out).artifacts) == files == sorted(CORE_ARTIFACTS)

            (out / "cvi.json").write_text((out / "cvi.json").read_text().replace("0", "1"))
            assert cli_error(capsys, ["report", "--out", str(out)]) == {
                "error": "RuntimeError", "message": "artifact digest mismatch: cvi.json"}


class TestRunFull:
    def test_library_run_leaves_the_manifest_the_cli_run_leaves(self, tmp_path):
        """Called from Python, run_full leaves a manifest that verifies,
        lists every file beside it, and equals the CLI's but for its time."""
        out = tmp_path / "out"
        raw = small_raw(out, trials="2", experiments="outliers,density")
        pl.run_full(pl.build_run_config(raw))
        library = pl.load_manifest(out)
        assert pl.verify_manifest(out) == []
        files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(library.artifacts) == files
        assert "experiment_outliers.csv" not in files  # skipped: no singleton

        argv = [f"--{key}={value}" for key, values in raw.items() for value in values]
        assert cli.main(["run", *argv]) == 0
        command = pl.load_manifest(out)
        assert (dataclasses.replace(command, created_utc="")
                == dataclasses.replace(library, created_utc=""))

    def test_python_config_runs_at_its_own_seed(self, tmp_path):
        """A RunConfig built in Python draws the population and every trial
        from its one seed, as ``--seed`` does."""
        config = pl.RunConfig(
            synth=cvilab.SynthSpec(clusters=3, cluster_size=10), seed=7, k=3,
            experiments=("density",), perturb=perturb.PerturbConfig(trials=2),
            out_dir=str(tmp_path / "python"),
        )
        assert (config.synth.seed, config.perturb.seed) == (7, 7)
        pl.run_full(config)
        assert cli.main(["run", "--synth.clusters", "3", "--synth.cluster-size", "10",
                         "--seed", "7", "--k", "3", "--experiments", "density",
                         "--trials", "2", "--out", str(tmp_path / "cli")]) == 0
        for name in ("profiles.csv", "synth_labels.csv", "experiment_density.json",
                     "experiment_density.csv"):
            assert ((tmp_path / "python" / name).read_bytes()
                    == (tmp_path / "cli" / name).read_bytes()), name


class TestRecluster:
    def test_each_variant_is_refit_at_its_own_cluster_count(self, tmp_path):
        """The model has k = 5 (3 clusters and 2 singletons); the refits
        keep the clusters a variant has, so removing both singletons gives
        back the singleton-free baseline."""
        raw = {"synth.clusters": ["3"], "synth.cluster-size": ["20"], "synth.outliers": ["2"],
               "trials": ["6"], "recluster": ["true"], "out": [str(tmp_path)],
               "experiments": ["outliers,density,diameter"]}
        pl.run_full(pl.build_run_config(raw))
        model, outliers, density, diameter = pl._load_stored(
            pl.build_run_config(raw), "cluster.json",
            *(f"experiment_{kind}.json" for kind in ("outliers", "density", "diameter")))
        assert model.k == 5
        # The refit may number the clusters otherwise: equal up to summation order.
        none_kept = outliers.rows[0].report.value_map()
        assert none_kept == pytest.approx(density.baseline.value_map(), rel=1e-12)
        assert [row.report.k_effective for row in outliers.rows] == [3, 4, 4, 5]
        for report in (density, diameter):
            assert report.baseline.k_effective == 3
            assert {row.report.k_effective for row in report.rows} == {3}
        assert density.verdict_map()["sh"] == "POSITIVE"


@pytest.fixture(scope="module")
def readings_csv(tmp_path_factory):
    """Eight meters, one full day each, two distinct daily shapes."""
    root = tmp_path_factory.mktemp("meas")
    rng = np.random.default_rng(7)
    lines = ["household_id,timestamp,kw"]
    for house in range(8):
        evening = house % 2 == 1
        for slot in range(96):
            active = 72 <= slot < 84 if evening else 32 <= slot < 44
            kw = 0.4 + (0.9 if active else 0.0) + 0.01 * rng.standard_normal()
            stamp = f"2024-03-01T{slot // 4:02d}:{slot % 4 * 15:02d}:00+00:00"
            lines.append(f"H{house:02d},{stamp},{max(kw, 0.01):.4f}")
    path = root / "readings.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReadingsFlow:
    def test_preprocess_cluster_validate(self, readings_csv, tmp_path):
        out = tmp_path / "meas_out"
        rc = cli.main(["preprocess", "--input", str(readings_csv), "--out", str(out)])
        assert rc == 0
        manifest = pl.load_manifest(out)
        assert str(readings_csv) in manifest.input_digests
        profiles = (out / "profiles.csv").read_text().strip().splitlines()
        assert len(profiles) == 9
        assert profiles[0].startswith("household_id,t0000,t0015,")

        assert cli.main(["cluster", "--out", str(out), "--k", "2",
                         "--dprime", "2"]) == 0
        assert cli.main(["validate", "--out", str(out)]) == 0

        model = json.loads((out / "cluster.json").read_text())
        labels = model["labels"]
        assert len(model["centroids"]) == 2
        # morning meters (even index) and evening meters split cleanly
        assert len(set(labels[0::2])) == 1
        assert len(set(labels[1::2])) == 1
        assert labels[0] != labels[1]
        assert pl.verify_manifest(out) == []


def write_readings(path, rows):
    path.write_text("\n".join(["household_id,timestamp,kw", *rows]) + "\n")
    return path


def day_rows(hid, day, kw, slots=range(96)):
    """One reading per slot of ``day``; ``kw`` is a value or a function of the slot."""
    return [
        f"{hid},{day}T{s // 4:02d}:{s % 4 * 15:02d}:00Z,{kw(s) if callable(kw) else kw}"
        for s in slots
    ]


def preprocess_argv(out, *inputs):
    argv = ["preprocess", "--out", str(out)]
    for path in inputs:
        argv += ["--input", str(path)]
    return argv


class TestSeveralInputs:
    """preprocess over several readings files: each file is read and
    checked on its own, and the households come out in sorted id order."""

    def test_input_order_gives_the_same_bytes(self, tmp_path):
        a = write_readings(tmp_path / "a.csv", day_rows("H02", "2024-03-01", lambda s: s / 8)
                           + day_rows("H00", "2024-03-01", lambda s: 1 + s % 5))
        b = write_readings(tmp_path / "b.csv", day_rows("H03", "2024-03-02", 0.25)
                           + day_rows("H01", "2024-03-01", lambda s: 7 - s % 3))
        outs = [tmp_path / "ab", tmp_path / "ba"]
        assert cli.main(preprocess_argv(outs[0], a, b)) == 0
        assert cli.main(preprocess_argv(outs[1], b, a)) == 0
        stored = [(out / "profiles.csv").read_bytes() for out in outs]
        assert stored[0] == stored[1]
        rows = stored[0].decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["H00", "H01", "H02", "H03"]

    def test_household_in_two_files_is_not_merged(self, capsys, tmp_path):
        a = write_readings(tmp_path / "a.csv", day_rows("H00", "2024-03-01", 1.0))
        b = write_readings(tmp_path / "b.csv", day_rows("H00", "2024-03-02", 2.0)
                           + day_rows("H01", "2024-03-02", 2.0))
        for inputs in ((a, b), (b, a)):
            err = cli_error(capsys, preprocess_argv(tmp_path / "out", *inputs))
            assert err == {"error": "ValueError", "message": "household ids must be unique"}

    def test_parse_error_in_a_later_file_beats_a_median_error(self, capsys, tmp_path):
        gappy = write_readings(tmp_path / "a.csv", day_rows("H00", "2024-03-01", 1.0)[:-1])
        bad = write_readings(tmp_path / "b.csv", ["H01,2024-03-01T00:00:00Z,1.0",
                                                  "H01,2024-03-01T00:15:00Z,x"])
        err = cli_error(capsys, preprocess_argv(tmp_path / "out", gappy, bad))
        assert err == {"error": "CsvFormatError", "message": "line 3: bad kW value 'x'"}

    @pytest.mark.parametrize("command", ["preprocess", "run"])
    def test_header_only_file_fails_before_the_output_is_touched(
        self, capsys, tmp_path, command
    ):
        good = write_readings(tmp_path / "a.csv", day_rows("H00", "2024-03-01", 1.0)
                              + day_rows("H01", "2024-03-01", lambda s: 1 + s % 4))
        empty = write_readings(tmp_path / "hdr.csv", [])
        out = tmp_path / "out"
        assert cli.main(preprocess_argv(out, good)) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        argv = [command, "--input", str(good), "--input", str(empty), "--k", "2",
                "--out", str(out)]
        # The command's own error, over the manifest written above, then over one
        # that does not parse, which the failed command's end must leave alone.
        for manifest in (None, b"not json\n"):
            if manifest is not None:
                (out / "manifest.json").write_bytes(manifest)
                before["manifest.json"] = manifest
            err = cli_error(capsys, argv)
            assert err == {"error": "CsvFormatError",
                           "message": "line 2: no readings after the header"}
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("zero, gappy, expected", [
        ("a", "b", ("ZeroProfileError", "all-zero profile cannot be normalized")),
        ("b", "a", ("MissingSlotError",
                    "household a: no observations for 1 slot(s), first missing slot 95")),
    ])
    def test_first_household_error_wins(self, capsys, tmp_path, zero, gappy, expected):
        # Whichever kind it is: checking every slot before any scaling
        # would let the missing slot of b win over the zero profile of a.
        readings = write_readings(tmp_path / "r.csv", day_rows(gappy, "2024-03-01", 1.0)[:-1]
                                  + day_rows(zero, "2024-03-01", 0.0))
        err = cli_error(capsys, preprocess_argv(tmp_path / "out", readings))
        assert (err["error"], err["message"]) == expected

    def test_slot_of_negative_zeros_keeps_its_sign(self, tmp_path):
        rows = []
        for day in ("2024-03-01", "2024-03-02"):
            rows += day_rows("H00", day, lambda s: "-0.0" if s == 5 else 1 + s / 4)
        out = tmp_path / "out"
        assert cli.main(preprocess_argv(out, write_readings(tmp_path / "r.csv", rows))) == 0
        header, row = (out / "profiles.csv").read_text().splitlines()
        assert header.split(",")[6] == "t0115"
        assert row.split(",")[6] == "-0.0"


class TestInputDigests:
    def test_each_input_hashed_once_per_staged_sequence(
        self, readings_csv, tmp_path, monkeypatch
    ):
        hashed = []
        real_sha256 = pl._sha256

        def counting_sha256(path):
            hashed.append(Path(path))
            return real_sha256(path)

        monkeypatch.setattr(pl, "_sha256", counting_sha256)
        out = tmp_path / "out"
        common = ["--input", str(readings_csv), "--out", str(out), "--k", "2"]
        for command in ("preprocess", "cluster", "validate", "report"):
            assert cli.main([command, *common]) == 0
        assert hashed.count(readings_csv) == 1
        digests = pl.load_manifest(out).input_digests
        assert digests == {str(readings_csv): real_sha256(readings_csv)}

    def test_later_command_without_input_keeps_the_digest(self, readings_csv, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["preprocess", "--input", str(readings_csv), "--out", str(out)]) == 0
        recorded = pl.load_manifest(out).input_digests
        assert cli.main(["cluster", "--out", str(out), "--k", "2", "--dprime", "2"]) == 0
        assert pl.load_manifest(out).input_digests == recorded
        assert recorded == {str(readings_csv): pl._sha256(readings_csv)}

    def test_synth_digest_follows_profiles(self, tmp_path):
        out = tmp_path / "out"
        argv = ["--synth.clusters", "3", "--synth.cluster-size", "10",
                "--seed", "5", "--k", "3", "--out", str(out)]
        assert cli.main(["synth", *argv]) == 0
        assert cli.main(["cluster", "--out", str(out), "--k", "3"]) == 0
        digests = pl.load_manifest(out).input_digests
        assert digests == {"synth": pl._sha256(out / "profiles.csv")}


@pytest.fixture(scope="module")
def skipped_run(tmp_path_factory):
    """No outliers: the partition has no singleton to toggle."""
    out = tmp_path_factory.mktemp("skip") / "out"
    argv = ["--synth.clusters", "3", "--synth.cluster-size", "10",
            "--synth.outliers", "0", "--seed", "5", "--k", "3",
            "--experiments", "outliers,diameter", "--trials", "2", "--out", str(out)]
    return out, argv, cli.main(["run", *argv])


class TestSkippedExperiment:
    def test_run_records_the_skip_and_succeeds(self, skipped_run):
        out, _, rc = skipped_run
        assert rc == 0
        payload = json.loads((out / "experiment_outliers.json").read_text())
        assert payload == {"kind": "outliers", "skipped": "no singleton clusters to toggle"}
        assert not (out / "experiment_outliers.csv").exists()
        assert (out / "experiment_diameter.csv").exists()
        manifest = pl.load_manifest(out)
        assert "experiment_outliers.json" in manifest.artifacts
        assert "experiment_outliers.csv" not in manifest.artifacts
        assert pl.verify_manifest(out) == []

    def test_summary_names_the_skip(self, skipped_run):
        summary = (skipped_run[0] / "summary.txt").read_text().splitlines()
        assert "experiment: outliers skipped (no singleton clusters to toggle)" in summary
        assert any(line.startswith("experiment: diameter (2 trials)") for line in summary)

    def test_report_command_reads_the_skip(self, skipped_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(skipped_run[0], out)
        (out / "summary.txt").unlink()
        assert cli.main(["report", "--out", str(out)]) == 0
        assert (out / "summary.txt").read_bytes() == (skipped_run[0] / "summary.txt").read_bytes()

    def test_experiment_command_records_the_skip(self, skipped_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(skipped_run[0], out)
        (out / "experiment_outliers.json").unlink()
        assert cli.main(["experiment", "outliers", *skipped_run[1], "--out", str(out)]) == 0
        assert ((out / "experiment_outliers.json").read_bytes()
                == (skipped_run[0] / "experiment_outliers.json").read_bytes())
        assert pl.verify_manifest(out) == []

    @pytest.mark.parametrize("flags, reason", [
        # In 96 dimensions a per-axis sigma of radius/4 lands draws about
        # 2.4 radii out, so the sampler never accepts one.
        (["--synth.cluster-size", "30", "--synth.outliers", "2"],
         "no acceptable sample for cluster 0 in 1000 attempts"),
        (["--synth.cluster-size", "4", "--synth.spread", "0", "--k", "3"],
         "cluster 0 has zero radius"),
    ], ids=["rejection-budget", "zero-radius"])
    def test_sampler_that_cannot_draw(self, tmp_path, monkeypatch, flags, reason):
        """Alike in the process and when the trials fail in workers, and in
        the staged command, which rewrites the same record and drops the
        report; a following report restores it."""
        for workers in ("1", "3"):
            monkeypatch.setenv("CVILAB_THREADS", workers)
            out = tmp_path / f"out{workers}"
            argv = ["--synth.clusters", "3", *flags, "--space", "original", "--seed", "1",
                    "--experiments", "density", "--trials", "5", "--out", str(out)]
            assert cli.main(["run", *argv]) == 0
            payload = json.loads((out / "experiment_density.json").read_text())
            assert payload == {"kind": "density", "skipped": reason}
            assert f"experiment: density skipped ({reason})" in (out / "summary.txt").read_text()
            assert pl.verify_manifest(out) == []
            ran = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            assert cli.main(["experiment", "density", *argv]) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()
                    if p.name != "manifest.json"} == {
                name: data for name, data in ran.items()
                if name not in ("summary.txt", "scatter2d.csv")}
            assert pl.verify_manifest(out) == []
            assert cli.main(["report", *argv]) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()
                    if p.name != "manifest.json"} == ran
            assert pl.verify_manifest(out) == []


class TestStaleArtifacts:
    """A run into a used output directory leaves and lists only what it
    wrote itself, and a staged command removes what was computed from what
    it replaces."""

    def test_recluster_drops_what_the_old_partition_made(self, capsys, tmp_path):
        out = tmp_path / "out"
        argv = ["--synth.clusters", "3", "--synth.cluster-size", "10", "--seed", "5",
                "--trials", "2", "--out", str(out)]
        for command in (["synth"], ["cluster", "--k", "3"], ["validate"],
                        ["experiment", "density"], ["report"]):
            assert cli.main([*command, *argv]) == 0
        longer = (out / "manifest.json").stat().st_size
        assert cli.main(["cluster", "--k", "4", *argv]) == 0
        assert (out / "manifest.json").stat().st_size < longer  # rewritten shorter, in place
        gone = ["cvi.json", "experiment_density.json", "experiment_density.csv",
                "summary.txt", "scatter2d.csv"]
        listed = pl.load_manifest(out).artifacts
        for name in gone:
            assert not (out / name).exists(), name
            assert name not in listed, name
        assert pl.verify_manifest(out) == []
        err = cli_error(capsys, ["report", *argv])
        assert err == {"error": "FileNotFoundError",
                       "message": "missing artifact: cvi.json (run validate first)"}
        for command in ("validate", "report"):
            assert cli.main([command, *argv]) == 0
        k_effective = json.loads((out / "cvi.json").read_text())["k_effective"]
        assert f"k: {k_effective}" in (out / "summary.txt").read_text().splitlines()

    def test_validate_after_report_drops_the_report(self, tmp_path):
        out = tmp_path / "out"
        argv = ["--synth.clusters", "3", "--synth.cluster-size", "10", "--seed", "5",
                "--k", "3", "--out", str(out)]
        for command in ("synth", "cluster", "validate", "report", "validate"):
            assert cli.main([command, *argv]) == 0
        assert not (out / "summary.txt").exists()
        assert not (out / "scatter2d.csv").exists()
        assert pl.verify_manifest(out) == []

    def test_rerun_drops_what_it_no_longer_writes(self, tmp_path):
        out = tmp_path / "out"
        argv = ["run", "--synth.clusters", "3", "--synth.cluster-size", "10",
                "--seed", "5", "--k", "4", "--trials", "2", "--out", str(out)]
        assert cli.main([*argv, "--synth.outliers", "1",
                         "--experiments", "outliers,density"]) == 0
        assert (out / "experiment_outliers.csv").exists()
        assert cli.main([*argv, "--synth.outliers", "0",
                         "--experiments", "outliers,density"]) == 0
        assert "skipped" in json.loads((out / "experiment_outliers.json").read_text())
        assert not (out / "experiment_outliers.csv").exists()
        assert "experiment_outliers.csv" not in pl.load_manifest(out).artifacts
        assert pl.verify_manifest(out) == []

        assert cli.main([*argv, "--experiments", "density"]) == 0
        assert not (out / "experiment_outliers.json").exists()
        assert "experiment: outliers" not in (out / "summary.txt").read_text()
        manifest = pl.load_manifest(out)
        assert sorted(manifest.artifacts) == sorted(p.name for p in out.iterdir()
                                                    if p.name != "manifest.json")
        assert pl.verify_manifest(out) == []

    def test_readings_after_synth_drop_the_synthetic_labels(self, readings_csv, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["synth", "--synth.clusters", "3", "--out", str(out)]) == 0
        assert (out / "synth_labels.csv").exists()
        assert cli.main(["preprocess", "--input", str(readings_csv), "--out", str(out)]) == 0
        assert not (out / "synth_labels.csv").exists()
        assert sorted(pl.load_manifest(out).artifacts) == ["profiles.csv"]
        assert pl.verify_manifest(out) == []


def spy_writes_and_unlinks(monkeypatch, out):
    """Events in ``out``, in order: ("write", name) for each file written and
    ("unlink", name) for each existing file unlinked, by Path.unlink or
    os.unlink (which Path.unlink calls: counted once)."""
    events = []
    real_overwrite, real_path_unlink, real_os_unlink = pl._overwrite, Path.unlink, os.unlink
    inside_path_unlink = []

    def overwrite(path, data):
        events.append(("write", Path(path).name))
        real_overwrite(path, data)

    def os_unlink(path, *args, **kwargs):
        if not inside_path_unlink and Path(path).parent == out and os.path.lexists(path):
            events.append(("unlink", Path(path).name))
        real_os_unlink(path, *args, **kwargs)

    def path_unlink(self, missing_ok=False):
        if self.parent == out and os.path.lexists(self):
            events.append(("unlink", self.name))
        inside_path_unlink.append(self)
        try:
            real_path_unlink(self, missing_ok=missing_ok)
        finally:
            inside_path_unlink.pop()

    monkeypatch.setattr(pl, "_overwrite", overwrite)
    monkeypatch.setattr(Path, "unlink", path_unlink)
    monkeypatch.setattr(os, "unlink", os_unlink)
    return events


class TestManifestIsTheIndex:
    """No command reads an artifact the manifest does not list, and each
    command removes what its manifest no longer lists once, when it ends."""

    PLAN = ["--synth.clusters", "3", "--synth.cluster-size", "20", "--synth.outliers", "2",
            "--trials", "3"]

    def test_foreign_record_is_neither_reported_nor_kept(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", *self.PLAN, "--experiments", "density", "--out", str(a)]) == 0
        summary = (a / "summary.txt").read_bytes()
        assert cli.main(["run", *self.PLAN, "--seed", "5", "--experiments", "density,diameter",
                         "--out", str(b)]) == 0
        shutil.copy(b / "experiment_diameter.json", a)
        assert cli.main(["report", *self.PLAN, "--out", str(a)]) == 0
        assert "experiment: diameter" not in (a / "summary.txt").read_text()
        assert (a / "summary.txt").read_bytes() == summary
        assert not (a / "experiment_diameter.json").exists()
        assert pl.verify_manifest(a) == []

    RERUN = ["run", "--synth.clusters", "3", "--synth.cluster-size", "10", "--synth.outliers",
             "1", "--seed", "5", "--k", "4", "--trials", "2"]

    def test_same_config_rerun_unlinks_nothing(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        argv = [*self.RERUN, "--experiments", "outliers,density,diameter", "--out", str(out)]
        assert cli.main(argv) == 0
        ran = directory_bytes(out)
        events = spy_writes_and_unlinks(monkeypatch, out)
        assert cli.main(argv) == 0
        assert [name for event, name in events if event == "unlink"] == []
        assert ("write", "manifest.json") in events  # the spy saw the run
        assert directory_bytes(out) == ran

    def test_dropped_experiments_go_once_after_the_last_write(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert cli.main([*self.RERUN, "--experiments", "outliers,density,diameter",
                         "--out", str(out)]) == 0
        assert (out / "experiment_outliers.csv").exists()
        events = spy_writes_and_unlinks(monkeypatch, out)
        assert cli.main([*self.RERUN, "--experiments", "density", "--out", str(out)]) == 0
        unlinks = [index for index, (event, _) in enumerate(events) if event == "unlink"]
        assert sorted(events[index][1] for index in unlinks) == [
            "experiment_diameter.csv", "experiment_diameter.json",
            "experiment_outliers.csv", "experiment_outliers.json"]
        last_write = max(index for index, (event, _) in enumerate(events) if event == "write")
        assert min(unlinks) > last_write
        assert sorted(pl.load_manifest(out).artifacts) == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json")
        assert pl.verify_manifest(out) == []

    def test_command_error_wins_over_a_failed_removal(self, capsys, tmp_path):
        out = tmp_path / "sq"
        assert cli.main(["synth", "--synth.clusters", "2", "--out", str(out)]) == 0
        (out / "summary.txt").mkdir()  # unlisted, and no unlink removes it
        err = cli_error(capsys, ["cluster", "--k", "99", "--out", str(out)])
        assert err["error"] == "ValueError" and "k range" in err["message"]
        # After a command that succeeded, the failed removal is the error.
        err = cli_error(capsys, ["synth", "--synth.clusters", "2", "--out", str(out)])
        assert err["error"] == "IsADirectoryError"


def directory_bytes(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


class TestInPlaceWrites:
    """Every file of the output directory is overwritten in place: never
    truncated to zero first, never written through a symlink."""

    SYNTH = ["--synth.clusters", "3", "--synth.cluster-size", "10", "--synth.outliers", "1",
             "--seed", "5", "--k", "4"]

    def test_no_write_truncates_an_existing_file(self, tmp_path, monkeypatch):
        """Path.write_bytes and write_text open through io.open; a raw
        descriptor through os.open. Neither may truncate a file that is there."""
        out = tmp_path / "out"
        opened = []  # (name, truncating, existed) of each open for writing in out

        real_io_open, real_os_open = io.open, os.open

        def record(file, writing, truncating):
            if writing and isinstance(file, (str, os.PathLike)) and Path(file).parent == out:
                opened.append((Path(file).name, truncating, os.path.lexists(file)))

        def io_open(file, mode="r", *args, **kwargs):
            record(file, bool(set(mode) & set("wax+")), "w" in mode)
            return real_io_open(file, mode, *args, **kwargs)

        def os_open(path, flags, *args, **kwargs):
            record(path, bool(flags & (os.O_WRONLY | os.O_RDWR)), bool(flags & os.O_TRUNC))
            return real_os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(io, "open", io_open)
        monkeypatch.setattr(builtins, "open", io_open)
        monkeypatch.setattr(os, "open", os_open)
        argv = [*self.SYNTH, "--trials", "2", "--out", str(out)]
        for command in (["run", "--experiments", "outliers,density"], ["run"], ["synth"],
                        ["cluster"], ["validate"], ["experiment", "diameter"], ["report"]):
            assert cli.main([*command, *argv]) == 0
        assert [name for name, truncating, existed in opened if truncating and existed] == []
        assert ("manifest.json", False, True) in opened  # the spy saw the rewrites

    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        """A run over a larger one, then an experiment over a longer record
        of itself, leave what a fresh run leaves."""
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        second = ["run", *self.SYNTH, "--trials", "3", "--experiments", "density"]
        assert cli.main([*second, "--out", str(fresh)]) == 0
        assert cli.main(["run", *self.SYNTH, "--synth.cluster-size", "12", "--trials", "100",
                         "--experiments", "outliers,density,diameter", "--out", str(used)]) == 0
        longer = directory_bytes(used)
        assert cli.main([*second, "--out", str(used)]) == 0
        assert directory_bytes(used) == directory_bytes(fresh)
        assert len(longer["profiles.csv"]) > len(directory_bytes(used)["profiles.csv"])
        assert pl.verify_manifest(used) == []

        staged = [*self.SYNTH, "--out", str(used)]
        for command in (["experiment", "density", "--trials", "100"],
                        ["experiment", "density", "--trials", "3"], ["report"]):
            assert cli.main([*command, *staged]) == 0
        assert directory_bytes(used) == directory_bytes(fresh)
        assert pl.verify_manifest(used) == []

    @pytest.mark.skipif(not hasattr(os, "O_NOFOLLOW"), reason="no O_NOFOLLOW")
    def test_symlink_in_the_output_directory_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [*self.SYNTH, "--out", str(out)]
        for command in ("synth", "cluster", "validate"):
            assert cli.main([command, *argv]) == 0
        outside = tmp_path / "outside.txt"
        outside.write_text("keep\n")
        (out / "summary.txt").symlink_to(outside)
        err = cli_error(capsys, ["report", *argv])
        assert err["error"] == "OSError"
        assert str(out / "summary.txt") in err["message"]
        assert outside.read_text() == "keep\n"
        assert "summary.txt" not in pl.load_manifest(out).artifacts


class TestCliFlags:
    def parser(self):
        parser = argparse.ArgumentParser()
        cli._add_flags(parser)
        return parser

    def test_one_flag_per_known_key(self):
        flags = [
            option
            for action in self.parser()._actions
            for option in action.option_strings
            if option not in ("-h", "--help", "--config")
        ]
        assert sorted(flags) == sorted(f"--{key}" for key in pl._KNOWN_KEYS)

    def test_each_flag_reaches_its_key(self):
        parser = self.parser()
        for key in pl._KNOWN_KEYS:
            action = next(a for a in parser._actions if f"--{key}" in a.option_strings)
            value = "true" if action.nargs == 0 else (action.choices or ["7"])[0]
            argv = [f"--{key}"] + ([] if action.nargs == 0 else [value])
            assert cli._overrides(parser.parse_args(argv)) == {key: [value]}, key


def _numbers_close(a, b, rel):
    """Equal JSON trees, floats within ``rel`` of each other."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_numbers_close(a[k], b[k], rel) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_numbers_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    return a == b


class TestCrossKernelContract:
    """What another CPU kernel may and may not change. OpenBLAS and numpy
    pick their kernels per process, so forcing older ones stands in for
    another machine."""

    def test_forced_old_kernels(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(
            "synth.clusters = 4\n"
            "synth.cluster-size = 30\n"
            "synth.outliers = 3\n"
            "seed = 0\n"
            "trials = 10\n"
            "experiments = outliers,density,diameter\n"
        )
        package_root = str(Path(cvilab.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        old_kernels = {
            "OPENBLAS_CORETYPE": "Prescott",
            "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
        }
        outs = []
        for name, extra in (("plain", {}), ("old", old_kernels)):
            env = {k: v for k, v in os.environ.items() if k not in old_kernels}
            env.update(extra, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "cvilab", "run", "--config", str(cfg),
                 "--out", str(tmp_path / name)],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(tmp_path / name)

        def load(name):
            return [json.loads((out / name).read_text()) for out in outs]

        plain, old = outs
        assert (plain / "fpc.csv").read_bytes() == (old / "fpc.csv").read_bytes()
        pca = load("pca.json")
        assert pca[0]["chosen_dprime"] == pca[1]["chosen_dprime"]
        cluster = load("cluster.json")
        assert len(cluster[0]["centroids"]) == len(cluster[1]["centroids"])
        # The same partition under the same numbering: clusters are
        # numbered by first member, whichever restart wins.
        assert cluster[0]["labels"] == cluster[1]["labels"]
        assert _numbers_close(*load("cvi.json"), rel=1e-6)
        for name in ("summary.txt", "scatter2d.csv", "experiment_outliers.csv",
                     "experiment_density.csv", "experiment_diameter.csv"):
            assert (plain / name).read_bytes() == (old / name).read_bytes(), name


class TestStagedMatchesRun:
    """The staged commands and ``cvilab run`` share every stage, so they
    write the same bytes."""

    def assert_same_outputs(self, staged, run):
        names = sorted(p.name for p in staged.iterdir())
        assert names == sorted(p.name for p in run.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (staged / name).read_bytes() == (run / name).read_bytes(), name
        manifests = []
        for out in (staged, run):
            payload = json.loads((out / "manifest.json").read_text())
            payload.pop("created_utc")
            payload["config"].pop("out")
            manifests.append(payload)
        assert manifests[0] == manifests[1]

    def test_synthetic_with_every_experiment(self, tmp_path):
        argv = ["--synth.clusters", "4", "--synth.cluster-size", "30",
                "--synth.outliers", "3", "--seed", "0", "--trials", "4",
                "--experiments", "outliers,density,diameter"]
        staged, run = tmp_path / "staged", tmp_path / "run"
        commands = [["synth"], ["cluster"], ["validate"], ["experiment", "outliers"],
                    ["experiment", "density"], ["experiment", "diameter"], ["report"]]
        assert [cli.main([*command, *argv, "--out", str(staged)])
                for command in commands] == [0] * len(commands)
        assert cli.main(["run", *argv, "--out", str(run)]) == 0
        self.assert_same_outputs(staged, run)

    def test_synthetic_with_a_skipped_experiment(self, tmp_path):
        # No outliers, so no singleton cluster to toggle.
        argv = ["--synth.clusters", "3", "--synth.cluster-size", "10", "--k", "3",
                "--experiments", "outliers,diameter"]
        staged, run = tmp_path / "staged", tmp_path / "run"
        commands = [["synth"], ["cluster"], ["validate"], ["experiment", "outliers"],
                    ["experiment", "diameter"], ["report"]]
        assert [cli.main([*command, *argv, "--out", str(staged)])
                for command in commands] == [0] * len(commands)
        assert cli.main(["run", *argv, "--out", str(run)]) == 0
        assert "skipped" in json.loads((run / "experiment_outliers.json").read_text())
        self.assert_same_outputs(staged, run)

    def test_staged_skip_replaces_an_earlier_table(self, tmp_path):
        """Density runs in reduced space, then is skipped in the original
        space, where the sampler cannot draw: its table goes."""
        argv = ["--synth.clusters", "3", "--synth.cluster-size", "30", "--synth.outliers", "2",
                "--seed", "1", "--space", "original", "--experiments", "density",
                "--trials", "5"]
        staged, run = tmp_path / "staged", tmp_path / "run"
        for command in (["synth"], ["cluster"], ["validate"]):
            assert cli.main([*command, *argv, "--out", str(staged)]) == 0
        assert cli.main(["experiment", "density", *argv, "--space", "reduced",
                         "--out", str(staged)]) == 0
        assert "experiment_density.csv" in pl.load_manifest(staged).artifacts
        for command in (["experiment", "density"], ["report"]):
            assert cli.main([*command, *argv, "--out", str(staged)]) == 0
        assert not (staged / "experiment_density.csv").exists()
        assert cli.main(["run", *argv, "--out", str(run)]) == 0
        self.assert_same_outputs(staged, run)

    def test_readings(self, readings_csv, tmp_path):
        argv = ["--input", str(readings_csv), "--k", "2"]
        staged, run = tmp_path / "staged", tmp_path / "run"
        commands = ["preprocess", "cluster", "validate", "report"]
        assert [cli.main([command, *argv, "--out", str(staged)])
                for command in commands] == [0] * len(commands)
        assert cli.main(["run", *argv, "--out", str(run)]) == 0
        self.assert_same_outputs(staged, run)

    def test_each_stage_in_a_fresh_process(self, tmp_path):
        # Each child loads the distance kernel (or not) on its own; this
        # process holds it, and scipy.spatial too.
        argv = ["--synth.clusters", "4", "--synth.cluster-size", "30",
                "--synth.outliers", "3", "--seed", "3", "--trials", "4",
                "--experiments", "density"]
        staged, run = tmp_path / "staged", tmp_path / "run"
        for command in (["synth"], ["cluster"], ["validate"], ["experiment", "density"],
                        ["report"]):
            proc = run_child(tmp_path, "-m", "cvilab", *command, *argv, "--out", str(staged))
            assert proc.returncode == 0, proc.stderr
        assert cli.main(["run", *argv, "--out", str(run)]) == 0
        self.assert_same_outputs(staged, run)


def run_child(cwd, *args):
    """``python *args`` in a fresh interpreter that imports the cvilab this
    suite imported, with two trial workers."""
    package_root = str(Path(cvilab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath, CVILAB_THREADS="2")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


# Runs the CLI on its arguments, then prints whether any module of
# scipy.spatial, scipy.linalg or scipy.sparse is loaded, and whether cvi
# holds its distance kernel.
SCIPY_PROBE = """
import sys
from cvilab import cli, cvi
try:
    code = cli.main(sys.argv[1:])
finally:
    print(any(name.startswith(("scipy.spatial", "scipy.linalg", "scipy.sparse"))
              for name in sys.modules), cvi.euclidean_kernel.cache_info().currsize == 1)
raise SystemExit(code)
"""


# Runs the CLI on its arguments, then prints whether the executor is loaded.
EXECUTOR_PROBE = """
import sys
from cvilab import cli
code = cli.main(sys.argv[1:])
print("concurrent.futures.process" in sys.modules)
raise SystemExit(code)
"""


class TestStartUp:
    """scipy's distance kernel is loaded at the first distance, alone: a
    command that measures none never loads it, and no command maps
    scipy.spatial, linalg or sparse. Children, since this process holds scipy."""

    def test_import_loads_no_scipy(self, tmp_path):
        proc = run_child(tmp_path, "-c", "import sys, cvilab, cvilab.cli; "
                         "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_only_commands_that_measure_distances_load_scipy(self, readings_csv, tmp_path):
        out = tmp_path / "out"
        synth = ["--synth.clusters", "3", "--synth.cluster-size", "10", "--seed", "5",
                 "--k", "3", "--out", str(out)]
        runs = [
            (["--help"], 0, "False False"),
            (["run", *synth[:-2], "--seed", "-1", "--out", str(tmp_path / "x")], 1,
             "False False"),
            (["preprocess", "--input", str(readings_csv), "--out", str(tmp_path / "r")],
             0, "False False"),
            (["synth", *synth], 0, "False False"),
            (["cluster", *synth], 0, "False True"),
            (["validate", *synth], 0, "False True"),
            (["experiment", "density", *synth, "--trials", "4"], 0, "False True"),
            (["report", *synth], 0, "False False"),
        ]
        for argv, code, loaded in runs:
            proc = run_child(tmp_path, "-c", SCIPY_PROBE, *argv)
            assert proc.returncode == code, (argv, proc.stderr)
            assert proc.stdout.splitlines()[-1] == loaded, argv

    def test_trials_in_workers_load_no_executor(self, tmp_path):
        """fork_map runs its workers on bare forks: the executor is loaded
        only to report a worker that died."""
        out = tmp_path / "out"
        proc = run_child(tmp_path, "-c", EXECUTOR_PROBE, "run", "--synth.clusters", "3",
                         "--synth.cluster-size", "20", "--synth.outliers", "2", "--trials", "6",
                         "--experiments", "density,diameter", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        for kind in ("density", "diameter"):
            assert (out / f"experiment_{kind}.csv").exists(), kind


class TestCliErrors:
    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\nseed = 2\n")
        err = cli_error(capsys, ["run", "--config", str(cfg)])
        assert err["error"] == "ValueError"
        assert err["message"] == "unknown config keys: bogus"

    def test_run_without_data_source(self, capsys, tmp_path):
        err = cli_error(capsys, ["run", "--out", str(tmp_path / "x")])
        assert err == {
            "error": "ValueError",
            "message": "config needs input paths or a synth plan",
        }

    def test_unknown_experiment_kind(self, capsys, tmp_path):
        err = cli_error(capsys, ["experiment", "bogus", "--out",
                                 str(tmp_path / "x"), "--synth.clusters", "2"])
        assert err["error"] == "ValueError"
        assert "unknown experiment kind 'bogus'" in err["message"]

    def test_experiment_missing_baseline(self, capsys, tmp_path):
        err = cli_error(capsys, ["experiment", "outliers", "--out",
                                 str(tmp_path / "empty")])
        assert err == {
            "error": "FileNotFoundError",
            "message": "missing artifact: profiles.csv (run synth or preprocess first)",
        }

    def test_synth_without_plan(self, capsys, tmp_path):
        err = cli_error(capsys, ["synth", "--out", str(tmp_path / "x")])
        assert "synth needs synth.* settings" in err["message"]

    def test_preprocess_without_inputs(self, capsys, tmp_path):
        err = cli_error(capsys, ["preprocess", "--out", str(tmp_path / "x")])
        assert "preprocess needs at least one --input" in err["message"]

    def test_cluster_before_data(self, capsys, tmp_path):
        err = cli_error(capsys, ["cluster", "--out", str(tmp_path / "nothing")])
        assert err["error"] == "FileNotFoundError"
        assert "missing artifact: profiles.csv" in err["message"]

    def test_bad_flag_value(self, capsys, tmp_path):
        err = cli_error(capsys, ["run", "--seed", "xyz", "--synth.clusters", "2",
                                 "--out", str(tmp_path / "x")])
        assert err["message"] == "seed must be an integer, got 'xyz'"

    @pytest.mark.parametrize("key, value, expected", [
        ("dprime", "two", "an integer or 'elbow'"),
        ("k", "many", "an integer or 'fpc'"),
        ("m", "soft", "a number or 'default'"),
    ])
    def test_typed_value_names_its_key(self, capsys, tmp_path, key, value, expected):
        err = cli_error(capsys, ["run", f"--{key}", value, "--synth.clusters", "2",
                                 "--out", str(tmp_path / "x")])
        assert err == {"error": "ValueError",
                       "message": f"{key} must be {expected}, got {value!r}"}

    @pytest.mark.parametrize("value", ["inf", "nan", "1"])
    def test_fuzzifier_must_be_finite_above_one(self, capsys, tmp_path, value):
        out = tmp_path / "x"
        err = cli_error(capsys, ["run", "--m", value, "--synth.clusters", "2",
                                 "--out", str(out)])
        assert err == {"error": "ValueError",
                       "message": "m must be a finite number > 1 or 'default'"}
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_density_fraction_must_be_finite(self, capsys, tmp_path, value):
        out = tmp_path / "x"
        err = cli_error(capsys, ["run", "--density-fraction", value, "--synth.clusters", "2",
                                 "--out", str(out)])
        assert err == {
            "error": "ValueError",
            "message": f"density_add_fraction must be finite and nonnegative, got {float(value)!r}",
        }
        assert not out.exists()

    def test_density_fraction_is_bounded_before_any_allocation(self, capsys, tmp_path):
        out = tmp_path / "x"
        err = cli_error(capsys, ["run", "--synth.clusters", "3", "--synth.cluster-size", "10",
                                 "--density-fraction", "1e9", "--experiments", "density",
                                 "--trials", "1", "--out", str(out)])
        assert err == {
            "error": "ValueError",
            "message": "density_add_fraction must be at most 100 (points a trial adds per "
                       "cluster member), got 1000000000.0",
        }
        assert not out.exists()

    def test_both_sources_via_config(self, capsys, tmp_path):
        cfg = tmp_path / "both.cfg"
        cfg.write_text("input = a.csv\nsynth.clusters = 2\n")
        err = cli_error(capsys, ["run", "--config", str(cfg)])
        assert err["message"] == "give input paths or a synth plan, not both"

    @pytest.mark.parametrize("flag, message", [
        ("--space", "space must be one of ('reduced', 'original')"),
        ("--synth.outlier-mode", "outlier_mode must be 'far' or 'near'"),
    ])
    def test_bad_choice_gets_the_json_error(self, capsys, tmp_path, flag, message):
        err = cli_error(capsys, ["run", flag, "bogus", "--synth.clusters", "2",
                                 "--out", str(tmp_path / "x")])
        assert err == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_synth_spread_must_be_finite(self, capsys, tmp_path, value):
        out = tmp_path / "x"
        err = cli_error(capsys, ["run", "--synth.spread", value, "--synth.clusters", "2",
                                 "--out", str(out)])
        assert err == {"error": "ValueError",
                       "message": f"spread must be finite and nonnegative, got {value}"}
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("synth.outlier-mode = sideways", "outlier_mode must be 'far' or 'near'"),
        ("synth.cluster-size = -4", "cluster_size must be positive"),
    ])
    def test_bad_synth_plan_fails_every_command(self, capsys, tmp_path, line, message):
        out = tmp_path / "x"
        assert cli.main(["synth", "--synth.clusters", "2", "--out", str(out)]) == 0
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(f"synth.clusters = 2\n{line}\n")
        for command in ("synth", "cluster", "validate", "report", "run"):
            err = cli_error(capsys, [command, "--config", str(cfg), "--out", str(out)])
            assert err == {"error": "ValueError", "message": message}, command
        assert sorted(pl.load_manifest(out).artifacts) == ["profiles.csv", "synth_labels.csv"]
        assert pl.load_manifest(out).config["synth"]["outlier_mode"] == "far"

    def test_oversized_dprime_leaves_the_output_untouched(self, capsys, tmp_path):
        out = tmp_path / "x"
        assert cli.main(["synth", "--synth.clusters", "2", "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        err = cli_error(capsys, ["run", "--synth.clusters", "2", "--synth.cluster-size", "10",
                                 "--dprime", "500", "--out", str(out)])
        assert err == {"error": "ValueError", "message": "dprime 500 out of range 1..96"}
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_bad_thread_count_fails_before_any_stage(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CVILAB_THREADS", "two")
        out = tmp_path / "x"
        err = cli_error(capsys, [
            "run", "--synth.clusters", "3", "--synth.cluster-size", "20",
            "--synth.outliers", "2", "--k", "4", "--experiments", "density,diameter",
            "--out", str(out),
        ])
        assert err == {"error": "ValueError",
                       "message": "CVILAB_THREADS must be a positive integer, got 'two'"}
        assert not (out / "cluster.json").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, capsys, tmp_path, seed):
        out = tmp_path / "x"
        err = cli_error(capsys, ["synth", "--seed", str(seed), "--synth.clusters", "2",
                                 "--out", str(out)])
        assert err == {"error": "ValueError",
                       "message": f"seed {seed} out of range 0..{2**64 - 1}"}
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "x"
        argv = ["synth", "--seed", str(2**64 - 1), "--synth.clusters", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        assert pl.load_manifest(out).seed == 2**64 - 1

    @pytest.mark.parametrize("content", [
        "not json", "[1, 2]", '{"artifacts": 5}',
        # a name outside the directory, whose bytes every verify would hash
        '{"version": "0", "created_utc": "", "seed": 0, "config": {}, "input_digests": {},'
        ' "artifacts": {"../outside.txt": "0"}}',
        # a torn in-place rewrite: new JSON, then the tail of a longer old one
        '{"version": "0", "created_utc": "", "seed": 0, "config": {}, "input_digests": {},'
        ' "artifacts": {}}\n  "seed": 0\n}',
    ])
    def test_malformed_manifest_is_a_typed_error(self, capsys, tmp_path, content):
        out = tmp_path / "x"
        assert cli.main(["synth", "--synth.clusters", "2", "--out", str(out)]) == 0
        (out / "manifest.json").write_text(content + "\n")
        err = cli_error(capsys, ["cluster", "--out", str(out)])
        assert err == {"error": "ValueError",
                       "message": f"malformed manifest: {out / 'manifest.json'}"}
        assert not (out / "pca.json").exists()
        # New profiles start a new manifest without reading the old one.
        assert cli.main(["synth", "--synth.clusters", "2", "--out", str(out)]) == 0
        assert sorted(pl.load_manifest(out).artifacts) == ["profiles.csv", "synth_labels.csv"]
        assert pl.verify_manifest(out) == []

    def test_unlisted_artifact_that_does_not_parse_is_a_typed_error(self, capsys, tmp_path):
        """With no manifest every artifact is unlisted, so none is read and
        the first one needed is missing. A listed artifact that does not
        parse, its digest rewritten to match, is a typed error."""
        out = tmp_path / "x"
        assert cli.main(["synth", "--synth.clusters", "2", "--out", str(out)]) == 0
        assert cli.main(["cluster", "--out", str(out)]) == 0

        def edit(name, text):
            (out / name).write_text(text)
            payload = json.loads((out / "manifest.json").read_text())
            payload["artifacts"][name] = hashlib.sha256(text.encode()).hexdigest()
            (out / "manifest.json").write_text(json.dumps(payload))

        manifest = (out / "manifest.json").read_bytes()
        (out / "manifest.json").unlink()
        files = sorted(p.name for p in out.iterdir())
        err = cli_error(capsys, ["validate", "--out", str(out)])
        assert err == {"error": "FileNotFoundError",
                       "message": "missing artifact: profiles.csv (run synth or preprocess first)"}
        assert sorted(p.name for p in out.iterdir()) == files  # nothing removed either
        (out / "manifest.json").write_bytes(manifest)

        # Labels that are not cluster numbers 0..k-1, and a record with no FPC.
        payload = json.loads((out / "cluster.json").read_text())
        assert len(payload["centroids"]) < 9
        labels = payload["labels"]
        for edited in ({**payload, "labels": [1.5] + labels[1:]},
                       {**payload, "labels": labels[:-1] + [9]},
                       {key: value for key, value in payload.items() if key != "fpc"}):
            edit("cluster.json", json.dumps(edited))
            err = cli_error(capsys, ["validate", "--out", str(out)])
            assert err == {"error": "ValueError", "message": "malformed artifact: cluster.json"}
        # A profile CSV error keeps its type and line.
        lines = (out / "profiles.csv").read_text().splitlines(keepends=True)
        edit("profiles.csv", "".join(lines[:2] + lines[1:2]))
        err = cli_error(capsys, ["validate", "--out", str(out)])
        assert err["error"] == "CsvFormatError"
        assert err["message"].startswith("line 3: duplicate household_id")

    @pytest.mark.parametrize("flags, message", [
        (["--synth.cluster-size", "2", "--k", "4"], "k range upper bound 4 exceeds N-1 = 3"),
        (["--synth.cluster-size", "1", "--dprime", "1"], "bad k range [2, 1]"),
    ])
    def test_too_few_profiles_for_the_k_range(self, capsys, tmp_path, flags, message):
        err = cli_error(capsys, ["run", "--synth.clusters", "2", *flags,
                                 "--out", str(tmp_path / "x")])
        assert err == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("data, line", [
        (b"\xff\xfes\x00e\x00e\x00d\x00 \x00=\x00 \x001\x00\n\x00", 1),
        (b"seed = 1\n# caf\xe9\nk = 3\n", 2),
        (b"seed = 1\rk = \xff\n", 2),  # a lone CR ends a line, as for the parser
    ])
    def test_config_must_be_utf8(self, capsys, tmp_path, data, line):
        cfg = tmp_path / "lab.cfg"
        cfg.write_bytes(data)
        out = tmp_path / "x"
        err = cli_error(capsys, ["synth", "--config", str(cfg), "--synth.clusters", "2",
                                 "--out", str(out)])
        assert err == {"error": "ValueError",
                       "message": f"config {cfg} line {line}: not UTF-8"}
        assert not out.exists()

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "mal.cfg"
        cfg.write_text("seed 7\n")
        err = cli_error(capsys, ["run", "--config", str(cfg)])
        assert err["message"] == "config line 1: expected key = value"
        cfg.write_bytes(b"seed = 1\rk")  # a lone CR ends a line, as for the UTF-8 check
        err = cli_error(capsys, ["run", "--config", str(cfg)])
        assert err["message"] == "config line 2: expected key = value"
