"""End-to-end runs: data to artifacts, reproducibly.

A run carries profiles (parsed from readings or synthesized) through the
dimension reduction, the fuzzy clustering, the five validation indices,
and any requested perturbation experiments, writing every result as a
CSV or JSON artifact plus a manifest of content digests. Given the same
config, inputs, and seed, every non-timestamp byte of the output is
identical between runs on one machine, whatever the trial worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import cvi as cvi_mod
from . import fcm as fcm_mod
from . import pca as pca_mod
from . import perturb as perturb_mod
from .profiles import (
    ProfileMatrix,
    SynthSpec,
    generate_synthetic,
    parse_readings,
    profiles_from_readings,
    read_profiles_csv,
    synthetic_templates,
    write_profiles_csv,
)
from .version import __version__

SPACES = ("reduced", "original")

CORE_ARTIFACTS = (
    "profiles.csv",
    "pca.json",
    "cevr.csv",
    "cluster.json",
    "fpc.csv",
    "cvi.json",
)


# Everything a run may write into its output directory.
_RUN_ARTIFACTS = CORE_ARTIFACTS + (
    "synth_labels.csv", "summary.txt", "scatter2d.csv", "manifest.json",
    *(f"experiment_{k}.{e}" for k in perturb_mod.EXPERIMENT_KINDS for e in ("json", "csv")),
)


def _fmt9(value: float) -> str:
    return "%.9g" % value


@dataclass(frozen=True)
class SynthPlan:
    """Scalar knobs for a synthetic population; templates are derived
    from the cluster count."""

    clusters: int = 3
    cluster_size: int = 30
    spread: float = 0.02
    outliers: int = 0
    outlier_mode: str = "far"

    def to_spec(self, seed: int) -> SynthSpec:
        return SynthSpec(
            templates=synthetic_templates(self.clusters),
            cluster_size=self.cluster_size,
            spread=self.spread,
            outlier_count=self.outliers,
            outlier_mode=self.outlier_mode,
            seed=seed,
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; exactly one data source (inputs or synth)
    must be present before the pipeline itself may start."""

    inputs: tuple[str, ...] = ()
    synth: SynthPlan | None = None
    out_dir: str = "out"
    seed: int = 0
    dprime: int | str = "elbow"
    k: int | str = "fpc"
    fuzzifier: float | str = "default"
    space: str = "reduced"
    recluster: bool = False
    experiments: tuple[str, ...] = ()
    perturb: perturb_mod.PerturbConfig = field(
        default_factory=perturb_mod.PerturbConfig
    )

    def __post_init__(self):
        if self.inputs and self.synth is not None:
            raise ValueError("give input paths or a synth plan, not both")
        if isinstance(self.dprime, str):
            if self.dprime != "elbow":
                raise ValueError("dprime must be a positive integer or 'elbow'")
        elif self.dprime < 1:
            raise ValueError("dprime must be a positive integer or 'elbow'")
        if isinstance(self.k, str):
            if self.k != "fpc":
                raise ValueError("k must be an integer >= 2 or 'fpc'")
        elif self.k < 2:
            raise ValueError("k must be an integer >= 2 or 'fpc'")
        if isinstance(self.fuzzifier, str):
            if self.fuzzifier not in ("default", "estimate"):
                raise ValueError("m must be a number > 1 or 'default'")
        elif not self.fuzzifier > 1.0:
            raise ValueError("m must be a number > 1 or 'default'")
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}")
        for kind in self.experiments:
            if kind not in perturb_mod.EXPERIMENT_KINDS:
                raise ValueError(f"unknown experiment kind {kind!r}")

    def require_data_source(self) -> None:
        if not self.inputs and self.synth is None:
            raise ValueError("config needs input paths or a synth plan")


def config_to_dict(config: RunConfig) -> dict:
    synth = None
    if config.synth is not None:
        synth = {
            "clusters": config.synth.clusters,
            "cluster_size": config.synth.cluster_size,
            "spread": config.synth.spread,
            "outliers": config.synth.outliers,
            "outlier_mode": config.synth.outlier_mode,
        }
    return {
        "input": list(config.inputs),
        "synth": synth,
        "out": config.out_dir,
        "seed": config.seed,
        "dprime": config.dprime,
        "k": config.k,
        "m": config.fuzzifier,
        "space": config.space,
        "recluster": config.recluster,
        "experiments": list(config.experiments),
        "trials": config.perturb.trials,
        "shrink": config.perturb.shrink_factor,
        "density_fraction": config.perturb.density_add_fraction,
        "sigma_divisor": config.perturb.sigma_divisor,
        "max_rejection_attempts": config.perturb.max_rejection_attempts,
    }


# --- config file: flat "key = value" lines, # comments, repeated keys ---


def parse_config_text(text: str) -> dict[str, list[str]]:
    """Raw key/value pairs from a config file; every key maps to the list
    of values it was given (repeats accumulate)."""
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key or not value:
            raise ValueError(f"config line {lineno}: empty key or value")
        raw.setdefault(key, []).append(value)
    return raw


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}

_KNOWN_KEYS = {
    "input",
    "out",
    "seed",
    "dprime",
    "k",
    "m",
    "trials",
    "shrink",
    "density-fraction",
    "sigma-divisor",
    "max-rejection-attempts",
    "recluster",
    "space",
    "experiments",
    "synth.clusters",
    "synth.cluster-size",
    "synth.spread",
    "synth.outliers",
    "synth.outlier-mode",
}


def _last(raw: dict[str, list[str]], key: str, default: str) -> str:
    return raw[key][-1] if key in raw else default


def _parse_int(raw: dict, key: str, default: str) -> int:
    value = _last(raw, key, default)
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _parse_float(raw: dict, key: str, default: str) -> float:
    value = _last(raw, key, default)
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def build_run_config(raw: dict[str, list[str]]) -> RunConfig:
    """Typed RunConfig from merged file/flag values (flags already won)."""
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    inputs: list[str] = []
    for chunk in raw.get("input", []):
        inputs.extend(p.strip() for p in chunk.split(",") if p.strip())

    synth = None
    if any(key.startswith("synth.") for key in raw):
        mode = _last(raw, "synth.outlier-mode", "far")
        synth = SynthPlan(
            clusters=_parse_int(raw, "synth.clusters", "3"),
            cluster_size=_parse_int(raw, "synth.cluster-size", "30"),
            spread=_parse_float(raw, "synth.spread", "0.02"),
            outliers=_parse_int(raw, "synth.outliers", "0"),
            outlier_mode=mode,
        )

    seed = _parse_int(raw, "seed", "0")

    dprime_raw = _last(raw, "dprime", "elbow")
    dprime: int | str = dprime_raw if dprime_raw == "elbow" else int(dprime_raw)
    k_raw = _last(raw, "k", "fpc")
    k: int | str = k_raw if k_raw == "fpc" else int(k_raw)
    m_raw = _last(raw, "m", "default")
    fuzzifier: float | str = m_raw if m_raw == "default" else float(m_raw)

    recluster_raw = _last(raw, "recluster", "false").lower()
    if recluster_raw not in _BOOL_VALUES:
        raise ValueError(f"recluster must be true or false, got {recluster_raw!r}")

    experiments: list[str] = []
    for chunk in raw.get("experiments", []):
        experiments.extend(e.strip() for e in chunk.split(",") if e.strip())

    perturb = perturb_mod.PerturbConfig(
        seed=seed,
        trials=_parse_int(raw, "trials", "100"),
        density_add_fraction=_parse_float(raw, "density-fraction", "1.0"),
        shrink_factor=_parse_float(raw, "shrink", "0.8"),
        sigma_divisor=_parse_float(raw, "sigma-divisor", "4.0"),
        max_rejection_attempts=_parse_int(raw, "max-rejection-attempts", "1000"),
    )
    return RunConfig(
        inputs=tuple(inputs),
        synth=synth,
        out_dir=_last(raw, "out", "out"),
        seed=seed,
        dprime=dprime,
        k=k,
        fuzzifier=fuzzifier,
        space=_last(raw, "space", "reduced"),
        recluster=_BOOL_VALUES[recluster_raw],
        experiments=tuple(experiments),
        perturb=perturb,
    )


def load_run_config(config_path=None, overrides: dict[str, list[str]] | None = None) -> RunConfig:
    """Config file merged with CLI overrides; overrides win per key."""
    raw: dict[str, list[str]] = {}
    if config_path is not None:
        raw.update(parse_config_text(Path(config_path).read_text()))
    for key, values in (overrides or {}).items():
        if values:
            raw[key] = list(values)
    return build_run_config(raw)


# --- artifact writing ---


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    version: str
    created_utc: str
    seed: int
    config: dict
    input_digests: dict
    artifacts: dict


def manifest_to_json(manifest: RunManifest) -> str:
    payload = {
        "version": manifest.version,
        "created_utc": manifest.created_utc,
        "seed": manifest.seed,
        "config": manifest.config,
        "input_digests": manifest.input_digests,
        "artifacts": manifest.artifacts,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def load_manifest(out_dir) -> RunManifest:
    payload = json.loads((Path(out_dir) / "manifest.json").read_text())
    return RunManifest(
        version=payload["version"],
        created_utc=payload["created_utc"],
        seed=payload["seed"],
        config=payload["config"],
        input_digests=payload["input_digests"],
        artifacts=payload["artifacts"],
    )


def update_manifest(config: RunConfig, written: list[str]) -> RunManifest:
    """Write manifest.json covering previously listed plus newly written
    artifacts, with fresh digests for the new ones.

    Input digests record the bytes profiles.csv was built from: they are
    taken by the command that writes profiles.csv and carried forward by
    every later one, which never reads the inputs.
    """
    out = Path(config.out_dir)
    manifest_path = out / "manifest.json"
    previous = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    artifacts: dict[str, str] = dict(previous.get("artifacts", {}))
    for name in written:
        artifacts[name] = _sha256(out / name)
    if "profiles.csv" in written:
        input_digests = {path: _sha256(Path(path)) for path in config.inputs}
        if config.synth is not None:
            input_digests["synth"] = artifacts["profiles.csv"]
    else:
        input_digests = previous.get("input_digests", {})
    manifest = RunManifest(
        version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
        seed=config.seed,
        config=config_to_dict(config),
        input_digests=input_digests,
        artifacts=dict(sorted(artifacts.items())),
    )
    _write_text(manifest_path, manifest_to_json(manifest) + "\n")
    return manifest


def verify_manifest(out_dir) -> list[str]:
    """Names whose on-disk digest no longer matches the manifest."""
    manifest = load_manifest(out_dir)
    out = Path(out_dir)
    bad = []
    for name, digest in manifest.artifacts.items():
        target = out / name
        if not target.exists() or _sha256(target) != digest:
            bad.append(name)
    return bad


# --- pipeline stages ---


def _load_profiles(config: RunConfig) -> tuple[ProfileMatrix, np.ndarray | None]:
    """Profiles straight from the data source (full precision)."""
    if config.synth is not None:
        return generate_synthetic(config.synth.to_spec(config.seed))
    series = []
    for path in config.inputs:
        series.extend(parse_readings(path))
    series.sort(key=lambda s: s.household_id)
    return profiles_from_readings(series), None


def _write_data_artifacts(
    out: Path, matrix: ProfileMatrix, truth: np.ndarray | None
) -> list[str]:
    # New profiles start a new run: every artifact and the manifest an
    # earlier run left here would describe other data, so they go.
    for name in _RUN_ARTIFACTS:
        (out / name).unlink(missing_ok=True)
    write_profiles_csv(matrix, out / "profiles.csv")
    written = ["profiles.csv"]
    if truth is not None:
        lines = ["household_id,label"] + [
            f"{hid},{label}" for hid, label in zip(matrix.households, truth)
        ]
        _write_text(out / "synth_labels.csv", "\n".join(lines) + "\n")
        written.append("synth_labels.csv")
    return written


def stage_data(config: RunConfig) -> list[str]:
    """profiles.csv (and synth_labels.csv for synthetic runs), in place
    of every artifact an earlier run left in the output directory."""
    config.require_data_source()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix, truth = _load_profiles(config)
    return _write_data_artifacts(out, matrix, truth)


def _choose_dprime(config: RunConfig, model: pca_mod.PcaModel) -> int:
    cevr = pca_mod.cumulative_explained_variance(model)
    if config.dprime == "elbow":
        return pca_mod.select_dimensions_elbow(cevr)
    return int(config.dprime)


def _fcm_template(config: RunConfig, k: int) -> fcm_mod.FcmConfig:
    fuzzifier = config.fuzzifier
    if fuzzifier == "default":
        fuzzifier = "estimate"
    return fcm_mod.FcmConfig(k=k, fuzzifier=fuzzifier, seed=config.seed)


def _fit_models(
    config: RunConfig, matrix: ProfileMatrix
) -> tuple[pca_mod.PcaModel, np.ndarray, fcm_mod.ClusterModel, list[tuple[int, float]]]:
    """PCA + projection + FCM with the configured selection rules."""
    pca_model = pca_mod.fit_pca(matrix)
    dprime = _choose_dprime(config, pca_model)
    pca_model = pca_model.with_dprime(dprime)
    reduced = pca_mod.project(pca_model, matrix, dprime)
    n = reduced.shape[0]
    if config.k == "fpc":
        k_hi = min(fcm_mod.K_MAX_DEFAULT, n - 1)
        if k_hi < 2:
            raise ValueError("too few profiles to select a cluster count")
        template = _fcm_template(config, 2)
        _, curve, model = fcm_mod.select_cluster_count(reduced, template, (2, k_hi))
    else:
        model = fcm_mod.fit_fcm(reduced, _fcm_template(config, int(config.k)))
        curve = [(model.k, fcm_mod.fuzzy_partition_coefficient(model.memberships))]
    return pca_model, reduced, model, curve


def _write_model_artifacts(
    out: Path,
    pca_model: pca_mod.PcaModel,
    model: fcm_mod.ClusterModel,
    curve: list[tuple[int, float]],
) -> list[str]:
    _write_text(out / "pca.json", pca_mod.model_to_json(pca_model) + "\n")
    cevr = pca_mod.cumulative_explained_variance(pca_model)
    cevr_lines = ["dprime,cevr"] + [
        f"{i + 1},{_fmt9(value)}" for i, value in enumerate(cevr)
    ]
    _write_text(out / "cevr.csv", "\n".join(cevr_lines) + "\n")
    _write_text(out / "cluster.json", fcm_mod.model_to_json(model) + "\n")
    fpc_lines = ["k,fpc"] + [f"{k},{_fmt9(value)}" for k, value in curve]
    _write_text(out / "fpc.csv", "\n".join(fpc_lines) + "\n")
    return ["pca.json", "cevr.csv", "cluster.json", "fpc.csv"]


def _evaluation_points(
    config: RunConfig, matrix: ProfileMatrix, pca_model: pca_mod.PcaModel
) -> np.ndarray:
    if config.space == "original":
        return matrix.values
    return pca_mod.project(pca_model, matrix, pca_model.chosen_dprime)


def _evaluate(config: RunConfig, points, model) -> cvi_mod.CviReport:
    # Fitted centroids live in reduced space, so membership-based XB is
    # only meaningful there; original-space evaluation falls back to the
    # crisp mode.
    return cvi_mod.evaluate_all(points, model, use_memberships=config.space == "reduced")


@dataclass
class PipelineState:
    matrix: ProfileMatrix
    truth: np.ndarray | None
    pca_model: pca_mod.PcaModel
    reduced: np.ndarray
    cluster_model: fcm_mod.ClusterModel
    points: np.ndarray
    cvi_report: cvi_mod.CviReport
    written: list[str]


def _pipeline_core(config: RunConfig) -> PipelineState:
    config.require_data_source()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix, truth = _load_profiles(config)
    written = _write_data_artifacts(out, matrix, truth)
    pca_model, reduced, model, curve = _fit_models(config, matrix)
    written += _write_model_artifacts(out, pca_model, model, curve)
    points = _evaluation_points(config, matrix, pca_model)
    report = _evaluate(config, points, model)
    _write_text(out / "cvi.json", cvi_mod.report_to_json(report) + "\n")
    written.append("cvi.json")
    return PipelineState(
        matrix=matrix,
        truth=truth,
        pca_model=pca_model,
        reduced=reduced,
        cluster_model=model,
        points=points,
        cvi_report=report,
        written=written,
    )


def run_pipeline(
    config: RunConfig,
) -> tuple[pca_mod.PcaModel, fcm_mod.ClusterModel, cvi_mod.CviReport, RunManifest]:
    """Data through indices, all core artifacts written and digested."""
    state = _pipeline_core(config)
    manifest = update_manifest(config, state.written)
    return state.pca_model, state.cluster_model, state.cvi_report, manifest


def stage_cluster(config: RunConfig) -> list[str]:
    """Reduce and cluster the profiles already in the output directory."""
    out = Path(config.out_dir)
    source = out / "profiles.csv"
    if not source.exists():
        raise FileNotFoundError(
            "missing artifact: profiles.csv (run synth or preprocess first)"
        )
    matrix = read_profiles_csv(source)
    pca_model, _, model, curve = _fit_models(config, matrix)
    return _write_model_artifacts(out, pca_model, model, curve)


def stage_validate(config: RunConfig) -> list[str]:
    """Score the stored partition; writes cvi.json."""
    out = Path(config.out_dir)
    for name in ("profiles.csv", "pca.json", "cluster.json"):
        if not (out / name).exists():
            raise FileNotFoundError(f"missing artifact: {name} (run cluster first)")
    state = _load_state(config)
    _write_text(out / "cvi.json", cvi_mod.report_to_json(state.cvi_report) + "\n")
    return ["cvi.json"]


def _load_state(config: RunConfig) -> PipelineState:
    """Rebuild working state from the artifacts in the output directory."""
    out = Path(config.out_dir)
    matrix = read_profiles_csv(out / "profiles.csv")
    pca_model = pca_mod.model_from_json((out / "pca.json").read_text())
    model = fcm_mod.model_from_json((out / "cluster.json").read_text())
    reduced = pca_mod.project(pca_model, matrix, pca_model.chosen_dprime)
    points = _evaluation_points(config, matrix, pca_model)
    report = _evaluate(config, points, model)
    return PipelineState(
        matrix=matrix,
        truth=None,
        pca_model=pca_model,
        reduced=reduced,
        cluster_model=model,
        points=points,
        cvi_report=report,
        written=[],
    )


def _refit_callback(config: RunConfig, model: fcm_mod.ClusterModel):
    if not config.recluster:
        return None

    def refit(points: np.ndarray) -> np.ndarray:
        cfg = fcm_mod.FcmConfig(
            k=model.k, fuzzifier=model.fuzzifier, seed=config.seed
        )
        return fcm_mod.fit_fcm(points, cfg).labels

    return refit


def run_experiment(
    kind: str, config: RunConfig, state: PipelineState | None = None
) -> tuple[perturb_mod.ExperimentReport, list[str]]:
    """One perturbation experiment against the run's partition, written
    as experiment_<kind>.json and .csv.

    Reuses the pipeline artifacts already in the output directory, or
    runs the pipeline implicitly when the config names a data source.
    Returns the report and every artifact name written along the way.
    """
    if kind not in perturb_mod.EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    written: list[str] = []
    if state is None:
        out = Path(config.out_dir)
        if all((out / name).exists() for name in ("profiles.csv", "pca.json", "cluster.json")):
            state = _load_state(config)
        elif config.inputs or config.synth is not None:
            state = _pipeline_core(config)
            written += state.written
        else:
            raise ValueError(
                "missing baseline: no pipeline artifacts in the output "
                "directory and no data source in the config"
            )
    runner = {
        "outliers": perturb_mod.outlier_experiment,
        "density": perturb_mod.density_experiment,
        "diameter": perturb_mod.diameter_experiment,
    }[kind]
    report = runner(
        state.points,
        state.cluster_model,
        config.perturb,
        refit=_refit_callback(config, state.cluster_model),
    )
    out = Path(config.out_dir)
    _write_text(
        out / f"experiment_{kind}.json", perturb_mod.experiment_to_json(report) + "\n"
    )
    _write_text(out / f"experiment_{kind}.csv", perturb_mod.experiment_to_csv(report))
    written += [f"experiment_{kind}.json", f"experiment_{kind}.csv"]
    return report, written


def _summary_cell(value: float | None) -> str:
    if value is None:
        return "error"
    if math.isinf(value):
        return "degenerate"
    return _fmt9(value)


def emit_report(config: RunConfig) -> list[str]:
    """summary.txt (indices, experiment averages, verdicts) and
    scatter2d.csv (2-component projection with cluster labels)."""
    out = Path(config.out_dir)
    for name in ("profiles.csv", "pca.json", "cluster.json", "cvi.json"):
        if not (out / name).exists():
            raise FileNotFoundError(f"missing artifact: {name}")
    matrix = read_profiles_csv(out / "profiles.csv")
    pca_model = pca_mod.model_from_json((out / "pca.json").read_text())
    model = fcm_mod.model_from_json((out / "cluster.json").read_text())
    baseline = cvi_mod.report_from_json((out / "cvi.json").read_text())

    flat = pca_mod.project(pca_model, matrix, 2)
    scatter_lines = ["x,y,cluster"] + [
        f"{_fmt9(row[0])},{_fmt9(row[1])},{label}"
        for row, label in zip(flat, model.labels)
    ]
    _write_text(out / "scatter2d.csv", "\n".join(scatter_lines) + "\n")

    lines = [
        "cluster validation summary",
        f"households: {len(matrix.households)}",
        f"k: {model.k}",
        f"dprime: {pca_model.chosen_dprime}",
        "",
        "baseline indices",
        f"{'index':<8}{'value':>16}",
    ]
    for name in cvi_mod.INDEX_NAMES:
        lines.append(f"{name:<8}{_summary_cell(baseline.value_map()[name]):>16}")
    for kind in perturb_mod.EXPERIMENT_KINDS:
        path = out / f"experiment_{kind}.json"
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        if "skipped" in payload:
            lines += ["", f"experiment: {kind} skipped ({payload['skipped']})"]
            continue
        report = perturb_mod.experiment_from_dict(payload)
        if report.average is not None:
            compare = report.average
            label = "average"
            detail = f"{len(report.rows)} trials"
        else:
            compare = report.rows[0].report
            label = "none_kept"
            detail = f"{len(report.rows)} variants"
        lines += [
            "",
            f"experiment: {kind} ({detail})",
            f"{'index':<8}{'baseline':>16}{label:>16}{'verdict':>22}",
        ]
        verdicts = report.verdict_map()
        for name in cvi_mod.INDEX_NAMES:
            lines.append(
                f"{name:<8}"
                f"{_summary_cell(report.baseline.value_map()[name]):>16}"
                f"{_summary_cell(compare.value_map()[name]):>16}"
                f"{verdicts.get(name, ''):>22}"
            )
    _write_text(out / "summary.txt", "\n".join(lines) + "\n")
    return ["summary.txt", "scatter2d.csv"]


def run_full(config: RunConfig) -> RunManifest:
    """Pipeline, requested experiments, report, manifest: one call.

    An experiment the partition cannot support is recorded as skipped,
    with its reason, in experiment_<kind>.json (no CSV), and the run goes
    on.
    """
    state = _pipeline_core(config)
    written = list(state.written)
    for kind in config.experiments:
        try:
            _, names = run_experiment(kind, config, state=state)
        except perturb_mod.ExperimentSkipped as exc:
            skipped = {"kind": kind, "skipped": str(exc)}
            _write_text(
                Path(config.out_dir) / f"experiment_{kind}.json",
                json.dumps(skipped, indent=2) + "\n",
            )
            names = [f"experiment_{kind}.json"]
        written += names
    written += emit_report(config)
    return update_manifest(config, written)
