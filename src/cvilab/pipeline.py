"""End-to-end runs: data to artifacts, reproducibly.

A run carries profiles (parsed from readings or synthesized) through the
dimension reduction, the fuzzy clustering, the five validation indices
and any requested perturbation experiments, writing every result as a CSV
or JSON artifact plus a manifest of content digests. ``cvilab run`` chains
the stage functions in memory; each staged command loads its inputs from
the output directory and calls the same function. Every artifact reads
back bit for bit, so given the same config, inputs and seed, every
non-timestamp byte of the output is identical between the two, between
runs on one machine, and whatever the trial worker count. The manifest is
the directory's one index: it lists what each write wrote, less all that was
computed from what it replaced (no two partitions mix), and nothing else is read.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import cvi as cvi_mod
from . import fcm as fcm_mod
from . import pca as pca_mod
from . import perturb as perturb_mod
from .profiles import (
    SLOTS_PER_DAY,
    CsvFormatError,
    ProfileMatrix,
    SynthSpec,
    generate_synthetic,
    ingest_readings,
    read_profiles_csv,
    write_profiles_csv,
)
from .rng import U64_MASK, worker_count
from .version import __version__

SPACES = ("reduced", "original")


def _fmt9(value: float) -> str:
    return "%.9g" % value


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; exactly one data source (inputs or synth)
    must be present before the pipeline itself may start. ``seed`` is the
    one seed of the run: the perturbation and synthesis settings take it."""

    inputs: tuple[str, ...] = ()
    synth: SynthSpec | None = None
    out_dir: str = "out"
    seed: int = 0
    dprime: int | str = "elbow"
    k: int | str = "fpc"
    fuzzifier: float = 2.0
    space: str = "reduced"
    recluster: bool = False
    experiments: tuple[str, ...] = ()
    perturb: perturb_mod.PerturbConfig = field(
        default_factory=perturb_mod.PerturbConfig
    )

    def __post_init__(self):
        if self.inputs and self.synth is not None:
            raise ValueError("give input paths or a synth plan, not both")
        if not 0 <= self.seed <= U64_MASK:
            raise ValueError(f"seed {self.seed} out of range 0..{U64_MASK}")
        object.__setattr__(self, "perturb", replace(self.perturb, seed=self.seed))
        if self.synth is not None:
            object.__setattr__(self, "synth", replace(self.synth, seed=self.seed))
        if self.dprime != "elbow" and (isinstance(self.dprime, str) or self.dprime < 1):
            raise ValueError("dprime must be a positive integer or 'elbow'")
        if self.dprime != "elbow" and self.dprime > SLOTS_PER_DAY:  # one PCA axis per slot
            raise ValueError(f"dprime {self.dprime} out of range 1..{SLOTS_PER_DAY}")
        if self.k != "fpc" and (isinstance(self.k, str) or self.k < 2):
            raise ValueError("k must be an integer >= 2 or 'fpc'")
        if not 1.0 < self.fuzzifier < math.inf:
            raise ValueError("m must be a finite number > 1 or 'default'")
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}")
        for kind in self.experiments:
            if kind not in perturb_mod.EXPERIMENT_KINDS:
                raise ValueError(f"unknown experiment kind {kind!r}")


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


# Parsers of a key's values, called as parse(key, values). A parser that
# returns None leaves the field at its dataclass default.


def _text(key: str, values: list[str]) -> str:
    return values[-1]


def _names(key: str, values: list[str]) -> tuple[str, ...]:
    """A comma list; repeated values accumulate."""
    return tuple(item.strip() for chunk in values for item in chunk.split(",") if item.strip())


def _truth(key: str, values: list[str]) -> bool:
    value = values[-1].lower()
    if value not in _BOOL_VALUES:
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return _BOOL_VALUES[value]


def _number(convert, sentinel: str | None = None):
    """Parser of an int or float; ``sentinel`` stands for the default."""
    noun = "an integer" if convert is int else "a number"
    alternative = f" or {sentinel!r}" if sentinel else ""

    def parse(key: str, values: list[str]):
        value = values[-1]
        if value == sentinel:
            return None
        try:
            return convert(value)
        except ValueError:
            raise ValueError(f"{key} must be {noun}{alternative}, got {value!r}") from None

    return parse


class _Key(NamedTuple):
    field: str  # RunConfig field; "perturb." and "synth." reach into those
    parse: Callable[[str, list[str]], object]
    metavar: str | None  # None: a flag that takes no value
    help: str


# Every config key, in flag order. A key left out keeps the default of
# its dataclass field.
_KNOWN_KEYS = {
    "input": _Key("inputs", _names, "PATH", "readings CSV (repeatable)"),
    "out": _Key("out_dir", _text, "DIR", "output directory (default: out)"),
    "seed": _Key("seed", _number(int), "U64", "master seed (default: 0)"),
    "dprime": _Key("dprime", _number(int, "elbow"), "N|elbow", "kept dimensions"),
    "k": _Key("k", _number(int, "fpc"), "N|fpc", "cluster count"),
    "m": _Key("fuzzifier", _number(float, "default"), "F|default", "fuzzifier"),
    "trials": _Key("perturb.trials", _number(int), "N", "experiment trials (default: 100)"),
    "shrink": _Key("perturb.shrink_factor", _number(float), "F", "radius factor in (0,1)"),
    "density-fraction": _Key("perturb.density_add_fraction", _number(float), "F",
                             "points to add per cluster, as a fraction"),
    "sigma-divisor": _Key("perturb.sigma_divisor", _number(float), "F",
                          "sampler sigma = radius/F"),
    "max-rejection-attempts": _Key("perturb.max_rejection_attempts", _number(int), "N",
                                   "sampler attempts per point"),
    "recluster": _Key("recluster", _truth, None, "refit the clustering per perturbed variant"),
    "space": _Key("space", _text, "reduced|original", "space for index computation"),
    "experiments": _Key("experiments", _names, "KINDS",
                        "comma list for run: outliers,density,diameter"),
    "synth.clusters": _Key("synth.clusters", _number(int), "N", "synthetic clusters"),
    "synth.cluster-size": _Key("synth.cluster_size", _number(int), "N", "households per cluster"),
    "synth.spread": _Key("synth.spread", _number(float), "F", "noise scale of the members"),
    "synth.outliers": _Key("synth.outliers", _number(int), "N", "outlier households"),
    "synth.outlier-mode": _Key("synth.outlier_mode", _text, "far|near", "outlier placement"),
}


def build_run_config(raw: dict[str, list[str]]) -> RunConfig:
    """Typed RunConfig from merged file/flag values (flags already won)."""
    unknown = set(raw) - set(_KNOWN_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    fields: dict[str, dict] = {"": {}, "perturb": {}, "synth": {}}
    for key, row in _KNOWN_KEYS.items():
        if key in raw:
            value = row.parse(key, raw[key])
            if value is not None:
                group, _, name = row.field.rpartition(".")
                fields[group][name] = value
    synth = SynthSpec(**fields["synth"]) if any(key.startswith("synth.") for key in raw) else None
    return RunConfig(synth=synth, perturb=perturb_mod.PerturbConfig(**fields["perturb"]),
                     **fields[""])


def load_run_config(config_path=None, overrides: dict[str, list[str]] | None = None) -> RunConfig:
    """Config file (UTF-8) merged with CLI overrides; overrides win per
    key. The trial worker count is checked here too, before any stage runs."""
    raw: dict[str, list[str]] = {}
    if config_path is not None:
        data = Path(config_path).read_bytes()
        try:
            raw.update(parse_config_text(data.decode("utf-8")))
        except UnicodeDecodeError as exc:
            line = len((data[: exc.start].decode("utf-8") + "?").splitlines())  # "?": the bad byte
            raise ValueError(f"config {config_path} line {line}: not UTF-8") from None
    for key, values in (overrides or {}).items():
        if values:
            raw[key] = list(values)
    config = build_run_config(raw)
    worker_count()
    return config


def config_to_dict(config: RunConfig) -> dict:
    """The manifest's echo of every config key, ``-`` written as ``_``
    and the synth.* keys nested under "synth" (null for readings)."""
    echo: dict = {"synth": None if config.synth is None else {}}
    for key, row in _KNOWN_KEYS.items():
        group, _, name = row.field.rpartition(".")
        owner = getattr(config, group) if group else config
        if owner is None:
            continue
        value = getattr(owner, name)
        target = echo["synth"] if group == "synth" else echo
        target[key.removeprefix("synth.").replace("-", "_")] = (
            list(value) if isinstance(value, tuple) else value
        )
    return echo


# --- artifact writing ---


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _overwrite(path: Path, data: bytes) -> None:
    """``data`` as the whole of ``path``, written over the old bytes and cut
    to length; a symlink there is an error (``O_NOFOLLOW``), not a target."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0) | getattr(os, "O_NOFOLLOW", 0)
    with open(os.open(path, flags, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:  # streamed: an input is never held whole
        return hashlib.file_digest(fh, "sha256").hexdigest()


@dataclass
class RunManifest:
    version: str
    created_utc: str
    seed: int
    config: dict
    input_digests: dict
    artifacts: dict


def load_manifest(out_dir) -> RunManifest:
    """The only parse of manifest.json: anything else there is a ValueError."""
    path = Path(out_dir) / "manifest.json"
    try:
        manifest = RunManifest(**json.loads(path.read_bytes()))
        if (isinstance(manifest.artifacts, dict) and isinstance(manifest.input_digests, dict)
                and manifest.artifacts.keys() <= _ARTIFACTS.keys()):
            return manifest
    except (ValueError, TypeError):  # not JSON, not an object, other keys, other names
        pass
    raise ValueError(f"malformed manifest: {path}")


def update_manifest(config: RunConfig, written: dict[str, bytes]) -> None:
    """Overwrite manifest.json, in place like every file, for one write
    (:func:`_write` is the only caller): the digests of the bytes just
    ``written``, plus the listed artifacts of no later stage than the earliest
    written and of other commands. So new profiles start a new manifest.

    Input digests record the bytes profiles.csv was built from: they are
    taken by the write of profiles.csv and carried forward by every later
    one, which never reads the inputs.
    """
    out = Path(config.out_dir)
    first = min(_ARTIFACTS[name][0] for name in written)
    commands = {_ARTIFACTS[name][1] for name in written}
    previous = load_manifest(out) if first > 0 and (out / "manifest.json").exists() else None
    artifacts = {name: digest for name, digest in (previous.artifacts if previous else {}).items()
                 if _ARTIFACTS[name][0] <= first and _ARTIFACTS[name][1] not in commands}
    artifacts.update((name, hashlib.sha256(data).hexdigest()) for name, data in written.items())
    if "profiles.csv" in written:
        input_digests = {path: _sha256(Path(path)) for path in config.inputs}
        if config.synth is not None:
            input_digests["synth"] = artifacts["profiles.csv"]
    else:
        input_digests = previous.input_digests if previous else {}
    manifest = RunManifest(
        version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
        seed=config.seed,
        config=config_to_dict(config),
        input_digests=input_digests,
        artifacts=dict(sorted(artifacts.items())),
    )
    _overwrite(out / "manifest.json", (json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
               .encode("utf-8"))


def verify_manifest(out_dir) -> list[str]:
    """Names whose on-disk digest no longer matches the manifest."""
    out = Path(out_dir)
    return [name for name, digest in load_manifest(out).artifacts.items()
            if not (out / name).exists() or _sha256(out / name) != digest]


def remove_unlisted(out_dir) -> None:
    """Unlink each artifact the manifest does not list, as every command ends.
    Without a readable manifest: nothing, so no error or stranger's file goes."""
    try:
        listed = load_manifest(out_dir).artifacts
    except (OSError, ValueError):  # no manifest, or not one
        return
    for name in _ARTIFACTS.keys() - listed.keys():
        (Path(out_dir) / name).unlink(missing_ok=True)


# --- pipeline stages: each hands its artifacts' texts to _write (see the module docstring) ---

def _read_experiment(data: bytes) -> perturb_mod.ExperimentReport | str:
    """An experiment record, or the reason of a skipped one."""
    payload = json.loads(data)
    if "skipped" in payload:
        return payload["skipped"]
    report = perturb_mod.experiment_from_dict(payload)
    report.verdicts  # cached; a record that cannot be judged is malformed
    return report


# Every artifact a run may write: its stage, the command that writes it and,
# if a later command reads it back, its parser (lambdas resolve names at
# call time). manifest.json is not one: every write rewrites their index.
_ARTIFACTS: dict[str, tuple[int, str, Callable | None]] = {
    "profiles.csv": (0, "synth or preprocess", lambda data: read_profiles_csv(data)),
    "synth_labels.csv": (0, "synth or preprocess", None),
    "pca.json": (1, "cluster", lambda data: pca_mod.model_from_dict(json.loads(data))),
    "cluster.json": (1, "cluster", lambda data: fcm_mod.model_from_dict(json.loads(data))),
    "cevr.csv": (1, "cluster", None), "fpc.csv": (1, "cluster", None),
    "cvi.json": (2, "validate", lambda data: cvi_mod.report_from_dict(json.loads(data))),
    **{f"experiment_{k}.{ext}": (2, f"experiment {k}", read) for k in perturb_mod.EXPERIMENT_KINDS
       for ext, read in (("json", _read_experiment), ("csv", None))},
    "summary.txt": (3, "report", None), "scatter2d.csv": (3, "report", None),
}


def _write(config: RunConfig, texts: dict[str, str]) -> None:
    """The one writer of stage artifacts: writes each text as UTF-8, in place,
    and lists its digest in the manifest. It unlinks and truncates nothing: on
    ext4, unlinking a written-back file waits on the disk journal (31-64 ms),
    and so does the rewrite of a file truncated to zero (22-74 ms)."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {name: text.encode("utf-8") for name, text in texts.items()}
    for name, data in written.items():
        _overwrite(out / name, data)
    update_manifest(config, written)


def _load_stored(config: RunConfig, *names: str) -> list:
    """Artifacts read back from the output directory and parsed, in the
    order named; every read-back goes through here. An unlisted one is
    missing; a listed one must match its digest before it is parsed, and one
    that does not parse is a ValueError (a CSV error keeps its line)."""
    out = Path(config.out_dir)
    listed = load_manifest(out).artifacts if (out / "manifest.json").exists() else {}
    loaded = []
    for name in names:
        _, producer, read = _ARTIFACTS[name]
        if name not in listed or not (out / name).exists():
            raise FileNotFoundError(f"missing artifact: {name} (run {producer} first)")
        data = (out / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != listed[name]:
            raise RuntimeError(f"artifact digest mismatch: {name}")
        try:
            loaded.append(read(data))
        except CsvFormatError:
            raise
        except (AttributeError, LookupError, TypeError, ValueError):  # not the shape written
            raise ValueError(f"malformed artifact: {name}") from None
    return loaded


def _load_fitted(config: RunConfig, *names: str) -> list:
    """The stored profiles, PCA and FCM models, then ``names``."""
    stored = _load_stored(config, "profiles.csv", "pca.json", "cluster.json", *names)
    if stored[2].labels.shape != (len(stored[0]),):  # not one label per profile
        raise ValueError("malformed artifact: cluster.json")
    return stored


def _load_profiles(config: RunConfig) -> tuple[ProfileMatrix, np.ndarray | None]:
    """Profiles straight from the data source."""
    if config.synth is not None:
        return generate_synthetic(config.synth)
    if not config.inputs:
        raise ValueError("config needs input paths or a synth plan")
    return ingest_readings(config.inputs), None


def _write_data(config: RunConfig, matrix: ProfileMatrix, truth: np.ndarray | None) -> None:
    """profiles.csv (and synth_labels.csv for synthetic runs), in a new
    manifest: what an earlier run left would describe other data."""
    profiles = io.StringIO()
    write_profiles_csv(matrix, profiles)
    texts = {"profiles.csv": profiles.getvalue()}
    if truth is not None:
        rows = "".join(f"{hid},{label}\n" for hid, label in zip(matrix.households, truth))
        texts["synth_labels.csv"] = "household_id,label\n" + rows
    _write(config, texts)


def _fcm_config(config: RunConfig, k: int) -> fcm_mod.FcmConfig:
    """The settings of every FCM fit of a run: baseline and refits alike."""
    return fcm_mod.FcmConfig(k=k, fuzzifier=config.fuzzifier, seed=config.seed)


def _fit_models(
    config: RunConfig, matrix: ProfileMatrix
) -> tuple[pca_mod.PcaModel, fcm_mod.ClusterModel, list[tuple[int, float]], np.ndarray]:
    """PCA + projection + FCM with the configured selection rules, a fixed k
    as the one-point FPC range; also the FPC and CEVR curves."""
    pca_model = pca_mod.fit_pca(matrix)
    cevr = pca_mod.cumulative_explained_variance(pca_model)
    dprime = (pca_mod.select_dimensions_elbow(cevr) if config.dprime == "elbow"
              else int(config.dprime))
    pca_model = pca_model.with_dprime(dprime)
    reduced = pca_mod.project(pca_model, matrix, dprime)
    k_range = ((2, min(fcm_mod.K_MAX_DEFAULT, reduced.shape[0] - 1)) if config.k == "fpc"
               else (config.k, config.k))
    curve, model = fcm_mod.select_cluster_count(reduced, _fcm_config(config, k_range[0]), k_range)
    return pca_model, model, curve, cevr


def _fit(
    config: RunConfig, matrix: ProfileMatrix
) -> tuple[pca_mod.PcaModel, fcm_mod.ClusterModel]:
    """pca.json, cevr.csv, cluster.json and fpc.csv."""
    pca_model, model, curve, cevr = _fit_models(config, matrix)
    cevr_lines = ["dprime,cevr"] + [f"{i + 1},{_fmt9(value)}" for i, value in enumerate(cevr)]
    fpc_lines = ["k,fpc"] + [f"{k},{_fmt9(value)}" for k, value in curve]
    _write(config, {
        "pca.json": _json(pca_mod.model_to_dict(pca_model)),
        "cevr.csv": "\n".join(cevr_lines) + "\n",
        "cluster.json": _json(fcm_mod.model_to_dict(model)),
        "fpc.csv": "\n".join(fpc_lines) + "\n",
    })
    return pca_model, model


def _evaluation_points(
    config: RunConfig, matrix: ProfileMatrix, pca_model: pca_mod.PcaModel
) -> np.ndarray:
    if config.space == "original":
        return matrix.values
    return pca_mod.project(pca_model, matrix, pca_model.chosen_dprime)


def _score(
    config: RunConfig, points: np.ndarray, model: fcm_mod.ClusterModel
) -> cvi_mod.CviReport:
    """cvi.json: the five indices of the partition."""
    report = cvi_mod.evaluate_labels(points, model.labels)
    _write(config, {"cvi.json": _json(cvi_mod.report_to_dict(report))})
    return report


def _experiment(
    kind: str, config: RunConfig, points: np.ndarray, model: fcm_mod.ClusterModel
) -> perturb_mod.ExperimentReport | str:
    """experiment_<kind>.json and .csv. An experiment the partition cannot
    support is recorded as skipped, with its reason, in the JSON alone."""
    runner = {"outliers": perturb_mod.outlier_experiment, "density": perturb_mod.density_experiment,
              "diameter": perturb_mod.diameter_experiment}[kind]
    # Each variant is refit at its own cluster count, with the baseline's settings.
    refit = None if not config.recluster else (
        lambda variant, k: fcm_mod.fit_fcm(variant, _fcm_config(config, k)).labels)
    name = f"experiment_{kind}"
    try:
        report = runner(points, model.labels, config.perturb, refit=refit)
    except perturb_mod.ExperimentSkipped as exc:
        _write(config, {f"{name}.json": _json({"kind": kind, "skipped": str(exc)})})
        return str(exc)
    _write(config, {f"{name}.json": _json(perturb_mod.experiment_to_dict(report)),
                    f"{name}.csv": perturb_mod.experiment_to_csv(report)})
    return report


def _summary_cell(value: float | None) -> str:
    return "error" if value is None else "degenerate" if math.isinf(value) else _fmt9(value)


def _report(
    config: RunConfig,
    matrix: ProfileMatrix,
    pca_model: pca_mod.PcaModel,
    model: fcm_mod.ClusterModel,
    baseline: cvi_mod.CviReport,
    experiments: dict[str, perturb_mod.ExperimentReport | str],
) -> None:
    """summary.txt (indices, experiment averages, verdicts) and
    scatter2d.csv (2-component projection with cluster labels). An
    experiment given as a string was skipped for that reason."""
    flat = pca_mod.project(pca_model, matrix, 2)
    scatter_lines = ["x,y,cluster"] + [
        f"{_fmt9(row[0])},{_fmt9(row[1])},{label}"
        for row, label in zip(flat, model.labels)
    ]
    lines = ["cluster validation summary", f"households: {len(matrix.households)}",
             f"k: {model.k}", f"dprime: {pca_model.chosen_dprime}",
             "", "baseline indices", f"{'index':<8}{'value':>16}"]
    for name in cvi_mod.INDEX_NAMES:
        lines.append(f"{name:<8}{_summary_cell(baseline.value_map()[name]):>16}")
    for kind in perturb_mod.EXPERIMENT_KINDS:
        report = experiments.get(kind)
        if report is None:
            continue
        if isinstance(report, str):
            lines += ["", f"experiment: {kind} skipped ({report})"]
            continue
        compare, label, noun = ((report.average, "average", "trials") if report.average is not None
                                else (report.rows[0].report, "none_kept", "variants"))
        lines += [
            "",
            f"experiment: {kind} ({len(report.rows)} {noun})",
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
    _write(config, {"summary.txt": "\n".join(lines) + "\n",
                    "scatter2d.csv": "\n".join(scatter_lines) + "\n"})


# --- staged commands: load the inputs, run one stage ---


def stage_data(config: RunConfig) -> None:
    """profiles.csv (and synth_labels.csv for synthetic runs), newly listed."""
    _write_data(config, *_load_profiles(config))


def stage_cluster(config: RunConfig) -> None:
    """Reduce and cluster the profiles already in the output directory; the
    scores, experiments and report of the earlier partition leave the listing."""
    (matrix,) = _load_stored(config, "profiles.csv")
    _fit(config, matrix)


def stage_validate(config: RunConfig) -> None:
    """Score the stored partition: cvi.json, and the stale report is unlisted."""
    matrix, pca_model, model = _load_fitted(config)
    _score(config, _evaluation_points(config, matrix, pca_model), model)


def run_experiment(kind: str, config: RunConfig) -> perturb_mod.ExperimentReport | str:
    """One perturbation experiment against the partition stored in the
    output directory; returns the report, or the reason if it was skipped."""
    if kind not in perturb_mod.EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    matrix, pca_model, model = _load_fitted(config)
    return _experiment(kind, config, _evaluation_points(config, matrix, pca_model), model)


def emit_report(config: RunConfig) -> None:
    """summary.txt and scatter2d.csv from the stored partition, its scores and
    every experiment record the manifest lists, each checked like every read."""
    stored = _load_fitted(config, "cvi.json")  # a manifest is there
    listed = load_manifest(config.out_dir).artifacts
    kinds = [kind for kind in perturb_mod.EXPERIMENT_KINDS if f"experiment_{kind}.json" in listed]
    records = _load_stored(config, *(f"experiment_{kind}.json" for kind in kinds))
    _report(config, *stored, dict(zip(kinds, records)))


def run_full(config: RunConfig) -> None:
    """Every stage and the requested experiments in one call: the stages
    the staged commands run, chained in memory, so nothing written is
    read back."""
    matrix, truth = _load_profiles(config)
    _write_data(config, matrix, truth)
    pca_model, model = _fit(config, matrix)
    points = _evaluation_points(config, matrix, pca_model)
    baseline = _score(config, points, model)
    experiments = {kind: _experiment(kind, config, points, model) for kind in config.experiments}
    _report(config, matrix, pca_model, model, baseline, experiments)
