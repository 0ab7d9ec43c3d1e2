"""Command-line front end.

Subcommands cover each pipeline stage (synth, preprocess, cluster,
validate, experiment, report) plus an end-to-end ``run``. Settings come
from an optional flat key=value config file; every key has a same-named
flag, and flags win. Failures print one machine-readable JSON object to
stderr and exit nonzero; success requires every written artifact to
re-verify against its manifest digest.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline

def _add_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument(
        "--input", action="append", metavar="PATH", help="readings CSV (repeatable)"
    )
    parser.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    parser.add_argument("--seed", metavar="U64", help="master seed (default: 0)")
    parser.add_argument("--dprime", metavar="N|elbow", help="kept dimensions")
    parser.add_argument("--k", metavar="N|fpc", help="cluster count")
    parser.add_argument("--m", metavar="F|default", help="fuzzifier")
    parser.add_argument("--trials", metavar="N", help="experiment trials (default: 100)")
    parser.add_argument("--shrink", metavar="F", help="radius factor in (0,1)")
    parser.add_argument(
        "--density-fraction", metavar="F", help="points to add per cluster, as a fraction"
    )
    parser.add_argument("--sigma-divisor", metavar="F", help="sampler sigma = radius/F")
    parser.add_argument(
        "--max-rejection-attempts", metavar="N", help="sampler attempts per point"
    )
    parser.add_argument(
        "--recluster",
        action="store_const",
        const="true",
        help="refit the clustering per perturbed variant",
    )
    parser.add_argument(
        "--space", choices=["reduced", "original"], help="space for index computation"
    )
    parser.add_argument(
        "--experiments", metavar="KINDS", help="comma list for run: outliers,density,diameter"
    )
    parser.add_argument("--synth.clusters", dest="synth_clusters", metavar="N")
    parser.add_argument("--synth.cluster-size", dest="synth_cluster_size", metavar="N")
    parser.add_argument("--synth.spread", dest="synth_spread", metavar="F")
    parser.add_argument("--synth.outliers", dest="synth_outliers", metavar="N")
    parser.add_argument(
        "--synth.outlier-mode", dest="synth_outlier_mode", choices=["far", "near"]
    )


def _overrides(args: argparse.Namespace) -> dict[str, list[str]]:
    values: dict[str, list[str]] = {}
    for key in pipeline._KNOWN_KEYS:
        value = getattr(args, key.replace(".", "_").replace("-", "_"), None)
        if value is None:
            continue
        values[key] = [str(v) for v in value] if isinstance(value, list) else [str(value)]
    return values


def _dispatch(args: argparse.Namespace, config: pipeline.RunConfig) -> list[str]:
    if args.command == "synth":
        if config.synth is None:
            raise ValueError("synth needs synth.* settings (e.g. --synth.clusters)")
        return pipeline.stage_data(config)
    if args.command == "preprocess":
        if not config.inputs:
            raise ValueError("preprocess needs at least one --input readings CSV")
        return pipeline.stage_data(config)
    if args.command == "cluster":
        return pipeline.stage_cluster(config)
    if args.command == "validate":
        return pipeline.stage_validate(config)
    if args.command == "experiment":
        _, written = pipeline.run_experiment(args.kind, config)
        return written
    if args.command == "report":
        return pipeline.emit_report(config)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvilab",
        description="Load-profile clustering with validation-index experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("synth", "generate a synthetic profile population"),
        ("preprocess", "readings CSV to median daily profiles"),
        ("cluster", "reduce dimensions and fit the fuzzy clustering"),
        ("validate", "score the stored partition with all five indices"),
        ("report", "write summary.txt and scatter2d.csv"),
        ("run", "full pipeline, experiments, and report from a config"),
    ]:
        _add_flags(sub.add_parser(name, help=text))
    experiment = sub.add_parser("experiment", help="run one perturbation experiment")
    experiment.add_argument("kind", metavar="outliers|density|diameter")
    _add_flags(experiment)

    args = parser.parse_args(argv)
    try:
        config = pipeline.load_run_config(args.config, _overrides(args))
        if args.command == "run":
            pipeline.run_full(config)
        else:
            written = _dispatch(args, config)
            pipeline.update_manifest(config, written)
        bad = pipeline.verify_manifest(config.out_dir)
        if bad:
            raise RuntimeError(f"artifact digest mismatch: {', '.join(bad)}")
        return 0
    except Exception as exc:  # CLI boundary: every failure becomes error JSON
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
