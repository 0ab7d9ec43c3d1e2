"""Command-line front end.

Subcommands cover each pipeline stage (synth, preprocess, cluster,
validate, experiment, report) plus an end-to-end ``run``. Settings come
from an optional flat key=value config file; every key has a same-named
flag, and flags win. Each command ends, failed or not, by removing what
its manifest does not list; a removal that fails is the error only of a
command that did not. Failures print one JSON object to stderr and exit
nonzero; success requires every listed artifact to re-verify on disk.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import pipeline


def _add_flags(parser: argparse.ArgumentParser) -> None:
    """--config plus one flag per config key. Every flag appends, so a
    repeated flag accumulates as a repeated key in the file does."""
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for key, row in pipeline._KNOWN_KEYS.items():
        kind = ({"action": "append_const", "const": "true"} if row.metavar is None
                else {"action": "append", "metavar": row.metavar})
        parser.add_argument(f"--{key}", dest=key, help=row.help, **kind)


def _overrides(args: argparse.Namespace) -> dict[str, list[str]]:
    return {key: getattr(args, key) for key in pipeline._KNOWN_KEYS if getattr(args, key)}


def _dispatch(args: argparse.Namespace, config: pipeline.RunConfig) -> None:
    if args.command == "synth" and config.synth is None:
        raise ValueError("synth needs synth.* settings (e.g. --synth.clusters)")
    if args.command == "preprocess" and not config.inputs:
        raise ValueError("preprocess needs at least one --input readings CSV")
    stage = {
        "synth": pipeline.stage_data,
        "preprocess": pipeline.stage_data,
        "cluster": pipeline.stage_cluster,
        "validate": pipeline.stage_validate,
        "experiment": lambda config: pipeline.run_experiment(args.kind, config),
        "report": pipeline.emit_report,
        "run": pipeline.run_full,
    }
    stage[args.command](config)


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
        try:
            _dispatch(args, config)
        except BaseException:
            with contextlib.suppress(Exception):  # the command's own error wins
                pipeline.remove_unlisted(config.out_dir)
            raise
        pipeline.remove_unlisted(config.out_dir)
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
