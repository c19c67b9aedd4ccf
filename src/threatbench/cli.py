"""Command-line interface.

Subcommands: `generate` (dataset only), `run` (full pipeline + report),
`evaluate` (check a report against acceptance bands), `report` (re-render the
human summary from a report document).

Exit codes: 0 success, 1 failed evaluation bands, 2 config error, 3 data
error, 4 numeric failure during fitting, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from importlib import resources

from .errors import ConfigError, DataError, NumericError
from .pipeline import (
    DOMAINS,
    PipelineConfig,
    emit_report,
    generator_config,
    parse_report,
    render_summary,
    run_domain,
    write_dataset,
)
from .synthgen import GENERATORS
from .tabular import read_json


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError as exc:
        raise ConfigError(f"override {key.strip()!r} is nested too deeply to parse") from exc
    return key.strip(), value


def _apply_override(config_dict: dict, key: str, value) -> None:
    """Set the dotted `key` in `config_dict`, creating each missing section on
    its path; a path through a value that is not a section is a ConfigError."""
    parts = key.split(".")
    target = config_dict
    for part in parts[:-1]:
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise ConfigError(f"override {key!r} does not address a config section at {part!r}")
    target[parts[-1]] = value


def _json_object(path, what: str) -> dict:
    """The JSON object in the `what` file at `path`, else a ConfigError."""
    doc = read_json(path, what, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object, got {doc!r:.80}")
    return doc


def _build_config(args) -> PipelineConfig:
    """The config the user gave: the config file, then --seed, then each
    --override in turn. `PipelineConfig.validate` lays it over the defaults."""
    given = _json_object(args.config, "config") if args.config else {}
    if given.get("domain", args.domain) != args.domain:
        raise ConfigError(f"config file domain {given['domain']!r} conflicts with requested domain {args.domain!r}")
    given["domain"] = args.domain
    if args.seed is not None:
        given["seed"] = args.seed
    for item in args.override or []:
        _apply_override(given, *_parse_override(item))
    try:
        config = PipelineConfig.from_dict(given)
        config.validate()
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to check") from exc
    return config


def _cmd_generate(args) -> int:
    config = _build_config(args)
    dataset = GENERATORS[config.domain](generator_config(config))
    paths = write_dataset(dataset, config.domain, args.out or ".")
    print(f"wrote {dataset.n} rows to {paths['dataset']}")
    if "events" in paths:
        print(f"wrote event log to {paths['events']}")
    return 0


def _cmd_run(args) -> int:
    config = _build_config(args)
    out_dir = args.out or os.path.join("runs", config.domain)
    report = run_domain(config, out_dir=out_dir)
    paths = emit_report(report, out_dir)
    print(render_summary(report))
    print(f"report: {paths['report_json']}")
    return 0


_BAND_METRICS = {
    "min_accuracy": ("accuracy", lambda m: m["accuracy"]),
    "min_auc": ("ROC-AUC", lambda m: m["roc_auc"]),
    "min_threat_f1": ("threat-class F1", lambda m: m["per_class"]["1"]["f1"]),
    "min_threat_recall": ("threat-class recall", lambda m: m["per_class"]["1"]["recall"]),
    "min_macro_f1": ("macro-F1", lambda m: m["macro_f1"]),
}


def _load_expectations(path):
    """The bands document at `path`, or the packaged one: an object mapping
    each domain key to model -> `_BAND_METRICS` key -> number. Keys that name
    no domain (its schema_version and description) are not read."""
    path = path or resources.files("threatbench") / "data" / "expectations.json"
    doc = _json_object(path, "expectations")
    for domain in DOMAINS:
        models = doc.get(domain, {})
        if not isinstance(models, dict) or not all(isinstance(bands, dict) and all(
                key in _BAND_METRICS and type(bound) in (int, float) for key, bound in bands.items())
                for bands in models.values()):
            raise ConfigError(f"expectations file {path} must map {domain!r} to model -> band -> number, "
                              f"with bands from {sorted(_BAND_METRICS)}; got {models!r:.80}")
    return doc


@contextmanager
def _reading(path):
    """A report document at `path` that lacks a field the block reads, or
    holds one of the wrong type, is a DataError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed report document {path}: {exc!r}") from exc


def evaluate_report(report, expectations) -> list:
    """Returns [(criterion, value, bound, passed), ...] for the report's domain."""
    domain_bands = expectations.get(report.domain, {})
    results = []
    for model_name, bands in sorted(domain_bands.items()):
        metrics = report.models.get(model_name)
        if metrics is None:
            results.append((f"{report.domain}/{model_name}: model present", None, None, False))
            continue
        for band_key, bound in sorted(bands.items()):
            label, getter = _BAND_METRICS[band_key]
            value = getter(metrics)
            passed = value is not None and value >= bound
            results.append((f"{report.domain}/{model_name}: {label}", value, bound, passed))
    return results


def _cmd_evaluate(args) -> int:
    report = parse_report(args.report)
    expectations = _load_expectations(args.expectations)
    with _reading(args.report):
        results = evaluate_report(report, expectations)
    if not results:
        print(f"no expectations defined for domain {report.domain!r}")
        return 0
    all_pass = True
    for criterion, value, bound, passed in results:
        status = "PASS" if passed else "FAIL"
        shown = "missing" if value is None else f"{value:.4f}"
        print(f"{status}  {criterion}: {shown} (bound {bound})")
        all_pass = all_pass and passed
    return 0 if all_pass else 1


def _cmd_report(args) -> int:
    report = parse_report(args.report)
    with _reading(args.report):
        summary = render_summary(report)
    if args.out:
        path = os.path.join(args.out, "report.txt")
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(summary)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc
        print(f"wrote {path}")
    else:
        print(summary, end="")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="threatbench", description="Synthetic threat-detection benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("domain", choices=DOMAINS)
        p.add_argument("--config", help="JSON config file mirroring PipelineConfig fields")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="dotted config override, e.g. generator.n=2000 (repeatable)")

    g = sub.add_parser("generate", help="generate a domain dataset")
    add_run_args(g)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("run", help="run one domain pipeline end to end")
    add_run_args(r)
    r.set_defaults(func=_cmd_run)

    e = sub.add_parser("evaluate", help="check a run report against acceptance bands")
    e.add_argument("--report", required=True, help="path to report.json")
    e.add_argument("--expectations", help="bands file (default: packaged expectations)")
    e.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="render the human-readable summary of a report")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--out", help="directory for report.txt (default: print)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
