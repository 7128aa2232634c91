"""Command-line interface: calibrate, infer, evaluate, import-coco, validate.

Exit codes partition the failure classes so scripts can tell statistical
infeasibility from data problems:

  0  success
  1  I/O, parse or schema error, or a worker process that died
     (``BrokenProcessPool``, kind=worker)
  2  error levels violate the guarantee precondition
  3  no feasible second-step parameter (alpha too small for the data)
  4  result/config digest mismatch
  5  validation found a mean risk above its target plus slack

Every error prints one machine-parsable line to stderr. Log verbosity is
controlled by the CONDET_LOG environment variable (debug/info/warning).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .calibration import (
    CalibrationConfig,
    CalibrationPreconditionError,
    InfeasibleRiskError,
    _calibrate,
)
from .dataio import (
    DataFormatError,
    DigestMismatchError,
    _from_json,
    _load_json,
    _load_table,
    _map_tables,
    _write_json,
    _write_lines,
    config_digest,
    config_from_dict,
    config_to_dict,
    import_coco,
    load_result,
    save_result,
    write_dataset_file,
)
from .inference_metrics import _evaluate_table, _infer_table
from .losses import AGGREGATION_KINDS, CONF_LOSS_KINDS, LOC_LOSS_KINDS
from .matching import MATCH_KINDS
from .predsets import CLS_SET_KINDS, LOC_SET_KINDS
from .synth import (
    VALIDATION_TASKS,
    SynthSpec,
    format_report_table,
    monte_carlo_validate,
    report_to_dict,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_PRECONDITION = 2
EXIT_INFEASIBLE = 3
EXIT_DIGEST = 4
EXIT_GUARANTEE = 5

log = logging.getLogger("condet")


def _setup_logging() -> None:
    level = os.environ.get("CONDET_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _fail(code: int, kind: str, exc: BaseException) -> int:
    print(f'error code={code} kind={kind} detail="{exc}"', file=sys.stderr)
    return code


#: CLI defaults of the error levels, below the config file and the flags.
_DEFAULT_ALPHAS = {"alpha_cnf": 0.02, "alpha_loc": 0.05, "alpha_cls": 0.05}

#: Each config flag in help order: its config key path (``spec.field`` for a
#: nested spec) and its argparse keywords. Its dest is argparse's default.
_CONFIG_FLAGS = (
    ("--alpha-cnf", "alpha_cnf", {"type": float}),
    ("--alpha-loc", "alpha_loc", {"type": float}),
    ("--alpha-cls", "alpha_cls", {"type": float}),
    ("--loss-confidence", "loss_spec.confidence_kind", {"choices": CONF_LOSS_KINDS}),
    ("--loss-localization", "loss_spec.localization_kind", {"choices": LOC_LOSS_KINDS}),
    ("--loss-localization-tau", "loss_spec.localization_tau", {"type": float}),
    ("--loss-classification-aggregation", "loss_spec.classification_aggregation",
     {"choices": AGGREGATION_KINDS}),
    ("--predset-localization", "predset_spec.localization_kind", {"choices": LOC_SET_KINDS}),
    ("--predset-classification", "predset_spec.classification_kind", {"choices": CLS_SET_KINDS}),
    ("--match", "match_spec.kind", {"choices": MATCH_KINDS}),
    ("--tau", "match_spec.tau",
     {"type": float, "help": "mixing weight for the mix matching distance"}),
    ("--prefilter", "prefilter_threshold",
     {"type": float, "help": "confidence floor applied at ingestion"}),
    ("--no-finite-sample-correction", "finite_sample_correction",
     {"action": "store_const", "const": False, "help": argparse.SUPPRESS}),
)


def _flag_value(args: argparse.Namespace, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def _config_given(args: argparse.Namespace) -> bool:
    """Whether ``--config`` or any config flag was given."""
    flags = ["--config", "--lambda-loc-min", "--lambda-loc-max"] + [f for f, _, _ in _CONFIG_FLAGS]
    return any(_flag_value(args, f) is not None for f in flags)


def _build_config(args: argparse.Namespace, raw: dict | None = None) -> CalibrationConfig:
    """Merge the CLI defaults, then config-file values, then flags (flags win)."""
    if raw is None:
        raw = _load_json(args.config) if args.config else {}
        if isinstance(raw, dict):
            raw = raw.get("calibration", raw)
    if not isinstance(raw, dict):
        raise DataFormatError("calibration config must be a JSON object")
    raw = {**_DEFAULT_ALPHAS, **raw}
    for flag, path, _ in _CONFIG_FLAGS:
        value = _flag_value(args, flag)
        if value is not None:
            spec, _, key = path.rpartition(".")
            if not spec:
                raw[key] = value
            elif isinstance(raw.get(spec, {}), dict):  # else config_from_dict names the spec
                raw[spec] = {**raw.get(spec, {}), key: value}
    if args.lambda_loc_min is not None or args.lambda_loc_max is not None:
        lo = args.lambda_loc_min if args.lambda_loc_min is not None else 0.0
        hi = args.lambda_loc_max
        if hi is None:
            raise DataFormatError("--lambda-loc-max is required when --lambda-loc-min is given")
        raw["lambda_loc_bounds"] = [lo, hi]
    return config_from_dict(raw)


def _output(config: CalibrationConfig, **fields) -> dict:
    """An ``infer``, ``evaluate`` or ``validate`` output: its schema version
    and the configuration echo, then ``fields``."""
    return {"schema_version": 1, "config": config_to_dict(config), **fields}


def _write_output(path, config: CalibrationConfig, **fields) -> None:
    _write_json(path, _output(config, **fields))


def _print_aligned(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = _calibrate(_load_table(args.dataset, config.prefilter_threshold), config)
    save_result(result, args.out)
    _print_aligned(
        [
            ("lambda_cnf_plus", f"{result.lambda_cnf_plus:.10g}"),
            ("lambda_cnf_minus", f"{result.lambda_cnf_minus:.10g}"),
            ("lambda_loc_plus", f"{result.lambda_loc_plus:.10g}"),
            ("lambda_cls_plus", f"{result.lambda_cls_plus:.10g}"),
            ("n_calibration", str(result.n_calibration)),
        ]
        + [(k, f"{v:.6g}") for k, v in result.diagnostics.items()]
    )
    log.info("wrote calibration result to %s", args.out)
    return EXIT_OK


def _runs(items: list, counts: np.ndarray) -> list[list]:
    """``items`` cut into consecutive runs of ``counts`` items."""
    ends = np.cumsum(counts).tolist()
    return [items[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _prediction_lines(table, result) -> list[str]:
    """Each image's ``infer`` output entry for the ``_SampleTable``
    ``table``, encoded as JSON on one line: its selections in file order,
    each with its position in the file's detection list."""
    counts, index, box, margined, sets = _infer_table(table, result)
    class_sets = _runs(np.nonzero(sets)[1].tolist(), np.count_nonzero(sets, axis=1))
    selected = [
        {"index": i, "box": b, "margined_box": m, "class_set": c}
        for i, b, m, c in zip(index.tolist(), box.T.tolist(), margined.T.tolist(), class_sets)
    ]
    return [json.dumps({"image_id": image_id, "selected": sel})
            for image_id, sel in zip(table.image_ids, _runs(selected, counts))]


def cmd_infer(args: argparse.Namespace) -> int:
    result = load_result(args.result)
    if _config_given(args):
        supplied = _build_config(args)
        if supplied.lambda_loc_bounds is None:
            # The result stores the bounds calibration resolved from its data.
            supplied = replace(supplied, lambda_loc_bounds=result.config.lambda_loc_bounds)
        if config_digest(supplied) != config_digest(result.config) and not args.allow_config_mismatch:
            raise DigestMismatchError(
                "supplied configuration differs from the one the result was "
                "calibrated with; pass --allow-config-mismatch to proceed"
            )
    # Every span has returned before the file is opened: a failing run
    # leaves --out untouched.
    floor = result.config.prefilter_threshold
    _, _, spans = _map_tables(args.dataset, floor, _prediction_lines, result)
    entries = [entry for lines in spans for entry in lines]
    head = _output(
        result.config,
        lambda_cnf_plus=result.lambda_cnf_plus,
        lambda_loc_plus=result.lambda_loc_plus,
        lambda_cls_plus=result.lambda_cls_plus,
        predictions=[],
    )
    _write_lines(args.out, head, entries)
    print(f"wrote {len(entries)} per-image predictions to {args.out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    result = load_result(args.result)
    report = _evaluate_table(_load_table(args.dataset, result.config.prefilter_threshold), result)
    _print_aligned(
        [
            ("n_test", str(report.n_test)),
            ("cnf_risk", f"{report.cnf_risk:.5f} (target {result.config.alpha_cnf})"),
            ("loc_risk", f"{report.loc_risk:.5f} (target {result.config.alpha_loc})"),
            ("cls_risk", f"{report.cls_risk:.5f} (target {result.config.alpha_cls})"),
            (
                "global_risk",
                f"{report.global_risk:.5f} (target "
                f"{result.config.alpha_loc + result.config.alpha_cls})",
            ),
            ("cnf_set_size", f"{report.cnf_set_size:.4f}"),
            ("loc_set_size", f"{report.loc_set_size:.4f}"),
            ("cls_set_size", f"{report.cls_set_size:.4f}"),
            ("images_without_selection", str(report.n_images_without_selection)),
            ("zero_area_boxes_skipped", str(report.n_zero_area_boxes_skipped)),
        ]
    )
    if args.out:
        # A set size is undefined (NaN) when no image has a selection: null.
        fields = {k: None if isinstance(v, float) and math.isnan(v) else v
                  for k, v in asdict(report).items()}
        _write_output(args.out, result.config, report=fields)
    return EXIT_OK


def cmd_import_coco(args: argparse.Namespace) -> int:
    dataset = import_coco(args.gt, args.detections)
    write_dataset_file(dataset, args.out)
    print(
        f"imported {len(dataset.images)} images, {dataset.num_classes} classes "
        f"-> {args.out}"
    )
    return EXIT_OK


#: ``condet validate``'s trial settings: each spec key, which is also its
#: flag's dest, with its type and default, below the spec file and the flag.
#: A flag's value is decoded by the rule of the key it overrides.
_VALIDATE_SETTINGS = {"trials": (int, 20), "n_cal": (int, 200), "n_test": (int, 200), "slack": (float, 0.01)}


def cmd_validate(args: argparse.Namespace) -> int:
    raw = _load_json(args.spec) if args.spec else {}
    if not isinstance(raw, dict):
        raise DataFormatError(f"{args.spec}: validation spec must be a JSON object")
    unknown = sorted(set(raw) - {"synth", "calibration", *_VALIDATE_SETTINGS})
    if unknown:
        raise DataFormatError(f"{args.spec}: unknown keys {unknown} in validation spec")
    synth_raw = raw.get("synth", {})
    if args.seed is not None and isinstance(synth_raw, dict):  # else _from_json names it
        synth_raw = {**synth_raw, "seed": args.seed}
    spec = _from_json(SynthSpec, synth_raw, "synth", SynthSpec())
    config = _build_config(args, raw.get("calibration"))
    settings = {}
    for name, (tp, default) in _VALIDATE_SETTINGS.items():
        flag = getattr(args, name)
        settings[name] = _from_json(tp, flag if flag is not None else raw.get(name, default), name)
    slack = settings.pop("slack")
    if not 0.0 <= slack < math.inf:
        raise DataFormatError(f"slack must be finite and >= 0, got {slack}")
    report = monte_carlo_validate(spec, config, **settings)
    print(format_report_table(report))
    if args.out:
        _write_output(
            args.out, config, synth=asdict(spec), slack=slack, report=report_to_dict(report)
        )
    summaries = {key: getattr(report, field) for field, key, _ in VALIDATION_TASKS}
    violations = [
        key for key, summary in summaries.items() if summary.mean_risk > summary.alpha + slack
    ]
    if violations:
        print(
            f'error code={EXIT_GUARANTEE} kind=guarantee detail="mean risk above '
            f'target+slack for: {", ".join(violations)}"',
            file=sys.stderr,
        )
        return EXIT_GUARANTEE
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override its values)")
    for flag, _, keywords in _CONFIG_FLAGS:
        parser.add_argument(flag, **keywords)
    parser.add_argument("--lambda-loc-min", type=float)
    parser.add_argument("--lambda-loc-max", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condet",
        description="Risk-controlled conformal post-processing for object detections.",
    )
    parser.add_argument("--version", action="version", version=f"condet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="tune the threshold and correction parameters")
    p.add_argument("--dataset", required=True, help="native dataset JSON (calibration split)")
    p.add_argument("--out", required=True, help="output path for the calibration result")
    _add_config_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("infer", help="apply a calibration result to new images")
    p.add_argument("--result", required=True, help="calibration result file")
    p.add_argument("--dataset", required=True, help="native dataset JSON to post-process")
    p.add_argument("--out", required=True, help="output path for per-image predictions")
    p.add_argument(
        "--allow-config-mismatch",
        action="store_true",
        help="proceed even when --config or the config flags do not match the result's digest",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="measure risks and set sizes on held-out data")
    p.add_argument("--result", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("import-coco", help="convert COCO annotations + results to the native schema")
    p.add_argument("--gt", required=True, help="COCO annotation file")
    p.add_argument("--detections", required=True, help="COCO detection-results file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import_coco)

    p = sub.add_parser("validate", help="Monte Carlo check of the risk guarantee on synthetic data")
    p.add_argument("--spec", help="JSON file with synth/calibration/trial settings")
    p.add_argument("--trials", type=int)
    p.add_argument("--n-cal", dest="n_cal", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--slack", type=float, help="tolerance added to each target (default 0.01)")
    p.add_argument("--out", help="optional JSON report path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CalibrationPreconditionError as exc:
        return _fail(EXIT_PRECONDITION, "precondition", exc)
    except InfeasibleRiskError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", exc)
    except DigestMismatchError as exc:
        return _fail(EXIT_DIGEST, "digest-mismatch", exc)
    except (OSError, ValueError) as exc:  # DataFormatError is a ValueError
        return _fail(EXIT_DATA, "data", exc)
    except RuntimeError as exc:
        # A worker map that lost a worker raises BrokenProcessPool. Imported
        # only here: the import would land on every condet command.
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        return _fail(EXIT_DATA, "worker", exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
