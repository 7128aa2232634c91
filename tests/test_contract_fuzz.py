"""Contract fuzzer: seeded structured mutations of small valid input files,
each run through ``condet.cli.main`` in this process on one CPU.

Seven kinds of file are mutated: the native dataset in the writer's
one-record-per-line layout and as one indented document, a calibration
result, a calibration config, a validate spec, COCO ground truth and COCO
detections. A mutation replaces one leaf with a value from ``VALUES``,
deletes one key or array element, or cuts the file's bytes short.

The oracle, for every case:

* the exit code is one of the documented 0-5;
* a failure prints exactly one ``error code=... kind=...`` line, with its
  exit code, and a success prints none;
* no exception escapes ``main`` and no ``RuntimeWarning`` is issued;
* ``kind=data`` comes only from a ``DataFormatError``, an ``OSError`` or a
  ``ValueError`` raised by condet's own code (the constructors' documented
  rules), never from a ``KeyError``, ``TypeError`` or ``OverflowError``;
* an accepted file gives the library's answer: a dataset the ``calibrate``
  result of ``calibrate(load_dataset(path))`` and the ``infer`` and
  ``evaluate`` outputs of the library on the loaded records, as does an
  accepted result file; an imported COCO pair the ``import_coco`` dataset;
  a config a result file that ``load_result`` reads back.

Validate specs are capped small (``trials``, ``n_cal``, ``n_test``,
``synth.n_images``, ``synth.objects_max``) so that no case starts a long
run; a value the number rule refuses is left in place.

``CONDET_FUZZ_CASES`` sets the number of cases of each kind (default 40).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import random
import re
import traceback
import warnings
from dataclasses import asdict
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

import condet
from condet import (
    CalibrationConfig,
    SynthSpec,
    _workers,
    calibrate,
    cli,
    evaluate,
    generate,
    infer,
    load_dataset,
    save_result,
)
from condet.dataio import (
    DataFormatError,
    _write_lines,
    config_to_dict,
    import_coco,
    load_result,
    read_dataset_file,
    write_dataset_file,
)
from helpers import samples_to_dataset

CASES = int(os.environ.get("CONDET_FUZZ_CASES", "40"))

#: The values a replaced leaf takes.
VALUES = (None, True, False, 0.0, -0.0, 1e308, 10**400, "", "x", [], {}, math.nan)

#: The config that the dataset cases calibrate with, given as flags.
CONFIG = CalibrationConfig(0.1, 0.3, 0.3)
CONFIG_FLAGS = ["--alpha-cnf", "0.1", "--alpha-loc", "0.3", "--alpha-cls", "0.3"]

#: Validate-spec caps: (path, largest value).
SPEC_CAPS = ((("trials",), 2), (("n_cal",), 20), (("n_test",), 10),
             (("synth", "n_images"), 30), (("synth", "objects_max"), 3))

PACKAGE = Path(condet.__file__).parent

ERROR_LINE = re.compile(r"^error code=(\d+) kind=(\S+) ")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The valid files of every kind, as loaded JSON, and the fixed files
    that a case's command reads beside the mutated one."""
    root = tmp_path_factory.mktemp("fuzz-base")
    spec = SynthSpec(seed=21, n_images=12, num_classes=3, objects_min=1, objects_max=2)
    dataset_path = root / "data.json"
    write_dataset_file(samples_to_dataset(generate(spec), 3, size=64.0), dataset_path)
    result_path = root / "result.json"
    save_result(calibrate(load_dataset(dataset_path), CONFIG), result_path)
    dataset = json.loads(dataset_path.read_text())
    config = {"calibration": config_to_dict(CalibrationConfig(0.1, 0.3, 0.3, lambda_loc_bounds=(0.0, 64.0)))}
    validate_spec = {
        "synth": asdict(SynthSpec(seed=5, n_images=30, num_classes=3, objects_min=1, objects_max=2)),
        "calibration": {"alpha_cnf": 0.1, "alpha_loc": 0.3, "alpha_cls": 0.3},
        "trials": 1, "n_cal": 20, "n_test": 10, "slack": 1.0,
    }
    coco_gt = {
        "images": [{"id": 1, "width": 100, "height": 80}, {"id": "b", "width": 100, "height": 80}],
        "annotations": [
            {"id": 10, "image_id": 1, "category_id": 7, "bbox": [10, 20, 30, 40]},
            {"id": 11, "image_id": "b", "category_id": 3, "bbox": [0.5, 0, 10, 10]},
        ],
        "categories": [{"id": 3, "name": "cat"}, {"id": 7, "name": "dog"}],
    }
    coco_dets = [
        {"image_id": 1, "category_id": 7, "bbox": [12, 22, 28, 38], "score": 0.9, "scores": [0.25, 0.75]},
        {"image_id": "b", "category_id": 3, "bbox": [1, 1, 9, 9], "score": 0.7},
        {"image_id": 5, "category_id": 3, "bbox": [0, 0, 4, 4], "score": 0.3},
    ]
    coco_gt_path, coco_dets_path = root / "gt.json", root / "dets.json"
    coco_gt_path.write_text(json.dumps(coco_gt))
    coco_dets_path.write_text(json.dumps(coco_dets))
    return {
        "docs": {
            "dataset-lines": dataset,
            "dataset-document": dataset,
            "result": json.loads(result_path.read_text()),
            "config": config,
            "validate-spec": validate_spec,
            "coco-gt": coco_gt,
            "coco-detections": coco_dets,
        },
        "dataset": dataset_path,
        "result": result_path,
        "coco-gt": coco_gt_path,
        "coco-detections": coco_dets_path,
    }


def nodes(value, path=()):
    """``(path, child)`` for every node below the JSON value ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def mutate(doc, rng: random.Random) -> tuple[object, str, float | None]:
    """A copy of ``doc`` with one leaf replaced or one node deleted, its
    description, and for a cut the share of the file's bytes to keep."""
    doc = copy.deepcopy(doc)
    op = rng.choice(("replace", "delete", "cut"))
    if op == "cut":
        keep = rng.random()
        return doc, f"cut to {keep:.3f} of the bytes", keep
    candidates = [path for path, child in nodes(doc)
                  if op == "delete" or not isinstance(child, (dict, list))]
    path = rng.choice(candidates)
    parent = reduce(getitem, path[:-1], doc)
    if op == "delete":
        del parent[path[-1]]
        return doc, f"delete {list(path)}", None
    value = copy.deepcopy(rng.choice(VALUES))
    parent[path[-1]] = value
    return doc, f"set {list(path)} to {value!r:.40}", None


def cap_spec(doc) -> None:
    """Bound the settings of a validate spec ``doc`` that size a run: an
    absent one, or an integer the number rule takes above the cap, is set
    to the cap."""
    for path, limit in SPEC_CAPS:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        value = parent.get(path[-1])
        if path[-1] not in parent or (type(value) is int and limit < value < 1 << 63):
            parent[path[-1]] = limit


def write(kind: str, doc, keep: float | None, path: Path) -> None:
    """Write ``doc`` as a file of ``kind``, cut to the share ``keep`` of its
    bytes when given."""
    if (kind == "dataset-lines" and isinstance(doc, dict) and list(doc)[-1:] == ["images"]
            and isinstance(doc["images"], list)):
        _write_lines(path, {**doc, "images": []}, map(json.dumps, doc["images"]))
    else:
        path.write_text(json.dumps(doc, indent=1 if kind == "dataset-document" else None))
    if keep is not None:
        data = path.read_bytes()
        path.write_bytes(data[: int(keep * len(data))])


def command(kind: str, n: int, base: dict, path: Path, out: Path) -> list:
    """The command line of case ``n`` of ``kind`` on the mutated file ``path``."""
    if kind.startswith("dataset"):
        name = ("calibrate", "infer", "evaluate")[n % 3]
        if name == "calibrate":
            return ["calibrate", "--dataset", path, "--out", out, *CONFIG_FLAGS]
        return [name, "--result", base["result"], "--dataset", path, "--out", out]
    if kind == "result":
        name = ("infer", "evaluate")[n % 2]
        return [name, "--result", path, "--dataset", base["dataset"], "--out", out]
    if kind == "config":
        return ["calibrate", "--dataset", base["dataset"], "--config", path, "--out", out]
    if kind == "validate-spec":
        return ["validate", "--spec", path, "--out", out]
    gt, dets = (path, base["coco-detections"]) if kind == "coco-gt" else (base["coco-gt"], path)
    return ["import-coco", "--gt", gt, "--detections", dets, "--out", out]


def raised_by_condet(exc: BaseException) -> bool:
    """Whether the innermost frame of ``exc``'s traceback is condet's code."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).parent == PACKAGE


def run_case(argv: list, failed: list) -> tuple[int | None, str]:
    """Run ``main(argv)``; return its exit code (None when an exception
    escaped) and a description of every oracle failure but the library
    comparison. ``failed`` receives the exception each ``cli._fail`` call
    reported."""
    stdout, stderr = io.StringIO(), io.StringIO()
    faults = []
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main([str(a) for a in argv])
        except BaseException:
            return None, f"exception escaped main:\n{traceback.format_exc()}"
    warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if warned or "RuntimeWarning" in stderr.getvalue():
        faults.append(f"RuntimeWarning: {[str(w.message) for w in warned]}")
    if code not in range(6):
        faults.append(f"exit code {code!r} is not one of 0-5")
    lines = [m for m in map(ERROR_LINE.match, stderr.getvalue().splitlines()) if m]
    if code == 0 and lines:
        faults.append(f"exit 0 printed {len(lines)} error lines")
    if code != 0 and (len(lines) != 1 or int(lines[0][1]) != code):
        faults.append(f"exit {code} printed error lines {[m[0] for m in lines]}")
    if lines and lines[0][2] == "data":
        exc = failed[-1]
        documented = isinstance(exc, (DataFormatError, OSError)) or (
            type(exc) is ValueError and raised_by_condet(exc)
        )
        if not documented:
            faults.append(f"kind=data from {type(exc).__name__}: {exc}")
    return code, "; ".join(faults)


def expected_predictions(dataset: Path, result) -> list:
    """The library's ``infer`` output for each record of ``dataset``, in
    the form ``condet infer`` writes it."""
    entries = []
    for rec in read_dataset_file(dataset).images:
        kept = [j for j, d in enumerate(rec.detections) if d.confidence >= result.config.prefilter_threshold]
        pred = infer([rec.detections[j] for j in kept], result, image_id=rec.image_id)
        entries.append({
            "image_id": pred.image_id,
            "selected": [
                {"index": kept[sel.index], "box": list(sel.box.as_tuple()),
                 "margined_box": list(sel.margined_box.as_tuple()), "class_set": sorted(sel.class_labels)}
                for sel in pred.selected
            ],
        })
    return entries


def expected_report(dataset: Path, result) -> dict:
    """The library's ``evaluate`` report of ``dataset``, NaN as null as
    ``condet evaluate`` writes it."""
    report = evaluate(load_dataset(dataset, result.config.prefilter_threshold), result)
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in asdict(report).items()}


def check_accepted(kind: str, argv: list, out: Path) -> None:
    """Assert that the output of the accepted command ``argv`` is the
    library's answer."""
    name = argv[0]
    args = dict(zip(argv[1::2], argv[2::2]))
    if name == "calibrate" and kind.startswith("dataset"):
        dataset = args["--dataset"]
        assert load_result(out) == calibrate(load_dataset(dataset, CONFIG.prefilter_threshold), CONFIG)
    elif name == "calibrate":
        load_result(out)
    elif name == "infer":
        result = load_result(args["--result"])
        written = json.loads(out.read_text())
        assert written["predictions"] == expected_predictions(args["--dataset"], result)
        assert [written[k] for k in ("lambda_cnf_plus", "lambda_loc_plus", "lambda_cls_plus")] == [
            result.lambda_cnf_plus, result.lambda_loc_plus, result.lambda_cls_plus]
    elif name == "evaluate":
        result = load_result(args["--result"])
        assert json.loads(out.read_text())["report"] == expected_report(args["--dataset"], result)
    elif name == "import-coco":
        assert read_dataset_file(out) == import_coco(args["--gt"], args["--detections"])


KINDS = ("dataset-lines", "dataset-document", "result", "config", "validate-spec", "coco-gt",
         "coco-detections")


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_files_keep_the_cli_contract(base, tmp_path, monkeypatch, kind):
    monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
    failed = []
    fail = cli._fail
    monkeypatch.setattr(cli, "_fail", lambda code, name, exc: failed.append(exc) or fail(code, name, exc))
    problems = []
    for n in range(CASES):
        rng = random.Random(f"{kind}-{n}")
        doc, mutation, keep = mutate(base["docs"][kind], rng)
        if kind == "validate-spec" and isinstance(doc, dict):
            cap_spec(doc)
        path, out = tmp_path / "case.json", tmp_path / "out.json"
        out.unlink(missing_ok=True)
        write(kind, doc, keep, path)
        argv = command(kind, n, base, path, out)
        code, fault = run_case(argv, failed)
        if not fault and code == 0:
            try:
                check_accepted(kind, argv, out)
            except Exception as exc:  # the library refusing what the command took, too
                fault = f"output differs from the library's: {exc!r}"
        if fault:
            problems.append(f"case {n} ({mutation}; {argv[0]}): {fault}")
    assert not problems, "\n".join(problems)
