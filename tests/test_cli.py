import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import condet
from condet import (
    BoundingBox,
    CalibrationConfig,
    CalibrationResult,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    _workers,
    dataio,
    generate,
    monte_carlo_validate,
    save_result,
)
from condet.cli import main
from condet.dataio import _chunks, config_to_dict, write_dataset_file
from condet.losses import Detection, ImageSample
from helpers import one_value_per_line, record_spans, samples_to_dataset, samples_to_dataset_file
from test_formats_golden import CLI_CASES, COCO_SPEC, GOLDEN, N_CAL, run_cli, sha


@pytest.fixture
def dataset_paths(tmp_path):
    spec = SynthSpec(seed=20, n_images=40, objects_min=1, objects_max=3,
                     box_noise_std=1.5, num_classes=4)
    samples = generate(spec)
    cal = tmp_path / "cal.json"
    test = tmp_path / "test.json"
    samples_to_dataset_file(samples[:25], 4, cal, size=64.0)
    samples_to_dataset_file(samples[25:], 4, test, size=64.0)
    return cal, test


def run(argv):
    return main([str(a) for a in argv])


#: A JSON integer past the float range, and the reasons the number rule
#: gives for an integer past a float or an int64 field's range.
BIG = 10**400
FLOAT_RANGE = "an integer is beyond the float range"
INT64_RANGE = "an integer is beyond the int64 range"


def no_trial(*args, **kwargs):
    raise AssertionError("a validation run started")


class TestCalibrateCommand:
    def test_happy_path(self, dataset_paths, tmp_path, capsys):
        cal, _ = dataset_paths
        out = tmp_path / "result.json"
        code = run(
            [
                "calibrate", "--dataset", cal, "--out", out,
                "--alpha-cnf", "0.05", "--alpha-loc", "0.3", "--alpha-cls", "0.3",
                "--loss-localization", "boxwise",
            ]
        )
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "lambda_cnf_plus" in stdout
        payload = json.loads(out.read_text())
        assert payload["config"]["alpha_loc"] == 0.3

    def test_detections_below_the_prefilter_leave_the_result(self, tmp_path):
        # The reader drops them, so the result file is the same bytes.
        samples = generate(SynthSpec(seed=23, n_images=30, objects_min=1, objects_max=3,
                                     box_noise_std=1.5, num_classes=4, false_positive_rate=1.0))
        plain = samples_to_dataset(samples, 4, size=64.0)
        low = tuple(
            Detection(BoundingBox(4.0 * j, 2.0, 4.0 * j + 9.0, 11.0), (0.25,) * 4, confidence)
            for j, confidence in enumerate((0.0, 5e-4, 9.99e-4))
        )
        padded = replace(plain, images=tuple(
            replace(rec, detections=low[: i % 4] + rec.detections)
            for i, rec in enumerate(plain.images)
        ))
        for name, dataset in (("plain", plain), ("padded", padded)):
            write_dataset_file(dataset, tmp_path / f"{name}.json")
            assert run([
                "calibrate", "--dataset", tmp_path / f"{name}.json", "--out", tmp_path / f"{name}.out",
                "--alpha-cnf", "0.1", "--alpha-loc", "0.3", "--alpha-cls", "0.3",
                "--loss-confidence", "box_count_recall",
            ]) == 0
        assert (tmp_path / "padded.out").read_bytes() == (tmp_path / "plain.out").read_bytes()
        assert json.loads((tmp_path / "plain.out").read_text())["lambda_cnf_minus"] > 0.0

    def test_precondition_violation_exit_2(self, dataset_paths, tmp_path, capsys):
        cal, _ = dataset_paths
        code = run(
            [
                "calibrate", "--dataset", cal, "--out", tmp_path / "r.json",
                "--alpha-cnf", "0.2", "--alpha-loc", "0.21", "--alpha-cls", "0.5",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha_loc" in err and "code=2" in err

    def test_infeasible_exit_3(self, tmp_path, capsys):
        # one image with objects but no detections pins the localization risk
        # above any attainable level
        spec = SynthSpec(seed=21, n_images=4, objects_min=1, objects_max=2,
                         box_noise_std=1.0, num_classes=4)
        samples = generate(spec)
        broken = samples[0].__class__(samples[0].image_id, samples[0].ground_truths, ())
        path = tmp_path / "cal.json"
        samples_to_dataset_file([broken] + samples[1:], 4, path, size=64.0)
        code = run(
            [
                "calibrate", "--dataset", path, "--out", tmp_path / "r.json",
                "--alpha-cnf", "0.05", "--alpha-loc", "0.3", "--alpha-cls", "0.9",
            ]
        )
        assert code == 3
        assert "code=3" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = run(["calibrate", "--dataset", tmp_path / "nope.json", "--out", tmp_path / "r.json"])
        assert code == 1
        assert "code=1" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        # A bare ValueError, without the file name, that told the user to
        # call sys.set_int_max_str_digits().
        (b'{"schema_version": 1, "width": 1' + b"0" * 5000 + b"}", "a JSON integer has too many digits"),
        # An uncaught RecursionError.
        (b"[" * 200_000, "JSON nested too deeply"),
    ], ids=["long-integer", "deep-nesting"])
    def test_unreadable_json_exit_1(self, tmp_path, capsys, content, message):
        path = tmp_path / "cal.json"
        path.write_bytes(content)
        code = run(["calibrate", "--dataset", path, "--out", tmp_path / "r.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert f'code=1 kind=data detail="{path}: {message}"' in err
        assert "set_int_max_str_digits" not in err

    def test_imports_neither_numpy_ma_nor_multiprocessing(self, dataset_paths, tmp_path):
        # numpy.ma cost every calibrate process 16-20 ms, through np.unique;
        # multiprocessing ~12 ms. Importing condet, which this covers, must
        # not load a process pool's modules either.
        cal, _ = dataset_paths
        script = (
            "import sys; from condet.cli import main; "
            "assert main(sys.argv[1:]) == 0; "
            "print([m for m in ('numpy.ma', 'multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])"
        )
        argv = ["calibrate", "--dataset", cal, "--out", tmp_path / "r.json",
                "--alpha-cnf", "0.05", "--alpha-loc", "0.3", "--alpha-cls", "0.3",
                "--loss-localization", "boxwise"]
        src = str(Path(condet.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_non_finite_box_exit_1(self, dataset_paths, tmp_path, capsys):
        cal, _ = dataset_paths
        payload = json.loads(cal.read_text())
        payload["images"][2]["ground_truths"][0]["box"][3] = float("inf")
        cal.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        code = run(["calibrate", "--dataset", cal, "--out", out, "--alpha-cnf", "0.05"])
        assert code == 1
        err = capsys.readouterr().err
        assert "ground truth #0: box coordinates must be finite" in err and "code=1" in err
        assert not out.exists()

    def test_json_boolean_class_id_exit_1(self, dataset_paths, tmp_path, capsys):
        cal, _ = dataset_paths
        payload = json.loads(cal.read_text())
        payload["images"][3]["ground_truths"][0]["class_id"] = False
        cal.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        code = run(["calibrate", "--dataset", cal, "--out", out, "--alpha-cnf", "0.05"])
        assert code == 1
        err = capsys.readouterr().err
        assert "ground truth #0: class_id False is not an integer" in err and "code=1" in err
        assert not out.exists()

    def test_box_integer_beyond_float_range_exit_1(self, dataset_paths, tmp_path, capsys):
        # It ended in a traceback from an OverflowError.
        cal, _ = dataset_paths
        payload = json.loads(cal.read_text())
        payload["images"][1]["detections"][0]["box"][2] = 10**400
        cal.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        code = run(["calibrate", "--dataset", cal, "--out", out, "--alpha-cnf", "0.05"])
        assert code == 1
        err = capsys.readouterr().err
        assert "detection #0: box must be a 4-element" in err and "beyond the float range" in err
        assert "code=1 kind=data" in err
        assert not out.exists()

    def test_non_number_box_exit_1(self, dataset_paths, tmp_path, capsys):
        cal, _ = dataset_paths
        payload = json.loads(cal.read_text())
        payload["images"][1]["detections"][0]["box"] = ["1", True, "10", 12]
        cal.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        code = run(["calibrate", "--dataset", cal, "--out", out, "--alpha-cnf", "0.05"])
        assert code == 1
        err = capsys.readouterr().err
        assert "detection #0: box must be a 4-element [left, top, right, bottom] array of numbers" in err and "code=1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("class_names", "abcd", "class_names must be an array of strings, got 'abcd'"),
            ("width", "640", "width must be a finite number >= 0, got '640'"),
            ("image_id", None, "image record #1: image_id must be a string or an integer, got None"),
            pytest.param("height", 10**400, f"height must be a finite number >= 0, got {10**400}",
                         id="height-10**400"),
            ("schema_version", True, "unsupported dataset schema version True (expected 1)"),
        ],
    )
    def test_invalid_native_field_exit_1(self, dataset_paths, tmp_path, capsys, key, value, message):
        # Each of these loaded without an error.
        cal, _ = dataset_paths
        payload = json.loads(cal.read_text())
        (payload if key in ("class_names", "schema_version") else payload["images"][1])[key] = value
        cal.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        code = run(["calibrate", "--dataset", cal, "--out", out, "--alpha-cnf", "0.05"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cal}: " in err and message in err and "code=1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "calibration, message",
        [
            ({"finite_sample_correction": "no"}, "finite_sample_correction must be true or false"),
            ({"binary_search_steps": 32}, "unknown keys ['binary_search_steps'] in config"),
            ({"loss_spec": {"classification_aggregation": "thresholded",
                            "aggregation_tau": float("nan")}}, "aggregation_tau must lie in"),
        ],
    )
    def test_invalid_config_file_exit_1(self, dataset_paths, tmp_path, capsys, calibration, message):
        cal, _ = dataset_paths
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"calibration": {
            "alpha_cnf": 0.05, "alpha_loc": 0.4, "alpha_cls": 0.4, **calibration,
        }}))
        out = tmp_path / "r.json"
        code = run(["calibrate", "--dataset", cal, "--out", out, "--config", cfg])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "code=1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "calibration, flags, message",
        [
            # Each ended in "'int' (or 'list') object is not a mapping".
            ({"loss_spec": 5}, ["--loss-localization", "boxwise"], "loss_spec must be an object"),
            ({"match_spec": [["kind", "giou"]]}, ["--tau", "0.5"], "match_spec must be an object"),
        ],
    )
    def test_invalid_config_file_with_flag_exit_1(self, dataset_paths, tmp_path, capsys, calibration,
                                                  flags, message):
        cal, _ = dataset_paths
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"calibration": {
            "alpha_cnf": 0.05, "alpha_loc": 0.4, "alpha_cls": 0.4, **calibration,
        }}))
        out = tmp_path / "r.json"
        code = run(["calibrate", "--dataset", cal, "--out", out, "--config", cfg] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert f'code=1 kind=data detail="invalid calibration config: {message}"' in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ([0.05], [], "calibration config must be a JSON object"),
            ({"calibration": "x"}, [], "calibration config must be a JSON object"),
            (None, ["--lambda-loc-min", "1"], "--lambda-loc-max is required when --lambda-loc-min is given"),
        ],
    )
    def test_invalid_config_shape_exit_1(self, dataset_paths, tmp_path, capsys, config, flags, message):
        cal, _ = dataset_paths
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = flags + ["--config", cfg]
        code = run(["calibrate", "--dataset", cal, "--out", tmp_path / "r.json"] + flags)
        assert code == 1
        assert f'code=1 kind=data detail="{message}"' in capsys.readouterr().err

    def test_precondition_exit_2_ahead_of_a_giou_zero_area_error(self, dataset_paths, tmp_path, capsys):
        cal, _ = dataset_paths
        payload = json.loads(cal.read_text())
        image = next(rec for rec in payload["images"] if rec["ground_truths"] and rec["detections"])
        image["ground_truths"][0]["box"] = [10.0, 10.0, 10.0, 20.0]
        cal.write_text(json.dumps(payload))
        flags = ["calibrate", "--dataset", cal, "--out", tmp_path / "r.json", "--match", "giou"]
        assert run(flags + ["--alpha-cnf", "0.05", "--alpha-loc", "0.3", "--alpha-cls", "0.3"]) == 1
        assert "giou_distance requires boxes with positive area" in capsys.readouterr().err
        assert run(flags + ["--alpha-cnf", "0.2", "--alpha-loc", "0.21", "--alpha-cls", "0.5"]) == 2
        assert "code=2 kind=precondition detail=\"alpha_loc=0.21 violates" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [[0, BIG], [BIG, 5]], ids=["upper", "lower"])
    def test_config_bound_past_the_float_range_exit_1(self, dataset_paths, tmp_path, capsys, bounds):
        # Escaped from CalibrationConfig as OverflowError: int too large to convert to float.
        cal, _ = dataset_paths
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda_loc_bounds": bounds}))
        out = tmp_path / "r.json"
        assert run(["calibrate", "--dataset", cal, "--config", config, "--out", out]) == 1
        detail = f"invalid calibration config: lambda_loc_bounds must be a number, got {BIG}; {FLOAT_RANGE}"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "2"])
    def test_invalid_prefilter_exit_1(self, dataset_paths, tmp_path, capsys, threshold):
        # Such a floor dropped every detection and ended in exit 3, "infeasible".
        cal, _ = dataset_paths
        code = run(["calibrate", "--dataset", cal, "--out", tmp_path / "r.json",
                    "--alpha-cnf", "0.05", "--prefilter", threshold])
        assert code == 1
        err = capsys.readouterr().err
        assert "prefilter_threshold must lie in [0, 1]" in err and "code=1" in err

    def test_config_file_with_flag_override(self, dataset_paths, tmp_path):
        cal, _ = dataset_paths
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha_cnf": 0.05, "alpha_loc": 0.4, "alpha_cls": 0.4,
            "loss_spec": {"localization_kind": "pixelwise"},
        }))
        out = tmp_path / "result.json"
        code = run([
            "calibrate", "--dataset", cal, "--out", out,
            "--config", cfg, "--alpha-loc", "0.35",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["alpha_loc"] == 0.35  # flag wins
        assert payload["config"]["loss_spec"]["localization_kind"] == "pixelwise"


class TestInferEvaluateCommands:
    def calibrated(self, dataset_paths, tmp_path):
        cal, test = dataset_paths
        out = tmp_path / "result.json"
        assert run(
            [
                "calibrate", "--dataset", cal, "--out", out,
                "--alpha-cnf", "0.05", "--alpha-loc", "0.3", "--alpha-cls", "0.3",
            ]
        ) == 0
        return out, test

    def test_infer_writes_predictions(self, dataset_paths, tmp_path):
        result, test = self.calibrated(dataset_paths, tmp_path)
        out = tmp_path / "preds.json"
        assert run(["infer", "--result", result, "--dataset", test, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["predictions"]) == 15
        assert "config" in payload

    def test_infer_empty_detection_image_is_not_an_error(self, dataset_paths, tmp_path):
        result, _ = self.calibrated(dataset_paths, tmp_path)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "schema_version": 1, "num_classes": 4,
            "class_names": ["a", "b", "c", "d"],
            "images": [{"image_id": "x", "width": 64, "height": 64,
                        "ground_truths": [], "detections": []}],
        }))
        out = tmp_path / "preds.json"
        assert run(["infer", "--result", result, "--dataset", empty, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["predictions"][0]["selected"] == []

    def test_infer_without_images_writes_an_empty_array(self, dataset_paths, tmp_path, capsys):
        result, _ = self.calibrated(dataset_paths, tmp_path)
        capsys.readouterr()
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema_version": 1, "num_classes": 4, "images": []}))
        out = tmp_path / "preds.json"
        assert run(["infer", "--result", result, "--dataset", empty, "--out", out]) == 0
        assert capsys.readouterr().out == f"wrote 0 per-image predictions to {out}\n"
        assert json.loads(out.read_text())["predictions"] == []
        assert one_value_per_line(out, "predictions")[1] == []

    def test_infer_indexes_the_file_detection_list(self, tmp_path):
        # Detections out of confidence order, one below the prefilter floor:
        # each selection is named by its position in the file, in file order.
        config = CalibrationConfig(0.1, 0.3, 0.3, lambda_loc_bounds=(0.0, 10.0))
        result = tmp_path / "result.json"
        save_result(CalibrationResult(0.6, 0.5, 1.0, 0.5, config, 10, {}), result)
        boxes = [[0, 0, 10, 10], [5, 5, 15, 15], [20, 20, 30, 30], [1, 1, 4, 4]]
        confidences = [0.5, 0.0005, 0.9, 0.2]
        dataset = tmp_path / "test.json"
        dataset.write_text(json.dumps({
            "schema_version": 1, "num_classes": 2,
            "images": [{"image_id": "x", "width": 64, "height": 64, "ground_truths": [],
                        "detections": [{"box": box, "confidence": c, "probs": [0.3, 0.7]}
                                       for box, c in zip(boxes, confidences)]}],
        }))
        out = tmp_path / "preds.json"
        assert run(["infer", "--result", result, "--dataset", dataset, "--out", out]) == 0
        selected = json.loads(out.read_text())["predictions"][0]["selected"]
        assert [s["index"] for s in selected] == [0, 2]
        assert [s["box"] for s in selected] == [boxes[0], boxes[2]]
        assert selected[0]["margined_box"] == [-1, -1, 11, 11]

    def test_infer_digest_mismatch_exit_4(self, dataset_paths, tmp_path, capsys):
        result, test = self.calibrated(dataset_paths, tmp_path)
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({
            "alpha_cnf": 0.05, "alpha_loc": 0.31, "alpha_cls": 0.3,
        }))
        code = run([
            "infer", "--result", result, "--dataset", test,
            "--out", tmp_path / "p.json", "--config", other_cfg,
        ])
        assert code == 4
        assert "code=4" in capsys.readouterr().err

    def test_infer_mismatch_override(self, dataset_paths, tmp_path):
        result, test = self.calibrated(dataset_paths, tmp_path)
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({
            "alpha_cnf": 0.05, "alpha_loc": 0.31, "alpha_cls": 0.3,
        }))
        assert run([
            "infer", "--result", result, "--dataset", test,
            "--out", tmp_path / "p.json", "--config", other_cfg,
            "--allow-config-mismatch",
        ]) == 0

    @pytest.mark.parametrize("config_file", [False, True])
    def test_infer_accepts_the_calibrate_flags(self, dataset_paths, tmp_path, config_file):
        # The flags leave lambda_loc_bounds to the data; the result holds the
        # bounds calibration resolved, which the check fills in.
        result, test = self.calibrated(dataset_paths, tmp_path)
        flags = ["--alpha-cnf", "0.05", "--alpha-loc", "0.3", "--alpha-cls", "0.3"]
        if config_file:
            empty = tmp_path / "empty.json"
            empty.write_text("{}")
            flags += ["--config", empty]
        assert run([
            "infer", "--result", result, "--dataset", test, "--out", tmp_path / "p.json",
        ] + flags) == 0

    def test_infer_flag_mismatch_without_config_exit_4(self, dataset_paths, tmp_path, capsys):
        result, test = self.calibrated(dataset_paths, tmp_path)
        code = run([
            "infer", "--result", result, "--dataset", test, "--out", tmp_path / "p.json",
            "--alpha-cnf", "0.06", "--alpha-loc", "0.3", "--alpha-cls", "0.3",
        ])
        assert code == 4
        assert "code=4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"lambda_cnf_plus": "0.9"}, "result.lambda_cnf_plus must be a number, got '0.9'"),
            ({"n_calibration": "12"}, "result.n_calibration must be an integer, got '12'"),
            ({"lambda_cnf_plus": 0.1, "lambda_cnf_minus": 0.2},
             "optimistic confidence parameter exceeds the conservative one"),
            ({"schema_version": 1}, "unsupported result schema version 1 (expected 2)"),
        ],
    )
    def test_invalid_result_file_exit_1(self, dataset_paths, tmp_path, capsys, changes, message):
        result, test = self.calibrated(dataset_paths, tmp_path)
        result.write_text(json.dumps({**json.loads(result.read_text()), **changes}))
        capsys.readouterr()
        code = run(["evaluate", "--result", result, "--dataset", test])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error code=1") == 1 and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, changes, message",
        [
            ("infer", {"lambda_cnf_plus": math.nan}, "every lambda must be finite"),
            ("evaluate", {"lambda_loc_plus": math.inf}, "every lambda must be finite"),
            ("infer", {"lambda_cls_plus": 7.0}, "lambda_cls_plus must lie in [0, 1], got 7.0"),
            ("evaluate", {"n_calibration": -3}, "n_calibration must be >= 1, got -3"),
            ("infer", {"lambda_loc_plus": 1e9}, "lambda_loc_plus must lie in lambda_loc_bounds [0.0, "),
        ],
    )
    def test_out_of_domain_result_exit_1(self, dataset_paths, tmp_path, capsys, command, changes, message):
        # JSON NaN and Infinity parse as numbers; the result's domain rule rejects them.
        result, test = self.calibrated(dataset_paths, tmp_path)
        result.write_text(json.dumps({**json.loads(result.read_text()), **changes}))
        out = tmp_path / "out.json"
        capsys.readouterr()
        code = run([command, "--result", result, "--dataset", test, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error code=1") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    @pytest.mark.parametrize(
        "key",
        ["lambda_cnf_plus", "lambda_cnf_minus", "lambda_loc_plus", "lambda_cls_plus",
         "diagnostics.cnf_monotonized_risk", "diagnostics.loc_monotonized_risk",
         "diagnostics.cls_monotonized_risk", "diagnostics.n_confidence_breakpoints",
         "config.lambda_loc_bounds.0", "config.lambda_loc_bounds.1",
         "config.lambda_cls_bounds.0", "config.lambda_cls_bounds.1"],
    )
    def test_result_number_past_the_float_range_exit_1(self, dataset_paths, tmp_path, capsys, command, key):
        # Each escaped as OverflowError: int too large to convert to float.
        result, test = self.calibrated(dataset_paths, tmp_path)
        payload = json.loads(result.read_text())
        *parents, last = key.split(".")
        node = payload
        for part in parents:
            node = node[part]
        node[int(last) if isinstance(node, list) else last] = BIG
        result.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run([command, "--result", result, "--dataset", test, "--out", out]) == 1
        name = key.removesuffix(f".{last}") if last.isdigit() else key
        detail = f"{result}: result.{name} must be a number, got {BIG}; {FLOAT_RANGE}"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "infer", "evaluate"])
    def test_num_classes_past_the_int64_range_exit_1(self, dataset_paths, tmp_path, capsys, command):
        # Without class names, the reader built class_0, class_1, ... until
        # memory ran out.
        result, test = self.calibrated(dataset_paths, tmp_path)
        payload = json.loads(test.read_text())
        del payload["class_names"]
        payload["num_classes"] = BIG
        test.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        argv = {
            "calibrate": ["calibrate", "--dataset", test, "--out", out],
            "infer": ["infer", "--result", result, "--dataset", test, "--out", out],
            "evaluate": ["evaluate", "--result", result, "--dataset", test, "--out", out],
        }[command]
        capsys.readouterr()
        assert run(argv) == 1
        detail = f"{test}: num_classes must be a positive integer, got {BIG}; {INT64_RANGE}"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'
        assert not out.exists()

    def test_num_classes_without_names_makes_no_names(self, tmp_path):
        # A class count inside the int64 range without class names: no
        # default name is made for `calibrate`, so the file is read in far
        # less memory than 10**9 names would take. The address-space limit
        # holds in the child only; one BLAS thread keeps numpy's own
        # reservation small on machines with many CPUs.
        pytest.importorskip("resource")
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"schema_version": 1, "num_classes": 10**9, "images": []}))
        script = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
            "from condet.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        src = str(Path(condet.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", script, "calibrate", "--dataset", str(path), "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr == 'error code=1 kind=data detail="empty calibration set"\n'

    def test_evaluate_prints_report(self, dataset_paths, tmp_path, capsys):
        result, test = self.calibrated(dataset_paths, tmp_path)
        out = tmp_path / "report.json"
        assert run(["evaluate", "--result", result, "--dataset", test, "--out", out]) == 0
        stdout = capsys.readouterr().out
        for field in ("cnf_risk", "loc_risk", "cls_risk", "global_risk", "loc_set_size"):
            assert field in stdout
        payload = json.loads(out.read_text())
        report = payload["report"]
        assert 0.0 <= report["global_risk"] <= 1.0
        assert report["global_risk"] <= report["loc_risk"] + report["cls_risk"] + 1e-12

    def test_evaluate_report_is_strict_json_without_selections(self, tmp_path):
        # Every detection falls below the confidence threshold, so the set
        # sizes are undefined: null, where a bare NaN would not parse.
        config = CalibrationConfig(0.1, 0.3, 0.3, lambda_loc_bounds=(0.0, 10.0))
        result = tmp_path / "result.json"
        save_result(CalibrationResult(0.05, 0.05, 1.0, 0.5, config, 10, {}), result)
        dataset = tmp_path / "test.json"
        dataset.write_text(json.dumps({
            "schema_version": 1, "num_classes": 2,
            "images": [{"image_id": f"x{i}", "width": 64, "height": 64,
                        "ground_truths": [{"box": [0, 0, 10, 10], "class_id": 1}],
                        "detections": [{"box": [1, 1, 9, 9], "confidence": 0.5, "probs": [0.3, 0.7]}]}
                       for i in range(5)],
        }))
        out = tmp_path / "report.json"
        assert run(["evaluate", "--result", result, "--dataset", dataset, "--out", out]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(out.read_text(), parse_constant=reject)["report"]
        assert report["n_images_without_selection"] == 5
        assert report["loc_set_size"] is None and report["cls_set_size"] is None


#: SHA-256 of the ``infer`` predictions and the ``evaluate --out`` report on
#: ``TestParallelCommands``'s files, recorded from the serial commands, which
#: parsed every record before doing any per-image work. The predictions were
#: re-recorded when ``infer`` began to write one entry per line instead of
#: indenting the document by 2; ``PREDICTIONS_CONTENT_SHA256``, the digest of
#: their JSON value re-encoded with sorted keys, was recorded before that
#: change and did not change with it.
PREDICTIONS_SHA256 = "91e0310783f56bb444542c1278cfe3226cc7e3820e7a7a8dff584ad4ccdb204c"
PREDICTIONS_CONTENT_SHA256 = "0e11f7a68612afd22eafa14cdb3d4a6cc50840bd78d9e6100ff78dc2f7c7193c"
REPORT_SHA256 = "b39aeb64ee4ca08f34cfe9859f84499ade78b63537d877ffedf51b207114d4a2"


#: Runs ``condet.cli.main`` on its arguments over two workers whose
#: per-span work (the table building of every command, and ``infer``'s
#: prediction lines) kills its own process.
KILL_WORKER_SCRIPT = """
import os, signal, sys
from condet import _workers, cli, dataio

def kill(*args):
    os.kill(os.getpid(), signal.SIGKILL)

if __name__ == "__main__":
    _workers._available_cpus = lambda: 2
    cli._prediction_lines = dataio._span_table = kill
    sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.workers
class TestParallelCommands:
    """``infer`` and ``evaluate`` over a file of five chunks of records."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parallel")
        # 120 images, ~32 detections each, 80 classes: five chunks.
        spec = SynthSpec(seed=5, n_images=120, num_classes=80, false_positive_rate=30.0)
        samples_to_dataset_file(generate(spec), 80, root / "test.json")
        config = CalibrationConfig(
            0.02, 0.1, 0.1,
            loss_spec=LossSpec(localization_kind="pixelwise"),
            predset_spec=PredSetSpec(localization_kind="multiplicative", classification_kind="aps"),
            match_spec=MatchDistanceSpec("giou"),
            lambda_loc_bounds=(0.0, 3.0),
        )
        save_result(CalibrationResult(0.7, 0.6, 0.25, 0.9, config, 100, {}), root / "result.json")
        return root / "result.json", root / "test.json"

    @staticmethod
    def commands(result, dataset, tmp_path):
        """The ``infer`` and ``evaluate --out`` argument lists and their outputs."""
        preds, report = tmp_path / "preds.json", tmp_path / "report.json"
        return {
            "infer": (["infer", "--result", result, "--dataset", dataset, "--out", preds], preds),
            "evaluate": (["evaluate", "--result", result, "--dataset", dataset, "--out", report], report),
        }

    @staticmethod
    def edited(dataset, tmp_path, edits):
        """A copy of ``dataset`` with ``edit(record)`` applied to the first
        record of chunk ``k``, for each ``(k, edit)`` of ``edits``; returns
        the copy's path and the edited records' image ids."""
        raw = json.loads(dataset.read_text())
        spans = _chunks([len(rec["detections"]) * raw["num_classes"] for rec in raw["images"]])
        assert len(spans) == 5
        ids = []
        for k, edit in edits:
            rec = raw["images"][spans[k][0]]
            edit(rec)
            ids.append(rec["image_id"])
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        return path, ids

    @pytest.mark.parametrize("cpus", [None, 1, 2, 4])
    def test_outputs_equal_the_serial_bytes(self, files, tmp_path, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        commands = self.commands(*files, tmp_path)
        for argv, _ in commands.values():
            assert run(argv) == 0
        assert multiprocessing.active_children() == []
        assert sha256(commands["infer"][1]) == PREDICTIONS_SHA256
        assert content_sha256(commands["infer"][1]) == PREDICTIONS_CONTENT_SHA256
        assert sha256(commands["evaluate"][1]) == REPORT_SHA256

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_predictions_one_entry_per_line(self, files, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        argv, out = self.commands(*files, tmp_path)["infer"]
        assert run(argv) == 0
        header, entries = one_value_per_line(out, "predictions")
        assert list(header) == ["schema_version", "config", "lambda_cnf_plus",
                                "lambda_loc_plus", "lambda_cls_plus", "predictions"]
        assert len(entries) == 120

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    def test_first_bad_record_in_file_order_is_named(self, files, tmp_path, capsys, monkeypatch, cpus, command):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        result, dataset = files

        def bad_probs(rec):
            rec["detections"][0]["probs"] = [0.5] * 80

        def bad_confidence(rec):
            rec["detections"][0]["confidence"] = 2.0

        path, (first, _) = self.edited(dataset, tmp_path, [(3, bad_probs), (4, bad_confidence)])
        argv, _ = self.commands(result, path, tmp_path)[command]
        assert run(argv) == 1
        detail = f"{path}: image {first!r} detection #0: probs sum to 40.000000, expected 1 within 1e-4"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_bad_record_is_reported_ahead_of_an_evaluation_error(self, files, tmp_path, capsys, monkeypatch, cpus):
        # Under giou matching a selected zero-area box fails in chunk 0, but
        # only once every record has parsed: chunk 4's bad record comes first.
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        result, dataset = files

        def zero_area(rec):
            assert rec["ground_truths"]
            rec["detections"][0].update(box=[10.0, 10.0, 10.0, 20.0], confidence=0.99)

        def bad_probs(rec):
            rec["detections"][0]["probs"] = [0.5] * 80

        for edits, detail in (
            ([(0, zero_area)], "giou_distance requires boxes with positive area"),
            ([(0, zero_area), (4, bad_probs)], "detection #0: probs sum to 40.000000, expected 1 within 1e-4"),
        ):
            path, ids = self.edited(dataset, tmp_path, edits)
            if len(ids) > 1:
                detail = f"{path}: image {ids[1]!r} {detail}"
            argv, _ = self.commands(result, path, tmp_path)["evaluate"]
            assert run(argv) == 1
            assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'
        assert multiprocessing.active_children() == []

    def test_failing_infer_leaves_the_output_untouched(self, files, tmp_path, monkeypatch):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 2)
        result, dataset = files

        def bad_confidence(rec):
            rec["detections"][0]["confidence"] = 2.0

        path, _ = self.edited(dataset, tmp_path, [(4, bad_confidence)])
        argv, out = self.commands(result, path, tmp_path)["infer"]
        out.write_text("earlier predictions\n")
        assert run(argv) == 1
        assert out.read_text() == "earlier predictions\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("schema_version", 2, "unsupported dataset schema version 2 (expected 1)"),
            ("num_classes", 0, "num_classes must be a positive integer, got 0"),
        ],
    )
    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    def test_header_error_exit_1(self, files, tmp_path, capsys, key, value, message, command):
        result, dataset = files
        path = tmp_path / "header.json"
        path.write_text(json.dumps({**json.loads(dataset.read_text()), key: value}))
        argv, _ = self.commands(result, path, tmp_path)[command]
        assert run(argv) == 1
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{path}: {message}"\n'

    @pytest.mark.parametrize("command", ["infer", "calibrate"])
    def test_dead_worker_exit_1(self, files, tmp_path, command):
        # BrokenProcessPool is a RuntimeError, which main let through as a
        # traceback.
        result, dataset = files
        out = tmp_path / "out.json"
        out.write_text("earlier output\n")
        argv = {
            "infer": ["infer", "--result", result, "--dataset", dataset, "--out", out],
            "calibrate": ["calibrate", "--dataset", dataset, "--out", out],
        }[command]
        script = tmp_path / "kill_worker.py"
        script.write_text(KILL_WORKER_SCRIPT)
        src = str(Path(condet.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, str(script), *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith('error code=1 kind=worker detail="A process in the process pool')
        assert len(done.stderr.splitlines()) == 1
        assert out.read_text() == "earlier output\n"

    @pytest.fixture(scope="class")
    def golden_calibration(self, tmp_path_factory):
        """The calibration file and flags of the formats golden's
        ``bench-cli-pixelwise`` case."""
        path = tmp_path_factory.mktemp("golden") / "cal.json"
        samples_to_dataset_file(generate(COCO_SPEC)[:N_CAL], COCO_SPEC.num_classes, path)
        data, flags, config = CLI_CASES["bench-cli-pixelwise"]
        assert data == "coco" and config is None
        return path, flags

    @pytest.mark.parametrize("cpus", [None, 1, 2, 4, "daemonic"])
    def test_calibrate_outputs_equal_the_golden_bytes(self, golden_calibration, tmp_path, monkeypatch, cpus):
        # Spans of 128 KiB cut the 1.9 MB file into several.
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 1 << 17)
        cal, flags = golden_calibration
        out = tmp_path / "result.json"
        argv = [str(a) for a in ["calibrate", "--dataset", cal, "--out", out, *flags]]
        if cpus == "daemonic":
            # A pool worker may not start children: the spans are read in it.
            monkeypatch.setattr(_workers, "_available_cpus", lambda: 4)
            with multiprocessing.get_context().Pool(1) as pool:
                code, stdout = pool.apply_async(run_cli, (argv,)).get(timeout=120)
        else:
            if cpus is not None:
                monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
            code, stdout = run_cli(argv)
        assert code == 0
        assert sha(out.read_bytes()) == GOLDEN["bench-cli-pixelwise/result"]
        assert sha(stdout) == GOLDEN["bench-cli-pixelwise/calibrate-stdout"]
        assert multiprocessing.active_children() == []

    def test_calibrate_builds_no_sample_objects(self, golden_calibration, tmp_path, monkeypatch):
        # A constructor spy, in this process: every span passes the bulk
        # check, so none is read through Detection or ImageSample.
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        built = []
        for cls in (Detection, ImageSample):
            monkeypatch.setattr(cls, "__post_init__", lambda self, init=cls.__post_init__: built.append(self) or init(self))
        cal, flags = golden_calibration
        code, _ = run_cli(["calibrate", "--dataset", cal, "--out", tmp_path / "result.json", *flags])
        assert code == 0
        assert built == []
        # The spy sees the objects load_dataset builds.
        assert len(condet.load_dataset(cal)) == sum(isinstance(obj, ImageSample) for obj in built) == N_CAL

    def test_runs_in_a_daemonic_process(self, files, tmp_path, monkeypatch):
        # A pool worker may not start children of its own; the records are
        # then processed in the worker itself.
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 4)
        commands = self.commands(*files, tmp_path)
        with multiprocessing.get_context().Pool(1) as pool:
            for argv, _ in commands.values():
                assert pool.apply_async(main, ([str(a) for a in argv],)).get(timeout=120) == 0
        assert sha256(commands["infer"][1]) == PREDICTIONS_SHA256
        assert content_sha256(commands["infer"][1]) == PREDICTIONS_CONTENT_SHA256
        assert sha256(commands["evaluate"][1]) == REPORT_SHA256


@pytest.mark.workers
class TestBadValueCommands:
    """Each file command exits 1 with ``kind=data`` on each value the
    validity rule refuses, named as the reader names it. The bad record sits
    in the last of several spans, so with more than one CPU a worker
    raises the rejection."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bad-values")
        spec = SynthSpec(seed=8, n_images=24, objects_min=1, objects_max=3, num_classes=4)
        samples_to_dataset_file(generate(spec), 4, root / "data.json", size=64.0)
        config = CalibrationConfig(0.1, 0.5, 0.5, lambda_loc_bounds=(0.0, 64.0))
        save_result(CalibrationResult(0.7, 0.6, 4.0, 0.9, config, 24, {}), root / "result.json")
        return root / "result.json", root / "data.json"

    @pytest.mark.parametrize("command", ["calibrate", "infer", "evaluate"])
    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("detections", "probs", [math.nan, 0.7, 0.15, 0.15], "probs must be non-negative"),
            ("detections", "probs", [0.7, 0.7, 0.0, 0.0], "probs sum to 1.400000, expected 1 within 1e-4"),
            ("detections", "box", [0.0, 0.0, math.inf, 5.0], "box coordinates must be finite"),
            ("detections", "box", [20.0, 0.0, 10.0, 5.0],
             "box corners out of order (left<=right, top<=bottom required)"),
            ("detections", "confidence", math.nan, "confidence nan is not a number in [0, 1]"),
            ("ground_truths", "box", [0.0, -math.inf, 5.0, 5.0], "box coordinates must be finite"),
            ("ground_truths", "box", [0.0, 9.0, 5.0, 5.0],
             "box corners out of order (left<=right, top<=bottom required)"),
            ("ground_truths", "class_id", 4, "class_id 4 is not an integer in [0, 4)"),
        ],
        ids=["nan-probability", "sum-1.4", "infinite-box", "reversed-box", "nan-confidence",
             "gt-infinite-box", "gt-reversed-box", "gt-class-id"],
    )
    def test_bad_value_exit_1(self, files, tmp_path, capsys, monkeypatch, command, kind, field, value, message):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 2048)
        result, dataset = files
        header, *lines = dataset.read_text().split("\n")
        assert len(record_spans(dataset, dataio._CHUNK_BYTES)) > 2
        n = max(i for i, line in enumerate(lines) if '"ground_truths": [{' in line and '"detections": [{' in line)
        rec = json.loads(lines[n].removesuffix(","))
        rec[kind][0][field] = value
        lines[n] = json.dumps(rec) + ("," if lines[n].endswith(",") else "")
        path = tmp_path / "bad.json"
        path.write_text("\n".join([header, *lines]))
        out = tmp_path / "out.json"
        argv = {
            "calibrate": ["calibrate", "--dataset", path, "--out", out, "--alpha-cnf", "0.1"],
            "infer": ["infer", "--result", result, "--dataset", path, "--out", out],
            "evaluate": ["evaluate", "--result", result, "--dataset", path, "--out", out],
        }[command]
        assert run(argv) == 1
        name = "ground truth" if kind == "ground_truths" else "detection"
        detail = f"{path}: image {rec['image_id']!r} {name} #0: {message}"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'
        assert not out.exists()
        assert multiprocessing.active_children() == []


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def content_sha256(path) -> str:
    """SHA-256 of the JSON value in ``path``, re-encoded with sorted keys."""
    text = json.dumps(json.loads(Path(path).read_text()), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestImportCocoCommand:
    def test_import_then_calibrate(self, tmp_path):
        gt = {
            "images": [{"id": i, "width": 64, "height": 64} for i in range(1, 7)],
            "annotations": [
                {"id": i, "image_id": i, "category_id": 1, "bbox": [8, 8, 20, 20]}
                for i in range(1, 7)
            ],
            "categories": [{"id": 1, "name": "thing"}, {"id": 2, "name": "other"}],
        }
        det = [
            {"image_id": i, "category_id": 1, "bbox": [9, 9, 20, 20], "score": 0.9,
             "scores": [0.8, 0.2]}
            for i in range(1, 7)
        ]
        gt_path = tmp_path / "gt.json"
        det_path = tmp_path / "det.json"
        gt_path.write_text(json.dumps(gt))
        det_path.write_text(json.dumps(det))
        native = tmp_path / "native.json"
        assert run(["import-coco", "--gt", gt_path, "--detections", det_path, "--out", native]) == 0
        assert run([
            "calibrate", "--dataset", native, "--out", tmp_path / "r.json",
            "--alpha-cnf", "0.1", "--alpha-loc", "0.5", "--alpha-cls", "0.5",
        ]) == 0


    def test_repeated_image_id_exit_1(self, tmp_path, capsys):
        gt = {
            "images": [{"id": 1, "width": 64, "height": 64}, {"id": 7, "width": 64, "height": 64},
                       {"id": 7, "width": 32, "height": 32}],
            "annotations": [{"id": 1, "image_id": 7, "category_id": 1, "bbox": [8, 8, 20, 20]}],
            "categories": [{"id": 1, "name": "thing"}],
        }
        det = [{"image_id": 7, "category_id": 1, "bbox": [9, 9, 20, 20], "score": 0.9}]
        gt_path = tmp_path / "gt.json"
        det_path = tmp_path / "det.json"
        gt_path.write_text(json.dumps(gt))
        det_path.write_text(json.dumps(det))
        out = tmp_path / "native.json"
        code = run(["import-coco", "--gt", gt_path, "--detections", det_path, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "image id '7' appears twice" in err and "code=1" in err
        assert not out.exists()

    def test_non_number_score_exit_1(self, tmp_path, capsys):
        gt = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [8, 8, 20, 20]}],
            "categories": [{"id": 1, "name": "thing"}],
        }
        det = [{"image_id": 1, "category_id": 1, "bbox": [9, 9, 20, 20], "score": "0.9"}]
        gt_path = tmp_path / "gt.json"
        det_path = tmp_path / "det.json"
        gt_path.write_text(json.dumps(gt))
        det_path.write_text(json.dumps(det))
        code = run(["import-coco", "--gt", gt_path, "--detections", det_path,
                    "--out", tmp_path / "native.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert "detection #0: score must be a number, got '0.9'" in err and "code=1" in err

    @pytest.mark.parametrize("record", ["annotation", "detection"])
    def test_bbox_past_the_float_range_exit_1(self, tmp_path, capsys, record):
        # x + w overflows to an infinite right edge: the import wrote a file
        # that ``condet calibrate`` then refused.
        huge = [1e308, 10, 1e308, 20]
        gt = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": huge if record == "annotation" else [8, 8, 20, 20]}],
            "categories": [{"id": 1, "name": "thing"}],
        }
        det = [{"image_id": 1, "category_id": 1, "score": 0.9,
                "bbox": huge if record == "detection" else [9, 9, 20, 20]}]
        gt_path, det_path, out = tmp_path / "gt.json", tmp_path / "det.json", tmp_path / "native.json"
        gt_path.write_text(json.dumps(gt))
        det_path.write_text(json.dumps(det))
        assert run(["import-coco", "--gt", gt_path, "--detections", det_path, "--out", out]) == 1
        where = gt_path if record == "annotation" else det_path
        detail = f"{where}: {record} #0: box coordinates must be finite"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'
        assert not out.exists()


class TestValidateCommand:
    def spec_file(self, tmp_path, **overrides):
        payload = {
            "synth": {
                "seed": 13,
                "box_noise_std": 0.0,
                "label_flip_probability": 0.0,
                "false_positive_rate": 0.0,
                "objects_min": 1,
                "objects_max": 1,
                "num_classes": 4,
            },
            "calibration": {
                "alpha_cnf": 0.05,
                "alpha_loc": 0.25,
                "alpha_cls": 0.25,
                "loss_spec": {"localization_kind": "boxwise"},
            },
            "trials": 3,
            "n_cal": 25,
            "n_test": 25,
        }
        payload.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_noiseless_spec_exit_0(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["validate", "--spec", self.spec_file(tmp_path), "--out", out])
        assert code == 0
        assert "global(max)" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["report"]["localization"]["mean_risk"] == 0.0

    @pytest.mark.parametrize("from_file", [False, True])
    def test_report_echoes_the_spec_that_ran(self, tmp_path, from_file):
        # --seed alone (or over a partial spec file) still records every field.
        args = ["--seed", "5", "--trials", "1", "--n-cal", "30", "--n-test", "10",
                "--slack", "1", "--alpha-cnf", "0.1", "--alpha-loc", "0.3", "--alpha-cls", "0.3"]
        spec = SynthSpec(seed=5)
        if from_file:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"synth": {"seed": 1, "num_classes": 3}}))
            args += ["--spec", path]
            spec = SynthSpec(seed=5, num_classes=3)
        out = tmp_path / "report.json"
        assert run(["validate", "--out", out] + args) == 0
        assert json.loads(out.read_text())["synth"] == asdict(spec)

    def test_negative_control_trips_exit_5(self, tmp_path, capsys):
        # Small calibration sets make the missing worst-case correction
        # visible: the mean test risk overshoots the target plus slack.
        spec = self.spec_file(
            tmp_path,
            synth={
                "seed": 14,
                "box_noise_std": 3.0,
                "objects_min": 1,
                "objects_max": 2,
                "num_classes": 4,
                "false_positive_rate": 0.3,
            },
            calibration={
                "alpha_cnf": 0.02,
                "alpha_loc": 0.15,
                "alpha_cls": 0.15,
                "loss_spec": {"localization_kind": "boxwise"},
            },
            trials=12,
            n_cal=8,
            n_test=40,
        )
        code = run(["validate", "--spec", spec, "--no-finite-sample-correction"])
        assert code == 5
        assert "kind=guarantee" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"trials": True}, "trials must be an integer, got True"),
            ({"n_cal": 25.0}, "n_cal must be an integer, got 25.0"),
            ({"n_test": "25"}, "n_test must be an integer, got '25'"),
            ({"slack": "0.5"}, "slack must be a number, got '0.5'"),
            ({"synth": {"seed": 13, "label_flip_probability": True}},
             "synth.label_flip_probability must be a number, got True"),
            ({"synth": {"seed": 13, "n_imgs": 5}}, "unknown keys ['n_imgs'] in synth"),
            ({"synth": {"seed": 13, "image_width": -64}}, "image_width must be > 0"),
            ({"synth": {"seed": 13, "box_noise_std": math.nan}},
             "box_noise_std must be finite, got nan"),
            ({"trails": 2}, "unknown keys ['trails'] in validation spec"),
            ({"seed": 1, "alpha_cnf": 0.1}, "unknown keys ['alpha_cnf', 'seed'] in validation spec"),
            ({"slack": math.nan}, "slack must be finite and >= 0, got nan"),
            ({"slack": math.inf}, "slack must be finite and >= 0, got inf"),
            ({"slack": -0.5}, "slack must be finite and >= 0, got -0.5"),
            ({"n_cal": -2}, "n_cal must be >= 1, got -2"),
            ({"n_test": 0}, "n_test must be >= 1, got 0"),
            # The first ran its trials as if an object; the second exited
            # with dict()'s own message.
            ({"synth": [["seed", 5], ["n_images", 30]]}, "synth must be an object"),
            ({"synth": "ab"}, "synth must be an object"),
        ],
    )
    def test_invalid_spec_value_exit_1(self, tmp_path, capsys, overrides, message):
        spec = self.spec_file(tmp_path, trials=1, n_cal=25, n_test=25)
        payload = {**json.loads(spec.read_text()), **overrides}
        spec.write_text(json.dumps(payload))
        code = run(["validate", "--spec", spec])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "code=1" in err

    def test_seed_flag_over_a_non_object_synth_exit_1(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, synth=[["n_images", 30]])
        assert run(["validate", "--spec", spec, "--seed", "5"]) == 1
        assert 'code=1 kind=data detail="synth must be an object' in capsys.readouterr().err

    def test_spec_file_not_an_object_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[1]")
        assert run(["validate", "--spec", spec]) == 1
        assert f'code=1 kind=data detail="{spec}: validation spec must be a JSON object"' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--slack", "nan"], "slack must be finite and >= 0, got nan"),
            (["--slack", "-1"], "slack must be finite and >= 0, got -1.0"),
            (["--n-cal", "-2", "--n-test", "60"], "n_cal must be >= 1, got -2"),
        ],
    )
    def test_invalid_flag_value_exit_1(self, tmp_path, capsys, flags, message):
        # --n-cal -2 used to calibrate on all but the last two images and
        # report n_cal=-2; --slack nan passed every target.
        code = run(["validate", "--spec", self.spec_file(tmp_path, trials=1)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "code=1" in err

    @pytest.mark.parametrize(
        "key, kind, reason",
        [
            # Each escaped: OverflowError from SynthSpec and from the trial
            # seeds, numpy's "high is out of bounds for int64", and a run
            # that did not end.
            ("synth.image_width", "a number", FLOAT_RANGE),
            ("synth.objects_max", "an integer", INT64_RANGE),
            ("trials", "an integer", INT64_RANGE),
            ("n_cal", "an integer", INT64_RANGE),
        ],
    )
    def test_spec_number_past_its_range_exit_1(self, tmp_path, capsys, monkeypatch, key, kind, reason):
        monkeypatch.setattr(condet.cli, "monte_carlo_validate", no_trial)
        spec = self.spec_file(tmp_path)
        payload = json.loads(spec.read_text())
        section, _, name = key.rpartition(".")
        (payload[section] if section else payload)[name] = BIG
        spec.write_text(json.dumps(payload))
        assert run(["validate", "--spec", spec]) == 1
        detail = f"{key} must be {kind}, got {BIG}; {reason}"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'

    @pytest.mark.parametrize("flag", ["--trials", "--n-cal", "--n-test"])
    def test_count_flag_past_the_int64_range_exit_1(self, tmp_path, capsys, monkeypatch, flag):
        # A flag's value bypassed the spec keys' rule: --trials of 400
        # digits overflowed, --n-cal started a run that did not end.
        monkeypatch.setattr(condet.cli, "monte_carlo_validate", no_trial)
        digits = "1" + "0" * 399
        assert run(["validate", "--spec", self.spec_file(tmp_path), flag, digits]) == 1
        detail = f"{flag[2:].replace('-', '_')} must be an integer, got {digits}; {INT64_RANGE}"
        assert capsys.readouterr().err == f'error code=1 kind=data detail="{detail}"\n'

    def test_same_tight_spec_passes_with_correction(self, tmp_path):
        spec = self.spec_file(
            tmp_path,
            synth={
                "seed": 14,
                "box_noise_std": 3.0,
                "objects_min": 1,
                "objects_max": 2,
                "num_classes": 4,
                "false_positive_rate": 0.3,
            },
            calibration={
                "alpha_cnf": 0.02,
                "alpha_loc": 0.15,
                "alpha_cls": 0.15,
                "loss_spec": {"localization_kind": "boxwise"},
            },
            trials=12,
            n_cal=8,
            n_test=40,
        )
        assert run(["validate", "--spec", spec]) == 0

    def test_prefilter_flag_reaches_the_trials(self, tmp_path):
        # The flag used to leave every trial as without it.
        config = CalibrationConfig(0.1, 0.3, 0.3, lambda_loc_bounds=(0.0, 50.0))
        spec = self.spec_file(
            tmp_path,
            synth={"seed": 3, "objects_min": 1, "objects_max": 3},
            calibration=config_to_dict(config),
            trials=3, n_cal=100, n_test=100, slack=1.0,
        )
        risks = {}
        for floor in (None, 0.5):
            out = tmp_path / "report.json"
            flags = [] if floor is None else ["--prefilter", floor]
            assert run(["validate", "--spec", spec, "--out", out] + flags) == 0
            risks[floor] = json.loads(out.read_text())["report"]["per_trial_risks"]
        api = monte_carlo_validate(
            SynthSpec(seed=3, objects_min=1, objects_max=3),
            replace(config, prefilter_threshold=0.5), trials=3, n_cal=100, n_test=100,
        )
        assert risks[0.5] == [list(row) for row in api.per_trial_risks]
        assert risks[0.5] != risks[None]

    def test_infeasible_trial_exit_3(self, tmp_path, capsys):
        # Margins capped at 3 px leave trials 1, 3 and 4 infeasible; the
        # first in trial order is named.
        spec = self.spec_file(
            tmp_path,
            synth={"seed": 4, "objects_min": 1, "objects_max": 2},
            calibration={
                "alpha_cnf": 0.05,
                "alpha_loc": 0.25,
                "alpha_cls": 0.25,
                "loss_spec": {"localization_kind": "boxwise"},
                "lambda_loc_bounds": [0.0, 3.0],
            },
            trials=5,
            n_cal=20,
            n_test=5,
        )
        code = run(["validate", "--spec", spec])
        assert code == 3
        err = capsys.readouterr().err
        assert 'code=3 kind=infeasible detail="trial 1: ' in err
