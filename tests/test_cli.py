import json

import pytest

from condet import SynthSpec, generate
from condet.cli import main
from helpers import samples_to_dataset_file


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
