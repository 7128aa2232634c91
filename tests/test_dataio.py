import json

import pytest

from condet import (
    BoundingBox,
    CalibrationConfig,
    DataFormatError,
    DigestMismatchError,
    LossSpec,
    SchemaVersionError,
    calibrate,
    generate,
    load_dataset,
    load_result,
    save_result,
    SynthSpec,
)
from condet.dataio import (
    config_digest,
    config_from_dict,
    config_to_dict,
    import_coco,
    read_dataset_file,
    write_dataset_file,
)


def two_image_payload():
    return {
        "schema_version": 1,
        "num_classes": 3,
        "class_names": ["cat", "dog", "bird"],
        "images": [
            {
                "image_id": "a",
                "width": 64,
                "height": 48,
                "ground_truths": [{"box": [1, 2, 10, 12], "class_id": 0}],
                "detections": [
                    {"box": [1, 2, 10, 12], "confidence": 0.9, "probs": [0.8, 0.1, 0.1]},
                    {"box": [0, 0, 5, 5], "confidence": 0.2, "probs": [0.2, 0.5, 0.3]},
                ],
            },
            {
                "image_id": "b",
                "width": 64,
                "height": 48,
                "ground_truths": [],
                "detections": [
                    {"box": [3, 3, 9, 9], "confidence": 1e-05, "probs": [0.3, 0.3, 0.4]}
                ],
            },
        ],
    }


def write_payload(tmp_path, payload, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestDatasetFile:
    def test_happy_path_two_images(self, tmp_path):
        samples = load_dataset(write_payload(tmp_path, two_image_payload()), 1e-3)
        assert len(samples) == 2
        confs = [d.confidence for d in samples[0].detections]
        assert confs == sorted(confs, reverse=True)

    def test_prefilter_drops_low_confidence(self, tmp_path):
        samples = load_dataset(write_payload(tmp_path, two_image_payload()), 1e-3)
        assert samples[1].detections == ()

    def test_bad_probability_sum_names_record(self, tmp_path):
        payload = two_image_payload()
        payload["images"][0]["detections"][1]["probs"] = [0.2, 0.4, 0.2]
        with pytest.raises(DataFormatError, match="image 'a' detection #1"):
            read_dataset_file(write_payload(tmp_path, payload))

    def test_corner_order_enforced(self, tmp_path):
        payload = two_image_payload()
        payload["images"][0]["ground_truths"][0]["box"] = [10, 2, 1, 12]
        with pytest.raises(DataFormatError, match="corners out of order"):
            read_dataset_file(write_payload(tmp_path, payload))

    def test_non_finite_box_names_record(self, tmp_path):
        payload = two_image_payload()
        payload["images"][0]["detections"][1]["box"] = [0, 0, float("inf"), 5]
        path = write_payload(tmp_path, payload)
        assert "Infinity" in path.read_text()
        with pytest.raises(DataFormatError, match="image 'a' detection #1: box coordinates must be finite"):
            read_dataset_file(path)

    def test_class_index_range(self, tmp_path):
        payload = two_image_payload()
        payload["images"][0]["ground_truths"][0]["class_id"] = 3
        with pytest.raises(DataFormatError, match="class_id"):
            read_dataset_file(write_payload(tmp_path, payload))

    @pytest.mark.parametrize("field", ["num_classes", "class_id", "confidence"])
    def test_json_boolean_rejected(self, tmp_path, field):
        payload = two_image_payload()
        if field == "num_classes":
            payload["num_classes"], payload["class_names"] = True, ["cat"]
            record = "num_classes must be a positive integer, got True"
        elif field == "class_id":
            payload["images"][0]["ground_truths"][0]["class_id"] = False
            record = "image 'a' ground truth #0: class_id False is not an integer"
        else:
            payload["images"][0]["detections"][1]["confidence"] = True
            record = "image 'a' detection #1: confidence True is not a number"
        with pytest.raises(DataFormatError, match=record):
            read_dataset_file(write_payload(tmp_path, payload))

    def test_unknown_schema_version(self, tmp_path):
        payload = two_image_payload()
        payload["schema_version"] = 99
        with pytest.raises(SchemaVersionError):
            read_dataset_file(write_payload(tmp_path, payload))

    def test_write_read_round_trip_idempotent(self, tmp_path):
        first = read_dataset_file(write_payload(tmp_path, two_image_payload()))
        write_dataset_file(first, tmp_path / "second.json")
        second = read_dataset_file(tmp_path / "second.json")
        assert first == second
        write_dataset_file(second, tmp_path / "third.json")
        assert (tmp_path / "second.json").read_text() == (tmp_path / "third.json").read_text()

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError):
            read_dataset_file(path)


class TestCocoImport:
    def coco_pair(self, tmp_path, with_scores=False):
        gt = {
            "images": [
                {"id": 1, "width": 100, "height": 80},
                {"id": 2, "width": 100, "height": 80},
            ],
            "annotations": [
                {"id": 10, "image_id": 1, "category_id": 7, "bbox": [10, 20, 30, 40]},
                {"id": 11, "image_id": 2, "category_id": 3, "bbox": [0, 0, 10, 10]},
            ],
            "categories": [
                {"id": 3, "name": "cat"},
                {"id": 7, "name": "dog"},
                {"id": 9, "name": "bird"},
            ],
        }
        det = [
            {"image_id": 1, "category_id": 7, "bbox": [12, 22, 28, 38], "score": 0.9},
            {"image_id": 2, "category_id": 3, "bbox": [1, 1, 9, 9], "score": 0.7},
            {"image_id": 5, "category_id": 9, "bbox": [0, 0, 4, 4], "score": 0.3},
        ]
        if with_scores:
            for rec in det:
                rec["scores"] = [0.2, 0.5, 0.3]
        gt_path = tmp_path / "gt.json"
        det_path = tmp_path / "det.json"
        gt_path.write_text(json.dumps(gt))
        det_path.write_text(json.dumps(det))
        return gt_path, det_path

    def test_bbox_conversion_and_dense_ids(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path))
        assert dataset.num_classes == 3
        assert dataset.class_names == ("cat", "dog", "bird")
        rec = dataset.images[0]
        box, label = rec.ground_truths[0]
        assert box == BoundingBox(10, 20, 40, 60)
        assert label == 1  # category 7 is the second id in sorted order

    def test_probability_synthesis(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path))
        probs = dataset.images[0].detections[0].probs
        assert probs[1] == pytest.approx(1.0 - 1e-6)
        assert probs[0] == pytest.approx(5e-7)
        assert sum(probs) == pytest.approx(1.0)

    def test_supplied_scores_pass_through(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path, with_scores=True))
        assert dataset.images[0].detections[0].probs == (0.2, 0.5, 0.3)

    def test_detection_only_image_gets_empty_ground_truth(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path))
        extra = [rec for rec in dataset.images if rec.image_id == "5"]
        assert len(extra) == 1
        assert extra[0].ground_truths == ()
        assert len(extra[0].detections) == 1

    def test_ground_truth_count_preserved(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path))
        assert sum(len(rec.ground_truths) for rec in dataset.images) == 2

    def test_unknown_category_rejected(self, tmp_path):
        gt_path, det_path = self.coco_pair(tmp_path)
        det = json.loads(det_path.read_text())
        det[0]["category_id"] = 999
        det_path.write_text(json.dumps(det))
        with pytest.raises(DataFormatError, match="unknown category"):
            import_coco(gt_path, det_path)

    @pytest.mark.parametrize("records", ["annotations", "detections"])
    @pytest.mark.parametrize(
        "width, message", [(float("inf"), "must be finite"), (-5.0, "must be >= 0")]
    )
    def test_invalid_bbox_names_record(self, tmp_path, records, width, message):
        gt_path, det_path = self.coco_pair(tmp_path)
        path = gt_path if records == "annotations" else det_path
        raw = json.loads(path.read_text())
        rows = raw["annotations"] if records == "annotations" else raw
        rows[1]["bbox"][2] = width
        path.write_text(json.dumps(raw))
        record = "annotation #1" if records == "annotations" else "detection #1"
        with pytest.raises(DataFormatError, match=f"{record}: bbox .*{message}"):
            import_coco(gt_path, det_path)

    @pytest.mark.parametrize("field", ["score", "scores"])
    def test_non_finite_score_names_record(self, tmp_path, field):
        gt_path, det_path = self.coco_pair(tmp_path, with_scores=True)
        det = json.loads(det_path.read_text())
        if field == "score":
            det[2]["score"] = float("nan")
        else:
            det[2]["scores"][0] = float("inf")
        det_path.write_text(json.dumps(det))
        with pytest.raises(DataFormatError, match=f"detection #2: {field} must be finite"):
            import_coco(gt_path, det_path)

    def test_imported_dataset_is_loadable(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path, with_scores=True))
        out = tmp_path / "native.json"
        write_dataset_file(dataset, out)
        samples = load_dataset(out)
        assert len(samples) == 3


class TestResultPersistence:
    def build_result(self):
        samples = generate(SynthSpec(seed=11, n_images=25, objects_min=1, objects_max=3))
        config = CalibrationConfig(
            alpha_cnf=0.05,
            alpha_loc=0.3,
            alpha_cls=0.3,
            loss_spec=LossSpec(localization_kind="boxwise"),
        )
        return calibrate(samples, config)

    def test_round_trip_field_identical(self, tmp_path):
        result = self.build_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        assert load_result(path) == result

    def test_save_is_byte_deterministic(self, tmp_path):
        result = self.build_result()
        save_result(result, tmp_path / "a.json")
        save_result(result, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_recalibration_is_byte_identical(self, tmp_path):
        save_result(self.build_result(), tmp_path / "a.json")
        save_result(self.build_result(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_tampered_config_detected(self, tmp_path):
        result = self.build_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        raw = json.loads(path.read_text())
        raw["config"]["alpha_loc"] = 0.9
        path.write_text(json.dumps(raw))
        with pytest.raises(DigestMismatchError):
            load_result(path)

    def test_old_schema_version_rejected(self, tmp_path):
        result = self.build_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        raw = json.loads(path.read_text())
        raw["schema_version"] = 0
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaVersionError):
            load_result(path)

    def test_config_dict_round_trip(self):
        config = self.build_result().config
        assert config_from_dict(config_to_dict(config)) == config

    def test_digest_changes_with_config(self):
        config = self.build_result().config
        other = config_from_dict({**config_to_dict(config), "alpha_cls": 0.31})
        assert config_digest(config) != config_digest(other)
