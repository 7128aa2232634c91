import hashlib
import json
import math
import multiprocessing
import os
import re
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    BoundingBox,
    CalibrationConfig,
    CalibrationResult,
    DataFormatError,
    DigestMismatchError,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SchemaVersionError,
    calibrate,
    generate,
    load_dataset,
    load_result,
    save_result,
    SynthSpec,
)
from condet import _workers, dataio
from condet.calibration import _SampleTable
from condet.cli import main as cli_main
from condet.dataio import (
    _chunks,
    DatasetFile,
    ImageRecord,
    config_digest,
    config_from_dict,
    config_to_dict,
    import_coco,
    read_dataset_file,
    write_dataset_file,
)
from condet.losses import Detection, ImageSample
from helpers import one_value_per_line, record_spans, samples_to_dataset, samples_to_dataset_file


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


def float_payload():
    """``two_image_payload`` with every number but the class ids a float."""
    payload = two_image_payload()
    for rec in payload["images"]:
        rec["width"], rec["height"] = float(rec["width"]), float(rec["height"])
        for obj in rec["ground_truths"] + rec["detections"]:
            obj["box"] = [float(v) for v in obj["box"]]
    return payload


def held_dataset(payload):
    """The ``DatasetFile`` holding the values of the native dataset document
    ``payload`` as they are, unchecked by the reader."""
    return DatasetFile(payload["num_classes"], tuple(payload["class_names"]), tuple(
        ImageRecord(
            rec["image_id"], rec["width"], rec["height"],
            tuple((BoundingBox(*g["box"]), g["class_id"]) for g in rec["ground_truths"]),
            tuple(Detection(BoundingBox(*d["box"]), d["probs"], d["confidence"]) for d in rec["detections"]),
        )
        for rec in payload["images"]
    ))


#: Values whose text form is easy to get wrong: signed zero, the smallest
#: subnormal, the largest magnitudes, integer-valued floats.
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1.0, 3.0, 640.0, 1e308)
#: Ids and names with quotes, escapes, non-ASCII and astral characters.
EDGE_TEXT = ('', '"', '\\', 'a"b\\c', '\u00e9t\u00e9', '\u732b', '\U0001f408', '\n\t')


def _floats(lo, hi):
    edges = [v for v in EDGE_FLOATS + tuple(-v for v in EDGE_FLOATS) if lo <= v <= hi]
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi, allow_nan=False))


@st.composite
def _boxes(draw):
    coord = _floats(-1e308, 1e308)
    left, right = sorted(draw(st.lists(coord, min_size=2, max_size=2)))
    top, bottom = sorted(draw(st.lists(coord, min_size=2, max_size=2)))
    return BoundingBox(left, top, right, bottom)


@st.composite
def _probs(draw, k):
    if draw(st.booleans()):
        # one-hot up to tiny entries that keep the sum within 1e-4 of one
        tiny = st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 1e-6))
        rest = draw(st.lists(tiny, min_size=k - 1, max_size=k - 1))
        at = draw(st.integers(0, k - 1))
        return tuple(rest[:at] + [1.0] + rest[at:])
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    return tuple(w / sum(weights) for w in weights)


TEXT = st.one_of(st.sampled_from(EDGE_TEXT), st.text(max_size=8))


@st.composite
def datasets(draw):
    """Valid ``DatasetFile`` values: every number a float except class ids."""
    k = draw(st.integers(1, 4))
    images = []
    for _ in range(draw(st.integers(0, 4))):
        gts = tuple(
            (draw(_boxes()), draw(st.integers(0, k - 1)))
            for _ in range(draw(st.integers(0, 3)))
        )
        dets = tuple(
            Detection(box=draw(_boxes()), probs=draw(_probs(k)), confidence=draw(_floats(0.0, 1.0)))
            for _ in range(draw(st.integers(0, 3)))
        )
        width, height = draw(_floats(0.0, 1e308)), draw(_floats(0.0, 1e308))
        images.append(ImageRecord(draw(TEXT), width, height, gts, dets))
    names = tuple(draw(st.lists(TEXT, min_size=k, max_size=k)))
    return DatasetFile(num_classes=k, class_names=names, images=tuple(images))


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

    @pytest.mark.parametrize(
        "record, field, value, message",
        [
            ("ground_truths", "box", ["1", True, "10", 12], "box must be a 4-element"),
            ("detections", "box", [1, 2, None, 12], "box must be a 4-element"),
            ("detections", "probs", [True, False, False], "probs must be numbers"),
            ("detections", "probs", ["0.8", "0.1", "0.1"], "probs must be numbers"),
            # An integer beyond the float range raised a bare OverflowError.
            ("ground_truths", "box", [1, 2, 10**400, 12],
             r"box must be a 4-element .* of numbers; an integer is beyond the float range$"),
            ("detections", "probs", [10**400, 0, 0],
             "probs must be numbers; an integer is beyond the float range$"),
        ],
    )
    def test_non_number_rejected(self, tmp_path, record, field, value, message):
        payload = two_image_payload()
        payload["images"][0][record][0][field] = value
        name = "ground truth" if record == "ground_truths" else "detection"
        with pytest.raises(DataFormatError, match=f"image 'a' {name} #0: {message}"):
            read_dataset_file(write_payload(tmp_path, payload))

    @pytest.mark.parametrize(
        "record, index, field, value, message",
        [
            ("detections", 1, "probs", [-0.1, 0.6, 0.5], "probs must be non-negative"),
            ("detections", 1, "probs", [float("nan"), 0.5, 0.5], "probs must be non-negative"),
            ("detections", 1, "probs", [0.5, 0.5, float("nan")], "probs must be non-negative"),
            ("detections", 1, "probs", [0.5, float("-inf"), 0.5], "probs must be non-negative"),
            ("detections", 1, "probs", [float("inf"), 0.0, 0.0], "probs sum to inf, expected 1 within 1e-4"),
            ("detections", 1, "probs", [0.5, 0.2, 0.2], "probs sum to 0.900000, expected 1 within 1e-4"),
            ("detections", 1, None, [1], "must be an object"),
            ("ground_truths", 0, None, 5, "must be an object"),
            ("ground_truths", 0, "class_id", 3, "class_id 3 is not an integer in [0, 3)"),
            ("ground_truths", 0, "class_id", -1, "class_id -1 is not an integer in [0, 3)"),
        ],
    )
    def test_invalid_record_named(self, tmp_path, record, index, field, value, message):
        payload = two_image_payload()
        records = payload["images"][0][record]
        if field is None:
            records[index] = value
        else:
            records[index][field] = value
        path = write_payload(tmp_path, payload)
        name = "ground truth" if record == "ground_truths" else "detection"
        where = f"{path}: image 'a' {name} #{index}: {message}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(where)}$"):
            read_dataset_file(path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80).filter(lambda w: sum(w) > 0),
        st.one_of(
            st.floats(1 - 2e-4, 1 + 2e-4),
            st.sampled_from([1 - 1e-4, 1 + 1e-4, 1 - 1.0000001e-4, 1 + 1.0000001e-4]),
        ),
    )
    def test_sum_check_decides_as_the_exact_sum(self, weights, scale):
        probs = [w / math.fsum(weights) * scale for w in weights]
        payload = two_image_payload()
        payload["num_classes"], payload["class_names"] = len(probs), None
        payload["images"] = [{"image_id": "a", "detections": [
            {"box": [0, 0, 1, 1], "confidence": 0.5, "probs": probs}
        ]}]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_payload(Path(tmp), payload)
            if abs(math.fsum(probs) - 1.0) <= 1e-4:
                assert read_dataset_file(path).images[0].detections[0].probs == tuple(probs)
            else:
                with pytest.raises(DataFormatError, match="probs sum to"):
                    read_dataset_file(path)

    def test_overflowing_probability_sum_named(self, tmp_path):
        # ``math.fsum`` raises OverflowError on these; it escaped unnamed.
        payload = two_image_payload()
        payload["images"][1]["detections"][0]["probs"] = [1e308, 1e308, 0.0]
        path = write_payload(tmp_path, payload)
        where = f"{path}: image 'b' detection #0: probs sum to inf, expected 1 within 1e-4"
        with pytest.raises(DataFormatError, match=f"^{re.escape(where)}$"):
            read_dataset_file(path)

    @pytest.mark.parametrize(
        "value", ["abc", [1, 2, 3], ["cat", None, "bird"], {"0": "cat"}]
    )
    def test_class_names_must_be_strings(self, tmp_path, value):
        payload = two_image_payload()
        payload["class_names"] = value
        path = write_payload(tmp_path, payload)
        message = f"{path}: class_names must be an array of strings, got {value!r}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_dataset_file(path)

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize(
        "value",
        ["640", True, float("nan"), float("inf"), -5, [1], None, pytest.param(10**400, id="10**400")],
    )
    def test_extent_must_be_finite_non_negative_number(self, tmp_path, field, value):
        payload = two_image_payload()
        payload["images"][1][field] = value
        path = write_payload(tmp_path, payload)
        message = f"{path}: image 'b': {field} must be a finite number >= 0, got {value!r}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_dataset_file(path)

    def test_absent_extent_is_zero(self, tmp_path):
        payload = two_image_payload()
        del payload["images"][0]["width"], payload["images"][0]["height"]
        payload["images"][1]["width"] = 0
        rec_a, rec_b = read_dataset_file(write_payload(tmp_path, payload)).images
        assert (rec_a.width, rec_a.height, rec_b.width) == (0.0, 0.0, 0.0)
        assert all(isinstance(v, float) for v in (rec_a.width, rec_a.height, rec_b.width))

    @pytest.mark.parametrize("value", [None, {"x": 1}, True, 1.5, ["a"]])
    def test_image_id_must_be_string_or_integer(self, tmp_path, value):
        payload = two_image_payload()
        payload["images"][1]["image_id"] = value
        path = write_payload(tmp_path, payload)
        message = f"{path}: image record #1: image_id must be a string or an integer, got {value!r}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_dataset_file(path)

    def test_integer_and_absent_image_ids(self, tmp_path):
        payload = two_image_payload()
        payload["images"][0]["image_id"] = 7
        del payload["images"][1]["image_id"]
        dataset = read_dataset_file(write_payload(tmp_path, payload))
        assert [rec.image_id for rec in dataset.images] == ["7", "image_1"]

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_schema_version_must_be_an_integer(self, tmp_path, value):
        payload = two_image_payload()
        payload["schema_version"] = value
        path = write_payload(tmp_path, payload)
        message = f"{path}: unsupported dataset schema version {value!r} (expected 1)"
        with pytest.raises(SchemaVersionError, match=f"^{re.escape(message)}$"):
            read_dataset_file(path)

    def test_integer_probs_accepted(self, tmp_path):
        payload = two_image_payload()
        payload["images"][0]["detections"][0]["probs"] = [1, 0, 0]
        dataset = read_dataset_file(write_payload(tmp_path, payload))
        assert dataset.images[0].detections[0].probs == (1.0, 0.0, 0.0)

    def test_unknown_schema_version(self, tmp_path):
        payload = two_image_payload()
        payload["schema_version"] = 99
        with pytest.raises(SchemaVersionError):
            read_dataset_file(write_payload(tmp_path, payload))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(class_names=["cat", "dog"]), "class_names length 2 != num_classes 3"),
            (lambda p: p.update(num_classes=0, class_names=[]), "num_classes must be a positive integer, got 0"),
            (lambda p: p.update(num_classes=2, class_names=["cat", "dog"]),
             "image 'a' detection #0: probs must be a length-2 array"),
            (lambda p: p["images"][0]["ground_truths"][0].update(class_id=5),
             "image 'a' ground truth #0: class_id 5 is not an integer in [0, 3)"),
            (lambda p: p["images"][0]["ground_truths"][0].update(class_id=1.0),
             "image 'a' ground truth #0: class_id 1.0 is not an integer in [0, 3)"),
            (lambda p: p["images"][0]["ground_truths"][0].update(box=[10, 2, 1, 12]),
             "image 'a' ground truth #0: box corners out of order (left<=right, top<=bottom required)"),
            (lambda p: p["images"][1].update(width=math.nan), "image 'b': width must be a finite number >= 0, got nan"),
            (lambda p: p["images"][0].update(height=-1), "image 'a': height must be a finite number >= 0, got -1"),
            (lambda p: p["images"][1].update(image_id=None),
             "image record #1: image_id must be a string or an integer, got None"),
        ],
    )
    def test_refuses_what_the_reader_refuses(self, tmp_path, edit, message):
        # Each was written without an error, and the reader refused it.
        payload = two_image_payload()
        edit(payload)
        assert outcome(held_dataset, payload) == (DataFormatError, message)
        path = write_payload(tmp_path, payload)
        assert outcome(read_dataset_file, path) == (DataFormatError, f"{path}: {message}")

    def test_reader_builds_the_checked_constructors_dataset(self, tmp_path, monkeypatch):
        # The reader checks each record as it parses it, and builds its
        # DatasetFile without checking it again; the checked constructor
        # gives an equal value, and a bad record keeps its message.
        path = tmp_path / "data.json"
        samples_to_dataset_file(generate(SynthSpec(seed=3, n_images=30, num_classes=5)), 5, path)
        checked = []
        monkeypatch.setattr(DatasetFile, "__post_init__",
                            lambda self, init=DatasetFile.__post_init__: checked.append(self) or init(self))
        dataset = read_dataset_file(path)
        assert checked == [] and len(dataset.images) == 30
        assert dataset == DatasetFile(dataset.num_classes, dataset.class_names, dataset.images)
        payload = two_image_payload()
        payload["images"][0]["ground_truths"][0]["class_id"] = 5
        path = write_payload(tmp_path, payload)
        assert outcome(read_dataset_file, path) == (
            DataFormatError, f"{path}: image 'a' ground truth #0: class_id 5 is not an integer in [0, 3)")

    def test_holds_what_the_reader_reads(self, tmp_path):
        payload = two_image_payload()
        dataset = held_dataset(payload)
        write_dataset_file(dataset, tmp_path / "data.json")
        assert read_dataset_file(tmp_path / "data.json") == read_dataset_file(write_payload(tmp_path, payload))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["images"][0]["ground_truths"][0].update(box=[1.0, 2.0, 10.0]),
             "image 'a' ground truth #0: box must be a 4-element [left, top, right, bottom] array of numbers"),
            (lambda p: p["images"][0]["detections"][0].update(box="1 2 10 12"),
             "image 'a' detection #0: box must be a 4-element [left, top, right, bottom] array of numbers"),
            (lambda p: p["images"][0]["detections"][1].update(probs=[0.5, 0.5]),
             "image 'a' detection #1: probs must be a length-3 array"),
            (lambda p: p["images"].__setitem__(1, 5), "image record #1 must be an object"),
            (lambda p: p["images"][0].update(ground_truths={}),
             "image 'a': ground_truths and detections must be arrays"),
            (lambda p: p["images"][1].update(detections=None),
             "image 'b': ground_truths and detections must be arrays"),
            (lambda p: p["images"][0]["ground_truths"].__setitem__(0, 5), "image 'a' ground truth #0: must be an object"),
            (lambda p: p["images"][0]["detections"].__setitem__(0, [1]), "image 'a' detection #0: must be an object"),
        ],
    )
    def test_shape_errors_read_alike(self, tmp_path, capsys, edit, message):
        # The payload passes the table reader's bulk check until edited, so
        # condet calibrate meets each error through a refusal of that check.
        payload = float_payload()
        assert dataio._span_table(payload["images"], 3, 1e-3) is not None
        edit(payload)
        path = write_payload(tmp_path, payload)
        assert outcome(load_dataset, path) == (DataFormatError, f"{path}: {message}")
        assert cli_main(["calibrate", "--dataset", str(path), "--out", str(tmp_path / "r.json")]) == 1
        assert f'code=1 kind=data detail="{path}: {message}"' in capsys.readouterr().err

    def test_write_read_round_trip_idempotent(self, tmp_path):
        first = read_dataset_file(write_payload(tmp_path, two_image_payload()))
        write_dataset_file(first, tmp_path / "second.json")
        second = read_dataset_file(tmp_path / "second.json")
        assert first == second
        write_dataset_file(second, tmp_path / "third.json")
        assert (tmp_path / "second.json").read_text() == (tmp_path / "third.json").read_text()

    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_write_read_round_trip_exact(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.json"
            write_dataset_file(dataset, path)
            back = read_dataset_file(path)
        assert back == dataset
        # repr tells -0.0 from 0.0, which == does not
        assert repr(back) == repr(dataset)

    @pytest.mark.parametrize("n_images", [2, 0])
    def test_one_image_record_per_line(self, tmp_path, n_images):
        dataset = read_dataset_file(write_payload(tmp_path, two_image_payload()))
        dataset = replace(dataset, images=dataset.images[:n_images])
        path = tmp_path / "out.json"
        write_dataset_file(dataset, path)
        text = path.read_text(encoding="utf-8")
        document = json.loads(text)
        lines = text.splitlines()
        assert len(lines) == 2 + n_images
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == document["images"]
        assert {k: v for k, v in document.items() if k != "images"} == {
            "schema_version": 1, "num_classes": 3, "class_names": ["cat", "dog", "bird"]
        }
        assert read_dataset_file(path) == dataset

    def test_indented_layout_loads_to_the_same_samples(self, tmp_path):
        # The writer once emitted the whole document with ``indent=2``.
        samples = generate(SynthSpec(seed=4, n_images=12, num_classes=5, objects_max=4))
        lines = tmp_path / "lines.json"
        samples_to_dataset_file(samples, 5, lines)
        indented = tmp_path / "indented.json"
        with open(indented, "w", encoding="utf-8") as fh:
            json.dump(json.loads(lines.read_text()), fh, indent=2)
            fh.write("\n")
        assert read_dataset_file(indented) == read_dataset_file(lines)
        assert load_dataset(indented) == load_dataset(lines) == [
            replace(s, detections=tuple(d for d in s.detections if d.confidence >= 1e-3))
            for s in samples
        ]

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: not valid JSON: Expecting")):
            read_dataset_file(path)

    @pytest.mark.parametrize("content, message", [
        # json.load raised a bare ValueError telling the user to call
        # sys.set_int_max_str_digits().
        (b'{"schema_version": 1, "width": 1' + b"0" * 5000 + b"}", "a JSON integer has too many digits"),
        # json.load raised a RecursionError.
        (b"[" * 200_000, "JSON nested too deeply"),
        (b'{"schema_version": 1, "class_names": ["\xff"]}', "not valid UTF-8"),
    ], ids=["long-integer", "deep-nesting", "not-utf-8"])
    def test_unreadable_json_names_file(self, tmp_path, content, message):
        path = tmp_path / "data.json"
        path.write_bytes(content)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")):
            read_dataset_file(path)


#: SHA-256 of ``write_dataset_file``'s output for ``TestParallelWrite``'s
#: dataset, recorded from the serial writer that encoded record by record.
DATASET_FILE_SHA256 = "9628747abc548f42434dee2ee1191e4e48d49c1bf61a217185bbb12197c443dc"


def cells(dataset):
    """The probability cells of each of ``dataset``'s records."""
    return [len(rec.detections) * dataset.num_classes for rec in dataset.images]


@pytest.mark.workers
class TestParallelWrite:
    @pytest.fixture(scope="class")
    def dataset(self):
        # 120 images, ~32 detections each, 80 classes: five chunks.
        spec = SynthSpec(seed=5, n_images=120, num_classes=80, false_positive_rate=30.0)
        return samples_to_dataset(generate(spec), 80)

    def test_chunks_cover_the_records_in_order(self, dataset):
        spans = _chunks(cells(dataset))
        assert len(spans) == 5
        assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
        assert spans[-1][1] == len(dataset.images)

    @pytest.mark.parametrize("cpus", [None, 1, 2, 4])
    def test_bytes_do_not_depend_on_the_worker_count(self, dataset, tmp_path, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        write_dataset_file(dataset, tmp_path / "data.json")
        assert multiprocessing.active_children() == []
        assert hashlib.sha256((tmp_path / "data.json").read_bytes()).hexdigest() == DATASET_FILE_SHA256

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_record_per_line_across_chunks(self, dataset, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        write_dataset_file(dataset, tmp_path / "data.json")
        header, records = one_value_per_line(tmp_path / "data.json", "images")
        assert header == {"schema_version": 1, "num_classes": 80,
                          "class_names": list(dataset.class_names), "images": []}
        assert [rec["image_id"] for rec in records] == [rec.image_id for rec in dataset.images]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_first_unencodable_record_in_file_order_raises(self, dataset, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        spans = _chunks(cells(dataset))
        images = list(dataset.images)
        # Coordinates that obey the box rule but that json cannot encode:
        # every field DatasetFile checks against the reader is encodable.
        for (start, _), kind in ((spans[3], Decimal), (spans[4], Fraction)):
            det, *rest = images[start].detections
            det = replace(det, box=BoundingBox(*map(kind, det.box.as_tuple())))
            images[start] = replace(images[start], detections=(det, *rest))
        with pytest.raises(TypeError, match="^Object of type Decimal is not JSON serializable$"):
            write_dataset_file(replace(dataset, images=tuple(images)), tmp_path / "data.json")
        assert multiprocessing.active_children() == []


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def writer_lines(path):
    """The header line and the record lines of a file in the writer's
    layout, each record line with its comma."""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n]}\n")
    header, *lines = text[: -len("\n]}\n")].split("\n")
    return header, lines


def join_lines(header, lines):
    return "\n".join([header, *lines, "]}", ""])


def edit_record(edit):
    """A record-line edit that applies ``edit`` to the decoded record."""
    def apply(line):
        comma = "," if line.endswith(",") else ""
        rec = json.loads(line.removesuffix(","))
        edit(rec)
        return json.dumps(rec) + comma
    return apply


def truncate(line):
    return line[: len(line) // 2] + ","


def bad_probs(rec):
    rec["detections"][0]["probs"] = [0.5] * 10


def zero_area(rec):
    # Selected under GIoU matching, a zero-area box fails the evaluation.
    assert rec["ground_truths"]
    rec["detections"][0].update(box=[10.0, 10.0, 10.0, 20.0], confidence=0.99)


def with_lines(edit):
    """A layout variant made by ``edit(header, lines)``, which returns the
    new header and record lines of the writer's output."""
    def apply(path):
        header, lines = writer_lines(path)
        return join_lines(*edit(header, list(lines))).encode("utf-8")
    return apply


def replace_line(n, new):
    def edit(header, lines):
        lines[n] = new(lines[n])
        return header, lines
    return edit


def two_on_one_line(header, lines):
    lines[3:5] = [lines[3] + " " + lines[4]]
    return header, lines


def split_over_two_lines(header, lines):
    first, rest = lines[3].split(", ", 1)
    lines[3:4] = [first + ",", rest]
    return header, lines


#: Each variant of the writer's output: how it is made from the file, and
#: whether its record lines are decoded one by one (else it is loaded whole).
LAYOUTS = {
    "writer": (lambda path: path.read_bytes(), True),
    "indent-2": (lambda path: (json.dumps(json.loads(path.read_text()), indent=2) + "\n").encode(), False),
    "crlf": (lambda path: path.read_bytes().replace(b"\n", b"\r\n"), True),
    "whitespace-around-commas": (
        with_lines(lambda h, ls: (h + " \t", [f" {ln[:-1]}\t ,  " for ln in ls[:-1]] + ls[-1:])), True),
    "blank-lines-after-close": (lambda path: path.read_bytes() + b"\n \t\r\n\n", True),
    "bom": (lambda path: b"\xef\xbb\xbf" + path.read_bytes(), False),
    "form-feed-before-record": (with_lines(replace_line(5, lambda ln: "\x0c" + ln)), False),
    "no-break-space-after-record": (with_lines(replace_line(5, lambda ln: ln + "\xa0")), False),
    "two-records-on-one-line": (with_lines(two_on_one_line), False),
    "record-over-two-lines": (with_lines(split_over_two_lines), False),
    "missing-comma": (with_lines(replace_line(5, lambda ln: ln[:-1])), False),
    "trailing-comma-on-last-record": (with_lines(replace_line(-1, lambda ln: ln + ",")), False),
    "missing-close": (lambda path: path.read_bytes()[: -len(b"]}\n")], False),
    "text-after-close": (lambda path: path.read_bytes() + b"x\n", False),
    "images-again-after-close": (
        lambda path: path.read_bytes().replace(b"\n]}\n", b'\n], "images": []}\n'), False),
    "last-key-not-images": (
        with_lines(lambda h, ls: (h.replace('"images": [', '"images": [], "more": ['), ls)), False),
    "no-images": (with_lines(lambda h, ls: (h, [])), True),
    "long-integer": (with_lines(replace_line(5, lambda ln: '{"width": 1' + "0" * 5000 + "},")), False),
    "deep-nesting": (
        with_lines(replace_line(5, lambda ln: '{"x": ' + "[" * 100_000 + "]" * 100_000 + "},")), False),
}


@pytest.mark.workers
class TestParallelRead:
    """The reader over a file of several spans of record lines: the same
    values and errors as loading the document whole."""

    @pytest.fixture(autouse=True)
    def small_spans(self, monkeypatch):
        # 8 KiB spans cut the 40-record file below into several.
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 8192)

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("read") / "data.json"
        spec = SynthSpec(seed=6, n_images=40, num_classes=10, false_positive_rate=3.0)
        samples_to_dataset_file(generate(spec), 10, path)
        return path

    @staticmethod
    def spans(path):
        """The spans of record lines the reader hands to its workers."""
        return record_spans(path, dataio._CHUNK_BYTES)

    @staticmethod
    def read(monkeypatch, fn, *args, whole=False):
        """``outcome(fn, *args)`` and whether the dataset file was loaded
        whole; with ``whole``, it is never read line by line."""
        loads, load_json = [], dataio._load_json
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_load_json", lambda path: loads.append(path) or load_json(path))
            if whole:
                patch.setattr(dataio, "_scan_spans", lambda path, limit: None)
            return outcome(fn, *args), bool(loads)

    def edited(self, path, tmp_path, edits, header=lambda h: h):
        """A copy of ``path`` with ``edit`` applied to the first record line
        of span ``k`` for each ``(k, edit)`` of ``edits``."""
        spans = self.spans(path)
        assert len(spans) >= 5
        head, lines = writer_lines(path)
        for k, edit in edits:
            start = spans[k][0]
            lines[start] = edit(lines[start])
        out = tmp_path / "edited.json"
        out.write_text(join_lines(header(head), lines), encoding="utf-8")
        return out

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_every_layout_reads_as_the_whole_document(self, written, tmp_path, monkeypatch, cpus, layout):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        make, by_line = LAYOUTS[layout]
        path = tmp_path / "variant.json"
        path.write_bytes(make(written))
        for fn in (read_dataset_file, load_dataset):
            got, loaded_whole = self.read(monkeypatch, fn, path)
            expected, _ = self.read(monkeypatch, fn, path, whole=True)
            assert got == expected
            assert loaded_whole == (not by_line)
        if layout == "writer":
            assert len(got) == 40
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_line_that_is_not_json_comes_before_a_bad_record(self, written, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        path = self.edited(written, tmp_path, [(0, edit_record(bad_probs)), (-1, truncate)])
        for fn in (read_dataset_file, load_dataset):
            (kind, message), _ = self.read(monkeypatch, fn, path)
            assert kind is DataFormatError
            assert message.startswith(f"{path}: not valid JSON: ")
            assert self.read(monkeypatch, fn, path, whole=True)[0] == (kind, message)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_line_that_is_not_json_comes_before_a_header_error(self, written, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        version_2 = lambda head: head.replace('"schema_version": 1', '"schema_version": 2')
        path = self.edited(written, tmp_path, [(-1, truncate)], header=version_2)
        (kind, message), _ = self.read(monkeypatch, read_dataset_file, path)
        assert kind is DataFormatError
        assert message.startswith(f"{path}: not valid JSON: ")
        # Without the broken line, the header error is raised.
        path = self.edited(written, tmp_path, [], header=version_2)
        (kind, message), _ = self.read(monkeypatch, read_dataset_file, path)
        assert kind is SchemaVersionError
        assert message == f"{path}: unsupported dataset schema version 2 (expected 1)"

    @staticmethod
    def evaluate_command(monkeypatch, capsys, result_path, path, whole=False):
        """``condet evaluate``'s exit code and error output on the dataset
        file ``path``, and whether it loaded that file whole; with
        ``whole``, it is never read line by line."""
        loads, load_json = [], dataio._load_json
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_load_json", lambda p: loads.append(str(p)) or load_json(p))
            if whole:
                patch.setattr(dataio, "_scan_spans", lambda p, limit: None)
            code = cli_main(["evaluate", "--result", str(result_path), "--dataset", str(path)])
        return (code, capsys.readouterr().err), str(path) in loads

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_bad_record_comes_before_an_earlier_work_error(self, written, tmp_path, monkeypatch, capsys, cpus):
        # condet evaluate reads and checks every record before it scores
        # one, so a bad record is named ahead of the GIoU error of an
        # earlier image.
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        config = CalibrationConfig(
            0.02, 0.1, 0.1,
            loss_spec=LossSpec(localization_kind="pixelwise"),
            predset_spec=PredSetSpec(localization_kind="multiplicative", classification_kind="aps"),
            match_spec=MatchDistanceSpec("giou"),
            lambda_loc_bounds=(0.0, 3.0),
        )
        result_path = tmp_path / "result.json"
        save_result(CalibrationResult(0.7, 0.6, 0.25, 0.9, config, 100, {}), result_path)
        path = self.edited(written, tmp_path, [(0, edit_record(zero_area))])
        got, loaded_whole = self.evaluate_command(monkeypatch, capsys, result_path, path)
        assert got == (1, 'error code=1 kind=data detail="giou_distance requires boxes with positive area"\n')
        assert not loaded_whole
        path = self.edited(written, tmp_path, [(0, edit_record(zero_area)), (3, edit_record(bad_probs))])
        start = self.spans(path)[3][0]
        image_id = json.loads(writer_lines(path)[1][start].removesuffix(","))["image_id"]
        got, loaded_whole = self.evaluate_command(monkeypatch, capsys, result_path, path)
        assert got == (1, f'error code=1 kind=data detail="{path}: image {image_id!r} detection #0: '
                          'probs sum to 5.000000, expected 1 within 1e-4"\n')
        assert not loaded_whole
        assert self.evaluate_command(monkeypatch, capsys, result_path, path, whole=True)[0] == got
        assert multiprocessing.active_children() == []


def record_offset(data, n):
    """The byte offset of record line ``n`` of the writer's layout ``data``."""
    at = 0
    for _ in range(n + 1):
        at = data.index(b"\n", at) + 1
    return at


def at_record(n, edit):
    """A variant made by ``edit(data, offset)``, with ``offset`` that of
    record line ``n``."""
    def apply(path):
        data = path.read_bytes()
        return edit(data, record_offset(data, n))
    return apply


def multibyte_ids(header, lines):
    # Two-, three- and four-byte UTF-8 characters, written as they are.
    return header, [ln.replace('"image_id": "', f'"image_id": "ä图\U0001f600{n}-', 1)
                    for n, ln in enumerate(lines)]


def blank_line_among_records(header, lines):
    lines[7:7] = [""]
    return header, lines


#: The reader's edge cases: how each file is made from the writer's output,
#: and whether its spans are read in workers (else it is loaded whole).
SCAN_CASES = {
    "crlf": (LAYOUTS["crlf"][0], True),
    "blank-lines-after-close": (lambda path: path.read_bytes() + b"\n \t\r\n\n  \t", True),
    "blank-line-among-records": (with_lines(blank_line_among_records), False),
    "no-records": (with_lines(lambda h, ls: (h, [])), True),
    "multibyte-image-ids": (with_lines(multibyte_ids), True),
    "invalid-utf8-in-record": (
        at_record(25, lambda data, at: data[:at + 14] + b"\xff" + data[at + 14:]), False),
    "last-key-not-images": LAYOUTS["last-key-not-images"],
    "truncated-mid-record": (at_record(25, lambda data, at: data[:at + 100]), False),
    "one-line-document": (lambda path: (json.dumps(json.loads(path.read_text())) + "\n").encode(), False),
}


@pytest.mark.workers
class TestSpanScan:
    """The writer's layout is read in spans of bytes that the workers read
    from the file themselves (``dataio._scan_spans``): every edge case
    reads as the whole document does, at any span limit and worker count."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("scan") / "data.json"
        spec = SynthSpec(seed=6, n_images=40, num_classes=10, false_positive_rate=3.0)
        samples_to_dataset_file(generate(spec), 10, path)
        return path

    def test_spans_tile_the_record_lines(self, written):
        data = written.read_bytes()
        header, lines = writer_lines(written)
        for limit in (1, 256, 8192, 1 << 20):
            head, _, spans = dataio._scan_spans(written, limit)
            assert head == json.loads(header + "]}")
            assert spans[0][0] == len(header) + 1
            assert sum(length for _, length, _, _ in spans) == len(data) - len(header) - len("\n]}\n")
            for (offset, length, first, last), nxt in zip(spans, spans[1:] + [None]):
                body = data[offset : offset + length]
                assert body.decode().split("\n")[:-1] == lines[first : first + body.count(b"\n")]
                assert last == (nxt is None)
                if nxt is not None:
                    assert nxt[0] == offset + length and nxt[2] == first + body.count(b"\n")
                    # Closed at the first line end that reaches the limit.
                    assert length >= limit and body.rfind(b"\n", 0, -1) + 1 < limit
        # A limit below one record line gives one span per line.
        assert min(map(len, lines)) > 256
        assert len(dataio._scan_spans(written, 256)[2]) == len(lines)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("limit", [256, 8192, 1 << 20])
    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_edge_case_reads_as_the_whole_document(self, written, tmp_path, monkeypatch, case, limit, cpus):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", limit)
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        make, by_spans = SCAN_CASES[case]
        path = tmp_path / "case.json"
        path.write_bytes(make(written))
        for fn in (read_dataset_file, load_dataset, reader_table):
            args = (path, 1e-3) if fn is reader_table else (path,)
            got, loaded_whole = TestParallelRead.read(monkeypatch, fn, *args)
            expected, _ = TestParallelRead.read(monkeypatch, fn, *args, whole=True)
            assert got == expected
            assert loaded_whole == (not by_spans)
        read = outcome(read_dataset_file, path)
        if case == "invalid-utf8-in-record":
            assert read[0] is DataFormatError and read[1].startswith(f"{path}: not valid UTF-8: ")
        elif case == "truncated-mid-record":
            assert read[0] is DataFormatError and read[1].startswith(f"{path}: not valid JSON: ")
        elif case != "last-key-not-images":
            assert len(read.images) == (0 if case == "no-records" else 40)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    def test_invalid_utf8_exits_1(self, written, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 8192)
        path = tmp_path / "case.json"
        path.write_bytes(SCAN_CASES["invalid-utf8-in-record"][0](written))
        result = tmp_path / "result.json"
        save_result(CalibrationResult(0.7, 0.6, 4.0, 0.9, CalibrationConfig(0.1, 0.5, 0.5), 24, {}), result)
        argv = {"calibrate": ["calibrate", "--dataset", str(path), "--out", str(tmp_path / "out.json")],
                "evaluate": ["evaluate", "--result", str(result), "--dataset", str(path)]}[command]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f'error code=1 kind=data detail="{path}: not valid UTF-8: ')
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("when", ["after-scan", "mid-read"])
    @pytest.mark.parametrize("new", ["other-records", "same-size-and-time"])
    def test_file_replaced_during_the_read_reads_as_the_new_file(self, written, tmp_path, monkeypatch,
                                                                 new, when, cpus):
        # The file is replaced after the scan, or by the worker of span 3
        # before it reads, when spans 0-2 may have read the old file. The
        # read gives the new file's whole result, never a mix of the two.
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 8192)
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        path, staged = tmp_path / "data.json", tmp_path / "staged.json"
        if new == "other-records":
            spec = SynthSpec(seed=11, n_images=30, num_classes=10, false_positive_rate=3.0)
            samples_to_dataset_file(generate(spec), 10, staged)
            replacement = staged.read_bytes()
        else:
            # The first record's image id changes, in span 0: only the
            # inode tells the files apart.
            replacement = written.read_bytes().replace(b'"synth-6-00000"', b'"synth-6-99999"', 1)
        spans = dataio._scan_spans(written, 8192)[2]
        assert len(spans) >= 5
        scan, decode = dataio._scan_spans, dataio._decode_span

        def replace(p):
            if staged.exists():
                os.replace(staged, p)

        def scanned(p, limit):
            found = scan(p, limit)
            if when == "after-scan":
                replace(p)
            return found

        def decoded(p, key, *args):
            if when == "mid-read" and args[-1][2] == spans[3][2]:
                replace(p)
            return decode(p, key, *args)

        for fn, args in ((read_dataset_file, ()), (load_dataset, ()), (reader_table, (1e-3,))):
            path.write_bytes(replacement)
            expected = outcome(fn, path, *args)
            path.write_bytes(written.read_bytes())
            assert outcome(fn, path, *args) != expected
            staged.write_bytes(replacement)
            st = path.stat()
            os.utime(staged, ns=(st.st_atime_ns, st.st_mtime_ns))
            with monkeypatch.context() as patch:
                patch.setattr(dataio, "_scan_spans", scanned)
                patch.setattr(dataio, "_decode_span", decoded)
                assert outcome(fn, path, *args) == expected
            assert not staged.exists()
        assert multiprocessing.active_children() == []

    def test_one_line_document_is_parsed_once(self, written, tmp_path, monkeypatch):
        # Its first line is the whole document, which the scan does not
        # parse as a header.
        path = tmp_path / "one-line.json"
        path.write_bytes(SCAN_CASES["one-line-document"][0](written))
        parsed, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(len(text)) or loads(text, **kw))
        read_dataset_file(path)
        assert parsed == [path.stat().st_size]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_read_whole(self, written, tmp_path, monkeypatch):
        # A pipe can be read once: the scan leaves it unopened. One worker,
        # so that no process forks while the writing thread runs.
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(written.read_bytes(),))
        writer.start()
        try:
            got, loaded_whole = TestParallelRead.read(monkeypatch, read_dataset_file, fifo)
        finally:
            writer.join()
        assert loaded_whole and got == read_dataset_file(written)

    def test_one_worker_holds_less_than_the_file(self, tmp_path, monkeypatch):
        # Neither the file's bytes nor its text is held whole: the peak is
        # the tables (twice, while they are joined), one block of the scan
        # and one span's lines and records.
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 1 << 16)
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 1 << 16)
        path = tmp_path / "data.json"
        spec = SynthSpec(seed=6, n_images=1000, num_classes=10, false_positive_rate=3.0)
        samples_to_dataset_file(generate(spec), 10, path)
        size = path.stat().st_size
        assert len(dataio._scan_spans(path, dataio._CHUNK_BYTES)[2]) >= 20
        tracemalloc.start()
        try:
            table = dataio._load_table(path, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.image_ids) == 1000
        assert peak < size

    # 200 examples, or the loaded profile's count when it is larger.
    @settings(max_examples=max(200, settings().max_examples), deadline=None)
    @given(st.data())
    def test_scan_matches_the_line_split_of_the_whole_file(self, data):
        # The scan, at any block size and span limit, against splitting the
        # whole file's bytes at "\n": the same layout decision and the same
        # record lines, cut into spans by the limit.
        ws = st.text(" \t\r", max_size=3)
        value = st.sampled_from(['{"a": 1}', "[]", '"é\U0001f600"', "1.5", "{", "", "x"])
        line = st.builds(lambda a, v, b, c: a + v + b + c, ws, value, ws, st.sampled_from([",", ""]))
        header = data.draw(st.sampled_from([
            '{"schema_version": 1, "images": [', '{"images": [], "x": [', '{"images": [ \r', "[",
            '{"é": 1, "images": [']))
        lines = data.draw(st.lists(line, max_size=12))
        close = data.draw(st.sampled_from(["]}", " ]} \r", "]", "]}x", "\t]}"]))
        after = data.draw(st.lists(ws, max_size=3))
        text = "\n".join([header, *lines, close, *after])
        raw = text.encode("utf-8")
        if data.draw(st.booleans()):
            raw = raw.replace(b"\xc3\xa9", b"\xe9")  # not UTF-8
        limit = data.draw(st.integers(1, 40))
        block = data.draw(st.integers(1, 50))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_BLOCK_BYTES", block)
            path = Path(tmp) / "data.json"
            path.write_bytes(raw)
            scan = dataio._scan_spans(path, limit)
        parts = raw.split(b"\n")
        last = len(parts) - 1
        while last > 0 and not parts[last].strip(b" \t\r\n"):
            last -= 1
        try:
            head = json.loads(parts[0].decode("utf-8") + "]}")
            layout = last > 0 and parts[last].strip(b" \t\r\n") == b"]}" and list(head)[-1] == "images"
        except ValueError:
            layout = False
        assert (scan is not None) == layout
        if scan is None:
            return
        record_lines = parts[1:last]
        spans = scan[2]
        assert [ln for offset, length, _, _ in spans for ln in raw[offset : offset + length].split(b"\n")[:-1]] == record_lines
        firsts = [first for _, _, first, _ in spans]
        counts = [raw.count(b"\n", offset, offset + length) for offset, length, _, _ in spans]
        assert firsts == [sum(counts[:k]) for k in range(len(spans))]
        assert [last for *_, last in spans] == [False] * (len(spans) - 1) + [True] * bool(spans)
        for offset, length, _, _ in spans[:-1]:
            assert length >= limit and raw.rfind(b"\n", offset, offset + length - 1) - offset + 1 < limit


def table_bits(table):
    """A ``_SampleTable`` as its image ids, each array's dtype, shape and
    bytes, its probabilities' bytes as a float64 matrix and, when it has
    detections, that matrix's shape: equal exactly when the tables hold the
    same bits. (The vectors of a table of samples without detections make
    no matrix of any width.)"""
    arrays = {
        name: (array.dtype.str, array.shape, array.tobytes())
        for name in ("gt_start", "det_start", "gt_box", "labels", "det_box", "req")
        for array in [getattr(table, name)]
    }
    probs = np.array(table.probs, dtype=float)
    return table.image_ids, arrays, probs.tobytes(), probs.shape if len(table.req) else None


def reader_table(path, floor):
    """``condet calibrate``'s table of ``path``, checked to hold a float64
    probability matrix one row per detection and ``num_classes`` wide, as
    ``table_bits``."""
    table = dataio._load_table(path, floor)
    num_classes = json.loads(Path(path).read_text(encoding="utf-8"))["num_classes"]
    assert table.probs.dtype == np.float64 and table.probs.shape == (len(table.req), num_classes)
    return table_bits(table)


def samples_table(path, floor):
    return table_bits(_SampleTable.from_samples(load_dataset(path, floor)))


#: Confidences with ties, values below, at and above the floors drawn, and
#: distinct ones whose ``1 - confidence`` are equal.
TABLE_CONFIDENCES = (0.0, 1e-17, 2e-17, 5e-4, 1e-3, 0.2, 0.5, 0.9, 1.0)


@st.composite
def raw_records(draw, k):
    """A raw image record in the writer's JSON form, with or without ground
    truths and detections. In some records every integer-valued number is a
    JSON integer, which the bulk check of the table reader refuses."""
    def box():
        left, top = draw(st.integers(0, 20)), draw(st.integers(0, 20))
        return [float(left), float(top), float(left + draw(st.integers(0, 9))),
                float(top + draw(st.integers(0, 9)))]

    def probs():
        if draw(st.booleans()):
            hot = draw(st.integers(0, k - 1))
            return [float(c == hot) for c in range(k)]
        weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
        return [w / sum(weights) for w in weights]

    rec = {
        "image_id": draw(TEXT),
        "width": 64.0,
        "height": 48.0,
        "ground_truths": [{"box": box(), "class_id": draw(st.integers(0, k - 1))}
                          for _ in range(draw(st.integers(0, 3)))],
        "detections": [{"box": box(), "confidence": draw(st.sampled_from(TABLE_CONFIDENCES)),
                        "probs": probs()} for _ in range(draw(st.integers(0, 5)))],
    }
    if draw(st.integers(0, 3)) == 0:
        rec = json.loads(json.dumps(rec), parse_float=_integral)
    return rec


def _integral(text):
    """The JSON number ``text`` as an int when its value is integral."""
    value = float(text)
    return int(value) if value.is_integer() else value


@pytest.mark.workers
class TestReaderTable:
    """``condet calibrate`` reads its dataset file into one ``_SampleTable``
    in the reader's workers; it equals, bit for bit, the table of the
    samples ``load_dataset`` returns."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("layout", ["writer", "wrapped"])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(raw_records(k), max_size=10), st.sampled_from((0.0, 1e-3, 0.5)))))
    def test_equals_the_table_of_the_loaded_samples(self, cpus, layout, drawn):
        k, records, floor = drawn
        head = {"schema_version": 1, "num_classes": k, "class_names": [], "images": []}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            # Spans of a record or two, so a file has several.
            patch.setattr(dataio, "_CHUNK_BYTES", 256)
            patch.setattr(dataio, "_CHUNK_CELLS", 8)
            patch.setattr(_workers, "_available_cpus", lambda: cpus)
            path = Path(tmp) / "data.json"
            if layout == "writer":
                dataio._write_lines(path, head, [json.dumps(rec) for rec in records])
            else:
                path.write_text(json.dumps({**head, "images": records}, indent=1))
            assert reader_table(path, floor) == samples_table(path, floor)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_every_layout_reads_as_the_samples(self, tmp_path, monkeypatch, cpus, layout):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 8192)
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        written = tmp_path / "data.json"
        samples_to_dataset_file(generate(SynthSpec(seed=6, n_images=40, num_classes=10)), 10, written)
        path = tmp_path / "variant.json"
        path.write_bytes(LAYOUTS[layout][0](written))
        assert outcome(reader_table, path, 1e-3) == outcome(samples_table, path, 1e-3)
        assert multiprocessing.active_children() == []

    def test_integer_span_builds_checked_detections_and_the_others_none(self, tmp_path, monkeypatch):
        # A constructor spy: only the span whose record holds an integer is
        # parsed through the checked Detection, and no span builds an
        # ImageSample.
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 8192)
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        path = tmp_path / "data.json"
        samples_to_dataset_file(generate(SynthSpec(seed=6, n_images=40, num_classes=10)), 10, path)
        spans = TestParallelRead.spans(path)
        assert len(spans) >= 3
        built = []
        for cls in (Detection, ImageSample):
            monkeypatch.setattr(cls, "__post_init__", lambda self, init=cls.__post_init__: built.append(self) or init(self))
        reader_table(path, 1e-3)
        assert built == []
        header, lines = writer_lines(path)
        start, stop = spans[1]
        lines[start] = edit_record(lambda rec: rec.update(width=64))(lines[start])
        path.write_text(join_lines(header, lines), encoding="utf-8")
        table = reader_table(path, 1e-3)
        n_dets = sum(len(json.loads(line.removesuffix(","))["detections"]) for line in lines[start:stop])
        assert n_dets and sum(isinstance(obj, Detection) for obj in built) == n_dets
        assert not any(isinstance(obj, ImageSample) for obj in built)
        built.clear()
        assert table == samples_table(path, 1e-3)


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

    def test_detection_only_extent_is_at_least_zero(self, tmp_path):
        # The estimate was the boxes' far edges, -15 here, which the reader
        # refuses as an extent.
        gt_path, det_path = self.coco_pair(tmp_path)
        det = json.loads(det_path.read_text())
        det.append({"image_id": 7, "category_id": 3, "bbox": [-20, -20, 5, 5], "score": 0.5})
        det_path.write_text(json.dumps(det))
        (rec,) = [rec for rec in import_coco(gt_path, det_path).images if rec.image_id == "7"]
        assert (rec.width, rec.height) == (0.0, 0.0)

    @pytest.mark.parametrize("given, extent", [
        ({"width": 0, "height": 480}, (30.0, 480.0)),
        ({"width": 640}, (640.0, 30.0)),
    ])
    def test_each_extent_is_estimated_on_its_own(self, tmp_path, given, extent):
        # A given height was replaced too whenever the width was 0.
        gt_path, det_path = self.coco_pair(tmp_path)
        gt = json.loads(gt_path.read_text())
        gt["images"].append({"id": 9, **given})
        gt_path.write_text(json.dumps(gt))
        det = json.loads(det_path.read_text())
        det.append({"image_id": 9, "category_id": 3, "bbox": [10, 10, 20, 20], "score": 0.5})
        det_path.write_text(json.dumps(det))
        (rec,) = [rec for rec in import_coco(gt_path, det_path).images if rec.image_id == "9"]
        assert (rec.width, rec.height) == extent

    def test_ground_truth_count_preserved(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path))
        assert sum(len(rec.ground_truths) for rec in dataset.images) == 2

    def test_image_order_and_extent_fallback(self, tmp_path):
        gt_path, det_path = self.coco_pair(tmp_path)
        gt = json.loads(gt_path.read_text())
        gt["annotations"].append({"id": 12, "image_id": 4, "category_id": 3, "bbox": [0, 0, 5, 5]})
        gt_path.write_text(json.dumps(gt))
        dataset = import_coco(gt_path, det_path)
        # the images list, then ids first seen in annotations, then in detections
        assert [rec.image_id for rec in dataset.images] == ["1", "2", "4", "5"]
        assert [(rec.width, rec.height) for rec in dataset.images] == [
            (100.0, 80.0), (100.0, 80.0), (0.0, 0.0), (4.0, 4.0)
        ]

    @pytest.mark.parametrize(
        "entry, message",
        [
            # Imported as id "None" with extent 640.0 x 1.0.
            ({"id": None, "width": "640", "height": True},
             "id must be a string or an integer, got None"),
            ({"id": 2.0}, "id must be a string or an integer, got 2.0"),
            ({"id": 2, "width": "640"}, "width must be a finite number >= 0, got '640'"),
            ({"id": 2, "height": True}, "height must be a finite number >= 0, got True"),
            ({"id": 2, "width": -5}, "width must be a finite number >= 0, got -5"),
            pytest.param({"id": 2, "height": 10**400},
                         f"height must be a finite number >= 0, got {10**400}", id="height-10**400"),
        ],
    )
    def test_invalid_image_entry_names_file_and_entry(self, tmp_path, entry, message):
        gt_path, det_path = self.coco_pair(tmp_path)
        gt = json.loads(gt_path.read_text())
        gt["images"][1] = entry
        gt_path.write_text(json.dumps(gt))
        where = f"{gt_path}: images entry #1: {message}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(where)}$"):
            import_coco(gt_path, det_path)

    @pytest.mark.parametrize("records", ["annotations", "detections"])
    def test_record_image_id_must_be_string_or_integer(self, tmp_path, records):
        gt_path, det_path = self.coco_pair(tmp_path)
        path = gt_path if records == "annotations" else det_path
        raw = json.loads(path.read_text())
        rows = raw["annotations"] if records == "annotations" else raw
        rows[1]["image_id"] = None
        path.write_text(json.dumps(raw))
        record = "annotation #1" if records == "annotations" else "detection #1"
        where = f"{path}: {record}: image_id must be a string or an integer, got None"
        with pytest.raises(DataFormatError, match=f"^{re.escape(where)}$"):
            import_coco(gt_path, det_path)

    def test_repeated_image_id_rejected(self, tmp_path):
        # It became two records, each carrying every box of that image.
        gt_path, det_path = self.coco_pair(tmp_path)
        gt = json.loads(gt_path.read_text())
        gt["images"].append({"id": 2, "width": 50, "height": 50})
        gt_path.write_text(json.dumps(gt))
        with pytest.raises(DataFormatError, match="image id '2' appears twice in 'images'"):
            import_coco(gt_path, det_path)

    def test_repeated_category_id_rejected(self, tmp_path):
        # It gave num_classes 3 and class names ('b', 'b', 'c'): class 0
        # unused and name 'a' lost.
        gt_path, det_path = self.coco_pair(tmp_path)
        gt = json.loads(gt_path.read_text())
        gt["categories"] = [{"id": 3, "name": "a"}, {"id": 3, "name": "b"}, {"id": 5, "name": "c"}]
        gt["annotations"], det = [], []
        gt_path.write_text(json.dumps(gt))
        det_path.write_text(json.dumps(det))
        where = f"{gt_path}: category id 3 appears twice in 'categories'"
        with pytest.raises(DataFormatError, match=f"^{re.escape(where)}$"):
            import_coco(gt_path, det_path)

    @pytest.mark.parametrize("key", ["annotations", "detections"])
    def test_results_object_holds_the_array(self, tmp_path, key):
        gt_path, det_path = self.coco_pair(tmp_path)
        listed = import_coco(gt_path, det_path)
        det_path.write_text(json.dumps({key: json.loads(det_path.read_text())}))
        assert import_coco(gt_path, det_path) == listed

    def test_one_category_without_scores(self, tmp_path):
        gt_path, det_path = self.coco_pair(tmp_path)
        gt = json.loads(gt_path.read_text())
        gt["categories"] = [{"id": 3, "name": "cat"}]
        gt["annotations"] = [ann for ann in gt["annotations"] if ann["category_id"] == 3]
        gt_path.write_text(json.dumps(gt))
        det_path.write_text(json.dumps([rec for rec in json.loads(det_path.read_text()) if rec["category_id"] == 3]))
        dataset = import_coco(gt_path, det_path)
        assert dataset.num_classes == 1
        assert [d.probs for rec in dataset.images for d in rec.detections] == [(1.0,)]

    def test_unknown_category_rejected(self, tmp_path):
        gt_path, det_path = self.coco_pair(tmp_path)
        det = json.loads(det_path.read_text())
        det[0]["category_id"] = 999
        det_path.write_text(json.dumps(det))
        with pytest.raises(DataFormatError, match="unknown category"):
            import_coco(gt_path, det_path)

    @pytest.mark.parametrize("records", ["annotations", "detections"])
    @pytest.mark.parametrize(
        "width, message",
        [
            (float("inf"), "must be finite"),
            (-5.0, "must be >= 0"),
            pytest.param(10**400, "an integer is beyond the float range", id="10**400-range"),
        ],
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

    @pytest.mark.parametrize(
        "scores, message",
        [
            ([0.9, 0.7, 0.0], "scores sum to 1.600000, expected 1 within 1e-4"),
            ([-0.5, 1.5, 0.0], "scores must be non-negative"),
            ([0.5, 0.5, -0.0001], "scores must be non-negative"),
        ],
    )
    def test_scores_follow_the_native_probability_rule(self, tmp_path, scores, message):
        gt_path, det_path = self.coco_pair(tmp_path, with_scores=True)
        det = json.loads(det_path.read_text())
        det[1]["scores"] = scores
        det_path.write_text(json.dumps(det))
        with pytest.raises(DataFormatError) as info:
            import_coco(gt_path, det_path)
        assert str(info.value) == f"{det_path}: detection #1: {message}"

    @pytest.mark.parametrize("records", ["annotations", "detections"])
    def test_non_number_bbox_names_record(self, tmp_path, records):
        gt_path, det_path = self.coco_pair(tmp_path)
        path = gt_path if records == "annotations" else det_path
        raw = json.loads(path.read_text())
        rows = raw["annotations"] if records == "annotations" else raw
        rows[1]["bbox"] = ["1", True, "3", "4"]
        path.write_text(json.dumps(raw))
        record = "annotation #1" if records == "annotations" else "detection #1"
        with pytest.raises(DataFormatError, match=f"{record}: bbox must be an array of 4 numbers"):
            import_coco(gt_path, det_path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("score", "0.9"),
            ("score", True),
            ("scores", [0.2, "0.5", 0.3]),
            pytest.param("score", 10**400, id="score-10**400"),
            ("scores", [0.2, 10**400, 0.3]),
        ],
    )
    def test_non_number_score_names_record(self, tmp_path, field, value):
        gt_path, det_path = self.coco_pair(tmp_path, with_scores=True)
        det = json.loads(det_path.read_text())
        det[1][field] = value
        det_path.write_text(json.dumps(det))
        with pytest.raises(DataFormatError, match=f"detection #1: {field} must be"):
            import_coco(gt_path, det_path)

    def test_absent_score_defaults_to_zero(self, tmp_path):
        gt_path, det_path = self.coco_pair(tmp_path)
        det = json.loads(det_path.read_text())
        del det[0]["score"]
        det_path.write_text(json.dumps(det))
        confidence = import_coco(gt_path, det_path).images[0].detections[0].confidence
        assert confidence == 0.0 and isinstance(confidence, float)

    def test_imported_dataset_is_loadable(self, tmp_path):
        dataset = import_coco(*self.coco_pair(tmp_path, with_scores=True))
        out = tmp_path / "native.json"
        write_dataset_file(dataset, out)
        samples = load_dataset(out)
        assert len(samples) == 3


#: Coordinates, confidences and probabilities at the edges of the rule.
EDGE_COORDS = (math.nan, math.inf, -math.inf, -0.0, 0.0, -5e-324, 5e-324, 1.0, 1e308, -1e308)
EDGE_CONFIDENCES = (math.nan, math.inf, -math.inf, -0.0, 0.0, -5e-324, -1e-300, 1.0, 1 + 2**-52)
EDGE_PROBS = (math.nan, math.inf, -math.inf, -0.0, 0.0, -5e-324, -1e-300, 1.0)
#: Factors that put a vector's sum at 1 within or just past 1e-4.
EDGE_SCALES = (1.0, 1 - 1e-4, 1 + 1e-4, 1 - 1.0000001e-4, 1 + 1.0000001e-4)


@st.composite
def _edge_boxes(draw):
    corners = draw(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        corners[draw(st.integers(0, 3))] = draw(st.sampled_from(EDGE_COORDS))
    if draw(st.integers(0, 3)):  # else the corners are as drawn, often reversed
        (left, right), (top, bottom) = sorted(corners[::2]), sorted(corners[1::2])
        corners = [left, top, right, bottom]
    return corners


@st.composite
def _edge_probs(draw):
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    probs = [w / math.fsum(weights) * draw(st.sampled_from(EDGE_SCALES)) for w in weights]
    for _ in range(draw(st.integers(0, 2))):
        # An edge value in place of an entry, or beside them, which leaves
        # the sum as it was: a tiny negative entry then breaks no other rule.
        at = draw(st.integers(0, len(probs) - 1))
        if draw(st.booleans()):
            probs[at] = draw(st.sampled_from(EDGE_PROBS))
        else:
            probs.insert(at, draw(st.sampled_from(EDGE_PROBS)))
    return probs


#: Image ids, extents and class ids of each JSON type, in and out of range.
EDGE_IDS = ("", 7, -1, None, 1.5, ["a"])
EDGE_EXTENTS = (0.0, -0.0, 64.0, 64, 10**400, -1e-300, -1, 1e308, math.inf, math.nan, True, "64", None)
EDGE_CLASS_IDS = (0, 1, 2, 3, -1, 10**30, True, False, 0.0, 1.0, "0", None)


def one_record_file(directory, num_classes, record):
    payload = {"schema_version": 1, "num_classes": num_classes,
               "images": [{"image_id": "a", **record}]}
    return write_payload(Path(directory), payload)


def table_read(path):
    """``condet calibrate``'s read of ``path`` beside ``read_dataset_file``'s:
    it fails with the same exception type and message, or it returns the
    table of the samples ``load_dataset`` returns."""
    read = outcome(read_dataset_file, path)
    table = outcome(reader_table, path, 1e-3)
    if isinstance(read, DatasetFile):
        assert table == samples_table(path, 1e-3)
    else:
        assert table == read
    return read


@pytest.mark.workers
class TestOneValidityRule:
    """The constructors and the file readers apply one rule: an object that
    cannot be built is a file that cannot be read, with the same message
    after the record's name, by ``read_dataset_file`` and by ``condet
    calibrate``'s table reader alike."""

    @settings(max_examples=400, deadline=None)
    @given(_edge_boxes(), _edge_probs(),
           st.one_of(st.sampled_from(EDGE_CONFIDENCES), st.floats(0.0, 1.0)))
    def test_detection_rule_is_the_readers(self, box, probs, confidence):
        built = outcome(Detection, BoundingBox(*box), probs, confidence)
        record = {"detections": [{"box": box, "confidence": confidence, "probs": probs}]}
        with tempfile.TemporaryDirectory() as tmp:
            path = one_record_file(tmp, len(probs), record)
            read = table_read(path)
        if isinstance(built, Detection):
            assert repr(read.images[0].detections) == repr((built,))
        else:
            assert built[0] is ValueError
            assert read == (DataFormatError, f"{path}: image 'a' detection #0: {built[1]}")

    @settings(max_examples=200, deadline=None)
    @given(_edge_boxes())
    def test_ground_truth_rule_is_the_readers(self, box):
        built = outcome(ImageSample, "a", ((BoundingBox(*box), 0),), ())
        with tempfile.TemporaryDirectory() as tmp:
            path = one_record_file(tmp, 1, {"ground_truths": [{"box": box, "class_id": 0}]})
            read = table_read(path)
        if isinstance(built, ImageSample):
            assert repr(read.images[0].ground_truths) == repr(built.ground_truths)
        else:
            assert built[0] is ValueError and built[1].startswith("image 'a': ground truth #0: ")
            rule = built[1].removeprefix("image 'a': ground truth #0: ")
            assert read == (DataFormatError, f"{path}: image 'a' ground truth #0: {rule}")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.dictionaries(
        st.sampled_from(("image_id", "width", "height", "class_id")),
        st.sampled_from(EDGE_IDS + EDGE_EXTENTS + EDGE_CLASS_IDS), max_size=2))
    def test_record_fields_read_alike(self, k, edges):
        # The JSON-type and range checks of the reader, which the table
        # reader's bulk check must not let through either.
        fields = {"image_id": "a", "width": 64.0, "height": 48.0, "class_id": k - 1, **edges}
        record = {
            "image_id": fields["image_id"], "width": fields["width"], "height": fields["height"],
            "ground_truths": [{"box": [0.0, 0.0, 2.0, 2.0], "class_id": fields["class_id"]}],
            "detections": [{"box": [0.0, 0.0, 2.0, 2.0], "confidence": 0.5, "probs": [1.0] + [0.0] * (k - 1)}],
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = write_payload(Path(tmp), {"schema_version": 1, "num_classes": k, "images": [record]})
            read = table_read(path)
        image_id, class_id = fields["image_id"], fields["class_id"]
        valid = (isinstance(image_id, str) or type(image_id) is int) and type(class_id) is int and 0 <= class_id < k
        assert isinstance(read, DatasetFile) == (valid and all(
            type(v) in (int, float) and 0.0 <= v <= 1e308 for v in (fields["width"], fields["height"])))

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rank") / "data.json"
        samples_to_dataset_file(generate(SynthSpec(seed=6, n_images=40, num_classes=10)), 10, path)
        return path

    @staticmethod
    def edited(path, out, edits):
        """``path`` with ``edit`` applied to the first record line of span
        ``k`` for each ``(k, edit)`` of ``edits``, written to ``out``."""
        spans = TestParallelRead.spans(path)
        assert len(spans) >= 5
        header, lines = writer_lines(path)
        for k, edit in edits:
            lines[spans[k][0]] = edit(lines[spans[k][0]])
        out.write_text(join_lines(header, lines), encoding="utf-8")
        return out

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_error_rank_across_spans(self, written, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 8192)
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        integers = edit_record(lambda rec: rec.update(width=64, height=48))
        # A span the bulk check refuses, read through the rule, then a bad
        # record in a later span: the bad record is named.
        path = self.edited(written, tmp_path / "a.json", [(0, integers), (3, edit_record(bad_probs))])
        kind, message = table_read(path)
        assert kind is DataFormatError and message.endswith("probs sum to 5.000000, expected 1 within 1e-4")
        # A bad record, then a later line that is not JSON: the JSON error.
        path = self.edited(written, tmp_path / "b.json", [(0, edit_record(bad_probs)), (-1, truncate)])
        kind, message = table_read(path)
        assert kind is DataFormatError and message.startswith(f"{path}: not valid JSON: ")
        # The integers alone read as the samples do.
        path = self.edited(written, tmp_path / "c.json", [(0, integers), (2, integers)])
        assert isinstance(table_read(path), DatasetFile)
        assert multiprocessing.active_children() == []


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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("lambda_cnf_plus", "0.9", "result.lambda_cnf_plus must be a number, got '0.9'"),
            ("lambda_cls_plus", True, "result.lambda_cls_plus must be a number, got True"),
            ("n_calibration", "12", "result.n_calibration must be an integer, got '12'"),
            ("n_calibration", 12.0, "result.n_calibration must be an integer, got 12.0"),
            ("diagnostics", {"cnf_monotonized_risk": "0"}, "result.diagnostics.cnf_monotonized_risk must be a number"),
            ("diagnostics", [], "result.diagnostics must be an object"),
            ("lambda_cnf_minus", 2.0, "optimistic confidence parameter exceeds the conservative one"),
            ("lambda_loc_plus", None, "result.lambda_loc_plus must be a number, got None"),
            ("lambda_cnf_plus", math.nan, "every lambda must be finite"),
            ("lambda_loc_plus", math.inf, "every lambda must be finite"),
            ("lambda_cls_plus", -math.inf, "every lambda must be finite"),
            ("lambda_cnf_minus", -0.5, "confidence parameters must satisfy 0 <= lambda_cnf_minus and lambda_cnf_plus <= 1"),
            ("lambda_cnf_plus", 1.5, "confidence parameters must satisfy 0 <= lambda_cnf_minus and lambda_cnf_plus <= 1"),
            ("lambda_loc_plus", -1.0, "lambda_loc_plus must be >= 0, got -1.0"),
            ("lambda_cls_plus", 7.0, "lambda_cls_plus must lie in [0, 1], got 7.0"),
            ("lambda_cls_plus", -0.25, "lambda_cls_plus must lie in [0, 1], got -0.25"),
            ("n_calibration", -3, "n_calibration must be >= 1, got -3"),
            ("n_calibration", 0, "n_calibration must be >= 1, got 0"),
            ("lambda_loc_plus", 1e9, "lambda_loc_plus must lie in lambda_loc_bounds [0.0, "),
            ("diagnostics", {"cnf_monotonized_risk": math.nan}, "every diagnostic must be finite"),
            ("diagnostics", {"loc_monotonized_risk": math.inf}, "every diagnostic must be finite"),
        ],
    )
    def test_invalid_field_rejected(self, tmp_path, key, value, message):
        path = tmp_path / "result.json"
        save_result(self.build_result(), path)
        raw = json.loads(path.read_text())
        raw[key] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")):
            load_result(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "result.json"
        save_result(self.build_result(), path)
        raw = json.loads(path.read_text())
        del raw["n_calibration"]
        path.write_text(json.dumps(raw))
        with pytest.raises(DataFormatError, match=r"missing keys \['n_calibration'\] in result"):
            load_result(path)

    @pytest.mark.parametrize("value", [True, 2.0, "2", 1])
    def test_schema_version_must_be_the_integer_2(self, tmp_path, value):
        # 2.0 loaded; a dataset file's 1.0 was already refused.
        path = tmp_path / "result.json"
        save_result(self.build_result(), path)
        raw = json.loads(path.read_text())
        raw["schema_version"] = value
        path.write_text(json.dumps(raw))
        message = f"{path}: unsupported result schema version {value!r} (expected 2)"
        with pytest.raises(SchemaVersionError, match=f"^{re.escape(message)}$"):
            load_result(path)

    @pytest.mark.parametrize("value", [2**63 - 1, 2**63, -(2**63) - 1])
    def test_integer_field_takes_the_int64_range(self, tmp_path, value):
        path = tmp_path / "result.json"
        save_result(self.build_result(), path)
        raw = json.loads(path.read_text())
        raw["n_calibration"] = value
        path.write_text(json.dumps(raw))
        if value == 2**63 - 1:
            assert load_result(path).n_calibration == value
            return
        message = (f"{path}: result.n_calibration must be an integer, got {value}; "
                   "an integer is beyond the int64 range")
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_result(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "result.json"
        save_result(self.build_result(), path)
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == 2
        raw["schema_version"] = 1
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaVersionError, match="unsupported result schema version 1"):
            load_result(path)

    def test_config_dict_round_trip(self):
        config = self.build_result().config
        assert config_from_dict(config_to_dict(config)) == config

    def test_digest_changes_with_config(self):
        config = self.build_result().config
        other = config_from_dict({**config_to_dict(config), "alpha_cls": 0.31})
        assert config_digest(config) != config_digest(other)


class TestConfigFromDict:
    ALPHAS = {"alpha_cnf": 0.05, "alpha_loc": 0.3, "alpha_cls": 0.3}

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"binary_search_steps": 32}, r"unknown keys \['binary_search_steps'\] in config"),
            ({"match_spec": {"tau": True}}, "match_spec.tau must be a number, got True"),
            ({"finite_sample_correction": "no"}, "finite_sample_correction must be true or false"),
            ({"finite_sample_correction": 0}, "finite_sample_correction must be true or false"),
            ({"alpha_cnf": True}, "alpha_cnf must be a number, got True"),
            ({"prefilter_threshold": "0.01"}, "prefilter_threshold must be a number"),
            ({"loss_spec": {"localization_tau": "1"}}, "loss_spec.localization_tau must be a number"),
            ({"loss_spec": {"localization_kind": None}}, "loss_spec.localization_kind must be a string"),
            ({"lambda_loc_bounds": [0, 1, 5]}, "lambda_loc_bounds must be an array of 2 values"),
            ({"lambda_cls_bounds": ["0", "1"]}, "lambda_cls_bounds must be a number"),
            ({"alpha_lco": 0.3}, r"unknown keys \['alpha_lco'\] in config"),
            ({"match_spec": {"knd": "mix"}}, r"unknown keys \['knd'\] in match_spec"),
            ({"loss_spec": []}, "loss_spec must be an object"),
        ],
    )
    def test_invalid_value_rejected(self, extra, message):
        with pytest.raises(DataFormatError, match=f"invalid calibration config: {message}"):
            config_from_dict({**self.ALPHAS, **extra})

    def test_missing_alpha_rejected(self):
        with pytest.raises(DataFormatError, match=r"missing keys \['alpha_cls'\] in config"):
            config_from_dict({"alpha_cnf": 0.05, "alpha_loc": 0.3})

    def test_missing_keys_take_defaults(self):
        config = config_from_dict({
            **self.ALPHAS,
            "loss_spec": {"localization_tau": 1},
            "match_spec": {"tau": 0.5},
            "lambda_loc_bounds": [0, 20],
        })
        assert config == CalibrationConfig(
            **self.ALPHAS,
            loss_spec=LossSpec(localization_tau=1.0),
            match_spec=MatchDistanceSpec("hausdorff", tau=0.5),
            lambda_loc_bounds=(0.0, 20.0),
        )
        # integers in float fields are kept as given, so the digest is too
        assert config_to_dict(config)["loss_spec"]["localization_tau"] == 1
        assert isinstance(config_to_dict(config)["loss_spec"]["localization_tau"], int)
