"""``_infer_table`` against the public ``infer``.

``condet infer`` builds every image's prediction sets in array passes over a
``_SampleTable`` of its dataset file (``_infer_table``); the public ``infer``
builds one image's detection by detection (``_prediction_sets``). For every
image, both must select the same detections, in input order, with the same
``index``, ``box``, ``margined_box`` and ``class_set``, compared with ``==``
and, so that a zero's sign counts, as the ``repr`` of each value. Every
route into a table is compared: a span's bulk build from the decoded JSON
(``_span_table``), the fallback build from checked records
(``_SampleTable.from_images``), a table of samples, and a table split and
joined again. The command itself must write the bytes that the public
``infer`` gives over ``read_dataset_file``'s records.
"""

from __future__ import annotations

import json
import multiprocessing
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    BoundingBox,
    Detection,
    SynthSpec,
    _workers,
    dataio,
    generate,
    infer,
    save_result,
)
from condet.calibration import _SampleTable
from condet.cli import _output, main
from condet.dataio import ImageRecord, load_result, read_dataset_file
from condet.inference_metrics import _infer_table
from condet.predsets import CLS_SET_KINDS, LOC_SET_KINDS
from helpers import record_spans, tied_probs
from test_evaluation import lattice_sample, make_result


def public_predictions(images, result, floor) -> list:
    """Each image's selections as the public ``infer`` gives them for its
    detections at or above ``floor``, with each ``index`` mapped back to the
    detection's position in the image's input list."""
    out = []
    for image in images:
        kept = [j for j, d in enumerate(image.detections) if d.confidence >= floor]
        pred = infer([image.detections[j] for j in kept], result, image_id=image.image_id)
        out.append([(kept[sel.index], sel.box.as_tuple(), sel.margined_box.as_tuple(),
                     sorted(sel.class_labels)) for sel in pred.selected])
    return out


def table_predictions(table, result) -> list:
    """Each image's selections as ``_infer_table`` gives them for ``table``."""
    counts, index, box, margined, sets = _infer_table(table, result)
    rows = [(i, tuple(b), tuple(m), np.flatnonzero(s).tolist())
            for i, b, m, s in zip(index.tolist(), box.T.tolist(), margined.T.tolist(), sets)]
    ends = np.cumsum(counts).tolist()
    return [rows[lo:hi] for lo, hi in zip([0, *ends], ends)]


def raw_record(image) -> dict:
    """``image`` as a record of a dataset file, every number a float."""
    return {
        "image_id": image.image_id, "width": 64.0, "height": 48.0,
        "ground_truths": [{"box": list(box.as_tuple()), "class_id": label}
                          for box, label in image.ground_truths],
        "detections": [{"box": list(d.box.as_tuple()), "confidence": d.confidence, "probs": list(d.probs)}
                       for d in image.detections],
    }


def tables(images, k, floor) -> dict:
    """Each route's table of ``images``, records with their detections in
    input order, without the detections below ``floor``."""
    fallback = _SampleTable.from_images(images, k, floor)
    routes = {"fallback": fallback}
    routes["bulk"] = dataio._span_table(json.loads(json.dumps([raw_record(im) for im in images])), k, floor)
    assert routes["bulk"] is not None
    if len(images) > 1:
        routes["split and joined"] = _SampleTable.concat(fallback.split(len(images) // 2))
    return routes


def assert_agrees(images, result, floor=0.0, k=None, tag=None):
    """Every route's table gives the public ``infer``'s selections."""
    k = k or len(next((d.probs for im in images for d in im.detections), (0.0,)))
    want = public_predictions(images, result, floor)
    for route, table in tables(images, k, floor).items():
        got = table_predictions(table, result)
        assert got == want, (tag, route)
        assert repr(got) == repr(want), (tag, route)
    return want


def shuffled(rng, sample) -> ImageRecord:
    """``sample`` as a file record whose detections are in random order."""
    dets = list(sample.detections)
    rng.shuffle(dets)
    return ImageRecord(sample.image_id, 64.0, 48.0, sample.ground_truths, tuple(dets))


BOX = BoundingBox(0.0, 0.0, 10.0, 10.0)


def det(conf, box=BOX, probs=(0.6, 0.3, 0.1)):
    return Detection(box=box, probs=probs, confidence=conf)


def record(image_id, *dets):
    return ImageRecord(image_id, 64.0, 48.0, ((BOX, 0),), tuple(dets))


@pytest.mark.parametrize("loc_set", LOC_SET_KINDS)
@pytest.mark.parametrize("cls_set", CLS_SET_KINDS)
def test_grid_agrees_with_the_public_infer(loc_set, cls_set):
    rng = np.random.default_rng([LOC_SET_KINDS.index(loc_set), CLS_SET_KINDS.index(cls_set), 31])
    for trial in range(40):
        k = int(rng.integers(1, 7))
        images = [shuffled(rng, lattice_sample(rng, f"i{j}", k=k)) for j in range(int(rng.integers(1, 14)))]
        lam_cnf = float(rng.choice([1.0, 0.5, 0.2, rng.uniform()]))
        lam_loc = float(rng.uniform(0.0, 6.0 if loc_set == "additive" else 0.6))
        lam_cls = float(rng.choice([1.0, 0.0, 0.5, rng.uniform()]))
        floor = float(rng.choice([0.0, 1e-3, 0.3, 0.5]))
        result = make_result(lam_cnf, lam_loc, lam_cls, loc_set=loc_set, cls_set=cls_set)
        assert_agrees(images, result, floor, k, (trial, lam_cnf, lam_cls, floor))


def test_tables_of_samples_index_the_sorted_detections():
    # A table of samples records each detection's place among its sample's
    # detections, which ``ImageSample`` sorts by descending confidence.
    rng = np.random.default_rng(9)
    samples = [lattice_sample(rng, f"i{j}", k=5) for j in range(30)]
    for cls_set in CLS_SET_KINDS:
        result = make_result(0.6, 2.0, 0.7, cls_set=cls_set)
        got = table_predictions(_SampleTable.from_samples(samples), result)
        assert got == public_predictions(samples, result, 0.0)


class TestEdges:
    def test_empty_lac_sets(self):
        # At lambda_cls = 0 LAC keeps only a class of probability 1.
        images = [record("a", det(0.9), det(0.8, probs=(0.0, 1.0, 0.0)), det(0.7, probs=(0.5, 0.5, 0.0)))]
        want = assert_agrees(images, make_result(1.0, 1.0, 0.0))
        assert [sel[3] for sel in want[0]] == [[], [1], []]

    @pytest.mark.parametrize("lam_cls", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_equal_aps_probabilities(self, lam_cls):
        quarter = (0.25, 0.25, 0.25, 0.25)
        images = [record("a", det(0.9, probs=quarter), det(0.8, probs=(0.2, 0.4, 0.2, 0.2)),
                         det(0.7, probs=(0.0, 0.5, 0.0, 0.5)))]
        assert_agrees(images, make_result(1.0, 0.0, lam_cls, cls_set="aps"))

    def test_aps_at_one_keeps_every_class(self):
        images = [record("a", det(0.9, probs=(1.0, 0.0, 0.0)), det(0.5, probs=(0.0, 0.0, 1.0)))]
        want = assert_agrees(images, make_result(1.0, 1.0, 1.0, cls_set="aps"))
        assert [sel[3] for sel in want[0]] == [[0, 1, 2], [0, 1, 2]]

    def test_equal_confidences_stay_in_file_order(self):
        boxes = [BoundingBox(float(j), 0.0, float(j) + 5.0, 5.0) for j in range(6)]
        images = [record("a", *(det(0.5, box) for box in boxes[:3]), det(0.9, boxes[3]),
                         *(det(0.5, box) for box in boxes[4:]))]
        want = assert_agrees(images, make_result(1.0, 1.0, 0.5))
        assert [sel[0] for sel in want[0]] == [0, 1, 2, 3, 4, 5]
        assert [sel[1] for sel in want[0]] == [box.as_tuple() for box in boxes]

    def test_detections_below_the_prefilter_are_skipped_positions(self):
        images = [record("a", det(0.05), det(0.9), det(0.2), det(0.0), det(0.6))]
        want = assert_agrees(images, make_result(1.0, 1.0, 0.5), floor=0.1)
        assert [sel[0] for sel in want[0]] == [1, 2, 4]
        want = assert_agrees(images, make_result(0.5, 1.0, 0.5), floor=0.1)
        assert [sel[0] for sel in want[0]] == [1, 4]

    def test_images_without_detections_or_selections(self):
        images = [
            ImageRecord("no-detections", 64.0, 48.0, ((BOX, 1),), ()),
            record("no-selection", det(0.1), det(0.2)),
            ImageRecord("empty", 0.0, 0.0, (), ()),
            record("one", det(0.1), det(0.9)),
            record("all-below-the-floor", det(0.01)),
        ]
        want = assert_agrees(images, make_result(0.5, 1.0, 0.5), floor=0.05)
        assert [len(sels) for sels in want] == [0, 0, 0, 1, 0]
        assert assert_agrees(images[:3], make_result(0.5, 1.0, 0.5), k=3) == [[], [], []]

    def test_multiplicative_margin_overflowing_to_inf(self):
        images = [record("wide", det(0.9, BoundingBox(0.0, 0.0, 1e308, 1.0)),
                         det(0.9, BoundingBox(1.0, 1.0, 9.0, 9.0)))]
        want = assert_agrees(images, make_result(1.0, 2.0, 0.5, loc_set="multiplicative"))
        assert want[0][0][2] == (-float("inf"), -2.0, float("inf"), 3.0)


@st.composite
def images_and_results(draw):
    """A few images on a 6-pixel lattice, with detections in any order,
    probabilities that tie (some nudged by an ulp, ``tied_probs``),
    confidences that repeat, and a result."""
    k = draw(st.integers(1, 4))
    coord = st.integers(0, 6).map(float)

    def box():
        left, top = draw(coord), draw(coord)
        return BoundingBox(left, top, left + draw(st.integers(0, 4)), top + draw(st.integers(0, 4)))

    def probs():
        if draw(st.booleans()):
            return draw(tied_probs(k))
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        return tuple(w / sum(weights) for w in weights)

    images = [
        ImageRecord(
            f"i{i}", 64.0, 48.0,
            tuple((box(), draw(st.integers(0, k - 1))) for _ in range(draw(st.integers(0, 2)))),
            tuple(Detection(box(), probs(), draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.7, 1.0])))
                  for _ in range(draw(st.integers(0, 5)))),
        )
        for i in range(draw(st.integers(1, 5)))
    ]
    loc_set = draw(st.sampled_from(LOC_SET_KINDS))
    result = make_result(
        draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
        draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) * (1.0 if loc_set == "additive" else 0.25),
        draw(st.sampled_from([0.0, 0.25, 0.5, 2 / 3, 0.75, 1.0])),
        loc_set=loc_set, cls_set=draw(st.sampled_from(CLS_SET_KINDS)),
    )
    return images, result, draw(st.sampled_from([0.0, 0.05, 0.3])), k


@settings(deadline=None)
@given(images_and_results())
def test_property_agrees_with_the_public_infer(drawn):
    images, result, floor, k = drawn
    assert_agrees(images, result, floor, k)


def public_infer_file(path, result_path, out) -> None:
    """The predictions file that the public ``infer`` gives over the records
    of ``read_dataset_file``, in the command's layout."""
    result = load_result(result_path)
    floor = result.config.prefilter_threshold
    dataset = read_dataset_file(path)
    entries = [
        json.dumps({"image_id": rec.image_id, "selected": [
            {"index": index, "box": list(box), "margined_box": list(margined), "class_set": classes}
            for index, box, margined, classes in sels
        ]})
        for rec, sels in zip(dataset.images, public_predictions(dataset.images, result, floor))
    ]
    head = _output(result.config, lambda_cnf_plus=result.lambda_cnf_plus,
                   lambda_loc_plus=result.lambda_loc_plus, lambda_cls_plus=result.lambda_cls_plus,
                   predictions=[])
    dataio._write_lines(out, head, entries)


#: Bytes of record lines per span in the command tests.
SPAN_BYTES = 4096


@pytest.mark.workers
class TestInferCommand:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """Two results, and a file of several spans whose records list their
        detections in shuffled order, one of them below the floor. In every
        other span the first record's ``width`` is a JSON integer, which the
        bulk check refuses; it is written at the float's length, so that no
        span boundary moves."""
        root = tmp_path_factory.mktemp("infer")
        rng = random.Random(4)
        records = []
        for sample in generate(SynthSpec(seed=7, n_images=60, num_classes=6, false_positive_rate=4.0)):
            rec = raw_record(sample)
            rng.shuffle(rec["detections"])
            rec["detections"].insert(rng.randrange(len(rec["detections"]) + 1),
                                     {"box": [1.0, 1.0, 5.0, 5.0], "confidence": 0.0005,
                                      "probs": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]})
            records.append(json.dumps(rec))
        path = root / "test.json"
        head = {"schema_version": 1, "num_classes": 6, "class_names": [], "images": []}
        dataio._write_lines(path, head, records)
        for start, _ in record_spans(path, SPAN_BYTES)[1::2]:
            records[start] = records[start].replace('"width": 64.0', '"width": 64  ', 1)
        dataio._write_lines(path, head, records)
        results = []
        for loc_set, cls_set in (("multiplicative", "aps"), ("additive", "lac")):
            result = make_result(0.6, 0.3 if loc_set == "multiplicative" else 3.0, 0.8,
                                 loc_set=loc_set, cls_set=cls_set)
            results.append(root / f"result-{cls_set}.json")
            save_result(result, results[-1])
        return path, results

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_mixed_spans_write_the_public_infer_bytes(self, files, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", SPAN_BYTES)
        monkeypatch.setattr(_workers, "_available_cpus", lambda: cpus)
        path, results = files
        # The spans alternate between passing and failing the bulk check.
        raws = json.loads(path.read_text())["images"]
        spans = record_spans(path, SPAN_BYTES)
        bulk = [dataio._span_table(raws[start:stop], 6, 1e-3) is not None for start, stop in spans]
        assert len(bulk) >= 5 and all(bulk[::2]) and not any(bulk[1::2])
        for result_path in results:
            out, want = tmp_path / "preds.json", tmp_path / "want.json"
            argv = ["infer", "--result", str(result_path), "--dataset", str(path), "--out", str(out)]
            assert main(argv) == 0
            public_infer_file(path, result_path, want)
            assert out.read_bytes() == want.read_bytes()
        assert multiprocessing.active_children() == []

    def test_a_wrapped_file_writes_the_same_bytes(self, files, tmp_path, monkeypatch):
        # A file in another layout is loaded whole and split by probability cells.
        monkeypatch.setattr(dataio, "_CHUNK_CELLS", 256)
        path, results = files
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        out, want = tmp_path / "preds.json", tmp_path / "want.json"
        assert main(["infer", "--result", str(results[0]), "--dataset", str(wrapped), "--out", str(out)]) == 0
        public_infer_file(path, results[0], want)
        assert out.read_bytes() == want.read_bytes()
