"""``evaluate`` against ``oracles.evaluate_oracle``, which scores each image
on its own through the public set-based functions.

Every route into the array scoring is compared: ``evaluate`` (a table of
the selected prefixes), and ``_evaluate_table`` on a table of all the
detections, with one probability vector per detection as ``from_samples``
builds it and with a float64 matrix as ``condet evaluate`` reads it. Every
report field must be equal, NaN to NaN, and of the same type; an error must
be the same type with the same message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    BoundingBox,
    CalibrationConfig,
    CalibrationResult,
    Detection,
    EvaluationReport,
    ImageSample,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    apply_margin,
    area,
    evaluate,
    generate,
)
from condet.calibration import _SampleTable
from condet.inference_metrics import _evaluate_table
from condet.losses import AGGREGATION_KINDS, CONF_LOSS_KINDS, LOC_LOSS_KINDS
from condet.matching import MATCH_KINDS
from condet.predsets import CLS_SET_KINDS, LOC_SET_KINDS
from helpers import random_float_box, random_int_box, random_probs, tied_probs
from oracles import evaluate_oracle, same_report


def make_result(lam_cnf, lam_loc, lam_cls, *, match="hausdorff", loc_set="additive", cls_set="lac",
                loss=LossSpec()) -> CalibrationResult:
    config = CalibrationConfig(
        0.05, 0.2, 0.2,
        loss_spec=loss,
        predset_spec=PredSetSpec(localization_kind=loc_set, classification_kind=cls_set),
        match_spec=MatchDistanceSpec(match),
        lambda_loc_bounds=(0.0, 1000.0),
    )
    return CalibrationResult(lam_cnf, min(lam_cnf, 0.5), lam_loc, lam_cls, config, 10, {})


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ``ValueError`` it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def routes(samples, result) -> dict:
    """The outcome of each route into the array scoring."""
    table = _SampleTable.from_samples(samples)
    k = len(table.probs[0]) if table.probs else 1
    matrix = replace(table, probs=np.array(table.probs, dtype=float).reshape(-1, k))
    return {
        "evaluate": outcome(evaluate, samples, result),
        "vectors": outcome(_evaluate_table, table, result),
        "matrix": outcome(_evaluate_table, matrix, result),
    }


def assert_agrees(samples, result, tag=None):
    """Every route gives the oracle's report, or raises its error; returns it."""
    want = outcome(evaluate_oracle, samples, result)
    for route, got in routes(samples, result).items():
        if isinstance(want, EvaluationReport):
            assert isinstance(got, EvaluationReport) and same_report(got, want), (tag, route, got, want)
        else:
            assert got == want, (tag, route, got, want)
    return want


def lattice_sample(rng, image_id, k=4, max_gts=4, max_dets=7) -> ImageSample:
    """An image on a small integer lattice, so distances tie often, with
    probability vectors that often hold equal entries and confidences that
    often repeat."""
    def probs():
        if rng.random() < 0.5:
            return random_probs(rng, k)
        weights = rng.integers(1, 3, k)
        return tuple(float(w) / float(weights.sum()) for w in weights)

    def box():
        return random_int_box(rng, 12) if rng.random() < 0.7 else random_float_box(rng, 12.0)

    gts = tuple((box(), int(rng.integers(0, k))) for _ in range(int(rng.integers(0, max_gts + 1))))
    dets = tuple(
        Detection(box(), probs(), float(rng.choice([0.2, 0.5, 0.5, 0.8, rng.uniform(0.01, 0.99)])))
        for _ in range(int(rng.integers(0, max_dets + 1)))
    )
    return ImageSample(image_id, gts, dets)


@pytest.mark.parametrize("match", MATCH_KINDS)
@pytest.mark.parametrize("loc_set", LOC_SET_KINDS)
@pytest.mark.parametrize("cls_set", CLS_SET_KINDS)
def test_grid_agrees_with_the_oracle(match, loc_set, cls_set):
    rng = np.random.default_rng([MATCH_KINDS.index(match), LOC_SET_KINDS.index(loc_set),
                                 CLS_SET_KINDS.index(cls_set)])
    for conf_kind, loc_kind, agg in itertools.product(CONF_LOSS_KINDS, LOC_LOSS_KINDS, AGGREGATION_KINDS):
        loss = LossSpec(
            confidence_kind=conf_kind, localization_kind=loc_kind,
            localization_tau=float(rng.choice([0.5, 1.0, rng.uniform()])),
            classification_aggregation=agg, aggregation_tau=float(rng.choice([0.0, 0.5, rng.uniform()])),
        )
        for trial in range(3):
            samples = [lattice_sample(rng, f"i{j}") for j in range(int(rng.integers(1, 14)))]
            lam_cnf = float(rng.choice([1.0, 0.5, rng.uniform()]))
            lam_loc = float(rng.uniform(0.0, 6.0 if loc_set == "additive" else 0.6))
            lam_cls = float(rng.choice([1.0, 0.0, rng.uniform()]))
            result = make_result(lam_cnf, lam_loc, lam_cls, match=match, loc_set=loc_set,
                                 cls_set=cls_set, loss=loss)
            assert_agrees(samples, result, (conf_kind, loc_kind, agg, trial))


def test_generated_splits_agree_with_the_oracle():
    for seed in range(1, 4):
        samples = generate(SynthSpec(seed=seed, n_images=120, num_classes=12, false_positive_rate=6.0))
        for cls_set, loc_set in itertools.product(CLS_SET_KINDS, LOC_SET_KINDS):
            result = make_result(0.7, 4.0 if loc_set == "additive" else 0.2, 0.8, loc_set=loc_set,
                                 cls_set=cls_set, loss=LossSpec(localization_kind="pixelwise"))
            report = assert_agrees(samples, result, (seed, cls_set, loc_set))
            assert 0 < report.n_images_without_selection < report.n_test


def test_long_sums_are_taken_in_sequence():
    # numpy's pairwise sums round differently from a sequential sum from 8
    # terms on: the stretches and the pixelwise coverage of one image with
    # 40 selected boxes and 40 ground truths must be summed in order.
    rng = np.random.default_rng(8)
    dets = tuple(Detection(random_float_box(rng, 50.0), random_probs(rng, 3), 0.9) for _ in range(40))
    gts = tuple((random_float_box(rng, 50.0), 0) for _ in range(40))
    samples = [ImageSample("long", gts, dets)]
    result = make_result(1.0, 0.3, 0.5, loc_set="multiplicative", loss=LossSpec(localization_kind="pixelwise"))
    assert_agrees(samples, result)
    # The case tells the two orders apart.
    stretches = [math.sqrt(area(apply_margin(d.box, 0.3, "multiplicative")) / area(d.box)) for d in dets]
    assert sum(stretches) != float(np.sum(stretches))


BOX = BoundingBox(0.0, 0.0, 10.0, 10.0)


def det(conf, box=BOX, probs=(0.6, 0.3, 0.1)):
    return Detection(box=box, probs=probs, confidence=conf)


class TestEdges:
    @pytest.mark.parametrize("match", MATCH_KINDS)
    def test_images_without_ground_truth_or_selection(self, match):
        samples = [
            ImageSample("no-gt", (), (det(0.9), det(0.8, BoundingBox(2, 2, 6, 6)))),
            ImageSample("no-selection", ((BOX, 0),), (det(0.1),)),
            ImageSample("no-detections", ((BOX, 1), (BOX, 2)), ()),
            ImageSample("empty", (), ()),
            ImageSample("both", ((BOX, 0),), (det(0.9, BoundingBox(1, 1, 9, 9)),)),
        ]
        for loss in (LossSpec(), LossSpec(localization_kind="pixelwise", confidence_kind="box_count_recall")):
            report = assert_agrees(samples, make_result(0.5, 1.0, 0.5, match=match, loss=loss))
            assert report.n_images_without_selection == 3

    def test_nothing_selected_anywhere(self):
        samples = [ImageSample("a", ((BOX, 0),), (det(0.1),)), ImageSample("b", (), ())]
        report = assert_agrees(samples, make_result(0.5, 1.0, 0.5))
        assert report.loc_risk == report.cls_risk == 0.5
        assert np.isnan(report.loc_set_size) and np.isnan(report.cls_set_size)

    def test_zero_area_detection_boxes(self):
        flat = BoundingBox(5.0, 5.0, 5.0, 9.0)
        samples = [
            ImageSample("a", ((BOX, 0),), (det(0.9, flat), det(0.8), det(0.7, BoundingBox(3, 3, 3, 3)))),
            ImageSample("only-flat", ((BOX, 1),), (det(0.9, flat),)),
            ImageSample("no-gt", (), (det(0.9, flat),)),
        ]
        for loc_set in LOC_SET_KINDS:
            report = assert_agrees(samples, make_result(1.0, 2.0, 0.5, loc_set=loc_set))
            assert report.n_zero_area_boxes_skipped == 4

    @pytest.mark.parametrize("match", MATCH_KINDS)
    def test_equal_distances_take_the_lowest_index(self, match):
        # Two selected boxes at the same distance from each ground truth,
        # with different probabilities: the first one must be matched.
        left, right = BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 20, 10)
        gt = BoundingBox(5, 0, 15, 10)
        samples = [ImageSample(
            "tie", ((gt, 0), (gt, 1)),
            (det(0.9, left, (0.5, 0.5, 0.0)), det(0.9, right, (0.0, 0.5, 0.5)),
             det(0.9, left, (0.5, 0.5, 0.0))),
        )]
        for cls_set, lam_cls in itertools.product(CLS_SET_KINDS, (0.0, 0.5, 0.6)):
            assert_agrees(samples, make_result(1.0, 5.0, lam_cls, match=match, cls_set=cls_set))

    @pytest.mark.parametrize("lam_cls", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_equal_aps_probabilities(self, lam_cls):
        quarter = (0.25, 0.25, 0.25, 0.25)
        samples = [ImageSample(f"c{c}", ((BOX, c),), (det(0.9, probs=quarter), det(0.8, probs=(0.4, 0.2, 0.2, 0.2))))
                   for c in range(4)]
        for agg in AGGREGATION_KINDS:
            assert_agrees(samples, make_result(1.0, 0.0, lam_cls, cls_set="aps",
                                               loss=LossSpec(classification_aggregation=agg)))

    def test_aps_at_one_keeps_every_class_and_lambda_cnf_one_every_detection(self):
        rng = np.random.default_rng(4)
        samples = [lattice_sample(rng, f"i{j}", k=6) for j in range(20)]
        samples.append(ImageSample("certain", ((BOX, 0),), (det(1.0, probs=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
                                                             det(0.0, probs=(0.0,) * 5 + (1.0,)))))
        report = assert_agrees(samples, make_result(1.0, 1.0, 1.0, cls_set="aps"))
        assert report.cls_set_size == 6.0
        assert report.cnf_set_size == sum(len(s.detections) for s in samples) / len(samples)

    @pytest.mark.parametrize("loc_kind", LOC_LOSS_KINDS)
    def test_multiplicative_margin_overflowing_to_inf(self, loc_kind):
        wide = BoundingBox(0.0, 0.0, 1e308, 1.0)
        samples = [
            ImageSample("wide", ((BoundingBox(5, 0, 50, 1), 0),), (det(0.9, wide),)),
            ImageSample("small", ((BOX, 0),), (det(0.9, BoundingBox(1, 1, 9, 9)),)),
        ]
        report = assert_agrees(samples, make_result(1.0, 2.0, 0.5, loc_set="multiplicative",
                                                    loss=LossSpec(localization_kind=loc_kind)))
        assert report.loc_set_size == float("inf")

    @pytest.mark.parametrize("kind", ["mix", "giou"])
    def test_nan_distances_never_take_a_match(self, kind):
        # mix at tau = 1 weights an infinite Hausdorff distance by 0, and
        # GIoU divides inf by inf: NaN, which match() never moves to.
        if kind == "mix":
            gt, odd = BoundingBox(-1e308, 0.0, 10.0, 10.0), BoundingBox(1e308, 0.0, 1e308, 10.0)
        else:
            gt, odd = BOX, BoundingBox(-1e308, -1e308, 1e308, 1e308)
        dets = (det(0.9, BoundingBox(20, 20, 30, 30), (0.6, 0.4, 0.0)), det(0.8, odd, (0.5, 0.5, 0.0)),
                det(0.7, BOX, (0.1, 0.9, 0.0)))
        samples = [ImageSample("a", ((gt, 1),), dets), ImageSample("b", ((gt, 1),), dets[1:])]
        result = make_result(1.0, 1.0, 0.5)
        result = replace(result, config=replace(result.config, match_spec=MatchDistanceSpec(kind, tau=1.0)))
        assert assert_agrees(samples, result).cls_risk == 0.0

    def test_giou_refuses_zero_area_boxes_it_would_match(self):
        flat = BoundingBox(5.0, 5.0, 5.0, 9.0)
        error = (ValueError, "giou_distance requires boxes with positive area")
        fine = ImageSample("fine", ((BOX, 0),), (det(0.9),))
        refused = {
            "flat ground truth": ImageSample("g", ((flat, 0),), (det(0.9),)),
            "flat selected detection": ImageSample("d", ((BOX, 0),), (det(0.9), det(0.8, flat))),
        }
        accepted = {
            "flat detection not selected": ImageSample("d", ((BOX, 0),), (det(0.9), det(0.1, flat))),
            "flat ground truth without selection": ImageSample("g", ((flat, 0),), (det(0.1),)),
            "flat ground truth without detections": ImageSample("g", ((flat, 0),), ()),
            "flat detection without ground truths": ImageSample("d", (), (det(0.9, flat),)),
        }
        result = make_result(0.5, 1.0, 0.5, match="giou")
        for name, sample in refused.items():
            assert assert_agrees([fine, sample], result, name) == error
        for name, sample in accepted.items():
            assert isinstance(assert_agrees([fine, sample], result, name), EvaluationReport), name


@st.composite
def splits(draw):
    """A small test split on a 6-pixel lattice, with probabilities that
    tie (some nudged by an ulp, ``tied_probs``), and its result."""
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

    samples = [
        ImageSample(
            f"i{i}",
            tuple((box(), draw(st.integers(0, k - 1))) for _ in range(draw(st.integers(0, 3)))),
            tuple(Detection(box(), probs(), draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])))
                  for _ in range(draw(st.integers(0, 4)))),
        )
        for i in range(draw(st.integers(1, 5)))
    ]
    loss = LossSpec(
        confidence_kind=draw(st.sampled_from(CONF_LOSS_KINDS)),
        localization_kind=draw(st.sampled_from(LOC_LOSS_KINDS)),
        localization_tau=draw(st.sampled_from([0.0, 0.5, 1.0])),
        classification_aggregation=draw(st.sampled_from(AGGREGATION_KINDS)),
        aggregation_tau=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    result = make_result(
        draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
        draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
        match=draw(st.sampled_from(MATCH_KINDS)),
        loc_set=draw(st.sampled_from(LOC_SET_KINDS)),
        cls_set=draw(st.sampled_from(CLS_SET_KINDS)),
        loss=loss,
    )
    return samples, result


@settings(deadline=None)
@given(splits())
def test_every_split_agrees_with_the_oracle(split):
    samples, result = split
    assert_agrees(samples, result)
