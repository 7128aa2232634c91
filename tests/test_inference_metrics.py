import itertools
import math

import numpy as np
import pytest

from condet import (
    BoundingBox,
    CalibrationConfig,
    CalibrationResult,
    Detection,
    ImageSample,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    cls_loss,
    conf_loss,
    contains,
    evaluate,
    infer,
    loc_loss,
    match,
)
from condet.losses import AGGREGATION_KINDS, CONF_LOSS_KINDS, LOC_LOSS_KINDS
from condet.matching import MATCH_KINDS
from helpers import random_sample


def make_result(
    lam_cnf=0.5,
    lam_loc=0.0,
    lam_cls=0.0,
    predset=PredSetSpec(),
    loss=LossSpec(),
    lam_minus=None,
    match_spec=MatchDistanceSpec("hausdorff"),
):
    config = CalibrationConfig(
        alpha_cnf=0.05,
        alpha_loc=0.2,
        alpha_cls=0.2,
        loss_spec=loss,
        predset_spec=predset,
        match_spec=match_spec,
        lambda_loc_bounds=(0.0, 500.0),
    )
    return CalibrationResult(
        lambda_cnf_plus=lam_cnf,
        lambda_cnf_minus=lam_minus if lam_minus is not None else lam_cnf,
        lambda_loc_plus=lam_loc,
        lambda_cls_plus=lam_cls,
        config=config,
        n_calibration=10,
        diagnostics={},
    )


def det(conf, box=BoundingBox(0, 0, 10, 10), probs=(0.6, 0.3, 0.1)):
    return Detection(box=box, probs=probs, confidence=conf)


class TestInfer:
    def test_empty_detections(self):
        pred = infer([], make_result(), image_id="x")
        assert pred.image_id == "x"
        assert pred.selected == ()

    def test_identity_parameters(self):
        result = make_result(
            lam_cnf=1.0, lam_loc=0.0, lam_cls=0.0,
            predset=PredSetSpec(classification_kind="aps"),
        )
        pred = infer([det(0.7)], result)
        sel = pred.selected[0]
        assert sel.margined_box == sel.box
        assert sel.class_labels == frozenset({0})  # argmax singleton under APS

    def test_threshold_selects_prefix(self):
        result = make_result(lam_cnf=0.6, lam_loc=2.0, lam_cls=0.5)
        pred = infer([det(0.9), det(0.5), det(0.2)], result)
        assert [s.index for s in pred.selected] == [0, 1]
        for sel in pred.selected:
            assert contains(sel.margined_box, sel.box)
            assert sel.class_labels

    def test_lambdas_echoed(self):
        result = make_result(lam_cnf=0.4, lam_loc=3.0, lam_cls=0.25)
        pred = infer([det(0.9)], result)
        assert (pred.lambda_cnf, pred.lambda_loc, pred.lambda_cls) == (0.4, 3.0, 0.25)


class TestEvaluate:
    def test_zero_margin_unit_stretch(self):
        gt = BoundingBox(0, 0, 10, 10)
        samples = [ImageSample("a", ((gt, 0),), (det(0.9, box=gt),))]
        report = evaluate(samples, make_result(lam_cnf=1.0, lam_loc=0.0))
        assert report.loc_set_size == 1.0

    def test_quadrupled_area_stretch_two(self):
        # margin 5 turns a 10x10 box into 20x20: area ratio 4, stretch 2
        gt = BoundingBox(0, 0, 10, 10)
        boxes = (det(0.9, box=gt), det(0.8, box=BoundingBox(20, 20, 30, 30)))
        samples = [ImageSample("a", ((gt, 0),), boxes)]
        report = evaluate(samples, make_result(lam_cnf=1.0, lam_loc=5.0))
        assert report.loc_set_size == pytest.approx(2.0)

    def test_all_correct_zero_global_risk(self):
        gt = BoundingBox(0, 0, 10, 10)
        samples = [
            ImageSample(f"i{j}", ((gt, 0),), (det(0.9, box=gt, probs=(1.0, 0.0, 0.0)),))
            for j in range(4)
        ]
        report = evaluate(samples, make_result(lam_cnf=1.0, lam_loc=1.0, lam_cls=0.5))
        assert report.global_risk == 0.0
        assert report.cnf_risk == 0.0

    def test_binary_risk_equals_one_minus_coverage(self):
        # two images covered, two missed under the boxwise loss
        covered_gt = BoundingBox(0, 0, 10, 10)
        missed_gt = BoundingBox(50, 50, 90, 90)
        samples = []
        for j in range(2):
            samples.append(
                ImageSample(f"c{j}", ((covered_gt, 0),), (det(0.9, box=covered_gt),))
            )
            samples.append(
                ImageSample(f"m{j}", ((missed_gt, 0),), (det(0.9, box=covered_gt),))
            )
        report = evaluate(samples, make_result(lam_cnf=1.0, lam_loc=0.0))
        assert report.loc_risk == 0.5

    def test_empty_selection_counted_in_risks_not_sizes(self):
        gt = BoundingBox(0, 0, 10, 10)
        samples = [
            ImageSample("none", ((gt, 0),), (det(0.05, box=gt),)),
            ImageSample("some", ((gt, 0),), (det(0.9, box=gt),)),
        ]
        report = evaluate(samples, make_result(lam_cnf=0.5, lam_loc=0.0))
        assert report.n_images_without_selection == 1
        assert report.loc_risk == 0.5  # edge rule charges the empty image fully
        assert report.loc_set_size == 1.0  # averaged over the non-empty image only
        assert report.cnf_set_size == 0.5

    def test_zero_area_boxes_skipped_in_stretch(self):
        gt = BoundingBox(0, 0, 10, 10)
        degenerate = Detection(BoundingBox(5, 5, 5, 5), (1.0, 0.0, 0.0), 0.9)
        samples = [ImageSample("z", ((gt, 0),), (degenerate, det(0.8, box=gt)))]
        report = evaluate(samples, make_result(lam_cnf=1.0, lam_loc=2.0))
        assert report.n_zero_area_boxes_skipped == 1
        assert not math.isnan(report.loc_set_size)

    def test_global_risk_between_max_and_sum(self):
        rng = np.random.default_rng(0)
        samples = [random_sample(rng, image_id=f"r{j}") for j in range(40)]
        report = evaluate(samples, make_result(lam_cnf=0.8, lam_loc=4.0, lam_cls=0.6))
        assert report.global_risk >= max(report.loc_risk, report.cls_risk) - 1e-12
        assert report.global_risk <= report.loc_risk + report.cls_risk + 1e-12

    def test_invariant_to_image_ordering(self):
        rng = np.random.default_rng(1)
        samples = [random_sample(rng, image_id=f"r{j}") for j in range(25)]
        result = make_result(lam_cnf=0.7, lam_loc=3.0, lam_cls=0.4)
        report = evaluate(samples, result)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert evaluate(shuffled, result) == report

    def test_empty_test_set(self):
        with pytest.raises(ValueError):
            evaluate([], make_result())


@pytest.mark.parametrize("loc_set", ["additive", "multiplicative"])
@pytest.mark.parametrize("cls_set", ["lac", "aps"])
def test_evaluate_scores_the_sets_infer_emits(loc_set, cls_set):
    rng = np.random.default_rng(17)
    loss_kinds = itertools.product(CONF_LOSS_KINDS, LOC_LOSS_KINDS, AGGREGATION_KINDS)
    for index, (conf_kind, loc_kind, agg) in enumerate(loss_kinds):
        spec = LossSpec(
            confidence_kind=conf_kind, localization_kind=loc_kind, classification_aggregation=agg
        )
        lam_cnf, lam_loc, lam_cls = (float(v) for v in rng.uniform(0.0, 1.0, 3))
        result = make_result(
            lam_cnf=lam_cnf,
            lam_loc=lam_loc * (20.0 if loc_set == "additive" else 1.0),
            lam_cls=lam_cls,
            predset=PredSetSpec(localization_kind=loc_set, classification_kind=cls_set),
            loss=spec,
            match_spec=MatchDistanceSpec(MATCH_KINDS[index % len(MATCH_KINDS)]),
        )
        samples = [random_sample(rng, image_id=f"r{j}") for j in range(12)]
        losses = []
        for sample in samples:
            selected = infer(sample.detections, result).selected
            preds = [(sel.box, sample.detections[sel.index].probs) for sel in selected]
            assignment = match(sample.ground_truths, preds, result.config.match_spec)
            losses.append((
                conf_loss(sample, len(selected), conf_kind),
                loc_loss(sample, assignment, [sel.margined_box for sel in selected],
                         loc_kind, spec.localization_tau),
                cls_loss(sample, assignment, [sel.class_labels for sel in selected],
                         agg, spec.aggregation_tau),
            ))
        cnf, loc, cls = zip(*losses)
        report = evaluate(samples, result)
        n = len(samples)
        assert report.cnf_risk == math.fsum(cnf) / n
        assert report.loc_risk == math.fsum(loc) / n
        assert report.cls_risk == math.fsum(cls) / n
        assert report.global_risk == math.fsum(map(max, loc, cls)) / n
