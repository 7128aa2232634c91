import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condet import (
    BoundingBox,
    Detection,
    ImageSample,
    LossSpec,
    MatchDistanceSpec,
    aggregate,
    cls_loss,
    conf_loss,
    loc_loss,
    match,
)
from condet.losses import _sum_near_one
from condet.predsets import apply_margin, build_class_set, select_confident
from helpers import random_sample


def make_sample(n_gt, dets=(), gt_box=BoundingBox(0, 0, 10, 10)):
    gts = tuple((gt_box, 0) for _ in range(n_gt))
    return ImageSample("t", gts, tuple(dets))


class TestConfLoss:
    def test_threshold_exact_count_ok(self):
        assert conf_loss(make_sample(4), 4, "box_count_threshold") == 0.0

    def test_threshold_below_count(self):
        assert conf_loss(make_sample(4), 3, "box_count_threshold") == 1.0

    def test_recall_partial(self):
        assert conf_loss(make_sample(4), 1, "box_count_recall") == 0.75

    def test_empty_ground_truth_is_zero(self):
        for kind in ("box_count_threshold", "box_count_recall"):
            assert conf_loss(make_sample(0), 0, kind) == 0.0

    def test_recall_below_threshold_pointwise(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_gt = int(rng.integers(0, 8))
            sel = int(rng.integers(0, 8))
            s = make_sample(n_gt)
            assert conf_loss(s, sel, "box_count_recall") <= conf_loss(
                s, sel, "box_count_threshold"
            )


class TestLocLoss:
    def test_full_coverage_zero_for_all_kinds(self):
        sample = make_sample(2)
        matching = (0, 0)
        margined = [BoundingBox(-1, -1, 11, 11)]
        for kind in ("thresholded", "boxwise", "pixelwise"):
            assert loc_loss(sample, matching, margined, kind) == 0.0

    def test_half_covered_boxwise_and_pixelwise(self):
        # gt1 fully covered; gt2 not contained (boxwise miss) but overlapped 40%.
        gt1 = BoundingBox(0, 0, 10, 10)
        gt2 = BoundingBox(20, 0, 30, 10)
        sample = ImageSample("t", ((gt1, 0), (gt2, 0)), ())
        margined = [BoundingBox(0, 0, 10, 10), BoundingBox(26, 0, 40, 10)]
        matching = (0, 1)
        assert loc_loss(sample, matching, margined, "boxwise") == 0.5
        # covered fractions 1.0 and 0.4 -> 1 - 1.4/2 = 0.3
        assert loc_loss(sample, matching, margined, "pixelwise") == pytest.approx(0.3)

    def test_empty_selection_with_ground_truths(self):
        sample = make_sample(3)
        for kind in ("thresholded", "boxwise", "pixelwise"):
            assert loc_loss(sample, (None, None, None), [], kind) == 1.0

    def test_empty_ground_truth(self):
        sample = make_sample(0)
        for kind in ("thresholded", "boxwise", "pixelwise"):
            assert loc_loss(sample, (), [], kind) == 0.0

    def test_thresholded_tau(self):
        gt1 = BoundingBox(0, 0, 10, 10)
        gt2 = BoundingBox(20, 0, 30, 10)
        sample = ImageSample("t", ((gt1, 0), (gt2, 0)), ())
        margined = [BoundingBox(0, 0, 10, 10), BoundingBox(50, 50, 60, 60)]
        matching = (0, 1)
        assert loc_loss(sample, matching, margined, "thresholded", tau=0.5) == 0.0
        assert loc_loss(sample, matching, margined, "thresholded", tau=0.75) == 1.0

    def test_non_increasing_in_margin(self):
        rng = np.random.default_rng(1)
        spec = MatchDistanceSpec("hausdorff")
        for _ in range(100):
            sample = random_sample(rng, min_dets=1)
            if sample.n_ground_truths == 0 or not sample.detections:
                continue
            preds = [(d.box, d.probs) for d in sample.detections]
            matching = match(sample.ground_truths, preds, spec)
            for kind in ("thresholded", "boxwise", "pixelwise"):
                prev = None
                for lam in (0.0, 1.0, 5.0, 20.0, 100.0, 400.0):
                    margined = [apply_margin(b, lam, "additive") for b, _ in preds]
                    value = loc_loss(sample, matching, margined, kind)
                    if prev is not None:
                        assert value <= prev + 1e-12
                    prev = value

    def test_pixelwise_below_boxwise(self):
        rng = np.random.default_rng(2)
        spec = MatchDistanceSpec("hausdorff")
        for _ in range(200):
            sample = random_sample(rng, min_dets=1)
            if not sample.detections:
                continue
            preds = [(d.box, d.probs) for d in sample.detections]
            matching = match(sample.ground_truths, preds, spec)
            lam = float(rng.uniform(0, 30))
            margined = [apply_margin(b, lam, "additive") for b, _ in preds]
            assert loc_loss(sample, matching, margined, "pixelwise") <= loc_loss(
                sample, matching, margined, "boxwise"
            ) + 1e-12


class TestClsLoss:
    def test_all_contained(self):
        sample = ImageSample("t", ((BoundingBox(0, 0, 1, 1), 2),), ())
        assert cls_loss(sample, (0,), [{1, 2}], "average") == 0.0

    def test_one_miss_of_four(self):
        gts = tuple((BoundingBox(0, 0, 1, 1), c) for c in (0, 0, 0, 1))
        sample = ImageSample("t", gts, ())
        sets = [{0}]
        matching = (0, 0, 0, 0)
        assert cls_loss(sample, matching, sets, "average") == 0.25
        assert cls_loss(sample, matching, sets, "max") == 1.0

    def test_empty_selection(self):
        sample = ImageSample("t", ((BoundingBox(0, 0, 1, 1), 0),) * 2, ())
        assert cls_loss(sample, (None, None), [], "average") == 1.0

    def test_empty_ground_truth(self):
        assert cls_loss(make_sample(0), (), [], "average") == 0.0

    def test_non_increasing_in_lambda_cls(self):
        rng = np.random.default_rng(3)
        spec = MatchDistanceSpec("hausdorff")
        for set_kind in ("lac", "aps"):
            for _ in range(100):
                sample = random_sample(rng, min_dets=1)
                if not sample.detections:
                    continue
                preds = [(d.box, d.probs) for d in sample.detections]
                matching = match(sample.ground_truths, preds, spec)
                prev = None
                for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
                    sets = [build_class_set(p, lam, set_kind) for _, p in preds]
                    value = cls_loss(sample, matching, sets, "average")
                    if prev is not None:
                        assert value <= prev + 1e-12
                    prev = value


class TestAggregate:
    def test_average(self):
        assert aggregate([1.0, 0.0, 0.0, 0.0], "average") == 0.25

    def test_max(self):
        assert aggregate([0.0, 1.0], "max") == 1.0

    def test_thresholded(self):
        assert aggregate([1.0, 0.0], "thresholded", tau=0.6) == 0.0
        assert aggregate([1.0, 1.0, 0.0], "thresholded", tau=0.6) == 1.0

    def test_empty(self):
        assert aggregate([], "average") == 0.0


class TestFuzzRange:
    def test_all_losses_within_unit_interval(self):
        rng = np.random.default_rng(4)
        spec = MatchDistanceSpec("mix", tau=0.25)
        loss_spec = LossSpec()
        for _ in range(300):
            sample = random_sample(rng)
            lam_cnf = float(rng.uniform(0, 1))
            sel = select_confident(sample, lam_cnf)
            preds = [(sample.detections[k].box, sample.detections[k].probs) for k in sel]
            matching = match(sample.ground_truths, preds, spec)
            margined = [apply_margin(b, float(rng.uniform(0, 50)), "additive") for b, _ in preds]
            sets = [build_class_set(p, float(rng.uniform(0, 1)), "aps") for _, p in preds]
            for kind in ("box_count_threshold", "box_count_recall"):
                assert 0.0 <= conf_loss(sample, len(sel), kind) <= 1.0
            for kind in ("thresholded", "boxwise", "pixelwise"):
                assert 0.0 <= loc_loss(sample, matching, margined, kind) <= 1.0
            for agg in ("average", "max", "thresholded"):
                assert 0.0 <= cls_loss(sample, matching, sets, agg) <= 1.0


class TestSampleInvariants:
    def test_detections_sorted_descending(self):
        rng = np.random.default_rng(5)
        sample = random_sample(rng, min_dets=5)
        confs = [d.confidence for d in sample.detections]
        assert confs == sorted(confs, reverse=True)

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            Detection(BoundingBox(0, 0, 1, 1), (1.0,), confidence=1.5)

    @pytest.mark.parametrize(
        "box, probs, message",
        [
            # Each passed construction before and reached the in-memory
            # entry points: ``evaluate`` scored (nan, 0.7) with risk 0.0 and
            # ``infer`` gave it the LAC set {1}; an infinite coordinate gave
            # ``loc_set_size`` NaN; a reversed box gave ``loc_risk`` 1.0; and
            # ``calibrate`` returned lambda_cls 0.3 on vectors summing to 1.4.
            ((0, 0, 10, 10), (math.nan, 0.7), "probs must be non-negative"),
            ((0, 0, math.inf, 10), (0.3, 0.7), "box coordinates must be finite"),
            ((10, 0, 0, 10), (0.3, 0.7), "box corners out of order (left<=right, top<=bottom required)"),
            ((0, 0, 10, 10), (0.7, 0.7), "probs sum to 1.400000, expected 1 within 1e-4"),
        ],
        ids=["nan-probability", "infinite-coordinate", "reversed-box", "sum-1.4"],
    )
    def test_invalid_detection_cannot_be_built(self, box, probs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Detection(BoundingBox(*box), probs, 0.5)

    @pytest.mark.parametrize(
        "confidence, probs, message",
        [
            (math.nan, (1.0,), "confidence nan is not a number in [0, 1]"),
            (-1e-300, (1.0,), "confidence -1e-300 is not a number in [0, 1]"),
            (0.5, (), "probs must not be empty"),
            (0.5, (0.5, -0.0, 0.5, -5e-324), "probs must be non-negative"),
            (0.5, (1e308, 1e308), "probs sum to inf, expected 1 within 1e-4"),
            # An integer beyond the float range escaped the sum test as a
            # bare OverflowError.
            (0.5, (10**400, 0), "probs sum to inf, expected 1 within 1e-4"),
            (0.5, (0.5, 10**400), "probs sum to inf, expected 1 within 1e-4"),
        ],
    )
    def test_confidence_and_probability_rule(self, confidence, probs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Detection(BoundingBox(0, 0, 1, 1), probs, confidence)

    def test_valid_edge_values_kept(self):
        det = Detection(BoundingBox(-0.0, 0.0, 0.0, 5e-324), [1 - 1e-4, 0.0, -0.0], 1)
        assert det.probs == (1 - 1e-4, 0.0, -0.0)
        assert det.confidence == 1.0 and type(det.confidence) is float

    @pytest.mark.parametrize(
        "gt_box, label, message",
        [
            ((0, 0, math.nan, 5), 0, "image 'a': ground truth #1: box coordinates must be finite"),
            # An integer beyond the float range used to pass until the
            # kernel failed to convert it, with an unnamed OverflowError.
            ((0, 0, 10**400, 5), 0, "image 'a': ground truth #1: box coordinates must be finite"),
            ((0, 5, 5, 0), 0, "image 'a': ground truth #1: box corners out of order"),
            ((0, 0, 5, 5), 3, "image 'a': ground truth #1: class label 3 outside [0, 3)"),
            ((0, 0, 5, 5), -1, "image 'a': ground truth #1: class label -1 outside [0, 3)"),
            # Each was truncated by int(): 1.7 was kept as class 1, -0.5 as
            # class 0 inside [0, 3), "1" as 1, and inf raised a bare
            # OverflowError.
            ((0, 0, 5, 5), 1.7, "image 'a': ground truth #1: class label 1.7 is not an integer"),
            ((0, 0, 5, 5), -0.5, "image 'a': ground truth #1: class label -0.5 is not an integer"),
            ((0, 0, 5, 5), "1", "image 'a': ground truth #1: class label '1' is not an integer"),
            ((0, 0, 5, 5), math.inf, "image 'a': ground truth #1: class label inf is not an integer"),
            ((0, 0, 5, 5), math.nan, "image 'a': ground truth #1: class label nan is not an integer"),
        ],
    )
    def test_invalid_ground_truth_names_the_image(self, gt_box, label, message):
        det = Detection(BoundingBox(0, 0, 5, 5), (0.2, 0.3, 0.5), 0.5)
        gts = ((BoundingBox(0, 0, 5, 5), 0), (BoundingBox(*gt_box), label))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ImageSample("a", gts, (det,))

    def test_labels_unchecked_without_detections(self):
        # With no detection there is no vector for a label to index.
        assert ImageSample("a", ((BoundingBox(0, 0, 5, 5), 7),), ()).ground_truths[0][1] == 7

    @pytest.mark.parametrize("label", [1.7, -0.5, "1", math.inf])
    def test_labels_are_integers_without_detections(self, label):
        message = f"image 'a': ground truth #0: class label {label!r} is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ImageSample("a", ((BoundingBox(0, 0, 5, 5), label),), ())

    @pytest.mark.parametrize("label", [1, 2.0, np.int64(2), np.float64(1.0), -0.0])
    def test_integer_labels_kept_as_int(self, label):
        det = Detection(BoundingBox(0, 0, 5, 5), (0.2, 0.3, 0.5), 0.5)
        for dets in ((det,), ()):
            ((_, kept),) = ImageSample("a", ((BoundingBox(0, 0, 5, 5), label),), dets).ground_truths
            assert kept == label and type(kept) is int

    def test_one_vector_length_per_image(self):
        dets = (Detection(BoundingBox(0, 0, 5, 5), (0.5, 0.5), 0.5),
                Detection(BoundingBox(0, 0, 5, 5), (1.0,), 0.4))
        message = "image 'a': probability vectors of different lengths"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ImageSample("a", (), dets)

    def test_loss_spec_validation(self):
        with pytest.raises(ValueError):
            LossSpec(confidence_kind="nope")
        with pytest.raises(ValueError):
            LossSpec(localization_tau=1.5)

    @pytest.mark.parametrize("tau", [float("nan"), 5.0, -1.0])
    def test_aggregation_tau_validated(self, tau):
        # A NaN tau made the thresholded classification loss identically 0.
        with pytest.raises(ValueError, match="aggregation_tau must lie in"):
            LossSpec(classification_aggregation="thresholded", aggregation_tau=tau)


#: Entries of a probability vector: ordinary floats, subnormals and zeros.
PROB_ENTRIES = st.one_of(
    st.floats(0.0, 1.0), st.floats(0.0, 2.2250738585072014e-308), st.just(0.0)
)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(PROB_ENTRIES, min_size=1, max_size=100),
    side=st.sampled_from([-1.0, 1.0]),
    at_tolerance=st.booleans(),
    ulps=st.integers(-4, 4),
)
# Its plain sum passes ``<= 1e-4`` but its exact sum is an ulp past 1e-4.
@example(weights=[1.0, 0.8125, 0.5437506794213111, 0.0], side=-1.0, at_tolerance=True, ulps=-1)
def test_sum_bound_proves_the_exact_sum(weights, side, at_tolerance, ulps):
    # Entries summing to about 1 +- (1e-4 - k * 1e-15), the shared bound of
    # ``_check_probs`` and the table reader, or to 1 +- 1e-4, a few ulps
    # either side: when the plain or the numpy row sum passes the bound,
    # the exact sum is within 1e-4.
    k = len(weights)
    target = 1.0 + side * (1e-4 if at_tolerance else 1e-4 - k * 1e-15)
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    scale = math.fsum(weights)
    entries = [w / scale * target for w in weights] if scale > 0.0 else [0.0] * (k - 1) + [target]
    entries[-1] = max(0.0, target - math.fsum(entries[:-1]))
    exact_near = abs(math.fsum(entries) - 1.0) <= 1e-4
    assert exact_near or not _sum_near_one(sum(entries), k)
    assert exact_near or not _sum_near_one(np.array([entries]).sum(axis=1), k)[0]
