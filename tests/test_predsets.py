import math

import numpy as np
import pytest

from condet import (
    BoundingBox,
    Detection,
    ImageSample,
    cls_set_aps,
    cls_set_lac,
    contains,
    hausdorff_distance,
    loc_set_additive,
    loc_set_multiplicative,
    select_confident,
)
from condet.predsets import (
    PredSetSpec,
    apply_margin,
    class_miss_cutoff,
    margin_to_cover,
)
from helpers import random_float_box, random_int_box, random_probs


def sample_with_confidences(confs):
    dets = tuple(
        Detection(BoundingBox(0, 0, 1, 1), (1.0,), confidence=c) for c in confs
    )
    return ImageSample("t", (), dets)


class TestSelectConfident:
    def test_lambda_one_selects_all(self):
        sample = sample_with_confidences((0.9, 0.5, 0.01))
        assert select_confident(sample, 1.0) == [0, 1, 2]

    def test_threshold_half(self):
        sample = sample_with_confidences((0.9, 0.6, 0.4))
        assert select_confident(sample, 0.5) == [0, 1]

    def test_boundary_inclusive(self):
        # A detection sitting exactly at the threshold stays selected (the
        # comparison is non-strict), and it drops out just below.
        sample = sample_with_confidences((0.9, 0.6))
        assert select_confident(sample, 0.4) == [0, 1]
        assert select_confident(sample, 0.39) == [0]
        assert select_confident(sample, 1.0 - 0.6) == [0, 1]

    def test_nested_in_lambda(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            confs = rng.uniform(0.01, 0.999, int(rng.integers(0, 8)))
            sample = sample_with_confidences(tuple(float(c) for c in confs))
            lo, hi = sorted(rng.uniform(0, 1, 2))
            assert set(select_confident(sample, lo)) <= set(select_confident(sample, hi))


class TestAdditiveMargin:
    def test_zero_margin_identity(self):
        b = BoundingBox(1, 2, 3, 4)
        assert loc_set_additive(b, 0.0) == b

    def test_hand_value(self):
        assert loc_set_additive(BoundingBox(10, 10, 20, 20), 5.0) == BoundingBox(5, 5, 25, 25)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            loc_set_additive(BoundingBox(0, 0, 1, 1), -0.1)

    def test_duality_with_hausdorff(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            gt = random_int_box(rng)
            pred = random_int_box(rng)
            m = hausdorff_distance(gt, pred)
            if m >= 0:
                assert contains(loc_set_additive(pred, m), gt)

    def test_tight_at_the_distance(self):
        # Exactly at the distance the expanded box contains the ground truth;
        # a hair below it does not (unless the distance is negative).
        rng = np.random.default_rng(2)
        for _ in range(500):
            gt = random_int_box(rng)
            pred = random_int_box(rng)
            m = hausdorff_distance(gt, pred)
            if m > 0:
                assert contains(loc_set_additive(pred, m), gt)
                assert not contains(loc_set_additive(pred, m - 1e-9), gt)


class TestMultiplicativeMargin:
    def test_zero_margin_identity(self):
        b = BoundingBox(0, 0, 10, 20)
        assert loc_set_multiplicative(b, 0.0) == b

    def test_hand_value(self):
        got = loc_set_multiplicative(BoundingBox(0, 0, 10, 20), 0.5)
        assert got == BoundingBox(-5, -10, 15, 30)

    def test_lambda_one_triples_each_dimension(self):
        got = loc_set_multiplicative(BoundingBox(0, 0, 10, 4), 1.0)
        assert got.width == 30.0
        assert got.height == 12.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            loc_set_multiplicative(BoundingBox(0, 0, 1, 1), -1.0)


class TestLocNestedness:
    def test_growing_lambda_nests_boxes(self):
        rng = np.random.default_rng(3)
        for kind in ("additive", "multiplicative"):
            for _ in range(200):
                box = random_float_box(rng)
                lo, hi = sorted(rng.uniform(0, 5, 2))
                assert contains(apply_margin(box, hi, kind), apply_margin(box, lo, kind))


class TestLacSet:
    def test_lambda_one_is_everything(self):
        assert cls_set_lac((0.7, 0.2, 0.1), 1.0) == {0, 1, 2}

    def test_hand_values(self):
        assert cls_set_lac((0.7, 0.2, 0.1), 0.35) == {0}
        assert cls_set_lac((0.7, 0.2, 0.1), 0.85) == {0, 1}

    def test_contains_argmax_when_threshold_reaches_it(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            probs = random_probs(rng, int(rng.integers(2, 8)))
            top = max(range(len(probs)), key=probs.__getitem__)
            lam = 1.0 - probs[top]
            assert top in cls_set_lac(probs, lam)


class TestApsSet:
    def test_lambda_zero_singleton_argmax(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            probs = random_probs(rng, 5)
            top = max(range(5), key=probs.__getitem__)
            assert cls_set_aps(probs, 0.0) == {top}

    def test_hand_value(self):
        assert cls_set_aps((0.5, 0.3, 0.2), 0.6) == {0, 1}

    def test_lambda_one_full_set_by_convention(self):
        assert cls_set_aps((0.5, 0.3, 0.2), 1.0) == {0, 1, 2}

    def test_tie_broken_by_ascending_index(self):
        assert cls_set_aps((0.4, 0.4, 0.2), 0.0) == {0}

    def test_always_contains_argmax(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            probs = random_probs(rng, 6)
            top = max(range(6), key=probs.__getitem__)
            assert top in cls_set_aps(probs, float(rng.uniform(0, 1)))


class TestClassSetNestedness:
    def test_nested_in_lambda(self):
        rng = np.random.default_rng(7)
        for kind, builder in (("lac", cls_set_lac), ("aps", cls_set_aps)):
            for _ in range(300):
                probs = random_probs(rng, int(rng.integers(2, 9)))
                lo, hi = sorted(rng.uniform(0, 1, 2))
                assert builder(probs, lo) <= builder(probs, hi), kind


class TestThresholdDuals:
    """The sweep engine replaces set membership by threshold comparisons;
    the two routes must agree everywhere."""

    def test_margin_to_cover_matches_contains(self):
        rng = np.random.default_rng(8)
        for kind in ("additive", "multiplicative"):
            for _ in range(500):
                gt = random_int_box(rng, 40)
                pred = random_int_box(rng, 40)
                need = margin_to_cover(gt, pred, kind)
                for lam in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 33.0):
                    covered = contains(apply_margin(pred, lam, kind), gt)
                    assert covered == (lam >= need)

    def test_margin_to_cover_unreachable_degenerate_side(self):
        pred = BoundingBox(5, 0, 5, 10)  # zero width
        gt = BoundingBox(0, 0, 10, 10)
        assert margin_to_cover(gt, pred, "multiplicative") == math.inf

    def test_class_miss_cutoff_matches_membership(self):
        rng = np.random.default_rng(9)
        # the last vector's first three entries sum to just above 1 in
        # floats, ahead of its zero-probability class
        cases = [(random_probs(rng, k), int(rng.integers(k))) for k in rng.integers(2, 9, 500)]
        cases.append(((0.23162515822591342, 0.49813085771302895, 0.27024398406105776, 0.0), 3))
        for kind in ("lac", "aps"):
            for probs, label in cases:
                cutoff = class_miss_cutoff(probs, label, kind)
                for lam in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.9999, 1.0):
                    member = label in (
                        cls_set_lac(probs, lam) if kind == "lac" else cls_set_aps(probs, lam)
                    )
                    assert member == (lam >= cutoff), (kind, lam, cutoff, probs, label)

    def test_predset_spec_validation(self):
        with pytest.raises(ValueError):
            PredSetSpec(localization_kind="affine")
        with pytest.raises(ValueError):
            PredSetSpec(classification_kind="raps")
