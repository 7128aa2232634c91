"""Per-image calibration losses for the confidence, localization and
classification tasks, plus the aggregation strategies for object-level
classification misses.

All losses are pure functions of one image sample, the relevant parameters
and a precomputed matching, and take values in [0, 1]. Two edge rules apply
uniformly: an image without ground-truth objects contributes loss 0, and an
image with ground truths but no selected predictions contributes the maximal
loss 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import BoundingBox, area, contains, intersect
from .matching import MatchingAssignment

__all__ = [
    "CONF_LOSS_KINDS",
    "LOC_LOSS_KINDS",
    "AGGREGATION_KINDS",
    "Detection",
    "ImageSample",
    "LossSpec",
    "conf_loss",
    "loc_loss",
    "cls_loss",
    "aggregate",
]

CONF_LOSS_KINDS = ("box_count_threshold", "box_count_recall")
LOC_LOSS_KINDS = ("thresholded", "boxwise", "pixelwise")
AGGREGATION_KINDS = ("average", "max", "thresholded")


def _check_box(box: BoundingBox, where: str = "") -> None:
    """The box rule: raise ``ValueError``, its message prefixed with
    ``where``, unless every coordinate of ``box`` is finite, ``left <= right``
    and ``top <= bottom``."""
    # A NaN fails every comparison, and each chain bounds both its
    # coordinates, an integer beyond the float range too.
    big = sys.float_info.max
    if not (-big <= box.left <= box.right <= big and -big <= box.top <= box.bottom <= big):
        if not all(-big <= v <= big for v in box.as_tuple()):
            raise ValueError(f"{where}box coordinates must be finite")
        raise ValueError(f"{where}box corners out of order (left<=right, top<=bottom required)")


def _sum_near_one(total, k: int):
    """Whether ``total``, a float sum in any order of ``k`` non-negative
    entries, or each of an array of such sums, proves that the exact sum of
    the entries lies within 1e-4 of 1.

    The float sum of ``k`` non-negative floats, in any order, lies within
    ``k * 2**-52`` of the exact sum, relative to it: inside the tolerance by
    more than that, it decides the check as the exact sum would. A sum that
    fails may still be near enough once summed exactly.
    """
    return abs(total - 1.0) <= 1e-4 - k * 1e-15


def _check_probs(probs: Sequence[float], name: str) -> None:
    """The probability rule: raise ``ValueError`` unless ``probs`` (the
    vector called ``name``) is non-empty, its entries are finite and
    non-negative, and they sum to 1 within 1e-4."""
    if not probs:
        raise ValueError(f"{name} must not be empty")
    # min() compares each entry with the running minimum, so it finds a NaN
    # only in the first entry; a NaN elsewhere makes the sums NaN below.
    if not min(probs) >= 0.0:
        raise ValueError(f"{name} must be non-negative")
    # Only a sum near or past the bound, NaN or infinite is summed exactly.
    try:
        near = _sum_near_one(sum(probs), len(probs))
    except OverflowError:  # an integer beyond the float range
        near = False
    if not near:
        try:
            total = math.fsum(probs)
        except OverflowError:  # finite entries whose sum exceeds the float range
            total = math.inf
        if not abs(total - 1.0) <= 1e-4:
            if not all(p >= 0.0 for p in probs):
                raise ValueError(f"{name} must be non-negative")
            raise ValueError(f"{name} sum to {total:.6f}, expected 1 within 1e-4")


def _block_holds(boxes: np.ndarray, labels: Sequence[int], confidences: np.ndarray,
                 probs: np.ndarray) -> bool:
    """The validity rule over a block of values at once: whether every row
    of the ``(m, 4)`` float array ``boxes`` obeys the box rule, every entry
    of ``confidences`` lies in [0, 1], every row of the ``(d, k)`` float
    array ``probs`` holds finite, non-negative entries whose sum passes
    ``_sum_near_one``, and every one of the ground-truth ``labels`` is
    exactly an ``int`` in [0, k).

    It accepts nothing that the constructors refuse: objects built from a
    block that passes, with ``Detection._trusted`` and
    ``ImageSample._trusted``, are those the constructors build. It may
    refuse values the constructors accept, such as the label ``2.0``, or a
    label outside [0, k) in an image without detections; the caller then
    builds through the constructors, which name the fault.
    """
    left, top, right, bottom = boxes.T
    # An infinite entry makes its row sum infinite, which fails the bound.
    return bool(
        np.isfinite(boxes).all()
        and (left <= right).all()
        and (top <= bottom).all()
        and ((0.0 <= confidences) & (confidences <= 1.0)).all()
        and (probs >= 0.0).all()
        and _sum_near_one(probs.sum(axis=1), probs.shape[1]).all()
        and {*map(type, labels)} <= {int}
        and (not labels or (min(labels) >= 0 and max(labels) < probs.shape[1]))
    )


def _by_confidence(detections) -> tuple:
    """``detections`` stably sorted by descending confidence."""
    return tuple(sorted(detections, key=lambda d: -d.confidence))


@dataclass(frozen=True)
class Detection:
    """One predicted object: box, class probability vector, confidence score.

    A ``Detection`` is valid once built: its box obeys the box rule (finite
    coordinates, ``left <= right``, ``top <= bottom``), its confidence is a
    number in [0, 1], kept as a float, and ``probs`` is a non-empty tuple of
    finite, non-negative entries summing to 1 within 1e-4. The constructor
    checks them in that order and raises ``ValueError`` for the first that
    fails. Dataset files obey the same rule.
    """

    box: BoundingBox
    probs: tuple[float, ...]
    confidence: float

    def __post_init__(self) -> None:
        _check_box(self.box)
        confidence = self.confidence
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence!r} is not a number in [0, 1]")
        probs = tuple(self.probs)
        object.__setattr__(self, "confidence", float(confidence))
        object.__setattr__(self, "probs", probs)
        _check_probs(probs, "probs")

    @classmethod
    def _trusted(cls, box: BoundingBox, probs: Sequence[float], confidence: float) -> "Detection":
        """``Detection(box, probs, confidence)`` built without checking, for
        values of a block that passed ``_block_holds``."""
        det = object.__new__(cls)
        object.__setattr__(det, "box", box)
        object.__setattr__(det, "probs", tuple(probs))
        object.__setattr__(det, "confidence", float(confidence))
        return det


@dataclass(frozen=True)
class ImageSample:
    """One image's ground-truth objects and its pre-filtered detections.

    Detections are re-sorted by descending confidence at construction, so a
    confidence threshold always selects a prefix.

    A sample is valid once built: every ground-truth box obeys the box rule,
    every label equals an integer and is kept as an ``int``, every
    detection's probability vector has one length ``k``, and, when the image
    has detections, every label lies in [0, k). The constructor raises
    ``ValueError`` naming the image otherwise; the detections checked
    themselves (``Detection``). ``calibrate``, ``evaluate`` and ``infer``
    therefore read only valid samples and check none of this again.
    """

    image_id: str
    ground_truths: tuple[tuple[BoundingBox, int], ...]
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        dets = _by_confidence(self.detections)
        k = len(dets[0].probs) if dets else None
        if any(len(d.probs) != k for d in dets):
            raise ValueError(f"image {self.image_id!r}: probability vectors of different lengths")
        gts = []
        for j, (box, label) in enumerate(self.ground_truths):
            where = f"image {self.image_id!r}: ground truth #{j}: "
            _check_box(box, where)
            try:
                value = int(label)
            except (TypeError, ValueError, OverflowError):  # not a number, NaN, infinite
                value = None
            if value is None or value != label:
                raise ValueError(f"{where}class label {label!r} is not an integer")
            if dets and not 0 <= value < k:
                raise ValueError(f"{where}class label {value} outside [0, {k})")
            gts.append((box, value))
        object.__setattr__(self, "ground_truths", tuple(gts))
        object.__setattr__(self, "detections", dets)

    @classmethod
    def _trusted(cls, image_id: str, ground_truths, detections) -> "ImageSample":
        """``ImageSample(image_id, ground_truths, detections)`` built without
        checking, for values of a block that passed ``_block_holds`` (its
        labels are ``int``s) and detections built from that block."""
        sample = object.__new__(cls)
        object.__setattr__(sample, "image_id", image_id)
        object.__setattr__(sample, "ground_truths", tuple((box, label) for box, label in ground_truths))
        object.__setattr__(sample, "detections", _by_confidence(detections))
        return sample

    @property
    def n_ground_truths(self) -> int:
        return len(self.ground_truths)


@dataclass(frozen=True)
class LossSpec:
    """Loss choices for the three tasks.

    ``localization_tau`` only applies to the thresholded localization loss
    (default 1.0: every box must be covered); ``aggregation_tau`` only to the
    thresholded classification aggregation.
    """

    confidence_kind: str = "box_count_threshold"
    localization_kind: str = "boxwise"
    localization_tau: float = 1.0
    classification_aggregation: str = "average"
    aggregation_tau: float = 0.5

    def __post_init__(self) -> None:
        if self.confidence_kind not in CONF_LOSS_KINDS:
            raise ValueError(f"unknown confidence loss kind {self.confidence_kind!r}")
        if self.localization_kind not in LOC_LOSS_KINDS:
            raise ValueError(f"unknown localization loss kind {self.localization_kind!r}")
        if self.classification_aggregation not in AGGREGATION_KINDS:
            raise ValueError(
                f"unknown classification aggregation {self.classification_aggregation!r}"
            )
        for name in ("localization_tau", "aggregation_tau"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def conf_loss(sample: ImageSample, selected_count: int, kind: str) -> float:
    """Confidence loss given how many detections the threshold kept.

    ``box_count_threshold`` penalizes maximally as soon as fewer predictions
    than ground truths survive; ``box_count_recall`` is its proportional
    relaxation ``(n_gt - selected)+ / n_gt``.
    """
    n_gt = sample.n_ground_truths
    if n_gt == 0:
        return 0.0
    if kind == "box_count_threshold":
        return 0.0 if selected_count >= n_gt else 1.0
    if kind == "box_count_recall":
        return max(0, n_gt - selected_count) / n_gt
    raise ValueError(f"unknown confidence loss kind {kind!r}")


def _covered_fraction(gt_box: BoundingBox, margined: BoundingBox) -> float:
    # Area fraction of the ground truth covered by the margined box; a
    # zero-area ground truth counts as fully covered iff it is contained.
    denom = area(gt_box)
    if denom <= 0.0:
        return 1.0 if contains(margined, gt_box) else 0.0
    return area(intersect(gt_box, margined)) / denom


def loc_loss(
    sample: ImageSample,
    matching: MatchingAssignment,
    margined_boxes: Sequence[BoundingBox],
    kind: str,
    tau: float = 1.0,
) -> float:
    """Localization loss of one image under a fixed matching.

    ``margined_boxes`` must be aligned with the selected prediction list the
    matching refers to. ``boxwise`` is one minus the fraction of ground
    truths fully covered by their matched margined box, ``thresholded`` is
    its hard version at level ``tau``, and ``pixelwise`` replaces full
    coverage by the covered area fraction.
    """
    n_gt = sample.n_ground_truths
    if n_gt == 0:
        return 0.0
    if not margined_boxes:
        return 1.0
    if kind == "pixelwise":
        total = 0.0
        for j, (gt_box, _) in enumerate(sample.ground_truths):
            total += _covered_fraction(gt_box, margined_boxes[matching[j]])
        return 1.0 - total / n_gt
    covered = 0
    for j, (gt_box, _) in enumerate(sample.ground_truths):
        if contains(margined_boxes[matching[j]], gt_box):
            covered += 1
    if kind == "boxwise":
        return 1.0 - covered / n_gt
    if kind == "thresholded":
        return 0.0 if covered / n_gt >= tau else 1.0
    raise ValueError(f"unknown localization loss kind {kind!r}")


def cls_loss(
    sample: ImageSample,
    matching: MatchingAssignment,
    class_sets: Sequence[Optional[set]],
    aggregation: str = "average",
    tau: float = 0.5,
) -> float:
    """Classification loss: aggregated per-object misses of the label sets.

    A ground truth is missed when its class is absent from the label set of
    its matched prediction. ``class_sets`` must be aligned with the selected
    prediction list; entries never referenced by the matching may be None.
    """
    n_gt = sample.n_ground_truths
    if n_gt == 0:
        return 0.0
    if not class_sets:
        return 1.0
    misses = [
        1.0 if label not in class_sets[matching[j]] else 0.0
        for j, (_, label) in enumerate(sample.ground_truths)
    ]
    return aggregate(misses, aggregation, tau)


def aggregate(values: Sequence[float], how: str, tau: float = 0.5) -> float:
    """Aggregate per-object loss values into one image-level value.

    ``average`` is the mean, ``max`` the worst case, and ``thresholded``
    indicates whether the mean exceeds ``tau``.
    """
    if not values:
        return 0.0
    if how == "average":
        return sum(values) / len(values)
    if how == "max":
        return max(values)
    if how == "thresholded":
        return 1.0 if sum(values) / len(values) > tau else 0.0
    raise ValueError(f"unknown aggregation {how!r}")
