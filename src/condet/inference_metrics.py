"""Applying calibrated parameters to new images, and test-set metrics.

Inference only uses the conservative parameters: the confidence threshold
selects detections, each selected box is margined, and each selected
probability vector becomes a label set. Evaluation scores exactly the sets
``infer`` builds: one composition (``_prediction_sets``) serves both, and
evaluation computes the raw task losses of those sets on held-out images and
reports risks (mean losses) and set sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .calibration import CalibrationResult
from .geometry import BoundingBox, area
from .losses import Detection, ImageSample, cls_loss, conf_loss, loc_loss
from .matching import match
from .predsets import apply_margin, build_class_set

__all__ = [
    "SelectedPrediction",
    "ConformalPrediction",
    "EvaluationReport",
    "infer",
    "evaluate",
]


@dataclass(frozen=True)
class SelectedPrediction:
    """One detection that survived the confidence threshold, post-processed."""

    index: int
    box: BoundingBox
    margined_box: BoundingBox
    class_labels: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_labels", frozenset(self.class_labels))


@dataclass(frozen=True)
class ConformalPrediction:
    """Per-image conformal output plus the parameters that produced it."""

    image_id: str
    selected: tuple[SelectedPrediction, ...]
    lambda_cnf: float
    lambda_loc: float
    lambda_cls: float


@dataclass(frozen=True)
class EvaluationReport:
    """Test risks and set sizes.

    Risks average over every image; the localization and classification set
    sizes average only over images with at least one selected detection
    (sizes are undefined on empty selections, while the risks are defined by
    the edge rules). Zero-area original boxes cannot contribute a stretch
    ratio and are skipped, with a count kept in
    ``n_zero_area_boxes_skipped``.
    """

    cnf_risk: float
    loc_risk: float
    cls_risk: float
    global_risk: float
    cnf_set_size: float
    loc_set_size: float
    cls_set_size: float
    n_test: int
    n_images_without_selection: int = 0
    n_zero_area_boxes_skipped: int = 0


def _prediction_sets(
    detections: Sequence[Detection], result: CalibrationResult
) -> tuple[list[int], list[BoundingBox], list[set[int]]]:
    """The prediction sets at the result's conservative parameters.

    Returns the positions of the selected detections (``lambda_cnf_plus >=
    1 - confidence``, in input order), their margined boxes and their label
    sets. ``infer`` emits these sets and ``evaluate`` scores them.
    """
    lam_cnf = result.lambda_cnf_plus
    lam_loc, loc_kind = result.lambda_loc_plus, result.config.predset_spec.localization_kind
    lam_cls, cls_kind = result.lambda_cls_plus, result.config.predset_spec.classification_kind
    selected, margined, class_sets = [], [], []
    for k, det in enumerate(detections):
        if lam_cnf >= 1.0 - det.confidence:
            selected.append(k)
            margined.append(apply_margin(det.box, lam_loc, loc_kind))
            class_sets.append(build_class_set(det.probs, lam_cls, cls_kind))
    return selected, margined, class_sets


def infer(
    detections: Sequence[Detection],
    result: CalibrationResult,
    image_id: str = "",
) -> ConformalPrediction:
    """Build the conformal prediction for one image's detections.

    The detections must have been pre-filtered with the same confidence
    floor used during calibration. Indices in the output refer to positions
    in the input sequence; input order is preserved.
    """
    selected, margined, class_sets = _prediction_sets(detections, result)
    boxes = [detections[k].box for k in selected]
    return ConformalPrediction(
        image_id=image_id,
        selected=tuple(map(SelectedPrediction, selected, boxes, margined, class_sets)),
        lambda_cnf=result.lambda_cnf_plus,
        lambda_loc=result.lambda_loc_plus,
        lambda_cls=result.lambda_cls_plus,
    )


def _image_outcome(sample: ImageSample, result: CalibrationResult) -> tuple:
    """One image's scores of the sets ``infer`` builds for it.

    Returns ``(cnf, loc, cls, n_selected, mean_stretch, mean_set_size,
    skipped)``: the three losses, the number of selected detections, the
    mean stretch of its boxes of non-zero area and the mean label-set size
    (each ``None`` when it averages nothing), and the number of zero-area
    boxes left out of the stretch.
    """
    cfg = result.config
    spec = cfg.loss_spec
    selected, margined, class_sets = _prediction_sets(sample.detections, result)
    preds = [(sample.detections[k].box, sample.detections[k].probs) for k in selected]
    assignment = match(sample.ground_truths, preds, cfg.match_spec)
    cnf = conf_loss(sample, len(selected), spec.confidence_kind)
    loc = loc_loss(sample, assignment, margined, spec.localization_kind, spec.localization_tau)
    cls = cls_loss(
        sample, assignment, class_sets, spec.classification_aggregation, spec.aggregation_tau
    )
    stretches = []
    for (box, _), mbox in zip(preds, margined):
        original = area(box)
        if original <= 0.0:
            continue
        stretches.append(math.sqrt(area(mbox) / original))
    mean_stretch = sum(stretches) / len(stretches) if stretches else None
    set_sizes = [len(s) for s in class_sets]
    mean_set_size = sum(set_sizes) / len(set_sizes) if set_sizes else None
    skipped = len(selected) - len(stretches)
    return cnf, loc, cls, len(selected), mean_stretch, mean_set_size, skipped


def _mean(values: Sequence[float]) -> float:
    """The exactly rounded mean of ``values``; NaN when there are none."""
    return math.fsum(values) / len(values) if values else math.nan


def _report(outcomes: Sequence[tuple]) -> EvaluationReport:
    """The report of the images whose ``_image_outcome``s are ``outcomes``.

    Every sum is exactly rounded, so the report does not depend on the order
    of the images or on how their outcomes were split up for computing.
    """
    if not outcomes:
        raise ValueError("empty test set")
    cnf, loc, cls, counts, stretches, set_sizes, skipped = zip(*outcomes)
    report = EvaluationReport(
        cnf_risk=_mean(cnf),
        loc_risk=_mean(loc),
        cls_risk=_mean(cls),
        global_risk=_mean(list(map(max, loc, cls))),
        cnf_set_size=_mean(counts),
        loc_set_size=_mean([s for s in stretches if s is not None]),
        cls_set_size=_mean([s for s in set_sizes if s is not None]),
        n_test=len(outcomes),
        n_images_without_selection=counts.count(0),
        n_zero_area_boxes_skipped=sum(skipped),
    )
    if report.global_risk < max(report.loc_risk, report.cls_risk) - 1e-12:
        raise AssertionError("global risk fell below the individual risks")
    if report.global_risk > report.loc_risk + report.cls_risk + 1e-12:
        raise AssertionError("global risk exceeded the sum of individual risks")
    return report


def evaluate(
    test_samples: Sequence[ImageSample], result: CalibrationResult
) -> EvaluationReport:
    """Risks and set sizes of the calibrated parameters on held-out images.

    The test samples are expected to be disjoint from the calibration set;
    this is not enforced. The global risk is the mean over images of the
    worse of the localization and classification losses.
    """
    return _report([_image_outcome(sample, result) for sample in test_samples])
