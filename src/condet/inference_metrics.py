"""Applying calibrated parameters to new images, and test-set metrics.

Inference only uses the conservative parameters: the confidence threshold
selects detections, each selected box is margined, and each selected
probability vector becomes a label set. Evaluation recomputes the raw task
losses at those parameters on held-out images and reports risks (mean
losses) and set sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .calibration import CalibrationResult
from .geometry import BoundingBox, area
from .losses import Detection, ImageSample, LossSpec, cls_loss, conf_loss, loc_loss
from .matching import MatchDistanceSpec, match
from .predsets import PredSetSpec, apply_margin, build_class_set, select_confident

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
    cfg = result.config
    lam_cnf = result.lambda_cnf_plus
    lam_loc = result.lambda_loc_plus
    lam_cls = result.lambda_cls_plus
    selected = []
    for index, det in enumerate(detections):
        if lam_cnf >= 1.0 - det.confidence:
            selected.append(
                SelectedPrediction(
                    index=index,
                    box=det.box,
                    margined_box=apply_margin(det.box, lam_loc, cfg.predset_spec.localization_kind),
                    class_labels=frozenset(
                        build_class_set(det.probs, lam_cls, cfg.predset_spec.classification_kind)
                    ),
                )
            )
    return ConformalPrediction(
        image_id=image_id,
        selected=tuple(selected),
        lambda_cnf=lam_cnf,
        lambda_loc=lam_loc,
        lambda_cls=lam_cls,
    )


def _image_outcome(
    sample: ImageSample,
    lambda_cnf: float,
    lambda_loc: float,
    lambda_cls: float,
    loss_spec: LossSpec,
    predset_spec: PredSetSpec,
    match_spec: MatchDistanceSpec,
):
    """Losses and per-image size statistics at fixed parameters."""
    sel = select_confident(sample, lambda_cnf)
    preds = [(sample.detections[k].box, sample.detections[k].probs) for k in sel]
    assignment = match(sample.ground_truths, preds, match_spec)
    margined = [apply_margin(box, lambda_loc, predset_spec.localization_kind) for box, _ in preds]
    class_sets = [
        build_class_set(probs, lambda_cls, predset_spec.classification_kind) for _, probs in preds
    ]
    cnf = conf_loss(sample, len(sel), loss_spec.confidence_kind)
    loc = loc_loss(
        sample, assignment, margined, loss_spec.localization_kind, loss_spec.localization_tau
    )
    cls = cls_loss(
        sample,
        assignment,
        class_sets,
        loss_spec.classification_aggregation,
        loss_spec.aggregation_tau,
    )
    stretches = []
    skipped = 0
    for (box, _), mbox in zip(preds, margined):
        original = area(box)
        if original <= 0.0:
            skipped += 1
            continue
        stretches.append(math.sqrt(area(mbox) / original))
    set_sizes = [len(s) for s in class_sets]
    return cnf, loc, cls, len(sel), stretches, set_sizes, skipped


def _image_outcomes(samples: Sequence[ImageSample], result: CalibrationResult) -> list:
    """``_image_outcome`` of each sample at the result's parameters."""
    cfg = result.config
    return [
        _image_outcome(
            sample,
            result.lambda_cnf_plus,
            result.lambda_loc_plus,
            result.lambda_cls_plus,
            cfg.loss_spec,
            cfg.predset_spec,
            cfg.match_spec,
        )
        for sample in samples
    ]


def _report(outcomes: Sequence[tuple]) -> EvaluationReport:
    """The report of the images whose ``_image_outcome``s are ``outcomes``.

    Every sum is exactly rounded, so the report does not depend on the order
    of the images or on how their outcomes were split up for computing.
    """
    if not outcomes:
        raise ValueError("empty test set")
    cnf_losses = []
    loc_losses = []
    cls_losses = []
    global_losses = []
    counts = []
    stretch_means = []
    cls_size_means = []
    no_selection = 0
    skipped_total = 0
    for cnf, loc, cls, n_sel, stretches, set_sizes, skipped in outcomes:
        cnf_losses.append(cnf)
        loc_losses.append(loc)
        cls_losses.append(cls)
        global_losses.append(max(loc, cls))
        counts.append(n_sel)
        skipped_total += skipped
        if n_sel == 0:
            no_selection += 1
        else:
            if stretches:
                stretch_means.append(sum(stretches) / len(stretches))
            cls_size_means.append(sum(set_sizes) / len(set_sizes))
    n = len(outcomes)
    report = EvaluationReport(
        cnf_risk=math.fsum(cnf_losses) / n,
        loc_risk=math.fsum(loc_losses) / n,
        cls_risk=math.fsum(cls_losses) / n,
        global_risk=math.fsum(global_losses) / n,
        cnf_set_size=math.fsum(counts) / n,
        loc_set_size=math.fsum(stretch_means) / len(stretch_means) if stretch_means else math.nan,
        cls_set_size=math.fsum(cls_size_means) / len(cls_size_means) if cls_size_means else math.nan,
        n_test=n,
        n_images_without_selection=no_selection,
        n_zero_area_boxes_skipped=skipped_total,
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
    return _report(_image_outcomes(test_samples, result))
