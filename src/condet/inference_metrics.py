"""Applying calibrated parameters to new images, and test-set metrics.

Inference only uses the conservative parameters: the confidence threshold
selects detections, each selected box is margined, and each selected
probability vector becomes a label set (``infer``, through
``_prediction_sets``). Evaluation scores those sets on held-out images
without building them: ``_evaluate_table`` reads the test split as a
``_SampleTable`` and computes the raw task losses in array passes with the
calibration kernel's code, the same floats as the scalar functions of
``matching``, ``predsets`` and ``losses`` give, and reports risks (mean
losses) and set sizes. ``evaluate`` and ``condet evaluate`` share it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .calibration import (
    _BLOCK_CELLS,
    CalibrationResult,
    _check_giou_areas,
    _class_cutoffs,
    _conf_losses,
    _gather_probs,
    _margined,
    _prefix_matches,
    _Reach,
    _SampleTable,
)
from .geometry import BoundingBox
from .losses import Detection, ImageSample
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
    sets, for ``infer`` to emit. ``evaluate`` scores the same sets without
    building them (``_evaluate_table``).
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


def _mean(values: Sequence[float]) -> float:
    """The exactly rounded mean of ``values``; NaN when there are none."""
    return math.fsum(values) / len(values) if values else math.nan


def _set_sizes(probs: np.ndarray, lam: float, kind: str) -> np.ndarray:
    """The size of ``build_class_set(row, lam, kind)`` for each row of the
    float64 matrix ``probs``, counted without building a set.

    LAC counts the classes with ``lam >= 1 - p``. APS keeps the classes in
    descending order until their sequential sum exceeds ``lam``, so its size
    is one more than the count of the sums that do not, at most the class
    count; equal probabilities give the same sums in any order.
    """
    k = probs.shape[1]
    out = np.full(len(probs), k)
    if kind == "aps" and lam >= 1.0:
        return out
    step = max(1, _BLOCK_CELLS // max(k, 1))
    for lo in range(0, len(probs), step):
        block = probs[lo : lo + step]
        if kind == "lac":
            out[lo : lo + step] = np.count_nonzero(lam >= 1.0 - block, axis=1)
        else:
            sums = np.cumsum(np.sort(block, axis=1)[:, ::-1], axis=1)
            out[lo : lo + step] = np.minimum(np.count_nonzero(sums <= lam, axis=1) + 1, k)
    return out


def _evaluate_table(table: _SampleTable, result: CalibrationResult) -> EvaluationReport:
    """The ``evaluate`` report of the test images of ``table``, scored in
    array passes with the calibration kernel's code.

    Each image selects the prefix of its detections with ``lambda_cnf_plus
    >= 1 - confidence``; ``_prefix_matches`` matches its ground truths at
    that prefix, and a ``_Reach`` of one state per image scores the ``loc``
    and ``cls`` losses of those matchings, as calibration scores its states.
    Set sizes and stretches are counted over the selected detections. Each
    image's losses, stretches and set sizes are the floats the scalar
    functions give it (a stretch sum is taken detection by detection, as
    ``sum`` takes it), and every mean over images is exactly rounded, so the
    report does not depend on the order of the images. Raises ``ValueError``
    for an empty table and, with ``giou`` matching, for a zero-area ground
    truth or selected detection in an image with both.
    """
    n = table.n
    if not n:
        raise ValueError("empty test set")
    cfg = result.config
    spec, kinds = cfg.loss_spec, cfg.predset_spec
    n_gt = np.diff(table.gt_start)
    images = np.arange(n)
    gt_img = np.repeat(images, n_gt)
    # The selected detections, a prefix of each image's: image i's are
    # entries start[i]:start[i] + k[i] of ``box`` and ``probs``.
    sel = np.flatnonzero(result.lambda_cnf_plus >= table.req)
    sel_img = np.repeat(images, np.diff(table.det_start))[sel]
    k = np.bincount(sel_img, minlength=n)
    start = np.cumsum(k) - k
    box = table.det_box[:, sel]
    probs = _gather_probs(table.probs, sel)
    gather = partial(_gather_probs, probs)
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.match_spec.kind == "giou":
            _check_giou_areas(table.gt_box, gt_img, box, sel_img, n_gt, k)
        # Entries: the ground truths of the images with a selection, each
        # with its matched detection.
        entries = np.flatnonzero(k[gt_img] > 0)
        img = gt_img[entries]
        gt, labels = table.gt_box[:, entries], table.labels[entries]
        matched = start[img]
        if len(entries):
            best, _ = _prefix_matches(cfg.match_spec, gt, labels, img, box, gather, k, start)
            matched += best[np.arange(len(entries)), k[img] - 1]
        scores = _Reach(
            cfg, images, np.where(n_gt > 0, 1.0, 0.0), np.where(k > 0, n_gt, 0),
            np.arange(len(entries)), gt, box[:, matched],
            _class_cutoffs(gather, max(probs.shape[1], 1), matched, labels, kinds.classification_kind),
            None,
            (gt[2] - gt[0]) * (gt[3] - gt[1]) if spec.localization_kind == "pixelwise" else None,
        )
        loc = scores.loc_losses(result.lambda_loc_plus)
        cls = scores.cls_losses(result.lambda_cls_plus)
        # The stretches of the boxes of non-zero area.
        margined = _margined(box, result.lambda_loc_plus, kinds.localization_kind)
        original = (box[2] - box[0]) * (box[3] - box[1])
        skipped = original <= 0.0
        grown = (margined[2] - margined[0]) * (margined[3] - margined[1])
        stretch = np.sqrt(np.divide(grown, original, out=np.zeros(len(sel)), where=~skipped))
    # Each image's stretches summed in detection order; a skipped box adds 0.
    stretch_sum = np.zeros(n)
    for j in range(int(k.max())):
        have = np.flatnonzero(k > j)
        stretch_sum[have] += stretch[start[have] + j]
    stretched = np.bincount(sel_img[~skipped], minlength=n)
    size_sum = np.bincount(sel_img, _set_sizes(probs, result.lambda_cls_plus, kinds.classification_kind),
                           minlength=n)
    report = EvaluationReport(
        cnf_risk=_mean(_conf_losses(spec.confidence_kind, k, n_gt).tolist()),
        loc_risk=_mean(loc.tolist()),
        cls_risk=_mean(cls.tolist()),
        # max(loc, cls) image by image: ``loc`` unless ``cls`` is larger.
        global_risk=_mean(np.where(cls > loc, cls, loc).tolist()),
        cnf_set_size=_mean(k.tolist()),
        loc_set_size=_mean((stretch_sum[stretched > 0] / stretched[stretched > 0]).tolist()),
        cls_set_size=_mean((size_sum[k > 0] / k[k > 0]).tolist()),
        n_test=n,
        n_images_without_selection=int(n - np.count_nonzero(k)),
        n_zero_area_boxes_skipped=int(np.count_nonzero(skipped)),
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
    worse of the localization and classification losses. Raises
    ``ValueError`` for an empty set, for probability vectors of different
    lengths in different images (as ``calibrate`` does) and, with ``giou``
    matching, for a zero-area ground truth or selected detection in an image
    with both.
    """
    # The selected detections are a prefix of each confidence-sorted sample;
    # the table holds those alone.
    lam = result.lambda_cnf_plus
    prefixes = [bisect_right(s.detections, lam, key=_requirement) for s in test_samples]
    return _evaluate_table(_SampleTable.from_samples(test_samples, prefixes), result)


def _requirement(det: Detection) -> float:
    """The smallest confidence parameter that selects ``det``."""
    return 1.0 - det.confidence
