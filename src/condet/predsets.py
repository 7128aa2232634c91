"""Parameterized prediction-set constructors for the three detection tasks.

Confidence filtering keeps detections whose score clears a calibrated
threshold, localization expands boxes by an additive or multiplicative
margin, and classification returns a set of plausible labels per detection.
All three families are nested in their parameter, which is what makes the
calibrated losses monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .geometry import BoundingBox, hausdorff_distance

if TYPE_CHECKING:  # pragma: no cover
    from .losses import ImageSample

__all__ = [
    "LOC_SET_KINDS",
    "CLS_SET_KINDS",
    "PredSetSpec",
    "select_confident",
    "loc_set_additive",
    "loc_set_multiplicative",
    "apply_margin",
    "cls_set_lac",
    "cls_set_aps",
    "build_class_set",
    "margin_to_cover",
    "class_miss_cutoff",
]

LOC_SET_KINDS = ("additive", "multiplicative")
CLS_SET_KINDS = ("lac", "aps")


@dataclass(frozen=True)
class PredSetSpec:
    """Which localization margin and which class-set construction to use."""

    localization_kind: str = "additive"
    classification_kind: str = "lac"

    def __post_init__(self) -> None:
        if self.localization_kind not in LOC_SET_KINDS:
            raise ValueError(f"unknown localization set kind {self.localization_kind!r}")
        if self.classification_kind not in CLS_SET_KINDS:
            raise ValueError(f"unknown classification set kind {self.classification_kind!r}")


def select_confident(sample: "ImageSample", lambda_cnf: float) -> list[int]:
    """Indices of detections with confidence at least ``1 - lambda_cnf``.

    Detections are stored in descending confidence order, so the result is a
    prefix of the indices. The comparison is evaluated as
    ``lambda_cnf >= 1 - confidence`` so that a calibrated parameter equal to
    a breakpoint keeps the detection that produced it.
    """
    return [
        k
        for k, det in enumerate(sample.detections)
        if lambda_cnf >= 1.0 - det.confidence
    ]


def loc_set_additive(box: BoundingBox, lambda_loc: float) -> BoundingBox:
    """Expand ``box`` by ``lambda_loc`` pixels on all four sides; no clamping."""
    if lambda_loc < 0.0:
        raise ValueError(f"additive margin must be >= 0, got {lambda_loc}")
    return BoundingBox(
        box.left - lambda_loc,
        box.top - lambda_loc,
        box.right + lambda_loc,
        box.bottom + lambda_loc,
    )


def loc_set_multiplicative(box: BoundingBox, lambda_loc: float) -> BoundingBox:
    """Expand each side by ``lambda_loc`` times the box's own width/height."""
    if lambda_loc < 0.0:
        raise ValueError(f"multiplicative margin must be >= 0, got {lambda_loc}")
    dx = lambda_loc * box.width
    dy = lambda_loc * box.height
    return BoundingBox(box.left - dx, box.top - dy, box.right + dx, box.bottom + dy)


def apply_margin(box: BoundingBox, lambda_loc: float, kind: str) -> BoundingBox:
    if kind == "additive":
        return loc_set_additive(box, lambda_loc)
    if kind == "multiplicative":
        return loc_set_multiplicative(box, lambda_loc)
    raise ValueError(f"unknown localization set kind {kind!r}")


def cls_set_lac(probs: Sequence[float], lambda_cls: float) -> set[int]:
    """All classes whose probability is at least ``1 - lambda_cls``."""
    return {k for k, p in enumerate(probs) if lambda_cls >= 1.0 - p}


def _aps_order(probs: Sequence[float]) -> list[int]:
    # Descending probability, ties broken by ascending class index: a
    # reverse sort is still stable, so equal keys keep their index order.
    return sorted(range(len(probs)), key=probs.__getitem__, reverse=True)


def cls_set_aps(probs: Sequence[float], lambda_cls: float) -> set[int]:
    """Shortest descending-probability prefix with cumulative mass > ``lambda_cls``.

    At ``lambda_cls = 1`` the full label set is returned by convention.
    """
    if lambda_cls >= 1.0:
        return set(range(len(probs)))
    out: set[int] = set()
    cum = 0.0
    for k in _aps_order(probs):
        out.add(k)
        cum += probs[k]
        if cum > lambda_cls:
            return out
    return out


def build_class_set(probs: Sequence[float], lambda_cls: float, kind: str) -> set[int]:
    if kind == "lac":
        return cls_set_lac(probs, lambda_cls)
    if kind == "aps":
        return cls_set_aps(probs, lambda_cls)
    raise ValueError(f"unknown classification set kind {kind!r}")


def margin_to_cover(gt: BoundingBox, pred: BoundingBox, kind: str) -> float:
    """Smallest margin parameter at which the margined ``pred`` contains ``gt``.

    In exact arithmetic, for every ``lam >= 0``:
    ``contains(apply_margin(pred, lam, kind), gt)`` holds iff
    ``lam >= margin_to_cover(gt, pred, kind)``. In floats both sides round,
    so the containment test can still fail at the returned value or already
    hold an ulp or more below it. For the additive margin this is exactly the
    signed Hausdorff distance (possibly negative); for the multiplicative
    margin it is the largest per-side deficit divided by the box's width or
    height, or ``inf`` when a degenerate side can never cover.
    """
    if kind == "additive":
        return hausdorff_distance(gt, pred)
    if kind != "multiplicative":
        raise ValueError(f"unknown localization set kind {kind!r}")
    w = pred.width
    h = pred.height
    need = 0.0
    for deficit, extent in (
        (pred.left - gt.left, w),
        (gt.right - pred.right, w),
        (pred.top - gt.top, h),
        (gt.bottom - pred.bottom, h),
    ):
        if extent > 0.0:
            need = max(need, deficit / extent)
        elif deficit > 0.0:
            return math.inf
    return need


def class_miss_cutoff(probs: Sequence[float], true_class: int, kind: str) -> float:
    """Smallest ``lambda_cls`` at which ``true_class`` enters the class set.

    Membership is equivalent to ``lambda_cls >= cutoff`` for both set kinds.
    For LAC the cutoff is ``1 - probs[true_class]``; for APS it is the
    cumulative probability strictly ahead of the class in the descending
    order, accumulated in the same order as ``cls_set_aps`` so the two
    routes agree bit-for-bit, and capped at 1, where ``cls_set_aps`` returns
    every class (the sum can round above 1 ahead of a zero-probability class).
    """
    if kind == "lac":
        return 1.0 - probs[true_class]
    if kind != "aps":
        raise ValueError(f"unknown classification set kind {kind!r}")
    cum = 0.0
    for k in _aps_order(probs):
        if k == true_class:
            return min(cum, 1.0)
        cum += probs[k]
    raise ValueError(f"class label {true_class} outside range [0, {len(probs)})")
