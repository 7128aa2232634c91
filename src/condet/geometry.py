"""Axis-aligned bounding-box arithmetic and purely geometric matching distances.

All operations are pure functions on immutable values. Coordinates follow
image conventions (x grows rightward, y grows downward) and are never
clamped: margined boxes may have negative coordinates or extend beyond the
image, which keeps the margin/containment duality exact.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BoundingBox",
    "EMPTY_BOX",
    "area",
    "intersect",
    "contains",
    "hausdorff_distance",
    "giou_distance",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle in pixel coordinates, corner representation.

    The box itself checks nothing. ``left <= right``, ``top <= bottom`` and
    finite coordinates hold for every ground-truth and predicted box because
    ``ImageSample`` and ``Detection`` enforce them when they are built (the
    box rule, ``losses._check_box``). Degenerate boxes (zero width or height)
    arise from intersections and are valid values with zero area.
    """

    left: float
    top: float
    right: float
    bottom: float

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.left, self.top, self.right, self.bottom)

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        """Build from a top-left corner plus width/height (COCO convention)."""
        return cls(x, y, x + w, y + h)


#: Canonical result of intersecting disjoint boxes, so area() composes
#: without branching on an absent value.
EMPTY_BOX = BoundingBox(0.0, 0.0, 0.0, 0.0)


def area(box: BoundingBox) -> float:
    """Area of a box in square pixels; 0 for degenerate boxes."""
    return (box.right - box.left) * (box.bottom - box.top)


def intersect(b1: BoundingBox, b2: BoundingBox) -> BoundingBox:
    """Intersection of two boxes; ``EMPTY_BOX`` when they are disjoint."""
    left = max(b1.left, b2.left)
    top = max(b1.top, b2.top)
    right = min(b1.right, b2.right)
    bottom = min(b1.bottom, b2.bottom)
    if left > right or top > bottom:
        return EMPTY_BOX
    return BoundingBox(left, top, right, bottom)


def contains(outer: BoundingBox, inner: BoundingBox) -> bool:
    """True iff ``inner`` lies inside ``outer`` (non-strict on every edge)."""
    return (
        inner.left >= outer.left
        and inner.top >= outer.top
        and inner.right <= outer.right
        and inner.bottom <= outer.bottom
    )


def hausdorff_distance(gt: BoundingBox, pred: BoundingBox) -> float:
    """Asymmetric signed Hausdorff distance from ``gt`` to ``pred`` in pixels.

    Equals the smallest additive margin that, applied to ``pred``, makes it
    contain ``gt``. Negative when ``pred`` already contains ``gt`` strictly;
    not symmetric in its arguments.
    """
    return max(
        pred.left - gt.left,
        pred.top - gt.top,
        gt.right - pred.right,
        gt.bottom - pred.bottom,
    )


def giou_distance(b1: BoundingBox, b2: BoundingBox) -> float:
    """Generalized-IoU distance between two non-degenerate boxes, in [0, 2].

    Computed as ``1 - IoU + hull_excess`` where ``hull_excess`` is the
    fraction of the smallest enclosing box not covered by the union.

    Raises
    ------
    ValueError
        If either box has zero area.
    """
    a1 = area(b1)
    a2 = area(b2)
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("giou_distance requires boxes with positive area")
    inter = area(intersect(b1, b2))
    union = a1 + a2 - inter
    hull = BoundingBox(
        min(b1.left, b2.left),
        min(b1.top, b2.top),
        max(b1.right, b2.right),
        max(b1.bottom, b2.bottom),
    )
    hull_area = area(hull)
    return 1.0 - inter / union + (hull_area - union) / hull_area
