"""Risk-controlled parameter calibration.

``crc_calibrate`` tunes a single parameter so that a conservatively corrected
empirical risk stays below a target level. ``calibrate`` runs the two-step
sequential procedure for detection: a confidence-threshold step that yields a
conservative/optimistic parameter pair, followed by independent localization
and classification steps that reuse the optimistic threshold.

Losses for the second step are not necessarily monotone in the confidence
parameter (the matching changes as detections enter the selected list), so
the sweeps replace them on the fly with their running suprema over all larger
confidence parameters; the sweep visits confidence breakpoints in decreasing
order, which makes the running maximum exactly that supremum.

Both steps run on one array kernel, ``_PrefixKernel``, built once per call:

* **Prefix matchings.** A confidence threshold always keeps a prefix of an
  image's detections (they are stored by descending confidence). All ground
  truths of all images form the rows of one (ground truth x detection)
  distance array, padded with +inf past each image's last detection. A
  ground truth's match under prefix k is a running argmin over the first k
  columns that takes a new column only on a strict ``<``, which is
  ``match()``'s lowest-index tie-break, so every prefix is matched at once.
* **Requirement tables.** Every (image, prefix) the sweep can reach is a row.
  For each row and ground truth the kernel gathers what the matched detection
  requires: the smallest margin that covers the ground truth
  (``margin_to_cover``), the smallest label-set parameter that contains its
  class (``class_miss_cutoff``; APS via a stable descending argsort and a
  sequential ``cumsum``) and, for the pixelwise loss, the matched box. A loss
  at any parameter is then a comparison against these tables.
* **Step 1** looks up each row's losses at the loosest second-step
  parameters and walks the breakpoints in visit order.
* **Step 2** keeps its bisection over the parameter and scores each
  candidate over all visited rows at once: a per-image maximum
  (``np.maximum.reduceat``) and a Python ``sum`` in image order. The
  tables would also give the exact infimum, but that returns different
  (exact instead of bisected) parameters, so it is left to its own change.

The kernel returns the same floats as evaluating each loss one image at a
time: sums run in the same order (step 1's deltas in visit-then-image order,
pixelwise coverage ground truth by ground truth, never a numpy pairwise sum),
and every loss is computed with the same operations. That matters because
the guarantee is about the returned parameters: a last-ulp change in a sum
can move a parameter across a feasibility boundary.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .losses import ImageSample, LossSpec
from .matching import MatchDistanceSpec
from .predsets import PredSetSpec

__all__ = [
    "CalibrationPreconditionError",
    "InfeasibleRiskError",
    "StepLossCurve",
    "CalibrationConfig",
    "CalibrationResult",
    "crc_calibrate",
    "default_lambda_loc_bounds",
    "resolve_config",
    "seqcrc_step1",
    "seqcrc_step2",
    "calibrate",
]


log = logging.getLogger(__name__)


class CalibrationPreconditionError(ValueError):
    """The requested error levels cannot carry a finite-sample guarantee."""


class InfeasibleRiskError(RuntimeError):
    """No parameter value satisfies the corrected risk constraint."""


# --------------------------------------------------------------------------
# Baseline: single-parameter risk control
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StepLossCurve:
    """Non-increasing, right-continuous step function of a scalar parameter.

    ``values`` has one more entry than ``thresholds``; the function equals
    ``values[j]`` on ``[thresholds[j-1], thresholds[j])``, so the value at a
    threshold is the one of the piece starting there.
    """

    thresholds: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(self.thresholds) + 1:
            raise ValueError("need exactly one more value than thresholds")
        if any(a > b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be sorted ascending")
        if any(a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("step values must be non-increasing")

    def value_at(self, lam: float) -> float:
        return self.values[bisect_right(self.thresholds, lam)]

    @classmethod
    def binary(cls, score: float) -> "StepLossCurve":
        """Indicator loss that is 1 below ``score`` and 0 from it on."""
        return cls((score,), (1.0, 0.0))


def crc_calibrate(
    loss_curves: Sequence[StepLossCurve],
    alpha: float,
    loss_bound: float,
    lambda_domain: tuple[float, float],
) -> float:
    """Smallest parameter whose corrected empirical risk is below ``alpha``.

    Feasibility of the candidate ``lam`` means
    ``(1/(n+1)) * sum_i L_i(lam) + loss_bound/(n+1) <= alpha``. Since the
    curves are step functions, the infimum is attained at a curve breakpoint
    or at the domain minimum; the scan therefore only visits those points.

    Raises
    ------
    InfeasibleRiskError
        When ``alpha < loss_bound/(n+1)`` (no parameter can ever satisfy the
        constraint) or when no candidate in the domain is feasible.
    """
    n = len(loss_curves)
    if n == 0:
        raise ValueError("empty calibration set")
    lo, hi = lambda_domain
    if lo > hi:
        raise ValueError(f"invalid domain ({lo}, {hi})")
    if alpha * (n + 1) < loss_bound:
        raise InfeasibleRiskError(
            f"alpha={alpha} is below the finite-sample floor "
            f"{loss_bound}/(n+1)={loss_bound / (n + 1):.6g}"
        )
    candidates = sorted(
        {lo, hi} | {t for curve in loss_curves for t in curve.thresholds if lo < t <= hi}
    )
    for cand in candidates:
        total = sum(curve.value_at(cand) for curve in loss_curves)
        if total + loss_bound <= alpha * (n + 1):
            return cand
    raise InfeasibleRiskError(
        "no feasible parameter in the domain; loss curves do not vanish at the upper endpoint"
    )


# --------------------------------------------------------------------------
# Configuration and result types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationConfig:
    """Frozen description of one calibration run.

    ``lambda_loc_bounds`` may be left as None, in which case it is resolved
    from the data at calibration time (see ``default_lambda_loc_bounds``).
    ``finite_sample_correction`` exists as a negative-control hook for the
    validation harness: disabling it voids the guarantee on purpose.
    """

    alpha_cnf: float
    alpha_loc: float
    alpha_cls: float
    loss_spec: LossSpec = field(default_factory=LossSpec)
    predset_spec: PredSetSpec = field(default_factory=PredSetSpec)
    match_spec: MatchDistanceSpec = field(default_factory=lambda: MatchDistanceSpec("hausdorff"))
    lambda_loc_bounds: Optional[tuple[float, float]] = None
    lambda_cls_bounds: tuple[float, float] = (0.0, 1.0)
    binary_search_steps: int = 32
    prefilter_threshold: float = 1e-3
    finite_sample_correction: bool = True

    def __post_init__(self) -> None:
        for name in ("alpha_cnf", "alpha_loc", "alpha_cls"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.binary_search_steps < 1:
            raise ValueError("binary_search_steps must be >= 1")
        for name in ("lambda_loc_bounds", "lambda_cls_bounds"):
            bounds = getattr(self, name)
            if bounds is not None:
                object.__setattr__(self, name, (float(bounds[0]), float(bounds[1])))
                lo, hi = getattr(self, name)
                if not math.isfinite(hi):
                    raise ValueError(f"{name} must be finite, got {bounds}")
                if not 0.0 <= lo < hi:
                    raise ValueError(f"{name} must satisfy 0 <= lower < upper, got {bounds}")
        if self.lambda_cls_bounds[1] > 1.0:
            raise ValueError("lambda_cls_bounds must stay within [0, 1]")


@dataclass(frozen=True)
class CalibrationResult:
    """The four tuned parameters plus the frozen configuration behind them."""

    lambda_cnf_plus: float
    lambda_cnf_minus: float
    lambda_loc_plus: float
    lambda_cls_plus: float
    config: CalibrationConfig
    n_calibration: int
    diagnostics: dict

    def __post_init__(self) -> None:
        if self.lambda_cnf_minus > self.lambda_cnf_plus:
            raise AssertionError(
                "optimistic confidence parameter exceeds the conservative one"
            )


def default_lambda_loc_bounds(
    samples: Sequence[ImageSample], localization_kind: str
) -> tuple[float, float]:
    """Data-derived search interval for the localization parameter.

    For additive margins the upper bound is the coordinate span of the data
    plus one pixel, which is enough for any matched box to cover any ground
    truth; for multiplicative margins a fixed 3.0 (triple-size expansion per
    side) covers every practically relevant correction.
    """
    if localization_kind == "multiplicative":
        return (0.0, 3.0)
    hi = 0.0
    lo = 0.0
    seen = False
    for sample in samples:
        boxes = [box for box, _ in sample.ground_truths]
        boxes.extend(det.box for det in sample.detections)
        for box in boxes:
            seen = True
            hi = max(hi, box.right, box.bottom)
            lo = min(lo, box.left, box.top)
    if not seen:
        return (0.0, 1.0)
    if not math.isfinite(hi - lo):
        raise ValueError("calibration boxes must have finite coordinates")
    return (0.0, (hi - lo) + 1.0)


def resolve_config(
    config: CalibrationConfig, samples: Sequence[ImageSample]
) -> CalibrationConfig:
    """Fill data-dependent defaults so the configuration is fully explicit."""
    if config.lambda_loc_bounds is not None:
        return config
    bounds = default_lambda_loc_bounds(samples, config.predset_spec.localization_kind)
    return replace(config, lambda_loc_bounds=bounds)


# --------------------------------------------------------------------------
# Prefix kernel
# --------------------------------------------------------------------------

#: Cells per block of the (ground truth x detection) distance array and of
#: the APS probability table; blocks keep the temporaries small however many
#: ground truths, detections or classes there are.
_BLOCK_CELLS = 1 << 14

_CORNERS = attrgetter("left", "top", "right", "bottom")


def _coords(boxes: list) -> np.ndarray:
    """``(4, m)`` array of left, top, right and bottom coordinates."""
    flat = np.fromiter(chain.from_iterable(map(_CORNERS, boxes)), dtype=float, count=4 * len(boxes))
    return flat.reshape(-1, 4).T


def _first_bad(mask: np.ndarray, owner: np.ndarray, samples, what: str) -> None:
    """Raise ``ValueError`` naming the image of the first flagged item."""
    if mask.any():
        image_id = samples[int(owner[int(np.argmax(mask))])].image_id
        raise ValueError(f"image {image_id!r}: {what}")


def _pair_distances(kind: str, tau: float, gt, det, lac: Optional[np.ndarray]) -> np.ndarray:
    """``pair_distance`` on arrays: ``gt`` and ``det`` are broadcastable
    ``(left, top, right, bottom)`` coordinates and ``lac`` holds the LAC
    distances (None for the kinds that do not use them). The same operations
    in the same order as the scalar functions, so the same floats."""
    gl, gtop, gr, gb = gt
    pl, ptop, pr, pb = det
    if kind == "giou":
        a1 = (gr - gl) * (gb - gtop)
        a2 = (pr - pl) * (pb - ptop)
        left = np.maximum(gl, pl)
        top = np.maximum(gtop, ptop)
        right = np.minimum(gr, pr)
        bottom = np.minimum(gb, pb)
        inter = np.where((left > right) | (top > bottom), 0.0, (right - left) * (bottom - top))
        union = a1 + a2 - inter
        hull = (np.maximum(gr, pr) - np.minimum(gl, pl)) * (np.maximum(gb, pb) - np.minimum(gtop, ptop))
        return 1.0 - inter / union + (hull - union) / hull
    if kind == "lac":
        return lac
    hausdorff = _margin_to_cover(gt, det, "additive")
    if kind == "hausdorff":
        return hausdorff
    return tau * lac + (1.0 - tau) * hausdorff


def _margin_to_cover(gt, det, kind: str) -> np.ndarray:
    """``predsets.margin_to_cover`` on arrays of coordinates."""
    gl, gtop, gr, gb = gt
    pl, ptop, pr, pb = det
    if kind == "additive":
        return np.maximum(np.maximum(np.maximum(pl - gl, ptop - gtop), gr - pr), gb - pb)
    w = pr - pl
    h = pb - ptop
    need = np.zeros(gl.shape)
    for deficit, extent in ((pl - gl, w), (gr - pr, w), (ptop - gtop, h), (gb - pb, h)):
        ratio = np.divide(deficit, extent, out=np.zeros(gl.shape), where=extent > 0.0)
        ratio[(extent <= 0.0) & (deficit > 0.0)] = math.inf
        need = np.maximum(need, ratio)
    return need


def _class_cutoffs(probs, dets: np.ndarray, labels: np.ndarray, kind: str) -> np.ndarray:
    """``predsets.class_miss_cutoff`` of each (detection, label) pair.

    APS orders classes by a stable argsort of the negated probabilities (ties
    by ascending class index) and accumulates them with a sequential
    ``cumsum``, the same additions in the same order as the scalar version.
    """
    k = len(probs[0]) if probs else 1
    keys, inverse = np.unique(dets * k + labels, return_inverse=True)
    if kind == "lac":
        return np.array([1.0 - probs[key // k][key % k] for key in keys.tolist()])[inverse]
    out = np.empty(len(keys))
    step = max(1, _BLOCK_CELLS // k)
    for lo in range(0, len(keys), step):
        block = keys[lo : lo + step]
        table = np.array([probs[d] for d in (block // k).tolist()], dtype=float).reshape(-1, k)
        order = np.argsort(-table, axis=1, kind="stable")
        ahead = np.zeros_like(table)
        np.cumsum(np.take_along_axis(table, order, axis=1)[:, :-1], axis=1, out=ahead[:, 1:])
        rank = np.argsort(order, axis=1)
        rows = np.arange(len(block))
        out[lo : lo + step] = ahead[rows, rank[rows, block % k]]
    return out[inverse]


def _prefix_matches(
    spec: MatchDistanceSpec, gt_box, labels, gt_img, det_box, probs, n_gt, n_det
) -> np.ndarray:
    """Column ``k - 1`` holds each ground truth's match under its image's
    first ``k`` detections, as an index into those detections.

    A running argmin over the first k columns that moves only on a strict
    ``<``, which is ``match()``'s lowest-index tie-break; columns past an
    image's last detection are +inf.
    """
    kind = spec.kind
    if kind == "giou":
        det_img = np.repeat(np.arange(len(n_det)), n_det)
        gt_area = (gt_box[2] - gt_box[0]) * (gt_box[3] - gt_box[1])
        det_area = (det_box[2] - det_box[0]) * (det_box[3] - det_box[1])
        if ((gt_area <= 0.0) & (n_det[gt_img] > 0)).any() or (
            (det_area <= 0.0) & (n_gt[det_img] > 0)
        ).any():
            raise ValueError("giou_distance requires boxes with positive area")
    det_start = np.concatenate(([0], np.cumsum(n_det)))
    width = int(n_det.max())
    cols = np.arange(width)
    best = np.zeros((len(labels), width), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for lo in range(0, len(labels), step):
        g = np.arange(lo, min(lo + step, len(labels)))
        valid = cols < n_det[gt_img[g]][:, None]
        d = np.where(valid, det_start[gt_img[g]][:, None] + cols, 0)
        lac = None
        if kind in ("lac", "mix"):
            cells = zip(d[valid].tolist(), np.broadcast_to(labels[g, None], d.shape)[valid].tolist())
            lac = np.zeros(d.shape)
            lac[valid] = 1.0 - np.array([probs[a][b] for a, b in cells], dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = _pair_distances(kind, spec.tau, gt_box[:, g, None], det_box[:, d], lac)
        dist = np.where(valid, dist, math.inf)
        moved = np.ones(dist.shape, dtype=bool)
        moved[:, 1:] = dist[:, 1:] < np.minimum.accumulate(dist, axis=1)[:, :-1]
        best[g] = np.maximum.accumulate(np.where(moved, cols, 0), axis=1)
    return best


def _sweep_rows(req: np.ndarray, n_det: np.ndarray):
    """Breakpoints of the downward confidence sweep and the rows it reaches.

    ``req`` holds ``1 - confidence`` of every detection, image by image.
    Equal values form one group; an image's group drops out at the next
    lower breakpoint of the whole set (or at 0), which moves the image to
    the prefix before the group. Returns ``(visit_lams, row_img, row_k,
    visit_end)``: the breakpoints in decreasing order, the image and prefix
    length of every row (full prefixes first, then in visit-then-image
    order) and, per visit, the number of rows reached by its end.
    """
    n = len(n_det)
    det_img = np.repeat(np.arange(n), n_det)
    values, group = np.unique(req, return_inverse=True)
    top = int(len(values) > 0 and values[-1] >= 1.0)
    tail = [0.0] if len(values) and values[0] > 0.0 else []
    visit_lams = [float(v) for v in values[::-1][top:]] + tail
    col = np.arange(len(req)) - np.concatenate(([0], np.cumsum(n_det)))[det_img]
    first = np.flatnonzero((col == 0) | (req != np.roll(req, 1)))
    pos = group[first]
    keep = (pos > 0) | bool(tail)
    ev_visit = (len(values) - top - pos)[keep]
    ev_img, ev_k = det_img[first][keep], col[first][keep]
    order = np.lexsort((ev_img, ev_visit))
    row_img = np.concatenate((np.arange(n), ev_img[order]))
    row_k = np.concatenate((n_det, ev_k[order]))
    visit_end = n + np.searchsorted(ev_visit[order], np.arange(len(visit_lams)), side="right")
    return visit_lams, row_img, row_k, visit_end.tolist()


class _PrefixKernel:
    """Matchings and loss requirements of every (image, prefix) a sweep visits.

    A row is one image at one selected prefix length; rows ``0..n-1`` are the
    full prefixes of images ``0..n-1`` and the rest follow in sweep order, so
    the rows reached by the end of visit ``v`` are the first
    ``visit_end[v]``. For every row with a detection and a ground truth there
    is one *entry* per ground truth, pointing at the (ground truth, matched
    detection) pair whose requirements on the second-step parameters it
    carries. The loss methods score the first ``rows`` rows at one parameter.
    """

    def __init__(self, samples: Sequence[ImageSample], config: CalibrationConfig) -> None:
        if config.lambda_loc_bounds is None:
            raise ValueError("config must have resolved lambda_loc_bounds")
        self.config = config
        n = self.n = len(samples)
        n_gt = np.array([len(s.ground_truths) for s in samples], dtype=np.int64)
        n_det = np.array([len(s.detections) for s in samples], dtype=np.int64)
        self._gt_start = np.concatenate(([0], np.cumsum(n_gt)))
        gt_img = np.repeat(np.arange(n), n_gt)
        det_img = np.repeat(np.arange(n), n_det)
        gt_box = _coords([box for s in samples for box, _ in s.ground_truths])
        labels = np.array([label for s in samples for _, label in s.ground_truths], dtype=np.int64)
        dets = [d for s in samples for d in s.detections]
        det_box = _coords([d.box for d in dets])
        probs = [d.probs for d in dets]
        _first_bad(~np.isfinite(gt_box).all(axis=0), gt_img, samples, "non-finite ground-truth box")
        _first_bad(~np.isfinite(det_box).all(axis=0), det_img, samples, "non-finite detection box")
        if probs:
            n_classes = len(probs[0])
            if any(len(p) != n_classes for p in probs):
                raise ValueError("all probability vectors must have the same length")
            _first_bad(
                ((labels < 0) | (labels >= n_classes)) & (n_det[gt_img] > 0),
                gt_img, samples, f"class label outside [0, {n_classes})",
            )

        self._best = _prefix_matches(
            config.match_spec, gt_box, labels, gt_img, det_box, probs, n_gt, n_det
        )
        req = 1.0 - np.array([d.confidence for d in dets], dtype=float)
        self.visit_lams, self.row_img, self.row_k, self.visit_end = _sweep_rows(req, n_det)
        self.n_rows = len(self.row_img)

        # Entries: (row, ground truth) for rows with a detection and a ground
        # truth, grouped by row in ground-truth order. Each points at its
        # (ground truth, matched detection) pair; a pair recurs in many rows,
        # so the requirements are computed once per distinct pair.
        row_gt = self._row_gt = n_gt[self.row_img]
        self._base = np.where(row_gt > 0, 1.0, 0.0)
        self._vrows = np.flatnonzero((self.row_k > 0) & (row_gt > 0))
        self._vgt = row_gt[self._vrows]
        self._vstart = np.concatenate(([0], np.cumsum(self._vgt)))
        owner = np.repeat(np.arange(len(self._vrows)), self._vgt)
        img = self.row_img[self._vrows][owner]
        eg = self._gt_start[img] + np.arange(len(owner)) - self._vstart[owner]
        det_start = np.concatenate(([0], np.cumsum(n_det)))
        ed = det_start[img] + self._best[eg, self.row_k[self._vrows][owner] - 1]
        stride = max(len(dets), 1)
        pairs, self._pair = np.unique(eg * stride + ed, return_inverse=True)
        pg, pd = np.divmod(pairs, stride)
        self._cutoff = _class_cutoffs(probs, pd, labels[pg], config.predset_spec.classification_kind)
        if config.loss_spec.localization_kind == "pixelwise":
            self._gt = gt_box[:, pg]
            self._det = det_box[:, pd]
            self._gt_area = (self._gt[2] - self._gt[0]) * (self._gt[3] - self._gt[1])
        else:
            self._loc_req = _margin_to_cover(
                gt_box[:, pg], det_box[:, pd], config.predset_spec.localization_kind
            )

    def assignment(self, i: int, k: int) -> tuple:
        """``match(gts, preds[:k])`` of image ``i``, read from the table."""
        lo, hi = self._gt_start[i], self._gt_start[i + 1]
        if k == 0:
            return tuple(None for _ in range(hi - lo))
        return tuple(self._best[lo:hi, k - 1].tolist())

    def conf_losses(self) -> np.ndarray:
        k = self.row_k
        n_gt = self._row_gt
        if self.config.loss_spec.confidence_kind == "box_count_threshold":
            loss = np.where(k >= n_gt, 0.0, 1.0)
        else:
            loss = np.maximum(0, n_gt - k) / np.maximum(n_gt, 1)
        return np.where(n_gt > 0, loss, 0.0)

    def _per_row(self, hits: np.ndarray, nv: int) -> np.ndarray:
        return np.add.reduceat(hits, self._vstart[:nv], dtype=np.int64)

    def loc_losses(self, lam: float, rows: int) -> np.ndarray:
        out = self._base[:rows].copy()
        nv = int(np.searchsorted(self._vrows, rows))
        if nv == 0:
            return out
        e = self._vstart[nv]
        n_gt = self._vgt[:nv]
        spec = self.config.loss_spec
        if spec.localization_kind == "pixelwise":
            # Sum column by column, in ground-truth order, as the scalar loss
            # does; numpy's pairwise sums would round differently.
            fractions = self._covered_fractions(lam)[self._pair[:e]]
            total = np.zeros(nv)
            starts = self._vstart[:nv]
            for j in range(int(n_gt.max())):
                have = np.flatnonzero(n_gt > j)
                total[have] += fractions[starts[have] + j]
            out[self._vrows[:nv]] = 1.0 - total / n_gt
            return out
        covered = self._per_row((lam >= self._loc_req)[self._pair[:e]], nv) / n_gt
        if spec.localization_kind == "boxwise":
            out[self._vrows[:nv]] = 1.0 - covered
        else:
            out[self._vrows[:nv]] = np.where(covered >= spec.localization_tau, 0.0, 1.0)
        return out

    def _covered_fractions(self, lam: float) -> np.ndarray:
        """Covered area fraction of each pair's ground truth at margin ``lam``."""
        gl, gtop, gr, gb = self._gt
        pl, ptop, pr, pb = self._det
        if self.config.predset_spec.localization_kind == "additive":
            dx = dy = lam
        else:
            dx = lam * (pr - pl)
            dy = lam * (pb - ptop)
        ml, mt, mr, mb = pl - dx, ptop - dy, pr + dx, pb + dy
        area = self._gt_area
        inside = (gl >= ml) & (gtop >= mt) & (gr <= mr) & (gb <= mb)
        # intersect(): a negative extent is the empty box, of area 0
        width = np.minimum(gr, mr) - np.maximum(gl, ml)
        height = np.minimum(gb, mb) - np.maximum(gtop, mt)
        inter = np.where((width < 0.0) | (height < 0.0), 0.0, width * height)
        return np.divide(inter, area, out=np.where(inside, 1.0, 0.0), where=area > 0.0)

    def cls_losses(self, lam: float, rows: int) -> np.ndarray:
        out = self._base[:rows].copy()
        nv = int(np.searchsorted(self._vrows, rows))
        if nv == 0:
            return out
        misses = self._per_row((lam < self._cutoff)[self._pair[: self._vstart[nv]]], nv)
        spec = self.config.loss_spec
        if spec.classification_aggregation == "max":
            out[self._vrows[:nv]] = np.where(misses > 0, 1.0, 0.0)
        elif spec.classification_aggregation == "average":
            out[self._vrows[:nv]] = misses / self._vgt[:nv]
        else:
            out[self._vrows[:nv]] = np.where(misses / self._vgt[:nv] > spec.aggregation_tau, 1.0, 0.0)
        return out


# --------------------------------------------------------------------------
# Step 1: confidence parameters
# --------------------------------------------------------------------------


def _sweep_confidence(kernel: _PrefixKernel):
    """Walk the confidence breakpoints downward and locate both stop points.

    Returns ``(lam_plus, lam_minus, trace)`` where the trace holds the
    monotonized combined risk at every visited breakpoint; the conservative
    parameter uses the worst-case correction for the unseen test loss, the
    optimistic one omits it. Exhausting the sweep returns the domain minimum
    0; failing already at the top returns the domain maximum 1, which carries
    no guarantee, and logs a warning when that happens to the conservative
    parameter (always the case when ``alpha_cnf * (n + 1) < 1`` with the
    correction on).

    The running sums take the per-row losses in visit order, image by image,
    so they are the same floats as summing the losses one call at a time.
    """
    cfg = kernel.config
    n = kernel.n
    alpha = cfg.alpha_cnf
    b_tilde = 1.0 if cfg.finite_sample_correction else 0.0
    rows = kernel.n_rows
    conf = kernel.conf_losses().tolist()
    loc = kernel.loc_losses(cfg.lambda_loc_bounds[1], rows).tolist()
    cls = kernel.cls_losses(cfg.lambda_cls_bounds[1], rows).tolist()
    row_img = kernel.row_img.tolist()

    l_cnf, l_loc, l_cls = conf[:n], loc[:n], cls[:n]
    s_cnf = sum(l_cnf)
    s_loc = sum(l_loc)
    s_cls = sum(l_cls)

    risk = max(s_cnf, s_loc, s_cls) / n
    trace = [(1.0, risk)]
    bound = alpha * (n + 1)
    lam_plus = 1.0 if n * risk + b_tilde > bound else None
    lam_minus = 1.0 if n * risk > bound else None
    if lam_plus is not None:
        log.warning(
            "the corrected step-1 constraint fails already at lambda_cnf = 1 "
            "(alpha_cnf=%r, n=%d, alpha_cnf*(n+1)=%.6g < n*risk + %g = %.6g): "
            "lambda_cnf_plus = 1.0 is returned but carries no guarantee",
            alpha, n, bound, b_tilde, n * risk + b_tilde,
        )

    prev = 1.0
    start = n
    for lam, end in zip(kernel.visit_lams, kernel.visit_end):
        if lam_plus is not None and lam_minus is not None:
            break
        for r in range(start, end):
            i = row_img[r]
            new = conf[r]
            s_cnf += new - l_cnf[i]
            l_cnf[i] = new
            new = loc[r]
            if new > l_loc[i]:
                s_loc += new - l_loc[i]
                l_loc[i] = new
            new = cls[r]
            if new > l_cls[i]:
                s_cls += new - l_cls[i]
                l_cls[i] = new
        start = end
        risk = max(s_cnf, s_loc, s_cls) / n
        if risk < trace[-1][1] - 1e-9:
            raise AssertionError("monotonized risk decreased along the confidence sweep")
        trace.append((lam, risk))
        if lam_plus is None and n * risk + b_tilde > bound:
            lam_plus = prev
        if lam_minus is None and n * risk > bound:
            lam_minus = prev
        prev = lam
    if lam_plus is None:
        lam_plus = 0.0
    if lam_minus is None:
        lam_minus = 0.0
    return lam_plus, lam_minus, trace


# --------------------------------------------------------------------------
# Step 2: localization / classification parameter
# --------------------------------------------------------------------------


def _second_step(kernel: _PrefixKernel, lambda_cnf_minus: float, task: str):
    """Binary search for the smallest feasible second-step parameter.

    Each candidate is scored with the monotonized risk: per image, the
    maximum of the task loss over the confidence breakpoints swept downward
    from 1 until the first breakpoint at or below ``lambda_cnf_minus``.
    Returns ``(parameter, risk_at_parameter)``.
    """
    cfg = kernel.config
    n = kernel.n
    if task == "loc":
        alpha = cfg.alpha_loc
        lo, hi = cfg.lambda_loc_bounds
        loss_at = kernel.loc_losses
    elif task == "cls":
        alpha = cfg.alpha_cls
        lo, hi = cfg.lambda_cls_bounds
        loss_at = kernel.cls_losses
    else:
        raise ValueError(f"unknown task {task!r}")
    b = 1.0 if cfg.finite_sample_correction else 0.0
    bound = alpha * (n + 1)

    rows = n
    for lam, end in zip(kernel.visit_lams, kernel.visit_end):
        rows = end
        if lam <= lambda_cnf_minus:
            break
    by_image = np.argsort(kernel.row_img[:rows], kind="stable")
    starts = np.searchsorted(kernel.row_img[:rows][by_image], np.arange(n))

    feasible = None
    feasible_risk = math.nan
    for _ in range(cfg.binary_search_steps):
        cand = (lo + hi) / 2.0
        losses = np.maximum.reduceat(loss_at(cand, rows)[by_image], starts)
        # Python's sum in image order; numpy's pairwise sum would round differently.
        risk = sum(losses.tolist()) / n
        if n * risk + b <= bound:
            feasible = cand
            feasible_risk = risk
            hi = cand
        else:
            lo = cand
    if feasible is None:
        raise InfeasibleRiskError(
            f"no feasible {task} parameter within "
            f"{cfg.binary_search_steps} search steps; "
            f"alpha_{task}={alpha} is too small for this data and loss"
        )
    return feasible, feasible_risk


# --------------------------------------------------------------------------
# Public entry points
# --------------------------------------------------------------------------


def _check_precondition(config: CalibrationConfig, n: int) -> None:
    floor = config.alpha_cnf + 1.0 / (n + 1)
    for name, value in (("alpha_loc", config.alpha_loc), ("alpha_cls", config.alpha_cls)):
        if value < floor:
            raise CalibrationPreconditionError(
                f"{name}={value} violates {name} >= alpha_cnf + 1/(n+1) "
                f"= {config.alpha_cnf} + 1/{n + 1} = {floor:.6g}"
            )


def seqcrc_step1(
    samples: Sequence[ImageSample], config: CalibrationConfig
) -> tuple[float, float]:
    """Calibrate the confidence parameters ``(conservative, optimistic)``.

    Both parameters satisfy the corrected combined-risk constraint at level
    ``alpha_cnf``, where the combined risk is the maximum of the confidence
    risk and the monotonized localization/classification risks evaluated at
    their loosest second-step parameters.

    When the constraint fails already at ``lambda_cnf = 1``, the top of the
    domain, that parameter is returned as 1.0 anyway and a warning is logged:
    it then carries no guarantee. With the finite-sample correction on this
    always happens when ``alpha_cnf * (n + 1) < 1``.
    """
    samples = tuple(samples)
    if not samples:
        raise ValueError("empty calibration set")
    config = resolve_config(config, samples)
    kernel = _PrefixKernel(samples, config)
    plus, minus, _ = _sweep_confidence(kernel)
    return plus, minus


def seqcrc_step2(
    samples: Sequence[ImageSample],
    lambda_cnf_minus: float,
    task: str,
    config: CalibrationConfig,
) -> float:
    """Calibrate the second-step parameter for ``task`` ("loc" or "cls")."""
    samples = tuple(samples)
    if not samples:
        raise ValueError("empty calibration set")
    config = resolve_config(config, samples)
    kernel = _PrefixKernel(samples, config)
    lam, _ = _second_step(kernel, lambda_cnf_minus, task)
    return lam


def calibrate(
    samples: Sequence[ImageSample], config: CalibrationConfig
) -> CalibrationResult:
    """Run the full two-step calibration and package the result.

    Deterministic given identical inputs. Raises
    ``CalibrationPreconditionError`` when the error levels cannot carry the
    guarantee, and ``InfeasibleRiskError`` when a second-step search finds no
    feasible parameter. A first step that fails already at the top of its
    domain returns ``lambda_cnf_plus = 1.0`` with a logged warning, as in
    ``seqcrc_step1``.
    """
    samples = tuple(samples)
    n = len(samples)
    if n == 0:
        raise ValueError("empty calibration set")
    config = resolve_config(config, samples)
    _check_precondition(config, n)
    kernel = _PrefixKernel(samples, config)
    plus, minus, trace = _sweep_confidence(kernel)
    lam_loc, loc_risk = _second_step(kernel, minus, "loc")
    lam_cls, cls_risk = _second_step(kernel, minus, "cls")
    cnf_risk = next((r for lam, r in reversed(trace) if lam >= plus), trace[0][1])
    diagnostics = {
        "cnf_monotonized_risk": cnf_risk,
        "loc_monotonized_risk": loc_risk,
        "cls_monotonized_risk": cls_risk,
        "n_confidence_breakpoints": float(len(kernel.visit_lams)),
    }
    return CalibrationResult(
        lambda_cnf_plus=plus,
        lambda_cnf_minus=minus,
        lambda_loc_plus=lam_loc,
        lambda_cls_plus=lam_cls,
        config=config,
        n_calibration=n,
        diagnostics=diagnostics,
    )
