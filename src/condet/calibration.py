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

Both steps run on one array kernel, ``_PrefixKernel``, built once per call
from a ``_SampleTable``, the calibration set as arrays (``condet calibrate``
reads its dataset file straight into one, and each Monte Carlo trial builds
its tables from the generator's arrays; ``evaluate`` scores a test set's
table with the same array code):

* **Prefix matchings.** A confidence threshold always keeps a prefix of an
  image's detections (they are stored by descending confidence). All ground
  truths of all images form the rows of one (ground truth x detection)
  distance array, padded with +inf past each image's last detection. A
  ground truth's match under prefix k is a running argmin over the first k
  columns that takes a new column only on a strict ``<``, which is
  ``match()``'s lowest-index tie-break, so every prefix is matched at once.
* **States.** The sweep moves each image through shorter and shorter
  prefixes. A run of prefixes with one matching is one *state*; its losses
  at any second-step parameter are the same at every prefix of the run. The
  kernel lists each image's states in the order the sweep enters them, from
  its full prefix, and records each state's prefix length (the run's
  longest) and *entry visit*, the sweep visit at which the image enters it.
  A state with a detection and a ground truth has one *entry* per ground
  truth. For each entry the kernel gathers what the matched detection
  requires: the smallest margin that covers the ground truth
  (``margin_to_cover``), the smallest label-set parameter that contains its
  class (``class_miss_cutoff``; APS as a sequential ``cumsum`` of the values
  ahead of the label, sorted by value) and the matched box. These are
  computed once per distinct (ground truth, matched detection) pair, found
  by marking the pairs' cells of the matching table. A classification loss
  at any parameter is then a comparison against the cutoffs; a localization
  loss is the containment or covered-area test on the matched boxes; a
  state's count of missed or covered ground truths is one segment sum over
  its entries.
* **The confidence cut** (``_PrefixKernel.visit_at``). A confidence
  parameter ``lam`` holds the state of the first visit whose breakpoint is
  ``<= lam``, or the full prefixes for ``lam >= 1`` (visit -1). It reaches
  every state the sweep passes through on ``[lam, 1]``: each image's states
  entered at or before that visit, a leading run of its list. At
  ``lambda_cnf_minus = 1`` step 2 therefore sees the full prefixes alone.
* **Step 1** searches each task's monotonized losses at the loosest
  second-step parameters as functions of the visit. For ``loc`` and ``cls``
  that is each image's running maximum along its states, read at the state
  the visit holds. The confidence loss depends on the prefix length alone
  and never falls as the prefix shrinks, so its running maximum is its value
  at the image's current prefix length. Every task's risk therefore never
  decreases as the parameter falls, and each stop point is the largest of
  the tasks' smallest admitted parameters.
* **Step 2** returns the smallest feasible parameter (Conformal Risk
  Control), each image's loss maximized over the states
  ``lambda_cnf_minus`` reaches. Those states and their entries are
  compacted once (``_PrefixKernel.reach``). The losses change only where a
  ground truth becomes covered, so the candidates are the domain ends and
  the requirements of the reached entries; the pixelwise loss changes
  continuously and uses the fixed grid ``lo + (hi - lo) * j / 2**32``,
  ``j = 1 .. 2**32``. Each candidate scores the reached entries and takes
  each image's maximum over its reached states with one
  ``np.maximum.reduceat``.
* **One search finds every parameter.** ``crc_calibrate``, both of step 1's
  stop points (over ``0``, ``1`` and the breakpoints) and both step-2 tasks
  bisect over the indices of their sorted candidates
  (``_smallest_admitted``), exact because every risk is monotone. The
  candidates are sorted once per domain (``_candidates``): step 1 sorts
  ``0``, ``1`` and the breakpoints once, and each of its task searches reads
  the slice from the previous task's parameter on.
* **One exact test decides every constraint.** ``_admits`` takes the losses
  themselves and returns the exact truth of ``sum(L) + B <= alpha * (n + 1)``,
  ``alpha`` read as the rational it holds, for ``crc_calibrate``'s floor and
  search, both of step 1's stop points and step 2. No decision depends on
  the order of the images or on how a sum rounds. The reported risks are
  ``math.fsum(L) / n``, the same floats in every order.
* **Coverage in floats.** A ground truth is covered when
  ``contains(apply_margin(box, lam), gt)`` holds, computed with the same
  operations, so the kernel agrees with ``evaluate`` and ``infer`` at every
  parameter. ``margin_to_cover`` is the covering margin only in exact
  arithmetic: rounded, it can fall short of a float at which that test
  holds, or sit a few ulps above the first such float. One that falls short
  is raised to the first float at which the test holds before it becomes a
  candidate; one at which it holds is kept. Step 2 therefore returns the
  smallest feasible tabulated requirement, which can lie a few ulps above
  the smallest feasible float; a larger parameter only lowers each loss, so
  the guarantee holds at it.

The kernel's array arithmetic runs under ``np.errstate(over="ignore",
invalid="ignore")``: a box coordinate near the float limit overflows to an
infinite margin, area or span, and ``0 * inf`` gives NaN, silently, as in the
scalar code of ``predsets`` and ``losses`` that it mirrors.

Each image's losses are the same floats as evaluating it alone: every loss
is computed with the same operations (pixelwise coverage summed ground truth
by ground truth, as the scalar loss does). The guarantee is about the
returned parameters, and a last-ulp change in one loss can move a parameter
across a feasibility boundary. No sum of losses needs an order.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from operator import attrgetter, getitem
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
        if not all(map(math.isfinite, self.thresholds + self.values)):
            raise ValueError("thresholds and values must be finite")
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

    The candidate ``lam`` is feasible when the losses satisfy
    ``sum_i L_i(lam) + loss_bound <= alpha * (n + 1)``, decided exactly
    (``_admits``). Since the curves are step functions, the infimum is
    attained at a curve breakpoint or at the domain minimum; the search
    therefore only visits those points.

    Raises
    ------
    ValueError
        For an empty set, ``alpha`` outside (0, 1), a ``loss_bound`` that is
        not a finite number >= 0, a non-finite domain or one with
        ``lo > hi``, and a curve with a value outside ``[0, loss_bound]``
        (``_admits``' decision is exact for non-negative losses only).
    InfeasibleRiskError
        When ``alpha < loss_bound/(n+1)`` (no parameter can ever satisfy the
        constraint) or when no candidate in the domain is feasible.
    """
    n = len(loss_curves)
    if n == 0:
        raise ValueError("empty calibration set")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= loss_bound < math.inf:
        raise ValueError(f"loss_bound must be a finite number >= 0, got {loss_bound}")
    lo, hi = lambda_domain
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"invalid domain ({lo}, {hi})")
    if any(curve.values[0] > loss_bound or curve.values[-1] < 0.0 for curve in loss_curves):
        raise ValueError(
            f"every loss must lie in [0, loss_bound]: at least 0 and at most loss_bound={loss_bound}"
        )
    if not _admits((), n, alpha, loss_bound):
        raise InfeasibleRiskError(
            f"alpha={alpha} is below the finite-sample floor "
            f"{loss_bound}/(n+1)={loss_bound / (n + 1):.6g}"
        )
    return _smallest_admitted(
        _candidates([t for curve in loss_curves for t in curve.thresholds], lo, hi), lo, hi,
        lambda lam: [curve.value_at(lam) for curve in loss_curves],
        n, alpha, loss_bound,
        "no feasible parameter in the domain; loss curves do not vanish at the upper endpoint",
    )[0]


def _admits(values, n: int, alpha: float, b: float) -> bool:
    """Conformal Risk Control's test ``sum(values) + b <= alpha * (n + 1)``
    of the losses ``values`` of ``n`` samples, each at most ``b``, decided
    exactly: ``alpha`` is read as the rational it holds, and the answer does
    not depend on the order of ``values``. A NaN loss is refused.

    Every constraint of this module is decided here, in two steps:

    * The float test ``t <= bound`` (``t`` the float sum plus ``b``) is
      exact when the two are further apart than their errors. Summing ``m``
      non-negative floats in any order errs by less than
      ``(m - 1) * 2**-53 / (1 - (m - 1) * 2**-53)`` of the sum, adding
      ``b`` and rounding ``alpha * (n + 1)`` by ``2**-53`` more each; the
      band ``(m + 4) * 2**-52 * (t + bound)`` is over twice that, which
      also covers the rounding of the test itself.
    * Inside the band, ``P = alpha * (n + 1)`` is split into the floats
      ``hi = float(P)`` and ``lo = float(P - hi)``, which sum to ``P``
      exactly while ``n + 1 < 2**53``: ``P - hi`` is a multiple of
      ``alpha``'s last bit, at most half of ``hi``'s, so it fits in 53 bits.
      The exact sum of ``values``, ``b``, ``-hi`` and ``-lo`` is a multiple
      of ``2**-1074``, so it is 0 or at least that in size, and
      ``math.fsum``, correctly rounded, keeps its sign.
    """
    t = float(np.add.reduce(values)) + b
    bound = alpha * (n + 1)
    if abs(t - bound) > (len(values) + 4) * 2.0**-52 * (t + bound):
        return t <= bound
    p = Fraction(alpha) * (n + 1)
    hi = float(p)
    return math.fsum([*values, b, -hi, -float(p - Fraction(hi))]) <= 0.0


def _candidates(points, lo: float, hi: float) -> np.ndarray:
    """``lo``, ``hi`` and the ``points`` in ``(lo, hi]``, sorted, each once."""
    points = np.asarray(points, dtype=float)
    # np.unique's sort and dedupe, without the numpy.ma import it makes.
    cands = np.sort(np.concatenate(([lo, hi], points[(points > lo) & (points <= hi)])))
    return cands[np.concatenate(([True], cands[1:] != cands[:-1]))]


def _smallest_admitted(cands: Optional[np.ndarray], lo: float, hi: float, losses_at, n: int,
                       alpha: float, b: float, failure: str) -> tuple[float, object]:
    """The smallest candidate parameter whose losses ``losses_at(lam)`` pass
    ``_admits``, and those losses.

    The candidates are the sorted distinct ``cands`` (``_candidates``), or,
    when ``cands`` is None, the grid ``lo + (hi - lo) * j / 2**_GRID_BITS``,
    ``j = 1 .. 2**_GRID_BITS``, indexed without being built. Every summed
    loss here is non-increasing in its parameter, so the admitted candidates
    are the ones from some index on, and a bisection over the indices finds
    the first with about ``log2(count)`` tests, each reading one candidate.
    Raises ``InfeasibleRiskError(failure)`` when no candidate is admitted.
    """
    if cands is None:
        count = 1 << _GRID_BITS

        def value(j: int) -> float:
            return lo + (hi - lo) * ((j + 1) / count)
    else:
        count, value = len(cands), cands.item
    first, last, losses = 0, count, None
    while first < last:
        mid = (first + last) // 2
        at = losses_at(value(mid))
        if _admits(at, n, alpha, b):
            last, losses = mid, at
        else:
            first = mid + 1
    if losses is None:
        raise InfeasibleRiskError(failure)
    return value(last), losses


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
    prefilter_threshold: float = 1e-3
    finite_sample_correction: bool = True

    def __post_init__(self) -> None:
        for name in ("alpha_cnf", "alpha_loc", "alpha_cls"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not 0.0 <= self.prefilter_threshold <= 1.0:
            raise ValueError(
                f"prefilter_threshold must lie in [0, 1], got {self.prefilter_threshold}"
            )
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
    diagnostics: dict[str, float]

    def __post_init__(self) -> None:
        if self.lambda_cnf_minus > self.lambda_cnf_plus:
            raise ValueError(
                "optimistic confidence parameter exceeds the conservative one"
            )
        lams = (self.lambda_cnf_plus, self.lambda_cnf_minus, self.lambda_loc_plus,
                self.lambda_cls_plus)
        if not all(map(math.isfinite, lams)):
            raise ValueError(f"every lambda must be finite, got {lams}")
        if self.lambda_cnf_minus < 0.0 or self.lambda_cnf_plus > 1.0:
            raise ValueError(
                "confidence parameters must satisfy 0 <= lambda_cnf_minus and "
                f"lambda_cnf_plus <= 1, got {self.lambda_cnf_minus} and {self.lambda_cnf_plus}"
            )
        if self.lambda_loc_plus < 0.0:
            raise ValueError(f"lambda_loc_plus must be >= 0, got {self.lambda_loc_plus}")
        if not 0.0 <= self.lambda_cls_plus <= 1.0:
            raise ValueError(f"lambda_cls_plus must lie in [0, 1], got {self.lambda_cls_plus}")
        if self.n_calibration < 1:
            raise ValueError(f"n_calibration must be >= 1, got {self.n_calibration}")
        for name, lam, bounds in (("loc", self.lambda_loc_plus, self.config.lambda_loc_bounds),
                                  ("cls", self.lambda_cls_plus, self.config.lambda_cls_bounds)):
            if bounds is not None and not bounds[0] <= lam <= bounds[1]:
                raise ValueError(
                    f"lambda_{name}_plus must lie in lambda_{name}_bounds {list(bounds)}, got {lam}"
                )
        if not all(map(math.isfinite, self.diagnostics.values())):
            raise ValueError(f"every diagnostic must be finite, got {self.diagnostics}")


def default_lambda_loc_bounds(
    samples: Sequence[ImageSample], localization_kind: str
) -> tuple[float, float]:
    """Data-derived search interval for the localization parameter.

    For additive margins the upper bound is the coordinate span of the data
    plus one pixel, which is enough for any matched box to cover any ground
    truth; for multiplicative margins a fixed 3.0 (triple-size expansion per
    side) covers every practically relevant correction.
    """
    boxes = [box for s in samples for box, _ in s.ground_truths]
    boxes.extend(d.box for s in samples for d in s.detections)
    return _loc_bounds(_coords(boxes), localization_kind)


# --------------------------------------------------------------------------
# Prefix kernel
# --------------------------------------------------------------------------

#: Cells per block of the (ground truth x detection) distance array and of
#: the APS probability table; blocks keep the temporaries small however many
#: ground truths, detections or classes there are.
_BLOCK_CELLS = 1 << 14

_CORNERS = attrgetter("left", "top", "right", "bottom")

#: The pixelwise second-step candidates form a fixed grid of 2**_GRID_BITS
#: steps over the parameter's domain.
_GRID_BITS = 32


def _coords(boxes: list) -> np.ndarray:
    """``(4, m)`` array of left, top, right and bottom coordinates."""
    flat = np.fromiter(chain.from_iterable(map(_CORNERS, boxes)), dtype=float, count=4 * len(boxes))
    return flat.reshape(-1, 4).T


def _loc_bounds(coords: np.ndarray, localization_kind: str) -> tuple[float, float]:
    """``default_lambda_loc_bounds`` of the boxes whose ``_coords`` are ``coords``."""
    if localization_kind == "multiplicative":
        return (0.0, 3.0)
    span = float(np.max(coords[2:], initial=0.0)) - float(np.min(coords[:2], initial=0.0))
    if not math.isfinite(span):
        raise ValueError("calibration boxes must have finite coordinates")
    return (0.0, span + 1.0)


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


def _margined(det, lam, kind: str) -> tuple:
    """``predsets.apply_margin`` on arrays of coordinates (the same operations)."""
    pl, ptop, pr, pb = det
    if kind == "additive":
        dx = dy = lam
    else:
        dx = lam * (pr - pl)
        dy = lam * (pb - ptop)
    return pl - dx, ptop - dy, pr + dx, pb + dy


def _contains(outer, inner) -> np.ndarray:
    """``geometry.contains`` on arrays of coordinates."""
    ol, otop, orr, ob = outer
    il, itop, ir, ib = inner
    return (il >= ol) & (itop >= otop) & (ir <= orr) & (ib <= ob)


def _covering_margins(gt, det, kind: str) -> np.ndarray:
    """``margin_to_cover`` of each pair, every finite non-negative value at
    which the margined box does not contain the ground truth raised to the
    first float at which it does. A value at which it does is kept, though a
    lower float may do too.

    ``margin_to_cover`` is that margin in exact arithmetic, but its rounded
    subtraction or division can land an ulp or so either side of it.
    """
    need = _margin_to_cover(gt, det, kind)
    short = np.flatnonzero(np.isfinite(need) & (need >= 0.0))
    while len(short):
        short = short[~_contains(_margined(det[:, short], need[short], kind), gt[:, short])]
        need[short] = np.nextafter(need[short], math.inf)
    return need


def _gather_probs(probs, dets: np.ndarray, classes=None) -> np.ndarray:
    """``probs[d][c]`` for each detection ``d`` in ``dets`` and the class
    ``c`` beside it in ``classes``, or each whole vector (one row per
    detection) when ``classes`` is None. ``probs`` is a table's: a float64
    matrix is indexed, one vector per detection is read entry by entry."""
    if isinstance(probs, np.ndarray):
        return probs[dets] if classes is None else probs[dets, classes]
    if classes is None:
        k = len(probs[dets[0]]) if len(dets) else 0
        rows = chain.from_iterable(map(probs.__getitem__, dets.tolist()))
        return np.fromiter(rows, dtype=float, count=len(dets) * k).reshape(len(dets), k)
    return np.fromiter(map(getitem, map(probs.__getitem__, dets.tolist()), classes.tolist()),
                       dtype=float, count=len(dets))


def _class_cutoffs(gather, k: int, dets: np.ndarray, labels: np.ndarray, kind: str) -> np.ndarray:
    """``predsets.class_miss_cutoff`` of each (detection, label) pair, with
    ``gather`` reading the ``k``-class probabilities (``_gather_probs``).

    APS sums the probabilities of the classes ahead of the label (larger, or
    equal with a lower index) in descending order with a sequential
    ``cumsum``, as the scalar version does, and caps the result at 1 as it
    does. The other classes are set to 0 and each row is sorted by value:
    equal values give the same partial sums in any order, and the trailing
    zeros add nothing, so no stable argsort is needed.
    """
    if kind == "lac":
        return 1.0 - gather(dets, labels)
    out = np.empty(len(dets))
    step = max(1, _BLOCK_CELLS // k)
    cols = np.arange(k)
    for lo in range(0, len(dets), step):
        table = gather(dets[lo : lo + step])
        label = labels[lo : lo + step, None]
        own = np.take_along_axis(table, label, axis=1)
        table[~((table > own) | ((table == own) & (cols < label)))] = 0.0
        table.sort(axis=1)
        out[lo : lo + step] = np.cumsum(table[:, ::-1], axis=1)[:, -1]
    return np.minimum(out, 1.0)


def _prefix_matches(
    spec: MatchDistanceSpec, gt_box, labels, gt_img, det_box, gather, n_det, det_start
) -> tuple[np.ndarray, np.ndarray]:
    """``(best, moves)``: column ``k - 1`` of ``best`` holds each ground
    truth's match under its image's first ``k`` detections, as an index into
    those detections; ``moves[i * width + j]`` (``width`` the columns of
    ``best``) marks that a ground truth of image ``i`` takes column ``j``,
    so image ``i``'s matchings under ``k`` and ``k' > k`` detections are
    equal exactly when none of ``moves[i * width + k : i * width + k']`` is
    set. ``gather`` reads the probabilities the LAC distances need
    (``_gather_probs``).

    A running argmin over the first k columns that moves only on a strict
    ``<``, which is ``match()``'s lowest-index tie-break; columns past an
    image's last detection are +inf, and so are NaN distances past the
    first column.
    """
    kind = spec.kind
    width = int(n_det.max())
    cols = np.arange(width)
    best = np.zeros((len(labels), width), dtype=np.int64)
    moves = np.zeros(len(n_det) * width, dtype=bool)
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for lo in range(0, len(labels), step):
        g = np.arange(lo, min(lo + step, len(labels)))
        valid = cols < n_det[gt_img[g]][:, None]
        d = np.where(valid, det_start[gt_img[g]][:, None] + cols, 0)
        lac = None
        if kind in ("lac", "mix"):
            lac = np.zeros(d.shape)
            lac[valid] = 1.0 - gather(d[valid], np.broadcast_to(labels[g, None], d.shape)[valid])
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = _pair_distances(kind, spec.tau, gt_box[:, g, None], det_box[:, d], lac)
        if kind in ("giou", "mix"):
            # A NaN distance (of overflowing coordinates) never takes a
            # column, as in match(); one in column 0 keeps the running
            # minimum NaN, so no later column moves. The other kinds give
            # no NaN.
            valid &= (cols == 0) | ~np.isnan(dist)
        dist = np.where(valid, dist, math.inf)
        moved = np.ones(dist.shape, dtype=bool)
        moved[:, 1:] = dist[:, 1:] < np.minimum.accumulate(dist, axis=1)[:, :-1]
        best[g] = np.maximum.accumulate(np.where(moved, cols, 0), axis=1)
        at, col = np.nonzero(moved)
        moves[gt_img[lo + at] * width + col] = True
    return best, moves


def _check_giou_areas(gt_box, gt_img, det_box, det_img, n_gt, n_det) -> None:
    """GIoU divides by areas: raise ``ValueError`` unless each ground truth
    (of image ``gt_img``) and each detection (of image ``det_img``) in an
    image with boxes of the other kind (``n_det``, ``n_gt`` per image) has a
    positive area, as ``giou_distance`` would."""
    for box, others in ((gt_box, n_det[gt_img]), (det_box, n_gt[det_img])):
        if (((box[2] - box[0]) * (box[3] - box[1]) <= 0.0) & (others > 0)).any():
            raise ValueError("giou_distance requires boxes with positive area")


def _sweep_rows(req: np.ndarray, n_det: np.ndarray, det_img: np.ndarray, det_start: np.ndarray):
    """Breakpoints of the downward confidence sweep and the prefixes it moves
    each image through.

    ``req`` holds ``1 - confidence`` of every detection, image by image.
    Equal values form one group; an image's group drops out at the next
    lower breakpoint of the whole set (or at 0), which moves the image to
    the prefix before the group. Returns ``(visit_lams, drop, row_img,
    row_k, row_visit)``: the breakpoints in decreasing order, the visit at
    which each detection drops out (``len(visit_lams)`` for one that never
    does) and one row per prefix the sweep moves an image to, image by image
    and each image's in visit order: its image, its prefix length and its
    visit, -1 for the full prefix.
    """
    n = len(n_det)
    values, group = np.unique(req, return_inverse=True)
    top = int(len(values) > 0 and values[-1] >= 1.0)
    tail = [0.0] if len(values) and values[0] > 0.0 else []
    visit_lams = values[::-1][top:].tolist() + tail
    drop = len(values) - top - group
    col = np.arange(len(req)) - det_start[det_img]
    first = np.flatnonzero((col == 0) | (req != np.roll(req, 1)))
    first = first[drop[first] < len(visit_lams)]
    # Image i's rows start at start[i] with its full prefix; its groups
    # follow last group first, as the sweep drops them.
    img = det_img[first]
    count = np.bincount(img, minlength=n) + 1
    start = np.cumsum(count) - count
    at = 2 * start[img] - img + count[img] - 1 - np.arange(len(first))
    row_k = np.empty(count.sum(), dtype=np.int64)
    row_visit = np.empty_like(row_k)
    row_k[start], row_k[at] = n_det, col[first]
    row_visit[start], row_visit[at] = -1, drop[first]
    return visit_lams, drop, np.repeat(np.arange(n), count), row_k, row_visit


@dataclass(frozen=True, eq=False)
class _SampleTable:
    """A calibration or test set as arrays: what the kernel and
    ``evaluate`` read of its samples.

    Image ``i``'s ground truths are entries ``gt_start[i]:gt_start[i + 1]``
    of ``gt_box`` (``(4, m)`` left, top, right and bottom coordinates) and
    ``labels``; its detections are entries ``det_start[i]:det_start[i + 1]``
    of ``det_box``, ``req`` (``1 - confidence``) and ``probs``, prefiltered
    and in the order ``ImageSample`` keeps them (a stable sort by descending
    confidence). ``probs`` is an ``(n_det, k)`` float64 matrix for ``k``
    classes in a table built from arrays (``from_arrays``: a dataset file
    read in bulk, a Monte Carlo trial's draws), and one probability vector
    per detection in a table of samples (``from_samples``): a matrix built
    from the vectors would cost as much as a whole ``calibrate`` on
    ``dense``, while the kernel reads only the rows of the pairs it scores.
    """

    image_ids: tuple[str, ...]
    gt_start: np.ndarray
    det_start: np.ndarray
    gt_box: np.ndarray
    labels: np.ndarray
    det_box: np.ndarray
    req: np.ndarray
    probs: object

    @property
    def n(self) -> int:
        return len(self.image_ids)

    @classmethod
    def from_samples(cls, samples: Sequence[ImageSample],
                     prefixes: Optional[Sequence[int]] = None) -> "_SampleTable":
        """The table of ``samples``, which are valid by construction, keeping
        the first ``prefixes[i]`` detections of sample ``i`` (all of them
        when ``prefixes`` is None); raises ``ValueError`` when the images'
        probability vectors differ in length, kept detections or not."""
        samples = tuple(samples)
        if prefixes is None:
            prefixes = [len(s.detections) for s in samples]
        n_gt = np.array([len(s.ground_truths) for s in samples], dtype=np.int64)
        n_det = np.array(prefixes, dtype=np.int64)
        dets = [d for s, k in zip(samples, prefixes) for d in s.detections[:k]]
        lengths = {len(s.detections[0].probs) for s in samples if s.detections}
        if len(lengths) > 1:
            raise ValueError("all probability vectors must have the same length")
        return cls(
            image_ids=tuple(s.image_id for s in samples),
            gt_start=np.concatenate(([0], np.cumsum(n_gt))),
            det_start=np.concatenate(([0], np.cumsum(n_det))),
            gt_box=_coords([box for s in samples for box, _ in s.ground_truths]),
            labels=np.array([label for s in samples for _, label in s.ground_truths], dtype=np.int64),
            det_box=_coords([d.box for d in dets]),
            req=1.0 - np.array([d.confidence for d in dets], dtype=float),
            probs=[d.probs for d in dets],
        )

    @classmethod
    def from_arrays(cls, image_ids: Sequence[str], n_gt: np.ndarray, gt_box: np.ndarray,
                    labels: Sequence[int], n_det: np.ndarray, det_box: np.ndarray,
                    confidence: np.ndarray, probs: np.ndarray, floor: float) -> "_SampleTable":
        """The table of valid images given as arrays, without the detections
        whose confidence is below ``floor``.

        Image ``i`` has the next ``n_gt[i]`` rows of ``gt_box`` (``(m, 4)``
        corner rows) and ``labels``, and the next ``n_det[i]`` rows of
        ``det_box``, ``confidence`` and ``probs`` (``(d, k)``), in any
        order: the kept ones are put in ``ImageSample``'s order, by image,
        then a stable sort by descending confidence."""
        det_img = np.repeat(np.arange(len(image_ids)), n_det)
        kept = np.flatnonzero(confidence >= floor)
        kept = kept[np.lexsort((-confidence[kept], det_img[kept]))]
        n_kept = np.bincount(det_img[kept], minlength=len(image_ids))
        return cls(
            image_ids=tuple(image_ids),
            gt_start=np.concatenate(([0], np.cumsum(n_gt))),
            det_start=np.concatenate(([0], np.cumsum(n_kept))),
            gt_box=gt_box.T,
            labels=np.array(labels, dtype=np.int64),
            det_box=det_box[kept].T,
            req=1.0 - confidence[kept],
            probs=probs[kept],
        )

    def split(self, i: int) -> tuple["_SampleTable", "_SampleTable"]:
        """The tables of the first ``i`` images and of the rest."""
        g, d = self.gt_start[i], self.det_start[i]
        head = _SampleTable(
            self.image_ids[:i], self.gt_start[: i + 1], self.det_start[: i + 1], self.gt_box[:, :g],
            self.labels[:g], self.det_box[:, :d], self.req[:d], self.probs[:d],
        )
        tail = _SampleTable(
            self.image_ids[i:], self.gt_start[i:] - g, self.det_start[i:] - d, self.gt_box[:, g:],
            self.labels[g:], self.det_box[:, d:], self.req[d:], self.probs[d:],
        )
        return head, tail

    @classmethod
    def concat(cls, tables: Sequence["_SampleTable"]) -> "_SampleTable":
        """The images of the non-empty sequence ``tables`` of tables with
        probability matrices of one width, in order, as one table."""
        def offsets(name: str) -> np.ndarray:
            counts = np.concatenate([np.diff(getattr(t, name)) for t in tables])
            return np.concatenate(([0], np.cumsum(counts)))

        return cls(
            image_ids=tuple(i for t in tables for i in t.image_ids),
            gt_start=offsets("gt_start"),
            det_start=offsets("det_start"),
            gt_box=np.concatenate([t.gt_box for t in tables], axis=1),
            labels=np.concatenate([t.labels for t in tables]),
            det_box=np.concatenate([t.det_box for t in tables], axis=1),
            req=np.concatenate([t.req for t in tables]),
            probs=np.concatenate([t.probs for t in tables]),
        )


class _PrefixKernel:
    """Matchings and loss requirements of every state a sweep visits.

    A state is one image at a run of prefixes with one matching (the module
    docstring's "States"). States are numbered image by image, each image's
    in visit order from its full prefix: state ``s`` is image ``_img[s]`` at
    prefix length ``_k[s]``, the run's longest, entered at visit
    ``_visit[s]`` (-1 for the full prefix). A state with a detection and a
    ground truth has ``_count[s]`` entries, one per ground truth, in state
    then ground-truth order; each points at the (ground truth, matched
    detection) pair (``_pair``) whose requirements on the second-step
    parameters it carries. ``reach`` compacts the states of one confidence
    parameter for scoring. Every loss lies in [0, 1], so ``loss_bound``,
    Conformal Risk Control's ``B``, is 1, or 0 when the config disables the
    finite-sample correction.

    The constructor reads the calibration set from its table alone and fills
    in ``lambda_loc_bounds`` when the config leaves them to the data
    (``default_lambda_loc_bounds``' rule). The table holds valid samples
    (``ImageSample``'s rule); the constructor raises ``ValueError`` for an
    empty set and otherwise checks only what depends on the config: GIoU's
    positive areas and a coordinate span within the float range.
    """

    def __init__(self, table: _SampleTable, config: CalibrationConfig) -> None:
        n = self.n = table.n
        if not n:
            raise ValueError("empty calibration set")
        self._gt_start, det_start = table.gt_start, table.det_start
        n_gt, n_det = np.diff(self._gt_start), np.diff(det_start)
        gt_img = np.repeat(np.arange(n), n_gt)
        det_img = np.repeat(np.arange(n), n_det)
        gt_box, labels, det_box, req = table.gt_box, table.labels, table.det_box, table.req
        gather = partial(_gather_probs, table.probs)
        if config.match_spec.kind == "giou":
            _check_giou_areas(gt_box, gt_img, det_box, det_img, n_gt, n_det)
        if config.lambda_loc_bounds is None:
            bounds = _loc_bounds(
                np.concatenate((gt_box, det_box), axis=1), config.predset_spec.localization_kind
            )
            config = replace(config, lambda_loc_bounds=bounds)
        self.config = config
        self.loss_bound = 1.0 if config.finite_sample_correction else 0.0

        self._best, moves = _prefix_matches(
            config.match_spec, gt_box, labels, gt_img, det_box, gather, n_det, det_start
        )
        self.visit_lams, drop, row_img, row_k, row_visit = _sweep_rows(req, n_det, det_img, det_start)
        visits = len(self.visit_lams)
        # The breakpoints ascending: step 1's candidates and visit_at's index.
        self.lams = np.array(self.visit_lams[::-1], dtype=float)
        # Sorted search keys, image by image, in [_image_key[i], _image_key[i]
        # + visits + 1]: a state's grows with its entry visit, a detection's
        # with how early it drops out.
        self._image_key = np.arange(n) * (visits + 2)
        self._det_key = self._image_key[det_img] + visits + 1 - drop
        self._det_start, self._n_gt = det_start, n_gt

        # Consecutive rows of one image have the same matching, and so the
        # same losses, when no ground truth takes a column between their
        # prefix lengths, that is when the running count of the moves before
        # their cells is equal. A matching never recurs once it changes, as
        # the prefixes only shrink, so each run of equal matchings is one
        # state, entered at its first row.
        width = self._best.shape[1]
        count = np.concatenate(([0], np.cumsum(moves)))[row_img * width + row_k]
        new = row_visit < 0
        new[1:] |= count[1:] != count[:-1]
        self._img, self._k, self._visit = row_img[new], row_k[new], row_visit[new]
        self._state_key = self._image_key[self._img] + self._visit + 1

        # Entries: one per ground truth of each state with a detection and a
        # ground truth. Each points at its (ground truth, matched detection)
        # pair; a pair recurs in many states, so the requirements are
        # computed once per distinct pair.
        self._count = np.where(self._k > 0, n_gt[self._img], 0)
        owner = np.repeat(np.arange(len(self._k)), self._count)
        first = np.cumsum(self._count) - self._count
        eg = self._gt_start[self._img[owner]] + np.arange(len(owner)) - first[owner]
        # A pair's id is its ground truth and matched column in ``_best``;
        # marking the ids finds the distinct pairs in ascending order.
        ids = eg * width + self._best[eg, self._k[owner] - 1]
        seen = np.zeros(len(labels) * width, dtype=bool)
        seen[ids] = True
        pg, col = np.divmod(np.flatnonzero(seen), width)
        self._pair = (np.cumsum(seen) - 1)[ids]
        pd = det_start[gt_img[pg]] + col
        k = len(table.probs[0]) if len(pd) else 1  # the class count; a pair has a detection
        self._cutoff = _class_cutoffs(gather, k, pd, labels[pg], config.predset_spec.classification_kind)
        self._gt = gt_box.take(pg, axis=1)
        self._det = det_box.take(pd, axis=1)
        self._gt_area = self._loc_req = None
        if config.loss_spec.localization_kind == "pixelwise":
            self._gt_area = (self._gt[2] - self._gt[0]) * (self._gt[3] - self._gt[1])
        else:
            self._loc_req = _covering_margins(
                self._gt, self._det, config.predset_spec.localization_kind
            )

    def visit_at(self, lam: float) -> int:
        """The visit whose state the confidence parameter ``lam`` holds (the
        confidence cut of the module docstring), -1 for ``lam >= 1``."""
        if lam >= 1.0:
            return -1
        return len(self.lams) - int(np.searchsorted(self.lams, lam, side="right"))

    def states_at(self, v: int) -> np.ndarray:
        """Each image's state at visit ``v``: its last one entered by then."""
        return np.searchsorted(self._state_key, self._image_key + v + 1, side="right") - 1

    def prefix_lengths(self, v: int) -> np.ndarray:
        """Each image's prefix length at visit ``v``: how many of its
        detections drop out after ``v``."""
        query = self._image_key + len(self.lams) + 1 - v
        return np.searchsorted(self._det_key, query) - self._det_start[:-1]

    def reach(self, v: int) -> "_Reach":
        """The states reached at visit ``v`` (``visit_at``): each image's
        states entered at or before ``v``, with their entries and the
        distinct pairs these point at, compacted."""
        reached = self._visit <= v
        pair = self._pair[np.repeat(reached, self._count)]
        used = np.zeros(len(self._cutoff), dtype=bool)
        used[pair] = True
        ids = np.flatnonzero(used)
        return _Reach(
            self.config,
            np.flatnonzero(self._visit[reached] < 0),
            np.where(self._n_gt[self._img[reached]] > 0, 1.0, 0.0),
            self._count[reached],
            (np.cumsum(used) - 1)[pair],
            self._gt.take(ids, axis=1),
            self._det.take(ids, axis=1),
            self._cutoff[ids],
            *(None if table is None else table[ids] for table in (self._loc_req, self._gt_area)),
        )

    def running_max(self, values: np.ndarray) -> np.ndarray:
        """Each state's value in ``values`` maximized over its image's states
        up to it. A doubling scan: after the pass with ``step``, each state
        holds the maximum over its image's last ``2 * step`` states up to
        it."""
        pos = np.arange(len(values)) - np.flatnonzero(self._visit < 0)[self._img]
        out, step = values.copy(), 1
        while step <= pos.max():
            out[step:] = np.where(pos[step:] >= step, np.maximum(out[step:], out[:-step]), out[step:])
            step *= 2
        return out

    def assignment(self, i: int, k: int) -> tuple:
        """``match(gts, preds[:k])`` of image ``i``, read from the table."""
        lo, hi = self._gt_start[i], self._gt_start[i + 1]
        if k == 0:
            return tuple(None for _ in range(hi - lo))
        return tuple(self._best[lo:hi, k - 1].tolist())

    def conf_losses(self, v: int) -> np.ndarray:
        """Each image's confidence loss at visit ``v``."""
        return _conf_losses(self.config.loss_spec.confidence_kind, self.prefix_lengths(v), self._n_gt)


def _conf_losses(kind: str, k: np.ndarray, n_gt: np.ndarray) -> np.ndarray:
    """``conf_loss`` of each image with ``n_gt`` ground truths and ``k``
    selected detections."""
    if kind == "box_count_threshold":
        return np.where(k >= n_gt, 0.0, 1.0)
    return np.maximum(0, n_gt - k) / np.maximum(n_gt, 1)


class _Reach:
    """States to score, image by image, with their entries and the pairs
    these point at: the states one confidence parameter reaches
    (``_PrefixKernel.reach``, each image's in visit order), or one state per
    image at its selected prefix for ``evaluate``.

    Image ``i``'s states start at ``starts[i]``. A state without entries has
    the loss ``base``: 1 for an image with ground truths, as the state then
    has no detection, else 0. State ``s`` has ``count[s]`` entries, one per
    ground truth, in state then ground-truth order; the states with entries
    are at ``scored``, and the ``j``-th has ``n_gt[j]`` entries from
    ``entry_start[j]`` on. Entry ``e`` points at pair ``pair[e]``, which
    holds the ground-truth and matched-detection coordinates (``gt``,
    ``det``), class cutoff, covering margin (``loc_req``, None for the
    pixelwise loss and when no search needs it) and ground-truth area
    (``gt_area``, pixelwise only). The loss methods return each state's loss
    at one second-step parameter; ``maxima`` takes each image's largest.
    """

    def __init__(self, config: CalibrationConfig, starts: np.ndarray, base: np.ndarray,
                 count: np.ndarray, pair: np.ndarray, gt: np.ndarray, det: np.ndarray,
                 cutoff: np.ndarray, loc_req: Optional[np.ndarray],
                 gt_area: Optional[np.ndarray]) -> None:
        self.config, self.starts, self.base = config, starts, base
        self.scored = np.flatnonzero(count)
        self.n_gt = count[self.scored]
        self.entry_start = np.cumsum(self.n_gt) - self.n_gt
        self.pair, self.gt, self.det, self.cutoff = pair, gt, det, cutoff
        self.loc_req, self.gt_area = loc_req, gt_area

    def maxima(self, losses: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(losses, self.starts)

    def _with(self, values: np.ndarray) -> np.ndarray:
        """The states' losses, ``values`` those of the scored states."""
        out = self.base.copy()
        out[self.scored] = values
        return out

    def _per_state(self, hits: np.ndarray) -> np.ndarray:
        """How many of each scored state's entries ``hits`` marks."""
        return np.add.reduceat(hits, self.entry_start, dtype=np.int64)

    def loc_losses(self, lam: float) -> np.ndarray:
        spec = self.config.loss_spec
        margined = _margined(self.det, lam, self.config.predset_spec.localization_kind)
        if spec.localization_kind == "pixelwise":
            # Sum column by column, in ground-truth order, as the scalar loss
            # does; numpy's pairwise sums would round differently.
            fractions = _covered_fractions(self.gt, margined, self.gt_area)[self.pair]
            total = np.zeros(len(self.n_gt))
            for j in range(int(self.n_gt.max(initial=0))):
                have = np.flatnonzero(self.n_gt > j)
                total[have] += fractions[self.entry_start[have] + j]
            return self._with(1.0 - total / self.n_gt)
        covered = self._per_state(_contains(margined, self.gt)[self.pair]) / self.n_gt
        if spec.localization_kind == "boxwise":
            return self._with(1.0 - covered)
        return self._with(np.where(covered >= spec.localization_tau, 0.0, 1.0))

    def cls_losses(self, lam: float) -> np.ndarray:
        misses = self._per_state((lam < self.cutoff)[self.pair])
        spec = self.config.loss_spec
        if spec.classification_aggregation == "max":
            return self._with(np.where(misses > 0, 1.0, 0.0))
        if spec.classification_aggregation == "average":
            return self._with(misses / self.n_gt)
        return self._with(np.where(misses / self.n_gt > spec.aggregation_tau, 1.0, 0.0))


def _covered_fractions(gt, margined, area) -> np.ndarray:
    """Covered area fraction of each ground truth ``gt`` of area ``area`` by
    its ``margined`` box."""
    gl, gtop, gr, gb = gt
    ml, mt, mr, mb = margined
    inside = _contains(margined, gt)
    # intersect(): a negative extent is the empty box, of area 0
    width = np.minimum(gr, mr) - np.maximum(gl, ml)
    height = np.minimum(gb, mb) - np.maximum(gtop, mt)
    inter = np.where((width < 0.0) | (height < 0.0), 0.0, width * height)
    return np.divide(inter, area, out=np.where(inside, 1.0, 0.0), where=area > 0.0)


# --------------------------------------------------------------------------
# Step 1: confidence parameters
# --------------------------------------------------------------------------


def _monotonized(kernel: _PrefixKernel) -> list:
    """Step 1's tasks, confidence, ``loc`` and ``cls``, each a memoized
    function of a visit ``v`` that returns every image's monotonized loss
    there, at the loosest second-step parameters: its largest over the
    states it passes through down to ``v``. For ``loc`` and ``cls`` that is
    the running maximum along its states, read at its state at ``v``; the
    confidence loss never falls as the prefix shrinks, so it is its value
    at the image's prefix length at ``v``."""
    cfg = kernel.config
    every = kernel.reach(len(kernel.visit_lams))
    states_at = lru_cache(maxsize=None)(kernel.states_at)
    monos = (kernel.running_max(every.loc_losses(cfg.lambda_loc_bounds[1])),
             kernel.running_max(every.cls_losses(cfg.lambda_cls_bounds[1])))
    return [lru_cache(maxsize=None)(kernel.conf_losses),
            *(lambda v, mono=mono: mono[states_at(v)] for mono in monos)]


def _sweep_confidence(kernel: _PrefixKernel) -> tuple[float, float, float]:
    """Both stop points of the confidence sweep and the risk at the first.

    Returns ``(lam_plus, lam_minus, risk_plus)``, ``risk_plus`` the largest
    task's monotonized risk at ``lam_plus``. The conservative parameter uses
    the worst-case correction for the unseen test loss, the optimistic one
    omits it. A stop point is the smallest candidate (0.0, 1.0 or a visited
    breakpoint) at which every task's monotonized losses (``_monotonized``)
    pass ``_admits``. A task's risk never decreases as ``lam`` falls, so
    ``_smallest_admitted`` finds its smallest; searched from the previous
    task's on, the last task's is the largest. When a task fails already at
    1.0, the top of the domain, 1.0 is returned without a guarantee; for
    ``lam_plus`` that logs a warning (always the case when
    ``alpha_cnf * (n + 1) < 1``).
    """
    cfg = kernel.config
    n = kernel.n
    tasks = _monotonized(kernel)
    # Every candidate of every task: a task's search starts at the previous
    # task's parameter, which is itself a candidate.
    base = _candidates(kernel.lams, 0.0, 1.0)

    def stop(b: float) -> Optional[float]:
        """The stop point under the correction ``b``; None when 1.0 fails."""
        lam = 0.0
        for losses in tasks:
            try:
                lam, _ = _smallest_admitted(
                    base[np.searchsorted(base, lam) :], lam, 1.0,
                    lambda p: losses(kernel.visit_at(p)),
                    n, cfg.alpha_cnf, b, "the step-1 constraint fails at lambda_cnf = 1",
                )
            except InfeasibleRiskError:
                return None
        return lam

    def risk(lam: float) -> float:
        """The largest task's summed losses at ``lam``, correctly rounded."""
        return max(math.fsum(losses(kernel.visit_at(lam)).tolist()) for losses in tasks)

    lam_plus, lam_minus = stop(kernel.loss_bound), stop(0.0)
    if lam_plus is None:
        lam_plus = 1.0
        log.warning(
            "the corrected step-1 constraint fails already at lambda_cnf = 1 "
            "(alpha_cnf=%r, n=%d, alpha_cnf*(n+1)=%.6g < summed loss + B = %.6g + %g): "
            "lambda_cnf_plus = 1.0 is returned but carries no guarantee",
            cfg.alpha_cnf, n, cfg.alpha_cnf * (n + 1), risk(1.0), kernel.loss_bound,
        )
    return lam_plus, 1.0 if lam_minus is None else lam_minus, risk(lam_plus) / n


# --------------------------------------------------------------------------
# Step 2: localization / classification parameter
# --------------------------------------------------------------------------


def _second_step(kernel: _PrefixKernel, reach: _Reach, task: str):
    """Smallest feasible second-step parameter of ``task`` ("loc" or "cls").

    ``reach`` holds the states ``lambda_cnf_minus`` reaches. Each candidate
    is scored with the monotonized risk: per image, the maximum of the task
    loss over those states. The candidates are the requirements of their
    entries, or the grid for the pixelwise loss (``_smallest_admitted``).
    Returns ``(parameter, risk_at_parameter)``.
    """
    cfg = kernel.config
    if task == "loc":
        alpha, (lo, hi), loss_at = cfg.alpha_loc, cfg.lambda_loc_bounds, reach.loc_losses
        reqs = reach.loc_req
    else:
        alpha, (lo, hi), loss_at = cfg.alpha_cls, cfg.lambda_cls_bounds, reach.cls_losses
        reqs = reach.cutoff
    lam, losses = _smallest_admitted(
        None if reqs is None else _candidates(reqs, lo, hi), lo, hi,
        lambda lam: reach.maxima(loss_at(lam)),
        kernel.n, alpha, kernel.loss_bound,
        f"no feasible {task} parameter in [{lo}, {hi}]; "
        f"alpha_{task}={alpha} is too small for this data and loss",
    )
    return lam, math.fsum(losses.tolist()) / kernel.n


# --------------------------------------------------------------------------
# Public entry points
# --------------------------------------------------------------------------


def _check_precondition(config: CalibrationConfig, n: int) -> None:
    """``alpha_task >= alpha_cnf + 1/(n+1)`` for both tasks, decided exactly."""
    floor = Fraction(config.alpha_cnf) + Fraction(1, n + 1)
    for name, value in (("alpha_loc", config.alpha_loc), ("alpha_cls", config.alpha_cls)):
        if Fraction(value) < floor:
            raise CalibrationPreconditionError(
                f"{name}={value} violates {name} >= alpha_cnf + 1/(n+1) "
                f"= {config.alpha_cnf} + 1/{n + 1} = {float(floor):.6g}"
            )


def seqcrc_step1(
    samples: Sequence[ImageSample], config: CalibrationConfig
) -> tuple[float, float]:
    """Calibrate the confidence parameters ``(conservative, optimistic)``.

    Each parameter is the smallest sweep point (or 0.0) at which the
    combined risk meets level ``alpha_cnf``, corrected (conservative) or not
    (optimistic). The combined risk is the maximum of the confidence risk
    and the monotonized localization/classification risks evaluated at
    their loosest second-step parameters; each of the three is searched for
    on its own, exactly, as in ``calibrate``.

    When the constraint fails already at ``lambda_cnf = 1``, the top of the
    domain, that parameter is returned as 1.0 anyway and a warning is logged:
    it then carries no guarantee. With the finite-sample correction on this
    always happens when ``alpha_cnf * (n + 1) < 1``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        plus, minus, _ = _sweep_confidence(_PrefixKernel(_SampleTable.from_samples(samples), config))
    return plus, minus


def seqcrc_step2(
    samples: Sequence[ImageSample],
    lambda_cnf_minus: float,
    task: str,
    config: CalibrationConfig,
) -> float:
    """Calibrate the second-step parameter for ``task`` ("loc" or "cls")."""
    if task not in ("loc", "cls"):
        raise ValueError(f"unknown task {task!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
        lam, _ = _second_step(kernel, kernel.reach(kernel.visit_at(lambda_cnf_minus)), task)
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
    return _calibrate(_SampleTable.from_samples(samples), config)


def _calibrate(table: _SampleTable, config: CalibrationConfig) -> CalibrationResult:
    """``calibrate`` on the calibration set ``table``. The errors come in
    this order: an empty set, the precondition, then the kernel's own."""
    if table.n:
        _check_precondition(config, table.n)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _PrefixKernel(table, config)
        plus, minus, cnf_risk = _sweep_confidence(kernel)
        reach = kernel.reach(kernel.visit_at(minus))
        lam_loc, loc_risk = _second_step(kernel, reach, "loc")
        lam_cls, cls_risk = _second_step(kernel, reach, "cls")
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
        config=kernel.config,
        n_calibration=kernel.n,
        diagnostics=diagnostics,
    )
