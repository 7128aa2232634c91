"""Output checks of the benchmark, written only on condet's public set-based
functions (``select_confident``, ``match``, ``apply_margin``,
``build_class_set``, ``conf_loss``, ``loc_loss``, ``cls_loss``).

``CalibrationCheck`` recomputes the monotonized corrected risks of a
calibration result and checks that every returned parameter is feasible and
that a slightly smaller one is not. It pins no bit pattern of a λ, so an
exact infimum and a bisection that lands within 1e-9 of the domain width of
it both pass, while a loose or infeasible λ fails. The comparisons against
``alpha * (n + 1)`` allow ``TOL`` for float-summation order; every verdict
that needed it is reported.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from typing import Optional, Sequence

from condet import (
    CalibrationResult,
    ImageSample,
    apply_margin,
    build_class_set,
    cls_loss,
    conf_loss,
    loc_loss,
    match,
    select_confident,
)

from tracing import Tracer

TOL = 1e-9
#: Near-minimality step of a second-step λ, as a share of its domain width.
MINIMALITY_STEP = 1e-9


def visit_points(samples: Sequence[ImageSample]) -> list[float]:
    """Confidence parameters the step-1 sweep evaluates, in decreasing order:
    1, every distinct ``1 - confidence`` below 1, then 0 if not yet there."""
    values = sorted({1.0 - d.confidence for s in samples for d in s.detections})
    points = [1.0] + [v for v in reversed(values) if v < 1.0]
    if values and values[0] > 0.0:
        points.append(0.0)
    return points


def lambdas(result: CalibrationResult) -> tuple[float, float, float, float]:
    return (
        result.lambda_cnf_plus,
        result.lambda_cnf_minus,
        result.lambda_loc_plus,
        result.lambda_cls_plus,
    )


def lambdas_digest(values: Sequence[float]) -> str:
    text = ",".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def samples_digest(samples: Sequence[ImageSample]) -> str:
    """Digest of every id, box, label, confidence and probability, bit for bit."""
    h = hashlib.sha256()
    for s in samples:
        flat: list[float] = []
        for box, label in s.ground_truths:
            flat.extend(box.as_tuple())
            flat.append(label)
        for d in s.detections:
            flat.extend(d.box.as_tuple())
            flat.append(d.confidence)
            flat.extend(d.probs)
        h.update(f"{s.image_id}:{len(s.ground_truths)}:{len(s.detections)};".encode())
        h.update(array("d", flat).tobytes())
    return h.hexdigest()[:16]


class CalibrationCheck:
    """Feasibility and near-minimality of all four λ's of one result.

    Run it with ``run()``; afterwards ``failures`` and ``tolerance_uses``
    hold one line each, and ``counts`` the exact work counts of the sweep:
    the matchings it needs (one per image with ground truths and per
    non-empty selected prefix down to the breakpoint after
    ``lambda_cnf_minus``), their pair distances, and the breakpoints.
    """

    def __init__(
        self,
        samples: Sequence[ImageSample],
        result: CalibrationResult,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.samples = tuple(samples)
        self.result = result
        self.config = result.config
        self.tracer = tracer or Tracer()
        self.n = len(self.samples)
        self.failures: list[str] = []
        self.tolerance_uses: list[str] = []
        self.counts: dict[str, int] = {}
        self._own_points = [
            sorted({1.0 - d.confidence for d in s.detections}, reverse=True)
            for s in self.samples
        ]
        self._prefix: dict[tuple[int, float], int] = {}
        self._matching: dict[tuple[int, int], tuple] = {}
        self._loss: dict[tuple[str, int, int, float], float] = {}
        self._margined: dict[tuple[int, int, float], object] = {}
        self._class_set: dict[tuple[int, int, float], set] = {}

    # -- selection and realized prefixes -------------------------------------

    def _prefix_len(self, i: int, point: float) -> int:
        key = (i, point)
        got = self._prefix.get(key)
        if got is None:
            got = self._prefix[key] = len(select_confident(self.samples[i], point))
        return got

    def _realized(self, i: int, point: float) -> set[int]:
        """Prefix lengths of image ``i`` at every swept point at or above ``point``.

        The selection of image ``i`` only changes at its own breakpoints, so
        those, the start 1 and ``point`` itself cover every swept point.
        """
        own = [v for v in self._own_points[i] if point <= v < 1.0]
        return {self._prefix_len(i, q) for q in [1.0, point, *own]}

    # -- losses through the public set-based path ------------------------------

    def _preds(self, i: int, k: int):
        return [(d.box, d.probs) for d in self.samples[i].detections[:k]]

    def _assignment(self, i: int, k: int) -> tuple:
        if k == 0 or not self.samples[i].ground_truths:
            return tuple(None for _ in self.samples[i].ground_truths)
        return self._matching[(i, k)]

    def _margined_box(self, i: int, j: int, lam: float):
        key = (i, j, lam)
        got = self._margined.get(key)
        if got is None:
            kind = self.config.predset_spec.localization_kind
            got = self._margined[key] = apply_margin(self.samples[i].detections[j].box, lam, kind)
        return got

    def _labels(self, i: int, j: int, lam: float) -> set:
        key = (i, j, lam)
        got = self._class_set.get(key)
        if got is None:
            kind = self.config.predset_spec.classification_kind
            got = self._class_set[key] = build_class_set(
                self.samples[i].detections[j].probs, lam, kind
            )
        return got

    def _loc(self, i: int, k: int, lam: float) -> float:
        key = ("loc", i, k, lam)
        got = self._loss.get(key)
        if got is None:
            spec = self.config.loss_spec
            margined = [self._margined_box(i, j, lam) for j in range(k)]
            got = self._loss[key] = loc_loss(
                self.samples[i], self._assignment(i, k), margined,
                spec.localization_kind, spec.localization_tau,
            )
        return got

    def _cls(self, i: int, k: int, lam: float) -> float:
        key = ("cls", i, k, lam)
        got = self._loss.get(key)
        if got is None:
            spec = self.config.loss_spec
            sets = [self._labels(i, j, lam) for j in range(k)]
            got = self._loss[key] = cls_loss(
                self.samples[i], self._assignment(i, k), sets,
                spec.classification_aggregation, spec.aggregation_tau,
            )
        return got

    def _mono_sum(self, loss, point: float, lam: float) -> float:
        """Sum over images of the loss maximized over every swept point >= ``point``."""
        return math.fsum(
            max(loss(i, k, lam) for k in self._realized(i, point)) for i in range(self.n)
        )

    def _step1_sum(self, point: float) -> float:
        cfg = self.config
        kind = cfg.loss_spec.confidence_kind
        s_cnf = math.fsum(
            conf_loss(s, self._prefix_len(i, point), kind) for i, s in enumerate(self.samples)
        )
        s_loc = self._mono_sum(self._loc, point, cfg.lambda_loc_bounds[1])
        s_cls = self._mono_sum(self._cls, point, cfg.lambda_cls_bounds[1])
        return max(s_cnf, s_loc, s_cls)

    # -- verdicts -------------------------------------------------------------

    def _expect(self, what: str, feasible: bool, total: float, bound: float) -> None:
        """``total`` is n * risk + correction, compared against alpha * (n + 1)."""
        if feasible:
            if total > bound + TOL:
                self.failures.append(f"{what}: infeasible, {total!r} > {bound!r}")
            elif total > bound:
                self.tolerance_uses.append(f"{what}: feasible within tolerance, {total!r} > {bound!r}")
        else:
            if total <= bound - TOL:
                self.failures.append(f"{what}: feasible, so the returned λ is not minimal ({total!r} <= {bound!r})")
            elif total <= bound:
                self.tolerance_uses.append(f"{what}: infeasible within tolerance, {total!r} <= {bound!r}")

    def run(self) -> "CalibrationCheck":
        cfg = self.config
        res = self.result
        n = self.n
        correction = 1.0 if cfg.finite_sample_correction else 0.0
        points = visit_points(self.samples)
        self.counts["calibration.breakpoints"] = len(points) - 1
        reported = res.diagnostics.get("n_confidence_breakpoints")
        if reported is not None and reported != len(points) - 1:
            self.failures.append(f"diagnostics report {reported} breakpoints, inputs have {len(points) - 1}")

        where = {}
        for name, lam in (("lambda_cnf_plus", res.lambda_cnf_plus), ("lambda_cnf_minus", res.lambda_cnf_minus)):
            if lam not in points:
                self.failures.append(f"{name}={lam!r} is not a swept confidence breakpoint")
                return self
            where[name] = points.index(lam)
        below = {
            name: points[idx + 1] if idx + 1 < len(points) else None for name, idx in where.items()
        }
        # The second step monotonizes over 1 and every breakpoint down to the
        # first one at or below lambda_cnf_minus.
        stop = next((p for p in points[1:] if p <= res.lambda_cnf_minus), points[-1])
        lowest = min(p for p in (stop, res.lambda_cnf_minus, below["lambda_cnf_minus"]) if p is not None)

        calls = 0
        pairs = 0
        with self.tracer.span("matching.match"):
            for i, s in enumerate(self.samples):
                n_gt = len(s.ground_truths)
                if n_gt == 0:
                    continue
                for k in sorted(self._realized(i, lowest)):
                    if k > 0:
                        self._matching[(i, k)] = match(s.ground_truths, self._preds(i, k), cfg.match_spec)
                        calls += 1
                        pairs += n_gt * k
        self.counts["matching.calls"] = calls
        self.counts["matching.pair_distances"] = pairs

        bound = cfg.alpha_cnf * (n + 1)
        for name, corr in (("lambda_cnf_plus", correction), ("lambda_cnf_minus", 0.0)):
            lam = points[where[name]]
            self._expect(name, True, self._step1_sum(lam) + corr, bound)
            if below[name] is not None:
                self._expect(f"{name} next breakpoint {below[name]!r}", False, self._step1_sum(below[name]) + corr, bound)

        for task, lam, (lo, hi), alpha, loss in (
            ("lambda_loc_plus", res.lambda_loc_plus, cfg.lambda_loc_bounds, cfg.alpha_loc, self._loc),
            ("lambda_cls_plus", res.lambda_cls_plus, cfg.lambda_cls_bounds, cfg.alpha_cls, self._cls),
        ):
            if not lo <= lam <= hi:
                self.failures.append(f"{task}={lam!r} outside its domain [{lo!r}, {hi!r}]")
                continue
            bound = alpha * (n + 1)
            self._expect(task, True, self._mono_sum(loss, stop, lam) + correction, bound)
            smaller = lam - MINIMALITY_STEP * (hi - lo)
            if smaller >= lo:
                self._expect(f"{task} - {MINIMALITY_STEP:g}*width", False, self._mono_sum(loss, stop, smaller) + correction, bound)
        return self


# --------------------------------------------------------------------------
# Inference and evaluation outputs
# --------------------------------------------------------------------------


def expected_image(sample: ImageSample, result: CalibrationResult):
    """Losses and prediction rows of one image at the conservative parameters."""
    cfg = result.config
    sel = select_confident(sample, result.lambda_cnf_plus)
    preds = [(sample.detections[k].box, sample.detections[k].probs) for k in sel]
    assignment = match(sample.ground_truths, preds, cfg.match_spec)
    margined = [apply_margin(b, result.lambda_loc_plus, cfg.predset_spec.localization_kind) for b, _ in preds]
    sets = [build_class_set(p, result.lambda_cls_plus, cfg.predset_spec.classification_kind) for _, p in preds]
    spec = cfg.loss_spec
    losses = (
        conf_loss(sample, len(sel), spec.confidence_kind),
        loc_loss(sample, assignment, margined, spec.localization_kind, spec.localization_tau),
        cls_loss(sample, assignment, sets, spec.classification_aggregation, spec.aggregation_tau),
    )
    rows = [
        (k, box.as_tuple(), m.as_tuple(), tuple(sorted(labels)))
        for k, (box, _), m, labels in zip(sel, preds, margined, sets)
    ]
    return losses, rows


def prediction_rows(pred) -> list:
    """Rows of an in-memory ``ConformalPrediction``, comparable to ``expected_image``."""
    return [
        (s.index, s.box.as_tuple(), s.margined_box.as_tuple(), tuple(sorted(s.class_labels)))
        for s in pred.selected
    ]


def json_prediction_rows(entry: dict) -> list:
    """Rows of one image of the CLI's predictions file."""
    return [
        (s["index"], tuple(s["box"]), tuple(s["margined_box"]), tuple(s["class_set"]))
        for s in entry["selected"]
    ]


def check_outputs(
    samples: Sequence[ImageSample],
    result: CalibrationResult,
    risks: Sequence[float],
    predictions: Sequence[tuple[str, list]],
) -> tuple[list[str], list[str], list[str]]:
    """Compare evaluate's risks ``(cnf, loc, cls, global)`` and infer's
    ``(image_id, rows)`` with a recomputation.

    Returns the failures of evaluate, those of infer, and the tolerance uses.

    Risks may differ from the exactly rounded recomputation by 1e-12 (a
    different summation order); each such difference is reported.
    """
    eval_failures: list[str] = []
    infer_failures: list[str] = []
    tolerance_uses: list[str] = []
    per_image = []
    for (image_id, got), sample in zip(predictions, samples):
        losses, rows = expected_image(sample, result)
        per_image.append(losses)
        if (image_id != sample.image_id or got != rows) and not infer_failures:
            infer_failures.append(f"infer output of image {sample.image_id!r} differs from the recomputation")
    if len(predictions) != len(samples):
        infer_failures.append(f"infer returned {len(predictions)} images for {len(samples)}")
    n = len(per_image)
    expected = (
        math.fsum(l[0] for l in per_image) / n,
        math.fsum(l[1] for l in per_image) / n,
        math.fsum(l[2] for l in per_image) / n,
        math.fsum(max(l[1], l[2]) for l in per_image) / n,
    )
    for name, want, got in zip(("cnf", "loc", "cls", "global"), expected, risks):
        if abs(got - want) > 1e-12:
            eval_failures.append(f"evaluate {name}_risk {got!r} != recomputed {want!r}")
        elif got != want:
            tolerance_uses.append(f"evaluate {name}_risk {got!r} within 1e-12 of {want!r}")
    return eval_failures, infer_failures, tolerance_uses


def guarantee_failures(report, slack: float) -> list[str]:
    """Tasks whose across-trial mean test risk exceeds its target plus ``slack``."""
    return [
        f"mean {name} risk {summary.mean_risk!r} > alpha {summary.alpha!r} + slack {slack!r}"
        for name, summary in (
            ("cnf", report.cnf),
            ("loc", report.loc),
            ("cls", report.cls),
            ("global", report.global_),
        )
        if summary.mean_risk > summary.alpha + slack
    ]
