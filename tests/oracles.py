"""Independent brute-force implementations of the calibration rules.

These deliberately avoid the library's sweep engine: selection, matching and
losses are evaluated through the public pure functions, the monotonization
supremum is taken by brute force over an explicit point set, and the infima
are located by scanning a fixed grid or, for the second step's step-function
losses, every point where a loss can change. They exist solely to
cross-check ``seqcrc_step1`` / ``seqcrc_step2``; ``check_against_oracles``
makes that comparison. ``evaluate_oracle`` scores a test split image by
image, building every prediction set, to cross-check ``evaluate``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import astuple
from functools import lru_cache

from condet import EvaluationReport, InfeasibleRiskError, area, contains, match, seqcrc_step1, seqcrc_step2
from condet.calibration import CalibrationConfig
from condet.losses import cls_loss, conf_loss, loc_loss
from condet.predsets import (
    apply_margin,
    build_class_set,
    class_miss_cutoff,
    margin_to_cover,
    select_confident,
)


@lru_cache(maxsize=1 << 12)
def exact_sum(losses: tuple) -> Fraction:
    """The sum of the floats ``losses`` as a rational. Cached: a sweep's
    loss vectors change only at its breakpoints."""
    return sum(map(Fraction, losses), Fraction(0))


def level(n: int, alpha: float) -> Fraction:
    """Conformal Risk Control's bound ``alpha * (n + 1)`` on the summed
    losses of ``n`` samples, as a rational."""
    return Fraction(alpha) * (n + 1)


def admitted(total: Fraction, bound: Fraction, b: int) -> bool:
    """Conformal Risk Control's test ``total + b <= bound`` on the summed
    losses ``total``, in rationals; ``bound`` is ``level(n, alpha)``."""
    return total + b <= bound


def pure_image_losses(sample, lam_cnf, lam_loc, lam_cls, config: CalibrationConfig):
    """(confidence, localization, classification) losses via the public path."""
    sel = select_confident(sample, lam_cnf)
    preds = [(sample.detections[k].box, sample.detections[k].probs) for k in sel]
    assignment = match(sample.ground_truths, preds, config.match_spec)
    margined = [
        apply_margin(box, lam_loc, config.predset_spec.localization_kind) for box, _ in preds
    ]
    sets = [
        build_class_set(probs, lam_cls, config.predset_spec.classification_kind)
        for _, probs in preds
    ]
    spec = config.loss_spec
    return (
        conf_loss(sample, len(sel), spec.confidence_kind),
        loc_loss(sample, assignment, margined, spec.localization_kind, spec.localization_tau),
        cls_loss(sample, assignment, sets, spec.classification_aggregation, spec.aggregation_tau),
    )


def loosest_losses(samples, config: CalibrationConfig):
    """``losses(i, lam_cnf)``: ``pure_image_losses`` of image ``i`` at the
    confidence parameter ``lam_cnf`` and the loosest second-step parameters.
    The selection is a prefix of the detections and the other parameters
    are fixed, so the losses depend on the prefix length alone; each
    (image, prefix length) is evaluated once."""
    lam_loc, lam_cls = config.lambda_loc_bounds[1], config.lambda_cls_bounds[1]
    memo = {}

    def losses(i: int, lam_cnf: float) -> tuple:
        key = (i, len(select_confident(samples[i], lam_cnf)))
        if key not in memo:
            memo[key] = pure_image_losses(samples[i], lam_cnf, lam_loc, lam_cls, config)
        return memo[key]

    return losses


def confidence_visit_points(samples) -> list[float]:
    """Evaluation points of the downward confidence sweep: 1, every value of
    1 - confidence in decreasing order, then 0."""
    bps = sorted(
        {1.0 - d.confidence for s in samples for d in s.detections}, reverse=True
    )
    points = [1.0] + [b for b in bps if b < 1.0]
    if points[-1] > 0.0:
        points.append(0.0)
    return points


def grid_step1_oracle(samples, config: CalibrationConfig, grid_step: float = 1e-3):
    """Grid-search the two confidence rules with brute-force monotonization.

    Returns ``(lam_plus, lam_minus)``: the smallest grid points satisfying the
    corrected / uncorrected constraints, or 1.0 when none does. The two
    constraints are decided again only after some loss changed.
    """
    n = len(samples)
    bound = level(n, config.alpha_cnf)
    losses_at = loosest_losses(samples, config)
    steps = round(1.0 / grid_step)
    grid = {k / steps for k in range(steps + 1)}
    points = sorted(grid | set(confidence_visit_points(samples)), reverse=True)
    mono_loc = [-math.inf] * n
    mono_cls = [-math.inf] * n
    cnf = [0.0] * n
    plus = None
    minus = None
    changed = True
    for p in points:
        for i in range(n):
            c, lo, cl = losses_at(i, p)
            if c != cnf[i] or lo > mono_loc[i] or cl > mono_cls[i]:
                cnf[i], mono_loc[i], mono_cls[i] = c, max(mono_loc[i], lo), max(mono_cls[i], cl)
                changed = True
        if p in grid:
            if changed:
                worst = max(map(exact_sum, (tuple(cnf), tuple(mono_loc), tuple(mono_cls))))
                holds = admitted(worst, bound, 1), admitted(worst, bound, 0)
                changed = False
            if holds[0]:
                plus = p
            if holds[1]:
                minus = p
    return (1.0 if plus is None else plus, 1.0 if minus is None else minus)


def exact_step1_sums(samples, config: CalibrationConfig) -> list:
    """``(point, sum)`` at every sweep point (``confidence_visit_points``):
    the largest of the three tasks' summed monotonized losses, a rational."""
    mono = [[0.0] * len(samples) for _ in range(3)]
    losses_at = loosest_losses(samples, config)
    out = []
    for p in confidence_visit_points(samples):
        for i in range(len(samples)):
            for task, loss in enumerate(losses_at(i, p)):
                mono[task][i] = max(mono[task][i], loss)
        out.append((p, max(exact_sum(tuple(m)) for m in mono)))
    return out


def exact_step1_oracle(samples, config: CalibrationConfig) -> tuple[float, float]:
    """``(lam_plus, lam_minus)`` by the documented stop rule, decided in
    rationals at every sweep point: the point before the first one whose
    sum fails the constraint, 1.0 when that is the first, and 0.0 when none
    fails. Needs at least one detection in the set."""
    bound = level(len(samples), config.alpha_cnf)
    sums = exact_step1_sums(samples, config)

    def stop(b: int) -> float:
        before = 1.0
        for p, total in sums:
            if not admitted(total, bound, b):
                return before
            before = p
        return 0.0

    return stop(1 if config.finite_sample_correction else 0), stop(0)


def _task_domain(task: str, config: CalibrationConfig):
    if task == "loc":
        return config.alpha_loc, config.lambda_loc_bounds
    return config.alpha_cls, config.lambda_cls_bounds


def _selection_states(samples, lam_minus: float, config: CalibrationConfig):
    """Per image, the distinct ``(preds, assignment)`` selection states of the
    sweep's evaluation points down to (and including) the first one at or
    below ``lam_minus``: the states the second step monotonizes over."""
    visited = []
    for p in confidence_visit_points(samples):
        visited.append(p)
        if p <= lam_minus:
            break
    # Selection and matching depend on the sweep point only, not on the
    # candidate; compute each image's distinct selection states once.
    states: list[list[tuple]] = []
    for sample in samples:
        row = []
        prev_len = None
        for p in visited:
            sel = select_confident(sample, p)
            if prev_len == len(sel):
                continue
            prev_len = len(sel)
            preds = [(sample.detections[k].box, sample.detections[k].probs) for k in sel]
            row.append((preds, match(sample.ground_truths, preds, config.match_spec)))
        states.append(row)
    return states


def _feasible(samples, states, task: str, cand: float, config: CalibrationConfig) -> bool:
    """The corrected second-step constraint at ``cand``, through the public
    set-based losses, each image's loss maximized over its states."""
    n = len(samples)
    spec = config.loss_spec
    loc_kind = config.predset_spec.localization_kind
    cls_kind = config.predset_spec.classification_kind
    worsts = []
    for i, sample in enumerate(samples):
        worst = 0.0
        for preds, assignment in states[i]:
            if task == "loc":
                margined = [apply_margin(box, cand, loc_kind) for box, _ in preds]
                value = loc_loss(
                    sample, assignment, margined, spec.localization_kind,
                    spec.localization_tau,
                )
            else:
                sets = [build_class_set(pr, cand, cls_kind) for _, pr in preds]
                value = cls_loss(
                    sample, assignment, sets, spec.classification_aggregation,
                    spec.aggregation_tau,
                )
            if value > worst:
                worst = value
        worsts.append(worst)
    alpha, _ = _task_domain(task, config)
    return admitted(exact_sum(tuple(worsts)), level(n, alpha), 1)


def grid_step2_oracle(
    samples,
    lam_minus: float,
    task: str,
    config: CalibrationConfig,
    grid_points: int = 1000,
):
    """Grid-search the second-step rule at ``grid_points + 1`` candidates.

    The per-image monotonized loss is the maximum of the pure loss over the
    sweep's evaluation points down to (and including) the first one at or
    below ``lam_minus``. Returns the smallest feasible candidate or None.
    """
    _, (lo, hi) = _task_domain(task, config)
    states = _selection_states(samples, lam_minus, config)
    for k in range(grid_points + 1):
        cand = lo + (hi - lo) * k / grid_points
        if _feasible(samples, states, task, cand, config):
            return cand
    return None


def _first_holding(value: float, holds) -> float:
    """``value``, raised with ``math.nextafter`` until ``holds(value)``."""
    while not holds(value):
        value = math.nextafter(value, math.inf)
    return value


def exact_step2_oracle(samples, lam_minus: float, task: str, config: CalibrationConfig):
    """Scan every candidate of the exact second-step rule in ascending order.

    A loss other than the pixelwise one changes only where some ground truth
    of a visited selection state becomes covered by its matched prediction:
    from ``margin_to_cover`` (or ``class_miss_cutoff``), raised with
    ``math.nextafter`` until ``contains(apply_margin(...))`` (or membership
    in ``build_class_set``) holds. The candidates are those points in
    ``(lo, hi]`` plus both domain ends. Returns the smallest feasible
    candidate or None. Not for the pixelwise loss, which changes
    continuously.
    """
    _, (lo, hi) = _task_domain(task, config)
    loc_kind = config.predset_spec.localization_kind
    cls_kind = config.predset_spec.classification_kind
    states = _selection_states(samples, lam_minus, config)
    candidates = {lo, hi}
    for sample, row in zip(samples, states):
        for preds, assignment in row:
            if not preds:
                continue
            for (gt_box, label), k in zip(sample.ground_truths, assignment):
                box, probs = preds[k]
                if task == "loc":
                    need = margin_to_cover(gt_box, box, loc_kind)
                    if not 0.0 <= need < math.inf:
                        continue
                    need = _first_holding(
                        need, lambda lam: contains(apply_margin(box, lam, loc_kind), gt_box)
                    )
                else:
                    need = _first_holding(
                        class_miss_cutoff(probs, label, cls_kind),
                        lambda lam: label in build_class_set(probs, lam, cls_kind),
                    )
                if lo < need <= hi:
                    candidates.add(need)
    for cand in sorted(candidates):
        if _feasible(samples, states, task, cand, config):
            return cand
    return None


def check_against_oracles(samples, config: CalibrationConfig, trial) -> int:
    """Assert that ``seqcrc_step1`` and ``seqcrc_step2`` agree with the
    oracles on ``samples`` under ``config``; ``trial`` tags the failures.

    Step 1 must be within the grid step of ``grid_step1_oracle``. Step 2 must
    equal ``exact_step2_oracle``, or be within a grid step of the domain of
    ``grid_step2_oracle`` for the pixelwise loss, which changes
    continuously; an infeasible task must be infeasible for the oracle too.
    Returns the number of feasible step-2 tasks checked.
    """
    plus, minus = seqcrc_step1(samples, config)
    o_plus, o_minus = grid_step1_oracle(samples, config)
    assert abs(plus - o_plus) <= 1e-3 + 1e-12, trial
    assert abs(minus - o_minus) <= 1e-3 + 1e-12, trial
    checked = 0
    for task in ("loc", "cls"):
        lo, hi = config.lambda_loc_bounds if task == "loc" else config.lambda_cls_bounds
        grid = task == "loc" and config.loss_spec.localization_kind == "pixelwise"
        oracle = (grid_step2_oracle if grid else exact_step2_oracle)(samples, minus, task, config)
        try:
            got = seqcrc_step2(samples, minus, task, config)
        except InfeasibleRiskError:
            assert oracle is None, (trial, task)
            continue
        assert oracle is not None, (trial, task)
        if grid:
            assert abs(got - oracle) <= (hi - lo) * 1e-3 + 1e-12, (trial, task, got, oracle)
        else:
            assert got == oracle, (trial, task, got, oracle)
        checked += 1
    return checked


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else math.nan


def evaluate_oracle(samples, result) -> EvaluationReport:
    """``evaluate``'s report, image by image through the public functions:
    each image's selection, matching, margined boxes and label sets are
    built, its three losses taken from them (``pure_image_losses``), its
    stretches summed box by box and its set sizes counted from the sets.
    Every mean over images is ``math.fsum`` over their count."""
    if not samples:
        raise ValueError("empty test set")
    lam_cnf, lam_loc, lam_cls = result.lambda_cnf_plus, result.lambda_loc_plus, result.lambda_cls_plus
    kinds = result.config.predset_spec
    rows = []
    for sample in samples:
        sel = select_confident(sample, lam_cnf)
        boxes = [sample.detections[k].box for k in sel]
        stretches = [
            math.sqrt(area(apply_margin(box, lam_loc, kinds.localization_kind)) / area(box))
            for box in boxes
            if not area(box) <= 0.0
        ]
        sizes = [len(build_class_set(sample.detections[k].probs, lam_cls, kinds.classification_kind))
                 for k in sel]
        cnf, loc, cls = pure_image_losses(sample, lam_cnf, lam_loc, lam_cls, result.config)
        rows.append((
            cnf, loc, cls, len(sel),
            sum(stretches) / len(stretches) if stretches else None,
            sum(sizes) / len(sizes) if sizes else None,
            len(sel) - len(stretches),
        ))
    cnf, loc, cls, counts, stretches, sizes, skipped = zip(*rows)
    return EvaluationReport(
        cnf_risk=_mean(cnf),
        loc_risk=_mean(loc),
        cls_risk=_mean(cls),
        global_risk=_mean(list(map(max, loc, cls))),
        cnf_set_size=_mean(counts),
        loc_set_size=_mean([s for s in stretches if s is not None]),
        cls_set_size=_mean([s for s in sizes if s is not None]),
        n_test=len(rows),
        n_images_without_selection=counts.count(0),
        n_zero_area_boxes_skipped=sum(skipped),
    )


def same_report(got: EvaluationReport, want: EvaluationReport) -> bool:
    """Whether the two reports hold the same values of the same types in
    every field, NaN equal to NaN."""
    pairs = list(zip(astuple(got), astuple(want)))
    return all(
        type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))
        for a, b in pairs
    )
