import logging
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from condet import (
    BoundingBox,
    CalibrationConfig,
    CalibrationPreconditionError,
    CalibrationResult,
    Detection,
    ImageSample,
    InfeasibleRiskError,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    StepLossCurve,
    SynthSpec,
    calibrate,
    crc_calibrate,
    evaluate,
    generate,
    seqcrc_step1,
    seqcrc_step2,
)
from condet import calibration as calibration_module
from condet.calibration import _PrefixKernel, _SampleTable, default_lambda_loc_bounds
from condet.predsets import select_confident
from helpers import calibration_outcome, exact_task_sums, random_int_box, random_probs, random_sample
from oracles import (
    check_against_oracles,
    confidence_visit_points,
    exact_step1_oracle,
    exact_step1_sums,
    exact_step2_oracle,
    pure_image_losses,
)


CURVES = [StepLossCurve.binary(s) for s in (0.2, 0.5, 0.8)]


def covering_detection(gt_box, confidence, k=3, label=0):
    probs = tuple(1.0 if j == label else 0.0 for j in range(k))
    return Detection(box=gt_box, probs=probs, confidence=confidence)


def basic_config(**kw):
    defaults = dict(
        alpha_cnf=0.2,
        alpha_loc=0.5,
        alpha_cls=0.5,
        lambda_loc_bounds=(0.0, 500.0),
    )
    defaults.update(kw)
    return CalibrationConfig(**defaults)


def random_config(rng, n):
    alpha_cnf = float(rng.uniform(0.05, 0.3))
    slack = 1.0 / (n + 1)
    return CalibrationConfig(
        alpha_cnf=alpha_cnf,
        alpha_loc=min(0.95, alpha_cnf + slack + float(rng.uniform(0.05, 0.4))),
        alpha_cls=min(0.95, alpha_cnf + slack + float(rng.uniform(0.05, 0.4))),
        loss_spec=LossSpec(
            confidence_kind=str(rng.choice(["box_count_threshold", "box_count_recall"])),
            localization_kind=str(rng.choice(["boxwise", "pixelwise", "thresholded"])),
            classification_aggregation=str(rng.choice(["average", "max", "thresholded"])),
        ),
        predset_spec=PredSetSpec(
            localization_kind=str(rng.choice(["additive", "multiplicative"])),
            classification_kind=str(rng.choice(["lac", "aps"])),
        ),
        match_spec=MatchDistanceSpec(str(rng.choice(["hausdorff", "lac", "mix"]))),
        lambda_loc_bounds=(0.0, 260.0),
    )


def random_dataset(rng, n_images, **kw):
    return [
        random_sample(rng, image_id=f"img{i}", **kw) for i in range(n_images)
    ]


class TestStepLossCurve:
    def test_binary_curve_values(self):
        curve = StepLossCurve.binary(0.5)
        assert curve.value_at(0.4) == 1.0
        assert curve.value_at(0.5) == 0.0  # right-continuous at the step
        assert curve.value_at(0.6) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLossCurve((0.5,), (1.0,))
        with pytest.raises(ValueError):
            StepLossCurve((0.5, 0.2), (1.0, 0.5, 0.0))
        with pytest.raises(ValueError):
            StepLossCurve((0.5,), (0.0, 1.0))


class TestCrcCalibrate:
    def test_three_binary_scores(self):
        curves = [StepLossCurve.binary(s) for s in (0.2, 0.5, 0.8)]
        assert crc_calibrate(curves, alpha=0.5, loss_bound=1.0, lambda_domain=(0.0, 1.0)) == 0.5

    def test_all_zero_curves_return_domain_minimum(self):
        curves = [StepLossCurve((), (0.0,)) for _ in range(5)]
        assert crc_calibrate(curves, 0.3, 1.0, (0.25, 1.0)) == 0.25

    def test_quantile_equivalence_sample(self):
        rng = np.random.default_rng(0)
        for _ in range(20)        :
            n = int(rng.integers(3, 40))
            alpha = float(rng.uniform(1.0 / (n + 1) + 1e-9, 0.9))
            scores = np.sort(rng.uniform(0, 1, n))
            rank = math.ceil((n + 1) * (1 - alpha))
            if rank > n:
                continue
            curves = [StepLossCurve.binary(float(s)) for s in scores]
            got = crc_calibrate(curves, alpha, 1.0, (0.0, 1.0))
            assert got == float(scores[rank - 1])

    def test_infeasible_alpha(self):
        curves = [StepLossCurve.binary(0.5)]
        with pytest.raises(InfeasibleRiskError):
            crc_calibrate(curves, alpha=0.4, loss_bound=1.0, lambda_domain=(0.0, 1.0))

    def test_empty_calibration_set(self):
        with pytest.raises(ValueError):
            crc_calibrate([], 0.5, 1.0, (0.0, 1.0))

    def test_negative_loss_is_refused(self):
        # The constraint holds exactly for these losses, but _admits' error
        # band assumes non-negative losses, and a float test refused it.
        # Losses lie in [0, loss_bound], so the curve at -3.8 is refused.
        values = [0.15142010875655154, 0.03626899424341401, 0.34420100553679467, 0.6152394833248576,
                  0.7424596231257796, 0.11311490301807692, 0.33721377319664525, 0.03081085762668856,
                  0.448653262492294, -3.808382011321102]
        assert sum(map(Fraction, values)) + 1 <= Fraction(0.001) * 11
        curves = [StepLossCurve((), (v,)) for v in values]
        with pytest.raises(ValueError, match=r"every loss must lie in \[0, loss_bound\]"):
            crc_calibrate(curves, alpha=0.001, loss_bound=1.0, lambda_domain=(0.0, 1.0))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: crc_calibrate(CURVES, 1.5, 1.0, (0.0, 1.0)), "alpha must lie in"),
            (lambda: crc_calibrate(CURVES, 0.0, 1.0, (0.0, 1.0)), "alpha must lie in"),
            (lambda: crc_calibrate(CURVES, 1.0, 1.0, (0.0, 1.0)), "alpha must lie in"),
            (lambda: crc_calibrate(CURVES, math.nan, 1.0, (0.0, 1.0)), "alpha must lie in"),
            (lambda: crc_calibrate(CURVES, 0.5, -1.0, (0.0, 1.0)), "loss_bound must be"),
            (lambda: crc_calibrate(CURVES, 0.5, math.nan, (0.0, 1.0)), "loss_bound must be"),
            (lambda: crc_calibrate(CURVES, 0.5, math.inf, (0.0, 1.0)), "loss_bound must be"),
            (lambda: crc_calibrate(CURVES, 0.5, 1.0, (0.0, math.nan)), "invalid domain"),
            (lambda: crc_calibrate(CURVES, 0.5, 1.0, (math.nan, 1.0)), "invalid domain"),
            (lambda: crc_calibrate(CURVES, 0.5, 1.0, (-math.inf, 1.0)), "invalid domain"),
            (lambda: crc_calibrate(CURVES, 0.5, 1.0, (1.0, 0.0)), "invalid domain"),
            (lambda: crc_calibrate(CURVES, 0.5, 0.5, (0.0, 1.0)), "at most loss_bound"),
            (lambda: StepLossCurve((math.nan,), (1.0, 0.0)), "must be finite"),
            (lambda: StepLossCurve((math.inf,), (1.0, 0.0)), "must be finite"),
            (lambda: StepLossCurve((0.5,), (math.nan, 0.0)), "must be finite"),
            (lambda: StepLossCurve((0.5,), (1.0, -math.inf)), "must be finite"),
        ],
        ids=[
            "alpha-above-1", "alpha-0", "alpha-1", "alpha-nan",
            "bound-negative", "bound-nan", "bound-inf",
            "domain-hi-nan", "domain-lo-nan", "domain-lo-inf", "domain-reversed",
            "loss-above-bound",
            "threshold-nan", "threshold-inf", "value-nan", "value-inf",
        ],
    )
    def test_invalid_input_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestStep1:
    def test_vanishing_losses_reach_domain_minimum(self):
        gt = BoundingBox(10, 10, 30, 30)
        samples = [
            ImageSample(
                f"i{j}",
                ((gt, 0),),
                (covering_detection(gt, 1.0),),
            )
            for j in range(4)
        ]
        plus, minus = seqcrc_step1(samples, basic_config())
        assert plus == 0.0
        assert minus == 0.0

    def test_single_image_two_confidences(self):
        gt = BoundingBox(10, 10, 30, 30)
        sample = ImageSample(
            "i0",
            ((gt, 0),),
            (covering_detection(gt, 0.9), covering_detection(gt, 0.3)),
        )
        plus, minus = seqcrc_step1([sample], basic_config(alpha_cnf=0.6))
        assert plus == pytest.approx(0.1, abs=1e-12)
        # without the worst-case correction even the empty selection is
        # feasible at this alpha, so the optimistic sweep runs to exhaustion
        assert minus == 0.0

    def test_infeasible_even_at_one_returns_upper_end(self):
        sample = ImageSample("i0", ((BoundingBox(0, 0, 5, 5), 0),), ())
        plus, minus = seqcrc_step1([sample], basic_config(alpha_cnf=0.3))
        assert plus == 1.0
        assert minus == 1.0

    def test_infeasible_top_is_logged(self, caplog):
        # alpha_cnf * (n + 1) = 0.55 < 1: the correction alone fails the top.
        gt = BoundingBox(10, 10, 30, 30)
        samples = [ImageSample(f"i{j}", ((gt, 0),), (covering_detection(gt, 1.0),)) for j in range(10)]
        with caplog.at_level(logging.WARNING, logger="condet.calibration"):
            result = calibrate(samples, basic_config(alpha_cnf=0.05))
        assert result.lambda_cnf_plus == 1.0
        [record] = [r for r in caplog.records if r.name == "condet.calibration"]
        message = record.getMessage()
        assert record.levelno == logging.WARNING
        assert "alpha_cnf=0.05, n=10, alpha_cnf*(n+1)=0.55 <" in message
        assert "carries no guarantee" in message

    def test_feasible_top_is_not_logged(self, caplog):
        gt = BoundingBox(10, 10, 30, 30)
        samples = [ImageSample(f"i{j}", ((gt, 0),), (covering_detection(gt, 1.0),)) for j in range(4)]
        with caplog.at_level(logging.WARNING, logger="condet.calibration"):
            plus, _ = seqcrc_step1(samples, basic_config())
        assert plus == 0.0
        assert not [r for r in caplog.records if r.name == "condet.calibration"]

    def test_minus_never_exceeds_plus(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            samples = random_dataset(rng, int(rng.integers(1, 8)))
            config = random_config(rng, len(samples))
            plus, minus = seqcrc_step1(samples, config)
            assert minus <= plus, trial

    def test_matches_crc_when_second_step_losses_vanish(self):
        # An always-selected anchor detection covering every object keeps the
        # localization/classification risks at zero, so the combined rule
        # reduces to plain single-parameter calibration of the count loss.
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            samples = []
            curves = []
            for i in range(n):
                gts = tuple(
                    (BoundingBox(10 * j, 0, 10 * j + 8, 8), 0) for j in range(2)
                )
                anchor = Detection(
                    box=BoundingBox(-5, -5, 100, 100),
                    probs=random_probs(rng, 3),
                    confidence=1.0,
                )
                extras = tuple(
                    Detection(
                        box=BoundingBox(-5, -5, 100, 100),
                        probs=random_probs(rng, 3),
                        confidence=float(rng.uniform(0.05, 0.99)),
                    )
                    for _ in range(2)
                )
                sample = ImageSample(f"i{i}", gts, (anchor,) + extras)
                samples.append(sample)
                # count loss steps where the second-highest confidence drops out
                second = sorted((d.confidence for d in sample.detections), reverse=True)[1]
                curves.append(StepLossCurve.binary(1.0 - second))
            alpha = float(rng.uniform(1.0 / (n + 1) + 0.02, 0.8))
            config = basic_config(alpha_cnf=alpha)
            plus, _ = seqcrc_step1(samples, config)
            expected = crc_calibrate(curves, alpha, 1.0, (0.0, 1.0))
            assert plus == expected

        # A tie: at the breakpoint below 0.48 the summed count losses + 1 exceed
        # alpha_cnf * (n + 1) by an ulp, while n * (sum / n) + 1 does not,
        # so a test of the latter form stops one breakpoint too low.
        samples = []
        curves = []
        for i in range(23):
            gts = tuple((BoundingBox(10 * j, 0, 10 * j + 8, 8), 0) for j in range(2))
            dets = tuple(
                Detection(box=BoundingBox(-5, -5, 100, 100), probs=(1.0, 0.0, 0.0), confidence=c)
                for c in (1.0, 0.04 * (i + 1))
            )
            samples.append(ImageSample(f"i{i}", gts, dets))
            curves.append(StepLossCurve.binary(1.0 - 0.04 * (i + 1)))
        alpha = 0.5833333333333333
        plus, _ = seqcrc_step1(samples, basic_config(alpha_cnf=alpha))
        assert plus == crc_calibrate(curves, alpha, 1.0, (0.0, 1.0)) == 0.48

    def test_monotonized_trace_non_decreasing_downward(self):
        # The exact per-task sums at every sweep point, read from the states
        # each point reaches, equal brute-force monotonization of the public
        # per-image losses.
        rng = np.random.default_rng(3)
        for _ in range(50):
            samples = tuple(random_dataset(rng, int(rng.integers(1, 6)), min_dets=1))
            kernel = _PrefixKernel(_SampleTable.from_samples(samples), random_config(rng, len(samples)))
            sums = exact_task_sums(kernel)
            points = [1.0, *kernel.visit_lams]
            assert list(zip(points, map(max, *sums))) == exact_step1_sums(samples, kernel.config)

    def test_exact_tests_stay_logarithmic(self, monkeypatch):
        # A long tied plateau: 48 images keep their top detection down to
        # lambda_cnf 0.01, below 432 breakpoints of lower detections, while
        # 15 images without one hold every task's summed loss at 15, and
        # alpha_cnf * (n + 1) = 16 = 15 + B exactly.
        gt = BoundingBox(10, 10, 30, 30)
        samples = [ImageSample(f"e{i}", ((gt, 0),), ()) for i in range(15)]
        samples += [
            ImageSample(f"p{i}", ((gt, 0),), (covering_detection(gt, 0.99 + i / 10000),) + tuple(
                covering_detection(gt, 0.3 + 0.6 * (9 * i + j) / 432) for j in range(9)
            ))
            for i in range(48)
        ]
        config = basic_config(alpha_cnf=16 / 64, alpha_loc=0.9, alpha_cls=0.9)
        calls = []
        admits = calibration_module._admits
        monkeypatch.setattr(calibration_module, "_admits", lambda *a: calls.append(1) or admits(*a))
        sweep = calibration_module._sweep_confidence
        step1 = []

        def counted_sweep(kernel):
            before = len(calls)
            out = sweep(kernel)
            step1.append(len(calls) - before)
            return out

        monkeypatch.setattr(calibration_module, "_sweep_confidence", counted_sweep)
        result = calibrate(samples, config)
        points = int(result.diagnostics["n_confidence_breakpoints"])
        assert points == 481
        assert (result.lambda_cnf_plus, result.lambda_cnf_minus) == exact_step1_oracle(samples, config)
        assert step1[0] <= 2 * 3 * (math.ceil(math.log2(points + 2)) + 1)

    def test_candidates_are_sorted_once_per_domain(self, monkeypatch):
        # Step 1 sorts its candidates once for its three tasks and both stop
        # points; step 2 once per task (neither loss here is pixelwise).
        samples = generate(SynthSpec(seed=5, n_images=40, num_classes=4, false_positive_rate=3.0))
        calls = []
        candidates = calibration_module._candidates
        monkeypatch.setattr(calibration_module, "_candidates", lambda *a: calls.append(1) or candidates(*a))
        calibrate(samples, basic_config(alpha_cnf=0.1, alpha_loc=0.5, alpha_cls=0.5))
        assert len(calls) == 3

    def test_empty_calibration_set(self):
        with pytest.raises(ValueError):
            seqcrc_step1([], basic_config())


class TestStep2:
    def test_all_feasible_converges_to_lower_bound(self):
        gt = BoundingBox(10, 10, 30, 30)
        samples = [
            ImageSample(f"i{j}", ((gt, 0),), (covering_detection(gt, 0.8),))
            for j in range(3)
        ]
        config = basic_config(alpha_loc=0.5, lambda_loc_bounds=(0.0, 64.0))
        assert seqcrc_step2(samples, 1.0, "loc", config) == 0.0

    def test_three_image_hand_instance(self):
        # Required additive margins 4, 7 and 12 pixels; one allowed failure
        # puts the exact infimum at 7.
        samples = []
        for j, r in enumerate((4.0, 7.0, 12.0)):
            gt = BoundingBox(0, 0, 10, 10)
            det_box = BoundingBox(-r, 0, 10 - r, 10)
            det = Detection(box=det_box, probs=(1.0,), confidence=0.9)
            samples.append(ImageSample(f"i{j}", ((gt, 0),), (det,)))
        config = CalibrationConfig(
            alpha_cnf=0.2,
            alpha_loc=0.5,
            alpha_cls=0.5,
            loss_spec=LossSpec(localization_kind="boxwise"),
            lambda_loc_bounds=(0.0, 20.0),
        )
        assert seqcrc_step2(samples, 1.0, "loc", config) == 7.0

    def test_returned_parameter_feasible_under_reevaluation(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            samples = random_dataset(rng, n, min_dets=1)
            config = random_config(rng, n)
            task = str(rng.choice(["loc", "cls"]))
            lam_minus = float(rng.uniform(0, 1))
            try:
                got = seqcrc_step2(samples, lam_minus, task, config)
            except InfeasibleRiskError:
                continue
            checked += 1
            # independent re-evaluation of the monotonized constraint
            visited = []
            for p in confidence_visit_points(samples):
                visited.append(p)
                if p <= lam_minus:
                    break
            total = 0.0
            for sample in samples:
                worst = 0.0
                for p in visited:
                    if task == "loc":
                        v = pure_image_losses(sample, p, got, 1.0, config)[1]
                    else:
                        v = pure_image_losses(sample, p, 0.0, got, config)[2]
                    worst = max(worst, v)
                total += worst
            risk = total / n
            alpha = config.alpha_loc if task == "loc" else config.alpha_cls
            assert n * risk / (n + 1) + 1.0 / (n + 1) <= alpha + 1e-12

            # two steps of the pixelwise grid below, the constraint must fail;
            # for the step-function losses that is also far below any rounding
            # of the candidate that was returned
            lo, hi = config.lambda_loc_bounds if task == "loc" else config.lambda_cls_bounds
            resolution = (hi - lo) * 2.0 ** -32
            below = got - 2.0 * resolution
            if below > lo:
                total = 0.0
                for sample in samples:
                    worst = 0.0
                    for p in visited:
                        if task == "loc":
                            v = pure_image_losses(sample, p, below, 1.0, config)[1]
                        else:
                            v = pure_image_losses(sample, p, 0.0, below, config)[2]
                        worst = max(worst, v)
                    total += worst
                risk_below = total / n
                assert n * risk_below / (n + 1) + 1.0 / (n + 1) > alpha - 1e-12
        assert checked > 100

    def test_cut_at_one_takes_the_full_prefixes_alone(self):
        # Boxes on the pixel lattice and confidences rounded to one decimal,
        # so some detections have confidence 0 (requirement 1): at
        # lambda_cnf_minus = 1 they are still selected, and the second step
        # must not monotonize over the prefixes without them.
        rng = np.random.default_rng(61)
        checked = 0
        for trial in range(120):
            n = int(rng.integers(3, 8))
            samples = [
                ImageSample(
                    f"img{i}",
                    tuple((random_int_box(rng, 40), int(rng.integers(0, 3)))
                          for _ in range(int(rng.integers(0, 3)))),
                    tuple(Detection(random_int_box(rng, 40), random_probs(rng, 3),
                                    round(float(rng.uniform(0.0, 1.0)), 1))
                          for _ in range(int(rng.integers(1, 4)))),
                )
                for i in range(n)
            ]
            config = replace(random_config(rng, n), alpha_cnf=0.01, lambda_loc_bounds=(0.0, 90.0))
            if config.loss_spec.localization_kind == "pixelwise":
                continue
            if seqcrc_step1(samples, config)[1] != 1.0:
                continue
            for task in ("loc", "cls"):
                oracle = exact_step2_oracle(samples, 1.0, task, config)
                try:
                    got = seqcrc_step2(samples, 1.0, task, config)
                except InfeasibleRiskError:
                    got = None
                assert got == oracle, (trial, task, got, oracle)
                checked += 1
        assert checked > 50

    def test_matches_crc_on_integer_margins(self):
        # One ground truth per image and one detection shifted by an integer
        # number of pixels: the boxwise loss is the indicator of a margin
        # below the shift, so the second step is crc_calibrate on the
        # shifts. The first instance is a tie: at 10 the summed losses + 1
        # exceed alpha_loc * (n + 1) by an ulp, while n * (sum / n) + 1 does
        # not, so a test of the latter form returns 10.0.
        def both(shifts, alpha):
            gt = BoundingBox(10, 10, 20, 20)
            samples = [
                ImageSample(f"i{i}", ((gt, 0),), (Detection(
                    box=BoundingBox(10 + dx, 10 + dy, 20 + dx, 20 + dy), probs=(1.0, 0.0),
                    confidence=0.9,
                ),))
                for i, (dx, dy) in enumerate(shifts)
            ]
            curves = [StepLossCurve.binary(float(max(abs(dx), abs(dy)))) for dx, dy in shifts]
            config = basic_config(alpha_loc=alpha, lambda_loc_bounds=(0.0, 100.0))
            outcomes = []
            for run in (lambda: seqcrc_step2(samples, 1.0, "loc", config),
                        lambda: crc_calibrate(curves, alpha, 1.0, (0.0, 100.0))):
                try:
                    outcomes.append(run())
                except InfeasibleRiskError:
                    outcomes.append(None)
            return outcomes

        assert both([(i + 1, 0) for i in range(23)], 0.5833333333333333) == [11.0, 11.0]
        rng = np.random.default_rng(62)
        for trial in range(300):
            n = int(rng.integers(2, 100))
            shifts = [tuple(int(v) for v in rng.integers(-60, 61, 2)) for _ in range(n)]
            # alpha * (n + 1) on or next to the summed loss + 1 at one of the
            # shifts, where the decision is a tie
            reach = [max(abs(dx), abs(dy)) for dx, dy in shifts]
            cut = reach[int(rng.integers(0, n))]
            alpha = (sum(r > cut for r in reach) + 1) / (n + 1)
            alpha = float(np.nextafter(alpha, alpha + rng.choice([-1.0, 0.0, 1.0])))
            got, want = both(shifts, alpha)
            assert got == want, (trial, got, want)

    def test_unknown_task_rejected_before_the_kernel(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr("condet.calibration._PrefixKernel", no_kernel)
        gt = BoundingBox(10, 10, 30, 30)
        samples = [ImageSample("i0", ((gt, 0),), (covering_detection(gt, 0.8),))]
        with pytest.raises(ValueError, match="unknown task 'size'"):
            seqcrc_step2(samples, 1.0, "size", basic_config())

    def test_infeasible_alpha_raises(self):
        gt = BoundingBox(10, 10, 30, 30)
        samples = [
            ImageSample(f"i{j}", ((gt, 0),), (covering_detection(gt, 0.8),))
            for j in range(3)
        ]
        # alpha below 1/(n+1): even a zero risk cannot satisfy the constraint
        config = basic_config(alpha_loc=0.2)
        with pytest.raises(InfeasibleRiskError):
            seqcrc_step2(samples, 1.0, "loc", config)


class TestCalibrate:
    @pytest.mark.parametrize(
        "entry",
        [
            calibrate,
            seqcrc_step1,
            lambda samples, config: seqcrc_step2(samples, 0.5, "loc", config),
        ],
        ids=["calibrate", "step1", "step2"],
    )
    def test_empty_set_refused_by_every_entry(self, entry):
        # alpha_loc breaks the precondition: the empty set is named first.
        config = basic_config(alpha_cnf=0.5, alpha_loc=0.1)
        with pytest.raises(ValueError, match="^empty calibration set$") as caught:
            entry([], config)
        assert not isinstance(caught.value, CalibrationPreconditionError)

    def test_vector_lengths_differ_across_images(self):
        gt = BoundingBox(10, 10, 30, 30)
        samples = [
            ImageSample("i0", ((gt, 0),), (covering_detection(gt, 0.8, k=2),)),
            ImageSample("i1", ((gt, 0),), (covering_detection(gt, 0.8, k=3),)),
        ]
        with pytest.raises(ValueError, match="^all probability vectors must have the same length$"):
            calibrate(samples, basic_config(alpha_cnf=0.1, alpha_loc=0.9, alpha_cls=0.9))

    @pytest.mark.parametrize("confidence", [0.8, 0.1])
    def test_evaluate_refuses_vector_lengths_that_differ_across_images(self, confidence):
        # As calibrate does, whether or not the detections are selected.
        gt = BoundingBox(10, 10, 30, 30)
        samples = [
            ImageSample("i0", ((gt, 0),), (covering_detection(gt, 0.8, k=2),)),
            ImageSample("i1", ((gt, 0),), (covering_detection(gt, confidence, k=3),)),
        ]
        config = basic_config(alpha_cnf=0.1, alpha_loc=0.9, alpha_cls=0.9)
        result = CalibrationResult(0.5, 0.5, 0.0, 0.5, config, 10, {})
        with pytest.raises(ValueError, match="^all probability vectors must have the same length$"):
            evaluate(samples, result)

    def test_data_bounds_of_an_overflowing_span_refused(self):
        # Each coordinate is finite; their span is not.
        gt = BoundingBox(-1e308, 0, 1e308, 10)
        samples = [ImageSample("i0", ((gt, 0),), (covering_detection(BoundingBox(0, 0, 10, 10), 0.8),))]
        with pytest.raises(ValueError, match="^calibration boxes must have finite coordinates$"):
            calibrate(samples, basic_config(alpha_cnf=0.1, alpha_loc=0.9, alpha_cls=0.9, lambda_loc_bounds=None))

    @pytest.mark.parametrize("localization", ["boxwise", "pixelwise"])
    @pytest.mark.parametrize("margins", ["additive", "multiplicative"])
    @pytest.mark.parametrize("match", ["hausdorff", "giou"])
    def test_coordinates_near_the_float_limit_warn_nothing(self, localization, margins, match):
        # Their spans, areas and margins overflow to inf, silently in the
        # scalar code; the kernel printed "RuntimeWarning: overflow encountered".
        huge, small = BoundingBox(0, 0, 1e308, 1e308), BoundingBox(0, 0, 10, 10)
        samples = [
            ImageSample(f"i{i}", ((huge, 0), (small, 1)),
                        (covering_detection(small, 0.9), covering_detection(huge, 0.5 + i / 20)))
            for i in range(6)
        ]
        config = basic_config(
            loss_spec=LossSpec(localization_kind=localization),
            predset_spec=PredSetSpec(localization_kind=margins),
            match_spec=MatchDistanceSpec(match),
            lambda_loc_bounds=(0.0, 1e308),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                calibrate(samples, config)
            except InfeasibleRiskError:
                pass  # an answer too (the pixelwise loss of an infinite area is NaN)

    def test_precondition_violation_names_inequality(self):
        rng = np.random.default_rng(5)
        # In floats 0.29 + 1/277 rounds to 0.2936101083032491 itself, which
        # lies below the rational floor.
        for n, alpha_cnf, alpha_loc in ((5, 0.1, 0.12), (276, 0.29, 0.2936101083032491)):
            samples = random_dataset(rng, n, min_dets=1)
            config = CalibrationConfig(alpha_cnf=alpha_cnf, alpha_loc=alpha_loc, alpha_cls=0.5,
                                       lambda_loc_bounds=(0.0, 300.0))
            with pytest.raises(CalibrationPreconditionError, match="alpha_loc"):
                calibrate(samples, config)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        samples = random_dataset(rng, 8, min_dets=1)
        config = random_config(rng, 8)
        a = calibrate(samples, config)
        b = calibrate(samples, config)
        assert a == b

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError, match="lambda_loc_bounds must be finite"):
            basic_config(lambda_loc_bounds=(0.0, math.inf))

    @pytest.mark.parametrize("threshold", [float("nan"), 2.0, -1.0])
    def test_prefilter_threshold_validated(self, threshold):
        with pytest.raises(ValueError, match="prefilter_threshold must lie in"):
            basic_config(prefilter_threshold=threshold)

    def test_non_finite_box_names_image(self):
        # The detection rejects its box, so no sample can hold it.
        with pytest.raises(ValueError, match="^box coordinates must be finite$"):
            covering_detection(BoundingBox(0, 0, math.inf, 5), 0.8)

    @pytest.mark.parametrize("bounds", [(0.0, 50.0), None])
    @pytest.mark.parametrize("what", ["ground-truth", "detection"])
    @pytest.mark.parametrize(
        "entry",
        [
            calibrate,
            seqcrc_step1,
            lambda samples, config: seqcrc_step2(samples, 0.5, "loc", config),
        ],
        ids=["calibrate", "step1", "step2"],
    )
    def test_reversed_box_names_image(self, entry, what, bounds):
        # At these levels, three such detection boxes among 40 images used
        # to move lambda_loc_plus from 0.0 to 20.0 without an error.
        gt = BoundingBox(10, 10, 30, 30)
        reversed_box = BoundingBox(30, 10, 10, 30)
        samples = [
            ImageSample(f"i{j}", ((gt, 0),), (covering_detection(gt, 0.8),)) for j in range(40)
        ]
        # Such a sample can no longer be built, so no entry point sees one.
        message = "box corners out of order (left<=right, top<=bottom required)"
        if what == "ground-truth":
            message = f"image 'bad5': ground truth #0: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            for j in (5, 9, 21):
                if what == "ground-truth":
                    samples[j] = ImageSample(f"bad{j}", ((reversed_box, 0),), samples[j].detections)
                else:
                    samples[j] = ImageSample(f"bad{j}", ((gt, 0),), (covering_detection(reversed_box, 0.8),))
        config = basic_config(alpha_cnf=0.05, alpha_loc=0.08, alpha_cls=0.3, lambda_loc_bounds=bounds)
        entry(samples, config)

    @pytest.mark.parametrize("margin", ["additive", "multiplicative"])
    def test_data_bounds_follow_the_span_rule(self, margin):
        def reference(samples):
            # The rule as a loop over every box: the span of all coordinates
            # and 0, plus one pixel.
            corners = [0.0]
            for s in samples:
                for box in [b for b, _ in s.ground_truths] + [d.box for d in s.detections]:
                    corners += [box.left, box.top, box.right, box.bottom]
            return (0.0, max(corners) - min(corners) + 1.0)

        def translate(box, shift):
            return BoundingBox(box.left + shift, box.top + shift, box.right + shift, box.bottom + shift)

        rng = np.random.default_rng(12)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            shift = float(rng.choice([0.0, -250.5, 1e3 / 3]))
            samples = [
                ImageSample(s.image_id, tuple((translate(b, shift), c) for b, c in s.ground_truths),
                            tuple(replace(d, box=translate(d.box, shift)) for d in s.detections))
                for s in random_dataset(rng, n, max_gts=2, max_dets=2)
            ]
            want = reference(samples) if margin == "additive" else (0.0, 3.0)
            assert default_lambda_loc_bounds(samples, margin) == want, trial
            config = basic_config(lambda_loc_bounds=None, predset_spec=PredSetSpec(margin))
            assert _PrefixKernel(_SampleTable.from_samples(samples), config).config.lambda_loc_bounds == want, trial
        assert default_lambda_loc_bounds([], "additive") == (0.0, 1.0)

    @pytest.mark.parametrize(
        "probs, cls_kind, match_kind",
        [
            ((math.nan, 0.7), "lac", "hausdorff"),
            ((math.nan, 0.7), "aps", "giou"),
            ((-0.25, 1.25), "lac", "hausdorff"),
            ((0.5, -0.5), "aps", "hausdorff"),
            ((math.inf, 0.0), "lac", "lac"),
            ((math.nan, 1.0), "aps", "mix"),
        ],
    )
    def test_invalid_probability_names_image(self, probs, cls_kind, match_kind):
        # A NaN used to calibrate lambda_cls to 0 with zero risk, and a
        # negative probability ended as an InfeasibleRiskError.
        gt = BoundingBox(10, 10, 30, 30)
        samples = [
            ImageSample(f"i{j}", ((gt, 0),), (Detection(gt, (0.3, 0.7), 0.8),)) for j in range(40)
        ]
        # The detection rejects the vector, so the sample cannot be built.
        with pytest.raises(ValueError, match="^probs (must be non-negative|sum to inf, expected 1 within 1e-4)$"):
            samples[17] = ImageSample("bad", ((gt, 0),), (Detection(gt, probs, 0.8),))
        config = basic_config(
            alpha_cnf=0.1, alpha_loc=0.5, alpha_cls=0.5,
            predset_spec=PredSetSpec(classification_kind=cls_kind),
            match_spec=MatchDistanceSpec(match_kind),
        )
        calibrate(samples, config)

    def test_result_fields_and_domains(self):
        rng = np.random.default_rng(7)
        samples = random_dataset(rng, 10, min_dets=1)
        config = random_config(rng, 10)
        result = calibrate(samples, config)
        assert result.lambda_cnf_minus <= result.lambda_cnf_plus
        assert 0.0 <= result.lambda_cnf_plus <= 1.0
        lo, hi = result.config.lambda_loc_bounds
        assert lo <= result.lambda_loc_plus <= hi
        assert 0.0 <= result.lambda_cls_plus <= 1.0
        assert result.n_calibration == 10
        assert "cnf_monotonized_risk" in result.diagnostics

    @pytest.mark.parametrize(
        "lam_loc, lam_cls, diagnostics, message",
        [
            (1e9, 0.4, {}, "lambda_loc_plus must lie in lambda_loc_bounds [2.0, 10.0], got 1000000000.0"),
            (1.5, 0.4, {}, "lambda_loc_plus must lie in lambda_loc_bounds [2.0, 10.0], got 1.5"),
            (5.0, 0.9, {}, "lambda_cls_plus must lie in lambda_cls_bounds [0.25, 0.5], got 0.9"),
            (5.0, 0.125, {}, "lambda_cls_plus must lie in lambda_cls_bounds [0.25, 0.5], got 0.125"),
            (5.0, 0.4, {"cnf_monotonized_risk": math.nan}, "every diagnostic must be finite"),
            (5.0, 0.4, {"loc_monotonized_risk": -math.inf}, "every diagnostic must be finite"),
        ],
    )
    def test_result_outside_its_config_rejected(self, lam_loc, lam_cls, diagnostics, message):
        config = basic_config(lambda_loc_bounds=(2.0, 10.0), lambda_cls_bounds=(0.25, 0.5))
        with pytest.raises(ValueError, match=re.escape(message)):
            CalibrationResult(0.5, 0.4, lam_loc, lam_cls, config, 10, diagnostics)
        # The bounds themselves are inside.
        CalibrationResult(0.5, 0.4, 10.0, 0.25, config, 10, {"cnf_monotonized_risk": 0.0})

    def test_larger_alpha_never_larger_lambda(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            samples = random_dataset(rng, n, min_dets=1)
            config = random_config(rng, n)
            loose = replace(
                config,
                alpha_cnf=min(0.97, config.alpha_cnf + 0.1),
                alpha_loc=min(0.98, config.alpha_loc + 0.1),
                alpha_cls=min(0.98, config.alpha_cls + 0.1),
            )
            try:
                tight_result = calibrate(samples, config)
                loose_result = calibrate(samples, loose)
            except InfeasibleRiskError:
                continue
            assert loose_result.lambda_cnf_plus <= tight_result.lambda_cnf_plus
            assert loose_result.lambda_loc_plus <= tight_result.lambda_loc_plus + 1e-12
            assert loose_result.lambda_cls_plus <= tight_result.lambda_cls_plus + 1e-12


def lattice_dataset(seed: int, n: int) -> list:
    """``n`` synthetic images with every box on the integer pixel lattice, so
    that translating a box by an integer and scaling it by a power of two
    are exact."""
    def snap(box):
        left, top = float(round(box.left)), float(round(box.top))
        return BoundingBox(left, top, max(float(round(box.right)), left + 1.0),
                           max(float(round(box.bottom)), top + 1.0))

    spec = SynthSpec(seed=seed, n_images=n, num_classes=4, image_width=40.0, image_height=40.0,
                     objects_min=0, objects_max=3, box_noise_std=2.5, false_positive_rate=1.2,
                     label_flip_probability=0.1)
    return mapped(generate(spec), box=snap)


def mapped(samples, box=lambda b: b, label=lambda c: c, probs=lambda p: p) -> list:
    """``samples`` with ``box`` applied to every box, ``label`` to every
    ground-truth class and ``probs`` to every probability vector."""
    return [
        ImageSample(
            s.image_id,
            tuple((box(b), label(c)) for b, c in s.ground_truths),
            tuple(Detection(box(d.box), probs(d.probs), d.confidence) for d in s.detections),
        )
        for s in samples
    ]


def relation_case(seed: int, **kinds):
    """A lattice calibration set and a config of random kinds, the ones in
    ``kinds`` fixed (``localization``, ``margin``, ``classes``, ``match``)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    alpha_cnf = float(rng.uniform(0.05, 0.3))
    alpha_loc, alpha_cls = (alpha_cnf + 1.0 / (n + 1) + float(rng.uniform(0.05, 0.4)) for _ in "lc")

    def kind(name, choices):
        return kinds.get(name, str(rng.choice(choices)))

    margin = kind("margin", ["additive", "multiplicative"])
    config = CalibrationConfig(
        alpha_cnf=alpha_cnf,
        alpha_loc=min(0.95, alpha_loc),
        alpha_cls=min(0.95, alpha_cls),
        loss_spec=LossSpec(
            confidence_kind=kind("confidence", ["box_count_threshold", "box_count_recall"]),
            localization_kind=kind("localization", ["boxwise", "pixelwise", "thresholded"]),
            localization_tau=float(rng.choice([0.5, 1.0])),
            classification_aggregation=kind("aggregation", ["average", "max", "thresholded"]),
        ),
        predset_spec=PredSetSpec(margin, kind("classes", ["lac", "aps"])),
        match_spec=MatchDistanceSpec(kind("match", ["hausdorff", "lac", "mix", "giou"])),
        lambda_loc_bounds=(0.0, 90.0) if margin == "additive" else (0.0, 3.0),
    )
    return lattice_dataset(8100 + seed, n), config


def lambdas(samples, config, loc_scale: float = 1.0):
    """The λ's, with ``lambda_loc_plus`` divided by ``loc_scale``, and the
    diagnostics of ``calibrate``; or the type of the error it raises."""
    r = calibration_outcome(samples, config)
    if isinstance(r, type):
        return r
    return (r.lambda_cnf_plus, r.lambda_cnf_minus, r.lambda_loc_plus / loc_scale,
            r.lambda_cls_plus, r.diagnostics)


class TestRelations:
    """Transformations of the calibration set that map every λ exactly."""

    @pytest.mark.parametrize("seed", range(12))
    def test_integer_translation_keeps_every_lambda(self, seed):
        # The pixelwise loss is left out: a grid margin added to a
        # translated coordinate rounds at that coordinate's magnitude.
        samples, config = relation_case(
            seed, margin="additive", localization=("boxwise", "thresholded")[seed % 2]
        )
        shift = float(np.random.default_rng(seed).integers(-300, 300))
        moved = mapped(samples, box=lambda b: BoundingBox(
            b.left + shift, b.top + shift, b.right + shift, b.bottom + shift))
        assert lambdas(moved, config) == lambdas(samples, config)

    @pytest.mark.parametrize("seed", range(12))
    def test_power_of_two_scaling_maps_lambda_loc(self, seed):
        # Not the mix distance, which adds a probability to a length.
        samples, config = relation_case(
            seed, localization=("boxwise", "pixelwise", "thresholded")[seed % 3],
            match=("hausdorff", "lac", "giou")[seed % 3],
        )
        factor = 2.0 ** (-3, 5)[seed % 2]
        scaled = mapped(samples, box=lambda b: BoundingBox(
            b.left * factor, b.top * factor, b.right * factor, b.bottom * factor))
        if config.predset_spec.localization_kind == "additive":
            lo, hi = config.lambda_loc_bounds
            assert lambdas(scaled, replace(config, lambda_loc_bounds=(lo * factor, hi * factor)),
                           factor) == lambdas(samples, config)
        else:  # a multiplicative margin is relative to the box
            assert lambdas(scaled, config) == lambdas(samples, config)

    @pytest.mark.parametrize("seed", range(12))
    def test_class_relabeling_keeps_every_lambda_under_lac(self, seed):
        samples, config = relation_case(seed, classes="lac")
        sigma = np.random.default_rng(seed).permutation(4).tolist()
        inverse = np.argsort(sigma).tolist()
        relabeled = mapped(samples, label=sigma.__getitem__,
                           probs=lambda p: tuple(p[inverse[c]] for c in range(len(p))))
        assert lambdas(relabeled, config) == lambdas(samples, config)


class TestEngineMatchesPurePath:
    def test_losses_agree_between_routes(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            samples = tuple(random_dataset(rng, n))
            kernel = _PrefixKernel(_SampleTable.from_samples(samples), random_config(rng, n))
            config = kernel.config
            every = kernel.reach(len(kernel.visit_lams))
            for i in range(n):
                lam_cnf = float(rng.uniform(0, 1))
                lam_loc = float(rng.uniform(0, config.lambda_loc_bounds[1]))
                lam_cls = float(rng.uniform(0, 1))
                # the prefix a threshold selects is the image's prefix at
                # the threshold's visit, and lies in the state of that visit
                v = kernel.visit_at(lam_cnf)
                k = len(select_confident(samples[i], lam_cnf))
                s = kernel.states_at(v)[i]
                assert kernel.prefix_lengths(v)[i] == k
                assert kernel.assignment(i, kernel._k[s]) == kernel.assignment(i, k)
                pure = pure_image_losses(samples[i], lam_cnf, lam_loc, lam_cls, config)
                assert kernel.conf_losses(v)[i] == pure[0]
                assert every.loc_losses(lam_loc)[s] == pure[1]
                assert every.cls_losses(lam_cls)[s] == pure[2]


class TestOracleAgreementSmoke:
    """Small-scale version of the acceptance brute-force comparison."""

    def test_twenty_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            samples = random_dataset(rng, n, max_gts=2, max_dets=3, span=40.0)
            config = replace(random_config(rng, n), lambda_loc_bounds=(0.0, 90.0))
            check_against_oracles(samples, config, trial)
