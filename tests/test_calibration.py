import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from condet import (
    BoundingBox,
    CalibrationConfig,
    CalibrationPreconditionError,
    Detection,
    ImageSample,
    InfeasibleRiskError,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    StepLossCurve,
    calibrate,
    crc_calibrate,
    seqcrc_step1,
    seqcrc_step2,
)
from condet.calibration import _PrefixKernel, _sweep_confidence, resolve_config
from condet.predsets import select_confident
from helpers import random_probs, random_sample
from oracles import grid_step1_oracle, grid_step2_oracle, pure_image_losses


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

    def test_monotonized_trace_non_decreasing_downward(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            samples = tuple(random_dataset(rng, int(rng.integers(1, 6)), min_dets=1))
            config = resolve_config(random_config(rng, len(samples)), samples)
            kernel = _PrefixKernel(samples, config)
            _, _, trace = _sweep_confidence(kernel)
            lams = [lam for lam, _ in trace]
            risks = [r for _, r in trace]
            assert lams == sorted(lams, reverse=True)
            assert all(b >= a - 1e-12 for a, b in zip(risks, risks[1:]))

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
        got = seqcrc_step2(samples, 1.0, "loc", config)
        assert 0.0 < got <= 64.0 * 2.0 ** -32 + 1e-15

    def test_three_image_hand_instance(self):
        # Required additive margins 4, 7 and 12 pixels; one allowed failure
        # puts the answer at 7 up to binary-search resolution.
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
        got = seqcrc_step2(samples, 1.0, "loc", config)
        assert abs(got - 7.0) <= 20.0 * 2.0 ** -32 + 1e-12

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
            from oracles import confidence_visit_points

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

            # just below the final search bracket the constraint must fail
            lo, hi = config.lambda_loc_bounds if task == "loc" else config.lambda_cls_bounds
            resolution = (hi - lo) * 2.0 ** -config.binary_search_steps
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
    def test_precondition_violation_names_inequality(self):
        rng = np.random.default_rng(5)
        samples = random_dataset(rng, 5, min_dets=1)
        config = CalibrationConfig(alpha_cnf=0.1, alpha_loc=0.12, alpha_cls=0.5,
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

    def test_non_finite_box_names_image(self):
        gt = BoundingBox(10, 10, 30, 30)
        samples = [
            ImageSample(f"i{j}", ((gt, 0),), (covering_detection(gt, 0.8),)) for j in range(3)
        ]
        samples.append(
            ImageSample("bad", ((gt, 0),), (covering_detection(BoundingBox(0, 0, math.inf, 5), 0.8),))
        )
        with pytest.raises(ValueError, match="image 'bad': non-finite detection box"):
            calibrate(samples, basic_config(alpha_cnf=0.1, alpha_loc=0.8, alpha_cls=0.8))
        with pytest.raises(ValueError, match="finite coordinates"):
            calibrate(samples, basic_config(alpha_cnf=0.1, alpha_loc=0.8, alpha_cls=0.8, lambda_loc_bounds=None))

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


class TestEngineMatchesPurePath:
    def test_losses_agree_between_routes(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            samples = tuple(random_dataset(rng, n))
            config = resolve_config(random_config(rng, n), samples)
            kernel = _PrefixKernel(samples, config)
            rows = list(zip(kernel.row_img.tolist(), kernel.row_k.tolist()))
            conf = kernel.conf_losses()
            for i in range(n):
                lam_cnf = float(rng.uniform(0, 1))
                lam_loc = float(rng.uniform(0, config.lambda_loc_bounds[1]))
                lam_cls = float(rng.uniform(0, 1))
                # every prefix a threshold selects is a row of the kernel
                r = rows.index((i, len(select_confident(samples[i], lam_cnf))))
                pure = pure_image_losses(samples[i], lam_cnf, lam_loc, lam_cls, config)
                assert conf[r] == pure[0]
                assert kernel.loc_losses(lam_loc, kernel.n_rows)[r] == pure[1]
                assert kernel.cls_losses(lam_cls, kernel.n_rows)[r] == pure[2]


class TestOracleAgreementSmoke:
    """Small-scale version of the acceptance brute-force comparison."""

    def test_twenty_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            samples = random_dataset(rng, n, max_gts=2, max_dets=3, span=40.0)
            config = resolve_config(random_config(rng, n), samples)
            config = replace(config, lambda_loc_bounds=(0.0, 90.0))
            plus, minus = seqcrc_step1(samples, config)
            o_plus, o_minus = grid_step1_oracle(samples, config)
            assert abs(plus - o_plus) <= 1e-3 + 1e-12, trial
            assert abs(minus - o_minus) <= 1e-3 + 1e-12, trial
            for task in ("loc", "cls"):
                lo, hi = (
                    config.lambda_loc_bounds if task == "loc" else config.lambda_cls_bounds
                )
                resolution = (hi - lo) * 2.0 ** -config.binary_search_steps
                oracle = grid_step2_oracle(samples, minus, task, config)
                try:
                    got = seqcrc_step2(samples, minus, task, config)
                except InfeasibleRiskError:
                    assert oracle is None or oracle > hi - (hi - lo) * 1e-3 - resolution
                    continue
                assert oracle is not None, (trial, task)
                assert abs(got - oracle) <= (hi - lo) * 1e-3 + resolution + 1e-12, (trial, task)
