"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them live).

The expensive checks are the brute-force agreement sweep (criterion 1) and
the Monte Carlo guarantee validation (criterion 3); both run far inside
their stated time budgets.
"""

import contextlib
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from condet import (
    BoundingBox,
    CalibrationConfig,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    StepLossCurve,
    SynthSpec,
    cls_loss,
    cls_set_aps,
    cls_set_lac,
    conf_loss,
    contains,
    crc_calibrate,
    generate,
    hausdorff_distance,
    loc_loss,
    loc_set_additive,
    match,
    monte_carlo_validate,
    select_confident,
    seqcrc_step1,
)
from condet.calibration import _PrefixKernel, _SampleTable
from condet.losses import ImageSample
from condet.predsets import apply_margin, build_class_set
from helpers import exact_task_sums, random_int_box, random_probs, random_sample
from oracles import check_against_oracles


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


CONF_KINDS = ("box_count_threshold", "box_count_recall")
LOC_LOSS_KINDS = ("boxwise", "pixelwise", "thresholded")
CLS_SET_KINDS = ("lac", "aps")
LOC_SET_KINDS = ("additive", "multiplicative")
AGG_KINDS = ("average", "max", "thresholded")
MATCH_KINDS = ("hausdorff", "lac", "mix", "giou")


def _instance_config(rng, index: int, n: int) -> CalibrationConfig:
    loc_set = LOC_SET_KINDS[index % 2]
    alpha_cnf = float(rng.uniform(0.05, 0.3))
    slack = 1.0 / (n + 1)
    return CalibrationConfig(
        alpha_cnf=alpha_cnf,
        alpha_loc=min(0.95, alpha_cnf + slack + float(rng.uniform(0.05, 0.4))),
        alpha_cls=min(0.95, alpha_cnf + slack + float(rng.uniform(0.05, 0.4))),
        loss_spec=LossSpec(
            confidence_kind=CONF_KINDS[index % 2],
            localization_kind=LOC_LOSS_KINDS[index % 3],
            localization_tau=(0.5, 1.0)[index % 2],
            classification_aggregation=AGG_KINDS[index % 3],
        ),
        predset_spec=PredSetSpec(localization_kind=loc_set, classification_kind=CLS_SET_KINDS[index % 2]),
        match_spec=MatchDistanceSpec(MATCH_KINDS[index % 4]),
        lambda_loc_bounds=(0.0, 121.0) if loc_set == "additive" else (0.0, 3.0),
    )


class TestCriterion1BruteForceOracle:
    def test_grid_oracle_agreement(self):
        start = time.time()
        rng = np.random.default_rng(101)
        step1_checked = 0
        step2_checked = 0
        instances = [(trial, False) for trial in range(500)] + [
            (trial, True) for trial in range(500, 506)
        ]
        with criterion(1, "brute-force infimum oracle"):
            for trial, large in instances:
                if large:
                    spec = SynthSpec(
                        seed=9000 + trial, n_images=50, num_classes=4,
                        image_width=40.0, image_height=40.0, objects_min=0,
                        objects_max=4, box_noise_std=2.5,
                        false_positive_rate=1.5, label_flip_probability=0.1,
                    )
                else:
                    spec = SynthSpec(
                        seed=9000 + trial, n_images=int(rng.integers(2, 7)),
                        num_classes=4, image_width=40.0, image_height=40.0,
                        objects_min=0, objects_max=2, box_noise_std=2.5,
                        false_positive_rate=0.6, label_flip_probability=0.1,
                    )
                samples = generate(spec)
                n = len(samples)
                config = _instance_config(rng, trial, n)

                step2_checked += check_against_oracles(samples, config, trial)
                step1_checked += 1
            elapsed = time.time() - start
            assert step1_checked >= 500
            assert step2_checked >= 900
            assert elapsed < 300.0, f"oracle sweep took {elapsed:.0f}s (budget 300s)"
        print(
            f"  checked {step1_checked} step-1 and {step2_checked} step-2 "
            f"instances in {elapsed:.1f}s"
        )


class TestCriterion2QuantileEquivalence:
    def test_crc_matches_split_conformal_quantile(self):
        start = time.time()
        rng = np.random.default_rng(202)
        with criterion(2, "split-conformal quantile equivalence"):
            for trial in range(100):
                n = int(rng.integers(3, 200))
                alpha = float(rng.uniform(1.0 / (n + 1) + 1e-9, 0.95))
                scores = np.sort(rng.uniform(0.0, 1.0, n))
                rank = math.ceil((n + 1) * (1.0 - alpha))
                assert 1 <= rank <= n
                curves = [StepLossCurve.binary(float(s)) for s in scores]
                got = crc_calibrate(curves, alpha, 1.0, (0.0, 1.0))
                assert got == float(scores[rank - 1]), trial
            elapsed = time.time() - start
            assert elapsed < 1.0, f"quantile check took {elapsed:.2f}s (budget 1s)"


MC_SPEC = SynthSpec(
    seed=2026,
    n_images=1,  # overridden per trial by the validator
    num_classes=8,
    image_width=64.0,
    image_height=64.0,
    objects_min=1,
    objects_max=4,
    box_noise_std=2.0,
    confidence_base=2.0,
    confidence_noise_coupling=1.5,
    false_positive_rate=0.8,
    label_flip_probability=0.05,
    softmax_temperature=0.35,
)

MC_CONFIG = CalibrationConfig(
    alpha_cnf=0.02,
    alpha_loc=0.1,
    alpha_cls=0.1,
    loss_spec=LossSpec(localization_kind="boxwise"),
    predset_spec=PredSetSpec(localization_kind="additive", classification_kind="lac"),
    match_spec=MatchDistanceSpec("hausdorff"),
    lambda_loc_bounds=(0.0, 200.0),
)


class TestCriterion3MonteCarloGuarantee:
    def test_mean_test_risks_below_targets(self):
        start = time.time()
        slack = 0.01
        with criterion(3, "Monte Carlo guarantee validation"):
            report = monte_carlo_validate(MC_SPEC, MC_CONFIG, trials=100, n_cal=500, n_test=500)
            assert report.loc.mean_risk <= MC_CONFIG.alpha_loc + slack, report.loc
            assert report.cls.mean_risk <= MC_CONFIG.alpha_cls + slack, report.cls
            assert report.cnf.mean_risk <= MC_CONFIG.alpha_cnf + slack, report.cnf
            assert (
                report.global_.mean_risk
                <= MC_CONFIG.alpha_loc + MC_CONFIG.alpha_cls + slack
            ), report.global_
            elapsed = time.time() - start
            assert elapsed < 900.0, f"Monte Carlo took {elapsed:.0f}s (budget 900s)"
        print(
            f"  mean risks: cnf={report.cnf.mean_risk:.4f} loc={report.loc.mean_risk:.4f} "
            f"cls={report.cls.mean_risk:.4f} global={report.global_.mean_risk:.4f} "
            f"({elapsed:.0f}s)"
        )

    def test_negative_control_trips_without_correction(self):
        # A tightened spec (small calibration sets) makes the missing
        # worst-case correction visible as a mean risk above target + slack.
        tight_spec = replace(
            MC_SPEC, seed=515, num_classes=4, objects_max=2,
            box_noise_std=3.0, false_positive_rate=0.3,
        )
        tight_config = replace(
            MC_CONFIG,
            alpha_loc=0.15,
            alpha_cls=0.15,
            finite_sample_correction=False,
        )
        slack = 0.01
        with criterion(3, "negative control (correction disabled)"):
            report = monte_carlo_validate(
                tight_spec, tight_config, trials=40, n_cal=8, n_test=50
            )
            violations = [
                s.mean_risk > s.alpha + slack
                for s in (report.cnf, report.loc, report.cls, report.global_)
            ]
            assert any(violations), report


class TestCriterion4MonotonicitySuite:
    def test_prediction_set_nestedness(self):
        rng = np.random.default_rng(404)
        with criterion(4, "monotonicity suite"):
            # nestedness of all three prediction-set families
            for _ in range(300):
                sample = random_sample(rng)
                lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
                assert set(select_confident(sample, float(lo))) <= set(
                    select_confident(sample, float(hi))
                )
                box = sample.detections[0].box if sample.detections else BoundingBox(0, 0, 5, 5)
                m_lo, m_hi = sorted(rng.uniform(0.0, 10.0, 2))
                for kind in LOC_SET_KINDS:
                    assert contains(
                        apply_margin(box, float(m_hi), kind),
                        apply_margin(box, float(m_lo), kind),
                    )
                probs = random_probs(rng, 6)
                assert cls_set_lac(probs, float(lo)) <= cls_set_lac(probs, float(hi))
                assert cls_set_aps(probs, float(lo)) <= cls_set_aps(probs, float(hi))

            # each task's exact monotonized sum never decreases as the sweep
            # descends, which step 1's bisection rests on
            for t in range(100):
                samples = generate(
                    SynthSpec(seed=5000 + t, n_images=int(rng.integers(1, 8)),
                              num_classes=4, objects_min=0, objects_max=3,
                              image_width=48.0, image_height=48.0,
                              box_noise_std=2.0, false_positive_rate=0.7)
                )
                config = _instance_config(rng, t, len(samples))
                kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
                for sums in exact_task_sums(kernel):
                    assert sums == sorted(sums)

            # conservative/optimistic ordering on 1000 random instances
            for t in range(1000):
                samples = generate(
                    SynthSpec(seed=6000 + t, n_images=int(rng.integers(1, 6)),
                              num_classes=4, objects_min=0, objects_max=2,
                              image_width=48.0, image_height=48.0,
                              box_noise_std=2.5, false_positive_rate=0.5)
                )
                config = _instance_config(rng, t, len(samples))
                plus, minus = seqcrc_step1(samples, config)
                assert minus <= plus

            # task losses never increase in their own parameter at a fixed matching
            for _ in range(200):
                sample = random_sample(rng, min_dets=1)
                if not sample.detections:
                    continue
                preds = [(d.box, d.probs) for d in sample.detections]
                assignment = match(sample.ground_truths, preds, MatchDistanceSpec("hausdorff"))
                lams = sorted(float(v) for v in rng.uniform(0.0, 40.0, 6))
                for loc_set in LOC_SET_KINDS:
                    for kind in LOC_LOSS_KINDS:
                        values = [
                            loc_loss(
                                sample, assignment,
                                [apply_margin(b, lam, loc_set) for b, _ in preds],
                                kind,
                            )
                            for lam in lams
                        ]
                        assert all(b <= a for a, b in zip(values, values[1:]))
                clams = sorted(float(v) for v in rng.uniform(0.0, 1.0, 6))
                for cls_set in CLS_SET_KINDS:
                    for agg in AGG_KINDS:
                        values = [
                            cls_loss(
                                sample, assignment,
                                [build_class_set(p, lam, cls_set) for _, p in preds],
                                agg,
                            )
                            for lam in clams
                        ]
                        assert all(b <= a for a, b in zip(values, values[1:]))


class TestCriterion5GeometryDuality:
    def test_margin_containment_duality(self):
        rng = np.random.default_rng(505)
        with criterion(5, "additive margin / Hausdorff duality"):
            for _ in range(10000):
                gt = random_int_box(rng)
                pred = random_int_box(rng)
                m = hausdorff_distance(gt, pred)
                probes = [m, m + 1e-9, m - 1e-9, float(rng.integers(0, 120))]
                for probe in probes:
                    if probe < 0.0:
                        continue
                    covered = contains(loc_set_additive(pred, probe), gt)
                    assert covered == (m <= probe), (gt, pred, m, probe)


class TestCriterion6EdgeCaseConformance:
    def test_empty_ground_truth_and_empty_selection(self):
        gt_box = BoundingBox(0, 0, 10, 10)
        no_gts = ImageSample("none", (), ())
        with_gts = ImageSample("some", ((gt_box, 0), (gt_box, 1)), ())
        with criterion(6, "edge-case conformance"):
            for kind in CONF_KINDS:
                assert conf_loss(no_gts, 0, kind) == 0.0
                assert conf_loss(no_gts, 3, kind) == 0.0
                assert conf_loss(with_gts, 0, kind) == 1.0
            empty_matching = (None, None)
            for kind in LOC_LOSS_KINDS:
                assert loc_loss(no_gts, (), [], kind) == 0.0
                assert loc_loss(with_gts, empty_matching, [], kind) == 1.0
            for agg in AGG_KINDS:
                assert cls_loss(no_gts, (), [], agg) == 0.0
                assert cls_loss(with_gts, empty_matching, [], agg) == 1.0


@pytest.mark.skipif(
    "CONDET_COCO_GT" not in os.environ or "CONDET_COCO_DET" not in os.environ,
    reason="optional real-data smoke; set CONDET_COCO_GT / CONDET_COCO_DET "
    "to COCO annotation and detection-results files to enable",
)
class TestCriterion7RealDataSmoke:
    def test_end_to_end_on_user_supplied_coco(self, tmp_path):
        from condet import calibrate, evaluate, import_coco
        from condet.dataio import _samples

        with criterion(7, "real-data end-to-end smoke"):
            dataset = import_coco(
                os.environ["CONDET_COCO_GT"], os.environ["CONDET_COCO_DET"]
            )
            samples = _samples(dataset.images, MC_CONFIG.prefilter_threshold)
            half = len(samples) // 2
            assert half >= 10, "need at least 20 images for the smoke test"
            config = replace(MC_CONFIG, lambda_loc_bounds=None)
            result = calibrate(samples[:half], config)
            report = evaluate(samples[half:], result)
            bound = 2.0 / math.sqrt(report.n_test)
            assert report.loc_risk <= config.alpha_loc + bound
            assert report.cls_risk <= config.alpha_cls + bound
            assert report.cnf_risk <= config.alpha_cnf + bound
