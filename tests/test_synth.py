import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condet import (
    CalibrationConfig,
    LossSpec,
    MatchDistanceSpec,
    SynthSpec,
    generate,
    hausdorff_distance,
    match,
    monte_carlo_validate,
)
from condet.synth import format_report_table, report_to_dict


class TestGenerate:
    def test_same_seed_identical(self):
        spec = SynthSpec(seed=42, n_images=30)
        assert generate(spec) == generate(spec)

    def test_different_seed_differs(self):
        a = generate(SynthSpec(seed=1, n_images=10))
        b = generate(SynthSpec(seed=2, n_images=10))
        assert a != b

    def test_noiseless_limit_exact_twins(self):
        spec = SynthSpec(
            seed=3,
            n_images=40,
            box_noise_std=0.0,
            label_flip_probability=0.0,
            false_positive_rate=0.0,
            objects_min=1,
            objects_max=3,
        )
        for sample in generate(spec):
            assert len(sample.detections) == sample.n_ground_truths
            gt_boxes = {gt.as_tuple() for gt, _ in sample.ground_truths}
            for det in sample.detections:
                assert det.box.as_tuple() in gt_boxes
            # every detection's argmax equals the class of its (identical) box
            by_box = {gt.as_tuple(): label for gt, label in sample.ground_truths}
            for det in sample.detections:
                top = max(range(len(det.probs)), key=det.probs.__getitem__)
                assert top == by_box[det.box.as_tuple()]

    def test_prediction_count_floor(self):
        spec = SynthSpec(seed=4, n_images=200, objects_min=0, objects_max=3,
                         false_positive_rate=0.0)
        for sample in generate(spec):
            assert len(sample.detections) >= max(1, sample.n_ground_truths)

    def test_confidences_above_prefilter_floor(self):
        for sample in generate(SynthSpec(seed=5, n_images=50)):
            for det in sample.detections:
                assert 0.001 < det.confidence < 1.0

    def test_low_density_matching_recovers_twins(self):
        # With mild noise and well-separated objects the nearest detection of
        # almost every ground truth is its own noisy copy: the assignment is
        # injective and geometrically close.
        spec = SynthSpec(
            seed=6,
            n_images=150,
            image_width=400.0,
            image_height=400.0,
            box_noise_std=5.0,
            false_positive_rate=0.0,
            objects_min=1,
            objects_max=3,
        )
        images = 0
        injective = 0
        close = 0
        total_gts = 0
        mspec = MatchDistanceSpec("hausdorff")
        for sample in generate(spec):
            preds = [(d.box, d.probs) for d in sample.detections]
            assignment = match(sample.ground_truths, preds, mspec)
            images += 1
            if len(set(assignment)) == len(assignment):
                injective += 1
            for j, (gt, _) in enumerate(sample.ground_truths):
                total_gts += 1
                # a twin sits within a few noise sigmas; another object's twin
                # would be roughly an inter-object distance away
                if hausdorff_distance(gt, preds[assignment[j]][0]) <= 25.0:
                    close += 1
        assert close / total_gts >= 0.99
        assert injective / images >= 0.95


@st.composite
def synth_specs(draw):
    # Images of at least 10 px keep every ground-truth box (12-35% of a side)
    # at least 1 px wide, so every detection box must be too.
    objects_max = draw(st.integers(0, 5))
    return SynthSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_images=draw(st.integers(1, 8)),
        num_classes=draw(st.integers(2, 40) | st.sampled_from([80, 1000, 3000])),
        image_width=draw(st.floats(10.0, 700.0)),
        image_height=draw(st.floats(10.0, 700.0)),
        objects_min=draw(st.integers(0, objects_max)),
        objects_max=objects_max,
        box_noise_std=draw(st.just(0.0) | st.floats(0.0, 60.0)),
        confidence_base=draw(st.floats(-5.0, 5.0)),
        confidence_noise_coupling=draw(st.floats(0.0, 3.0)),
        false_positive_rate=draw(st.just(0.0) | st.floats(0.0, 20.0)),
        label_flip_probability=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        softmax_temperature=draw(st.floats(0.05, 2.0)),
    )


class TestGenerateProperties:
    @settings(max_examples=150, deadline=None)
    @given(synth_specs())
    @example(SynthSpec(seed=1, n_images=20, num_classes=2))
    @example(SynthSpec(seed=2, n_images=20, objects_min=0, objects_max=0, false_positive_rate=0.0))
    @example(SynthSpec(seed=3, n_images=20, label_flip_probability=0.0))
    @example(SynthSpec(seed=4, n_images=20, label_flip_probability=1.0))
    @example(SynthSpec(seed=5, n_images=20, box_noise_std=0.0))
    @example(SynthSpec(seed=6, n_images=20, box_noise_std=0.0, num_classes=2,
                       objects_min=0, objects_max=0, false_positive_rate=0.0,
                       label_flip_probability=1.0))
    def test_invariants(self, spec):
        samples = generate(spec)
        assert len(samples) == spec.n_images
        for sample in samples:
            assert spec.objects_min <= sample.n_ground_truths <= spec.objects_max
            assert len(sample.detections) >= max(1, sample.n_ground_truths)
            confidences = [d.confidence for d in sample.detections]
            assert confidences == sorted(confidences, reverse=True)
            for det in sample.detections:
                assert 0.01 <= det.confidence <= 0.999
                assert len(det.probs) == spec.num_classes
                assert min(det.probs) >= 0.0
                assert abs(math.fsum(det.probs) - 1.0) <= 1e-9
                assert det.box.width >= 1.0 - 1e-9 and det.box.height >= 1.0 - 1e-9
            if spec.objects_max == 0 and spec.false_positive_rate == 0.0:
                assert len(sample.detections) == 1  # the forced false positive


def quick_config(**kw):
    defaults = dict(
        alpha_cnf=0.05,
        alpha_loc=0.25,
        alpha_cls=0.25,
        loss_spec=LossSpec(localization_kind="boxwise"),
    )
    defaults.update(kw)
    return CalibrationConfig(**defaults)


class TestMonteCarlo:
    def test_noiseless_spec_zero_risks(self):
        # Single exact detection per image: every loss vanishes identically.
        spec = SynthSpec(
            seed=7,
            box_noise_std=0.0,
            label_flip_probability=0.0,
            false_positive_rate=0.0,
            objects_min=1,
            objects_max=1,
        )
        report = monte_carlo_validate(spec, quick_config(), trials=3, n_cal=25, n_test=25)
        assert report.loc.mean_risk == 0.0
        assert report.cls.mean_risk == 0.0
        assert report.cnf.mean_risk == 0.0
        assert report.global_.mean_risk == 0.0

    def test_moderate_noise_controls_risk(self):
        spec = SynthSpec(seed=8, box_noise_std=2.0, objects_min=1, objects_max=3)
        config = quick_config()
        report = monte_carlo_validate(spec, config, trials=5, n_cal=60, n_test=60)
        assert report.loc.mean_risk <= config.alpha_loc + 0.05
        assert report.cls.mean_risk <= config.alpha_cls + 0.05
        assert report.global_.mean_risk <= config.alpha_loc + config.alpha_cls + 0.05

    def test_deterministic_report(self):
        spec = SynthSpec(seed=9, objects_min=1, objects_max=2)
        config = quick_config()
        a = monte_carlo_validate(spec, config, trials=3, n_cal=20, n_test=20)
        b = monte_carlo_validate(spec, config, trials=3, n_cal=20, n_test=20)
        assert a == b

    def test_report_rendering(self):
        spec = SynthSpec(seed=10, objects_min=1, objects_max=2)
        report = monte_carlo_validate(spec, quick_config(), trials=2, n_cal=15, n_test=15)
        table = format_report_table(report)
        assert "localization" in table and "global(max)" in table
        payload = report_to_dict(report)
        assert payload["trials"] == 2
        assert len(payload["per_trial_risks"]) == 2

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_validate(SynthSpec(seed=0), quick_config(), 0, 5, 5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(objects_min=3, objects_max=1)
        with pytest.raises(ValueError):
            SynthSpec(box_noise_std=-1.0)
