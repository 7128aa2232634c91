import gc
import math
import multiprocessing
import os
import re
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condet import (
    CalibrationConfig,
    InfeasibleRiskError,
    LossSpec,
    MatchDistanceSpec,
    SynthSpec,
    calibrate,
    evaluate,
    generate,
    hausdorff_distance,
    match,
    monte_carlo_validate,
)
from condet import _workers, synth
from condet.synth import format_report_table, report_to_dict
from test_synth_golden import DIGESTS, MC_CONFIG, MC_PER_TRIAL_RISKS, MC_SPEC, SPECS, samples_digest


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


class TestBlockScreen:
    """``generate`` screens each block with ``losses._block_holds`` and
    builds a block that passes without checking each value again; a block
    that fails goes through the checked constructors."""

    def test_generated_blocks_pass_the_screen(self, monkeypatch):
        screen = synth._block_holds
        verdicts = []

        def recorded(*block):
            verdicts.append(screen(*block))
            return verdicts[-1]

        monkeypatch.setattr(synth, "_block_holds", recorded)
        for spec in SPECS.values():
            generate(spec)
        assert verdicts and all(verdicts)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_checked_path_gives_the_golden_samples(self, name, monkeypatch):
        monkeypatch.setattr(synth, "_block_holds", lambda *block: False)
        assert samples_digest(generate(SPECS[name])) == DIGESTS[name]

    def test_refused_block_raises_the_constructors_message(self, monkeypatch):
        refuse_blocks(monkeypatch)
        with pytest.raises(ValueError, match="^probs must be non-negative$"):
            generate(SynthSpec(seed=1, n_images=5))


def refuse_blocks(monkeypatch):
    """Make the first probability of every block negative, so the screen
    refuses the block and ``Detection`` raises."""
    softmax_rows = synth._softmax_rows

    def negative_entry(*args):
        rows = softmax_rows(*args)
        rows[0, 0] = -rows[0, 0] - 1e-3
        return rows

    monkeypatch.setattr(synth, "_softmax_rows", negative_entry)


#: Box noise about one image size: noisy copies leave the canvas on every
#: side and some collapse, so the clip and the minimum extent both fire,
#: which no spec of the golden grid makes them do more than once.
WILD_SPEC = SynthSpec(seed=11, n_images=60, box_noise_std=60.0)
#: Recorded with the per-detection generator that the blocked one replaced.
WILD_DIGEST = "7657873a903c3a0afffe100fd5282be9bf4d7b6a993de324e5b0598c8c97798a"


class TestBlockArithmetic:
    """``generate`` computes boxes, noisy copies and confidences once per
    block; the samples must not depend on where the blocks end."""

    def test_clipped_and_expanded_boxes_match_golden_digest(self):
        samples = generate(WILD_SPEC)
        assert samples_digest(samples) == WILD_DIGEST
        w, h = WILD_SPEC.image_width, WILD_SPEC.image_height
        boxes = [d.box for s in samples for d in s.detections]
        # A clipped corner sits exactly on a bound; an expanded side is 1 px.
        clipped_x = sum(1 for b in boxes if {b.left, b.right} & {-w, 2 * w})
        clipped_y = sum(1 for b in boxes if {b.top, b.bottom} & {-h, 2 * h})
        expanded_x = sum(1 for b in boxes if abs(b.width - 1.0) < 1e-9)
        expanded_y = sum(1 for b in boxes if abs(b.height - 1.0) < 1e-9)
        assert (clipped_x, clipped_y, expanded_x, expanded_y) == (24, 39, 1, 1)

    @pytest.mark.parametrize("cells", [1, 97, 1 << 30])
    def test_block_size_does_not_change_the_samples(self, cells, monkeypatch):
        # 1: every image is its own block; 1 << 30: the whole set is one.
        monkeypatch.setattr(synth, "_BLOCK_CELLS", cells)
        for name, spec in SPECS.items():
            assert samples_digest(generate(spec)) == DIGESTS[name], name
        assert samples_digest(generate(WILD_SPEC)) == WILD_DIGEST


@pytest.fixture
def collector():
    """Restores the collector's setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollector:
    """``generate`` pauses the cyclic collector while it builds blocks and
    leaves it as the caller had it."""

    def test_paused_while_blocks_are_built(self, monkeypatch, collector):
        screen = synth._block_holds
        states = []

        def recorded(*block):
            states.append(gc.isenabled())
            return screen(*block)

        monkeypatch.setattr(synth, "_block_holds", recorded)
        gc.enable()
        generate(SynthSpec(seed=1, n_images=200))
        assert states and not any(states)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored(self, enabled, collector):
        (gc.enable if enabled else gc.disable)()
        generate(SynthSpec(seed=1, n_images=5))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored_after_a_refused_block(self, enabled, monkeypatch, collector):
        refuse_blocks(monkeypatch)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError, match="^probs must be non-negative$"):
            generate(SynthSpec(seed=1, n_images=5))
        assert gc.isenabled() is enabled

    def test_paused_while_a_trial_builds_its_tables(self, monkeypatch, collector):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        screen = synth._block_holds
        states = []

        def recorded(*block):
            states.append(gc.isenabled())
            return screen(*block)

        monkeypatch.setattr(synth, "_block_holds", recorded)
        gc.enable()
        monte_carlo_validate(SynthSpec(seed=1), quick_config(), 2, n_cal=20, n_test=20)
        assert states and not any(states)
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored_after_in_process_trials(self, enabled, monkeypatch, collector):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        (gc.enable if enabled else gc.disable)()
        monte_carlo_validate(SynthSpec(seed=1), quick_config(), 2, n_cal=20, n_test=20)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored_after_a_trial_refuses_a_block(self, enabled, monkeypatch, collector):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        refuse_blocks(monkeypatch)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError, match="^probs must be non-negative$"):
            monte_carlo_validate(SynthSpec(seed=1), quick_config(), 2, n_cal=20, n_test=20)
        assert gc.isenabled() is enabled


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

    def test_prefilter_drops_detections_before_each_trial(self):
        # Trials 0 and 2 of this spec have detections below 0.5 that change
        # their risks; the floor used to be ignored.
        spec = SynthSpec(seed=3, objects_min=1, objects_max=3)
        config = CalibrationConfig(
            0.1, 0.3, 0.3, lambda_loc_bounds=(0.0, 50.0), prefilter_threshold=0.5
        )
        replay = []
        for child in np.random.SeedSequence(spec.seed).spawn(3):
            samples = generate(replace(spec, seed=int(child.generate_state(1)[0]), n_images=200))
            kept = [
                replace(s, detections=tuple(d for d in s.detections if d.confidence >= 0.5))
                for s in samples
            ]
            report = evaluate(kept[100:], calibrate(kept[:100], config))
            replay.append((report.cnf_risk, report.loc_risk, report.cls_risk, report.global_risk))
        report = monte_carlo_validate(spec, config, trials=3, n_cal=100, n_test=100)
        assert report.per_trial_risks == tuple(replay)
        unfiltered = monte_carlo_validate(
            spec, replace(config, prefilter_threshold=1e-3), trials=3, n_cal=100, n_test=100
        )
        changed = [a != b for a, b in zip(report.per_trial_risks, unfiltered.per_trial_risks)]
        assert changed == [True, False, True]

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

    @pytest.mark.parametrize("n_cal, n_test, message", [
        (-2, 60, "n_cal must be >= 1, got -2"),
        (0, 5, "n_cal must be >= 1, got 0"),
        (5, 0, "n_test must be >= 1, got 0"),
    ])
    def test_invalid_split_sizes(self, n_cal, n_test, message):
        with pytest.raises(ValueError, match=message):
            monte_carlo_validate(SynthSpec(seed=0), quick_config(), 1, n_cal, n_test)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(objects_min=3, objects_max=1)
        with pytest.raises(ValueError):
            SynthSpec(box_noise_std=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("image_width", -64.0, "image_width must be > 0"),
            ("image_height", 0.0, "image_height must be > 0"),
            ("image_width", math.inf, "image_width must be finite, got inf"),
            ("box_noise_std", math.nan, "box_noise_std must be finite, got nan"),
            ("confidence_base", math.nan, "confidence_base must be finite, got nan"),
            ("confidence_noise_coupling", -math.inf,
             "confidence_noise_coupling must be finite, got -inf"),
            ("false_positive_rate", -0.5, "false_positive_rate must be >= 0"),
            ("false_positive_rate", math.inf, "false_positive_rate must be finite, got inf"),
            ("softmax_temperature", 0.0, "softmax_temperature must be > 0"),
            ("label_flip_probability", math.nan, "label_flip_probability must lie in [0, 1]"),
            # numpy refused these with messages that named no field.
            ("seed", -1, "seed must be >= 0, got -1"),
            ("false_positive_rate", 1e308, "false_positive_rate must be <= 9.2e+18, got 1e+308"),
        ],
    )
    def test_rejects_bad_extents_and_non_finite_values(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthSpec(**{field: value})

    def test_steep_confidence_coupling_gives_the_floor(self):
        # exp(-logit) overflowed (OverflowError: math range error) once the
        # logit fell below -709.
        samples = generate(SynthSpec(seed=2, n_images=4, objects_min=1, confidence_noise_coupling=1e308))
        assert {d.confidence for s in samples for d in s.detections} == {0.01}


def trial_seeds(spec, trials):
    """The sub-seeds of ``monte_carlo_validate``'s trials."""
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(spec.seed).spawn(trials)]


def serial_trials(spec, config, trials, n_cal, n_test):
    """``monte_carlo_validate``'s trials replayed one after another in this
    process through the public objects: ``generate``, the prefilter at
    ``config.prefilter_threshold``, ``calibrate`` and ``evaluate``. Each
    trial's risks, or the ``InfeasibleRiskError`` it raised."""
    floor = config.prefilter_threshold
    out = []
    for seed in trial_seeds(spec, trials):
        samples = [
            replace(s, detections=tuple(d for d in s.detections if d.confidence >= floor))
            for s in generate(replace(spec, seed=seed, n_images=n_cal + n_test))
        ]
        try:
            result = calibrate(samples[:n_cal], config)
        except InfeasibleRiskError as exc:
            out.append(exc)
            continue
        report = evaluate(samples[n_cal:], result)
        out.append((report.cnf_risk, report.loc_risk, report.cls_risk, report.global_risk))
    return out


@pytest.mark.workers
class TestParallelTrials:
    SPEC = SynthSpec(seed=11, objects_min=1, objects_max=3)

    @pytest.mark.parametrize("trials", [1, 2, 5, (os.cpu_count() or 1) + 1])
    def test_per_trial_risks_equal_the_serial_loop(self, trials):
        report = monte_carlo_validate(self.SPEC, quick_config(), trials, n_cal=20, n_test=20)
        assert report.per_trial_risks == tuple(serial_trials(self.SPEC, quick_config(), trials, 20, 20))
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cpus(self, monkeypatch):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 4)
        report = monte_carlo_validate(self.SPEC, quick_config(), 7, n_cal=20, n_test=20)
        assert report.per_trial_risks == tuple(serial_trials(self.SPEC, quick_config(), 7, 20, 20))
        assert multiprocessing.active_children() == []

    def test_runs_in_a_daemonic_process(self):
        # A pool worker may not start children of its own; the trials then
        # run in the worker itself.
        args = (self.SPEC, quick_config(), 3, 20, 20)
        with multiprocessing.get_context().Pool(1) as pool:
            report = pool.apply_async(monte_carlo_validate, args).get(timeout=120)
        assert report.per_trial_risks == tuple(serial_trials(*args))

    def test_first_infeasible_trial_in_trial_order_is_reported(self):
        # Margins capped at 3 px leave some trials of this spec infeasible.
        spec = SynthSpec(seed=4, objects_min=1, objects_max=2)
        config = quick_config(lambda_loc_bounds=(0.0, 3.0))
        serial = serial_trials(spec, config, 5, 20, 5)
        infeasible = [isinstance(row, InfeasibleRiskError) for row in serial]
        assert infeasible == [False, True, False, True, True]
        with pytest.raises(InfeasibleRiskError) as info:
            monte_carlo_validate(spec, config, 5, n_cal=20, n_test=5)
        assert str(info.value) == f"trial 1: {serial[1]}"
        assert multiprocessing.active_children() == []

    def test_every_trial_infeasible_reports_trial_0(self):
        spec = SynthSpec(seed=0, objects_min=1, objects_max=2)
        config = quick_config(lambda_loc_bounds=(0.0, 0.5))
        serial = serial_trials(spec, config, 5, 20, 5)
        assert all(isinstance(row, InfeasibleRiskError) for row in serial)
        with pytest.raises(InfeasibleRiskError) as info:
            monte_carlo_validate(spec, config, 5, n_cal=20, n_test=5)
        assert str(info.value) == f"trial 0: {serial[0]}"
        assert multiprocessing.active_children() == []


def assert_trials_replayed(spec, config, trials, n_cal, n_test):
    """``monte_carlo_validate`` gives ``serial_trials``' risks, or the first
    infeasible trial's error with its index."""
    serial = serial_trials(spec, config, trials, n_cal, n_test)
    infeasible = [t for t, row in enumerate(serial) if isinstance(row, InfeasibleRiskError)]
    if infeasible:
        with pytest.raises(InfeasibleRiskError) as info:
            monte_carlo_validate(spec, config, trials, n_cal, n_test)
        assert str(info.value) == f"trial {infeasible[0]}: {serial[infeasible[0]]}"
    else:
        assert monte_carlo_validate(spec, config, trials, n_cal, n_test).per_trial_risks == tuple(serial)


def split_points(spec):
    """``n_cal`` values of at least 5 for trial 0 of ``spec``: the end of a
    block of its draws, and a split inside a block."""
    trial_spec = replace(spec, seed=trial_seeds(spec, 1)[0], n_images=10**6)
    ends = accumulate(len(block.image_ids) for block in synth._blocks(trial_spec))
    boundary = inside = None
    start = 0
    for end in ends:
        if boundary is None and end >= 5:
            boundary = end
        if inside is None and max(start, 4) + 1 < end:
            inside = max(start, 4) + 1
        if boundary and inside:
            return {"boundary": boundary, "inside": inside}
        start = end


#: The differential grid's specs: the Monte Carlo spec, a dense 80-class
#: one, noiseless copies (a detection shares its ground truth's box), 1000
#: classes (about one image per block) and images whose only detection is
#: the forced false positive.
TRIAL_SPECS = {
    name: SPECS[key] if key else MC_SPEC
    for name, key in (("mc", None), ("dense-like", "dense"), ("noiseless", "noiseless"),
                      ("many-classes", "many-classes"), ("forced-false-positive", "forced-false-positive"))
}


@pytest.mark.workers
class TestTrialTables:
    """Each trial calibrates and evaluates tables built from ``generate``'s
    blocks; its risks and errors are those of the public objects."""

    @pytest.mark.parametrize("name", sorted(TRIAL_SPECS))
    @pytest.mark.parametrize("floor", [1e-3, 0.3, 0.5])
    @pytest.mark.parametrize("split, n_test", [("boundary", 6), ("inside", 1), ("inside", 6)])
    def test_trials_replay_through_samples(self, name, floor, split, n_test):
        spec = TRIAL_SPECS[name]
        n_cal = split_points(spec)[split]
        assert_trials_replayed(spec, quick_config(prefilter_threshold=floor), 2, n_cal, n_test)

    def test_infeasible_trials_report_the_replayed_error(self):
        spec = SynthSpec(seed=4, objects_min=1, objects_max=2)
        config = quick_config(lambda_loc_bounds=(0.0, 3.0), prefilter_threshold=0.3)
        assert any(isinstance(row, InfeasibleRiskError) for row in serial_trials(spec, config, 5, 20, 5))
        assert_trials_replayed(spec, config, 5, 20, 5)


def forbidden(*args):
    raise AssertionError("a per-value object was built")


class Forbidden:
    """A stand-in for the classes a screened trial must not build."""

    __init__ = forbidden
    _trusted = staticmethod(forbidden)


class TestTrialScreen:
    """A trial's blocks go through the same screen as ``generate``'s."""

    def test_checked_path_gives_the_golden_risks(self, monkeypatch):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        monkeypatch.setattr(synth, "_block_holds", lambda *block: False)
        report = monte_carlo_validate(MC_SPEC, MC_CONFIG, trials=3, n_cal=500, n_test=500)
        got = tuple(tuple(float.hex(r) for r in row) for row in report.per_trial_risks)
        assert got == MC_PER_TRIAL_RISKS

    @pytest.mark.parametrize("name", ["mc", "noiseless"])
    def test_checked_path_drops_the_detections_below_the_floor(self, name, monkeypatch):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        monkeypatch.setattr(synth, "_block_holds", lambda *block: False)
        assert_trials_replayed(TRIAL_SPECS[name], quick_config(prefilter_threshold=0.5), 2, 20, 6)

    def test_screened_trials_build_no_objects(self, monkeypatch):
        monkeypatch.setattr(_workers, "_available_cpus", lambda: 1)
        spec = SynthSpec(seed=5, n_images=1, box_noise_std=0.0)
        expected = monte_carlo_validate(spec, quick_config(), 3, n_cal=30, n_test=30)
        for name in ("Detection", "ImageSample", "BoundingBox"):
            monkeypatch.setattr(synth, name, Forbidden)
        with pytest.raises(AssertionError, match="per-value object"):
            generate(spec)
        assert monte_carlo_validate(spec, quick_config(), 3, n_cal=30, n_test=30) == expected
