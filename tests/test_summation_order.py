"""The calibrated λ's must not depend on the order of the images, nor on how
the running Python sums floats.

Calibration images are exchangeable, so ``calibrate`` is a symmetric
function of the calibration set: every λ and every diagnostic is the same
under any permutation of the images. Confidences rounded to 0.1 tie many
detections, so step 1's float curve adds the same losses in other orders,
and thresholds near ``k / (n + 1)`` put the summed losses within a few ulps
of a constraint.

CPython 3.12's ``sum`` compensates its rounding errors (Neumaier's
algorithm). The golden cases also run with ``builtins.sum`` replaced by that
algorithm and must still return their golden values.
"""

import builtins
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    CalibrationConfig,
    Detection,
    ImageSample,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    calibrate,
    generate,
    seqcrc_step1,
)
from condet.calibration import _admits
from helpers import calibration_outcome
from oracles import exact_step1_oracle, exact_step1_sums
from test_calibration_golden import test_calibration_is_bit_identical as check_golden

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it over floats; anything else is
    passed to the running interpreter's own ``sum``."""
    items = list(iterable)
    if not items or start != 0 or type(start) is not int or {*map(type, items)} != {float}:
        return _builtin_sum(items, start)
    total = 0.0
    compensation = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.mark.parametrize("name", ["small-00", "small-01", "tie-00", "tie-01", "dense", "pixelwise"])
def test_golden_under_compensated_sum(monkeypatch, name):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    check_golden(name)


losses = st.lists(
    st.one_of(
        st.floats(0.0, 1.0),
        st.builds(lambda c, d: c / d, st.integers(0, 12), st.integers(1, 12)).filter(lambda x: x <= 1.0),
    ),
    max_size=60,
)


@given(losses, st.integers(0, 1), st.integers(-3, 3), st.floats(0.0, 1.0))
def test_admits_is_exact_at_ties(values, b, ulps, jitter):
    # alpha placed on the exact sum, moved a few ulps either way.
    n = len(values) + 1
    exact = sum(map(Fraction, values), Fraction(b))
    alpha = float(exact / (n + 1)) if exact else jitter
    for _ in range(abs(ulps)):
        alpha = math.nextafter(alpha, math.copysign(math.inf, ulps))
    if not 0.0 < alpha < 1.0:
        return
    want = exact <= Fraction(alpha) * (n + 1)
    assert _admits(values, n, alpha, b) == want
    assert _admits(values[::-1], n, alpha, b) == want
    assert _admits(np.array(values, dtype=float), n, alpha, b) == want


def test_admits_refuses_a_nan_loss():
    assert not _admits([0.0, math.nan], 2, 0.99, 0.0)


def rounded(sample: ImageSample) -> ImageSample:
    """``sample`` with every confidence rounded to 0.1."""
    return ImageSample(
        sample.image_id,
        sample.ground_truths,
        tuple(Detection(d.box, d.probs, round(d.confidence, 1)) for d in sample.detections),
    )


@st.composite
def permuted_cases(draw):
    """A calibration set with tied confidences, a config of any loss kinds
    whose levels sit near ``k / (d * (n + 1))``, and a permutation."""
    n = draw(st.integers(3, 14))
    samples = [
        rounded(s)
        for s in generate(
            SynthSpec(
                seed=draw(st.integers(0, 2**32 - 1)), n_images=n, num_classes=4,
                image_width=48.0, image_height=48.0, objects_min=0, objects_max=4,
                box_noise_std=2.5, false_positive_rate=1.0, label_flip_probability=0.15,
            )
        )
    ]
    d = draw(st.integers(1, 6))
    cnf = draw(st.integers(1, d * (n + 1) - d - 2))
    loc, cls = (draw(st.integers(cnf + d + 1, d * (n + 1) - 1)) for _ in range(2))
    additive = draw(st.booleans())
    config = CalibrationConfig(
        alpha_cnf=float(Fraction(cnf, d * (n + 1))),
        alpha_loc=float(Fraction(loc, d * (n + 1))),
        alpha_cls=float(Fraction(cls, d * (n + 1))),
        loss_spec=LossSpec(
            confidence_kind=draw(st.sampled_from(["box_count_threshold", "box_count_recall"])),
            localization_kind=draw(st.sampled_from(["boxwise", "pixelwise", "thresholded"])),
            localization_tau=draw(st.sampled_from([0.5, 1.0])),
            classification_aggregation=draw(st.sampled_from(["average", "max", "thresholded"])),
        ),
        predset_spec=PredSetSpec(
            localization_kind="additive" if additive else "multiplicative",
            classification_kind=draw(st.sampled_from(["lac", "aps"])),
        ),
        match_spec=MatchDistanceSpec(draw(st.sampled_from(["hausdorff", "lac", "mix", "giou"]))),
        lambda_loc_bounds=(0.0, 3.0),
    )
    return samples, config, draw(st.permutations(range(n)))


@settings(deadline=None)
@given(permuted_cases())
def test_calibrate_is_a_function_of_the_set(case):
    samples, config, order = case
    permuted = [samples[i] for i in order]
    assert calibration_outcome(permuted, config) == calibration_outcome(samples, config)


@settings(deadline=None)
@given(permuted_cases(), st.data())
def test_step1_is_exact_at_ties(case, data):
    # alpha_cnf placed on one sweep point's exact sum, moved a few ulps
    # either way, where the float curve can land on the other side.
    samples, config, _ = case
    if not any(s.detections for s in samples):
        return
    n = len(samples)
    b = data.draw(st.sampled_from([0, 1]))
    total = data.draw(st.sampled_from([total for _, total in exact_step1_sums(samples, config)]))
    alpha = float((total + b) / (n + 1))
    ulps = data.draw(st.integers(-2, 2))
    for _ in range(abs(ulps)):
        alpha = math.nextafter(alpha, math.copysign(math.inf, ulps))
    if not 0.0 < alpha < 1.0:
        return
    config = replace(config, alpha_cnf=alpha)
    assert seqcrc_step1(samples, config) == exact_step1_oracle(samples, config)


def motivation_set():
    """89 synthetic images with confidences rounded to 0.1, in file order
    and in one shuffled order."""
    samples = [
        rounded(s)
        for s in generate(SynthSpec(seed=0, n_images=89, num_classes=8, objects_min=1, objects_max=6))
    ]
    rng = np.random.default_rng(0)
    rng.integers(29, 100)
    return samples, [samples[i] for i in rng.permutation(89)]


LOSSES = LossSpec(confidence_kind="box_count_recall", localization_kind="boxwise")


def test_step2_tie_decides_alike_in_both_orders():
    # The boxwise losses at 0 sum to 82.4 in file order and to
    # 82.39999999999999 shuffled, a float either side of the constraint.
    config = CalibrationConfig(0.02, 0.9266666666666666, 0.9, loss_spec=LOSSES,
                               lambda_loc_bounds=(0.0, 3.0))
    for samples in motivation_set():
        assert calibrate(samples, config).lambda_loc_plus == 0.028147361457842024


def test_step1_tie_decides_alike_in_both_orders():
    config = CalibrationConfig(0.2807407407407407, 0.99, 0.99, loss_spec=LOSSES,
                               lambda_loc_bounds=(0.0, 3.0))
    for samples in motivation_set():
        assert seqcrc_step1(samples, config) == (0.6, 0.5)


def test_step1_is_exact_at_every_tie_of_one_set():
    # alpha_cnf on every sweep point's exact sum and 2 ulps either side, in
    # both orders: the float curve lands on either side of some of them.
    samples, shuffled = motivation_set()
    base = CalibrationConfig(0.1, 0.99, 0.99, loss_spec=LOSSES, lambda_loc_bounds=(0.0, 3.0))
    n = len(samples)
    for _, total in exact_step1_sums(samples, base):
        for b, ulps in ((b, ulps) for b in (0, 1) for ulps in range(-2, 3)):
            alpha = float((total + b) / (n + 1))
            for _ in range(abs(ulps)):
                alpha = math.nextafter(alpha, math.copysign(math.inf, ulps))
            if not 0.0 < alpha < 1.0:
                continue
            config = replace(base, alpha_cnf=alpha)
            want = exact_step1_oracle(samples, config)
            assert seqcrc_step1(samples, config) == seqcrc_step1(shuffled, config) == want
