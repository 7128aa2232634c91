"""Seeded synthetic detection problems and the Monte Carlo guarantee check.

The generator emits images whose detections are noisy copies of the ground
truths plus uniformly placed false positives. Confidence is negatively
correlated with the box noise actually drawn, so the confidence threshold is
informative, and every image carries at least one detection (and at least as
many as it has objects), which keeps the losses vanishing at the loosest
parameters.

``generate``'s output is a fixed function of the spec, down to the last bit:
the benchmark inputs, the seeded tests and every Monte Carlo trial rely on
it. The order of the random draws and the float arithmetic are pinned by
``tests/test_synth_golden.py``. Each detection makes only the draws whose
stream order matters; the class-noise softmax runs once per block of
detections, reducing each row in the order numpy reduces a lone vector.

``monte_carlo_validate`` repeatedly draws calibration/test splits from the
same distribution, calibrates, and averages the test risks across trials:
the across-trial mean of each risk must stay below its target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .calibration import CalibrationConfig, InfeasibleRiskError, calibrate
from .geometry import BoundingBox
from .inference_metrics import evaluate
from .losses import Detection, ImageSample

__all__ = [
    "SynthSpec",
    "TaskSummary",
    "ValidationReport",
    "generate",
    "monte_carlo_validate",
    "report_to_dict",
    "format_report_table",
]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic detection distribution.

    ``confidence_base`` is the logit of a noiseless detection's confidence
    and ``confidence_noise_coupling`` how fast that logit drops per unit of
    normalized corner error. With ``box_noise_std`` 0 the detector is exact:
    boxes coincide with the ground truths and the probability vectors are
    noise-free (argmax at the true class unless flipped).
    """

    seed: int = 0
    n_images: int = 100
    num_classes: int = 8
    image_width: float = 64.0
    image_height: float = 64.0
    objects_min: int = 0
    objects_max: int = 4
    box_noise_std: float = 2.0
    confidence_base: float = 2.0
    confidence_noise_coupling: float = 1.5
    false_positive_rate: float = 0.5
    label_flip_probability: float = 0.05
    softmax_temperature: float = 0.35

    def __post_init__(self) -> None:
        if self.n_images < 1:
            raise ValueError("n_images must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not 0 <= self.objects_min <= self.objects_max:
            raise ValueError("need 0 <= objects_min <= objects_max")
        if self.box_noise_std < 0:
            raise ValueError("box_noise_std must be >= 0")
        if not 0.0 <= self.label_flip_probability <= 1.0:
            raise ValueError("label_flip_probability must lie in [0, 1]")
        if self.softmax_temperature <= 0.0:
            raise ValueError("softmax_temperature must be > 0")


_CONF_FLOOR = 0.01
_CONF_CEIL = 0.999
_MIN_EXTENT = 1.0
#: Probability cells per softmax block; a block is flushed at the first image
#: boundary after it fills, so it also holds the rest of that image.
_BLOCK_CELLS = 1 << 14


def _softmax_rows(spec: SynthSpec, noise: np.ndarray, labels: list[int]) -> list[list[float]]:
    """Class probabilities of a block of detections, one row per detection.

    Row ``i`` is the softmax of ``(onehot(labels[i]) + 0.35 * noise[i]) / T``
    after subtracting the row max (``noise`` is all zeros for a noiseless
    spec). Every step is elementwise or a reduction along one contiguous row,
    so each row gets the bits it would get alone.
    """
    logits = noise * 0.35
    logits[np.arange(len(labels)), labels] += 1.0
    logits /= spec.softmax_temperature
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits, out=logits)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights.tolist()


def _box_from_uniforms(spec: SynthSpec, u: list[float]) -> BoundingBox:
    # numpy's ``uniform(low, high)`` is ``low + (high - low) * u``; with low 0,
    # that is ``high * u`` exactly.
    w = (0.12 + (0.35 - 0.12) * u[0]) * spec.image_width
    h = (0.12 + (0.35 - 0.12) * u[1]) * spec.image_height
    x = (spec.image_width - w) * u[2]
    y = (spec.image_height - h) * u[3]
    return BoundingBox(x, y, x + w, y + h)


def _noisy_copy(spec: SynthSpec, box: BoundingBox, noise: list[float]) -> BoundingBox:
    # Clip to one image-size beyond the canvas: keeps every required margin
    # below a fixed bound (three image sizes), so losses provably vanish at
    # the loosest parameters no matter what the noise draws.
    w, h = spec.image_width, spec.image_height
    x_lo, x_hi = sorted(
        (min(max(box.left + noise[0], -w), 2 * w), min(max(box.right + noise[2], -w), 2 * w))
    )
    y_lo, y_hi = sorted(
        (min(max(box.top + noise[1], -h), 2 * h), min(max(box.bottom + noise[3], -h), 2 * h))
    )
    # Degenerate predicted boxes break GIoU matching and multiplicative
    # margins; expand to a minimal extent when noise collapses a side.
    if x_hi - x_lo < _MIN_EXTENT:
        mid = (x_lo + x_hi) / 2.0
        x_lo, x_hi = mid - _MIN_EXTENT / 2.0, mid + _MIN_EXTENT / 2.0
    if y_hi - y_lo < _MIN_EXTENT:
        mid = (y_lo + y_hi) / 2.0
        y_lo, y_hi = mid - _MIN_EXTENT / 2.0, mid + _MIN_EXTENT / 2.0
    return BoundingBox(x_lo, y_lo, x_hi, y_hi)


def generate(spec: SynthSpec) -> list[ImageSample]:
    """Draw a dataset; identical specs produce identical datasets.

    Per image: the object count; per object its box (four uniforms), class,
    box noise (four normals), label flip, class noise (``num_classes``
    normals) and confidence noise; then the false-positive count and per
    false positive its class, box, class noise, error level and confidence
    noise. The class-noise softmax runs per block of detections.
    """
    rng = np.random.default_rng(spec.seed)
    k = spec.num_classes
    std = spec.box_noise_std
    noisy = std > 0.0
    flip = spec.label_flip_probability
    class_noise = np.zeros((max(1, _BLOCK_CELLS // k), k))
    labels: list[int] = []  # class of each row of class_noise in use
    pending = []  # (image id, ground truths, [(box, confidence), ...]) awaiting probabilities
    samples = []

    def add_class_noise(label: int) -> None:
        nonlocal class_noise
        if len(labels) == len(class_noise):
            class_noise = np.concatenate((class_noise, np.zeros_like(class_noise)))
        if noisy:
            rng.standard_normal(out=class_noise[len(labels)])
        labels.append(label)

    def confidence(err: float) -> float:
        logit = spec.confidence_base - spec.confidence_noise_coupling * err
        if noisy:
            logit += rng.normal(0.0, 0.3)
        return min(max(1.0 / (1.0 + math.exp(-logit)), _CONF_FLOOR), _CONF_CEIL)

    def flush() -> None:
        probs = iter(_softmax_rows(spec, class_noise[: len(labels)], labels))
        for image_id, gts, dets in pending:
            detections = tuple(Detection(box, next(probs), conf) for box, conf in dets)
            samples.append(ImageSample(image_id, gts, detections))
        pending.clear()
        labels.clear()

    for i in range(spec.n_images):
        n_obj = int(rng.integers(spec.objects_min, spec.objects_max + 1))
        gts = []
        dets = []
        for _ in range(n_obj):
            box = _box_from_uniforms(spec, rng.random(4).tolist())
            label = int(rng.integers(k))
            gts.append((box, label))
            det_box, err = box, 0.0
            if noisy:
                noise = rng.normal(0.0, std, 4).tolist()
                det_box = _noisy_copy(spec, box, noise)
                # Mean |noise| summed left to right, the order numpy uses for
                # fewer than 8 elements; the golden test pins these bits.
                err = (abs(noise[0]) + abs(noise[1]) + abs(noise[2]) + abs(noise[3])) / 4 / std
            det_label = label
            if flip > 0.0 and rng.random() < flip:
                det_label = (label + 1 + int(rng.integers(k - 1))) % k
            add_class_noise(det_label)
            dets.append((det_box, confidence(err)))
        n_fp = int(rng.poisson(spec.false_positive_rate))
        if n_obj == 0 and n_fp == 0:
            n_fp = 1
        for _ in range(n_fp):
            label = int(rng.integers(k))
            box = _box_from_uniforms(spec, rng.random(4).tolist())
            add_class_noise(label)
            err = 1.5 + (3.5 - 1.5) * rng.random()  # numpy's uniform(1.5, 3.5)
            dets.append((box, confidence(err)))
        # Loosest-parameter losses vanish only when something is predicted.
        assert len(dets) >= max(1, n_obj)
        pending.append((f"synth-{spec.seed}-{i:05d}", tuple(gts), dets))
        if len(labels) * k >= _BLOCK_CELLS:
            flush()
    flush()
    return samples


# --------------------------------------------------------------------------
# Monte Carlo validation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSummary:
    """Across-trial summary of one task's mean test risk."""

    alpha: float
    mean_risk: float
    stderr: float
    frac_trials_above_alpha: float


@dataclass(frozen=True)
class ValidationReport:
    """Across-trial risk summaries; the guarantee binds the means, so the
    per-trial exceedance fractions are diagnostics only."""

    trials: int
    n_cal: int
    n_test: int
    cnf: TaskSummary
    loc: TaskSummary
    cls: TaskSummary
    global_: TaskSummary
    per_trial_risks: tuple[tuple[float, float, float, float], ...]


def _summary(risks: Sequence[float], alpha: float) -> TaskSummary:
    n = len(risks)
    mean = math.fsum(risks) / n
    if n > 1:
        var = math.fsum((r - mean) ** 2 for r in risks) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    above = sum(1 for r in risks if r > alpha) / n
    return TaskSummary(alpha=alpha, mean_risk=mean, stderr=stderr, frac_trials_above_alpha=above)


def monte_carlo_validate(
    spec: SynthSpec,
    config: CalibrationConfig,
    trials: int,
    n_cal: int,
    n_test: int,
) -> ValidationReport:
    """Estimate the test risks of the calibrated parameters by simulation.

    Every trial draws ``n_cal + n_test`` fresh images from a sub-seed derived
    from ``spec.seed``, calibrates on the first part and measures mean test
    losses on the rest. Calibration infeasibility in any trial is re-raised
    with the trial index attached.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    children = np.random.SeedSequence(spec.seed).spawn(trials)
    rows = []
    for t in range(trials):
        trial_seed = int(children[t].generate_state(1)[0])
        trial_spec = replace(spec, seed=trial_seed, n_images=n_cal + n_test)
        samples = generate(trial_spec)
        try:
            result = calibrate(samples[:n_cal], config)
        except InfeasibleRiskError as exc:
            raise InfeasibleRiskError(f"trial {t}: {exc}") from exc
        report = evaluate(samples[n_cal:], result)
        rows.append((report.cnf_risk, report.loc_risk, report.cls_risk, report.global_risk))
    return ValidationReport(
        trials=trials,
        n_cal=n_cal,
        n_test=n_test,
        cnf=_summary([r[0] for r in rows], config.alpha_cnf),
        loc=_summary([r[1] for r in rows], config.alpha_loc),
        cls=_summary([r[2] for r in rows], config.alpha_cls),
        global_=_summary([r[3] for r in rows], config.alpha_loc + config.alpha_cls),
        per_trial_risks=tuple(rows),
    )


def report_to_dict(report: ValidationReport) -> dict:
    def task(summary: TaskSummary) -> dict:
        return {
            "alpha": summary.alpha,
            "mean_risk": summary.mean_risk,
            "stderr": summary.stderr,
            "frac_trials_above_alpha": summary.frac_trials_above_alpha,
        }

    return {
        "trials": report.trials,
        "n_cal": report.n_cal,
        "n_test": report.n_test,
        "confidence": task(report.cnf),
        "localization": task(report.loc),
        "classification": task(report.cls),
        "global": task(report.global_),
        "per_trial_risks": [list(row) for row in report.per_trial_risks],
    }


def format_report_table(report: ValidationReport) -> str:
    """Render the across-trial summaries as an aligned text table."""
    header = f"{'task':<16}{'target':>10}{'mean risk':>12}{'stderr':>10}{'frac>target':>13}"
    lines = [
        f"trials={report.trials}  n_cal={report.n_cal}  n_test={report.n_test}",
        header,
        "-" * len(header),
    ]
    for name, summary in (
        ("confidence", report.cnf),
        ("localization", report.loc),
        ("classification", report.cls),
        ("global(max)", report.global_),
    ):
        lines.append(
            f"{name:<16}{summary.alpha:>10.4f}{summary.mean_risk:>12.5f}"
            f"{summary.stderr:>10.5f}{summary.frac_trials_above_alpha:>13.3f}"
        )
    return "\n".join(lines)
