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
``tests/test_synth_golden.py``. The random draws keep their calls and
their stream order (bounded integers and normals take a variable number of
words, so merging calls would change the stream); the vector draws write
into the buffers of the current block of detections. Everything else runs
once per block, as array passes: the boxes from their uniforms, the noisy
copies (clipped, corners ordered, expanded to the minimum extent), the
errors, the confidence logits and the class-noise softmax. Each pass
applies the same float operations in the same order as the per-value
arithmetic it replaced and reduces rows in the order numpy reduces a lone
vector, so the bits stay. Box noise is ``0.0 + std * z``, which is how
numpy's ``normal(0.0, std)`` scales a standard normal; the logistic's
exponential stays a ``math.exp`` call per confidence, because ``np.exp``
need not round as libm does. Overflow in these passes (a steep confidence
coupling) gives the infinities the per-value arithmetic gave, silently.

The draws come from one block stream, ``_blocks``: each block holds its
images' ids and counts, ground-truth rows and labels, detection boxes,
confidences and softmax matrix as arrays, with the verdict of the bulk form
of the validity rule, ``losses._block_holds``, on its probability matrix and
every box, label and confidence. ``generate`` builds samples from each
block: a block that passes through the private constructors
``Detection._trusted`` and ``ImageSample._trusted``, which store what the
checked constructors would and check nothing again; a block that fails
through the checked constructors, so any error is theirs.

The cyclic garbage collector is paused while ``generate`` builds its
samples, which hold no reference cycles; the collector ran on the
allocations alone, for about a fifth of a large call. It is re-enabled
afterwards only if the caller had it enabled.

``monte_carlo_validate`` repeatedly draws calibration/test splits from the
same distribution, calibrates, and averages the test risks across trials:
the across-trial mean of each risk must stay below its target level. A
trial builds no samples: it turns each block into a ``_SampleTable``, the
arrays that calibration and evaluation read, straight from the block's
arrays (a block that fails the screen goes through the checked
constructors first), under the same collector pause. The results are the
bits that ``calibrate`` and ``evaluate`` give on ``generate``'s samples. The
trials run side by side in worker processes.
"""

from __future__ import annotations

import gc
import math
from dataclasses import asdict, dataclass, replace
from itertools import compress, starmap
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ._workers import ordered_map
from .calibration import CalibrationConfig, InfeasibleRiskError, _calibrate, _SampleTable
from .geometry import BoundingBox
from .inference_metrics import _evaluate_table
from .losses import Detection, ImageSample, _block_holds

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
    noise-free (argmax at the true class unless flipped). ``seed`` must be
    non-negative, as numpy's seeding requires. Every float field must be
    finite; the image extents and ``softmax_temperature`` must be positive,
    ``box_noise_std`` and ``false_positive_rate`` non-negative, and
    ``false_positive_rate`` at most 9.2e18, about the largest Poisson mean
    numpy draws from.
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_images < 1:
            raise ValueError("n_images must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not 0 <= self.objects_min <= self.objects_max:
            raise ValueError("need 0 <= objects_min <= objects_max")
        for name in ("image_width", "image_height", "box_noise_std", "confidence_base",
                     "confidence_noise_coupling", "false_positive_rate", "softmax_temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("image_width", "image_height", "softmax_temperature"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("box_noise_std", "false_positive_rate"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.false_positive_rate > _POISSON_MAX:
            raise ValueError(
                f"false_positive_rate must be <= {_POISSON_MAX:g}, got {self.false_positive_rate}"
            )
        if not 0.0 <= self.label_flip_probability <= 1.0:
            raise ValueError("label_flip_probability must lie in [0, 1]")


#: The largest Poisson mean numpy draws from (its int64 counts bound it).
_POISSON_MAX = 9.2e18
_CONF_FLOOR = 0.01
_CONF_CEIL = 0.999
_MIN_EXTENT = 1.0
#: Probability cells per softmax block; a block is flushed at the first image
#: boundary after it fills, so it also holds the rest of that image.
_BLOCK_CELLS = 1 << 14


def _softmax_rows(spec: SynthSpec, noise: np.ndarray, labels: list[int]) -> np.ndarray:
    """Class probabilities of a block of detections: a ``(len(labels), k)``
    float array, one row per detection.

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
    return weights


def _boxes(spec: SynthSpec, uniforms: np.ndarray) -> np.ndarray:
    """Corner boxes ``(left, top, right, bottom)`` of a block, one row per row
    of four uniforms."""
    # numpy's ``uniform(low, high)`` is ``low + (high - low) * u``; with low 0,
    # that is ``high * u`` exactly.
    w = (0.12 + (0.35 - 0.12) * uniforms[:, 0]) * spec.image_width
    h = (0.12 + (0.35 - 0.12) * uniforms[:, 1]) * spec.image_height
    x = (spec.image_width - w) * uniforms[:, 2]
    y = (spec.image_height - h) * uniforms[:, 3]
    return np.column_stack((x, y, x + w, y + h))


def _noisy_copies(spec: SynthSpec, boxes: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The noisy copies of a block of boxes and their normalized corner
    errors, from four standard normals per box."""
    std = spec.box_noise_std
    # numpy's ``normal(0.0, std)`` is ``0.0 + std * z``.
    noise = 0.0 + std * normals
    # Clip to one image-size beyond the canvas: keeps every required margin
    # below a fixed bound (three image sizes), so losses provably vanish at
    # the loosest parameters no matter what the noise draws.
    extent = np.array([spec.image_width, spec.image_height] * 2)
    corners = np.minimum(np.maximum(boxes + noise, -extent), 2 * extent)
    # Order each axis's two corners as ``sorted`` does: swap only when the
    # second is smaller.
    first, second = corners[:, :2], corners[:, 2:]
    swap = second < first
    lo, hi = np.where(swap, second, first), np.where(swap, first, second)
    # Degenerate predicted boxes break GIoU matching and multiplicative
    # margins; expand to a minimal extent when noise collapses a side.
    short = hi - lo < _MIN_EXTENT
    mid = (lo + hi) / 2.0
    lo = np.where(short, mid - _MIN_EXTENT / 2.0, lo)
    hi = np.where(short, mid + _MIN_EXTENT / 2.0, hi)
    # Mean |noise| summed left to right, the order numpy uses for fewer than
    # 8 elements; the golden test pins these bits.
    size = np.abs(noise)
    err = (size[:, 0] + size[:, 1] + size[:, 2] + size[:, 3]) / 4 / std
    return np.concatenate((lo, hi), axis=1), err


def _confidences(spec: SynthSpec, err: np.ndarray, normals: np.ndarray | None) -> np.ndarray:
    """Confidences of a block of detections from their errors and, for a
    noisy spec, one standard normal each."""
    logit = spec.confidence_base - spec.confidence_noise_coupling * err
    if normals is not None:
        logit += 0.0 + 0.3 * normals  # numpy's ``normal(0.0, 0.3)``
    # exp overflows past 709.78; any logit below -709 gives the floor. The
    # exponential is libm's, one value at a time: np.exp may round otherwise.
    exps = np.fromiter(map(math.exp, np.minimum(-logit, 709.0).tolist()), float, len(logit))
    return np.minimum(np.maximum(1.0 / (1.0 + exps), _CONF_FLOOR), _CONF_CEIL)


def _grown(rows: int, *buffers: np.ndarray) -> tuple[np.ndarray, ...]:
    """``buffers`` copied into zeroed ones of at least ``rows`` rows, doubling."""
    size = max(rows, 2 * len(buffers[0]))
    out = tuple(np.zeros((size,) + b.shape[1:]) for b in buffers)
    for old, new in zip(buffers, out):
        new[: len(old)] = old
    return out


def generate(spec: SynthSpec) -> list[ImageSample]:
    """Draw a dataset; identical specs produce identical datasets.

    Per image: the object count; per object its box (four uniforms), class,
    box noise (four normals), label flip, class noise (``num_classes``
    normals) and confidence noise; then the false-positive count and per
    false positive its class, box, class noise, error level and confidence
    noise. Each is drawn by its own call, in that order, the vectors into
    the block's buffers: ``rng.random(out=...)`` and
    ``rng.standard_normal(out=...)`` for the box uniforms, box noise and
    class noise. When a block fills, at an image boundary, its boxes, noisy
    copies, errors, confidences and class-noise softmax are computed as
    array passes with the per-value arithmetic's bits (see the module
    docstring), screened by ``losses._block_holds`` and built into samples.

    The cyclic garbage collector is paused for the call and restored to the
    caller's setting on return or error: a caller that had it disabled
    keeps it disabled.
    """
    with _CollectorPaused():
        return [sample for block in _blocks(spec) for sample in _block_samples(spec, block)]


class _CollectorPaused:
    """A context that pauses the cyclic garbage collector and re-enables it
    on exit only if it was enabled.

    Its exit allocates nothing after re-enabling, so the collection that
    the paused allocations made due runs at the caller's next allocation,
    outside the paused call. A ``contextlib`` generator would raise
    ``StopIteration`` after re-enabling and so run it inside, over every
    sample that ``generate`` has just built."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


class _Block(NamedTuple):
    """A block of drawn images as arrays. Each image's detection rows are
    its objects' copies, then its false positives."""

    image_ids: list[str]
    counts: np.ndarray  # (n, 2): each image's objects and false positives
    is_obj: np.ndarray  # whether each detection row copies a ground truth
    gt_box: np.ndarray  # (m, 4) corner rows
    gt_labels: list[int]
    det_box: np.ndarray  # (d, 4) corner rows
    confidences: np.ndarray
    probs: np.ndarray  # (d, k) softmax rows
    holds: bool  # whether the block passed ``losses._block_holds``


def _blocks(spec: SynthSpec) -> Iterator[_Block]:
    """``generate``'s draws, a block at a time (see ``generate``)."""
    rng = np.random.default_rng(spec.seed)
    k = spec.num_classes
    noisy = spec.box_noise_std > 0.0
    flip = spec.label_flip_probability
    # One row per detection of the block: its box's uniforms (the ground
    # truth's for a noisy copy), its box normals and its class noise.
    uniforms = np.zeros((64, 4))
    normals = np.zeros((64, 4))
    class_noise = np.zeros((64, k))

    def block() -> _Block:
        counts = np.array(pending)
        is_obj = np.repeat(np.tile([True, False], len(pending)), counts.ravel())
        with np.errstate(over="ignore", invalid="ignore"):
            boxes = _boxes(spec, uniforms[:r])
            gt_rows = boxes[is_obj]
            err = np.zeros(r)  # a noiseless copy's
            err[~is_obj] = 1.5 + (3.5 - 1.5) * np.array(fp_uniforms)  # numpy's uniform(1.5, 3.5)
            if noisy:
                boxes[is_obj], err[is_obj] = _noisy_copies(spec, gt_rows, normals[:r][is_obj])
            confidences = _confidences(spec, err, np.array(conf_normals) if noisy else None)
        weights = _softmax_rows(spec, class_noise[:r], labels)
        holds = _block_holds(np.concatenate((gt_rows, boxes)), gt_labels, confidences, weights)
        return _Block(image_ids, counts, is_obj, gt_rows, gt_labels, boxes, confidences, weights, holds)

    r = 0  # rows in use
    gt_labels: list[int] = []
    labels: list[int] = []  # class of each row
    fp_uniforms: list[float] = []  # error level of each false positive
    conf_normals: list[float] = []  # confidence noise of each row
    image_ids: list[str] = []
    pending: list[tuple[int, int]] = []  # (objects, false positives) of each image
    for i in range(spec.n_images):
        n_obj = int(rng.integers(spec.objects_min, spec.objects_max + 1))
        if r + n_obj > len(uniforms):
            uniforms, normals, class_noise = _grown(r + n_obj, uniforms, normals, class_noise)
        for _ in range(n_obj):
            rng.random(out=uniforms[r])
            label = int(rng.integers(k))
            gt_labels.append(label)
            if noisy:
                rng.standard_normal(out=normals[r])
            if flip > 0.0 and rng.random() < flip:
                label = (label + 1 + int(rng.integers(k - 1))) % k
            labels.append(label)
            if noisy:
                rng.standard_normal(out=class_noise[r])
                conf_normals.append(rng.standard_normal())
            r += 1
        n_fp = int(rng.poisson(spec.false_positive_rate))
        # Loosest-parameter losses vanish only when something is predicted.
        if n_obj == 0 and n_fp == 0:
            n_fp = 1
        if r + n_fp > len(uniforms):
            uniforms, normals, class_noise = _grown(r + n_fp, uniforms, normals, class_noise)
        for _ in range(n_fp):
            labels.append(int(rng.integers(k)))
            rng.random(out=uniforms[r])
            if noisy:
                rng.standard_normal(out=class_noise[r])
            fp_uniforms.append(rng.random())
            if noisy:
                conf_normals.append(rng.standard_normal())
            r += 1
        image_ids.append(f"synth-{spec.seed}-{i:05d}")
        pending.append((n_obj, n_fp))
        if r * k >= _BLOCK_CELLS:
            yield block()
            gt_labels, labels, fp_uniforms, conf_normals, image_ids, pending = [], [], [], [], [], []
            r = 0
    if pending:
        yield block()


def _block_samples(spec: SynthSpec, block: _Block) -> list[ImageSample]:
    """The samples of ``block``: built unchecked when it passed the screen,
    else through the checked constructors, whose errors propagate."""
    detection = Detection._trusted if block.holds else Detection
    sample = ImageSample._trusted if block.holds else ImageSample
    det_boxes = list(starmap(BoundingBox, block.det_box.tolist()))
    # A noiseless detection shares its ground truth's box.
    gt_boxes = (list(starmap(BoundingBox, block.gt_box.tolist())) if spec.box_noise_std > 0.0
                else list(compress(det_boxes, block.is_obj.tolist())))
    gts = list(zip(gt_boxes, block.gt_labels))
    probs, confs = block.probs.tolist(), block.confidences.tolist()
    samples = []
    g = d = 0
    for image_id, (n_obj, n_fp) in zip(block.image_ids, block.counts.tolist()):
        e = d + n_obj + n_fp
        detections = list(map(detection, det_boxes[d:e], probs[d:e], confs[d:e]))
        samples.append(sample(image_id, gts[g : g + n_obj], detections))
        g, d = g + n_obj, e
    return samples


def _block_table(spec: SynthSpec, block: _Block, floor: float) -> _SampleTable:
    """The ``_SampleTable`` of ``block`` without the detections below
    ``floor``, built from its arrays. A block that failed the screen is built
    into samples first, so the checked constructors raise their errors."""
    if block.holds:
        n_obj, n_fp = block.counts.T
        return _SampleTable.from_arrays(
            block.image_ids, n_obj, block.gt_box, block.gt_labels, n_obj + n_fp, block.det_box,
            block.confidences, block.probs, floor,
        )
    return _SampleTable.from_images(_block_samples(spec, block), spec.num_classes, floor)


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


def _run_trial(
    spec: SynthSpec, config: CalibrationConfig, n_cal: int, n_test: int, trial: tuple[int, int]
) -> tuple[float, float, float, float]:
    """One Monte Carlo trial: ``trial`` is its index and sub-seed. Draws
    ``n_cal + n_test`` images as tables, not samples: each of ``generate``'s
    blocks becomes a ``_SampleTable`` without the detections below
    ``config.prefilter_threshold`` (as the file commands drop them on read).
    The joined table is split at image ``n_cal`` (a block may straddle the
    split); the trial calibrates on the first part and returns the test
    risks of the rest, as ``calibrate`` and ``evaluate`` would give them on
    the samples. A pure function of its arguments, so it gives the same bits
    in any process."""
    t, trial_seed = trial
    trial_spec = replace(spec, seed=trial_seed, n_images=n_cal + n_test)
    floor = config.prefilter_threshold
    with _CollectorPaused():
        tables = [_block_table(trial_spec, block, floor) for block in _blocks(trial_spec)]
    cal, test = _SampleTable.concat(tables).split(n_cal)
    try:
        result = _calibrate(cal, config)
    except InfeasibleRiskError as exc:
        raise InfeasibleRiskError(f"trial {t}: {exc}") from exc
    report = _evaluate_table(test, result)
    return (report.cnf_risk, report.loc_risk, report.cls_risk, report.global_risk)


def monte_carlo_validate(
    spec: SynthSpec,
    config: CalibrationConfig,
    trials: int,
    n_cal: int,
    n_test: int,
) -> ValidationReport:
    """Estimate the test risks of the calibrated parameters by simulation.

    Every trial draws ``n_cal + n_test`` fresh images from a sub-seed derived
    from ``spec.seed``, drops the detections below
    ``config.prefilter_threshold``, calibrates on the first part and measures
    mean test losses on the rest. Calibration infeasibility is re-raised with
    the index of the first infeasible trial attached.

    Trials run in worker processes, one per CPU this process may run on (so
    ``taskset`` limits them), and no worker outlives the call. Each trial is a
    pure function of its sub-seed and the results are collected in trial
    order, so the report does not depend on the worker count. With one CPU,
    one trial, or when called from a daemonic process (which may not start
    children), the trials run in this process.
    """
    for name, value in (("trials", trials), ("n_cal", n_cal), ("n_test", n_test)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    children = np.random.SeedSequence(spec.seed).spawn(trials)
    seeds = [(t, int(child.generate_state(1)[0])) for t, child in enumerate(children)]
    rows = list(ordered_map(_run_trial, (spec, config, n_cal, n_test), seeds))
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


#: ``ValidationReport``'s task summaries: the field, its key in
#: ``report_to_dict`` (and in ``condet validate``'s messages) and its label in
#: ``format_report_table``.
VALIDATION_TASKS = tuple(
    (field, key, label or key)
    for field, key, label in (
        ("cnf", "confidence", None),
        ("loc", "localization", None),
        ("cls", "classification", None),
        ("global_", "global", "global(max)"),
    )
)


def report_to_dict(report: ValidationReport) -> dict:
    """The report as JSON-ready data, task summaries under their task names."""
    keys = {field: key for field, key, _ in VALIDATION_TASKS}
    return {keys.get(name, name): value for name, value in asdict(report).items()}


def format_report_table(report: ValidationReport) -> str:
    """Render the across-trial summaries as an aligned text table."""
    header = f"{'task':<16}{'target':>10}{'mean risk':>12}{'stderr':>10}{'frac>target':>13}"
    lines = [
        f"trials={report.trials}  n_cal={report.n_cal}  n_test={report.n_test}",
        header,
        "-" * len(header),
    ]
    for field, _, label in VALIDATION_TASKS:
        summary = getattr(report, field)
        lines.append(
            f"{label:<16}{summary.alpha:>10.4f}{summary.mean_risk:>12.5f}"
            f"{summary.stderr:>10.5f}{summary.frac_trials_above_alpha:>13.3f}"
        )
    return "\n".join(lines)
