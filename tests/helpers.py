"""Shared random-instance builders for the test suite.

Boxes are drawn on an integer pixel lattice by default so that margin and
containment comparisons are exact in floating point; float boxes are used
where exactness is not asserted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from condet import BoundingBox, Detection, ImageSample, calibrate
from condet.dataio import DatasetFile, ImageRecord, write_dataset_file
from oracles import exact_sum


def random_int_box(rng: np.random.Generator, span: int = 100) -> BoundingBox:
    x = sorted(int(v) for v in rng.integers(0, span, 2))
    y = sorted(int(v) for v in rng.integers(0, span, 2))
    return BoundingBox(float(x[0]), float(y[0]), float(x[1] + 1), float(y[1] + 1))


def random_float_box(rng: np.random.Generator, span: float = 100.0) -> BoundingBox:
    x = sorted(rng.uniform(0.0, span, 2))
    y = sorted(rng.uniform(0.0, span, 2))
    return BoundingBox(float(x[0]), float(y[0]), float(x[1] + 0.5), float(y[1] + 0.5))


def random_probs(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    probs = rng.dirichlet(np.ones(k))
    return tuple(float(p) for p in probs)


def random_detection(rng: np.random.Generator, k: int = 5, span: float = 100.0) -> Detection:
    return Detection(
        box=random_float_box(rng, span),
        probs=random_probs(rng, k),
        confidence=float(rng.uniform(0.01, 0.999)),
    )


def random_sample(
    rng: np.random.Generator,
    max_gts: int = 5,
    max_dets: int = 6,
    k: int = 5,
    span: float = 100.0,
    min_dets: int = 0,
    image_id: str = "img",
) -> ImageSample:
    n_gt = int(rng.integers(0, max_gts + 1))
    n_det = int(rng.integers(min_dets, max_dets + 1))
    gts = tuple(
        (random_float_box(rng, span), int(rng.integers(0, k))) for _ in range(n_gt)
    )
    dets = tuple(random_detection(rng, k, span) for _ in range(n_det))
    return ImageSample(image_id=image_id, ground_truths=gts, detections=dets)


def calibration_outcome(samples, config):
    """``calibrate``'s result, or the type of the error it raises."""
    try:
        return calibrate(samples, config)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def exact_task_sums(kernel) -> list[list]:
    """Each step-1 task's exact summed monotonized losses at every point of
    ``[1.0, *kernel.visit_lams]``: per image, the largest of its ``loc`` and
    ``cls`` losses at the loosest second-step parameters over the states the
    point reaches, read as step 2 reads them (``reach`` and ``maxima``), not
    from step 1's running maxima, and its confidence loss at the point's
    prefix."""
    cfg = kernel.config
    sums = [[], [], []]
    for v in range(-1, len(kernel.visit_lams)):
        reach = kernel.reach(v)
        losses = (
            kernel.conf_losses(v),
            reach.maxima(reach.loc_losses(cfg.lambda_loc_bounds[1])),
            reach.maxima(reach.cls_losses(cfg.lambda_cls_bounds[1])),
        )
        for task, values in zip(sums, losses):
            task.append(exact_sum(tuple(values.tolist())))
    return sums


def samples_to_dataset(samples, num_classes: int, size: float = 100.0) -> DatasetFile:
    records = tuple(
        ImageRecord(
            image_id=s.image_id,
            width=size,
            height=size,
            ground_truths=s.ground_truths,
            detections=s.detections,
        )
        for s in samples
    )
    return DatasetFile(
        num_classes=num_classes,
        class_names=tuple(f"class_{k}" for k in range(num_classes)),
        images=records,
    )


def samples_to_dataset_file(samples, num_classes: int, path, size: float = 100.0) -> None:
    write_dataset_file(samples_to_dataset(samples, num_classes, size), path)


def one_value_per_line(path, key: str) -> tuple[dict, list]:
    """Check that the file ``path`` has the layout that dataset and
    predictions files share, with the array under ``key``; return the header
    (``key`` holding ``[]``) and the array's values.

    Line 1 is the header, ending with the array's opening ``[``; each middle
    line is one JSON value followed by ``,``, except the last value, which
    has no comma; the file closes with ``]}`` and a newline.
    """
    text = Path(path).read_text(encoding="utf-8")
    assert text.endswith("\n]}\n")
    first, *middle = text[: -len("\n]}\n")].split("\n")
    assert first.endswith(f'"{key}": [')
    header = json.loads(first + "]}")
    assert list(header)[-1] == key
    assert all(line.endswith(",") for line in middle[:-1])
    assert not middle or not middle[-1].endswith(",")
    values = [json.loads(line.removesuffix(",")) for line in middle]
    assert json.loads(text) == {**header, key: values}
    return header, values
