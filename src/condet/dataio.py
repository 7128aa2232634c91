"""Dataset ingestion (native schema and COCO import) and result persistence.

The native dataset format is versioned JSON holding, per image, the
ground-truth objects and the raw detections with full probability vectors.
Calibration results are stored with a digest of the configuration that
produced them so a later inference run can detect configuration drift.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .calibration import CalibrationConfig, CalibrationResult
from .geometry import BoundingBox
from .losses import Detection, ImageSample, LossSpec
from .matching import MatchDistanceSpec
from .predsets import PredSetSpec

__all__ = [
    "DATASET_SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION",
    "DataFormatError",
    "SchemaVersionError",
    "DigestMismatchError",
    "ImageRecord",
    "DatasetFile",
    "read_dataset_file",
    "write_dataset_file",
    "dataset_to_samples",
    "load_dataset",
    "import_coco",
    "config_to_dict",
    "config_from_dict",
    "config_digest",
    "save_result",
    "load_result",
]

log = logging.getLogger(__name__)

DATASET_SCHEMA_VERSION = 1
RESULT_SCHEMA_VERSION = 1

PathLike = Union[str, Path]


class DataFormatError(ValueError):
    """A file failed parsing or schema validation."""


class SchemaVersionError(DataFormatError):
    """A file declares a schema version this code does not understand."""


class DigestMismatchError(ValueError):
    """A stored result does not match the configuration presented with it."""


@dataclass(frozen=True)
class ImageRecord:
    """One image's annotations and raw detections, as stored on disk."""

    image_id: str
    width: float
    height: float
    ground_truths: tuple[tuple[BoundingBox, int], ...]
    detections: tuple[Detection, ...]


@dataclass(frozen=True)
class DatasetFile:
    """Parsed native dataset: class inventory plus per-image records."""

    num_classes: int
    class_names: tuple[str, ...]
    images: tuple[ImageRecord, ...]
    schema_version: int = DATASET_SCHEMA_VERSION


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataFormatError(message)


def _is_number(value, kind=(int, float)) -> bool:
    # JSON ``true``/``false`` load as ``bool``, a subclass of ``int``.
    return isinstance(value, kind) and not isinstance(value, bool)


def _parse_box(raw, where: str) -> BoundingBox:
    _require(
        isinstance(raw, (list, tuple)) and len(raw) == 4,
        f"{where}: box must be a 4-element [left, top, right, bottom] array",
    )
    left, top, right, bottom = (float(v) for v in raw)
    _require(
        all(math.isfinite(v) for v in (left, top, right, bottom)),
        f"{where}: box coordinates must be finite",
    )
    _require(
        left <= right and top <= bottom,
        f"{where}: box corners out of order (left<=right, top<=bottom required)",
    )
    return BoundingBox(left, top, right, bottom)


def read_dataset_file(path: PathLike) -> DatasetFile:
    """Parse and validate a native dataset file.

    Raises ``DataFormatError`` naming the offending image and record on any
    schema violation, including probability vectors that do not sum to one
    within 1e-4 and JSON booleans in ``num_classes``, ``class_id`` or
    ``confidence``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), f"{path}: top level must be an object")
    version = raw.get("schema_version")
    if version != DATASET_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: unsupported dataset schema version {version!r} "
            f"(expected {DATASET_SCHEMA_VERSION})"
        )
    num_classes = raw.get("num_classes")
    _require(
        _is_number(num_classes, int) and num_classes >= 1,
        f"{path}: num_classes must be a positive integer, got {num_classes!r}",
    )
    class_names = tuple(raw.get("class_names") or (f"class_{k}" for k in range(num_classes)))
    _require(
        len(class_names) == num_classes,
        f"{path}: class_names length {len(class_names)} != num_classes {num_classes}",
    )
    records = raw.get("images", [])
    _require(isinstance(records, list), f"{path}: 'images' must be an array")
    images = []
    for rec in records:
        _require(isinstance(rec, dict), f"{path}: image record #{len(images)} must be an object")
        image_id = str(rec.get("image_id", f"image_{len(images)}"))
        gts_raw = rec.get("ground_truths", [])
        dets_raw = rec.get("detections", [])
        _require(
            isinstance(gts_raw, list) and isinstance(dets_raw, list),
            f"{path}: image {image_id!r}: ground_truths and detections must be arrays",
        )
        gts = []
        for j, g in enumerate(gts_raw):
            where = f"{path}: image {image_id!r} ground truth #{j}"
            _require(isinstance(g, dict), f"{where}: must be an object")
            box = _parse_box(g.get("box"), where)
            label = g.get("class_id")
            _require(
                _is_number(label, int) and 0 <= label < num_classes,
                f"{where}: class_id {label!r} is not an integer in [0, {num_classes})",
            )
            gts.append((box, label))
        dets = []
        for j, d in enumerate(dets_raw):
            where = f"{path}: image {image_id!r} detection #{j}"
            _require(isinstance(d, dict), f"{where}: must be an object")
            box = _parse_box(d.get("box"), where)
            confidence = d.get("confidence")
            _require(
                _is_number(confidence) and 0.0 <= confidence <= 1.0,
                f"{where}: confidence {confidence!r} is not a number in [0, 1]",
            )
            probs = d.get("probs")
            _require(
                isinstance(probs, (list, tuple)) and len(probs) == num_classes,
                f"{where}: probs must be a length-{num_classes} array",
            )
            probs = tuple(float(p) for p in probs)
            _require(all(p >= 0.0 for p in probs), f"{where}: probs must be non-negative")
            total = math.fsum(probs)
            _require(
                abs(total - 1.0) <= 1e-4,
                f"{where}: probs sum to {total:.6f}, expected 1 within 1e-4",
            )
            dets.append(Detection(box=box, probs=probs, confidence=float(confidence)))
        images.append(
            ImageRecord(
                image_id=image_id,
                width=float(rec.get("width", 0.0)),
                height=float(rec.get("height", 0.0)),
                ground_truths=tuple(gts),
                detections=tuple(dets),
            )
        )
    return DatasetFile(
        num_classes=num_classes,
        class_names=class_names,
        images=tuple(images),
        schema_version=version,
    )


def write_dataset_file(dataset: DatasetFile, path: PathLike) -> None:
    payload = {
        "schema_version": dataset.schema_version,
        "num_classes": dataset.num_classes,
        "class_names": list(dataset.class_names),
        "images": [
            {
                "image_id": rec.image_id,
                "width": rec.width,
                "height": rec.height,
                "ground_truths": [
                    {"box": list(box.as_tuple()), "class_id": label}
                    for box, label in rec.ground_truths
                ],
                "detections": [
                    {
                        "box": list(det.box.as_tuple()),
                        "confidence": det.confidence,
                        "probs": list(det.probs),
                    }
                    for det in rec.detections
                ],
            }
            for rec in dataset.images
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def dataset_to_samples(
    dataset: DatasetFile, prefilter_threshold: float
) -> list[ImageSample]:
    """Convert records to samples, dropping detections below the floor."""
    samples = []
    for rec in dataset.images:
        kept = tuple(d for d in rec.detections if d.confidence >= prefilter_threshold)
        samples.append(
            ImageSample(
                image_id=rec.image_id,
                ground_truths=rec.ground_truths,
                detections=kept,
            )
        )
    return samples


def load_dataset(path: PathLike, prefilter_threshold: float = 1e-3) -> list[ImageSample]:
    """Read a native dataset file and return prefiltered, sorted samples."""
    return dataset_to_samples(read_dataset_file(path), prefilter_threshold)


# --------------------------------------------------------------------------
# COCO import
# --------------------------------------------------------------------------


def _load_json(path: PathLike):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc


def import_coco(gt_path: PathLike, det_path: PathLike) -> DatasetFile:
    """Convert COCO annotations plus detection results to the native schema.

    Boxes are converted from ``[x, y, width, height]`` to corner form and
    category ids are remapped to dense indices (sorted by original id).
    Detections may carry a per-class ``scores`` array of length K; when it is
    absent, a near-one-hot probability vector is synthesized from the single
    ``score`` and a warning is emitted, because LAC/APS label sets are
    degenerate on synthesized vectors.
    """
    gt = _load_json(gt_path)
    det = _load_json(det_path)
    _require(isinstance(gt, dict), f"{gt_path}: COCO annotation file must be an object")
    categories = gt.get("categories")
    _require(bool(categories), f"{gt_path}: missing categories")
    try:
        return _import_coco_parsed(gt, det, gt_path, det_path, categories)
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed COCO input ({gt_path}, {det_path}): {exc!r}") from exc


def _coco_bbox(raw, where: str) -> tuple[float, float, float, float]:
    x, y, w, h = (float(v) for v in raw)
    _require(
        all(math.isfinite(v) for v in (x, y, w, h)), f"{where}: bbox values must be finite"
    )
    _require(w >= 0.0 and h >= 0.0, f"{where}: bbox width and height must be >= 0")
    return x, y, w, h


def _import_coco_parsed(gt, det, gt_path, det_path, categories) -> DatasetFile:
    cat_ids = sorted(c["id"] for c in categories)
    cat_index = {cid: k for k, cid in enumerate(cat_ids)}
    names_by_id = {c["id"]: str(c.get("name", c["id"])) for c in categories}
    num_classes = len(cat_ids)
    class_names = tuple(names_by_id[cid] for cid in cat_ids)

    dims: dict[str, tuple[float, float]] = {}
    order: list[str] = []
    for img in gt.get("images", ()):
        image_id = str(img["id"])
        dims[image_id] = (float(img.get("width", 0.0)), float(img.get("height", 0.0)))
        order.append(image_id)

    gts_by_image: dict[str, list] = {image_id: [] for image_id in order}
    for j, ann in enumerate(gt.get("annotations", ())):
        image_id = str(ann["image_id"])
        cat = ann.get("category_id")
        _require(cat in cat_index, f"{gt_path}: annotation #{j} has unknown category id {cat!r}")
        x, y, w, h = _coco_bbox(ann["bbox"], f"{gt_path}: annotation #{j}")
        gts_by_image.setdefault(image_id, []).append(
            (BoundingBox.from_xywh(x, y, w, h), cat_index[cat])
        )
        if image_id not in dims:
            dims[image_id] = (0.0, 0.0)
            order.append(image_id)

    if isinstance(det, dict):
        det = det.get("annotations", det.get("detections", []))
    _require(isinstance(det, list), f"{det_path}: COCO results must be a JSON array")
    eps = 1e-6
    synthesized = 0
    dets_by_image: dict[str, list] = {}
    for j, rec in enumerate(det):
        image_id = str(rec["image_id"])
        cat = rec.get("category_id")
        _require(cat in cat_index, f"{det_path}: detection #{j} has unknown category id {cat!r}")
        x, y, w, h = _coco_bbox(rec["bbox"], f"{det_path}: detection #{j}")
        score = float(rec.get("score", 0.0))
        _require(math.isfinite(score), f"{det_path}: detection #{j}: score must be finite")
        scores = rec.get("scores")
        if scores is not None:
            _require(
                isinstance(scores, list) and len(scores) == num_classes,
                f"{det_path}: detection #{j} scores must have length {num_classes}",
            )
            probs = tuple(float(p) for p in scores)
            _require(
                all(math.isfinite(p) for p in probs),
                f"{det_path}: detection #{j}: scores must be finite",
            )
        else:
            synthesized += 1
            if num_classes == 1:
                probs = (1.0,)
            else:
                off = eps / (num_classes - 1)
                probs = tuple(
                    1.0 - eps if k == cat_index[cat] else off for k in range(num_classes)
                )
        dets_by_image.setdefault(image_id, []).append(
            Detection(
                box=BoundingBox.from_xywh(x, y, w, h),
                probs=probs,
                confidence=min(max(score, 0.0), 1.0),
            )
        )
        if image_id not in dims:
            # Detections for an image absent from the annotations become an
            # image with empty ground truth; extent estimated from its boxes.
            dims[image_id] = (0.0, 0.0)
            order.append(image_id)
            gts_by_image.setdefault(image_id, [])

    if synthesized:
        log.warning(
            "%d of %d detections carried no per-class 'scores' array; synthesized "
            "near-one-hot probability vectors (mass %.0e off the detected class). "
            "LAC/APS label sets are degenerate on synthesized vectors.",
            synthesized,
            len(det),
            eps,
        )

    images = []
    for image_id in order:
        width, height = dims[image_id]
        dets = tuple(dets_by_image.get(image_id, ()))
        if width <= 0.0 and dets:
            width = max(d.box.right for d in dets)
            height = max(d.box.bottom for d in dets)
        images.append(
            ImageRecord(
                image_id=image_id,
                width=width,
                height=height,
                ground_truths=tuple(gts_by_image.get(image_id, ())),
                detections=dets,
            )
        )
    return DatasetFile(num_classes=num_classes, class_names=class_names, images=tuple(images))


# --------------------------------------------------------------------------
# Calibration result persistence
# --------------------------------------------------------------------------


def config_to_dict(config: CalibrationConfig) -> dict:
    return {
        "alpha_cnf": config.alpha_cnf,
        "alpha_loc": config.alpha_loc,
        "alpha_cls": config.alpha_cls,
        "loss_spec": {
            "confidence_kind": config.loss_spec.confidence_kind,
            "localization_kind": config.loss_spec.localization_kind,
            "localization_tau": config.loss_spec.localization_tau,
            "classification_aggregation": config.loss_spec.classification_aggregation,
            "aggregation_tau": config.loss_spec.aggregation_tau,
        },
        "predset_spec": {
            "localization_kind": config.predset_spec.localization_kind,
            "classification_kind": config.predset_spec.classification_kind,
        },
        "match_spec": {"kind": config.match_spec.kind, "tau": config.match_spec.tau},
        "lambda_loc_bounds": list(config.lambda_loc_bounds)
        if config.lambda_loc_bounds is not None
        else None,
        "lambda_cls_bounds": list(config.lambda_cls_bounds),
        "binary_search_steps": config.binary_search_steps,
        "prefilter_threshold": config.prefilter_threshold,
        "finite_sample_correction": config.finite_sample_correction,
    }


def config_from_dict(raw: dict) -> CalibrationConfig:
    try:
        return CalibrationConfig(
            alpha_cnf=raw["alpha_cnf"],
            alpha_loc=raw["alpha_loc"],
            alpha_cls=raw["alpha_cls"],
            loss_spec=LossSpec(**raw.get("loss_spec", {})),
            predset_spec=PredSetSpec(**raw.get("predset_spec", {})),
            match_spec=MatchDistanceSpec(**raw.get("match_spec", {"kind": "hausdorff"})),
            lambda_loc_bounds=tuple(raw["lambda_loc_bounds"])
            if raw.get("lambda_loc_bounds") is not None
            else None,
            lambda_cls_bounds=tuple(raw.get("lambda_cls_bounds", (0.0, 1.0))),
            binary_search_steps=raw.get("binary_search_steps", 32),
            prefilter_threshold=raw.get("prefilter_threshold", 1e-3),
            finite_sample_correction=raw.get("finite_sample_correction", True),
        )
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"invalid calibration config: {exc}") from exc


def config_digest(config: CalibrationConfig) -> str:
    """Stable content digest of a configuration, for mismatch detection."""
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_result(result: CalibrationResult, path: PathLike) -> None:
    """Write a calibration result with its config echo and digest."""
    payload = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "lambda_cnf_plus": result.lambda_cnf_plus,
        "lambda_cnf_minus": result.lambda_cnf_minus,
        "lambda_loc_plus": result.lambda_loc_plus,
        "lambda_cls_plus": result.lambda_cls_plus,
        "n_calibration": result.n_calibration,
        "diagnostics": dict(result.diagnostics),
        "config": config_to_dict(result.config),
        "config_digest": config_digest(result.config),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result(path: PathLike) -> CalibrationResult:
    """Read a calibration result, verifying schema version and digest."""
    raw = _load_json(path)
    _require(isinstance(raw, dict), f"{path}: result file must be an object")
    version = raw.get("schema_version")
    if version != RESULT_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: unsupported result schema version {version!r} "
            f"(expected {RESULT_SCHEMA_VERSION})"
        )
    config = config_from_dict(raw.get("config", {}))
    stored = raw.get("config_digest")
    actual = config_digest(config)
    if stored != actual:
        raise DigestMismatchError(
            f"{path}: stored config digest {stored!r} does not match the echoed "
            f"configuration (digest {actual!r}); the file was modified"
        )
    try:
        return CalibrationResult(
            lambda_cnf_plus=float(raw["lambda_cnf_plus"]),
            lambda_cnf_minus=float(raw["lambda_cnf_minus"]),
            lambda_loc_plus=float(raw["lambda_loc_plus"]),
            lambda_cls_plus=float(raw["lambda_cls_plus"]),
            config=config,
            n_calibration=int(raw["n_calibration"]),
            diagnostics=dict(raw.get("diagnostics", {})),
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing result field {exc}") from exc
