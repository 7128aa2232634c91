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
import os
import stat
from contextlib import closing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from ._workers import ordered_map
from .calibration import CalibrationConfig, CalibrationResult, _SampleTable
from .geometry import BoundingBox
from .losses import Detection, ImageSample, _block_holds, _check_box, _check_probs

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
RESULT_SCHEMA_VERSION = 2

PathLike = Union[str, Path]


class DataFormatError(ValueError):
    """A file failed parsing or schema validation."""


class SchemaVersionError(DataFormatError):
    """A file declares a schema version this code does not understand."""


class DigestMismatchError(ValueError):
    """A stored result does not match the configuration presented with it."""


@dataclass(frozen=True)
class ImageRecord:
    """One image's annotations and raw detections, as stored on disk.

    The reader and ``import_coco`` pass every ground-truth box through the
    box rule of ``ImageSample`` (``losses._check_box``); the detections
    checked themselves.
    """

    image_id: str
    width: float
    height: float
    ground_truths: tuple[tuple[BoundingBox, int], ...]
    detections: tuple[Detection, ...]


@dataclass(frozen=True)
class DatasetFile:
    """Parsed native dataset: class inventory plus per-image records.

    A ``DatasetFile`` holds nothing that ``read_dataset_file`` would refuse
    once written: the constructor applies the reader's checks of the class
    inventory and of each record's image id, extents, ground truths and
    probability-vector lengths (the detections checked themselves), and
    raises ``DataFormatError``, a ``ValueError``, with the reader's message
    naming the image and the record but no file. ``ImageRecord``, which the
    reader builds for every image, checks nothing, and the reader, which has
    checked each record as it parsed it, builds its ``DatasetFile`` with
    ``_trusted``.
    """

    num_classes: int
    class_names: tuple[str, ...]
    images: tuple[ImageRecord, ...]

    def __post_init__(self) -> None:
        k = self.num_classes
        _check_classes(k, self.class_names, "")
        for n, rec in enumerate(self.images):
            image = f"image {_image_id(rec.image_id, f'image record #{n}: image_id')!r}"
            for key in ("width", "height"):
                _extent(getattr(rec, key), key, image)
            _parse_records(_check_ground_truth, rec.ground_truths, k, image, "ground truth")
            _parse_records(_check_probs_length, rec.detections, k, image, "detection")

    @classmethod
    def _trusted(cls, num_classes: int, class_names: tuple[str, ...],
                 images: tuple[ImageRecord, ...]) -> "DatasetFile":
        """``DatasetFile(num_classes, class_names, images)`` built without
        checking, for a header and records that the reader checked."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "num_classes", num_classes)
        object.__setattr__(dataset, "class_names", class_names)
        object.__setattr__(dataset, "images", images)
        return dataset


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataFormatError(message)


def _is_number(value, kind=(int, float)) -> bool:
    # JSON ``true``/``false`` load as ``bool``, a subclass of ``int``.
    return isinstance(value, kind) and not isinstance(value, bool)


#: An ``int`` field takes an integer in numpy's int64 range, which bounds the
#: counts, class labels and seeds it reaches.
_INT64_END = 1 << 63


def _number_fault(value, kind: type) -> str | None:
    """The number rule of every file the package reads: None when ``value``
    is a number that a ``kind`` field (``int`` or ``float``) takes, else
    ``""`` for a value that is not a number of that kind, or the range that
    an integer breaks.

    A number is an ``int`` or a ``float``, never a ``bool``. A float field
    takes a value that ``float()`` converts without overflow; an integer
    field takes an integer in [-2**63, 2**63). A value is kept as given, so
    ``1`` and ``1.0`` stay distinct.
    """
    if kind is float:
        if not _is_number(value):
            return ""
        try:
            float(value)
        except OverflowError:
            return "an integer is beyond the float range"
    elif not _is_number(value, int):
        return ""
    elif not -_INT64_END <= value < _INT64_END:
        return "an integer is beyond the int64 range"
    return None


def _number(value, kind: type, message: str):
    """``value`` when the number rule (``_number_fault``) takes it for a
    ``kind`` field; else ``DataFormatError(message)``, with the broken range
    appended for an integer out of range."""
    fault = _number_fault(value, kind)
    if fault is None:
        return value
    raise DataFormatError(f"{message}; {fault}" if fault else message)


def _only(values, *kinds: type) -> bool:
    """Whether each of ``values`` is exactly of one of the types ``kinds``.

    A JSON number loads as exactly ``int`` or ``float``, never ``bool``;
    comparing the types as a set keeps the check cheap on long vectors.
    """
    return {*map(type, values)} <= {*kinds}


def _load_json(path: PathLike):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not valid UTF-8: {exc}") from None
        except ValueError:  # int() refuses a number past the interpreter's digit limit
            raise DataFormatError(f"{path}: a JSON integer has too many digits") from None
        except RecursionError:
            raise DataFormatError(f"{path}: JSON nested too deeply") from None


def _write_json(path: PathLike, payload, sort_keys: bool = False) -> None:
    """Write ``payload`` indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _as_floats(values: list, message: str) -> list:
    """``values`` with every entry a float: the list itself when it already
    is, else a converted copy. Raises with ``message`` on the first entry
    that the number rule refuses for a float field."""
    if [*map(type, values)].count(float) == len(values):
        return values
    return [float(_number(v, float, message)) for v in values]


def _box(raw) -> BoundingBox:
    """The JSON box ``raw`` as a ``BoundingBox``, unchecked by the box rule."""
    message = "box must be a 4-element [left, top, right, bottom] array of numbers"
    if not (isinstance(raw, list) and len(raw) == 4):
        raise DataFormatError(message)
    return BoundingBox(*_as_floats(raw, message))


def _check_ground_truth(gt: tuple[BoundingBox, int], num_classes: int) -> None:
    """A file's rule for the ground truth ``(box, class_id)``: the box rule,
    and a ``class_id`` that is an integer in [0, num_classes)."""
    box, label = gt
    _check_box(box)
    if not (_is_number(label, int) and 0 <= label < num_classes):
        raise DataFormatError(f"class_id {label!r} is not an integer in [0, {num_classes})")


def _ground_truth(raw, num_classes: int) -> tuple[BoundingBox, int]:
    if not isinstance(raw, dict):
        raise DataFormatError("must be an object")
    gt = _box(raw.get("box")), raw.get("class_id")
    _check_ground_truth(gt, num_classes)
    return gt


def _probs_length_error(num_classes: int) -> DataFormatError:
    return DataFormatError(f"probs must be a length-{num_classes} array")


def _detection(raw, num_classes: int) -> Detection:
    if not isinstance(raw, dict):
        raise DataFormatError("must be an object")
    box = _box(raw.get("box"))
    confidence, probs = raw.get("confidence"), raw.get("probs")
    try:
        if not _is_number(confidence):
            raise DataFormatError(f"confidence {confidence!r} is not a number in [0, 1]")
        if not (isinstance(probs, list) and len(probs) == num_classes):
            raise _probs_length_error(num_classes)
        probs = _as_floats(probs, "probs must be numbers")
    except DataFormatError:
        # Faults are reported in field order: the constructor, given neutral
        # values for the fields from this one on, raises for an earlier one.
        Detection(box, (1.0,), confidence if _is_number(confidence) else 0.0)
        raise
    return Detection(box, probs, confidence)


def _check_probs_length(det: Detection, num_classes: int) -> None:
    """The one rule of a file that the detection ``det`` did not check."""
    if len(det.probs) != num_classes:
        raise _probs_length_error(num_classes)


def _parse_records(parse, raws: list, num_classes: int, image: str, kind: str) -> tuple:
    """``parse`` applied to each raw record, or to each held one of a
    ``DatasetFile``; a failure, of the JSON types or of the rule that
    ``Detection`` and ``_check_box`` enforce, is prefixed with the record's
    name, ``<image> <kind> #<index>``."""
    out = []
    try:
        for j, raw in enumerate(raws):
            out.append(parse(raw, num_classes))
    except ValueError as exc:
        raise DataFormatError(f"{image} {kind} #{j}: {exc}") from None
    return tuple(out)


def _extent(value, key: str, image: str) -> float:
    """The ``key`` extent ``value``, a number by the number rule, as a
    finite float >= 0; ``image`` names the record in the error."""
    if _number_fault(value, float) is None and 0.0 <= value < math.inf:
        return float(value)
    raise DataFormatError(f"{image}: {key} must be a finite number >= 0, got {value!r}")


def _image_id(value, field: str) -> str:
    """An image id, a string or an integer, as a string; ``field`` names it
    in the error."""
    if not (isinstance(value, str) or _is_number(value, int)):
        raise DataFormatError(f"{field} must be a string or an integer, got {value!r}")
    return str(value)


def _image(rec, n: int, num_classes: int, path: PathLike) -> ImageRecord:
    if not isinstance(rec, dict):
        raise DataFormatError(f"{path}: image record #{n} must be an object")
    image_id = _image_id(rec.get("image_id", f"image_{n}"), f"{path}: image record #{n}: image_id")
    image = f"{path}: image {image_id!r}"
    width, height = (_extent(rec.get(key, 0.0), key, image) for key in ("width", "height"))
    gts_raw = rec.get("ground_truths", [])
    dets_raw = rec.get("detections", [])
    if not (isinstance(gts_raw, list) and isinstance(dets_raw, list)):
        raise DataFormatError(f"{image}: ground_truths and detections must be arrays")
    return ImageRecord(
        image_id=image_id,
        width=width,
        height=height,
        ground_truths=_parse_records(_ground_truth, gts_raw, num_classes, image, "ground truth"),
        detections=_parse_records(_detection, dets_raw, num_classes, image, "detection"),
    )


def _check_version(raw: dict, kind: str, expected: int, path: PathLike) -> None:
    """Raise ``SchemaVersionError`` unless the ``schema_version`` of the
    loaded ``kind`` file ``raw`` is the integer ``expected``."""
    version = raw.get("schema_version")
    if not (_is_number(version, int) and version == expected):
        raise SchemaVersionError(
            f"{path}: unsupported {kind} schema version {version!r} (expected {expected})"
        )


def _check_classes(num_classes, class_names, where: str) -> None:
    """Raise ``DataFormatError``, prefixed with ``where``, unless
    ``num_classes`` is a positive integer and ``class_names`` is absent,
    empty or an array of that many strings. No default name is made: a
    valid ``num_classes`` may be too large for one name per class."""
    message = f"{where}num_classes must be a positive integer, got {num_classes!r}"
    _require(_number(num_classes, int, message) >= 1, message)
    if class_names in (None, [], ()):
        return
    _require(
        isinstance(class_names, (list, tuple)) and all(isinstance(n, str) for n in class_names),
        f"{where}class_names must be an array of strings, got {class_names!r}",
    )
    _require(
        len(class_names) == num_classes,
        f"{where}class_names length {len(class_names)} != num_classes {num_classes}",
    )


def _class_names(num_classes: int, class_names) -> tuple[str, ...]:
    """The checked ``class_names`` (``_check_classes``) of ``num_classes``
    classes, or ``class_0, class_1, ...`` when they are absent or empty."""
    return tuple(class_names or (f"class_{k}" for k in range(num_classes)))


def _check_header(raw, path: PathLike) -> tuple[int, list | None, list]:
    """Check all of the loaded native dataset document ``raw`` but the image
    records.

    Returns ``num_classes``, the class names as given (None when absent;
    ``_class_names`` makes the defaults) and the raw image records, for
    ``_image`` to parse one by one.
    """
    _require(isinstance(raw, dict), f"{path}: top level must be an object")
    _check_version(raw, "dataset", DATASET_SCHEMA_VERSION, path)
    num_classes = raw.get("num_classes")
    class_names = raw.get("class_names")
    _check_classes(num_classes, class_names, f"{path}: ")
    records = raw.get("images", [])
    _require(isinstance(records, list), f"{path}: 'images' must be an array")
    return num_classes, class_names, records


def read_dataset_file(path: PathLike) -> DatasetFile:
    """Parse and validate a native dataset file, in any JSON layout.

    Raises ``DataFormatError`` naming the file and the offending image and
    record on any schema violation: a ``schema_version`` other than the
    integer 1 (``SchemaVersionError``), ``class_names`` that are not an
    array of ``num_classes`` strings, an ``image_id`` that is neither a
    string nor an integer, a ``width`` or ``height`` that is not a finite
    number >= 0 (absent means 0), JSON booleans in ``num_classes``,
    ``class_id`` or ``confidence``, and any breach of the validity rule
    that ``Detection`` and ``ImageSample`` enforce, with their message after
    the record's name. The reader checks the JSON types and shapes; the
    rule is the constructors'. A vector's entries are kept as loaded when
    all are floats.

    The records are decoded and checked in worker processes by
    ``_map_image_records``; the result and the errors do not depend on the
    file's layout or the number of workers.
    """
    # ``list`` keeps each span's records as they are.
    num_classes, class_names, images = _map_image_records(path, list)
    return DatasetFile._trusted(num_classes, _class_names(num_classes, class_names), tuple(images))


#: Probability cells per chunk of records that one worker encodes, and per
#: span of the loaded records of a whole document that one worker parses.
_CHUNK_CELLS = 1 << 16

#: Bytes of record lines per span that one worker reads and decodes.
_CHUNK_BYTES = 1 << 20

#: Bytes per read of the scan that cuts a file into spans (``_scan_spans``).
_BLOCK_BYTES = 1 << 20

#: Bytes that the scan reads back from a file's last byte that is not
#: whitespace to find the ``]}`` line; a file whose ``]}`` line has more
#: whitespace before it is loaded whole.
_TAIL_BYTES = 64


def _chunks(weights: Sequence[int], limit: int = _CHUNK_CELLS) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` ranges of items whose weights are
    ``weights``, each closed at the first item that brings it to ``limit``."""
    spans, start, total = [], 0, 0
    for stop, weight in enumerate(weights, 1):
        total += weight
        if total >= limit:
            spans.append((start, stop))
            start, total = stop, 0
    if start < len(weights):
        spans.append((start, len(weights)))
    return spans


def _raw_cells(rec, num_classes: int) -> int:
    """The probability cells of a raw image record; one when it is not an
    object with a ``detections`` array, which ``_image`` then rejects."""
    dets = rec.get("detections") if isinstance(rec, dict) else None
    return len(dets) * num_classes if isinstance(dets, list) else 1


#: The outcomes of a span of records, in the order in which they decide a
#: read: a line that does not decode on its own, a bad record, an error of
#: ``work``, and ``work``'s values.
_LINE_ERROR, _RECORD_ERROR, _WORK_ERROR, _VALUES = range(4)

#: JSON's whitespace. ``str.strip()`` would also remove characters such as
#: form feed and no-break space, which JSON rejects around a value.
_JSON_WHITESPACE = " \t\r\n"
_JSON_WHITESPACE_BYTES = _JSON_WHITESPACE.encode()


def _span_outcome(raws: list, first: int, num_classes: int, path: PathLike, work: Callable,
                  args: tuple) -> tuple[int, object]:
    """``(_VALUES, work(images, *args))`` for the parsed raw records
    ``raws``, numbered from ``first``; ``(_RECORD_ERROR, error)`` for the
    first bad record, or ``(_WORK_ERROR, error)`` when ``work`` raises."""
    try:
        images = [_image(rec, n, num_classes, path) for n, rec in enumerate(raws, first)]
    except DataFormatError as exc:
        return _RECORD_ERROR, exc
    return _work_outcome(work, images, args)


def _work_outcome(work: Callable, value, args: tuple) -> tuple[int, object]:
    """``(_VALUES, work(value, *args))``, or ``(_WORK_ERROR, error)`` when
    ``work`` raises."""
    try:
        return _VALUES, work(value, *args)
    except Exception as exc:  # raised by the caller once every span has returned
        return _WORK_ERROR, exc


def _float_rows(rows: list, width: int):
    """``rows`` as a ``(len(rows), width)`` float64 array when each is a
    list of ``width`` floats, else None."""
    if not (_only(rows, list) and {*map(len, rows)} <= {width}):
        return None
    flat = [*chain.from_iterable(rows)]
    return np.array(flat, dtype=float).reshape(-1, width) if _only(flat, float) else None


def _span_table(raws: list, num_classes: int, prefilter_threshold: float) -> _SampleTable | None:
    """The ``_SampleTable`` of the raw image records ``raws``, without the
    detections below ``prefilter_threshold``, built from the decoded JSON
    lists; None unless every record passes a bulk check.

    The check accepts nothing that ``_image`` refuses, but it may refuse a
    valid record, which ``_table_outcome`` then parses with ``_image``.
    Here it checks the JSON types and the extents: every number must be a
    float by type (image ids strings), each probability vector must have
    ``num_classes`` entries, and extents must be finite and >= 0. The
    values themselves go through the validity rule's bulk form,
    ``losses._block_holds``, which also requires the class ids to be
    ``int``s in [0, num_classes).
    """
    if not _only(raws, dict):
        return None
    ids = [rec.get("image_id") for rec in raws]
    extents = [rec.get(key, 0.0) for rec in raws for key in ("width", "height")]
    gt_lists = [rec.get("ground_truths", []) for rec in raws]
    det_lists = [rec.get("detections", []) for rec in raws]
    if not (_only(ids, str) and _only(extents, float) and _only(gt_lists, list) and _only(det_lists, list)):
        return None
    gts, dets = [*chain.from_iterable(gt_lists)], [*chain.from_iterable(det_lists)]
    if not (_only(gts, dict) and _only(dets, dict)):
        return None
    labels = [g.get("class_id") for g in gts]
    confidence = [d.get("confidence") for d in dets]
    gt_box = _float_rows([g.get("box") for g in gts], 4)
    det_box = _float_rows([d.get("box") for d in dets], 4)
    probs = _float_rows([d.get("probs") for d in dets], num_classes)
    if gt_box is None or det_box is None or probs is None:
        return None
    if not _only(confidence, float):
        return None
    extents, confidence = np.array(extents, dtype=float), np.array(confidence, dtype=float)
    if not (
        ((0.0 <= extents) & (extents < math.inf)).all()
        and _block_holds(np.concatenate((gt_box, det_box)), labels, confidence, probs)
    ):
        return None
    return _SampleTable.from_arrays(
        ids, np.array([*map(len, gt_lists)], dtype=np.int64), gt_box, labels,
        np.array([*map(len, det_lists)], dtype=np.int64), det_box, confidence, probs,
        prefilter_threshold,
    )


def _table_outcome(raws: list, first: int, num_classes: int, path: PathLike, prefilter_threshold: float,
                   work: Callable | None = None, args: tuple = ()) -> tuple[int, object]:
    """``(_VALUES, table)``, the ``_SampleTable`` of the raw records
    ``raws`` numbered from ``first``, or ``work(table, *args)`` in its place
    when ``work`` is given; else the error outcome of the first bad record,
    or of ``work``. Records that fail ``_span_table``'s bulk check are
    parsed as ``read_dataset_file`` parses them, so the constructors name the
    bad record with their own message, and the table is built from the
    parsed records (``_SampleTable.from_images``), positions and all."""
    table = _span_table(raws, num_classes, prefilter_threshold)
    if table is None:
        kind, images = _span_outcome(raws, first, num_classes, path, list, ())
        if kind != _VALUES:
            return kind, images
        table = _SampleTable.from_images(images, num_classes, prefilter_threshold)
    return (_VALUES, table) if work is None else _work_outcome(work, table, args)


def _parse_span(records: list, num_classes: int, path: PathLike, outcome: Callable, args: tuple,
                span: tuple[int, int]) -> tuple[int, object]:
    """``outcome`` of the loaded raw records ``records[start:stop]``."""
    start, stop = span
    return outcome(records[start:stop], start, num_classes, path, *args)


def _decode_span(path: PathLike, key: tuple, num_classes: int, outcome: Callable, args: tuple,
                 span: tuple[int, int, int, bool]) -> tuple[int, object]:
    """``outcome`` of the record lines of the span ``(offset, length, first,
    last)`` of the file ``path`` (``_scan_spans``), each decoded on its own
    and numbered from ``first``; ``(_LINE_ERROR, None)`` when the file is no
    longer the one scanned (its ``_file_key`` is not ``key``), the span is
    not UTF-8 or one of its lines does not decode.

    This worker opens the file and reads the span's bytes alone. Each line
    holds one JSON value, followed by a comma unless it is the last line of
    the ``last`` span; JSON whitespace may surround the value and the comma.
    """
    offset, length, first, last = span
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read(length)
        if _file_key(fh) != key:
            return _LINE_ERROR, None
    try:
        # The span ends with its last line's "\n".
        lines = data.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError:
        return _LINE_ERROR, None
    raws = []
    for n, line in enumerate(lines, 1):
        line = line.strip(_JSON_WHITESPACE)
        if not (last and n == len(lines)):
            if not line.endswith(","):
                return _LINE_ERROR, None
            line = line[:-1]
        try:
            raws.append(json.loads(line))
        except (ValueError, RecursionError):
            return _LINE_ERROR, None
    return outcome(raws, first, num_classes, path, *args)


def _collect(outcomes: Iterator[tuple[int, object]]) -> list | None:
    """The values of the span outcomes ``outcomes``, one per span in span
    order, or None at the first ``_LINE_ERROR``. Otherwise the first bad
    record raises, and then the first error of the per-span work."""
    done = []
    with closing(outcomes):
        for outcome in outcomes:
            if outcome[0] == _LINE_ERROR:
                return None
            done.append(outcome)
    kind, first = min(done, key=itemgetter(0), default=(_VALUES, None))
    if kind != _VALUES:
        raise first
    return [value for _, value in done]


def _file_key(fh) -> tuple[int, int, int, int]:
    """The device, inode, size and modification time of the open file
    ``fh``. A reader that finds the key it scanned takes the file to be the
    one it scanned: a file replaced since has a new inode, and one rewritten
    in place a new size or modification time, to the resolution of the file
    system's clock."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _writer_head(line: bytes) -> dict | None:
    """The header of a file whose first line, with its ``\\n``, is
    ``line``: the JSON object of the line followed by ``]}``, when that
    object's last key is ``images`` holding ``[]``; else None."""
    # Only a line that opens that array can leave it empty; the check spares
    # parsing a whole document written on one line.
    if not (line.endswith(b"\n") and line.rstrip(_JSON_WHITESPACE_BYTES).endswith(b"[")):
        return None
    try:
        head = json.loads(line[:-1].decode("utf-8") + "]}")
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    # Text that ends with "]}" and decodes is an object; its last key holds
    # that array unless the key is repeated.
    if list(head)[-1:] != ["images"] or head["images"] != []:
        return None
    return head


def _scan_spans(path: PathLike, limit: int) -> tuple[dict, tuple, list] | None:
    """The header of ``path``, the file's key (``_file_key``) and the spans
    of its record lines when it is in the writer's layout; else None.

    The layout holds when the first line followed by ``]}`` is a JSON
    object whose last key is ``images`` holding ``[]`` (``_writer_head``),
    and the last line that is not blank is ``]}``. The record lines are
    those in between. A span ``(offset, length, first, last)`` is the bytes
    of whole record lines from ``offset``, closed at the first line end
    ``limit`` or more bytes on; ``first`` is the number of its first record
    line, and ``last`` marks the span that holds the last record line.

    The scan reads the file once, in blocks of ``_BLOCK_BYTES``, and holds
    one block and the header line at a time; it reads back up to
    ``_TAIL_BYTES`` before the last byte that is not whitespace to find the
    ``]}`` line, and takes a file whose ``]}`` line does not fit in them for
    another layout. A ``\\n`` byte is never part of a longer UTF-8
    character, so every span is UTF-8 when the file is; ``_decode_span``
    decodes and checks each one. A file that is not a regular file, such as
    a pipe, is left unopened: only the whole-document read can read it.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    with open(path, "rb") as fh:
        key = _file_key(fh)
        header = fh.readline()
        head = _writer_head(header)
        if head is None:
            return None
        # The (offset, first record line) of each span closed so far, and of
        # the open one; ``pos`` is the block's offset, ``lines`` counts the
        # line ends seen.
        starts, start, first = [], len(header), 0
        pos, lines = len(header), 0
        end = None  # the end of the last byte that is not JSON whitespace
        while block := fh.read(_BLOCK_BYTES):
            at = block.find(b"\n")
            while at >= 0:
                lines += 1
                if pos + at + 1 - start >= limit:
                    starts.append((start, first))
                    start, first = pos + at + 1, lines
                at = block.find(b"\n", at + 1)
            if kept := len(block.rstrip(_JSON_WHITESPACE_BYTES)):
                end = pos + kept
            pos += len(block)
        starts.append((start, first))
        if end is None:
            return None
        at = max(end - _TAIL_BYTES, len(header))
        fh.seek(at)
        tail = fh.read(end - at)
        if not tail.endswith(b"]}") or _file_key(fh) != key:
            return None
        body = tail[:-2].rstrip(b" \t\r")
        close = at + len(body)  # the offset of the "]}" line
        if not (body.endswith(b"\n") or close == len(header)):
            return None
    starts = [(offset, first) for offset, first in starts if offset < close]
    stops = [offset for offset, _ in starts[1:]] + [close]
    return head, key, [(offset, stop - offset, first, stop == close)
                       for (offset, first), stop in zip(starts, stops)]


def _decode_records(path: PathLike, outcome: Callable, args: tuple) -> tuple | None:
    """``_map_spans`` over the record lines of ``path``, or None when the
    file is not in the writer's layout, its header fails a check, or a span
    of record lines does not decode on its own."""
    scan = _scan_spans(path, _CHUNK_BYTES)
    if scan is None:
        return None
    head, key, spans = scan
    try:
        num_classes, class_names, _ = _check_header(head, path)
    except DataFormatError:
        return None  # a record line that is not JSON would come first
    values = _collect(ordered_map(_decode_span, (path, key, num_classes, outcome, args), spans))
    return None if values is None else (num_classes, class_names, values)


def _map_spans(path: PathLike, outcome: Callable, *args) -> tuple[int, list | None, list]:
    """``num_classes``, the class names as given (``_check_header``), and
    the value of ``outcome(raws, first, num_classes, path, *args)`` for each
    contiguous span of the raw image records of the native dataset file
    ``path``, in file order.

    A file in the writer's layout (``_scan_spans``) is scanned once in this
    process, which holds a block of it at a time and cuts its record lines
    into spans of about ``_CHUNK_BYTES`` bytes; each worker process
    (``ordered_map``) reads its own span from the file, decodes it line by
    line and runs ``outcome`` on its records. A file in any other layout,
    one whose header fails a check, one with a span that is not UTF-8 or a
    record line that does not decode on its own, and one replaced or
    rewritten during the read are loaded whole by ``json.load`` here
    instead; workers then run ``outcome`` on spans of about
    ``_CHUNK_CELLS`` probabilities of the loaded records.

    ``outcome`` returns ``(_VALUES, value)`` or an error outcome,
    ``_RECORD_ERROR`` or ``_WORK_ERROR`` with the exception. Either way the
    errors are raised in file order: a JSON error, a header error, the first
    bad record's ``DataFormatError``, then the first work error. ``outcome``
    must be a module-level function.
    """
    read = _decode_records(path, outcome, args)
    if read is None:
        num_classes, class_names, records = _check_header(_load_json(path), path)
        spans = _chunks([_raw_cells(rec, num_classes) for rec in records])
        values = _collect(ordered_map(_parse_span, (records, num_classes, path, outcome, args), spans))
        read = num_classes, class_names, values
    return read


def _map_image_records(path: PathLike, work: Callable, *args) -> tuple[int, list | None, list]:
    """``num_classes``, the class names as given (``_check_header``), and
    the values ``work(images, *args)`` returns, one per image, for the
    parsed image records of the native dataset file ``path``, in file order.

    The worker processes of ``_map_spans`` parse their span's records with
    ``_image`` and run ``work`` on them. The values and the errors are
    those of ``json.load``, the header checks, ``_image`` over the records
    and then ``work`` over the images, in file order, whatever the layout
    and the number of workers. ``work`` must be a module-level function.
    ``_map_tables`` reads the same spans into arrays instead.
    """
    num_classes, class_names, spans = _map_spans(path, _span_outcome, work, args)
    return num_classes, class_names, [value for values in spans for value in values]


def _map_tables(path: PathLike, prefilter_threshold: float, work: Callable,
                *args) -> tuple[int, list | None, list]:
    """``num_classes``, the class names as given (``_check_header``), and
    the value of ``work(table, *args)`` for the ``_SampleTable`` of each
    span of the native dataset file ``path``, without the detections below
    ``prefilter_threshold``, in file order.

    Each worker of ``_map_spans`` builds its span's table from the decoded
    JSON lists (``_table_outcome``) and runs ``work`` on it; no
    ``Detection`` or ``ImageSample`` is built for a span that passes the
    bulk check. The errors are those of ``load_dataset``, then the first of
    ``work``, in file order. ``work`` must be a module-level function.
    """
    return _map_spans(path, _table_outcome, prefilter_threshold, work, args)


def _load_table(path: PathLike, prefilter_threshold: float) -> _SampleTable:
    """The images of the native dataset file ``path`` as one
    ``_SampleTable``, with the errors of ``load_dataset``: the calibration
    set of ``condet calibrate`` and the test set of ``condet evaluate``,
    read as ``_map_tables`` reads it, each span's table returned whole."""
    num_classes, _, tables = _map_spans(path, _table_outcome, prefilter_threshold)
    return _SampleTable.concat(tables or [_span_table([], num_classes, prefilter_threshold)])


def _encode_records(images: tuple[ImageRecord, ...], span: tuple[int, int]) -> str:
    """The records ``images[start:stop]`` as JSON, one per line."""
    start, stop = span
    return ",\n".join(
        json.dumps({
            "image_id": rec.image_id,
            "width": rec.width,
            "height": rec.height,
            "ground_truths": [
                {"box": box.as_tuple(), "class_id": label} for box, label in rec.ground_truths
            ],
            "detections": [
                {"box": det.box.as_tuple(), "confidence": det.confidence, "probs": det.probs}
                for det in rec.detections
            ],
        })
        for rec in images[start:stop]
    )


def _write_lines(path: PathLike, head: dict, texts: Iterable[str]) -> None:
    """Write ``head`` as one JSON document whose last key, an empty array in
    ``head``, holds the JSON values ``texts`` instead.

    The first line is ``json.dumps(head)`` up to and including that array's
    ``[``. Each text follows on its own line, with a comma after every text
    but the last, and ``]}`` closes the document on a line of its own. The
    first line is flushed before ``texts`` is iterated: a worker map forks at
    its first item, and a forked worker must inherit no buffered bytes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-2])  # up to and including the array's "["
        fh.flush()
        sep = "\n"
        for text in texts:
            fh.write(sep)
            fh.write(text)
            sep = ",\n"
        fh.write("\n]}\n")


def write_dataset_file(dataset: DatasetFile, path: PathLike) -> None:
    """Write ``dataset`` as one JSON document, one image record per line.

    The first line holds the schema version and the class inventory and
    opens the ``images`` array. Each record is encoded on its own by
    ``json.dumps`` without indentation, which runs the C encoder. Floats
    keep their ``repr``, so they read back bit-identical. ``condet infer``'s
    predictions file has the same layout, written by the same function.

    The records are encoded in worker processes, one per CPU this process
    may run on (so ``taskset`` limits them), in contiguous chunks of about
    ``_CHUNK_CELLS`` probabilities. The chunks are written in file order as
    they arrive, so the bytes do not depend on the worker count and the
    document never exists as one string. A record that cannot be encoded
    raises ``json``'s own error, from the first such chunk in file order.
    """
    head = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "num_classes": dataset.num_classes,
        "class_names": dataset.class_names,
        "images": [],
    }
    cells = [len(rec.detections) * dataset.num_classes for rec in dataset.images]
    texts = ordered_map(_encode_records, (dataset.images,), _chunks(cells))
    with closing(texts):
        _write_lines(path, head, texts)


def _samples(images: Sequence[ImageRecord], prefilter_threshold: float) -> list[ImageSample]:
    """The records ``images`` as samples, without the detections below the floor."""
    return [ImageSample(rec.image_id, rec.ground_truths,
                        tuple(d for d in rec.detections if d.confidence >= prefilter_threshold))
            for rec in images]


def load_dataset(path: PathLike, prefilter_threshold: float = 1e-3) -> list[ImageSample]:
    """Read a native dataset file and return prefiltered, sorted samples.

    The samples are built in the worker processes that decode and check the
    records (``_map_image_records``), with the results and errors of
    ``read_dataset_file`` followed by dropping the detections below the
    floor, and every one is a validated ``ImageSample``. ``condet
    calibrate``, ``condet evaluate`` and ``condet infer`` read their files
    with the same errors into arrays instead (``_map_tables``), building no
    samples.
    """
    return _map_image_records(path, _samples, prefilter_threshold)[2]


# --------------------------------------------------------------------------
# COCO import
# --------------------------------------------------------------------------


def import_coco(gt_path: PathLike, det_path: PathLike) -> DatasetFile:
    """Convert COCO annotations plus detection results to the native schema.

    Boxes are converted from ``[x, y, width, height]`` to corner form and
    category ids are remapped to dense indices (sorted by original id).
    Detections may carry a per-class ``scores`` array of length K, which
    must be finite and meet the native ``probs`` rule; when it is absent, a
    near-one-hot probability vector is synthesized from the single ``score``
    and a warning is emitted, because LAC/APS label sets are degenerate on
    synthesized vectors. Image ids and the ``width`` and ``height`` of
    ``images`` entries are checked like the native reader's; a violation,
    or an image id that appears twice in ``images``, raises
    ``DataFormatError``.
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


def _coco_bbox(raw, where: str) -> BoundingBox:
    """The COCO ``[x, y, w, h]`` array ``raw`` as a box that obeys the box
    rule; ``where`` names the record in the error."""
    message = f"{where}: bbox must be an array of 4 numbers"
    _require(isinstance(raw, list) and len(raw) == 4, message)
    x, y, w, h = _as_floats(raw, message)
    _require(
        all(math.isfinite(v) for v in (x, y, w, h)), f"{where}: bbox values must be finite"
    )
    _require(w >= 0.0 and h >= 0.0, f"{where}: bbox width and height must be >= 0")
    box = BoundingBox.from_xywh(x, y, w, h)
    try:
        _check_box(box)  # x + w or y + h may overflow
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from None
    return box


def _import_coco_parsed(gt, det, gt_path, det_path, categories) -> DatasetFile:
    names_by_id = {}
    for c in categories:
        _require(
            c["id"] not in names_by_id, f"{gt_path}: category id {c['id']!r} appears twice in 'categories'"
        )
        names_by_id[c["id"]] = str(c.get("name", c["id"]))
    cat_ids = sorted(names_by_id)
    cat_index = {cid: k for k, cid in enumerate(cat_ids)}
    num_classes = len(cat_ids)
    class_names = tuple(names_by_id[cid] for cid in cat_ids)

    # Image id -> (width, height, ground truths, detections), in the order
    # the ids are first seen: the images list, then annotations, then
    # detections (an image known only from detections has no ground truth).
    entries: dict[str, tuple[float, float, list, list]] = {}

    def entry(image_id: str, width: float = 0.0, height: float = 0.0) -> tuple:
        return entries.setdefault(image_id, (width, height, [], []))

    def parse(raw, where: str) -> tuple[tuple, int, BoundingBox]:
        """The image entry, dense class index and box of the annotation or
        detection ``raw``; ``where`` names it in the errors."""
        image = entry(_image_id(raw["image_id"], f"{where}: image_id"))
        cat = raw.get("category_id")
        _require(cat in cat_index, f"{where} has unknown category id {cat!r}")
        return image, cat_index[cat], _coco_bbox(raw["bbox"], where)

    # Image ids and extents follow the native reader's rules.
    for n, img in enumerate(gt.get("images", ())):
        where = f"{gt_path}: images entry #{n}"
        image_id = _image_id(img["id"], f"{where}: id")
        _require(
            image_id not in entries, f"{gt_path}: image id {image_id!r} appears twice in 'images'"
        )
        entry(image_id, *(_extent(img.get(key, 0.0), key, where) for key in ("width", "height")))

    for j, ann in enumerate(gt.get("annotations", ())):
        image, label, box = parse(ann, f"{gt_path}: annotation #{j}")
        image[2].append((box, label))

    if isinstance(det, dict):
        det = det.get("annotations", det.get("detections", []))
    _require(isinstance(det, list), f"{det_path}: COCO results must be a JSON array")
    eps = 1e-6
    synthesized = 0
    for j, rec in enumerate(det):
        where = f"{det_path}: detection #{j}"
        image, label, box = parse(rec, where)
        score = rec.get("score", 0.0)
        (score,) = _as_floats([score], f"{where}: score must be a number, got {score!r}")
        _require(math.isfinite(score), f"{where}: score must be finite")
        scores = rec.get("scores")
        if scores is not None:
            _require(
                isinstance(scores, list) and len(scores) == num_classes,
                f"{where} scores must have length {num_classes}",
            )
            probs = _as_floats(scores, f"{where}: scores must be numbers")
            _require(all(math.isfinite(p) for p in probs), f"{where}: scores must be finite")
            try:
                _check_probs(probs, "scores")
            except ValueError as exc:
                raise DataFormatError(f"{where}: {exc}") from None
        else:
            synthesized += 1
            if num_classes == 1:
                probs = (1.0,)
            else:
                off = eps / (num_classes - 1)
                probs = tuple(
                    1.0 - eps if k == label else off for k in range(num_classes)
                )
        image[3].append(Detection(box, probs, min(max(score, 0.0), 1.0)))

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
    for image_id, (width, height, gts, dets) in entries.items():
        # An extent not given (absent or 0) is estimated from the detections'
        # far edges, each on its own, at least 0, which is what an absent
        # extent reads as.
        if width <= 0.0 and dets:
            width = max(0.0, *(d.box.right for d in dets))
        if height <= 0.0 and dets:
            height = max(0.0, *(d.box.bottom for d in dets))
        images.append(ImageRecord(image_id, width, height, tuple(gts), tuple(dets)))
    return DatasetFile(num_classes=num_classes, class_names=class_names, images=tuple(images))


# --------------------------------------------------------------------------
# Calibration result persistence
# --------------------------------------------------------------------------


def config_to_dict(config: CalibrationConfig) -> dict:
    """The configuration as JSON-ready data: one key per dataclass field."""
    return asdict(config)


def config_from_dict(raw: dict) -> CalibrationConfig:
    """Inverse of ``config_to_dict``, checked field by field.

    A missing key takes the dataclass default (inside a nested spec, the
    default spec's value). Unknown keys, missing ``alpha_*`` values, JSON
    booleans in numeric fields, a non-boolean ``finite_sample_correction``
    and every other type mismatch raise ``DataFormatError``; integers are
    valid in float fields and are kept as given.
    """
    try:
        return _from_json(CalibrationConfig, raw, "")
    except DataFormatError as exc:
        raise DataFormatError(f"invalid calibration config: {exc}") from None


#: What a scalar field of each type must hold, in the error message.
_JSON_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _from_json(tp, value, where: str, base=None):
    """``value`` checked against the type annotation ``tp``; ``where`` is its
    dotted key path. A dataclass is built from its own fields; a key missing
    from ``value`` takes its value from ``base`` if given, else the field's
    default."""
    if is_dataclass(tp):
        label = where or "config"
        _require(isinstance(value, dict), f"{label} must be an object")
        known = {f.name: f for f in fields(tp)}
        unknown = sorted(set(value) - set(known))
        _require(not unknown, f"unknown keys {unknown} in {label}")
        if base is None:
            missing = [
                name for name, f in known.items()
                if name not in value and f.default is MISSING and f.default_factory is MISSING
            ]
            _require(not missing, f"missing keys {missing} in {label}")
        hints = get_type_hints(tp)
        kwargs = {
            name: _from_json(
                hints[name], v, f"{where}.{name}".lstrip("."), _default_instance(known[name])
            )
            for name, v in value.items()
        }
        return replace(base, **kwargs) if base is not None else tp(**kwargs)
    if get_origin(tp) is Union:  # Optional[...]
        if value is None:
            return None
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
        return _from_json(tp, value, where)
    if get_origin(tp) is dict:
        _require(isinstance(value, dict), f"{where} must be an object, got {value!r}")
        _, value_tp = get_args(tp)
        return {key: _from_json(value_tp, v, f"{where}.{key}") for key, v in value.items()}
    if get_origin(tp) is tuple:
        args = get_args(tp)
        _require(
            isinstance(value, (list, tuple)) and len(value) == len(args),
            f"{where} must be an array of {len(args)} values, got {value!r}",
        )
        return tuple(_from_json(arg, v, where) for arg, v in zip(args, value))
    message = f"{where} must be {_JSON_SCALARS[tp]}, got {value!r}"
    if tp in (int, float):
        return _number(value, tp, message)
    _require(isinstance(value, tp), message)
    return value


def _default_instance(f):
    """A nested spec's default, which a partial object in a file starts from."""
    return f.default_factory() if f.default_factory is not MISSING else None


def config_digest(config: CalibrationConfig) -> str:
    """Stable content digest of a configuration, for mismatch detection."""
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_result(result: CalibrationResult, path: PathLike) -> None:
    """Write a calibration result with its config echo and digest."""
    payload = {
        "schema_version": RESULT_SCHEMA_VERSION,
        **asdict(result),
        "config_digest": config_digest(result.config),
    }
    _write_json(path, payload, sort_keys=True)


def load_result(path: PathLike) -> CalibrationResult:
    """Read a calibration result, verifying schema version and digest.

    ``schema_version`` must be the integer 2 (``SchemaVersionError``
    otherwise, also for ``2.0``), by the rule that dataset files follow. The
    result is checked field by field like a config file: the λ's and the
    diagnostics must be JSON numbers and ``n_calibration`` an integer; every
    field is required, and any mismatch or inconsistency (such as
    ``lambda_cnf_minus > lambda_cnf_plus``) raises ``DataFormatError``.
    """
    raw = _load_json(path)
    _require(isinstance(raw, dict), f"{path}: result file must be an object")
    _check_version(raw, "result", RESULT_SCHEMA_VERSION, path)
    body = {k: v for k, v in raw.items() if k not in ("schema_version", "config_digest")}
    try:
        result = _from_json(CalibrationResult, body, "result")
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    stored = raw.get("config_digest")
    actual = config_digest(result.config)
    if stored != actual:
        raise DigestMismatchError(
            f"{path}: stored config digest {stored!r} does not match the echoed "
            f"configuration (digest {actual!r}); the file was modified"
        )
    return result
