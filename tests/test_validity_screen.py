"""The bulk form of the validity rule, ``losses._block_holds``, and the
private constructors it admits.

``generate`` and the dataset reader screen a whole block of values with
``_block_holds`` and, when it passes, build ``Detection._trusted`` and
``ImageSample._trusted`` objects without checking each value again. That is
sound only if the screen accepts nothing the checked constructors refuse and
the private constructors store what the checked ones store. The blocks drawn
here are valid blocks with a few faults injected: boxes with swapped
corners, infinite, NaN or negative-zero coordinates, confidences outside
[0, 1], labels out of range or not ``int``, probability rows with a negative
or NaN entry, and rows summing to either side of the 1e-4 band.
"""

import math

import numpy as np
from hypothesis import event, example, given
from hypothesis import strategies as st

from condet import BoundingBox, Detection, ImageSample
from condet.losses import _block_holds

COORDS = st.floats(-1e6, 1e6)

#: Replacement values per kind of fault. Some are valid (negative zero, the
#: integers 0 and 1 as confidences, 2.0 as a label), which the screen may
#: refuse but the constructors accept.
BAD_COORDS = (math.inf, -math.inf, math.nan, -0.0)
BAD_CONFIDENCES = (-0.1, -5e-324, 1.0000000000000002, 1.5, math.nan, math.inf, -math.inf,
                   -0.0, 0, 1)
BAD_PROBS = (-0.25, -5e-324, -0.0, math.nan, math.inf)
FAULTS = ("swap-x", "swap-y", "coord", "confidence", "label", "prob", "sum")


def bad_labels(k):
    return (-1, k, k + 5, 2**70, 1.5, 2.0, True, np.int64(0), None, math.nan)


@st.composite
def boxes(draw):
    left, right = sorted(draw(st.lists(COORDS, min_size=2, max_size=2)))
    top, bottom = sorted(draw(st.lists(COORDS, min_size=2, max_size=2)))
    return [left, top, right, bottom]


@st.composite
def prob_rows(draw, k, target=None):
    """``k`` non-negative entries summing to about ``target`` (1 when None)."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    target = 1.0 if target is None else target
    scale = math.fsum(weights)
    row = [w / scale * target for w in weights] if scale > 0.0 else [0.0] * (k - 1) + [target]
    row[-1] = max(0.0, target - math.fsum(row[:-1]))
    return row


@st.composite
def near_band(draw, k):
    """A row sum a few ulps either side of 1 +- 1e-4 or of the screen's
    tighter bound 1 +- (1e-4 - k * 1e-15)."""
    side = draw(st.sampled_from([-1.0, 1.0]))
    at_tolerance = draw(st.booleans())
    target = 1.0 + side * (1e-4 if at_tolerance else 1e-4 - k * 1e-15)
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    return target


@st.composite
def blocks(draw, faults=True):
    """``(k, images)``: each image ``(image_id, [[box, label], ...],
    [[box, probs, confidence], ...])`` with boxes as coordinate lists, and
    up to three faults injected when ``faults``."""
    k = draw(st.integers(1, 4))
    images = []
    for n in range(draw(st.integers(1, 3))):
        gts = [[draw(boxes()), draw(st.integers(0, k - 1))] for _ in range(draw(st.integers(0, 3)))]
        dets = [[draw(boxes()), draw(prob_rows(k)), draw(st.floats(0.0, 1.0))]
                for _ in range(draw(st.integers(0, 3)))]
        images.append((f"img-{n}", gts, dets))
    gts = [gt for _, image_gts, _ in images for gt in image_gts]
    dets = [det for _, _, image_dets in images for det in image_dets]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3 if faults else 0)):
        if fault in ("swap-x", "swap-y", "coord"):
            box = draw(st.sampled_from([box for box, *_ in gts + dets] or [None]))
            if box is None:
                continue
            if fault == "coord":
                box[draw(st.integers(0, 3))] = draw(st.sampled_from(BAD_COORDS))
            else:
                lo = 0 if fault == "swap-x" else 1
                box[lo], box[lo + 2] = box[lo + 2], box[lo]
        elif fault == "label" and gts:
            draw(st.sampled_from(gts))[1] = draw(st.sampled_from(bad_labels(k)))
        elif fault in ("confidence", "prob", "sum") and dets:
            det = draw(st.sampled_from(dets))
            if fault == "confidence":
                det[2] = draw(st.sampled_from(BAD_CONFIDENCES))
            elif fault == "prob":
                det[1][draw(st.integers(0, k - 1))] = draw(st.sampled_from(BAD_PROBS))
            else:
                det[1] = draw(prob_rows(k, draw(near_band(k))))
    return k, images


def screen(k, images):
    """``_block_holds`` on the values of ``images``, laid out as ``generate``
    lays out a block."""
    gts = [gt for _, image_gts, _ in images for gt in image_gts]
    dets = [det for _, _, image_dets in images for det in image_dets]
    return _block_holds(
        np.array([box for box, *_ in gts + dets], dtype=float).reshape(-1, 4),
        [label for _, label in gts],
        np.array([conf for *_, conf in dets], dtype=float),
        np.array([probs for _, probs, _ in dets], dtype=float).reshape(-1, k),
    )


def build(images, detection, sample):
    return [
        sample(
            image_id,
            # Pairs as lists: both constructors must store them as tuples.
            [[BoundingBox(*box), label] for box, label in gts],
            [detection(BoundingBox(*box), probs, conf) for box, probs, conf in dets],
        )
        for image_id, gts, dets in images
    ]


@given(blocks())
# Valid values that the constructors convert or keep as they are: the
# integer confidence 1 is stored as 1.0, and -0.0 stays -0.0.
@example((2, [("img-0", [[[-0.0, 0.0, 1.0, 1.0], 1]], [[[0.0, -0.0, 0.0, 2.0], [0.5, 0.5], 1]])]))
def test_screen_accepts_only_what_the_constructors_build(block):
    k, images = block
    accepted = screen(k, images)
    event(f"accepted: {accepted}")
    if accepted:
        checked = build(images, Detection, ImageSample)
        trusted = build(images, Detection._trusted, ImageSample._trusted)
        # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not.
        assert checked == trusted
        assert repr(checked) == repr(trusted)


@given(blocks(faults=False))
def test_screen_accepts_valid_blocks(block):
    assert screen(*block)


def test_screen_reads_every_value():
    valid = (np.array([[0.0, 0.0, 1.0, 1.0]] * 2), [1], np.array([0.5]), np.array([[0.25, 0.75]]))
    assert _block_holds(*valid)
    box_rows, labels, confidences, probs = valid
    for bad_box in ([2.0, 0.0, 1.0, 1.0], [0.0, 2.0, 1.0, 1.0], [-math.inf, 0.0, 1.0, 1.0],
                    [0.0, 0.0, 1.0, math.inf], [math.nan, 0.0, 1.0, 1.0]):
        assert not _block_holds(np.array([[0.0, 0.0, 1.0, 1.0], bad_box]), *valid[1:])
    for bad_labels in ([2], [-1], [1.0], [True], [np.int64(1)]):
        assert not _block_holds(box_rows, bad_labels, confidences, probs)
    for bad_confidence in (-0.1, 1.5, math.nan):
        assert not _block_holds(box_rows, labels, np.array([bad_confidence]), probs)
    for bad_row in ([-0.25, 1.25], [0.25, 0.7], [math.nan, 1.0], [math.inf, 0.0]):
        assert not _block_holds(box_rows, labels, confidences, np.array([bad_row]))
