"""Property tests of the calibration kernel against the set-based functions.

Boxes lie on a small pixel lattice and confidences and probabilities take a
few values, so equal distances, duplicate confidences, images without
detections or without ground truths and single-image sets are all common.
One test uses off-lattice float boxes, where ``margin_to_cover`` rounds.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condet import (
    BoundingBox,
    CalibrationConfig,
    CalibrationPreconditionError,
    Detection,
    ImageSample,
    InfeasibleRiskError,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    calibrate,
    generate,
    match,
)
from condet.calibration import _PrefixKernel, _SampleTable
from condet.matching import MATCH_KINDS
from condet.losses import loc_loss
from condet.predsets import apply_margin, class_miss_cutoff, margin_to_cover, select_confident
from oracles import pure_image_losses

K = 3


@st.composite
def boxes(draw, min_extent=1):
    left = draw(st.integers(0, 6))
    top = draw(st.integers(0, 6))
    width = draw(st.integers(min_extent, 4))
    height = draw(st.integers(min_extent, 4))
    return BoundingBox(float(left), float(top), float(left + width), float(top + height))


@st.composite
def float_boxes(draw):
    left = draw(st.floats(0.0, 40.0))
    top = draw(st.floats(0.0, 40.0))
    width = draw(st.floats(0.1, 20.0))
    height = draw(st.floats(0.1, 20.0))
    return BoundingBox(left, top, left + width, top + height)


@st.composite
def probs(draw):
    weights = draw(st.lists(st.integers(0, 3), min_size=K, max_size=K).filter(any))
    return tuple(w / sum(weights) for w in weights)


@st.composite
def tied_probs(draw):
    """Probability vectors heavy in ties: repeated values and zeros, some
    nudged up by an ulp, so that sums ahead of a class can round above 1."""
    weights = draw(st.lists(st.integers(0, 2), min_size=K, max_size=K).filter(any))
    vector = [w / sum(weights) for w in weights]
    for j in draw(st.lists(st.integers(0, K - 1), max_size=3)):
        vector[j] = math.nextafter(vector[j], 2.0)
    return tuple(vector)


@st.composite
def images(draw, min_extent=1, box=None, vector=None):
    box = boxes(min_extent) if box is None else box
    gts = draw(st.lists(st.tuples(box, st.integers(0, K - 1)), max_size=4))
    dets = draw(
        st.lists(
            st.builds(
                Detection,
                box,
                probs() if vector is None else vector,
                st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.9, 1.0]),
            ),
            max_size=5,
        )
    )
    return gts, dets


def datasets(min_extent=1, box=None, vector=None):
    return st.lists(images(min_extent, box, vector), min_size=1, max_size=4).map(
        lambda rows: [ImageSample(f"img{i}", tuple(g), tuple(d)) for i, (g, d) in enumerate(rows)]
    )


def config_for(kind, loc_loss="boxwise", loc_set="additive", cls_set="lac", agg="average"):
    return CalibrationConfig(
        alpha_cnf=0.1,
        alpha_loc=0.9,
        alpha_cls=0.9,
        loss_spec=LossSpec(localization_kind=loc_loss, classification_aggregation=agg),
        predset_spec=PredSetSpec(localization_kind=loc_set, classification_kind=cls_set),
        match_spec=MatchDistanceSpec(kind, tau=0.25),
        lambda_loc_bounds=(0.0, 16.0),
    )


@settings(max_examples=150, deadline=None)
@given(datasets(), st.sampled_from(MATCH_KINDS))
def test_prefix_assignment_equals_match(samples, kind):
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for(kind))
    spec = MatchDistanceSpec(kind, tau=0.25)
    for i, sample in enumerate(samples):
        preds = [(d.box, d.probs) for d in sample.detections]
        for k in range(len(preds) + 1):
            assert kernel.assignment(i, k) == match(sample.ground_truths, preds[:k], spec)


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_by_image_lays_out_each_images_rows_in_visit_order(samples):
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for("hausdorff"))
    table = kernel.by_image([float(r + 1) for r in range(kernel.n_rows)]).T.tolist()
    rows = [[] for _ in samples]
    for r, i in enumerate(kernel.row_img.tolist()):
        rows[i].append(float(r + 1))
    assert kernel.depth == max(map(len, rows))
    assert table == [own + [0.0] * (kernel.depth - len(own)) for own in rows]


@settings(max_examples=150, deadline=None)
@given(
    datasets(),
    st.sampled_from(MATCH_KINDS),
    st.sampled_from(["boxwise", "pixelwise", "thresholded"]),
    st.sampled_from(["additive", "multiplicative"]),
    st.sampled_from(["lac", "aps"]),
    st.sampled_from(["average", "max", "thresholded"]),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)
# Zero-area ground truths under the pixelwise loss count as covered only
# when contained: one inside its detection's box, one outside it.
@example(
    [ImageSample(f"img{i}", ((gt, 0),), (Detection(BoundingBox(0, 0, 4, 4), (1.0, 0.0, 0.0), 0.9),))
     for i, gt in enumerate((BoundingBox(1, 1, 1, 3), BoundingBox(6, 2, 6, 2)))],
    "hausdorff", "pixelwise", "additive", "lac", "average", 0.5, 0.5,
)
def test_row_losses_equal_set_based_losses(samples, kind, loc_loss, loc_set, cls_set, agg, lam_loc, lam_cls):
    config = config_for(kind, loc_loss, loc_set, cls_set, agg)
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    conf = kernel.conf_losses()
    loc = kernel.loc_losses(lam_loc, kernel.n_rows)
    cls = kernel.cls_losses(lam_cls, kernel.n_rows)
    for r, (i, k) in enumerate(zip(kernel.row_img.tolist(), kernel.row_k.tolist())):
        # the largest confidence parameter that selects exactly k detections
        reqs = [1.0 - d.confidence for d in samples[i].detections]
        lam_cnf = reqs[k - 1] if k else 0.0
        assert len(select_confident(samples[i], lam_cnf)) == k
        assert (conf[r], loc[r], cls[r]) == pure_image_losses(samples[i], lam_cnf, lam_loc, lam_cls, config)


@settings(max_examples=150, deadline=None)
@given(
    datasets(box=float_boxes()),
    st.sampled_from(MATCH_KINDS),
    st.sampled_from(["boxwise", "pixelwise", "thresholded"]),
    st.sampled_from(["additive", "multiplicative"]),
)
def test_loc_losses_equal_set_path_at_requirements(samples, kind, loc_loss_kind, loc_set):
    # margin_to_cover is the covering margin only in exact arithmetic; at it
    # and one float below it the containment test can go either way, and
    # the kernel must follow apply_margin/contains there too.
    config = config_for(kind, loc_loss_kind, loc_set)
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    lams = set()
    for sample in samples:
        for gt_box, _ in sample.ground_truths:
            for det in sample.detections:
                need = margin_to_cover(gt_box, det.box, loc_set)
                if 0.0 <= need < math.inf:
                    lams.add(need)
                    lams.add(max(0.0, math.nextafter(need, -math.inf)))
    states = []
    for i, k in zip(kernel.row_img.tolist(), kernel.row_k.tolist()):
        preds = [d.box for d in samples[i].detections[:k]]
        states.append((samples[i], kernel.assignment(i, k), preds))
    spec = config.loss_spec
    for lam in sorted(lams):
        got = kernel.loc_losses(lam, kernel.n_rows).tolist()
        want = [
            loc_loss(sample, assignment, [apply_margin(b, lam, loc_set) for b in preds],
                     spec.localization_kind, spec.localization_tau)
            for sample, assignment, preds in states
        ]
        assert got == want, lam


@settings(max_examples=150, deadline=None)
@given(datasets(vector=tied_probs()), st.sampled_from(MATCH_KINDS), st.sampled_from(["lac", "aps"]))
# Two classes at 0.5 + 1 ulp sum to just above 1 ahead of the zero-probability
# label, so the APS cutoff is capped; the second detection ties the label
# with a lower-index class.
@example(
    [ImageSample("a", ((BoundingBox(0, 0, 4, 4), 2), (BoundingBox(1, 0, 5, 4), 1)), (
        Detection(BoundingBox(0, 0, 4, 4), (math.nextafter(0.5, 1.0), math.nextafter(0.5, 1.0), 0.0), 0.9),
        Detection(BoundingBox(1, 0, 5, 4), (0.25, 0.25, 0.5), 0.5),
    ))],
    "hausdorff", "aps",
)
def test_every_entrys_class_cutoff_is_class_miss_cutoff(samples, kind, cls_set):
    # Every row with a detection and a ground truth reads, through its
    # representative's entries, the cutoff of each ground truth's label in
    # the probabilities of the detection it matches at the row's own
    # prefix, bit for bit.
    config = config_for(kind, cls_set=cls_set)
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    cutoffs = kernel._cutoff[kernel._pair].tolist()
    entries = {r: v for v, r in enumerate(kernel._vrows.tolist())}
    for r, (i, k) in enumerate(zip(kernel.row_img.tolist(), kernel.row_k.tolist())):
        sample = samples[i]
        if k == 0 or not sample.ground_truths:
            continue
        v = entries[kernel._rep[r]]
        want = [class_miss_cutoff(sample.detections[d].probs, label, cls_set)
                for d, (_, label) in zip(kernel.assignment(i, k), sample.ground_truths)]
        assert cutoffs[kernel._vstart[v] : kernel._vstart[v + 1]] == want


@settings(deadline=None)
@given(datasets(), st.sampled_from(MATCH_KINDS))
def test_rows_of_one_matching_read_its_first_row(samples, kind):
    # Each row reads its losses from a row of its own image, no deeper, with
    # the same matching; the rows with entries are exactly the first row of
    # each distinct (image, matching) among the rows with a detection and a
    # ground truth, and every such row reads that first row.
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for(kind))
    rows = list(zip(kernel.row_img.tolist(), kernel.row_k.tolist()))
    rep, depth = kernel._rep.tolist(), kernel.row_depth.tolist()
    firsts = {}
    for r, (i, k) in enumerate(rows):
        assert rows[rep[r]][0] == i and depth[rep[r]] <= depth[r]
        assert kernel.assignment(*rows[rep[r]]) == kernel.assignment(i, k)
        if k > 0 and samples[i].ground_truths:
            assert rep[r] == firsts.setdefault((i, kernel.assignment(i, k)), r)
    assert kernel._vrows.tolist() == sorted(firsts.values())


@settings(max_examples=150, deadline=None)
@given(
    datasets(),
    st.sampled_from(MATCH_KINDS),
    st.sampled_from(["boxwise", "pixelwise", "thresholded"]),
    st.sampled_from(["lac", "aps"]),
    st.sampled_from(["average", "max", "thresholded"]),
    st.sampled_from([0.0, 0.5, 1.5, 3.0]),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_losses_of_a_prefix_of_rows_are_the_full_losses_first(samples, kind, loc_loss, cls_set, agg,
                                                              lam_loc, lam_cls):
    # Step 2 scores the rows lambda_cnf_minus reaches, the end of a visit or
    # the n full prefixes; every prefix of the rows is checked here.
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for(kind, loc_loss, "additive", cls_set, agg))
    loc = kernel.loc_losses(lam_loc, kernel.n_rows).tolist()
    cls = kernel.cls_losses(lam_cls, kernel.n_rows).tolist()
    assert {kernel.n, *kernel.visit_end.tolist()} <= set(range(kernel.n_rows + 1))
    for rows in range(kernel.n_rows + 1):
        assert kernel.loc_losses(lam_loc, rows).tolist() == loc[:rows]
        assert kernel.cls_losses(lam_cls, rows).tolist() == cls[:rows]


def _match_raises(samples):
    spec = MatchDistanceSpec("giou")
    for sample in samples:
        if sample.ground_truths and sample.detections:
            try:
                match(sample.ground_truths, [(d.box, d.probs) for d in sample.detections], spec)
            except ValueError:
                return True
    return False


@settings(max_examples=200, deadline=None)
@given(datasets(min_extent=0))
def test_giou_zero_area_raises_exactly_when_matching_would(samples):
    # calibrate matches every image under its full prefix first, so it fails
    # exactly when one of those matchings meets a zero-area box
    try:
        calibrate(samples, config_for("giou"))
        raised = False
    except CalibrationPreconditionError:  # pragma: no cover - alphas satisfy it
        raise
    except ValueError as exc:
        assert "positive area" in str(exc)
        raised = True
    except InfeasibleRiskError:
        raised = False
    assert raised == _match_raises(samples)


def test_rows_of_one_matching_share_their_entries():
    # A 500-image set at COCO-val-like density: 17,224 of its 17,724 rows
    # have a detection and a ground truth, 80,087 (row, ground truth) pairs,
    # but only 2,565 distinct (image, matching) states carry entries, 14,484
    # of them. The distinct (ground truth, matched detection) pairs are the
    # same 5,651.
    samples = generate(SynthSpec(
        seed=1, n_images=500, num_classes=80, image_width=640.0, image_height=480.0,
        objects_min=1, objects_max=8, box_noise_std=8.0, false_positive_rate=30.0,
    ))
    config = CalibrationConfig(0.02, 0.1, 0.1, lambda_loc_bounds=(0.0, 2000.0))
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    scored = (kernel.row_k > 0) & (kernel._row_gt > 0)
    assert (kernel.n_rows, int(scored.sum()), int(kernel._row_gt[scored].sum())) == (17_724, 17_224, 80_087)
    assert (len(kernel._vrows), int(kernel._vstart[-1])) == (2_565, 14_484)
    assert len(kernel._cutoff) == 5_651


def test_single_image_without_detections():
    sample = ImageSample("only", ((BoundingBox(0, 0, 2, 2), 1),), ())
    kernel = _PrefixKernel(_SampleTable.from_samples([sample]), config_for("hausdorff"))
    assert kernel.visit_lams == []
    assert kernel.assignment(0, 0) == (None,)
    assert kernel.loc_losses(math.inf, kernel.n_rows).tolist() == [1.0]


def test_aps_set_is_full_at_one():
    # The other classes' probabilities sum to just above 1 in floats, ahead
    # of the zero-probability true class; cls_set_aps still returns every
    # class at lambda_cls = 1, so no class is missed there.
    probs = (0.23162515822591342, 0.49813085771302895, 0.27024398406105776, 0.0)
    box = BoundingBox(0, 0, 4, 4)
    sample = ImageSample("a", ((box, 3),), (Detection(box, probs, 0.9),))
    config = config_for("hausdorff", cls_set="aps")
    kernel = _PrefixKernel(_SampleTable.from_samples([sample]), config)
    assert pure_image_losses(sample, 0.1, 0.0, 1.0, config)[2] == 0.0
    assert kernel.cls_losses(1.0, kernel.n_rows)[0] == 0.0


@pytest.mark.parametrize("kind", MATCH_KINDS)
def test_duplicate_confidences_share_one_visit(kind):
    gt = (BoundingBox(0, 0, 4, 4), 0)
    dets = tuple(
        Detection(BoundingBox(float(j), 0, float(j) + 4, 4), (1.0, 0.0, 0.0), c)
        for j, c in enumerate((0.9, 0.5, 0.5, 0.2))
    )
    kernel = _PrefixKernel(_SampleTable.from_samples([ImageSample("a", (gt,), dets)]), config_for(kind))
    assert kernel.visit_lams == pytest.approx([0.8, 0.5, 0.1, 0.0])
    assert sorted(kernel.row_k.tolist()) == [0, 1, 3, 4]
