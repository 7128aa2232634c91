"""Property tests of the calibration kernel against the set-based functions.

Boxes lie on a small pixel lattice and confidences and probabilities take a
few values, so equal distances, duplicate confidences, images without
detections or without ground truths and single-image sets are all common.
One test uses off-lattice float boxes, where ``margin_to_cover`` rounds.
"""

import math
from dataclasses import replace

import numpy as np
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
from condet.calibration import _monotonized, _PrefixKernel, _SampleTable, _sweep_confidence
from condet.matching import MATCH_KINDS
from condet.losses import CONF_LOSS_KINDS, loc_loss
from condet.predsets import apply_margin, class_miss_cutoff, margin_to_cover, select_confident
from helpers import tied_probs
from oracles import pure_image_losses

K = 3


def examples(n: int) -> settings:
    """Settings that run ``n`` examples, or the loaded profile's count when
    it is larger (the ``ci`` profile's 1000), with no deadline."""
    return settings(max_examples=max(n, settings().max_examples), deadline=None)


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


@examples(150)
@given(datasets(), st.sampled_from(MATCH_KINDS))
def test_prefix_assignment_equals_match(samples, kind):
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for(kind))
    spec = MatchDistanceSpec(kind, tau=0.25)
    for i, sample in enumerate(samples):
        preds = [(d.box, d.probs) for d in sample.detections]
        for k in range(len(preds) + 1):
            assert kernel.assignment(i, k) == match(sample.ground_truths, preds[:k], spec)


def sweep_points(kernel):
    """``(visit, point)`` of the sweep: ``(-1, 1.0)``, then each breakpoint."""
    return list(enumerate([1.0, *kernel.visit_lams], start=-1))


@examples(100)
@given(datasets(), st.sampled_from(MATCH_KINDS))
def test_states_list_each_images_runs_in_visit_order(samples, kind):
    # Walking the sweep's points with the set-based functions, the runs of
    # one matching of each image, in order, are its states: image by image,
    # each with the prefix length at its run's first point (the longest)
    # and that point's visit.
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for(kind))
    spec = MatchDistanceSpec(kind, tau=0.25)
    want = []
    for i, sample in enumerate(samples):
        last = None
        for v, p in sweep_points(kernel):
            k = len(select_confident(sample, p))
            matching = match(sample.ground_truths, [(d.box, d.probs) for d in sample.detections[:k]], spec)
            if v < 0 or matching != last:
                want.append((i, k, v))
            last = matching
    assert list(zip(kernel._img.tolist(), kernel._k.tolist(), kernel._visit.tolist())) == want


@examples(150)
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
def test_state_losses_equal_set_based_losses(samples, kind, loc_loss, loc_set, cls_set, agg, lam_loc, lam_cls):
    # Each state's losses, and each image's confidence loss at every visit,
    # are the set-based losses at its prefix.
    config = config_for(kind, loc_loss, loc_set, cls_set, agg)
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    every = kernel.reach(len(kernel.visit_lams))
    loc = every.loc_losses(lam_loc)
    cls = every.cls_losses(lam_cls)
    for s, (i, k) in enumerate(zip(kernel._img.tolist(), kernel._k.tolist())):
        # the largest confidence parameter that selects exactly k detections
        reqs = [1.0 - d.confidence for d in samples[i].detections]
        lam_cnf = reqs[k - 1] if k else 0.0
        assert len(select_confident(samples[i], lam_cnf)) == k
        assert (loc[s], cls[s]) == pure_image_losses(samples[i], lam_cnf, lam_loc, lam_cls, config)[1:]
    for v, p in sweep_points(kernel):
        conf = kernel.conf_losses(v).tolist()
        assert conf == [pure_image_losses(sample, p, lam_loc, lam_cls, config)[0] for sample in samples]


@examples(150)
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
    for i, k in zip(kernel._img.tolist(), kernel._k.tolist()):
        preds = [d.box for d in samples[i].detections[:k]]
        states.append((samples[i], kernel.assignment(i, k), preds))
    every = kernel.reach(len(kernel.visit_lams))
    spec = config.loss_spec
    for lam in sorted(lams):
        got = every.loc_losses(lam).tolist()
        want = [
            loc_loss(sample, assignment, [apply_margin(b, lam, loc_set) for b in preds],
                     spec.localization_kind, spec.localization_tau)
            for sample, assignment, preds in states
        ]
        assert got == want, lam


@examples(150)
@given(datasets(vector=tied_probs(K)), st.sampled_from(MATCH_KINDS), st.sampled_from(["lac", "aps"]))
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
    # Every state with a detection and a ground truth has, in its entries,
    # the cutoff of each ground truth's label in the probabilities of the
    # detection it matches at the state's prefix, bit for bit. Every prefix
    # of the sweep reads a state with its own matching
    # (test_each_prefix_reads_the_state_of_its_matching).
    config = config_for(kind, cls_set=cls_set)
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    every = kernel.reach(len(kernel.visit_lams))
    cutoffs = every.cutoff[every.pair].tolist()
    scored = every.scored.tolist()
    for s, (i, k) in enumerate(zip(kernel._img.tolist(), kernel._k.tolist())):
        sample = samples[i]
        if k == 0 or not sample.ground_truths:
            assert s not in scored
            continue
        j = scored.index(s)
        start = every.entry_start[j]
        want = [class_miss_cutoff(sample.detections[d].probs, label, cls_set)
                for d, (_, label) in zip(kernel.assignment(i, k), sample.ground_truths)]
        assert cutoffs[start : start + every.n_gt[j]] == want


@settings(deadline=None)
@given(datasets(), st.sampled_from(MATCH_KINDS))
def test_each_prefix_reads_the_state_of_its_matching(samples, kind):
    # At every point of the sweep each image's prefix (the set-based
    # selection) reads a state of its own image, entered no later, with the
    # prefix's matching, and never a longer prefix than that state's. The
    # states with entries are exactly one per distinct (image, matching)
    # among the prefixes with a detection and a ground truth, every such
    # prefix reads that one, and it has one entry per ground truth.
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for(kind))
    firsts = {}
    for v, p in sweep_points(kernel):
        states, lengths = kernel.states_at(v).tolist(), kernel.prefix_lengths(v).tolist()
        for i, sample in enumerate(samples):
            s, k = states[i], lengths[i]
            assert k == len(select_confident(sample, p))
            assert kernel._img[s] == i and kernel._visit[s] <= v and kernel._k[s] >= k
            assert kernel.assignment(i, kernel._k[s]) == kernel.assignment(i, k)
            if k > 0 and sample.ground_truths:
                assert s == firsts.setdefault((i, kernel.assignment(i, k)), s)
    scored = sorted(firsts.values())
    assert np.flatnonzero(kernel._count).tolist() == scored
    assert kernel._count[scored].tolist() == [len(samples[kernel._img[s]].ground_truths) for s in scored]


@examples(150)
@given(
    datasets(),
    st.sampled_from(MATCH_KINDS),
    st.sampled_from(["boxwise", "pixelwise", "thresholded"]),
    st.sampled_from(["lac", "aps"]),
    st.sampled_from(["average", "max", "thresholded"]),
    st.sampled_from([0.0, 0.5, 1.5, 3.0]),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_losses_of_a_reach_are_the_full_losses_of_its_states(samples, kind, loc_loss, cls_set, agg,
                                                             lam_loc, lam_cls):
    # Step 2 scores the states lambda_cnf_minus reaches, those entered at or
    # before its visit (the n full prefixes at visit -1). At every visit the
    # compacted reach scores exactly those states as the whole sweep's
    # reach does, each image's from its full prefix on, and its maxima are
    # each image's largest over them.
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config_for(kind, loc_loss, "additive", cls_set, agg))
    every = kernel.reach(len(kernel.visit_lams))
    assert len(every.base) == len(kernel._k)
    losses = (every.loc_losses(lam_loc), every.cls_losses(lam_cls))
    for v in range(-1, len(kernel.visit_lams) + 1):
        reached = kernel._visit <= v
        reach = kernel.reach(v)
        assert kernel._img[reached][reach.starts].tolist() == list(range(kernel.n))
        assert kernel._visit[reached][reach.starts].tolist() == [-1] * kernel.n
        for got, full in zip((reach.loc_losses(lam_loc), reach.cls_losses(lam_cls)), losses):
            assert got.tolist() == full[reached].tolist()
            assert reach.maxima(got).tolist() == [
                max(full[reached & (kernel._img == i)]) for i in range(kernel.n)
            ]


@examples(150)
@given(
    datasets(),
    st.sampled_from(MATCH_KINDS),
    st.sampled_from(CONF_LOSS_KINDS),
    st.sampled_from(["boxwise", "pixelwise", "thresholded"]),
    st.sampled_from(["additive", "multiplicative"]),
    st.sampled_from(["lac", "aps"]),
    st.sampled_from(["average", "max", "thresholded"]),
)
def test_monotonized_losses_are_the_largest_over_the_prefixes_reached(samples, kind, conf, loc_loss,
                                                                      loc_set, cls_set, agg):
    # Step 1's losses at each visit and at 1.0: per image and task, the
    # largest set-based loss, at the loosest second-step parameters, over
    # the prefixes of every point from 1.0 down to that point.
    config = config_for(kind, loc_loss, loc_set, cls_set, agg)
    config = replace(config, loss_spec=replace(config.loss_spec, confidence_kind=conf))
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    tasks = _monotonized(kernel)
    loosest = (config.lambda_loc_bounds[1], config.lambda_cls_bounds[1])
    worst = [[0.0] * len(samples) for _ in tasks]
    for v, p in sweep_points(kernel):
        for i, sample in enumerate(samples):
            for task, loss in enumerate(pure_image_losses(sample, p, *loosest, config)):
                worst[task][i] = max(worst[task][i], loss)
        assert [losses(v).tolist() for losses in tasks] == worst


def _match_raises(samples):
    spec = MatchDistanceSpec("giou")
    for sample in samples:
        if sample.ground_truths and sample.detections:
            try:
                match(sample.ground_truths, [(d.box, d.probs) for d in sample.detections], spec)
            except ValueError:
                return True
    return False


@examples(200)
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
    # A 500-image set at COCO-val-like density: the sweep moves its images
    # through about one prefix per detection, but these hold only 3,065
    # distinct (image, matching) states, 835 of them reached at
    # lambda_cnf_minus. 2,565 states carry entries, 14,484 of them, which
    # point at 5,651 distinct (ground truth, matched detection) pairs.
    samples = generate(SynthSpec(
        seed=1, n_images=500, num_classes=80, image_width=640.0, image_height=480.0,
        objects_min=1, objects_max=8, box_noise_std=8.0, false_positive_rate=30.0,
    ))
    config = CalibrationConfig(0.02, 0.1, 0.1, lambda_loc_bounds=(0.0, 2000.0))
    kernel = _PrefixKernel(_SampleTable.from_samples(samples), config)
    _, minus, _ = _sweep_confidence(kernel)
    assert (len(kernel._k), int((kernel._visit <= kernel.visit_at(minus)).sum())) == (3_065, 835)
    assert (int((kernel._count > 0).sum()), int(kernel._count.sum())) == (2_565, 14_484)
    assert len(kernel._cutoff) == 5_651


@pytest.mark.parametrize("kind", ["mix", "giou"])
def test_nan_distances_never_take_a_column(kind):
    # An overflowing Hausdorff distance times mix's 0 weight, and GIoU's
    # inf / inf, are NaN: match() never takes such a column, nor loses a
    # NaN first column to a later one.
    if kind == "mix":
        gt = BoundingBox(-1e308, 0.0, 10.0, 10.0)
        boxes = [BoundingBox(0, 0, 10, 10), BoundingBox(1e308, 0, 1e308, 10), BoundingBox(0, 0, 10, 10)]
    else:
        gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
        boxes = [BoundingBox(20, 20, 30, 30), BoundingBox(-1e308, -1e308, 1e308, 1e308),
                 BoundingBox(0, 0, 10, 10)]
    probs = [(0.6, 0.4, 0.0), (0.5, 0.5, 0.0), (0.1, 0.9, 0.0)]
    for order in ([0, 1, 2], [1, 0, 2], [1, 2, 0]):
        dets = tuple(Detection(boxes[j], probs[j], 0.9 - 0.1 * n) for n, j in enumerate(order))
        sample = ImageSample("a", ((gt, 1),), dets)
        config = replace(config_for(kind), match_spec=MatchDistanceSpec(kind, tau=1.0))
        with np.errstate(over="ignore", invalid="ignore"):  # as the entry points run it
            kernel = _PrefixKernel(_SampleTable.from_samples([sample]), config)
        preds = [(d.box, d.probs) for d in sample.detections]
        for k in range(1, 4):
            assert kernel.assignment(0, k) == match(sample.ground_truths, preds[:k], config.match_spec), (order, k)


def test_single_image_without_detections():
    sample = ImageSample("only", ((BoundingBox(0, 0, 2, 2), 1),), ())
    kernel = _PrefixKernel(_SampleTable.from_samples([sample]), config_for("hausdorff"))
    assert kernel.visit_lams == []
    assert kernel.assignment(0, 0) == (None,)
    assert kernel.reach(0).loc_losses(math.inf).tolist() == [1.0]


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
    assert kernel.reach(-1).cls_losses(1.0)[0] == 0.0


@pytest.mark.parametrize("kind", MATCH_KINDS)
def test_duplicate_confidences_share_one_visit(kind):
    gt = (BoundingBox(0, 0, 4, 4), 0)
    dets = tuple(
        Detection(BoundingBox(float(j), 0, float(j) + 4, 4), (1.0, 0.0, 0.0), c)
        for j, c in enumerate((0.9, 0.5, 0.5, 0.2))
    )
    kernel = _PrefixKernel(_SampleTable.from_samples([ImageSample("a", (gt,), dets)]), config_for(kind))
    assert kernel.visit_lams == pytest.approx([0.8, 0.5, 0.1, 0.0])
    assert [int(kernel.prefix_lengths(v)[0]) for v in range(-1, 4)] == [4, 4, 3, 1, 0]
