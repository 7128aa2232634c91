"""Golden values of ``calibrate``: every λ and diagnostic, bit for bit.

The calibrated parameters are what the finite-sample guarantee is about, so a
rewrite of the calibration internals must return exactly the same floats.
These values were recorded with the per-prefix ``match()`` engine that the
array kernel replaced; ``float.hex`` pins every bit, and every key is compared
exactly.

One deliberate change since the recording: the second step used to bisect
its parameter in 32 midpoint steps and now returns the exact infimum. Every
``lambda_loc_plus`` (pixelwise loss aside) and ``lambda_cls_plus`` that moved
with it, each down by at most one final bisection interval
``(hi - lo) * 2**-32``, was recorded again from the exact search. The
pixelwise ``lambda_loc_plus``, a search over the same grid the bisection
walked, keeps its original bits.

A second change: the risk diagnostics became ``math.fsum`` of the losses
over ``n``, the same floats in every order of the images. Seven of them
moved by 1 to 4 ulps and were recorded again; no λ moved.

The small instances cycle through every confidence loss, localization loss,
margin kind, label-set kind, matching distance and aggregation. The ``tie``
instances round boxes to the pixel lattice and confidences to one decimal,
so equal distances and duplicate confidences occur. The two ``n=200`` cases
follow the benchmark's ``dense`` and ``cli-pixelwise`` specifications. The
``skewed`` case puts one image with 148 detections among 40 with 0 to 4, so
one image's sweep is far deeper than every other's; it was recorded with the
row-by-row step-1 loop that the per-image row table replaced.
"""

import numpy as np
import pytest

from condet import (
    BoundingBox,
    CalibrationConfig,
    Detection,
    ImageSample,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    calibrate,
    generate,
)

CONF_KINDS = ("box_count_threshold", "box_count_recall")
LOC_LOSS_KINDS = ("boxwise", "pixelwise", "thresholded")
AGG_KINDS = ("average", "max", "thresholded")
LOC_SET_KINDS = ("additive", "multiplicative")
CLS_SET_KINDS = ("lac", "aps")
MATCH_KINDS = ("hausdorff", "lac", "mix", "giou")

N_SMALL = 24
N_TIES = 6


def _small_config(rng, index: int, n: int) -> CalibrationConfig:
    loc_set = LOC_SET_KINDS[index % 2]
    alpha_cnf = float(rng.uniform(0.05, 0.3))
    slack = 1.0 / (n + 1)
    return CalibrationConfig(
        alpha_cnf=alpha_cnf,
        alpha_loc=min(0.95, alpha_cnf + slack + float(rng.uniform(0.05, 0.4))),
        alpha_cls=min(0.95, alpha_cnf + slack + float(rng.uniform(0.05, 0.4))),
        loss_spec=LossSpec(
            confidence_kind=CONF_KINDS[(index // 3) % 2],
            localization_kind=LOC_LOSS_KINDS[index % 3],
            localization_tau=(0.5, 1.0)[(index // 4) % 2],
            classification_aggregation=AGG_KINDS[(index // 2) % 3],
        ),
        predset_spec=PredSetSpec(
            localization_kind=loc_set, classification_kind=CLS_SET_KINDS[(index // 2) % 2]
        ),
        match_spec=MatchDistanceSpec(MATCH_KINDS[index % 4]),
        lambda_loc_bounds=(0.0, 121.0) if loc_set == "additive" else (0.0, 3.0),
    )


def _small_samples(index: int, n_images: int):
    return generate(
        SynthSpec(
            seed=7100 + index, n_images=n_images, num_classes=4,
            image_width=40.0, image_height=40.0, objects_min=0, objects_max=3,
            box_noise_std=2.5, false_positive_rate=1.2, label_flip_probability=0.1,
        )
    )


def _on_lattice(sample: ImageSample) -> ImageSample:
    def snap(box: BoundingBox) -> BoundingBox:
        left, top = float(round(box.left)), float(round(box.top))
        return BoundingBox(
            left, top, max(float(round(box.right)), left + 1.0), max(float(round(box.bottom)), top + 1.0)
        )

    return ImageSample(
        sample.image_id,
        tuple((snap(box), label) for box, label in sample.ground_truths),
        tuple(
            Detection(snap(d.box), d.probs, round(d.confidence, 1)) for d in sample.detections
        ),
    )


def _case(name: str):
    kind, _, index = name.partition("-")
    if kind in ("small", "tie"):
        index = int(index)
        rng = np.random.default_rng(7000 + index)
        n = int(rng.integers(3, 9))
        samples = _small_samples(index, n)
        if kind == "tie":
            samples = [_on_lattice(s) for s in samples]
        return samples, _small_config(rng, index, n)
    if name == "skewed":
        few = generate(
            SynthSpec(seed=91, n_images=40, num_classes=6, image_width=96.0, image_height=96.0,
                      objects_min=0, objects_max=2, false_positive_rate=0.4)
        )
        few = [ImageSample(s.image_id, s.ground_truths, ()) if i % 7 == 3 else s
               for i, s in enumerate(few)]
        crowd = generate(
            SynthSpec(seed=92, n_images=1, num_classes=6, image_width=96.0, image_height=96.0,
                      objects_min=4, objects_max=4, false_positive_rate=170.0)
        )
        return few[:17] + crowd + few[17:], CalibrationConfig(0.25, 0.4, 0.4)
    spec = SynthSpec(
        seed=77, n_images=200, num_classes=80, image_width=640.0, image_height=480.0,
        objects_min=1, objects_max=8, box_noise_std=8.0,
        false_positive_rate=30.0 if name == "dense" else 5.0,
    )
    if name == "dense":
        return generate(spec), CalibrationConfig(0.02, 0.1, 0.1, lambda_loc_bounds=(0.0, 2000.0))
    return generate(spec), CalibrationConfig(
        0.02, 0.1, 0.1,
        loss_spec=LossSpec(localization_kind="pixelwise"),
        predset_spec=PredSetSpec(localization_kind="multiplicative", classification_kind="aps"),
        match_spec=MatchDistanceSpec("giou"),
    )


CASES = (
    [f"small-{i:02d}" for i in range(N_SMALL)]
    + [f"tie-{i:02d}" for i in range(N_TIES)]
    + ["dense", "pixelwise", "skewed"]
)


def outcome(name: str) -> dict:
    """The four λ's and every diagnostic as ``float.hex``, or the error raised."""
    samples, config = _case(name)
    try:
        result = calibrate(samples, config)
    except (ValueError, RuntimeError) as exc:
        return {"raises": type(exc).__name__}
    out = {
        field: float.hex(getattr(result, field))
        for field in ("lambda_cnf_plus", "lambda_cnf_minus", "lambda_loc_plus", "lambda_cls_plus")
    }
    out.update({key: float.hex(value) for key, value in sorted(result.diagnostics.items())})
    return out


GOLDEN = {'small-00': {'lambda_cnf_plus': '0x1.abd450af71aaap-2',
              'lambda_cnf_minus': '0x1.4624838a8e452p-2',
              'lambda_loc_plus': '0x1.e37b1c2362360p+0',
              'lambda_cls_plus': '0x1.2ae5d3a1d1d44p-1',
              'cls_monotonized_risk': '0x1.5555555555556p-2',
              'cnf_monotonized_risk': '0x1.2492492492492p-3',
              'loc_monotonized_risk': '0x1.6db6db6db6db7p-1',
              'n_confidence_breakpoints': '0x1.d000000000000p+4'},
 'small-01': {'lambda_cnf_plus': '0x1.f0bcb6db1570ep-2',
              'lambda_cnf_minus': '0x1.46f39b40be1d2p-2',
              'lambda_loc_plus': '0x1.8000000000000p-31',
              'lambda_cls_plus': '0x1.80e7a3de6ca90p-5',
              'cls_monotonized_risk': '0x1.0000000000000p-1',
              'cnf_monotonized_risk': '0x1.0000000000000p-3',
              'loc_monotonized_risk': '0x1.b2078ef01e397p-2',
              'n_confidence_breakpoints': '0x1.8000000000000p+4'},
 'small-02': {'lambda_cnf_plus': '0x1.017a627e722c0p-1',
              'lambda_cnf_minus': '0x1.dcab7fdf36b4ep-2',
              'lambda_loc_plus': '0x1.b8ca6bb17baf0p+0',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.0000000000000p-1',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.0000000000000p-2',
              'n_confidence_breakpoints': '0x1.c000000000000p+3'},
 'small-03': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.b536c9595b0c4p-2',
              'lambda_loc_plus': '0x1.0d9df49c1d018p-2',
              'lambda_cls_plus': '0x1.f2734aa4ae7ffp-1',
              'cls_monotonized_risk': '0x0.0p+0',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.8000000000000p-2',
              'n_confidence_breakpoints': '0x1.c000000000000p+3'},
 'small-04': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.45e24c6ec4a54p-2',
              'lambda_loc_plus': '0x1.e400000000000p-26',
              'lambda_cls_plus': '0x1.906865d78c72cp-3',
              'cls_monotonized_risk': '0x1.5555555555555p-2',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.84ea49fa8999bp-2',
              'n_confidence_breakpoints': '0x1.6000000000000p+3'},
 'small-05': {'lambda_cnf_plus': '0x1.dfa18400b1b14p-2',
              'lambda_cnf_minus': '0x0.0p+0',
              'lambda_loc_plus': '0x0.0p+0',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.5555555555555p-2',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.5555555555555p-2',
              'n_confidence_breakpoints': '0x1.c000000000000p+2'},
 'small-06': {'lambda_cnf_plus': '0x1.fe5c2ab8b4920p-2',
              'lambda_cnf_minus': '0x1.5a444d7b46a84p-2',
              'lambda_loc_plus': '0x1.0c2f20381fc34p+2',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.999999999999ap-3',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.3333333333333p-2',
              'n_confidence_breakpoints': '0x1.e000000000000p+3'},
 'small-07': {'lambda_cnf_plus': '0x1.166f3e17e48a0p-1',
              'lambda_cnf_minus': '0x1.ec3893a963f64p-2',
              'lambda_loc_plus': '0x1.8000000000000p-31',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.1c71c71c71c71p-3',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.a01196f3a8b61p-2',
              'n_confidence_breakpoints': '0x1.7000000000000p+4'},
 'small-08': {'lambda_cnf_plus': '0x1.c1f4c0648439ep-2',
              'lambda_cnf_minus': '0x1.987a94b001118p-2',
              'lambda_loc_plus': '0x1.85aacd772cae0p-1',
              'lambda_cls_plus': '0x1.46a3a645d71dcp-3',
              'cls_monotonized_risk': '0x1.0000000000000p-1',
              'cnf_monotonized_risk': '0x1.0000000000000p-3',
              'loc_monotonized_risk': '0x1.0000000000000p-1',
              'n_confidence_breakpoints': '0x1.9000000000000p+4'},
 'small-09': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.dbfd24bcd4d20p-2',
              'lambda_loc_plus': '0x1.1a9c4e1c483cdp-1',
              'lambda_cls_plus': '0x1.4b6b1dc63c644p-3',
              'cls_monotonized_risk': '0x1.0000000000000p-1',
              'cnf_monotonized_risk': '0x1.5555555555556p-4',
              'loc_monotonized_risk': '0x1.8000000000000p-2',
              'n_confidence_breakpoints': '0x1.a000000000000p+3'},
 'small-10': {'lambda_cnf_plus': '0x1.f6ed1a73a676cp-2',
              'lambda_cnf_minus': '0x1.c4f6ab1229792p-2',
              'lambda_loc_plus': '0x1.e400000000000p-26',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.0000000000000p-3',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.245d04bf4f69ep-2',
              'n_confidence_breakpoints': '0x1.2000000000000p+4'},
 'small-11': {'lambda_cnf_plus': '0x1.0075b8628d124p-1',
              'lambda_cnf_minus': '0x1.b1cef11c1d518p-2',
              'lambda_loc_plus': '0x1.30e02a7462eb2p-6',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.2492492492492p-2',
              'cnf_monotonized_risk': '0x1.8618618618618p-5',
              'loc_monotonized_risk': '0x1.b6db6db6db6dbp-2',
              'n_confidence_breakpoints': '0x1.1000000000000p+4'},
 'small-12': {'lambda_cnf_plus': '0x1.0a667064cf300p-1',
              'lambda_cnf_minus': '0x1.cd61e964da49cp-2',
              'lambda_loc_plus': '0x1.fd065d25823e0p-2',
              'lambda_cls_plus': '0x1.d78624bda8910p-4',
              'cls_monotonized_risk': '0x1.5555555555555p-2',
              'cnf_monotonized_risk': '0x1.0000000000000p-3',
              'loc_monotonized_risk': '0x1.eaaaaaaaaaaabp-2',
              'n_confidence_breakpoints': '0x1.a000000000000p+4'},
 'small-13': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.2152b72b65c8bp-1',
              'lambda_loc_plus': '0x1.c5d7f04000000p-4',
              'lambda_cls_plus': '0x1.2718433db2e8cp-3',
              'cls_monotonized_risk': '0x1.c71c71c71c71cp-3',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.a33a5b74d95b3p-2',
              'n_confidence_breakpoints': '0x1.4000000000000p+3'},
 'small-14': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.2c2d12f9d8a12p-1',
              'lambda_loc_plus': '0x1.2c39972ead5e4p+2',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x0.0p+0',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.5555555555555p-2',
              'n_confidence_breakpoints': '0x1.6000000000000p+3'},
 'small-15': {'lambda_cnf_plus': '0x1.0b6ab139208b4p-2',
              'lambda_cnf_minus': '0x1.fed836781be1cp-3',
              'lambda_loc_plus': '0x1.46a9272612ebcp-2',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.2492492492492p-2',
              'cnf_monotonized_risk': '0x1.e79e79e79e79fp-4',
              'loc_monotonized_risk': '0x1.cf3cf3cf3cf3ep-2',
              'n_confidence_breakpoints': '0x1.7000000000000p+4'},
 'small-16': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.4f391a9bd0bccp-1',
              'lambda_loc_plus': '0x1.e400000000000p-26',
              'lambda_cls_plus': '0x1.de3e42ab5af80p-3',
              'cls_monotonized_risk': '0x1.5555555555555p-2',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.3c6acd5334fc4p-2',
              'n_confidence_breakpoints': '0x1.4000000000000p+4'},
 'small-17': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.d45ea588c905ep-2',
              'lambda_loc_plus': '0x1.0d9a1ecc03f51p-1',
              'lambda_cls_plus': '0x1.b4585869c9ec0p-7',
              'cls_monotonized_risk': '0x1.0000000000000p-1',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.5555555555555p-2',
              'n_confidence_breakpoints': '0x1.1000000000000p+4'},
 'small-18': {'lambda_cnf_plus': '0x1.0b3ee15423012p-1',
              'lambda_cnf_minus': '0x1.6ef585096eefap-2',
              'lambda_loc_plus': '0x1.d42206a2e9020p+0',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.1111111111111p-1',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.999999999999ap-2',
              'n_confidence_breakpoints': '0x1.0000000000000p+4'},
 'small-19': {'lambda_cnf_plus': '0x1.1c994c7c02af4p-1',
              'lambda_cnf_minus': '0x1.7cc79b965acfcp-2',
              'lambda_loc_plus': '0x1.68b4d62000000p-4',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.5555555555555p-2',
              'cnf_monotonized_risk': '0x1.da56eaf3eb08dp-7',
              'loc_monotonized_risk': '0x1.b06b6c4f5b933p-2',
              'n_confidence_breakpoints': '0x1.1000000000000p+4'},
 'small-20': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.73514a2d8a682p-2',
              'lambda_loc_plus': '0x1.08e4871964220p-1',
              'lambda_cls_plus': '0x1.239ea1e26a100p-5',
              'cls_monotonized_risk': '0x1.0000000000000p-1',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.0000000000000p-1',
              'n_confidence_breakpoints': '0x1.c000000000000p+3'},
 'small-21': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.0000000000000p+0',
              'lambda_loc_plus': '0x1.51902db8fa58ap-4',
              'lambda_cls_plus': '0x1.19b090b777a14p-3',
              'cls_monotonized_risk': '0x1.2492492492492p-3',
              'cnf_monotonized_risk': '0x1.e79e79e79e79fp-4',
              'loc_monotonized_risk': '0x1.cf3cf3cf3cf3ep-2',
              'n_confidence_breakpoints': '0x1.6000000000000p+4'},
 'small-22': {'lambda_cnf_plus': '0x1.0000000000000p+0',
              'lambda_cnf_minus': '0x1.1c0ee0d86b204p-1',
              'lambda_loc_plus': '0x1.e400000000000p-26',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x0.0p+0',
              'cnf_monotonized_risk': '0x0.0p+0',
              'loc_monotonized_risk': '0x1.4e5f1ae62bd38p-2',
              'n_confidence_breakpoints': '0x1.4000000000000p+3'},
 'small-23': {'lambda_cnf_plus': '0x1.c013fff2dd8f0p-2',
              'lambda_cnf_minus': '0x1.6f9001db4f464p-2',
              'lambda_loc_plus': '0x1.027e488960080p+0',
              'lambda_cls_plus': '0x0.0p+0',
              'cls_monotonized_risk': '0x1.2492492492492p-2',
              'cnf_monotonized_risk': '0x1.2492492492492p-3',
              'loc_monotonized_risk': '0x1.2492492492492p-1',
              'n_confidence_breakpoints': '0x1.a000000000000p+4'},
 'tie-00': {'lambda_cnf_plus': '0x1.999999999999ap-2',
            'lambda_cnf_minus': '0x1.3333333333334p-2',
            'lambda_loc_plus': '0x1.0000000000000p+1',
            'lambda_cls_plus': '0x1.2ae5d3a1d1d44p-1',
            'cls_monotonized_risk': '0x1.5555555555556p-2',
            'cnf_monotonized_risk': '0x1.2492492492492p-3',
            'loc_monotonized_risk': '0x1.0c30c30c30c31p-1',
            'n_confidence_breakpoints': '0x1.2000000000000p+3'},
 'tie-01': {'lambda_cnf_plus': '0x1.0000000000000p-1',
            'lambda_cnf_minus': '0x1.3333333333334p-2',
            'lambda_loc_plus': '0x1.8000000000000p-31',
            'lambda_cls_plus': '0x1.80e7a3de6ca90p-5',
            'cls_monotonized_risk': '0x1.0000000000000p-1',
            'cnf_monotonized_risk': '0x1.0000000000000p-3',
            'loc_monotonized_risk': '0x1.ae8e556397c98p-2',
            'n_confidence_breakpoints': '0x1.0000000000000p+3'},
 'tie-02': {'lambda_cnf_plus': '0x1.0000000000000p-1',
            'lambda_cnf_minus': '0x1.0000000000000p-1',
            'lambda_loc_plus': '0x1.0000000000000p+1',
            'lambda_cls_plus': '0x0.0p+0',
            'cls_monotonized_risk': '0x1.0000000000000p-1',
            'cnf_monotonized_risk': '0x0.0p+0',
            'loc_monotonized_risk': '0x1.0000000000000p-2',
            'n_confidence_breakpoints': '0x1.8000000000000p+2'},
 'tie-03': {'lambda_cnf_plus': '0x1.0000000000000p+0',
            'lambda_cnf_minus': '0x1.999999999999ap-2',
            'lambda_loc_plus': '0x1.1745d1745d174p-2',
            'lambda_cls_plus': '0x1.f2734aa4ae7ffp-1',
            'cls_monotonized_risk': '0x0.0p+0',
            'cnf_monotonized_risk': '0x0.0p+0',
            'loc_monotonized_risk': '0x1.5555555555556p-3',
            'n_confidence_breakpoints': '0x1.c000000000000p+2'},
 'tie-04': {'lambda_cnf_plus': '0x1.0000000000000p+0',
            'lambda_cnf_minus': '0x1.3333333333334p-2',
            'lambda_loc_plus': '0x1.e400000000000p-26',
            'lambda_cls_plus': '0x1.906865d78c72cp-3',
            'cls_monotonized_risk': '0x1.5555555555555p-2',
            'cnf_monotonized_risk': '0x0.0p+0',
            'loc_monotonized_risk': '0x1.5aef9f37426e9p-2',
            'n_confidence_breakpoints': '0x1.0000000000000p+3'},
 'tie-05': {'lambda_cnf_plus': '0x1.0000000000000p-1',
            'lambda_cnf_minus': '0x0.0p+0',
            'lambda_loc_plus': '0x0.0p+0',
            'lambda_cls_plus': '0x0.0p+0',
            'cls_monotonized_risk': '0x1.5555555555555p-2',
            'cnf_monotonized_risk': '0x0.0p+0',
            'loc_monotonized_risk': '0x1.5555555555555p-2',
            'n_confidence_breakpoints': '0x1.0000000000000p+2'},
 'dense': {'lambda_cnf_plus': '0x1.329a7aac710c4p-1',
           'lambda_cnf_minus': '0x1.2cfcdff2955ecp-1',
           'lambda_loc_plus': '0x1.ea9aed554d720p+3',
           'lambda_cls_plus': '0x1.fd781419beaf9p-1',
           'cls_monotonized_risk': '0x1.862b1b039bbeep-4',
           'cnf_monotonized_risk': '0x1.eb851eb851eb8p-7',
           'loc_monotonized_risk': '0x1.839bbedaa5fc5p-4',
           'n_confidence_breakpoints': '0x1.ac50000000000p+12'},
 'pixelwise': {'lambda_cnf_plus': '0x1.529d318e4bbbfp-1',
               'lambda_cnf_minus': '0x1.458235075a90cp-1',
               'lambda_loc_plus': '0x1.26722e8000000p-7',
               'lambda_cls_plus': '0x1.bec5733f7a4afp-2',
               'cls_monotonized_risk': '0x1.83ece2a53490cp-4',
               'cnf_monotonized_risk': '0x1.eb851eb851eb8p-7',
               'loc_monotonized_risk': '0x1.872b01cf6ed25p-4',
               'n_confidence_breakpoints': '0x1.e180000000000p+10'},
 'skewed': {'lambda_cnf_plus': '0x1.a576ef8a4943ep-2',
            'lambda_cnf_minus': '0x1.a2570e4967efap-2',
            'lambda_loc_plus': '0x1.7696f8e0ba770p+0',
            'lambda_cls_plus': '0x1.005783e04c0eap-2',
            'cls_monotonized_risk': '0x1.7ce0c7ce0c7cep-2',
            'cnf_monotonized_risk': '0x1.c18f9c18f9c19p-3',
            'loc_monotonized_risk': '0x1.895da895da896p-2',
            'n_confidence_breakpoints': '0x1.9a00000000000p+7'}}


@pytest.mark.parametrize("name", CASES)
def test_calibration_is_bit_identical(name):
    assert outcome(name) == GOLDEN[name]


def test_cases_cover_every_kind():
    configs = [_case(name)[1] for name in CASES if name.startswith("small")]
    assert {c.loss_spec.confidence_kind for c in configs} == set(CONF_KINDS)
    assert {c.loss_spec.localization_kind for c in configs} == set(LOC_LOSS_KINDS)
    assert {c.loss_spec.classification_aggregation for c in configs} == set(AGG_KINDS)
    assert {c.predset_spec.localization_kind for c in configs} == set(LOC_SET_KINDS)
    assert {c.predset_spec.classification_kind for c in configs} == set(CLS_SET_KINDS)
    assert {c.match_spec.kind for c in configs} == set(MATCH_KINDS)
    assert {
        (c.predset_spec.localization_kind, c.predset_spec.classification_kind) for c in configs
    } == {(a, b) for a in LOC_SET_KINDS for b in CLS_SET_KINDS}
    assert sum("raises" not in GOLDEN[name] for name in CASES) >= len(CASES) - 6
