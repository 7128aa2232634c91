"""Golden values of ``generate``: every generated dataset, bit for bit.

``generate`` is a fixed function of its ``SynthSpec``: the benchmark inputs,
the seeded test suites and every ``monte_carlo_validate`` trial depend on
the exact floats it returns, so a rewrite of the generator must keep both
the order of its random draws and its float arithmetic. These digests were
recorded with the per-detection generator that the blocked one replaced.

Each digest covers the image ids, every ground-truth box and label, and
every detection's box, confidence and probability vector (as raw float64
bytes), in output order. The grid holds the three benchmark workload specs
at small sizes, the noiseless, no-flip, always-flip and two-class edges, the
forced single false positive of an empty image, and a 1000-class spec whose
images hold more probability cells than one softmax block. The last test
pins ``per_trial_risks`` of a 3-trial ``monte_carlo_validate`` on the Monte
Carlo acceptance spec.
"""

import hashlib
from array import array
from dataclasses import replace

import pytest

from condet import (
    CalibrationConfig,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    generate,
    monte_carlo_validate,
)

MC_SPEC = SynthSpec(
    seed=2026, n_images=1, num_classes=8, image_width=64.0, image_height=64.0,
    objects_min=1, objects_max=4, box_noise_std=2.0, confidence_base=2.0,
    confidence_noise_coupling=1.5, false_positive_rate=0.8,
    label_flip_probability=0.05, softmax_temperature=0.35,
)
MC_CONFIG = CalibrationConfig(
    alpha_cnf=0.02, alpha_loc=0.1, alpha_cls=0.1,
    loss_spec=LossSpec(localization_kind="boxwise"),
    predset_spec=PredSetSpec(localization_kind="additive", classification_kind="lac"),
    match_spec=MatchDistanceSpec("hausdorff"),
    lambda_loc_bounds=(0.0, 200.0),
)
_COCO_LIKE = dict(
    num_classes=80, image_width=640.0, image_height=480.0,
    objects_min=1, objects_max=8, box_noise_std=8.0,
)

SPECS = {
    "dense": SynthSpec(seed=21, n_images=12, false_positive_rate=30.0, **_COCO_LIKE),
    "cli-pixelwise": SynthSpec(seed=22, n_images=40, false_positive_rate=5.0, **_COCO_LIKE),
    "mc-small": replace(MC_SPEC, n_images=200),
    "default": SynthSpec(),
    "noiseless": SynthSpec(seed=3, n_images=60, box_noise_std=0.0),
    "noiseless-exact": SynthSpec(
        seed=4, n_images=40, box_noise_std=0.0, label_flip_probability=0.0,
        false_positive_rate=0.0, objects_min=1, objects_max=3,
    ),
    "no-flip": SynthSpec(seed=5, n_images=80, label_flip_probability=0.0),
    "always-flip": SynthSpec(seed=6, n_images=60, label_flip_probability=1.0),
    "two-classes": SynthSpec(seed=7, n_images=80, num_classes=2, false_positive_rate=1.5),
    "forced-false-positive": SynthSpec(
        seed=8, n_images=30, objects_min=0, objects_max=0, false_positive_rate=0.0
    ),
    "many-classes": SynthSpec(
        seed=9, n_images=6, num_classes=1000, objects_min=2, objects_max=6,
        false_positive_rate=20.0, box_noise_std=30.0, image_width=300.0, image_height=200.0,
    ),
}

DIGESTS = {
    "dense": "a47be216c6276c67b19358481dae935db0cdb8826e47e618342b0499007d73f2",
    "cli-pixelwise": "02eb49347d89b229f26298c2b4bc33dce0b012593b43c760c4be146a662ea132",
    "mc-small": "3f48769c7b232ea20909a9b9addfb45c9bcb16673296077720c4d956da005e39",
    "default": "f9de6969529c0e00985042963927f5f6086ef63a1d118ee6a9438e1f05650c10",
    "noiseless": "a5c7eb769470bd780eb72a24e015fa442cf437456f42702843b97fb09f93e591",
    "noiseless-exact": "f772cb46544e7b24896d0fd733d31644c847bf80b0ad4b1e81fe510b5d944946",
    "no-flip": "069d16e1a6d81af1116e64bbd6ab86dd3966821b4101032e1c82b7eaffb58249",
    "always-flip": "7a5edb73330a27d0b2ebf7e31a589a6bd830b93cbbd3753160e6d4e33f862ce9",
    "two-classes": "4c87d44cb3c813adf914355c69a4720d229ca39c08e17d8a543de2bf0f60f47b",
    "forced-false-positive": "823dc9046720c96d5a5a99172b5bb3b800b5abba6412ff88f95ce1114bf03ecf",
    "many-classes": "ec4a3b60097d0cec94e61039b468dd6068a53153c3ba142f0d3b8989e46a7e24",
}

MC_PER_TRIAL_RISKS = (
    ("0x1.47ae147ae147bp-7", "0x1.ced916872b021p-4", "0x1.c1e098ead65b7p-4", "0x1.9c54a6921735fp-3"),
    ("0x1.47ae147ae147bp-6", "0x1.a1cac083126e9p-4", "0x1.619f0fb38a94dp-4", "0x1.53490b9af7201p-3"),
    ("0x1.89374bc6a7efap-7", "0x1.7ef9db22d0e56p-4", "0x1.4b17e4b17e4b1p-4", "0x1.48057619f0fb3p-3"),
)


def samples_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        flat: list[float] = []
        for box, label in s.ground_truths:
            flat.extend(box.as_tuple())
            flat.append(label)
        for d in s.detections:
            flat.extend(d.box.as_tuple())
            flat.append(d.confidence)
            flat.extend(d.probs)
        h.update(f"{s.image_id}:{len(s.ground_truths)}:{len(s.detections)};".encode())
        h.update(array("d", flat).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generate_matches_golden_digest(name):
    assert samples_digest(generate(SPECS[name])) == DIGESTS[name]


def test_monte_carlo_per_trial_risks_golden():
    report = monte_carlo_validate(MC_SPEC, MC_CONFIG, trials=3, n_cal=500, n_test=500)
    got = tuple(tuple(float.hex(r) for r in row) for row in report.per_trial_risks)
    assert got == MC_PER_TRIAL_RISKS
