"""Golden bytes of condet's on-disk formats and of its command-line contract.

Replication rests on the configuration echo and its SHA-256 digest, which
every result, prediction and report file carries, so the exact bytes of
these artifacts are part of the interface: a refactor of how they are
produced must leave them unchanged. The digests below were recorded with the
hand-written serializers that the dataclass-derived ones replaced.

Recorded per case (SHA-256 of the exact bytes):

* the ``calibrate`` result file, its ``config_digest`` and the command's
  stdout, then the ``infer`` predictions and the ``evaluate --out`` report
  with its stdout, run through ``condet.cli.main``;
* the ``validate --out`` report;
* the ``--help`` text of ``calibrate``, ``infer`` and ``validate`` at a fixed
  80-column width;
* ``save_result`` files and ``config_digest`` of configurations built in
  memory and from partial dicts (missing keys take the defaults), plus a
  reload and re-save of every result file, which must give the same bytes.

The CLI cases cover the three benchmark flag sets (``bench/workloads.py``)
and a grid that uses every ``LossSpec``, ``PredSetSpec`` and
``MatchDistanceSpec`` kind, non-default bounds, non-default
``binary_search_steps``, a non-default prefilter, the correction switched
off, integer values in float fields, config files with and without the
``calibration`` wrapper, flags overriding file values and the CLI defaults.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from condet import (
    CalibrationConfig,
    CalibrationResult,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    generate,
    load_result,
    save_result,
)
from condet.cli import main
from condet.dataio import config_digest, config_from_dict
from helpers import samples_to_dataset_file

COCO_SPEC = SynthSpec(
    seed=31, n_images=130, num_classes=80, image_width=640.0, image_height=480.0,
    objects_min=1, objects_max=8, box_noise_std=8.0, false_positive_rate=5.0,
)
MC_SPEC = SynthSpec(
    seed=32, n_images=150, num_classes=8, image_width=64.0, image_height=64.0,
    objects_min=1, objects_max=4, box_noise_std=2.0, confidence_base=2.0,
    confidence_noise_coupling=1.5, false_positive_rate=0.8,
    label_flip_probability=0.05, softmax_temperature=0.35,
)
N_CAL = 100

ALPHAS = ["--alpha-cnf", "0.1", "--alpha-loc", "0.3", "--alpha-cls", "0.3"]

#: name -> (dataset, calibrate flags, config file payload or None)
CLI_CASES = {
    "bench-dense": ("coco", ["--alpha-cnf", "0.02", "--alpha-loc", "0.1", "--alpha-cls", "0.1",
                             "--lambda-loc-min", "0", "--lambda-loc-max", "2000"], None),
    "bench-cli-pixelwise": ("coco", ["--alpha-cnf", "0.02", "--alpha-loc", "0.1", "--alpha-cls", "0.1",
                                     "--loss-localization", "pixelwise", "--predset-localization",
                                     "multiplicative", "--predset-classification", "aps",
                                     "--match", "giou"], None),
    "bench-mc-small": ("mc", ["--alpha-cnf", "0.02", "--alpha-loc", "0.1", "--alpha-cls", "0.1",
                              "--lambda-loc-min", "0", "--lambda-loc-max", "200"], None),
    "flags-every-switch": ("mc", ALPHAS + [
        "--loss-confidence", "box_count_recall", "--loss-localization", "thresholded",
        "--loss-localization-tau", "0.75", "--loss-classification-aggregation", "max",
        "--predset-localization", "multiplicative", "--predset-classification", "aps",
        "--match", "lac", "--binary-search-steps", "20", "--prefilter", "0.05",
        "--lambda-loc-min", "0.5", "--lambda-loc-max", "4", "--no-finite-sample-correction",
    ], None),
    "file-full-with-overrides": ("mc", ["--alpha-loc", "0.35", "--tau", "0.4"], {
        "alpha_cnf": 0.1, "alpha_loc": 0.3, "alpha_cls": 0.3,
        "loss_spec": {"confidence_kind": "box_count_threshold", "localization_kind": "pixelwise",
                      "localization_tau": 0.9, "classification_aggregation": "thresholded",
                      "aggregation_tau": 0.3},
        "predset_spec": {"localization_kind": "additive", "classification_kind": "lac"},
        "match_spec": {"kind": "mix", "tau": 0.6},
        "lambda_loc_bounds": [0.0, 50.0], "lambda_cls_bounds": [0.1, 1.0],
        "binary_search_steps": 12, "prefilter_threshold": 0.0005,
        "finite_sample_correction": False,
    }),
    "file-wrapped-partial": ("mc", ["--match", "hausdorff", "--lambda-loc-max", "30"], {
        "calibration": {
            "alpha_cnf": 0.1, "alpha_loc": 0.3, "alpha_cls": 0.3,
            "loss_spec": {"localization_kind": "boxwise", "classification_aggregation": "average"},
            "match_spec": {"kind": "giou"},
        },
    }),
    "file-integers": ("mc", [], {
        "alpha_cnf": 0.1, "alpha_loc": 0.3, "alpha_cls": 0.3,
        "loss_spec": {"localization_kind": "thresholded", "localization_tau": 1,
                      "classification_aggregation": "thresholded", "aggregation_tau": 1},
        "match_spec": {"kind": "mix", "tau": 0},
        "lambda_loc_bounds": [0, 20], "lambda_cls_bounds": [0, 1],
        "binary_search_steps": 8, "prefilter_threshold": 0,
    }),
    "flags-tau-without-match": ("mc", ["--tau", "0.3", "--predset-classification", "aps"], None),
    "cli-default-alphas": ("mc", ["--alpha-loc", "0.3", "--alpha-cls", "0.3"], None),
}

#: name -> (validate arguments, spec file payload or None, config file payload or None)
VALIDATE_CASES = {
    "spec-with-wrapper": (["--predset-classification", "aps"], {
        "synth": {"seed": 13, "num_classes": 4, "objects_min": 1, "objects_max": 2,
                  "box_noise_std": 1.0, "false_positive_rate": 0.5},
        "calibration": {"alpha_cnf": 0.1, "alpha_loc": 0.3, "alpha_cls": 0.3,
                        "loss_spec": {"localization_kind": "boxwise"}},
        "trials": 2, "n_cal": 60, "n_test": 30, "slack": 0.5,
    }, None),
    "flags-and-config": ([
        "--trials", "2", "--n-cal", "60", "--n-test", "20", "--seed", "5", "--slack", "0.5",
        "--match", "mix", "--tau", "0.2", "--no-finite-sample-correction",
    ], None, {"alpha_cnf": 0.1, "alpha_loc": 0.3, "alpha_cls": 0.3,
              "lambda_loc_bounds": [0, 100]}),
}

#: Configurations serialized without running a calibration: every kind of
#: every spec at least once, non-default bounds, steps, prefilter and taus.
IN_MEMORY_CONFIGS = [
    CalibrationConfig(
        alpha_cnf=0.05, alpha_loc=0.2, alpha_cls=0.15,
        loss_spec=LossSpec(confidence_kind=conf, localization_kind=loc,
                           localization_tau=0.5, classification_aggregation=agg,
                           aggregation_tau=0.25),
        predset_spec=PredSetSpec(localization_kind=loc_set, classification_kind=cls_set),
        match_spec=MatchDistanceSpec(kind, tau=0.75),
        lambda_loc_bounds=None if i % 3 == 0 else (0.0, 10.0 * i),
        lambda_cls_bounds=(0.0, 1.0) if i % 2 else (0.05, 0.95),
        binary_search_steps=32 if i % 2 else 7,
        prefilter_threshold=1e-3 if i % 2 else 0.02,
        finite_sample_correction=bool(i % 4),
    )
    for i, (conf, loc, agg, loc_set, cls_set, kind) in enumerate(zip(
        itertools.cycle(("box_count_threshold", "box_count_recall")),
        itertools.cycle(("thresholded", "boxwise", "pixelwise")),
        ("average", "max", "thresholded") * 2,
        itertools.cycle(("additive", "multiplicative")),
        itertools.cycle(("lac", "aps", "aps")),
        itertools.cycle(("hausdorff", "lac", "giou", "mix")),
    ))
]

PARTIAL_DICTS = [
    {"alpha_cnf": 0.1, "alpha_loc": 0.2, "alpha_cls": 0.3},
    {"alpha_cnf": 0.1, "alpha_loc": 0.2, "alpha_cls": 0.3, "match_spec": {"kind": "mix"},
     "loss_spec": {}, "predset_spec": {"classification_kind": "aps"}},
    {"alpha_cnf": 0.1, "alpha_loc": 0.2, "alpha_cls": 0.3, "lambda_loc_bounds": None,
     "loss_spec": {"aggregation_tau": 0.1}, "finite_sample_correction": True},
    {"alpha_cnf": 0.1, "alpha_loc": 0.2, "alpha_cls": 0.3, "lambda_loc_bounds": [1, 2],
     "lambda_cls_bounds": [0.25, 0.5], "binary_search_steps": 1},
]


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def record(root) -> dict[str, str]:
    """Every recorded artifact's digest, keyed ``<case>/<artifact>``."""
    got: dict[str, str] = {}
    datasets = {}
    for name, spec in (("coco", COCO_SPEC), ("mc", MC_SPEC)):
        samples = generate(spec)
        datasets[name] = (root / f"{name}-cal.json", root / f"{name}-test.json")
        samples_to_dataset_file(samples[:N_CAL], spec.num_classes, datasets[name][0])
        samples_to_dataset_file(samples[N_CAL:], spec.num_classes, datasets[name][1])

    result_files = []
    for name, (data, flags, config) in CLI_CASES.items():
        cal, test = datasets[data]
        flags = list(flags)
        if config is not None:
            cfg = root / f"{name}-config.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", cfg] + flags
        result = root / f"{name}-result.json"
        code, stdout = run_cli(["calibrate", "--dataset", cal, "--out", result] + flags)
        assert code == 0, name
        result_files.append(result)
        got[f"{name}/result"] = sha(result.read_bytes())
        got[f"{name}/config_digest"] = config_digest(load_result(result).config)
        got[f"{name}/calibrate-stdout"] = sha(stdout)
        preds = root / f"{name}-predictions.json"
        code, _ = run_cli(["infer", "--result", result, "--dataset", test, "--out", preds] + flags)
        assert code == 0, name
        got[f"{name}/predictions"] = sha(preds.read_bytes())
        report = root / f"{name}-report.json"
        code, stdout = run_cli(["evaluate", "--result", result, "--dataset", test, "--out", report])
        assert code == 0, name
        got[f"{name}/report"] = sha(report.read_bytes())
        got[f"{name}/evaluate-stdout"] = sha(stdout)

    for name, (args, spec, config) in VALIDATE_CASES.items():
        args = list(args)
        if spec is not None:
            path = root / f"validate-{name}-spec.json"
            path.write_text(json.dumps(spec))
            args += ["--spec", path]
        if config is not None:
            path = root / f"validate-{name}-config.json"
            path.write_text(json.dumps(config))
            args += ["--config", path]
        out = root / f"validate-{name}.json"
        code, _ = run_cli(["validate", "--out", out] + args)
        got[f"validate-{name}/exit"] = str(code)
        got[f"validate-{name}/report"] = sha(out.read_bytes())

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        for command in ("calibrate", "infer", "validate"):
            code, text = run_cli([command, "--help"])
            assert code == 0
            got[f"help/{command}"] = sha(text)

    for i, config in enumerate(IN_MEMORY_CONFIGS):
        result = CalibrationResult(
            lambda_cnf_plus=0.75, lambda_cnf_minus=0.5, lambda_loc_plus=3.25,
            lambda_cls_plus=0.125, config=config, n_calibration=40 + i,
            diagnostics={"risk_cnf_at_plus": 0.01 * i, "resolution_loc": 1e-9},
        )
        path = root / f"in-memory-{i}.json"
        save_result(result, path)
        result_files.append(path)
        got[f"in-memory-{i}/result"] = sha(path.read_bytes())
        got[f"in-memory-{i}/config_digest"] = config_digest(config)
    for i, raw in enumerate(PARTIAL_DICTS):
        got[f"partial-{i}/config_digest"] = config_digest(config_from_dict(raw))

    for path in result_files:
        again = root / "resaved.json"
        save_result(load_result(path), again)
        assert again.read_bytes() == path.read_bytes(), path.name
    return got


GOLDEN = {
    "bench-dense/result": "de20913aa3f1d7db90a6cce4a2799507d29a36a86c302f7fc38ef3e7f9304378",
    "bench-dense/config_digest": "e9888ff5a3817a85f9f33abdf03297b21595eb04a503ecff7eeb20b6b864caf0",
    "bench-dense/calibrate-stdout": "e928ad35693b10bc4a6e52d3b53fde4ce36a6bf0a9fc8e9d4cc9d930f51656d3",
    "bench-dense/predictions": "8cbe22642443b13d46efe80ae376546e5ac52649b99e0a9b5b0be23ad2d607d5",
    "bench-dense/report": "ab55b14d4b236d77a0901fa0e68cc25d8015e904b6c80855ffb9de6c4850d43b",
    "bench-dense/evaluate-stdout": "fe13fc3edcdbbbc205f5c29bdd8d32b5d59c43aaa48a066c601a165a447151c3",
    "bench-cli-pixelwise/result": "8aa824795a4e4b87e2c24e15dd4927d55306a426762009964a4e2443f4211914",
    "bench-cli-pixelwise/config_digest": "f67bf1cbbdfb4a7ba183c07ca1ff97fe982b154cb25e015be1cd86fe0902a87b",
    "bench-cli-pixelwise/calibrate-stdout": "379359e807ce9cc36e8212f4382a3b17372be189a995fc8b5c8170f5f394000f",
    "bench-cli-pixelwise/predictions": "e7ea3cbfd63b1761029a6c5a0079f8feddd88d71f68a7bae9f6223500997e058",
    "bench-cli-pixelwise/report": "c13a7fea4ae998e4f1e82cd7cda926381454a802a433dc654ab8ddf958f121c7",
    "bench-cli-pixelwise/evaluate-stdout": "cb2712eb0c4c0cfa342334856a193ae27f99a9415306c63baf09c270ae0994bd",
    "bench-mc-small/result": "640492108d23234f62937af75c14e33d5ce0f356438e8c810b3122a36b8955fb",
    "bench-mc-small/config_digest": "ca986c6a2c7f6300b191d602c7e0a123b22dab5e29103d303a57be513f91a380",
    "bench-mc-small/calibrate-stdout": "7204db9d62f5c4f8e6eae636c9e762506eef753e9b0dc4e877efe46409450441",
    "bench-mc-small/predictions": "77be569227a9090e84e33eeccf42a069b2a600d9bb78a2dc66f4690124983c23",
    "bench-mc-small/report": "506444001cbfa7da36a9227b982df2e2e37ffba5e44dac42d3f6d2b348c06be0",
    "bench-mc-small/evaluate-stdout": "4bf1764798b604b4ff3575dae262fd6fad61a80864a69b62e6f7082a0e2a7923",
    "flags-every-switch/result": "ca308b97873b34d46234b850e83e5d9302223eb4b21fa608b5fd89c34826987e",
    "flags-every-switch/config_digest": "45f8b7496a8d857eed661e0d05af63ea557bf2a9035f7c001d1ed700dd266162",
    "flags-every-switch/calibrate-stdout": "dce360500f63040a070216215920b353a77927b08b417b116f3465c12c4a22ba",
    "flags-every-switch/predictions": "bceb806fa6a4875d716ec545538ec752f0679e3f11f41403890a71cc64321d5e",
    "flags-every-switch/report": "6cf8f826ceac4008281a314e27e205c4d5ac0e3aebcfec219824ae2bce3f227b",
    "flags-every-switch/evaluate-stdout": "998c727e96fa58752677050a1b5b88dbd30567c919b94220d827dc2452d75c34",
    "file-full-with-overrides/result": "4ecda7d780254db63ba4bfdf0ffa886efa8c718e803f916a26d048cd0ca2e65d",
    "file-full-with-overrides/config_digest": "91ea0314ec3bccbf087db0166a0cd2d6b7243ce3c1c35529d9546b5ebe629009",
    "file-full-with-overrides/calibrate-stdout": "f5b6c387cc566fc36c48aef5c4f0b9ee9ea595d45c922540b4f69c21c9311a39",
    "file-full-with-overrides/predictions": "41721a68712887b80f348fe2176f9ccd13a923ba6b864e25a7165a996aaa1240",
    "file-full-with-overrides/report": "d5cd22396fdf3b14c881ff2f966a76171fab6f2e69890ac65b981719c71d29ea",
    "file-full-with-overrides/evaluate-stdout": "df797d8f51cad8c17118d6636ba7889060cba931a822a7cfaa91bb09c6aa965e",
    "file-wrapped-partial/result": "6513e02457373c78730deb09d7bd321716448e8b23c6e1e16cdd9f14ae7cc926",
    "file-wrapped-partial/config_digest": "7d44035d06dc9ab680803e0be75118c74d9dab7d9ae6c7fe6b01f611e7c91bdb",
    "file-wrapped-partial/calibrate-stdout": "3901207e884b2f43dd6114c8d81e9a1b1b0469a409acc64db930352665f0ffe5",
    "file-wrapped-partial/predictions": "68ee6d0e403f34898812dd603438e10cb578087aaf0127caa3b8fc9ab60aaa2a",
    "file-wrapped-partial/report": "9d6aab1b7ab52cc7e2be92fdecddee1c8eb818b8d05283c4cd6282f08e0500ab",
    "file-wrapped-partial/evaluate-stdout": "5c18d5a337cb297e35dc494da00116fabf8e2bd3736dfb1498c570c04ea9f577",
    "file-integers/result": "c5a364f7e2d4b907b419f306e0f5258f801c58bd2fbb4c65fc36e5d14a5dd8b3",
    "file-integers/config_digest": "e0290b67a3703778641ce2958a8cacbe1c91963338033a7d55bb5af986c487c0",
    "file-integers/calibrate-stdout": "65622a8b9056ad5f25f0eb2b414409360e5d23e2723d9e21e833c66d4ac7d41e",
    "file-integers/predictions": "dd21e32398c3f482f72e0a0deaa0e0cc1bc8223f499c6078b8ca1d1ef77298ec",
    "file-integers/report": "ba0a1395c149ec961b5c4e397f5ce6bacb3b6c76a50e8c989f63585644021ab9",
    "file-integers/evaluate-stdout": "ebcf94dfa028333c01d9b722a0358dcb4d7377e37dac00bb8d0f43e1574973cf",
    "flags-tau-without-match/result": "7b1ea54e1e52b4022613c39064b5e25285a99f3a8bec540fbe8df0f20e68fec2",
    "flags-tau-without-match/config_digest": "e353998052ff79b331f8bb1e47916798eedb99f5859d7bf1170df6c463f4a3c1",
    "flags-tau-without-match/calibrate-stdout": "620204eadb35c713c6d4510d2665ae9818f81c26d44f62f41a1cf0d86408e571",
    "flags-tau-without-match/predictions": "93a4d6868f2ae83ecb71a33caebd3d154c0958e04d1a60f0a8efc798607b840c",
    "flags-tau-without-match/report": "7d4e9fd3c425304583689965b4697e50c68e81f6dbfc1b05a6b6c80b8d6ad19f",
    "flags-tau-without-match/evaluate-stdout": "2ef73cf9c44662cf513c92a03a81dce31bb5357f458ebe58490e43d20bd0b92d",
    "cli-default-alphas/result": "e6e72e6ab62a344ff237ee3f29d09b175a81680c4a2176253e0c36f20b6c4a84",
    "cli-default-alphas/config_digest": "e6d82b376241d104e969e9cb8eb417633eef8623d10e2a9e88a1140072366270",
    "cli-default-alphas/calibrate-stdout": "8e0897ecc5d826d37f138dd169eecdfa670d2bb448673ac15453460862b081f2",
    "cli-default-alphas/predictions": "f51470a69eb0b78b42d11be0b1dea810a930d5040dbac98ec3fe9628438a923f",
    "cli-default-alphas/report": "6fd9bfba09683622dc51a1b49592792c2101ac6a196510635ccad297e19f7b27",
    "cli-default-alphas/evaluate-stdout": "15bdb1b3c37f72cd61a8aea08758711b3e4c5776076aefbb66a0eb1a95f0a134",
    "validate-spec-with-wrapper/exit": "0",
    "validate-spec-with-wrapper/report": "c3b5371c0d1da485b2aa13e5a70727c25ad5de5e216323316e41445abe7b23e9",
    "validate-flags-and-config/exit": "0",
    "validate-flags-and-config/report": "0bbd261a4b098bbb38c769e9f276d6edd7dad0f3111f7a240023d93f22ba939e",
    "help/calibrate": "31ec976a20799d44ee7407055bd46ceb9805337699b1a9febcfe1b36fd63d4e3",
    "help/infer": "10f7cc44700f0ed1eb2b2f71cff8768928fa607dcd9a76d515a0dd3c53d3dc39",
    "help/validate": "a5bffb82c53eb59e111d1ec588bf13b08abbfc17740cf7cf124f47dc9869cdb2",
    "in-memory-0/result": "6e48ddcd25a8987ee4044d1e5ad68eb4d84e5cee1f6c5c4a9cd948a8c9d0b03e",
    "in-memory-0/config_digest": "cacb89470d5c4ed080f0779a608c66b87c673ea09275ccdaa3863acef43f1099",
    "in-memory-1/result": "1c7b971aa94af62fcefffe2114f595edad7a0163d48902ba8e26fd81198eebb1",
    "in-memory-1/config_digest": "c1a1edbf262346cce12b70b83e12bf1252338f6a8f47b64e160f62c32b081aec",
    "in-memory-2/result": "89effe169b248f3b70bce909fcfc9c10ca74d1b675961cf915cb6355d8e271ef",
    "in-memory-2/config_digest": "1c8724ebaefe30d647f419bf676ac0638d6b797a37131a04cbc6d6ed2e53eb96",
    "in-memory-3/result": "209eb232e2c30bab84952c63cb0c8e06d1a79c563902a5698bb848a3b01203b1",
    "in-memory-3/config_digest": "c6d466759be7645cdde36d8a12032b6a0e0d42d730bef09a287b89a819bdc030",
    "in-memory-4/result": "5e203dcbcbf0ba1589fc710df4ada52c64ef6a95fe1d8df4e378974af240a111",
    "in-memory-4/config_digest": "15d896d69b31a2f2c087d46c1d95a5bb04b5b5acf9d8856dad07352fd95304e2",
    "in-memory-5/result": "1db4a9918c11d17662cbc824fc6a0340a23128205dc849f3c0552b71d021bebe",
    "in-memory-5/config_digest": "0e9d27525a2265ca725a4c007963877366c017eee0b2f68587b0b34f65753012",
    "partial-0/config_digest": "6b7c6cee1d34e6ff9f7878f83e6ed76432ebcf3ecb5e23dc91d28bba6d1fbb7a",
    "partial-1/config_digest": "b5942fe5ecca2fe5e98856106d9f7063d5fdbfc92b2ba2654e5855b3ec20f187",
    "partial-2/config_digest": "69c7a7f796df73f0e7cc9628bae365c2352814871813067537802ba9d2db4059",
    "partial-3/config_digest": "47eb345011cd113774cf21967518c0ffd468f67af471cbe64284ed3f30da712e",
}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record(tmp_path_factory.mktemp("formats"))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_artifact_matches_golden(recorded, key):
    assert recorded[key] == GOLDEN[key]


def test_golden_covers_every_artifact(recorded):
    assert sorted(recorded) == sorted(GOLDEN)
