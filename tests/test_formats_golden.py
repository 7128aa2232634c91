"""Golden bytes of condet's on-disk formats and of its command-line contract.

Replication rests on the configuration echo and its SHA-256 digest, which
every result, prediction and report file carries, so the exact bytes of
these artifacts are part of the interface: a refactor of how they are
produced must leave them unchanged. The digests below were first recorded
with the hand-written serializers that the dataclass-derived ones replaced,
and re-recorded once when the second step became an exact search: a
file-by-file diff against the previous code showed only the removed
``binary_search_steps`` key and flag, result ``schema_version`` 2 and the new
second-step λ's with what follows from them (config digests, margined boxes,
localization set sizes). The two ``validate --out`` reports were re-recorded
once more when they began to echo the ``SynthSpec`` that ran, defaults
included, instead of the spec file's ``synth`` object: the same diff showed
only that object changed. ``help/infer`` was re-recorded once, when the help
of ``--allow-config-mismatch`` began to name the config flags beside
``--config``. The ``predictions`` files were re-recorded once, when ``infer``
began to write one entry per line, as dataset files are written, instead of
the whole document indented by 2: their ``predictions-content`` digests, of
the loaded JSON value re-encoded with sorted keys, were recorded before that
change and did not change with it. Four ``result`` files were re-recorded
when the reported risks became ``math.fsum`` of the losses over ``n``: a
field-by-field diff showed one or two risk diagnostics each, moved by 1 to 3
ulps, and no λ.

Recorded per case (SHA-256 of the exact bytes):

* the ``calibrate`` result file, its ``config_digest`` and the command's
  stdout, then the ``infer`` predictions (their bytes, and their JSON value
  as ``json.dumps(..., sort_keys=True)`` encodes it) and the ``evaluate
  --out`` report with its stdout, run through ``condet.cli.main``;
* the ``validate --out`` report;
* the ``--help`` text of ``calibrate``, ``infer`` and ``validate`` at a fixed
  80-column width;
* ``save_result`` files and ``config_digest`` of configurations built in
  memory and from partial dicts (missing keys take the defaults), plus a
  reload and re-save of every result file, which must give the same bytes.

The CLI cases cover the three benchmark flag sets (``bench/workloads.py``)
and a grid that uses every ``LossSpec``, ``PredSetSpec`` and
``MatchDistanceSpec`` kind, non-default bounds, a non-default prefilter,
the correction switched off, integer values in float fields, config files
with and without the ``calibration`` wrapper, flags overriding file values
and the CLI defaults.
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
        "--match", "lac", "--prefilter", "0.05",
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
        "prefilter_threshold": 0.0005,
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
        "prefilter_threshold": 0,
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
#: every spec at least once, non-default bounds, prefilter and taus.
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
     "lambda_cls_bounds": [0.25, 0.5]},
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
        content = json.dumps(json.loads(preds.read_text()), sort_keys=True)
        got[f"{name}/predictions-content"] = sha(content)
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
    "bench-dense/result": "f9bc837e63d093d8254853143abad6fcb45a734afe31f676dfbfa5a8eecc6366",
    "bench-dense/config_digest": "659fcbf92ebcb259cabaf776e75e827ce79d7fc673e73355e141779cf89ca4f5",
    "bench-dense/calibrate-stdout": "d12e4969854faaf771a80f960c91346a0dcd02b7c1e31284baac3d3281e3817e",
    "bench-dense/predictions": "1d82de1a6a1bfdcaeea3e2d6faf91c53b24bdd7435edea7ec14a74dc65ae3824",
    "bench-dense/predictions-content": "30a82152d66992ea25174acc349094982e928155289bcda1d4b5fe918d586c9c",
    "bench-dense/report": "f34236d042970b348b702b65a755796da23de5e554249cfbefd7cc7613a83b69",
    "bench-dense/evaluate-stdout": "fe13fc3edcdbbbc205f5c29bdd8d32b5d59c43aaa48a066c601a165a447151c3",
    "bench-cli-pixelwise/result": "ee4067a7e8cc89012d06c3635cd805f19fa44c7ea8619ae0dd65541e625d59b3",
    "bench-cli-pixelwise/config_digest": "0cc5db5432fe7092dee784e1c3019d237d02b6d33f42e3e4b756c973636b63b5",
    "bench-cli-pixelwise/calibrate-stdout": "3416d639b85ba7fa207609b2a5a950b410e2a6413e2aaac9398b3cd5de9d63d8",
    "bench-cli-pixelwise/predictions": "85a2f9ab1d3c6374daaf1e42865639434f9273ca10e303a16240742fa2a8f9ae",
    "bench-cli-pixelwise/predictions-content": "b4eee941d79e8a468a75a1f56583262cae89bec179584669a33113571ecbbf32",
    "bench-cli-pixelwise/report": "8dda966f5648fc340daa3322f3ecea210c43d4b230a80881af0684abc7ea31ef",
    "bench-cli-pixelwise/evaluate-stdout": "cb2712eb0c4c0cfa342334856a193ae27f99a9415306c63baf09c270ae0994bd",
    "bench-mc-small/result": "94361f8bb71e192fe67b7410c201a2417d73250baa6fed901ec33e7284f75c8f",
    "bench-mc-small/config_digest": "385c65b201c6fbe97c008aaddcfdc030beee69e75de81ff97b71d66112280c8a",
    "bench-mc-small/calibrate-stdout": "577d42a6a3dfad46cbfb062902ce4118c15d16860da8a97e34fcb9c40857a58b",
    "bench-mc-small/predictions": "2286782de028071bb3d82b9caaf77216c7f30d4c3e5296483e066614366429c7",
    "bench-mc-small/predictions-content": "943edb03543bf470e5e9c227a137db6e028c187ca2d69607ba0dcf93158e7edb",
    "bench-mc-small/report": "b7fa55974c7d55dc7e869334a971e7e6795bb45a858c05bb70e9d0acb64e7106",
    "bench-mc-small/evaluate-stdout": "4bf1764798b604b4ff3575dae262fd6fad61a80864a69b62e6f7082a0e2a7923",
    "flags-every-switch/result": "dbdf1f0c0efd84d72b0ba6cd91ee3f3d720a1d2983d579f6a6bcb7c63c890245",
    "flags-every-switch/config_digest": "6263df17440a09fbff96a9b8a0958097fb03bbd71d6be678b2cef8f4282dcde2",
    "flags-every-switch/calibrate-stdout": "e3144ec22b30e038ffb34121cb0fa67df56a33b9e8677371410a091ff30abe27",
    "flags-every-switch/predictions": "aba1818c827acfd3a586468564b2fde92e735966235fe7ec064998386100090c",
    "flags-every-switch/predictions-content": "aaabccd7aa7aed03ef767b77aedff0a11d632097b32e7e3393a2b66e517b65cb",
    "flags-every-switch/report": "f582e630628db5a48ef8b1fcfcf2a686b3bb257123b52b97dc38e8de711468ad",
    "flags-every-switch/evaluate-stdout": "998c727e96fa58752677050a1b5b88dbd30567c919b94220d827dc2452d75c34",
    "file-full-with-overrides/result": "c6b7cda265b69af630a4d8008147a138f371ab80aac096abbfcc5cdbff679abb",
    "file-full-with-overrides/config_digest": "52c0b9d3e59b47d147308d8e4b2e99c5f3d48d29af20674daa90a5b121d6ed69",
    "file-full-with-overrides/calibrate-stdout": "823e6fb58ba16dda66ed8c8dfc31005873aeb1bc07a4657bf061e74d6e5a10fe",
    "file-full-with-overrides/predictions": "4051ac9e57c4dcdb8163f67c5ddf038f56c58d75a09424c1854b8e7987be56e8",
    "file-full-with-overrides/predictions-content": "406e4d303e4d40874eb7516e9e46023f9aac16eaaee7af5fd43703181dcc30e4",
    "file-full-with-overrides/report": "1c9779058ea4a8298cf870ebb13110e55a5ebe26c3efc4c5fe0b97028d6c95b7",
    "file-full-with-overrides/evaluate-stdout": "d21c74d9b752f0bff7b6d828ca978726a1e51fb0afaf50e518b0f9cc2a1fb2e2",
    "file-wrapped-partial/result": "41d2428949c6d136544c1a8926617c525ceebfcba46f74e3b776f8dfd96f85f7",
    "file-wrapped-partial/config_digest": "b82ea273be1d543e5c37a0a968a893a7462e1296e9c74056a6126a39f98d0216",
    "file-wrapped-partial/calibrate-stdout": "42e0508e690323e3540d65c6cf366f899c7263dded13d50b9c469e834980f455",
    "file-wrapped-partial/predictions": "194bf699d2fa673de1c5ce73d8bd1123fa44b6fd67158b8cce71201236175f90",
    "file-wrapped-partial/predictions-content": "e13332d386cf04718bc4cc97fab004613dfb72eff6f97fbc74c8cd9feb801f6a",
    "file-wrapped-partial/report": "e1b43f9457d793e52330adfd23b137a1c7137343d7899ef04c1f95c1aa62531b",
    "file-wrapped-partial/evaluate-stdout": "5c18d5a337cb297e35dc494da00116fabf8e2bd3736dfb1498c570c04ea9f577",
    "file-integers/result": "d1aa0c6167d3730241cc9b8f1c700c4ee7cdd8debb935aafb5ece4ce80d4f70a",
    "file-integers/config_digest": "48affafcdb53a0c3cf95cf23037166046766372aef730db8688f1d0b470ca5d2",
    "file-integers/calibrate-stdout": "4c86f39728a5c5498e119ce9647cba57d7ad3a7cdfe8aa1e0200b75c37d28352",
    "file-integers/predictions": "82ebccb7e5704feab18dacea6b13ee4041d93b99f55ab4de3746087eb9d8eb27",
    "file-integers/predictions-content": "6e4d0e7db715295c19b3e2b43970dc7d97035cb85e5d8150654a308adc95226b",
    "file-integers/report": "93e195fc10ed714d7883ecbf44c6d652250b1cad8cf551fba38905c3c527188e",
    "file-integers/evaluate-stdout": "393b20caa8372f571f0d6b75d4696ea31f38401cb771852656f2ce2bb6d9572e",
    "flags-tau-without-match/result": "0e820e49daf1b42306c8391ead5acb5a7cb5304b5562caf1f2ba756b57f40389",
    "flags-tau-without-match/config_digest": "abee9183fb0251291df572f5b6673f51163730e7b9d8bc1a3a187f0b520ecdc5",
    "flags-tau-without-match/calibrate-stdout": "efb2e26a3915d559dfd1cf947097cb26a999f9be53909270aacdb766ef342e66",
    "flags-tau-without-match/predictions": "25161e802472bb5058a3a727dc559a40e479af48a1229ad6d430d21c5aa58404",
    "flags-tau-without-match/predictions-content": "bfaf6e7cc9207f8eaa7c7b372e39649beba7c4c3d2f625f0551bd2c35f46234b",
    "flags-tau-without-match/report": "87e4ce71ef45e6aa1cfa3ed6d6492441d54d89723758f5d1a73fe07132f149cd",
    "flags-tau-without-match/evaluate-stdout": "2ef73cf9c44662cf513c92a03a81dce31bb5357f458ebe58490e43d20bd0b92d",
    "cli-default-alphas/result": "b20cc6a38432519b1153d55e7508ddd2233717e553c9bf16064d03e8a6f4afa9",
    "cli-default-alphas/config_digest": "b24ac8050ccb84eda27b58010fbdb23734556f1a58a0f30a913311899fda1af9",
    "cli-default-alphas/calibrate-stdout": "0d9dcb0be491c253f64bc66975b036e4c15f19ae0077bce5fe498292bdd0ac4d",
    "cli-default-alphas/predictions": "d2295853d2839081b01249ae7117c89f31aedb914be40a59bb2f709980ff8071",
    "cli-default-alphas/predictions-content": "f804ff21e8fd573cbcb8f9d22342a6eca05bef10efbd8731bf7b1a3bb87e8e10",
    "cli-default-alphas/report": "47bf69192e95874cf07898f6505869d5114863c087c1fc90ef585c2cf5a8c7f8",
    "cli-default-alphas/evaluate-stdout": "15bdb1b3c37f72cd61a8aea08758711b3e4c5776076aefbb66a0eb1a95f0a134",
    "validate-spec-with-wrapper/exit": "0",
    "validate-spec-with-wrapper/report": "420e565de5ef3b78c9cd1728643473a9e52dc1c3124f6b4e844eb34b221051bb",
    "validate-flags-and-config/exit": "0",
    "validate-flags-and-config/report": "4b23cc81b5209953e99520f721fa430665001441d163953ca6474b0e21dbd63d",
    "help/calibrate": "4b036641cfb53adde390c21bcbf62f79f7cdeec7802c93d111c5c86158be3d13",
    "help/infer": "fafce16964d964ddcf2d6094e590f301d68e6950ef5242a6f9c112b7b61bc1f7",
    "help/validate": "7a2108e1474aef2d46914040368e20919fa3025742627ce4286bd83a1be52d68",
    "in-memory-0/result": "8488d820e8e3b02e946ea2749108451cace17d0d4d389492addaf832a602aaac",
    "in-memory-0/config_digest": "1c9e8f143e0877d0fde857d59ea657afc38f61049772ec2dfa74ada9e4ff6d88",
    "in-memory-1/result": "b321cab7fa7c6dcc47b32e0648bdacc53f7de6deeda71838c7b2bd88a265ed24",
    "in-memory-1/config_digest": "0ffeefb5ea9f83afaa06c0ddecf77855db9b597a135b1f0d9515cc78e77c74f7",
    "in-memory-2/result": "0462426f1a0c18117622b21c201eaebb85e8fcfca5ed600d1c0777df6d99669a",
    "in-memory-2/config_digest": "d354920b2455c08a27d66f2860572db44749d39eb4201671f7192c591273991e",
    "in-memory-3/result": "aabb38d3f498702bf3b931c4da19a57c666e1d836c9d2605ffad3598b9e35c9c",
    "in-memory-3/config_digest": "e460fe34912b7b019a466efca8337e7e0045c5f666dd2c717869fe8f2b8fd3c8",
    "in-memory-4/result": "c58224ae4ed3d1075d1f624a17826381840b00bfaebe480959ad541b9f534346",
    "in-memory-4/config_digest": "21b12ff9e6f98d2212df33be9709acbcfa813d911861612a6abe8f071a029841",
    "in-memory-5/result": "20209189297402417c0d31b5af03f0287177bd9ea2aa214d7142ec704e5a0b97",
    "in-memory-5/config_digest": "92291dfd1a7b36a05dae12ed0083df72364d4fe9c91453a2ab46fd009bb57fa0",
    "partial-0/config_digest": "2a3c6ca8970eeecf9f633b56a88df521fe8aed90cfc519ead64ba31cf89a56f9",
    "partial-1/config_digest": "7cd54677d5a5a7873322d4a5181265efcf0370fce945252d4d90662402a072d4",
    "partial-2/config_digest": "ba23b6c002105d7065dc205251c658356ec410d6cc06af141ea460506ad62704",
    "partial-3/config_digest": "c9f25b4c78d1de2ad2ee811fd67952823a5103f15e70e6c4e9fbae653723062c",
}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record(tmp_path_factory.mktemp("formats"))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_artifact_matches_golden(recorded, key):
    assert recorded[key] == GOLDEN[key]


def test_golden_covers_every_artifact(recorded):
    assert sorted(recorded) == sorted(GOLDEN)
