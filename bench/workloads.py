"""The benchmark's workloads and the loop that measures one of them.

Each workload makes its inputs from the seed, runs timed passes of the calls
a user makes, checks every output outside the timed region, and reports its
metrics. Everything goes through condet's public API; layers are timed from
outside, by spans around the calls into each layer's public functions.

* ``dense``: COCO-val-like density (about 34 detections per image, 80
  classes), 500 calibration and 1000 test images in memory. One pass is
  ``calibrate``, ``evaluate`` and ``infer`` over the test split. Prefix
  matching and the step-1 sweep dominate.
* ``cli-pixelwise``: about 9 detections per image, 800 + 800 images written
  as native JSON at set-up, then ``condet calibrate``, ``infer`` and
  ``evaluate`` run in-process with the pixelwise loss, multiplicative
  margins, APS label sets and GIoU matching. The pixelwise bisection and JSON
  ingestion and writing dominate.
* ``mc-small``: ``monte_carlo_validate`` with the Monte Carlo acceptance
  spec (500 + 500 images per trial, about 3 detections per image): many
  small calibrations, where generation and the fixed cost per ``calibrate``
  call carry the time.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import statistics
from contextlib import redirect_stdout
from dataclasses import replace
from time import perf_counter
from typing import Callable

import numpy as np

from condet import (
    CalibrationConfig,
    LossSpec,
    MatchDistanceSpec,
    PredSetSpec,
    SynthSpec,
    calibrate,
    evaluate,
    generate,
    infer,
    load_dataset,
    load_result,
    monte_carlo_validate,
    save_result,
    seqcrc_step1,
    seqcrc_step2,
)
from condet.cli import main as cli_main
from condet.dataio import DatasetFile, ImageRecord, write_dataset_file

import checks
from tracing import Tracer

#: End-to-end metrics (untraced runs): name -> unit. Every workload reports
#: all of them; what a "pass" is depends on the workload (see ``pass_s``).
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "calibrate_s": "s",
    "evaluate_images_per_s": "1/s",
    "infer_images_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "matching.match_s": "s",
    "matching.calls": "count",
    "matching.pair_distances": "count",
    "calibration.calibrate_s": "s",
    "calibration.step1_s": "s",
    "calibration.step2_loc_s": "s",
    "calibration.step2_cls_s": "s",
    "calibration.breakpoints": "count",
    "dataio.load_dataset_s": "s",
    "dataio.dataset_mb": "MB",
    "dataio.save_result_s": "s",
    "dataio.load_result_s": "s",
    "dataio.write_dataset_file_s": "s",
    "inference_metrics.evaluate_s": "s",
    "inference_metrics.infer_s": "s",
    "synth.generate_s": "s",
    "cli.calibrate_overhead_s": "s",
    "cli.infer_overhead_s": "s",
    "cli.evaluate_overhead_s": "s",
    "work.images": "count",
    "work.detections": "count",
    "work.ground_truths": "count",
    "trace.overhead_s": "s",
}

#: A VM whose cores other tenants share can change speed by up to 2x within
#: minutes, with no steal time to show it, which no number of samples in a
#: 30 s run evens out. So a fixed slice of interpreter work runs before every
#: timed call, and a run's timings are rescaled to the speed at which that
#: slice takes this long: seconds at a steady reference speed.
REFERENCE_SECONDS = 0.02

#: Passes per run at least: two show that repeated calls agree, and a traced
#: run alternates untraced and traced passes.
MIN_PASSES = 2


def _reference_work() -> int:
    """The fixed slice: integer arithmetic, tuple and dict churn and a keyed
    sort, the kinds of work condet's pure-Python paths do. Independent of
    condet, so no change to it moves this."""
    total = 0
    table = {}
    for i in range(60_000):
        total += i * i % 7
        table[i] = (i, float(i) * 0.5)
    return total + len(sorted(table.values(), key=lambda row: -row[1]))


class Aborted(Exception):
    """An operation raised; the run stops and reports what it has."""


class Op:
    """One or more identical calls into condet: the first result, the mean
    wall time of a call, and why the calls failed, if they did."""

    __slots__ = ("name", "calls", "value", "seconds", "reference", "errors")

    def __init__(self, name: str, calls: int = 1) -> None:
        self.name = name
        self.calls = calls
        self.value = None
        self.seconds = float("nan")
        #: Duration of the reference slice run just before the calls.
        self.reference = float("nan")
        self.errors: list[str] = []


class Run:
    """Book-keeping of one benchmark run."""

    def __init__(self, trace: bool, workdir: str) -> None:
        self.workdir = workdir
        self.tracer = Tracer(enabled=trace)
        self.ops: list[Op] = []
        self.lines: list[str] = []
        self.tolerance_uses: list[str] = []
        self.counts: dict[str, int] = {}

    def call(self, name: str, fn: Callable, *args, repeat: int = 1) -> Op:
        """Call ``fn(*args)`` ``repeat`` times in a row, each in its own span.

        Calls that take milliseconds are repeated so that one sample spans
        long enough to even out the machine's short stalls; every repeat must
        return what the first call returned.
        """
        op = Op(name, repeat)
        self.ops.append(op)
        # Every sample starts from the same collector state, so a full
        # collection owed by earlier garbage does not land in a random call.
        gc.collect()
        start = perf_counter()
        _reference_work()
        op.reference = perf_counter() - start
        total = 0.0
        try:
            for i in range(repeat):
                with self.tracer.span(name) as sp:
                    value = fn(*args)
                total += sp.duration
                if i == 0:
                    op.value = value
                elif value != op.value:
                    op.errors.append(f"call {i + 1} of {repeat} returned another result")
        except Exception as exc:  # any failure of condet counts against the run
            op.errors.append(f"raised {type(exc).__name__}: {exc}")
            raise Aborted(name) from exc
        op.seconds = total / repeat
        return op

    def reject(self, op: Op, why: str) -> None:
        op.errors.append(why)

    def seconds(self, name: str) -> list[float]:
        """Rescaled mean call times of the successful ``name`` samples."""
        return [self.scaled(op) for op in self.ops if op.name == name and not op.errors]

    def scaled(self, op: Op) -> float:
        """``op``'s mean call time at the reference speed.

        The machine's speed during the calls is taken as the mean of the
        reference slices just before and just after them (the next call's).
        """
        at = self.ops.index(op)
        refs = [o.reference for o in self.ops[at : at + 2]]
        return op.seconds * REFERENCE_SECONDS / statistics.fmean(refs)

    def slowdown(self) -> float:
        """The run's median reference slice over ``REFERENCE_SECONDS``."""
        return statistics.median(op.reference for op in self.ops) / REFERENCE_SECONDS

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check_calibration(self, op: Op, samples, result) -> None:
        """Check one calibration result; the first one checked also sets the counts."""
        check = checks.CalibrationCheck(samples, result, self.tracer).run()
        for why in check.failures:
            self.reject(op, why)
        self.tolerance_uses.extend(check.tolerance_uses)
        for key, value in check.counts.items():
            self.counts.setdefault(key, value)

    def check_outputs(self, evaluate_op: Op, infer_op: Op, samples, result, risks, predictions) -> None:
        eval_failures, infer_failures, uses = checks.check_outputs(samples, result, risks, predictions)
        for op, failures in ((evaluate_op, eval_failures), (infer_op, infer_failures)):
            for why in failures:
                self.reject(op, why)
        self.tolerance_uses.extend(uses)

    def record_lambdas(self, label: str, result) -> None:
        values = checks.lambdas(result)
        names = ("lambda_cnf_plus", "lambda_cnf_minus", "lambda_loc_plus", "lambda_cls_plus")
        text = " ".join(f"{n}={v!r}" for n, v in zip(names, values))
        self.lines.append(f"lambdas {label} {text} digest={checks.lambdas_digest(values)}")


def _work(samples) -> dict[str, int]:
    return {
        "work.images": len(samples),
        "work.detections": sum(len(s.detections) for s in samples),
        "work.ground_truths": sum(len(s.ground_truths) for s in samples),
    }


def _infer_all(samples, result):
    return [infer(s.detections, result, image_id=s.image_id) for s in samples]


def _risks(report) -> tuple[float, float, float, float]:
    return (report.cnf_risk, report.loc_risk, report.cls_risk, report.global_risk)


def _run_cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"condet {argv[0]} exited with code {code}")
    return code


def _flush_files(directory: str) -> None:
    """Write the run's own files to disk now, outside any timed region, so
    their write-back does not compete with later timed calls."""
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as fh:
            os.fsync(fh.fileno())


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _as_dataset(samples, width: float, height: float, num_classes: int) -> DatasetFile:
    return DatasetFile(
        num_classes=num_classes,
        class_names=tuple(f"class_{k}" for k in range(num_classes)),
        images=tuple(
            ImageRecord(s.image_id, width, height, s.ground_truths, s.detections) for s in samples
        ),
    )


def _step_probe(run: Run, samples, config: CalibrationConfig, result) -> None:
    """Time the two steps through their own entry points; they must agree with ``calibrate``."""
    op = run.call("calibration.seqcrc_step1", seqcrc_step1, samples, config)
    if op.value != (result.lambda_cnf_plus, result.lambda_cnf_minus):
        run.reject(op, f"seqcrc_step1 returned {op.value!r}, calibrate returned other λ_cnf's")
    for task, lam in (("loc", result.lambda_loc_plus), ("cls", result.lambda_cls_plus)):
        op = run.call(f"calibration.seqcrc_step2.{task}", seqcrc_step2, samples, result.lambda_cnf_minus, task, config)
        if op.value != lam:
            run.reject(op, f"seqcrc_step2 {task} returned {op.value!r}, calibrate returned {lam!r}")


def _file_probe(run: Run, config, cal_path: str, test_path: str, flags: list[str], expected) -> dict[str, float]:
    """Run each CLI command on files, then right after it the public calls
    it covers; the difference is the CLI's own time (argument parsing, the
    config digest, building and writing its output)."""
    result_path = run.path("probe-result.json")
    argv = {
        "calibrate": ["calibrate", "--dataset", cal_path, "--out", result_path, *flags],
        "infer": ["infer", "--result", result_path, "--dataset", test_path, "--out", run.path("probe-predictions.json")],
        "evaluate": ["evaluate", "--result", result_path, "--dataset", test_path, "--out", run.path("probe-report.json")],
    }
    out = {}
    for cmd, args in argv.items():
        cli = run.call(f"cli.{cmd}", _run_cli, args)
        with run.tracer.span(f"replay.{cmd}"):
            if cmd == "calibrate":
                cal = run.call("dataio.load_dataset", load_dataset, cal_path, config.prefilter_threshold)
                result = run.call("calibration.calibrate", calibrate, cal.value, config)
                covered = [cal, result, run.call("dataio.save_result", save_result, result.value, run.path("probe-replay-result.json"))]
                fresh = run.call("dataio.load_result", load_result, result_path).value
                for got, source in ((fresh, "condet calibrate"), (result.value, "calibrate on the loaded file")):
                    if checks.lambdas(got) != checks.lambdas(expected) or got.config != expected.config:
                        run.reject(cli, f"{source} disagrees with the workload's own calibration")
            else:
                loaded = run.call("dataio.load_result", load_result, result_path)
                test = run.call("dataio.load_dataset", load_dataset, test_path, loaded.value.config.prefilter_threshold)
                fn = _infer_all if cmd == "infer" else evaluate
                covered = [loaded, test, run.call(f"inference_metrics.{cmd}", fn, test.value, loaded.value)]
        out[f"cli.{cmd}_overhead_s"] = cli.seconds - sum(op.seconds for op in covered)
    out["dataio.dataset_mb"] = os.path.getsize(cal_path) / 1e6
    return out


def _check_repeats(run: Run, first: dict[str, list[Op]], later: dict[str, list[Op]]) -> None:
    """Every call of a kind must return what the first pass's first one did.

    Compared results are dropped at once, so memory does not grow with the
    number of passes that fit into the run.
    """
    for key, ops in later.items():
        reference = first[key][0]
        for op in ops:
            if op is not reference:
                if op.value != reference.value:
                    run.reject(op, f"{key} differs from its first call")
                op.value = None


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Dense:
    name = "dense"

    def __init__(self, n_cal: int = 500, n_test: int = 1000, rounds: int = 5, setup_reps: int = 3) -> None:
        self.n_cal = n_cal
        self.n_test = n_test
        #: evaluate/infer calls per pass: one takes ~0.1 s against ~3.4 s for
        #: calibrate, and samples spread over the run even out the machine's
        #: slow spells.
        self.rounds = rounds
        self.setup_reps = setup_reps
        self.config = CalibrationConfig(0.02, 0.1, 0.1, lambda_loc_bounds=(0.0, 2000.0))
        self.flags = ["--alpha-cnf", "0.02", "--alpha-loc", "0.1", "--alpha-cls", "0.1",
                      "--lambda-loc-min", "0", "--lambda-loc-max", "2000"]

    def spec(self, seed: int) -> SynthSpec:
        return SynthSpec(
            seed=seed, n_images=self.n_cal + self.n_test, num_classes=80,
            image_width=640.0, image_height=480.0, objects_min=1, objects_max=8,
            box_noise_std=8.0, false_positive_rate=30.0,
        )

    def setup(self, run: Run, seed: int) -> None:
        self.cal = self.test = None
        samples = run.call("synth.generate", generate, self.spec(seed)).value
        self.cal, self.test = samples[: self.n_cal], samples[self.n_cal :]

    def inputs(self):
        return self.cal + self.test

    def run_pass(self, run: Run, index: int) -> dict[str, list[Op]]:
        cal = run.call("calibration.calibrate", calibrate, self.cal, self.config)
        out = {"calibrate": [cal], "evaluate": [], "infer": []}
        for _ in range(self.rounds):
            out["evaluate"].append(run.call("inference_metrics.evaluate", evaluate, self.test, cal.value))
            out["infer"].append(run.call("inference_metrics.infer", _infer_all, self.test, cal.value))
        return out

    def check(self, run: Run, passes: list[dict[str, list[Op]]]) -> None:
        cal, ev, inf = (passes[0][key][0] for key in ("calibrate", "evaluate", "infer"))
        run.record_lambdas(self.name, cal.value)
        run.check_calibration(cal, self.cal, cal.value)
        preds = [(p.image_id, checks.prediction_rows(p)) for p in inf.value]
        run.check_outputs(ev, inf, self.test, cal.value, _risks(ev.value), preds)

    def end_to_end(self, run: Run) -> dict[str, float]:
        calibrate_s = statistics.median(run.seconds("calibration.calibrate"))
        evaluate_s = statistics.median(run.seconds("inference_metrics.evaluate"))
        infer_s = statistics.median(run.seconds("inference_metrics.infer"))
        return {
            "pass_s": calibrate_s + evaluate_s + infer_s,
            "calibrate_s": calibrate_s,
            "evaluate_images_per_s": self.n_test / evaluate_s,
            "infer_images_per_s": self.n_test / infer_s,
        }

    def probes(self, run: Run, passes) -> dict[str, float]:
        result = passes[0]["calibrate"][0].value
        _step_probe(run, self.cal, self.config, result)
        cal_path = run.path("cal.json")
        run.call("dataio.write_dataset_file", write_dataset_file, _as_dataset(self.cal, 640.0, 480.0, 80), cal_path)
        # The 1000-image test split would be a ~110 MB file; the CLI probe
        # reads the calibration file for all three commands instead.
        out = _file_probe(run, self.config, cal_path, cal_path, self.flags, result)
        out.update(_work(self.inputs()))
        return out


class CliPixelwise:
    name = "cli-pixelwise"

    def __init__(self, n_cal: int = 800, n_test: int = 800, rounds: int = 2, setup_reps: int = 3) -> None:
        self.n_cal = n_cal
        self.n_test = n_test
        #: infer/evaluate commands per pass: one takes ~0.8 s against ~5 s
        #: for calibrate.
        self.rounds = rounds
        self.setup_reps = setup_reps
        self.config = CalibrationConfig(
            0.02, 0.1, 0.1,
            loss_spec=LossSpec(localization_kind="pixelwise"),
            predset_spec=PredSetSpec(localization_kind="multiplicative", classification_kind="aps"),
            match_spec=MatchDistanceSpec("giou"),
        )
        self.flags = ["--alpha-cnf", "0.02", "--alpha-loc", "0.1", "--alpha-cls", "0.1",
                      "--loss-localization", "pixelwise", "--predset-localization", "multiplicative",
                      "--predset-classification", "aps", "--match", "giou"]

    def spec(self, seed: int) -> SynthSpec:
        return SynthSpec(
            seed=seed, n_images=self.n_cal + self.n_test, num_classes=80,
            image_width=640.0, image_height=480.0, objects_min=1, objects_max=8,
            box_noise_std=8.0, false_positive_rate=5.0,
        )

    def setup(self, run: Run, seed: int) -> None:
        self.cal = self.test = None
        samples = run.call("synth.generate", generate, self.spec(seed)).value
        self.cal, self.test = samples[: self.n_cal], samples[self.n_cal :]
        self.workdir = run.workdir
        self.cal_path, self.test_path = run.path("cal.json"), run.path("test.json")
        for split, path in ((self.cal, self.cal_path), (self.test, self.test_path)):
            run.call("dataio.write_dataset_file", write_dataset_file, _as_dataset(split, 640.0, 480.0, 80), path)

    def inputs(self):
        return self.cal + self.test

    def _outputs(self, index: int) -> tuple[str, str, str]:
        return tuple(os.path.join(self.workdir, f"{kind}-{index}.json") for kind in ("result", "predictions", "report"))

    def run_pass(self, run: Run, index: int) -> dict[str, list[Op]]:
        """The three commands; each call's value is the digest of the file it wrote."""
        result, preds, report = self._outputs(index)

        def command(name: str, argv: list[str], out: str) -> Op:
            op = run.call(f"cli.{name}", _run_cli, argv)
            op.value = _file_digest(out)
            return op

        out = {"calibrate": [command("calibrate", ["calibrate", "--dataset", self.cal_path, "--out", result, *self.flags], result)],
               "infer": [], "evaluate": []}
        for _ in range(self.rounds):
            out["infer"].append(command("infer", ["infer", "--result", result, "--dataset", self.test_path, "--out", preds], preds))
            out["evaluate"].append(command("evaluate", ["evaluate", "--result", result, "--dataset", self.test_path, "--out", report], report))
        return out

    def check(self, run: Run, passes: list[dict[str, list[Op]]]) -> None:
        cal, ev, inf = (passes[0][key][0] for key in ("calibrate", "evaluate", "infer"))
        for split, path in ((self.cal, self.cal_path), (self.test, self.test_path)):
            if checks.samples_digest(load_dataset(path)) != checks.samples_digest(split):
                run.reject(cal, f"{os.path.basename(path)} does not load back as written")
        result_path, preds_path, report_path = self._outputs(0)
        result = load_result(result_path)
        run.record_lambdas(self.name, result)
        run.check_calibration(cal, self.cal, result)
        with open(preds_path, encoding="utf-8") as fh:
            preds = [(e["image_id"], checks.json_prediction_rows(e)) for e in json.load(fh)["predictions"]]
        with open(report_path, encoding="utf-8") as fh:
            rep = json.load(fh)["report"]
        risks = (rep["cnf_risk"], rep["loc_risk"], rep["cls_risk"], rep["global_risk"])
        run.check_outputs(ev, inf, self.test, result, risks, preds)

    def end_to_end(self, run: Run) -> dict[str, float]:
        calibrate_s = statistics.median(run.seconds("cli.calibrate"))
        evaluate_s = statistics.median(run.seconds("cli.evaluate"))
        infer_s = statistics.median(run.seconds("cli.infer"))
        return {
            "pass_s": calibrate_s + infer_s + evaluate_s,
            "calibrate_s": calibrate_s,
            "evaluate_images_per_s": self.n_test / evaluate_s,
            "infer_images_per_s": self.n_test / infer_s,
        }

    def probes(self, run: Run, passes) -> dict[str, float]:
        result = load_result(self._outputs(0)[0])
        _step_probe(run, self.cal, self.config, result)
        out = _file_probe(run, self.config, self.cal_path, self.test_path, self.flags, result)
        out.update(_work(self.inputs()))
        return out


#: Spec and configuration of the Monte Carlo acceptance criterion (restated,
#: not imported from the tests); the seed is replaced by the benchmark's.
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
#: The acceptance criterion's tolerance on each mean test risk.
MC_SLACK = 0.01


class McSmall:
    name = "mc-small"

    def __init__(self, trials: int = 20, n_cal: int = 500, n_test: int = 500,
                 rounds: int = 10, sweep_calls: int = 5, setup_reps: int = 9) -> None:
        #: 20 trials keep the mean-risk check's false alarms rare: at seed the
        #: mean loc risk is ~0.098 with a per-trial spread of ~0.015.
        self.trials = trials
        self.n_cal = n_cal
        self.n_test = n_test
        #: calibrate/evaluate/infer samples per pass, next to one validate
        #: call of ~5 s. One calibrate takes ~0.08 s; one evaluate or infer
        #: sweep of the test split ~0.01 s, so ``sweep_calls`` of them make
        #: one sample.
        self.rounds = rounds
        self.sweep_calls = sweep_calls
        self.setup_reps = setup_reps
        self.config = MC_CONFIG
        self.flags = ["--alpha-cnf", "0.02", "--alpha-loc", "0.1", "--alpha-cls", "0.1",
                      "--lambda-loc-min", "0", "--lambda-loc-max", "200"]

    def trial_seeds(self, count: int) -> list[int]:
        """Sub-seeds of ``monte_carlo_validate``'s trials, derived the same way."""
        children = np.random.SeedSequence(self.spec.seed).spawn(count)
        return [int(c.generate_state(1)[0]) for c in children]

    def trial_spec(self, trial_seed: int) -> SynthSpec:
        return replace(self.spec, seed=trial_seed, n_images=self.n_cal + self.n_test)

    def setup(self, run: Run, seed: int) -> None:
        # The timed calibrate/evaluate/infer calls use trial 0's split.
        self.spec = replace(MC_SPEC, seed=seed)
        self.cal = self.test = None
        samples = run.call("synth.generate", generate, self.trial_spec(self.trial_seeds(1)[0])).value
        self.cal, self.test = samples[: self.n_cal], samples[self.n_cal :]

    def inputs(self):
        return self.cal + self.test

    def run_pass(self, run: Run, index: int) -> dict[str, list[Op]]:
        validate = run.call(
            "synth.monte_carlo_validate", monte_carlo_validate,
            self.spec, self.config, self.trials, self.n_cal, self.n_test,
        )
        out = {"validate": [validate], "calibrate": [], "evaluate": [], "infer": []}
        for _ in range(self.rounds):
            cal = run.call("calibration.calibrate", calibrate, self.cal, self.config)
            out["calibrate"].append(cal)
            out["evaluate"].append(run.call("inference_metrics.evaluate", evaluate, self.test, cal.value, repeat=self.sweep_calls))
            out["infer"].append(run.call("inference_metrics.infer", _infer_all, self.test, cal.value, repeat=self.sweep_calls))
        return out

    def check(self, run: Run, passes: list[dict[str, list[Op]]]) -> None:
        val, cal, ev, inf = (passes[0][key][0] for key in ("validate", "calibrate", "evaluate", "infer"))
        report = val.value
        for why in checks.guarantee_failures(report, MC_SLACK):
            run.reject(val, why)
        run.record_lambdas(f"{self.name} trial 0", cal.value)
        run.lines.append(
            "validate per_trial_risks digest="
            + hashlib.sha256(repr(report.per_trial_risks).encode()).hexdigest()[:16]
        )
        run.check_calibration(cal, self.cal, cal.value)
        preds = [(p.image_id, checks.prediction_rows(p)) for p in inf.value]
        run.check_outputs(ev, inf, self.test, cal.value, _risks(ev.value), preds)
        if _risks(ev.value) != report.per_trial_risks[0]:
            run.reject(ev, "trial 0 of monte_carlo_validate differs from evaluate on the same split")

    def end_to_end(self, run: Run) -> dict[str, float]:
        return {
            "pass_s": statistics.median(run.seconds("synth.monte_carlo_validate")) / self.trials,
            "calibrate_s": statistics.median(run.seconds("calibration.calibrate")),
            "evaluate_images_per_s": self.n_test / statistics.median(run.seconds("inference_metrics.evaluate")),
            "infer_images_per_s": self.n_test / statistics.median(run.seconds("inference_metrics.infer")),
        }

    def probes(self, run: Run, passes) -> dict[str, float]:
        result = passes[0]["calibrate"][0].value
        _step_probe(run, self.cal, self.config, result)
        cal_path, test_path = run.path("cal.json"), run.path("test.json")
        for split, path in ((self.cal, cal_path), (self.test, test_path)):
            run.call("dataio.write_dataset_file", write_dataset_file, _as_dataset(split, 64.0, 64.0, 8), path)
        out = _file_probe(run, self.config, cal_path, test_path, self.flags, result)
        out.update(self._replay_validate(run, passes[0]["validate"][0]))
        return out

    def _replay_validate(self, run: Run, validate_op: Op) -> dict[str, int]:
        """Replay ``monte_carlo_validate``'s loop with spans around each call;
        it must reproduce the untraced call's ``per_trial_risks`` exactly."""
        rows = []
        work = dict.fromkeys(("work.images", "work.detections", "work.ground_truths"), 0)
        with run.tracer.span("replay.validate"):
            for trial_seed in self.trial_seeds(self.trials):
                samples = run.call("synth.generate", generate, self.trial_spec(trial_seed)).value
                for key, value in _work(samples).items():
                    work[key] += value
                result = run.call("calibration.calibrate", calibrate, samples[: self.n_cal], self.config).value
                report = run.call("inference_metrics.evaluate", evaluate, samples[self.n_cal :], result).value
                rows.append(_risks(report))
        if tuple(rows) != validate_op.value.per_trial_risks:
            run.reject(validate_op, "the traced replay does not reproduce per_trial_risks")
        return work


WORKLOADS = {w.name: w for w in (Dense, CliPixelwise, McSmall)}


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------


def execute(workload, seed: int, seconds: float, trace: bool, workdir: str) -> tuple[dict, Run]:
    """Set up, measure for ``seconds``, check, and report one workload.

    Returns the result object (``correct``, ``attempted``, ``failed``,
    ``metrics``) and the run, whose ``lines`` describe it. Raises
    ``Aborted`` when not even one pass completed.
    """
    run = Run(trace, workdir)

    def busy(ops: list[Op]) -> float:
        """Time of a set-up or pass: its calls' own times, at the reference speed."""
        return sum(run.scaled(op) * op.calls for op in ops)

    digests = set()
    setup_ops = []
    for _ in range(workload.setup_reps):
        first_op = len(run.ops)
        with run.tracer.span("setup"):
            workload.setup(run, seed)
        setup_ops.append(run.ops[first_op:])
        _flush_files(workdir)
        digests.add(checks.samples_digest(workload.inputs()))
        for op in run.ops[first_op:]:
            op.value = None  # the workload keeps the inputs it needs
    if len(digests) != 1:
        run.reject(run.ops[0], "set-up made different inputs from the same seed")
    work = _work(workload.inputs())
    run.lines.append(
        f"inputs {workload.name} seed={seed} digest={min(digests)} "
        + " ".join(f"{k.split('.')[1]}={v}" for k, v in work.items())
    )

    passes = []
    traced_passes: list[list[Op]] = []
    untraced_passes: list[list[Op]] = []
    pass_walls: list[float] = []
    start = perf_counter()
    # Stop before a pass that would likely end after the deadline.
    while len(passes) < MIN_PASSES or (
        perf_counter() - start + statistics.median(pass_walls) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        run.tracer.enabled = traced
        first_op = len(run.ops)
        try:
            with run.tracer.span("pass") as wall:
                out = workload.run_pass(run, len(passes))
        except Aborted:
            break
        finally:
            run.tracer.enabled = trace
        # The calls' own times, without the collections between them.
        (traced_passes if traced else untraced_passes).append(run.ops[first_op:])
        pass_walls.append(wall.duration)
        _flush_files(workdir)
        passes.append(out)
        _check_repeats(run, passes[0], out)
    if not passes:
        raise Aborted(f"no pass of {workload.name} completed")
    # Taken before the checks, whose caches are the benchmark's, not condet's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    aborted = any(op.errors for op in run.ops)

    workload.check(run, passes)
    metrics: dict[str, float] = {}
    if trace and not aborted:
        metrics.update(workload.probes(run, passes))
        tr = run.tracer
        metrics.update(run.counts)
        metrics.update({
            "matching.match_s": tr.layer_time("matching.match"),
            "calibration.calibrate_s": tr.layer_time("calibration.calibrate"),
            "calibration.step1_s": tr.layer_time("calibration.seqcrc_step1"),
            "calibration.step2_loc_s": tr.layer_time("calibration.seqcrc_step2.loc"),
            "calibration.step2_cls_s": tr.layer_time("calibration.seqcrc_step2.cls"),
            "dataio.load_dataset_s": tr.layer_time("dataio.load_dataset"),
            "dataio.save_result_s": tr.layer_time("dataio.save_result"),
            "dataio.load_result_s": tr.layer_time("dataio.load_result"),
            "dataio.write_dataset_file_s": tr.layer_time("dataio.write_dataset_file"),
            "inference_metrics.evaluate_s": tr.layer_time("inference_metrics.evaluate"),
            "inference_metrics.infer_s": tr.layer_time("inference_metrics.infer"),
            "synth.generate_s": tr.layer_time("synth.generate"),
            "trace.overhead_s": statistics.median(map(busy, traced_passes)) - statistics.median(map(busy, untraced_passes)),
        })
        # A check that stopped early leaves counts unset; report no metrics then.
        metrics = {name: metrics[name] for name in PER_LAYER} if PER_LAYER.keys() <= metrics.keys() else {}
    elif not trace:
        metrics = {"setup_s": statistics.median(map(busy, setup_ops))}
        metrics.update(workload.end_to_end(run))
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics = {name: metrics[name] for name in END_TO_END}

    run.lines.append("counts " + " ".join(f"{k}={v}" for k, v in run.counts.items()))
    for name in dict.fromkeys(op.name for op in run.ops):
        values = run.seconds(name)
        if values:
            raw = [op.seconds for op in run.ops if op.name == name and not op.errors]
            run.lines.append(
                f"timings {name} n={len(values)} median={statistics.median(values)!r} "
                f"min={min(values)!r} max={max(values)!r} raw_median={statistics.median(raw)!r}"
            )
    units = END_TO_END if not trace else PER_LAYER
    slowdown = run.slowdown()
    run.lines.append(f"reference slice n={len(run.ops)} slowdown={slowdown!r}")
    if trace:
        # Span times are rescaled by the run's median slowdown.
        for name, value in metrics.items():
            if units[name] == "s":
                metrics[name] = value / slowdown
    attempted = sum(op.calls for op in run.ops)
    failed = sum(op.calls for op in run.ops if op.errors)
    for op in run.ops:
        for why in op.errors:
            run.lines.append(f"FAILED {op.name}: {why}")
    run.lines.append(f"tolerance_uses {len(run.tolerance_uses)}")
    run.lines.extend(f"  tolerance {use}" for use in run.tolerance_uses)
    run.lines.append(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    return result, run
