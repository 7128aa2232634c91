"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from condet import SynthSpec, calibrate, generate, monte_carlo_validate  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    MC_CONFIG,
    MC_SLACK,
    MC_SPEC,
    PER_LAYER,
    CliPixelwise,
    Dense,
    McSmall,
    execute,
)

# alpha_cnf * (n + 1) must exceed the correction 1 for lambda_cnf_plus to be
# feasible at all, so calibration splits stay at 100 images or more.
TINY = {
    "dense": lambda: Dense(n_cal=100, n_test=30, rounds=2, setup_reps=2),
    "cli-pixelwise": lambda: CliPixelwise(n_cal=100, n_test=30, rounds=1, setup_reps=2),
    "mc-small": lambda: McSmall(trials=2, n_cal=100, n_test=100, rounds=2, sweep_calls=2, setup_reps=2),
}


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_checks_pass(name, trace, tmp_path):
    result, run = execute(TINY[name](), seed=5, seconds=0, trace=bool(trace), workdir=str(tmp_path))
    failures = [line for line in run.lines if line.startswith("FAILED")]
    if name == "mc-small":
        # Two trials make the mean-risk check noise; every other check must hold.
        failures = [line for line in failures if "mean" not in line]
    else:
        assert result["correct"], run.lines
    assert not failures, failures
    assert set(result["metrics"]) == set(PER_LAYER if trace else END_TO_END)
    assert all(m["value"] == m["value"] for m in result["metrics"].values())  # no NaN
    assert any(line.startswith("lambdas ") and "digest=" in line for line in run.lines)


def _check(samples, result):
    return checks.CalibrationCheck(samples, result).run()


@pytest.mark.parametrize("make", [TINY["dense"], TINY["cli-pixelwise"]], ids=["boxwise", "pixelwise"])
def test_calibration_check_rejects_loosened_and_infeasible_lambdas(make):
    workload = make()
    cal = generate(workload.spec(7))[: workload.n_cal]
    result = calibrate(cal, workload.config)
    assert _check(cal, result).failures == []

    config = result.config
    points = checks.visit_points(cal)
    at = points.index(result.lambda_cnf_plus)
    bad = {
        "loosest lambda_loc": replace(result, lambda_loc_plus=config.lambda_loc_bounds[1]),
        "lambda_loc at its lower bound": replace(result, lambda_loc_plus=config.lambda_loc_bounds[0]),
        "loosest lambda_cls": replace(result, lambda_cls_plus=config.lambda_cls_bounds[1]),
        "lambda_cls at its lower bound": replace(result, lambda_cls_plus=config.lambda_cls_bounds[0]),
        "lambda_cnf_plus one breakpoint too high": replace(result, lambda_cnf_plus=points[at - 1]),
        "lambda_cnf_plus one breakpoint too low": replace(
            result, lambda_cnf_plus=points[at + 1], lambda_cnf_minus=min(points[at + 1], result.lambda_cnf_minus)
        ),
        "lambda_cnf_plus off the breakpoints": replace(result, lambda_cnf_plus=result.lambda_cnf_plus + 1e-12),
    }
    for what, loosened in bad.items():
        assert _check(cal, loosened).failures, what


def test_guarantee_check_trips_without_finite_sample_correction():
    # The acceptance suite's negative control: tiny calibration splits
    # without the correction push the mean risks above target + slack.
    spec = replace(MC_SPEC, seed=515, num_classes=4, objects_max=2, box_noise_std=3.0, false_positive_rate=0.3)
    config = replace(MC_CONFIG, alpha_loc=0.15, alpha_cls=0.15, finite_sample_correction=False)
    report = monte_carlo_validate(spec, config, trials=40, n_cal=8, n_test=50)
    assert checks.guarantee_failures(report, MC_SLACK)


def test_inputs_digest_follows_the_seed():
    a, b = (generate(SynthSpec(seed=s, n_images=5)) for s in (1, 2))
    assert checks.samples_digest(a) == checks.samples_digest(generate(SynthSpec(seed=1, n_images=5)))
    assert checks.samples_digest(a) != checks.samples_digest(b)


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
