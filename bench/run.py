"""condet benchmark: one workload per process, single-threaded.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Workloads are ``dense``, ``cli-pixelwise`` and ``mc-small`` (see
``workloads.py``). The run builds its inputs from ``--seed``, sets up several
times, measures passes for ``--seconds`` (at least two), checks every output
outside the timed region and prints, one per line, the inputs digest, the
calibrated λ's with their digest, each failure, each use of the comparison
tolerance and every metric with its unit. The last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``; a traced
run also writes its spans to ``.bench_out/``).

End-to-end metrics (every workload reports all six; the workload-specific
names ``cli_calibrate_s``, ``cli_infer_s``, ``cli_evaluate_s`` and
``validate_trials_per_s`` are printed next to the ones they come from):

* ``setup_s``: median of the run's set-ups.
* ``pass_s``: one calibrate, evaluate and infer (``dense``), the three CLI
  commands (``cli-pixelwise``), one Monte Carlo trial (``mc-small``,
  1 / ``validate_trials_per_s``); a sum of the medians of its calls.
* ``calibrate_s``: one calibration (``cli_calibrate_s`` on
  ``cli-pixelwise``, which includes loading the file and saving the result).
* ``evaluate_images_per_s`` / ``infer_images_per_s``: test images over the
  median time of one ``evaluate`` / ``infer`` sweep of the test split
  (``cli_evaluate_s`` / ``cli_infer_s`` on ``cli-pixelwise``).
* ``peak_rss_mb``: peak resident set of the process before the checks.

Timings and rates are rescaled to a steady reference speed: a fixed slice of
interpreter work runs before every timed call, and each sample is multiplied
by ``REFERENCE_SECONDS`` over the mean of the slices just before and after it
(see ``workloads.py`` and ``README.md``). The ``timings`` lines print every
rescaled median next to its raw one.

``fail_ratio`` is printed (failed operations over attempted ones) and is
carried by ``failed`` and ``attempted`` in the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("dense", "cli-pixelwise", "mc-small")

#: Workload-specific names of end-to-end metrics, printed next to the ones
#: they come from.
ALIASES = {
    "cli-pixelwise": {
        "cli_calibrate_s": ("calibrate_s", "s", lambda v, n: v),
        "cli_infer_s": ("infer_images_per_s", "s", lambda v, n: n / v),
        "cli_evaluate_s": ("evaluate_images_per_s", "s", lambda v, n: n / v),
    },
    "mc-small": {
        "validate_trials_per_s": ("pass_s", "1/s", lambda v, n: 1.0 / v),
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "condet", "__init__.py")):
        print(f"error: no condet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS, Aborted, execute

    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        try:
            result, run = execute(workload, args.seed, args.seconds, bool(args.trace), workdir)
        except Aborted as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            run.tracer.write(path)
            run.lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    if not args.trace:
        for alias, (name, unit, convert) in ALIASES.get(args.workload, {}).items():
            value = convert(result["metrics"][name]["value"], workload.n_test)
            print(f"metric {alias} {value!r} {unit} (from {name})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
