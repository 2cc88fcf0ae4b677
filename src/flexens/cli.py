"""Command-line entry point.

Subcommands: gen, validate, baseline, calibrate, run, histogram. Exit codes:
0 success, 1 for validation or usage errors, 2 for I/O errors. Output files
and stdout are deterministic functions of the inputs; wall-clock timing is
informational and goes to stderr only.

Calibration and evaluation are meant to use distinct dataset splits. The
calibrate subcommand records its dataset path in the schedule file, and run
refuses to evaluate on that same path unless run itself is passed
--allow-same-split; no key of the schedule file can switch that check off.

Every output file is written atomically: to a temporary file beside it,
then renamed over it. A symlinked --out is followed: the file it resolves
to is replaced from a temporary file in that file's directory, and the link
stays. An --out that exists but is not a regular file (a directory, a FIFO,
a device such as /dev/null) is refused with exit 1 before anything is
written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import calibration, dataset_io, metrics_report, synthgen
from .dataset_io import MANIFEST_NAME
from .errors import ValidationError
from .metrics_report import format_real


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; this CLI reserves 2 for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flexens", description=__doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset directory")
    p_gen.add_argument("--models", type=int, required=True, help="number of models N")
    p_gen.add_argument("--samples", type=int, required=True, help="number of samples M")
    p_gen.add_argument("--classes", type=int, required=True, help="number of classes C")
    p_gen.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    p_gen.add_argument(
        "--signal", type=float, default=synthgen.DEFAULT_SIGNAL_SCALE,
        help="true-class signal magnitude (default %(default)s)",
    )
    p_gen.add_argument(
        "--sigma", type=float, default=synthgen.DEFAULT_NOISE_SIGMA,
        help="per-model Gaussian noise sigma (default %(default)s)",
    )
    p_gen.add_argument(
        "--cost-ms", type=float, default=synthgen.DEFAULT_COST_MS,
        help="per-model cost in milliseconds (default %(default)s)",
    )
    p_gen.add_argument("--out", required=True, help="output dataset directory")

    p_val = sub.add_parser("validate", help="load a dataset and print its summary")
    p_val.add_argument("--data", required=True, help="dataset directory")

    p_base = sub.add_parser("baseline", help="full-ensemble sweep over k = 1..N")
    p_base.add_argument("--data", required=True, help="dataset directory")
    p_base.add_argument("--out", required=True, help="output CSV path")

    p_cal = sub.add_parser("calibrate", help="grid-search stop thresholds")
    p_cal.add_argument("--data", required=True, help="calibration dataset directory")
    p_cal.add_argument(
        "--alpha", type=float, default=calibration.DEFAULT_ALPHA,
        help="latency weight in [0, 1] (default %(default)s)",
    )
    p_cal.add_argument(
        "--grid-step", type=float, default=calibration.DEFAULT_GRID_STEP,
        help="threshold grid step (default %(default)s)",
    )
    p_cal.add_argument("--out", required=True, help="output schedule JSON path")

    p_run = sub.add_parser("run", help="gated execution under a schedule")
    p_run.add_argument("--data", required=True, help="evaluation dataset directory")
    p_run.add_argument("--schedule", required=True, help="schedule JSON path")
    p_run.add_argument("--out", required=True, help="output report CSV path")
    p_run.add_argument(
        "--allow-same-split", action="store_true",
        help="permit evaluating on the schedule's calibration data",
    )

    p_hist = sub.add_parser("histogram", help="margin histogram split by correctness")
    p_hist.add_argument("--data", required=True, help="dataset directory")
    p_hist.add_argument(
        "--ensemble-size", type=int, required=True, help="prefix ensemble size k"
    )
    p_hist.add_argument(
        "--bins", type=int, default=metrics_report.DEFAULT_HISTOGRAM_BINS,
        help="number of equal-width bins over [0, 1] (default %(default)s)",
    )
    p_hist.add_argument(
        "--limit", type=int, default=None,
        help="tally only the first LIMIT samples",
    )
    p_hist.add_argument("--out", required=True, help="output CSV path")
    return parser


def _open_data_dir(directory: str) -> dataset_io.DatasetFiles:
    # commands stream the logits from the payloads, never holding the (N, M, C) tensor
    return dataset_io.open_dataset(Path(directory) / MANIFEST_NAME)


def _cmd_gen(args) -> int:
    config = synthgen.SynthConfig(
        num_models=args.models,
        num_samples=args.samples,
        num_classes=args.classes,
        seed=args.seed,
        signal_scale=args.signal,
        noise_sigma=args.sigma,
        costs_ms=(args.cost_ms,) * args.models,
    )
    synthgen.save_generated(config, args.out)
    print(
        f"wrote {args.out}: models={config.num_models} samples={config.num_samples} "
        f"classes={config.num_classes}"
    )
    return 0


def _cmd_validate(args) -> int:
    dataset = _open_data_dir(args.data)
    dataset.check()
    print(f"models: {dataset.num_models}")
    print(f"samples: {dataset.num_samples}")
    print(f"classes: {dataset.num_classes}")
    print("costs_ms: " + " ".join(format_real(c) for c in dataset.costs_ms))
    return 0


def _cmd_baseline(args) -> int:
    dataset = _open_data_dir(args.data)
    rows = metrics_report.ensemble_size_sweep(dataset)
    metrics_report.write_sweep_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_calibrate(args) -> int:
    dataset = _open_data_dir(args.data)
    schedule = calibration.calibrate(
        dataset, alpha=args.alpha, grid=calibration.GridSpec(step=args.grid_step)
    )
    calibration.save_schedule(
        args.out,
        schedule,
        alpha=args.alpha,
        grid_step=args.grid_step,
        calibration_data=os.path.realpath(args.data),
    )
    print("thresholds: " + " ".join(format_real(t) for t in schedule.thresholds))
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = Path(args.schedule).stem  # the report's config cell, refused before any scoring
    metrics_report._check_config(config)
    schedule_file = calibration.load_schedule(args.schedule)
    if schedule_file.calibration_data == os.path.realpath(args.data) and not args.allow_same_split:
        raise ValidationError(
            f"{args.data} is the split this schedule was calibrated on; evaluate on a "
            "held-out split or pass --allow-same-split"
        )
    dataset = _open_data_dir(args.data)
    rows = metrics_report.flexible_sweep(dataset, [(config, schedule_file.schedule)])
    metrics_report.write_sweep_csv(args.out, rows)
    row = rows[0]
    print(
        f"accuracy={format_real(row.accuracy)} avg_cost_ms={format_real(row.avg_cost_ms)} "
        f"R={format_real(row.latency_ratio)} E={format_real(row.error_increase)} "
        f"avg_models={format_real(row.avg_models)}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_histogram(args) -> int:
    dataset = _open_data_dir(args.data)
    histogram = metrics_report.margin_histogram(
        dataset, ensemble_size=args.ensemble_size, bins=args.bins, limit=args.limit
    )
    metrics_report.write_histogram_csv(args.out, histogram)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "baseline": _cmd_baseline,
    "calibrate": _cmd_calibrate,
    "run": _cmd_run,
    "histogram": _cmd_histogram,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help or a usage error; code already decided
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"{args.command}: {elapsed_ms:.1f} ms wall clock (informational)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
