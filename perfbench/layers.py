"""The traced run: spans around calls into each flexens module, in one process.

    python3 perfbench/layers.py --workload W --seed S --data DIR --out DIR --seconds T

Repeats one pass over the layers on the workload's inputs while another
pass still fits in T seconds (at least once), then repeats the load, stage
table and calibrate calls once under tracemalloc for their memory peaks, so
allocation tracing never inflates a time. Each pass writes the files the CLI
would (report.csv, baseline.csv, hist.csv and the calibrated schedule) under
DIR/pass<i> for the runner to check, and the spans go to DIR/spans.json. The
per-layer values go to stdout as one JSON object; the runner adds
cli.startup_s, which needs fresh interpreters.

Every layer runs on every workload. Stage tables are built explicitly before
calibrate and run_dataset, so those spans exclude the cold tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import tracemalloc
from pathlib import Path

from flexens import calibration, dataset_io, ensemble_core, metrics_report, synthgen
from flexens.cascade_engine import ThresholdSchedule, run_dataset, run_sample, stage_tables
from flexens.dataset_io import MANIFEST_NAME

import workloads as W

PER_CALL_SAMPLES = 2000  # run_sample and ensemble_core calls per pass
EVALUATE_REPEATS = 10  # evaluate_objective calls per pass
GRID = calibration.GridSpec(step=W.GRID_STEP)


class Tracer:
    """Spans (name, start, end, parent) kept in memory; optionally tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []  # [name, start, end, parent index, peak bytes]
        self.memory = memory
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "record", "base")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else None
        self.record = [name, 0.0, 0.0, parent, None]

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        if tracer.memory:
            tracemalloc.reset_peak()
            self.base = tracemalloc.get_traced_memory()[0]
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        if self.tracer.memory:
            self.record[4] = tracemalloc.get_traced_memory()[1] - self.base
        self.tracer._open.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def prepare(span, workload: W.Workload, data: Path):
    """Load the splits, build their stage tables, then calibrate on the first split."""
    with span("prepare"):
        loaded = {}
        for split in workload.splits:
            with span("dataset_io.load_dataset"):
                loaded[split] = dataset_io.load_dataset(data / split / MANIFEST_NAME)
        train, evaluation = loaded[workload.splits[0]], loaded[workload.splits[-1]]
        with span("cascade_engine.stage_tables"):
            stage_tables(evaluation)
        with span("cascade_engine.stage_tables_warm"):
            tables = stage_tables(evaluation)
        if train is not evaluation:
            with span("cascade_engine.stage_tables"):
                stage_tables(train)
        with span("calibration.calibrate"):
            calibrated = calibration.calibrate(train, alpha=W.ALPHA, grid=GRID)
    return train, evaluation, tables, calibrated


def layer_pass(tracer: Tracer, workload: W.Workload, seed: int, data: Path, out: Path) -> dict:
    """One pass over every layer; returns the program's workload counts."""
    span = tracer.span
    out.mkdir(parents=True)
    with span("pass"):
        gen_plan = workload.gen_plan(seed, traced=True)
        if workload.generated:
            data = out
        for split, gen_seed, samples in gen_plan:
            config = synthgen.SynthConfig(W.NUM_MODELS, samples, workload.classes, gen_seed)
            with span("synthgen.generate"):
                generated = synthgen.generate(config)
            with span("dataset_io.save_dataset"):
                dataset_io.save_dataset(generated, out / split)
        del generated

        _, evaluation, tables, calibrated = prepare(span, workload, data)
        calibration.save_schedule(out / W.SCHEDULE_NAME, calibrated, alpha=W.ALPHA,
                                  grid_step=W.GRID_STEP)
        schedule = calibrated
        if workload.fixed_schedule is not None:
            schedule = ThresholdSchedule(workload.fixed_schedule)
        for _ in range(EVALUATE_REPEATS):
            with span("calibration.evaluate_objective"):
                calibration.evaluate_objective(evaluation, schedule, alpha=W.ALPHA)

        with span("cascade_engine.run_dataset"):
            traces = run_dataset(evaluation, schedule)
        with span("metrics_report.report"):
            rep = metrics_report.report(evaluation, traces)
        del traces
        with span("metrics_report.ensemble_size_sweep"):
            rows = metrics_report.ensemble_size_sweep(evaluation)
        with span("metrics_report.margin_histogram"):
            histogram = metrics_report.margin_histogram(
                evaluation, ensemble_size=W.HIST_ENSEMBLE_SIZE, bins=W.HIST_BINS
            )
        report_row = metrics_report.SweepRow(
            config=Path(W.SCHEDULE_NAME).stem,
            accuracy=rep.accuracy,
            avg_cost_ms=rep.avg_cost_ms,
            latency_ratio=rep.latency_ratio,
            error_increase=rep.error_increase,
            avg_models=rep.avg_models,
        )
        with span("metrics_report.write_csv"):
            metrics_report.write_sweep_csv(out / "report.csv", [report_row])
        with span("metrics_report.write_csv"):
            metrics_report.write_sweep_csv(out / "baseline.csv", rows)
        with span("metrics_report.write_csv"):
            metrics_report.write_histogram_csv(out / "hist.csv", histogram)

        logits, costs = evaluation.logits, evaluation.costs_ms
        samples = range(min(PER_CALL_SAMPLES, evaluation.num_samples))
        for i in samples:
            sample = logits[:, i, :]
            with span("cascade_engine.run_sample"):
                run_sample(sample, schedule, costs)
        for i in samples:
            vectors = list(logits[:, i, :])
            with span("ensemble_core.average_logits"):
                averaged = ensemble_core.average_logits(vectors)
            with span("ensemble_core.softmax"):
                probabilities = ensemble_core.softmax(averaged.values)
            with span("ensemble_core.score_margin"):
                ensemble_core.score_margin(probabilities)

    return {
        "exits": [int(c) for c in rep.exit_counts],
        "avg_models": rep.avg_models,
        "saturated_margins": int((tables.margins == 1.0).sum()),
        "bytes_read": sum(f.stat().st_size for f in (data / workload.splits[-1]).iterdir()),
        "generated_normals": W.NUM_MODELS * gen_plan[0][2] * workload.classes,
        "candidates": (W.NUM_MODELS - 1) * len(GRID.values()),
    }


def span_cost_us(repeats: int = 20_000) -> float:
    """Cost of recording one empty span, in microseconds."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / repeats * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    workload = W.WORKLOADS[args.workload]

    tracer = Tracer()
    pass_walls = []
    started = time.perf_counter()
    while W.another_pass(started, pass_walls, args.seconds):
        begin = time.perf_counter()
        out = args.out / f"pass{len(pass_walls)}"
        counts = layer_pass(tracer, workload, args.seed, args.data, out)
        pass_walls.append(time.perf_counter() - begin)
    passes = len(pass_walls)

    # allocation tracing slows pure-Python code several-fold, so only the layers
    # whose peaks are reported run under it
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        prepare(memory.span, workload, args.out / "pass0" if workload.generated else args.data)
    finally:
        tracemalloc.stop()
    _, begin, end, _, _ = memory.spans[0]
    memory_prepare_s = end - begin
    prepare_s = statistics.median(end - begin for name, begin, end, _, _ in tracer.spans
                                  if name == "prepare")

    own = self_times(tracer.spans)
    durations: dict[str, list[float]] = {}
    for (name, *_), own_s in zip(tracer.spans, own):
        durations.setdefault(name, []).append(own_s)
    peaks: dict[str, float] = {}
    for name, _, _, _, peak in memory.spans:
        peaks[name] = max(peaks.get(name, 0), peak)

    def seconds(name):
        return statistics.median(durations[name])

    def micros(name):
        return seconds(name) * 1e6

    def mebibytes(name):
        return peaks[name] / 2**20

    generate_s = seconds("synthgen.generate")
    calibrate_s = seconds("calibration.calibrate")
    metrics = {
        "synthgen.generate_s": generate_s,
        "synthgen.normals": counts["generated_normals"],
        "synthgen.normals_per_s": counts["generated_normals"] / generate_s,
        "dataset_io.save_dataset_s": seconds("dataset_io.save_dataset"),
        "dataset_io.load_dataset_s": seconds("dataset_io.load_dataset"),
        "dataset_io.load_peak_mb": mebibytes("dataset_io.load_dataset"),
        "dataset_io.bytes_read": counts["bytes_read"],
        "cascade_engine.stage_tables_s": seconds("cascade_engine.stage_tables"),
        "cascade_engine.stage_tables_peak_mb": mebibytes("cascade_engine.stage_tables"),
        "cascade_engine.stage_tables_warm_s": seconds("cascade_engine.stage_tables_warm"),
        "cascade_engine.run_dataset_s": seconds("cascade_engine.run_dataset"),
        "cascade_engine.run_sample_us": micros("cascade_engine.run_sample"),
        "cascade_engine.avg_models": counts["avg_models"],
        "cascade_engine.alive_after_stage1": sum(counts["exits"][1:]),
        "cascade_engine.saturated_margins": counts["saturated_margins"],
        "calibration.calibrate_s": calibrate_s,
        "calibration.candidates_scored": counts["candidates"],
        "calibration.candidates_per_s": counts["candidates"] / calibrate_s,
        "calibration.peak_mb": mebibytes("calibration.calibrate"),
        "calibration.evaluate_objective_s": seconds("calibration.evaluate_objective"),
        "metrics_report.report_s": seconds("metrics_report.report"),
        "metrics_report.ensemble_size_sweep_s": seconds("metrics_report.ensemble_size_sweep"),
        "metrics_report.margin_histogram_s": seconds("metrics_report.margin_histogram"),
        "metrics_report.write_csv_s": seconds("metrics_report.write_csv"),
        "ensemble_core.softmax_us": micros("ensemble_core.softmax"),
        "ensemble_core.score_margin_us": micros("ensemble_core.score_margin"),
        "ensemble_core.average_logits_us": micros("ensemble_core.average_logits"),
        "trace.span_overhead_us": span_cost_us(),
        "trace.tracemalloc_overhead_frac": memory_prepare_s / prepare_s - 1.0,
    }
    for k, exits in enumerate(counts["exits"], start=1):
        metrics[f"cascade_engine.exits_k{k}"] = exits

    (args.out / "spans.json").write_text(json.dumps([
        {"name": name, "start": start, "end": end, "parent": parent, "self": own[i]}
        for i, (name, start, end, parent, _) in enumerate(tracer.spans)
    ]) + "\n")
    print(json.dumps({"passes": passes, "metrics": metrics}))


if __name__ == "__main__":
    main()
