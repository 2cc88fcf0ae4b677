"""Aggregation of cascade runs into reports, histograms, and sweep tables.

Latency here is modeled, never measured: costs come from the dataset
manifest, so every number in a report is deterministic. CSV outputs use
fixed headers and 6-significant-digit reals so downstream plotting can be
scripted against byte-stable files. The R and E columns are the normalized
latency and relative error increase of gated execution versus always
running the full ensemble. score_counts is the one code that turns a run's
per-stage exit counts and wrong count into accuracy, cost, R and E: report
scores a gated run through it, ensemble_size_sweep scores row k as the run
in which every sample stops after k models, and calibration scores its
candidates with it. So a baseline row and a gated run that stops at the
same stage are the same numbers. score_counts sums the gated cost over
stages left to right with one rounding per step, a fused multiply-add
computed exactly in integers, and calls no BLAS kernel, so every R and E
is the same on every CPU. Every CSV is written atomically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cascade_engine import CascadeRun, StageTables, ThresholdSchedule, run_dataset, stage_tables
from .dataset_io import DatasetFiles, EnsembleDataset, write_atomic

DEFAULT_HISTOGRAM_BINS = 50
SWEEP_CSV_HEADER = "config,accuracy,avg_cost_ms,R,E,avg_models"
HISTOGRAM_CSV_HEADER = "bin_lo,bin_hi,correct,wrong"


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate outcome of one gated run over a dataset."""

    accuracy: float
    avg_cost_ms: float
    avg_models: float
    latency_ratio: float
    error_increase: float
    exit_counts: np.ndarray  # samples stopping after k models, index k-1


@dataclass(frozen=True)
class MarginHistogram:
    """Margin distribution split by top-1 correctness."""

    bin_edges: np.ndarray
    correct_counts: np.ndarray
    wrong_counts: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    config: str
    accuracy: float
    avg_cost_ms: float
    latency_ratio: float
    error_increase: float
    avg_models: float


def format_real(value: float) -> str:
    """6 significant digits, '.' decimal separator."""
    return format(float(value), ".6g")


def relative_error_increase(flexible_error: float, full_error: float) -> float:
    """(err_flex - err_full) / err_full, falling back to the absolute flexible
    error when the baseline error is zero (possible on tiny fixtures)."""
    if full_error == 0.0:
        return flexible_error
    return (flexible_error - full_error) / full_error


def score_counts(tables: StageTables, exit_counts: np.ndarray, wrong: int) -> EvaluationReport:
    """Score a run given only its per-stage exit counts and its number of wrong predictions.

    exit_counts[k-1] is the number of samples stopping after k models (int64).
    report, ensemble_size_sweep and calibrate (which never materializes
    `used`) all score here, so every R and E comes from the same arithmetic
    in the same order.

    The gated cost total is summed over stages left to right, each step
    total = fma(count_k, cum_cost_k, total): the exact value rounded once, as
    IEEE 754 fusedMultiplyAdd (C fma) gives it, and inf beyond the float
    range. Both floats are exact fractions with power-of-two denominators,
    so the step is one correctly rounded int / int division. Zero counts are
    skipped, which is exact since fma(0, x, t) = t for finite x. No BLAS
    kernel is involved, so the sum, and with it every R, E and calibration
    tie-break, is the same on every CPU. Every other value comes from IEEE
    + - * / on Python ints and floats, which round the same everywhere, and
    every real field is a Python float.
    """
    num_samples = tables.num_samples
    wrong = int(wrong)
    gated_cost_total, models_total = 0.0, 0
    for k, (count, cost) in enumerate(zip(exit_counts.tolist(), tables.cum_costs_ms.tolist()), 1):
        if count:
            models_total += k * count
            try:
                (p, q), (r, s) = cost.as_integer_ratio(), gated_cost_total.as_integer_ratio()
                d = max(q, s)  # both denominators are powers of two
                gated_cost_total = (count * p * (d // q) + r * (d // s)) / d
            except OverflowError:  # beyond the float range, where fma gives inf
                gated_cost_total = np.inf
    full_cost_total = num_samples * float(tables.cum_costs_ms[-1])
    full_error = int(tables.wrong_counts[-1]) / num_samples

    return EvaluationReport(
        accuracy=(num_samples - wrong) / num_samples,
        avg_cost_ms=gated_cost_total / num_samples,
        avg_models=models_total / num_samples,
        latency_ratio=gated_cost_total / full_cost_total,
        error_increase=relative_error_increase(wrong / num_samples, full_error),
        exit_counts=exit_counts,
    )


def report(dataset: EnsembleDataset | DatasetFiles, run: CascadeRun) -> EvaluationReport:
    """Score a run_dataset result; the full-ensemble baseline is computed internally."""
    if len(run) != dataset.num_samples:
        raise ValueError(f"got {len(run)} traces for {dataset.num_samples} samples")
    if not isinstance(run, CascadeRun):
        raise TypeError(f"report takes the CascadeRun from run_dataset, got {type(run).__name__}")
    tables, used = run.tables, run.models_used
    exit_counts = np.bincount(used, minlength=tables.num_models + 1)[1:]
    exit_predictions = tables.predictions[used - 1, np.arange(used.size)]
    return score_counts(tables, exit_counts, np.count_nonzero(exit_predictions != dataset.labels))


def margin_histogram(
    dataset: EnsembleDataset | DatasetFiles,
    ensemble_size: int,
    bins: int = DEFAULT_HISTOGRAM_BINS,
    limit: int | None = None,
) -> MarginHistogram:
    """Histogram the stage-k margins, split by correctness of the stage-k prediction.

    Bins are equal-width over [0, 1]. limit restricts the tally to the first
    `limit` samples (clamped to the dataset size), which keeps subset runs
    deterministic.
    """
    if not (1 <= ensemble_size <= dataset.num_models):
        raise ValueError(
            f"ensemble_size must be in [1, {dataset.num_models}], got {ensemble_size}"
        )
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    take = dataset.num_samples
    if limit is not None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        take = min(limit, take)

    tables = stage_tables(dataset, ensemble_size)
    margins = tables.margins[ensemble_size - 1, :take]
    correct = tables.predictions[ensemble_size - 1, :take] == dataset.labels[:take]

    edges = np.linspace(0.0, 1.0, bins + 1)
    correct_counts, _ = np.histogram(margins[correct], bins=edges)
    wrong_counts, _ = np.histogram(margins[~correct], bins=edges)
    return MarginHistogram(
        bin_edges=edges, correct_counts=correct_counts, wrong_counts=wrong_counts
    )


def _row(config: str, rep: EvaluationReport) -> SweepRow:
    return SweepRow(
        config, rep.accuracy, rep.avg_cost_ms, rep.latency_ratio, rep.error_increase, rep.avg_models
    )


def ensemble_size_sweep(dataset: EnsembleDataset | DatasetFiles) -> list[SweepRow]:
    """One row per truncated ensemble size k = 1..N under full (ungated) execution,
    scored as the run in which every sample stops after k models."""
    tables = stage_tables(dataset)
    rows = []
    for k, wrong in enumerate(tables.wrong_counts.tolist(), start=1):
        exit_counts = np.zeros(tables.num_models, dtype=np.int64)
        exit_counts[k - 1] = tables.num_samples
        rows.append(_row(f"full_{k}", score_counts(tables, exit_counts, wrong)))
    return rows


def flexible_sweep(
    dataset: EnsembleDataset | DatasetFiles, schedules: Sequence[tuple[str, ThresholdSchedule]]
) -> list[SweepRow]:
    """One row per named schedule under gated execution."""
    return [_row(config, report(dataset, run_dataset(dataset, s))) for config, s in schedules]


def _write_csv(path, header: str, rows) -> None:
    """Write the header line, then one line of comma-joined cells per row."""
    lines = [header, *(",".join(cells) for cells in rows)]
    write_atomic(path, "\n".join(lines) + "\n")


def write_sweep_csv(path, rows: Sequence[SweepRow]) -> None:
    cells = []
    for r in rows:
        reals = (r.accuracy, r.avg_cost_ms, r.latency_ratio, r.error_increase, r.avg_models)
        cells.append((r.config, *map(format_real, reals)))
    _write_csv(path, SWEEP_CSV_HEADER, cells)


def write_histogram_csv(path, histogram: MarginHistogram) -> None:
    edges = histogram.bin_edges
    cells = []
    for i, (correct, wrong) in enumerate(zip(histogram.correct_counts, histogram.wrong_counts)):
        bounds = (format_real(edges[i]), format_real(edges[i + 1]))
        cells.append((*bounds, str(int(correct)), str(int(wrong))))
    _write_csv(path, HISTOGRAM_CSV_HEADER, cells)
