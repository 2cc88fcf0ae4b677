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
is the same on every CPU.

report scores a CascadeRun, which holds the (N, M) stage tables. The sweeps
and margin_histogram do not build them: they add up counts as
cascade_engine._stage_chunks yields each chunk. Both sweeps take theirs from
one tally, _sweep_counts, whose one pass counts each stage's wrong
predictions and, for every schedule it is given, the exit counts and wrong
count. flexible_sweep scores its schedules from it; ensemble_size_sweep
scores row k from stage k's wrong count with every sample exiting there.
Counts add exactly, so their results equal the tabled route's.
margin_histogram places margins among its edges by the function calibrate
places them among its candidates by, cascade_engine._grid_codes, so a
histogram bin and a calibration bin follow one rule. Every CSV is written
atomically and a block of lines at a time (a histogram's 1024 bins, a
sweep's one row), so writing one holds a block of text, whatever the file's
length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cascade_engine import (
    CascadeRun, ThresholdSchedule, _grid_codes, _models_used, _stage_chunks, _stop_levels,
)
from .dataset_io import DatasetFiles, EnsembleDataset, _cumulative_costs, write_atomic

DEFAULT_HISTOGRAM_BINS = 50
# the most bins whose edges all print distinctly in format_real's 6 significant
# digits: at 10**6 + 1 bins two of them collide
_MAX_HISTOGRAM_BINS = 10**6
SWEEP_CSV_HEADER = "config,accuracy,avg_cost_ms,R,E,avg_models"
HISTOGRAM_CSV_HEADER = "bin_lo,bin_hi,correct,wrong"
# characters no unquoted CSV cell may hold
_CSV_SPECIALS = frozenset(',"\r\n')
# histogram lines formatted, encoded and written at a time
_CSV_BLOCK_ROWS = 1024


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


def score_counts(
    num_samples: int,
    cum_costs_ms: Sequence[float],
    full_wrong: int,
    exit_counts: np.ndarray,
    wrong: int,
) -> EvaluationReport:
    """Score a run given only its per-stage exit counts and its number of wrong predictions.

    cum_costs_ms[k-1] is the cost of running the first k models (floats, as
    dataset_io._cumulative_costs gives them), full_wrong the number of wrong
    full-ensemble predictions, and exit_counts[k-1] the number of samples
    stopping after k models (int64). report, the two sweeps and calibrate
    (which never materializes `used`) all score here, so every R and E comes
    from the same arithmetic in the same order.

    The gated cost total is summed over stages left to right, each step
    total = fma(count_k, cum_cost_k, total): the exact value rounded once, as
    IEEE 754 fusedMultiplyAdd (C fma) gives it. Both floats are exact
    fractions with power-of-two denominators, so the step is one correctly
    rounded int / int division. Zero counts are skipped, which is exact since
    fma(0, x, t) = t for finite x. The costs were checked so that
    num_samples times their total is finite, which bounds every total here.
    No BLAS kernel is involved, so the sum, and with it every R, E and
    calibration tie-break, is the same on every CPU. Every other value comes
    from IEEE + - * / on Python ints and floats, which round the same
    everywhere, and every real field is a Python float.
    """
    wrong, full_wrong = int(wrong), int(full_wrong)
    gated_cost_total, models_total = 0.0, 0
    for k, (count, cost) in enumerate(zip(exit_counts.tolist(), cum_costs_ms), 1):
        if count:
            models_total += k * count
            (p, q), (r, s) = cost.as_integer_ratio(), gated_cost_total.as_integer_ratio()
            d = max(q, s)  # both denominators are powers of two
            gated_cost_total = (count * p * (d // q) + r * (d // s)) / d
    full_cost_total = num_samples * float(cum_costs_ms[-1])

    return EvaluationReport(
        accuracy=(num_samples - wrong) / num_samples,
        avg_cost_ms=gated_cost_total / num_samples,
        avg_models=models_total / num_samples,
        latency_ratio=gated_cost_total / full_cost_total,
        error_increase=relative_error_increase(wrong / num_samples, full_wrong / num_samples),
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
    wrong = np.count_nonzero(exit_predictions != dataset.labels)
    return score_counts(
        tables.num_samples, tables.cum_costs_ms.tolist(), tables.wrong_counts[-1],
        exit_counts, wrong,
    )


def margin_histogram(
    dataset: EnsembleDataset | DatasetFiles,
    ensemble_size: int,
    bins: int = DEFAULT_HISTOGRAM_BINS,
    limit: int | None = None,
) -> MarginHistogram:
    """Histogram the stage-k margins, split by correctness of the stage-k prediction.

    Bins are equal-width over [0, 1]. A bin holds the margins that a threshold
    at its lower edge stops and one at its upper edge does not: calibrate's
    rule, from the same cascade_engine._grid_codes over the edges' stop levels.
    The last edge, 1.0, stops nothing, so the last bin is closed: it also
    holds margins of exactly 1.0. limit restricts the tally to the first
    `limit` samples (clamped to the dataset size), which keeps subset runs
    deterministic; the stages of later samples are not computed, but their
    logits are still read and checked. Each chunk of samples is tallied by
    one bincount of its codes and the counts added, which is exact: a
    value's bin depends only on the value.
    """
    if not (1 <= ensemble_size <= dataset.num_models):
        raise ValueError(
            f"ensemble_size must be in [1, {dataset.num_models}], got {ensemble_size}"
        )
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if bins > _MAX_HISTOGRAM_BINS:
        raise ValueError(f"bins must be <= {_MAX_HISTOGRAM_BINS}, got {bins}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")

    edges = np.linspace(0.0, 1.0, bins + 1)
    stop_levels = _stop_levels(edges)
    tally = np.zeros(2 * (bins + 1), dtype=np.int64)
    for samples, margins, predictions in _stage_chunks(dataset, ensemble_size, limit):
        codes = _grid_codes(margins[-1], stop_levels, predictions[-1] != dataset.labels[samples])
        tally += np.bincount(codes, minlength=tally.size)
        # freed before the next chunk's kernel runs, which would otherwise raise the peak
        del margins, predictions
    # row b >= 1 counts the margins with b edges at or below them, bin b - 1's
    counts = tally.reshape(bins + 1, 2)[1:].T.copy()
    return MarginHistogram(bin_edges=edges, correct_counts=counts[0], wrong_counts=counts[1])


def _row(config: str, rep: EvaluationReport) -> SweepRow:
    return SweepRow(
        config, rep.accuracy, rep.avg_cost_ms, rep.latency_ratio, rep.error_increase, rep.avg_models
    )


def _sweep_counts(dataset: EnsembleDataset | DatasetFiles, schedules: Sequence[ThresholdSchedule]):
    """The one stage pass of both sweeps: each schedule's (num_models,) exit
    counts and its wrong count, and each stage's wrong count, every stage's
    predictions compared with the labels once per chunk."""
    num_models = dataset.num_models
    exit_counts = np.zeros((len(schedules), num_models + 1), dtype=np.int64)
    wrong = np.zeros(len(schedules), dtype=np.int64)
    stage_wrong = np.zeros(num_models, dtype=np.int64)
    for samples, margins, predictions in _stage_chunks(dataset, num_models):
        missed = predictions != dataset.labels[samples]
        stage_wrong += np.count_nonzero(missed, axis=1)
        columns = np.arange(missed.shape[1])
        for i, schedule in enumerate(schedules):
            used = _models_used(margins, schedule.thresholds)
            exit_counts[i] += np.bincount(used, minlength=num_models + 1)
            wrong[i] += np.count_nonzero(missed[used - 1, columns])
        # freed before the next chunk's kernel runs, which would otherwise raise the peak
        del margins, predictions, missed
    return exit_counts[:, 1:], wrong, stage_wrong


def _sweep_rows(dataset, configs, exit_counts, wrong, full_wrong) -> list[SweepRow]:
    """One SweepRow per config, scored by score_counts from its counts."""
    cum_costs = _cumulative_costs(dataset.costs_ms, dataset.num_samples)
    return [
        _row(config, score_counts(dataset.num_samples, cum_costs, full_wrong, counts, wrong_i))
        for config, counts, wrong_i in zip(configs, exit_counts, wrong)
    ]


def ensemble_size_sweep(dataset: EnsembleDataset | DatasetFiles) -> list[SweepRow]:
    """One row per truncated ensemble size k = 1..N under full (ungated) execution,
    scored as the run in which every sample stops after k models."""
    num_models = dataset.num_models
    stage_wrong = _sweep_counts(dataset, [])[2]
    exit_counts = np.diag(np.full(num_models, dataset.num_samples, dtype=np.int64))
    configs = [f"full_{k}" for k in range(1, num_models + 1)]
    return _sweep_rows(dataset, configs, exit_counts, stage_wrong, stage_wrong[-1])


def flexible_sweep(
    dataset: EnsembleDataset | DatasetFiles, schedules: Sequence[tuple[str, ThresholdSchedule]]
) -> list[SweepRow]:
    """One row per named schedule under gated execution, every schedule scored
    in one pass over the stages; each row equals report(dataset, run_dataset(...))."""
    for _, schedule in schedules:
        schedule.validate_for(dataset.num_models)
    exit_counts, wrong, stage_wrong = _sweep_counts(dataset, [s for _, s in schedules])
    return _sweep_rows(dataset, [c for c, _ in schedules], exit_counts, wrong, stage_wrong[-1])


def _write_csv(path, header: str, blocks) -> None:
    """Write the header line, then each block of whole lines, handing
    write_atomic one encoded block at a time."""
    texts = itertools.chain([f"{header}\n"], blocks)
    write_atomic(path, (text.encode("utf-8") for text in texts))


def _check_config(config: str) -> None:
    """Refuse a config no unquoted CSV cell can hold: one with a comma, a double
    quote or a line break."""
    if not _CSV_SPECIALS.isdisjoint(config):
        raise ValueError(f"config {config!r} holds a comma, quote or line break")


def write_sweep_csv(path, rows: Sequence[SweepRow]) -> None:
    """One line per row. No cell is quoted, so a config that holds a comma, a
    double quote or a line break is refused before anything is written."""
    cells = []
    for r in rows:
        _check_config(r.config)
        reals = (r.accuracy, r.avg_cost_ms, r.latency_ratio, r.error_increase, r.avg_models)
        cells.append((r.config, *map(format_real, reals)))
    _write_csv(path, SWEEP_CSV_HEADER, (",".join(row) + "\n" for row in cells))


def write_histogram_csv(path, histogram: MarginHistogram) -> None:
    """One line per bin, written _CSV_BLOCK_ROWS lines at a time, so memory stays
    bounded whatever the bin count. Each block's edges and counts become Python
    scalars in one conversion, and each edge is formatted once, a block's last
    again as the next block's first."""
    edges, correct, wrong = histogram.bin_edges, histogram.correct_counts, histogram.wrong_counts

    def blocks():
        for first in range(0, len(correct), _CSV_BLOCK_ROWS):
            rows = slice(first, first + _CSV_BLOCK_ROWS)
            cuts = list(map(format_real, np.asarray(edges[first : rows.stop + 1], float).tolist()))
            counts = (np.asarray(c[rows], int).tolist() for c in (correct, wrong))
            yield "".join(map("{},{},{},{}\n".format, cuts, cuts[1:], *counts))

    _write_csv(path, HISTOGRAM_CSV_HEADER, blocks())
