"""Threshold selection by grid search on a latency/error objective.

The objective blends normalized latency with error degradation:

    value = alpha * latency_ratio + (1 - alpha) * error_increase

where latency_ratio is the average gated cost divided by the cost of always
running every model (in (0, 1]) and error_increase is the relative increase
in error rate over full-ensemble execution. alpha = 1 optimizes latency
only, alpha = 0 accuracy only; the default 0.5 weighs them equally.

Stages are searched greedily in cascade order: while stage k is searched,
earlier stages keep their already chosen thresholds and later stages are
pinned at 1.0, which never stops, so no early exit beyond stage k can blur
the measurement. A sample still alive at stage k thus either exits there
(margin >= tau) or runs all N models.

The search needs no margin itself, only where it falls among the grid's stop
levels. calibrate is a bin pass, _stage_codes, and a search, _search. The
pass goes once over cascade_engine._stage_chunks and fills one (N, M) code
table: row k-1 holds each sample's code at stage k < N, bin*2 + wrong_k,
where the bin is the number of stop levels at or below its margin and
wrong_k whether the stage's prediction is wrong, and row N-1 holds wrong_N,
whether the full ensemble's prediction is wrong. That is N bytes a sample
up to 128 candidates, not the 16 per stage of the stage tables. The search
is a pure function of the table, the candidate count, the cumulative costs
and alpha. A sample stays at candidate i iff its bin is at most i, that is
its code at most 2i + 1, so one bincount of code*2 + wrong_N over the alive
samples and one cumulative sum of it give every candidate's exit count and
wrong count, the same integers a sorted sweep over the margins gives;
metrics_report.score_counts turns them into R and E by the same arithmetic
as every report. Bins come from floor(margin * G) and two comparisons with
the stop levels, not from a binary search. With N models, M samples and G
candidates the search costs O(N*M + N*G) time (O(N*M log G) were the bins
searchsorted) and N*M bytes beside one chunk of working memory.

Ties are broken toward the lower threshold, which prefers latency when the
objective is flat. The search is a pure function of (dataset, alpha, step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cascade_engine import ThresholdSchedule, _stage_chunks, _stop_levels
from .dataset_io import (
    DatasetFiles,
    EnsembleDataset,
    _cumulative_costs,
    _is_json_number,
    _json_object,
    write_atomic,
)
from .errors import MalformedScheduleError
from .metrics_report import EvaluationReport, SweepRow, flexible_sweep, score_counts

DEFAULT_ALPHA = 0.5
DEFAULT_GRID_STEP = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced threshold candidates covering [0, 1] inclusive."""

    step: float = DEFAULT_GRID_STEP

    def __post_init__(self):
        if not (0.0 < self.step <= 1.0):
            raise ValueError(f"grid step must be in (0, 1], got {self.step!r}")
        intervals = round(1.0 / self.step)
        if intervals < 1 or abs(intervals * self.step - 1.0) > 1e-9:
            raise ValueError(f"grid step {self.step!r} must divide [0, 1] evenly")

    def values(self) -> tuple[float, ...]:
        intervals = round(1.0 / self.step)
        return tuple(i / intervals for i in range(intervals + 1))


@dataclass(frozen=True)
class CalibrationObjective:
    """One evaluation of the latency/error objective."""

    alpha: float
    latency_ratio: float  # average gated cost / average full-ensemble cost, in (0, 1]
    error_increase: float  # relative error increase over full-ensemble execution
    value: float  # alpha * latency_ratio + (1 - alpha) * error_increase


def _objective(alpha: float, rep: EvaluationReport | SweepRow) -> CalibrationObjective:
    value = alpha * rep.latency_ratio + (1.0 - alpha) * rep.error_increase
    return CalibrationObjective(alpha, rep.latency_ratio, rep.error_increase, value)


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")


def evaluate_objective(
    dataset: EnsembleDataset, schedule: ThresholdSchedule, alpha: float = DEFAULT_ALPHA
) -> CalibrationObjective:
    """Run the cascade under `schedule` and score it against the full ensemble,
    in one streamed pass over the stages."""
    _check_alpha(alpha)
    return _objective(float(alpha), flexible_sweep(dataset, [("", schedule)])[0])


# the search tallies the alive samples' bins this many samples at a time, so
# its temporaries stay O(chunk) as M grows
_SEARCH_WINDOW = 65536


def _grid_bins(margins: np.ndarray, stop_levels: np.ndarray, out: np.ndarray) -> None:
    """out[...] = np.searchsorted(stop_levels, margins, side="right"), for the
    stop levels of a GridSpec and margins in [0, 1].

    The levels are i/G (G intervals), except the last, inf. floor(m*G),
    clipped to [0, G-1], is within rounding of the bin, so every level below
    it is at most m and every level two or more above it exceeds m; the two
    levels it indexes are compared directly.
    """
    intervals = stop_levels.size - 1
    lower = np.multiply(margins, intervals)
    np.floor(lower, out=lower)
    np.clip(lower, 0, intervals - 1, out=lower)
    lower = lower.astype(np.intp)
    np.add(lower, stop_levels.take(lower) <= margins, out=out, casting="unsafe")
    out += stop_levels[1:].take(lower) <= margins


def _stage_codes(dataset: EnsembleDataset | DatasetFiles, candidates) -> np.ndarray:
    """The search's (N, M) code table, from one pass over the stages: bin*2 +
    wrong_k at stages 1..N-1 in rows 0..N-2, the full ensemble's wrong flag in
    row N-1 (see module docs)."""
    num_models = dataset.num_models
    stop_levels = _stop_levels(candidates)
    codes = np.empty((num_models, dataset.num_samples), np.min_scalar_type(2 * len(candidates) - 1))
    for samples, margins, predictions in _stage_chunks(dataset, num_models):
        labels = dataset.labels[samples]
        for stage in range(num_models - 1):  # one stage at a time keeps the temporaries small
            code = codes[stage, samples]
            _grid_bins(margins[stage], stop_levels, code)
            code <<= 1
            code += predictions[stage] != labels
        np.not_equal(predictions[-1], labels, out=codes[-1, samples])
        # freed before the next chunk's kernel runs, which would otherwise raise the peak
        del margins, predictions
    return codes


def _search(codes: np.ndarray, num_candidates: int, cum_costs, alpha: float) -> list[int]:
    """The greedy per-stage search over a _stage_codes table: the index of the
    candidate chosen at each of stages 1..N-1."""
    num_models, num_samples = codes.shape
    full_wrong_count = np.count_nonzero(codes[-1])
    alive = np.ones(num_samples, dtype=bool)  # samples no chosen threshold has stopped
    done_counts = np.zeros(num_models, dtype=np.int64)  # exits at the chosen stages
    done_wrong = 0
    chosen = []
    for stage in range(num_models - 1):
        tally = np.zeros(4 * num_candidates, dtype=np.int64)
        for start in range(0, num_samples, _SEARCH_WINDOW):
            window = slice(start, start + _SEARCH_WINDOW)
            keep = alive[window]
            key = codes[stage, window][keep].astype(np.intp)  # bin*4 + wrong_k*2 + wrong_N
            key <<= 1
            key += codes[-1, window][keep]
            tally += np.bincount(key, minlength=tally.size)
        # under candidate i the samples with bin <= i run all N models, the rest stop here
        stay = np.cumsum(tally.reshape(num_candidates, 2, 2), axis=0)  # (i, wrong_k, wrong_N)
        leave = stay[-1] - stay  # no bin exceeds the last candidate
        counts = np.tile(done_counts, (num_candidates, 1))  # exits per stage, per candidate
        counts[:, stage] += leave.sum(axis=(1, 2))
        counts[:, -1] = stay.sum(axis=(1, 2))
        wrong = done_wrong + leave[:, 1].sum(axis=1) + stay[:, :, 1].sum(axis=1)
        values = [
            _objective(alpha, score_counts(num_samples, cum_costs, full_wrong_count, c, w)).value
            for c, w in zip(counts, wrong.tolist())
        ]
        best = values.index(min(values))  # the first, lowest candidate wins a plateau
        chosen.append(best)
        done_counts, done_wrong = counts[best], done_wrong + int(leave[best, 1].sum())
        alive &= codes[stage] <= 2 * best + 1  # bin <= best
    return chosen


def calibrate(
    dataset: EnsembleDataset | DatasetFiles,
    alpha: float = DEFAULT_ALPHA,
    grid: GridSpec = GridSpec(),
) -> ThresholdSchedule:
    """Choose stop thresholds by greedy per-stage grid search: one pass for the
    code table, then the search over it (see module docs)."""
    _check_alpha(alpha)
    if dataset.num_models < 2:
        raise ValueError("calibration needs at least 2 models")
    candidates = grid.values()
    codes = _stage_codes(dataset, candidates)
    cum_costs = _cumulative_costs(dataset.costs_ms, dataset.num_samples)
    chosen = _search(codes, len(candidates), cum_costs, alpha)
    return ThresholdSchedule(tuple(candidates[i] for i in chosen))


@dataclass(frozen=True)
class ScheduleFile:
    """A threshold schedule plus the calibration metadata stored alongside it."""

    schedule: ThresholdSchedule
    alpha: float | None
    grid_step: float | None
    calibration_data: str | None


def save_schedule(
    path,
    schedule: ThresholdSchedule,
    *,
    alpha: float | None = None,
    grid_step: float | None = None,
    calibration_data: str | None = None,
) -> None:
    """Write a schedule JSON file atomically. alpha and grid_step are always
    written, as null when unset; calibration_data only when set."""
    doc: dict = {
        "version": 1,
        "alpha": alpha,
        "grid_step": grid_step,
        "thresholds": list(schedule.thresholds),
    }
    if calibration_data is not None:
        doc["calibration_data"] = calibration_data
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


def load_schedule(path) -> ScheduleFile:
    """Read a schedule JSON file, tolerating absent metadata keys and ignoring
    unknown ones."""
    p = Path(path)
    doc = _json_object(p, MalformedScheduleError, "schedule")
    version = doc.get("version")
    if version != 1 or isinstance(version, (bool, float)):  # true and 1.0 equal 1
        raise MalformedScheduleError(f"{p}: unsupported schedule version {version!r}")
    thresholds = doc.get("thresholds")
    if not isinstance(thresholds, list) or not all(_is_json_number(t) for t in thresholds):
        raise MalformedScheduleError(f"{p}: thresholds must be a list of numbers")
    try:
        schedule = ThresholdSchedule(tuple(float(t) for t in thresholds))
    except ValueError as exc:
        raise MalformedScheduleError(f"{p}: {exc}") from exc

    def _optional_number(key: str, check) -> float | None:
        value = doc.get(key)
        if value is None:
            return None
        if not _is_json_number(value):
            raise MalformedScheduleError(f"{p}: {key} must be a number when present")
        try:  # json parses NaN and Infinity too
            check(float(value))
        except ValueError as exc:
            raise MalformedScheduleError(f"{p}: {exc}") from exc
        return float(value)

    calibration_data = doc.get("calibration_data")
    if calibration_data is not None and not isinstance(calibration_data, str):
        raise MalformedScheduleError(f"{p}: calibration_data must be a string when present")
    return ScheduleFile(
        schedule=schedule,
        alpha=_optional_number("alpha", _check_alpha),
        grid_step=_optional_number("grid_step", GridSpec),
        calibration_data=calibration_data,
    )
