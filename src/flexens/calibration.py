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
levels. One pass over cascade_engine._stage_chunks stores, per sample, its
bin at each of stages 1..N-1 (the number of stop levels at or below its
margin, one byte up to 255 candidates) and whether each of the N stage
predictions is wrong: 2N-1 bytes, not the 16 per stage of the stage tables.
A sample stays at candidate i iff its bin is at most i, so one bincount of
bin*4 + wrong_k*2 + wrong_N over the alive samples, and its cumulative sums,
give every candidate's exit count and wrong count, the same integers a
sorted sweep over the margins gives; metrics_report.score_counts turns them
into R and E by the same arithmetic as every report. Bins come from
floor(margin * G) and two comparisons with the stop levels, not from a
binary search. With N models, M samples and G candidates the search costs
O(N*M + N*G) time (O(N*M log G) were the bins searchsorted) and (2N-1)*M
bytes beside one chunk of working memory.

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


def calibrate(
    dataset: EnsembleDataset | DatasetFiles,
    alpha: float = DEFAULT_ALPHA,
    grid: GridSpec = GridSpec(),
) -> ThresholdSchedule:
    """Choose stop thresholds by greedy per-stage grid search over the samples'
    grid bins, one tally per stage (see module docs)."""
    _check_alpha(alpha)
    num_models, num_samples = dataset.num_models, dataset.num_samples
    if num_models < 2:
        raise ValueError("calibration needs at least 2 models")

    candidates = grid.values()
    stop_levels = _stop_levels(candidates)
    bins = np.empty((num_models - 1, num_samples), dtype=np.min_scalar_type(len(candidates)))
    wrong = np.empty((num_models, num_samples), dtype=bool)
    for samples, margins, predictions in _stage_chunks(dataset, num_models):
        for stage in range(num_models - 1):  # one stage at a time keeps the temporaries small
            _grid_bins(margins[stage], stop_levels, bins[stage, samples])
        np.not_equal(predictions, dataset.labels[samples], out=wrong[:, samples])
        # freed before the next chunk's kernel runs, which would otherwise raise the peak
        del margins, predictions
    cum_costs = _cumulative_costs(dataset.costs_ms, num_samples)
    full_wrong_count = np.count_nonzero(wrong[-1])

    alive = np.ones(num_samples, dtype=bool)  # samples no chosen threshold has stopped
    done_counts = np.zeros(num_models, dtype=np.int64)  # exits at the chosen stages
    done_wrong = 0
    chosen: list[float] = []
    for stage in range(num_models - 1):
        tally = np.zeros(4 * len(candidates), dtype=np.int64)
        for start in range(0, num_samples, _SEARCH_WINDOW):
            window = slice(start, start + _SEARCH_WINDOW)
            keep = alive[window]
            key = bins[stage, window][keep].astype(np.intp)  # bin*4 + wrong_k*2 + wrong_N
            key <<= 1
            key += wrong[stage, window][keep]
            key <<= 1
            key += wrong[-1, window][keep]
            tally += np.bincount(key, minlength=tally.size)
        tally = tally.reshape(len(candidates), 2, 2)  # (bin, wrong at stage k, wrong at N)
        # samples with bin <= i run all N models under candidate i, the rest stop here
        stays = np.cumsum(tally.sum(axis=(1, 2))).tolist()
        alive_count = stays[-1]  # no bin exceeds the last candidate
        stay_exit_wrong = np.cumsum(tally[:, 1].sum(axis=1)).tolist()
        stay_full_wrong = np.cumsum(tally[:, :, 1].sum(axis=1)).tolist()
        exit_wrong_total = stay_exit_wrong[-1]

        best_value, best = np.inf, 0
        for i, stay in enumerate(stays):
            counts = done_counts.copy()
            counts[stage] += alive_count - stay
            counts[-1] += stay
            wrong_count = done_wrong + exit_wrong_total - stay_exit_wrong[i] + stay_full_wrong[i]
            rep = score_counts(num_samples, cum_costs, full_wrong_count, counts, wrong_count)
            value = _objective(alpha, rep).value
            # strict < keeps the earliest (lowest) candidate on plateaus
            if value < best_value:
                best_value, best = value, i
        chosen.append(candidates[best])

        done_counts[stage] += alive_count - stays[best]
        done_wrong += exit_wrong_total - stay_exit_wrong[best]
        alive &= bins[stage] <= best
    return ThresholdSchedule(tuple(chosen))


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
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedScheduleError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedScheduleError(f"{p}: schedule must be a JSON object")
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
