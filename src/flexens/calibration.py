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
(margin >= tau) or runs all N models. Each stage is scored in one sweep: the
alive samples are sorted by their stage-k margin, integer prefix sums count
the wrong predictions at stage k and at stage N, and one searchsorted over
the grid gives every candidate's exit count and wrong count, which
metrics_report.score_counts turns into R and E by the same arithmetic as
every report. With N models, M samples and G candidates the search costs
O(N*M log M + N*G) time and O(M) memory.

Ties are broken toward the lower threshold, which prefers latency when the
objective is flat. The search is a pure function of (dataset, alpha, step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cascade_engine import ThresholdSchedule, _stop_levels, run_dataset, stage_tables
from .dataset_io import DatasetFiles, EnsembleDataset, _is_json_number, write_atomic
from .errors import MalformedScheduleError
from .metrics_report import EvaluationReport, report, score_counts

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


def _objective(alpha: float, rep: EvaluationReport) -> CalibrationObjective:
    value = alpha * rep.latency_ratio + (1.0 - alpha) * rep.error_increase
    return CalibrationObjective(alpha, rep.latency_ratio, rep.error_increase, value)


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")


def evaluate_objective(
    dataset: EnsembleDataset, schedule: ThresholdSchedule, alpha: float = DEFAULT_ALPHA
) -> CalibrationObjective:
    """Run the cascade under `schedule` and score it against the full ensemble."""
    _check_alpha(alpha)
    return _objective(float(alpha), report(dataset, run_dataset(dataset, schedule)))


def _prefix_counts(flags: np.ndarray) -> np.ndarray:
    """counts[q] is the number of True values among flags[:q]."""
    counts = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=counts[1:])
    return counts


def calibrate(
    dataset: EnsembleDataset | DatasetFiles,
    alpha: float = DEFAULT_ALPHA,
    grid: GridSpec = GridSpec(),
) -> ThresholdSchedule:
    """Choose stop thresholds by greedy per-stage grid search, one sorted-margin
    sweep per stage (see module docs)."""
    _check_alpha(alpha)
    num_models = dataset.num_models
    if num_models < 2:
        raise ValueError("calibration needs at least 2 models")

    tables = stage_tables(dataset)
    labels = dataset.labels
    candidates = grid.values()
    stop_levels = _stop_levels(candidates)
    full_wrong = tables.predictions[-1] != labels
    cum_costs, full_wrong_count = tables.cum_costs_ms.tolist(), tables.wrong_counts[-1]

    alive = np.arange(dataset.num_samples)  # samples no chosen threshold has stopped
    done_counts = np.zeros(num_models, dtype=np.int64)  # exits at the chosen stages
    done_wrong = 0
    chosen: list[float] = []
    for stage in range(num_models - 1):
        margins = tables.margins[stage, alive]
        # searchsorted never splits a run of equal margins, so their order is irrelevant
        order = np.argsort(margins)
        ranked = alive[order]
        # wrong predictions among the q lowest alive margins, exiting here or at N
        exit_wrong = _prefix_counts(tables.predictions[stage, ranked] != labels[ranked])
        full_wrong_below = _prefix_counts(full_wrong[ranked])
        # samples below tau run all N models, the rest stop here
        stays = np.searchsorted(margins[order], stop_levels, side="left")

        best_value, best = np.inf, 0
        for i, stay in enumerate(stays.tolist()):
            counts = done_counts.copy()
            counts[stage] += alive.size - stay
            counts[-1] += stay
            wrong = done_wrong + int(exit_wrong[-1] - exit_wrong[stay] + full_wrong_below[stay])
            rep = score_counts(dataset.num_samples, cum_costs, full_wrong_count, counts, wrong)
            value = _objective(alpha, rep).value
            # strict < keeps the earliest (lowest) candidate on plateaus
            if value < best_value:
                best_value, best = value, i
        chosen.append(candidates[best])

        best_stay = int(stays[best])
        done_counts[stage] += alive.size - best_stay
        done_wrong += int(exit_wrong[-1] - exit_wrong[best_stay])
        alive = alive[margins < stop_levels[best]]  # the best_stay samples below tau
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
