"""Threshold selection by grid search on a latency/error objective.

The objective blends normalized latency with error degradation:

    value = alpha * latency_ratio + (1 - alpha) * error_increase

where latency_ratio is the average gated cost divided by the cost of always
running every model (in (0, 1]) and error_increase is the relative increase
in error rate over full-ensemble execution. alpha = 1 optimizes latency
only, alpha = 0 accuracy only; the default 0.5 weighs them equally.

Stages are searched greedily in cascade order: while stage k is searched,
earlier stages keep their already chosen thresholds and later stages are
pinned at 1.0, so no early exit beyond stage k can blur the measurement.
Ties are broken toward the lower threshold, which prefers latency when the
objective is flat. The search is a pure function of (dataset, alpha, step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cascade_engine import ThresholdSchedule, _models_used, run_dataset, stage_tables
from .dataset_io import EnsembleDataset
from .errors import MalformedScheduleError
# relative_error_increase is re-exported from here for existing callers
from .metrics_report import EvaluationReport, relative_error_increase, score  # noqa: F401

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
    run = run_dataset(dataset, schedule)
    return _objective(alpha, score(run.tables, run.models_used, dataset.labels))


def calibrate(
    dataset: EnsembleDataset,
    alpha: float = DEFAULT_ALPHA,
    grid: GridSpec = GridSpec(),
) -> ThresholdSchedule:
    """Choose stop thresholds by greedy per-stage grid search (see module docs)."""
    _check_alpha(alpha)
    num_models = dataset.num_models
    if num_models < 2:
        raise ValueError("calibration needs at least 2 models")

    tables = stage_tables(dataset)
    candidates = grid.values()

    chosen: list[float] = []
    for stage in range(num_models - 1):
        tail = [1.0] * (num_models - 2 - stage)
        best_value = np.inf
        best_tau = candidates[0]
        for tau in candidates:
            used = _models_used(tables.margins, chosen + [tau] + tail)
            value = _objective(alpha, score(tables, used, dataset.labels)).value
            # strict < keeps the earliest (lowest) candidate on plateaus
            if value < best_value:
                best_value = value
                best_tau = tau
        chosen.append(best_tau)
    return ThresholdSchedule(tuple(chosen))


@dataclass(frozen=True)
class ScheduleFile:
    """A threshold schedule plus the calibration metadata stored alongside it."""

    schedule: ThresholdSchedule
    alpha: float | None
    grid_step: float | None
    calibration_data: str | None
    allow_same_split: bool


def save_schedule(
    path,
    schedule: ThresholdSchedule,
    *,
    alpha: float | None = None,
    grid_step: float | None = None,
    calibration_data: str | None = None,
    allow_same_split: bool = False,
) -> None:
    """Write a schedule JSON file; metadata keys are emitted only when set."""
    doc: dict = {
        "version": 1,
        "alpha": alpha,
        "grid_step": grid_step,
        "thresholds": list(schedule.thresholds),
    }
    if calibration_data is not None:
        doc["calibration_data"] = calibration_data
    if allow_same_split:
        doc["allow_same_split"] = True
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_schedule(path) -> ScheduleFile:
    """Read a schedule JSON file, tolerating absent metadata keys."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedScheduleError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedScheduleError(f"{p}: schedule must be a JSON object")
    if doc.get("version") != 1:
        raise MalformedScheduleError(f"{p}: unsupported schedule version {doc.get('version')!r}")
    thresholds = doc.get("thresholds")
    if not isinstance(thresholds, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in thresholds
    ):
        raise MalformedScheduleError(f"{p}: thresholds must be a list of numbers")
    try:
        schedule = ThresholdSchedule(tuple(float(t) for t in thresholds))
    except ValueError as exc:
        raise MalformedScheduleError(f"{p}: {exc}") from exc

    def _optional_number(key: str) -> float | None:
        value = doc.get(key)
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedScheduleError(f"{p}: {key} must be a number when present")
        return float(value)

    calibration_data = doc.get("calibration_data")
    if calibration_data is not None and not isinstance(calibration_data, str):
        raise MalformedScheduleError(f"{p}: calibration_data must be a string when present")
    return ScheduleFile(
        schedule=schedule,
        alpha=_optional_number("alpha"),
        grid_step=_optional_number("grid_step"),
        calibration_data=calibration_data,
        allow_same_split=bool(doc.get("allow_same_split", False)),
    )
