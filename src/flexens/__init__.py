"""Margin-gated early-exit ensemble inference.

Average the logits of as many models as confidence requires: after each
model the running softmax margin is compared against a per-stage threshold,
and the cascade stops early when the prediction looks settled. Thresholds
are calibrated by grid search on a combined latency/error objective.
"""

from . import errors
from .calibration import (
    DEFAULT_ALPHA,
    DEFAULT_GRID_STEP,
    CalibrationObjective,
    GridSpec,
    ScheduleFile,
    calibrate,
    evaluate_objective,
    load_schedule,
    save_schedule,
)
from .cascade_engine import (
    CascadeRun,
    CascadeTrace,
    StageTables,
    ThresholdSchedule,
    full_ensemble_predictions,
    run_dataset,
    run_sample,
    stage_tables,
)
from .dataset_io import (
    DatasetManifest,
    EnsembleDataset,
    import_csv,
    load_dataset,
    save_dataset,
)
from .ensemble_core import AveragedLogits, average_logits, predict, score_margin, softmax
from .metrics_report import (
    DEFAULT_HISTOGRAM_BINS,
    EvaluationReport,
    MarginHistogram,
    SweepRow,
    ensemble_size_sweep,
    flexible_sweep,
    margin_histogram,
    relative_error_increase,
    report,
    write_histogram_csv,
    write_sweep_csv,
)
from .synthgen import (
    DEFAULT_COST_MS,
    DEFAULT_NOISE_SIGMA,
    DEFAULT_SIGNAL_SCALE,
    SynthConfig,
    Xoshiro256PlusPlus,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedLogits",
    "CalibrationObjective",
    "CascadeRun",
    "CascadeTrace",
    "DatasetManifest",
    "DEFAULT_ALPHA",
    "DEFAULT_COST_MS",
    "DEFAULT_GRID_STEP",
    "DEFAULT_HISTOGRAM_BINS",
    "DEFAULT_NOISE_SIGMA",
    "DEFAULT_SIGNAL_SCALE",
    "EnsembleDataset",
    "EvaluationReport",
    "GridSpec",
    "MarginHistogram",
    "ScheduleFile",
    "StageTables",
    "SweepRow",
    "SynthConfig",
    "ThresholdSchedule",
    "Xoshiro256PlusPlus",
    "average_logits",
    "calibrate",
    "ensemble_size_sweep",
    "errors",
    "evaluate_objective",
    "flexible_sweep",
    "full_ensemble_predictions",
    "generate",
    "import_csv",
    "load_dataset",
    "load_schedule",
    "margin_histogram",
    "predict",
    "relative_error_increase",
    "report",
    "run_dataset",
    "run_sample",
    "save_dataset",
    "save_schedule",
    "score_margin",
    "softmax",
    "stage_tables",
    "write_histogram_csv",
    "write_sweep_csv",
]
