"""Margin-gated cascade over an ensemble of models.

Models are evaluated in dataset order. After stage k the running mean of
the first k logit vectors is softmaxed and its top-two margin compared
against that stage's threshold: the cascade stops when margin >= threshold,
otherwise the next model runs. After the last model no threshold is
consulted. A threshold of 0 therefore always stops after one model, and a
threshold of 1 never stops, not even where a top-two logit gap beyond ~36
rounds the margin to exactly 1.0, which reproduces full-ensemble execution.

Because the per-stage margins and predictions of a sample do not depend on
the threshold schedule, they are computed once per dataset as schedule
independent "stage tables" and cached; running a schedule is then a cheap
vectorized scan. stage_tables builds them from a chunk source: an
in-memory EnsembleDataset, or a DatasetFiles handle that reads the payload
files, checking them as it goes (see dataset_io). One loop takes a chunk of
samples (about 64 Ki values per model) at a time from either, so beside its
(N, M) outputs the build needs O(chunk) working memory however many samples
there are, and no CLI command holds the (N, M, C) tensor. Every reduction
runs along one sample's class axis, so chunking changes no output bit, and
stage k depends only on models 1..k, so a build of the first k models gives
the first k rows of the full one. run_sample and run_dataset share that
arithmetic, so their results agree bit-for-bit. run_dataset returns a
columnar CascadeRun, whose run[i] builds sample i's CascadeTrace on demand;
metrics_report.report takes only this result, not a hand-built list of
traces.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset_io import DatasetFiles, EnsembleDataset, _cumulative_costs
from .errors import DimensionMismatchError, NonFiniteLogitError, ScheduleMismatchError


@dataclass(frozen=True)
class ThresholdSchedule:
    """Stop thresholds tau_1..tau_{N-1}; tau_k gates continuation after k models.

    An ensemble of N models carries N-1 thresholds (none after the final
    model). Each value must lie in [0, 1].
    """

    thresholds: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(t) for t in self.thresholds)
        for i, t in enumerate(values):
            if not (0.0 <= t <= 1.0):
                raise ValueError(f"threshold {i} is {t!r}, must be in [0, 1]")
        object.__setattr__(self, "thresholds", values)

    @classmethod
    def uniform(cls, value: float, num_models: int) -> "ThresholdSchedule":
        return cls((value,) * (num_models - 1))

    @property
    def num_stages(self) -> int:
        return len(self.thresholds)

    def validate_for(self, num_models: int) -> None:
        if len(self.thresholds) != num_models - 1:
            raise ScheduleMismatchError(len(self.thresholds), num_models)


@dataclass(frozen=True, slots=True)
class CascadeTrace:
    """Per-sample execution record.

    margins holds the post-softmax margin after each executed stage, so its
    length equals models_used; cost_ms is the summed cost of the models run.
    """

    models_used: int
    margins: np.ndarray
    prediction: int
    cost_ms: float


@dataclass(frozen=True)
class StageTables:
    """Schedule-independent per-stage statistics for every sample.

    Row k-1 describes the ensemble truncated to its first k models: margins
    and argmax predictions of softmax(mean(logits[:k])), plus cumulative
    costs. Arrays are frozen; instances are cached per chunk source.
    stage_tables builds them chunk by chunk in O(chunk) working memory, with
    the same bytes a whole-array build gives.
    """

    margins: np.ndarray  # (num_models, num_samples) float64
    predictions: np.ndarray  # (num_models, num_samples) int64
    wrong_counts: np.ndarray  # (num_models,) int64, predictions that miss the label
    cum_costs_ms: np.ndarray  # (num_models,) float64

    @property
    def num_models(self) -> int:
        return self.margins.shape[0]

    @property
    def num_samples(self) -> int:
        return self.margins.shape[1]


@dataclass(frozen=True, eq=False)
class CascadeRun(Sequence):
    """Columnar result of run_dataset: each sample's exit stage over the stage tables.

    run[i] builds sample i's CascadeTrace on demand (a slice gives a list of
    them); aggregate through models_used instead of iterating.
    """

    tables: StageTables
    models_used: np.ndarray  # (num_samples,) int64, frozen

    def __len__(self) -> int:
        return self.models_used.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        sample = range(len(self))[index]
        used, tables = int(self.models_used[sample]), self.tables
        return _trace(tables.margins, tables.predictions, tables.cum_costs_ms, sample, used)


def _trace(margins, predictions, cum_costs, sample: int, used: int) -> CascadeTrace:
    """The trace of column `sample` of (N, M) stage margins and predictions,
    stopped after `used` models."""
    return CascadeTrace(
        models_used=used,
        margins=margins[:used, sample].copy(),
        prediction=int(predictions[used - 1, sample]),
        cost_ms=float(cum_costs[used - 1]),
    )


_TABLES_CACHE: "weakref.WeakKeyDictionary[EnsembleDataset | DatasetFiles, StageTables]" = (
    weakref.WeakKeyDictionary()
)


def _prefix_stage_stats(prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins and predictions of every stage from float64 running logit sums.

    prefix is (num_models, n, num_classes) with prefix[k] the sum of the first
    k+1 models' logits; it is overwritten. Both results are (num_models, n).
    Every reduction runs along one row's class axis, so a sample's results do
    not depend on which other samples share the call.
    """
    num_models, num_samples, num_classes = prefix.shape
    prefix /= np.arange(1, num_models + 1, dtype=np.float64)[:, None, None]
    prefix -= prefix.max(axis=2, keepdims=True)
    np.exp(prefix, out=prefix)
    prefix /= prefix.sum(axis=2, keepdims=True)
    rows = prefix.reshape(-1, num_classes)
    best = rows.argmax(axis=1)
    flat = best + np.arange(0, rows.size, num_classes)
    top = rows.take(flat)
    # a tied maximum leaves another copy behind, so the masked max is the
    # second-largest value counted with multiplicity, as np.partition gives
    rows.put(flat, -np.inf)
    shape = (num_models, num_samples)
    return (top - rows.max(axis=1)).reshape(shape), best.reshape(shape)


def stage_tables(
    source: EnsembleDataset | DatasetFiles, num_models: int | None = None
) -> StageTables:
    """Compute (or fetch cached) stage tables for a chunk source.

    num_models builds the first num_models stages only (default all). Cached
    tables of a larger build are returned as they are, so row k-1 is stage k
    either way.
    """
    models = source.num_models if num_models is None else num_models
    if not 1 <= models <= source.num_models:
        raise ValueError(f"num_models must be in [1, {source.num_models}], got {models}")
    tables = _TABLES_CACHE.get(source)
    if tables is None or tables.num_models < models:
        margins = np.empty((models, source.num_samples), dtype=np.float64)
        predictions = np.empty((models, source.num_samples), dtype=np.int64)
        buffer = None
        for chunk, block in source.logit_chunks():
            if buffer is None:  # the first chunk is the largest
                buffer = np.empty((models, *block.shape[1:]), dtype=np.float64)
            prefix = buffer[:, : block.shape[1]]
            np.copyto(prefix, block[:models])
            # the same sequential order as np.cumsum(axis=0), several times faster here
            for k in range(1, models):
                prefix[k] += prefix[k - 1]
            margins[:, chunk], predictions[:, chunk] = _prefix_stage_stats(prefix)
        wrong = np.count_nonzero(predictions != source.labels, axis=1).astype(np.int64)
        cum_costs = np.array(_cumulative_costs(source.costs_ms[:models]))
        for arr in (margins, predictions, wrong, cum_costs):
            arr.setflags(write=False)
        tables = StageTables(margins, predictions, wrong, cum_costs)
        _TABLES_CACHE[source] = tables
    return tables


def _stop_levels(thresholds) -> np.ndarray:
    """The margins at which each threshold stops: itself, except that 1.0 never
    stops, not even a saturated margin that rounds to exactly 1.0."""
    return np.array([np.inf if t == 1.0 else t for t in thresholds], dtype=np.float64)


def _models_used(margins: np.ndarray, thresholds) -> np.ndarray:
    """First stage whose margin clears its threshold, else the full ensemble."""
    stop = np.ones(margins.shape, dtype=bool)
    np.greater_equal(margins[:-1], _stop_levels(thresholds)[:, None], out=stop[:-1])
    return stop.argmax(axis=0) + 1


def full_ensemble_predictions(dataset: EnsembleDataset | DatasetFiles) -> np.ndarray:
    """Predictions when every model is always evaluated."""
    return stage_tables(dataset).predictions[-1]


def run_sample(logits_per_model, schedule: ThresholdSchedule, costs_ms) -> CascadeTrace:
    """Run the cascade on a single sample's (num_models, num_classes) logits.

    The input is checked as datasets check theirs: the first non-finite logit
    in (model, class) order raises NonFiniteLogitError (as sample 0), then
    the first cost that is not finite and positive NonPositiveCostError.
    """
    logits = np.asarray(logits_per_model, dtype=np.float64)
    if logits.ndim != 2:
        raise DimensionMismatchError(
            f"expected (num_models, num_classes) logits, got {logits.ndim}-D input"
        )
    num_models, num_classes = logits.shape
    if num_classes < 2:
        raise DimensionMismatchError("need at least 2 classes")
    costs = np.asarray(costs_ms, dtype=np.float64)
    if costs.shape != (num_models,):
        raise DimensionMismatchError(
            f"expected {num_models} costs, got shape {costs.shape}"
        )
    schedule.validate_for(num_models)
    finite = np.isfinite(logits)
    if not finite.all():
        model, column = np.unravel_index(np.argmin(finite), finite.shape)
        raise NonFiniteLogitError(int(model), 0, int(column))
    cum_costs = _cumulative_costs(costs)

    margins, predictions = _prefix_stage_stats(np.cumsum(logits[:, np.newaxis, :], axis=0))
    used = int(_models_used(margins, schedule.thresholds)[0])
    return _trace(margins, predictions, cum_costs, 0, used)


def run_dataset(
    dataset: EnsembleDataset | DatasetFiles, schedule: ThresholdSchedule
) -> CascadeRun:
    """Run the cascade on every sample; the result is indexed by sample."""
    schedule.validate_for(dataset.num_models)
    tables = stage_tables(dataset)
    used = _models_used(tables.margins, schedule.thresholds)
    used.setflags(write=False)
    return CascadeRun(tables, used)
