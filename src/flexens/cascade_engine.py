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
there are, and no CLI command holds the (N, M, C) tensor. Stage k depends
only on models 1..k, so a build of the first k models gives the first k rows
of the full one.

Two kernels compute the same bytes from a chunk's running logit sums. The
row kernel, _prefix_stage_stats, is the reference definition: it holds each
sample's classes in one contiguous row and reduces along it (max, sum,
argmax, masked max). numpy pays a per-row loop overhead for each of those
reductions, which dominates when the row is short. So up to
_CLASS_MAJOR_MAX_CLASSES classes stage_tables lays each chunk out
class-major, (N, C, n), for _class_major_stage_stats, whose every step is
elementwise over all n samples at once; its class sum replays numpy's
pairwise_sum, the order .sum(axis=-1) adds a row in, so no bit changes.
The row kernel stays for wide C, where its reductions are cheap and the
class-major kernel's C-long loops of numpy calls are not, and for
run_sample, which has one sample per call. A class-major prototype used
everywhere made the per_sample benchmark's wall_norm go from 134 to 179
(+33%) and eval_c100's (C=100) 6-9% worse. Either way a sample's results
do not depend on which other samples share its chunk, so chunking changes
no output bit, and run_sample and run_dataset agree bit-for-bit.

run_dataset returns a columnar CascadeRun, whose run[i] builds sample i's
CascadeTrace on demand; metrics_report.report takes only this result, not
a hand-built list of traces.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset_io import _FLOAT32_MAX, DatasetFiles, EnsembleDataset, _cumulative_costs
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

    The row kernel and the reference definition. prefix is (num_models, n,
    num_classes) with prefix[k] the sum of the first k+1 models' logits; it
    is overwritten. Both results are (num_models, n). Every reduction runs
    along one row's class axis, so a sample's results do not depend on which
    other samples share the call. It serves run_sample and wide class axes.
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


# stage_tables builds class-major up to this many classes and row-major above.
# Per chunk (N=7, 64 Ki values per model; copy, prefix sums and kernel) the
# class-major build took 0.31x the row build's time at C=10, 0.73x at 32,
# 0.87x at 48, 0.96x at 56 and 60, and 1.13x at 64 (2 vCPU AVX-512 Xeon,
# numpy 2.4.6).
_CLASS_MAJOR_MAX_CLASSES = 48

# numpy's pairwise_sum adds up to this many values with 8 accumulators, and
# halves longer runs
_PAIRWISE_BLOCK = 128


def _pairwise_sum(rows: np.ndarray, out: np.ndarray, spare: list) -> np.ndarray:
    """Sum (num_models, K, n) rows over axis 1 into out, (num_models, n).

    Each value is added in the order numpy's pairwise_sum adds a contiguous
    row of K values, so out equals the row sum bit for bit where the values
    are not negative (numpy adds the row's sum to 0.0, which then changes
    nothing). spare holds three free buffers shaped like out.
    """
    num = rows.shape[1]
    if num > _PAIRWISE_BLOCK:  # two halves, the first a multiple of 8 values long
        half = num // 2 - num // 2 % 8
        _pairwise_sum(rows[:, :half], out, spare)
        out += _pairwise_sum(rows[:, half:], np.empty_like(out), spare)
        return out
    if num < 8:  # one accumulator
        np.copyto(out, rows[:, 0])
        for j in range(1, num):
            out += rows[:, j]
        return out
    stop = num - num % 8
    _pairwise_tree(rows, 0, 8, stop, out, spare)
    for j in range(stop, num):
        out += rows[:, j]
    return out


def _pairwise_tree(rows, first: int, width: int, stop: int, out, spare):
    """((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) for width 8, where
    accumulator r_j adds rows j, j + 8, ... below stop in turn; a width-1 tree
    of one row is that row's view, any other result is in out."""
    if width == 1:
        if stop == 8:
            return rows[:, first]
        np.add(rows[:, first], rows[:, first + 8], out=out)
        for j in range(first + 16, stop, 8):
            out += rows[:, j]
        return out
    half = width // 2
    left = _pairwise_tree(rows, first, half, stop, out, spare)
    right = _pairwise_tree(rows, first + half, half, stop, spare[0], spare[1:])
    return np.add(left, right, out=out)


def _class_major_stage_stats(prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_prefix_stage_stats' results from class-major running sums, bit for bit.

    prefix is (num_models, num_classes, n), the row kernel's input with its
    last two axes swapped; it is overwritten. Every step is elementwise over
    all n samples at once, so no reduction runs along a short row: the max
    and the top two are exact in any order, the prediction is the first class
    equal to the top, and the sum replays numpy's pairwise_sum. Its working
    memory is four (num_models, n) arrays, one fewer than the row kernel's.
    """
    num_models, num_classes, _ = prefix.shape
    prefix /= np.arange(1, num_models + 1, dtype=np.float64)[:, None, None]
    top = np.maximum.reduce(prefix, axis=1)
    prefix -= top[:, None]
    np.exp(prefix, out=prefix)
    total, lower = np.empty_like(top), np.empty_like(top)
    _pairwise_sum(prefix, total, [top, lower, np.empty_like(top)])
    prefix /= total[:, None]
    # the top two counted with multiplicity, as the row kernel's masked max
    # gives: each value moves the second up to min(top, value) at most
    second = total
    np.maximum(prefix[:, 0], prefix[:, 1], out=top)
    np.minimum(prefix[:, 0], prefix[:, 1], out=second)
    for j in range(2, num_classes):
        np.minimum(top, prefix[:, j], out=lower)
        np.maximum(second, lower, out=second)
        np.maximum(top, prefix[:, j], out=top)
    del lower  # so the peak stays the sum's four arrays
    # the first class equal to the top holds the largest num_classes - j
    key_type = np.min_scalar_type(num_classes)
    rank, key = np.zeros(top.shape, dtype=key_type), np.empty(top.shape, dtype=key_type)
    match = np.empty(top.shape, dtype=bool)
    for j in range(num_classes):
        np.equal(prefix[:, j], top, out=match)
        np.multiply(match, key_type.type(num_classes - j), out=key)
        np.maximum(rank, key, out=rank)
    top -= second
    return top, np.subtract(num_classes, rank, dtype=np.int64)


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
        class_major = source.num_classes <= _CLASS_MAJOR_MAX_CLASSES
        kernel = _class_major_stage_stats if class_major else _prefix_stage_stats
        buffer = None
        for chunk, block in source.logit_chunks():
            logits = block[:models].transpose(0, 2, 1) if class_major else block[:models]
            if buffer is None:  # the first chunk is the largest
                buffer = np.empty(logits.size, dtype=np.float64)
            prefix = buffer[: logits.size].reshape(logits.shape)
            np.copyto(prefix, logits)
            # the same sequential order as np.cumsum(axis=0), several times faster here
            for k in range(1, models):
                prefix[k] += prefix[k - 1]
            margins[:, chunk], predictions[:, chunk] = kernel(prefix)
        wrong = np.count_nonzero(predictions != source.labels, axis=1).astype(np.int64)
        cum_costs = np.array(_cumulative_costs(source.costs_ms[:models], source.num_samples))
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

    The input is checked as datasets check theirs, whose logits are float32:
    the first logit in (model, class) order that is not finite or lies beyond
    the float32 range raises NonFiniteLogitError (as sample 0), then the first
    cost that is not finite and positive NonPositiveCostError, and costs whose
    total is not finite a ValidationError.
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
    magnitudes = np.abs(logits)
    if not magnitudes.max() <= _FLOAT32_MAX:  # max propagates NaN, and NaN <= x is false
        model, column = np.unravel_index(np.argmin(magnitudes <= _FLOAT32_MAX), logits.shape)
        raise NonFiniteLogitError(int(model), 0, int(column))
    cum_costs = _cumulative_costs(costs, 1)

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
