"""Margin-gated cascade over an ensemble of models.

Models are evaluated in dataset order. After stage k the running mean of
the first k logit vectors is softmaxed and its top-two margin compared
against that stage's threshold: the cascade stops when margin >= threshold,
otherwise the next model runs. After the last model no threshold is
consulted. A threshold of 0 therefore always stops after one model, and a
threshold of 1 never stops, not even where a top-two logit gap beyond ~36
rounds the margin to exactly 1.0, which reproduces full-ensemble execution.

Because the per-stage margins and predictions of a sample do not depend on
the threshold schedule, one pass over the stages serves any number of
schedules, each a cheap vectorized scan. One generator, _stage_chunks,
computes them from a chunk source: an in-memory EnsembleDataset, or a
DatasetFiles handle that reads the payload files, checking them as it goes
(see dataset_io). It takes a chunk of samples (about 128 Ki values over all
models) at a time from either and yields that chunk's margins and predictions,
so it needs O(chunk) working memory whatever N and M are. stage_tables
stores what it yields as the schedule-independent (N, M) "stage tables",
built anew on every call and kept by nothing but the caller. metrics_report's
sweeps and histogram instead reduce each chunk to counts as it comes, and
calibration.calibrate to grid bins and wrong flags, so the CLI's run,
baseline, histogram and calibrate hold neither the (N, M, C) tensor nor the
(N, M) tables. Stage k depends only on models 1..k, so a pass over the first
k models gives the first k stages of the full one.

Two kernels compute the same bytes from a chunk's running logit sums. The
definition is the softmax of the running mean, then its top two: divide the
sums by k, subtract the row max, exp, divide by the row sum, and take the
argmax, its value and the largest other value counted with multiplicity.
Both kernels are checked against that definition, written out plainly in
the tests. The row kernel, _prefix_stage_stats, holds each sample's classes
in one contiguous row and reduces along it; it divides only the two values
it keeps by the row sum, which is exact where the margin is positive, and
recomputes the near ties where it is not. numpy pays a per-row loop
overhead for each of its reductions, which dominates when the row is
short. So up to _CLASS_MAJOR_MAX_CLASSES classes stage_tables lays each
chunk out class-major, (N, C, n), for _class_major_stage_stats, whose
every step is elementwise over all n samples at once; its class sum replays
numpy's pairwise_sum, the order .sum(axis=-1) adds a row of up to 128 values
in, so no bit changes. The row kernel stays for wide C, where its reductions
are cheap and the class-major kernel's C-long loops of numpy calls are not.
Either way a sample's results do not depend on which other samples share its
chunk, so chunking changes no output bit.

run_sample, the per-request path, checks its whole input first, as datasets
check theirs. It then takes the row kernel's steps on all N stages of its
one sample in a few whole-array calls, up to the exp'd rows and their sums,
and finds each stage's top two in a Python loop that stops at the exit
stage, so only the stages the sample runs are reduced. It agrees with
run_dataset bit for bit.

run_dataset returns a columnar CascadeRun, whose run[i] builds sample i's
CascadeTrace on demand; metrics_report.report takes only this result, not
a hand-built list of traces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset_io import DatasetFiles, EnsembleDataset, _beyond_float32_at, _cumulative_costs
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
    costs. Arrays are frozen. stage_tables builds them chunk by chunk in
    O(chunk) working memory, with the same bytes a whole-array build gives.
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
        return CascadeTrace(
            models_used=used,
            margins=tables.margins[:used, sample].copy(),
            prediction=int(tables.predictions[used - 1, sample]),
            cost_ms=float(tables.cum_costs_ms[used - 1]),
        )


def _prefix_stage_stats(prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins and predictions of every stage from float64 running logit sums.

    The row kernel. prefix is (num_models, n, num_classes) with prefix[k] the
    sum of the first k+1 models' logits; it is overwritten. Both results are
    (num_models, n). Every reduction runs along one row's class axis, so a
    sample's results do not depend on which other samples share the call. It
    serves wide class axes.

    The definition divides each exp'd row by its sum and then takes the
    argmax and the masked max; this kernel divides only the two values it
    keeps. Correctly rounded division by a positive sum is monotone, so the
    largest quotient is the quotient of the largest value. Where the exp'd
    value at the means' argmax, over the sum, exceeds the largest other
    value over the sum, that class is the quotients' strict maximum, and the
    prediction and margin are the definition's bytes. Any other row (a
    margin of 0 or less) is a near tie, where exp or the division can round
    an earlier class up to the top, so it is divided in full and reduced as
    the definition does.
    """
    num_models, num_samples, num_classes = prefix.shape
    prefix[1:] /= np.arange(2, num_models + 1, dtype=np.float64)[:, None, None]
    rows = prefix.reshape(-1, num_classes)
    best = rows.argmax(axis=1)
    flat = best + np.arange(0, rows.size, num_classes)
    rows -= rows.take(flat)[:, None]
    np.exp(rows, out=rows)
    total = rows.sum(axis=1)
    top = rows.take(flat)
    # a tied maximum leaves another copy behind, so the masked max is the
    # second-largest value counted with multiplicity, as np.partition gives
    rows.put(flat, -np.inf)
    second = rows.max(axis=1)
    margins = top / total
    margins -= np.divide(second, total, out=second)
    if not margins.min() > 0:
        tied = np.flatnonzero(margins <= 0)
        rows.put(flat[tied], top[tied])
        tie_rows = rows[tied] / total[tied, None]
        best[tied] = tie_rows.argmax(axis=1)
        tie_flat = best[tied] + np.arange(0, tie_rows.size, num_classes)
        tie_top = tie_rows.take(tie_flat)
        tie_rows.put(tie_flat, -np.inf)
        margins[tied] = tie_top - tie_rows.max(axis=1)
    shape = (num_models, num_samples)
    return margins.reshape(shape), best.reshape(shape)


# stage_tables builds class-major up to this many classes and row-major above.
# Over 128 Ki-value chunks (N=7, an in-memory ensemble_size_sweep, median of 5)
# the class-major pass took 0.51x the row pass's time at C=10, 0.74x at 20,
# 0.77-0.88x at 24, 0.95-1.01x at 26, 0.94-1.05x at 28, 1.14-1.22x at 32 and
# 1.47x at 48 (2 vCPU AVX-512 Xeon, numpy 2.4.6). It may not exceed 128: the
# class-major kernel's _pairwise_sum replays numpy's order only up to there.
_CLASS_MAJOR_MAX_CLASSES = 26


def _pairwise_sum(rows: np.ndarray, out: np.ndarray, spare: list) -> np.ndarray:
    """Sum (num_models, K, n) rows over axis 1 into out, (num_models, n).

    Each value is added in the order numpy's pairwise_sum adds a contiguous
    row of K <= 128 values (it halves longer rows), so out equals the row sum
    bit for bit where the values are not negative (numpy adds the row's sum
    to 0.0, which then changes nothing). spare holds three free buffers
    shaped like out.
    """
    num = rows.shape[1]
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
    last two axes swapped; it is overwritten. It follows the definition step
    by step, dividing every value by the class sum, but each step is
    elementwise over all n samples at once, so no reduction runs along a
    short row: the max and the top two are exact in any order, the
    prediction is the first class equal to the top, and the sum replays
    numpy's pairwise_sum. Its working memory is four (num_models, n) arrays.
    """
    num_models, num_classes, _ = prefix.shape
    prefix[1:] /= np.arange(2, num_models + 1, dtype=np.float64)[:, None, None]
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


def _stage_chunks(
    source: EnsembleDataset | DatasetFiles, num_models: int, stop: int | None = None
):
    """Yield (samples, margins, predictions) of the first num_models stages, a
    chunk of samples at a time, margins and predictions (num_models, n).

    Only the samples below stop (default all) are yielded, and the kernel runs
    only on the chunks that hold them, but every chunk is still read, so a
    DatasetFiles pass checks all of them; it raises at its end, once the
    consumer has taken every chunk.
    """
    stop = source.num_samples if stop is None else min(stop, source.num_samples)
    class_major = source.num_classes <= _CLASS_MAJOR_MAX_CLASSES
    kernel = _class_major_stage_stats if class_major else _prefix_stage_stats
    buffer = None
    for samples, block in source.logit_chunks():
        if samples.start >= stop:
            continue
        samples = slice(samples.start, min(samples.stop, stop))
        block = block[:num_models, : samples.stop - samples.start]
        logits = block.transpose(0, 2, 1) if class_major else block
        if buffer is None:  # the first chunk is the largest
            buffer = np.empty(logits.size, dtype=np.float64)
        prefix = buffer[: logits.size].reshape(logits.shape)
        np.copyto(prefix, logits)
        # the same sequential order as np.cumsum(axis=0), several times faster here
        for k in range(1, num_models):
            prefix[k] += prefix[k - 1]
        yield samples, *kernel(prefix)


def stage_tables(source: EnsembleDataset | DatasetFiles) -> StageTables:
    """Build the stage tables of every stage for a chunk source, on every call."""
    num_models, num_samples = source.num_models, source.num_samples
    margins = np.empty((num_models, num_samples), dtype=np.float64)
    predictions = np.empty((num_models, num_samples), dtype=np.int64)
    for samples, chunk_margins, chunk_predictions in _stage_chunks(source, num_models):
        margins[:, samples], predictions[:, samples] = chunk_margins, chunk_predictions
        # freed before the next chunk's kernel runs, which would otherwise raise the peak
        del chunk_margins, chunk_predictions
    wrong = np.count_nonzero(predictions != source.labels, axis=1).astype(np.int64)
    cum_costs = np.array(_cumulative_costs(source.costs_ms, num_samples))
    for arr in (margins, predictions, wrong, cum_costs):
        arr.setflags(write=False)
    return StageTables(margins, predictions, wrong, cum_costs)


def _stop_level(threshold: float) -> float:
    """The margin at which a threshold stops: itself, except that 1.0 never
    stops, not even a saturated margin that rounds to exactly 1.0."""
    return np.inf if threshold == 1.0 else threshold


def _stop_levels(thresholds) -> np.ndarray:
    return np.array([_stop_level(t) for t in thresholds], dtype=np.float64)


def _models_used(margins: np.ndarray, thresholds) -> np.ndarray:
    """First stage whose margin clears its threshold, else the full ensemble."""
    stop = np.ones(margins.shape, dtype=bool)
    np.greater_equal(margins[:-1], _stop_levels(thresholds)[:, None], out=stop[:-1])
    return stop.argmax(axis=0) + 1


def full_ensemble_predictions(dataset: EnsembleDataset | DatasetFiles) -> np.ndarray:
    """Predictions when every model is always evaluated, the stage tables' last
    row, from one pass that keeps only that row (frozen int64)."""
    predictions = np.empty(dataset.num_samples, dtype=np.int64)
    for samples, chunk_margins, chunk_predictions in _stage_chunks(dataset, dataset.num_models):
        predictions[samples] = chunk_predictions[-1]
        # freed before the next chunk's kernel runs, which would otherwise raise the peak
        del chunk_margins, chunk_predictions
    predictions.setflags(write=False)
    return predictions


# run_sample reduces rows of up to this many classes as Python lists, and wider
# ones with numpy calls. Per call at N=7 the two broke even at 16-20 classes,
# and lists took 5x as long at 1000 (2 vCPU Xeon, numpy 2.4.6).
_LIST_MAX_CLASSES = 16


def _top_two(row) -> tuple[int, float, float]:
    """The first index of a row's max, the max, and the largest other value
    counted with multiplicity, as argmax and the row kernel's masked max give.
    row is a list or a float64 array."""
    best = row.index(max(row)) if isinstance(row, list) else int(row.argmax())
    top, row[best] = row[best], -np.inf
    second = max(row) if isinstance(row, list) else row.max()
    row[best] = top
    return best, top, second


def run_sample(logits_per_model, schedule: ThresholdSchedule, costs_ms) -> CascadeTrace:
    """Run the cascade on a single sample's (num_models, num_classes) logits.

    The input is checked as datasets check theirs, whose logits are float32:
    the first logit in (model, class) order that is not finite or lies beyond
    the float32 range raises NonFiniteLogitError (as sample 0), then the first
    cost that is not finite and positive NonPositiveCostError, and costs whose
    total is not finite a ValidationError. The checks cover every model, also
    those after the stage where the sample exits.
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
    bad = _beyond_float32_at(logits)
    if bad is not None:
        model, column = bad
        raise NonFiniteLogitError(model, 0, column)
    cum_costs = _cumulative_costs(costs, 1)

    # the row kernel's steps on every stage at once; subtracting the row max,
    # not the value at the means' argmax, changes at most the sign of a zero,
    # and exp(-0.0) == exp(0.0) == 1.0
    rows = logits.cumsum(axis=0)
    rows[1:] /= np.arange(2, num_models + 1, dtype=np.float64)[:, None]
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    totals, margins = rows.sum(axis=1).tolist(), []
    stage_rows = rows.tolist() if num_classes <= _LIST_MAX_CLASSES else rows
    for used, (row, total) in enumerate(zip(stage_rows, totals), 1):
        best, top, second = _top_two(row)
        margin = top / total - second / total
        if not margin > 0:  # a near tie: divide the row in full, as _prefix_stage_stats does
            best, top, second = _top_two(np.divide(row, total))
            margin = top - second
        margins.append(margin)
        if used == num_models or margin >= _stop_level(schedule.thresholds[used - 1]):
            break
    return CascadeTrace(used, np.array(margins), best, cum_costs[used - 1])


def run_dataset(
    dataset: EnsembleDataset | DatasetFiles, schedule: ThresholdSchedule
) -> CascadeRun:
    """Run the cascade on every sample; the result is indexed by sample."""
    schedule.validate_for(dataset.num_models)
    tables = stage_tables(dataset)
    used = _models_used(tables.margins, schedule.thresholds)
    used.setflags(write=False)
    return CascadeRun(tables, used)
