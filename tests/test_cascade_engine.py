import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import chunk_step
from flexens import cascade_engine
from flexens.cascade_engine import (
    _CLASS_MAJOR_MAX_CLASSES,
    CascadeTrace,
    ThresholdSchedule,
    _class_major_stage_stats,
    _prefix_stage_stats,
    _stage_chunks,
    _top_two,
    full_ensemble_predictions,
    run_dataset,
    run_sample,
    stage_tables,
)
from flexens.dataset_io import (
    MANIFEST_NAME,
    EnsembleDataset,
    open_dataset,
    save_dataset,
)
from flexens.errors import (
    DimensionMismatchError,
    NonFiniteLogitError,
    NonPositiveCostError,
    ScheduleMismatchError,
    ValidationError,
)

FLOAT32_MAX = np.float64(np.finfo(np.float32).max)


def check_trace_invariants(trace: CascadeTrace, schedule: ThresholdSchedule, dataset, sample):
    """Continuation held at every non-final stage; stop fired if not exhausted."""
    num_models = dataset.num_models
    taus = schedule.thresholds
    assert 1 <= trace.models_used <= num_models
    assert len(trace.margins) == trace.models_used
    for stage in range(trace.models_used - 1):
        assert trace.margins[stage] < taus[stage]
    if trace.models_used < num_models:
        assert trace.margins[trace.models_used - 1] >= taus[trace.models_used - 1]
    expected_cost = float(np.cumsum(dataset.costs_ms)[trace.models_used - 1])
    assert trace.cost_ms == expected_cost


class TestThresholdSchedule:
    def test_uniform_constructor(self):
        assert ThresholdSchedule.uniform(0.5, 4).thresholds == (0.5, 0.5, 0.5)
        assert ThresholdSchedule.uniform(1.0, 1).thresholds == ()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ThresholdSchedule((0.5, 1.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ThresholdSchedule((-0.1,))
        with pytest.raises(ValueError):
            ThresholdSchedule((float("nan"),))

    def test_length_check(self):
        with pytest.raises(ScheduleMismatchError):
            ThresholdSchedule((0.5,)).validate_for(3)


class TestRunSample:
    def test_early_stop_on_confident_first_stage(self):
        # stage-1 margin of softmax([2, 0]) is tanh(1) ~ 0.7616 >= 0.7
        trace = run_sample(
            [[2.0, 0.0], [0.0, 2.0], [4.0, 0.0]],
            ThresholdSchedule((0.7, 0.7)),
            [1.0, 1.0, 1.0],
        )
        assert trace.models_used == 1
        assert trace.prediction == 0
        assert trace.margins[0] == pytest.approx(math.tanh(1.0), abs=1e-4)
        assert trace.cost_ms == 1.0

    def test_runs_to_exhaustion_below_threshold(self):
        trace = run_sample(
            [[0.1, 0.0], [0.0, 0.1], [0.1, 0.0]],
            ThresholdSchedule((0.9, 0.9)),
            [1.0, 2.0, 4.0],
        )
        assert trace.models_used == 3
        assert trace.cost_ms == 7.0

    def test_rejects_bad_shapes(self):
        schedule = ThresholdSchedule((0.5,))
        with pytest.raises(DimensionMismatchError):
            run_sample([1.0, 2.0], schedule, [1.0])
        with pytest.raises(DimensionMismatchError):
            run_sample([[1.0, 2.0], [1.0, 2.0]], schedule, [1.0])
        with pytest.raises(ScheduleMismatchError):
            run_sample([[1.0, 2.0], [1.0, 2.0]], ThresholdSchedule((0.5, 0.5)), [1.0, 1.0])

    def test_rejects_zero_models_before_the_schedule(self):
        with pytest.raises(DimensionMismatchError, match="^need at least 1 model$"):
            run_sample(np.empty((0, 3)), ThresholdSchedule(()), [])

    def test_rejects_single_class(self):
        with pytest.raises(DimensionMismatchError, match="^need at least 2 classes$"):
            run_sample([[1.0], [2.0]], ThresholdSchedule((0.5,)), [1.0, 1.0])

    @pytest.mark.parametrize(
        "bad, first",
        [
            ({(1, 2): math.nan}, (1, 2)),
            ({(0, 1): math.inf}, (0, 1)),
            ({(2, 0): -math.inf}, (2, 0)),  # leaves every margin finite
            ({(2, 0): math.inf, (1, 3): -math.inf, (1, 1): math.nan}, (1, 1)),
        ],
        ids=["nan", "inf", "minus_inf", "first_in_model_class_order"],
    )
    def test_rejects_non_finite_logits_as_datasets_do(self, bad, first):
        logits = np.zeros((3, 4))
        for index, value in bad.items():
            logits[index] = value
        costs = [-1.0, math.nan, 1.0]  # logits are checked before costs
        with pytest.raises(NonFiniteLogitError) as single:
            run_sample(logits, ThresholdSchedule((0.5, 0.5)), costs)
        error = single.value
        assert (error.model, error.sample, error.class_index) == (first[0], 0, first[1])
        with pytest.raises(NonFiniteLogitError) as dataset:
            EnsembleDataset(logits[:, None, :].astype(np.float32), np.zeros(1, np.int64), costs)
        assert str(single.value) == str(dataset.value)

    @pytest.mark.parametrize(
        "value",
        [1e308, -1e308, float(np.nextafter(FLOAT32_MAX, np.inf))],
        ids=["overflows_the_sum", "negative", "just_above_float32_max"],
    )
    def test_rejects_logits_beyond_the_float32_range(self, value):
        logits = [[0.0, value], [0.0, value]]
        with pytest.raises(NonFiniteLogitError) as exc:
            run_sample(logits, ThresholdSchedule((1.0,)), [1.0, 1.0])
        assert (exc.value.model, exc.value.sample, exc.value.class_index) == (0, 0, 1)

    def test_accepts_logits_at_the_float32_range_ends(self):
        top = float(np.finfo(np.float32).max)
        trace = run_sample([[0.0, top], [-top, 0.0]], ThresholdSchedule((1.0,)), [1.0, 1.0])
        assert trace.models_used == 2
        assert trace.margins.tolist() == [1.0, 1.0]
        assert trace.prediction == 1

    def test_rejects_costs_whose_total_is_not_finite(self):
        with pytest.raises(ValidationError, match="^costs_ms .* overflow"):
            run_sample(np.zeros((2, 3)), ThresholdSchedule((1.0,)), [1e308, 1e308])

    @pytest.mark.parametrize(
        "costs, model",
        [
            ([-1.0, math.nan, 1.0], 0),
            ([1.0, math.nan, 1.0], 1),
            ([1.0, 1.0, math.inf], 2),
            ([1.0, 0.0, -0.0], 1),
        ],
        ids=["negative", "nan", "inf", "zero"],
    )
    def test_rejects_bad_costs_as_datasets_do(self, costs, model):
        logits = np.zeros((3, 4))
        with pytest.raises(NonPositiveCostError) as single:
            run_sample(logits, ThresholdSchedule((0.5, 0.5)), costs)
        assert single.value.model == model
        assert repr(single.value.value) == repr(costs[model])
        with pytest.raises(NonPositiveCostError) as dataset:
            EnsembleDataset(logits[:, None, :].astype(np.float32), np.zeros(1, np.int64), costs)
        assert str(single.value) == str(dataset.value)

    # thresholds of 0 stop every sample after model 0, so only the checks of
    # the whole input can see a bad value in the last model
    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, float(np.nextafter(FLOAT32_MAX, np.inf))],
        ids=["nan", "inf", "minus_inf", "beyond_float32"],
    )
    def test_a_bad_logit_after_the_exit_stage_is_refused(self, value):
        logits = np.zeros((3, 4))
        logits[0, 1] = 5.0
        schedule = ThresholdSchedule.uniform(0.0, 3)
        assert run_sample(logits, schedule, [1.0, 1.0, 1.0]).models_used == 1
        logits[2, 3] = value
        with pytest.raises(NonFiniteLogitError) as single:
            run_sample(logits, schedule, [1.0, 1.0, -1.0])  # logits are checked before costs
        assert (single.value.model, single.value.sample, single.value.class_index) == (2, 0, 3)
        assert str(single.value) == "non-finite logit at model=2, sample=0, class=3"

    @pytest.mark.parametrize(
        "cost", [-1.0, 0.0, math.nan, math.inf], ids=["negative", "zero", "nan", "inf"]
    )
    def test_a_bad_cost_after_the_exit_stage_is_refused(self, cost):
        logits = np.zeros((3, 4))
        with pytest.raises(NonPositiveCostError) as single:
            run_sample(logits, ThresholdSchedule.uniform(0.0, 3), [1.0, 1.0, cost])
        assert single.value.model == 2
        with pytest.raises(NonPositiveCostError) as dataset:
            EnsembleDataset(
                logits[:, None, :].astype(np.float32), np.zeros(1, np.int64), [1.0, 1.0, cost]
            )
        assert str(single.value) == str(dataset.value)

    def test_a_cost_total_beyond_the_float_range_after_the_exit_stage_is_refused(self):
        costs = [1.0, 1e308, 1e308]
        with pytest.raises(ValidationError, match=r"^costs_ms \[1.0, 1e\+308, 1e\+308\] overflow"):
            run_sample(np.zeros((3, 4)), ThresholdSchedule.uniform(0.0, 3), costs)

    def test_a_schedule_for_another_ensemble_is_refused_before_the_logits(self):
        logits = np.full((3, 4), math.nan)
        with pytest.raises(ScheduleMismatchError):
            run_sample(logits, ThresholdSchedule.uniform(0.0, 2), [1.0, 1.0, 1.0])


# class counts on both sides of numpy's pairwise_sum edges, and the paper's 1000
RUN_SAMPLE_CLASSES = [2, 3, 7, 8, 9, 10, 16, 17, 33, 129, 300, 1000]


@pytest.mark.parametrize("num_classes", [2, 3, 10, 1000])
def test_top_two_counts_a_repeated_max_twice(num_classes):
    # small integers repeat the max in most rows; zero rows tie at every class
    rows = np.random.default_rng([num_classes, 28]).integers(0, 3, (300, num_classes)) / 2.0
    rows[::7] = 0.0
    best, top, second = _top_two(rows)
    ordered = np.sort(rows, axis=1)
    assert best.tolist() == rows.argmax(axis=1).tolist()
    assert top.tobytes() == ordered[:, -1].tobytes()
    assert second.tobytes() == ordered[:, -2].tobytes()
    assert ((top == second) & (top > 0)).any() and (top == 0).any()


class TestRunSampleEqualsRunDataset:
    @pytest.mark.parametrize("num_classes", RUN_SAMPLE_CLASSES)
    def test_every_trace_field_is_equal(self, num_classes):
        num_models = 4
        rng = np.random.default_rng([num_classes, 18])
        # in blocks of 40 samples: integer logits in [-2, 2], so exact ties, and a
        # top-two gap of 40 in every fifth; all-zero rows; 1e-6-scale logits,
        # which exp rounds to ties; near ties; logits of scale 3
        logits = np.concatenate([
            tied_logits(rng, num_models, 40, num_classes),
            np.zeros((num_models, 40, num_classes), np.float32),
            rng.normal(0, 1e-6, (num_models, 40, num_classes)).astype(np.float32),
            rng.normal(0, 3, (num_models, 80, num_classes)).astype(np.float32),
        ], axis=1)
        add_near_ties(logits, range(120, 160))
        labels = rng.integers(0, num_classes, logits.shape[1])
        ds = EnsembleDataset(logits, labels, rng.uniform(0.5, 3.0, num_models))
        margins = stage_tables(ds).margins
        assert (margins[:, 40:80] == 0.0).all()
        saturated = margins[:, :40:5].min()  # the gap of 40: exactly 1.0 up to 33 classes
        assert saturated == 1.0 if num_classes <= 33 else saturated > 1 - 1e-12
        for thresholds in [
            (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.3, 0.1, 0.05), (0.9, 0.5, 1.0),
        ]:
            schedule = ThresholdSchedule(thresholds)
            run = run_dataset(ds, schedule)
            for sample in range(ds.num_samples):
                single, trace = run_sample(logits[:, sample], schedule, ds.costs_ms), run[sample]
                assert single.models_used == trace.models_used
                assert single.prediction == trace.prediction
                assert single.cost_ms == trace.cost_ms
                assert single.margins.tobytes() == trace.margins.tobytes()

    @pytest.mark.parametrize("num_classes", [3, 7, 18, 103])
    def test_a_top_tie_that_division_moves_to_an_earlier_class(self, num_classes):
        # class 0 exps to 1 - 2**-53 and every other class to 1.0, a top-two
        # margin of exactly 0; divided by the sum, class 0 rounds up to the
        # others, so the definition predicts class 0, not class 1
        logits = np.zeros((2, 1, num_classes), np.float32)
        logits[:, 0, 0] = -4.6e-17
        margins, predictions = reference_stage_stats(logits.astype(np.float64))
        assert predictions.tolist() == [[0], [0]]
        ds = EnsembleDataset(logits, np.zeros(1, np.int64), np.ones(2))
        for schedule in (ThresholdSchedule((0.0,)), ThresholdSchedule((1.0,))):
            single = run_sample(logits[:, 0], schedule, ds.costs_ms)
            trace = run_dataset(ds, schedule)[0]
            assert single.prediction == trace.prediction == 0
            assert single.margins.tobytes() == trace.margins.tobytes()
            assert single.margins.tobytes() == margins[: single.models_used, 0].tobytes()


class TestRunDataset:
    def test_unreachable_threshold_equals_full_ensemble(self, seed42_dataset):
        traces = run_dataset(seed42_dataset, ThresholdSchedule.uniform(1.0, 7))
        assert all(t.models_used == 7 for t in traces)
        predictions = np.array([t.prediction for t in traces])
        np.testing.assert_array_equal(predictions, full_ensemble_predictions(seed42_dataset))

    def test_zero_threshold_stops_at_first_model(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(21), num_models=4)
        traces = run_dataset(ds, ThresholdSchedule.uniform(0.0, 4))
        assert all(t.models_used == 1 for t in traces)
        stage_one = stage_tables(ds).predictions[0]
        np.testing.assert_array_equal([t.prediction for t in traces], stage_one)

    def test_single_model_dataset(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(5), num_models=1)
        traces = run_dataset(ds, ThresholdSchedule(()))
        assert all(t.models_used == 1 for t in traces)

    def test_schedule_length_mismatch(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(5), num_models=3)
        with pytest.raises(ScheduleMismatchError):
            run_dataset(ds, ThresholdSchedule((0.5,)))

    def test_dropping_a_run_frees_its_tables_while_the_dataset_lives(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(5), num_models=3)
        run = run_dataset(ds, ThresholdSchedule((0.5, 0.5)))
        tables = weakref.ref(run.tables)
        del run
        gc.collect()
        assert tables() is None

    def test_trace_invariants_hold(self, dataset_factory):
        rng = np.random.default_rng(17)
        for _ in range(5):
            ds = dataset_factory(rng, num_models=4, num_samples=40)
            schedule = ThresholdSchedule(tuple(np.round(rng.uniform(0, 1, 3), 2)))
            for sample, trace in enumerate(run_dataset(ds, schedule)):
                check_trace_invariants(trace, schedule, ds, sample)

    def test_matches_run_sample(self, dataset_factory):
        rng = np.random.default_rng(29)
        ds = dataset_factory(rng, num_models=4, num_samples=30, num_classes=5)
        schedule = ThresholdSchedule((0.3, 0.55, 0.2))
        run = run_dataset(ds, schedule)
        assert len(run) == ds.num_samples
        for sample, trace in [*enumerate(run), (ds.num_samples - 1, run[-1])]:
            single = run_sample(ds.logits[:, sample], schedule, ds.costs_ms)
            assert single.models_used == trace.models_used
            assert single.prediction == trace.prediction
            np.testing.assert_array_equal(single.margins, trace.margins)
            assert single.cost_ms == trace.cost_ms

    def test_saturated_margin_does_not_stop_at_threshold_one(self):
        # a top-two gap of 40 rounds model 1's softmax margin to exactly 1.0,
        # yet thresholds of 1.0 must still reproduce the full ensemble
        logits = np.array([[40.0, 0.0], [0.0, 45.0], [0.0, 45.0]])
        schedule = ThresholdSchedule.uniform(1.0, 3)
        single = run_sample(logits, schedule, [1.0, 1.0, 1.0])
        assert single.margins[0] == 1.0
        assert (single.models_used, single.prediction) == (3, 1)

        ds = EnsembleDataset(logits[:, np.newaxis, :], np.array([1]), np.ones(3))
        run = run_dataset(ds, schedule)
        np.testing.assert_array_equal(run.models_used, [3])
        np.testing.assert_array_equal(
            [t.prediction for t in run], full_ensemble_predictions(ds)
        )

    def test_prefix_determinism(self, dataset_factory):
        # rewriting the logits of models beyond models_used must not change a trace
        rng = np.random.default_rng(31)
        ds = dataset_factory(rng, num_models=4, num_samples=60)
        schedule = ThresholdSchedule((0.2, 0.2, 0.2))
        traces = run_dataset(ds, schedule)

        mutated_logits = np.array(ds.logits)
        mutated_logits[3] = rng.normal(0, 2, mutated_logits[3].shape).astype(np.float32)
        mutated = EnsembleDataset(mutated_logits, ds.labels, ds.costs_ms)
        mutated_traces = run_dataset(mutated, schedule)

        touched = 0
        for original, changed in zip(traces, mutated_traces):
            if original.models_used <= 3:
                assert changed.models_used == original.models_used
                assert changed.prediction == original.prediction
                np.testing.assert_array_equal(changed.margins, original.margins)
            else:
                touched += 1
        assert touched < len(traces)  # schedule chosen so most samples exit early

    def test_calibrated_schedule_matches_straight_line_reference(self, seed42_dataset):
        # per-sample rerun of the gating rule, written naively on purpose
        def reference(sample_logits, thresholds, costs):
            n = sample_logits.shape[0]
            margins = []
            for k in range(1, n + 1):
                averaged = sample_logits[:k].mean(axis=0)
                exps = np.exp(averaged - averaged.max())
                probs = exps / exps.sum()
                ordered = np.sort(probs)
                margins.append(ordered[-1] - ordered[-2])
                prediction = int(np.argmax(probs))
                if k < n and margins[-1] >= thresholds[k - 1]:
                    break
            return k, prediction, np.array(margins), float(costs[:k].sum())

        taus = (0.37, 0.2, 0.11, 0.11, 0.08, 0.08)  # the calibrated seed-42 schedule
        traces = run_dataset(seed42_dataset, ThresholdSchedule(taus))
        for sample in range(500):
            trace = traces[sample]
            k, prediction, margins, cost = reference(
                seed42_dataset.logits[:, sample].astype(np.float64),
                taus,
                seed42_dataset.costs_ms,
            )
            assert trace.models_used == k
            assert trace.prediction == prediction
            np.testing.assert_allclose(trace.margins, margins, rtol=0, atol=1e-12)
            assert trace.cost_ms == pytest.approx(cost, abs=1e-12)

    def test_raising_one_threshold_never_reduces_models_used(self, dataset_factory):
        rng = np.random.default_rng(41)
        for _ in range(30):
            ds = dataset_factory(rng, num_models=4, num_samples=25)
            base = np.round(rng.uniform(0, 0.9, 3), 3)
            stage = int(rng.integers(0, 3))
            delta = float(rng.uniform(0.001, 1.0 - base[stage]))
            raised = base.copy()
            raised[stage] += delta
            before = run_dataset(ds, ThresholdSchedule(tuple(base)))
            after = run_dataset(ds, ThresholdSchedule(tuple(raised)))
            for b, a in zip(before, after):
                assert a.models_used >= b.models_used


def reference_stage_stats(logits64: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole-array kernel stage_tables replaced: np.cumsum over models, np.partition."""
    num_models, _, num_classes = logits64.shape
    prefix = np.cumsum(logits64, axis=0)
    prefix /= np.arange(1, num_models + 1, dtype=np.float64)[:, None, None]
    prefix -= prefix.max(axis=2, keepdims=True)
    np.exp(prefix, out=prefix)
    prefix /= prefix.sum(axis=2, keepdims=True)
    predictions = prefix.argmax(axis=2).astype(np.int64)
    top_two = np.partition(prefix, num_classes - 2, axis=2)
    margins = top_two[..., num_classes - 1] - top_two[..., num_classes - 2]
    return margins, predictions


def running_means(logits: np.ndarray) -> np.ndarray:
    """The kernels' input as _stage_chunks forms it from (num_models, n, num_classes)
    logits: float64 running sums over models, stage k's divided by k."""
    prefix = np.cumsum(logits, axis=0, dtype=np.float64)
    prefix[1:] /= np.arange(2, len(prefix) + 1, dtype=np.float64)[:, None, None]
    return prefix


def tied_logits(rng, num_models, num_samples, num_classes) -> np.ndarray:
    """Integer logits in [-2, 2], so most rows tie; every fifth sample has a top-two gap of 40."""
    logits = rng.integers(-2, 3, size=(num_models, num_samples, num_classes)).astype(np.float32)
    saturated = np.arange(0, num_samples, 5)
    logits[:, saturated] = 0.0
    logits[:, saturated, rng.integers(0, num_classes, saturated.size)] = 40.0
    return logits


# (low, high) pairs whose gap exp rounds away: with every other class at 0 each
# class exps to 1.0, so the definition predicts class 0, not the means' argmax
NEAR_TIES = [(1e-20, 2e-20), (1e-45, 3e-45), (-1e-30, 1e-30)]  # 1e-45: float32 subnormals


def add_near_ties(logits, samples) -> None:
    """Give each listed sample, in every model, one of NEAR_TIES at a class pair
    that moves along the row, and 0 elsewhere."""
    num_classes = logits.shape[2]
    for i, sample in enumerate(samples):
        first = 5 * i % (num_classes - 1)
        logits[:, sample] = 0.0
        logits[:, sample, first : first + 2] = NEAR_TIES[i % len(NEAR_TIES)]


# class counts on both sides of the layout switch and of numpy's pairwise_sum
# edges: 8 accumulators, blocks of at most 128 values, halving above that (the
# counts above _CLASS_MAJOR_MAX_CLASSES reach the row kernel's own numpy sum)
SWITCH_AND_PAIRWISE_EDGES = sorted(
    {2, 3, 8, 9, 10, 16, 17, 32, 33, 48, 49, 100, 101, 128, 129, 257}
    | {_CLASS_MAJOR_MAX_CLASSES, _CLASS_MAJOR_MAX_CLASSES + 1}
)


class TestChunkedStageTables:
    @pytest.mark.parametrize("num_classes", SWITCH_AND_PAIRWISE_EDGES)
    @pytest.mark.parametrize("num_models", [1, 3, 7])
    @pytest.mark.parametrize("chunks", ["one_sample", "one_chunk", "chunk_plus_one", "ragged"])
    def test_matches_whole_array_kernel_and_run_sample(
        self, tmp_path, num_models, num_classes, chunks
    ):
        step = chunk_step(num_models, num_classes)
        num_samples = {
            "one_sample": 1,
            "one_chunk": step,
            "chunk_plus_one": step + 1,
            "ragged": 3 * step + step // 3,
        }[chunks]
        rng = np.random.default_rng([num_models, num_classes, num_samples])
        logits = tied_logits(rng, num_models, num_samples, num_classes)
        labels = rng.integers(0, num_classes, num_samples)
        ds = EnsembleDataset(logits, labels, np.ones(num_models))

        tables = stage_tables(ds)
        margins, predictions = reference_stage_stats(logits.astype(np.float64))
        assert tables.margins.tobytes() == margins.tobytes()
        np.testing.assert_array_equal(tables.predictions, predictions)
        assert tables.margins[:, 0].min() > 1 - 1e-12  # sample 0 has the gap of 40

        never_stop = ThresholdSchedule.uniform(1.0, num_models)
        stop_first = ThresholdSchedule.uniform(0.0, num_models)
        starts = range(0, num_samples, step)
        chunk_ends = {end for start in starts for end in (start, start + step - 1)}
        picked = chunk_ends | set(rng.integers(0, num_samples, 8).tolist())
        for sample in sorted(s for s in picked if s < num_samples):
            single = run_sample(logits[:, sample], never_stop, ds.costs_ms)
            assert single.margins.tobytes() == tables.margins[:, sample].tobytes()
            assert single.prediction == tables.predictions[-1, sample]
            first = run_sample(logits[:, sample], stop_first, ds.costs_ms)
            assert first.prediction == tables.predictions[0, sample]

        # the payload files give the same bytes, and stage k needs only models 1..k
        save_dataset(ds, tmp_path)
        streamed = stage_tables(open_dataset(tmp_path / MANIFEST_NAME))
        assert streamed.margins.tobytes() == tables.margins.tobytes()
        np.testing.assert_array_equal(streamed.predictions, tables.predictions)
        np.testing.assert_array_equal(streamed.wrong_counts, tables.wrong_counts)
        np.testing.assert_array_equal(streamed.cum_costs_ms, tables.cum_costs_ms)
        for models in range(1, num_models + 1):
            covered, wrong = 0, np.zeros(models, dtype=np.int64)
            for samples, margins, predictions in _stage_chunks(
                open_dataset(tmp_path / MANIFEST_NAME), models
            ):
                assert samples.start == covered and margins.shape[0] == models
                assert margins.tobytes() == tables.margins[:models, samples].tobytes()
                np.testing.assert_array_equal(predictions, tables.predictions[:models, samples])
                wrong += np.count_nonzero(predictions != labels[samples], axis=1)
                covered = samples.stop
            assert covered == num_samples
            np.testing.assert_array_equal(wrong, tables.wrong_counts[:models])

    @pytest.mark.parametrize("num_classes", range(2, 258))
    def test_class_major_kernel_equals_row_kernel(self, num_classes):
        # one sample, a ragged tail and a full chunk of running sums, given to
        # both kernels; each must give the definition's bytes, near ties too.
        # _pairwise_sum replays numpy's rows of at most 128 values, so the
        # class-major kernel is checked, and may be dispatched, only up to there
        assert _CLASS_MAJOR_MAX_CLASSES <= 128
        step = chunk_step(3, num_classes)
        for num_samples in (1, step // 3 + 1, step):
            rng = np.random.default_rng([num_classes, num_samples])
            logits = tied_logits(rng, 3, num_samples, num_classes)
            logits[:, 1::5] += rng.normal(0, 4, logits[:, 1::5].shape).astype(np.float32)
            add_near_ties(logits, range(2, num_samples, 5))
            margins, predictions = reference_stage_stats(logits.astype(np.float64))
            prefix = running_means(logits)
            kernels = [_prefix_stage_stats(prefix.copy())]
            if num_classes <= 128:
                kernels.append(
                    _class_major_stage_stats(np.ascontiguousarray(prefix.transpose(0, 2, 1)))
                )
            for kernel in kernels:
                assert kernel[0].tobytes() == margins.tobytes(), num_samples
                assert kernel[1].dtype == np.int64
                assert kernel[1].tobytes() == predictions.tobytes(), num_samples

    @pytest.mark.parametrize(
        "num_classes", [2, 10, _CLASS_MAJOR_MAX_CLASSES, _CLASS_MAJOR_MAX_CLASSES + 1, 100, 257]
    )
    def test_near_ties_match_the_definition_not_the_means_argmax(self, num_classes):
        # the row kernel predicts the means' argmax unless its margin is 0 or
        # less; these rows need that fix-up, which exact ties alone do not test
        num_models, num_samples = 3, 40
        rng = np.random.default_rng([num_classes, 11])
        logits = rng.normal(0, 3, (num_models, num_samples, num_classes)).astype(np.float32)
        near_ties = range(0, num_samples, 2)
        add_near_ties(logits, near_ties)
        labels = rng.integers(0, num_classes, num_samples)
        ds = EnsembleDataset(logits, labels, np.ones(num_models))
        margins, predictions = reference_stage_stats(logits.astype(np.float64))
        means_argmax = np.cumsum(logits, axis=0, dtype=np.float64).argmax(axis=2)
        assert (means_argmax != predictions)[:, near_ties].all()

        tables = stage_tables(ds)
        assert tables.margins.tobytes() == margins.tobytes()
        assert tables.predictions.tobytes() == predictions.tobytes()
        never_stop = ThresholdSchedule.uniform(1.0, num_models)
        for sample in range(num_samples):
            single = run_sample(logits[:, sample], never_stop, ds.costs_ms)
            assert single.margins.tobytes() == margins[:, sample].tobytes()
            assert single.prediction == predictions[-1, sample]

    def test_layout_switches_by_class_count_and_run_sample_equals_the_row_kernel(
        self, monkeypatch, dataset_factory
    ):
        calls = []
        for name in ("_prefix_stage_stats", "_class_major_stage_stats"):
            kernel = getattr(cascade_engine, name)
            monkeypatch.setattr(
                cascade_engine, name, lambda p, k=kernel, n=name: calls.append(n) or k(p)
            )
        for num_classes, kernel in (
            (2, "_class_major_stage_stats"),
            (_CLASS_MAJOR_MAX_CLASSES, "_class_major_stage_stats"),
            (_CLASS_MAJOR_MAX_CLASSES + 1, "_prefix_stage_stats"),
        ):
            ds = dataset_factory(np.random.default_rng(num_classes), num_classes=num_classes)
            calls.clear()
            stage_tables(ds)
            assert set(calls) == {kernel}
            # run_sample gives the row kernel's bytes
            logits = ds.logits[:, 0]
            margins, predictions = _prefix_stage_stats(running_means(logits[:, None, :]))
            never_stop = ThresholdSchedule.uniform(1.0, ds.num_models)
            single = run_sample(logits, never_stop, ds.costs_ms)
            assert single.margins.tobytes() == margins[:, 0].tobytes()
            assert single.prediction == predictions[-1, 0]

    def test_cold_build_memory_is_bounded_by_its_outputs(self, dataset_factory):
        # the whole-array build held about three float64 copies of the tensor (36 MB here)
        ds = dataset_factory(
            np.random.default_rng(8), num_models=3, num_samples=5000, num_classes=100
        )
        tracemalloc.start()
        try:
            tables = stage_tables(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = tables.margins.nbytes + tables.predictions.nbytes
        assert peak < outputs + 3 * 2**20

    @pytest.mark.parametrize("source", ["dataset", "files"])
    def test_full_ensemble_predictions_keep_only_the_last_stage(self, tmp_path, source):
        # the (N, M) tables (7.2 MB here) exceed the bound; the last chunk is ragged
        num_models, num_samples, num_classes = 3, 150_000, 10
        assert num_samples % chunk_step(num_models, num_classes)
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((num_models, num_samples, num_classes), np.float32)
        labels = rng.integers(0, num_classes, num_samples)
        ds = EnsembleDataset(logits, labels, np.ones(num_models))
        if source == "files":
            save_dataset(ds, tmp_path)
            ds = open_dataset(tmp_path / MANIFEST_NAME)
        tracemalloc.start()
        try:
            predictions = full_ensemble_predictions(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < predictions.nbytes + 3 * 2**20
        assert 16 * num_models * num_samples > predictions.nbytes + 3 * 2**20
        assert predictions.dtype == np.int64 and not predictions.flags.writeable
        np.testing.assert_array_equal(predictions, stage_tables(ds).predictions[-1])
