import math
import tracemalloc

import numpy as np
import pytest

from flexens import cascade_engine
from flexens.cascade_engine import (
    _CLASS_MAJOR_MAX_CLASSES,
    CascadeTrace,
    ThresholdSchedule,
    _class_major_stage_stats,
    _prefix_stage_stats,
    full_ensemble_predictions,
    run_dataset,
    run_sample,
    stage_tables,
)
from flexens.dataset_io import (
    _CHUNK_VALUES,
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
        [1e308, -1e308, float(np.nextafter(np.float64(np.finfo(np.float32).max), np.inf))],
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


def tied_logits(rng, num_models, num_samples, num_classes) -> np.ndarray:
    """Integer logits in [-2, 2], so most rows tie; every fifth sample has a top-two gap of 40."""
    logits = rng.integers(-2, 3, size=(num_models, num_samples, num_classes)).astype(np.float32)
    saturated = np.arange(0, num_samples, 5)
    logits[:, saturated] = 0.0
    logits[:, saturated, rng.integers(0, num_classes, saturated.size)] = 40.0
    return logits


# class counts on both sides of the layout switch and of numpy's pairwise_sum
# edges: 8 accumulators, blocks of at most 128 values, halving above that
SWITCH_AND_PAIRWISE_EDGES = sorted(
    {2, 3, 8, 9, 10, 16, 17, 32, 33, 100, 101, 128, 129, 257}
    | {_CLASS_MAJOR_MAX_CLASSES, _CLASS_MAJOR_MAX_CLASSES + 1}
)


class TestChunkedStageTables:
    @pytest.mark.parametrize("num_classes", SWITCH_AND_PAIRWISE_EDGES)
    @pytest.mark.parametrize("num_models", [1, 3, 7])
    @pytest.mark.parametrize("chunks", ["one_sample", "one_chunk", "chunk_plus_one", "ragged"])
    def test_matches_whole_array_kernel_and_run_sample(
        self, tmp_path, num_models, num_classes, chunks
    ):
        step = max(1, _CHUNK_VALUES // num_classes)
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
        for models in range(1, num_models + 1):
            streamed = stage_tables(open_dataset(tmp_path / MANIFEST_NAME), models)
            assert streamed.num_models == models
            assert streamed.margins.tobytes() == tables.margins[:models].tobytes()
            np.testing.assert_array_equal(streamed.predictions, tables.predictions[:models])
            np.testing.assert_array_equal(streamed.wrong_counts, tables.wrong_counts[:models])
            np.testing.assert_array_equal(streamed.cum_costs_ms, tables.cum_costs_ms[:models])

    @pytest.mark.parametrize("num_classes", range(2, 258))
    def test_class_major_kernel_equals_row_kernel(self, num_classes):
        # one sample, a ragged tail and a full chunk of running sums, given to
        # both kernels; the class-major one must replay the row sums bit for bit
        step = max(1, _CHUNK_VALUES // num_classes)
        for num_samples in (1, step // 3 + 1, step):
            rng = np.random.default_rng([num_classes, num_samples])
            logits = tied_logits(rng, 3, num_samples, num_classes)
            logits[:, 1::5] += rng.normal(0, 4, logits[:, 1::5].shape).astype(np.float32)
            prefix = np.cumsum(logits, axis=0, dtype=np.float64)
            rows = _prefix_stage_stats(prefix.copy())
            columns = _class_major_stage_stats(np.ascontiguousarray(prefix.transpose(0, 2, 1)))
            assert columns[0].tobytes() == rows[0].tobytes(), num_samples
            assert columns[1].dtype == np.int64
            assert columns[1].tobytes() == rows[1].tobytes(), num_samples

    def test_layout_switches_by_class_count_and_run_sample_stays_row_major(
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
            calls.clear()
            run_sample(ds.logits[:, 0], ThresholdSchedule.uniform(0.5, ds.num_models), ds.costs_ms)
            assert calls == ["_prefix_stage_stats"]

    def test_prefix_build_reuses_a_larger_cached_build(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(4), num_models=3)
        first = stage_tables(ds, 2)
        assert first.num_models == 2
        full = stage_tables(ds)
        assert full.num_models == 3
        assert full.margins[:2].tobytes() == first.margins.tobytes()
        assert stage_tables(ds, 1) is full
        for bad in (0, 4):
            with pytest.raises(ValueError, match=r"num_models must be in \[1, 3\]"):
                stage_tables(ds, bad)

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
        assert peak < outputs + 4 * 2**20
