import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chunk_step
from flexens import calibration, cascade_engine, metrics_report
from flexens.calibration import (
    CalibrationObjective,
    GridSpec,
    ScheduleFile,
    _grid_bins,
    _search,
    _stage_codes,
    calibrate,
    evaluate_objective,
    load_schedule,
    save_schedule,
)
from flexens.cascade_engine import (
    _CLASS_MAJOR_MAX_CLASSES,
    ThresholdSchedule,
    _stop_levels,
    full_ensemble_predictions,
    run_dataset,
    stage_tables,
)
from flexens.dataset_io import (
    MANIFEST_NAME,
    EnsembleDataset,
    _cumulative_costs,
    open_dataset,
    save_dataset,
)
from flexens.errors import MalformedScheduleError, ScheduleMismatchError
from flexens.metrics_report import relative_error_increase, score_counts

# regression constants pinned from the first verified run on the seed-42 dataset
SEED42_HALF_TAU_OBJECTIVE = CalibrationObjective(
    alpha=0.5,
    latency_ratio=0.6743857142857144,
    error_increase=0.02137931034482772,
    value=0.34788251231527106,
)
# pinned from the per-candidate grid search before the sorted-margin sweep replaced it
SEED42_ALPHA0_THRESHOLDS = (0.75, 0.48, 0.26, 0.24, 0.12, 0.1)
SEED42_ALPHA0_LATENCY_RATIO = 0.5798142857142858
SEED42_ALPHA1_THRESHOLDS = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
SEED42_ALPHA1_LATENCY_RATIO = 0.14285714285714285
SEED42_ALPHA1_ERROR_INCREASE = 1.686896551724138


def reference_calibrate(dataset, alpha, grid):
    """Greedy grid search by brute force: run and score every candidate schedule."""
    num_stages = dataset.num_models - 1
    chosen = []
    for stage in range(num_stages):
        tail = [1.0] * (num_stages - stage - 1)
        best_value, best_tau = np.inf, None
        for tau in grid.values():
            schedule = ThresholdSchedule(tuple(chosen + [tau] + tail))
            value = evaluate_objective(dataset, schedule, alpha).value
            if value < best_value:
                best_value, best_tau = value, tau
        chosen.append(best_tau)
    return tuple(chosen)


def sorted_sweep_calibrate(dataset, alpha, grid):
    """The greedy search as one sorted-margin sweep per stage over the stage
    tables: the alive samples sorted by their stage-k margin, prefix sums of
    the wrong flags, and one searchsorted over the stop levels."""
    tables = stage_tables(dataset)
    labels, candidates = dataset.labels, grid.values()
    stop_levels = _stop_levels(candidates)
    full_wrong = tables.predictions[-1] != labels
    cum_costs, full_wrong_count = tables.cum_costs_ms.tolist(), tables.wrong_counts[-1]

    def prefix_counts(flags):
        return np.concatenate([[0], np.cumsum(flags)])

    alive = np.arange(dataset.num_samples)
    done_counts = np.zeros(dataset.num_models, dtype=np.int64)
    done_wrong = 0
    chosen = []
    for stage in range(dataset.num_models - 1):
        margins = tables.margins[stage, alive]
        order = np.argsort(margins)
        ranked = alive[order]
        exit_wrong = prefix_counts(tables.predictions[stage, ranked] != labels[ranked])
        full_wrong_below = prefix_counts(full_wrong[ranked])
        stays = np.searchsorted(margins[order], stop_levels, side="left")
        best_value, best = np.inf, 0
        for i, stay in enumerate(stays.tolist()):
            counts = done_counts.copy()
            counts[stage] += alive.size - stay
            counts[-1] += stay
            wrong = done_wrong + int(exit_wrong[-1] - exit_wrong[stay] + full_wrong_below[stay])
            rep = score_counts(dataset.num_samples, cum_costs, full_wrong_count, counts, wrong)
            value = alpha * rep.latency_ratio + (1 - alpha) * rep.error_increase
            if value < best_value:
                best_value, best = value, i
        chosen.append(candidates[best])
        best_stay = int(stays[best])
        done_counts[stage] += alive.size - best_stay
        done_wrong += int(exit_wrong[-1] - exit_wrong[best_stay])
        alive = alive[margins < stop_levels[best]]
    return tuple(chosen)


@pytest.fixture
def tabled_dataset(monkeypatch):
    """Make a dataset whose stage passes yield the given margins and
    predictions as one chunk, so calibrate, run_dataset and evaluate_objective
    see exactly these values."""

    def make(margins, predictions, labels, costs):
        margins = np.asarray(margins, dtype=np.float64)
        predictions = np.asarray(predictions, dtype=np.int64)
        num_models, num_samples = margins.shape
        num_classes = max(2, int(predictions.max()) + 1, int(np.max(labels)) + 1)
        logits = np.zeros((num_models, num_samples, num_classes), dtype=np.float32)
        dataset = EnsembleDataset(logits, labels, costs)

        def stage_chunks(source, stages, stop=None):
            assert source is dataset
            yield slice(stop), margins[:stages, :stop], predictions[:stages, :stop]

        for module in (cascade_engine, calibration, metrics_report):
            monkeypatch.setattr(module, "_stage_chunks", stage_chunks)
        return dataset

    return make


@st.composite
def calibration_cases(draw):
    """Small datasets with tied integer logits, optional saturated margins
    (top-two gap of 40), optionally a zero-error full ensemble, and unit or
    non-uniform costs; plus an alpha and a grid step."""
    num_models = draw(st.integers(2, 5))
    num_samples = draw(st.integers(1, 40))
    num_classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (num_models, num_samples, num_classes)
    logits = rng.integers(-2, 3, size=shape).astype(np.float32)
    if draw(st.booleans()):  # a top-two gap of 40 rounds the margin to exactly 1.0
        hot_class = rng.integers(0, num_classes, num_samples)
        hot = 40.0 * np.eye(num_classes, dtype=np.float32)[hot_class]
        every_model = rng.random(num_samples) < 0.2  # saturated at every stage
        saturated = (rng.random(shape[:2]) < 0.3) | every_model
        logits[saturated] = hot[np.nonzero(saturated)[1]]
    labels = rng.integers(0, num_classes, num_samples)
    if draw(st.booleans()):
        costs = np.ones(num_models)
    else:
        costs = rng.choice([0.25, 0.5, 1.0, 1.5, 3.0], num_models)
    dataset = EnsembleDataset(logits, labels, costs)
    if draw(st.booleans()):  # relabel so the full ensemble makes no error
        dataset = EnsembleDataset(logits, full_ensemble_predictions(dataset), costs)
    alpha = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    grid = GridSpec(step=draw(st.sampled_from([0.01, 0.1, 0.5, 1.0])))
    return dataset, alpha, grid


class TestGridSpec:
    def test_default_has_101_values(self):
        values = GridSpec().values()
        assert len(values) == 101
        assert values[0] == 0.0 and values[-1] == 1.0
        assert values[37] == 0.37

    def test_coarse_grid(self):
        assert GridSpec(step=0.5).values() == (0.0, 0.5, 1.0)
        assert GridSpec(step=1.0).values() == (0.0, 1.0)

    def test_rejects_uneven_step(self):
        with pytest.raises(ValueError, match="evenly"):
            GridSpec(step=0.3)

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ValueError):
            GridSpec(step=0.0)
        with pytest.raises(ValueError):
            GridSpec(step=1.5)


class TestRelativeErrorIncrease:
    def test_ordinary_ratio(self):
        assert relative_error_increase(0.2, 0.1) == pytest.approx(1.0)

    def test_zero_baseline_falls_back_to_absolute(self):
        assert relative_error_increase(0.1, 0.0) == 0.1
        assert relative_error_increase(0.0, 0.0) == 0.0


class TestEvaluateObjective:
    def test_full_execution(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(1), num_models=4)
        for alpha in (0.0, 0.3, 1.0):
            obj = evaluate_objective(ds, ThresholdSchedule.uniform(1.0, 4), alpha)
            assert obj.latency_ratio == 1.0
            assert obj.error_increase == 0.0
            assert obj.value == alpha

    def test_always_stop_with_unit_costs(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(2), num_models=5, unit_costs=True)
        obj = evaluate_objective(ds, ThresholdSchedule.uniform(0.0, 5), 0.5)
        assert obj.latency_ratio == 1.0 / 5.0

    def test_zero_baseline_error_fallback(self):
        # model 2 is confidently right everywhere, so the full ensemble is
        # perfect; an immediate stop surfaces model 1's mistake as absolute error
        from flexens.dataset_io import EnsembleDataset

        logits = np.zeros((2, 2, 2), np.float32)
        logits[0, 0] = [2.0, 0.0]  # model 1 wrong on sample 0
        logits[0, 1] = [0.0, 2.0]
        logits[1, 0] = [0.0, 9.0]
        logits[1, 1] = [0.0, 9.0]
        ds = EnsembleDataset(logits, np.array([1, 1]), np.array([1.0, 1.0]))
        full = evaluate_objective(ds, ThresholdSchedule((1.0,)), 0.5)
        assert full.error_increase == 0.0
        stopped = evaluate_objective(ds, ThresholdSchedule((0.0,)), 0.0)
        assert stopped.error_increase == 0.5  # absolute error, not a ratio
        assert stopped.value == 0.5

    def test_matches_trace_route_bit_for_bit(self, dataset_factory, seed42_dataset):
        cases = [
            (dataset_factory(np.random.default_rng(6), num_models=4), (0.4, 0.2, 0.6)),
            (seed42_dataset, (0.37, 0.2, 0.11, 0.11, 0.08, 0.08)),
        ]
        for ds, taus in cases:
            schedule = ThresholdSchedule(taus)
            for alpha in (0.0, 0.5, 1.0):
                obj = evaluate_objective(ds, schedule, alpha)

                traces = run_dataset(ds, schedule)
                tables = stage_tables(ds)
                m = ds.num_samples
                used = np.fromiter((t.models_used for t in traces), np.int64, count=m)
                preds = np.fromiter((t.prediction for t in traces), np.int64, count=m)
                counts = np.bincount(used, minlength=ds.num_models + 1)[1:]
                # the cost sum as a sequence of fused multiply-adds, each the
                # exact rational value rounded once: no BLAS, no CPU dependence
                gated = 0.0
                for count, cost in zip(counts.tolist(), tables.cum_costs_ms.tolist()):
                    gated = float(Fraction(count) * Fraction(cost) + Fraction(gated))
                latency = gated / (m * float(tables.cum_costs_ms[-1]))
                full_error = np.count_nonzero(tables.predictions[-1] != ds.labels) / m
                increase = relative_error_increase(
                    np.count_nonzero(preds != ds.labels) / m, full_error
                )
                assert obj.latency_ratio == latency
                assert obj.error_increase == increase
                assert obj.value == alpha * latency + (1 - alpha) * increase

    def test_alpha_and_schedule_validation(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(3))
        with pytest.raises(ValueError, match="alpha"):
            evaluate_objective(ds, ThresholdSchedule.uniform(0.5, 3), 1.5)
        with pytest.raises(ScheduleMismatchError):
            evaluate_objective(ds, ThresholdSchedule.uniform(0.5, 4), 0.5)

    def test_seed42_half_threshold_regression(self, seed42_dataset):
        obj = evaluate_objective(seed42_dataset, ThresholdSchedule.uniform(0.5, 7), 0.5)
        assert obj == SEED42_HALF_TAU_OBJECTIVE


class TestCalibrate:
    def test_latency_only_picks_all_zero(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(12), num_models=4)
        schedule = calibrate(ds, alpha=1.0, grid=GridSpec(step=0.05))
        assert schedule.thresholds == (0.0, 0.0, 0.0)

    def test_error_only_attains_grid_min_error_with_lowest_taus(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(13), num_models=3, num_samples=60)
        grid = GridSpec(step=0.05)
        schedule = calibrate(ds, alpha=0.0, grid=grid)
        chosen = list(schedule.thresholds)
        for stage in range(2):
            context = chosen[:stage]
            tail = [1.0] * (2 - stage - 1)
            errors = {
                tau: evaluate_objective(
                    ds, ThresholdSchedule(tuple(context + [tau] + tail)), 0.0
                ).error_increase
                for tau in grid.values()
            }
            best = min(errors.values())
            assert errors[chosen[stage]] == best
            assert chosen[stage] == min(t for t, e in errors.items() if e == best)
        assert evaluate_objective(ds, schedule, 0.0).error_increase <= 0.0

    def test_calibrated_beats_trivial_schedules(self, dataset_factory):
        rng = np.random.default_rng(14)
        for _ in range(3):
            ds = dataset_factory(rng, num_models=4, num_samples=80)
            schedule = calibrate(ds, alpha=0.5, grid=GridSpec(step=0.1))
            value = evaluate_objective(ds, schedule, 0.5).value
            assert value <= evaluate_objective(ds, ThresholdSchedule.uniform(1.0, 4), 0.5).value
            assert value <= evaluate_objective(ds, ThresholdSchedule.uniform(0.0, 4), 0.5).value

    def test_deterministic(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(15), num_models=4)
        a = calibrate(ds, alpha=0.5, grid=GridSpec(step=0.05))
        b = calibrate(ds, alpha=0.5, grid=GridSpec(step=0.05))
        assert a.thresholds == b.thresholds

    @settings(max_examples=300)
    @given(calibration_cases())
    def test_matches_brute_force_reference(self, case):
        dataset, alpha, grid = case
        expected = reference_calibrate(dataset, alpha, grid)
        assert calibrate(dataset, alpha, grid).thresholds == expected

    def test_seed42_alpha_extremes_regression(self, seed42_dataset):
        grid = GridSpec(step=0.01)
        accuracy_only = calibrate(seed42_dataset, alpha=0.0, grid=grid)
        assert accuracy_only.thresholds == SEED42_ALPHA0_THRESHOLDS
        objective = evaluate_objective(seed42_dataset, accuracy_only, alpha=0.0)
        assert objective.latency_ratio == SEED42_ALPHA0_LATENCY_RATIO
        assert objective.error_increase == 0.0
        latency_only = calibrate(seed42_dataset, alpha=1.0, grid=grid)
        assert latency_only.thresholds == SEED42_ALPHA1_THRESHOLDS
        objective = evaluate_objective(seed42_dataset, latency_only, alpha=1.0)
        assert objective.latency_ratio == SEED42_ALPHA1_LATENCY_RATIO
        assert objective.error_increase == SEED42_ALPHA1_ERROR_INCREASE

    def test_single_model_rejected(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(16), num_models=1)
        with pytest.raises(ValueError, match="at least 2 models"):
            calibrate(ds)


class TestBinnedSearch:
    @pytest.mark.parametrize("step", [1.0, 0.5, 0.05, 0.01, 0.002, 0.001])
    def test_bins_equal_searchsorted_on_and_beside_every_grid_value(self, step):
        values = np.array(GridSpec(step).values())
        margins = np.concatenate([values, np.nextafter(values, -1), np.nextafter(values, 2)])
        margins = np.clip(margins, 0.0, 1.0)
        stop_levels = _stop_levels(values)
        bins = np.empty(margins.size, dtype=np.min_scalar_type(values.size))
        _grid_bins(margins, stop_levels, bins)
        assert bins.tolist() == np.searchsorted(stop_levels, margins, side="right").tolist()
        assert bins.dtype == (np.uint16 if values.size > 255 else np.uint8)

    @pytest.mark.parametrize("step", [0.05, 0.01, 0.001])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_a_margin_on_a_grid_value_exits_there(self, tabled_dataset, step, offset):
        # one sample whose stage-1 prediction is wrong and whose full-ensemble
        # prediction is right: the accuracy-only search picks the lowest tau
        # that keeps it running, the first grid value above its margin
        values = GridSpec(step).values()
        for index in (1, len(values) // 3, len(values) - 2):
            value = values[index]
            margin = value if offset == 0 else float(np.nextafter(value, 2 * offset))
            ds = tabled_dataset([[margin], [0.0]], [[1], [0]], [0], [1.0, 1.0])
            expected = values[index + (offset >= 0)]
            assert calibrate(ds, alpha=0.0, grid=GridSpec(step)).thresholds == (expected,)

    def test_a_saturated_margin_is_never_stopped_by_a_threshold_of_one(self, tabled_dataset):
        # two samples with margins of exactly 1.0 are wrong after one model and
        # right after two: only a stage-1 threshold of 1.0 keeps them running
        margins = [[1.0, 1.0, 0.3], [1.0, 1.0, 0.6], [0.0, 0.0, 0.0]]
        predictions = [[1, 1, 0], [0, 0, 0], [0, 0, 0]]
        for step in (1.0, 0.01, 0.001):
            ds = tabled_dataset(margins, predictions, [0, 0, 0], [1.0, 2.0, 4.0])
            schedule = calibrate(ds, alpha=0.0, grid=GridSpec(step))
            assert schedule.thresholds == (1.0, 0.0)
            assert run_dataset(ds, schedule).models_used.tolist() == [2, 2, 2]
            assert schedule.thresholds == reference_calibrate(ds, 0.0, GridSpec(step))

    def test_fine_grid_matches_brute_force_reference(self, dataset_factory):
        # 1001 candidates need two-byte bins
        grid = GridSpec(step=0.001)
        for seed in (21, 22):
            ds = dataset_factory(np.random.default_rng(seed), num_models=3, num_samples=60)
            for alpha in (0.0, 0.4, 1.0):
                assert calibrate(ds, alpha, grid).thresholds == reference_calibrate(ds, alpha, grid)

    # the class counts on both sides of the stage kernel's layout switch are included
    @pytest.mark.parametrize("num_classes", sorted(
        {10, 33} | {_CLASS_MAJOR_MAX_CLASSES, _CLASS_MAJOR_MAX_CLASSES + 1}
    ))
    def test_matches_sorted_sweep_over_ragged_chunks(self, tmp_path, num_classes):
        num_models = 4
        num_samples = 2 * chunk_step(num_models, num_classes) + 37  # a ragged last chunk
        for seed in (1, 2, 3):
            rng = np.random.default_rng([seed, num_classes])
            labels = rng.integers(0, num_classes, size=num_samples)
            logits = rng.normal(0.0, 1.0, size=(num_models, num_samples, num_classes))
            # a true-class signal that fades with difficulty, as synthgen draws it
            logits[:, np.arange(num_samples), labels] += 4.0 * (1.0 - rng.random(num_samples))
            costs = rng.uniform(0.5, 3.0, num_models)
            tabled = EnsembleDataset(logits.astype(np.float32), labels, costs)
            directory = tmp_path / f"seed{seed}"
            save_dataset(tabled, directory)
            streamed = open_dataset(directory / MANIFEST_NAME)
            for step in (0.01, 0.001):
                grid = GridSpec(step)
                for alpha in (0.0, 0.3, 0.5, 1.0):
                    expected = sorted_sweep_calibrate(tabled, alpha, grid)
                    assert calibrate(streamed, alpha, grid).thresholds == expected
                    assert calibrate(tabled, alpha, grid).thresholds == expected


class TestCodeTable:
    """calibrate is one bin pass, _stage_codes, and a search, _search, that
    reads nothing but the pass's table; a front of alphas reuses one table."""

    def test_one_table_serves_every_alpha(self, seed42_dataset, tmp_path):
        save_dataset(seed42_dataset, tmp_path / "d")
        streamed = open_dataset(tmp_path / "d" / MANIFEST_NAME)
        candidates = GridSpec().values()
        for dataset in (seed42_dataset, streamed):
            codes = _stage_codes(dataset, candidates)
            assert codes.shape == (7, 10000) and codes.dtype == np.uint8
            full_wrong = full_ensemble_predictions(dataset) != dataset.labels
            assert codes[-1].tolist() == full_wrong.astype(np.uint8).tolist()
            before = codes.copy()
            cum_costs = _cumulative_costs(dataset.costs_ms, dataset.num_samples)
            searched = {}
            for alpha in (0.0, 0.5, 1.0):
                chosen = _search(codes, len(candidates), cum_costs, alpha)
                searched[alpha] = tuple(candidates[i] for i in chosen)
                assert searched[alpha] == calibrate(dataset, alpha).thresholds
            assert np.array_equal(codes, before)  # the search leaves the table as it was
            assert searched[0.0] == SEED42_ALPHA0_THRESHOLDS
            assert searched[1.0] == SEED42_ALPHA1_THRESHOLDS

    def test_two_byte_codes_serve_every_alpha(self, dataset_factory):
        grid = GridSpec(step=0.001)
        ds = dataset_factory(np.random.default_rng(23), num_models=4, num_samples=200)
        codes = _stage_codes(ds, grid.values())
        assert codes.dtype == np.uint16
        assert codes[-1].tolist() == (full_ensemble_predictions(ds) != ds.labels).tolist()
        cum_costs = _cumulative_costs(ds.costs_ms, ds.num_samples)
        for alpha in (0.0, 0.5, 1.0):
            chosen = _search(codes, len(grid.values()), cum_costs, alpha)
            expected = calibrate(ds, alpha, grid).thresholds
            assert tuple(grid.values()[i] for i in chosen) == expected
            assert expected == reference_calibrate(ds, alpha, grid)


class TestScheduleFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "schedule.json"
        schedule = ThresholdSchedule((0.37, 0.2, 0.11))
        save_schedule(
            path,
            schedule,
            alpha=0.5,
            grid_step=0.01,
            calibration_data="/data/train",
        )
        loaded = load_schedule(path)
        assert loaded.schedule.thresholds == schedule.thresholds
        assert loaded.alpha == 0.5
        assert loaded.grid_step == 0.01
        assert loaded.calibration_data == "/data/train"

    def test_minimal_file_accepted(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text('{"version": 1, "thresholds": [1.0, 1.0]}')
        loaded = load_schedule(path)
        assert loaded.schedule.thresholds == (1.0, 1.0)
        assert loaded.alpha is None

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text("{broken")
        with pytest.raises(MalformedScheduleError, match="JSON"):
            load_schedule(path)
        path.write_text('{"version": 2, "thresholds": []}')
        with pytest.raises(MalformedScheduleError, match="version"):
            load_schedule(path)
        path.write_text('{"version": 1, "thresholds": [1.5]}')
        with pytest.raises(MalformedScheduleError):
            load_schedule(path)
        path.write_text('{"version": 1, "thresholds": "nope"}')
        with pytest.raises(MalformedScheduleError, match="thresholds"):
            load_schedule(path)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (None, "schedule must be a JSON object"),
            ({"alpha": "0.5"}, "alpha must be a number when present"),
            ({"grid_step": True}, "grid_step must be a number when present"),
            ({"calibration_data": 5}, "calibration_data must be a string when present"),
            # integers too large for a float
            ({"thresholds": [0.5, 10**400]}, "thresholds must be a list of numbers"),
            ({"alpha": 10**400}, "alpha must be a number when present"),
            ({"grid_step": -(10**400)}, "grid_step must be a number when present"),
            # JSON true and 1.0 compare equal to 1
            ({"version": True}, "unsupported schedule version True"),
            ({"version": 1.0}, "unsupported schedule version 1.0"),
            # numbers calibrate itself would refuse; json parses NaN and Infinity
            ({"alpha": float("nan")}, "alpha must be in [0, 1], got nan"),
            ({"grid_step": float("inf")}, "grid step must be in (0, 1], got inf"),
            ({"alpha": 1.5}, "alpha must be in [0, 1], got 1.5"),
            ({"grid_step": 0.3}, "grid step 0.3 must divide [0, 1] evenly"),
        ],
        ids=["not_object", "alpha", "grid_step", "calibration_data", "huge_threshold",
             "huge_alpha", "huge_grid_step", "version_true", "version_float", "nan_alpha",
             "infinite_grid_step", "alpha_above_one", "uneven_grid_step"],
    )
    def test_rejections_name_the_path(self, tmp_path, extra, message):
        path = tmp_path / "schedule.json"
        doc = [1] if extra is None else {"version": 1, "thresholds": [0.5], **extra}
        path.write_text(json.dumps(doc))
        message = f"{path}: {message}"
        with pytest.raises(MalformedScheduleError, match=f"^{re.escape(message)}$"):
            load_schedule(path)

    @pytest.mark.parametrize("value", [True, "false", 1, None])
    def test_allow_same_split_key_is_ignored_like_any_unknown_key(self, tmp_path, value):
        path = tmp_path / "schedule.json"
        doc = {"version": 1, "thresholds": [0.5], "calibration_data": "/data/train"}
        path.write_text(json.dumps({**doc, "allow_same_split": value, "comment": [value]}))
        assert load_schedule(path) == ScheduleFile(
            ThresholdSchedule((0.5,)), alpha=None, grid_step=None, calibration_data="/data/train"
        )

    def test_save_schedule_writes_unset_alpha_and_grid_step_as_null(self, tmp_path):
        path = tmp_path / "schedule.json"
        save_schedule(path, ThresholdSchedule((0.5,)))
        assert json.loads(path.read_text()) == {
            "version": 1, "alpha": None, "grid_step": None, "thresholds": [0.5]
        }
