import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexens.calibration import (
    CalibrationObjective,
    GridSpec,
    ScheduleFile,
    calibrate,
    evaluate_objective,
    load_schedule,
    save_schedule,
)
from flexens.cascade_engine import (
    ThresholdSchedule,
    full_ensemble_predictions,
    run_dataset,
    stage_tables,
)
from flexens.dataset_io import EnsembleDataset
from flexens.errors import MalformedScheduleError, ScheduleMismatchError
from flexens.metrics_report import relative_error_increase

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
