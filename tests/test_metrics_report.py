import dataclasses
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import chunk_step
from flexens import metrics_report
from flexens.calibration import calibrate, evaluate_objective, save_schedule
from flexens.cascade_engine import (
    _CLASS_MAJOR_MAX_CLASSES,
    ThresholdSchedule,
    run_dataset,
    run_sample,
    stage_tables,
)
from flexens.cli import main
from flexens.dataset_io import (
    MANIFEST_NAME,
    EnsembleDataset,
    open_dataset,
    save_dataset,
)
from flexens.errors import ValidationError
from flexens.metrics_report import (
    HISTOGRAM_CSV_HEADER,
    SWEEP_CSV_HEADER,
    MarginHistogram,
    SweepRow,
    _row,
    ensemble_size_sweep,
    flexible_sweep,
    format_real,
    margin_histogram,
    relative_error_increase,
    report,
    score_counts,
    write_histogram_csv,
    write_sweep_csv,
)


class TestFormatReal:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.0, "1"),
            (0.5, "0.5"),
            (11.669, "11.669"),
            (0.123456789, "0.123457"),
            (0.0001234567, "0.000123457"),
            (-0.025, "-0.025"),
        ],
    )
    def test_six_significant_digits(self, value, expected):
        assert format_real(value) == expected


class TestReport:
    def test_full_schedule_baseline(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(1), num_models=4, num_samples=40)
        rep = report(ds, run_dataset(ds, ThresholdSchedule.uniform(1.0, 4)))
        assert rep.avg_models == 4.0
        assert rep.latency_ratio == 1.0
        assert rep.error_increase == 0.0
        np.testing.assert_array_equal(rep.exit_counts, [0, 0, 0, 40])

    def test_single_model_dataset(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(2), num_models=1, num_samples=30)
        rep = report(ds, run_dataset(ds, ThresholdSchedule(())))
        assert rep.avg_models == 1.0
        single_accuracy = np.mean(stage_tables(ds).predictions[0] == ds.labels)
        assert rep.accuracy == single_accuracy

    def test_exit_counts_conserved(self, dataset_factory):
        rng = np.random.default_rng(3)
        for _ in range(5):
            ds = dataset_factory(rng, num_models=4, num_samples=35)
            schedule = ThresholdSchedule(tuple(np.round(rng.uniform(0, 1, 3), 2)))
            rep = report(ds, run_dataset(ds, schedule))
            assert rep.exit_counts.sum() == ds.num_samples

    def test_trace_count_mismatch_rejected(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(4))
        traces = run_dataset(ds, ThresholdSchedule.uniform(0.5, 3))
        with pytest.raises(ValueError, match="traces"):
            report(ds, traces[:-1])

    def test_traces_not_from_run_dataset_rejected(self, dataset_factory):
        # as many traces as samples, but a plain list of them, not the CascadeRun
        ds = dataset_factory(np.random.default_rng(4))
        traces = list(run_dataset(ds, ThresholdSchedule.uniform(0.5, 3)))
        assert len(traces) == ds.num_samples
        with pytest.raises(TypeError, match="CascadeRun"):
            report(ds, traces)

    def test_matches_independent_recomputation(self, seed42_dataset):
        schedule = ThresholdSchedule((0.37, 0.2, 0.11, 0.11, 0.08, 0.08))
        traces = run_dataset(seed42_dataset, schedule)
        rep = report(seed42_dataset, traces)

        labels = seed42_dataset.labels
        m = seed42_dataset.num_samples
        correct = sum(1 for t, y in zip(traces, labels) if t.prediction == y)
        assert rep.accuracy == correct / m

        avg_cost = sum(t.cost_ms for t in traces) / m
        assert rep.avg_cost_ms == pytest.approx(avg_cost, abs=1e-12)
        avg_models = sum(t.models_used for t in traces) / m
        assert rep.avg_models == pytest.approx(avg_models, abs=1e-12)

        full_cost = float(np.cumsum(seed42_dataset.costs_ms)[-1])
        assert rep.latency_ratio == pytest.approx(avg_cost / full_cost, abs=1e-12)

        full_preds = stage_tables(seed42_dataset).predictions[-1]
        full_error = np.count_nonzero(full_preds != labels) / m
        assert rep.error_increase == relative_error_increase((m - correct) / m, full_error)

        counts = np.bincount([t.models_used for t in traces], minlength=8)[1:]
        np.testing.assert_array_equal(rep.exit_counts, counts)


@st.composite
def exit_count_cases(draw):
    """Per-stage exit counts (zeros common) and positive cumulative costs."""
    n = draw(st.integers(1, 24))
    counts = draw(st.lists(st.sampled_from([0, 1, 3, 977, 10**6 + 3]), min_size=n, max_size=n))
    cost = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    return counts, draw(st.lists(cost, min_size=n, max_size=n))


class TestScoreCounts:
    @given(exit_count_cases())
    def test_cost_total_is_a_chain_of_fused_multiply_adds(self, case):
        counts, costs = case
        m = max(1, sum(counts))
        rep = score_counts(m, costs, 0, np.array(counts, dtype=np.int64), 0)

        total = 0.0  # each step is the exact count * cost + total, rounded once
        for count, cost in zip(counts, costs):
            total = float(count * Fraction(cost) + Fraction(total))
        assert rep.avg_cost_ms == total / m
        assert rep.latency_ratio == total / (m * costs[-1])
        assert rep.avg_models == sum(k * c for k, c in enumerate(counts, start=1)) / m

    @pytest.mark.parametrize(
        "num_samples, costs",
        [(3, [1e308, 0.5e308]), (2, [1e308, np.inf]), (3, [1.0, np.inf])],
        ids=["product", "infinite_cost", "infinite_cost_after_finite_total"],
    )
    def test_a_cost_total_beyond_the_float_range_is_refused_before_scoring(
        self, tmp_path, capsys, num_samples, costs
    ):
        # score_counts assumes num_samples times the total cost is finite; every
        # route to it refuses other costs first
        logits = np.zeros((2, num_samples, 2), np.float32)
        labels = np.zeros(num_samples, np.int64)
        with pytest.raises(ValidationError):
            EnsembleDataset(logits, labels, costs)

        # a directory saved with valid costs, then given these in its manifest
        save_dataset(EnsembleDataset(logits, labels, [1.0, 1.0]), tmp_path / "data")
        manifest = tmp_path / "data" / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["costs_ms"] = costs
        manifest.write_text(json.dumps(doc))  # writes inf as Infinity
        schedule = tmp_path / "schedule.json"
        save_schedule(schedule, ThresholdSchedule((0.5,)))
        out = tmp_path / "out.csv"
        for args in (
            ["baseline", "--data", str(manifest.parent), "--out", str(out)],
            ["run", "--data", str(manifest.parent), "--schedule", str(schedule),
             "--out", str(out)],
        ):
            assert main(args) == 1
            assert capsys.readouterr().err.startswith(("error: cost ", "error: costs_ms "))
        assert not out.exists()

    @pytest.mark.parametrize(
        "costs", [[1e308, 1e308], [1e308, np.inf], [1.0, np.inf]],
        ids=["running_total", "infinite_cost", "infinite_cost_after_finite_total"],
    )
    def test_run_sample_refuses_a_cost_total_beyond_the_float_range(self, costs):
        with pytest.raises(ValidationError):
            run_sample(np.zeros((2, 3)), ThresholdSchedule((0.5,)), costs)

    def test_real_fields_are_python_floats_on_every_route(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(8), num_models=3, num_samples=40)
        schedule = ThresholdSchedule((0.3, 0.6))
        results = [
            report(ds, run_dataset(ds, schedule)),
            score_counts(40, stage_tables(ds).cum_costs_ms, np.int64(9), np.array([10, 10, 20]),
                         np.int64(7)),
            *ensemble_size_sweep(ds),
            *flexible_sweep(ds, [("s", schedule)]),
            *(evaluate_objective(ds, schedule, a) for a in (0.5, 1, np.float64(0.25))),
        ]
        for result in results:
            reals = [f.name for f in dataclasses.fields(result) if f.type in ("float", float)]
            assert len(reals) >= 4
            for name in reals:
                assert type(getattr(result, name)) is float, (result, name)


class TestMarginHistogram:
    def test_confident_correct_model_fills_top_bin(self):
        labels = np.array([0, 1, 2, 0], dtype=np.int64)
        # a gap of 40 rounds the margin to exactly 1.0, which the closed last bin holds
        for gap in (16.0, 40.0):
            logits = np.zeros((1, 4, 3), np.float32)
            logits[0, np.arange(4), labels] = gap
            ds = EnsembleDataset(logits, labels, np.array([1.0]))
            hist = margin_histogram(ds, ensemble_size=1, bins=10)
            assert hist.correct_counts[-1] == 4
            assert hist.correct_counts[:-1].sum() == 0
            assert hist.wrong_counts.sum() == 0

    def test_all_zero_logits_pile_into_first_bin(self):
        labels = np.array([0, 1], dtype=np.int64)
        ds = EnsembleDataset(np.zeros((1, 2, 3), np.float32), labels, np.array([1.0]))
        hist = margin_histogram(ds, ensemble_size=1, bins=10)
        # margins are all 0; tie-break predicts class 0, so sample 0 is correct
        assert hist.correct_counts[0] == 1
        assert hist.wrong_counts[0] == 1
        assert hist.correct_counts.sum() + hist.wrong_counts.sum() == 2

    def test_counts_conserved_and_separated_on_synth(self, seed42_dataset):
        hist = margin_histogram(seed42_dataset, ensemble_size=1, bins=20)
        total = hist.correct_counts.sum() + hist.wrong_counts.sum()
        assert total == seed42_dataset.num_samples

        centers = (hist.bin_edges[:-1] + hist.bin_edges[1:]) / 2
        mean_correct = np.average(centers, weights=hist.correct_counts)
        mean_wrong = np.average(centers, weights=hist.wrong_counts)
        assert mean_correct > mean_wrong

    def test_limit_restricts_to_prefix(self, seed42_dataset):
        hist = margin_histogram(seed42_dataset, ensemble_size=1, bins=5, limit=100)
        assert hist.correct_counts.sum() + hist.wrong_counts.sum() == 100
        big = margin_histogram(seed42_dataset, ensemble_size=1, bins=5, limit=10**9)
        assert big.correct_counts.sum() + big.wrong_counts.sum() == 10000

    def test_invalid_arguments(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(5))
        with pytest.raises(ValueError, match="ensemble_size"):
            margin_histogram(ds, ensemble_size=0)
        with pytest.raises(ValueError, match="ensemble_size"):
            margin_histogram(ds, ensemble_size=4)
        with pytest.raises(ValueError, match="bins"):
            margin_histogram(ds, ensemble_size=1, bins=0)
        with pytest.raises(ValueError, match="limit"):
            margin_histogram(ds, ensemble_size=1, limit=0)

    def test_bins_stop_where_their_edges_stop_printing_distinctly(self, dataset_factory):
        # format_real's 6 significant digits tell every edge apart up to 10**6
        # bins; at 10**6 + 1 the two edges beside 0.5 both print as 0.5
        for bins, distinct in ((10**6, 3), (10**6 + 1, 2)):
            middle = np.linspace(0.0, 1.0, bins + 1)[bins // 2 - 1 : bins // 2 + 2]
            assert len({format_real(edge) for edge in middle}) == distinct
        ds = dataset_factory(np.random.default_rng(5))
        assert margin_histogram(ds, ensemble_size=1, bins=10**6).correct_counts.size == 10**6
        with pytest.raises(ValueError, match=r"^bins must be <= 1000000, got 1000001$"):
            margin_histogram(ds, ensemble_size=1, bins=10**6 + 1)


class TestSweeps:
    def test_single_model_sweep(self, dataset_factory):
        ds = dataset_factory(np.random.default_rng(6), num_models=1)
        rows = ensemble_size_sweep(ds)
        assert len(rows) == 1
        assert rows[0].avg_cost_ms == float(ds.costs_ms[0])
        assert rows[0].latency_ratio == 1.0

    def test_seed42_accuracy_grows_with_ensemble_size(self, seed42_dataset):
        rows = ensemble_size_sweep(seed42_dataset)
        assert [r.config for r in rows] == [f"full_{k}" for k in range(1, 8)]
        assert rows[-1].accuracy > rows[0].accuracy
        assert rows[-1].error_increase == 0.0

    @pytest.mark.parametrize(
        "costs, num_samples",
        [((0.1234565,), 3), ((0.5, 0.734565), 29)],
        ids=["one_model", "two_models"],
    )
    def test_baseline_rows_equal_runs_that_stop_after_k_models(self, costs, num_samples):
        # here m * c / m != c or m * c / (m * c_N) != c / c_N in the last bit, for cumulative cost c
        rng = np.random.default_rng(9)
        n = len(costs)
        logits = rng.normal(0.0, 2.0, size=(n, num_samples, 3)).astype(np.float32)
        labels = rng.integers(0, 3, size=num_samples).astype(np.int64)
        ds = EnsembleDataset(logits, labels, np.array(costs))
        stop_after = [
            (f"full_{k}", ThresholdSchedule((1.0,) * (k - 1) + (0.0,) * (n - k)))
            for k in range(1, n + 1)
        ]
        assert ensemble_size_sweep(ds) == flexible_sweep(ds, stop_after)

    def test_flexible_cheaper_than_full_on_calibrated_schedule(self, seed42_dataset):
        schedule = ThresholdSchedule((0.37, 0.2, 0.11, 0.11, 0.08, 0.08))
        flex = flexible_sweep(seed42_dataset, [("calibrated", schedule)])[0]
        full = ensemble_size_sweep(seed42_dataset)[-1]
        assert flex.avg_cost_ms < full.avg_cost_ms
        assert flex.latency_ratio < 1.0


class TestStreamedRoutes:
    """flexible_sweep, ensemble_size_sweep and margin_histogram reduce the stage
    tables chunk by chunk; they give the tabled route's results field for field."""

    # the class counts on both sides of the stage kernel's layout switch are included
    @pytest.mark.parametrize("num_classes", sorted(
        {2, 10, 32, 33, 100} | {_CLASS_MAJOR_MAX_CLASSES, _CLASS_MAJOR_MAX_CLASSES + 1}
    ))
    def test_streamed_scores_equal_the_tabled_ones(self, tmp_path, num_classes):
        rng = np.random.default_rng(num_classes)
        num_models = 4
        step = chunk_step(num_models, num_classes)
        num_samples = 2 * step + 37  # two whole chunks and a ragged one
        logits = rng.normal(0.0, 2.0, size=(num_models, num_samples, num_classes))
        labels = rng.integers(0, num_classes, size=num_samples)
        costs = rng.uniform(0.5, 3.0, num_models)
        tabled = EnsembleDataset(logits.astype(np.float32), labels, costs)
        save_dataset(tabled, tmp_path)
        tables = stage_tables(tabled)

        schedules = [("zeros", ThresholdSchedule.uniform(0.0, num_models)),
                     ("ones", ThresholdSchedule.uniform(1.0, num_models))]
        for i in range(10):
            thresholds = rng.choice([0.0, 1.0, *rng.uniform(0, 1, 4)], size=num_models - 1)
            schedules.append((f"random_{i}", ThresholdSchedule(tuple(thresholds))))
        expected = [repr(_row(c, report(tabled, run_dataset(tabled, s)))) for c, s in schedules]
        stop_after = [
            (f"full_{k}", ThresholdSchedule((1.0,) * (k - 1) + (0.0,) * (num_models - k)))
            for k in range(1, num_models + 1)
        ]
        expected_sweep = [repr(_row(c, report(tabled, run_dataset(tabled, s))))
                          for c, s in stop_after]

        streamed = [
            EnsembleDataset(tabled.logits.copy(), labels, costs),
            open_dataset(tmp_path / MANIFEST_NAME),
        ]
        for source in [*streamed, tabled]:
            assert [repr(row) for row in flexible_sweep(source, schedules)] == expected
            assert [repr(row) for row in ensemble_size_sweep(source)] == expected_sweep
            for k, limit in [(1, None), (num_models, None), (2, 1), (3, step), (2, step + 5),
                             (num_models, num_samples + 1)]:
                histogram = margin_histogram(source, k, bins=17, limit=limit)
                take = num_samples if limit is None else limit
                correct = tables.predictions[k - 1, :take] == labels[:take]
                margins = tables.margins[k - 1, :take]
                for counts, chosen in [(histogram.correct_counts, correct),
                                       (histogram.wrong_counts, ~correct)]:
                    tally = np.histogram(margins[chosen], bins=histogram.bin_edges)[0]
                    assert counts.dtype == tally.dtype and counts.tolist() == tally.tolist()


MANY_MODELS, MANY_SAMPLES, MANY_CLASSES = 32, 20_000, 10


@pytest.fixture(scope="module")
def many_models_manifest(tmp_path_factory):
    """A saved dataset of MANY_MODELS models (26 MB of logits)."""
    root = tmp_path_factory.mktemp("many_models")
    rng = np.random.default_rng(32)
    logits = rng.standard_normal((MANY_MODELS, MANY_SAMPLES, MANY_CLASSES), np.float32)
    logits.setflags(write=False)  # adopted without a copy
    labels = rng.integers(0, MANY_CLASSES, MANY_SAMPLES)
    save_dataset(EnsembleDataset(logits, labels, rng.uniform(0.5, 3.0, MANY_MODELS)), root)
    return root / MANIFEST_NAME


@pytest.mark.parametrize(
    "command", ["flexible_sweep", "ensemble_size_sweep", "margin_histogram", "calibrate"]
)
def test_working_set_does_not_grow_with_the_number_of_models(many_models_manifest, command):
    # a chunk of 64 Ki values per model took 24 MiB of read and prefix buffers here
    schedules = [("half", ThresholdSchedule.uniform(0.5, MANY_MODELS)),
                 ("ones", ThresholdSchedule.uniform(1.0, MANY_MODELS))]
    run = {
        "flexible_sweep": lambda files: flexible_sweep(files, schedules),
        "ensemble_size_sweep": ensemble_size_sweep,
        "margin_histogram": lambda files: margin_histogram(files, MANY_MODELS),
        "calibrate": calibrate,
    }[command]
    tracemalloc.start()
    try:
        run(open_dataset(many_models_manifest))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = 4 * MANY_SAMPLES  # the u32 labels, kept as read
    if command == "calibrate":
        # one-byte grid bins for stages 1..N-1, wrong flags for all N, the alive mask
        held += (2 * MANY_MODELS - 1) * MANY_SAMPLES + MANY_SAMPLES
    assert peak < held + 3 * 2**20


class TestCsvOutput:
    def test_sweep_csv_layout_and_determinism(self, tmp_path, dataset_factory):
        ds = dataset_factory(np.random.default_rng(7), num_models=3)
        rows = ensemble_size_sweep(ds)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, rows)
        write_sweep_csv(b, rows)
        content = a.read_text()
        assert content == b.read_text()
        lines = content.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4
        assert lines[1].startswith("full_1,")

    def test_non_ascii_config_is_utf8_with_newline_ends(self, tmp_path):
        path = tmp_path / "r.csv"
        write_sweep_csv(path, [SweepRow("calibr\u00e9", 0.5, 1.25, 0.75, -0.125, 2.0)])
        assert path.read_bytes() == (
            b"config,accuracy,avg_cost_ms,R,E,avg_models\n"
            b"calibr\xc3\xa9,0.5,1.25,0.75,-0.125,2\n"
        )

    @pytest.mark.parametrize("config", ["a,b", 'say "b"', "a\nb", "a\r"],
                             ids=["comma", "quote", "line_feed", "carriage_return"])
    def test_a_config_no_csv_cell_can_hold_is_refused(self, tmp_path, config):
        rows = [SweepRow(name, 0.5, 1.25, 0.75, -0.125, 2.0) for name in ("fine", config)]
        message = f"config {config!r} holds a comma, quote or line break"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_sweep_csv(tmp_path / "r.csv", rows)
        assert list(tmp_path.iterdir()) == []

    def test_histogram_csv_is_written_a_line_at_a_time(self, tmp_path):
        # built as one string, 10**5 rows took 45 MB of cells, lines, text and bytes
        bins = 10**5
        counts = np.random.default_rng(9).integers(0, 10**6, (2, bins))
        hist = MarginHistogram(np.linspace(0.0, 1.0, bins + 1), *counts)
        path = tmp_path / "h.csv"
        tracemalloc.start()
        try:
            write_histogram_csv(path, hist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        lines = path.read_text().splitlines()
        assert len(lines) == bins + 1
        assert lines[-1] == f"0.99999,1,{counts[0, -1]},{counts[1, -1]}"

    @pytest.mark.parametrize("block_rows", [2, None])  # blocks that cut the rows; the default
    @pytest.mark.parametrize("bins", [3, 7])
    def test_histogram_csv_equals_one_scalar_at_a_time(
        self, tmp_path, monkeypatch, dataset_factory, bins, block_rows
    ):
        # linspace edges at 3 and 7 bins have digits beyond format_real's six
        if block_rows is not None:
            monkeypatch.setattr(metrics_report, "_CSV_BLOCK_ROWS", block_rows)
        hist = margin_histogram(dataset_factory(np.random.default_rng(bins)), 1, bins=bins)
        edges = hist.bin_edges
        expected = "".join(
            f"{format_real(lo)},{format_real(hi)},{int(c)},{int(w)}\n"
            for lo, hi, c, w in zip(edges[:-1], edges[1:], hist.correct_counts, hist.wrong_counts)
        )
        path = tmp_path / "h.csv"
        write_histogram_csv(path, hist)
        assert path.read_text() == f"{HISTOGRAM_CSV_HEADER}\n{expected}"
        assert "0.333333,0.666667," in expected or "0.142857,0.285714," in expected

    def test_histogram_csv_layout(self, tmp_path, dataset_factory):
        ds = dataset_factory(np.random.default_rng(8))
        hist = margin_histogram(ds, ensemble_size=1, bins=4)
        path = tmp_path / "h.csv"
        write_histogram_csv(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == HISTOGRAM_CSV_HEADER
        assert len(lines) == 5
        assert lines[1].startswith("0,0.25,")
        assert lines[-1].startswith("0.75,1,")
