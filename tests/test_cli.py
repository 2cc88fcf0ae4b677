import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flexens import dataset_io, metrics_report
from flexens.calibration import save_schedule
from flexens.cascade_engine import ThresholdSchedule
from flexens.cli import main
from flexens.dataset_io import MANIFEST_NAME, EnsembleDataset, open_dataset, save_dataset

GEN_ARGS = ["--models", "3", "--samples", "120", "--classes", "4", "--seed", "7"]


def gen_dataset(tmp_path, name, seed="7") -> Path:
    out = tmp_path / name
    args = ["gen", "--models", "3", "--samples", "120", "--classes", "4",
            "--seed", seed, "--out", str(out)]
    assert main(args) == 0
    return out


def read_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestGen:
    def test_deterministic_directories(self, tmp_path, capsys):
        a = gen_dataset(tmp_path, "a")
        b = gen_dataset(tmp_path, "b")
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_classes_exits_1(self, tmp_path, capsys):
        code = main(["gen", "--models", "2", "--samples", "5", "--classes", "1",
                     "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_cost_total_beyond_the_float_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["gen", "--models", "2", "--samples", "20", "--classes", "3",
                     "--seed", "1", "--cost-ms", "1e307", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: costs_ms [1e+307, 1e+307] overflow: their total times num_samples=20 "
            "must be finite\n"
        )
        assert not out.exists()

    def test_a_dimension_beyond_the_header_u32_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["gen", "--models", "1", "--samples", "1", "--classes", "4294967296",
                     "--seed", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: dimensions (1, 4294967296) exceed a payload header's u32 fields\n"
        )
        assert not out.exists()


class TestValidate:
    def test_prints_summary(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        capsys.readouterr()
        assert main(["validate", "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "models: 3" in out
        assert "samples: 120" in out
        assert "classes: 4" in out
        assert "costs_ms: 1.667 1.667 1.667" in out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--data", str(tmp_path / "nope")]) == 2
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("logits_000.ensl", lambda raw: b"XXXX" + raw[4:]),
            # a (3, 10**11, 10**6) float32 tensor would take 1 EiB
            (
                "manifest.json",
                lambda raw: json.dumps(
                    {**json.loads(raw), "num_samples": 10**11, "num_classes": 10**6}
                ).encode(),
            ),
        ],
        ids=["bad_magic", "oversized_manifest"],
    )
    def test_corrupt_payload_exits_1(self, tmp_path, capsys, name, corrupt):
        data = gen_dataset(tmp_path, "data")
        target = data / name
        target.write_bytes(corrupt(target.read_bytes()))
        capsys.readouterr()
        assert main(["validate", "--data", str(data)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_integer_manifest_key_names_the_manifest(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "num_samples": "x"}))
        capsys.readouterr()
        assert main(["validate", "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{manifest}: manifest key 'num_samples' must be an integer" in err

    def test_cost_too_large_for_a_float_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "costs_ms": [1.0, 10**400, 1.0]}))
        capsys.readouterr()
        assert main(["validate", "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: costs_ms must be a list of numbers\n"
        )


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["validate", "--data", str(tmp_path), "--bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["gen", "--models", "2"]) == 1

    def test_help_exits_zero_and_lists_flags(self, capsys):
        assert main(["--help"]) == 0
        top = capsys.readouterr().out
        for sub in ["gen", "validate", "baseline", "calibrate", "run", "histogram"]:
            assert sub in top

        expected = {
            "gen": ["--models", "--samples", "--classes", "--seed", "--signal",
                    "--sigma", "--cost-ms", "--out"],
            "validate": ["--data"],
            "baseline": ["--data", "--out"],
            "calibrate": ["--data", "--alpha", "--grid-step", "--out"],
            "run": ["--data", "--schedule", "--out", "--allow-same-split"],
            "histogram": ["--data", "--ensemble-size", "--bins", "--limit", "--out"],
        }
        for sub, flags in expected.items():
            assert main([sub, "--help"]) == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, f"{sub} help is missing {flag}"


class TestPipeline:
    def test_calibrate_then_run_on_held_out_split(self, tmp_path, capsys):
        train = gen_dataset(tmp_path, "train", seed="7")
        evaluation = gen_dataset(tmp_path, "eval", seed="8")
        schedule = tmp_path / "schedule.json"
        report = tmp_path / "report.csv"

        assert main(["calibrate", "--data", str(train), "--alpha", "0.5",
                     "--grid-step", "0.05", "--out", str(schedule)]) == 0
        doc = json.loads(schedule.read_text())
        assert doc["version"] == 1
        assert doc["alpha"] == 0.5
        assert doc["grid_step"] == 0.05
        assert len(doc["thresholds"]) == 2
        assert doc["calibration_data"] == os.path.realpath(str(train))

        capsys.readouterr()
        assert main(["run", "--data", str(evaluation), "--schedule", str(schedule),
                     "--out", str(report)]) == 0
        captured = capsys.readouterr()
        assert "accuracy=" in captured.out
        assert "wall clock" in captured.err  # timing stays on stderr
        rows = read_rows(report)
        assert len(rows) == 1
        assert rows[0]["config"] == "schedule"
        assert 1.0 <= float(rows[0]["avg_models"]) <= 3.0

    def test_same_split_guard(self, tmp_path, capsys):
        train = gen_dataset(tmp_path, "train")
        schedule = tmp_path / "schedule.json"
        assert main(["calibrate", "--data", str(train), "--grid-step", "0.25",
                     "--out", str(schedule)]) == 0

        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["run", "--data", str(train), "--schedule", str(schedule),
                     "--out", str(report)]) == 1
        assert "allow-same-split" in capsys.readouterr().err
        assert not report.exists()

        assert main(["run", "--data", str(train), "--schedule", str(schedule),
                     "--out", str(report), "--allow-same-split"]) == 0
        assert report.exists()

    @pytest.mark.parametrize("value", [True, "false", 1], ids=["true", "false_string", "one"])
    def test_schedule_key_does_not_unlock_run(self, tmp_path, capsys, value):
        # run --allow-same-split is the one opt-in; a key in the schedule is ignored
        train = gen_dataset(tmp_path, "train")
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({
            "version": 1, "thresholds": [0.5, 0.5],
            "calibration_data": os.path.realpath(train), "allow_same_split": value,
        }))
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["run", "--data", str(train), "--schedule", str(schedule),
                     "--out", str(report)]) == 1
        assert "--allow-same-split" in capsys.readouterr().err
        assert not report.exists()

        assert main(["run", "--data", str(train), "--schedule", str(schedule),
                     "--out", str(report), "--allow-same-split"]) == 0
        assert report.exists()

    def test_threshold_too_large_for_a_float_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"version": 1, "thresholds": [10**400, 0.5]}))
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--schedule", str(schedule),
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: {schedule}: thresholds must be a list of numbers\n"
        )
        assert not report.exists()

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb"],
                             ids=["comma", "quote", "line_feed", "carriage_return"])
    def test_a_schedule_name_no_csv_cell_can_hold_exits_1(self, tmp_path, capsys, name):
        # the report's config cell is the schedule file's stem
        data = gen_dataset(tmp_path, "data")
        schedule = tmp_path / f"{name}.json"
        save_schedule(schedule, ThresholdSchedule.uniform(0.5, 3))
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--schedule", str(schedule),
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: config {name!r} holds a comma, quote or line break\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([data, schedule])

    def test_a_schedule_name_no_csv_cell_can_hold_is_refused_before_scoring(
        self, tmp_path, capsys, monkeypatch
    ):
        data = gen_dataset(tmp_path, "data")
        schedule = tmp_path / "a,b.json"
        save_schedule(schedule, ThresholdSchedule.uniform(0.5, 3))

        def never(*args, **kwargs):
            raise AssertionError("the dataset was opened or scored")

        monkeypatch.setattr(metrics_report, "flexible_sweep", never)
        monkeypatch.setattr(dataset_io, "open_dataset", never)
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--schedule", str(schedule),
                     "--out", str(tmp_path / "report.csv")]) == 1
        assert capsys.readouterr().err == "error: config 'a,b' holds a comma, quote or line break\n"

    def test_calibrate_takes_no_same_split_opt_in(self, tmp_path, capsys):
        train = gen_dataset(tmp_path, "train")
        schedule = tmp_path / "schedule.json"
        capsys.readouterr()
        assert main(["calibrate", "--data", str(train), "--grid-step", "0.25",
                     "--out", str(schedule), "--allow-same-split"]) == 1
        assert "unrecognized arguments: --allow-same-split" in capsys.readouterr().err
        assert not schedule.exists()

    @pytest.mark.parametrize(
        "gen_args",
        [
            GEN_ARGS,
            # one model whose cost sits on a rounding tie of the 6-digit CSV reals
            ["--models", "1", "--samples", "3", "--classes", "3", "--seed", "0",
             "--cost-ms", "0.1234565"],
        ],
        ids=["three_models", "one_model_cost_tie"],
    )
    def test_run_with_unreachable_thresholds_matches_baseline(self, tmp_path, gen_args):
        data = tmp_path / "data"
        assert main(["gen", *gen_args, "--out", str(data)]) == 0
        num_models = int(gen_args[gen_args.index("--models") + 1])
        schedule = tmp_path / "ones.json"
        save_schedule(schedule, ThresholdSchedule.uniform(1.0, num_models))

        baseline_csv = tmp_path / "baseline.csv"
        report_csv = tmp_path / "report.csv"
        assert main(["baseline", "--data", str(data), "--out", str(baseline_csv)]) == 0
        assert main(["run", "--data", str(data), "--schedule", str(schedule),
                     "--out", str(report_csv)]) == 0

        baseline_rows = read_rows(baseline_csv)
        assert len(baseline_rows) == num_models
        full_row = baseline_rows[-1]
        run_row = read_rows(report_csv)[0]
        assert run_row["accuracy"] == full_row["accuracy"]
        assert run_row["avg_cost_ms"] == full_row["avg_cost_ms"]
        assert run_row["R"] == "1"
        assert run_row["E"] == "0"

    def test_full_pipeline_on_default_synth_is_pinned(self, tmp_path, capsys):
        # end-to-end regression: gen (defaults, seed 42) -> calibrate -> run,
        # demo-style on a single split; row pinned from the first verified run
        data = tmp_path / "data"
        schedule = tmp_path / "schedule.json"
        report = tmp_path / "report.csv"
        assert main(["gen", "--models", "7", "--samples", "10000", "--classes", "10",
                     "--seed", "42", "--out", str(data)]) == 0
        assert main(["calibrate", "--data", str(data), "--alpha", "0.5",
                     "--grid-step", "0.01", "--out", str(schedule)]) == 0
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--schedule", str(schedule),
                     "--out", str(report), "--allow-same-split"]) == 0
        lines = report.read_text().splitlines()
        assert lines[1] == "schedule,0.8305,4.83847,0.414643,0.168966,2.9025"
        assert float(lines[1].split(",")[5]) < 7  # gated run skips models on average

    def test_run_schedule_length_mismatch_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        schedule = tmp_path / "short.json"
        schedule.write_text('{"version": 1, "thresholds": [1.0]}')
        assert main(["run", "--data", str(data), "--schedule", str(schedule),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_an_out_that_is_not_a_regular_file_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        capsys.readouterr()
        assert main(["calibrate", "--data", str(data), "--grid-step", "0.25",
                     "--out", str(fifo)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {fifo}: not a regular file; refusing to replace it\n"
        assert fifo.is_fifo()

    def test_a_symlinked_out_keeps_its_link(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old contents\n")
        link.symlink_to(real)
        assert main(["baseline", "--data", str(data), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("config,accuracy,")

    def test_a_grid_step_with_an_infinite_reciprocal_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        out = tmp_path / "schedule.json"
        capsys.readouterr()
        assert main(["calibrate", "--data", str(data), "--grid-step", "1e-320",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: grid step 1e-320 must divide [0, 1] evenly\n"
        assert not out.exists()

    def test_a_grid_too_fine_for_the_code_table_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        out = tmp_path / "schedule.json"
        capsys.readouterr()
        assert main(["calibrate", "--data", str(data), "--grid-step", "1e-12",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: grid step 1e-12 gives more than 32768 candidates\n"
        assert not out.exists()

    def test_missing_schedule_exits_2(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        assert main(["run", "--data", str(data), "--schedule", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "r.csv")]) == 2


def scoring_argv(command, data, schedule, out) -> list[str]:
    extra = {
        "baseline": [],
        "calibrate": ["--grid-step", "0.25"],
        "run": ["--schedule", str(schedule)],
        "histogram": ["--ensemble-size", "1"],
    }[command]
    return [command, "--data", str(data), *extra, "--out", str(out)]


class TestAnOutThatIsAnInput:
    """An --out that is one of the command's input files would replace it, and
    the next command to read it would fail; it is refused before any scoring."""

    @pytest.fixture
    def inputs(self, tmp_path):
        data = gen_dataset(tmp_path, "data")
        schedule = tmp_path / "s.json"
        schedule.write_text('{"version": 1, "thresholds": [0.5, 0.5]}')
        return data, schedule

    @pytest.mark.parametrize(
        "command, kind",
        [(command, kind)
         for command in ["baseline", "calibrate", "run", "histogram"]
         for kind in ["manifest", "logits", "labels", "schedule", "symlink", "hard_link"]
         if kind != "schedule" or command == "run"],  # only run reads a schedule
    )
    def test_is_refused_before_scoring(self, tmp_path, capsys, monkeypatch, inputs, command, kind):
        data, schedule = inputs
        out = {
            "manifest": data / MANIFEST_NAME,
            "logits": data / "logits_001.ensl",
            "labels": data / "labels.ensy",
            "schedule": schedule,
            "symlink": tmp_path / "link.csv",
            "hard_link": tmp_path / "hard.csv",
        }[kind]
        if kind == "symlink":
            out.symlink_to(data / "labels.ensy")
        if kind == "hard_link":
            os.link(data / "logits_000.ensl", out)
        before = {path: path.read_bytes() for path in [schedule, *data.iterdir()]}

        def never(*args, **kwargs):
            raise AssertionError("scored before the --out check")

        monkeypatch.setattr(dataset_io.DatasetFiles, "logit_chunks", never)
        capsys.readouterr()
        assert main(scoring_argv(command, data, schedule, out)) == 1
        assert capsys.readouterr().err == f"error: --out {out} is one of the command's inputs\n"
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(data.iterdir()) == sorted(p for p in before if p.parent == data)

    @pytest.mark.parametrize("command", ["baseline", "calibrate", "run", "histogram"])
    def test_a_new_file_in_the_data_directory_is_written(self, capsys, inputs, command):
        data, schedule = inputs
        out = data / "new.out"
        assert main(scoring_argv(command, data, schedule, out)) == 0
        assert out.stat().st_size > 0
        assert main(["validate", "--data", str(data)]) == 0
        # written over, the same file is still an output, not an input
        assert main(scoring_argv(command, data, schedule, out)) == 0


WIDE_MODELS, WIDE_SAMPLES, WIDE_CLASSES = 3, 150_000, 10


@pytest.fixture(scope="module")
def wide_data(tmp_path_factory):
    """A saved dataset of WIDE_SAMPLES samples (18 MB of logits), plus a
    schedule; its stage tables alone would take 6.9 MiB."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(8)
    num_models, num_samples, num_classes = WIDE_MODELS, WIDE_SAMPLES, WIDE_CLASSES
    logits = rng.normal(0.0, 2.0, size=(num_models, num_samples, num_classes)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=num_samples)
    save_dataset(EnsembleDataset(logits, labels, [1.0, 2.0, 3.0]), root / "data")
    save_schedule(root / "schedule.json", ThresholdSchedule.uniform(0.5, num_models))
    return root


@pytest.mark.parametrize(
    "command",
    [["run", "--schedule", "{root}/schedule.json"], ["baseline"],
     ["histogram", "--ensemble-size", "3"], ["calibrate"]],
    ids=["run", "baseline", "histogram", "calibrate"],
)
def test_commands_hold_neither_the_tensor_nor_the_stage_tables(wide_data, command):
    args = [arg.format(root=wide_data) for arg in command]
    args += ["--data", str(wide_data / "data"), "--out", str(wide_data / "out.csv")]
    tracemalloc.start()
    try:
        assert main(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held, slack = 4 * WIDE_SAMPLES, 3 * 2**20  # the u32 labels, kept as read
    if command[0] == "calibrate":
        # a one-byte code (grid bin and wrong flag) for stages 1..N-1, the stage-N
        # wrong flags and the alive mask; the pass's buffers and the search's
        # windows peak about 1.5 MiB beside them
        held += WIDE_MODELS * WIDE_SAMPLES + WIDE_SAMPLES
        slack = 7 * 2**18
    assert peak < held + slack
    tables = 16 * WIDE_MODELS * WIDE_SAMPLES  # float64 margins, int64 predictions
    assert tables > held + slack


def test_open_dataset_holds_the_labels_once(wide_data):
    tracemalloc.start()
    try:
        files = open_dataset(wide_data / "data" / MANIFEST_NAME)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert files.labels.dtype == np.dtype("<u4") and not files.labels.flags.writeable
    assert peak < 4 * WIDE_SAMPLES + 2**19  # an int64 copy would add 8 bytes a sample


def test_gen_holds_neither_the_tensor_nor_the_stream(tmp_path):
    args = ["gen", "--models", str(WIDE_MODELS), "--samples", str(WIDE_SAMPLES),
            "--classes", str(WIDE_CLASSES), "--seed", "3", "--out", str(tmp_path / "gen")]
    tracemalloc.start()
    try:
        assert main(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = 12 * WIDE_SAMPLES  # u32 labels, written as they are, and float64 signals
    assert peak < held + 2 * 2**20  # one window of the stream, 0.5 MiB, and its blocks
    tensor = 4 * WIDE_MODELS * WIDE_SAMPLES * WIDE_CLASSES
    assert tensor > held + 2 * 2**20


class TestHistogram:
    def test_writes_bins(self, tmp_path):
        data = gen_dataset(tmp_path, "data")
        out = tmp_path / "hist.csv"
        assert main(["histogram", "--data", str(data), "--ensemble-size", "1",
                     "--bins", "10", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 10
        total = sum(int(r["correct"]) + int(r["wrong"]) for r in rows)
        assert total == 120

    def test_limit_flag(self, tmp_path):
        data = gen_dataset(tmp_path, "data")
        out = tmp_path / "hist.csv"
        assert main(["histogram", "--data", str(data), "--ensemble-size", "1",
                     "--bins", "5", "--limit", "30", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert sum(int(r["correct"]) + int(r["wrong"]) for r in rows) == 30

    def test_bad_ensemble_size_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        assert main(["histogram", "--data", str(data), "--ensemble-size", "9",
                     "--bins", "5", "--out", str(tmp_path / "h.csv")]) == 1

    def test_more_bins_than_the_csv_prints_apart_exits_1(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, "data")
        out = tmp_path / "h.csv"
        capsys.readouterr()
        assert main(["histogram", "--data", str(data), "--ensemble-size", "1",
                     "--bins", "1000001", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: bins must be <= 1000000, got 1000001\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def timed_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("timed")
    train, evaluation = gen_dataset(root, "train", seed="7"), gen_dataset(root, "eval", seed="8")
    schedule = root / "schedule.json"
    assert main(["calibrate", "--data", str(train), "--grid-step", "0.25",
                 "--out", str(schedule)]) == 0
    return train, evaluation, schedule


def timed_argv(command, tmp_path, train, evaluation, schedule):
    out = str(tmp_path / "out")
    return {
        "gen": ["gen", *GEN_ARGS, "--out", out],
        "validate": ["validate", "--data", str(evaluation)],
        "baseline": ["baseline", "--data", str(evaluation), "--out", out],
        "calibrate": ["calibrate", "--data", str(train), "--grid-step", "0.25", "--out", out],
        "run": ["run", "--data", str(evaluation), "--schedule", str(schedule), "--out", out],
        "histogram": ["histogram", "--data", str(evaluation), "--ensemble-size", "2",
                      "--out", out],
    }[command]


class TestTiming:
    """main times every command once, whole, and reports it on stderr only."""

    @pytest.mark.parametrize(
        "command", ["gen", "validate", "baseline", "calibrate", "run", "histogram"]
    )
    def test_every_command_writes_one_timing_line(self, tmp_path, capsys, timed_inputs, command):
        capsys.readouterr()
        assert main(timed_argv(command, tmp_path, *timed_inputs)) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(rf"{command}: \d+\.\d ms wall clock \(informational\)", lines[0])
        assert "wall clock" not in captured.out

    @pytest.mark.parametrize("case", ["gen_invalid", "validate_missing", "histogram_bad_size",
                                      "run_same_split"])
    def test_a_failing_command_writes_no_timing_line(self, tmp_path, capsys, timed_inputs, case):
        train, _, schedule = timed_inputs
        out = str(tmp_path / "out")
        argv = {
            "gen_invalid": ["gen", "--models", "3", "--samples", "10", "--classes", "1",
                            "--seed", "1", "--out", out],
            "validate_missing": ["validate", "--data", str(tmp_path / "missing")],
            "histogram_bad_size": ["histogram", "--data", str(train), "--ensemble-size", "9",
                                   "--out", out],
            "run_same_split": ["run", "--data", str(train), "--schedule", str(schedule),
                               "--out", out],
        }[case]
        capsys.readouterr()
        assert main(argv) in (1, 2)
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1  # the error line alone
        assert "wall clock" not in captured.err
        assert captured.out == ""


def test_module_entry_point_smoke():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "flexens.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout
