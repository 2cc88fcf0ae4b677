import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import chunk_step
from flexens import cascade_engine, dataset_io
from flexens.calibration import save_schedule
from flexens.cascade_engine import ThresholdSchedule, full_ensemble_predictions, stage_tables
from flexens.cli import main
from flexens.synthgen import SynthConfig, generate, save_generated
from flexens.dataset_io import (
    LABEL_MAGIC,
    LOGIT_MAGIC,
    MANIFEST_NAME,
    EnsembleDataset,
    import_csv,
    load_dataset,
    open_dataset,
    save_dataset,
)
from flexens.errors import (
    CsvParseError,
    DatasetFormatError,
    DimensionMismatchError,
    LabelOutOfRangeError,
    MalformedManifestError,
    NonFiniteLogitError,
    NonPositiveCostError,
    RaggedRowsError,
    ValidationError,
)
from flexens.metrics_report import (
    ensemble_size_sweep,
    flexible_sweep,
    margin_histogram,
    write_histogram_csv,
    write_sweep_csv,
)


def minimal_dataset() -> EnsembleDataset:
    return EnsembleDataset(
        logits=np.zeros((1, 1, 2), dtype=np.float32),
        labels=np.array([0], dtype=np.int64),
        costs_ms=np.array([1.0]),
    )


def assert_datasets_equal(a: EnsembleDataset, b: EnsembleDataset) -> None:
    assert a.logits.dtype == b.logits.dtype == np.float32
    assert a.logits.tobytes() == b.logits.tobytes()
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.costs_ms, b.costs_ms)


class TestValidation:
    def test_minimal_instance_is_valid(self):
        ds = minimal_dataset()
        assert (ds.num_models, ds.num_samples, ds.num_classes) == (1, 1, 2)

    def test_single_class_rejected(self):
        with pytest.raises(DimensionMismatchError, match="2 classes"):
            EnsembleDataset(np.zeros((1, 1, 1), np.float32), np.array([0]), np.array([1.0]))

    def test_non_finite_logit_carries_coordinates(self):
        logits = np.zeros((2, 3, 4), np.float32)
        logits[1, 2, 3] = np.nan
        with pytest.raises(NonFiniteLogitError) as exc:
            EnsembleDataset(logits, np.zeros(3, np.int64), np.ones(2))
        assert (exc.value.model, exc.value.sample, exc.value.class_index) == (1, 2, 3)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError) as exc:
            EnsembleDataset(np.zeros((1, 2, 2), np.float32), np.array([0, 2]), np.array([1.0]))
        assert exc.value.sample == 1 and exc.value.value == 2

    def test_negative_label(self):
        with pytest.raises(LabelOutOfRangeError):
            EnsembleDataset(np.zeros((1, 1, 2), np.float32), np.array([-1]), np.array([1.0]))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            EnsembleDataset(np.zeros((1, 1, 2), np.float32), np.array([0.0]), np.array([1.0]))

    def test_non_positive_cost(self):
        with pytest.raises(NonPositiveCostError) as exc:
            EnsembleDataset(
                np.zeros((2, 1, 2), np.float32), np.array([0]), np.array([1.0, 0.0])
            )
        assert exc.value.model == 1

    @pytest.mark.parametrize(
        "num_samples, costs",
        [(20, [1e307, 1e307]), (1, [1e308, 1e308])],
        ids=["samples_times_total", "running_total"],
    )
    def test_cost_total_beyond_the_float_range(self, num_samples, costs):
        logits = np.zeros((2, num_samples, 2), np.float32)
        with pytest.raises(ValidationError) as exc:
            EnsembleDataset(logits, np.zeros(num_samples, np.int64), costs)
        assert type(exc.value) is ValidationError
        assert str(exc.value) == (
            f"costs_ms {costs} overflow: their total times num_samples={num_samples} "
            "must be finite"
        )

    def test_cost_total_check_follows_every_cost_check(self):
        logits = np.zeros((3, 1, 2), np.float32)
        with pytest.raises(NonPositiveCostError) as exc:
            EnsembleDataset(logits, np.zeros(1, np.int64), [1e308, 1e308, 0.0])
        assert exc.value.model == 2

    def test_largest_finite_cost_total_is_accepted(self):
        top = float(np.finfo(np.float64).max)
        ds = EnsembleDataset(np.zeros((1, 1, 2), np.float32), np.zeros(1, np.int64), [top])
        assert stage_tables(ds).cum_costs_ms.tolist() == [top]
        with pytest.raises(ValidationError, match="overflow"):
            EnsembleDataset(np.zeros((1, 2, 2), np.float32), np.zeros(2, np.int64), [top])

    def test_arrays_are_frozen(self):
        ds = minimal_dataset()
        with pytest.raises(ValueError):
            ds.logits[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    @pytest.mark.parametrize(
        "shape, labels, costs, message",
        [
            ((1, 2), [0], [1], "logits must be a 3-D (models, samples, classes) tensor, got 2-D"),
            ((0, 1, 2), [0], [], "need at least 1 model"),
            ((1, 0, 2), [], [1.0], "need at least 1 sample"),
            ((1, 2, 2), [0], [1.0], "labels must have shape (2,), got (1,)"),
            ((2, 1, 2), [0], [1.0], "costs_ms must have shape (2,), got (1,)"),
        ],
        ids=["not_3d", "no_models", "no_samples", "label_shape", "cost_shape"],
    )
    def test_shape_rejections(self, shape, labels, costs, message):
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            EnsembleDataset(np.zeros(shape, np.float32), np.array(labels, np.int64), costs)

    def test_label_error_carries_the_callers_value(self):
        # 2**64 - 1 wraps to -1 in an int64 cast
        message = f"label {2**64 - 1} at sample=0 is outside [0, 2)"
        with pytest.raises(LabelOutOfRangeError, match=f"^{re.escape(message)}$") as exc:
            EnsembleDataset(np.zeros((1, 1, 2), np.float32), np.array([2**64 - 1], np.uint64), [1])
        assert exc.value.value == 2**64 - 1

    def test_caller_arrays_are_copied(self):
        logits = np.zeros((1, 2, 2), np.float32)
        frozen_view = logits[:]
        frozen_view.setflags(write=False)
        ds = EnsembleDataset(logits, np.array([0, 1]), np.array([1.0]))
        from_view = EnsembleDataset(frozen_view, np.array([0, 1]), np.array([1.0]))
        assert logits.flags.writeable
        logits[0, 0, :] = 5.0
        assert ds.logits[0, 0, 0] == 0.0
        assert from_view.logits[0, 0, 1] == 0.0


class TestBinaryRoundTrip:
    def test_minimal_round_trip_and_exact_bytes(self, tmp_path):
        ds = minimal_dataset()
        manifest = save_dataset(ds, tmp_path)
        assert manifest.logit_files == ("logits_000.ensl",)

        raw = (tmp_path / "logits_000.ensl").read_bytes()
        expected = LOGIT_MAGIC + struct.pack("<III", 1, 1, 2) + np.zeros(2, "<f4").tobytes()
        assert raw == expected

        raw_labels = (tmp_path / "labels.ensy").read_bytes()
        assert raw_labels == LABEL_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<I", 0)

        assert (tmp_path / MANIFEST_NAME).read_text() == (
            '{\n  "version": 1,\n  "num_models": 1,\n  "num_samples": 1,\n  "num_classes": 2,\n'
            '  "logit_files": [\n    "logits_000.ensl"\n  ],\n  "label_file": "labels.ensy",\n'
            '  "costs_ms": [\n    1.0\n  ]\n}\n'
        )

        assert_datasets_equal(ds, load_dataset(tmp_path / MANIFEST_NAME))

    def test_round_trip_random(self, tmp_path, dataset_factory):
        rng = np.random.default_rng(11)
        ds = dataset_factory(rng, num_models=3, num_samples=100, num_classes=10)
        save_dataset(ds, tmp_path)
        assert_datasets_equal(ds, load_dataset(tmp_path / MANIFEST_NAME))

    def test_two_saves_are_byte_identical(self, tmp_path, dataset_factory):
        ds = dataset_factory(np.random.default_rng(3))
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ["logits_000.ensl", "labels.ensy", MANIFEST_NAME]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_load_holds_the_tensor_once(self, tmp_path, dataset_factory):
        ds = dataset_factory(
            np.random.default_rng(8), num_models=3, num_samples=5000, num_classes=100
        )
        save_dataset(ds, tmp_path)
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path / MANIFEST_NAME)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_datasets_equal(ds, loaded)
        assert peak < ds.logits.nbytes + 2 * 2**20

    def test_load_checks_each_logit_once(self, tmp_path, monkeypatch, dataset_factory):
        passes = []

        def counting(chunks, *args):
            passes.append(args)
            return checked(chunks, *args)

        checked = dataset_io._checked
        monkeypatch.setattr(dataset_io, "_checked", counting)
        ds = dataset_factory(np.random.default_rng(4), num_samples=3 * chunk_step(3, 4) + 1)
        save_dataset(ds, tmp_path)
        passes.clear()
        assert_datasets_equal(ds, load_dataset(tmp_path / MANIFEST_NAME))
        assert len(passes) == 1

    def test_non_finite_model_is_rejected_in_bounded_memory(self, tmp_path):
        # a mask of the whole tensor, or a list of every bad coordinate, takes tens of MB
        logits = np.zeros((3, 20000, 100), np.float32)
        logits[1] = np.nan
        logits.setflags(write=False)  # adopted without a copy
        expected = "non-finite logit at model=1, sample=0, class=0"
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteLogitError, match=f"^{expected}$"):
                EnsembleDataset(logits, np.zeros(20000, np.int64), np.ones(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

        save_dataset(EnsembleDataset(logits[[0, 0, 2]], np.zeros(20000, np.int64), np.ones(3)),
                     tmp_path)
        header = LOGIT_MAGIC + struct.pack("<III", 1, 20000, 100)
        (tmp_path / "logits_001.ensl").write_bytes(header + logits[1].tobytes())
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteLogitError, match=f"^{expected}$"):
                load_dataset(tmp_path / MANIFEST_NAME)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < logits.nbytes + 4 * 2**20

    def test_save_writes_each_model_from_its_own_buffer(self, tmp_path, dataset_factory):
        # joining the header to tobytes() held two transient copies of each model
        ds = dataset_factory(
            np.random.default_rng(9), num_models=2, num_samples=20000, num_classes=100
        )
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.logits[0].nbytes + 2**20
        assert_datasets_equal(ds, load_dataset(tmp_path / MANIFEST_NAME))

    def test_round_trip_preserves_predictions(self, tmp_path, seed42_dataset):
        save_dataset(seed42_dataset, tmp_path)
        reloaded = load_dataset(tmp_path / MANIFEST_NAME)
        assert_datasets_equal(seed42_dataset, reloaded)
        np.testing.assert_array_equal(
            full_ensemble_predictions(seed42_dataset), full_ensemble_predictions(reloaded)
        )


class TestAtomicWrites:
    # a dataset's manifest is removed before its payloads are written: see TestInterruptedSave
    @pytest.mark.parametrize("writer", ["schedule", "sweep_csv", "histogram_csv"])
    def test_failed_replace_keeps_existing_file(
        self, tmp_path, monkeypatch, dataset_factory, writer
    ):
        ds = dataset_factory(np.random.default_rng(21))
        name, write = {
            "schedule": ("s.json", lambda p: save_schedule(p, ThresholdSchedule.uniform(0.5, 3))),
            "sweep_csv": ("r.csv", lambda p: write_sweep_csv(p, ensemble_size_sweep(ds))),
            "histogram_csv": ("h.csv", lambda p: write_histogram_csv(p, margin_histogram(ds, 1))),
        }[writer]
        path = tmp_path / name
        path.write_text("old contents\n")
        real_replace = os.replace

        def replace_failing_on_target(src, dst):
            if os.path.basename(dst) == name:
                raise OSError("simulated crash before rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_on_target)
        with pytest.raises(OSError, match="simulated"):
            write(path)
        assert path.read_text() == "old contents\n"
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


    def test_a_symlinked_target_is_followed_and_keeps_its_link(self, tmp_path):
        real = tmp_path / "real" / "s.json"
        real.parent.mkdir()
        real.write_text("old contents\n")
        link = tmp_path / "links" / "s.json"
        link.parent.mkdir()
        link.symlink_to(real)
        save_schedule(link, ThresholdSchedule.uniform(0.5, 3))
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert json.loads(real.read_text())["thresholds"] == [0.5, 0.5]
        assert sorted(p.name for p in real.parent.iterdir()) == ["s.json"]
        assert sorted(p.name for p in link.parent.iterdir()) == ["s.json"]

    def test_a_dangling_symlink_creates_the_file_it_names(self, tmp_path):
        real, link = tmp_path / "s.json", tmp_path / "link.json"
        link.symlink_to(real)
        save_schedule(link, ThresholdSchedule.uniform(0.5, 3))
        assert link.is_symlink() and real.is_file()

    @pytest.mark.parametrize("kind", ["fifo", "directory", "symlink_to_fifo"])
    def test_a_target_that_is_not_a_regular_file_is_refused(self, tmp_path, kind):
        target = tmp_path / "special"
        if kind == "directory":
            target.mkdir()
        else:
            os.mkfifo(target)
        path = tmp_path / "link" if kind == "symlink_to_fifo" else target
        if path != target:
            path.symlink_to(target)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not a regular file"):
            save_schedule(path, ThresholdSchedule.uniform(0.5, 3))
        assert target.is_dir() if kind == "directory" else target.is_fifo()
        assert path.is_symlink() == (kind == "symlink_to_fifo")
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


class TestInterruptedSave:
    """A save over another dataset that fails part way leaves a directory that
    does not open, never one that loads files of both datasets."""

    CONFIG = dict(num_models=3, num_samples=40, num_classes=4)

    @pytest.fixture(params=["save_dataset", "save_generated"])
    def save(self, request):
        if request.param == "save_dataset":
            return lambda config, root: save_dataset(generate(config), root)
        return save_generated

    @staticmethod
    def fail_on_the_second_payload(monkeypatch) -> list:
        """Make write_atomic raise on its second call; returns the names it is given."""
        real_write, written = dataset_io.write_atomic, []

        def failing(path, data):
            written.append(os.path.basename(path))
            if len(written) == 2:
                raise OSError("simulated failure")
            real_write(path, data)

        monkeypatch.setattr(dataset_io, "write_atomic", failing)
        return written

    def test_failure_on_the_second_payload(self, tmp_path, monkeypatch, save):
        save(SynthConfig(seed=1, **self.CONFIG), tmp_path)
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        written = self.fail_on_the_second_payload(monkeypatch)
        with pytest.raises(OSError, match="simulated"):
            save(SynthConfig(seed=2, **self.CONFIG), tmp_path)
        assert written == ["logits_000.ensl", "logits_001.ensl"]
        # model 0 is the new dataset's, models 1 and 2 and the labels the old one's
        assert (tmp_path / "logits_000.ensl").read_bytes() != old["logits_000.ensl"]
        for name in ["logits_001.ensl", "logits_002.ensl", "labels.ensy"]:
            assert (tmp_path / name).read_bytes() == old[name]
        with pytest.raises(FileNotFoundError):
            open_dataset(tmp_path / MANIFEST_NAME)
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_failure_in_new_directories_leaves_none_of_them(self, tmp_path, monkeypatch, save):
        self.fail_on_the_second_payload(monkeypatch)
        with pytest.raises(OSError, match="simulated"):
            save(SynthConfig(seed=2, **self.CONFIG), tmp_path / "made" / "by" / "save")
        assert list(tmp_path.iterdir()) == []

    def test_failure_removes_only_the_files_it_created(self, tmp_path, monkeypatch, save):
        (tmp_path / "notes.txt").write_text("kept")
        (tmp_path / "logits_000.ensl").write_bytes(b"replaced, so not restored")
        self.fail_on_the_second_payload(monkeypatch)
        with pytest.raises(OSError, match="simulated"):
            save(SynthConfig(seed=2, **self.CONFIG), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["logits_000.ensl", "notes.txt"]
        assert (tmp_path / "notes.txt").read_text() == "kept"

    def test_failed_manifest_replace(self, tmp_path, monkeypatch, save):
        save(SynthConfig(seed=1, **self.CONFIG), tmp_path)
        real_replace = os.replace

        def replace_failing_on_the_manifest(src, dst):
            if os.path.basename(dst) == MANIFEST_NAME:
                raise OSError("simulated crash before rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_on_the_manifest)
        with pytest.raises(OSError, match="simulated"):
            save(SynthConfig(seed=2, **self.CONFIG), tmp_path)
        assert not (tmp_path / MANIFEST_NAME).exists()
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# the minimal dataset's two payloads and their sizes in bytes
PAYLOAD_SIZES = {"logits_000.ensl": 24, "labels.ensy": 16}
PAYLOAD_FILES = list(PAYLOAD_SIZES)


def _write_minimal_dir(tmp_path):
    save_dataset(minimal_dataset(), tmp_path)
    return tmp_path / MANIFEST_NAME


class TestLoadErrors:
    def test_label_value_beyond_classes(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        label_file = tmp_path / "labels.ensy"
        label_file.write_bytes(LABEL_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<I", 2))
        with pytest.raises(LabelOutOfRangeError):
            load_dataset(manifest)

    def test_invalid_json(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        manifest.write_text("{not json")
        with pytest.raises(MalformedManifestError, match="invalid JSON"):
            load_dataset(manifest)

    def test_missing_key(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        doc = json.loads(manifest.read_text())
        del doc["costs_ms"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(MalformedManifestError, match="costs_ms"):
            load_dataset(manifest)

    def test_non_integer_manifest_key_names_the_path(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "num_samples": "x"}))
        message = f"{manifest}: manifest key 'num_samples' must be an integer"
        with pytest.raises(MalformedManifestError, match=f"^{re.escape(message)}$"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "manifest must be a JSON object"),
            (lambda doc: {**doc, "num_models": 0}, "num_models and num_samples must be >= 1"),
            (lambda doc: {**doc, "num_samples": 0}, "num_models and num_samples must be >= 1"),
            (lambda doc: {**doc, "logit_files": "logits_000.ensl"},
             "logit_files must be a list of strings"),
            (lambda doc: {**doc, "logit_files": [0]}, "logit_files must be a list of strings"),
            (lambda doc: {**doc, "logit_files": ["a.ensl", "b.ensl"]},
             "expected 1 logit files, found 2"),
            (lambda doc: {**doc, "label_file": 3}, "label_file must be a string"),
            (lambda doc: {**doc, "costs_ms": 1.0}, "costs_ms must be a list of numbers"),
            (lambda doc: {**doc, "costs_ms": [True]}, "costs_ms must be a list of numbers"),
            # an integer too large for a float
            (lambda doc: {**doc, "costs_ms": [10**400]}, "costs_ms must be a list of numbers"),
            (lambda doc: {**doc, "costs_ms": [1.0, 2.0]}, "expected 1 costs, found 2"),
            # bytes that are not UTF-8, written from the surrogates that stand for them
            (lambda doc: "\udcff",
             "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 1: "
             "invalid start byte"),
            (lambda doc: {"caf\udce9": doc},  # Latin-1
             "invalid JSON: 'utf-8' codec can't decode byte 0xe9 in position 5: "
             "invalid continuation byte"),
        ],
        ids=["not_object", "no_models", "no_samples", "logit_files_type", "logit_file_type",
             "logit_files_count", "label_file_type", "costs_type", "cost_type", "huge_cost",
             "costs_count", "not_utf8", "latin1"],
    )
    def test_manifest_rejections_name_the_path(self, tmp_path, edit, message):
        manifest = _write_minimal_dir(tmp_path)
        doc = edit(json.loads(manifest.read_text()))
        manifest.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8", "surrogateescape"))
        message = f"{manifest}: {message}"
        with pytest.raises(MalformedManifestError, match=f"^{re.escape(message)}$"):
            load_dataset(manifest)

    def test_single_class_manifest(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["num_classes"] = 1
        manifest.write_text(json.dumps(doc))
        with pytest.raises(MalformedManifestError, match="num_classes"):
            load_dataset(manifest)

    def test_wrong_manifest_version(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["version"] = 9
        manifest.write_text(json.dumps(doc))
        with pytest.raises(MalformedManifestError, match="version"):
            load_dataset(manifest)

    def test_payload_paths_confined_to_directory(self, tmp_path):
        _write_minimal_dir(tmp_path)  # valid payloads one level above the dataset
        manifest = _write_minimal_dir(tmp_path / "inner")
        doc = json.loads(manifest.read_text())
        for key, escape in (
            ("label_file", str(tmp_path / "labels.ensy")),
            ("logit_files", ["../logits_000.ensl"]),
        ):
            manifest.write_text(json.dumps({**doc, key: escape}))
            with pytest.raises(MalformedManifestError, match="inside the dataset directory"):
                load_dataset(manifest)

    @pytest.mark.parametrize(
        "name, bad, message",
        [
            (
                "logits_000.ensl",
                LOGIT_MAGIC + struct.pack("<III", 1, 5, 2) + np.zeros(10, "<f4").tobytes(),
                "header declares 5x2, manifest says 1x2",
            ),
            (
                "labels.ensy",
                LABEL_MAGIC + struct.pack("<II", 1, 5) + np.zeros(5, "<u4").tobytes(),
                "header declares 5, manifest says 1",
            ),
        ],
        ids=PAYLOAD_FILES,
    )
    def test_header_disagrees_with_manifest(self, tmp_path, name, bad, message):
        manifest = _write_minimal_dir(tmp_path)
        (tmp_path / name).write_bytes(bad)
        with pytest.raises(DimensionMismatchError, match=f"{name}: {message}"):
            load_dataset(manifest)

    def test_oversized_manifest_is_rejected_before_allocating(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        doc = json.loads(manifest.read_text())
        # a (1, 10**12, 10**6) float32 tensor would take 3.5 EiB
        manifest.write_text(json.dumps({**doc, "num_samples": 10**12, "num_classes": 10**6}))
        with pytest.raises(
            DimensionMismatchError, match="header declares 1x2, manifest says 1000000000000x1000000"
        ):
            load_dataset(manifest)

    @pytest.mark.parametrize("name", PAYLOAD_FILES)
    def test_truncated_payload(self, tmp_path, name):
        manifest = _write_minimal_dir(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(DimensionMismatchError, match="bytes"):
            load_dataset(manifest)

    @pytest.mark.parametrize("name", PAYLOAD_FILES)
    @pytest.mark.parametrize(
        "cut, message",
        [
            (slice(0, 10), "file too short for its header"),
            (slice(0, -2), "payload is {short} bytes, expected {size}"),
            (slice(0, None), "payload is {long} bytes, expected {size}"),
        ],
        ids=["short_header", "one_byte_short", "one_byte_long"],
    )
    def test_payload_size_errors_name_the_sizes(self, tmp_path, cut, message, name):
        manifest = _write_minimal_dir(tmp_path)
        path = tmp_path / name
        path.write_bytes((path.read_bytes() + b"\0")[cut])
        size = PAYLOAD_SIZES[name]
        message = message.format(short=size - 1, size=size, long=size + 1)
        error = DatasetFormatError if "header" in message else DimensionMismatchError
        with pytest.raises(error, match=message):
            load_dataset(manifest)

    @pytest.mark.parametrize("name", PAYLOAD_FILES)
    def test_bad_magic(self, tmp_path, name):
        manifest = _write_minimal_dir(tmp_path)
        path = tmp_path / name
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(manifest)

    @pytest.mark.parametrize("name", PAYLOAD_FILES)
    def test_bad_payload_version(self, tmp_path, name):
        manifest = _write_minimal_dir(tmp_path)
        path = tmp_path / name
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 7) + raw[8:])
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(manifest)

    def test_nan_payload_has_coordinates(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        payload = np.array([0.0, np.nan], "<f4").tobytes()
        (tmp_path / "logits_000.ensl").write_bytes(
            LOGIT_MAGIC + struct.pack("<III", 1, 1, 2) + payload
        )
        with pytest.raises(NonFiniteLogitError) as exc:
            load_dataset(manifest)
        assert (exc.value.model, exc.value.sample, exc.value.class_index) == (0, 0, 1)

    def test_missing_referenced_file(self, tmp_path):
        manifest = _write_minimal_dir(tmp_path)
        (tmp_path / "logits_000.ensl").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(manifest)


# three chunks of samples and a ragged tail at C = 100
STREAM_CLASSES = 100
STREAM_STEP = chunk_step(3, STREAM_CLASSES)
STREAM_SAMPLES = 3 * STREAM_STEP + 100
LAST_CHUNK = 3 * STREAM_STEP


def _streamed_dir(tmp_path, dataset_factory, logits=(), labels=(), costs=None):
    """A saved 3-model dataset with `logits` [(model, sample, class, value)] and
    `labels` [(sample, value)] written into its payloads, and optionally new costs."""
    ds = dataset_factory(
        np.random.default_rng(5), num_models=3, num_samples=STREAM_SAMPLES,
        num_classes=STREAM_CLASSES,
    )
    save_dataset(ds, tmp_path)
    for model, sample, class_index, value in logits:
        with open(tmp_path / f"logits_{model:03d}.ensl", "r+b") as payload:
            payload.seek(16 + 4 * (sample * STREAM_CLASSES + class_index))
            payload.write(struct.pack("<f", value))
    for sample, value in labels:
        with open(tmp_path / "labels.ensy", "r+b") as payload:
            payload.seek(12 + 4 * sample)
            payload.write(struct.pack("<I", value))
    manifest = tmp_path / MANIFEST_NAME
    if costs is not None:
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "costs_ms": costs}))
    return manifest


def _raised(call):
    with pytest.raises(ValidationError) as exc:
        call()
    return type(exc.value), str(exc.value)


class TestStreamedChecks:
    """open_dataset's pass reports the error load_dataset reports, whichever
    chunk each bad value is in."""

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (
                # the pass meets model 2's NaN first, in chunk 0
                {"logits": [(2, 3, 7, float("nan")), (0, LAST_CHUNK + 5, 1, float("inf"))]},
                NonFiniteLogitError,
                f"non-finite logit at model=0, sample={LAST_CHUNK + 5}, class=1",
            ),
            (
                {"logits": [(1, 40, 0, float("nan"))], "labels": [(2, STREAM_CLASSES)]},
                NonFiniteLogitError,
                "non-finite logit at model=1, sample=40, class=0",
            ),
            (
                {"labels": [(LAST_CHUNK + 1, STREAM_CLASSES + 5)], "costs": [1.0, 0.0, 1.0]},
                LabelOutOfRangeError,
                f"label {STREAM_CLASSES + 5} at sample={LAST_CHUNK + 1} is outside [0, 100)",
            ),
            ({"costs": [1.0, 2.0, -1.0]}, NonPositiveCostError, "cost -1.0 for model=2"),
            # each cost and their total are finite, M times the total is not
            (
                {"costs": [1e306, 1e306, 1e306]},
                ValidationError,
                f"costs_ms [1e+306, 1e+306, 1e+306] overflow: their total times "
                f"num_samples={STREAM_SAMPLES} must be finite",
            ),
        ],
        ids=["earliest_model_wins", "nan_before_label", "label_before_cost", "cost",
             "cost_total"],
    )
    def test_same_error_as_load_dataset(
        self, tmp_path, capsys, dataset_factory, bad, error, message
    ):
        manifest = _streamed_dir(tmp_path, dataset_factory, **bad)
        expected = _raised(lambda: load_dataset(manifest))
        assert expected[0] is error and expected[1].startswith(message)
        assert _raised(lambda: open_dataset(manifest).check()) == expected
        assert _raised(lambda: stage_tables(open_dataset(manifest))) == expected
        # the streamed reducers check every chunk too, and raise only once the pass ends
        schedules = [("s", ThresholdSchedule.uniform(0.5, 3))]
        assert _raised(lambda: flexible_sweep(open_dataset(manifest), schedules)) == expected
        assert _raised(lambda: ensemble_size_sweep(open_dataset(manifest))) == expected
        assert _raised(lambda: margin_histogram(open_dataset(manifest), 1, limit=1)) == expected
        capsys.readouterr()
        assert main(["validate", "--data", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {expected[1]}\n"

    def test_histogram_of_one_model_checks_every_payload(self, tmp_path, capsys, dataset_factory):
        bad = [(2, LAST_CHUNK + 99, STREAM_CLASSES - 1, float("nan"))]
        _streamed_dir(tmp_path, dataset_factory, logits=bad)
        capsys.readouterr()
        code = main(["histogram", "--data", str(tmp_path), "--ensemble-size", "1",
                     "--out", str(tmp_path / "hist.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: non-finite logit at model=2, sample={LAST_CHUNK + 99}, class=99\n"
        )
        assert not (tmp_path / "hist.csv").exists()

    def test_histogram_limit_computes_its_samples_and_checks_every_payload(
        self, tmp_path, capsys, monkeypatch, dataset_factory
    ):
        manifest = _streamed_dir(tmp_path, dataset_factory)
        kernel = cascade_engine._prefix_stage_stats  # the row kernel serves C = 100
        computed = []

        def counting_kernel(prefix):
            computed.append(prefix.shape[1])
            return kernel(prefix)

        monkeypatch.setattr(cascade_engine, "_prefix_stage_stats", counting_kernel)
        for limit, expected in [(10, [10]), (STREAM_STEP + 1, [STREAM_STEP, 1])]:
            computed.clear()
            margin_histogram(open_dataset(manifest), 2, limit=limit)
            assert computed == expected

        # a NaN past the limit, in the last chunk, still fails the command
        with open(tmp_path / "logits_000.ensl", "r+b") as payload:
            payload.seek(16 + 4 * (LAST_CHUNK + 3) * STREAM_CLASSES)
            payload.write(struct.pack("<f", float("nan")))
        capsys.readouterr()
        code = main(["histogram", "--data", str(tmp_path), "--ensemble-size", "1",
                     "--limit", "10", "--out", str(tmp_path / "hist.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: non-finite logit at model=0, sample={LAST_CHUNK + 3}, class=0\n"
        )
        assert not (tmp_path / "hist.csv").exists()

    def test_both_sources_yield_every_model_of_the_same_chunks(self, tmp_path, dataset_factory):
        manifest = _streamed_dir(tmp_path, dataset_factory)
        chunks = open_dataset(manifest).logit_chunks()
        # the buffer is reused
        streamed = [(samples, model, rows.copy()) for samples, model, rows in chunks]
        in_memory = list(load_dataset(manifest).logit_chunks())
        assert [(s, m) for s, m, _ in streamed] == [(s, m) for s, m, _ in in_memory]
        assert [model for _, model, _ in streamed] == [0, 1, 2] * (len(streamed) // 3)
        starts = [samples.start for samples, _, _ in streamed[::3]]
        assert starts == list(range(0, STREAM_SAMPLES, STREAM_STEP))
        for (samples, _, a), (_, _, b) in zip(streamed, in_memory):
            assert a.shape == (samples.stop - samples.start, STREAM_CLASSES)
            assert a.tobytes() == b.tobytes()

    def test_payload_shrinking_mid_pass(self, tmp_path, dataset_factory):
        manifest = _streamed_dir(tmp_path, dataset_factory)
        chunks = open_dataset(manifest).logit_chunks()
        next(chunks)  # every payload is open and model 0's first rows read
        path = tmp_path / "logits_001.ensl"
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        message = f"logits_001.ensl: payload is {size - 8} bytes, expected {size}"
        with pytest.raises(DimensionMismatchError, match=message):
            list(chunks)

    # at N=7 the whole chunk takes 7 times one model's rows; at N=2, C=2 those
    # rows take 8 bytes a sample of a chunk, less than three M-byte label masks
    @pytest.mark.parametrize("num_models, num_classes", [(7, 10), (2, 2)])
    def test_check_holds_one_models_rows_of_a_chunk(self, tmp_path, num_models, num_classes):
        step = chunk_step(num_models, num_classes)
        num_samples = 3 * step + 5
        logits = np.random.default_rng(6).normal(
            size=(num_models, num_samples, num_classes)
        ).astype(np.float32)
        labels = np.zeros(num_samples, np.int64)
        save_dataset(EnsembleDataset(logits, labels, np.ones(num_models)), tmp_path)
        files = open_dataset(tmp_path / MANIFEST_NAME)
        tracemalloc.start()
        try:
            files.check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 4 * step * num_classes  # one model's float32 rows of a full chunk
        assert peak < rows + 2**16  # beside the open payloads

    def test_first_bad_model_wins_over_an_earlier_chunk(
        self, tmp_path, capsys, dataset_factory
    ):
        # model 0's rows of the first chunk pass on before model 2's NaN is read,
        # and model 0's NaN is read chunks later; the pass still names model 0
        bad = [(2, 5, 7, float("nan")), (0, LAST_CHUNK + 3, 1, float("nan"))]
        _streamed_dir(tmp_path, dataset_factory, logits=bad)
        capsys.readouterr()
        code = main(["histogram", "--data", str(tmp_path), "--ensemble-size", "1",
                     "--out", str(tmp_path / "hist.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: non-finite logit at model=0, sample={LAST_CHUNK + 3}, class=1\n"
        )
        assert not (tmp_path / "hist.csv").exists()


@pytest.mark.parametrize(
    "value, expected",
    [
        (0, True),
        (-2.5, True),
        (float("inf"), True),  # JSON 1e400; the range checks reject it later
        (2**1024 - 2**970 - 1, True),  # the largest integer float() converts
        (2**1024 - 2**970, False),
        (-(2**1024 - 2**970), False),
        (True, False),
        ("1", False),
        (None, False),
    ],
    ids=["zero", "float", "inf", "largest_convertible", "overflow", "negative_overflow", "bool",
         "string", "null"],
)
def test_json_number_is_what_float_converts(value, expected):
    assert dataset_io._is_json_number(value) is expected


class TestCsvImport:
    def test_direct_parse(self, tmp_path):
        logits = tmp_path / "m0.csv"
        logits.write_text("0,0\n1,2\n")
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n")
        ds = import_csv([logits], labels, [1.0])
        np.testing.assert_array_equal(ds.logits[0], [[0.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_crlf_accepted(self, tmp_path):
        logits = tmp_path / "m0.csv"
        logits.write_bytes(b"0,0\r\n1,2\r\n")
        labels = tmp_path / "y.csv"
        labels.write_bytes(b"0\r\n1\r\n")
        ds = import_csv([logits], labels, [1.0])
        np.testing.assert_array_equal(ds.logits[0], [[0.0, 0.0], [1.0, 2.0]])

    def test_ragged_rows(self, tmp_path):
        logits = tmp_path / "m0.csv"
        logits.write_text("0,0\n1,2,3\n")
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n")
        with pytest.raises(RaggedRowsError) as exc:
            import_csv([logits], labels, [1.0])
        assert exc.value.row == 1

    def test_unparsable_cell(self, tmp_path):
        logits = tmp_path / "m0.csv"
        logits.write_text("0,zap\n")
        labels = tmp_path / "y.csv"
        labels.write_text("0\n")
        with pytest.raises(CsvParseError) as exc:
            import_csv([logits], labels, [1.0])
        assert (exc.value.row, exc.value.column) == (0, 1)

    def test_non_integer_label(self, tmp_path):
        logits = tmp_path / "m0.csv"
        logits.write_text("0,0\n")
        labels = tmp_path / "y.csv"
        labels.write_text("1.5\n")
        with pytest.raises(CsvParseError):
            import_csv([logits], labels, [1.0])

    @pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999"])
    def test_label_beyond_int64_is_a_parse_error(self, tmp_path, label):
        logits = tmp_path / "m0.csv"
        logits.write_text("0,0\n0,0\n")
        labels = tmp_path / "y.csv"
        labels.write_text(f"0\n{label}\n")
        message = f"{labels}: row 1, column 0: cannot parse {label!r} as an integer"
        with pytest.raises(CsvParseError, match=f"^{re.escape(message)}$") as exc:
            import_csv([logits], labels, [1.0])
        assert (exc.value.row, exc.value.column) == (1, 0)

    @pytest.mark.parametrize(
        "cell", ["1_0", "1_000", "\u0661.5", "\uff11"],
        ids=["underscore_label", "underscore_logit", "arabic_indic", "fullwidth"],
    )
    @pytest.mark.parametrize("in_labels", [False, True], ids=["logit_file", "label_file"])
    def test_underscores_and_non_ascii_digits_are_refused(self, tmp_path, cell, in_labels):
        # float and int read each of these as a number: 10, 1000.0, 1.5 and 1
        logits = tmp_path / "m0.csv"
        logits.write_text("0,0\n" + ("0,0" if in_labels else f"0,{cell}") + "\n", encoding="utf-8")
        labels = tmp_path / "y.csv"
        labels.write_text("0\n" + (cell if in_labels else "1") + "\n", encoding="utf-8")
        path, at, what = (
            (labels, (1, 0), "an integer") if in_labels else (logits, (1, 1), "a real number")
        )
        message = f"{path}: row {at[0]}, column {at[1]}: cannot parse {cell!r} as {what}"
        with pytest.raises(CsvParseError, match=f"^{re.escape(message)}$") as exc:
            import_csv([logits], labels, [1.0])
        assert (exc.value.row, exc.value.column) == at

    def test_surrounding_ascii_whitespace_is_accepted(self, tmp_path):
        logits = tmp_path / "m0.csv"
        logits.write_text(" 1.5,\t-2 \n0,0\n")
        labels = tmp_path / "y.csv"
        labels.write_text(" 1\n0 \n")
        ds = import_csv([logits], labels, [1.0])
        np.testing.assert_array_equal(ds.logits[0], [[1.5, -2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_nan_cell_rejected_with_coordinates(self, tmp_path):
        logits = tmp_path / "m0.csv"
        logits.write_text("0,nan\n")
        labels = tmp_path / "y.csv"
        labels.write_text("0\n")
        with pytest.raises(NonFiniteLogitError):
            import_csv([logits], labels, [1.0])

    @pytest.mark.parametrize(
        "cells, first",
        [
            ({(0, 0, 0): "1e39"}, (0, 0, 0)),
            ({(1, 1, 0): "-1e39", (1, 0, 1): "inf", (0, 1, 1): "3.4028235e38"}, (0, 1, 1)),
            ({(1, 0, 1): "1e308", (1, 1, 0): "nan"}, (1, 0, 1)),
        ],
        ids=["overflows_the_cast", "first_in_model_sample_class_order", "nan_after_overflow"],
    )
    def test_cells_beyond_the_float32_range_are_rejected_before_the_cast(
        self, tmp_path, cells, first
    ):
        # the cast would round them to inf with an overflow warning, and
        # 3.4028235e38, just above the float32 maximum, down to that maximum
        paths = [tmp_path / f"m{model}.csv" for model in range(2)]
        for model, path in enumerate(paths):
            rows = [["0", "0"], ["0", "0"]]
            for (m, sample, column), text in cells.items():
                if m == model:
                    rows[sample][column] = text
            path.write_text("".join(",".join(row) + "\n" for row in rows))
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n")
        with pytest.raises(NonFiniteLogitError) as exc:
            import_csv(paths, labels, [1.0, 1.0])
        assert (exc.value.model, exc.value.sample, exc.value.class_index) == first

    def test_cells_at_the_float32_range_ends_are_kept(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        logits = tmp_path / "m0.csv"
        logits.write_text(f"{top!r},{-top!r}\n")
        labels = tmp_path / "y.csv"
        labels.write_text("0\n")
        ds = import_csv([logits], labels, [1.0])
        assert ds.logits[0].tolist() == [[top, -top]]

    def test_files_must_agree_on_shape(self, tmp_path):
        a = tmp_path / "m0.csv"
        a.write_text("0,0\n1,1\n")
        b = tmp_path / "m1.csv"
        b.write_text("0,0\n")
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n")
        with pytest.raises(DimensionMismatchError, match="disagrees"):
            import_csv([a, b], labels, [1.0, 1.0])

    @pytest.mark.parametrize(
        "logit_text, label_text, costs, error, message",
        [
            (None, "0\n", [], DimensionMismatchError, "need at least one logits CSV"),
            ("0,0\n", "0\n", [1.0, 2.0], DimensionMismatchError,
             "expected 1 costs, got shape (2,)"),
            ("", "0\n", [1.0], CsvParseError,
             "{logits}: row 0, column 0: file contains no data rows"),
            ("0,0\n1,1\n", "0\n", [1.0], DimensionMismatchError,
             "{labels}: 1 label rows for 2 samples"),
            ("0,0\n", "0,1\n", [1.0], RaggedRowsError,
             "{labels}: row 0 has 2 columns, expected 1"),
        ],
        ids=["no_files", "cost_shape", "empty_file", "label_row_count", "ragged_label_row"],
    )
    def test_rejections(self, tmp_path, logit_text, label_text, costs, error, message):
        logits = tmp_path / "m0.csv"
        labels = tmp_path / "y.csv"
        if logit_text is not None:
            logits.write_text(logit_text)
        labels.write_text(label_text)
        message = message.format(logits=logits, labels=labels)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            import_csv([] if logit_text is None else [logits], labels, costs)

    @pytest.mark.parametrize(
        "logit_texts, label_text, error, message",
        [
            (["0,0\n1,1\n"], "zap\n", DimensionMismatchError,
             "{labels}: 1 label rows for 2 samples"),
            (["0,0\n1,1\n", ""], "0\n1\n", CsvParseError,
             "{m1}: row 0, column 0: file contains no data rows"),
            (["0,0\n1,1\n", "0,0,0\n1,zap,1\n9\n"], "0\n1\n", CsvParseError,
             "{m1}: row 1, column 1: cannot parse 'zap' as a real number"),
            (["0,0\n1,1\n", "0,0,0\n1,1,1\n9\n"], "0\n1\n", RaggedRowsError,
             "{m1}: row 2 has 1 columns, expected 3"),
            (["0,0\n1,1\n", "0,0,0\n"], "0\n", DimensionMismatchError,
             "{m1}: shape (1, 3) disagrees with first file (2, 2)"),
            (["0,0\n1,1\n"], "0\n1,zap\n", RaggedRowsError,
             "{labels}: row 1 has 2 columns, expected 1"),
        ],
        ids=["short_unparsable_labels", "empty_second_file", "cell_before_shape",
             "ragged_before_shape", "shape_before_labels", "ragged_label_before_its_cells"],
    )
    def test_error_order(self, tmp_path, logit_texts, label_text, error, message):
        # each file's rows are counted, then each row's width checked, then its
        # cells parsed; two logit files' shapes are compared after both parse
        paths = [tmp_path / f"m{model}.csv" for model in range(len(logit_texts))]
        for path, text in zip(paths, logit_texts):
            path.write_text(text)
        labels = tmp_path / "y.csv"
        labels.write_text(label_text)
        message = message.format(labels=labels, m1=paths[-1])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            import_csv(paths, labels, [1.0] * len(paths))

    def test_cross_format_round_trip(self, tmp_path, dataset_factory):
        # repr() of the float64 view of a float32 value parses back to the
        # identical float32, so CSV import must reproduce the binary dataset
        ds = dataset_factory(np.random.default_rng(8), num_models=2, num_samples=20)
        paths = []
        for i in range(ds.num_models):
            path = tmp_path / f"m{i}.csv"
            rows = [",".join(repr(float(v)) for v in row) for row in ds.logits[i]]
            path.write_text("\n".join(rows) + "\n")
            paths.append(path)
        label_path = tmp_path / "y.csv"
        label_path.write_text("\n".join(str(int(v)) for v in ds.labels) + "\n")
        imported = import_csv(paths, label_path, ds.costs_ms)
        assert_datasets_equal(ds, imported)
