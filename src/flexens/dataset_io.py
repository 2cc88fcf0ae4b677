"""Ensemble dataset model and its on-disk formats.

A dataset directory holds one JSON manifest plus little-endian binary
payloads:

    manifest.json    {"version": 1, "num_models": N, "num_samples": M,
                      "num_classes": C, "logit_files": [... N paths ...],
                      "label_file": "...", "costs_ms": [... N numbers ...]}
    logits_###.ensl  payload with magic "ENSL": an (M, C) float32 array
    labels.ensy      payload with magic "ENSY": an (M,) u32 array

Every payload is its 4-byte magic, a u32 version (1), one u32 per array
dimension, then the array's bytes, row-major. The manifest's keys are the
fields of DatasetManifest, in order. Logits are stored and held in memory
as 32-bit floats; numerical code promotes to 64-bit at the point of
computation. Costs live only in the manifest so the same tensors can be
re-costed without rewriting payloads. File paths in the manifest are
relative to the manifest's directory and may not leave it (no absolute
paths, no "..").

save_dataset and synthgen.save_generated share one writer, _write_dataset.
It removes the old manifest first, writes each logit payload from chunks
and then the labels, each file atomically, and the manifest last, so a
write that fails part way leaves a directory that does not open; it then
removes the files and directories it created, and no others.

A directory is read in one of two ways. load_dataset builds an
EnsembleDataset, which holds the whole (N, M, C) tensor; it is the library's
entry point. open_dataset returns a DatasetFiles handle, which the CLI
commands use: a plain record of the dimensions, the logit payload paths, the
labels and the costs, which leaves the logits on disk. The handle keeps the
labels u32 as read; an EnsembleDataset holds them as int64. open_dataset
checks the manifest, then every logit payload's header and file size against
it, then the label payload's, before allocating anything the manifest sizes.

Both are chunk sources for cascade_engine.stage_tables: logit_chunks() yields
(samples, model, logits[model, samples]) over consecutive chunks of about
_CHUNK_VALUES values over all N models, however large N is, one model's
(n, C) rows at a time, models 0..N-1 of each chunk in turn; a consumer that
needs fewer models skips the rest. An EnsembleDataset yields views of its
tensor. A DatasetFiles handle reads each model's rows of a chunk, one
contiguous byte range of its payload since payloads are row-major by sample,
into one reused (n, C) float32 buffer, 1/N of a chunk. load_dataset reads
each logit payload whole into its model's slice of the tensor, as
open_dataset reads the labels.

Every logit is checked by one pass over such rows, _checked: a DatasetFiles
handle runs it as logit_chunks reads, and an EnsembleDataset over its tensor
on construction, which is the one check of load_dataset's tensor. It reports
the first non-finite logit in (model, sample, class) order, then the first
label outside [0, C), then the first cost that is not finite and positive, in
working memory of about one model's rows of a chunk.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from contextlib import ExitStack, suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
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

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
LOGIT_MAGIC = b"ENSL"
LABEL_MAGIC = b"ENSY"

# a chunk holds about this many values over all models, 1 MiB once stage_tables
# promotes it to float64, so its working set stays small whatever N and M are
_CHUNK_VALUES = 131072

# import_csv and cascade_engine.run_sample refuse a logit whose magnitude exceeds
# this, since a float32 cast would not keep it finite
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _sample_chunks(num_models: int, num_samples: int, num_classes: int) -> list[slice]:
    """Consecutive slices of samples holding about _CHUNK_VALUES values over all
    models; the first is the largest."""
    step = max(1, _CHUNK_VALUES // (num_models * num_classes))
    return [slice(start, min(start + step, num_samples)) for start in range(0, num_samples, step)]


def _checked(
    chunks, labels: np.ndarray, num_classes: int, costs: np.ndarray
) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Pass on the (samples, model, logits) rows of a pass, checking every logit
    finite, then every label in [0, num_classes), then every cost finite and
    positive.

    Once a model's rows hold a non-finite value no more rows are passed on, and
    the pass raises at its end for the first one in (model, sample, class) order.
    """
    first_bad = None
    for samples, model, rows in chunks:
        at = _nonfinite_at(rows)
        if at is not None:
            sample, column = at
            # a later chunk may hold a bad value of an earlier model
            bad = (model, samples.start + sample, column)
            first_bad = bad if first_bad is None else min(first_bad, bad)
        if first_bad is None:
            yield samples, model, rows
    if first_bad is not None:
        raise NonFiniteLogitError(*first_bad)

    # min and max allocate nothing; only a bad label needs the masks that find it
    if labels.min() < 0 or labels.max() >= num_classes:
        sample = int(np.argmax((labels < 0) | (labels >= num_classes)))
        raise LabelOutOfRangeError(sample, int(labels[sample]), num_classes)

    _cumulative_costs(costs, labels.size)  # raises for the first bad cost


def _nonfinite_at(block: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first non-finite value of `block`, or None if there is none."""
    # min and max propagate NaN and reach any inf, so valid logits need no mask;
    # math.isfinite takes their scalars for a fraction of a ufunc call's cost
    if math.isfinite(block.min()) and math.isfinite(block.max()):
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmin(np.isfinite(block)), block.shape))


def _beyond_float32_at(values: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first value of `values` that is not finite or lies
    beyond the float32 range, or None if there is none."""
    magnitudes = np.abs(values)
    if magnitudes.max() <= _FLOAT32_MAX:  # max propagates NaN, and NaN <= x is false
        return None
    at = np.unravel_index(np.argmin(magnitudes <= _FLOAT32_MAX), values.shape)
    return tuple(int(i) for i in at)


def _cumulative_costs(costs: np.ndarray, num_samples: int) -> list[float]:
    """Running sums of the per-model costs, added left to right as np.cumsum
    does; raises for the first cost that is not finite and positive, then if
    the total, or num_samples times it, is not finite. Every cost sum a report
    forms is at most the latter, so each one is finite."""
    sums, total = [], 0.0
    for model, cost in enumerate(costs.tolist()):
        if not 0.0 < cost < np.inf:  # false for NaN too
            raise NonPositiveCostError(model, cost)
        total += cost
        sums.append(total)
    if not num_samples * total < np.inf:  # the total itself is at most this
        raise ValidationError(
            f"costs_ms {costs.tolist()} overflow: their total times num_samples="
            f"{num_samples} must be finite"
        )
    return sums


@dataclass(frozen=True, eq=False)
class EnsembleDataset:
    """Per-model logit tensors with labels and per-model execution costs.

    Instances are validated on construction and their arrays are frozen
    (non-writeable), so a dataset can be shared across concurrent readers.
    Input arrays are copied, except a read-only logits array that owns its
    memory (as load_dataset and generate build), which is adopted as is.
    """

    logits: np.ndarray  # (num_models, num_samples, num_classes) float32
    labels: np.ndarray  # (num_samples,) int64
    costs_ms: np.ndarray  # (num_models,) float64

    def __post_init__(self):
        raw = self.logits
        # A read-only array that owns its memory (load_dataset's or generate's
        # tensor) is adopted without a copy: writing to it takes the same
        # deliberate unfreezing as writing to a dataset's own arrays. Anything
        # else is copied, so a caller's later writes never reach the dataset.
        if isinstance(raw, np.ndarray) and raw.flags.owndata and not raw.flags.writeable:
            logits = np.asarray(raw, dtype=np.float32, order="C")
        else:
            logits = np.array(raw, dtype=np.float32, order="C")
        if logits.ndim != 3:
            raise DimensionMismatchError(
                f"logits must be a 3-D (models, samples, classes) tensor, got {logits.ndim}-D"
            )
        num_models, num_samples, num_classes = logits.shape
        if num_models < 1:
            raise DimensionMismatchError("need at least 1 model")
        if num_samples < 1:
            raise DimensionMismatchError("need at least 1 sample")
        if num_classes < 2:
            raise DimensionMismatchError(
                "need at least 2 classes (the score margin is undefined otherwise)"
            )

        raw_labels = np.asarray(self.labels)
        if raw_labels.dtype.kind not in "iu":
            raise ValidationError(f"labels must be integers, got dtype {raw_labels.dtype}")
        if raw_labels.shape != (num_samples,):
            raise DimensionMismatchError(
                f"labels must have shape ({num_samples},), got {raw_labels.shape}"
            )

        costs = np.array(self.costs_ms, dtype=np.float64)
        if costs.shape != (num_models,):
            raise DimensionMismatchError(
                f"costs_ms must have shape ({num_models},), got {costs.shape}"
            )

        object.__setattr__(self, "logits", logits)
        # the caller's labels are range-checked before an int64 cast could wrap them
        for _ in _checked(self.logit_chunks(), raw_labels, num_classes, costs):
            pass
        labels = raw_labels.astype(np.int64)
        for arr in (logits, labels, costs):
            arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "costs_ms", costs)

    @property
    def num_models(self) -> int:
        return self.logits.shape[0]

    @property
    def num_samples(self) -> int:
        return self.logits.shape[1]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[2]

    def logit_chunks(self) -> Iterator[tuple[slice, int, np.ndarray]]:
        """Yield (samples, model, logits[model, samples]) over consecutive chunks
        of samples, every model of a chunk in turn."""
        for samples in _sample_chunks(*self.logits.shape):
            for model, rows in enumerate(self.logits[:, samples]):
                yield samples, model, rows


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed manifest contents; paths are relative to the manifest directory."""

    version: int
    num_models: int
    num_samples: int
    num_classes: int
    logit_files: tuple[str, ...]
    label_file: str
    costs_ms: tuple[float, ...]


def write_atomic(path, data: str | Iterable) -> None:
    """Write `data` to `path` via a sibling temporary file and os.replace.

    `data` is a str, written as its UTF-8 encoding with no newline
    translation, or an iterable of byte-like buffers (such as a header and
    the chunks of a contiguous array), written one after another without
    being joined. A failure or crash mid-write leaves any existing file at
    `path` as it was. A symlink is followed, and the file it resolves to is
    replaced; a target that exists but is not a regular file (a directory, a
    FIFO, a device) is refused before anything is written.
    """
    if isinstance(data, str):
        data = [data.encode("utf-8")]
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        raise ValidationError(f"{path}: not a regular file; refusing to replace it")
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.writelines(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(dataset: EnsembleDataset, directory) -> DatasetManifest:
    """Write manifest plus binary payloads into `directory` (created if absent).

    Two saves of the same dataset produce byte-identical files, and
    load_dataset(save_dataset(d)) reproduces d bit-for-bit. See _write_dataset.
    """
    models = ([np.ascontiguousarray(logits, "<f4")] for logits in dataset.logits)
    return _write_dataset(
        directory, dataset.num_samples, dataset.num_classes, models, dataset.labels,
        dataset.costs_ms,
    )


def _write_dataset(
    directory, num_samples: int, num_classes: int, models: Iterable[Iterable],
    labels: np.ndarray, costs_ms: np.ndarray,
) -> DatasetManifest:
    """Write a dataset directory: one logit payload per item of `models`, an
    iterable of '<f4' chunks that together hold the model's (num_samples,
    num_classes) logits in row-major order, then the labels, then the manifest.

    Each file is written atomically. The old manifest is removed before the
    first payload, so a write that fails part way leaves a directory that
    open_dataset refuses, never a mix of two datasets that loads. Such a
    write also removes the payloads it created where no file was before, and
    the directories it made, so a failed write to a new directory leaves
    nothing; files it did not write are left alone.
    """
    root = Path(directory)
    made = list(itertools.takewhile(lambda d: not d.exists(), [root, *root.parents]))
    created = []

    def write(name: str, data) -> None:
        path = root / name
        new = not path.exists()
        write_atomic(path, data)
        if new:
            created.append(path)

    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / MANIFEST_NAME).unlink(missing_ok=True)
        header = _header(LOGIT_MAGIC, (num_samples, num_classes))
        logit_files = []
        for i, chunks in enumerate(models):
            logit_files.append(f"logits_{i:03d}.ensl")
            write(logit_files[-1], itertools.chain([header], chunks))
        label_file = "labels.ensy"
        write(label_file, (_header(LABEL_MAGIC, labels.shape), labels.astype("<u4", copy=False)))
        manifest = DatasetManifest(
            version=FORMAT_VERSION,
            num_models=len(logit_files),
            num_samples=num_samples,
            num_classes=num_classes,
            logit_files=tuple(logit_files),
            label_file=label_file,
            costs_ms=tuple(float(c) for c in costs_ms),
        )
        write(MANIFEST_NAME, json.dumps(asdict(manifest), indent=2) + "\n")
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        for made_dir in made:  # deepest first; rmdir refuses one that is not empty
            with suppress(OSError):
                made_dir.rmdir()
        raise
    return manifest


def _is_json_number(value) -> bool:
    """Whether a parsed JSON value is a number a float can hold: not a bool, and
    not an integer too large for float() to convert."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _manifest_int(doc: dict, key: str, path: Path) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedManifestError(f"{path}: manifest key {key!r} must be an integer")
    return value


def _json_object(path: Path, error: type[ValidationError], what: str) -> dict:
    """The JSON object that the file at `path` holds; raises `error` naming the
    path if the file is not JSON or holds another value."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


def _parse_manifest(doc: dict, path: Path) -> DatasetManifest:
    for field in fields(DatasetManifest):
        if field.name not in doc:
            raise MalformedManifestError(f"{path}: manifest key {field.name!r} is missing")

    version = _manifest_int(doc, "version", path)
    if version != FORMAT_VERSION:
        raise MalformedManifestError(
            f"{path}: unsupported manifest version {version}, expected {FORMAT_VERSION}"
        )
    num_models = _manifest_int(doc, "num_models", path)
    num_samples = _manifest_int(doc, "num_samples", path)
    num_classes = _manifest_int(doc, "num_classes", path)
    if num_models < 1 or num_samples < 1:
        raise MalformedManifestError(f"{path}: num_models and num_samples must be >= 1")
    if num_classes < 2:
        raise MalformedManifestError(f"{path}: num_classes must be >= 2")

    logit_files = doc["logit_files"]
    if not isinstance(logit_files, list) or not all(isinstance(f, str) for f in logit_files):
        raise MalformedManifestError(f"{path}: logit_files must be a list of strings")
    if len(logit_files) != num_models:
        raise MalformedManifestError(
            f"{path}: expected {num_models} logit files, found {len(logit_files)}"
        )
    label_file = doc["label_file"]
    if not isinstance(label_file, str):
        raise MalformedManifestError(f"{path}: label_file must be a string")
    for name in (*logit_files, label_file):
        if Path(name).is_absolute() or ".." in Path(name).parts:
            raise MalformedManifestError(
                f"{path}: payload path {name!r} must stay inside the dataset directory"
            )
    costs = doc["costs_ms"]
    if not isinstance(costs, list) or not all(_is_json_number(c) for c in costs):
        raise MalformedManifestError(f"{path}: costs_ms must be a list of numbers")
    if len(costs) != num_models:
        raise MalformedManifestError(
            f"{path}: expected {num_models} costs, found {len(costs)}"
        )
    return DatasetManifest(
        version=version,
        num_models=num_models,
        num_samples=num_samples,
        num_classes=num_classes,
        logit_files=tuple(logit_files),
        label_file=label_file,
        costs_ms=tuple(float(c) for c in costs),
    )


def _header_format(ndim: int) -> str:
    """struct format of a payload header: magic, u32 version, one u32 per dimension."""
    return f"<4sI{ndim}I"


def _header(magic: bytes, shape: tuple[int, ...]) -> bytes:
    """A payload file's header, which the contiguous little-endian array follows."""
    return struct.pack(_header_format(len(shape)), magic, FORMAT_VERSION, *shape)


def _open_payload(path: Path, magic: bytes, shape: tuple[int, ...]) -> BinaryIO:
    """Open a payload, check its magic, version, dimensions and file size against
    `shape`, and return the file at its first data byte; the caller closes it."""
    header_format = _header_format(len(shape))
    header_size = struct.calcsize(header_format)
    payload = open(path, "rb")
    try:
        header = payload.read(header_size)
        if len(header) < header_size:
            raise DatasetFormatError(f"{path}: file too short for its header")
        file_magic, version, *dims = struct.unpack(header_format, header)
        if file_magic != magic:
            raise DatasetFormatError(
                f"{path}: bad magic {file_magic!r}, expected {magic.decode('ascii')!r}"
            )
        if version != FORMAT_VERSION:
            raise DatasetFormatError(f"{path}: unsupported payload version {version}")
        if tuple(dims) != shape:
            raise DimensionMismatchError(
                f"{path}: header declares {'x'.join(map(str, dims))}, "
                f"manifest says {'x'.join(map(str, shape))}"
            )
        size = os.fstat(payload.fileno()).st_size
        expected = header_size + 4 * math.prod(shape)  # both payload dtypes are 4 bytes wide
        if size != expected:
            raise DimensionMismatchError(f"{path}: payload is {size} bytes, expected {expected}")
    except BaseException:
        payload.close()
        raise
    return payload


def _fill(payload: BinaryIO, path: Path, out: np.ndarray, size: int) -> None:
    """readinto `out` from the payload's position; `size` is its checked file size."""
    offset = payload.tell()
    read = payload.readinto(out)
    if read != out.nbytes:  # the file shrank after its size was checked
        raise DimensionMismatchError(f"{path}: payload is {offset + read} bytes, expected {size}")


@dataclass(frozen=True, eq=False)
class DatasetFiles:
    """A dataset directory opened by open_dataset; the logits stay on disk.

    Every payload's header and size were checked, and the labels read, at
    open; the labels stay u32, as stored. Each logit_chunks pass reads every
    logit payload and runs the check an EnsembleDataset runs on construction:
    finite logits, then labels in range, then positive costs. Until a pass
    has finished, the label values and the costs are unchecked.
    """

    num_models: int
    num_samples: int
    num_classes: int
    logit_paths: tuple[Path, ...]
    labels: np.ndarray  # (num_samples,) u32 as stored, frozen
    costs_ms: np.ndarray  # (num_models,) float64, frozen

    def logit_chunks(self) -> Iterator[tuple[slice, int, np.ndarray]]:
        """Yield (samples, model, logits[model, samples]) over consecutive chunks
        of samples, every model of a chunk in turn, read from the payloads into
        one reused float32 buffer and checked."""
        return _checked(self._read_chunks(), self.labels, self.num_classes, self.costs_ms)

    def _read_chunks(self) -> Iterator[tuple[slice, int, np.ndarray]]:
        """Read each payload's byte range of each chunk of samples into one
        buffer of one model's rows."""
        shape = (self.num_samples, self.num_classes)
        size = struct.calcsize(_header_format(2)) + 4 * math.prod(shape)
        chunks = _sample_chunks(self.num_models, *shape)
        buffer = np.empty((chunks[0].stop, shape[1]), dtype="<f4")
        with ExitStack() as stack:
            payloads = [
                stack.enter_context(_open_payload(path, LOGIT_MAGIC, shape))
                for path in self.logit_paths
            ]
            for samples in chunks:
                rows = buffer[: samples.stop - samples.start]
                for model, (path, payload) in enumerate(zip(self.logit_paths, payloads)):
                    _fill(payload, path, rows, size)
                    yield samples, model, rows

    def check(self) -> None:
        """Run the checking pass alone: read every logit, build nothing."""
        for _ in self.logit_chunks():
            pass


def open_dataset(manifest_path) -> DatasetFiles:
    """Open a dataset directory given its manifest path, without reading its logits.

    Checks the manifest, every logit payload's header and size, and the label
    payload's, then reads the labels; logit_chunks checks the rest.
    """
    path = Path(manifest_path)
    manifest = _parse_manifest(_json_object(path, MalformedManifestError, "manifest"), path)

    shape = (manifest.num_samples, manifest.num_classes)
    logit_paths = tuple(path.parent / name for name in manifest.logit_files)
    for logit_path in logit_paths:
        _open_payload(logit_path, LOGIT_MAGIC, shape).close()
    label_path = path.parent / manifest.label_file
    labels = np.empty(manifest.num_samples, dtype="<u4")
    with _open_payload(label_path, LABEL_MAGIC, labels.shape) as payload:
        _fill(payload, label_path, labels, payload.tell() + labels.nbytes)
    costs = np.array(manifest.costs_ms, dtype=np.float64)
    for arr in (labels, costs):
        arr.setflags(write=False)
    return DatasetFiles(manifest.num_models, *shape, logit_paths, labels, costs)


def load_dataset(manifest_path) -> EnsembleDataset:
    """Load and fully validate a dataset directory given its manifest path.

    The dataset holds the whole (N, M, C) tensor, each model's payload read
    whole into its slice and checked once, by the EnsembleDataset; no tensor
    is allocated before open_dataset has checked every payload.
    """
    files = open_dataset(manifest_path)
    logits = np.empty((files.num_models, files.num_samples, files.num_classes), dtype="<f4")
    for path, out in zip(files.logit_paths, logits):
        with _open_payload(path, LOGIT_MAGIC, out.shape) as payload:
            _fill(payload, path, out, payload.tell() + out.nbytes)
    logits.setflags(write=False)  # handed to EnsembleDataset without a copy
    return EnsembleDataset(logits=logits, labels=files.labels, costs_ms=files.costs_ms)


def _read_csv(path: Path, parse, width: int | None = None, num_rows: int | None = None):
    """The (rows, width) cells of a headerless CSV file, each parsed by `parse`
    (float or int) into a float64 or int64 array; width None takes the first
    row's. The row count is checked against num_rows, when given, before any
    cell is parsed."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()  # trailing newline, not an empty row
    if num_rows is not None and len(lines) != num_rows:
        raise DimensionMismatchError(f"{path}: {len(lines)} label rows for {num_rows} samples")
    if not lines:
        raise CsvParseError(str(path), 0, 0, "file contains no data rows")
    rows = [line.removesuffix("\r").split(",") for line in lines]
    width = len(rows[0]) if width is None else width
    cells = np.empty((len(rows), width), dtype=np.float64 if parse is float else np.int64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowsError(str(path), r, width, len(row))
        for col, cell in enumerate(row):
            try:
                cells[r, col] = parse(cell)
            except ValueError as exc:
                what = "a real number" if parse is float else "an integer"
                raise CsvParseError(str(path), r, col, f"cannot parse {cell!r} as {what}") from exc
    return cells


def import_csv(logits_csvs: Sequence, labels_csv, costs_ms) -> EnsembleDataset:
    """Build a dataset from per-model logit CSVs plus a label CSV.

    Files have no header row; logit cells are parsed as decimal reals and
    stored at the canonical 32-bit precision. The first cell in (model,
    sample, class) order that is not finite or whose magnitude exceeds the
    float32 maximum, before rounding, is rejected as non-finite. All logit
    files must agree on their row and column counts.
    """
    if len(logits_csvs) == 0:
        raise DimensionMismatchError("need at least one logits CSV")
    costs = np.asarray(costs_ms, dtype=np.float64)
    if costs.shape != (len(logits_csvs),):
        raise DimensionMismatchError(
            f"expected {len(logits_csvs)} costs, got shape {costs.shape}"
        )

    matrices = []
    for csv_path in logits_csvs:
        path = Path(csv_path)
        matrices.append(_read_csv(path, float))
        if matrices[-1].shape != matrices[0].shape:
            raise DimensionMismatchError(
                f"{path}: shape {matrices[-1].shape} disagrees with first file {matrices[0].shape}"
            )
    labels = _read_csv(Path(labels_csv), int, width=1, num_rows=len(matrices[0]))

    logits = np.stack(matrices)
    bad = _beyond_float32_at(logits)
    if bad is not None:
        raise NonFiniteLogitError(*bad)
    return EnsembleDataset(logits=logits.astype(np.float32), labels=labels[:, 0], costs_ms=costs)
