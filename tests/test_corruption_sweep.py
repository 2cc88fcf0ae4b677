"""A seeded corruption sweep through main().

Every mutated dataset directory goes through the five commands that read a
dataset, and every mutated schedule file through run, with and without
--allow-same-split. No exception may escape main, every exit must be 0, 1
or 2 with at most one error line, and on each directory the five commands
must give the same exit code and the same error line.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from flexens.cli import main
from flexens.dataset_io import MANIFEST_NAME

SEED = 31
RANDOM_WRITES = 20
# manifest and schedule values of every JSON kind, out of range, or naming a path
ODD_VALUES = [
    True, None, -1, 0, 2**64, 10**400, float("nan"), 1.5, "x", "", [], {},
    "../x", "/etc/passwd", "logits_000.ensl", "labels.ensy",
]
# the payload header: a 4-byte magic, a u32 version, a u32 per dimension
LOGIT_CUTS, LABEL_CUTS = (0, 2, 4, 8, 12, 16), (0, 2, 4, 8, 12)


def _mutations(path: Path, rng: random.Random, cuts):
    """(name, bytes) of every mutation of one file: cut at each offset in cuts and
    before its last byte, then one random byte written at a random offset."""
    data = path.read_bytes()
    for cut in (*cuts, len(data) - 1):
        yield f"cut{cut}", data[:cut]
    for i in range(RANDOM_WRITES):
        at = rng.randrange(len(data))
        yield f"byte{i}", data[:at] + bytes([rng.randrange(256)]) + data[at + 1 :]


def _json_mutations(path: Path, rng: random.Random):
    """The byte mutations of a JSON file, then each of its keys set to every odd
    value and deleted."""
    yield from _mutations(path, rng, (len(path.read_bytes()) // 2,))
    document = json.loads(path.read_text())
    for key in document:
        for i, value in enumerate(ODD_VALUES):
            yield f"{key}={i}", json.dumps({**document, key: value}).encode()
        yield f"no_{key}", json.dumps({k: v for k, v in document.items() if k != key}).encode()


def _outcome(capsys, argv) -> tuple[int, list[str]]:
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith(("error:", "io error:"))]
    assert code in (0, 1, 2), (argv, err)
    assert len(errors) <= 1 and (code == 0) == (not errors), (argv, err)
    return code, errors


@pytest.fixture
def sweep_inputs(tmp_path, capsys):
    data, outs = tmp_path / "data", tmp_path / "outs"
    outs.mkdir()
    assert main(["gen", "--models", "3", "--samples", "50", "--classes", "4",
                 "--seed", "5", "--out", str(data)]) == 0
    schedule = tmp_path / "schedule.json"
    assert main(["calibrate", "--data", str(data), "--grid-step", "0.25",
                 "--out", str(schedule)]) == 0
    capsys.readouterr()
    return data, schedule, outs


def test_every_command_agrees_on_every_mutated_directory(tmp_path, capsys, sweep_inputs):
    data, _, outs = sweep_inputs
    schedule = tmp_path / "held_out.json"  # calibrated on no split
    schedule.write_text('{"version": 1, "thresholds": [0.5, 0.5]}')
    rng = random.Random(SEED)
    mutated = tmp_path / "mutated"
    commands = [
        ["validate"],
        ["run", "--schedule", str(schedule), "--out", str(outs / "r.csv")],
        ["baseline", "--out", str(outs / "b.csv")],
        ["histogram", "--ensemble-size", "1", "--out", str(outs / "h.csv")],
        ["calibrate", "--grid-step", "0.25", "--out", str(outs / "c.json")],
    ]
    files = sorted(data.iterdir())
    swept = 0
    for file in files:
        if file.name == MANIFEST_NAME:
            mutations = _json_mutations(file, rng)
        else:
            mutations = _mutations(file, rng, LOGIT_CUTS if file.suffix == ".ensl" else LABEL_CUTS)
        for name, content in mutations:
            shutil.rmtree(mutated, ignore_errors=True)
            shutil.copytree(data, mutated)
            (mutated / file.name).write_bytes(content)
            outcomes = [
                _outcome(capsys, [command[0], "--data", str(mutated), *command[1:]])
                for command in commands
            ]
            assert all(o == outcomes[0] for o in outcomes), (file.name, name, outcomes)
            swept += 1
    assert swept > 200


def test_run_survives_every_mutated_schedule(tmp_path, capsys, sweep_inputs):
    data, schedule, outs = sweep_inputs
    same_split = f"error: {data} is the split this schedule was calibrated on"
    rng = random.Random(SEED)
    mutated = tmp_path / "mutated.json"
    swept = 0
    for name, content in _json_mutations(schedule, rng):
        mutated.write_bytes(content)
        argv = ["run", "--data", str(data), "--schedule", str(mutated),
                "--out", str(outs / "r.csv")]
        allowed = _outcome(capsys, [*argv, "--allow-same-split"])
        guarded = _outcome(capsys, argv)
        # the schedule is read before the split guard, which only --allow-same-split lifts
        if not (guarded[1] and guarded[1][0].startswith(same_split)):
            assert guarded == allowed, (name, guarded, allowed)
        swept += 1
    assert swept > 80
