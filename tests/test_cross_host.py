"""Scores, decisions and CSV text do not depend on the CPU.

Each setting below runs one small pipeline in a fresh interpreter: gen,
calibrate, run and baseline through the CLI, then report on a few schedules
through the library. OPENBLAS_CORETYPE picks OpenBLAS's kernels, so Haswell
and Prescott stand in for CPUs other than this one, and
NPY_ENABLE_CPU_FEATURES=X86_V3 switches off numpy's AVX-512 loops. Every
setting must give the default's thresholds, CLI stdout, CSV bytes, stage
predictions, per-sample exit stages and every EvaluationReport field by
repr. The seed-42 config gives a different calibrated R under Haswell and
Prescott when R is scored by a BLAS dot.

Margins are left out on purpose: np.exp's last bit depends on the loop
numpy dispatches, so margins are stable only per numpy build and dispatch
level. A host without AVX-512 runs the same loops under X86_V3 as by
default, so it cannot see that dependence.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# run in an empty directory as cwd, so every path the CLI prints is the same
PIPELINE = r"""
import contextlib, dataclasses, hashlib, io, json
from flexens.calibration import load_schedule
from flexens.cascade_engine import ThresholdSchedule, run_dataset, stage_tables
from flexens.cli import main
from flexens.dataset_io import MANIFEST_NAME, open_dataset
from flexens.metrics_report import report

commands = [
    "gen --models 7 --samples 10000 --classes 10 --seed 42 --out data",
    "calibrate --data data --out calibrated.json",
    "run --data data --schedule calibrated.json --out run.csv --allow-same-split",
    "baseline --data data --out baseline.csv",
]
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    codes = [main(command.split()) for command in commands]
calibrated = load_schedule("calibrated.json").schedule
dataset = open_dataset(f"data/{MANIFEST_NAME}")
reports, exit_stages = [], []
for schedule in (
    calibrated,
    ThresholdSchedule.uniform(0.5, 7),
    ThresholdSchedule((0.9, 0.7, 0.5, 0.3, 0.2, 0.1)),
):
    run = run_dataset(dataset, schedule)
    rep = report(dataset, run)
    reports.append({f.name: repr(getattr(rep, f.name)) for f in dataclasses.fields(rep)})
    exit_stages.append(hashlib.sha256(run.models_used.tobytes()).hexdigest())
print(json.dumps({
    "exit_codes": codes,
    "thresholds": calibrated.thresholds,
    "stdout": stdout.getvalue(),
    "csv": {name: open(name).read() for name in ("run.csv", "baseline.csv")},
    "predictions": hashlib.sha256(stage_tables(dataset).predictions.tobytes()).hexdigest(),
    "exit_stages": exit_stages,
    "reports": reports,
}))
"""

SETTINGS = {
    "default": {},
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_x86_v3": {"NPY_ENABLE_CPU_FEATURES": "X86_V3"},
}


def _runs_here(setting: str) -> bool:
    """numpy refuses to start when asked for CPU features the host lacks, and
    numpy 1.x names no X86_V3 group."""
    if setting != "numpy_x86_v3":
        return True
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V3"))


@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory):
    """Each runnable setting's pipeline output; the interpreters run side by side."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = {}
    for name, setting in SETTINGS.items():
        if not _runs_here(name):
            continue
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_ENABLE_CPU_FEATURES")}
        env.update(setting, PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""))
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", PIPELINE], cwd=tmp_path_factory.mktemp(name), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    outputs = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, f"{name}: {stderr}"
        outputs[name] = json.loads(stdout)
    return outputs


@pytest.mark.parametrize("setting", [name for name in SETTINGS if name != "default"])
def test_pipeline_matches_the_default_setting(pipeline_outputs, setting):
    if not _runs_here(setting):
        pytest.skip(f"numpy cannot run {SETTINGS[setting]} on this host")
    assert pipeline_outputs["default"]["exit_codes"] == [0, 0, 0, 0]
    assert pipeline_outputs[setting] == pipeline_outputs["default"]
