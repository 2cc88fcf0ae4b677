"""Scores, decisions and CSV text do not depend on the CPU.

Each setting below runs one small pipeline in a fresh interpreter: gen,
calibrate, run and baseline through the CLI at C=10; gen, run and baseline
on a C=100 dataset, whose stage tables the row kernel builds; then report
on a few C=10 schedules through the library, and run_sample on the first
500 samples of both datasets under the same schedules, which must give
run_dataset's traces in the same interpreter. OPENBLAS_CORETYPE picks
OpenBLAS's kernels, so Haswell and Prescott stand in for CPUs other than
this one, NPY_ENABLE_CPU_FEATURES=X86_V3 switches off numpy's AVX-512
loops, among them the sort path of the np.partition from which
cascade_engine._top_two takes the top two of run_sample and of the row
kernel's near ties, and GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2 makes
glibc pick its non-FMA log1p, cos and sin, which gen calls once per value.
Every setting must give the default's thresholds, CLI stdout, CSV bytes,
the bytes of every file gen wrote, stage predictions, per-sample exit
stages, run_sample's exit stages and predictions, and every
EvaluationReport field by repr. The seed-42 config gives a different calibrated R under Haswell
and Prescott when R is scored by a BLAS dot.

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
import contextlib, dataclasses, hashlib, io, json, pathlib
from flexens.calibration import load_schedule
from flexens.cascade_engine import ThresholdSchedule, run_dataset, run_sample, stage_tables
from flexens.cli import main
from flexens.dataset_io import MANIFEST_NAME, load_dataset, open_dataset
from flexens.metrics_report import report

commands = [
    "gen --models 7 --samples 10000 --classes 10 --seed 42 --out data",
    "calibrate --data data --out calibrated.json",
    "run --data data --schedule calibrated.json --out run.csv --allow-same-split",
    "baseline --data data --out baseline.csv",
    # C=100 builds its tables with the row kernel, C=10 with the class-major one
    "gen --models 7 --samples 2000 --classes 100 --seed 43 --out wide",
    "run --data wide --schedule calibrated.json --out wide_run.csv",
    "baseline --data wide --out wide_baseline.csv",
]
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    codes = [main(command.split()) for command in commands]
calibrated = load_schedule("calibrated.json").schedule
dataset = open_dataset(f"data/{MANIFEST_NAME}")
schedules = (
    calibrated,
    ThresholdSchedule.uniform(0.5, 7),
    ThresholdSchedule((0.9, 0.7, 0.5, 0.3, 0.2, 0.1)),
)
reports, exit_stages = [], []
for schedule in schedules:
    run = run_dataset(dataset, schedule)
    rep = report(dataset, run)
    reports.append({f.name: repr(getattr(rep, f.name)) for f in dataclasses.fields(rep)})
    exit_stages.append(hashlib.sha256(run.models_used.tobytes()).hexdigest())
# run_sample on the first 500 samples at C=10 and C=100 gives run_dataset's
# traces, margins too, in this process; its exits and predictions are compared
single_samples = []
for name in ("data", "wide"):
    loaded = load_dataset(f"{name}/{MANIFEST_NAME}")
    for schedule in schedules:
        run, traces = run_dataset(loaded, schedule), []
        for sample in range(500):
            single = run_sample(loaded.logits[:, sample], schedule, loaded.costs_ms)
            trace = run[sample]
            assert (single.models_used, single.prediction, single.cost_ms) == (
                trace.models_used, trace.prediction, trace.cost_ms
            ), (name, sample)
            assert single.margins.tobytes() == trace.margins.tobytes(), (name, sample)
            traces.append((single.models_used, single.prediction))
        single_samples.append(hashlib.sha256(repr(traces).encode()).hexdigest())
print(json.dumps({
    "exit_codes": codes,
    "thresholds": calibrated.thresholds,
    "stdout": stdout.getvalue(),
    "csv": {
        name: open(name).read()
        for name in ("run.csv", "baseline.csv", "wide_run.csv", "wide_baseline.csv")
    },
    "predictions": [
        hashlib.sha256(stage_tables(source).predictions.tobytes()).hexdigest()
        for source in (dataset, open_dataset(f"wide/{MANIFEST_NAME}"))
    ],
    "exit_stages": exit_stages,
    "single_samples": single_samples,
    "reports": reports,
    # gen's bytes rest on libm's log1p, cos and sin
    "files": {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for name in ("data", "wide") for path in sorted(pathlib.Path(name).iterdir())
    },
}))
"""

SETTINGS = {
    "default": {},
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_x86_v3": {"NPY_ENABLE_CPU_FEATURES": "X86_V3"},
    "glibc_no_fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2"},
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
               if k not in ("OPENBLAS_CORETYPE", "NPY_ENABLE_CPU_FEATURES", "GLIBC_TUNABLES")}
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
    assert pipeline_outputs["default"]["exit_codes"] == [0] * 7
    assert pipeline_outputs[setting] == pipeline_outputs["default"]
