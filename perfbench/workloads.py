"""Workload definitions shared by the runner, the input build and the traced run.

Why each workload exists is in BENCHMARK.json and README.md.

This module imports neither numpy nor flexens, so the runner that loads it
stays small (see run.py on why its RSS matters).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

NUM_MODELS = 7
COST_MS = 1.667  # synthgen.DEFAULT_COST_MS, so built inputs cost what `gen` output costs
SIGNAL_SCALE = 4.0  # synthgen.DEFAULT_SIGNAL_SCALE
ALPHA = 0.5
GRID_STEP = 0.01
HIST_ENSEMBLE_SIZE = 1
HIST_BINS = 50
DEFAULT_SEED = 42
SCHEDULE_NAME = "schedule.json"  # its stem is the `config` column of report.csv

# The traced run also times synthgen.generate on workloads whose inputs are
# not generated by the program; it caps the draw at this many normals
# (quickstart's size), because the pure-Python generator costs ~2.5 us each.
TRACE_GEN_NORMALS = NUM_MODELS * 10_000 * 10


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    samples: int  # per split
    splits: tuple[str, ...]  # dataset directories; calibration uses the first
    ops: tuple[str, ...]  # one pass, in order; each op is one fresh process
    fixed_schedule: tuple[float, ...] | None  # None: the pass calibrates its own

    @property
    def generated(self) -> bool:
        """True when the program's own `gen` builds the datasets."""
        return self.ops[0] == "gen_train"

    def gen_plan(self, seed: int, traced: bool) -> list[tuple[str, int, int]]:
        """(directory, generator seed, samples) of each dataset the program generates."""
        if self.generated:
            return [(split, seed + i, self.samples) for i, split in enumerate(self.splits)]
        if traced:
            return [("gen", seed, TRACE_GEN_NORMALS // (NUM_MODELS * self.classes))]
        return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quickstart",
            classes=10,
            samples=10_000,
            splits=("train", "eval"),
            ops=("gen_train", "gen_eval", "validate", "baseline", "calibrate", "run", "histogram"),
            fixed_schedule=None,
        ),
        Workload(
            name="calib_c10",
            classes=10,
            samples=100_000,
            splits=("train", "eval"),
            ops=("calibrate", "run", "baseline"),
            fixed_schedule=None,
        ),
        Workload(
            name="eval_c100",
            classes=100,
            samples=50_000,
            splits=("eval",),
            ops=("validate", "run", "baseline", "histogram"),
            fixed_schedule=(0.2, 0.15, 0.1, 0.08, 0.06, 0.04),
        ),
        Workload(
            name="per_sample",
            classes=10,
            samples=20_000,
            splits=("eval",),
            ops=("per_sample",),
            fixed_schedule=(0.4, 0.2, 0.12, 0.09, 0.07, 0.04),
        ),
    )
}


def another_pass(started: float, pass_walls: list[float], seconds: float) -> bool:
    """Whether one more pass of median length still ends `seconds` after `started`.

    There is always a first pass. Stopping before the budget rather than after
    it keeps a run close to its nominal length whatever a pass costs.
    """
    if not pass_walls:
        return True
    return time.perf_counter() - started + statistics.median(pass_walls) <= seconds
