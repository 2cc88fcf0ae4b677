"""Time flexens' per-request path, run_sample, at the given class counts.

    python3 tools/run_sample_us.py C [C ...]

For each class count C it draws 500 synthetic samples of N=7 float32 logits
with numpy's default_rng seeded with (42, C): unit normal noise, plus a
true-class signal that fades with difficulty, so samples exit at every
stage. It runs each through run_sample under the fixed schedule (0.4, 0.2,
0.12, 0.09, 0.07, 0.04) once untimed and once timed, and prints one line
per C:

    C=10 run_sample_us 18.4 (N=7, 500 calls, 2.84 models a call)

where run_sample_us is the median of the per-call wall times in
microseconds. The perfbench per_sample workload measures run_sample only at
C=10; this covers the other class counts, the paper's C=1000 included. It
imports flexens from this checkout's src directory. The logits take 28*500*C
bytes: 14 MB at C=1000.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flexens.cascade_engine import ThresholdSchedule, run_sample  # noqa: E402

NUM_MODELS = 7
NUM_SAMPLES = 500
SEED = 42
SCHEDULE = ThresholdSchedule((0.4, 0.2, 0.12, 0.09, 0.07, 0.04))
COSTS_MS = np.linspace(1.0, 4.0, NUM_MODELS)


def draw_logits(num_classes: int) -> np.ndarray:
    """(NUM_SAMPLES, NUM_MODELS, num_classes) float32 logits."""
    rng = np.random.default_rng([SEED, num_classes])
    logits = rng.standard_normal((NUM_SAMPLES, NUM_MODELS, num_classes), dtype=np.float32)
    labels = rng.integers(0, num_classes, NUM_SAMPLES)
    signal = 4.0 * (1.0 - rng.random(NUM_SAMPLES, dtype=np.float32))
    logits[np.arange(NUM_SAMPLES), :, labels] += signal[:, None]
    return logits


def time_calls(logits: np.ndarray) -> tuple[float, float]:
    """(median microseconds a call, mean models run a call) over every sample."""
    for sample in logits:  # warm-up, untimed
        run_sample(sample, SCHEDULE, COSTS_MS)
    times, models = [], 0
    for sample in logits:
        started = time.perf_counter()
        trace = run_sample(sample, SCHEDULE, COSTS_MS)
        times.append(time.perf_counter() - started)
        models += trace.models_used
    return statistics.median(times) * 1e6, models / len(logits)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("classes", type=int, nargs="+", help="class counts, each >= 2")
    args = parser.parse_args(argv)
    if min(args.classes) < 2:
        parser.error("class counts must be >= 2")
    for num_classes in args.classes:
        us, models = time_calls(draw_logits(num_classes))
        print(f"C={num_classes} run_sample_us {us:.1f} "
              f"(N={NUM_MODELS}, {NUM_SAMPLES} calls, {models:.2f} models a call)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
