"""The per_sample op: one process calling run_sample on every sample in order.

    python3 perfbench/persample.py --data DIR --schedule FILE --out FILE

A closed loop with one caller. Each trace is written to --out as
`models_used,prediction,cost_ms,margins...` with floats in repr form, and the
per-call latencies go to stdout as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

from flexens.calibration import load_schedule
from flexens.cascade_engine import run_sample
from flexens.dataset_io import MANIFEST_NAME, load_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--schedule", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    dataset = load_dataset(args.data / MANIFEST_NAME)
    schedule = load_schedule(args.schedule).schedule
    logits, costs = dataset.logits, dataset.costs_ms
    clock = time.perf_counter_ns
    durations, traces = [], []
    loop_start = clock()
    for i in range(dataset.num_samples):
        sample = logits[:, i, :]
        start = clock()
        trace = run_sample(sample, schedule, costs)
        durations.append(clock() - start)
        traces.append(trace)
    loop_s = (clock() - loop_start) / 1e9

    lines = [
        f"{t.models_used},{t.prediction},{t.cost_ms!r},"
        + " ".join(repr(float(v)) for v in t.margins)
        for t in traces
    ]
    args.out.write_text("\n".join(lines) + "\n")
    durations.sort()

    def rank(q):  # nearest-rank percentile, in microseconds
        return durations[math.ceil(q * len(durations)) - 1] / 1e3

    print(json.dumps({
        "sample_p50_us": rank(0.5),
        "sample_p99_us": rank(0.99),
        "samples_per_s": len(durations) / loop_s,
    }))


if __name__ == "__main__":
    main()
