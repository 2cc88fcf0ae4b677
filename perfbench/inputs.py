"""Workload inputs and the reference outputs the benchmark checks against.

    python3 perfbench/inputs.py build  --workload W --seed S --out DIR
    python3 perfbench/inputs.py expect --workload W --seed S --data DIR
                                       [--generated DIR --trace 0|1] --out FILE

`build` writes the workload's datasets in the ENSL/ENSY directory format,
drawn with numpy from synthgen's documented distribution (uniform labels,
difficulty d in [0, 1), true-class signal 4*(1-d), sigma=1 noise), plus the
fixed schedule when the workload has one. The same seed gives the same bytes.

`expect` reads the datasets under DIR and computes, without importing
flexens, what every command must output: prefix-mean softmax margins, the
first-clearing-stage scan, R/E/accuracy/avg_models at 6 significant digits,
and the greedy grid optimum for `calibrate`, found by a sorted-margin sweep
rather than the program's per-candidate rescan. For datasets the program
generated (under --generated) it also replays synthgen's documented
xoshiro256++ stream to check every label and the first rows of model 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

import workloads as W

_LOGIT_HEADER = struct.Struct("<4sIII")
_LABEL_HEADER = struct.Struct("<4sII")
_CHUNK = 8192  # samples per reference chunk; keeps the C=100 reference small
GEN_CHECK_ROWS = 100  # rows of model 0 replayed from the generator stream


# ---------------------------------------------------------------- build


def _write_dataset(root: Path, labels: np.ndarray, classes: int, logits_by_model) -> None:
    root.mkdir(parents=True)
    names = []
    for i, logits in enumerate(logits_by_model):
        name = f"logits_{i:03d}.ensl"
        with open(root / name, "wb") as f:
            f.write(_LOGIT_HEADER.pack(b"ENSL", 1, labels.size, classes))
            f.write(logits.astype("<f4").tobytes())
        names.append(name)
    with open(root / "labels.ensy", "wb") as f:
        f.write(_LABEL_HEADER.pack(b"ENSY", 1, labels.size))
        f.write(labels.astype("<u4").tobytes())
    manifest = {
        "version": 1,
        "num_models": len(names),
        "num_samples": int(labels.size),
        "num_classes": classes,
        "logit_files": names,
        "label_file": "labels.ensy",
        "costs_ms": [W.COST_MS] * len(names),
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def build(workload: W.Workload, seed: int, out: Path) -> None:
    out.mkdir(parents=True)
    if workload.generated:
        return  # the program's own `gen` commands make this workload's datasets
    m, c = workload.samples, workload.classes
    for split_no, split in enumerate(workload.splits):
        rng = np.random.default_rng([seed, split_no])
        labels = rng.integers(0, c, m)
        signal = W.SIGNAL_SCALE * (1.0 - rng.random(m))

        def model_logits():  # one model at a time bounds build's memory
            for _ in range(W.NUM_MODELS):
                logits = rng.standard_normal((m, c))
                logits[np.arange(m), labels] += signal
                yield logits

        _write_dataset(out / split, labels, c, model_logits())
    if workload.fixed_schedule is not None:
        doc = {"version": 1, "alpha": None, "grid_step": None,
               "thresholds": list(workload.fixed_schedule)}
        (out / W.SCHEDULE_NAME).write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------- reference


def load(root: Path):
    """(logits float32 (N, M, C), labels int64, costs float64) from a dataset dir."""
    manifest = json.loads((root / "manifest.json").read_text())
    n, m, c = manifest["num_models"], manifest["num_samples"], manifest["num_classes"]
    logits = np.empty((n, m, c), dtype=np.float32)
    for i, name in enumerate(manifest["logit_files"]):
        data = (root / name).read_bytes()
        if _LOGIT_HEADER.unpack_from(data) != (b"ENSL", 1, m, c):
            raise ValueError(f"{root / name}: bad header")
        logits[i] = np.frombuffer(data, "<f4", offset=_LOGIT_HEADER.size).reshape(m, c)
    data = (root / manifest["label_file"]).read_bytes()
    if _LABEL_HEADER.unpack_from(data) != (b"ENSY", 1, m):
        raise ValueError(f"{root}: bad label header")
    labels = np.frombuffer(data, "<u4", offset=_LABEL_HEADER.size).astype(np.int64)
    return logits, labels, np.array(manifest["costs_ms"], dtype=np.float64)


def stage_stats(logits: np.ndarray):
    """Margins and argmax of softmax(mean of the first k models), for every k."""
    n, m, _ = logits.shape
    margins = np.empty((n, m))
    predictions = np.empty((n, m), dtype=np.int64)
    sizes = np.arange(1, n + 1, dtype=np.float64)[:, None, None]
    for lo in range(0, m, _CHUNK):
        mean = np.cumsum(logits[:, lo:lo + _CHUNK].astype(np.float64), axis=0) / sizes
        z = np.exp(mean - mean.max(axis=2, keepdims=True))
        p = z / z.sum(axis=2, keepdims=True)
        predictions[:, lo:lo + _CHUNK] = p.argmax(axis=2)
        top = np.sort(p, axis=2)
        margins[:, lo:lo + _CHUNK] = top[..., -1] - top[..., -2]
    return margins, predictions


def first_clearing_stage(margins: np.ndarray, thresholds) -> np.ndarray:
    """Models used per sample: first stage k with margin >= tau_k, else N."""
    n, m = margins.shape
    used = np.full(m, n, dtype=np.int64)
    for k in reversed(range(n - 1)):
        used[margins[k] >= thresholds[k]] = k + 1
    return used


def _relative_error_increase(flex_error: float, full_error: float) -> float:
    return flex_error if full_error == 0.0 else (flex_error - full_error) / full_error


def score(used, predictions, labels, cum_costs):
    """(exit counts, accuracy, avg_cost_ms, R, E, avg_models) of a scan."""
    n, m = predictions.shape
    counts = np.bincount(used, minlength=n + 1)[1:]
    wrong = int(np.count_nonzero(predictions[used - 1, np.arange(m)] != labels))
    full_error = int(np.count_nonzero(predictions[-1] != labels)) / m
    gated = float(counts @ cum_costs)
    return (
        counts,
        (m - wrong) / m,
        gated / m,
        gated / (m * float(cum_costs[-1])),
        _relative_error_increase(wrong / m, full_error),
        float(counts @ np.arange(1, n + 1)) / m,
    )


def grid_optimum(margins, predictions, labels, cum_costs, alpha, step):
    """Greedy per-stage grid search, scoring every candidate from sorted margins.

    At stage k the earlier thresholds are fixed and the later ones are 1.0, so
    a live sample either exits at k (margin >= tau) or falls back to its first
    later stage with margin >= 1.0, else N. Sorting live samples by their
    stage-k margin makes the fallbacks of a candidate a prefix, so exit counts
    and wrong counts are prefix sums. R and E are then formed from those
    integers exactly as the objective defines them.
    """
    n, m = margins.shape
    intervals = round(1.0 / step)
    grid = [i / intervals for i in range(intervals + 1)]
    wrong = predictions != labels
    full_error = int(np.count_nonzero(wrong[-1])) / m
    full_cost = m * float(cum_costs[-1])
    live = np.ones(m, dtype=bool)
    done_counts = np.zeros(n, dtype=np.int64)
    done_wrong = 0
    chosen = []
    for k in range(n - 1):
        idx = np.flatnonzero(live)
        idx = idx[np.argsort(margins[k, idx], kind="stable")]
        fallback = np.full(idx.size, n - 1)
        for j in reversed(range(k + 1, n - 1)):
            fallback[margins[j, idx] >= 1.0] = j
        one_hot = np.zeros((idx.size + 1, n), dtype=np.int64)
        one_hot[np.arange(1, idx.size + 1), fallback] = 1
        stay_counts = np.cumsum(one_hot, axis=0)  # row q: fallbacks of the q lowest margins
        stay_wrong = np.concatenate(([0], np.cumsum(wrong[fallback, idx])))
        exit_wrong = np.concatenate(([0], np.cumsum(wrong[k, idx])))
        sorted_margins = margins[k, idx]
        best_value, best_tau = math.inf, grid[0]
        for tau in grid:
            q = int(np.searchsorted(sorted_margins, tau, side="left"))  # these stay
            counts = done_counts + stay_counts[q]
            counts[k] += idx.size - q
            wrong_total = done_wrong + int(stay_wrong[q]) + int(exit_wrong[-1] - exit_wrong[q])
            r = float(counts @ cum_costs) / full_cost
            e = _relative_error_increase(wrong_total / m, full_error)
            value = alpha * r + (1.0 - alpha) * e
            if value < best_value:
                best_value, best_tau = value, tau
        chosen.append(best_tau)
        exits = idx[margins[k, idx] >= best_tau]
        done_counts[k] += exits.size
        done_wrong += int(np.count_nonzero(wrong[k, exits]))
        live[exits] = False
    return chosen


def _g(x) -> str:
    return format(float(x), ".6g")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# xoshiro256++ seeded by splitmix64, Box-Muller normals: synthgen's documented stream
_MASK = (1 << 64) - 1


def _xoshiro(seed: int):
    state, s = seed & _MASK, []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        s.append(z ^ (z >> 31))
    while True:
        t = (s[0] + s[3]) & _MASK
        yield ((((((t << 23) & _MASK) | (t >> 41)) + s[0]) & _MASK) >> 11) * 2.0**-53
        shifted = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= shifted
        s[3] = ((s[3] << 45) & _MASK) | (s[3] >> 19)


def generator_errors(root: Path, seed: int, samples: int, classes: int) -> list[str]:
    """Mismatches between a `gen` output and the replayed generator stream."""
    logits, labels, costs = load(root)
    if logits.shape != (W.NUM_MODELS, samples, classes):
        return [f"{root.name}: shape {logits.shape}"]
    stream = _xoshiro(seed)
    want_labels = np.array([min(int(next(stream) * classes), classes - 1) for _ in range(samples)])
    difficulty = np.array([next(stream) for _ in range(samples)])
    rows = min(GEN_CHECK_ROWS, samples)
    normals = []
    while len(normals) < rows * classes:
        radius = math.sqrt(-2.0 * math.log1p(-next(stream)))
        angle = 2.0 * math.pi * next(stream)
        normals += [radius * math.cos(angle), radius * math.sin(angle)]
    base = np.zeros((rows, classes))
    base[np.arange(rows), want_labels[:rows]] = W.SIGNAL_SCALE * (1.0 - difficulty[:rows])
    noise = np.array(normals[:rows * classes]).reshape(rows, classes)
    want_rows = (base + noise).astype(np.float32)
    errors = []
    if not np.array_equal(labels, want_labels):
        errors.append(f"{root.name}: labels differ from the generator stream")
    if not np.array_equal(logits[0, :rows], want_rows):
        errors.append(f"{root.name}: model 0 logits differ from the generator stream")
    if not np.all(costs == W.COST_MS):
        errors.append(f"{root.name}: costs {costs.tolist()}")
    return errors


def _sweep_csv(rows) -> str:
    lines = ["config,accuracy,avg_cost_ms,R,E,avg_models"]
    lines += [",".join([name] + [_g(v) for v in values]) for name, values in rows]
    return "\n".join(lines) + "\n"


def expect(workload: W.Workload, seed: int, data: Path, generated: Path | None,
           traced: bool) -> dict:
    gen_errors = []
    if generated is not None:
        for name, gen_seed, samples in workload.gen_plan(seed, traced):
            gen_errors += generator_errors(generated / name, gen_seed, samples, workload.classes)

    logits, labels, costs = load(data / workload.splits[0])
    classes = logits.shape[2]
    margins, predictions = stage_stats(logits)
    thresholds = grid_optimum(margins, predictions, labels, np.cumsum(costs), W.ALPHA,
                              W.GRID_STEP)
    if workload.splits[-1] != workload.splits[0]:  # commands other than calibrate use eval
        logits, labels, costs = load(data / workload.splits[-1])
        margins, predictions = stage_stats(logits)
    del logits
    n, m = margins.shape
    cum_costs = np.cumsum(costs)
    schedule = workload.fixed_schedule or thresholds
    used = first_clearing_stage(margins, schedule)
    counts, *report = score(used, predictions, labels, cum_costs)

    baseline = []
    for k in range(1, n + 1):
        _, *row = score(np.full(m, k), predictions, labels, cum_costs)
        baseline.append((f"full_{k}", row))

    k = W.HIST_ENSEMBLE_SIZE - 1
    correct = predictions[k] == labels
    edges = np.linspace(0.0, 1.0, W.HIST_BINS + 1)
    hist_ok, _ = np.histogram(margins[k][correct], bins=edges)
    hist_bad, _ = np.histogram(margins[k][~correct], bins=edges)
    hist = ["bin_lo,bin_hi,correct,wrong"] + [
        f"{_g(edges[i])},{_g(edges[i + 1])},{hist_ok[i]},{hist_bad[i]}"
        for i in range(W.HIST_BINS)
    ]

    accuracy, avg_cost, r, e, avg_models = report
    sha = {
        "baseline.csv": _sha(_sweep_csv(baseline)),
        "report.csv": _sha(_sweep_csv([(Path(W.SCHEDULE_NAME).stem, report)])),
        "hist.csv": _sha("\n".join(hist) + "\n"),
    }
    if "per_sample" in workload.ops:
        lines = []
        for i in range(m):
            u = int(used[i])
            trace_margins = " ".join(repr(float(v)) for v in margins[:u, i])
            lines.append(f"{u},{predictions[u - 1, i]},{float(cum_costs[u - 1])!r},{trace_margins}")
        sha["samples.txt"] = _sha("\n".join(lines) + "\n")
    return {
        "sha256": sha,
        "stdout": {
            "validate": [f"models: {n}", f"samples: {m}", f"classes: {classes}",
                         "costs_ms: " + " ".join(_g(c) for c in costs)],
            "calibrate": ["thresholds: " + " ".join(_g(t) for t in thresholds)],
            "run": [f"accuracy={_g(accuracy)} avg_cost_ms={_g(avg_cost)} R={_g(r)} "
                    f"E={_g(e)} avg_models={_g(avg_models)}"],
        },
        "thresholds": thresholds,
        "counts": {
            "exits": counts.tolist(),
            "alive_after_stage1": int(m - counts[0]),
            "saturated_margins": int(np.count_nonzero(margins == 1.0)),
        },
        "gen_errors": gen_errors,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("build", "expect"))
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", type=Path, help="directory holding the splits (expect)")
    parser.add_argument("--generated", type=Path,
                        help="directory holding the program's `gen` output (expect)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="the outputs come from the traced run (expect)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = W.WORKLOADS[args.workload]
    if args.action == "build":
        build(workload, args.seed, args.out)
    else:
        doc = expect(workload, args.seed, args.data, args.generated, bool(args.trace))
        args.out.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
