"""Self-test of the benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. The same seed builds byte-identical inputs, and another seed does not.
2. One quickstart pass (seed 42, so the pinned `gen` digests apply) passes
   every check; after one count in its hist.csv is changed, exactly that op
   fails and failed_frac is 1/7.

Exits 0 when both hold, 1 otherwise. Takes about ten seconds.
"""

from __future__ import annotations

import shutil
import sys

import workloads as W
from run import Run


def check(condition: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def input_digest(workload: str, seed: int) -> tuple[str, list[str]]:
    run = Run(W.WORKLOADS[workload], seed, seconds=0, trace=False)
    run.dir.mkdir(parents=True)
    try:
        _, _, digest = run.setup()
        return digest, run.errors
    finally:
        shutil.rmtree(run.dir)


def main() -> int:
    failures: list[str] = []

    first, errors = input_digest("per_sample", 3)
    check(not errors, "repeated builds within one run agree", failures)
    again, _ = input_digest("per_sample", 3)
    check(first == again, "the same seed gives identical input digests", failures)
    other, _ = input_digest("per_sample", 4)
    check(first != other, "another seed gives other inputs", failures)

    run = Run(W.WORKLOADS["quickstart"], W.DEFAULT_SEED, seconds=0, trace=False)
    run.dir.mkdir(parents=True)
    try:
        inputs, setup_walls, _ = run.setup()
        passes = run.cli_passes(inputs)
        clean = run.check_cli(passes, inputs, setup_walls)
        check(clean["failed"] == 0 and clean["detail"]["failed_frac"] == 0.0,
              f"an untouched pass has no failures {clean['op_errors']}", failures)

        hist = run.dir / "pass0" / "hist.csv"
        lines = hist.read_text().splitlines()
        head, count = lines[-1].rsplit(",", 1)
        lines[-1] = f"{head},{int(count) + 1}"
        hist.write_text("\n".join(lines) + "\n")
        for ops in passes:
            for op, _, _ in ops:
                op.errors.clear()
        tampered = run.check_cli(passes, inputs, setup_walls)
        ops = len(W.WORKLOADS["quickstart"].ops)
        check(tampered["failed"] == 1 and tampered["detail"]["failed_frac"] == 1 / ops,
              f"a tampered hist.csv counts in failed_frac {tampered['op_errors']}", failures)
    finally:
        shutil.rmtree(run.dir)

    print("selftest " + ("passed" if not failures else f"FAILED: {len(failures)} check(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
