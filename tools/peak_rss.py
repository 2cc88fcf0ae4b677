"""Run one command in a child process and print its wall time and peak RSS.

    python3 tools/peak_rss.py -- COMMAND [ARG ...]

It prints one line, `wall <s> s  peak_rss <MB> MB  exit <code>`, where the
peak is the child's ru_maxrss as `os.wait4` reports it for that child alone
(KiB on Linux), divided by 1024 as perfbench's `peak_rss_mb` is. The
command's own output goes where this script's goes. The script exits with
the command's exit code, or 127 if the command cannot be started.

It imports neither numpy nor flexens and holds nothing large, because Linux
carries a parent's RSS high-water mark into the ru_maxrss of a child it
spawns (see perfbench/README.md, "Peak RSS is clean").
"""

from __future__ import annotations

import os
import subprocess
import sys
import time


def measure(argv: list[str]) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one run of argv."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024, proc.returncode


def main(argv: list[str]) -> int:
    command = argv[1:] if argv[:1] == ["--"] else argv
    if not command:
        print("usage: python3 tools/peak_rss.py -- COMMAND [ARG ...]", file=sys.stderr)
        return 2
    try:
        wall, rss_mb, code = measure(command)
    except OSError as err:  # the command could not be started
        print(f"error: {err}", file=sys.stderr)
        return 127
    print(f"wall {wall:.3f} s  peak_rss {rss_mb:.2f} MB  exit {code}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
