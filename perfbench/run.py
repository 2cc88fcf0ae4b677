"""flexens benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout; the program is the checkout's src/flexens.
With --trace 0 every op is a fresh process (the flexens CLI, or
persample.py), run one at a time by this runner in a closed loop with one
caller, repeating the workload's op sequence while another pass still fits
in T seconds. With --trace 1 the layers run in one process under spans
(layers.py). Either way every op's output is checked against a reference
computed by inputs.py, and the last stdout line is one JSON object: correct,
attempted, failed and the metrics named in BENCHMARK.json. Full results go
to .perfbench_results/<workload>-seed<N>-trace<0|1>.json; see README.md.

This runner imports neither numpy nor flexens, and builds inputs in child
processes, because Linux carries a parent's RSS high-water mark into the
ru_maxrss of a child it spawns: a large runner would inflate peak_rss_mb.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import workloads as W

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
PY = sys.executable
# Set-up repeats until both minimums are met (or SETUP_MAX builds), and
# setup_s is their median; cheap set-ups need more builds to be steady.
SETUP_MIN_BUILDS, SETUP_MIN_S, SETUP_MAX_BUILDS = 3, 2.0, 10
STARTUP_PROBES = 5
OP_TIMEOUT_S = 120

# Tree digests (see tree_digest) of `flexens gen --models 7 --samples 10000
# --classes 10 --seed S`, keyed by (samples, classes, seed): the README
# quickstart's two splits for the default seed.
PINNED_GEN = {
    (10_000, 10, 42): "5641c7db084bb2c30c6e3642f77025f29e7325a7c264a019b086ef5f461365f9",
    (10_000, 10, 43): "34aa72a28c5d046d9c9fa6f2e5d96c7466e027f25fa31ae67b78a92ec9a9a920",
}


class BenchError(Exception):
    """The benchmark cannot produce a result here (no program, broken set-up)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",  # every start-up compiles, whatever ran before
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass
class Op:
    """One finished child process."""

    name: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)
    probe_s: float = float("nan")  # host speed around the op, see probe()

    @property
    def wall_norm(self) -> float:
        return self.wall_s / self.probe_s


def spawn(name: str, argv: list, cwd: Path, log: Path) -> Op:
    """Run argv to completion, output to log.out/.err; rusage from wait4 on this child alone."""
    log.parent.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Op(
        name=name,
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def probe() -> float:
    """Seconds this host takes for a fixed pure-Python loop; the median of five.

    The host's speed drifts by up to 1.5x over tens of seconds, and an op's
    time follows the probe timed next to it (correlation 0.85 to 0.88 for
    gen, calibrate and run), so op time / probe time is the steady cost.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        s = 0
        for i in range(60_000):
            s = (s * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        times.append(time.perf_counter() - start)
    return median(times)


def tree_digest(path: Path) -> str:
    """sha256 of a file, or of the sorted (name, file sha256) list of a directory."""
    if path.is_file():
        digest = hashlib.sha256()
        with open(path, "rb") as f:  # in chunks, so the runner's RSS stays small
            while chunk := f.read(1 << 20):
                digest.update(chunk)
        return digest.hexdigest()
    lines = "".join(f"{p.name}\0{tree_digest(p)}\n" for p in sorted(path.iterdir()))
    return hashlib.sha256(lines.encode()).hexdigest()


def op_argv(op: str, workload: W.Workload, seed: int, inputs: Path) -> tuple[list, list[str]]:
    """The command line of one op, run in its pass directory, and the outputs it writes."""
    cli = [PY, "-m", "flexens.cli"]
    if workload.generated:
        train, evaluation = workload.splits  # written into the pass directory by gen
    else:
        train, evaluation = inputs / workload.splits[0], inputs / workload.splits[-1]
    schedule = W.SCHEDULE_NAME if workload.fixed_schedule is None else inputs / W.SCHEDULE_NAME
    if op in ("gen_train", "gen_eval"):
        split, gen_seed, samples = workload.gen_plan(seed, traced=False)[op == "gen_eval"]
        return cli + ["gen", "--models", W.NUM_MODELS, "--samples", samples, "--classes",
                      workload.classes, "--seed", gen_seed, "--out", split], [split]
    if op == "validate":
        return cli + ["validate", "--data", evaluation], []
    if op == "baseline":
        return cli + ["baseline", "--data", evaluation, "--out", "baseline.csv"], ["baseline.csv"]
    if op == "calibrate":
        return cli + ["calibrate", "--data", train, "--alpha", W.ALPHA, "--grid-step",
                      W.GRID_STEP, "--out", W.SCHEDULE_NAME], [W.SCHEDULE_NAME]
    if op == "run":
        return cli + ["run", "--data", evaluation, "--schedule", schedule,
                      "--out", "report.csv"], ["report.csv"]
    if op == "histogram":
        return cli + ["histogram", "--data", evaluation, "--ensemble-size", W.HIST_ENSEMBLE_SIZE,
                      "--bins", W.HIST_BINS, "--out", "hist.csv"], ["hist.csv"]
    if op == "per_sample":
        return [PY, BENCH / "persample.py", "--data", evaluation, "--schedule", schedule,
                "--out", "samples.txt"], ["samples.txt"]
    raise ValueError(op)


class Checker:
    """Compares outputs with the reference; datasets the program generated must
    match the first copy seen, the pinned digest, and the replayed stream."""

    def __init__(self, expected: dict, workload: W.Workload, gen_plan):
        self.expected = expected
        self.gen_keys = {name: (samples, workload.classes, seed)
                         for name, seed, samples in gen_plan}
        self.first_gen: dict[str, str] = {}

    def check(self, out_dir: Path, names) -> tuple[list[str], dict]:
        """(errors, digests) for the named outputs under out_dir."""
        errors, digests = [], {}
        for name in names:
            path = out_dir / name
            if not path.exists():
                errors.append(f"{name}: missing")
                continue
            digests[name] = digest = tree_digest(path)
            if name in self.expected["sha256"]:
                if digest != self.expected["sha256"][name]:
                    errors.append(f"{name}: sha256 {digest[:12]} differs from the reference")
            elif name == W.SCHEDULE_NAME:
                try:
                    doc = json.loads(path.read_text())
                    thresholds = doc["thresholds"]
                except (ValueError, KeyError, TypeError) as exc:
                    errors.append(f"{name}: unreadable schedule: {exc!r}")
                    continue
                if thresholds != self.expected["thresholds"]:
                    errors.append(f"{name}: thresholds {thresholds} differ from "
                                  f"{self.expected['thresholds']}")
                doc.pop("calibration_data", None)  # an absolute path, so not comparable
                digests[name] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
            elif name in self.gen_keys:
                first = self.first_gen.setdefault(name, digest)
                pinned = PINNED_GEN.get(self.gen_keys[name])
                if digest != first or (pinned is not None and digest != pinned):
                    errors.append(f"{name}: generated dataset digest {digest[:12]} differs")
                errors += [e for e in self.expected["gen_errors"] if e.startswith(f"{name}:")]
            else:
                raise ValueError(f"no check for output {name}")
        return errors, digests


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    def __init__(self, workload: W.Workload, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        name = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.dir = ROOT / ".perfbench_work" / name
        self.errors: list[str] = []  # failures not tied to one op
        self.spawned = 0

    def spawn(self, name: str, argv: list, cwd: Path | None = None) -> Op:
        self.spawned += 1
        return spawn(name, argv, cwd or self.dir, self.dir / "logs" / f"{self.spawned:04d}-{name}")

    def require(self, op: Op) -> Op:
        if op.rc != 0:
            raise BenchError(f"{op.name} exited {op.rc}: {op.stderr.strip()[-2000:]}")
        return op

    def setup(self) -> tuple[Path, list[float], str]:
        """Build the inputs (repeatedly when timing set-up); same seed, same bytes."""
        walls, digests = [], set()
        while not walls or not self.trace and len(walls) < SETUP_MAX_BUILDS and (
                len(walls) < SETUP_MIN_BUILDS or sum(walls) < SETUP_MIN_S):
            i = len(walls)
            out = self.dir / f"inputs{i}"
            op = self.require(self.spawn("setup", [PY, BENCH / "inputs.py", "build", "--workload",
                                                   self.workload.name, "--seed", self.seed,
                                                   "--out", out]))
            walls.append(op.wall_s)
            digests.add(tree_digest(out))
            if i:
                shutil.rmtree(out)
        if len(digests) != 1:
            self.errors.append("the same seed built different inputs")
        return self.dir / "inputs0", walls, digests.pop()

    def expect(self, data: Path, generated: Path | None) -> dict:
        path = self.dir / "expected.json"
        argv = [PY, BENCH / "inputs.py", "expect", "--workload", self.workload.name, "--seed",
                self.seed, "--data", data, "--trace", int(self.trace), "--out", path]
        if generated is not None:
            argv += ["--generated", generated]
        self.require(self.spawn("expect", argv))
        return json.loads(path.read_text())

    def cli_passes(self, inputs: Path) -> list[list[tuple[Op, Path, list[str]]]]:
        passes, walls = [], []
        started = time.perf_counter()
        before = probe()
        while W.another_pass(started, walls, self.seconds):
            pass_dir = self.dir / f"pass{len(passes)}"
            pass_dir.mkdir()
            begin = time.perf_counter()
            ops = []
            for name in self.workload.ops:
                argv, outputs = op_argv(name, self.workload, self.seed, inputs)
                op = self.spawn(name, argv, pass_dir)
                after = probe()
                op.probe_s = (before + after) / 2
                before = after
                ops.append((op, pass_dir, outputs))
            walls.append(time.perf_counter() - begin)
            passes.append(ops)
        return passes

    def measure(self) -> dict:
        self.dir.mkdir(parents=True)
        warm = self.spawn("warmup", [PY, "-c",
                                     "import flexens.cli, numpy; print(numpy.__version__)"])
        if warm.rc != 0:
            raise BenchError(f"cannot import flexens from {ROOT / 'src'}: "
                             f"{warm.stderr.strip()[-2000:]}")
        inputs, setup_walls, input_digest = self.setup()
        result = {
            "workload": self.workload.name, "seed": self.seed, "trace": int(self.trace),
            "environment": {**environment(), "numpy": warm.stdout.strip()},
            "input_sha256": input_digest,
        }
        if self.trace:
            result.update(self.measure_layers(inputs))
        else:
            result.update(self.measure_cli(inputs, setup_walls))
        result["errors"] = self.errors
        result["correct"] = result["failed"] == 0 and not self.errors
        # stays small, so it adds nothing to the children's ru_maxrss (see module doc)
        result["runner_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result

    def measure_cli(self, inputs: Path, setup_walls: list[float]) -> dict:
        return self.check_cli(self.cli_passes(inputs), inputs, setup_walls)

    def check_cli(self, passes, inputs: Path, setup_walls: list[float]) -> dict:
        """Check every op of every pass against the reference, then reduce to metrics."""
        wl = self.workload
        generated = self.dir / "pass0" if wl.generated else None
        expected = self.expect(generated or inputs, generated)
        checker = Checker(expected, wl, wl.gen_plan(self.seed, traced=False))
        digests = {}
        for ops in passes:
            for op, pass_dir, outputs in ops:
                if op.rc != 0:
                    op.errors.append(f"exit {op.rc}: {op.stderr.strip()[-500:]}")
                errors, op_digests = checker.check(pass_dir, outputs)
                op.errors += errors
                digests.update(op_digests)
                stdout_lines = op.stdout.splitlines()
                op.errors += [f"stdout lacks {line!r}"
                              for line in expected["stdout"].get(op.name, [])
                              if line not in stdout_lines]

        ops = [op for p in passes for op, _, _ in p]
        failed = sum(bool(op.errors) for op in ops)

        def per_op(field: str, op_names=wl.ops) -> float:
            """Sum over the named ops of each op's median over passes."""
            return sum(median(getattr(op, field) for op in ops if op.name == name)
                       for name in op_names)

        metrics = {
            "setup_s": median(setup_walls),
            "wall_norm": per_op("wall_norm"),
            "peak_rss_mb": max(median(op.rss_mb for op in ops if op.name == name)
                               for name in wl.ops),
        }
        detail = {
            "wall_s": per_op("wall_s"),
            "cpu_s": per_op("cpu_s"),
            "probe_ms": median(op.probe_s for op in ops) * 1e3,
            "failed_frac": failed / len(ops),
        }
        for kind, op_names in (("gen_s", ("gen_train", "gen_eval")), ("validate_s", ("validate",)),
                               ("calibrate_s", ("calibrate",)), ("run_s", ("run",)),
                               ("baseline_s", ("baseline",)), ("histogram_s", ("histogram",))):
            if set(op_names) <= set(wl.ops):
                detail[kind] = per_op("wall_s", op_names)
        if "per_sample" in wl.ops:
            stats = [json.loads(op.stdout.splitlines()[-1]) for op in ops if not op.errors]
            for key in ("sample_p50_us", "sample_p99_us", "samples_per_s"):
                detail[key] = median(s[key] for s in stats) if stats else float("nan")
        return {
            "passes": len(passes), "attempted": len(ops), "failed": failed,
            "pass_wall_s": [sum(op.wall_s for op, _, _ in p) for p in passes],
            "ops": [[op.name, op.wall_s, op.cpu_s, op.rss_mb, op.probe_s] for op in ops],
            "metrics": metrics, "detail": detail, "output_sha256": digests,
            "counts": expected["counts"],
            "op_errors": [f"{op.name}: {e}" for op in ops for e in op.errors],
        }

    def measure_layers(self, inputs: Path) -> dict:
        wl = self.workload
        startup = [self.require(self.spawn("startup", [PY, "-c", "import flexens.cli"])).wall_s
                   for _ in range(STARTUP_PROBES)]
        out = self.dir / "layers"
        child = self.require(self.spawn("layers", [
            PY, BENCH / "layers.py", "--workload", wl.name, "--seed", self.seed,
            "--data", inputs, "--out", out, "--seconds", self.seconds]))
        report = json.loads(child.stdout.splitlines()[-1])
        generated = out / "pass0"
        expected = self.expect(generated if wl.generated else inputs, generated)
        checker = Checker(expected, wl, wl.gen_plan(self.seed, traced=True))
        names = ["report.csv", "baseline.csv", "hist.csv", W.SCHEDULE_NAME]
        names += [name for name, _, _ in wl.gen_plan(self.seed, traced=True)]
        pass_errors, digests = [], {}
        for i in range(report["passes"]):
            errors, pass_digests = checker.check(out / f"pass{i}", names)
            pass_errors.append(errors)
            digests.update(pass_digests)
        metrics = {"cli.startup_s": median(startup), **report["metrics"]}
        counts = expected["counts"]
        measured = [metrics[f"cascade_engine.exits_k{k}"] for k in range(1, W.NUM_MODELS + 1)]
        if measured != counts["exits"]:
            pass_errors[-1].append(f"exit counts {measured} != reference {counts['exits']}")
        if metrics["cascade_engine.saturated_margins"] != counts["saturated_margins"]:
            pass_errors[-1].append("saturated margin count differs from the reference")
        shutil.copyfile(out / "spans.json", results_path(wl.name, self.seed, True, "-spans"))
        return {
            "passes": report["passes"], "attempted": report["passes"],
            "failed": sum(bool(e) for e in pass_errors), "metrics": metrics,
            "output_sha256": digests, "counts": counts,
            "op_errors": [f"pass{i}: {e}" for i, errs in enumerate(pass_errors) for e in errs],
        }


def detail_unit(name: str) -> str:
    """Unit of a reported, ungated metric, from its name's suffix."""
    for suffix, unit in (("per_s", "1/s"), ("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def results_path(workload: str, seed: int, trace: bool, suffix: str = "") -> Path:
    path = ROOT / ".perfbench_results" / f"{workload}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.parent.mkdir(exist_ok=True)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)
    # SystemExit unwinds through spawn, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "flexens" / "cli.py").is_file():
            raise BenchError(f"no flexens program under {ROOT / 'src'}")
        run = Run(W.WORKLOADS[args.workload], args.seed, args.seconds, trace)
        try:
            result = run.measure()
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    results_path(args.workload, args.seed, trace).write_text(json.dumps(result, indent=1) + "\n")

    env = result["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['passes']} attempted={result['attempted']} failed={result['failed']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result.get("detail", {}).items():
        print(f"  {name:40s} {value:>16.6g} {detail_unit(name)} (not gated)")
    print("counts: " + json.dumps(result["counts"]))
    for name, digest in sorted(result["output_sha256"].items()):
        print(f"sha256 {digest} {name}")
    for error in result["errors"] + result["op_errors"]:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
