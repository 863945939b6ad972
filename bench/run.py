#!/usr/bin/env python3
"""matchbench benchmark: one workload, closed loop, one JSON result line.

    python3 bench/run.py --workload {sweep,oracle,pipeline} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: it imports matchbench from ``src/``
beside this directory and drives it in this process through
``matchbench.cli.main(argv)`` and the public library functions. Inputs are
generated from ``--seed``; the workload's operations repeat in cycles
while at least half a cycle still fits in ``--seconds`` (at least one
cycle). Output checks run
outside the timed regions.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced cycle and then two cycles with every layer function wrapped, and
reports the per-layer metrics; counts must repeat exactly between the two
traced cycles. Human-readable lines come first; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import layers
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOADS = ("sweep", "oracle", "pipeline")
SETUP_REPEATS = 5
TRACED_CYCLES = 2
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import matchbench.cli; print(time.perf_counter() - t)"
)


@dataclass
class OpResult:
    name: str
    elapsed_s: float
    status: str  # "ok", "error" or "deadline"
    problems: list[str] = field(default_factory=list)
    summary: object = None

    @property
    def failed(self) -> bool:
        return self.status == "error" or bool(self.problems)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time ``import matchbench.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing matchbench failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout)


def openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        # the default size of the `matchbench benchmark` thread pool
        "pool_workers": min(4, nproc),
    }


def tree_digest(path: Path) -> dict[str, str]:
    if not path.is_dir():
        return {}
    return {
        str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*")) if f.is_file()
    }


def run_op(op, cycle_dir: Path, tracer, check: bool) -> OpResult:
    captured = io.StringIO()
    status, value, problems = "ok", None, []
    if tracer is not None:
        tracer.reset()
    with redirect_stdout(captured), redirect_stderr(captured):
        start = time.perf_counter()
        try:
            if op.deadline_s is None:
                value = op.run(cycle_dir)
            else:
                with spans.deadline(op.deadline_s):
                    value = op.run(cycle_dir)
        except spans.DeadlineExceeded:
            status = "deadline"
        except Exception as exc:
            status = "error"
            problems.append(f"{type(exc).__name__}: {exc}; output: {captured.getvalue()[-400:]!r}")
        elapsed = time.perf_counter() - start
    summary = None
    if tracer is not None:
        summary = spans.summarize(tracer.spans, start + elapsed, layers.FIRST_TASK_SPAN)
        tracer.reset()
    if status == "ok" and check:
        try:
            problems += op.check(cycle_dir, value)
        except Exception as exc:
            problems.append(f"output check raised {type(exc).__name__}: {exc}")
    return OpResult(op.name, elapsed, status, problems, summary)


def run_cycles(ops, run_dir: Path, seconds: float, trace: bool):
    """Run the workload in cycles; return one list of OpResult per cycle and,
    per cycle, whether it was traced."""
    tracer = spans.Tracer() if trace else None
    cycles, traced, first_digest = [], [], {}
    started = time.perf_counter()
    try:
        while True:
            is_traced = trace and len(cycles) > 0
            if is_traced and not any(traced):
                tracer.install("matchbench", layers.TARGETS)
            cycle_dir = run_dir / f"cycle{len(cycles)}"
            cycle_dir.mkdir()
            cycle_started = time.perf_counter()
            results = []
            for op in ops:
                # later cycles repeat the inputs, so equal output hashes
                # carry the first cycle's check over
                first = op.name not in first_digest
                result = run_op(op, cycle_dir, tracer if is_traced else None, check=first)
                if result.status == "ok":
                    digest = tree_digest(cycle_dir / op.name)
                    if first_digest.setdefault(op.name, digest) != digest:
                        result.problems.append("output files differ from the first cycle's at the same seed")
                results.append(result)
            shutil.rmtree(cycle_dir)
            cycles.append(results)
            traced.append(is_traced)
            elapsed = time.perf_counter() - started
            last = time.perf_counter() - cycle_started
            if trace:
                if len(cycles) == 1 + TRACED_CYCLES:
                    break
            elif elapsed + last / 2 > seconds:
                # start another cycle only if at least half of it fits
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cycles, traced


def cycle_wall(results) -> float:
    return sum(r.elapsed_s for r in results)


def report(args, machine, setup_s, cycles, traced) -> dict:
    print("machine: " + json.dumps(machine))
    attempted = sum(len(c) for c in cycles)
    failed = sum(r.failed for c in cycles for r in c)
    missed = [r for c in cycles for r in c if r.status == "deadline"]
    for r in (r for c in cycles for r in c):
        for problem in r.problems:
            print(f"FAILED {r.name}: {problem}")
    names = [r.name for r in cycles[0]]
    untraced = [c for c, t in zip(cycles, traced) if not t]
    print(f"workload {args.workload}, seed {args.seed}: {len(cycles)} cycle(s), "
          f"{sum(traced)} traced; per-operation medians over {len(untraced)} untraced cycle(s):")
    for i, name in enumerate(names):
        times = [c[i].elapsed_s for c in untraced]
        statuses = sorted({c[i].status for c in cycles})
        print(f"  {name}_s = {statistics.median(times):.4f} s  ({'/'.join(statuses)}; "
              f"cycles {', '.join(f'{t:.3f}' for t in times)})")
    print(f"  fail_ratio = {(failed + len(missed)) / attempted:.4f} ratio  "
          f"({failed} failed and {len(missed)} missed the deadline, of {attempted} operations)")
    for r in missed[:1]:
        print(f"  deadline: {r.name} was stopped after {r.elapsed_s:.3f} s")

    mismatches = []
    if args.trace:
        traced_cycles = [c for c, t in zip(cycles, traced) if t]
        per_cycle = [
            layers.cycle_metrics([(r.summary, r.elapsed_s, r.status == "deadline") for r in c])
            for c in traced_cycles
        ]
        overhead = (statistics.median(map(cycle_wall, traced_cycles))
                    / statistics.median(map(cycle_wall, untraced)) - 1.0)
        metrics, mismatches = layers.per_layer_metrics(per_cycle, overhead)
        for mismatch in mismatches:
            print(f"COUNT MISMATCH between traced cycles: {mismatch}")
        for i, name in enumerate(names):
            if traced_cycles[0][i].summary.root_name == layers.COMMAND_SPAN:
                share = statistics.median(layers.coverage(c[i].summary, c[i].elapsed_s) for c in traced_cycles)
                print(f"  coverage of {name}: {share:.4f}")
    else:
        values = {
            "wall_s": sum(statistics.median(c[i].elapsed_s for c in cycles) for i in range(len(names))),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0 and not mismatches, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matchbench" / "cli.py").is_file():
        print(f"bench: no matchbench sources at {SRC}", file=sys.stderr)
        return 2
    # the benchmark thread pool keeps its default size
    os.environ.pop("MATCHBENCH_THREADS", None)
    try:
        import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matchbench

    if Path(matchbench.__file__).resolve().parent != SRC / "matchbench":
        print(f"bench: imported matchbench from {matchbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        generate_times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            ops = workloads.build(args.workload, args.seed, run_dir / "inputs")
            generate_times.append(time.perf_counter() - started)
        setup_s = statistics.median(import_times) + statistics.median(generate_times)
        cycles, traced = run_cycles(ops, run_dir, args.seconds, bool(args.trace))
        result = report(args, machine_info(), setup_s, cycles, traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
