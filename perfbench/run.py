"""Benchmark of the coreqkd simulator.

Run from the repository root::

    python3 perfbench/run.py --workload keyed-intercept --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                     # every workload, untraced

Each workload runs in its own fresh worker process, one at a time, with
BLAS/OpenMP pinned to one thread. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics; the names, units and bounds
are those of ``BENCHMARK.json``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / "perfbench-out"
SETUP_SAMPLES = 4  # on each side of the worker
DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float) -> str:
    """Run a Python script of this directory to completion; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    return lines[-1]


def setup_samples(workload: str, seed: int, count: int, deadline: float) -> list[float]:
    """Seconds from process start to the workload's spec being built, per probe."""
    probe = str(HERE / "setup_probe.py")
    samples = []
    for _ in range(count):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = float(run_child([probe, workload, str(seed)], deadline - time.monotonic()))
        samples.append(ready - start)
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run one workload's worker; untraced runs also sample set-up time.

    Set-up is sampled before and after the worker, so that the median mixes
    two moments of the shared host. The first probe only compiles bytecode,
    as a user's first call would, and is not a sample.
    """
    samples: list[float] = []
    if not trace:
        samples = setup_samples(workload, seed, SETUP_SAMPLES + 1, deadline)[1:]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
        if trace:
            args += ["--spans", str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")]
        line = run_child(args, deadline - time.monotonic())
    result = json.loads(line)
    if not trace:
        samples += setup_samples(workload, seed, SETUP_SAMPLES, deadline)
        result["metrics"]["setup_s"] = statistics.median(samples)
        result["info"]["setup_samples_s"] = samples
    return result


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach the declared unit to each metric; every declared metric must be there."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise BenchError(f"worker metrics {sorted(set(values) ^ set(names))} do not match "
                         "BENCHMARK.json")
    return {name: {"value": values[name], "unit": m["unit"]} for name, m in
            zip(names, declared)}


def report(workload: str, result: dict, metrics: dict) -> None:
    info = result["info"]
    print(f"== {workload}: {result['attempted']} sessions attempted, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    if "sessions" in info:
        print(f"  session_tail_ms is p90 of {info['sessions']} sessions "
              f"({info['sessions_beyond_tail']} beyond it); {info['jobs']} jobs of "
              f"{info['pairs_per_job']} pairs; fail_rate {info['fail_rate']:.6g}")
        print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in info['setup_samples_s'])}")
    else:
        print(f"  last of {info['traced_jobs']} traced jobs: self times {info['last_self_s']:.6f} s"
              f" + unwrapped {info['last_unwrapped_s']:.6f} s = job {info['last_job_s']:.6f} s")
        print(f"  {info['spans']} spans written to {info['spans_file']}; no layer has a queue "
              "or pool, so none has a wait time")
    print(f"  machine: {json.dumps(info['machine'])}")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "coreqkd" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'coreqkd'}", file=sys.stderr)
        return 2

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in chosen:
            result = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            metrics = with_units(result["metrics"], declared)
            report(workload, result, metrics)
            combined["correct"] &= result["failed"] == 0 and not result["problems"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(chosen) == 1 else f"{workload}/"
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
