"""Runs one workload in a fresh process and prints its result as one JSON line.

Started by ``run.py`` with the simulator's ``src`` on ``PYTHONPATH``; not
meant to be run by hand. Untraced runs (``--trace 0``) time whole jobs and
every session; traced runs alternate an untraced and a traced job on the
same seed and report per-layer spans and counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import coreqkd
from coreqkd import harness

import gate
import spans
import workloads

MIN_JOBS = 2
TAIL_PERCENTILE = 90.0
MAX_PROBLEMS = 20


@dataclass
class JobRecord:
    seconds: float
    session_s: list[float]
    attempted: int
    failed: int
    problems: list[str]
    recorder: spans.Recorder | None = None


@dataclass
class Runner:
    workload: workloads.Workload
    spec: object
    workdir: str
    grid: list[dict] = field(init=False)

    def __post_init__(self) -> None:
        self.grid = harness._grid(self.spec)

    def run_job(self, seed: int, recorder: spans.Recorder | None = None) -> JobRecord:
        """Run the job once; gate every session and the job's reports.

        Gate time is taken off the job time. When tracing, the gate wraps the
        traced ``run_trial`` so its work stays outside every span.
        """
        block_size = self.spec.session.block_size
        session_s: list[float] = []
        problems: list[str] = []
        passed = 0
        gate_s = 0.0
        restore = spans.install(recorder) if recorder is not None else None
        run_trial = harness.run_trial

        def gated(spec, point, point_index, trial_index):
            nonlocal passed, gate_s
            where = f"cell {point_index} trial {trial_index}"
            start = time.perf_counter()
            try:
                transcript = run_trial(spec, point, point_index, trial_index)
            except Exception as exc:
                problems.append(f"{where}: {type(exc).__name__}: {exc}")
                raise
            done = time.perf_counter()
            session_s.append(done - start)
            found = gate.check_session(point, block_size, transcript)
            problems.extend(f"{where}: {p}" for p in found)
            passed += not found
            gate_s += time.perf_counter() - done
            return transcript

        harness.run_trial = gated
        output = None
        start = time.perf_counter()
        try:
            output = self.workload.run_job(self.spec, seed, self.workdir)
        except Exception as exc:
            problems.append(f"job: {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            harness.run_trial = run_trial
            if restore is not None:
                restore()
        job_problems = self.verify(output) if output is not None else ["job produced no report"]
        attempted = len(self.grid) * self.spec.trials
        failed = attempted if job_problems else attempted - passed
        return JobRecord(elapsed - gate_s, session_s, attempted, failed,
                         problems + job_problems, recorder)

    def verify(self, output: workloads.JobOutput) -> list[str]:
        emit, parse = harness.emit_report, harness.parse_report
        rows, problems = output.rows, []
        for fmt, text in (output.reports or {}).items():
            parsed, found = gate.check_report_text(text, fmt, emit, parse)
            problems += found
            if rows is None:
                rows = parsed
            elif parsed != rows:
                problems.append(f"written {fmt} report differs from the returned rows")
        for fmt, parsed in (output.parsed or {}).items():
            if parsed != rows:
                problems.append(f"parse_report(emit_report(rows), {fmt!r}) != rows")
        if rows is None:
            return problems + ["job produced no rows"]
        session = self.spec.session
        return (problems + gate.check_round_trip(rows, emit, parse)
                + gate.check_rows(rows, self.spec.name, self.grid, self.spec.trials,
                                  session.block_size, session.check_fraction, session.mode))


def _totals(jobs: list[JobRecord]) -> dict:
    problems = [p for job in jobs for p in job.problems]
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    return {"attempted": attempted, "failed": failed, "problems": problems[:MAX_PROBLEMS]}


def timed_run(runner: Runner, seed: int, seconds: float) -> dict:
    """Repeat the job on fresh seeds while another job fits in the time budget."""
    jobs: list[JobRecord] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        job_start = time.perf_counter()
        jobs.append(runner.run_job(workloads.job_seed(seed, len(jobs))))
        walls.append(time.perf_counter() - job_start)
        elapsed = time.perf_counter() - start
        if len(jobs) >= MIN_JOBS and elapsed + statistics.median(walls) > seconds:
            break
    sessions = np.array([s for job in jobs for s in job.session_s])
    if not sessions.size:
        raise SystemExit("no session completed, so there is no session time to report")
    tail = float(np.percentile(sessions, TAIL_PERCENTILE))
    pairs = workloads.job_pairs(runner.spec)
    totals = _totals(jobs)
    metrics = {
        "pairs_per_s": pairs / statistics.median(job.seconds for job in jobs),
        "session_p50_ms": float(np.median(sessions)) * 1e3,
        "session_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_rate": 1.0 - totals["failed"] / totals["attempted"],
    }
    info = {
        "jobs": len(jobs),
        "pairs_per_job": pairs,
        "sessions": int(sessions.size),
        "sessions_beyond_tail": int((sessions > tail).sum()),
        "fail_rate": totals["failed"] / totals["attempted"],
    }
    return {**totals, "metrics": metrics, "info": info}


def transcript_bytes_per_pair(runner: Runner, seed: int) -> float:
    """Bytes the transcript of the job's largest session holds, per pair.

    Measured with ``tracemalloc`` around one session, after a warm-up run of
    the same session. Collecting garbage on both sides keeps the count to
    what the transcript holds, whenever the collector would have run. Free
    lists are not traced, so the figure repeats only from the same process
    state.
    """
    spec = replace(runner.spec, seed=seed)
    index, point = max(enumerate(runner.grid), key=lambda ip: ip[1]["n_blocks"])
    harness.run_trial(spec, point, index, 0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        transcript = harness.run_trial(spec, point, index, 0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(transcript.records)


def traced_run(runner: Runner, seed: int, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced jobs on one seed; report spans and counts."""
    seed = workloads.job_seed(seed, 0)
    # First, while the process is fresh: the allocator's free lists then make
    # the same figure for the same seed on every run.
    transcript_bytes = transcript_bytes_per_pair(runner, seed)
    plain: list[JobRecord] = []
    traced: list[JobRecord] = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain.append(runner.run_job(seed))
        traced.append(runner.run_job(seed, spans.Recorder()))
        pair_s = time.perf_counter() - pair_start
        if len(traced) >= MIN_JOBS and time.perf_counter() - start + pair_s > seconds:
            break
    totals = _totals(plain + traced)
    per_job = []
    for job in traced:
        rec = job.recorder
        layer = spans.layer_metrics(rec)
        layer["trace.job_s"] = job.seconds
        layer["trace.unwrapped_s"] = job.seconds - rec.root_seconds()
        if rec.nesting_faults():
            totals["problems"].append(f"{rec.nesting_faults()} spans outside their parent")
        per_job.append(layer)
    counts = [{k: v for k, v in layer.items() if not k.endswith(("_s", ".per_s"))}
              for layer in per_job]
    if any(c != counts[0] for c in counts[1:]):
        changed = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        totals["problems"].append(f"counts differ between traced runs of one seed: {changed}")
    metrics = {k: statistics.median(layer[k] for layer in per_job) for k in per_job[0]}
    metrics.update(counts[0])
    metrics["protocol.transcript_bytes_per_pair"] = transcript_bytes
    metrics["trace.overhead_ratio"] = (
        statistics.median(j.seconds for j in traced) / statistics.median(j.seconds for j in plain)
    )
    traced[-1].recorder.write(spans_path)
    correct = not totals["problems"]
    if not correct and totals["failed"] == 0:
        totals["failed"] = totals["attempted"]
    last = traced[-1]
    info = {"traced_jobs": len(traced), "spans": len(last.recorder.spans),
            "spans_file": spans_path, "last_job_s": last.seconds,
            "last_self_s": sum(v["self_s"] for v in last.recorder.summary().values()),
            "last_unwrapped_s": per_job[-1]["trace.unwrapped_s"]}
    return {**totals, "metrics": metrics, "info": info}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(coreqkd.__file__).resolve().parents:
        print(f"coreqkd was imported from {coreqkd.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, workload.build_spec(args.seed), args.workdir)
    if args.trace:
        result = traced_run(runner, args.seed, args.seconds, args.spans)
    else:
        result = timed_run(runner, args.seed, args.seconds)
    result["info"]["machine"] = machine()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
