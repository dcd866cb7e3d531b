"""The benchmark's three fixed jobs.

A job is a fixed amount of work, so the parent and a change do the same
work; a run repeats its workload's job with seeds derived from the run
seed. ``build_spec`` is set-up (timed as ``setup_s``); ``run_job`` is the
timed job and returns what the user would get from it.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from coreqkd import cli, harness

KEYED_INTERCEPT_INI = """\
[experiment]
name = keyed-intercept
trials = 4
seed = {seed}

[session]
mode = keyed
n_blocks = 1000
control_key = 00011011
check_fraction = 0.5
error_threshold = 1.0

[eve]
kind = guess_core
"""

# Three session sizes in equal numbers, so the median session and the p90
# session each fall inside one size class; at least 64 blocks, so that a
# session sifts no block with probability < 1e-8.
BOOTSTRAP_SWEEP_INI = """\
[experiment]
name = bootstrap-sweep
trials = 4
seed = {seed}

[session]
mode = bootstrap
n_blocks = 64
check_fraction = 0.5
error_threshold = 0.1

[sweep]
noise = 0.0 0.05 0.1
n_blocks = 64 128 512
"""


@dataclass
class JobOutput:
    """Report rows and the report texts a job produced."""

    rows: list | None = None
    reports: dict | None = None
    parsed: dict | None = None


def _paper_table_spec(seed: int):
    return harness.BUILTIN_EXPERIMENTS["paper-table"](seed)


def _paper_table_job(spec, seed: int, workdir: str) -> JobOutput:
    out = os.path.join(workdir, "paper-table.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "paper-table", "--seed", str(seed), "--out", out])
    if code != 0:
        raise RuntimeError(f"coreqkd run paper-table exited with {code}")
    with open(out, encoding="utf-8") as handle:
        return JobOutput(reports={"csv": handle.read()})


def _keyed_intercept_spec(seed: int):
    return harness.parse_experiment_string(KEYED_INTERCEPT_INI.format(seed=seed))


def _keyed_intercept_job(spec, seed: int, workdir: str) -> JobOutput:
    return JobOutput(rows=harness.run_experiment(replace(spec, seed=seed)))


def _bootstrap_sweep_spec(seed: int):
    return harness.parse_experiment_string(BOOTSTRAP_SWEEP_INI.format(seed=seed))


def _bootstrap_sweep_job(spec, seed: int, workdir: str) -> JobOutput:
    spec = harness.parse_experiment_string(BOOTSTRAP_SWEEP_INI.format(seed=seed))
    rows = harness.run_experiment(spec)
    reports = {fmt: harness.emit_report(rows, fmt) for fmt in ("csv", "jsonl")}
    parsed = {fmt: harness.parse_report(text, fmt) for fmt, text in reports.items()}
    return JobOutput(rows=rows, reports=reports, parsed=parsed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build_spec: Callable
    run_job: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-table",
            "The user-facing headline table (clean, guess_core, bell_probe rows) and "
            "the only workload on the non-Clifford bell_probe path.",
            _paper_table_spec, _paper_table_job,
        ),
        Workload(
            "keyed-intercept",
            "Long keyed sessions under guess_core: two Bell measurements per pair make "
            "the per-pair engine cost dominant; largest transcripts; noise idle.",
            _keyed_intercept_spec, _keyed_intercept_job,
        ),
        Workload(
            "bootstrap-sweep",
            "Many short bootstrap sessions over a noise sweep: fixed per-session cost, "
            "75% sifting waste, the only noisy workload; Eve idle.",
            _bootstrap_sweep_spec, _bootstrap_sweep_job,
        ),
    )
}


def job_seed(seed: int, rep: int) -> int:
    """Master seed of the rep-th job of a run; distinct runs never share one."""
    return int(np.random.SeedSequence(seed, spawn_key=(rep,)).generate_state(1, np.uint32)[0])


def job_pairs(spec) -> int:
    """Pairs transmitted by one job: blocks x block size over all sessions."""
    return sum(p["n_blocks"] for p in harness._grid(spec)) * spec.session.block_size * spec.trials
