"""Tests of the benchmark itself: span arithmetic, the gate and failure counting.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from coreqkd import harness  # noqa: E402
from coreqkd.adversary import _enumerate_attack_branches, exact_guess_attack_pair_errors  # noqa: E402
from coreqkd.protocol import SessionConfig, run_keyed_session  # noqa: E402
from coreqkd.quantum import BellState, bell_outcome_probabilities, bell_state, tensor  # noqa: E402
from coreqkd.rearrange import ControlKey, CoreOpSet, apply_core, invert_core  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY_INI = """\
[experiment]
name = tiny
trials = 2
seed = {seed}
[session]
n_blocks = 40
control_key = 00011011
error_threshold = 1.0
[eve]
kind = guess_core
"""


# -- span recorder -----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def leaf():
        clock.now += 3

    def inner():
        clock.now += 2
        leaf_w()

    def outer():
        clock.now += 1
        inner_w()
        clock.now += 4
        leaf_w()

    leaf_w = rec.wrap("leaf", leaf)
    inner_w = rec.wrap("inner", inner)
    rec.wrap("outer", outer)()
    clock.now += 10  # untraced time between roots
    leaf_w()

    s = rec.summary()
    assert s["outer"] == {"calls": 1, "total_s": 13.0, "self_s": 5.0, "errors": 0}
    assert s["inner"] == {"calls": 1, "total_s": 5.0, "self_s": 2.0, "errors": 0}
    assert s["leaf"] == {"calls": 3, "total_s": 9.0, "self_s": 9.0, "errors": 0}
    assert [parent for *_, parent in rec.spans] == [-1, 0, 1, 0, -1]
    assert rec.root_seconds() == 16.0 == sum(v["self_s"] for v in s.values())
    assert rec.nesting_faults() == 0


def test_escaping_exception_closes_its_span_and_counts_as_error():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def boom():
        clock.now += 1
        raise KeyError("x")

    boom_w = rec.wrap("boom", boom)
    with pytest.raises(KeyError):
        rec.wrap("outer", boom_w)()
    rec.wrap("after", lambda: None)()
    s = rec.summary()
    assert s["boom"]["errors"] == 1 and s["outer"]["errors"] == 1
    assert s["boom"]["total_s"] == 1.0 and s["outer"]["self_s"] == 0.0
    assert rec.spans[-1][3] == -1  # the stack unwound


def test_install_wraps_caller_bindings_and_restores_them():
    from coreqkd import adversary, protocol

    before = (protocol.bell_measure, adversary.bell_measure)
    restore = spans.install(spans.Recorder())
    assert protocol.bell_measure is not before[0]
    assert adversary.bell_measure is not before[1]
    assert protocol.bell_measure is not adversary.bell_measure
    restore()
    assert (protocol.bell_measure, adversary.bell_measure) == before


# -- gate closed forms ---------------------------------------------------------

def test_gate_values_match_closed_forms():
    assert gate.GUESS_CHECKED_ERROR == 9 / 16
    assert gate.GUESS_WRONG_ERROR == 3 / 4
    assert gate.BOOTSTRAP_SIFT == 1 / 4
    assert gate.PROBE_MEAN == 0.0
    assert gate.noisy_pair_error(0.0) == 0.0
    assert gate.noisy_pair_error(0.1) == pytest.approx(0.1425, abs=1e-15)
    for p in (0.05, 0.3, 0.9):
        assert gate.noisy_pair_error(p) == pytest.approx(
            1 - (1 - 3 * p / 4) ** 2 - 3 * (p / 4) ** 2, abs=1e-15
        )
    assert gate.GUESS_JOINT_ERROR == pytest.approx(7 / 16, abs=1e-15)
    assert gate.GUESS_WRONG_JOINT_ERROR == pytest.approx(7 / 12, abs=1e-15)


def test_five_sigma_tolerance():
    assert gate.tolerance(0.25, 100) == pytest.approx(5 * np.sqrt(0.25 * 0.75 / 100))
    assert gate.tolerance(0.25, 100, 4.0) == pytest.approx(2 * gate.tolerance(0.25, 100))


def test_guess_core_errors_match_exact_enumeration():
    """Joint error law of two pairs of one block, from exact Born probabilities."""
    rng = np.random.default_rng(5)
    symbols = [BellState(int(v)) for v in rng.integers(0, 4, size=4)]
    op_set = CoreOpSet.cyclic()
    true_op = op_set[1]
    upper, base = (0, 2, 4, 6), (1, 3, 5, 7)
    lower = apply_core(true_op, base)
    bob_duos = list(zip(upper, invert_core(true_op, lower)))
    marginal, joint = [], []
    for guess in op_set:
        eve = _enumerate_attack_branches(
            tensor(*(bell_state(s) for s in symbols)), list(zip(upper, invert_core(guess, lower)))
        )
        err = np.zeros(4)
        both = np.zeros((4, 4))
        for w_eve, state in eve:
            for w_bob, final in _enumerate_attack_branches(state, bob_duos):
                wrong = np.array([
                    bell_outcome_probabilities(final, qa, qb)[s.value] < 0.5
                    for (qa, qb), s in zip(bob_duos, symbols)
                ])
                err += w_eve * w_bob * wrong
                both += w_eve * w_bob * np.outer(wrong, wrong)
        np.testing.assert_allclose(err, exact_guess_attack_pair_errors(symbols, true_op, guess),
                                   atol=1e-12)
        marginal.append(err.mean())
        joint.append(np.mean([both[i, j] for i, j in itertools.combinations(range(4), 2)]))
    wrong_guesses = [g.index != true_op.index for g in op_set]
    assert np.mean(marginal) == pytest.approx(gate.GUESS_CHECKED_ERROR, abs=1e-12)
    assert np.mean(joint) == pytest.approx(gate.GUESS_JOINT_ERROR, abs=1e-12)
    assert np.mean(np.array(joint)[wrong_guesses]) == pytest.approx(
        gate.GUESS_WRONG_JOINT_ERROR, abs=1e-12
    )


# -- failures are counted ----------------------------------------------------------

def _clean_transcript():
    cfg = SessionConfig(n_blocks=20, control_key=ControlKey.from_indices([0, 1, 2, 3]), seed=3)
    return run_keyed_session(cfg)


def test_clean_session_passes_and_one_wrong_pair_fails():
    point = {"eve": "none", "noise": 0.0, "n_blocks": 20}
    transcript = _clean_transcript()
    assert gate.check_session(point, 4, transcript) == []
    records = list(transcript.records)
    flipped = BellState((records[5].prepared.value + 1) % 4)
    records[5] = replace(records[5], measured=flipped)
    bad = replace(transcript, records=tuple(records))
    assert any("measured wrong" in p for p in gate.check_session(point, 4, bad))


def _tiny_runner(job=None) -> worker.Runner:
    def build(seed):
        return harness.parse_experiment_string(TINY_INI.format(seed=seed))

    def run(spec, seed, workdir):
        return workloads.JobOutput(rows=harness.run_experiment(replace(spec, seed=seed)))

    wl = workloads.Workload("tiny", "", build, job or run)
    return worker.Runner(wl, build(1), ".")


def test_out_of_tolerance_row_is_flagged():
    runner = _tiny_runner()
    rows = harness.run_experiment(runner.spec)
    session = runner.spec.session
    args = ("tiny", runner.grid, 2, 4, session.check_fraction, session.mode)
    assert gate.check_rows(rows, *args) == []
    skewed = [replace(rows[0], mean_error_rate=0.2)]
    assert any("checked error" in p for p in gate.check_rows(skewed, *args))


def test_correct_job_passes_every_session():
    job = _tiny_runner().run_job(7)
    assert (job.attempted, job.failed, job.problems) == (2, 0, [])
    assert len(job.session_s) == 2 and job.seconds > 0


def test_tampered_report_fails_every_session_of_the_job():
    def tampered(spec, seed, workdir):
        rows = harness.run_experiment(replace(spec, seed=seed))
        text = harness.emit_report(rows, "csv").replace("\ntiny,", "\ntinY,", 1)
        return workloads.JobOutput(rows=rows, reports={"csv": text})

    job = _tiny_runner(tampered).run_job(7)
    assert job.failed == job.attempted == 2
    assert any("differs from the returned rows" in p for p in job.problems)


def test_session_exception_is_logged_and_counted(monkeypatch):
    def broken(*args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(harness, "run_trial", broken)
    job = _tiny_runner().run_job(7)
    assert job.failed == job.attempted == 2
    assert any("RuntimeError: engine fault" in p for p in job.problems)


def test_traced_counts_repeat_exactly_for_one_seed():
    runner = _tiny_runner()
    counts = []
    for _ in range(2):
        job = runner.run_job(11, spans.Recorder())
        assert job.failed == 0
        layer = spans.layer_metrics(job.recorder)
        counts.append({k: v for k, v in layer.items() if not k.endswith(("_s", ".per_s"))})
        assert job.recorder.nesting_faults() == 0
    assert counts[0] == counts[1]
    assert counts[0]["quantum.bell_measure.bob.calls"] == 2 * 40 * 4
    assert counts[0]["quantum.bell_measure.eve.calls"] == 2 * 40 * 4
    assert counts[0]["protocol.check.pairs"] == 2 * 80
    assert counts[0]["protocol.sift_ratio"] == 1.0
