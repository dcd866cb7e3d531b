"""Verification suite: the protocol's security quantities, checked end to end.

Each criterion is a self-contained check with fixed seeds and pinned
tolerances; ``run_all`` prints one pass/fail line per criterion and is what
the ``selftest`` CLI subcommand executes. The same criteria back the pytest
acceptance tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversary import EveStrategy, exact_guess_attack_pair_errors, probe_tables
from .harness import emit_report, paper_table, run_experiment
from .protocol import (
    SessionConfig,
    extract_raw_key,
    guess_probability,
    run_bootstrap_session,
    run_keyed_session,
)
from .quantum import (
    BellState,
    bell_state,
    computational_state,
    expectation,
    correlation_operator,
    mismatched_pair_density,
    random_direction,
)
from .rearrange import (
    ControlKey,
    CoreOpSet,
    DeviceModel,
    SwitchSchedule,
    DOWN,
    PASS_TRIPLE,
    UP,
    perm_to_schedule,
    schedule_to_perm,
)


@dataclass
class CriterionResult:
    ident: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.ident}: {self.title}  [{self.seconds:.2f}s]  {self.detail}"


def _closed_form_correlation(a, b) -> np.ndarray:
    """Entrywise closed form of the correlation observable, written out."""
    ax, ay, az = a.x, a.y, a.z
    bx, by, bz = b.x, b.y, b.z
    am, ap = ax - 1j * ay, ax + 1j * ay
    bm, bp = bx - 1j * by, bx + 1j * by
    return np.array(
        [
            [az * bz, az * bm, am * bz, am * bm],
            [az * bp, -az * bz, am * bp, -am * bz],
            [ap * bz, ap * bm, -az * bz, -az * bm],
            [ap * bp, -ap * bz, -az * bp, az * bz],
        ]
    )


def _bell_closed_forms(a, b) -> list[float]:
    ax, ay, az = a.x, a.y, a.z
    bx, by, bz = b.x, b.y, b.z
    return [
        -(ax * bx + ay * by + az * bz),
        ax * bx + ay * by - az * bz,
        -ax * bx + ay * by + az * bz,
        ax * bx - ay * by + az * bz,
    ]


def criterion_1() -> str:
    """Mismatched-pair density operator equals diag(1/4,...) within 1e-12, < 1 ms."""
    mismatched_pair_density()  # warm-up so the timing sees steady state
    start = time.perf_counter()
    rho = mismatched_pair_density()
    elapsed = time.perf_counter() - start
    assert np.abs(rho - np.eye(4) / 4.0).max() <= 1e-12, "entries deviate from I/4"
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    return f"max deviation {np.abs(rho - np.eye(4) / 4.0).max():.2e}, {elapsed * 1e6:.0f} us"


def criterion_2() -> str:
    """Correlation operator matches the closed form; Bell/product expectations agree."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_entry = 0.0
    worst_exp = 0.0
    products = [
        (computational_state([0, 0]), +1),
        (computational_state([0, 1]), -1),
        (computational_state([1, 0]), -1),
        (computational_state([1, 1]), +1),
    ]
    for _ in range(1000):
        a, b = random_direction(rng), random_direction(rng)
        op = correlation_operator(a, b)
        worst_entry = max(worst_entry, float(np.abs(op - _closed_form_correlation(a, b)).max()))
        forms = _bell_closed_forms(a, b)
        for s, form in zip(BellState, forms):
            worst_exp = max(worst_exp, abs(expectation(bell_state(s), a, b) - form))
        for state, sign in products:
            worst_exp = max(worst_exp, abs(expectation(state, a, b) - sign * a.z * b.z))
    elapsed = time.perf_counter() - start
    assert worst_entry <= 1e-12, f"operator deviates by {worst_entry:.2e}"
    assert worst_exp <= 1e-10, f"expectation deviates by {worst_exp:.2e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    return f"entry dev {worst_entry:.1e}, expectation dev {worst_exp:.1e}, {elapsed:.2f}s"


def criterion_3() -> str:
    """Guess-the-rearrangement interception: 56.25% observed, 3/4 conditional exact."""
    start = time.perf_counter()
    cfg = SessionConfig(
        n_blocks=25_000,
        control_key=ControlKey.from_indices([0, 1, 2, 3]),
        check_fraction=0.5,
        error_threshold=1.0,
        seed=331,
        eve=EveStrategy.guess_core(),
    )
    transcript = run_keyed_session(cfg)
    rate = transcript.verdict.measured_error_rate
    assert abs(rate - 0.5625) <= 0.01, f"checked error rate {rate:.4f}"

    op_set = CoreOpSet.cyclic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for true_index in range(4):
        for guess_index in range(4):
            if guess_index == true_index:
                continue
            symbols = [BellState(int(v)) for v in rng.integers(0, 4, size=4)]
            errors = exact_guess_attack_pair_errors(
                symbols, op_set[true_index], op_set[guess_index]
            )
            worst = max(worst, float(np.abs(errors - 0.75).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"conditional error deviates from 3/4 by {worst:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    return f"MC rate {rate:.4f}, exact 3/4 dev {worst:.1e}, {elapsed:.1f}s"


def criterion_4() -> str:
    """Correlation-probe futility: exact ensemble means vanish, fixed singlet gives -1."""
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    worst = 0.0
    plus_minus = np.array([1.0, -1.0])  # the mean outcome of a row is P(+1) - P(-1)
    for _ in range(10):
        means = probe_tables(random_direction(rng), random_direction(rng))[0] @ plus_minus
        # Rows 0-3 probe a genuine pair of each Bell state, rows 4-19 halves of two
        # pairs of each pair of states: each group is one uniform ensemble.
        worst = max(worst, abs(means[:4].mean()), abs(means[4:].mean()))
    assert worst <= 0.01, f"ensemble probe mean reached {worst:.4f}"
    axis = random_direction(rng)
    fixed = probe_tables(axis, axis)[0][BellState.PSI_MINUS.value] @ plus_minus
    elapsed = time.perf_counter() - start
    assert abs(fixed + 1.0) <= 0.01, f"fixed singlet mean {fixed:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    return f"worst ensemble mean {worst:.1e}, fixed singlet {fixed:.4f}, {elapsed:.1f}s"


def criterion_5() -> str:
    """Bootstrap sifting: 25% identical ops, exact agreement on sifted blocks."""
    cfg = SessionConfig(
        n_blocks=10_000,
        control_key=ControlKey.from_indices([0]),
        check_fraction=0.2,
        error_threshold=0.1,
        seed=555,
        mode="bootstrap",
    )
    _, transcript = run_bootstrap_session(cfg)
    sift = transcript.sift_rate
    agree_in = transcript.agreement_rate(sifted=True)
    agree_out = transcript.agreement_rate(sifted=False)
    assert abs(sift - 0.25) <= 0.01, f"sift rate {sift:.4f}"
    assert agree_in == 1.0, f"sifted agreement {agree_in!r}"
    assert abs(agree_out - 0.25) <= 0.02, f"discarded agreement {agree_out:.4f}"
    return f"sift {sift:.4f}, sifted agreement {agree_in:.1f}, discarded {agree_out:.4f}"


def criterion_6() -> str:
    """Key-guess probability 4**(-N_k) exact; Monte Carlo at N_k = 2 hits 1/16."""
    rng = np.random.default_rng(66)
    for n_k in (1, 2, 10, 100):
        assert guess_probability(ControlKey.random(n_k, rng)) == 4.0 ** (-n_k)
    assert guess_probability(ControlKey.from_indices([1])) == 0.25
    key = ControlKey.random(2, rng)
    guesses = rng.integers(0, 4, size=(100_000, 2))
    hits = np.all(guesses == np.array(key.op_indices), axis=1).mean()
    assert abs(hits - 1.0 / 16.0) <= 0.005, f"MC frequency {hits:.5f}"
    return f"exact 4**-N_k, MC frequency {hits:.5f}"


def criterion_7() -> str:
    """Ideal round trip: all four ops, no adversary, zero errors, identical keys."""
    cfg = SessionConfig(
        n_blocks=2_500,
        control_key=ControlKey.from_indices([0, 1, 2, 3]),
        check_fraction=0.2,
        error_threshold=0.1,
        seed=777,
    )
    transcript = run_keyed_session(cfg)
    pairs = transcript.records
    assert set(transcript.blocks.alice_op.tolist()) == {0, 1, 2, 3}
    mismatches = int(np.count_nonzero(pairs.measured != pairs.prepared))
    assert mismatches == 0, f"{mismatches} mismatched pairs"
    assert transcript.verdict.measured_error_rate == 0.0
    key = extract_raw_key(transcript)
    assert key == transcript.sender_raw_key(), "raw keys differ between the parties"
    return f"{transcript.n_pairs} pairs, 0 errors, {len(key)} identical key bits"


def criterion_8() -> str:
    """Device self-consistency: rest schedule, verbatim shift schedule, round trips."""
    device = DeviceModel()
    identity = schedule_to_perm(SwitchSchedule.uniform(PASS_TRIPLE), device)
    assert identity == (0, 1, 2, 3), f"rest schedule gave {identity!r}"
    shift_schedule = SwitchSchedule((
        (DOWN, UP, DOWN),
        (UP, DOWN, UP),
        (UP, DOWN, DOWN),
        (UP, DOWN, UP),
    ))
    perm = schedule_to_perm(shift_schedule, device)
    assert sorted(perm) == [0, 1, 2, 3]
    assert all(perm[p] != p for p in range(4)), f"{perm!r} is not a derangement"
    for op in CoreOpSet.cyclic():
        schedule = perm_to_schedule(op.perm, device)
        assert schedule_to_perm(schedule, device) == op.perm
    return f"verbatim shift schedule -> {perm}, all four ops round-trip"


def criterion_9() -> str:
    """Determinism: the built-in security table is byte-identical across runs."""
    spec = paper_table(seed=99)
    first = emit_report(run_experiment(spec), "csv")
    second = emit_report(run_experiment(spec), "csv")
    assert first == second, "reports differ between runs"
    return f"{len(first)} identical bytes over {first.count(chr(10)) - 1} rows"


@dataclass(frozen=True)
class Criterion:
    ident: int
    title: str
    func: Callable[[], str]

    def run(self) -> CriterionResult:
        start = time.perf_counter()
        try:
            detail = self.func()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        return CriterionResult(
            self.ident, self.title, passed, detail, time.perf_counter() - start
        )


CRITERIA = (
    Criterion(1, "mismatched pairs are exactly I/4", criterion_1),
    Criterion(2, "correlation operator and expectation closed forms", criterion_2),
    Criterion(3, "interception induces 56.25% errors, 3/4 conditional", criterion_3),
    Criterion(4, "correlation probe is futile on ensembles", criterion_4),
    Criterion(5, "bootstrap sifting at 25% with exact sifted agreement", criterion_5),
    Criterion(6, "key-guess probability 4**(-N_k)", criterion_6),
    Criterion(7, "ideal round trip is exact", criterion_7),
    Criterion(8, "delay-loop device self-consistency", criterion_8),
    Criterion(9, "byte-identical reports from one seed", criterion_9),
)


def run_all(verbose: bool = True) -> list[CriterionResult]:
    """Run every criterion, printing one line each; returns the results."""
    results = []
    for criterion in CRITERIA:
        result = criterion.run()
        results.append(result)
        if verbose:
            print(result.line(), flush=True)
    return results
