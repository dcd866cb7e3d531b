"""Eavesdropper strategies operating on in-flight channel blocks.

Three attacks are modelled, all acting on whole blocks between the two
parties: a measure-and-reprepare attack that guesses the rearrangement
(``guess_core``), the same attack driven by a key Eve already holds
(``known_key``), and a two-outcome correlation probe along arbitrary
directions (``bell_probe``). Strategies never touch the authenticated
classical channel.

``exact_guess_attack_pair_distributions`` reproduces the attack with exact
Born probabilities (no sampling) by enumerating every branch of Eve's
measurement, for the closed-form error checks.

``probe_tables`` holds the exact outcome probabilities of a keyed block
probed on one duo: the probe's two branches and Bob's Bell outcomes on the
probed pairs, computed once per direction pair on the dense core. A keyed
session with a one-duo probe samples from them instead of running
``eve_bell_probe`` block by block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .quantum import (
    _PROB_FLOOR,
    BELL_STATES,
    X_DIR,
    Z_DIR,
    BellState,
    Direction,
    LabelRegister,
    StateVector,
    _bell_coefficients,
    _from_front,
    _to_front,
    absorb,
    bell_measure,
    bell_outcome_probabilities,
    bell_project,
    bell_state,
    correlation_operator,
    expectation,
    mismatched_pair_density,
    sample_index,
    tensor,
)
from .rearrange import ControlKey, CoreOp, CoreOpSet, GroupConfig, apply_core, invert_core, op_index_for_block

# Each kind with its own parameters; known_key's key group comes from the session.
EVE_KINDS = {
    "none": (),
    "guess_core": ("weights",),
    "known_key": ("key",),
    "bell_probe": ("a", "b", "budget"),
}


@dataclass(frozen=True)
class EveStrategy:
    """Descriptor of an adversary policy, invoked once per channel block."""

    kind: str
    weights: tuple[float, float, float, float] | None = None
    key: ControlKey | None = None
    group: GroupConfig = GroupConfig()
    a: Direction | None = None
    b: Direction | None = None
    budget: int = 1

    def __post_init__(self) -> None:
        if self.kind not in EVE_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "guess_core" and self.weights is not None:
            if len(self.weights) != 4 or not all(w >= 0 for w in self.weights):
                raise ValueError("weights must be four nonnegative numbers")
            if not abs(sum(self.weights) - 1.0) <= 1e-9:
                raise ValueError("weights must sum to 1")
        if self.kind == "known_key" and self.key is None:
            raise ValueError("known_key strategy needs a control key")
        if self.kind == "bell_probe":
            if self.a is None or self.b is None:
                raise ValueError("bell_probe strategy needs two directions")
            if self.budget < 1:
                raise ValueError("budget must be >= 1")

    @classmethod
    def none(cls) -> "EveStrategy":
        return cls(kind="none")

    @classmethod
    def guess_core(cls, weights: Sequence[float] | None = None) -> "EveStrategy":
        return cls(kind="guess_core", weights=tuple(weights) if weights else None)

    @classmethod
    def known_key(cls, key: ControlKey, group: GroupConfig = GroupConfig()) -> "EveStrategy":
        return cls(kind="known_key", key=key, group=group)

    @classmethod
    def bell_probe(cls, a: Direction = X_DIR, b: Direction = Z_DIR, budget: int = 1) -> "EveStrategy":
        return cls(kind="bell_probe", a=a, b=b, budget=budget)


@dataclass(frozen=True)
class ProbeEntry:
    block: int
    slot: int
    outcome: int


# One probe of Eve's log: the block, the slot and the outcome (+1 or -1).
_PROBE_RECORD = np.dtype([("block", "<u4"), ("slot", "u1"), ("outcome", "i1")])


@dataclass
class EveLog:
    """Record of everything the adversary did and observed.

    ``symbols`` is a byte column: the ``BellState`` value Eve measured on each
    pair of every block she guessed, block by block in slot order (her guessed
    op is the transcript's ``eve_guess`` column). ``probe_records`` holds her
    probes in order, one packed ``_PROBE_RECORD`` each; ``probes`` reads them
    as ``ProbeEntry`` records, built on each read.
    """

    symbols: bytearray = field(default_factory=bytearray)
    probe_records: bytearray = field(default_factory=bytearray)

    @classmethod
    def of_probes(cls, blocks: np.ndarray, slots: np.ndarray, outcomes: np.ndarray) -> "EveLog":
        """A log of the probes given as three integer arrays."""
        records = np.empty(len(blocks), _PROBE_RECORD)
        records["block"], records["slot"], records["outcome"] = blocks, slots, outcomes
        return cls(probe_records=bytearray(records.tobytes()))

    def add_probe(self, block: int, slot: int, outcome: int) -> None:
        self.probe_records += np.array((block, slot, outcome), _PROBE_RECORD).tobytes()

    def _probe_column(self) -> np.ndarray:
        return np.frombuffer(self.probe_records, _PROBE_RECORD)

    @property
    def probes(self) -> tuple[ProbeEntry, ...]:
        return tuple(ProbeEntry(*record) for record in self._probe_column().tolist())

    @property
    def probe_mean(self) -> float | None:
        if not self.probe_records:
            return None
        return float(self._probe_column()["outcome"].mean())


def eve_guess_core_attack(
    register: StateVector | LabelRegister,
    upper: Sequence[int],
    lower: Sequence[int],
    guess: CoreOp,
    rng: np.random.Generator,
) -> tuple[StateVector | LabelRegister, tuple[BellState, ...]]:
    """Measure-and-reprepare interception of one block under a guessed op.

    Eve undoes the rearrangement she guesses, Bell-measures the resulting
    duos and forwards fresh pairs in the measured symbols with her pairing.
    The Bell measurement already collapses each duo onto the measured Bell
    state, which is exactly the state of the fresh pair she re-inserts, so
    the post-measurement register is the forwarded block. Slot order is
    untouched: she physically restores the arrangement she found.
    """
    restored = invert_core(guess, lower)
    symbols = []
    for qa, qb in zip(upper, restored):
        sym, register = bell_measure(register, qa, qb, rng)
        symbols.append(sym)
    return register, tuple(symbols)


@functools.lru_cache(maxsize=64)
def _probe_projectors(a: Direction, b: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Read-only projectors onto the +1 and -1 eigenspaces of (sigma.a)(x)(sigma.b)."""
    op = correlation_operator(a, b)
    eye = np.eye(4, dtype=complex)
    projectors = ((eye + op) / 2.0, (eye - op) / 2.0)
    for proj in projectors:
        proj.flags.writeable = False
    return projectors


def eve_bell_probe(
    register: StateVector,
    qubit_a: int,
    qubit_b: int,
    a: Direction,
    b: Direction,
    rng: np.random.Generator,
) -> tuple[int, StateVector]:
    """Measure the two-outcome observable (sigma.a)(x)(sigma.b) on one duo.

    Returns the sampled eigenvalue (+1 or -1) and the collapsed register.
    """
    duo = (qubit_a, qubit_b)
    branches, probs = _probe_branches(register, duo, a, b)
    k = sample_index(probs, rng)
    return (1 if k == 0 else -1), _probe_collapse(register, duo, branches[k], probs[k])


def _probe_branches(
    register: StateVector, duo: tuple[int, int], a: Direction, b: Direction
) -> tuple[list[np.ndarray], list[float]]:
    """The probe's unnormalised +1 and -1 branches (duo leading) and their Born probabilities."""
    moved = _to_front(register, duo)
    branches = [proj @ moved for proj in _probe_projectors(a, b)]
    return branches, [float((np.abs(br) ** 2).sum()) for br in branches]


def _probe_collapse(
    register: StateVector, duo: tuple[int, int], branch: np.ndarray, prob: float
) -> StateVector:
    return _from_front(branch / math.sqrt(prob), register.n_qubits, duo)


# Rows of ``probe_tables``: a keyed block probed on its first duo holds a
# dense core of the probed pairs only. Under an op with perm[0] == 0 the duo
# is pair 0 itself (row L0); otherwise it is the upper half of pair 0 and the
# lower half of pair j = perm[0], whose core is pairs 0 and j on the qubits
# (0, 1, 2j, 2j+1), probed on core positions (0, 3) (row 4 + 4*L0 + Lj).
PROBE_TABLE_ROWS = 20


@functools.lru_cache(maxsize=64)
def probe_tables(a: Direction, b: Direction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact outcome tables of a block probed once along (a, b), by core row.

    Returns three read-only arrays, computed on the dense core as
    ``eve_bell_probe`` and Bob's measurements of the core compute them:

    * ``probe[row, kp]``: probability of the +1 (kp 0) and -1 (kp 1) outcome;
    * ``first[kp, row, r]``: Bob's Bell probabilities on pair 0 after outcome kp;
    * ``second[kp, row, r, s]``: his Bell probabilities on pair j after pair 0
      gave r (rows of two pairs only).

    Branches at or below the sampling floor are never drawn and stay 0.
    """
    probe = np.zeros((PROBE_TABLE_ROWS, 2))
    first = np.zeros((2, PROBE_TABLE_ROWS, 4))
    second = np.zeros((2, PROBE_TABLE_ROWS, 4, 4))
    for row in range(PROBE_TABLE_ROWS):
        if row < 4:
            core, duo = bell_state(BELL_STATES[row]), (0, 1)
        else:
            l0, lj = divmod(row - 4, 4)
            core, duo = tensor(bell_state(BELL_STATES[l0]), bell_state(BELL_STATES[lj])), (0, 3)
        branches, probs = _probe_branches(core, duo, a, b)
        probe[row] = probs
        for kp, (branch, p) in enumerate(zip(branches, probs)):
            if p <= _PROB_FLOOR:
                continue
            coeffs = _bell_coefficients(_probe_collapse(core, duo, branch, p), 0, 1)
            first[kp, row] = marginal = (np.abs(coeffs) ** 2).sum(axis=1)
            if row < 4:
                continue
            for r, q in enumerate(marginal.tolist()):
                if q > _PROB_FLOOR:
                    rest = StateVector(coeffs[r] / math.sqrt(q))
                    second[kp, row, r] = bell_outcome_probabilities(rest, 0, 1)
    for table in (probe, first, second):
        table.flags.writeable = False
    return probe, first, second


def intercept(
    strategy: EveStrategy,
    register: StateVector | LabelRegister,
    upper: Sequence[int],
    lower: Sequence[int],
    block_index: int,
    op_set: CoreOpSet,
    rng: np.random.Generator,
    log: EveLog | None = None,
) -> tuple[StateVector | LabelRegister, int | None]:
    """Apply a strategy to one in-flight block.

    Returns the forwarded register and, for rearrangement-guessing attacks,
    the guessed op index.
    """
    if strategy.kind == "none":
        return register, None
    if strategy.kind in ("guess_core", "known_key"):
        if strategy.kind == "guess_core":
            weights = strategy.weights or (0.25, 0.25, 0.25, 0.25)
            guess_index = sample_index(weights, rng)
        else:
            assert strategy.key is not None
            guess_index = op_index_for_block(strategy.key, strategy.group, block_index)
        register, symbols = eve_guess_core_attack(
            register, upper, lower, op_set[guess_index], rng
        )
        if log is not None:
            log.symbols.extend(s._value_ for s in symbols)
        return register, guess_index
    # bell_probe: interrogate slot-aligned duos, one per budget unit. The
    # probe is not Clifford, so it runs densely on the core holding its duo.
    a, b = strategy.a, strategy.b
    assert a is not None and b is not None
    for slot in range(min(strategy.budget, len(upper))):
        duo = (upper[slot], lower[slot])
        if isinstance(register, LabelRegister):
            register = absorb(register, duo)
            where = register.core_qubits.index
            outcome, core = eve_bell_probe(register.core, where(duo[0]), where(duo[1]), a, b, rng)
            register = register.with_core(core)
        else:
            outcome, register = eve_bell_probe(register, *duo, a, b, rng)
        if log is not None:
            log.add_probe(block_index, slot, outcome)
    return register, None


# ---------------------------------------------------------------------------
# Exact (sampling-free) analysis of the interception attack
# ---------------------------------------------------------------------------

def _block_register(symbols: Sequence[BellState]) -> tuple[StateVector, tuple[int, ...], tuple[int, ...]]:
    """Register of a prepared block plus the upper/lower qubit ids per slot."""
    register = tensor(*(bell_state(s) for s in symbols))
    upper = tuple(2 * k for k in range(len(symbols)))
    lower = tuple(2 * k + 1 for k in range(len(symbols)))
    return register, upper, lower


def _enumerate_attack_branches(
    register: StateVector, duos: Sequence[tuple[int, int]]
) -> list[tuple[float, StateVector]]:
    branches: list[tuple[float, StateVector]] = [(1.0, register)]
    for qa, qb in duos:
        nxt: list[tuple[float, StateVector]] = []
        for weight, state in branches:
            for k in range(4):
                prob, collapsed = bell_project(state, qa, qb, k)
                if collapsed is not None:
                    nxt.append((weight * prob, collapsed))
        branches = nxt
    return branches


def exact_guess_attack_pair_distributions(
    symbols: Sequence[BellState],
    true_op: CoreOp,
    guess: CoreOp,
) -> np.ndarray:
    """Bob's exact per-pair Bell-outcome distributions after an interception.

    Enumerates every branch of Eve's four Bell measurements with exact Born
    probabilities, then computes the marginal outcome distribution of each
    restored pair on Bob's side. Returns an array of shape (block, 4) whose
    row k is the distribution over Bell outcomes for pair k.
    """
    register, upper, lower_base = _block_register(symbols)
    lower = apply_core(true_op, lower_base)
    eve_duos = list(zip(upper, invert_core(guess, lower)))
    branches = _enumerate_attack_branches(register, eve_duos)
    restored = invert_core(true_op, lower)
    bob_duos = list(zip(upper, restored))
    dists = np.zeros((len(symbols), 4))
    for weight, state in branches:
        for k, (qa, qb) in enumerate(bob_duos):
            dists[k] += weight * bell_outcome_probabilities(state, qa, qb)
    return dists


def exact_guess_attack_pair_errors(
    symbols: Sequence[BellState], true_op: CoreOp, guess: CoreOp
) -> np.ndarray:
    """Exact probability, per pair, that Bob's outcome differs from Alice's."""
    dists = exact_guess_attack_pair_distributions(symbols, true_op, guess)
    return np.array([1.0 - dists[k][s.value] for k, s in enumerate(symbols)])


def attack_ensemble_register_density(
    symbols: Sequence[BellState], true_op: CoreOp, guess: CoreOp
) -> np.ndarray:
    """Average register density matrix over Eve's measurement branches."""
    register, upper, lower_base = _block_register(symbols)
    lower = apply_core(true_op, lower_base)
    eve_duos = list(zip(upper, invert_core(guess, lower)))
    branches = _enumerate_attack_branches(register, eve_duos)
    dim = 1 << register.n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, state in branches:
        rho += weight * np.outer(state.amps, state.amps.conj())
    return rho


# ---------------------------------------------------------------------------
# Batched probe statistics
# ---------------------------------------------------------------------------

def probe_plus_probability(rho: np.ndarray, a: Direction, b: Direction) -> float:
    """Born probability of the +1 outcome of the correlation observable."""
    op = correlation_operator(a, b)
    p = float(np.trace(((np.eye(4) + op) / 2.0) @ rho).real)
    return min(max(p, 0.0), 1.0)


def _sample_probe_outcomes(
    p_plus: np.ndarray | float, n: int, rng: np.random.Generator
) -> np.ndarray:
    return np.where(rng.random(n) < p_plus, 1, -1)


def probe_mean_bell_ensemble(
    pairing: str, a: Direction, b: Direction, n: int, rng: np.random.Generator
) -> float:
    """Mean probe outcome over blocks prepared uniformly in the Bell states.

    ``pairing`` is ``"matched"`` (Eve probes a genuine pair) or
    ``"mismatched"`` (halves of two different pairs). Outcomes are sampled
    from the exact single-shot Born probabilities of each scenario.
    """
    if pairing == "matched":
        p_plus_by_symbol = np.array(
            [(1.0 + expectation(bell_state(s), a, b)) / 2.0 for s in BellState]
        )
        symbols = rng.integers(0, 4, size=n)
        outcomes = _sample_probe_outcomes(p_plus_by_symbol[symbols], n, rng)
    elif pairing == "mismatched":
        p_plus = probe_plus_probability(mismatched_pair_density(), a, b)
        outcomes = _sample_probe_outcomes(p_plus, n, rng)
    else:
        raise ValueError("pairing must be 'matched' or 'mismatched'")
    return float(outcomes.mean())


def probe_mean_fixed_state(
    symbol: BellState, a: Direction, b: Direction, n: int, rng: np.random.Generator
) -> float:
    """Mean probe outcome over repeated preparations of one fixed Bell state."""
    p_plus = (1.0 + expectation(bell_state(symbol), a, b)) / 2.0
    return float(_sample_probe_outcomes(min(max(p_plus, 0.0), 1.0), n, rng).mean())
