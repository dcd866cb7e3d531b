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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .quantum import (
    X_DIR,
    Z_DIR,
    BellState,
    Direction,
    LabelRegister,
    StateVector,
    _from_front,
    _to_front,
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


@dataclass
class GuessEntry:
    block: int
    guess_index: int
    measured: tuple[BellState, ...]


@dataclass
class ProbeEntry:
    block: int
    slot: int
    outcome: int


@dataclass
class EveLog:
    """Record of everything the adversary did and observed."""

    guesses: list[GuessEntry] = field(default_factory=list)
    probes: list[ProbeEntry] = field(default_factory=list)

    @property
    def probe_mean(self) -> float | None:
        if not self.probes:
            return None
        return float(np.mean([p.outcome for p in self.probes]))


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
    op = correlation_operator(a, b)
    eye = np.eye(4, dtype=complex)
    projectors = ((eye + op) / 2.0, (eye - op) / 2.0)
    duo = (qubit_a, qubit_b)
    moved = _to_front(register, duo)
    branches = [proj @ moved for proj in projectors]
    probs = [float((np.abs(br) ** 2).sum()) for br in branches]
    k = sample_index(probs, rng)
    block = branches[k] / math.sqrt(probs[k])
    return (1 if k == 0 else -1), _from_front(block, register.n_qubits, duo)


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
            log.guesses.append(GuessEntry(block_index, guess_index, symbols))
        return register, guess_index
    # bell_probe: interrogate slot-aligned duos, one per budget unit. The
    # probe is not Clifford, so the block continues on the dense engine.
    assert strategy.a is not None and strategy.b is not None
    if isinstance(register, LabelRegister):
        register = register.state()
    for slot in range(min(strategy.budget, len(upper))):
        outcome, register = eve_bell_probe(
            register, upper[slot], lower[slot], strategy.a, strategy.b, rng
        )
        if log is not None:
            log.probes.append(ProbeEntry(block_index, slot, outcome))
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
