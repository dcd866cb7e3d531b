"""Eavesdropper strategies operating on in-flight channel blocks.

Three attacks are modelled, all acting on whole blocks between the two
parties: a measure-and-reprepare attack that guesses the rearrangement
(``guess_core``), the same attack driven by a key Eve already holds
(``known_key``: she plays the session's key schedule, on her own key or on
the session's key), and a two-outcome correlation probe along arbitrary
directions (``bell_probe``). ``intercept`` reads Eve, the op set, the key
and its group from the session. Strategies never touch the authenticated
classical channel, and a session with no Eve has ``eve = None``.

Each attack has one model. ``exact_guess_attack_pair_distributions``
enumerates every branch of the interception's Bell measurements with exact
Born probabilities, for the closed-form error checks. The probe,
``eve_bell_probe``, is one dense step on a ``StateVector``: it is not
Clifford, so a session runs probed blocks on the dense engine.
``probe_tables`` holds its exact outcome probabilities
on a keyed block probed on one duo, by core row (``probe_table_rows``),
computed once per direction pair: a keyed one-duo probe session samples
from them, and the paper's probe ensemble means are averages of their rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

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
    bell_measure,
    bell_outcome_probabilities,
    bell_project,
    bell_state,
    correlation_operator,
    sample_index,
    tensor,
)
from .rearrange import (
    BLOCK_SIZE, LOWER, UPPER, ControlKey, CoreOp, apply_core, invert_core, op_index_for_block,
)

if TYPE_CHECKING:
    from .protocol import SessionConfig

# Each kind with its own parameters; known_key's group, and her key if she has none, are the session's.
EVE_KINDS = {
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
        if self.kind == "bell_probe":
            if self.a is None or self.b is None:
                raise ValueError("bell_probe strategy needs two directions")
            if self.budget < 1:
                raise ValueError("budget must be >= 1")
            if self.budget > BLOCK_SIZE:
                raise ValueError(f"budget must be <= {BLOCK_SIZE}: a block holds four duos")

    @classmethod
    def guess_core(cls, weights: Sequence[float] | None = None) -> "EveStrategy":
        return cls(kind="guess_core", weights=None if weights is None else tuple(weights))

    @classmethod
    def known_key(cls, key: ControlKey | None = None) -> "EveStrategy":
        """Eve who plays the session's key schedule on ``key``; with none she holds the session's key."""
        return cls(kind="known_key", key=key)

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
    if not isinstance(register, StateVector):
        raise ValueError("the probe is not Clifford: it takes a StateVector, not a LabelRegister")
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


# Rows of ``probe_tables``: a keyed block probed on its first duo entangles
# the probed pairs only, and the tables hold a register of just those. Under
# an op with perm[0] == 0 the duo is pair 0 itself (row L0); otherwise it is
# the upper half of pair 0 and the lower half of pair j = perm[0], pairs 0
# and j on the qubits (0, 1, 2j, 2j+1), probed on positions (0, 3) of their
# register (row 4 + 4*L0 + Lj).
PROBE_TABLE_ROWS = 20


def probe_table_rows(labels: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The ``probe_tables`` row of each block, from its (n, 4) labels and the pair ``j = perm[0]`` probed with pair 0."""
    l0 = labels[:, 0]
    return np.where(j == 0, l0, 4 + 4 * l0 + labels[np.arange(len(j)), j])


@functools.lru_cache(maxsize=64)
def probe_tables(a: Direction, b: Direction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact outcome tables of a block probed once along (a, b), by row of the probed pairs.

    Returns three read-only arrays, computed on a register of the probed
    pairs as ``eve_bell_probe`` and Bob's dense measurements compute them:

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
    session: SessionConfig,
    register: StateVector | LabelRegister,
    upper: Sequence[int],
    lower: Sequence[int],
    block_index: int,
    rng: np.random.Generator,
    log: EveLog | None = None,
) -> tuple[StateVector | LabelRegister, int | None]:
    """Apply the session's Eve to one in-flight block.

    Returns the forwarded register and, for rearrangement-guessing attacks,
    the guessed op index.
    """
    strategy = session.eve
    if strategy.kind in ("guess_core", "known_key"):
        if strategy.kind == "guess_core":
            weights = strategy.weights or (0.25, 0.25, 0.25, 0.25)
            guess_index = sample_index(weights, rng)
        else:
            key = session.control_key if strategy.key is None else strategy.key
            guess_index = op_index_for_block(key, session.group, block_index)
        # Measure and reprepare: Eve undoes the op she guesses and Bell-measures
        # the restored duos. Each measurement collapses its duo onto the Bell
        # state she measured, which is the fresh pair she forwards with her
        # pairing, so the collapsed register is the forwarded block. She
        # physically restores the arrangement she found.
        for qa, qb in zip(upper, invert_core(session.op_set[guess_index], lower)):
            symbol, register = bell_measure(register, qa, qb, rng)
            if log is not None:
                log.symbols.append(symbol._value_)
        return register, guess_index
    # bell_probe: interrogate slot-aligned duos, one per budget unit.
    a, b = strategy.a, strategy.b
    assert a is not None and b is not None
    for slot in range(strategy.budget):
        outcome, register = eve_bell_probe(register, upper[slot], lower[slot], a, b, rng)
        if log is not None:
            log.add_probe(block_index, slot, outcome)
    return register, None


# ---------------------------------------------------------------------------
# Exact (sampling-free) analysis of the interception attack
# ---------------------------------------------------------------------------

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
    register = tensor(*(bell_state(s) for s in symbols))
    lower = apply_core(true_op, LOWER)
    branches = _enumerate_attack_branches(register, list(zip(UPPER, invert_core(guess, lower))))
    bob_duos = list(zip(UPPER, invert_core(true_op, lower)))
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
