"""Exact quantum-state engine for registers of up to eight qubits, in two representations.

``StateVector`` is the dense engine: plain numpy linear algebra on
complex128 amplitude arrays for Bell-pair construction, reduced density
matrices, the two-spin correlation observable along arbitrary measurement
directions, Bell-basis projective measurement on a chosen qubit pair with
Born-rule sampling, and single-qubit gates. Every operation on a subset of
qubits goes through one kernel that brings those qubits to the front of the
amplitude array and back. It serves every direct caller, holds the core of
a ``LabelRegister`` and is the oracle the label rules are tested against.

``LabelRegister`` is the Clifford engine with a dense core. A block of
Bell pairs that is only reordered, Bell-measured and hit by Pauli gates
stays a perfect matching of its qubits into Bell pairs (Gottesman-Knill),
so the register is a partner table plus one 2-bit ``BellState.value`` label
per pair. ``bell_measure`` and ``apply_single_qubit`` branch on the
register's type:

* a Bell measurement on a genuine pair returns its label;
* on halves of two different pairs, labelled P and Q, it returns R with
  probability 1/4 each; the measured halves become a pair labelled R and
  their two partners a pair labelled P ^ Q ^ R (labels do not depend on
  qubit order: a Bell state is symmetric under a swap up to a sign);
* X, Y and Z XOR the label of the hit pair with 2, 3 and 1.

A step that is not Clifford, such as the correlation probe, runs on the
register's optional core: one ``StateVector`` over just the pairs such
steps have touched. ``absorb`` moves the pairs of the qubits a step acts
on into the core, as the ``tensor`` of the core and their Bell states.
A Bell measurement with a qubit in the core absorbs the pair of the other
qubit and measures on the core; the measured duo then *splits* back out as
a pair labelled with the outcome k, and the core becomes
``coeffs[k] / sqrt(p_k)`` over its other qubits (no core once it is
empty). Any gate on a core qubit acts on the core. Steps on qubits outside
the core follow the label rules, and other gates on them raise.

Both engines make the same ``rng`` call for the same step: one
``rng.random()`` per Bell measurement, drawn through ``sample_index`` over
the outcome probabilities. So a session gives the same outcomes on either
engine, with one caveat: dense probabilities of uniform branches are
0.25 +- 1 ulp, not exactly 0.25, and the core's probabilities equal the
full register's only up to rounding, so the engines could disagree only on
a draw within about 1e-16 of a branch boundary. ``LabelRegister.state()``
absorbs every pair and returns the dense register, which for a freshly
prepared block equals the ``tensor`` of its Bell states bit for bit.

Conventions used throughout the package:

* Computational basis ordering is big-endian by qubit index: qubit 0 is the
  most significant bit of the amplitude index. A 2-qubit vector is therefore
  ordered |00>, |01>, |10>, |11>.
* Tolerances: 1e-12 for exact algebra, 1e-10 for the norm after measurement
  collapse and renormalisation.
* Randomness enters only through caller-supplied ``numpy.random.Generator``
  instances (PCG64, seeded with a 64-bit integer). Discrete outcomes are
  drawn by inverse CDF over branch probabilities, so a zero-probability
  branch is never selected and runs are reproducible from the seed alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 8
ATOL_NORM = 1e-10
_PROB_FLOOR = 1e-15

SQRT1_2 = 1.0 / math.sqrt(2.0)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class BellState(Enum):
    """The four maximally entangled two-qubit states.

    Each state encodes two key bits; the mapping is the fixed bijection
    PSI_MINUS -> 00, PSI_PLUS -> 01, PHI_MINUS -> 10, PHI_PLUS -> 11.
    """

    PSI_MINUS = 0
    PSI_PLUS = 1
    PHI_MINUS = 2
    PHI_PLUS = 3

    @property
    def key_bits(self) -> tuple[int, int]:
        return _KEY_BITS[self._value_]

    @classmethod
    def from_bits(cls, high: int, low: int) -> "BellState":
        return cls(((high & 1) << 1) | (low & 1))


# Indexed by BellState value: the member and its two key bits.
BELL_STATES = tuple(BellState)
_KEY_BITS = tuple(((v >> 1) & 1, v & 1) for v in range(4))

# Row k is the state vector of BellState(k) in the |00>,|01>,|10>,|11> basis.
_BELL_MATRIX = np.array(
    [
        [0.0, SQRT1_2, -SQRT1_2, 0.0],
        [0.0, SQRT1_2, SQRT1_2, 0.0],
        [SQRT1_2, 0.0, 0.0, -SQRT1_2],
        [SQRT1_2, 0.0, 0.0, SQRT1_2],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class Direction:
    """A unit 3-vector giving a spin measurement direction."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"direction must be a unit vector, |v| = {norm!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("cannot normalise the zero vector")
        return cls(x / norm, y / norm, z / norm)


X_DIR = Direction(1.0, 0.0, 0.0)
Y_DIR = Direction(0.0, 1.0, 0.0)
Z_DIR = Direction(0.0, 0.0, 1.0)


def random_direction(rng: np.random.Generator) -> Direction:
    """Draw a direction uniformly on the unit sphere."""
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return Direction(v[0] / norm, v[1] / norm, v[2] / norm)


class StateVector:
    """Normalised amplitude vector over ``n_qubits`` qubits (1..8).

    Instances are immutable; operations that change the state return a new
    vector, so values are safe to share between threads.
    """

    __slots__ = ("n_qubits", "amps")

    def __init__(self, amps: Sequence[complex] | np.ndarray):
        arr = np.array(amps, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        n = int(arr.size).bit_length() - 1
        if arr.size != (1 << n) or not (1 <= n <= MAX_QUBITS):
            raise ValueError(
                f"amplitude count {arr.size} is not 2**n for n in 1..{MAX_QUBITS}"
            )
        norm = math.sqrt(np.vdot(arr, arr).real)
        if abs(norm - 1.0) > ATOL_NORM:
            raise ValueError(f"state vector norm {norm!r} is not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("StateVector is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateVector)
            and self.n_qubits == other.n_qubits
            and bool(np.array_equal(self.amps, other.amps))
        )

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


class LabelRegister:
    """A register of 2..8 qubits: Bell pairs with 2-bit labels plus an optional dense core.

    ``partner[q]`` is the qubit paired with q and ``label[q]`` the pair's
    ``BellState.value``, stored at both ends. ``core`` is a ``StateVector``
    over the qubits ``core_qubits`` (its qubit c is register qubit
    ``core_qubits[c]``), or None; a core qubit has partner and label -1.
    ``LabelRegister(labels)`` prepares pair k on qubits (2k, 2k+1) in the
    Bell state of value labels[k], with no core. Instances are immutable; a
    measurement or a gate returns a new register (see the module docstring
    for the rules).
    """

    __slots__ = ("partner", "label", "core", "core_qubits")

    def __init__(self, labels: Sequence[int]):
        if not 1 <= len(labels) <= MAX_QUBITS // 2 or not _LABEL_VALUES.issuperset(labels):
            raise ValueError(f"need 1..{MAX_QUBITS // 2} BellState values, got {labels!r}")
        _set(self, "partner", _PREPARED_PARTNERS[len(labels)])
        _set(self, "label", tuple([v for v in labels for _ in (0, 1)]))
        _set(self, "core", None)
        _set(self, "core_qubits", ())

    @property
    def n_qubits(self) -> int:
        return len(self.partner)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("LabelRegister is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelRegister)
            and self.partner == other.partner
            and self.label == other.label
            and self.core_qubits == other.core_qubits
            and self.core == other.core
        )

    def __repr__(self) -> str:
        return (
            f"LabelRegister(partner={self.partner}, label={self.label}, "
            f"core_qubits={self.core_qubits})"
        )

    def with_core(self, core: StateVector) -> "LabelRegister":
        """The same register with its core, over the same qubits, replaced."""
        if self.core is None or core.n_qubits != self.core.n_qubits:
            raise ValueError("the new core must cover the same qubits as the old one")
        return _labels(self.partner, self.label, core, self.core_qubits)

    def state(self) -> StateVector:
        """The dense register: every pair absorbed into the core, then put in qubit order.

        With no core and the matching (2k, 2k+1) this is ``tensor`` of the
        pairs' Bell states bit for bit; otherwise the same up to a global phase.
        """
        full = absorb(self, range(self.n_qubits))
        if full.core_qubits == tuple(range(self.n_qubits)):
            return full.core
        return _from_front(full.core.amps, self.n_qubits, full.core_qubits)


_LABEL_VALUES = frozenset(range(4))
# Partner table of the matching (2k, 2k+1), by number of pairs.
_PREPARED_PARTNERS = {k: tuple(q ^ 1 for q in range(2 * k)) for k in range(1, MAX_QUBITS // 2 + 1)}
_set = object.__setattr__


def _labels(
    partner: tuple[int, ...],
    label: tuple[int, ...],
    core: StateVector | None = None,
    core_qubits: tuple[int, ...] = (),
) -> LabelRegister:
    """A LabelRegister from tables the caller has already made consistent."""
    register = object.__new__(LabelRegister)
    _set(register, "partner", partner)
    _set(register, "label", label)
    _set(register, "core", core)
    _set(register, "core_qubits", core_qubits)
    return register


def absorb(register: LabelRegister, qubits: Sequence[int]) -> LabelRegister:
    """The register with the pairs of the listed qubits moved into its core.

    The new core is the ``tensor`` of the old core (if any) and the absorbed
    pairs' Bell states, pairs in order of their lower qubit, lower qubit
    first. Qubits already in the core are left where they are.
    """
    partner, label = register.partner, register.label
    if not all(0 <= q < len(partner) for q in qubits):
        raise ValueError("qubit index out of range")
    lows = sorted({min(q, partner[q]) for q in qubits if partner[q] >= 0})
    if not lows:
        return register
    absorbed = tuple(q for low in lows for q in (low, partner[low]))
    new_partner, new_label = list(partner), list(label)
    for q in absorbed:
        new_partner[q] = new_label[q] = -1
    states = [bell_state(BELL_STATES[label[q]]) for q in lows]
    if register.core is not None:
        states.insert(0, register.core)
    core_qubits = register.core_qubits + absorbed
    return _labels(tuple(new_partner), tuple(new_label), tensor(*states), core_qubits)


@functools.cache
def bell_state(symbol: BellState) -> StateVector:
    """The 2-qubit state vector of the given Bell state (one shared immutable value each)."""
    return StateVector(_BELL_MATRIX[symbol.value])


def computational_state(bits: Sequence[int]) -> StateVector:
    """Product state |b0 b1 ...> in the computational basis."""
    n = len(bits)
    index = 0
    for b in bits:
        index = (index << 1) | (b & 1)
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def tensor(*states: StateVector) -> StateVector:
    """Tensor product of registers, qubit indices concatenated left to right."""
    total = sum(s.n_qubits for s in states)
    if total > MAX_QUBITS:
        raise ValueError(f"register of {total} qubits exceeds the cap of {MAX_QUBITS}")
    amps = states[0].amps
    for s in states[1:]:
        amps = np.multiply.outer(amps, s.amps).ravel()
    return StateVector(amps)


def density(state: StateVector) -> np.ndarray:
    """Density matrix |psi><psi| of a pure state."""
    return np.outer(state.amps, state.amps.conj())


def partial_trace_register(rho: np.ndarray, n_qubits: int, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of the listed qubits of an n-qubit density matrix.

    The kept qubits appear in the output in the order given. Rejects
    non-unit-trace input.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << n_qubits
    if rho.shape != (dim, dim):
        raise ValueError("density matrix shape does not match n_qubits")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace {tr!r} is not 1")
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n_qubits])
    col = list(letters[n_qubits : 2 * n_qubits])
    for q in range(n_qubits):
        if q not in keep:
            col[q] = row[q]
    out = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    reduced = np.einsum(
        "".join(row) + "".join(col) + "->" + out, rho.reshape([2] * (2 * n_qubits))
    )
    k = len(keep)
    return reduced.reshape(1 << k, 1 << k)


def mismatched_pair_density(ensemble: Iterable[BellState] | None = None) -> np.ndarray:
    """Joint density matrix of two halves taken from different pairs.

    For halves drawn from any ensemble of Bell pairs, each reduced state is
    maximally mixed, so the product is I/4 = diag(1/4, 1/4, 1/4, 1/4).
    """
    symbols = tuple(ensemble) if ensemble is not None else tuple(BellState)
    if not symbols:
        raise ValueError("ensemble must contain at least one Bell state")
    rho_a = np.zeros((2, 2), dtype=complex)
    rho_b = np.zeros((2, 2), dtype=complex)
    for s in symbols:
        rho = density(bell_state(s))
        rho_a += partial_trace_register(rho, 2, [0])
        rho_b += partial_trace_register(rho, 2, [1])
    rho_a /= len(symbols)
    rho_b /= len(symbols)
    return np.kron(rho_a, rho_b)


def pauli_along(direction: Direction) -> np.ndarray:
    """Spin observable sigma . v for a unit direction v."""
    return direction.x * SIGMA_X + direction.y * SIGMA_Y + direction.z * SIGMA_Z


def correlation_operator(a: Direction, b: Direction) -> np.ndarray:
    """Two-spin correlation observable (sigma . a) tensor (sigma . b)."""
    return np.kron(pauli_along(a), pauli_along(b))


def expectation(state: StateVector | np.ndarray, a: Direction, b: Direction) -> float:
    """Expectation value of the correlation observable in a 2-qubit state.

    Accepts a pure StateVector or a 4x4 density matrix.
    """
    op = correlation_operator(a, b)
    if isinstance(state, StateVector):
        if state.n_qubits != 2:
            raise ValueError("expectation is defined for 2-qubit states")
        return float(np.vdot(state.amps, op @ state.amps).real)
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expectation expects a 2-qubit state")
    return float(np.trace(rho @ op).real)


def sample_index(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index from a discrete distribution.

    Branches with probability at or below the floor are skipped, so a
    zero-probability outcome is never sampled.
    """
    u = rng.random()
    acc = 0.0
    last = -1
    for k, p in enumerate(probs):
        if p <= _PROB_FLOOR:
            continue
        acc += p
        last = k
        if u < acc:
            return k
    if last < 0:
        raise RuntimeError("no branch with positive probability")
    return last


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sample_index`` row by row: the index drawn from row i of ``probs`` with uniform ``u[i]``.

    The same rule: the sequential partial sums of the branches above the
    floor (``cumsum`` adds left to right, as ``acc += p`` does), the first
    branch whose sum exceeds u, else the last branch above the floor.
    """
    live = probs > _PROB_FLOOR
    if not live.any(axis=1).all():
        raise RuntimeError("no branch with positive probability")
    below = u[:, None] < np.cumsum(np.where(live, probs, 0.0), axis=1)
    last = probs.shape[1] - 1 - live[:, ::-1].argmax(axis=1)
    return np.where(below.any(axis=1), below.argmax(axis=1), last)


@functools.lru_cache(maxsize=1024)
def _axis_orders(n: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that brings the listed qubits of an n-qubit tensor to the front, and back."""
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    if not all(0 <= q < n for q in qubits):
        raise ValueError("qubit index out of range")
    order = (*qubits, *(q for q in range(n) if q not in qubits))
    inverse = [0] * n
    for axis, q in enumerate(order):
        inverse[q] = axis
    return order, tuple(inverse)


def _to_front(register: StateVector, qubits: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a (2**k, rest) array with the k listed qubits leading."""
    n = register.n_qubits
    order, _ = _axis_orders(n, qubits)
    return register.amps.reshape((2,) * n).transpose(order).reshape(1 << len(qubits), -1)


def _from_front(block: np.ndarray, n: int, qubits: tuple[int, ...]) -> StateVector:
    """Inverse of ``_to_front``: the n-qubit register of a (2**k, rest) array."""
    _, inverse = _axis_orders(n, qubits)
    return StateVector(block.reshape((2,) * n).transpose(inverse).reshape(-1))


def _bell_coefficients(register: StateVector, qubit_i: int, qubit_j: int) -> np.ndarray:
    """Row k holds the register's components along Bell state k on the duo (i, j)."""
    return _BELL_MATRIX.conj() @ _to_front(register, (qubit_i, qubit_j))


def _bell_collapse(
    register: StateVector, qubit_i: int, qubit_j: int, k: int, coeff: np.ndarray, prob: float
) -> StateVector:
    """The register after the duo (i, j) was found in Bell state k."""
    block = np.outer(_BELL_MATRIX[k], coeff / math.sqrt(prob))
    return _from_front(block, register.n_qubits, (qubit_i, qubit_j))


def bell_outcome_probabilities(
    register: StateVector, qubit_i: int, qubit_j: int
) -> np.ndarray:
    """Exact Born probabilities of the four Bell outcomes on qubits (i, j)."""
    return (np.abs(_bell_coefficients(register, qubit_i, qubit_j)) ** 2).sum(axis=1)


def bell_project(
    register: StateVector, qubit_i: int, qubit_j: int, outcome: BellState | int
) -> tuple[float, StateVector | None]:
    """Probability of a Bell outcome and the collapsed register, or None if 0."""
    k = outcome.value if isinstance(outcome, BellState) else int(outcome)
    coeffs = _bell_coefficients(register, qubit_i, qubit_j)
    prob = float((np.abs(coeffs[k]) ** 2).sum())
    if prob <= _PROB_FLOOR:
        return prob, None
    return prob, _bell_collapse(register, qubit_i, qubit_j, k, coeffs[k], prob)


def bell_measure(
    register: StateVector | LabelRegister, qubit_i: int, qubit_j: int, rng: np.random.Generator
) -> tuple[BellState, StateVector | LabelRegister]:
    """Sample a Bell-basis measurement on qubits (i, j) and collapse.

    Returns the sampled outcome and the renormalised post-measurement
    register, of the type given. Born probabilities are exact; the branch
    choice is the only random element, one ``rng.random()`` on either
    engine.
    """
    if isinstance(register, LabelRegister):
        return _measure_labels(register, qubit_i, qubit_j, rng)
    coeffs = _bell_coefficients(register, qubit_i, qubit_j)
    probs = (np.abs(coeffs) ** 2).sum(axis=1)
    k = sample_index(probs, rng)
    return BELL_STATES[k], _bell_collapse(register, qubit_i, qubit_j, k, coeffs[k], probs[k])


def _measure_labels(
    register: LabelRegister, qubit_i: int, qubit_j: int, rng: np.random.Generator
) -> tuple[BellState, LabelRegister]:
    partner, label = register.partner, register.label
    n = len(partner)
    if qubit_i == qubit_j or not (0 <= qubit_i < n and 0 <= qubit_j < n):
        raise ValueError("qubits must be distinct and in range")
    mate_i, mate_j = partner[qubit_i], partner[qubit_j]
    if mate_i < 0 or mate_j < 0:
        return _measure_core(register, qubit_i, qubit_j, rng)
    if mate_i == qubit_j:
        rng.random()  # the draw sample_index makes on the dense engine, outcome certain
        return BELL_STATES[label[qubit_i]], register
    # sample_index over four branches of 1/4: 4u is exact, so this is the same branch.
    k = int(4.0 * rng.random())
    swapped = label[qubit_i] ^ label[qubit_j] ^ k
    new_partner = list(partner)
    new_label = list(label)
    new_partner[qubit_i], new_partner[qubit_j] = qubit_j, qubit_i
    new_partner[mate_i], new_partner[mate_j] = mate_j, mate_i
    new_label[qubit_i] = new_label[qubit_j] = k
    new_label[mate_i] = new_label[mate_j] = swapped
    register = _labels(tuple(new_partner), tuple(new_label), register.core, register.core_qubits)
    return BELL_STATES[k], register


def _measure_core(
    register: LabelRegister, qubit_i: int, qubit_j: int, rng: np.random.Generator
) -> tuple[BellState, LabelRegister]:
    """A Bell measurement that touches the core: absorb, measure densely, split the duo out.

    The core factors as Bell state k on the measured duo times
    ``coeffs[k] / sqrt(p_k)`` on its other qubits, which stay the core.
    """
    register = absorb(register, (qubit_i, qubit_j))
    core_qubits = register.core_qubits
    ci, cj = core_qubits.index(qubit_i), core_qubits.index(qubit_j)
    coeffs = _bell_coefficients(register.core, ci, cj)
    probs = (np.abs(coeffs) ** 2).sum(axis=1).tolist()
    k = sample_index(probs, rng)
    rest = tuple(q for q in core_qubits if q != qubit_i and q != qubit_j)
    core = StateVector(coeffs[k] / math.sqrt(probs[k])) if rest else None
    partner, label = list(register.partner), list(register.label)
    partner[qubit_i], partner[qubit_j] = qubit_j, qubit_i
    label[qubit_i] = label[qubit_j] = k
    return BELL_STATES[k], _labels(tuple(partner), tuple(label), core, rest)


def apply_single_qubit(
    register: StateVector | LabelRegister, qubit: int, matrix: np.ndarray
) -> StateVector | LabelRegister:
    """Apply a 2x2 unitary to one qubit of the register.

    On a ``LabelRegister`` any gate acts on a core qubit densely; a qubit of a
    labelled pair takes only the Paulis X, Y and Z, and any other gate raises
    ``ValueError``.
    """
    if isinstance(register, LabelRegister):
        if not 0 <= qubit < register.n_qubits:
            raise ValueError("qubit index out of range")
        if register.partner[qubit] >= 0:
            return _flip_labels(register, qubit, matrix)
        core = apply_single_qubit(register.core, register.core_qubits.index(qubit), matrix)
        return register.with_core(core)
    out = np.asarray(matrix, dtype=complex) @ _to_front(register, (qubit,))
    return _from_front(out, register.n_qubits, (qubit,))


# X, Y and Z on either qubit of a Bell pair, with the XOR each applies to its label.
_PAULI_FLIPS = ((SIGMA_X, 2), (SIGMA_Y, 3), (SIGMA_Z, 1))


def _pauli_flip(matrix: np.ndarray) -> int:
    """The label XOR of a Pauli gate: by identity first, as ``channel`` passes them."""
    for pauli, flip in _PAULI_FLIPS:
        if matrix is pauli:
            return flip
    gate = np.asarray(matrix)
    for pauli, flip in _PAULI_FLIPS:
        if gate.shape == (2, 2) and (gate == pauli).all():
            return flip
    raise ValueError("a label register takes only the Pauli gates X, Y and Z")


def _flip_labels(register: LabelRegister, qubit: int, matrix: np.ndarray) -> LabelRegister:
    flip = _pauli_flip(matrix)
    label = list(register.label)
    label[qubit] ^= flip
    label[register.partner[qubit]] ^= flip
    return _labels(register.partner, tuple(label), register.core, register.core_qubits)
