"""Two-channel slot transport with adversary interposition and noise.

Slots are abstract indices: after the interval-evening discipline all slots
are equidistant and timing carries no information, so transport reduces to
order-preserving bookkeeping plus state degradation. The upper channel
always carries the preparation order; the lower channel carries whatever
rearrangement the sender baked in. ``transmit`` itself never permutes: it
takes the block register with the caller's slot-to-qubit orders and hands
the register back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import adversary
from .adversary import EveLog
from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z, LabelRegister, StateVector, apply_single_qubit

if TYPE_CHECKING:
    from .protocol import SessionConfig

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def depolarize(
    register: StateVector | LabelRegister,
    qubits: tuple[int, ...],
    probability: float,
    rng: np.random.Generator,
) -> StateVector | LabelRegister:
    """Per-qubit depolarizing noise at the given rate.

    Each listed qubit is replaced by the maximally mixed state with the
    given probability; on a pure-state trajectory that is X, Y or Z applied
    each with probability p/4 (identity otherwise).
    """
    if not 0.0 <= probability < 1.0 + 1e-12:
        raise ValueError("noise probability must lie in [0, 1]")
    if probability == 0.0:
        return register
    quarter = probability / 4.0
    for q in qubits:
        u = rng.random()
        if u < 3.0 * quarter:
            register = apply_single_qubit(register, q, _PAULIS[int(u / quarter)])
    return register


def transmit(
    register: StateVector | LabelRegister,
    upper: tuple[int, ...],
    lower: tuple[int, ...],
    session: SessionConfig,
    rng: np.random.Generator,
    *,
    block_index: int = 0,
    log: EveLog | None = None,
) -> tuple[StateVector | LabelRegister, int | None]:
    """Transport one block of ``session`` through both insecure lines.

    Slot k travels as qubit ``upper[k]`` on the upper line and qubit
    ``lower[k]`` on the lower one. Applies the session's Eve (if any), then
    per-qubit depolarizing noise at the session's rate on every transmitted
    qubit; with no Eve and zero noise the delivery is exact. Returns the
    delivered register and Eve's guessed op index, when she guesses one.
    """
    guess: int | None = None
    if session.eve is not None:
        register, guess = adversary.intercept(session, register, upper, lower, block_index, rng, log)
    if session.noise > 0.0:
        register = depolarize(register, upper + lower, session.noise, rng)
    return register, guess
