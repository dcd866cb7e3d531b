"""Order-rearrangement operations and the switched delay-loop device.

The encryption layer is purely classical: a block of lower-channel particles
is reordered by one of four permutations selected by two control-key bits.
``apply_core``/``invert_core`` implement the abstract permutations;
``schedule_to_perm``/``perm_to_schedule`` connect them to a concrete
switch-and-delay-loop device model simulated in discrete time slots.

Declared device geometry (a named, swappable model):

A single fibre delay loop of ``loop_delay`` slots hangs off the direct line
behind three binary switches. Particle ``p`` of a block arrives at slot
``p`` carrying its own switch triple ``(s1, s2, s3)``:

* ``s1``  up: stay on the direct line and reach the output in the arrival
  slot. down: divert into the loop; the particle reaches the loop junction
  after one full circuit (``loop_delay`` slots).
* ``s2``  up: release the particle at the junction toward the output merge.
  down: recirculate for another circuit. A particle whose total circuits
  exceed ``max_circuits`` is reported STUCK.
* ``s3``  up: the merge passes a released particle straight to the output.
  down: the released particle is deflected around the loop once more and
  then exits unconditionally.

Two particles occupying the same loop phase (junction slot) or the same
output slot collide. The induced permutation is read off the output order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

UP = "up"
DOWN = "down"

# Canonical per-particle triples under the declared geometry.
PASS_TRIPLE = (UP, UP, DOWN)       # direct line, exits in the arrival slot
DELAY_ONE_TRIPLE = (DOWN, UP, UP)   # one loop circuit
DELAY_TWO_TRIPLE = (DOWN, UP, DOWN)  # one circuit plus a deflection circuit

DEFAULT_BLOCK_SIZE = 4


class CollisionError(RuntimeError):
    """COLLISION: two particles were routed into the same slot."""


class StuckError(RuntimeError):
    """STUCK: a particle recirculates beyond the device budget."""


class UnrealizableError(RuntimeError):
    """UNREALIZABLE: no schedule within the budget produces the permutation."""


@dataclass(frozen=True)
class CoreOp:
    """One rearrangement operation: a 2-bit control value and a block permutation.

    ``perm`` is read as: output position p carries input element perm[p].
    """

    index: int
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.index <= 3:
            raise ValueError("op index must be a 2-bit value")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm!r} is not a permutation")

    @property
    def block_size(self) -> int:
        return len(self.perm)

    @functools.cached_property
    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * len(self.perm)
        for p, src in enumerate(self.perm):
            inv[src] = p
        return tuple(inv)

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def is_derangement(self) -> bool:
        return all(p != i for i, p in enumerate(self.perm))


def _cyclic_perm(shift: int, size: int) -> tuple[int, ...]:
    return tuple((p + shift) % size for p in range(size))


class CoreOpSet:
    """The four rearrangement operations available to a session.

    Index 0 must be the identity and indices 1..3 must be pairwise distinct
    derangements, so that every wrong choice misaligns every pair.
    """

    def __init__(self, perms: Sequence[Sequence[int]]):
        if len(perms) != 4:
            raise ValueError("an op set holds exactly four permutations")
        ops = tuple(CoreOp(i, tuple(p)) for i, p in enumerate(perms))
        size = ops[0].block_size
        if any(op.block_size != size for op in ops):
            raise ValueError("all permutations must act on the same block size")
        if not ops[0].is_identity():
            raise ValueError("op 0 must be the identity permutation")
        for op in ops[1:]:
            if not op.is_derangement():
                raise ValueError(f"op {op.index} must be a derangement, got {op.perm!r}")
        if len({op.perm for op in ops}) != 4:
            raise ValueError("permutations must be pairwise distinct")
        self.ops = ops
        self.block_size = size

    @classmethod
    def cyclic(cls) -> "CoreOpSet":
        """Default set: cyclic shifts by 0, 1, 2, 3 of a block of four."""
        return cls([_cyclic_perm(s, DEFAULT_BLOCK_SIZE) for s in range(4)])

    def __getitem__(self, index: int) -> CoreOp:
        return self.ops[index]

    def __iter__(self) -> Iterator[CoreOp]:
        return iter(self.ops)

    def __eq__(self, other) -> bool:
        return isinstance(other, CoreOpSet) and self.ops == other.ops


def apply_core(op: CoreOp, block: Sequence[T]) -> tuple[T, ...]:
    """Rearrange a block: output position p carries input element perm[p]."""
    if len(block) != op.block_size:
        raise ValueError(f"block length {len(block)} != op block size {op.block_size}")
    return tuple(block[src] for src in op.perm)


def invert_core(op: CoreOp, block: Sequence[T]) -> tuple[T, ...]:
    """Undo ``apply_core``: invert_core(op, apply_core(op, b)) == b."""
    if len(block) != op.block_size:
        raise ValueError(f"block length {len(block)} != op block size {op.block_size}")
    return tuple(block[src] for src in op.inverse_perm)


@dataclass(frozen=True)
class ControlKey:
    """Pre-shared bit string, read as 2-bit op indices and reused cyclically."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < 2 or len(self.bits) % 2:
            raise ValueError("control key needs an even number of bits, at least 2")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("control key bits must be 0 or 1")

    @property
    def n_k(self) -> int:
        return len(self.bits) // 2

    @functools.cached_property
    def op_indices(self) -> tuple[int, ...]:
        return tuple(
            (self.bits[2 * i] << 1) | self.bits[2 * i + 1] for i in range(self.n_k)
        )

    @classmethod
    def from_indices(cls, indices: Sequence[int]) -> "ControlKey":
        bits: list[int] = []
        for v in indices:
            if not 0 <= v <= 3:
                raise ValueError("op indices are 2-bit values")
            bits += [(v >> 1) & 1, v & 1]
        return cls(tuple(bits))

    @classmethod
    def from_bits(cls, bits: str | Sequence[int]) -> "ControlKey":
        if isinstance(bits, str):
            return cls(tuple(int(c) for c in bits.strip()))
        return cls(tuple(int(b) for b in bits))

    @classmethod
    def random(cls, n_k: int, rng: np.random.Generator) -> "ControlKey":
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=2 * n_k)))

    def as_bit_string(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class GroupConfig:
    """Number of consecutive blocks governed by one key value."""

    group_size: int = 1

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")


def op_index_for_block(key: ControlKey, group: GroupConfig, block: int | np.ndarray) -> int | np.ndarray:
    """Key value selecting the op for block t: position floor(t/group) mod N_k.

    ``block`` is one block index, or an integer array of them for the array
    of their op indices.
    """
    position = (block // group.group_size) % key.n_k
    if isinstance(position, np.ndarray):
        return np.take(key.op_indices, position)
    return key.op_indices[position]


Triple = tuple[str, str, str]


@dataclass(frozen=True)
class SwitchSchedule:
    """Per-particle switch triples, one per block position."""

    triples: tuple[Triple, ...]

    def __post_init__(self) -> None:
        if not self.triples:
            raise ValueError("schedule must not be empty")
        for t in self.triples:
            if len(t) != 3 or any(s not in (UP, DOWN) for s in t):
                raise ValueError(f"bad switch triple {t!r}")

    def __len__(self) -> int:
        return len(self.triples)

    @classmethod
    def uniform(cls, triple: Triple, block_size: int = DEFAULT_BLOCK_SIZE) -> "SwitchSchedule":
        return cls(tuple(triple for _ in range(block_size)))


@dataclass(frozen=True)
class DeviceModel:
    """Geometry parameters of the delay-loop device.

    ``loop_delay`` is the circuit time of the loop in slots; the default of
    one block interval gives the loop enough storage phases to realise every
    cyclic shift of a block. ``max_circuits`` is the dwell budget.
    """

    loop_delay: int = DEFAULT_BLOCK_SIZE
    max_circuits: int = 2

    def __post_init__(self) -> None:
        if self.loop_delay < 1:
            raise ValueError("loop_delay must be >= 1 slot")
        if self.max_circuits < 1:
            raise ValueError("max_circuits must be >= 1")


def schedule_to_perm(
    schedule: SwitchSchedule, device: DeviceModel = DeviceModel()
) -> tuple[int, ...]:
    """Simulate the device slot by slot and return the induced permutation.

    Raises CollisionError if two particles share a loop phase or an output
    slot, StuckError if a particle exceeds the circuit budget.
    """
    loop_hits: dict[int, int] = {}
    exits: dict[int, int] = {}
    for p, (s1, s2, s3) in enumerate(schedule.triples):
        if s1 == UP:
            exit_slot = p
        else:
            circuits = 1
            t = p + device.loop_delay
            _claim(loop_hits, t, p)
            while s2 == DOWN:
                circuits += 1
                if circuits > device.max_circuits:
                    raise StuckError(
                        f"STUCK: particle {p} recirculates beyond {device.max_circuits} circuits"
                    )
                t += device.loop_delay
                _claim(loop_hits, t, p)
            if s3 == DOWN:
                circuits += 1
                if circuits > device.max_circuits:
                    raise StuckError(
                        f"STUCK: particle {p} recirculates beyond {device.max_circuits} circuits"
                    )
                t += device.loop_delay
                _claim(loop_hits, t, p)
            exit_slot = t
        if exit_slot in exits:
            raise CollisionError(
                f"COLLISION: particles {exits[exit_slot]} and {p} share output slot {exit_slot}"
            )
        exits[exit_slot] = p
    return tuple(exits[slot] for slot in sorted(exits))


def _claim(hits: dict[int, int], slot: int, particle: int) -> None:
    if slot in hits:
        raise CollisionError(
            f"COLLISION: particles {hits[slot]} and {particle} share loop slot {slot}"
        )
    hits[slot] = particle


def perm_to_schedule(
    perm: Sequence[int], device: DeviceModel = DeviceModel()
) -> SwitchSchedule:
    """Find a schedule realising the permutation by bounded search.

    Candidates are enumerated per particle from the canonical triples
    (pass, one circuit, two circuits as the budget allows) and validated
    through ``schedule_to_perm``, so the result is consistent with the
    device simulation by construction.
    """
    target = tuple(perm)
    if sorted(target) != list(range(len(target))):
        raise ValueError(f"{perm!r} is not a permutation")
    options: list[Triple] = [PASS_TRIPLE, DELAY_ONE_TRIPLE]
    if device.max_circuits >= 2:
        options.append(DELAY_TWO_TRIPLE)
    for combo in itertools.product(options, repeat=len(target)):
        schedule = SwitchSchedule(combo)
        try:
            if schedule_to_perm(schedule, device) == target:
                return schedule
        except (CollisionError, StuckError):
            continue
    raise UnrealizableError(
        f"UNREALIZABLE: no schedule within budget {device.max_circuits} produces {target!r}"
    )
