"""Alice and Bob session state machines.

A keyed session drives the rearrangement of every block from a pre-shared
control key; a bootstrap session lets both parties pick ops at random and
sifts the 25% of blocks where they happened to agree, turning the surviving
measurement outcomes into a candidate control key. Both end with an
eavesdropping check over a random subset of pairs and, on acceptance, raw
key extraction (two bits per surviving pair).

All randomness of a session flows from ``SessionConfig.seed``; a transcript
is a deterministic function of the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .adversary import EveLog, EveStrategy
from .channel import TransitBlock, transmit
from .quantum import BellState, StateVector, bell_measure, bell_state, tensor
from .rearrange import (
    ControlKey,
    CoreOpSet,
    GroupConfig,
    apply_core,
    invert_core,
    op_index_for_block,
)

MODES = ("keyed", "bootstrap")


class InsufficientSiftError(RuntimeError):
    """INSUFFICIENT_SIFT: fewer sifted bits than the requested key length."""


class RejectedTranscriptError(RuntimeError):
    """Raw key extraction refused because the eavesdropping check failed."""


@dataclass(frozen=True)
class SessionConfig:
    """Run parameters of one key-distribution session."""

    n_blocks: int
    control_key: ControlKey
    group: GroupConfig = GroupConfig()
    check_fraction: float = 0.5
    error_threshold: float = 0.1
    seed: int = 0
    mode: str = "keyed"
    eve: EveStrategy | None = None
    noise: float = 0.0
    op_set: CoreOpSet = field(default_factory=CoreOpSet.cyclic)
    requested_key_bits: int | None = None

    @property
    def block_size(self) -> int:
        return self.op_set.block_size

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if 2 * self.block_size > 8:
            raise ValueError("block registers are capped at 8 qubits")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check fraction must lie in (0, 1)")
        if not 0.0 < self.error_threshold <= 1.0:
            raise ValueError("error threshold must lie in (0, 1]")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError("noise must lie in [0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.requested_key_bits is not None and self.mode != "bootstrap":
            raise ValueError("requested_key_bits is for bootstrap sessions only")
        if self.requested_key_bits is not None and self.requested_key_bits < 2:
            raise ValueError("requested_key_bits must be >= 2")
        n_pairs = self.n_blocks * self.block_size
        if math.ceil(self.check_fraction * n_pairs) > n_pairs - 1:
            raise ValueError("check fraction leaves no unchecked pair")


@dataclass(frozen=True)
class PairRecord:
    """Outcome of one transmitted pair."""

    block: int
    slot: int
    prepared: BellState
    measured: BellState
    checked: bool = False
    sifted: bool = True


@dataclass(frozen=True)
class BlockRecord:
    """Per-block op choices and, when applicable, the adversary's guess."""

    index: int
    alice_op: int
    bob_op: int
    eve_guess: int | None = None
    eve_guess_correct: bool | None = None

    @property
    def sifted(self) -> bool:
        return self.alice_op == self.bob_op


@dataclass(frozen=True)
class VerdictReport:
    """Result of the eavesdropping check."""

    accepted: bool
    measured_error_rate: float
    threshold: float
    checked_count: int


@dataclass(frozen=True)
class SessionTranscript:
    """Full record of a session: per-pair outcomes, ops, verdict, adversary log."""

    mode: str
    records: tuple[PairRecord, ...]
    blocks: tuple[BlockRecord, ...]
    verdict: VerdictReport | None
    eve_log: EveLog | None = None

    # -- derived statistics ------------------------------------------------

    @property
    def n_pairs(self) -> int:
        return len(self.records)

    @property
    def accepted(self) -> bool:
        return self.verdict is not None and self.verdict.accepted

    @property
    def sift_rate(self) -> float:
        return sum(1 for b in self.blocks if b.sifted) / len(self.blocks)

    def _key_records(self) -> list[PairRecord]:
        return [r for r in self.records if r.sifted and not r.checked]

    def raw_key(self) -> tuple[int, ...]:
        """Receiver-side raw key bits over unchecked, sifted pairs."""
        bits: list[int] = []
        for r in self._key_records():
            bits.extend(r.measured.key_bits)
        return tuple(bits)

    def sender_raw_key(self) -> tuple[int, ...]:
        """Sender-side bits over the same pairs, for agreement checks."""
        bits: list[int] = []
        for r in self._key_records():
            bits.extend(r.prepared.key_bits)
        return tuple(bits)

    def agreement_rate(self, sifted: bool) -> float | None:
        pool = [r for r in self.records if r.sifted == sifted]
        if not pool:
            return None
        return sum(1 for r in pool if r.measured == r.prepared) / len(pool)

    def wrong_guess_error_rate(self) -> float | None:
        """Error rate over pairs in blocks the adversary guessed wrong."""
        wrong = {b.index for b in self.blocks if b.eve_guess_correct is False}
        pool = [r for r in self.records if r.block in wrong]
        if not pool:
            return None
        return sum(1 for r in pool if r.measured != r.prepared) / len(pool)

    def eve_bit_accuracy(self) -> float | None:
        """Fraction of Alice's pair bits the interceptor recovered, slot aligned."""
        if self.eve_log is None or not self.eve_log.guesses:
            return None
        prepared = {(r.block, r.slot): r.prepared for r in self.records}
        matched = 0
        total = 0
        for entry in self.eve_log.guesses:
            for slot, sym in enumerate(entry.measured):
                truth = prepared[(entry.block, slot)].key_bits
                got = sym.key_bits
                matched += (truth[0] == got[0]) + (truth[1] == got[1])
                total += 2
        return matched / total


def alice_prepare_block(
    rng: np.random.Generator, block_size: int = 4
) -> tuple[list[BellState], StateVector]:
    """Draw one block of Bell symbols uniformly and build its joint register.

    Pair k occupies qubits (2k, 2k+1): the upper-channel half first.
    """
    symbols = [BellState(int(v)) for v in rng.integers(0, 4, size=block_size)]
    register = tensor(*(bell_state(s) for s in symbols))
    return symbols, register


def _check_records(
    records: list[PairRecord],
    check_fraction: float,
    threshold: float,
    rng: np.random.Generator,
    eligible: Sequence[int],
) -> tuple[VerdictReport, list[PairRecord]]:
    """The public comparison over the eligible (sifted) records.

    Uniformly samples ceil(check_fraction * len(eligible)) of them, marks
    them checked, compares symbols, and accepts iff the error rate does not
    exceed the threshold. Checked pairs are excluded from the raw key.
    Returns the verdict and the marked records.
    """
    pool = list(eligible)
    n_check = math.ceil(check_fraction * len(pool))
    chosen = set(rng.choice(pool, size=n_check, replace=False).tolist()) if n_check else set()
    errors = 0
    updated = list(records)
    for idx in chosen:
        r = records[idx]
        updated[idx] = replace(r, checked=True)
        if r.measured != r.prepared:
            errors += 1
    rate = errors / n_check if n_check else 0.0
    verdict = VerdictReport(
        accepted=rate <= threshold,
        measured_error_rate=rate,
        threshold=threshold,
        checked_count=n_check,
    )
    return verdict, updated


def extract_raw_key(transcript: SessionTranscript) -> tuple[int, ...]:
    """Concatenated receiver bits over unchecked pairs, in temporal order.

    Refuses transcripts whose eavesdropping check failed or never ran.
    """
    if transcript.verdict is None:
        raise RejectedTranscriptError("transcript has no verdict")
    if not transcript.verdict.accepted:
        raise RejectedTranscriptError(
            f"check failed: error rate {transcript.verdict.measured_error_rate:.4f} "
            f"> threshold {transcript.verdict.threshold:.4f}"
        )
    return transcript.raw_key()


def guess_probability(key: ControlKey | int) -> float:
    """Probability that a uniform guesser hits the whole control key: 4**(-N_k)."""
    n_k = key.n_k if isinstance(key, ControlKey) else int(key)
    if n_k < 1:
        raise ValueError("key must hold at least one op index")
    return 4.0 ** (-n_k)


def _run_blocks(
    cfg: SessionConfig,
    rng: np.random.Generator,
    alice_ops: Sequence[int],
    bob_ops: Sequence[int],
) -> tuple[list[PairRecord], list[BlockRecord], EveLog | None]:
    log = EveLog() if cfg.eve is not None and cfg.eve.kind != "none" else None
    records: list[PairRecord] = []
    blocks: list[BlockRecord] = []
    for t in range(cfg.n_blocks):
        a_op = cfg.op_set[alice_ops[t]]
        b_op = cfg.op_set[bob_ops[t]]
        symbols, register = alice_prepare_block(rng, cfg.block_size)
        upper = tuple(2 * k for k in range(cfg.block_size))
        lower = apply_core(a_op, tuple(2 * k + 1 for k in range(cfg.block_size)))
        delivered, guess = transmit(
            TransitBlock(register, upper, lower),
            cfg.eve,
            cfg.noise,
            rng,
            op_set=cfg.op_set,
            block_index=t,
            log=log,
        )
        restored = invert_core(b_op, delivered.lower)
        register = delivered.register
        sifted = a_op.index == b_op.index
        for k in range(cfg.block_size):
            measured, register = bell_measure(
                register, delivered.upper[k], restored[k], rng
            )
            records.append(
                PairRecord(t, k, symbols[k], measured, checked=False, sifted=sifted)
            )
        blocks.append(
            BlockRecord(
                t,
                a_op.index,
                b_op.index,
                guess,
                None if guess is None else guess == a_op.index,
            )
        )
    return records, blocks, log


def _checked_transcript(
    cfg: SessionConfig,
    rng: np.random.Generator,
    records: list[PairRecord],
    blocks: list[BlockRecord],
    log: EveLog | None,
) -> SessionTranscript:
    """Run the eavesdropping check over the sifted pairs and seal the transcript.

    Every pair of a keyed session is sifted. A bootstrap session that sifted
    no block is rejected without a check.
    """
    eligible = [i for i, r in enumerate(records) if r.sifted]
    if eligible:
        verdict, records = _check_records(
            records, cfg.check_fraction, cfg.error_threshold, rng, eligible
        )
    else:
        verdict = VerdictReport(False, 1.0, cfg.error_threshold, 0)
    return SessionTranscript(
        mode=cfg.mode,
        records=tuple(records),
        blocks=tuple(blocks),
        verdict=verdict,
        eve_log=log,
    )


def run_keyed_session(cfg: SessionConfig) -> SessionTranscript:
    """One synchronized session: both parties drive ops from the shared key.

    With no adversary and no noise every restored pair is an eigenstate of
    the receiver's measurement, so the outcome equals the prepared symbol
    exactly.
    """
    if cfg.mode != "keyed":
        raise ValueError("config mode is not 'keyed'")
    rng = np.random.default_rng(cfg.seed)
    ops = [op_index_for_block(cfg.control_key, cfg.group, t) for t in range(cfg.n_blocks)]
    return _checked_transcript(cfg, rng, *_run_blocks(cfg, rng, ops, ops))


def run_bootstrap_session(
    cfg: SessionConfig,
) -> tuple[ControlKey | None, SessionTranscript]:
    """On-site control-key generation: both parties choose ops at random.

    Blocks with identical choices (25% on average) are sifted in; after the
    eavesdropping check on the sifted pairs, the receiver's unchecked bits
    become the candidate control key. Raises InsufficientSiftError when
    fewer bits survive than requested (or fewer than one op index when no
    length was requested).
    """
    if cfg.mode != "bootstrap":
        raise ValueError("config mode is not 'bootstrap'")
    rng = np.random.default_rng(cfg.seed)
    alice_ops = [int(v) for v in rng.integers(0, 4, size=cfg.n_blocks)]
    bob_ops = [int(v) for v in rng.integers(0, 4, size=cfg.n_blocks)]
    transcript = _checked_transcript(cfg, rng, *_run_blocks(cfg, rng, alice_ops, bob_ops))
    if not transcript.accepted:
        return None, transcript
    bits = transcript.raw_key()
    wanted = cfg.requested_key_bits
    if wanted is not None:
        if len(bits) < wanted:
            raise InsufficientSiftError(
                f"INSUFFICIENT_SIFT: {len(bits)} sifted bits < requested {wanted}"
            )
        bits = bits[:wanted]
    if len(bits) < 2:
        raise InsufficientSiftError(
            f"INSUFFICIENT_SIFT: {len(bits)} sifted bits cannot form a key"
        )
    if len(bits) % 2:
        bits = bits[:-1]
    return ControlKey(tuple(bits)), transcript
