"""Alice and Bob session state machines.

A keyed session drives the rearrangement of every block from a pre-shared
control key; a bootstrap session lets both parties pick ops at random and
sifts the 25% of blocks where they happened to agree, turning the surviving
measurement outcomes into a candidate control key. Both end with an
eavesdropping check over a random subset of pairs and, on acceptance, raw
key extraction (two bits per surviving pair).

All randomness of a session flows from ``SessionConfig.seed``; a transcript
is a deterministic function of the configuration.

Every block holds ``rearrange.BLOCK_SIZE`` (four) pairs, slot k prepared
on qubits ``UPPER[k]`` and ``LOWER[k]``; ``rearrange`` fixes that geometry,
and nothing here takes it as a parameter.

A ``SessionTranscript`` keeps its outcomes as read-only numpy columns. Per
pair (``PairColumns``): the prepared and measured ``BellState`` values and
the checked and sifted flags; pair i is slot k of block t for ``(t, k) =
divmod(i, 4)``. Per block (``BlockColumns``): Alice's op, Bob's op and
Eve's guessed op (-1 where she guessed none). Eve's own symbols, one per
pair of every block she guessed, are a byte column of her ``EveLog``. The
derived statistics are array reductions over these columns. Both column
sets are also sequences that build a ``PairRecord`` or ``BlockRecord`` each
time one is read (nothing is cached), and a transcript given records
instead of columns packs them into the same columns.

Engines. ``_run_session`` draws both parties' ops and makes the one engine
choice, from the session's mode, Eve kind and budget. A keyed session with
no Eve, or whose Eve is a ``bell_probe`` with ``budget == 1``, runs from one
raw-draw tape (``_run_tape``); every other session runs block by block
(``_run_blocks``): prepare a block, ``transmit`` it through Eve and the
noise, and let Bob Bell-measure each restored pair. Under a ``bell_probe``
Eve, whose probe is not Clifford, every such block is the dense ``tensor``
of Alice's four Bell states; every other block is a ``LabelRegister``.
An engine only measures: it returns the prepared and measured uint8 pair
columns, Eve's guess per block and her log. ``_run_session`` then derives
the sifted pairs from the two op columns, runs the check and builds the
transcript's columns, once for every engine.
A tape block makes a fixed run of draws: 2 raw 64-bit draws for the
symbols, 1 uniform for the probe if there is one, 8 when ``noise > 0``
(upper qubits 0, 2, 4, 6, then lower slots 0-3, slot p on qubit
``2*perm[p] + 1``) and 4 for Bob's pairs in slot order. So one
``random_raw`` tape of n_blocks rows (``_session_tape``) replays the
session, and the check's draws continue the same stream. Noise is an XOR:
X, Y and Z on a qubit of a Bell pair map Bell state k to k ^ 2, k ^ 3 and
k ^ 1, and a pair that stays a Bell pair measures ``label ^ flips``; Bob's
draws on it are spent unread, as ``_measure_labels`` spends them on a
certain outcome. The probe entangles pair 0 alone (op ``perm[0] == 0``) or
pairs 0 and ``j = perm[0]``, whose outcomes the tape overwrites.
``adversary.probe_tables(a, b)`` holds the probe's branch probabilities,
Bob's pair-0 Bell probabilities in each branch, and his pair-j
probabilities given pair 0's outcome, all computed once on a dense register
of just the probed pairs. Flips only permute the table columns Bob reads.
Each outcome is drawn by ``quantum.sample_rows``, ``sample_index``'s rule
row by row. The tables equal the dense block's probabilities to rounding
(up to about 1e-16), so only a draw that close to a branch boundary could
tell the tape from the per-block engine.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .adversary import EveLog, EveStrategy, probe_table_rows, probe_tables
from .channel import _PAULIS, transmit
from .quantum import (
    BELL_STATES, BellState, LabelRegister, _pauli_flip, bell_measure, bell_state, sample_rows, tensor,
)
from .rearrange import (
    BLOCK_SIZE,
    LOWER,
    UPPER,
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
    block_size: ClassVar[int] = BLOCK_SIZE  # not a field: perfbench's workloads read it

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must lie in (0, 1)")
        if not 0.0 < self.error_threshold <= 1.0:
            raise ValueError("error_threshold must lie in (0, 1]")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError("noise must lie in [0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.requested_key_bits is not None and self.mode != "bootstrap":
            raise ValueError("requested_key_bits is for bootstrap sessions only")
        if self.requested_key_bits is not None and self.requested_key_bits < 2:
            raise ValueError("requested_key_bits must be >= 2")
        if self.requested_key_bits is not None and self.requested_key_bits % 2:
            raise ValueError("requested_key_bits must be even: a control key holds two bits per op")
        n_pairs = self.n_blocks * BLOCK_SIZE
        if math.ceil(self.check_fraction * n_pairs) > n_pairs - 1:
            raise ValueError("check_fraction leaves no unchecked pair")


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


def _column(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class _Columns(Sequence):
    """Read-only numpy columns read as a sequence of records built on access.

    A subclass names its columns in ``_fields`` and defines ``_records(start,
    stop, step)``, which yields the records of a slice, and ``_pack(records)``.
    """

    _fields: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(getattr(self, self._fields[0]))

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, int):
            return next(self._records(picked, picked + 1, 1))
        # A reversed range ends at -1, which a slice would read as the last item.
        stop = picked.stop if picked.stop >= 0 else None
        return tuple(self._records(picked.start, stop, picked.step))

    def __iter__(self) -> Iterator:
        return self._records(0, None, 1)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self._fields)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} records>"

    @classmethod
    def of(cls, records: Sequence):
        """``records`` if they are columns already, else the columns holding them."""
        if isinstance(records, cls):
            return records
        records = tuple(records)
        columns = cls._pack(records)
        if tuple(columns) != records:
            raise ValueError(f"{cls.__name__} cannot hold these records in order")
        return columns


class PairColumns(_Columns):
    """Per-pair columns; pair i is slot k of block t for ``(t, k) = divmod(i, BLOCK_SIZE)``."""

    _fields = ("prepared", "measured", "checked", "sifted")

    def __init__(self, prepared, measured, checked, sifted):
        self.prepared = _column(prepared, np.uint8)
        self.measured = _column(measured, np.uint8)
        self.checked = _column(checked, bool)
        self.sifted = _column(sifted, bool)

    def _records(self, start, stop, step):
        rows = slice(start, stop, step)
        for i, p, m, c, s in zip(
            itertools.count(start, step),
            self.prepared[rows].tolist(),
            self.measured[rows].tolist(),
            self.checked[rows].tolist(),
            self.sifted[rows].tolist(),
        ):
            yield PairRecord(*divmod(i, BLOCK_SIZE), BELL_STATES[p], BELL_STATES[m], c, s)

    @classmethod
    def _pack(cls, records):
        return cls(
            [r.prepared.value for r in records],
            [r.measured.value for r in records],
            [r.checked for r in records],
            [r.sifted for r in records],
        )


class BlockColumns(_Columns):
    """Per-block columns; block t has index t, and ``eve_guess`` is -1 where Eve guessed none."""

    _fields = ("alice_op", "bob_op", "eve_guess")

    def __init__(self, alice_op, bob_op, eve_guess):
        self.alice_op = _column(alice_op, np.uint8)
        self.bob_op = _column(bob_op, np.uint8)
        self.eve_guess = _column(eve_guess, np.int8)

    def _records(self, start, stop, step):
        rows = slice(start, stop, step)
        for t, a, b, g in zip(
            itertools.count(start, step),
            self.alice_op[rows].tolist(),
            self.bob_op[rows].tolist(),
            self.eve_guess[rows].tolist(),
        ):
            yield BlockRecord(t, a, b, None if g < 0 else g, None if g < 0 else g == a)

    @classmethod
    def _pack(cls, records):
        return cls(
            [b.alice_op for b in records],
            [b.bob_op for b in records],
            [-1 if b.eve_guess is None else b.eve_guess for b in records],
        )


@dataclass(frozen=True)
class VerdictReport:
    """Result of the eavesdropping check."""

    accepted: bool
    measured_error_rate: float
    threshold: float
    checked_count: int


# Row v holds the two key bits of the Bell state of value v.
_KEY_BITS = np.array([s.key_bits for s in BELL_STATES], dtype=np.uint8)


@dataclass(frozen=True)
class SessionTranscript:
    """Full record of a session: per-pair outcomes, ops, verdict, adversary log.

    ``records`` and ``blocks`` may be given as sequences of ``PairRecord`` and
    ``BlockRecord``; they are packed into ``PairColumns`` and ``BlockColumns``.
    """

    mode: str
    records: PairColumns
    blocks: BlockColumns
    verdict: VerdictReport | None
    eve_log: EveLog | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", PairColumns.of(self.records))
        object.__setattr__(self, "blocks", BlockColumns.of(self.blocks))
        if len(self.records) != len(self.blocks) * BLOCK_SIZE:
            raise ValueError("records do not fill the blocks")

    # -- derived statistics ------------------------------------------------

    @property
    def n_pairs(self) -> int:
        return len(self.records)

    @property
    def accepted(self) -> bool:
        return self.verdict is not None and self.verdict.accepted

    @property
    def sift_rate(self) -> float:
        blocks = self.blocks
        return int(np.count_nonzero(blocks.alice_op == blocks.bob_op)) / len(blocks)

    def _key_bits(self, symbols: np.ndarray) -> tuple[int, ...]:
        kept = symbols[self.records.sifted & ~self.records.checked]
        return tuple(_KEY_BITS[kept].ravel().tolist())

    @property
    def raw_key_length(self) -> int:
        """``len(raw_key())``: two bits per unchecked, sifted pair."""
        return 2 * int(np.count_nonzero(self.records.sifted & ~self.records.checked))

    def raw_key(self) -> tuple[int, ...]:
        """Receiver-side raw key bits over unchecked, sifted pairs."""
        return self._key_bits(self.records.measured)

    def sender_raw_key(self) -> tuple[int, ...]:
        """Sender-side bits over the same pairs, for agreement checks."""
        return self._key_bits(self.records.prepared)

    def _share(self, pool: np.ndarray, agree: bool) -> float | None:
        """Share of the pairs in the ``pool`` mask measured (un)equal to their symbol."""
        n = int(np.count_nonzero(pool))
        if not n:
            return None
        pairs = self.records
        hits = pool & ((pairs.measured == pairs.prepared) == agree)
        return int(np.count_nonzero(hits)) / n

    def agreement_rate(self, sifted: bool) -> float | None:
        return self._share(self.records.sifted == sifted, True)

    def wrong_guess_error_rate(self) -> float | None:
        """Error rate over pairs in blocks the adversary guessed wrong."""
        blocks = self.blocks
        wrong = (blocks.eve_guess >= 0) & (blocks.eve_guess != blocks.alice_op)
        if not wrong.any():
            return None
        return self._share(np.repeat(wrong, BLOCK_SIZE), False)

    def eve_bit_accuracy(self) -> float | None:
        """Fraction of Alice's pair bits the interceptor recovered, slot aligned.

        A wrong guess scores 1/2 per bit here. What it still reveals is not
        counted: over each cycle of the wrong permutation, Eve's symbols XOR
        to Alice's.
        """
        if self.eve_log is None or not self.eve_log.symbols:
            return None
        got = np.frombuffer(self.eve_log.symbols, dtype=np.uint8)
        guessed = np.repeat(self.blocks.eve_guess >= 0, BLOCK_SIZE)
        wrong_bits = _KEY_BITS[self.records.prepared[guessed] ^ got]
        total = 2 * len(got)
        return (total - int(np.count_nonzero(wrong_bits))) / total


def alice_prepare_block(rng: np.random.Generator) -> tuple[list[BellState], LabelRegister]:
    """Draw one block of Bell symbols uniformly and build its joint register.

    Pair k occupies qubits ``(UPPER[k], LOWER[k]) = (2k, 2k+1)``. The
    register is a ``LabelRegister``; its ``state()`` is the dense one.

    The symbols are ``rng.integers(0, 4, size=4)``, read off 2 raw 64-bit
    draws, low 32 bits first: numpy's Lemire method for range 4 maps a
    32-bit draw u to u >> 30 and never rejects. That is the same stream for
    a PCG64 generator holding no buffered 32-bit half, as in every session:
    the ops of a bootstrap session take an even number of halves.
    """
    values = [v for r in rng.bit_generator.random_raw(BLOCK_SIZE // 2).tolist() for v in _raw_labels(r)]
    return [BELL_STATES[v] for v in values], LabelRegister(values)


def _raw_labels(raw):
    """The two symbols ``rng.integers(0, 4)`` reads off a raw 64-bit draw (an int or an array)."""
    return (raw >> 30) & 3, raw >> 62


def _check_records(
    prepared: np.ndarray, measured: np.ndarray, check_fraction: float, threshold: float,
    rng: np.random.Generator, eligible: Sequence[int] | np.ndarray,
) -> tuple[VerdictReport, np.ndarray]:
    """The public comparison over the eligible (sifted) pairs.

    Uniformly samples ceil(check_fraction * len(eligible)) of them, compares
    symbols, and accepts iff the error rate does not exceed the threshold.
    Returns the verdict and the mask of checked pairs, which the raw key
    excludes. With no eligible pair the session is rejected without a draw.
    """
    checked = np.zeros(len(prepared), bool)
    n_check = math.ceil(check_fraction * len(eligible))
    if not n_check:
        return VerdictReport(False, 1.0, threshold, 0), checked
    chosen = rng.choice(eligible, size=n_check, replace=False)
    checked[chosen] = True
    rate = int(np.count_nonzero(measured[chosen] != prepared[chosen])) / n_check
    return VerdictReport(rate <= threshold, rate, threshold, n_check), checked


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
) -> tuple[np.ndarray, np.ndarray, list[int], EveLog | None]:
    log = None if cfg.eve is None else EveLog()
    prepared: list[int] = []
    measured: list[int] = []
    eve_guess: list[int] = []
    op_set = cfg.op_set
    dense = cfg.eve is not None and cfg.eve.kind == "bell_probe"
    for t in range(cfg.n_blocks):
        symbols, register = alice_prepare_block(rng)
        if dense:
            register = tensor(*map(bell_state, symbols))
        lower = apply_core(op_set[alice_ops[t]], LOWER)
        register, guess = transmit(register, UPPER, lower, cfg, rng, block_index=t, log=log)
        for qa, qb in zip(UPPER, invert_core(op_set[bob_ops[t]], lower)):
            outcome, register = bell_measure(register, qa, qb, rng)
            measured.append(outcome._value_)  # the Enum attribute, without the property call
        prepared += [s._value_ for s in symbols]
        eve_guess.append(-1 if guess is None else guess)
    return np.array(prepared, np.uint8), np.array(measured, np.uint8), eve_guess, log


# The label XOR of each Pauli ``channel.depolarize`` applies, in its order.
_PAULI_XOR = np.array([_pauli_flip(p) for p in _PAULIS], dtype=np.uint8)


def _session_tape(
    cfg: SessionConfig, rng: np.random.Generator, perms: np.ndarray, eve_draws: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The draws of a keyed session whose blocks all draw alike, one row per block.

    A block draws 2 raws for its symbols, ``eve_draws`` uniforms for Eve, 8
    for noise when ``noise > 0`` and 4 for Bob. Returns the prepared labels,
    Eve's uniforms, the label XOR noise left on each pair and Bob's uniforms.
    """
    n, size = cfg.n_blocks, BLOCK_SIZE
    half = size // 2
    noisy = cfg.noise > 0.0
    draws = half + eve_draws + (2 * size if noisy else 0) + size
    tape = rng.bit_generator.random_raw(n * draws).reshape(n, draws)
    labels = np.stack(_raw_labels(tape[:, :half]), axis=2).reshape(n, size).astype(np.uint8)
    u = (tape[:, half:] >> 11) * 2.0**-53  # rng.random() of each raw draw
    flips = np.zeros((n, size), np.uint8)
    if noisy:
        quarter = cfg.noise / 4.0
        noise = u[:, eve_draws : eve_draws + 2 * size]
        hit = noise < 3.0 * quarter
        pauli = np.zeros(noise.shape, np.uint8)
        pauli[hit] = _PAULI_XOR[(noise[hit] / quarter).astype(np.intp)]
        flips ^= pauli[:, :size]  # upper qubit 2k belongs to pair k
        flips[np.arange(n)[:, None], perms] ^= pauli[:, size:]  # lower slot p carries pair perm[p]
    return labels, u[:, :eve_draws], flips, u[:, -size:]


def _run_tape(
    cfg: SessionConfig, rng: np.random.Generator, ops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, EveLog | None]:
    """``_run_blocks`` for a keyed session with no Eve or one probing one duo per block.

    Bob reads each pair's ``label ^ flips``. Under the probe, the probe and
    Bob's measurements of the probed pairs read ``probe_tables`` (see the
    module docstring).
    """
    perms = np.array([op.perm for op in cfg.op_set])[ops]
    probed = cfg.eve is not None
    labels, eve, flips, bob = _session_tape(cfg, rng, perms, int(probed))
    measured = labels ^ flips
    log = None
    if probed:
        j = perms[:, 0]
        table_row = probe_table_rows(labels, j)
        probe, first, second = probe_tables(cfg.eve.a, cfg.eve.b)
        kp = sample_rows(probe[table_row], eve[:, 0])
        # A Pauli XORs a Bell outcome, so flips permute the columns of a table row.
        outcomes = np.arange(4, dtype=np.uint8)
        f0 = flips[:, 0, None]
        measured[:, 0] = sample_rows(first[kp[:, None], table_row[:, None], outcomes ^ f0], bob[:, 0])
        two = np.flatnonzero(j)
        jt = j[two]
        given_r0 = measured[two, :1] ^ f0[two]
        conditional = second[kp[two, None], table_row[two, None], given_r0, outcomes ^ flips[two, jt, None]]
        measured[two, jt] = sample_rows(conditional, bob[two, jt])
        rows = np.arange(cfg.n_blocks)
        log = EveLog.of_probes(rows, np.zeros_like(rows), 1 - 2 * kp)
    return labels.ravel(), measured.ravel(), np.full(len(ops), -1), log


def _run_session(cfg: SessionConfig) -> SessionTranscript:
    """Draw both parties' ops, run the blocks on their engine, check the sifted pairs and build the transcript.

    The one engine choice: a keyed session with no Eve, or whose Eve probes
    one duo per block, runs from the tape; every other session runs block
    by block.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "keyed":
        alice_ops = bob_ops = op_index_for_block(cfg.control_key, cfg.group, np.arange(cfg.n_blocks))
    else:
        alice_ops = rng.integers(0, 4, size=cfg.n_blocks)
        bob_ops = rng.integers(0, 4, size=cfg.n_blocks)
    eve = cfg.eve
    if cfg.mode == "keyed" and (eve is None or (eve.kind == "bell_probe" and eve.budget == 1)):
        prepared, measured, eve_guess, log = _run_tape(cfg, rng, alice_ops)
    else:
        prepared, measured, eve_guess, log = _run_blocks(cfg, rng, alice_ops.tolist(), bob_ops.tolist())
    sifted = np.repeat(alice_ops == bob_ops, BLOCK_SIZE)
    verdict, checked = _check_records(
        prepared, measured, cfg.check_fraction, cfg.error_threshold, rng, np.flatnonzero(sifted)
    )
    pairs = PairColumns(prepared, measured, checked, sifted)
    return SessionTranscript(cfg.mode, pairs, BlockColumns(alice_ops, bob_ops, eve_guess), verdict, log)


def run_keyed_session(cfg: SessionConfig) -> SessionTranscript:
    """One synchronized session: both parties drive ops from the shared key.

    With no adversary and no noise every restored pair is an eigenstate of
    the receiver's measurement, so the outcome equals the prepared symbol
    exactly.
    """
    if cfg.mode != "keyed":
        raise ValueError("config mode is not 'keyed'")
    return _run_session(cfg)


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
    transcript = _run_session(cfg)
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
    return ControlKey(tuple(bits)), transcript
