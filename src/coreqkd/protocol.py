"""Alice and Bob session state machines.

A keyed session drives the rearrangement of every block from a pre-shared
control key; a bootstrap session lets both parties pick ops at random and
sifts the 25% of blocks where they happened to agree, turning the surviving
measurement outcomes into a candidate control key. Both end with an
eavesdropping check over a random subset of pairs and, on acceptance, raw
key extraction (two bits per surviving pair).

All randomness of a session flows from ``SessionConfig.seed``; a transcript
is a deterministic function of the configuration.

A ``SessionTranscript`` keeps its outcomes as read-only numpy columns. Per
pair (``PairColumns``): the prepared and measured ``BellState`` values and
the checked and sifted flags; pair i is slot ``i % block_size`` of block
``i // block_size``. Per block (``BlockColumns``): Alice's op, Bob's op and
Eve's guessed op (-1 where she guessed none). Eve's own symbols, one per
pair of every block she guessed, are a byte column of her ``EveLog``. The
derived statistics are array reductions over these columns. Both column
sets are also sequences that build a ``PairRecord`` or ``BlockRecord`` each
time one is read (nothing is cached), and a transcript given records
instead of columns packs them into the same columns.

Engines. A session runs block by block (``_run_blocks``): prepare a
``LabelRegister``, ``transmit`` it through Eve and the noise, and let Bob
Bell-measure each restored pair. Two kinds of keyed session, chosen from
the session's own mode, Eve kind and budget, skip the loop: one with no Eve
(``_run_clean_tape``) and one whose Eve is a ``bell_probe`` with
``budget == 1`` (``_run_probe_tape``). Their blocks all make the same run of
draws: 2 raw 64-bit draws for the symbols, 1 uniform for the probe if there
is one, 8 when ``noise > 0`` (upper qubits 0, 2, 4, 6, then lower slots 0-3,
slot p on qubit ``2*perm[p] + 1``) and 4 for Bob's pairs in slot order. So
one ``random_raw`` tape of n_blocks rows (``_session_tape``) replays the
session, and the check's draws continue the same stream. Noise is an XOR:
X, Y and Z on a qubit of a Bell pair map Bell state k to k ^ 2, k ^ 3 and
k ^ 1. Without Eve every pair stays a Bell pair, so ``measured = label ^
flips``; Bob's draws are spent unread, as ``_measure_labels`` spends them on
a certain outcome. The probe leaves a dense core of pair 0 alone (op
``perm[0] == 0``) or of pairs 0 and ``j = perm[0]``, and every other pair
keeps its label. ``adversary.probe_tables(a, b)`` holds the probe's branch
probabilities, Bob's pair-0 Bell probabilities in each branch, and his
pair-j probabilities given pair 0's outcome, all computed once on the dense
core. Flips only permute the table columns Bob reads, and a labelled pair
reads ``label ^ flips``. Each outcome is drawn by ``quantum.sample_rows``,
``sample_index``'s rule row by row. The tables equal the dense core's
probabilities exactly without noise and to rounding with it. So, as
between the label and the dense engine, only a draw within about 1e-16 of
a branch boundary could tell the two paths apart.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .adversary import EveLog, EveStrategy, probe_tables
from .channel import _PAULIS, TransitBlock, transmit
from .quantum import BELL_STATES, BellState, LabelRegister, _pauli_flip, bell_measure, sample_rows
from .quantum import tensor  # noqa: F401  perfbench's quantum.tensor span wraps this name
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
        n_pairs = self.n_blocks * self.block_size
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
    """Per-pair columns; pair i is slot ``i % block_size`` of block ``i // block_size``."""

    _fields = ("prepared", "measured", "checked", "sifted", "block_size")

    def __init__(self, prepared, measured, checked, sifted, block_size: int):
        self.prepared = _column(prepared, np.uint8)
        self.measured = _column(measured, np.uint8)
        self.checked = _column(checked, bool)
        self.sifted = _column(sifted, bool)
        self.block_size = block_size

    def _records(self, start, stop, step):
        rows = slice(start, stop, step)
        size = self.block_size
        for i, p, m, c, s in zip(
            itertools.count(start, step),
            self.prepared[rows].tolist(),
            self.measured[rows].tolist(),
            self.checked[rows].tolist(),
            self.sifted[rows].tolist(),
        ):
            yield PairRecord(i // size, i % size, BELL_STATES[p], BELL_STATES[m], c, s)

    @classmethod
    def _pack(cls, records):
        return cls(
            [r.prepared.value for r in records],
            [r.measured.value for r in records],
            [r.checked for r in records],
            [r.sifted for r in records],
            max((r.slot for r in records), default=0) + 1,
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
        if self.blocks and len(self.records) != len(self.blocks) * self.records.block_size:
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
        return self._share(np.repeat(wrong, self.records.block_size), False)

    def eve_bit_accuracy(self) -> float | None:
        """Fraction of Alice's pair bits the interceptor recovered, slot aligned."""
        if self.eve_log is None or not self.eve_log.symbols:
            return None
        got = np.frombuffer(self.eve_log.symbols, dtype=np.uint8)
        guessed = np.repeat(self.blocks.eve_guess >= 0, self.records.block_size)
        wrong_bits = _KEY_BITS[self.records.prepared[guessed] ^ got]
        total = 2 * len(got)
        return (total - int(np.count_nonzero(wrong_bits))) / total


def alice_prepare_block(
    rng: np.random.Generator, block_size: int = 4
) -> tuple[list[BellState], LabelRegister]:
    """Draw one block of Bell symbols uniformly and build its joint register.

    Pair k occupies qubits (2k, 2k+1): the upper-channel half first. The
    register is a ``LabelRegister``; its ``state()`` is the dense one.

    The symbols are ``rng.integers(0, 4, size=block_size)``. For an even
    block size they are read off ``block_size // 2`` raw 64-bit draws, low
    32 bits first: numpy's Lemire method for range 4 maps a 32-bit draw u to
    u >> 30 and never rejects. That is the same stream for a PCG64 generator
    holding no buffered 32-bit half, as in every session: the ops of a
    bootstrap session take an even number of halves.
    """
    if block_size % 2:
        values = rng.integers(0, 4, size=block_size).tolist()
    else:
        raws = rng.bit_generator.random_raw(block_size // 2).tolist()
        values = [v for r in raws for v in _raw_labels(r)]
    return [BELL_STATES[v] for v in values], LabelRegister(values)


def _raw_labels(raw):
    """The two symbols ``rng.integers(0, 4)`` reads off a raw 64-bit draw (an int or an array)."""
    return (raw >> 30) & 3, raw >> 62


def _check_records(
    pairs: PairColumns,
    check_fraction: float,
    threshold: float,
    rng: np.random.Generator,
    eligible: Sequence[int] | np.ndarray,
) -> tuple[VerdictReport, PairColumns]:
    """The public comparison over the eligible (sifted) pairs.

    Uniformly samples ceil(check_fraction * len(eligible)) of them, marks
    them checked, compares symbols, and accepts iff the error rate does not
    exceed the threshold. Checked pairs are excluded from the raw key.
    Returns the verdict and the marked pairs.
    """
    n_check = math.ceil(check_fraction * len(eligible))
    chosen = rng.choice(eligible, size=n_check, replace=False) if n_check else []
    checked = pairs.checked.copy()
    checked[chosen] = True
    errors = int(np.count_nonzero(pairs.measured[chosen] != pairs.prepared[chosen]))
    rate = errors / n_check if n_check else 0.0
    verdict = VerdictReport(
        accepted=rate <= threshold,
        measured_error_rate=rate,
        threshold=threshold,
        checked_count=n_check,
    )
    marked = PairColumns(pairs.prepared, pairs.measured, checked, pairs.sifted, pairs.block_size)
    return verdict, marked


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
) -> tuple[PairColumns, BlockColumns, EveLog | None]:
    log = EveLog() if cfg.eve is not None and cfg.eve.kind != "none" else None
    prepared: list[int] = []
    measured: list[int] = []
    eve_guess: list[int] = []
    op_set, size = cfg.op_set, cfg.block_size
    upper = tuple(range(0, 2 * size, 2))
    lower_prepared = tuple(range(1, 2 * size, 2))
    for t in range(cfg.n_blocks):
        a_op = op_set[alice_ops[t]]
        b_op = op_set[bob_ops[t]]
        symbols, register = alice_prepare_block(rng, size)
        lower = apply_core(a_op, lower_prepared)
        delivered, guess = transmit(
            TransitBlock(register, upper, lower),
            cfg.eve,
            cfg.noise,
            rng,
            op_set=op_set,
            block_index=t,
            log=log,
        )
        restored = invert_core(b_op, delivered.lower)
        register = delivered.register
        for k in range(size):
            outcome, register = bell_measure(
                register, delivered.upper[k], restored[k], rng
            )
            measured.append(outcome._value_)  # the Enum attribute, without the property call
        prepared += [s._value_ for s in symbols]
        eve_guess.append(-1 if guess is None else guess)
    sifted = np.repeat(np.equal(alice_ops, bob_ops), size)
    pairs = PairColumns(prepared, measured, np.zeros(len(measured), bool), sifted, size)
    return pairs, BlockColumns(alice_ops, bob_ops, eve_guess), log


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
    n, size = cfg.n_blocks, cfg.block_size
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


def _op_perms(cfg: SessionConfig, ops: np.ndarray) -> np.ndarray:
    return np.array([op.perm for op in cfg.op_set])[ops]


def _keyed_columns(
    ops: np.ndarray, labels: np.ndarray, measured: np.ndarray
) -> tuple[PairColumns, BlockColumns]:
    """The columns of a keyed session: every pair sifted, none checked yet, no guess."""
    flags = np.zeros(labels.size, bool)
    pairs = PairColumns(labels.ravel(), measured.ravel(), flags, ~flags, labels.shape[1])
    return pairs, BlockColumns(ops, ops, np.full(len(ops), -1))


def _run_clean_tape(
    cfg: SessionConfig, rng: np.random.Generator, ops: np.ndarray
) -> tuple[PairColumns, BlockColumns, None]:
    """``_run_blocks`` for a keyed session with no Eve: Bob reads each pair's ``label ^ flips``."""
    labels, _, flips, _ = _session_tape(cfg, rng, _op_perms(cfg, ops), 0)
    return (*_keyed_columns(ops, labels, labels ^ flips), None)


def _run_probe_tape(
    cfg: SessionConfig, rng: np.random.Generator, ops: np.ndarray
) -> tuple[PairColumns, BlockColumns, EveLog]:
    """``_run_blocks`` for a keyed session whose Eve probes one duo per block.

    The probe and Bob's core measurements read ``probe_tables`` and noise
    XORs labels (see the module docstring).
    """
    perms = _op_perms(cfg, ops)
    labels, eve, flips, bob = _session_tape(cfg, rng, perms, 1)
    measured = labels ^ flips
    rows = np.arange(cfg.n_blocks)
    j = perms[:, 0]
    table_row = np.where(j == 0, labels[:, 0], 4 + 4 * labels[:, 0] + labels[rows, j])
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
    log = EveLog.of_probes(rows, np.zeros_like(rows), 1 - 2 * kp)
    return (*_keyed_columns(ops, labels, measured), log)


def _checked_transcript(
    cfg: SessionConfig,
    rng: np.random.Generator,
    pairs: PairColumns,
    blocks: BlockColumns,
    log: EveLog | None,
) -> SessionTranscript:
    """Run the eavesdropping check over the sifted pairs and seal the transcript.

    Every pair of a keyed session is sifted. A bootstrap session that sifted
    no block is rejected without a check.
    """
    eligible = np.flatnonzero(pairs.sifted)
    if eligible.size:
        verdict, pairs = _check_records(
            pairs, cfg.check_fraction, cfg.error_threshold, rng, eligible
        )
    else:
        verdict = VerdictReport(False, 1.0, cfg.error_threshold, 0)
    return SessionTranscript(cfg.mode, pairs, blocks, verdict, log)


def run_keyed_session(cfg: SessionConfig) -> SessionTranscript:
    """One synchronized session: both parties drive ops from the shared key.

    With no adversary and no noise every restored pair is an eigenstate of
    the receiver's measurement, so the outcome equals the prepared symbol
    exactly.
    """
    if cfg.mode != "keyed":
        raise ValueError("config mode is not 'keyed'")
    rng = np.random.default_rng(cfg.seed)
    ops = op_index_for_block(cfg.control_key, cfg.group, np.arange(cfg.n_blocks))
    eve = cfg.eve
    if eve is None or eve.kind == "none":
        return _checked_transcript(cfg, rng, *_run_clean_tape(cfg, rng, ops))
    if eve.kind == "bell_probe" and eve.budget == 1:
        return _checked_transcript(cfg, rng, *_run_probe_tape(cfg, rng, ops))
    ops = ops.tolist()
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
    alice_ops = rng.integers(0, 4, size=cfg.n_blocks).tolist()
    bob_ops = rng.integers(0, 4, size=cfg.n_blocks).tolist()
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
