"""Tests for the session state machines, checking and key extraction."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from coreqkd import adversary, harness, protocol
from coreqkd.adversary import EveStrategy
from coreqkd.protocol import (
    InsufficientSiftError,
    PairColumns,
    PairRecord,
    RejectedTranscriptError,
    SessionConfig,
    SessionTranscript,
    VerdictReport,
    _check_records,
    alice_prepare_block,
    extract_raw_key,
    guess_probability,
    run_bootstrap_session,
    run_keyed_session,
)
from coreqkd.quantum import (
    X_DIR,
    Y_DIR,
    Z_DIR,
    BellState,
    Direction,
    LabelRegister,
    StateVector,
    bell_outcome_probabilities,
)
from coreqkd.rearrange import ControlKey, CoreOpSet, GroupConfig, op_index_for_block

KEY_ALL_OPS = ControlKey.from_indices([0, 1, 2, 3])


def synthetic_transcript(pairs, checked=(), verdict=None):
    """Build a keyed transcript from (prepared, measured) tuples."""
    records = tuple(
        PairRecord(0, i, prep, meas, checked=i in checked)
        for i, (prep, meas) in enumerate(pairs)
    )
    return SessionTranscript(mode="keyed", records=records, blocks=(), verdict=verdict)


class TestConfigValidation:
    def test_mode_must_be_known(self):
        with pytest.raises(ValueError, match="mode"):
            SessionConfig(n_blocks=1, control_key=KEY_ALL_OPS, mode="telepathy")

    def test_check_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            SessionConfig(n_blocks=10, control_key=KEY_ALL_OPS, check_fraction=0.0)

    def test_check_must_leave_an_unchecked_pair(self):
        with pytest.raises(ValueError, match="unchecked"):
            SessionConfig(n_blocks=1, control_key=KEY_ALL_OPS, check_fraction=0.99)

    def test_register_cap(self):
        five = CoreOpSet([[(p + s) % 5 for p in range(5)] for s in range(4)])
        with pytest.raises(ValueError, match="8 qubits"):
            SessionConfig(n_blocks=1, control_key=KEY_ALL_OPS, op_set=five)

    def test_noise_range(self):
        with pytest.raises(ValueError, match="noise"):
            SessionConfig(n_blocks=1, control_key=KEY_ALL_OPS, noise=1.0)


class TestPrepareBlock:
    def test_symbol_marginals_are_uniform(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        n_blocks = 25_000
        for _ in range(n_blocks):
            symbols, _ = alice_prepare_block(rng)
            for s in symbols:
                counts[s.value] += 1
        np.testing.assert_allclose(counts / (4 * n_blocks), 0.25, atol=0.01)

    def test_register_norm(self):
        _, register = alice_prepare_block(np.random.default_rng(2))
        assert register.state().norm() == pytest.approx(1.0, abs=1e-12)

    def test_each_pair_measures_back_to_its_symbol(self):
        """Oracle: exact Born probabilities on the prepared register."""
        symbols, register = alice_prepare_block(np.random.default_rng(3))
        assert register.label == tuple(s.value for s in symbols for _ in (0, 1))
        for k, s in enumerate(symbols):
            probs = bell_outcome_probabilities(register.state(), 2 * k, 2 * k + 1)
            assert probs[s.value] == pytest.approx(1.0, abs=1e-12)


def integers_prepare(rng, block_size=4):
    """The reference draw: one ``rng.integers`` call per block."""
    values = rng.integers(0, 4, size=block_size).tolist()
    return [BellState(v) for v in values], LabelRegister(values)


class TestPrepareStream:
    """The raw-draw preparation against ``rng.integers``, which is its reference."""

    def test_symbols_and_generator_state_match_rng_integers(self):
        for seed in range(1000):
            fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for block_size in (4, 2, 4, 3, 3, 4):
                symbols, register = alice_prepare_block(fast, block_size)
                expected, _ = integers_prepare(reference, block_size)
                assert symbols == expected
                assert register == LabelRegister([s.value for s in expected])
                state, state_ref = fast.bit_generator.state, reference.bit_generator.state
                assert state["state"] == state_ref["state"]
                assert state["has_uint32"] == state_ref["has_uint32"]
                if state["has_uint32"]:
                    assert state["uinteger"] == state_ref["uinteger"]
            # A raw draw leaves numpy's stale (unflagged) 32-bit half as it was;
            # the next 32-bit draw rewrites it, after which the states are equal.
            assert fast.integers(0, 4) == reference.integers(0, 4)
            assert fast.bit_generator.state == reference.bit_generator.state
            assert fast.random() == reference.random()

    @settings(max_examples=60, deadline=None)
    @given(cfg=st.deferred(lambda: sessions()))
    def test_sessions_draw_the_stream_of_rng_integers(self, cfg):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "alice_prepare_block", integers_prepare)
            expected = per_block_session_result(cfg)
        assert session_result(cfg) == expected


class TestKeyedSession:
    def test_ideal_round_trip_is_exact(self):
        cfg = SessionConfig(n_blocks=500, control_key=KEY_ALL_OPS, seed=11)
        transcript = run_keyed_session(cfg)
        assert all(r.measured == r.prepared for r in transcript.records)
        assert transcript.verdict.measured_error_rate == 0.0
        assert transcript.accepted

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ideal_round_trip_any_key_and_op_set(self, seed):
        """Exactness must hold for every key, op set and symbol sequence."""
        rng = np.random.default_rng(seed)
        derangements = [
            p
            for p in itertools.permutations(range(4))
            if all(p[i] != i for i in range(4))
        ]
        chosen = rng.choice(len(derangements), size=3, replace=False)
        op_set = CoreOpSet(
            [tuple(range(4))] + [derangements[int(i)] for i in chosen]
        )
        cfg = SessionConfig(
            n_blocks=60,
            control_key=ControlKey.random(int(rng.integers(1, 6)), rng),
            group=GroupConfig(int(rng.integers(1, 4))),
            seed=int(rng.integers(0, 2**32)),
            op_set=op_set,
        )
        transcript = run_keyed_session(cfg)
        assert all(r.measured == r.prepared for r in transcript.records)

    def test_transcript_is_deterministic(self):
        cfg = SessionConfig(
            n_blocks=50, control_key=KEY_ALL_OPS, seed=12, eve=EveStrategy.guess_core()
        )
        a, b = run_keyed_session(cfg), run_keyed_session(cfg)
        assert a.records == b.records
        assert a.blocks == b.blocks
        assert a.verdict == b.verdict

    def test_raw_key_has_two_bits_per_unchecked_pair(self):
        cfg = SessionConfig(n_blocks=40, control_key=KEY_ALL_OPS, seed=13, check_fraction=0.3)
        transcript = run_keyed_session(cfg)
        unchecked = sum(1 for r in transcript.records if not r.checked)
        assert len(transcript.raw_key()) == 2 * unchecked
        assert unchecked < transcript.n_pairs

    def test_both_sides_extract_the_same_key(self):
        cfg = SessionConfig(n_blocks=40, control_key=KEY_ALL_OPS, seed=14)
        transcript = run_keyed_session(cfg)
        assert extract_raw_key(transcript) == transcript.sender_raw_key()

    def test_mode_mismatch_rejected(self):
        cfg = SessionConfig(n_blocks=1, control_key=KEY_ALL_OPS, mode="bootstrap")
        with pytest.raises(ValueError, match="keyed"):
            run_keyed_session(cfg)


def check_all(pairs, check_fraction, threshold, rng):
    """The eavesdropping check over synthetic records, every pair eligible."""
    records = synthetic_transcript(pairs).records
    return _check_records(records, check_fraction, threshold, rng, range(len(records)))


class TestEavesdropCheck:
    def test_zero_error_transcript_accepted(self):
        pairs = [(BellState.PSI_MINUS, BellState.PSI_MINUS)] * 8
        verdict, checked = check_all(pairs, 0.5, 0.1, np.random.default_rng(0))
        assert verdict.accepted and verdict.measured_error_rate == 0.0
        assert verdict.checked_count == 4
        assert sum(1 for r in checked if r.checked) == 4

    def test_vacuous_threshold_always_accepts(self):
        pairs = [(BellState.PSI_MINUS, BellState.PHI_PLUS)] * 8  # all wrong
        verdict, _ = check_all(pairs, 0.5, 1.0, np.random.default_rng(0))
        assert verdict.accepted and verdict.measured_error_rate == 1.0

    def test_accepted_iff_rate_below_threshold(self):
        pairs = [(BellState.PSI_MINUS, BellState.PSI_MINUS)] * 6 + [
            (BellState.PSI_MINUS, BellState.PHI_PLUS)
        ] * 2
        verdict, _ = check_all(pairs, 0.999, 0.25, np.random.default_rng(1))
        assert verdict.accepted == (verdict.measured_error_rate <= 0.25)

    def test_wrong_guess_eve_rejected_with_high_probability(self):
        """Oracle: the binomial tail at p = 0.5625 over 200 checked pairs."""
        tail = stats.binom.cdf(int(0.1 * 200), 200, 0.5625)
        assert tail < 1e-3  # analytic rejection probability > 0.999
        cfg = SessionConfig(
            n_blocks=100,
            control_key=KEY_ALL_OPS,
            check_fraction=0.5,
            error_threshold=0.1,
            seed=15,
            eve=EveStrategy.guess_core(),
        )
        transcript = run_keyed_session(cfg)
        assert transcript.verdict.checked_count == 200
        assert not transcript.accepted


class TestExtractRawKey:
    def test_encoding_of_two_pairs(self):
        pairs = [(BellState.PSI_MINUS, BellState.PSI_MINUS),
                 (BellState.PHI_PLUS, BellState.PHI_PLUS)]
        transcript = synthetic_transcript(
            pairs, verdict=VerdictReport(True, 0.0, 0.1, 0)
        )
        assert extract_raw_key(transcript) == (0, 0, 1, 1)

    def test_empty_unchecked_set_gives_empty_key(self):
        pairs = [(BellState.PSI_PLUS, BellState.PSI_PLUS)] * 3
        transcript = synthetic_transcript(
            pairs, checked={0, 1, 2}, verdict=VerdictReport(True, 0.0, 0.1, 3)
        )
        assert extract_raw_key(transcript) == ()

    def test_refuses_rejected_transcripts(self):
        transcript = synthetic_transcript(
            [(BellState.PSI_PLUS, BellState.PHI_PLUS)],
            verdict=VerdictReport(False, 1.0, 0.1, 1),
        )
        with pytest.raises(RejectedTranscriptError):
            extract_raw_key(transcript)

    def test_refuses_unchecked_transcripts(self):
        transcript = synthetic_transcript([(BellState.PSI_PLUS, BellState.PSI_PLUS)])
        with pytest.raises(RejectedTranscriptError, match="verdict"):
            extract_raw_key(transcript)


class TestGuessProbability:
    def test_closed_form(self):
        assert guess_probability(ControlKey.from_indices([1])) == 0.25
        assert guess_probability(ControlKey.from_indices([1, 2])) == 1.0 / 16.0
        assert guess_probability(100) == 4.0 ** (-100)
        assert guess_probability(100) > 0.0

    def test_monte_carlo_two_positions(self):
        rng = np.random.default_rng(17)
        key = np.array(ControlKey.random(2, rng).op_indices)
        guesses = rng.integers(0, 4, size=(100_000, 2))
        freq = np.all(guesses == key, axis=1).mean()
        assert freq == pytest.approx(1.0 / 16.0, abs=0.005)


class TestBootstrapSession:
    def test_sift_rate_and_agreement(self):
        cfg = SessionConfig(
            n_blocks=2_000,
            control_key=KEY_ALL_OPS,
            check_fraction=0.2,
            seed=18,
            mode="bootstrap",
        )
        key, transcript = run_bootstrap_session(cfg)
        assert key is not None
        assert transcript.sift_rate == pytest.approx(0.25, abs=0.03)
        assert transcript.agreement_rate(sifted=True) == 1.0
        assert transcript.agreement_rate(sifted=False) == pytest.approx(0.25, abs=0.02)

    def test_candidate_key_comes_from_unchecked_sifted_bits(self):
        cfg = SessionConfig(
            n_blocks=200,
            control_key=KEY_ALL_OPS,
            check_fraction=0.3,
            seed=19,
            mode="bootstrap",
        )
        key, transcript = run_bootstrap_session(cfg)
        bits = transcript.raw_key()
        assert key.bits == bits[: len(key.bits)]
        assert len(key.bits) >= 2

    def test_requested_length_is_honoured(self):
        cfg = SessionConfig(
            n_blocks=200,
            control_key=KEY_ALL_OPS,
            check_fraction=0.3,
            seed=20,
            mode="bootstrap",
            requested_key_bits=40,
        )
        key, _ = run_bootstrap_session(cfg)
        assert len(key.bits) == 40

    def test_insufficient_sift(self):
        cfg = SessionConfig(
            n_blocks=10,
            control_key=KEY_ALL_OPS,
            check_fraction=0.3,
            seed=21,
            mode="bootstrap",
            requested_key_bits=10_000,
        )
        with pytest.raises(InsufficientSiftError, match="INSUFFICIENT_SIFT"):
            run_bootstrap_session(cfg)

    def test_checked_pairs_drawn_from_sifted_only(self):
        cfg = SessionConfig(
            n_blocks=300,
            control_key=KEY_ALL_OPS,
            check_fraction=0.4,
            seed=22,
            mode="bootstrap",
        )
        _, transcript = run_bootstrap_session(cfg)
        assert all(r.sifted for r in transcript.records if r.checked)

    def test_bootstrap_determinism(self):
        cfg = SessionConfig(
            n_blocks=100, control_key=KEY_ALL_OPS, seed=23, mode="bootstrap"
        )
        (key_a, ta), (key_b, tb) = run_bootstrap_session(cfg), run_bootstrap_session(cfg)
        assert key_a == key_b
        assert ta.records == tb.records


DERANGEMENTS = [p for p in itertools.permutations(range(4)) if all(p[i] != i for i in range(4))]


def session_result(cfg: SessionConfig):
    """Everything a session returns, or the message of its sift error."""
    try:
        if cfg.mode == "keyed":
            return run_keyed_session(cfg)
        return run_bootstrap_session(cfg)
    except InsufficientSiftError as exc:
        return str(exc)


def per_block_keyed_session(cfg: SessionConfig) -> SessionTranscript:
    """A keyed session on the per-block engine, which ``run_keyed_session`` skips without Eve or for one-duo probes."""
    rng = np.random.default_rng(cfg.seed)
    ops = op_index_for_block(cfg.control_key, cfg.group, np.arange(cfg.n_blocks)).tolist()
    return protocol._checked_transcript(cfg, rng, *protocol._run_blocks(cfg, rng, ops, ops))


def per_block_session_result(cfg: SessionConfig):
    """``session_result`` with every block through ``alice_prepare_block`` and ``transmit``."""
    return per_block_keyed_session(cfg) if cfg.mode == "keyed" else session_result(cfg)


def dense_session_result(cfg: SessionConfig):
    """The same session on the per-block engine with every block prepared as a dense state vector."""
    prepare = alice_prepare_block

    def dense_prepare(rng, block_size=4):
        symbols, register = prepare(rng, block_size)
        assert isinstance(register, LabelRegister)
        return symbols, register.state()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "alice_prepare_block", dense_prepare)
        return per_block_session_result(cfg)


@st.composite
def sessions(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key = ControlKey.random(int(rng.integers(1, 5)), rng)
    group = GroupConfig(int(rng.integers(1, 4)))
    chosen = rng.choice(len(DERANGEMENTS), size=3, replace=False)
    weights = rng.random(4)
    weights[rng.integers(0, 4)] = 0.0
    eve = draw(st.sampled_from([
        None,
        EveStrategy.none(),
        EveStrategy.guess_core(),
        EveStrategy.guess_core(list(weights / weights.sum())),
        EveStrategy.known_key(key, group),
        EveStrategy.known_key(ControlKey.random(int(rng.integers(1, 5)), rng), group),
        EveStrategy.bell_probe(
            Direction.normalized(*rng.normal(size=3)),
            Direction.normalized(*rng.normal(size=3)),
            int(rng.integers(1, 5)),
        ),
    ]))
    return SessionConfig(
        n_blocks=draw(st.integers(1, 10)),
        control_key=key,
        group=group,
        check_fraction=draw(st.sampled_from([0.25, 0.5, 0.75])),
        error_threshold=draw(st.sampled_from([0.1, 1.0])),
        seed=int(rng.integers(0, 2**63)),
        mode=draw(st.sampled_from(["keyed", "bootstrap"])),
        eve=eve,
        noise=draw(st.sampled_from([0.0, 0.1, 0.37, 0.9])),
        op_set=CoreOpSet([tuple(range(4))] + [DERANGEMENTS[int(i)] for i in chosen]),
    )


class TestLabelEngine:
    """Sessions on the label register against the same sessions on the dense engine."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=sessions())
    def test_sessions_match_the_dense_engine(self, cfg):
        assert session_result(cfg) == dense_session_result(cfg)

    def test_the_dense_run_is_dense(self):
        seen = []
        original = protocol.bell_measure

        def spy(register, *args):
            seen.append(type(register))
            return original(register, *args)

        for eve in (EveStrategy.guess_core(), EveStrategy.bell_probe(budget=2)):
            cfg = SessionConfig(n_blocks=3, control_key=KEY_ALL_OPS, eve=eve)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(protocol, "bell_measure", spy)
                seen.clear()
                session_result(cfg)
                assert set(seen) == {LabelRegister}
                seen.clear()
                dense_session_result(cfg)
                assert set(seen) == {StateVector}

    def test_a_probed_block_keeps_only_the_probed_pairs_dense(self):
        """One probe per block: a core of the two probed pairs, or of one under the identity op."""
        sizes = []
        original = protocol.bell_measure

        def spy(register, *args):
            sizes.append(len(register.core_qubits))
            return original(register, *args)

        cfg = SessionConfig(n_blocks=40, control_key=KEY_ALL_OPS, eve=EveStrategy.bell_probe())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "bell_measure", spy)
            per_block_keyed_session(cfg)
        firsts = sizes[::4]
        assert set(firsts) == {2, 4} and max(sizes) == 4
        assert firsts.count(2) == 10  # the identity op drives one block in four


class RawStream:
    """A generator stand-in that replays given raw 64-bit draws to ``random_raw`` and ``random``."""

    def __init__(self, raws: np.ndarray):
        self.raws = raws
        self.used = 0
        self.bit_generator = self

    def random_raw(self, size: int) -> np.ndarray:
        self.used += size
        return self.raws[self.used - size : self.used].copy()

    def random(self) -> float:
        return float(self.random_raw(1)[0] >> np.uint64(11)) * 2.0**-53


PROBE_DIRECTIONS = [
    (X_DIR, Z_DIR),
    (Z_DIR, Z_DIR),
    (Y_DIR, Direction.normalized(1, 1, 1)),
    (Direction.normalized(1, -2, 3), Direction.normalized(-0.5, 1, 2)),
]
NON_CYCLIC = CoreOpSet([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])


CLEAN_EVES = (None, EveStrategy.none())


def raw_draws(u: np.ndarray, data: np.random.Generator) -> np.ndarray:
    """Raw 64-bit draws whose ``rng.random()`` is ``u``, with random low bits below the 53 kept."""
    return ((u * 2.0**53).astype(np.uint64) << np.uint64(11)) | data.integers(0, 2**11, size=u.shape, dtype=np.uint64)


def assert_tape_reads_the_per_block_stream(run_tape, eve: EveStrategy | None) -> None:
    """A tape engine and ``_run_blocks`` on twin generators: equal columns, then equal generator states."""
    for noise, seed, op_set in itertools.product((0.0, 0.1), range(3), [CoreOpSet.cyclic(), NON_CYCLIC]):
        cfg = SessionConfig(n_blocks=50, control_key=KEY_ALL_OPS, seed=seed, noise=noise, eve=eve, op_set=op_set)
        ops = op_index_for_block(cfg.control_key, cfg.group, np.arange(cfg.n_blocks))
        tape, blocks = np.random.default_rng(seed), np.random.default_rng(seed)
        got = run_tape(cfg, tape, ops)
        expected = protocol._run_blocks(cfg, blocks, ops.tolist(), ops.tolist())
        assert got == expected
        assert got[0].prepared.dtype == got[0].measured.dtype == np.uint8
        assert tape.bit_generator.state == blocks.bit_generator.state


class TestProbeTape:
    """Keyed sessions probed on one duo per block: the tape path against the per-block engine."""

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.37])
    @pytest.mark.parametrize("key", ["00011011", "0110", "00", "11100100"])
    def test_sessions_match_the_per_block_engine(self, key, noise):
        for seed, (a, b), op_set in itertools.product(range(6), PROBE_DIRECTIONS, [CoreOpSet.cyclic(), NON_CYCLIC]):
            cfg = SessionConfig(
                n_blocks=12,
                control_key=ControlKey.from_bits(key),
                group=GroupConfig(1 + seed % 2),
                check_fraction=0.25 + 0.25 * (seed % 3),
                seed=1_000_003 * seed + 11,
                eve=EveStrategy.bell_probe(a, b),
                noise=noise,
                op_set=op_set,
                error_threshold=0.2,
            )
            assert run_keyed_session(cfg) == per_block_keyed_session(cfg)

    def test_the_tape_reads_the_per_block_stream(self):
        assert_tape_reads_the_per_block_stream(protocol._run_probe_tape, EveStrategy.bell_probe())

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_draws_on_branch_and_noise_boundaries_match_the_per_block_engine(self, noise):
        """Uniforms exactly on a partial sum of the probe's or Bob's branches, or of ``depolarize``'s."""
        data = np.random.default_rng(int(noise * 10) + 5)
        edges = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, *np.nextafter([0.125, 0.375, 0.5, 1.0], 0)]
        n, draws = 60, 2 + 1 + 8 * (noise > 0) + 4
        u = data.choice(edges, size=(n, draws))
        if noise:
            u[:, -4:] = data.random((n, 4))  # noisy core probabilities match only to rounding
        raws = raw_draws(u, data)
        raws[:, :2] = data.integers(0, 2**64, size=(n, 2), dtype=np.uint64)
        for a, b in PROBE_DIRECTIONS:
            cfg = SessionConfig(n_blocks=n, control_key=KEY_ALL_OPS, noise=noise, eve=EveStrategy.bell_probe(a, b))
            ops = op_index_for_block(cfg.control_key, cfg.group, np.arange(n))
            got = protocol._run_probe_tape(cfg, RawStream(raws.ravel()), ops)
            assert got == protocol._run_blocks(cfg, RawStream(raws.ravel()), ops.tolist(), ops.tolist())

    def test_only_budget_one_keyed_sessions_skip_the_dense_probe(self, monkeypatch):
        calls = []
        original = adversary.eve_bell_probe

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(adversary, "eve_bell_probe", spy)
        for mode, budget, expected in (("keyed", 1, 0), ("keyed", 2, 40), ("bootstrap", 1, 20)):
            calls.clear()
            cfg = SessionConfig(
                n_blocks=20, control_key=KEY_ALL_OPS, mode=mode, error_threshold=1.0,
                eve=EveStrategy.bell_probe(budget=budget),
            )
            session_result(cfg)
            assert len(calls) == expected


class TestCleanTape:
    """Keyed sessions with no Eve: the tape path against the per-block engine."""

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.37, 0.999])
    @pytest.mark.parametrize("key", ["00011011", "0110", "00", "11100100"])
    def test_sessions_match_the_per_block_engine(self, key, noise):
        grid = itertools.product(range(2), [1, 3, 64, 257], [1, 2], [CoreOpSet.cyclic(), NON_CYCLIC], CLEAN_EVES)
        for seed, n_blocks, group, op_set, eve in grid:
            cfg = SessionConfig(
                n_blocks=n_blocks,
                control_key=ControlKey.from_bits(key),
                group=GroupConfig(group),
                check_fraction=0.25 + 0.5 * seed,
                seed=1_000_003 * seed + 7,
                eve=eve,
                noise=noise,
                op_set=op_set,
            )
            assert run_keyed_session(cfg) == per_block_keyed_session(cfg)

    def test_the_tape_reads_the_per_block_stream(self):
        for eve in CLEAN_EVES:
            assert_tape_reads_the_per_block_stream(protocol._run_clean_tape, eve)

    @pytest.mark.parametrize("noise", [0.5, 0.75])
    def test_noise_draws_on_boundaries_match_the_per_block_engine(self, noise):
        """Noise uniforms exactly on ``k * quarter`` and just below ``3 * quarter``."""
        quarter = noise / 4.0
        data = np.random.default_rng(int(noise * 100))
        edges = [0.0, quarter, 2.0 * quarter, 3.0 * quarter, np.nextafter(3.0 * quarter, 0), 0.999]
        n = 80
        raws = raw_draws(data.choice(edges, size=(n, 2 + 8 + 4)), data)
        raws[:, :2] = data.integers(0, 2**64, size=(n, 2), dtype=np.uint64)
        for op_set, eve in itertools.product([CoreOpSet.cyclic(), NON_CYCLIC], CLEAN_EVES):
            cfg = SessionConfig(n_blocks=n, control_key=KEY_ALL_OPS, noise=noise, eve=eve, op_set=op_set)
            ops = op_index_for_block(cfg.control_key, cfg.group, np.arange(n))
            got = protocol._run_clean_tape(cfg, RawStream(raws.ravel()), ops)
            assert got == protocol._run_blocks(cfg, RawStream(raws.ravel()), ops.tolist(), ops.tolist())

    def test_only_keyed_eve_free_sessions_skip_the_block_loop(self, monkeypatch):
        calls = []
        for name in ("alice_prepare_block", "transmit"):
            original = getattr(protocol, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(protocol, name, spy)
        for mode, eve, expected in (
            ("keyed", None, 0),
            ("keyed", EveStrategy.none(), 0),
            ("keyed", EveStrategy.guess_core(), 20),
            ("bootstrap", None, 20),
        ):
            for noise in (0.0, 0.1):
                calls.clear()
                cfg = SessionConfig(
                    n_blocks=20, control_key=KEY_ALL_OPS, mode=mode, eve=eve, noise=noise, error_threshold=1.0
                )
                session_result(cfg)
                assert calls.count("alice_prepare_block") == calls.count("transmit") == expected


def transcript_of(cfg: SessionConfig) -> SessionTranscript:
    result = session_result(cfg)
    assert not isinstance(result, str), result
    return result[1] if cfg.mode == "bootstrap" else result


def reference_stats(t: SessionTranscript) -> dict:
    """Every derived statistic, computed record by record as the loops over objects did."""
    records, blocks = tuple(t.records), tuple(t.blocks)
    key_records = [r for r in records if r.sifted and not r.checked]

    def agreement(flag):
        pool = [r for r in records if r.sifted == flag]
        return sum(1 for r in pool if r.measured == r.prepared) / len(pool) if pool else None

    wrong = {b.index for b in blocks if b.eve_guess_correct is False}
    pool = [r for r in records if r.block in wrong]
    accuracy = None
    if t.eve_log is not None and t.eve_log.symbols:
        guessed = [r for r in records if blocks[r.block].eve_guess is not None]
        assert len(guessed) == len(t.eve_log.symbols)
        matched = 0
        for r, value in zip(guessed, t.eve_log.symbols):
            truth, got = r.prepared.key_bits, BellState(value).key_bits
            matched += (truth[0] == got[0]) + (truth[1] == got[1])
        accuracy = matched / (2 * len(guessed))
    raw = tuple(b for r in key_records for b in r.measured.key_bits)
    return {
        "raw_key": raw,
        "sender_raw_key": tuple(b for r in key_records for b in r.prepared.key_bits),
        "agreement_sifted": agreement(True),
        "agreement_discarded": agreement(False),
        "sift_rate": sum(1 for b in blocks if b.sifted) / len(blocks),
        "wrong_guess_error_rate": (
            sum(1 for r in pool if r.measured != r.prepared) / len(pool) if pool else None
        ),
        "eve_bit_accuracy": accuracy,
        "key_bits": float(len(raw)) if t.accepted else 0.0,
        "checked": sum(1 for r in records if r.checked),
    }


def column_stats(t: SessionTranscript) -> dict:
    return {
        "raw_key": t.raw_key(),
        "sender_raw_key": t.sender_raw_key(),
        "agreement_sifted": t.agreement_rate(True),
        "agreement_discarded": t.agreement_rate(False),
        "sift_rate": t.sift_rate,
        "wrong_guess_error_rate": t.wrong_guess_error_rate(),
        "eve_bit_accuracy": t.eve_bit_accuracy(),
        "key_bits": harness._trial_stats(t)["key_bits"],
        "checked": t.verdict.checked_count,
    }


def same_values(a: dict, b: dict) -> bool:
    """Equal values of equal Python types, so no numpy scalar reaches a report."""
    return a == b and all(type(a[k]) is type(b[k]) for k in a)


class TestColumnarTranscript:
    """The columns and their record views against the records they stand for."""

    @settings(max_examples=120, deadline=None)
    @given(cfg=sessions(), n_blocks=st.integers(1, 40))
    def test_statistics_match_the_record_loops(self, cfg, n_blocks):
        t = transcript_of(replace(cfg, n_blocks=n_blocks))
        assert same_values(column_stats(t), reference_stats(t))
        size = cfg.block_size
        assert all(r.sifted == t.blocks[r.block].sifted for r in t.records)
        assert [(r.block, r.slot) for r in t.records] == [divmod(i, size) for i in range(t.n_pairs)]
        assert [b.index for b in t.blocks] == list(range(n_blocks))

    @settings(max_examples=40, deadline=None)
    @given(cfg=sessions())
    def test_a_transcript_rebuilt_from_its_records_is_equal(self, cfg):
        t = transcript_of(cfg)
        rebuilt = SessionTranscript(t.mode, tuple(t.records), tuple(t.blocks), t.verdict, t.eve_log)
        assert rebuilt == t
        assert replace(t, records=tuple(t.records), blocks=list(t.blocks)) == t
        assert same_values(column_stats(rebuilt), column_stats(t))

    def test_views_slice_like_tuples_and_build_records_on_each_read(self):
        cfg = SessionConfig(n_blocks=5, control_key=KEY_ALL_OPS, seed=31, eve=EveStrategy.guess_core())
        t = run_keyed_session(cfg)
        for view in (t.records, t.blocks):
            items = tuple(view)
            assert len(view) == len(items)
            for index in (0, 3, -1, -len(items)):
                assert view[index] == items[index]
            for cut in (slice(None), slice(4, 8), slice(None, None, -1), slice(-3, None, 2), slice(9, 2, -3)):
                assert view[cut] == items[cut]
            with pytest.raises(IndexError):
                view[len(items)]
            assert view[0] is not view[0]
        assert set(vars(t.records)) == {"prepared", "measured", "checked", "sifted", "block_size"}
        assert set(vars(t.blocks)) == {"alice_op", "bob_op", "eve_guess"}
        with pytest.raises(ValueError):
            t.records.measured[0] = 0

    def test_records_out_of_block_order_are_refused(self):
        records = list(run_keyed_session(SessionConfig(n_blocks=2, control_key=KEY_ALL_OPS)).records)
        records[1], records[2] = records[2], records[1]
        with pytest.raises(ValueError, match="PairColumns"):
            SessionTranscript("keyed", tuple(records), (), None)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10_000),
           fraction=st.floats(0.01, 0.99))
    def test_an_array_pool_checks_the_same_pairs_as_a_list(self, seed, n, fraction):
        data = np.random.default_rng(seed)
        prepared = data.integers(0, 4, size=n)
        measured = np.where(data.random(n) < 0.3, data.integers(0, 4, size=n), prepared)
        pairs = PairColumns(prepared, measured, np.zeros(n, bool), np.ones(n, bool), 4)
        pool = np.flatnonzero(data.random(n) < data.random())
        if not pool.size:
            pool = np.array([n - 1])
        results = []
        for eligible in (pool.tolist(), pool):
            rng = np.random.default_rng(seed)
            verdict, marked = _check_records(pairs, fraction, 0.1, rng, eligible)
            results.append((verdict, marked.checked, rng.bit_generator.state))
        (v_list, c_list, s_list), (v_array, c_array, s_array) = results
        assert v_list == v_array
        np.testing.assert_array_equal(c_list, c_array)
        assert s_list == s_array
        assert c_list.sum() == v_list.checked_count == math.ceil(fraction * pool.size)
        assert set(np.flatnonzero(c_list)) <= set(pool.tolist())
