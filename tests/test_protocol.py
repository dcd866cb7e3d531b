"""Tests for the session state machines, checking and key extraction."""

import itertools

import numpy as np
import pytest
from scipy import stats

from coreqkd.adversary import EveStrategy
from coreqkd.protocol import (
    InsufficientSiftError,
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
from coreqkd.quantum import BellState, bell_outcome_probabilities
from coreqkd.rearrange import ControlKey, CoreOpSet, GroupConfig

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
        assert register.norm() == pytest.approx(1.0, abs=1e-12)

    def test_each_pair_measures_back_to_its_symbol(self):
        """Oracle: exact Born probabilities on the prepared register."""
        symbols, register = alice_prepare_block(np.random.default_rng(3))
        for k, s in enumerate(symbols):
            probs = bell_outcome_probabilities(register, 2 * k, 2 * k + 1)
            assert probs[s.value] == pytest.approx(1.0, abs=1e-12)


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
    records = list(synthetic_transcript(pairs).records)
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
