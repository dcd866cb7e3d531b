"""Tests for transport, the adversary hook and the depolarizing noise model."""

import numpy as np
import pytest

from coreqkd import channel
from coreqkd.channel import depolarize, transmit
from coreqkd.protocol import ControlKey, SessionConfig, run_keyed_session
from coreqkd.quantum import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BellState,
    LabelRegister,
    bell_measure,
    bell_state,
    tensor,
)
from coreqkd.rearrange import LOWER, UPPER


def two_sided_depolarized_error(p: float) -> float:
    """Analytic error rate of a Bell pair with both halves depolarized at rate p.

    Each half suffers X, Y or Z with probability p/4 apiece. The symbol
    survives exactly when the two Paulis coincide (including the identity),
    so the survival probability is (1 - 3p/4)**2 + 3 (p/4)**2.
    """
    return 1.0 - ((1.0 - 0.75 * p) ** 2 + 3.0 * (p / 4.0) ** 2)


def make_register(rng):
    return tensor(*(bell_state(BellState(int(v))) for v in rng.integers(0, 4, size=4)))


class TestTransmitIdentity:
    def test_clean_channel_is_bit_identical(self):
        rng = np.random.default_rng(1)
        register = make_register(rng)
        session = SessionConfig(n_blocks=1, control_key=ControlKey.from_bits("00"))
        delivered, guess = transmit(register, UPPER, LOWER, session, rng)
        assert guess is None
        assert np.array_equal(delivered.amps, register.amps)

    def test_zero_noise_depolarize_is_identity(self):
        rng = np.random.default_rng(3)
        register = make_register(rng)
        assert depolarize(register, UPPER, 0.0, rng) is register


class TestDepolarizingNoise:
    def test_full_noise_gives_three_quarter_error(self):
        rng = np.random.default_rng(5)
        n = 20_000
        errors = 0
        for _ in range(n):
            sym = BellState(int(rng.integers(0, 4)))
            reg = depolarize(bell_state(sym), (0, 1), 1.0, rng)
            outcome, _ = bell_measure(reg, 0, 1, rng)
            errors += outcome is not sym
        assert errors / n == pytest.approx(0.75, abs=0.01)

    def test_full_noise_pair_is_maximally_mixed_on_average(self):
        """Oracle: averaged post-noise density matrix approaches I/4."""
        rng = np.random.default_rng(6)
        n = 40_000
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(n):
            reg = depolarize(bell_state(BellState.PHI_PLUS), (0, 1), 1.0, rng)
            rho += np.outer(reg.amps, reg.amps.conj())
        np.testing.assert_allclose(rho / n, np.eye(4) / 4, atol=0.02)

    def test_moderate_noise_matches_closed_form(self):
        p = 0.1
        cfg = SessionConfig(
            n_blocks=25_000,
            control_key=ControlKey.from_indices([0, 1, 2, 3]),
            check_fraction=0.5,
            error_threshold=1.0,
            seed=61,
            noise=p,
        )
        transcript = run_keyed_session(cfg)
        errors = sum(1 for r in transcript.records if r.measured != r.prepared)
        rate = errors / transcript.n_pairs
        assert rate == pytest.approx(two_sided_depolarized_error(p), abs=0.01)

    def test_error_rate_monotone_in_noise(self):
        rates = []
        for i, p in enumerate((0.0, 0.1, 0.2, 0.3, 0.4)):
            cfg = SessionConfig(
                n_blocks=25_000,
                control_key=ControlKey.from_indices([1]),
                check_fraction=0.5,
                error_threshold=1.0,
                seed=70 + i,
                noise=p,
            )
            transcript = run_keyed_session(cfg)
            errors = sum(1 for r in transcript.records if r.measured != r.prepared)
            rates.append(errors / transcript.n_pairs)
        assert rates[0] == 0.0
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_each_hit_applies_one_of_the_pauli_objects_once(self, monkeypatch):
        """The label engine recognises a Pauli by identity, so noise must pass the objects."""
        applied = []

        def spy(register, qubit, matrix):
            applied.append(matrix)
            return original(register, qubit, matrix)

        original = channel.apply_single_qubit
        monkeypatch.setattr(channel, "apply_single_qubit", spy)
        p, qubits = 0.6, tuple(range(8))
        rng = np.random.default_rng(8)
        for _ in range(50):
            replay = np.random.Generator(np.random.PCG64())
            replay.bit_generator.state = rng.bit_generator.state
            hits = int((replay.random(len(qubits)) < 0.75 * p).sum())
            before = len(applied)
            depolarize(LabelRegister([0, 1, 2, 3]), qubits, p, rng)
            assert len(applied) - before == hits
        assert applied and all(any(m is s for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)) for m in applied)

    def test_rejects_bad_probability(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            depolarize(bell_state(BellState.PSI_PLUS), (0,), -0.1, rng)
