"""Tests for the eavesdropper strategies."""

import itertools

import numpy as np
import pytest

from coreqkd import adversary, protocol
from coreqkd.adversary import (
    EveStrategy,
    _enumerate_attack_branches,
    eve_bell_probe,
    exact_guess_attack_pair_distributions,
    exact_guess_attack_pair_errors,
    probe_tables,
)
from coreqkd.protocol import ControlKey, SessionConfig, run_keyed_session
from coreqkd.quantum import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BellState,
    Direction,
    X_DIR,
    Z_DIR,
    apply_single_qubit,
    bell_outcome_probabilities,
    bell_project,
    bell_state,
    correlation_operator,
    density,
    expectation,
    partial_trace_register,
    random_direction,
    tensor,
)
from coreqkd.quantum import _BELL_MATRIX  # Bell-basis change for the exact check
from coreqkd.rearrange import LOWER, UPPER, CoreOpSet, GroupConfig, apply_core, invert_core, op_index_for_block

OPS = CoreOpSet.cyclic()
DERANGEMENTS = [p for p in itertools.permutations(range(4)) if all(p[i] != i for i in range(4))]
# Every op set in order: the identity, then three derangements that differ at every position.
LATIN_OP_SETS = [
    CoreOpSet([tuple(range(4)), *ops])
    for ops in itertools.permutations(DERANGEMENTS, 3)
    if all(x != y for first, second in itertools.combinations(ops, 2) for x, y in zip(first, second))
]


class TestStrategyValidation:
    def test_unknown_kind(self):
        for kind in ("listen_politely", "none"):  # no Eve is None, not a kind
            with pytest.raises(ValueError, match="unknown strategy kind"):
                EveStrategy(kind=kind)

    def test_guess_weights_must_normalise(self):
        with pytest.raises(ValueError, match="sum"):
            EveStrategy.guess_core((0.5, 0.5, 0.5, 0.5))
        EveStrategy.guess_core((0.7, 0.1, 0.1, 0.1))

    def test_guess_weights_may_be_an_array_and_must_not_be_empty(self):
        weights = np.array([0.7, 0.1, 0.1, 0.1])
        assert EveStrategy.guess_core(weights) == EveStrategy.guess_core(weights.tolist())
        with pytest.raises(ValueError, match="four nonnegative"):
            EveStrategy.guess_core([])

    def test_known_key_without_a_key_holds_the_session_key(self):
        cfg = SessionConfig(
            n_blocks=40, control_key=ControlKey.from_indices([2, 1, 3]), seed=3, eve=EveStrategy.known_key()
        )
        transcript = run_keyed_session(cfg)
        assert np.array_equal(transcript.blocks.eve_guess, transcript.blocks.alice_op)
        assert transcript.verdict.measured_error_rate == 0.0

    def test_probe_needs_directions(self):
        with pytest.raises(ValueError, match="directions"):
            EveStrategy(kind="bell_probe")


class TestGuessAttackExact:
    def test_correct_guess_is_transparent(self):
        """Identity channel on measurement statistics, checked to 1e-12."""
        rng = np.random.default_rng(1)
        symbols = [BellState(int(v)) for v in rng.integers(0, 4, size=4)]
        for op in OPS:
            dists = exact_guess_attack_pair_distributions(symbols, op, op)
            for k, s in enumerate(symbols):
                assert dists[k][s.value] == pytest.approx(1.0, abs=1e-12)

    def test_wrong_guess_error_is_exactly_three_quarters(self):
        symbols = [BellState.PHI_MINUS, BellState.PSI_PLUS, BellState.PSI_MINUS, BellState.PHI_PLUS]
        errors = exact_guess_attack_pair_errors(symbols, OPS[2], OPS[3])
        np.testing.assert_allclose(errors, 0.75, atol=1e-12)

    def test_every_wrong_guess_of_every_latin_set_errs_three_quarters_on_every_pair(self):
        """The paper's 3/4 premise, exactly, for all 24 ordered op sets and 12 (true, guess) pairs each."""
        assert len(LATIN_OP_SETS) == 24
        rng = np.random.default_rng(6)
        for op_set in LATIN_OP_SETS:
            for true_op, guess in itertools.permutations(op_set, 2):
                symbols = [BellState(int(v)) for v in rng.integers(0, 4, size=4)]
                errors = exact_guess_attack_pair_errors(symbols, true_op, guess)
                np.testing.assert_allclose(errors, 0.75, rtol=0, atol=1e-12)

    def test_wrong_guess_leaves_pairs_maximally_mixed_in_bell_basis(self):
        """Each restored pair's reduced state, averaged over Eve's branches, is diag(1/4,...) in the Bell basis."""
        register = tensor(*[bell_state(BellState.PSI_MINUS)] * 4)
        eve_duos = list(zip(UPPER, invert_core(OPS[2], apply_core(OPS[1], LOWER))))
        rho = sum(weight * density(state) for weight, state in _enumerate_attack_branches(register, eve_duos))
        for k in range(4):
            pair = partial_trace_register(rho, 8, [2 * k, 2 * k + 1])
            in_bell = _BELL_MATRIX.conj() @ pair @ _BELL_MATRIX.T
            np.testing.assert_allclose(in_bell, np.eye(4) / 4, atol=1e-12)


def cycles(sigma: list[int]) -> list[list[int]]:
    """The cycles of a permutation, each from its smallest element."""
    seen, found = set(), []
    for start in range(len(sigma)):
        cycle, k = [], start
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = sigma[k]
        if cycle:
            found.append(cycle)
    return found


class TestGuessAttackSampled:
    def test_uniform_guessing_induces_nine_sixteenths(self):
        cfg = SessionConfig(
            n_blocks=2_000,
            control_key=ControlKey.from_indices([0, 1, 2, 3]),
            check_fraction=0.5,
            error_threshold=1.0,
            seed=13,
            eve=EveStrategy.guess_core(),
        )
        transcript = run_keyed_session(cfg)
        errors = sum(1 for r in transcript.records if r.measured != r.prepared)
        assert errors / transcript.n_pairs == pytest.approx(0.5625, abs=0.02)
        assert transcript.wrong_guess_error_rate() == pytest.approx(0.75, abs=0.02)

    def test_each_cycle_of_a_wrong_guess_keeps_the_xor_of_alice_symbols(self):
        """Under true op t and guess g, Eve's slot k pairs the upper half of pair k with the
        lower half of pair sigma(k) = t.perm[g.inverse_perm[k]]. Over each cycle of sigma
        her symbols XOR to Alice's, and so do Bob's, on every block: no tolerance."""
        wrong_blocks = 0
        for seed, op_set in enumerate(LATIN_OP_SETS):
            cfg = SessionConfig(
                n_blocks=200,
                control_key=ControlKey.from_indices([0, 1, 2, 3]),
                error_threshold=1.0,
                seed=seed,
                eve=EveStrategy.guess_core(),
                op_set=op_set,
            )
            t = run_keyed_session(cfg)
            alice, bob = t.records.prepared.reshape(-1, 4), t.records.measured.reshape(-1, 4)
            eve = np.frombuffer(t.eve_log.symbols, np.uint8).reshape(-1, 4)
            for block in np.flatnonzero(t.blocks.eve_guess != t.blocks.alice_op):
                true_op, guess = op_set[t.blocks.alice_op[block]], op_set[t.blocks.eve_guess[block]]
                sigma = [true_op.perm[guess.inverse_perm[k]] for k in range(4)]
                for cycle in cycles(sigma):
                    parity = np.bitwise_xor.reduce(alice[block, cycle])
                    assert np.bitwise_xor.reduce(eve[block, cycle]) == parity
                    assert np.bitwise_xor.reduce(bob[block, cycle]) == parity
                wrong_blocks += 1
        assert wrong_blocks > 3000

    def test_correct_guess_session_is_error_free(self):
        key = ControlKey.from_indices([2, 1])
        cfg = SessionConfig(
            n_blocks=100,
            control_key=key,
            seed=14,
            eve=EveStrategy.known_key(key),
        )
        transcript = run_keyed_session(cfg)
        assert transcript.verdict.measured_error_rate == 0.0
        assert transcript.eve_bit_accuracy() == 1.0

    def test_known_key_plays_the_session_group(self):
        """A grouped session holds each op for two blocks, and so does the Eve who knows its key."""
        key = ControlKey.from_indices([0, 1, 2, 3])
        for eve in (EveStrategy.known_key(key), EveStrategy.known_key()):
            cfg = SessionConfig(n_blocks=200, control_key=key, group=GroupConfig(2), seed=3, eve=eve)
            transcript = run_keyed_session(cfg)
            assert transcript.verdict.measured_error_rate == 0.0, eve
            assert transcript.eve_bit_accuracy() == 1.0, eve

    def test_key_wrong_in_one_position(self):
        """Oracle: only the blocks driven by the corrupted position suffer."""
        key = ControlKey.from_indices([2, 1, 0, 3])
        eve_key = ControlKey.from_indices([2, 3, 0, 3])  # position 1 corrupted
        cfg = SessionConfig(
            n_blocks=200,
            control_key=key,
            check_fraction=0.5,
            error_threshold=1.0,
            seed=15,
            eve=EveStrategy.known_key(eve_key),
        )
        transcript = run_keyed_session(cfg)
        assert 0.0 < transcript.eve_bit_accuracy() < 1.0
        for block in transcript.blocks:
            block_errors = sum(
                1
                for r in transcript.records
                if r.block == block.index and r.measured != r.prepared
            )
            if block.eve_guess_correct:
                assert block_errors == 0
        assert transcript.wrong_guess_error_rate() == pytest.approx(0.75, abs=0.05)

    def test_random_key_full_session_success_frequency(self):
        """Oracle: success frequency must match guess_probability (1/16 at N_k=2)."""
        rng = np.random.default_rng(16)
        true_key = ControlKey.random(2, rng)
        group = GroupConfig()
        hits = 0
        n = 100_000
        for _ in range(n):
            eve_key = ControlKey.random(2, rng)
            hits += all(
                op_index_for_block(eve_key, group, t) == op_index_for_block(true_key, group, t)
                for t in range(2)
            )
        assert hits / n == pytest.approx(1.0 / 16.0, abs=0.005)


class TestBellProbe:
    def test_fixed_singlet_along_one_axis_always_minus_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            outcome, post = eve_bell_probe(
                bell_state(BellState.PSI_MINUS), 0, 1, Z_DIR, Z_DIR, rng
            )
            assert outcome == -1
            assert abs(post.norm() - 1.0) < 1e-10

    def test_probe_collapses_toward_the_measured_eigenspace(self):
        rng = np.random.default_rng(22)
        a = Direction.normalized(1, 1, 0)
        outcome, post = eve_bell_probe(bell_state(BellState.PHI_PLUS), 0, 1, a, a, rng)
        assert expectation(post, a, a) == pytest.approx(float(outcome), abs=1e-10)

    def test_mismatched_duo_mean_vanishes(self):
        rng = np.random.default_rng(23)
        register = tensor(bell_state(BellState.PSI_MINUS), bell_state(BellState.PHI_PLUS))
        a, b = random_direction(rng), random_direction(rng)
        outcomes = [eve_bell_probe(register, 0, 3, a, b, rng)[0] for _ in range(10_000)]
        assert abs(np.mean(outcomes)) < 0.05

    def test_ensemble_expectations_cancel_analytically(self):
        """The four Bell closed forms sum to zero for any direction pair."""
        rng = np.random.default_rng(24)
        for _ in range(100):
            a, b = random_direction(rng), random_direction(rng)
            total = sum(expectation(bell_state(s), a, b) for s in BellState)
            assert abs(total) < 1e-12

    def test_probe_session_records_outcomes(self):
        cfg = SessionConfig(
            n_blocks=50,
            control_key=ControlKey.from_indices([0, 1]),
            seed=27,
            error_threshold=1.0,
            eve=EveStrategy.bell_probe(Direction(1, 0, 0), Direction(0, 0, 1)),
        )
        transcript = run_keyed_session(cfg)
        assert transcript.eve_log is not None
        assert len(transcript.eve_log.probes) == 50
        assert transcript.eve_log.probe_mean is not None

    def test_probe_records_read_as_entries(self):
        entries = [(0, 0, 1), (0, 1, -1), (1, 0, -1), (70_000, 3, -1)]
        added = adversary.EveLog()
        for entry in entries:
            added.add_probe(*entry)
        packed = adversary.EveLog.of_probes(*np.array(entries).T)
        assert added == packed
        assert packed.probes == tuple(adversary.ProbeEntry(*e) for e in entries)
        assert packed.probe_mean == float(np.mean([e[2] for e in entries])) == -0.5
        assert adversary.EveLog().probe_mean is None and adversary.EveLog().probes == ()

    def test_probe_projectors_are_built_once_per_direction_pair_and_read_only(self):
        a, b = Direction.normalized(1, 2, 3), Direction.normalized(0, -1, 1)
        projectors = adversary._probe_projectors(a, b)
        assert adversary._probe_projectors(Direction(a.x, a.y, a.z), b) is projectors
        op = correlation_operator(a, b)
        np.testing.assert_array_equal(projectors[0], (np.eye(4) + op) / 2.0)
        np.testing.assert_array_equal(projectors[1], (np.eye(4) - op) / 2.0)
        with pytest.raises(ValueError):
            projectors[0][0, 0] = 0.0

    def test_probe_sessions_never_build_the_dense_register(self, monkeypatch):
        """Only a per-block probe session builds one: a dense block each; a one-duo keyed session none."""
        calls = []
        original = protocol.tensor

        def spy(*states):
            calls.append(len(states))
            return original(*states)

        monkeypatch.setattr(protocol, "tensor", spy)
        for budget, expected in ((1, []), (4, [4] * 40)):
            calls.clear()
            cfg = SessionConfig(
                n_blocks=40,
                control_key=ControlKey.from_indices([0, 1, 2, 3]),
                seed=28,
                error_threshold=1.0,
                noise=0.1,
                eve=EveStrategy.bell_probe(budget=budget),
            )
            assert len(run_keyed_session(cfg).eve_log.probes) == 40 * budget
            assert calls == expected


# Identity, then X, Y and Z with the XOR each applies to a Bell label.
PAULIS = ((None, 0), (SIGMA_X, 2), (SIGMA_Y, 3), (SIGMA_Z, 1))


def table_core(row: int) -> tuple:
    """The dense register of a ``probe_tables`` row, its probed duo and its Bob duos."""
    if row < 4:
        return bell_state(BellState(row)), (0, 1), ((0, 1),)
    l0, lj = divmod(row - 4, 4)
    return tensor(bell_state(BellState(l0)), bell_state(BellState(lj))), (0, 3), ((0, 1), (2, 3))


class TestProbeTables:
    """The keyed one-duo tables against the dense engine, on exact distributions."""

    @pytest.mark.parametrize("directions, every_pattern", [
        ((Direction.normalized(1, -2, 0.5), Direction.normalized(0.3, 1, -1)), True),
        ((Z_DIR, Z_DIR), False),  # Bell eigenstates: zero-probability probe branches
    ])
    def test_every_row_branch_and_pauli_pattern_matches_the_dense_engine(
        self, directions, every_pattern, monkeypatch
    ):
        """The XOR rule does not depend on the directions, so one pair takes every Pauli pattern."""
        a, b = directions
        probe, first, second = probe_tables(a, b)
        plus = (np.eye(4) + correlation_operator(a, b)) / 2.0  # projector onto the probe's +1 outcome
        drawn, dense, table = [], [], []  # dense-engine values and their table values
        for row, kp in itertools.product(range(adversary.PROBE_TABLE_ROWS), (0, 1)):
            core, duo, bob = table_core(row)
            rho = partial_trace_register(density(core), core.n_qubits, duo)
            dense.append([np.trace(plus @ rho).real])
            table.append([probe[row, 0]])
            if probe[row, kp] <= 1e-15:
                dense.append([0.0])
                table.append([probe[row, kp]])
                assert not first[kp, row].any() and not second[kp, row].any()
                continue
            drawn.clear()
            monkeypatch.setattr(adversary, "sample_index", lambda probs, rng: drawn.append(probs) or kp)
            outcome, after = eve_bell_probe(core, *duo, a, b, None)
            assert outcome == 1 - 2 * kp
            dense.append(drawn[0])
            table.append(probe[row])
            for pattern in itertools.product(PAULIS if every_pattern else PAULIS[:1], repeat=core.n_qubits):
                noisy = after
                for qubit, (pauli, _) in enumerate(pattern):
                    if pauli is not None:
                        noisy = apply_single_qubit(noisy, qubit, pauli)
                flips = [pattern[2 * k][1] ^ pattern[2 * k + 1][1] for k in range(len(bob))]
                marginal = first[kp, row, np.arange(4) ^ flips[0]]
                dense.append(bell_outcome_probabilities(noisy, *bob[0]))
                table.append(marginal)
                for r in range(4):
                    prob, rest = bell_project(noisy, *bob[0], r)
                    dense.append([prob])
                    table.append([marginal[r]])
                    if len(bob) == 2 and rest is not None:
                        dense.append(bell_outcome_probabilities(rest, *bob[1]))
                        table.append(second[kp, row, r ^ flips[0], np.arange(4) ^ flips[1]])
        dense_values, table_values = np.concatenate(dense), np.concatenate(table)
        assert dense_values.size > (60_000 if every_pattern else 300)
        np.testing.assert_allclose(dense_values, table_values, rtol=0, atol=1e-12)

    def test_the_probe_is_certain_on_a_genuine_duo(self):
        """ZZ reads a genuine duo's high key bit, XX its low bit; a mismatched duo reads 1/2."""
        np.testing.assert_allclose(probe_tables(Z_DIR, Z_DIR)[0][:4, 0], [0, 0, 1, 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(probe_tables(X_DIR, X_DIR)[0][:4, 0], [0, 1, 0, 1], rtol=0, atol=1e-12)
        rng = np.random.default_rng(30)
        for _ in range(5):
            probe = probe_tables(random_direction(rng), random_direction(rng))[0]
            np.testing.assert_allclose(probe[4:, 0], 0.5, rtol=0, atol=1e-12)
        # Under a uniform key the slot-0 duo is genuine in 1/4 of blocks, so the ZZ
        # probe agrees with Alice's high key bit of pair 0 in 1/4 + 3/4 * 1/2 = 5/8 of them.
        labels = np.array(list(itertools.product(range(4), repeat=4)))  # every block, uniform
        plus = probe_tables(Z_DIR, Z_DIR)[0][:, 0]
        high_bit = labels[:, 0] >> 1
        for op_set in LATIN_OP_SETS:
            assert sum(op.perm[0] == 0 for op in op_set) == 1
            agree = []
            for op in op_set:
                p_plus = plus[adversary.probe_table_rows(labels, np.full(len(labels), op.perm[0]))]
                agree.append(np.where(high_bit, p_plus, 1.0 - p_plus).mean())
            assert np.mean(agree) == pytest.approx(5 / 8, abs=1e-12)

    def test_tables_are_built_once_per_direction_pair_and_read_only(self):
        a, b = Direction.normalized(2, 1, 0), Direction.normalized(0, 1, 5)
        tables = probe_tables(a, b)
        assert probe_tables(Direction(a.x, a.y, a.z), b) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table.flat[0] = 0.5
        probe, first, second = tables
        np.testing.assert_allclose(probe.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(first.sum(axis=2), (probe.T > 1e-15).astype(float), atol=1e-12)
        assert not second[:, :4].any()
