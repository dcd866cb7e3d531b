"""Tests for the dense quantum-state engine and the Bell-label register."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from coreqkd import quantum
from coreqkd.adversary import eve_bell_probe
from coreqkd.quantum import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BellState,
    Direction,
    LabelRegister,
    StateVector,
    Z_DIR,
    _BELL_MATRIX,
    _from_front,
    _to_front,
    apply_single_qubit,
    bell_measure,
    bell_outcome_probabilities,
    bell_project,
    bell_state,
    computational_state,
    correlation_operator,
    density,
    expectation,
    mismatched_pair_density,
    partial_trace_register,
    pauli_along,
    random_direction,
    sample_index,
    sample_rows,
    tensor,
)

SQ = 1.0 / np.sqrt(2.0)


class TestBellStates:
    def test_psi_minus_vector(self):
        np.testing.assert_allclose(
            bell_state(BellState.PSI_MINUS).amps, [0, SQ, -SQ, 0], atol=1e-15
        )

    def test_phi_plus_vector(self):
        np.testing.assert_allclose(
            bell_state(BellState.PHI_PLUS).amps, [SQ, 0, 0, SQ], atol=1e-15
        )

    def test_all_normalised(self):
        for s in BellState:
            assert bell_state(s).norm() == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_orthogonal(self):
        for s in BellState:
            for t in BellState:
                if s is t:
                    continue
                overlap = np.vdot(bell_state(s).amps, bell_state(t).amps)
                assert abs(overlap) < 1e-12

    def test_key_bit_encoding_is_the_fixed_bijection(self):
        assert BellState.PSI_MINUS.key_bits == (0, 0)
        assert BellState.PSI_PLUS.key_bits == (0, 1)
        assert BellState.PHI_MINUS.key_bits == (1, 0)
        assert BellState.PHI_PLUS.key_bits == (1, 1)
        for s in BellState:
            assert BellState.from_bits(*s.key_bits) is s

    def test_big_endian_ordering(self):
        # qubit 0 is the most significant index bit: |10> sits at index 2
        assert computational_state([1, 0]).amps[2] == 1.0


class TestStateVectorValidation:
    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 0.0, 0.0])

    def test_register_cap(self):
        pairs = [bell_state(BellState.PHI_PLUS)] * 5
        with pytest.raises(ValueError, match="cap"):
            tensor(*pairs)

    def test_immutable(self):
        sv = bell_state(BellState.PSI_PLUS)
        with pytest.raises(AttributeError):
            sv.n_qubits = 3
        with pytest.raises(ValueError):
            sv.amps[0] = 1.0


class TestPartialTrace:
    def test_singlet_reduces_to_maximally_mixed(self):
        rho = partial_trace_register(density(bell_state(BellState.PSI_MINUS)), 2, [0])
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_product_state_keep_second(self):
        rho = partial_trace_register(density(computational_state([0, 0])), 2, [1])
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_bell_diagonal_mixture_against_direct_sum(self):
        """Oracle: reduced entries computed by an explicit index sum."""
        rng = np.random.default_rng(3)
        weights = rng.random(4)
        weights /= weights.sum()
        rho = sum(w * density(bell_state(s)) for w, s in zip(weights, BellState))

        def brute_reduced(keep_first):
            out = np.zeros((2, 2), dtype=complex)
            for a in range(2):
                for b in range(2):
                    for t in range(2):
                        if keep_first:
                            out[a, b] += rho[2 * a + t, 2 * b + t]
                        else:
                            out[a, b] += rho[2 * t + a, 2 * t + b]
            return out

        for keep, first in (([0], True), ([1], False)):
            reduced = partial_trace_register(rho, 2, keep)
            np.testing.assert_allclose(reduced, brute_reduced(first), atol=1e-12)
            np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            partial_trace_register(np.eye(4, dtype=complex), 2, [0])

    def test_register_partial_trace_matches_two_qubit_version(self):
        """Oracle: the two-qubit contraction written out for each kept qubit."""
        rho = density(bell_state(BellState.PHI_MINUS))
        r = rho.reshape(2, 2, 2, 2)
        np.testing.assert_allclose(
            partial_trace_register(rho, 2, [0]), np.einsum("abcb->ac", r), atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace_register(rho, 2, [1]), np.einsum("abad->bd", r), atol=1e-12
        )


class TestMismatchedPairDensity:
    def test_uniform_ensemble_is_quarter_identity(self):
        np.testing.assert_allclose(mismatched_pair_density(), np.eye(4) / 4, atol=1e-12)

    def test_every_entry_within_tolerance(self):
        rho = mismatched_pair_density()
        assert np.abs(rho - np.eye(4) / 4).max() <= 1e-12

    def test_single_state_ensemble_still_quarter_identity(self):
        """Oracle: reduced halves of any Bell state are I/2, so the product is I/4."""
        rho_full = density(bell_state(BellState.PSI_MINUS))
        expected = np.kron(
            partial_trace_register(rho_full, 2, [0]), partial_trace_register(rho_full, 2, [1])
        )
        got = mismatched_pair_density([BellState.PSI_MINUS])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, np.eye(4) / 4, atol=1e-12)


def closed_form_correlation(a, b):
    """Entrywise closed form of the two-spin correlation observable."""
    am, ap = a.x - 1j * a.y, a.x + 1j * a.y
    bm, bp = b.x - 1j * b.y, b.x + 1j * b.y
    az, bz = a.z, b.z
    return np.array(
        [
            [az * bz, az * bm, am * bz, am * bm],
            [az * bp, -az * bz, am * bp, -am * bz],
            [ap * bz, ap * bm, -az * bz, -az * bm],
            [ap * bp, -ap * bz, -az * bp, az * bz],
        ]
    )


class TestCorrelationOperator:
    def test_zz_is_diagonal(self):
        np.testing.assert_allclose(
            correlation_operator(Z_DIR, Z_DIR), np.diag([1, -1, -1, 1]), atol=1e-15
        )

    def test_top_right_entry(self):
        a = Direction.normalized(1, 2, 3)
        b = Direction.normalized(-2, 1, 0.5)
        op = correlation_operator(a, b)
        assert op[0, 3] == pytest.approx((a.x - 1j * a.y) * (b.x - 1j * b.y), abs=1e-12)

    def test_matches_closed_form_for_random_directions(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_direction(rng), random_direction(rng)
            np.testing.assert_allclose(
                correlation_operator(a, b), closed_form_correlation(a, b), atol=1e-12
            )

    def test_hermitian_with_doubly_degenerate_unit_eigenvalues(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            op = correlation_operator(random_direction(rng), random_direction(rng))
            np.testing.assert_allclose(op, op.conj().T, atol=1e-12)
            np.testing.assert_allclose(np.linalg.eigvalsh(op), [-1, -1, 1, 1], atol=1e-10)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            Direction(0.5, 0.5, 0.5)
        # just inside the 1e-9 gate is accepted
        Direction(1.0 + 5e-10, 0.0, 0.0)


class TestExpectation:
    def test_bell_state_closed_forms(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            a, b = random_direction(rng), random_direction(rng)
            dot = a.x * b.x + a.y * b.y + a.z * b.z
            forms = {
                BellState.PSI_MINUS: -dot,
                BellState.PSI_PLUS: a.x * b.x + a.y * b.y - a.z * b.z,
                BellState.PHI_MINUS: -a.x * b.x + a.y * b.y + a.z * b.z,
                BellState.PHI_PLUS: a.x * b.x - a.y * b.y + a.z * b.z,
            }
            for s, value in forms.items():
                assert expectation(bell_state(s), a, b) == pytest.approx(value, abs=1e-10)

    def test_product_states(self):
        rng = np.random.default_rng(22)
        a, b = random_direction(rng), random_direction(rng)
        for bits, sign in ([0, 0], +1), ([0, 1], -1), ([1, 0], -1), ([1, 1], +1):
            got = expectation(computational_state(bits), a, b)
            assert got == pytest.approx(sign * a.z * b.z, abs=1e-12)

    def test_singlet_anticorrelation_along_any_axis(self):
        rng = np.random.default_rng(23)
        a = random_direction(rng)
        assert expectation(bell_state(BellState.PSI_MINUS), a, a) == pytest.approx(-1.0)

    def test_accepts_density_matrix(self):
        rho = mismatched_pair_density()
        a = random_direction(np.random.default_rng(24))
        assert expectation(rho, a, a) == pytest.approx(0.0, abs=1e-12)


class TestBellMeasure:
    def test_eigenstate_is_deterministic(self):
        rng = np.random.default_rng(31)
        for s in BellState:
            outcome, post = bell_measure(bell_state(s), 0, 1, rng)
            assert outcome is s
            np.testing.assert_allclose(post.amps, bell_state(s).amps, atol=1e-12)

    def test_mis_paired_duo_is_uniform_by_sampling(self):
        # two pairs; the duo (A of pair 0, B of pair 1) purifies I/4
        register = tensor(bell_state(BellState.PSI_MINUS), bell_state(BellState.PSI_MINUS))
        rng = np.random.default_rng(32)
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            outcome, _ = bell_measure(register, 0, 3, rng)
            counts[outcome.value] += 1
        np.testing.assert_allclose(counts / n, 0.25, atol=0.01)

    def test_mis_paired_duo_exact_born_probabilities_on_full_block(self):
        """Oracle: exact amplitudes of an 8-qubit register of 4 pairs."""
        rng = np.random.default_rng(33)
        symbols = [BellState(int(v)) for v in rng.integers(0, 4, size=4)]
        register = tensor(*(bell_state(s) for s in symbols))
        # A half of pair 0 is qubit 0; B half of pair 1 is qubit 3
        probs = bell_outcome_probabilities(register, 0, 3)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_outcome_frequencies_match_born_chi_square(self):
        """Chi-square at significance 0.001 against exact Born probabilities."""
        rng = np.random.default_rng(34)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        register = StateVector(raw / np.linalg.norm(raw))
        exact = bell_outcome_probabilities(register, 0, 2)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            outcome, _ = bell_measure(register, 0, 2, rng)
            counts[outcome.value] += 1
        live = exact > 1e-12
        chi2 = float(((counts[live] - n * exact[live]) ** 2 / (n * exact[live])).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=live.sum() - 1)

    def test_collapse_keeps_unit_norm(self):
        rng = np.random.default_rng(35)
        register = tensor(bell_state(BellState.PHI_PLUS), bell_state(BellState.PSI_PLUS))
        for _ in range(50):
            _, register = bell_measure(register, 0, 3, rng)
            assert abs(register.norm() - 1.0) < 1e-10

    def test_rejects_same_qubit_twice(self):
        with pytest.raises(ValueError):
            bell_measure(bell_state(BellState.PSI_PLUS), 1, 1, np.random.default_rng(0))


N_KERNEL = 8
ORDERED_PAIRS = list(itertools.permutations(range(N_KERNEL), 2))


def random_register(rng, n=N_KERNEL):
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(raw / np.linalg.norm(raw))


def bit(index, qubit, n=N_KERNEL):
    """Value of one qubit in a big-endian basis index."""
    return (index >> (n - 1 - qubit)) & 1


def rest_index(index, skip, n=N_KERNEL):
    """Big-endian index of the qubits not in ``skip``, in ascending order."""
    out = 0
    for q in range(n):
        if q not in skip:
            out = (out << 1) | bit(index, q)
    return out


class TestAxisKernel:
    """Every subset operation against an independent index-arithmetic or kron oracle."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_front_view_matches_index_arithmetic(self, seed):
        register = random_register(np.random.default_rng(seed))
        for i, j in ORDERED_PAIRS:
            view = _to_front(register, (i, j))
            for index, amp in enumerate(register.amps):
                assert view[2 * bit(index, i) + bit(index, j), rest_index(index, (i, j))] == amp
            assert _from_front(view, N_KERNEL, (i, j)) == register

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bell_probabilities_match_index_arithmetic(self, seed):
        register = random_register(np.random.default_rng(seed))
        for i, j in ORDERED_PAIRS:
            # coefficient of Bell state k on the duo, per assignment of the other qubits
            coeffs: dict = {}
            for index, amp in enumerate(register.amps):
                duo = 2 * bit(index, i) + bit(index, j)
                rest = tuple(bit(index, q) for q in range(N_KERNEL) if q not in (i, j))
                row = coeffs.setdefault(rest, np.zeros(4, dtype=complex))
                row += _BELL_MATRIX[:, duo].conj() * amp
            expected = sum(np.abs(row) ** 2 for row in coeffs.values())
            np.testing.assert_allclose(
                bell_outcome_probabilities(register, i, j), expected, atol=1e-12
            )

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_single_qubit_gate_matches_kron_operator(self, seed):
        rng = np.random.default_rng(seed)
        register = random_register(rng)
        for q in range(N_KERNEL):
            gate, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            full = np.kron(np.kron(np.eye(1 << q), gate), np.eye(1 << (N_KERNEL - 1 - q)))
            np.testing.assert_allclose(
                apply_single_qubit(register, q, gate).amps, full @ register.amps, atol=1e-12
            )

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_measurement_collapses_like_the_projection(self, seed):
        rng = np.random.default_rng(seed)
        register = random_register(rng)
        indices = np.arange(1 << N_KERNEL)
        for i, j in ORDERED_PAIRS:
            outcome, measured = bell_measure(register, i, j, rng)
            prob, projected = bell_project(register, i, j, outcome)
            assert measured == projected
            # |B><B| on the duo (i, j) tensored with the identity on the rest
            duo = 2 * bit(indices, i) + bit(indices, j)
            rest = np.array([rest_index(x, (i, j)) for x in indices])
            bell = _BELL_MATRIX[outcome.value]
            projector = np.outer(bell[duo], bell[duo].conj()) * (rest[:, None] == rest[None, :])
            branch = projector @ register.amps
            assert prob == pytest.approx(np.vdot(branch, branch).real, abs=1e-12)
            np.testing.assert_allclose(projected.amps, branch / np.sqrt(prob), atol=1e-12)


    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tensor_is_kron_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        states = [random_register(rng, n) for n in (1, 2, 3, 2)]
        expected = states[0].amps
        for s in states[1:]:
            expected = np.kron(expected, s.amps)
        assert np.array_equal(tensor(*states).amps, expected)

    def test_rejects_repeated_or_out_of_range_qubits_after_valid_ones(self):
        register = random_register(np.random.default_rng(5), 3)
        bell_outcome_probabilities(register, 0, 2)
        for duo in ((0, 0), (2, 2), (0, 3), (-1, 1)):
            with pytest.raises(ValueError):
                bell_outcome_probabilities(register, *duo)
        with pytest.raises(ValueError):
            apply_single_qubit(register, 3, SIGMA_X)


class TestPauliAlong:
    def test_unit_directions_recover_the_axes(self):
        np.testing.assert_allclose(pauli_along(Z_DIR), np.diag([1, -1]), atol=1e-15)

    def test_squares_to_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m = pauli_along(random_direction(rng))
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)
            assert abs(np.trace(m)) < 1e-12


class FixedDraw:
    """Stand-in generator whose ``random()`` always returns ``u``; counts the draws."""

    def __init__(self, u: float):
        self.u = u
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.u


class TestSampleRows:
    """``sample_rows`` against ``sample_index`` applied to each row with the same uniform."""

    @staticmethod
    def assert_rows_match(probs: np.ndarray, u: np.ndarray) -> None:
        expected = [sample_index(row.tolist(), FixedDraw(float(v))) for row, v in zip(probs, u)]
        assert sample_rows(probs, u).tolist() == expected

    def test_random_rows(self):
        rng = np.random.default_rng(41)
        for width in (2, 4, 7):
            probs = rng.dirichlet(np.ones(width), size=500)
            self.assert_rows_match(probs, rng.random(500))

    def test_rows_with_floored_branches(self):
        rng = np.random.default_rng(42)
        probs = rng.dirichlet(np.ones(4), size=2000)
        floored = rng.random(probs.shape) < 0.4
        probs[floored] = rng.choice([0.0, 1e-16, 1e-15], size=int(floored.sum()))
        probs[np.flatnonzero(~(probs > 1e-15).any(axis=1)), 2] = 0.5
        # Rows that sum to less than 1, so large draws fall past every partial sum.
        probs[::3] *= 0.9
        u = rng.random(2000)
        u[::5] = np.nextafter(1.0, 0.0)
        self.assert_rows_match(probs, u)

    def test_a_draw_equal_to_a_partial_sum(self):
        rng = np.random.default_rng(43)
        probs = rng.dirichlet(np.ones(4), size=400)
        probs[::2, 1] = 0.0
        probs[1::2, 1] = 1e-15  # floored: a sum that took it in would pass u
        u = np.empty(400)
        for i, row in enumerate(probs):
            acc, sums = 0.0, []
            for p in row.tolist():
                if p > 1e-15:
                    acc += p
                    sums.append(acc)
            u[i] = sums[i % len(sums)]
        self.assert_rows_match(probs, u)
        self.assert_rows_match(np.array([[0.25] * 4] * 4), np.array([0.0, 0.25, 0.5, 0.75]))

    def test_a_row_with_no_live_branch_raises_as_sample_index_does(self):
        probs = np.array([[0.5, 0.5], [1e-15, 0.0]])
        with pytest.raises(RuntimeError, match="positive probability"):
            sample_index(probs[1].tolist(), FixedDraw(0.5))
        with pytest.raises(RuntimeError, match="positive probability"):
            sample_rows(probs, np.array([0.5, 0.5]))


def same_up_to_phase(a: StateVector, b: StateVector) -> bool:
    return abs(abs(np.vdot(a.amps, b.amps)) - 1.0) < 1e-12


# Two pairs on (0, 1) and (2, 3): every ordered duo of halves from different
# pairs, and every ordered genuine duo.
CROSS_DUOS = [(i, j) for i, j in itertools.permutations(range(4), 2) if i // 2 != j // 2]
GENUINE_DUOS = [(0, 1), (1, 0), (2, 3), (3, 2)]
PAULI_FLIPS = ((SIGMA_X, 2), (SIGMA_Y, 3), (SIGMA_Z, 1))


class TestLabelRegister:
    """The label rules against the dense engine, which is their oracle."""

    def test_prepared_state_is_the_tensor_bit_for_bit(self):
        for labels in itertools.product(range(4), repeat=4):
            register = LabelRegister(labels)
            assert register.state() == tensor(*(bell_state(BellState(v)) for v in labels))

    def test_measuring_halves_of_two_pairs_swaps_the_entanglement(self):
        for p, q, r in itertools.product(range(4), repeat=3):
            register = LabelRegister([p, q])
            dense = register.state()
            for i, j in CROSS_DUOS:
                rng = FixedDraw((r + 0.5) / 4)
                outcome, after = bell_measure(register, i, j, rng)
                assert outcome is BellState(r) and rng.draws == 1
                assert after.partner[i] == j and after.label[i] == r
                assert after.label[register.partner[i]] == p ^ q ^ r
                prob, collapsed = bell_project(dense, i, j, r)
                assert prob == pytest.approx(0.25, abs=1e-12)
                assert same_up_to_phase(after.state(), collapsed)

    def test_measuring_a_genuine_pair_returns_its_label(self):
        for p, q in itertools.product(range(4), repeat=2):
            register = LabelRegister([p, q])
            dense = register.state()
            for i, j in GENUINE_DUOS:
                rng = FixedDraw(0.999)
                outcome, after = bell_measure(register, i, j, rng)
                assert outcome.value == register.label[i] and rng.draws == 1
                assert after == register
                prob, collapsed = bell_project(dense, i, j, outcome)
                assert prob == pytest.approx(1.0, abs=1e-12)
                assert same_up_to_phase(after.state(), collapsed)

    def test_uniform_branch_is_the_branch_sample_index_picks(self):
        register = LabelRegister([0, 3])
        for u in (0.0, 0.25, 0.5, 0.75, *np.nextafter([0.25, 0.5, 0.75, 1.0], 0.0)):
            outcome, _ = bell_measure(register, 0, 2, FixedDraw(float(u)))
            assert outcome.value == sample_index((0.25,) * 4, FixedDraw(float(u)))

    def test_pauli_gates_xor_the_label_of_the_hit_pair(self):
        for p, q in itertools.product(range(4), repeat=2):
            register = LabelRegister([p, q])
            for qubit, (pauli, flip) in itertools.product(range(4), PAULI_FLIPS):
                after = apply_single_qubit(register, qubit, pauli)
                hit = qubit // 2
                assert after.label[2 * hit] == [p, q][hit] ^ flip
                assert after.label[2 * (1 - hit)] == [p, q][1 - hit]
                expected = apply_single_qubit(register.state(), qubit, pauli)
                assert same_up_to_phase(after.state(), expected)

    def test_gates_are_recognised_by_value_and_others_refused(self):
        register = LabelRegister([1, 2])
        by_value = apply_single_qubit(register, 0, [[0, 1], [1, 0]])
        assert by_value == apply_single_qubit(register, 0, SIGMA_X)
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for gate in (hadamard, np.eye(2), np.eye(4)):
            with pytest.raises(ValueError, match="Pauli"):
                apply_single_qubit(register, 0, gate)
        with pytest.raises(ValueError, match="not Clifford"):
            eve_bell_probe(register, 0, 2, Z_DIR, Z_DIR, np.random.default_rng(0))

    def test_the_pauli_objects_are_recognised_without_a_comparison(self, monkeypatch):
        class Uncomparable(np.ndarray):
            def __array_ufunc__(self, *args, **kwargs):
                raise AssertionError("compared by value")

        flips = tuple((pauli.view(Uncomparable), flip) for pauli, flip in PAULI_FLIPS)
        monkeypatch.setattr(quantum, "_PAULI_FLIPS", flips)
        register = LabelRegister([1, 2])
        for gate, flip in flips:
            assert apply_single_qubit(register, 3, gate).label[2:] == (2 ^ flip,) * 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        labels=st.lists(st.integers(0, 3), min_size=4, max_size=4),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("measure"), st.integers(0, 7), st.integers(0, 7)).filter(
                    lambda step: step[1] != step[2]
                ),
                st.tuples(st.just("pauli"), st.integers(0, 7), st.integers(0, 2)),
            ),
            max_size=12,
        ),
    )
    def test_step_sequences_track_the_dense_engine(self, seed, labels, steps):
        """Same outcomes, same states up to phase and the same RNG state, step by step."""
        register = LabelRegister(labels)
        dense = register.state()
        rng_labels, rng_dense = np.random.default_rng(seed), np.random.default_rng(seed)
        for kind, a, b in steps:
            if kind == "measure":
                outcome, register = bell_measure(register, a, b, rng_labels)
                expected, dense = bell_measure(dense, a, b, rng_dense)
                assert outcome is expected
            else:
                register = apply_single_qubit(register, a, PAULI_FLIPS[b][0])
                dense = apply_single_qubit(dense, a, PAULI_FLIPS[b][0])
            assert same_up_to_phase(register.state(), dense)
            assert rng_labels.bit_generator.state == rng_dense.bit_generator.state

    def test_rejects_what_is_not_a_block_of_bell_states(self):
        for labels in ([], [0, 1, 2, 3, 0], [0, 4], [-1], [0.5]):
            with pytest.raises(ValueError):
                LabelRegister(labels)

    def test_immutable_and_measurement_checks_its_qubits(self):
        register = LabelRegister([0, 1])
        with pytest.raises(AttributeError):
            register.label = (0, 0, 0, 0)
        for i, j in ((1, 1), (0, 4), (-1, 2)):
            with pytest.raises(ValueError):
                bell_measure(register, i, j, np.random.default_rng(0))
