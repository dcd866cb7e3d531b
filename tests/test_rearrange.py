"""Tests for rearrangement ops, control keys and the delay-loop device."""

import itertools

import numpy as np
import pytest

from coreqkd.rearrange import (
    DOWN,
    UP,
    PASS_TRIPLE,
    CollisionError,
    ControlKey,
    CoreOp,
    CoreOpSet,
    DeviceModel,
    GroupConfig,
    StuckError,
    SwitchSchedule,
    UnrealizableError,
    apply_core,
    invert_core,
    op_index_for_block,
    perm_to_schedule,
    schedule_to_perm,
)

TAGS = ("B1", "B2", "B3", "B4")
SHIFT_SCHEDULE = SwitchSchedule((
    (DOWN, UP, DOWN),
    (UP, DOWN, UP),
    (UP, DOWN, DOWN),
    (UP, DOWN, UP),
))


class TestCoreOps:
    def test_identity_leaves_block_alone(self):
        ops = CoreOpSet.cyclic()
        assert apply_core(ops[0], TAGS) == TAGS

    def test_default_shift_by_one(self):
        ops = CoreOpSet.cyclic()
        assert apply_core(ops[1], TAGS) == ("B2", "B3", "B4", "B1")
        assert ops[1].is_derangement()

    def test_apply_then_invert_over_all_orderings(self):
        ops = CoreOpSet.cyclic()
        for op in ops:
            for block in itertools.permutations(TAGS):
                assert invert_core(op, apply_core(op, block)) == block

    def test_inverse_of_shift_one_is_shift_three(self):
        ops = CoreOpSet.cyclic()
        assert ops[1].inverse_perm == ops[3].perm

    def test_non_identity_ops_are_derangements(self):
        for op in tuple(CoreOpSet.cyclic())[1:]:
            assert all(op.perm[p] != p for p in range(4))

    def test_default_set_closed_under_inversion(self):
        perms = {op.perm for op in CoreOpSet.cyclic()}
        assert {op.inverse_perm for op in CoreOpSet.cyclic()} == perms

    def test_wrong_block_length(self):
        op = CoreOpSet.cyclic()[1]
        with pytest.raises(ValueError, match="length"):
            apply_core(op, ("a", "b"))
        with pytest.raises(ValueError, match="length"):
            invert_core(op, ("a", "b", "c", "d", "e"))

    def test_set_validation(self):
        good = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
        CoreOpSet(good)
        with pytest.raises(ValueError, match="identity"):
            CoreOpSet([good[1], good[0], good[2], good[3]])
        with pytest.raises(ValueError, match="derangement"):
            CoreOpSet([good[0], (0, 2, 3, 1), good[2], good[3]])
        with pytest.raises(ValueError, match="distinct"):
            CoreOpSet([good[0], good[1], good[1], good[3]])
        with pytest.raises(ValueError, match="permutation"):
            CoreOp(1, (0, 0, 1, 2))


class TestControlKey:
    def test_bit_and_index_views_agree(self):
        key = ControlKey.from_indices([0, 1, 2, 3])
        assert key.as_bit_string() == "00011011"
        assert ControlKey.from_bits("00011011").op_indices == (0, 1, 2, 3)

    def test_op_indices_are_computed_once(self):
        key = ControlKey.from_indices([3, 0, 2])
        assert key.op_indices is key.op_indices == (3, 0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlKey((1,))
        with pytest.raises(ValueError):
            ControlKey((0, 2))
        with pytest.raises(ValueError):
            ControlKey.from_indices([4])

    def test_random_key_length(self):
        key = ControlKey.random(5, np.random.default_rng(0))
        assert key.n_k == 5 and len(key.bits) == 10


class TestKeyStream:
    """The per-block op indices a control key selects."""

    def test_single_value_repeats(self):
        key = ControlKey.from_indices([1])
        assert [op_index_for_block(key, GroupConfig(), t) for t in range(5)] == [1] * 5

    def test_two_values_alternate(self):
        key = ControlKey.from_indices([0, 3])
        got = [op_index_for_block(key, GroupConfig(), t) for t in range(6)]
        assert got == [0, 3, 0, 3, 0, 3]

    def test_grouping_holds_one_value_for_four_blocks(self):
        key = ControlKey.from_indices([1, 2])
        got = [op_index_for_block(key, GroupConfig(4), t) for t in range(8)]
        assert got == [1] * 4 + [2] * 4

    def test_grouping_boundary_with_two_values(self):
        key = ControlKey.from_indices([2, 0])
        group = GroupConfig(3)
        got = [op_index_for_block(key, group, t) for t in range(9)]
        assert got == [2, 2, 2, 0, 0, 0, 2, 2, 2]

    @pytest.mark.parametrize(
        "indices, group_size, expected",
        [
            ([1], 1, [1] * 5),
            ([0, 3], 1, [0, 3, 0, 3, 0, 3]),
            ([1, 2], 4, [1] * 4 + [2] * 4),
            ([2, 0], 3, [2, 2, 2, 0, 0, 0, 2, 2, 2]),
        ],
    )
    def test_an_array_of_blocks_gives_the_array_of_their_ops(self, indices, group_size, expected):
        key, group = ControlKey.from_indices(indices), GroupConfig(group_size)
        got = op_index_for_block(key, group, np.arange(len(expected)))
        assert isinstance(got, np.ndarray) and got.tolist() == expected
        blocks = np.random.default_rng(group_size).integers(0, 10_000, size=200)
        scalar = [op_index_for_block(key, group, t) for t in blocks.tolist()]
        assert op_index_for_block(key, group, blocks).tolist() == scalar
        assert all(type(v) is int for v in scalar)


class TestDevice:
    def test_rest_schedule_is_identity(self):
        assert schedule_to_perm(SwitchSchedule.uniform(PASS_TRIPLE)) == (0, 1, 2, 3)

    def test_verbatim_shift_schedule_is_a_derangement(self):
        perm = schedule_to_perm(SHIFT_SCHEDULE)
        assert sorted(perm) == [0, 1, 2, 3]
        assert all(perm[p] != p for p in range(4))

    def test_collision_from_constructed_schedule(self):
        """Oracle: with a 2-slot loop, a delayed particle 0 exits in slot 2,
        colliding with the direct particle 2."""
        device = DeviceModel(loop_delay=2)
        schedule = SwitchSchedule(((DOWN, UP, UP), PASS_TRIPLE, PASS_TRIPLE, PASS_TRIPLE))
        with pytest.raises(CollisionError, match="COLLISION"):
            schedule_to_perm(schedule, device)

    def test_loop_phase_collision(self):
        # particle 0's deflection circuit occupies the loop phase (slot 4)
        # that particle 2 needs for its own first circuit
        device = DeviceModel(loop_delay=2)
        schedule = SwitchSchedule(((DOWN, UP, DOWN), PASS_TRIPLE, (DOWN, UP, UP), PASS_TRIPLE))
        with pytest.raises(CollisionError, match="loop"):
            schedule_to_perm(schedule, device)

    def test_stuck_particle(self):
        schedule = SwitchSchedule(((DOWN, DOWN, UP), PASS_TRIPLE, PASS_TRIPLE, PASS_TRIPLE))
        with pytest.raises(StuckError, match="STUCK"):
            schedule_to_perm(schedule)

    def test_identity_searches_to_the_rest_schedule(self):
        assert perm_to_schedule((0, 1, 2, 3)) == SwitchSchedule.uniform(PASS_TRIPLE)

    def test_round_trip_all_default_ops(self):
        device = DeviceModel()
        for op in CoreOpSet.cyclic():
            schedule = perm_to_schedule(op.perm, device)
            assert schedule_to_perm(schedule, device) == op.perm

    def test_image_of_default_schedules_is_the_default_set(self):
        device = DeviceModel()
        image = {
            schedule_to_perm(perm_to_schedule(op.perm, device), device)
            for op in CoreOpSet.cyclic()
        }
        assert image == {op.perm for op in CoreOpSet.cyclic()}

    def test_unrealizable_at_unit_budget(self):
        """Oracle: exit slots at budget 1 are p or p+4; the pair swap
        (1,0,3,2) needs particle 2 out after slot 7, which is unreachable."""
        with pytest.raises(UnrealizableError, match="UNREALIZABLE"):
            perm_to_schedule((1, 0, 3, 2), DeviceModel(max_circuits=1))
        # the default two-circuit budget realises it
        schedule = perm_to_schedule((1, 0, 3, 2), DeviceModel())
        assert schedule_to_perm(schedule, DeviceModel()) == (1, 0, 3, 2)

    def test_total_on_random_schedules(self):
        """Any schedule either yields a permutation or a named device error."""
        rng = np.random.default_rng(8)
        for _ in range(300):
            triples = tuple(
                tuple(rng.choice([UP, DOWN]) for _ in range(3)) for _ in range(4)
            )
            try:
                perm = schedule_to_perm(SwitchSchedule(triples))
            except (CollisionError, StuckError):
                continue
            assert sorted(perm) == [0, 1, 2, 3]

    def test_device_validation(self):
        with pytest.raises(ValueError):
            DeviceModel(loop_delay=0)
        with pytest.raises(ValueError):
            DeviceModel(max_circuits=0)
        with pytest.raises(ValueError, match="triple"):
            SwitchSchedule(((UP, UP),))
