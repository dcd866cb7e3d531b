#!/usr/bin/env python3
"""The rearrangement layer: block permutations and the delay-loop device.

Shows the four encryption operations as permutations, drives the discrete
time simulation of the three-switch delay-loop device, and exercises its
failure modes (collisions, stuck particles, unrealizable permutations).
"""

from coreqkd import (
    CollisionError,
    ControlKey,
    CoreOpSet,
    DeviceModel,
    GroupConfig,
    SwitchSchedule,
    UnrealizableError,
    apply_core,
    invert_core,
    op_index_for_block,
    perm_to_schedule,
    schedule_to_perm,
)
from coreqkd.rearrange import DOWN, PASS_TRIPLE, UP

TAGS = ("B1", "B2", "B3", "B4")
ops = CoreOpSet.cyclic()

print("=" * 68)
print("The four rearrangement operations (default set: cyclic shifts)")
print("=" * 68)
for op in ops:
    sent = apply_core(op, TAGS)
    back = invert_core(op, sent)
    print(f"  E{op.index}: perm {op.perm}  {TAGS} -> {sent}  restored {back}")

print()
print("A control key drives one op per block, cyclically:")
key = ControlKey.from_bits("0111")
picks = [op_index_for_block(key, GroupConfig(group_size=2), t) for t in range(8)]
print(f"  key bits {key.as_bit_string()} (indices {key.op_indices}), "
      f"groups of 2 blocks -> E{picks}")

print()
print("=" * 68)
print("Delay-loop device: schedules in, permutations out")
print("=" * 68)
device = DeviceModel()
print(f"  geometry: loop delay {device.loop_delay} slots, "
      f"budget {device.max_circuits} circuits")

rest = SwitchSchedule.uniform(PASS_TRIPLE)
print(f"  all switches (up, up, down)      -> {schedule_to_perm(rest, device)}")

shift = SwitchSchedule(((DOWN, UP, DOWN), (UP, DOWN, UP), (UP, DOWN, DOWN), (UP, DOWN, UP)))
print(f"  the shift schedule               -> {schedule_to_perm(shift, device)}")

print("\n  searching schedules for each default op:")
for op in ops:
    schedule = perm_to_schedule(op.perm, device)
    compact = ", ".join(f"({s1[0]},{s2[0]},{s3[0]})" for s1, s2, s3 in schedule.triples)
    print(f"  E{op.index} {op.perm} <- [{compact}]  "
          f"(round trip: {schedule_to_perm(schedule, device)})")

print()
print("Failure modes:")
tight = DeviceModel(loop_delay=2)
clash = SwitchSchedule(((DOWN, UP, UP), PASS_TRIPLE, PASS_TRIPLE, PASS_TRIPLE))
try:
    schedule_to_perm(clash, tight)
except CollisionError as exc:
    print(f"  2-slot loop, delayed particle 0: {exc}")

try:
    perm_to_schedule((1, 0, 3, 2), DeviceModel(max_circuits=1))
except UnrealizableError as exc:
    print(f"  pair swap at unit budget:        {exc}")
found = perm_to_schedule((1, 0, 3, 2), DeviceModel(max_circuits=2))
print(f"  same permutation at budget 2:    realizable, "
      f"{schedule_to_perm(found, DeviceModel(max_circuits=2))}")
