#!/usr/bin/env python3
"""Bell pairs, the 2-bit encoding, and spin correlations along chosen axes.

Walks through the quantum substrate of the protocol: the four entangled
states a pair can be prepared in, the key bits each one encodes, reduced
density matrices, and the correlation observable an outsider could measure.
"""

import numpy as np

from coreqkd import (
    BellState,
    bell_state,
    computational_state,
    correlation_operator,
    density,
    expectation,
    mismatched_pair_density,
    partial_trace_register,
    random_direction,
)

print("=" * 68)
print("The four Bell states and their key encoding")
print("=" * 68)
for s in BellState:
    amps = bell_state(s).amps.real
    bits = "".join(str(b) for b in s.key_bits)
    print(f"  {s.name:<10} encodes {bits}   amplitudes {np.round(amps, 4)}")

print()
print("Each half of an entangled pair, taken alone, is featureless:")
rho = density(bell_state(BellState.PSI_MINUS))
print("  reduced first half :", np.round(partial_trace_register(rho, 2, [0]).real, 3).tolist())
print("  reduced second half:", np.round(partial_trace_register(rho, 2, [1]).real, 3).tolist())

print()
print("So two halves from *different* pairs carry no correlation at all:")
print(np.round(mismatched_pair_density().real, 4))

print()
print("=" * 68)
print("Spin correlations along random measurement directions")
print("=" * 68)
rng = np.random.default_rng(7)
a, b = random_direction(rng), random_direction(rng)
print(f"  a = ({a.x:+.3f}, {a.y:+.3f}, {a.z:+.3f})")
print(f"  b = ({b.x:+.3f}, {b.y:+.3f}, {b.z:+.3f})")
op = correlation_operator(a, b)
print("  correlation operator is Hermitian with eigenvalues",
      np.round(np.linalg.eigvalsh(op), 6))

dot = a.x * b.x + a.y * b.y + a.z * b.z
closed = {
    BellState.PSI_MINUS: -dot,
    BellState.PSI_PLUS: a.x * b.x + a.y * b.y - a.z * b.z,
    BellState.PHI_MINUS: -a.x * b.x + a.y * b.y + a.z * b.z,
    BellState.PHI_PLUS: a.x * b.x - a.y * b.y + a.z * b.z,
}
print("\n  state        <E> simulated   <E> closed form")
for s, want in closed.items():
    got = expectation(bell_state(s), a, b)
    print(f"  {s.name:<10}  {got:+.6f}      {want:+.6f}")
print(f"  sum over the four states: {sum(closed.values()):+.2e}  (a uniform "
      "ensemble averages to zero)")

print("\n  product states only feel the z components:")
for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
    got = expectation(computational_state(bits), a, b)
    print(f"  |{bits[0]}{bits[1]}>  <E> = {got:+.6f}   (a_z b_z = {a.z * b.z:+.6f})")
