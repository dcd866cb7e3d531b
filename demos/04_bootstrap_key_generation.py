#!/usr/bin/env python3
"""On-site control-key generation by random op choices and sifting.

Both parties pick a rearrangement at random per block; a quarter of the
blocks happen to match and survive the public comparison. The receiver's
measured bits on surviving blocks become the candidate control key.
"""

import numpy as np

from coreqkd import ControlKey, SessionConfig, run_bootstrap_session

cfg = SessionConfig(
    n_blocks=3000,
    control_key=ControlKey.from_indices([0]),  # unused in bootstrap mode
    check_fraction=0.25,
    error_threshold=0.05,
    seed=404,
    mode="bootstrap",
    requested_key_bits=200,
)

key, transcript = run_bootstrap_session(cfg)

blocks = transcript.blocks
sifted_blocks = int(np.count_nonzero(blocks.alice_op == blocks.bob_op))
print(f"blocks transmitted      : {len(blocks)}")
print(f"blocks with matching ops: {sifted_blocks}  "
      f"(sift rate {transcript.sift_rate:.4f}, expected 0.25)")
print(f"sifted-pair agreement   : {transcript.agreement_rate(sifted=True)}")
print(f"discarded-pair agreement: {transcript.agreement_rate(sifted=False):.4f}  "
      "(mismatched pairs are featureless: 1/4)")

v = transcript.verdict
print(f"eavesdropping check     : {v.checked_count} sifted pairs compared, "
      f"error rate {v.measured_error_rate}, "
      f"{'accepted' if v.accepted else 'rejected'}")

print(f"candidate control key   : {key.n_k} op indices "
      f"({len(key.bits)} bits requested)")
print(f"first 10 op indices     : {list(key.op_indices[:10])}")
print()
print("Afterwards the parties switch to keyed operation, which uses every")
print("transmitted pair instead of one in four.")
