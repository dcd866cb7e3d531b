"""numpy's bounded-integer draws the sessions use, replayed from raw PCG64 words.

A bootstrap session draws both parties' ops with ``rng.integers(0, 4,
size=n)``, and a key-length sweep draws each trial key with
``ControlKey.random``, that is ``rng.integers(0, 2, size=2 * n_k)``. For a
range of 2 or 4, numpy's Lemire method maps a 32-bit draw u to
``u * range >> 32`` and never rejects. The 32-bit draws are halves of raw
64-bit words, low half first; the high half stays buffered in the bit
generator, also across calls. These tests pin that against a replica, so
that a numpy release that changes it fails here by name rather than as
unexplained report digests.
"""

import numpy as np
import pytest

from coreqkd.rearrange import ControlKey

SEEDS = range(300)
SIZES = (1, 2, 3, 7, 64, 65)


class RawHalves:
    """The 32-bit draws of a PCG64 generator, read off its raw 64-bit words."""

    def __init__(self, seed: int):
        self.bit_generator = np.random.default_rng(seed).bit_generator
        self.buffered: int | None = None

    def next_uint32(self) -> int:
        if self.buffered is not None:
            half, self.buffered = self.buffered, None
            return half
        word = int(self.bit_generator.random_raw())
        self.buffered = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, high: int, n: int) -> list[int]:
        """``rng.integers(0, high, size=n)`` for ``high`` 2 or 4."""
        shift = {2: 31, 4: 30}[high]
        return [self.next_uint32() >> shift for _ in range(n)]


def mismatch(what: str, seed: int, n: int) -> str:
    return f"numpy {np.__version__}: {what} left the raw-draw replica at seed {seed}, n {n}"


@pytest.mark.parametrize("n", SIZES)
def test_two_bootstrap_op_draws_read_the_raw_words(n):
    for seed in SEEDS:
        rng, replica = np.random.default_rng(seed), RawHalves(seed)
        for party in ("alice", "bob"):
            got = rng.integers(0, 4, size=n).tolist()
            assert got == replica.integers(4, n), mismatch(f"{party}'s op draw", seed, n)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 0 and replica.buffered is None, mismatch("the buffered half", seed, n)
        assert state["state"] == replica.bit_generator.state["state"], mismatch("the words read", seed, n)


@pytest.mark.parametrize("n", SIZES)
def test_key_bit_draws_read_the_raw_words(n):
    for seed in SEEDS:
        rng, replica = np.random.default_rng(seed), RawHalves(seed)
        got = [int(b) for b in rng.integers(0, 2, size=n)]
        assert got == replica.integers(2, n), mismatch("rng.integers(0, 2)", seed, n)
        state = rng.bit_generator.state
        assert state["has_uint32"] == n % 2, mismatch("the buffered half", seed, n)
        if n % 2:
            assert state["uinteger"] == replica.buffered, mismatch("the buffered half", seed, n)
        assert rng.integers(0, 2, size=n).tolist() == replica.integers(2, n), mismatch("a second draw", seed, n)
        key = ControlKey.random(n, np.random.default_rng(seed))
        assert list(key.bits) == RawHalves(seed).integers(2, 2 * n), mismatch("ControlKey.random", seed, n)
