"""numpy's bounded-integer draws the sessions use, replayed from raw PCG64 words.

A bootstrap session draws both parties' ops with ``rng.integers(0, 4,
size=n)``, and a key-length sweep draws each trial key with
``ControlKey.random``, that is ``rng.integers(0, 2, size=2 * n_k)``. For a
range of 2 or 4, numpy's Lemire method maps a 32-bit draw u to
``u * range >> 32`` and never rejects. The 32-bit draws are halves of raw
64-bit words, low half first; the high half stays buffered in the bit
generator, also across calls. The eavesdropping check picks its pairs
with ``rng.choice(eligible, k, replace=False)``, whose set is read off
the same halves by Lemire draws over wider ranges (``choice_set``). These
tests pin that against a replica, so that a numpy release that changes it
fails here by name rather than as unexplained report digests.
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


def bounded_draws(seed: int, highs: np.ndarray) -> np.ndarray:
    """numpy's Lemire draw over [0, j] for each j of ``highs`` in turn, from ``seed``'s 32-bit halves.

    A draw maps a half u to ``u * (j + 1) >> 32`` and rejects u while the
    low 32 bits of the product fall below ``2**32 % (j + 1)``; j = 0 draws
    nothing. Vectorised up to each rejection.
    """
    replica = RawHalves(seed)
    highs = np.asarray(highs, np.uint64)
    drawn = np.zeros(len(highs), np.uint64)
    todo = np.flatnonzero(highs)
    halves = np.empty(0, np.uint64)
    while todo.size:
        if len(halves) < todo.size:
            words = replica.bit_generator.random_raw((todo.size - len(halves) + 1) // 2)
            halves = np.concatenate([halves, np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()])
        span = highs[todo] + 1
        product = halves[: todo.size] * span
        rejected = np.flatnonzero(product & 0xFFFFFFFF < 2**32 % span)
        stop = rejected[0] if rejected.size else todo.size
        drawn[todo[:stop]] = product[:stop] >> 32
        todo, halves = todo[stop:], halves[stop + 1 :]  # a rejected half is spent, its j draws again
    return drawn


def choice_set(seed: int, n: int, k: int) -> set[int]:
    """The set ``rng.choice(n, k, replace=False)`` picks from a fresh generator of ``seed``.

    Floyd's insertion when n <= 10000 or k <= n // 50: for j = n-k ... n-1
    draw v over [0, j] and insert v, or j if v is in already. Otherwise a
    tail Fisher-Yates (k < n): for i = n-1 down to n-k swap position i with a
    draw over [0, i], and keep the last k positions. Floyd's then shuffles
    its picks, which moves the stream but not the set.
    """
    if n <= 10000 or k <= n // 50:
        chosen: set[int] = set()
        for j, v in zip(range(n - k, n), bounded_draws(seed, np.arange(n - k, n)).tolist()):
            chosen.add(j if v in chosen else v)
        return chosen
    moved: dict[int, int] = {}
    picked = []
    for i, j in zip(range(n - 1, n - k - 1, -1), bounded_draws(seed, np.arange(n - 1, n - k - 1, -1)).tolist()):
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return set(picked)


# (n, k) in Floyd's regime, then in the tail regime; (10000, 5000) is the
# check of a paper-table session and (100000, 50000) that of criterion 3.
CHOICE_ARGS = [(1, 1), (3, 1), (3, 3), (256, 128), (9000, 1), (10000, 5000), (100000, 2000), (10001, 201), (100000, 50000)]


@pytest.mark.parametrize("n, k", CHOICE_ARGS)
def test_the_check_draw_reads_the_raw_words(n, k):
    for seed in SEEDS:
        got = np.random.default_rng(seed).choice(np.arange(n), size=k, replace=False)
        assert set(got.tolist()) == choice_set(seed, n, k), mismatch(f"rng.choice of {k}", seed, n)
