"""Differential tests of the exact kernel `mulmod` against object-array numpy.

The oracle multiplies Python ints on object arrays (`np.dot(...) % q`), which
is exact at any size, so every limb width, limb count and recombination step
of the kernel is checked against arithmetic that shares none of its code.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycode.field import is_prime
from polycode.matrixcore import mulmod

NAMED_PRIMES = (7, 2**31 - 1, 2**61 - 1, 2**62 - 57)  # 2**62 - 57: largest prime below 2**62
MAX_K = 8192  # largest inner dimension the limb-switch test tries


def prime_from(start):
    """First prime >= start, or the largest prime below 2**62 past that."""
    q = start
    while not is_prime(q):
        q += 1
    return q if q < 2**62 else 2**62 - 57


primes = st.sampled_from(NAMED_PRIMES) | st.integers(1, 61).flatmap(
    lambda bits: st.integers(2**bits, 2 ** (bits + 1) - 1).map(prime_from)
)


def oracle(x, y, q):
    n, k = x.shape
    p = y.shape[1]
    xo = np.array(x.tolist(), dtype=object).reshape(n, k)
    yo = np.array(y.tolist(), dtype=object).reshape(k, p)
    if k == 0:
        return [[0] * p for _ in range(n)]
    return (np.dot(xo, yo) % q).tolist()


def check(x, y, q):
    got = mulmod(x, y, q)
    assert got.dtype == np.int64
    assert got.shape == (x.shape[0], y.shape[1])
    assert got.tolist() == oracle(x, y, q)


def limb_switches(bits):
    """Inner dimensions k at which the limb count for `bits`-bit entries must
    grow: L limbs of width ceil(bits / L) are exact only while
    k * (2**w - 1)**2 < 2**53."""
    out = set()
    for count in range(1, bits + 1):
        width = -(-bits // count)
        first_bad = -(-(2**53) // ((1 << width) - 1) ** 2)
        if first_bad <= MAX_K:
            out.add(first_bad)
    return sorted(out)


settings_kernel = settings(deadline=None, max_examples=60)


@settings_kernel
@given(
    q=primes,
    n=st.integers(1, 6),
    k=st.integers(0, 40),
    p=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=2**61 - 1, n=1, k=1, p=1, seed=0)
@example(q=2**62 - 57, n=3, k=0, p=2, seed=0)
def test_random_shapes_match_object_oracle(q, n, k, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, q, size=(n, k), dtype=np.int64)
    y = rng.integers(0, q, size=(k, p), dtype=np.int64)
    check(x, y, q)


@settings_kernel
@given(q=primes, k=st.integers(0, 4096), seed=st.integers(0, 2**32 - 1))
@example(q=2**62 - 57, k=4096, seed=0)
@example(q=2**61 - 1, k=4096, seed=0)
def test_all_q_minus_one_operands(q, k, seed):
    # The largest canonical entries maximise every limb and every partial sum.
    rng = np.random.default_rng(seed)
    n, p = (int(v) for v in rng.integers(1, 4, size=2))
    check(np.full((n, k), q - 1, dtype=np.int64), np.full((k, p), q - 1, dtype=np.int64), q)


@settings(deadline=None, max_examples=25)
@given(q=primes, seed=st.integers(0, 2**32 - 1))
@example(q=2**62 - 57, seed=0)
@example(q=2**61 - 1, seed=0)
def test_inner_dimensions_straddling_limb_count_switches(q, seed):
    rng = np.random.default_rng(seed)
    for switch in limb_switches((q - 1).bit_length()):
        # switch - 2 and switch - 1 are the last two k at the smaller limb
        # count. One of them is odd, so a diagonal sum there can have odd low
        # bits, which float64 would round once the sum passes 2**53.
        for k in range(max(switch - 2, 0), switch + 1):
            full = (np.full((2, k), q - 1, dtype=np.int64), np.full((k, 1), q - 1, dtype=np.int64))
            rand = (
                rng.integers(0, q, size=(1, k), dtype=np.int64),
                rng.integers(0, q, size=(k, 2), dtype=np.int64),
            )
            for x, y in (full, rand):
                check(x, y, q)


def test_switches_are_exercised_for_the_named_large_primes():
    # 2**61 - 1 and 2**62 - 57 go from 3 to 4 limbs at k = 2049.
    assert 2049 in limb_switches(61) and 2049 in limb_switches(62)


def test_strided_operands():
    # Transposed and reversed views reach the kernel from transpose_mul and
    # conv_direct.
    q = 2**61 - 1
    rng = np.random.default_rng(3)
    x = rng.integers(0, q, size=(9, 7), dtype=np.int64)
    y = rng.integers(0, q, size=(9, 5), dtype=np.int64)
    check(x.T, y, q)
    check(x[:, ::-1], y[:7, ::-1], q)
