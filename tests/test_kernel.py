"""Differential tests of the exact kernel `mulmod` against object-array numpy.

The oracle multiplies Python ints on object arrays (`np.dot(...) % q`), which
is exact at any size, so every limb width, limb count and recombination step
of the kernel is checked against arithmetic that shares none of its code.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycode.field import is_prime
from polycode.matrixcore import _limbs, mulmod

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


def one_sided_switches(bits):
    """Inner dimensions k at which the one-sided split (y whole, x in L'
    limbs of width ceil(bits / L')) must take a limb more: it is exact only
    while k * (2**bits - 1) * (2**w - 1) < 2**53."""
    out = set()
    for count in range(1, bits + 1):
        width = -(-bits // count)
        first_bad = -(-(2**53) // (((1 << bits) - 1) * ((1 << width) - 1)))
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


@settings(deadline=None, max_examples=25)
@given(q=primes, seed=st.integers(0, 2**32 - 1))
@example(q=2**31 - 1, seed=0)
@example(q=prime_from(2**24), seed=0)
@example(q=prime_from(2**35), seed=0)
def test_inner_dimensions_straddling_one_sided_switches(q, seed):
    # All-(q - 1) operands maximise the limbs, but q - 1 is even, so every
    # product is even and a float64 sum up to 2**54 stays exact. All-(q - 2)
    # operands are odd: at an odd k their sum is odd, and float64 rounds it
    # once it passes 2**53, so a bound one bit loose is caught there.
    rng = np.random.default_rng(seed)
    for switch in one_sided_switches((q - 1).bit_length()):
        for k in range(max(switch - 2, 0), switch + 1):
            cases = [
                (np.full((2, k), v, dtype=np.int64), np.full((k, 3), v, dtype=np.int64))
                for v in {q - 1, max(q - 2, 0)}
            ]
            cases.append((
                rng.integers(0, q, size=(3, k), dtype=np.int64),
                rng.integers(0, q, size=(k, 2), dtype=np.int64),
            ))
            for x, y in cases:
                check(x, y, q)


@settings(deadline=None, max_examples=300)
@given(bits=st.integers(1, 62), k=st.integers(0, MAX_K))
@example(bits=31, k=64)
@example(bits=31, k=65)
@example(bits=31, k=2049)
@example(bits=31, k=2050)
def test_limb_split_is_exact_and_takes_the_fewer_products(bits, k):
    x_width, x_count, y_width, y_count = _limbs(bits, k)
    kk = max(k, 1)
    assert x_width * x_count >= bits and y_width * y_count >= bits
    sym_width = next(w for w in range(min(bits, 26), 0, -1) if kk * ((1 << w) - 1) ** 2 < 2**53)
    sym_count = -(-bits // sym_width)
    one_sided = [c for c in range(1, bits + 1)
                 if kk * ((1 << bits) - 1) * ((1 << -(-bits // c)) - 1) < 2**53]
    if y_count == 1 and x_count > 1:
        # One-sided: y whole, x in as few limbs as the bound allows, and only
        # when that takes fewer products than the symmetric split.
        assert y_width == bits
        assert kk * ((1 << bits) - 1) * ((1 << x_width) - 1) < 2**53
        assert x_count == min(one_sided) < sym_count**2
    else:
        assert (x_width, x_count) == (y_width, y_count) == (-(-bits // sym_count), sym_count)
        assert kk * ((1 << x_width) - 1) ** 2 < 2**53
        assert not one_sided or min(one_sided) >= sym_count**2


@pytest.mark.parametrize("k", (2, 32, 64))
def test_2_31_up_to_k_64_takes_two_products_splitting_x(k):
    assert _limbs(31, k) == (16, 2, 31, 1)


def test_one_sided_split_at_2_31_and_k_256_takes_three_products():
    assert _limbs(31, 256) == (11, 3, 31, 1)


@pytest.mark.parametrize("k", (1, 2, 64, 2048))
def test_2_61_keeps_the_symmetric_three_limb_split(k):
    assert _limbs(61, k) == (21, 3, 21, 3)


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
