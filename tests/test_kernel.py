"""Differential tests of the exact kernel `mulmod` against object-array numpy.

The oracle multiplies Python ints on object arrays (`np.dot(...) % q`), which
is exact at any size, so every limb width, limb count and recombination step
of the kernel is checked against arithmetic that shares none of its code.
The last tests check the per-thread work buffer: a call allocates only its
result, results never share memory with the buffer or with each other, and
threads with their own buffers stay exact.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycode.field import is_prime
from polycode.matrixcore import _QUOTIENT_MIN, _limbs, mulmod

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


# Results of at least _QUOTIENT_MIN entries are reduced by the libdivide
# quotient, smaller ones by `%`; these shapes take the quotient path.
WIDE = (32, 32)


@settings(deadline=None, max_examples=30)
@given(q=primes, k=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(q=2**61 - 1, k=40, seed=0)
@example(q=2**62 - 57, k=1, seed=0)
@example(q=3, k=40, seed=0)
def test_quotient_reduction_matches_object_oracle(q, k, seed):
    assert WIDE[0] * WIDE[1] >= _QUOTIENT_MIN
    rng = np.random.default_rng(seed)
    x = rng.integers(0, q, size=(WIDE[0], k), dtype=np.int64)
    y = rng.integers(0, q, size=(k, WIDE[1]), dtype=np.int64)
    check(x, y, q)


@settings(deadline=None, max_examples=10)
@given(q=primes)
@example(q=2**31 - 1)
@example(q=2**61 - 1)
@example(q=2**62 - 57)
def test_quotient_reduction_at_limb_count_switches(q):
    # (q - 1)**2 = 1 and (q - 2)**2 = 4 mod q, so an all-v product is
    # k * v**2 mod q in every entry: no oracle is needed at large k.
    bits = (q - 1).bit_length()
    ks = {k for switch in limb_switches(bits) + one_sided_switches(bits)
          for k in range(max(switch - 2, 0), switch + 1)}
    for k in sorted(ks):
        for v in {q - 1, max(q - 2, 0)}:
            x = np.full((WIDE[0], k), v, dtype=np.int64)
            y = np.full((k, WIDE[1]), v, dtype=np.int64)
            got = mulmod(x, y, q)
            assert got.shape == WIDE and (got == k * v * v % q).all()


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


def check_stacked(x, y, q):
    """A stacked product equals mulmod of each slice and the oracle."""
    got = mulmod(x, y, q)
    batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    assert got.dtype == np.int64
    assert got.shape == batch + (x.shape[-2], y.shape[-1])
    xb = np.broadcast_to(x, batch + x.shape[-2:])
    yb = np.broadcast_to(y, batch + y.shape[-2:])
    for idx in np.ndindex(batch):
        assert got[idx].tolist() == mulmod(xb[idx], yb[idx], q).tolist() == oracle(xb[idx], yb[idx], q)


stack_shapes = st.sampled_from((((3,), (3,)), ((2, 2), (2, 2)), ((4,), ()), ((), (2,)), ((2, 1), (3,))))


@settings_kernel
@given(
    q=primes,
    batches=stack_shapes,
    n=st.integers(1, 4),
    k=st.integers(0, 24),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=2**31 - 1, batches=((3,), (3,)), n=2, k=64, p=3, seed=0)
@example(q=2**61 - 1, batches=((3,), (3,)), n=2, k=5, p=3, seed=0)
@example(q=2**62 - 57, batches=((2, 2), (2, 2)), n=1, k=0, p=2, seed=0)
def test_stacked_operands_match_each_slice(q, batches, n, k, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, q, size=batches[0] + (n, k), dtype=np.int64)
    y = rng.integers(0, q, size=batches[1] + (k, p), dtype=np.int64)
    check_stacked(x, y, q)


@settings(deadline=None, max_examples=10)
@given(q=primes)
@example(q=2**31 - 1)
@example(q=2**61 - 1)
@example(q=2**62 - 57)
def test_stacked_operands_at_limb_count_switches(q):
    # The widest entries at the last two k of each limb count and the first
    # of the next, for both splits; q - 2 makes odd sums at odd k. The second
    # slice of y holds other values, so a slice mixed up with another fails.
    bits = (q - 1).bit_length()
    ks = {k for switch in limb_switches(bits) + one_sided_switches(bits)
          for k in range(max(switch - 2, 0), switch + 1)}
    for k in sorted(ks):
        for v in {q - 1, max(q - 2, 0)}:
            x = np.full((2, 1, k), v, dtype=np.int64)
            y = np.full((2, k, 2), v, dtype=np.int64)
            y[1] = np.maximum(v - 1, 0)
            check_stacked(x, y, q)


def test_stacked_transposed_operands():
    # The virtual clock passes the stacked A~ blocks transposed, as a view.
    q = 2**61 - 1
    rng = np.random.default_rng(4)
    a = rng.integers(0, q, size=(5, 9, 3), dtype=np.int64)
    b = rng.integers(0, q, size=(5, 9, 4), dtype=np.int64)
    check_stacked(a.transpose(0, 2, 1), b, q)


# The worker products of a run at s = r = t = 64, m = n = 2 and N = 16: the
# stacked A~ blocks transposed, as the virtual clock passes them.
WORKER_SHAPES = ((8, 64, 32), (8, 64, 32))


def worker_operands(q, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=WORKER_SHAPES[0], dtype=np.int64)
    b = rng.integers(0, q, size=WORKER_SHAPES[1], dtype=np.int64)
    return a.transpose(0, 2, 1), b


@pytest.mark.parametrize("q, shapes", [
    (2**31 - 1, None),
    (2**61 - 1, None),
    (2**61 - 1, ((16, 4), (4, 1024))),
])
def test_a_call_allocates_only_its_result(q, shapes):
    import tracemalloc

    if shapes is None:
        x, y = worker_operands(q)
    else:
        rng = np.random.default_rng(1)
        x, y = (rng.integers(0, q, size=s, dtype=np.int64) for s in shapes)
    mulmod(x, y, q)  # grows this thread's work buffer
    tracemalloc.start()
    try:
        got = mulmod(x, y, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes <= peak <= got.nbytes + 8192


def work_buffer():
    from polycode import matrixcore

    return matrixcore._work.buf


def test_results_share_no_memory_and_survive_later_calls():
    q = 2**61 - 1
    rng = np.random.default_rng(5)
    # Small, large (the buffer grows), small again, then other shapes and q.
    calls = [((3, 4), (4, 5), q), ((40, 64), (64, 300), q), ((2, 3), (3, 2), q),
             ((2, 6, 5), (2, 5, 3), 2**31 - 1), ((3, 4), (4, 5), q), ((7, 0), (0, 2), 7)]
    kept = []
    for xs, ys, mod in calls:
        x = rng.integers(0, mod, size=xs, dtype=np.int64)
        y = rng.integers(0, mod, size=ys, dtype=np.int64)
        got = mulmod(x, y, mod)
        assert not np.shares_memory(got, work_buffer())
        for earlier, _ in kept:
            assert not np.shares_memory(got, earlier)
        kept.append((got, got.copy()))
    for got, copy in kept:
        assert np.array_equal(got, copy)
    # The same shape twice gives two arrays.
    x, y = worker_operands(q)
    assert not np.shares_memory(mulmod(x, y, q), mulmod(x, y, q))


def test_threads_with_mixed_shapes_stay_exact():
    # Each thread keeps its own work buffer. Threads that shared one would
    # write their limbs and products over each other's while BLAS and the
    # larger ufunc loops run without the GIL.
    import threading

    jobs = []
    for i, (q, xs, ys) in enumerate([
        (2**31 - 1, (32, 64), (64, 32)),
        (2**61 - 1, (32, 64), (64, 32)),
        (2**31 - 1, (4, 8, 48), (4, 48, 40)),
        (2**61 - 1, (4, 8, 48), (4, 48, 40)),
        (2**31 - 1, (16, 2), (2, 1024)),
        (2**61 - 1, (24, 3), (3, 512)),
        (2**31 - 1, (6, 300), (300, 6)),
        (2**61 - 1, (5, 5), (5, 5)),
    ]):
        rng = np.random.default_rng(100 + i)
        x = rng.integers(0, q, size=xs, dtype=np.int64)
        y = rng.integers(0, q, size=ys, dtype=np.int64)
        batch = np.broadcast_shapes(xs[:-2], ys[:-2])
        xb, yb = np.broadcast_to(x, batch + xs[-2:]), np.broadcast_to(y, batch + ys[-2:])
        want = np.array([oracle(xb[idx], yb[idx], q) for idx in np.ndindex(batch)],
                        dtype=np.int64).reshape(batch + (xs[-2], ys[-1]))
        jobs.append((x, y, q, want))
    start = threading.Barrier(len(jobs), timeout=60)
    wrong = []

    def work(x, y, q, want):
        start.wait()
        for _ in range(30):
            if not np.array_equal(mulmod(x, y, q), want):
                wrong.append((x.shape, q))

    threads = [threading.Thread(target=work, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between numpy calls too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
