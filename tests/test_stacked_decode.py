"""The stacked erasure decode against the per-line reference it replaced, and
the caches of line coefficients and interpolation weights behind it.

`reference_decode` keeps the earlier path as the oracle's twin: one Gauss-Jordan
inverse and one `lincomb` per block (`fill_line`), Lagrange weights rebuilt on
every call, and the output stitched from a grid of blocks. Peeling here is a
plain sweep over the rows and columns to a fixed point, one line at a time,
independent of the row and column rounds of `ProductScheme._solve`.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgrid import assemble_blocks
from polycode import schemes
from polycode.convolution import conv_decode, conv_direct, conv_encode, conv_worker_compute
from polycode.errors import DuplicateEvaluationPoint, InvalidParameters, NotEnoughResults
from polycode.field import FieldCtx, invert_matrix, lagrange_weight_matrix
from polycode.matrixcore import FMatrix, ProblemShape, lincomb, transpose_mul
from polycode.schemes import (
    SCHEME_NAMES,
    PolyScheme,
    ProductScheme,
    WorkerResult,
    _interpolation_weights,
    _line_coeffs,
    get_scheme,
    systematic_generator,
    worker_compute,
)

FIELDS = (FieldCtx(7), FieldCtx(257), FieldCtx(2**31 - 1), FieldCtx(2**61 - 1))
F7 = FIELDS[0]
BIG = FIELDS[2]


def fill_line(gen, line, cells, want, ctx):
    """Blocks at positions `want` of a line, from its first k known cells."""
    q = ctx.q
    rows = gen.tolist()
    have = [j for j, i in enumerate(line) if i in cells][: len(rows[0])]
    inv = invert_matrix([rows[j] for j in have], q)
    coeffs = [[sum(w * v for w, v in zip(rows[j], col)) % q for col in zip(*inv)] for j in want]
    return [lincomb([cells[line[j]] for j in have], row) for row in coeffs]


def peel_sweep(cells, side, m, gen, ctx):
    """Fill every row and column with at least m known cells until none
    changes; returns the number of sweeps that filled a cell."""
    lines = [range(r * side, (r + 1) * side) for r in range(side)]
    lines += [range(c, side * side, side) for c in range(side)]
    rounds = 0
    while True:
        ready = [line for line in lines
                 if sum(i in cells for i in line) >= m and not all(i in cells for i in line)]
        if not ready:
            return rounds
        rounds += 1
        for line in ready:
            missing = [j for j, i in enumerate(line) if i not in cells]
            if missing:
                cells.update(zip((line[j] for j in missing), fill_line(gen, line, cells, missing, ctx)))


def reference_decode(scheme, results, shares, shape):
    """The decode before the stacked arrays, one line and one block at a time."""
    ctx, m, n = scheme.ctx, shape.m, shape.n
    ids = {s.worker_id for s in shares}
    cells = {}
    for r in results:
        if r.worker_id in ids and r.worker_id not in cells:
            cells[r.worker_id] = r.c_tilde
    if not scheme.decodable(cells, shape):
        raise NotEnoughResults("not decodable")
    if scheme.name == "poly":
        picked = sorted(cells)[: m * n]
        x_of = {s.worker_id: s.x for s in shares}
        weights = lagrange_weight_matrix([x_of[i] for i in picked], ctx)
        coeffs = [lincomb([cells[i] for i in picked], weights[j + k * m])
                  for j in range(m) for k in range(n)]
        grid = [coeffs[j * n : (j + 1) * n] for j in range(m)]
    elif scheme.name == "mds1d":
        g = shape.N // n
        gen = systematic_generator(g, m, ctx)
        cols = [fill_line(gen, range(k * g, (k + 1) * g), cells, range(m), ctx) for k in range(n)]
        grid = [list(row) for row in zip(*cols)]
    elif scheme.name == "product":
        side = math.isqrt(shape.N)
        peel_sweep(cells, side, m, systematic_generator(side, m, ctx), ctx)
        grid = [[cells[i * side + j] for i in range(m)] for j in range(m)]
    else:
        grid = [[cells[j * n + k] for k in range(n)] for j in range(m)]
    return assemble_blocks(grid)


@st.composite
def cases(draw):
    """A scheme, a field and a shape with m != n (but for product) and
    block_rows != block_cols, valid in that field."""
    name = draw(st.sampled_from(SCHEME_NAMES), label="name")
    ctx = draw(st.sampled_from(FIELDS), label="q")
    m = draw(st.integers(1, 3), label="m")
    n = m if name == "product" else draw(st.integers(1, 3).filter(lambda v: v != m), label="n")
    br = draw(st.integers(1, 3), label="block_rows")
    bc = draw(st.integers(1, 4).filter(lambda v: v != br), label="block_cols")
    if name == "poly":
        big_n = draw(st.integers(m * n, min(m * n + 3, ctx.q)), label="N")
    elif name == "mds1d":
        big_n = n * draw(st.integers(m, min(m + 3, ctx.q)), label="group_size")
    elif name == "product":
        big_n = draw(st.integers(m, min(m + 2, ctx.q)), label="side") ** 2
    else:
        big_n = m * n + draw(st.integers(0, 2), label="spare")
    r, t = m * br, n * bc
    shape = ProblemShape(s=max(r, t), r=r, t=t, m=m, n=n, N=big_n)
    scheme = get_scheme(name, ctx)
    return scheme, shape


def instance(scheme, shape, seed):
    rng = np.random.default_rng(seed)
    a = FMatrix.random(shape.s, shape.r, scheme.ctx, rng)
    b = FMatrix.random(shape.s, shape.t, scheme.ctx, rng)
    shares = scheme.encode(a, b, shape)
    return shares, [worker_compute(sh) for sh in shares], transpose_mul(a, b)


@settings(deadline=None, max_examples=400)
@given(case=cases(), data=st.data())
def test_stacked_decode_matches_the_per_line_reference(case, data):
    """From a random decodable response set, a superset of it, repeated
    results (a wrong block on a repeat) and results from foreign ids, both
    decoders return the exact product."""
    scheme, shape = case
    shares, results, product = instance(scheme, shape, data.draw(st.integers(0, 2**16), label="seed"))
    total = len(shares)
    order = data.draw(st.permutations(range(total)), label="order")
    cut = next(k for k in range(total + 1) if scheme.decodable(order[:k], shape))
    cut += data.draw(st.integers(0, total - cut), label="superset")
    sent = [results[i] for i in order[:cut]]
    wrong = FMatrix.random(shape.block_rows, shape.block_cols, scheme.ctx, np.random.default_rng(1))
    for i in data.draw(st.lists(st.sampled_from(order[:cut]), max_size=4), label="repeats"):
        sent.append(WorkerResult(i, data.draw(st.sampled_from((results[i].c_tilde, wrong)))))
    for i in data.draw(st.lists(st.sampled_from((-2, -1, total, total + 5)), max_size=3),
                       label="foreign"):
        sent.insert(data.draw(st.integers(0, len(sent)), label="at"), WorkerResult(i, wrong))
    got = scheme.decode(sent, shares, shape)
    assert got.data.shape == (shape.r, shape.t)
    assert got == reference_decode(scheme, sent, shares, shape) == product


def multi_round_patterns(side, m, count, seed):
    """Decodable product response sets that take two or more peel sweeps."""
    rng = np.random.default_rng(seed)
    ctx, found = FIELDS[1], []
    gen = systematic_generator(side, m, ctx)
    for _ in range(20000):
        ids = rng.choice(side * side, rng.integers(m, side * side), replace=False).tolist()
        cells = {i: FMatrix.zeros(1, 1, ctx) for i in ids}
        rounds = peel_sweep(cells, side, m, gen, ctx)
        if rounds >= 2 and all(r * side + c in cells for r in range(m) for c in range(m)):
            found.append(sorted(ids))
            if len(found) == count:
                return found
    raise AssertionError(f"too few patterns of two or more sweeps at side {side}, m {m}")


@pytest.mark.parametrize("side,m", [(3, 2), (4, 2), (4, 3), (5, 3)])
@pytest.mark.parametrize("ctx", FIELDS[1:], ids=("q257", "q31", "q61"))
def test_product_patterns_of_several_peel_rounds(side, m, ctx):
    scheme = ProductScheme(ctx)
    shape = ProblemShape(s=2 * m, r=m, t=2 * m, m=m, n=m, N=side * side)
    shares, results, product = instance(scheme, shape, seed=side * 10 + m)
    for ids in multi_round_patterns(side, m, count=6, seed=side + m):
        picked = [results[i] for i in ids]
        assert scheme.decode(picked, shares, shape) == reference_decode(scheme, picked, shares, shape)
        assert scheme.decode(picked, shares, shape) == product


class TestCaches:
    def test_line_coefficients_are_read_only_and_one_object_per_key(self):
        coeffs = _line_coeffs(6, 3, BIG, (1, 3, 4), (0, 2))
        assert coeffs is _line_coeffs(6, 3, BIG, (1, 3, 4), (0, 2))
        assert coeffs.dtype == np.int64 and coeffs.shape == (2, 3) and not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0, 0] = 1

    @pytest.mark.parametrize("ctx", FIELDS, ids=("q7", "q257", "q31", "q61"))
    def test_line_coefficients_are_gen_want_times_the_inverse(self, ctx):
        # Every (have, want) of a (5, 2) line, each want asked for in turn
        # with the same have, so a key without `want` would answer wrongly.
        gen = systematic_generator(5, 2, ctx).tolist()
        for have in combinations(range(5), 2):
            inv = invert_matrix([gen[j] for j in have], ctx.q)
            for size in (1, 2, 3):
                for want in combinations(range(5), size):
                    expect = [[sum(w * v for w, v in zip(gen[j], col)) % ctx.q
                               for col in zip(*inv)] for j in want]
                    assert _line_coeffs(5, 2, ctx, have, want).tolist() == expect

    def test_a_repeated_known_position_is_singular(self):
        with pytest.raises(InvalidParameters):
            _line_coeffs(5, 2, BIG, (1, 1), (0,))

    @pytest.mark.parametrize("q", (7, 257, 2**31 - 1, 2**61 - 1, 2**62 - 57))
    def test_interpolation_weights_match_lagrange_weight_matrix(self, q):
        # K = 1..17 at worker indices packed near 0 and spread over 16K,
        # then sizes up to 256 at packed indices.
        ctx = FieldCtx(q)
        rng = np.random.default_rng(q % 1000)
        sizes = [k for k in (*range(1, 18), 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256)
                 if k <= q]
        for k in sizes:
            for span in (k + 2,) if k > 17 else (k + 2, 16 * k + 16):
                xs = rng.choice(min(span, q), k, replace=False).tolist()
                got = schemes._interpolation_weights_of(tuple(xs), ctx)
                assert got.tolist() == lagrange_weight_matrix(xs, ctx), (k, span)

    @pytest.mark.parametrize("q", (7, 2**31 - 1, 2**62 - 57))
    def test_repeated_points_raise_at_every_size(self, q):
        ctx = FieldCtx(q)
        for k in (2, 3, 5, 7, 17, 64):
            if k > q:
                continue
            xs = list(range(k - 1)) + [(k - 2) // 2 + q]  # (k - 2) // 2 again, mod q
            for _ in range(3):
                with pytest.raises(DuplicateEvaluationPoint):
                    _interpolation_weights(xs, ctx)

    def test_interpolation_weights_are_read_only_and_one_object_per_key(self):
        weights = _interpolation_weights([0, 1, 2, 3], BIG)
        assert weights is _interpolation_weights(np.arange(4), BIG)
        assert weights.dtype == np.int64 and not weights.flags.writeable
        assert weights.tolist() == lagrange_weight_matrix([0, 1, 2, 3], BIG)
        assert _interpolation_weights([0, 1, 2, 3], F7).tolist() == lagrange_weight_matrix(
            [0, 1, 2, 3], F7)
        with pytest.raises(ValueError):
            weights[0, 0] = 1

    def test_duplicate_points_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DuplicateEvaluationPoint):
                _interpolation_weights([1, 2, 1], F7)
            with pytest.raises(DuplicateEvaluationPoint):
                _interpolation_weights([1, 8], F7)

    @pytest.mark.parametrize("name,big_n,ids", [
        ("mds1d", 12, [1, 2, 3, 4, 6, 7, 8, 9, 11]),
        ("product", 16, [0, 2, 3, 5, 6, 7, 9, 10, 12, 14, 15]),
    ])
    def test_a_repeated_erasure_pattern_inverts_nothing(self, name, big_n, ids):
        _line_coeffs.cache_clear()
        shape = ProblemShape(s=6, r=6, t=3, m=3, n=3, N=big_n) if name == "mds1d" else \
            ProblemShape(s=6, r=3, t=6, m=3, n=3, N=big_n)
        scheme = get_scheme(name, BIG)
        shares, results, product = instance(scheme, shape, seed=5)
        picked = [results[i] for i in ids]
        assert scheme.decode(picked, shares, shape) == product
        built = _line_coeffs.cache_info().misses
        assert built
        assert scheme.decode(picked[::-1], shares, shape) == product
        assert _line_coeffs.cache_info().misses == built

    def test_poly_and_convolution_share_the_weights(self):
        schemes._interpolation_weights_of.cache_clear()
        shape = ProblemShape(s=4, r=2, t=2, m=2, n=2, N=6)
        scheme = PolyScheme(BIG)
        shares, results, product = instance(scheme, shape, seed=2)
        for _ in range(2):
            assert scheme.decode(results[1:], shares, shape) == product
        a, b = [np.arange(3), np.arange(3, 6), np.arange(6, 9)], [np.arange(3), np.arange(1, 4)]
        conv = [conv_worker_compute(sh, BIG) for sh in conv_encode(a, b, 6, BIG)]
        got = conv_decode(conv[1:5], 3, 2, BIG)
        assert got.tolist() == conv_direct(np.concatenate(a), np.concatenate(b), BIG).tolist()
        assert schemes._interpolation_weights_of.cache_info().misses == 1
        _interpolation_weights([1, 2, 3, 4], BIG)
        assert schemes._interpolation_weights_of.cache_info().misses == 1
