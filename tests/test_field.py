import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bw_reference import bw_reference
from polycode.errors import (
    DecodingFailure,
    DivisionByZero,
    DuplicateEvaluationPoint,
    InvalidParameters,
    RangeOverflow,
)
from polycode.field import (
    DEFAULT_Q,
    FieldCtx,
    Poly,
    bw_decode,
    check_embedding_bound,
    embed_reals,
    interpolate,
    invert_matrix,
    is_prime,
    lagrange_weight_matrix,
    solve_linear,
    unembed_reals,
)

F7 = FieldCtx(7)
BIG = FieldCtx(DEFAULT_Q)


def egcd(a, b):
    # independent extended-Euclid oracle for modular inverses
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


class TestFieldCtx:
    def test_rejects_composite_modulus(self):
        for bad in (0, 1, 4, 9, 2**31):
            with pytest.raises(InvalidParameters):
                FieldCtx(bad)

    def test_rejects_modulus_from_2_62(self):
        # 2**62 + 135 is the first prime past the int64 bound of the kernel.
        assert is_prime(2**62 + 135)
        with pytest.raises(InvalidParameters):
            FieldCtx(2**62 + 135)
        assert FieldCtx(2**62 - 57).q == 2**62 - 57

    @pytest.mark.parametrize("bad", (7.0, 7.5, "7", None, [7]))
    def test_rejects_a_modulus_that_is_not_an_integer(self, bad):
        with pytest.raises(InvalidParameters):
            FieldCtx(bad)

    @pytest.mark.parametrize("q", (np.int64(7), np.uint32(7), np.int8(7)))
    def test_numpy_integer_modulus_is_stored_as_an_int(self, q):
        ctx = FieldCtx(q)
        assert type(ctx.q) is int
        assert ctx == FieldCtx(7) and hash(ctx) == hash(FieldCtx(7))

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 2147483647}
        for n in list(primes) + [15, 21, 25, 561, 2147483647 + 2]:
            assert is_prime(n) == (n in primes or n in (2, 3))

    def test_basic_arithmetic_f7(self):
        assert F7.inv(2) == 4
        assert F7.inv(3) == 5
        assert F7.pow(3, 2) == 2

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            F7.inv(0)

    def test_inverse_against_egcd_oracle(self):
        rng = random.Random(42)
        for _ in range(1000):
            x = rng.randrange(1, BIG.q)
            inv = BIG.inv(x)
            assert x * inv % BIG.q == 1
            g, a, _ = egcd(x, BIG.q)
            assert g == 1
            assert inv == a % BIG.q

    def test_pow_zero_convention(self):
        assert F7.pow(0, 0) == 1
        assert F7.pow(0, 3) == 0
        assert BIG.pow(5, -1) == BIG.inv(5)


class TestPoly:
    def test_degree_with_trailing_zeros(self):
        assert Poly((1, 2, 0, 0)).degree() == 1
        assert Poly((0, 0)).degree() == -1
        assert Poly((0, 0, 3)).degree() == 2

    def test_evaluate_horner(self):
        p = Poly((1, 2, 3))  # 1 + 2x + 3x^2
        assert p.evaluate(2, F7) == (1 + 4 + 12) % 7


class TestInterpolate:
    def test_single_point_constant(self):
        assert interpolate([(5, 3)], F7).coeffs == (3,)

    def test_known_cubic_f7(self):
        rng = random.Random(3)
        p = Poly(tuple(rng.randrange(7) for _ in range(4)))
        pts = [(x, p.evaluate(x, F7)) for x in (1, 2, 3, 4)]
        got = interpolate(pts, F7)
        assert got.coeffs[:4] == p.coeffs

    def test_round_trip_random_degrees(self):
        rng = random.Random(9)
        for k in (1, 2, 5, 12):
            p = Poly(tuple(rng.randrange(BIG.q) for _ in range(k)))
            xs = rng.sample(range(BIG.q), k)
            got = interpolate([(x, p.evaluate(x, BIG)) for x in xs], BIG)
            assert got.coeffs[:k] == p.coeffs

    def test_motivating_example_coefficients(self):
        # h(x) = c00 + x*c10 + x^2*c01 + x^3*c11 over F_7: interpolating its
        # values at four distinct points recovers all four scalar blocks.
        c00, c10, c01, c11 = 3, 5, 1, 6
        h = Poly((c00, c10, c01, c11))
        pts = [(x, h.evaluate(x, F7)) for x in (1, 2, 3, 4)]
        got = interpolate(pts, F7)
        assert got.coeffs[:4] == (c00, c10, c01, c11)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicateEvaluationPoint):
            interpolate([(1, 2), (1, 3)], F7)

    def test_weight_matrix_matches_vandermonde_solve(self):
        # Independent check: weights applied to y reproduce V^-1 y.
        rng = random.Random(4)
        xs = rng.sample(range(1, 100), 6)
        ys = [rng.randrange(BIG.q) for _ in xs]
        w = lagrange_weight_matrix(xs, BIG)
        coeffs = [sum(wi * yi for wi, yi in zip(row, ys)) % BIG.q for row in w]
        p = Poly(tuple(coeffs))
        for x, y in zip(xs, ys):
            assert p.evaluate(x, BIG) == y


class TestElimination:
    def test_solve_linear_sets_free_variables_to_zero(self):
        # x + y = 3 and 2x + 2y = 6 over F_7: y is free.
        assert solve_linear([[1, 1, 3], [2, 2, 6]], 7) == [3, 0]

    def test_solve_linear_inconsistent(self):
        assert solve_linear([[1, 1, 3], [1, 1, 4]], 7) is None

    def test_invert_matrix_needs_a_row_swap(self):
        assert invert_matrix([[0, 3], [2, 0]], 7) == [[0, 4], [5, 0]]

    def test_invert_matrix_random(self):
        rng = random.Random(9)
        q = BIG.q
        mat = [[rng.randrange(q) for _ in range(5)] for _ in range(5)]
        inv = invert_matrix(mat, q)
        prod = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*inv)] for row in mat]
        assert prod == [[int(i == j) for j in range(5)] for i in range(5)]

    def test_invert_matrix_singular(self):
        with pytest.raises(InvalidParameters):
            invert_matrix([[1, 2], [2, 4]], 7)


class TestBerlekampWelch:
    def _random_poly_points(self, rng, n, k):
        p = Poly(tuple(rng.randrange(BIG.q) for _ in range(k)))
        xs = rng.sample(range(BIG.q), n)
        return p, [(x, p.evaluate(x, BIG)) for x in xs]

    def test_no_errors_matches_interpolate(self):
        rng = random.Random(1)
        p, pts = self._random_poly_points(rng, 12, 4)
        got = bw_decode(pts, 4, 0, BIG)
        assert got.coeffs == interpolate(pts[:4], BIG).coeffs[:4] == p.coeffs

    def test_corrects_up_to_radius(self):
        rng = random.Random(2)
        for trial in range(20):
            p, pts = self._random_poly_points(rng, 12, 4)
            bad = rng.sample(range(12), 4)
            for i in bad:
                x, y = pts[i]
                pts[i] = (x, (y + rng.randrange(1, BIG.q)) % BIG.q)
            got = bw_decode(pts, 4, 4, BIG)
            assert got.coeffs == p.coeffs

    def test_fewer_errors_than_budget(self):
        rng = random.Random(5)
        p, pts = self._random_poly_points(rng, 12, 4)
        x, y = pts[3]
        pts[3] = (x, (y + 1) % BIG.q)
        assert bw_decode(pts, 4, 4, BIG).coeffs == p.coeffs

    def test_detects_beyond_radius(self):
        # Offsetting 5 of 12 values by a shared constant is consistent with
        # no degree<4 polynomial on >= 8 points, so decoding must fail.
        rng = random.Random(6)
        p, pts = self._random_poly_points(rng, 12, 4)
        for i in rng.sample(range(12), 5):
            x, y = pts[i]
            pts[i] = (x, (y + 1) % BIG.q)
        with pytest.raises(DecodingFailure):
            bw_decode(pts, 4, 4, BIG)

    def test_invalid_error_budget(self):
        rng = random.Random(8)
        _, pts = self._random_poly_points(rng, 12, 4)
        with pytest.raises(InvalidParameters):
            bw_decode(pts, 4, 5, BIG)


def _decoded(decode):
    """The decoded coefficients, or DecodingFailure."""
    try:
        return list(decode())
    except DecodingFailure:
        return DecodingFailure


@settings(deadline=None, max_examples=600)
@given(
    q=st.sampled_from((7, 257, 2**31 - 1, 2**61 - 1)),
    pattern=st.sampled_from(("random", "offset", "forged")),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_bw_decode_matches_the_linear_system(q, pattern, seed, data):
    # Gao's key equation against Berlekamp-Welch by one linear solve: the
    # same coefficients or the same DecodingFailure, for f = 0..n wrong
    # values, at every allowed error budget e, n = q = 7 included.
    ctx = FieldCtx(q)
    n = data.draw(st.integers(1, min(16, q)), label="n")
    k = data.draw(st.integers(1, n), label="k")
    e = data.draw(st.integers(0, (n - k) // 2), label="e")
    f = data.draw(st.integers(0, n), label="f")
    rng = random.Random(seed)
    xs = rng.sample(range(q), n)
    p = Poly(tuple(rng.randrange(q) for _ in range(k)))
    ys = [p.evaluate(x, ctx) for x in xs]
    # Forged: the wrong values are those of another polynomial of degree < k,
    # so from f >= n - e on the decoder must return it.
    other = Poly(tuple(rng.randrange(q) for _ in range(k)))
    offset = rng.randrange(1, q)
    for i in rng.sample(range(n), f):
        if pattern == "random":
            ys[i] = rng.randrange(q)
        elif pattern == "offset":
            ys[i] = (ys[i] + offset) % q
        else:
            ys[i] = other.evaluate(xs[i], ctx)
    pts = list(zip(xs, ys))
    got = _decoded(lambda: bw_decode(pts, k, e, ctx).coeffs)
    assert got == _decoded(lambda: bw_reference(pts, k, e, q))
    if f <= e:
        assert got == list(p.coeffs)


class TestBadDecoderInputs:
    PTS = [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "points, k, e",
        [
            ([("a", 1), (1, 2)], 1, 0),
            (None, 1, 0),
            (PTS, 1.5, 0),
            (PTS, 1, "0"),
            # A non-integer value is a bad input, not a corrupted one.
            ([(0, 1.5), (1, 2)], 1, 0),
        ],
        ids=("str_point", "none_points", "float_degree_bound", "str_max_errors", "float_value"),
    )
    def test_bw_decode(self, points, k, e):
        with pytest.raises(InvalidParameters):
            bw_decode(points, k, e, BIG)

    def test_interpolate(self):
        with pytest.raises(InvalidParameters):
            interpolate([("a", 1)], BIG)


class TestRealEmbedding:
    def test_integers_at_zero_precision(self):
        assert int(embed_reals([[3.0]], 0, BIG)[0][0]) == 3
        assert int(embed_reals([[-3.0]], 0, BIG)[0][0]) == BIG.q - 3

    def test_round_trip_error_bound(self):
        import numpy as np

        rng = np.random.default_rng(0)
        vals = rng.uniform(-1, 1, size=(16, 16))
        back = unembed_reals(embed_reals(vals, 10, BIG), 10, BIG)
        assert float(np.abs(back - vals).max()) <= 2**-11

    def test_overflow_rejected(self):
        small = FieldCtx(101)
        with pytest.raises(RangeOverflow):
            embed_reals([[100.0]], 4, small)
        with pytest.raises(RangeOverflow):
            check_embedding_bound(32, 1.0, 1.0, 10, FieldCtx(2**13 - 1))
        check_embedding_bound(32, 1.0, 1.0, 10, BIG)

    def test_product_bound_is_exact_and_exported(self):
        # At q = 11 the bound s * 4**p + 1 must stay below q // 2 = 5.
        import polycode

        assert polycode.check_embedding_bound is check_embedding_bound
        check_embedding_bound(3, 1.0, -1.0, 0, FieldCtx(11))
        for args in ((4, 1.0, 1.0, 0), (1, float("nan"), 1.0, 0), (1, 1.0, float("inf"), 0)):
            with pytest.raises(RangeOverflow):
                check_embedding_bound(*args, FieldCtx(11))
        for bits in (2.5, -1, 1024):
            with pytest.raises(InvalidParameters):
                check_embedding_bound(1, 1.0, 1.0, bits, BIG)

    def test_range_check_is_exact_in_integers(self):
        # Half is 2^60 - 1 here, and float(half) rounds up to 2^60.
        q61 = FieldCtx(2**61 - 1)
        with pytest.raises(RangeOverflow):
            embed_reals([[2.0**60]], 0, q61)
        below = float(np.nextafter(2.0**60, 0))
        assert embed_reals([[below, -below]], 0, q61).tolist() == [[int(below), q61.q - int(below)]]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_overflow(self, bad):
        with pytest.raises(RangeOverflow):
            embed_reals([[1.0, bad]], 4, BIG)

    def test_returns_int64(self):
        assert embed_reals([[1.5, -2.25]], 2, BIG).dtype == np.int64

    def test_widest_precision_is_1023_bits(self):
        # 2**1023 is the largest power of two a float holds.
        tiny = 3 * 2.0**-1023
        assert embed_reals([0.0, tiny, -tiny], 1023, BIG).tolist() == [0, 3, BIG.q - 3]
        assert unembed_reals([0, 3, BIG.q - 3], 1023, BIG).tolist() == [0.0, tiny, -tiny]

    @pytest.mark.parametrize("bits", [1024, 2000])
    def test_wider_precision_is_invalid(self, bits):
        with pytest.raises(InvalidParameters):
            embed_reals([0.5], bits, BIG)
        with pytest.raises(InvalidParameters):
            unembed_reals([1], bits, BIG)


def _embed_reals_by_loop(values, precision_bits, ctx):
    """The element-by-element embedding that the vectorised one replaced."""
    arr = np.asarray(values, dtype=float)
    out = []
    for v in np.rint(arr * float(1 << precision_bits)).reshape(-1):
        v = int(v)
        if abs(v) > ctx.q // 2:
            raise RangeOverflow(f"scaled value {v} exceeds field half-range")
        out.append(v % ctx.q)
    return out


def _unembed_reals_by_loop(values, precision_bits, ctx):
    out = []
    for v in np.asarray(values, dtype=object).reshape(-1):
        v = int(v) % ctx.q
        out.append((v if v <= ctx.q // 2 else v - ctx.q) / float(1 << precision_bits))
    return out


@pytest.mark.parametrize("q", [101, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("precision_bits", [0, 3, 10])
def test_embedding_matches_the_element_loop(q, precision_bits):
    ctx = FieldCtx(q)
    half, scale = q // 2, float(1 << precision_bits)
    rng = np.random.default_rng(q + precision_bits)
    edge = half / scale
    near = [np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf)]
    near += [edge + d / scale for d in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)]
    near += list(rng.uniform(-1.01 * edge, 1.01 * edge, size=40))
    fitting = []
    for v in [v for x in near for v in (x, -x)] + [0.0, -0.0]:
        try:
            expect = _embed_reals_by_loop([v], precision_bits, ctx)
        except RangeOverflow:
            with pytest.raises(RangeOverflow):
                embed_reals([v], precision_bits, ctx)
            continue
        assert embed_reals([v], precision_bits, ctx).tolist() == expect
        fitting.append(v)
    got = embed_reals(np.reshape(fitting, (2, -1)), precision_bits, ctx)
    assert got.reshape(-1).tolist() == _embed_reals_by_loop(fitting, precision_bits, ctx)
    field_values = [0, 1, half - 1, half, half + 1, q - 1] + list(rng.integers(0, q, size=40))
    back = unembed_reals(np.reshape(field_values, (2, -1)), precision_bits, ctx)
    assert back.reshape(-1).tolist() == _unembed_reals_by_loop(field_values, precision_bits, ctx)
