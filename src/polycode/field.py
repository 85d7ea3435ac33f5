"""Prime-field arithmetic, polynomial interpolation, and Reed-Solomon decoding.

The modulus is a prime q < 2**62. Scalar field elements here are Python ints
kept canonical in [0, q), so scalar products are exact; callers must pass
Python ints, never fixed-width numpy scalars, which would wrap silently.
Matrices of field elements are int64 arrays, multiplied exactly by
`matrixcore.mulmod`, whose limb bounds need q < 2**62.

Reed-Solomon decoding with errors solves Gao's key equation (S. Gao, "A new
algorithm for decoding Reed-Solomon codes", 2003): one interpolation through
all N points, then a partial extended Euclid against prod (x - x_i), O(N^2)
operations in all. `bw_decode` decodes one word; `schemes` runs the same core
on the stacked interpolants of a whole result block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    DecodingFailure,
    DivisionByZero,
    DuplicateEvaluationPoint,
    InvalidParameters,
    RangeOverflow,
)

# Default modulus: Mersenne prime 2**31 - 1. Large enough for realistic worker
# counts and real-embedding headroom; products of two canonical elements still
# fit comfortably in 64-bit intermediates.
DEFAULT_Q = 2147483647

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64 (and well beyond)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_int(value, name: str) -> int:
    """`value` as a Python int, through `operator.index`: ints and numpy
    integer scalars pass, anything else (floats, strings, None) raises
    InvalidParameters."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameters(f"{name} must be an integer, got {value!r}") from None


def field_ints(values, q: int) -> list:
    """Each of `values` as a Python int in [0, q). A value that int(v) does
    not equal, such as 1.5 or "2", raises InvalidParameters, as does one that
    int() rejects; an integral float such as 2.0 is kept."""
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameters("field entries must be finite numbers") from None
    if any(i != v for i, v in zip(ints, values)):
        raise InvalidParameters("field entries must be integers")
    return [i % q for i in ints]


def as_natural(value, name: str) -> int:
    """`as_int(value, name)`, which must also be >= 0 (a seed or a bit count)."""
    value = as_int(value, name)
    if value < 0:
        raise InvalidParameters(f"{name} must be >= 0, got {value}")
    return value


class FieldCtx:
    """Arithmetic context for the prime field F_q.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("q",)

    def __init__(self, q: int = DEFAULT_Q):
        q = as_int(q, "modulus")
        if q < 2 or not is_prime(q):
            raise InvalidParameters(f"modulus {q} is not prime")
        # Canonical entries and the kernel's intermediate sums must fit in int64.
        if q >= 1 << 62:
            raise InvalidParameters(f"modulus {q} is not below 2**62")
        self.q = q

    def __repr__(self):
        return f"FieldCtx(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.q == other.q

    def __hash__(self):
        return hash(("FieldCtx", self.q))

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, e: int) -> int:
        # Convention: 0**0 = 1, so evaluation point 0 yields the systematic share.
        if e < 0:
            return pow(self.inv(a), -e, self.q)
        return pow(a, e, self.q)


@dataclass(frozen=True)
class Poly:
    """Polynomial over F_q, coefficients lowest degree first.

    Trailing zeros are permitted; degree() reports the highest nonzero index,
    or -1 for the zero polynomial.
    """

    coeffs: tuple

    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def evaluate(self, x: int, ctx: FieldCtx) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % ctx.q
        return acc


def _check_distinct(xs, ctx):
    seen = set()
    for x in xs:
        x %= ctx.q
        if x in seen:
            raise DuplicateEvaluationPoint(f"evaluation point {x} repeated")
        seen.add(x)


def _points(points, q: int) -> tuple:
    """The x values and the y values of (x, y) pairs, through `field_ints`."""
    try:
        pairs = [(x, y) for x, y in points]
    except (TypeError, ValueError):
        raise InvalidParameters("points must be (x, y) pairs") from None
    return field_ints([x for x, _ in pairs], q), field_ints([y for _, y in pairs], q)


def _master(xs, q: int) -> list:
    """M(x) = prod (x - x_i), of degree len(xs), lowest degree first."""
    master = [1]
    for x in xs:
        master = [(lo - x * hi) % q for lo, hi in zip([0] + master, master + [0])]
    return master


def lagrange_weight_matrix(xs: list, ctx: FieldCtx) -> list:
    """Weights W with coeffs[d] = sum_i W[d][i] * y_i for interpolation at xs.

    Column i holds the coefficients of the Lagrange basis polynomial for x_i,
    computed by synthetic division of the master polynomial: O(k^2) total.
    The same weights decode block-valued interpolation (linear combinations of
    worker result matrices), so they are computed once per point set.
    """
    _check_distinct(xs, ctx)
    q = ctx.q
    k = len(xs)
    master = _master(xs, q)
    w = [[0] * k for _ in range(k)]
    for i, x in enumerate(xs):
        # M(x) / (x - x_i) by synthetic division, highest degree first.
        num = [0] * k
        carry = master[k]
        for d in range(k - 1, -1, -1):
            num[d] = carry
            carry = (master[d] + carry * x) % q
        denom = 0
        for d in range(k - 1, -1, -1):
            denom = (denom * x + num[d]) % q
        scale = ctx.inv(denom)
        for d in range(k):
            w[d][i] = num[d] * scale % q
    return w


def interpolate(points: list, ctx: FieldCtx) -> Poly:
    """Unique polynomial of degree < len(points) through all (x, y) pairs."""
    xs, ys = _points(points, ctx.q)
    if not xs:
        raise InvalidParameters("interpolation needs at least one point")
    w = lagrange_weight_matrix(xs, ctx)
    coeffs = tuple(sum(wi * yi for wi, yi in zip(row, ys)) % ctx.q for row in w)
    return Poly(coeffs)


def _row_reduce(rows: list, ncols: int, q: int) -> list:
    """Gauss-Jordan elimination mod q on the first `ncols` columns, in place.

    Returns the pivot columns in order: row i ends with a 1 at pivots[i] and
    zeros elsewhere in that column. Columns with no pivot are skipped.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % q != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [v * inv % q for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % q != 0:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def solve_linear(rows: list, q: int):
    """Gaussian elimination mod q on an augmented matrix.

    Returns a particular solution (free variables set to 0), or None when the
    system is inconsistent. `rows` is modified in place.
    """
    if not rows:
        return []
    ncols = len(rows[0]) - 1
    pivots = _row_reduce(rows, ncols, q)
    if any(row[ncols] % q != 0 for row in rows[len(pivots):]):
        return None
    sol = [0] * ncols
    for row, c in zip(rows, pivots):
        sol[c] = row[ncols]
    return sol


def invert_matrix(mat: list, q: int) -> list:
    """Inverse of a square matrix over F_q; raises if singular."""
    k = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(mat)]
    if len(_row_reduce(aug, k, q)) < k:
        raise InvalidParameters("singular matrix")
    return [row[k:] for row in aug]


def _poly_divmod(num, den: list, q: int):
    """Quotient and remainder of num / den over F_q, as coefficient lists
    lowest degree first; den's last coefficient is its nonzero leading one.
    The remainder has len(den) - 1 entries."""
    rem = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], -1, q)
    quot = [0] * max(len(rem) - dd, 0)
    for d in range(len(rem) - 1, dd - 1, -1):
        c = rem[d] % q
        if c:
            f = c * lead_inv % q
            quot[d - dd] = f
            for j in range(dd):
                rem[d - dd + j] -= f * den[j]
    return quot, [c % q for c in rem[:dd]]


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _key_equation(master, interpolant: list, k: int, e: int, q: int):
    """Gao's key equation: (P, v) for the polynomial P of degree < k that
    agrees with at least n - e of n points, and an error locator v whose
    roots among the points are where P disagrees; None if there is no P.

    `master` is M = prod (x - x_i) over the n distinct points, of degree n,
    and `interpolant` the coefficients of R, the interpolant through them of
    degree < n, both lowest degree first and in [0, q); 2e <= n - k. The
    extended Euclid on (M, R) keeps r_j = u_j M + v_j R and stops at the
    first remainder of degree < n - e (see `bw_decode`). P is r_j / v_j when
    v_j divides r_j and the quotient has degree < k. P is padded to k
    coefficients; neither argument is modified.
    """
    stop = len(master) - 1 - e
    r0, r1 = master, _trim(list(interpolant))
    v0, v1 = [], [1]
    while len(r1) > stop:
        quot, rem = _poly_divmod(r0, r1, q)
        prod = [0] * (len(quot) + len(v1) - 1)
        for i, a in enumerate(quot):
            for j, b in enumerate(v1):
                prod[i + j] += a * b
        # deg(quot v1) > deg v0, so v0 - quot v1 keeps a nonzero leading term.
        v0, v1 = v1, [(a - b) % q for a, b in zip(v0 + [0] * (len(prod) - len(v0)), prod)]
        r0, r1 = r1, _trim(rem)
    quot, rem = _poly_divmod(r1, v1, q)
    if any(rem) or len(quot) > k:
        return None
    return quot + [0] * (k - len(quot)), v1


def bw_decode(points: list, degree_bound: int, max_errors: int, ctx: FieldCtx) -> Poly:
    """Reed-Solomon decoding of a degree < degree_bound polynomial.

    Recovers the unique polynomial agreeing with at least N - max_errors of
    the N given (x, y) points, the one Berlekamp-Welch finds; raises
    DecodingFailure when no such polynomial exists. So up to max_errors
    corrupted values are corrected and up to N - degree_bound - max_errors
    are detected; more can land within max_errors of another polynomial,
    which is then returned. The counts must be integers and the points pairs
    of integers (InvalidParameters), with distinct x
    (DuplicateEvaluationPoint).

    It solves Gao's key equation in O(N^2). With k = degree_bound,
    e = max_errors and 2e <= N - k, R interpolates the N points and
    M = prod (x - x_i). The extended Euclid on (M, R) keeps
    r_j = u_j M + v_j R, with deg v_j = N - deg r_(j-1), and stops at the
    first remainder of degree < N - e; so deg v_j <= e. If v_j divides r_j
    and P = r_j / v_j has degree < k, P is returned. It agrees with at least
    N - e points: M vanishes at every x_i, so v_j(x_i) P(x_i) = r_j(x_i) =
    v_j(x_i) y_i, and P(x_i) = y_i wherever v_j(x_i) != 0, which fails at
    most deg v_j <= e times. Conversely, if such a P exists, let E be the
    locator of the points where it disagrees: E P = E R mod M, with
    deg E <= e, deg EP < k + e <= N - e and deg EP + deg E < N. Such a pair
    is a polynomial multiple of (r_j, v_j) (Gao, 2003), so r_j / v_j = P
    and nothing is missed.
    """
    q = ctx.q
    k = as_int(degree_bound, "degree_bound")
    e = as_int(max_errors, "max_errors")
    xs, ys = _points(points, q)
    n = len(xs)
    if k < 1 or e < 0:
        raise InvalidParameters("degree bound must be >= 1 and max_errors >= 0")
    if 2 * e > n - k:
        raise InvalidParameters(f"2e = {2 * e} exceeds N - k = {n - k}")
    interpolant = interpolate(list(zip(xs, ys)), ctx).coeffs
    found = _key_equation(_master(xs, q), interpolant, k, e, q)
    if found is None:
        raise DecodingFailure(f"no polynomial of degree < {k} agrees with {n - e} of {n} points")
    return Poly(tuple(found[0]))


def check_embedding_bound(s: int, max_a: float, max_b: float, precision_bits: int, ctx: FieldCtx) -> None:
    """Raise RangeOverflow unless every entry of A^T B, for s-row inputs of
    magnitude at most max_a and max_b, fits in the symmetric range once
    embedded at `precision_bits`. `embed_reals` checks only the inputs; a
    product entry sums s products of them and can wrap mod q even when
    every input fits, so this checks the product's bound before multiplying.
    """
    scale = _fixed_point_scale(precision_bits)
    # int(x) + 1 >= q // 2 exactly when x >= q // 2 - 1; `not <` also catches NaN.
    if not s * abs(max_a) * abs(max_b) * scale * scale < ctx.q // 2 - 1:
        raise RangeOverflow(
            "output bound exceeds field half-range; increase q or reduce precision"
        )


def _fixed_point_scale(precision_bits) -> float:
    """2**precision_bits as a float. From 1024 bits on it is past the float
    range, and InvalidParameters is raised."""
    bits = as_natural(precision_bits, "precision_bits")
    try:
        return float(1 << bits)
    except OverflowError:
        raise InvalidParameters(f"precision_bits={bits}: 2**{bits} exceeds the float range") from None


def embed_reals(values, precision_bits: int, ctx: FieldCtx):
    """Fixed-point embedding of reals into F_q, as an int64 array.

    Nonnegative v maps to round(v * 2**p); negative v to q - round(|v| * 2**p).
    The scaled magnitude of each input must fit in [0, q//2]; NaN and +-inf
    never do.
    """
    import numpy as np

    half = ctx.q // 2
    # The largest float <= half; float(half) itself may round above it.
    limit = float(half) if int(float(half)) <= half else np.nextafter(float(half), 0)
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameters("embed_reals takes real numbers") from None
    with np.errstate(over="ignore"):
        scaled = np.rint(values * _fixed_point_scale(precision_bits))
    fits = np.abs(scaled) <= limit
    if not fits.all():
        raise RangeOverflow(f"scaled value {scaled[~fits][0]:.0f} exceeds field half-range {half}")
    return scaled.astype(np.int64) % ctx.q


def unembed_reals(values, precision_bits: int, ctx: FieldCtx):
    """Inverse of embed_reals: symmetric decode then fixed-point unscale. The
    values are read by `matrixcore.canonical`, so 1.5 is InvalidParameters."""
    import numpy as np

    from .matrixcore import canonical

    scale = _fixed_point_scale(precision_bits)
    v = canonical(values, ctx.q)
    return np.where(v > ctx.q // 2, v - ctx.q, v) / scale
