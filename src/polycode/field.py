"""Prime-field arithmetic, polynomial interpolation, and Reed-Solomon decoding.

The modulus is a prime q < 2**62. Scalar field elements here are Python ints
kept canonical in [0, q), so scalar products are exact; callers must pass
Python ints, never fixed-width numpy scalars, which would wrap silently.
Matrices of field elements are int64 arrays, multiplied exactly by
`matrixcore.mulmod`, whose limb bounds need q < 2**62.
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

    def coeff(self, d: int) -> int:
        return self.coeffs[d] if d < len(self.coeffs) else 0

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
    # Master polynomial M(x) = prod (x - x_i), degree k, lowest first.
    master = [1]
    for x in xs:
        nxt = [0] * (len(master) + 1)
        for d, c in enumerate(master):
            nxt[d + 1] = (nxt[d + 1] + c) % q
            nxt[d] = (nxt[d] - c * x) % q
        master = nxt
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
    if not points:
        raise InvalidParameters("interpolation needs at least one point")
    xs = [x % ctx.q for x, _ in points]
    ys = [y % ctx.q for _, y in points]
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


def _poly_divmod(num: list, den: list, q: int):
    """Quotient and remainder of num / den over F_q (coefficient lists, lowest first)."""
    den = list(den)
    while den and den[-1] % q == 0:
        den.pop()
    if not den:
        raise DivisionByZero("polynomial division by zero")
    rem = [c % q for c in num]
    dd = len(den) - 1
    lead_inv = pow(den[-1], q - 2, q)
    quot = [0] * max(len(rem) - dd, 0)
    for d in range(len(rem) - 1, dd - 1, -1):
        c = rem[d] % q
        if c:
            f = c * lead_inv % q
            quot[d - dd] = f
            for j, dc in enumerate(den):
                rem[d - dd + j] = (rem[d - dd + j] - f * dc) % q
    return quot, rem


def bw_decode(points: list, degree_bound: int, max_errors: int, ctx: FieldCtx) -> Poly:
    """Berlekamp-Welch decoding of a degree < degree_bound polynomial.

    Recovers the unique polynomial agreeing with at least N - max_errors of
    the N given (x, y) points; raises DecodingFailure when no such polynomial
    exists. So up to max_errors corrupted values are corrected and up to
    N - degree_bound - max_errors are detected; more can land within
    max_errors of another polynomial, which is then returned.
    """
    q = ctx.q
    n = len(points)
    k = degree_bound
    e = max_errors
    if k < 1 or e < 0:
        raise InvalidParameters("degree bound must be >= 1 and max_errors >= 0")
    if 2 * e > n - k:
        raise InvalidParameters(f"2e = {2 * e} exceeds N - k = {n - k}")
    xs = [x % q for x, _ in points]
    ys = [y % q for _, y in points]
    _check_distinct(xs, ctx)
    if e == 0:
        cand = interpolate(list(zip(xs[:k], ys[:k])), ctx)
    else:
        # Find Q (deg < k+e) and monic E (deg e) with Q(x_i) = y_i E(x_i):
        # unknowns [Q_0..Q_{k+e-1}, E_0..E_{e-1}], RHS y_i x_i^e.
        rows = []
        for x, y in zip(xs, ys):
            xp = [1]
            for _ in range(k + e - 1):
                xp.append(xp[-1] * x % q)
            row = list(xp[: k + e])
            row += [(-y * xp[j]) % q for j in range(e)]
            row.append(y * pow(x, e, q) % q)
            rows.append(row)
        sol = solve_linear(rows, q)
        if sol is None:
            raise DecodingFailure("no Berlekamp-Welch solution within the error radius")
        qcoef = sol[: k + e]
        ecoef = sol[k + e :] + [1]
        cand_coeffs, rem = _poly_divmod(qcoef, ecoef, q)
        if any(c % q for c in rem):
            raise DecodingFailure("error locator does not divide the quotient")
        cand = Poly(tuple(c % q for c in cand_coeffs[:k]) or (0,))
        if cand.degree() >= k or len(cand_coeffs) > k and any(c % q for c in cand_coeffs[k:]):
            raise DecodingFailure("candidate exceeds the degree bound")
    agreement = sum(1 for x, y in zip(xs, ys) if cand.evaluate(x, ctx) == y)
    if agreement < n - e:
        raise DecodingFailure(f"candidate agrees with only {agreement} of {n} points")
    # Pad to exactly k coefficients for positional access by callers.
    coeffs = tuple(cand.coeff(d) for d in range(k))
    return Poly(coeffs)


def output_magnitude_bound(s: int, max_a: float, max_b: float, precision_bits: int) -> int:
    """Worst-case magnitude of an output entry after fixed-point scaling."""
    scale = 1 << precision_bits
    return int(s * abs(max_a) * abs(max_b) * scale * scale) + 1


def check_embedding_bound(s: int, max_a: float, max_b: float, precision_bits: int, ctx: FieldCtx) -> None:
    """Raise RangeOverflow unless every product entry fits in the symmetric range."""
    if output_magnitude_bound(s, max_a, max_b, precision_bits) >= ctx.q // 2:
        raise RangeOverflow(
            "output bound exceeds field half-range; increase q or reduce precision"
        )


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
        scaled = np.rint(values * float(1 << precision_bits))
    fits = np.abs(scaled) <= limit
    if not fits.all():
        raise RangeOverflow(f"scaled value {scaled[~fits][0]:.0f} exceeds field half-range {half}")
    return scaled.astype(np.int64) % ctx.q


def unembed_reals(values, precision_bits: int, ctx: FieldCtx):
    """Inverse of embed_reals: symmetric decode then fixed-point unscale."""
    import numpy as np

    v = np.asarray(values, dtype=np.int64) % ctx.q
    return np.where(v > ctx.q // 2, v - ctx.q, v) / float(1 << precision_bits)
