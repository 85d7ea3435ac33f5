"""Berlekamp-Welch decoding by one linear solve, the oracle of the decoders.

`polycode.field.bw_decode` solves Gao's key equation. This module keeps the
textbook route (Welch and Berlekamp, US patent 4,633,470): find Q of degree
< k + e and a monic E of degree e with Q(x_i) = y_i E(x_i) at every point,
by Gauss-Jordan elimination (`field.solve_linear`), then divide. It shares no
code with the key equation, so the differential tests compare two
independent routes to the same decoder.
"""

from polycode.errors import DecodingFailure, InvalidParameters
from polycode.field import solve_linear


def _divide_by_monic(num, den, q):
    """Quotient and remainder of num / den, den monic, lowest degree first."""
    rem = [c % q for c in num]
    dd = len(den) - 1
    quot = [0] * max(len(rem) - dd, 0)
    for d in range(len(rem) - 1, dd - 1, -1):
        c = rem[d]
        if c:
            quot[d - dd] = c
            for j, dc in enumerate(den):
                rem[d - dd + j] = (rem[d - dd + j] - c * dc) % q
    return quot, rem


def bw_reference(points, k, e, q):
    """The k coefficients of the polynomial of degree < k that agrees with at
    least n - e of the n points (distinct x), lowest degree first; raises
    DecodingFailure when there is none, and InvalidParameters unless
    k >= 1, e >= 0 and 2e <= n - k."""
    n = len(points)
    if k < 1 or e < 0 or 2 * e > n - k:
        raise InvalidParameters(f"no decoder for k={k}, e={e} at n={n}")
    xs = [x % q for x, _ in points]
    ys = [y % q for _, y in points]
    # Unknowns Q_0..Q_{k+e-1}, E_0..E_{e-1}; E_e = 1 moves to the right side.
    rows = []
    for x, y in zip(xs, ys):
        powers = [pow(x, d, q) for d in range(k + e + 1)]
        rows.append(powers[: k + e] + [-y * p % q for p in powers[:e]] + [y * powers[e] % q])
    sol = solve_linear(rows, q)
    if sol is None:
        raise DecodingFailure("the Berlekamp-Welch system has no solution")
    quot, rem = _divide_by_monic(sol[: k + e], sol[k + e :] + [1], q)
    if any(rem) or any(quot[k:]):
        raise DecodingFailure("E does not divide Q to a polynomial of degree < k")
    coeffs = quot[:k] + [0] * (k - len(quot))
    values = [sum(c * pow(x, d, q) for d, c in enumerate(coeffs)) % q for x in xs]
    agree = sum(v == y for v, y in zip(values, ys))
    if agree < n - e:
        raise DecodingFailure(f"the candidate agrees with {agree} of {n} points")
    return coeffs
