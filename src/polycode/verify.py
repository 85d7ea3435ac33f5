"""Exhaustive small-instance verification suites.

Each suite checks a scheme against brute force over every response subset on
an instance small enough to enumerate, plus the textbook decode patterns.
Shared by the CLI `verify` command.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .convolution import conv_decode, conv_direct, conv_encode, conv_worker_compute, split_vector
from .errors import NotEnoughResults
from .field import FieldCtx
from .matrixcore import FMatrix, ProblemShape, transpose_mul
from .schemes import Mds1dScheme, PolyScheme, ProductScheme, worker_compute


def _random_instance(shape: ProblemShape, ctx: FieldCtx, seed: int):
    rng = np.random.default_rng(seed)
    a = FMatrix.random(shape.s, shape.r, ctx, rng)
    b = FMatrix.random(shape.s, shape.t, ctx, rng)
    return a, b, transpose_mul(a, b)


def brute_force_threshold(scheme, shape: ProblemShape) -> int:
    """Smallest k such that every size-k response subset is decodable."""
    workers = range(scheme.num_shares(shape))
    for k in range(0, scheme.num_shares(shape) + 1):
        if all(scheme.decodable(set(s), shape) for s in combinations(workers, k)):
            return k
    raise AssertionError("no subset size decodes; scheme is broken")


def sweep_decode_subsets(scheme, shape: ProblemShape, ctx: FieldCtx, seed: int = 7) -> int:
    """Decode every response subset: each decodable one must give the direct
    product, and each other one must raise NotEnoughResults.

    Returns the number of subsets decoded.
    """
    a, b, oracle = _random_instance(shape, ctx, seed)
    shares = scheme.encode(a, b, shape)
    results = [worker_compute(s) for s in shares]
    decoded = 0
    workers = range(len(shares))
    for k in range(1, len(shares) + 1):
        for subset in combinations(workers, k):
            picked = [results[i] for i in subset]
            if not scheme.decodable(subset, shape):
                try:
                    scheme.decode(picked, shares, shape)
                except NotEnoughResults:
                    continue
                except Exception as exc:
                    raise AssertionError(f"{scheme.name}: subset {subset} raised {exc!r}") from exc
                raise AssertionError(f"{scheme.name}: decoded non-decodable subset {subset}")
            if scheme.decode(picked, shares, shape) != oracle:
                raise AssertionError(f"{scheme.name}: wrong decode on subset {subset}")
            decoded += 1
    return decoded


def suite_poly_example():
    """N=5, m=n=2 over F_7 (the motivating instance): all 4-subsets decode."""
    ctx = FieldCtx(7)
    shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)
    scheme = PolyScheme(ctx)
    count = sweep_decode_subsets(scheme, shape, ctx)
    assert brute_force_threshold(scheme, shape) == 4
    return f"poly F7 example: {count} decodable subsets exact, threshold 4"


def suite_mds1d():
    """Brute-force worst case matches N - N/n + m on two textbook instances."""
    ctx = FieldCtx()
    for (big_n, m, n), expect in (((6, 2, 2), 5), ((3, 2, 1), 2)):
        shape = ProblemShape(s=8, r=4 if m == 2 else m, t=max(n * 2, 2), m=m, n=n, N=big_n)
        scheme = Mds1dScheme(ctx)
        got = brute_force_threshold(scheme, shape)
        if got != expect or scheme.threshold(shape) != expect:
            raise AssertionError(f"mds1d N={big_n}: brute force {got}, expected {expect}")
        sweep_decode_subsets(scheme, shape, ctx)
    return "mds1d exhaustive sweep: thresholds 5 (N=6) and 2 (N=3), all decodes exact"


def suite_product():
    """2^9 peeling sweep on N=9, m=n=2, plus the five-result textbook pattern."""
    ctx = FieldCtx()
    shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9)
    scheme = ProductScheme(ctx)
    got = brute_force_threshold(scheme, shape)
    if got != 6 or scheme.threshold(shape) != 6:
        raise AssertionError(f"product brute-force threshold {got}, expected 6")
    # Five results that peel: workers at grid cells (0,1),(1,1),(1,2),(2,0),(2,1).
    pattern = {1, 4, 5, 6, 7}
    if not scheme.decodable(pattern, shape):
        raise AssertionError("the five-result peeling pattern did not decode")
    count = sweep_decode_subsets(scheme, shape, ctx)
    return f"product exhaustive sweep: threshold 6, 5-pattern peels, {count} decodes exact"


def suite_conv():
    """Every 4-subset of 7 workers decodes the m=3, n=2 convolution exactly."""
    ctx = FieldCtx()
    m, n, big_n, s = 3, 2, 7, 16
    rng = np.random.default_rng(11)
    a = rng.integers(0, ctx.q, size=m * s)
    b = rng.integers(0, ctx.q, size=n * s)
    oracle = conv_direct(a, b, ctx)
    shares = conv_encode(split_vector(a, m, ctx), split_vector(b, n, ctx), big_n, ctx)
    results = [conv_worker_compute(sh, ctx) for sh in shares]
    for subset in combinations(range(big_n), m + n - 1):
        c = conv_decode([results[i] for i in subset], m, n, ctx)
        if not (c == oracle).all():
            raise AssertionError(f"conv decode wrong on subset {subset}")
    for subset in combinations(range(big_n), m + n - 2):
        try:
            conv_decode([results[i] for i in subset], m, n, ctx)
        except NotEnoughResults:
            continue
        raise AssertionError(f"conv decoded with too few results {subset}")
    return "conv exhaustive sweep: all C(7,4) subsets exact, 3-subsets rejected"


SUITES = (
    ("poly_example", suite_poly_example),
    ("mds1d", suite_mds1d),
    ("product", suite_product),
    ("conv", suite_conv),
)


def run_suites():
    """Run every suite; yields (name, ok, detail)."""
    for name, fn in SUITES:
        try:
            yield name, True, fn()
        except AssertionError as exc:
            yield name, False, str(exc)
