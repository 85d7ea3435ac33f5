"""PolyScheme.decode_with_errors against the entry-by-entry Berlekamp-Welch
reference (`bw_reference`, one linear solve per entry), under adversarial
faults.

The fault patterns are random blocks per faulty worker, one shared offset,
faults at a different set of workers in every entry (which defeats locating
the faulty workers once and forces the entrywise fallback), and forged
codewords, which move the received word within the correction radius of a
wrong product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgrid import assemble_blocks
from bw_reference import bw_reference
from polycode import schemes
from polycode.errors import DecodingFailure, InvalidParameters, PolycodeError, ShapeMismatch
from polycode.field import FieldCtx
from polycode.matrixcore import FMatrix, ProblemShape, transpose_mul
from polycode.schemes import PolyScheme, WorkerResult, worker_compute

FIELDS = (FieldCtx(257), FieldCtx(2**31 - 1), FieldCtx(2**61 - 1))
PATTERNS = ("random", "offset", "per_entry", "forged")
# K = 4 with N - K even; K = 3 with N - K odd; K = 4 with N - K odd.
SHAPES = (
    ProblemShape(s=4, r=4, t=4, m=2, n=2, N=12),
    ProblemShape(s=4, r=2, t=6, m=1, n=3, N=8),
    ProblemShape(s=4, r=4, t=4, m=2, n=2, N=11),
)
SHAPE12 = ProblemShape(s=8, r=8, t=8, m=2, n=2, N=12)
BIG = FieldCtx()


def entrywise_reference(scheme, results, shares, shape, t):
    """The decoder before collaborative decoding: one BW solve per entry."""
    q = scheme.ctx.q
    ordered = sorted(results, key=lambda r: r.worker_id)
    x_of = {s.worker_id: s.x for s in shares}
    xs = [x_of[r.worker_id] for r in ordered]
    k = scheme.required_results(shape)
    exps = {(j, kk): j + kk * shape.m for j in range(shape.m) for kk in range(shape.n)}
    values = [r.c_tilde.data.tolist() for r in ordered]
    br, bc = shape.block_rows, shape.block_cols
    grids = {jk: [[0] * bc for _ in range(br)] for jk in exps}
    for u in range(br):
        for v in range(bc):
            coeffs = bw_reference([(x, val[u][v]) for x, val in zip(xs, values)], k, t, q)
            for jk, d in exps.items():
                grids[jk][u][v] = coeffs[d]
    return assemble_blocks(
        [[FMatrix(grids[(j, kk)], scheme.ctx) for kk in range(shape.n)] for j in range(shape.m)]
    )


def outcome(decode):
    """The decoded entries, or the type of the PolycodeError raised."""
    try:
        return decode().data.tolist()
    except PolycodeError as exc:
        return type(exc)


def forged_z(rng, xs, faulty, t, k, q):
    """z_i = Z(x_i) for every worker.

    Z is a polynomial of degree k - 1 that vanishes at `agree`, a set of
    min(k - 1, N - t - f) honest workers, and at no faulty worker. Adding
    z_i * R to each faulty block makes every entry the codeword of
    P + R Z at the faulty workers and `agree`: when those are N - t or more,
    a decoder of radius t returns the wrong product P + R Z.
    """
    honest = [i for i in range(len(xs)) if i not in faulty]
    n_agree = min(k - 1, max(0, len(xs) - t - len(faulty)))
    agree = [int(i) for i in rng.choice(honest, size=n_agree, replace=False)]
    while True:
        z = [int(c) for c in rng.integers(0, q, size=k - 1 - n_agree)] + [int(rng.integers(1, q))]
        for i in agree:
            # z(x) * (x - x_i), lowest degree first
            z = [(lo - c * xs[i]) % q for lo, c in zip([0] + z, z + [0])]
        vals = [sum(c * pow(x, d, q) for d, c in enumerate(z)) % q for x in xs]
        if all(vals[i] for i in faulty):
            return vals


def corrupt(results, pattern, f, t, k, xs, ctx, rng):
    """`results` with f workers (or f per entry, for per_entry) made faulty."""
    q = ctx.q
    n = len(results)
    blk = results[0].c_tilde.data.shape
    faulty = sorted(int(i) for i in rng.choice(n, size=f, replace=False))
    data = [np.array(r.c_tilde.data.tolist(), dtype=object) for r in results]
    if pattern == "random":
        for i in faulty:
            data[i] = rng.integers(0, q, size=blk).astype(object)
    elif pattern == "offset":
        offset = int(rng.integers(1, q))
        for i in faulty:
            data[i] = (data[i] + offset) % q
    elif pattern == "per_entry":
        for u, v in np.ndindex(blk):
            for i in rng.choice(n, size=f, replace=False):
                data[i][u, v] = (data[i][u, v] + int(rng.integers(1, q))) % q
    else:
        z = forged_z(rng, xs, faulty, t, k, q)
        r = rng.integers(1, q, size=blk).astype(object)
        for i in faulty:
            data[i] = (data[i] + z[i] * r) % q
    return [WorkerResult(res.worker_id, FMatrix(d, ctx)) for res, d in zip(results, data)]


def shared_offset(results, faulty, seed, ctx):
    """`results` with the workers in `faulty` faulty: each adds one offset,
    1 + default_rng(seed).integers(0, q - 1), mod q to every entry of its
    block. The faulty workers then agree on the codeword of (true product +
    offset): a convenient pattern, not a worst case."""
    offset = 1 + int(np.random.default_rng(seed).integers(0, ctx.q - 1))
    return [
        WorkerResult(r.worker_id, FMatrix((r.c_tilde.data + offset) % ctx.q, ctx))
        if r.worker_id in faulty else r
        for r in results
    ]


def instance(scheme, shape, rng):
    a = FMatrix.random(shape.s, shape.r, scheme.ctx, rng)
    b = FMatrix.random(shape.s, shape.t, scheme.ctx, rng)
    shares = scheme.encode(a, b, shape)
    return shares, [worker_compute(sh) for sh in shares], transpose_mul(a, b)


@settings(deadline=None, max_examples=300)
@given(
    shape=st.sampled_from(SHAPES),
    ctx=st.sampled_from(FIELDS),
    pattern=st.sampled_from(PATTERNS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_matches_entrywise_reference(shape, ctx, pattern, seed, data):
    scheme = PolyScheme(ctx)
    k = scheme.required_results(shape)
    radius = (shape.N - k) // 2
    max_errors = data.draw(st.one_of(st.none(), st.integers(0, radius)), label="max_errors")
    t = radius if max_errors is None else max_errors
    f = data.draw(st.integers(0, shape.N - k), label="f")
    rng = np.random.default_rng(seed)
    shares, results, product = instance(scheme, shape, rng)
    xs = [sh.x for sh in shares]
    results = corrupt(results, pattern, f, t, k, xs, ctx, rng)
    results = [results[i] for i in rng.permutation(len(results))]

    got = outcome(lambda: scheme.decode_with_errors(results, shares, shape, max_errors=max_errors))
    assert got == outcome(lambda: entrywise_reference(scheme, results, shares, shape, t))
    if f <= t:
        assert got == product.data.tolist()
    elif f <= shape.N - k - t:
        assert got is DecodingFailure


def count_calls(monkeypatch, name):
    """Count calls of schemes.<name>, which still runs unchanged."""
    calls = []
    fn = getattr(schemes, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(schemes, name, counted)
    return calls


def test_worker_faults_take_one_bw_solve(monkeypatch):
    # Four faulty workers: the whole block takes one key-equation solve, on
    # the folded interpolant, and no solve per entry.
    scheme = PolyScheme(BIG)
    shares, results, product = instance(scheme, SHAPE12, np.random.default_rng(1))
    xs = [sh.x for sh in shares]
    results = corrupt(results, "random", 4, 4, 4, xs, BIG, np.random.default_rng(2))
    solves = count_calls(monkeypatch, "_key_equation")
    assert scheme.decode_with_errors(results, shares, SHAPE12) == product
    assert len(solves) == 1


@pytest.mark.parametrize("max_errors", [None, 0, 4])
def test_clean_results_take_no_solve(monkeypatch, max_errors):
    # With no faulty worker every entry's interpolant has degree < K, and the
    # decode ends there.
    scheme = PolyScheme(BIG)
    shares, results, product = instance(scheme, SHAPE12, np.random.default_rng(8))
    solves = count_calls(monkeypatch, "_key_equation")
    assert scheme.decode_with_errors(results, shares, SHAPE12, max_errors=max_errors) == product
    assert solves == []


def test_per_entry_faults_take_the_fallback(monkeypatch):
    # Each entry errs at 2 workers, but across entries all 12 workers err:
    # no single error locator exists, and every entry is still correctable.
    scheme = PolyScheme(BIG)
    shares, results, product = instance(scheme, SHAPE12, np.random.default_rng(3))
    data = [r.c_tilde.data.copy() for r in results]
    for e, (u, v) in enumerate(np.ndindex(data[0].shape)):
        for i in (e % 12, (e + 5) % 12):
            data[i][u, v] = (data[i][u, v] + 1 + e) % BIG.q
    results = [WorkerResult(r.worker_id, FMatrix(d, BIG)) for r, d in zip(results, data)]
    fallback = count_calls(monkeypatch, "_entrywise_decode")
    assert scheme.decode_with_errors(results, shares, SHAPE12) == product
    assert len(fallback) == 1


@pytest.mark.parametrize(
    "cancelled, located, want",
    [
        # Worker 0 looks clean in the folded word, so the fast path
        # interpolates through its wrong block; the check must reject that.
        (0, (), "product"),
        # Five faults, one past the radius, of which the fold shows four: the
        # fast path interpolates correctly from workers 0..3, but the entries
        # agree with only 7 < N - t workers, so the decode must fail.
        (11, (7, 8, 9, 10), DecodingFailure),
    ],
)
def test_error_cancelled_by_the_fold_is_caught(monkeypatch, cancelled, located, want):
    q = BIG.q
    scheme = PolyScheme(BIG)
    shares, results, product = instance(scheme, SHAPE12, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    blk = results[cancelled].c_tilde.data
    for i in located:
        results[i] = WorkerResult(i, FMatrix(rng.integers(0, q, size=blk.shape), BIG))
    # An error vector orthogonal to the fold vector, nonzero in every entry.
    fold = np.random.default_rng(schemes._FOLD_SEED).integers(
        0, q, size=(blk.size, 1), dtype=np.int64
    )[:, 0].tolist()
    err = [int(v) for v in rng.integers(1, q, size=blk.size)]
    err[0] = -sum(c * e for c, e in zip(fold[1:], err[1:])) * pow(fold[0], q - 2, q) % q
    assert sum(c * e for c, e in zip(fold, err)) % q == 0 and all(err)
    wrong = np.array(blk.tolist(), dtype=object) + np.array(err, dtype=object).reshape(blk.shape)
    results[cancelled] = WorkerResult(cancelled, FMatrix(wrong % q, BIG))

    fallback = count_calls(monkeypatch, "_entrywise_decode")
    if want == "product":
        assert scheme.decode_with_errors(results, shares, SHAPE12) == product
    else:
        with pytest.raises(want):
            scheme.decode_with_errors(results, shares, SHAPE12)
    assert len(fallback) == 1


class TestFaultRuns:
    """All N = 12 workers answer and the faulty ones share one offset: at the
    default radius t = (N - mn)/2 = 4 the product is exact up to 4 faulty
    workers, and DecodingFailure up to N - mn - t."""

    SHAPE12 = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=12)

    def decode(self, faulty, seed):
        """(decoded product, A^T B) with the workers in `faulty` faulty."""
        shape, rng = self.SHAPE12, np.random.default_rng(0)
        a = FMatrix.random(shape.s, shape.r, BIG, rng)
        b = FMatrix.random(shape.s, shape.t, BIG, rng)
        scheme = PolyScheme(BIG)
        shares = scheme.encode(a, b, shape)
        results = shared_offset([worker_compute(sh) for sh in shares], faulty, seed, BIG)
        return scheme.decode_with_errors(results, shares, shape), transpose_mul(a, b)

    def test_four_corruptions_corrected(self):
        c, oracle = self.decode({1, 4, 8, 11}, seed=2)
        assert c == oracle

    def test_no_corruption_matches_plain_run(self):
        c, oracle = self.decode(set(), seed=2)
        assert c == oracle

    def test_six_corruptions_detected(self):
        with pytest.raises(DecodingFailure):
            self.decode({0, 2, 4, 6, 8, 10}, seed=5)


@pytest.mark.parametrize("f", range(5, 9))
def test_max_errors_zero_detects_forged_codewords(f):
    # The forged pattern puts the received word within distance 4 of a wrong
    # codeword: the default radius-4 decoder returns the wrong product, and
    # only pure detection (max_errors=0) catches all N - K = 8 faults.
    scheme = PolyScheme(BIG)
    shares, results, product = instance(scheme, SHAPE12, np.random.default_rng(10 + f))
    xs = [sh.x for sh in shares]
    results = corrupt(results, "forged", f, 4, 4, xs, BIG, np.random.default_rng(20 + f))
    wrong = scheme.decode_with_errors(results, shares, SHAPE12)
    assert wrong != product
    with pytest.raises(DecodingFailure):
        scheme.decode_with_errors(results, shares, SHAPE12, max_errors=0)


def test_max_errors_range():
    scheme = PolyScheme(BIG)
    shares, results, product = instance(scheme, SHAPE12, np.random.default_rng(6))
    for t in range(5):
        assert scheme.decode_with_errors(results, shares, SHAPE12, max_errors=t) == product
    for t in (-1, 5):
        with pytest.raises(InvalidParameters):
            scheme.decode_with_errors(results, shares, SHAPE12, max_errors=t)


@pytest.mark.parametrize("max_errors", [1.5, "2", 2.0])
def test_max_errors_must_be_an_integer(max_errors):
    scheme = PolyScheme(BIG)
    shares, results, _ = instance(scheme, SHAPE12, np.random.default_rng(6))
    with pytest.raises(InvalidParameters):
        scheme.decode_with_errors(results, shares, SHAPE12, max_errors=max_errors)


@pytest.mark.parametrize("bad", [(1, 4), (4, 2)])
def test_wrong_block_shape_is_rejected(bad):
    # Blocks are 2x4. A 1x4 block has the wrong size; a 4x2 block has the
    # right size and would otherwise be read row-major as a 2x4 one.
    shape = ProblemShape(s=4, r=4, t=8, m=2, n=2, N=12)
    scheme = PolyScheme(BIG)
    shares, results, _ = instance(scheme, shape, np.random.default_rng(7))
    data = np.arange(bad[0] * bad[1], dtype=np.int64).reshape(bad)
    results[3] = WorkerResult(3, FMatrix(data, BIG))
    with pytest.raises(ShapeMismatch):
        scheme.decode_with_errors(results, shares, shape)
