"""The four computation strategies behind one contract.

Each scheme exposes encode / decodable / latency / decode / threshold, and
differs from the others only in its generators, its placement, its solve and
its recovery rule. Each worker stores one coded block per input and computes
their block product; the master decodes once the responded set satisfies the
scheme's recovery rule. Inside the module a set of shares is a stack of coded
blocks per input, and a set of results one stack of products, each with its
worker ids; `encode` and `decode` take and give one object per worker.

Each scheme states its recovery rule once, in `latency`: the earliest time at
which the workers done by then let the master decode. `decodable` is that rule
on one trial whose responded workers answer at time 0 and the others never.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecodingFailure,
    InvalidParameters,
    NonDivisibleGroups,
    InvalidGrid,
    NotEnoughResults,
    PolycodeError,
    ShapeMismatch,
    TooManyWorkersForField,
)
from .field import FieldCtx, Poly, _check_distinct, _key_equation, _master, as_int, invert_matrix
from .matrixcore import (
    FMatrix,
    ProblemShape,
    canonical,
    mulmod,
    transpose_mul,
)

@dataclass(frozen=True)
class WorkerShare:
    """Coded blocks stored at one worker."""

    worker_id: int
    a_tilde: FMatrix
    b_tilde: FMatrix
    x: int | None = None  # evaluation point (polynomial code)


@dataclass(frozen=True)
class WorkerResult:
    """One worker's block product A~^T B~."""

    worker_id: int
    c_tilde: FMatrix


def worker_compute(share: WorkerShare) -> WorkerResult:
    if not isinstance(share, WorkerShare):
        raise InvalidParameters(f"share is a {type(share).__name__}, not a WorkerShare")
    return WorkerResult(share.worker_id, transpose_mul(share.a_tilde, share.b_tilde))


@dataclass(frozen=True)
class _Accepted:
    """Results as sorted ids and their stacked blocks, whose ids the virtual
    clock's cut has accepted: `decode` does not ask the recovery rule again."""

    ids: list
    blocks: np.ndarray


def _coded_stack(gen, mat: FMatrix, parts: int, rows: np.ndarray) -> np.ndarray:
    """Slice i is generator row rows[i] applied to the `parts` column blocks
    of `mat`: one `mulmod` of the distinct rows, then a gather. With gen None
    the input is uncoded, and row j is its column block j itself."""
    blocks = mat.data.reshape(mat.rows, parts, -1).transpose(1, 0, 2)
    if gen is None:
        return blocks[rows]
    distinct = np.flatnonzero(np.bincount(rows, minlength=len(gen)))
    coded = mulmod(gen[distinct], blocks.reshape(parts, -1), mat.ctx.q)
    return coded.reshape(len(distinct), *blocks.shape[1:])[np.searchsorted(distinct, rows)]


def _first_per_worker(results: list) -> dict:
    """Worker id -> the first result carrying it; later duplicates are ignored."""
    return {r.worker_id: r for r in reversed(results)}


def _evaluation_points(big_n: int, ctx: FieldCtx) -> list:
    """The points 0..N-1 for an integer N >= 1; N > q raises, as they would
    not be distinct in F_q."""
    big_n = as_int(big_n, "N")
    if big_n < 1:
        raise InvalidParameters(f"N must be positive, got {big_n}")
    if big_n > ctx.q:
        raise TooManyWorkersForField(f"N={big_n} exceeds field size q={ctx.q}")
    return list(range(big_n))


def _vandermonde(xs, exps, ctx: FieldCtx) -> np.ndarray:
    """Row i holds x_i**e for each exponent e: the generator of an evaluation
    code. Built once per (points, exponents, field) and read-only."""
    return _vandermonde_of(tuple(map(operator.index, xs)), tuple(map(operator.index, exps)), ctx)


@functools.lru_cache(maxsize=256)
def _vandermonde_of(xs: tuple, exps: tuple, ctx: FieldCtx) -> np.ndarray:
    gen = canonical([[ctx.pow(x, e) for e in exps] for x in xs], ctx.q)
    gen.flags.writeable = False
    return gen


@functools.lru_cache(maxsize=256)
def systematic_generator(total: int, k: int, ctx: FieldCtx) -> np.ndarray:
    """Systematic (total, k) MDS generator [I; C] with C a Cauchy matrix.

    C[i][j] = 1 / (x_i - y_j) at y_j = j and x_i = k + i, with its rows and
    columns scaled so that its first row and first column are all ones; a
    single-parity code thus gets the all-ones row of the textbook examples.
    Every square submatrix of a Cauchy matrix is nonsingular, and nonzero
    scaling keeps that, so every k rows of [I; C] are invertible: the code is
    MDS by construction (Cauchy Reed-Solomon; Blömer et al., ICSI TR-95-048).
    The points 0..total-1 must be distinct in F_q, so total <= q; a larger
    total raises TooManyWorkersForField. The total x k array is built once
    per (total, k, field) and is read-only.
    """
    if k < 1 or total < k:
        raise InvalidParameters(f"generator needs total >= k >= 1, got ({total}, {k})")
    if total > ctx.q:
        raise TooManyWorkersForField(f"{total} coded blocks exceed field size q={ctx.q}")
    rows = [[1 if c == j else 0 for c in range(k)] for j in range(k)]
    # Scaled entry C[i][j] C[0][0] / (C[0][j] C[i][0]) = (k-j)(k+i) / ((k+i-j) k).
    for i in range(total - k):
        rows.append([(k - j) * (k + i) * ctx.inv((k + i - j) * k) % ctx.q for j in range(k)])
    gen = canonical(rows, ctx.q)
    gen.flags.writeable = False
    return gen


@functools.lru_cache(maxsize=1024)
def _line_coeffs(total: int, k: int, ctx: FieldCtx, have: tuple, want: tuple) -> np.ndarray:
    """Coefficients of the blocks at positions `want` of a line of workers,
    in terms of the blocks at its k positions `have`.

    Position j of the line holds gen[j] U for the systematic (total, k)
    generator and k unknown blocks U, so U = inv(gen[have]) times the known
    blocks, and the wanted blocks are gen[want] inv(gen[have]) times them.
    The len(want) x k array is built once per erasure pattern and field, and
    is read-only.
    """
    q = ctx.q
    # Python ints: field.py arithmetic must never see fixed-width scalars.
    rows = systematic_generator(total, k, ctx).tolist()
    inv = invert_matrix([rows[j] for j in have], q)
    coeffs = np.array([[sum(w * v for w, v in zip(rows[j], col)) % q for col in zip(*inv)]
                       for j in want], dtype=np.int64)
    coeffs.flags.writeable = False
    return coeffs


def _batch_inverse(values: list, q: int) -> list:
    """The inverses mod q of the nonzero Python ints `values`, with one `pow`
    and about three products a value (Montgomery's trick)."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % q)
    run = pow(prefix[-1], -1, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = run * prefix[i] % q
        run = run * values[i] % q
    return out


@functools.lru_cache(maxsize=16)
def _hankel_index(k: int) -> np.ndarray:
    """Index of the (k + 1) x k left factor of `_interpolation_weights_of`,
    read from M's k + 1 coefficients, a zero and the k coefficients of M':
    row d < k holds M[d + 1 + j] (zero past M's end), row k holds M'."""
    hankel = np.add.outer(np.arange(k), np.arange(k)) + 1
    return np.vstack([np.minimum(hankel, k + 1), np.arange(k + 2, 2 * k + 2)])


def _interpolation_weights(xs, ctx: FieldCtx) -> np.ndarray:
    """Weights W with coeffs[d] = sum_i W[d][i] * y_i for interpolation at
    the points xs, the `lagrange_weight_matrix`, as an int64 array built once
    per (points, field) and read-only. Repeated points raise
    DuplicateEvaluationPoint on every call."""
    return _interpolation_weights_of(tuple(map(operator.index, xs)), ctx)


@functools.lru_cache(maxsize=32)
def _interpolation_weights_of(xs: tuple, ctx: FieldCtx) -> np.ndarray:
    """Column i of W is M(X)/(X - x_i) divided by M'(x_i), M = prod (X - x).
    The quotient's coefficients are num[d, i] = sum_j M[d+1+j] x_i^j, a Hankel
    matrix of M's coefficients times V^T, V the K x K Vandermonde of the
    points, and M'(x_i) = V (j M[j])_j. Both are one stacked `mulmod`; the K
    denominators are inverted with one `pow`, and the columns scaled by one
    more `mulmod` with a diagonal right factor. V's rows are read from the
    Vandermonde of 0..n-1, n the next power of two above the largest point,
    when n <= 4K: at most four point sets' own rows, and every point set of
    a decode with N <= 4K workers reads it."""
    _check_distinct(xs, ctx)
    q, k = ctx.q, len(xs)
    pts = [x % q for x in xs]
    master = _master(pts, q)
    deriv = [(j + 1) * c % q for j, c in enumerate(master[1:])]
    left = np.array(master + [0] + deriv, dtype=np.int64)[_hankel_index(k)]
    span = 1 << max(pts).bit_length()
    if span <= 4 * k:
        powers = _vandermonde(range(span), range(k), ctx)[pts]
    else:
        # A point far past K, such as a worker id that `conv_decode` takes
        # from outside at face value, gets uncached rows of its own: a
        # table as long as that id would cost memory in proportion to it.
        powers = _vandermonde_of.__wrapped__(tuple(pts), tuple(range(k)), ctx)
    num = mulmod(left, powers.T, q)
    scale = np.diag(np.array(_batch_inverse(num[k].tolist(), q), dtype=np.int64))
    weights = mulmod(num[:k], scale, q)
    weights.flags.writeable = False
    return weights


def _assemble(blocks: np.ndarray, shape: ProblemShape, ctx: FieldCtx) -> FMatrix:
    """The r x t output from its m*n blocks, one flattened block per row in
    (j, k) order: block (j, k) = A_j^T B_k fills block row j, block column k."""
    m, n, br, bc = shape.m, shape.n, shape.block_rows, shape.block_cols
    data = blocks.reshape(m, n, br, bc).transpose(0, 2, 1, 3).reshape(m * br, n * bc)
    return FMatrix(data, ctx, _canonical=True)


# Seed of the random fold in `_interleaved_decode`. Its output never depends
# on the fold, only whether the fast path applies; a fixed seed makes the work
# done reproducible.
_FOLD_SEED = 2017


@functools.lru_cache(maxsize=32)
def _fold(size: int, q: int) -> np.ndarray:
    """The size x 1 fold vector of `_interleaved_decode`, drawn from
    `_FOLD_SEED`, built once per (size, q) and read-only."""
    fold = np.random.default_rng(_FOLD_SEED).integers(0, q, size=(size, 1), dtype=np.int64)
    fold.flags.writeable = False
    return fold


@functools.lru_cache(maxsize=32)
def _master_of(xs: tuple, q: int) -> tuple:
    """prod (x - x_i) over the points xs, built once per (points, q)."""
    return tuple(_master(xs, q))


def _interleaved_decode(xs: list, received: np.ndarray, interp: np.ndarray, master: tuple,
                        k: int, t: int, ctx: FieldCtx):
    """Collaborative decoding of an interleaved Reed-Solomon word.

    Row i of the N x E array `received` holds worker i's entries, column j
    of `interp` the coefficients of the interpolant through column j, and
    `master` is prod (x - x_i) over the points xs. Each column is a codeword
    of dimension k, and its errors sit at the faulty workers, which all
    columns share. A random combination of the columns keeps those error
    positions, so one key-equation solve on the same combination of the
    interpolants locates them: the workers where its error locator does not
    vanish are clean. The first k of them then give every column's
    coefficients with one weight product (Bleichenbacher, Kiayias and Yung,
    2003).

    Returns the k x E coefficients, lowest degree first, only if re-encoding
    them agrees with every column at N - t workers or more: then each column
    is the unique codeword within distance t, the one `_entrywise_decode`
    returns. Otherwise returns None: the fold found no codeword, cancelled an
    error, or the columns err at different workers.
    """
    q = ctx.q
    word = mulmod(interp, _fold(received.shape[1], q), q)[:, 0].tolist()
    found = _key_equation(master, word, k, t, q)
    if found is None:
        return None
    locator = Poly(tuple(found[1]))
    clean = [i for i, x in enumerate(xs) if locator.evaluate(x, ctx)][:k]
    weights = _interpolation_weights([xs[i] for i in clean], ctx)
    coeffs = mulmod(weights, received[clean], q)
    vander = _vandermonde(xs, range(k), ctx)
    agree = (mulmod(vander, coeffs, q) == received).sum(axis=0)
    return coeffs if (agree >= len(xs) - t).all() else None


def _entrywise_decode(interp: np.ndarray, master: tuple, k: int, t: int, q: int) -> np.ndarray:
    """Fallback decoder: one key-equation solve per column of `interp`, the
    stacked interpolants of the received word, as in `_interleaved_decode`.

    Returns the k x E coefficients, or raises DecodingFailure at the first
    column with no codeword within distance t.
    """
    coeffs = []
    for col in interp.T:
        # Python ints: field.py arithmetic must never see fixed-width scalars.
        found = _key_equation(master, col.tolist(), k, t, q)
        if found is None:
            raise DecodingFailure(f"an entry has no codeword within distance {t}")
        coeffs.append(found[0])
    return np.array(coeffs, dtype=np.int64).T


class Scheme:
    """Common contract for the four computation strategies.

    Each scheme is a generator, a placement, a solve and a recovery rule.
    `_layout` gives the generator rows that combine A's m and B's n column
    blocks (None: that input is not coded) and, per worker, the row of each
    that it stores. `_stacks` applies them, one stack per input, and
    `encode` cuts the stacks into shares. `_select` stacks the results that
    `decode` may use, and `_solve` returns the m*n output blocks as one array,
    a flattened block per row in (j, k) order, built with one `mulmod` for
    all mds1d groups or per product peel round from coefficients cached per
    erasure pattern; one reshape turns it into the output.
    `latency` is the recovery rule, stated on a batch of trials, and the only
    statement of it: `decodable`, the harness's cut and the simulator all ask
    it.
    """

    name: str = ""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def validate(self, shape: ProblemShape) -> None:
        raise NotImplementedError

    def num_shares(self, shape: ProblemShape) -> int:
        return shape.N

    def _layout(self, shape: ProblemShape) -> tuple:
        """(gen_a, gen_b, placement): placement[i] is worker i's
        (row of gen_a, row of gen_b, evaluation point or None)."""
        raise NotImplementedError

    def check_inputs(self, a: FMatrix, b: FMatrix, shape: ProblemShape) -> None:
        """Raise InvalidParameters unless A and B are FMatrix and shape a
        ProblemShape, ShapeMismatch unless A and B live over the scheme's
        field, and InvalidParameters unless A is s x r and B is s x t."""
        if not isinstance(shape, ProblemShape):
            raise InvalidParameters(f"shape is a {type(shape).__name__}, not a ProblemShape")
        for name, mat in (("A", a), ("B", b)):
            if not isinstance(mat, FMatrix):
                raise InvalidParameters(f"{name} is a {type(mat).__name__}, not an FMatrix")
            if mat.ctx != self.ctx:
                raise ShapeMismatch(f"{name} lives over F_{mat.ctx.q}, the scheme over F_{self.ctx.q}")
        if a.rows != shape.s or a.cols != shape.r:
            raise InvalidParameters(f"A is {a.rows}x{a.cols}, shape wants {shape.s}x{shape.r}")
        if b.rows != shape.s or b.cols != shape.t:
            raise InvalidParameters(f"B is {b.rows}x{b.cols}, shape wants {shape.s}x{shape.t}")

    def encode(self, a: FMatrix, b: FMatrix, shape: ProblemShape, ids=None) -> list:
        """The shares of the workers `ids` (default: all num_shares), in that
        order, after `check_inputs`. An id outside range(num_shares) raises
        InvalidParameters."""
        self.check_inputs(a, b, shape)
        placement = self._layout(shape)[2]
        total = len(placement)
        ids = range(total) if ids is None else [as_int(i, "worker id") for i in ids]
        if not all(0 <= i < total for i in ids):
            raise InvalidParameters(f"worker ids must lie in [0, {total})")
        a_coded, b_coded = self._stacks(a, b, shape, ids)
        return [
            WorkerShare(i, FMatrix(at, self.ctx, _canonical=True),
                        FMatrix(bt, self.ctx, _canonical=True), placement[i][2])
            for i, at, bt in zip(ids, a_coded, b_coded)
        ]

    def _stacks(self, a: FMatrix, b: FMatrix, shape: ProblemShape, ids) -> tuple:
        """The stacks (len(ids), s, block_rows) of A~ and (len(ids), s,
        block_cols) of B~ of the workers `ids`, in that order, for checked
        inputs and ids. Each input is one `mulmod` of just the distinct
        generator rows those workers hold, so a worker's blocks do not depend
        on which other ids are asked for."""
        gen_a, gen_b, placement = self._layout(shape)
        held = np.array([placement[i][:2] for i in ids], dtype=np.int64).reshape(-1, 2)
        return (_coded_stack(gen_a, a, shape.m, held[:, 0]),
                _coded_stack(gen_b, b, shape.n, held[:, 1]))

    def decodable(self, responded, shape: ProblemShape) -> bool:
        """Whether the blocks of the `responded` worker ids determine the
        product: `latency` is finite on the trial in which they answer at
        time 0 and no other worker ever does. Ids outside range(num_shares)
        belong to no worker and are ignored."""
        total = self.num_shares(shape)
        times = np.full((1, total), math.inf)
        times.put([i for i in responded if 0 <= i < total], 0.0)
        return bool(self.latency(times, shape)[0] < math.inf)

    def latency(self, times: np.ndarray, shape: ProblemShape) -> np.ndarray:
        """The recovery rule: each trial's earliest time at which the workers
        done by then are decodable (+inf: never), from a (trials, num_shares)
        array of completion times, +inf for a worker that never answers. A
        superset of a decodable set is decodable."""
        raise NotImplementedError

    def _select(self, results, shares: list, shape: ProblemShape) -> tuple:
        """(ids, blocks): the sorted ids of the workers in `shares` that sent
        a result, and the first result of each, stacked in that order. Raises
        ShapeMismatch for a kept block of the wrong shape, then
        NotEnoughResults unless the kept ids are decodable. `_Accepted`
        results, which need no shares, are returned as they are. Results and
        shares that are not lists of WorkerResult and WorkerShare raise
        InvalidParameters."""
        if isinstance(results, _Accepted):
            return results.ids, results.blocks
        for name, items, cls in (("results", results, WorkerResult), ("shares", shares, WorkerShare)):
            if not isinstance(items, (list, tuple)) or not all(isinstance(x, cls) for x in items):
                raise InvalidParameters(f"{self.name}: {name} must be a list of {cls.__name__}")
        held = {s.worker_id for s in shares}
        first = _first_per_worker(results)
        ids = sorted(i for i in first if i in held)
        blocks = [first[i].c_tilde.data for i in ids]
        want = (shape.block_rows, shape.block_cols)
        for i, c in zip(ids, blocks):
            if c.shape != want:
                raise ShapeMismatch(f"worker {i} sent a block of shape {c.shape}, not {want}")
        if not self.decodable(ids, shape):
            raise NotEnoughResults(f"{self.name}: {len(ids)} distinct results are not decodable")
        return ids, np.stack(blocks)

    def decode(self, results, shares: list, shape: ProblemShape) -> FMatrix:
        return _assemble(self._solve(*self._select(results, shares, shape), shape), shape, self.ctx)

    def _solve(self, ids: list, blocks: np.ndarray, shape: ProblemShape) -> np.ndarray:
        """The (m*n, block_rows*block_cols) array whose row j*n + k is output
        block A_j^T B_k, flattened, from the blocks of a decodable set of
        workers: blocks[i] is worker ids[i]'s, and ids are sorted."""
        raise NotImplementedError

    def threshold(self, shape: ProblemShape) -> int:
        raise NotImplementedError

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        """Rough multiply-accumulate count of one decode, for latency modeling."""
        raise NotImplementedError


class PolyScheme(Scheme):
    """The polynomial code at the points x_i = i, i = 0..N-1.

    With A and B split into m and n column blocks, worker i stores
    A~_i = sum_j A_j x_i^j and B~_i = sum_k B_k x_i^(k m). Its product is
    the value at x_i of a polynomial of degree mn - 1 with A_j^T B_k at
    degree j + k m, so any mn of the N <= q distinct points interpolate it.
    """

    name = "poly"

    def required_results(self, shape: ProblemShape) -> int:
        return shape.m * shape.n

    def validate(self, shape: ProblemShape) -> None:
        _evaluation_points(shape.N, self.ctx)
        if shape.N < self.required_results(shape):
            raise InvalidParameters(
                f"N={shape.N} below the polynomial code threshold "
                f"{self.required_results(shape)}"
            )

    def _layout(self, shape: ProblemShape) -> tuple:
        pts = _evaluation_points(shape.N, self.ctx)
        a_gen = _vandermonde(pts, range(shape.m), self.ctx)
        b_gen = _vandermonde(pts, [k * shape.m for k in range(shape.n)], self.ctx)
        return a_gen, b_gen, [(i, i, x) for i, x in enumerate(pts)]

    def latency(self, times: np.ndarray, shape: ProblemShape) -> np.ndarray:
        k = self.required_results(shape)  # fewer workers than K never decode
        return np.sort(times, axis=1)[:, k - 1] if times.shape[1] >= k else np.full(len(times), np.inf)

    def _solve(self, ids: list, blocks: np.ndarray, shape: ProblemShape) -> np.ndarray:
        # Interpolate from the lowest worker ids, so the work is deterministic;
        # worker i's point is i.
        k = self.required_results(shape)
        weights = _interpolation_weights(ids[:k], self.ctx)
        exps = [j + kb * shape.m for j in range(shape.m) for kb in range(shape.n)]
        return mulmod(weights[exps], blocks[:k].reshape(k, -1), self.ctx.q)

    def decode_with_errors(
        self, results: list, shares: list, shape: ProblemShape, max_errors: int = None
    ) -> FMatrix:
        """Decode from all N results when up to t = `max_errors` are wrong.

        Each output entry is a Reed-Solomon codeword of length N and dimension
        K = required_results. It decodes to the unique polynomial of degree
        < K that agrees with at least N - t workers, the one `bw_decode` of
        that entry returns; DecodingFailure is raised when some entry has
        none. t defaults to floor((N - K)/2), the largest value allowed; a t
        that is not an integer in [0, floor((N - K)/2)] raises
        InvalidParameters.

        Up to t wrong workers are corrected, and up to N - K - t are detected
        (DecodingFailure). More than N - K - t coordinated faults can put the
        received word within t of a wrong codeword, which is then returned
        silently. t = 0 is pure detection of up to N - K faulty workers.

        All N results are interpolated at once, one weight product giving
        every entry's interpolant. If none has degree K or more, no worker
        erred. Otherwise a faulty worker corrupts its whole block, so all
        entries share one set of error positions: the faulty workers are
        located once, by Gao's key equation on a random fold of the
        interpolants, and the entries decoded together
        (`_interleaved_decode`). The key equation runs entry by entry only
        when that result fails its check.
        """
        ids, blocks = self._select(results, shares, shape)
        if len(ids) != shape.N:
            raise NotEnoughResults("error decoding needs results from all N workers")
        k = self.required_results(shape)
        radius = (shape.N - k) // 2
        t = radius if max_errors is None else as_int(max_errors, "max_errors")
        if not 0 <= t <= radius:
            raise InvalidParameters(f"max_errors={t} is outside [0, (N - K)/2 = {radius}]")
        q = self.ctx.q
        received = blocks.reshape(len(ids), -1)  # worker i's point is i
        interp = mulmod(_interpolation_weights(ids, self.ctx), received, q)
        coeffs = interp[:k]
        if interp[k:].any():
            master = _master_of(tuple(ids), q)
            coeffs = _interleaved_decode(ids, received, interp, master, k, t, self.ctx)
            if coeffs is None:
                coeffs = _entrywise_decode(interp, master, k, t, q)
        exps = [j + k * shape.m for j in range(shape.m) for k in range(shape.n)]
        return _assemble(coeffs[exps], shape, self.ctx)

    def threshold(self, shape: ProblemShape) -> int:
        return self.required_results(shape)

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        k = self.required_results(shape)
        return k * k + shape.m * shape.n * k * shape.block_rows * shape.block_cols


class Mds1dScheme(Scheme):
    """1D MDS code: redundancy on A only, B split uncoded across n groups."""

    name = "mds1d"

    def group_size(self, shape: ProblemShape) -> int:
        if shape.N % shape.n:
            raise NonDivisibleGroups(f"n={shape.n} does not divide N={shape.N}")
        g = shape.N // shape.n
        if g < shape.m:
            raise InvalidParameters(f"group size {g} below m={shape.m}")
        return g

    def validate(self, shape: ProblemShape) -> None:
        self.group_size(shape)

    def _layout(self, shape: ProblemShape) -> tuple:
        # Worker i holds coded A block i mod g and B block i div g (its group).
        g = self.group_size(shape)
        gen = systematic_generator(g, shape.m, self.ctx)
        return gen, None, [(i % g, i // g, None) for i in range(shape.N)]

    def latency(self, times: np.ndarray, shape: ProblemShape) -> np.ndarray:
        groups = times.reshape(times.shape[0], shape.n, self.group_size(shape))
        # each group needs its m-th fastest; the slowest group gates the decode
        return np.sort(groups, axis=2)[:, :, shape.m - 1].max(axis=1)

    def _solve(self, ids: list, blocks: np.ndarray, shape: ProblemShape) -> np.ndarray:
        g, m, n = self.group_size(shape), shape.m, shape.n
        # Each group is one line whose unknowns are its systematic blocks,
        # solved from its first m known blocks; all n groups are one batched
        # product, whose block (group k, position j) is output block (j, k).
        # Group k's ids sit together in the sorted ids, from its first one on.
        first = np.searchsorted(ids, np.arange(n) * g)[:, None] + np.arange(m)
        haves = (np.asarray(ids)[first] % g).tolist()
        coeffs = np.stack([_line_coeffs(g, m, self.ctx, tuple(have), tuple(range(m)))
                           for have in haves])
        out = mulmod(coeffs, blocks[first].reshape(n, m, -1), self.ctx.q)
        return out.transpose(1, 0, 2).reshape(m * n, -1)

    def threshold(self, shape: ProblemShape) -> int:
        g = self.group_size(shape)
        return shape.N - g + shape.m

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        return shape.n * (shape.m ** 3 + shape.m * shape.m * shape.block_rows * shape.block_cols)


class ProductScheme(Scheme):
    """Product code: MDS redundancy on both inputs over a sqrt(N) grid,
    decoded by peeling in alternating row and column rounds."""

    name = "product"

    def grid_side(self, shape: ProblemShape) -> int:
        if shape.m != shape.n:
            raise InvalidGrid(f"product code needs m = n, got m={shape.m}, n={shape.n}")
        side = math.isqrt(shape.N)
        if side * side != shape.N:
            raise InvalidGrid(f"N={shape.N} is not a perfect square")
        if side < shape.m:
            raise InvalidGrid(f"grid side {side} below m={shape.m}")
        return side

    def validate(self, shape: ProblemShape) -> None:
        self.grid_side(shape)

    def _layout(self, shape: ProblemShape) -> tuple:
        # Worker i sits at grid cell (row, col) = divmod(i, side): coded A
        # block col and coded B block row.
        side = self.grid_side(shape)
        gen = systematic_generator(side, shape.m, self.ctx)
        return gen, gen, [(i % side, i // side, None) for i in range(shape.N)]

    def latency(self, times: np.ndarray, shape: ProblemShape) -> np.ndarray:
        """Per trial, the time at which peeling first recovers the systematic cells.

        A cell is known at the earliest of its own arrival and the m-th
        smallest known time in its row or in its column. The answer is the
        largest grid below the arrival times that this rule fixes: the time
        at which row/column peeling from the workers done by then first
        holds each cell.

        Steps alternate, a row step then a column step, each lowering every
        cell to at most the m-th smallest of its line; transposing the grid
        after a step puts the other axis last. A step is idempotent: it
        leaves each line's m-th smallest unchanged and no cell above it. So
        from the second step on, a trial whose step lowered nothing is fixed
        by both steps; its answer is written and it leaves the live set. A
        quiet first step proves nothing, as the columns were never stepped,
        so the first step checks nothing.

        Exactness: both steps are monotone, and the greatest fixed point G
        below the arrivals is fixed by each, so no order of steps from the
        arrivals goes below G. The loop stops at a grid fixed by both steps,
        which is at most G, so at G. Entries are always arrival times, so
        the result is exact, ties and +inf included.
        """
        side, m = self.grid_side(shape), shape.m
        grid = np.array(times, dtype=float).reshape(-1, side, side)  # lowered in place
        np.minimum(grid, np.partition(grid, m - 1, axis=2)[:, :, m - 1, None], out=grid)
        grid = grid.transpose(0, 2, 1)
        out = np.empty(len(grid))
        live = np.arange(len(grid))
        while live.size:
            kth = np.partition(grid, m - 1, axis=2)[:, :, m - 1, None]
            moved = (kth < grid).any(axis=(1, 2))
            np.minimum(grid, kth, out=grid)
            grid = grid.transpose(0, 2, 1)
            if not moved.all():
                out[live[~moved]] = grid[~moved, :m, :m].max(axis=(1, 2))
                grid, live = grid[moved], live[moved]
        return out

    def _solve(self, ids: list, blocks: np.ndarray, shape: ProblemShape) -> np.ndarray:
        side, m = self.grid_side(shape), shape.m
        # grid[row, col] is worker row*side + col's block, flattened, unread
        # until known. A column round peels the rows of the transposed views.
        grid = np.empty((side, side, shape.block_rows * shape.block_cols), dtype=np.int64)
        known = np.zeros((side, side), dtype=bool)
        grid.reshape(side * side, -1)[ids] = blocks.reshape(len(ids), -1)
        known.flat[ids] = True
        views, quiet = [(grid, known), (grid.transpose(1, 0, 2), known.T)], 0
        while not known[:m, :m].all():
            if quiet == 2:
                raise NotEnoughResults(f"{self.name}: peeling stalls before the systematic cells")
            quiet = 0 if self._peel_rows(*views[0], m) else quiet + 1
            views.reverse()
        # cell (row i, col j) holds A_j^T B_i, i.e. output block (j, i).
        return grid[:m, :m].transpose(1, 0, 2).reshape(m * m, -1)

    def _peel_rows(self, grid: np.ndarray, known: np.ndarray, m: int) -> bool:
        """Complete, in one `mulmod`, every row of the (side, side, E) grid
        with at least m known cells but not all: its other side - m cells
        from its first m known ones. Returns whether any row was completed."""
        side = len(known)
        count = known.sum(axis=1)
        ready = np.flatnonzero((count >= m) & (count < side))
        if not ready.size:
            return False
        # Per ready row, its known positions in order, then the others.
        order = np.argsort(~known[ready], axis=1, kind="stable")
        have, want = order[:, :m], np.sort(order[:, m:], axis=1)
        coeffs = np.stack([_line_coeffs(side, m, self.ctx, tuple(h), tuple(w))
                           for h, w in zip(have.tolist(), want.tolist())])
        grid[ready[:, None], want] = mulmod(coeffs, grid[ready[:, None], have], self.ctx.q)
        known[ready] = True
        return True

    def threshold(self, shape: ProblemShape) -> int:
        side = self.grid_side(shape)
        return 2 * (shape.m - 1) * side - (shape.m - 1) ** 2 + 1

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        side = self.grid_side(shape)
        return 2 * side * (shape.m ** 3 + side * shape.m * shape.block_rows * shape.block_cols)


class UncodedScheme(Scheme):
    """mn workers each hold one raw (A_j, B_k) pair; all must respond."""

    name = "uncoded"

    def num_shares(self, shape: ProblemShape) -> int:
        return shape.m * shape.n

    def validate(self, shape: ProblemShape) -> None:
        if shape.N < shape.m * shape.n:
            raise InvalidParameters(f"uncoded needs N >= mn = {shape.m * shape.n}")

    def _layout(self, shape: ProblemShape) -> tuple:
        n = shape.n
        return None, None, [(i // n, i % n, None) for i in range(shape.m * n)]

    def latency(self, times: np.ndarray, shape: ProblemShape) -> np.ndarray:
        return times.max(axis=1)

    def _solve(self, ids: list, blocks: np.ndarray, shape: ProblemShape) -> np.ndarray:
        # Worker j*n + k holds output block (j, k), and every worker answered.
        return blocks.reshape(len(ids), -1)

    def threshold(self, shape: ProblemShape) -> int:
        return shape.m * shape.n

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        return shape.r * shape.t


SCHEMES = (PolyScheme, Mds1dScheme, ProductScheme, UncodedScheme)
SCHEME_NAMES = tuple(cls.name for cls in SCHEMES)


def get_scheme(name: str, ctx: FieldCtx) -> Scheme:
    if name not in SCHEME_NAMES:
        raise InvalidParameters(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")
    return SCHEMES[SCHEME_NAMES.index(name)](ctx)


def threshold(name: str, shape: ProblemShape, ctx: FieldCtx = None) -> int:
    """Worst-case recovery threshold of the named scheme on this shape."""
    return get_scheme(name, ctx or FieldCtx()).threshold(shape)


def threshold_table(m: int, n: int, n_range, ctx: FieldCtx = None) -> list:
    """Rows (N, scheme, threshold) for every scheme defined at each N, for
    integers m, n >= 1 and N >= 1."""
    m, n = as_int(m, "m"), as_int(n, "n")
    if min(m, n) < 1:
        raise InvalidParameters(f"m and n must be positive, got m={m}, n={n}")
    n_range = [as_int(big_n, "N") for big_n in n_range]
    if min(n_range, default=1) < 1:
        raise InvalidParameters(f"N must be positive, got {min(n_range)}")
    ctx = ctx or FieldCtx()
    rows = []
    for big_n in n_range:
        shape = ProblemShape(s=max(m, n), r=m, t=n, m=m, n=n, N=big_n)
        for name in SCHEME_NAMES:
            try:
                rows.append((big_n, name, threshold(name, shape, ctx)))
            except PolycodeError:
                continue
    return rows
