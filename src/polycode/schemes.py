"""The four computation strategies behind one contract.

Each scheme exposes encode / decodable / latency / decode / threshold, and
differs from the others only in its generators, its placement, its solve and
its recovery rule. Encoding yields one WorkerShare per logical worker; each
worker computes the block product of its two stored matrices; the master
decodes once the responded set satisfies the scheme's recovery rule.

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
from .field import FieldCtx, as_int, bw_decode, invert_matrix, lagrange_weight_matrix
from .matrixcore import (
    FMatrix,
    ProblemShape,
    canonical,
    combine,
    mulmod,
    split_cols,
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
    return WorkerResult(share.worker_id, transpose_mul(share.a_tilde, share.b_tilde))


def compute_shares(shares: list) -> list:
    """`worker_compute` of each share, as one `mulmod` over the stacked
    A~^T and B~. Raises ShapeMismatch, as `transpose_mul` does, for operands
    in different fields or with different row counts, and for blocks whose
    shapes differ from the first share's."""
    if not shares:
        return []
    ctx = shares[0].a_tilde.ctx
    a_shape, b_shape = shares[0].a_tilde.data.shape, shares[0].b_tilde.data.shape
    for sh in shares:
        if sh.a_tilde.ctx != ctx or sh.b_tilde.ctx != ctx:
            raise ShapeMismatch("operands live in different fields")
        if sh.a_tilde.data.shape != a_shape or sh.b_tilde.data.shape != b_shape:
            raise ShapeMismatch(f"worker {sh.worker_id} holds blocks of other shapes")
    if a_shape[0] != b_shape[0]:
        raise ShapeMismatch(f"row counts differ: {a_shape[0]} vs {b_shape[0]}")
    a = np.stack([sh.a_tilde.data for sh in shares])
    b = np.stack([sh.b_tilde.data for sh in shares])
    out = mulmod(a.transpose(0, 2, 1), b, ctx.q)
    return [WorkerResult(sh.worker_id, FMatrix(c, ctx, _canonical=True))
            for sh, c in zip(shares, out)]


def _coded_rows(gen, blocks: list, rows: list):
    """Generator row -> coded block for each of `rows`: one `combine` of the
    distinct rows of gen with an input's column blocks. With gen None the
    input is uncoded, and row j is its column block j itself, not an
    identity product."""
    if gen is None:
        return blocks
    distinct = list(dict.fromkeys(rows))
    return dict(zip(distinct, combine(gen[distinct], blocks)))


def _first_per_worker(results: list) -> dict:
    """Worker id -> the first result carrying it; later duplicates are ignored."""
    return {r.worker_id: r for r in reversed(results)}


def _evaluation_points(big_n: int, ctx: FieldCtx) -> list:
    """The points 0..N-1; N > q raises, as they would not be distinct in F_q."""
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


def _interpolation_weights(xs, ctx: FieldCtx) -> np.ndarray:
    """`lagrange_weight_matrix` at the points xs as an int64 array, built once
    per (points, field) and read-only. Repeated points raise
    DuplicateEvaluationPoint on every call."""
    return _interpolation_weights_of(tuple(map(operator.index, xs)), ctx)


@functools.lru_cache(maxsize=32)
def _interpolation_weights_of(xs: tuple, ctx: FieldCtx) -> np.ndarray:
    weights = np.array(lagrange_weight_matrix(list(xs), ctx), dtype=np.int64)
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


def _interleaved_decode(xs: list, received: np.ndarray, k: int, t: int, ctx: FieldCtx):
    """Collaborative decoding of an interleaved Reed-Solomon word.

    Row i of the N x E array `received` holds worker i's entries; each column
    is a codeword of dimension k, and its errors sit at the faulty workers,
    which all columns share. A random combination of the columns keeps those
    error positions, so one Berlekamp-Welch solve on it locates them. The
    first k rows it found correct then give every column's coefficients with
    one weight product (Bleichenbacher, Kiayias and Yung, 2003).

    Returns the k x E coefficients, lowest degree first, only if re-encoding
    them agrees with every column at N - t workers or more: then each column
    is the unique codeword within distance t, the one `_entrywise_decode`
    returns. Otherwise returns None: the fold found no codeword, cancelled an
    error, or the columns err at different workers.
    """
    q = ctx.q
    rng = np.random.default_rng(_FOLD_SEED)
    fold = rng.integers(0, q, size=(received.shape[1], 1), dtype=np.int64)
    word = mulmod(received, fold, q)[:, 0].tolist()
    try:
        poly = bw_decode(list(zip(xs, word)), k, t, ctx)
    except DecodingFailure:
        return None
    clean = [i for i, (x, w) in enumerate(zip(xs, word)) if poly.evaluate(x, ctx) == w][:k]
    weights = _interpolation_weights([xs[i] for i in clean], ctx)
    coeffs = mulmod(weights, received[clean], q)
    vander = _vandermonde(xs, range(k), ctx)
    agree = (mulmod(vander, coeffs, q) == received).sum(axis=0)
    return coeffs if (agree >= len(xs) - t).all() else None


def _entrywise_decode(xs: list, received: np.ndarray, k: int, t: int, ctx: FieldCtx) -> np.ndarray:
    """Reference decoder: one Berlekamp-Welch solve per column of `received`.

    Returns the k x E coefficients, or raises DecodingFailure at the first
    column with no codeword within distance t.
    """
    # Python ints: field.py arithmetic must never see fixed-width scalars.
    polys = [bw_decode(list(zip(xs, col)), k, t, ctx).coeffs for col in received.T.tolist()]
    return np.array(polys, dtype=np.int64).T


class Scheme:
    """Common contract for the four computation strategies.

    Each scheme is a generator, a placement, a solve and a recovery rule.
    `_layout` gives the generator rows that combine A's m and B's n column
    blocks (None: that input is not coded) and, per worker, the row of each
    that it stores. `encode` applies them; `decode` keeps the first result of
    each worker with a share, checks its shape and `decodable`, and hands the
    kept blocks' arrays to `_solve`. `_solve` returns the m*n output blocks as
    one array, a flattened block per row in (j, k) order, built with one
    `mulmod` per group batch or peeled line from coefficients cached per
    erasure pattern; one reshape turns it into the output. `latency` is the
    recovery rule, stated on a batch of trials, and the only statement of
    it: `decodable`, the harness's cut and the simulator all ask it.
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
        """Raise ShapeMismatch unless A and B live over the scheme's field,
        and InvalidParameters unless A is s x r and B is s x t."""
        for name, mat in (("A", a), ("B", b)):
            if mat.ctx != self.ctx:
                raise ShapeMismatch(f"{name} lives over F_{mat.ctx.q}, the scheme over F_{self.ctx.q}")
        if a.rows != shape.s or a.cols != shape.r:
            raise InvalidParameters(f"A is {a.rows}x{a.cols}, shape wants {shape.s}x{shape.r}")
        if b.rows != shape.s or b.cols != shape.t:
            raise InvalidParameters(f"B is {b.rows}x{b.cols}, shape wants {shape.s}x{shape.t}")

    def encode(self, a: FMatrix, b: FMatrix, shape: ProblemShape, ids=None) -> list:
        """The shares of the workers `ids` (default: all num_shares), in that
        order, after `check_inputs`. Each input is one `combine` of just the
        distinct generator rows those workers hold, so a row that several
        workers share is built once, and a share's blocks do not depend on
        which other ids are asked for. An id outside range(num_shares) raises
        InvalidParameters."""
        self.check_inputs(a, b, shape)
        gen_a, gen_b, placement = self._layout(shape)
        total = len(placement)
        ids = range(total) if ids is None else [as_int(i, "worker id") for i in ids]
        if not all(0 <= i < total for i in ids):
            raise InvalidParameters(f"worker ids must lie in [0, {total})")
        held = [placement[i] for i in ids]
        a_coded = _coded_rows(gen_a, split_cols(a, shape.m), [ja for ja, _, _ in held])
        b_coded = _coded_rows(gen_b, split_cols(b, shape.n), [kb for _, kb, _ in held])
        return [
            WorkerShare(worker_id=i, a_tilde=a_coded[ja], b_tilde=b_coded[kb], x=x)
            for i, (ja, kb, x) in zip(ids, held)
        ]

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

    def _select(self, results: list, shares: list, shape: ProblemShape) -> dict:
        """Worker id -> block array of the first result from each worker that
        has a share; results from other ids are dropped. Raises ShapeMismatch
        for a kept block of the wrong shape, then NotEnoughResults unless the
        kept ids are decodable."""
        ids = {s.worker_id for s in shares}
        cells = {i: r.c_tilde.data for i, r in _first_per_worker(results).items() if i in ids}
        want = (shape.block_rows, shape.block_cols)
        for i, c in cells.items():
            if c.shape != want:
                raise ShapeMismatch(f"worker {i} sent a block of shape {c.shape}, not {want}")
        if not self.decodable(cells.keys(), shape):
            raise NotEnoughResults(f"{self.name}: {len(cells)} distinct results are not decodable")
        return cells

    def decode(self, results: list, shares: list, shape: ProblemShape) -> FMatrix:
        return _assemble(self._solve(self._select(results, shares, shape), shares, shape),
                         shape, self.ctx)

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> np.ndarray:
        """The (m*n, block_rows*block_cols) array whose row j*n + k is output
        block A_j^T B_k, flattened, from a decodable set of worker blocks."""
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

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> np.ndarray:
        # Interpolate from the lowest worker ids, so the work is deterministic.
        picked = sorted(cells)[: self.required_results(shape)]
        x_of = {s.worker_id: s.x for s in shares}
        weights = _interpolation_weights([x_of[i] for i in picked], self.ctx)
        exps = [j + k * shape.m for j in range(shape.m) for k in range(shape.n)]
        known = np.stack([cells[i] for i in picked]).reshape(len(picked), -1)
        return mulmod(weights[exps], known, self.ctx.q)

    def decode_with_errors(
        self, results: list, shares: list, shape: ProblemShape, max_errors: int = None
    ) -> FMatrix:
        """Decode from all N results when up to t = `max_errors` are wrong.

        Each output entry is a Reed-Solomon codeword of length N and dimension
        K = required_results. It decodes to the unique polynomial of degree
        < K that agrees with at least N - t workers, the one entrywise
        Berlekamp-Welch returns; DecodingFailure is raised when some entry
        has none. t defaults to floor((N - K)/2), the largest value allowed;
        a t outside [0, floor((N - K)/2)] raises InvalidParameters.

        Up to t wrong workers are corrected, and up to N - K - t are detected
        (DecodingFailure). More than N - K - t coordinated faults can put the
        received word within t of a wrong codeword, which is then returned
        silently. t = 0 is pure detection of up to N - K faulty workers.

        A faulty worker corrupts its whole block, so all entries share one
        set of error positions: the faulty workers are located once and the
        entries decoded together (`_interleaved_decode`). Entry-by-entry
        Berlekamp-Welch runs only when that result fails its check.
        """
        cells = self._select(results, shares, shape)
        if len(cells) != shape.N:
            raise NotEnoughResults("error decoding needs results from all N workers")
        k = self.required_results(shape)
        t = (shape.N - k) // 2 if max_errors is None else max_errors
        ordered = sorted(cells)
        x_of = {s.worker_id: s.x for s in shares}
        xs = [x_of[i] for i in ordered]
        received = np.stack([cells[i] for i in ordered]).reshape(len(ordered), -1)
        coeffs = _interleaved_decode(xs, received, k, t, self.ctx)
        if coeffs is None:
            coeffs = _entrywise_decode(xs, received, k, t, self.ctx)
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

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> np.ndarray:
        g, m, n = self.group_size(shape), shape.m, shape.n
        # Each group is one line whose unknowns are its systematic blocks,
        # solved from its first m known blocks; all n groups are one batched
        # product, whose block (group k, position j) is output block (j, k).
        haves = [tuple(j for j in range(g) if k * g + j in cells)[:m] for k in range(n)]
        coeffs = np.stack([_line_coeffs(g, m, self.ctx, have, tuple(range(m))) for have in haves])
        known = np.stack([cells[k * g + j] for k, have in enumerate(haves) for j in have])
        out = mulmod(coeffs, known.reshape(n, m, -1), self.ctx.q)
        return out.transpose(1, 0, 2).reshape(m * n, -1)

    def threshold(self, shape: ProblemShape) -> int:
        g = self.group_size(shape)
        return shape.N - g + shape.m

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        return shape.n * (shape.m ** 3 + shape.m * shape.m * shape.block_rows * shape.block_cols)


class ProductScheme(Scheme):
    """Product code: MDS redundancy on both inputs over a sqrt(N) grid,
    decoded by iterative row/column peeling."""

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

    def _peel_known(self, responded: set, side: int, m: int) -> list:
        """The schedule of row/column peeling from the responded set: each
        line that gains cells, in order, as the range of its `side` worker
        ids; position j of a line is coded by generator row j.

        Worker i holds cell divmod(i, side). A row (or column) with at least m
        known cells decodes fully; completed lines are propagated with a work
        queue, O(side^2) overall.
        """
        known = set(responded)
        row_count = [0] * side
        col_count = [0] * side
        for i in known:
            row_count[i // side] += 1
            col_count[i % side] += 1
        stack = [range(r * side, (r + 1) * side) for r in range(side) if row_count[r] >= m]
        stack += [range(c, side * side, side) for c in range(side) if col_count[c] >= m]
        order = []
        while stack:
            line = stack.pop()
            if known.issuperset(line):
                continue
            order.append(line)
            # The completed line's own count is already >= m, so only the
            # crossing lines can reach m here.
            for i in line:
                if i in known:
                    continue
                known.add(i)
                r, c = divmod(i, side)
                row_count[r] += 1
                col_count[c] += 1
                if row_count[r] == m:
                    stack.append(range(r * side, (r + 1) * side))
                if col_count[c] == m:
                    stack.append(range(c, side * side, side))
        return order

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

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> np.ndarray:
        side, m = self.grid_side(shape), shape.m
        # Row i of the work array is worker i's block, flattened; rows of
        # cells not yet known are never read.
        work = np.empty((side * side, shape.block_rows * shape.block_cols), dtype=np.int64)
        ids = sorted(cells)
        work[ids] = np.stack([cells[i] for i in ids]).reshape(len(ids), -1)
        known = set(ids)
        # Replay the peeling schedule: each line's missing cells are one
        # product of its cached coefficients with its first m known cells.
        for line in self._peel_known(known, side, m):
            have = tuple(j for j, i in enumerate(line) if i in known)[:m]
            want = tuple(j for j, i in enumerate(line) if i not in known)
            rows = work[line.start : line.stop : line.step]
            rows[list(want)] = mulmod(_line_coeffs(side, m, self.ctx, have, want),
                                      rows[list(have)], self.ctx.q)
            known.update(line)
        # cell (row i, col j) holds A_j^T B_i, i.e. output block (j, i).
        return work.reshape(side, side, -1)[:m, :m].transpose(1, 0, 2).reshape(m * m, -1)

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

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> np.ndarray:
        # Worker j*n + k holds output block (j, k).
        total = shape.m * shape.n
        return np.stack([cells[i] for i in range(total)]).reshape(total, -1)

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
    """Rows (N, scheme, threshold) for every scheme defined at each N."""
    ctx = ctx or FieldCtx()
    rows = []
    for big_n in n_range:
        for name in SCHEME_NAMES:
            try:
                shape = ProblemShape(
                    s=max(m, n), r=m, t=n, m=m, n=n, N=big_n, allow_wide=True
                )
                rows.append((big_n, name, threshold(name, shape, ctx)))
            except PolycodeError:
                continue
    return rows
