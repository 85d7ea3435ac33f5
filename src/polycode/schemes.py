"""The four computation strategies behind one contract.

Each scheme exposes encode / decodable / decode / threshold, and differs from
the others only in its generators, its placement and its solve. Encoding
yields one WorkerShare per logical worker; each worker computes the block
product of its two stored matrices; the master decodes once the responded set
satisfies the scheme's decodability predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecodingFailure,
    DuplicateEvaluationPoint,
    InvalidCodeParams,
    InvalidParameters,
    NonDivisibleGroups,
    InvalidGrid,
    NotEnoughResults,
    PolycodeError,
    ShapeMismatch,
    TooManyWorkersForField,
)
from .field import FieldCtx, bw_decode, invert_matrix, lagrange_weight_matrix
from .matrixcore import (
    FMatrix,
    ProblemShape,
    assemble_blocks,
    canonical,
    combine,
    mulmod,
    split_cols,
    transpose_mul,
)

SCHEME_NAMES = ("poly", "mds1d", "product", "uncoded")


@dataclass(frozen=True)
class CodeParams:
    """Exponent pair (alpha, beta) of the polynomial code."""

    alpha: int
    beta: int

    def validate(self, m: int, n: int) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise InvalidCodeParams("exponents must be nonnegative")
        exps = self.exponents(m, n)
        if len(set(exps.values())) != m * n:
            raise InvalidCodeParams(
                f"(alpha,beta)=({self.alpha},{self.beta}) collides for m={m}, n={n}"
            )

    def exponents(self, m: int, n: int) -> dict:
        return {(j, k): j * self.alpha + k * self.beta for j in range(m) for k in range(n)}

    def degree(self, m: int, n: int) -> int:
        return (m - 1) * self.alpha + (n - 1) * self.beta

    @classmethod
    def default(cls, m: int) -> "CodeParams":
        return cls(alpha=1, beta=m)


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


def _first_per_worker(results: list) -> dict:
    """Worker id -> the first result carrying it; later duplicates are ignored."""
    return {r.worker_id: r for r in reversed(results)}


def _evaluation_points(points: list, big_n: int, ctx: FieldCtx) -> list:
    """The N distinct evaluation points mod q, 0..N-1 unless given."""
    if big_n > ctx.q:
        raise TooManyWorkersForField(f"N={big_n} exceeds field size q={ctx.q}")
    pts = points if points is not None else list(range(big_n))
    if len(pts) != big_n:
        raise InvalidParameters(f"{len(pts)} points for N={big_n} workers")
    pts = [p % ctx.q for p in pts]
    if len(set(pts)) != len(pts):
        raise DuplicateEvaluationPoint("evaluation points must be distinct")
    return pts


def _vandermonde(xs: list, exps, ctx: FieldCtx) -> np.ndarray:
    """Row i holds x_i**e for each exponent e: the generator of an evaluation code."""
    return canonical([[ctx.pow(x, e) for e in exps] for x in xs], ctx.q)


def systematic_generator(total: int, k: int, ctx: FieldCtx) -> list:
    """Systematic (total, k) MDS generator [I; C] with C a Cauchy matrix.

    C[i][j] = 1 / (x_i - y_j) at y_j = j and x_i = k + i, with its rows and
    columns scaled so that its first row and first column are all ones; a
    single-parity code thus gets the all-ones row of the textbook examples.
    Every square submatrix of a Cauchy matrix is nonsingular, and nonzero
    scaling keeps that, so every k rows of [I; C] are invertible: the code is
    MDS by construction (Cauchy Reed-Solomon; Blömer et al., ICSI TR-95-048).
    The points 0..total-1 must be distinct in F_q, so total <= q; a larger
    total raises TooManyWorkersForField.
    """
    if k < 1 or total < k:
        raise InvalidParameters(f"generator needs total >= k >= 1, got ({total}, {k})")
    if total > ctx.q:
        raise TooManyWorkersForField(f"{total} coded blocks exceed field size q={ctx.q}")
    rows = [[1 if c == j else 0 for c in range(k)] for j in range(k)]
    # Scaled entry C[i][j] C[0][0] / (C[0][j] C[i][0]) = (k-j)(k+i) / ((k+i-j) k).
    for i in range(total - k):
        rows.append([(k - j) * (k + i) * ctx.inv((k + i - j) * k) % ctx.q for j in range(k)])
    return rows


def _fill_line(gen: list, line, cells: dict, want: list, ctx: FieldCtx) -> list:
    """Blocks at positions `want` of a line of workers whose position j holds
    generator row gen[j] applied to k unknown blocks U.

    U solves gen[j] U = cells[line[j]] over the line's first k known cells;
    the wanted blocks are gen[w] U, one product of gen[want] times the inverse
    with the stacked known blocks.
    """
    q = ctx.q
    have = [j for j, i in enumerate(line) if i in cells][: len(gen[0])]
    inv = invert_matrix([gen[j] for j in have], q)
    coeffs = [[sum(w * v for w, v in zip(gen[j], col)) % q for col in zip(*inv)] for j in want]
    return combine(coeffs, [cells[line[j]] for j in have])


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
    weights = lagrange_weight_matrix([xs[i] for i in clean], ctx)
    coeffs = mulmod(canonical(weights, q), received[clean], q)
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

    Each scheme is a generator, a placement and a solve. `_layout` gives the
    generator rows that combine A's m and B's n column blocks (None: that
    input is not coded) and, per worker, the row of each that it stores.
    `encode` applies them; `decode` keeps the first result of each worker
    with a share, checks `decodable`, and hands the blocks to `_solve`.
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

    def encode(self, a: FMatrix, b: FMatrix, shape: ProblemShape) -> list:
        if a.rows != shape.s or a.cols != shape.r:
            raise InvalidParameters(f"A is {a.rows}x{a.cols}, shape wants {shape.s}x{shape.r}")
        if b.rows != shape.s or b.cols != shape.t:
            raise InvalidParameters(f"B is {b.rows}x{b.cols}, shape wants {shape.s}x{shape.t}")
        gen_a, gen_b, placement = self._layout(shape)
        a_blocks, b_blocks = split_cols(a, shape.m), split_cols(b, shape.n)
        # An uncoded input is its column blocks themselves, not an identity product.
        a_coded = a_blocks if gen_a is None else combine(gen_a, a_blocks)
        b_coded = b_blocks if gen_b is None else combine(gen_b, b_blocks)
        return [
            WorkerShare(worker_id=i, a_tilde=a_coded[ja], b_tilde=b_coded[kb], x=x)
            for i, (ja, kb, x) in enumerate(placement)
        ]

    def decodable(self, responded, shape: ProblemShape) -> bool:
        """Whether the blocks of the `responded` worker ids determine the
        product. Ids outside range(num_shares) belong to no worker and are
        ignored."""
        total = self.num_shares(shape)
        return self._decodable({i for i in responded if 0 <= i < total}, shape)

    def _decodable(self, ids: set, shape: ProblemShape) -> bool:
        raise NotImplementedError

    def _select(self, results: list, shares: list, shape: ProblemShape) -> dict:
        """Worker id -> block of the first result from each worker that has a
        share; results from other ids are dropped. Raises NotEnoughResults
        unless the kept ids are decodable."""
        ids = {s.worker_id for s in shares}
        cells = {i: r.c_tilde for i, r in _first_per_worker(results).items() if i in ids}
        if not self.decodable(cells.keys(), shape):
            raise NotEnoughResults(f"{self.name}: {len(cells)} distinct results are not decodable")
        return cells

    def decode(self, results: list, shares: list, shape: ProblemShape) -> FMatrix:
        return assemble_blocks(self._solve(self._select(results, shares, shape), shares, shape))

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> list:
        """The m x n grid of output blocks A_j^T B_k from a decodable set of
        worker blocks."""
        raise NotImplementedError

    def threshold(self, shape: ProblemShape) -> int:
        raise NotImplementedError

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        """Rough multiply-accumulate count of one decode, for latency modeling."""
        raise NotImplementedError


class PolyScheme(Scheme):
    """(alpha, beta)-polynomial code; default (1, m) hits the mn threshold."""

    name = "poly"

    def __init__(self, ctx: FieldCtx, params: CodeParams = None, points: list = None):
        super().__init__(ctx)
        self.params = params
        self.points = points

    def _params(self, shape: ProblemShape) -> CodeParams:
        p = self.params or CodeParams.default(shape.m)
        p.validate(shape.m, shape.n)
        return p

    def required_results(self, shape: ProblemShape) -> int:
        return self._params(shape).degree(shape.m, shape.n) + 1

    def validate(self, shape: ProblemShape) -> None:
        self._params(shape)
        _evaluation_points(self.points, shape.N, self.ctx)
        if shape.N < self.required_results(shape):
            raise InvalidParameters(
                f"N={shape.N} below the polynomial code threshold "
                f"{self.required_results(shape)}"
            )

    def _layout(self, shape: ProblemShape) -> tuple:
        params = self._params(shape)
        pts = _evaluation_points(self.points, shape.N, self.ctx)
        a_gen = _vandermonde(pts, [j * params.alpha for j in range(shape.m)], self.ctx)
        b_gen = _vandermonde(pts, [k * params.beta for k in range(shape.n)], self.ctx)
        return a_gen, b_gen, [(i, i, x) for i, x in enumerate(pts)]

    def _decodable(self, ids: set, shape: ProblemShape) -> bool:
        return len(ids) >= self.required_results(shape)

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> list:
        # Interpolate from the lowest worker ids, so the work is deterministic.
        picked = sorted(cells)[: self.required_results(shape)]
        x_of = {s.worker_id: s.x for s in shares}
        weights = lagrange_weight_matrix([x_of[i] for i in picked], self.ctx)
        exps = self._params(shape).exponents(shape.m, shape.n)
        coeffs = combine([weights[e] for e in exps.values()], [cells[i] for i in picked])
        n = shape.n
        return [coeffs[j * n : (j + 1) * n] for j in range(shape.m)]

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
        params = self._params(shape)
        cells = self._select(results, shares, shape)
        if len(cells) != shape.N:
            raise NotEnoughResults("error decoding needs results from all N workers")
        k = self.required_results(shape)
        t = (shape.N - k) // 2 if max_errors is None else max_errors
        ordered = sorted(cells)
        x_of = {s.worker_id: s.x for s in shares}
        xs = [x_of[i] for i in ordered]
        br, bc = shape.block_rows, shape.block_cols
        for i in ordered:
            if cells[i].data.shape != (br, bc):
                raise ShapeMismatch(
                    f"worker {i} sent a {cells[i].rows}x{cells[i].cols} block, "
                    f"expected {br}x{bc}"
                )
        received = np.stack([cells[i].data.reshape(br * bc) for i in ordered])
        coeffs = _interleaved_decode(xs, received, k, t, self.ctx)
        if coeffs is None:
            coeffs = _entrywise_decode(xs, received, k, t, self.ctx)
        exps = params.exponents(shape.m, shape.n)
        grid = [[coeffs[exps[(j, kk)]].reshape(br, bc) for kk in range(shape.n)]
                for j in range(shape.m)]
        return FMatrix(np.block(grid), self.ctx, _canonical=True)

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

    def _decodable(self, ids: set, shape: ProblemShape) -> bool:
        g = self.group_size(shape)
        counts = [0] * shape.n
        for i in ids:
            counts[i // g] += 1
        return all(c >= shape.m for c in counts)

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> list:
        g, m = self.group_size(shape), shape.m
        gen = self._layout(shape)[0]
        # Each group is one line; its unknowns are the systematic blocks.
        cols = [_fill_line(gen, range(grp * g, (grp + 1) * g), cells, range(m), self.ctx)
                for grp in range(shape.n)]
        return [list(row) for row in zip(*cols)]

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

    def _peel_known(self, responded: set, side: int, m: int) -> tuple:
        """Workers whose cells are derivable from the responded set by
        row/column peeling, and the schedule that derives them.

        Worker i holds cell divmod(i, side). A row (or column) with at least m
        known cells decodes fully; completed lines are propagated with a work
        queue, O(side^2) overall. The schedule lists, in order, each line that
        gained cells, as the range of its `side` worker ids: position j of a
        line is coded by generator row j.
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
        return known, order

    def _decodable(self, ids: set, shape: ProblemShape) -> bool:
        side = self.grid_side(shape)
        known, _ = self._peel_known(ids, side, shape.m)
        return all(r * side + c in known for r in range(shape.m) for c in range(shape.m))

    def peel_latency(self, times: np.ndarray, shape: ProblemShape) -> np.ndarray:
        """Per-trial time at which peeling first recovers the systematic cells,
        from a (trials, N) array of worker completion times.

        A cell is known at the earliest of its own arrival and the m-th
        smallest known time in its row or in its column. Iterating that rule
        from the arrival times only lowers entries, and it stops at the
        largest solution below them: the time at which `_peel_known` on the
        workers done by then first holds each cell. Entries are always
        arrival times, so the result is exact, ties included. The set-based
        `decodable` stays for single calls on one grid, where it is faster.
        """
        side, m = self.grid_side(shape), shape.m
        known = np.asarray(times, dtype=float).reshape(-1, side, side)
        while True:
            # `take` copies, so each partitioned grid is freed at once: the
            # peak holds two grids, not five.
            row_kth = np.partition(known, m - 1, axis=2).take(m - 1, axis=2)
            col_kth = np.partition(known, m - 1, axis=1).take(m - 1, axis=1)
            peeled = np.minimum(row_kth[:, :, None], col_kth[:, None, :])
            np.minimum(peeled, known, out=peeled)
            if np.array_equal(peeled, known):
                return known[:, :m, :m].max(axis=(1, 2))
            known = peeled

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> list:
        side, m = self.grid_side(shape), shape.m
        gen = self._layout(shape)[0]
        # Replay the peeling schedule: each line's missing cells are solved
        # from its first m known cells.
        for line in self._peel_known(set(cells), side, m)[1]:
            missing = [j for j, i in enumerate(line) if i not in cells]
            filled = _fill_line(gen, line, cells, missing, self.ctx)
            cells.update((line[j], blk) for j, blk in zip(missing, filled))
        # cell (row i, col j) holds A_j^T B_i, i.e. output block (j, i).
        return [[cells[i * side + j] for i in range(m)] for j in range(m)]

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

    def _decodable(self, ids: set, shape: ProblemShape) -> bool:
        return len(ids) == shape.m * shape.n

    def _solve(self, cells: dict, shares: list, shape: ProblemShape) -> list:
        n = shape.n
        return [[cells[j * n + k] for k in range(n)] for j in range(shape.m)]

    def threshold(self, shape: ProblemShape) -> int:
        return shape.m * shape.n

    def decode_op_estimate(self, shape: ProblemShape) -> int:
        return shape.r * shape.t


def get_scheme(name: str, ctx: FieldCtx, **kwargs) -> Scheme:
    table = {
        "poly": PolyScheme,
        "mds1d": Mds1dScheme,
        "product": ProductScheme,
        "uncoded": UncodedScheme,
    }
    if name not in table:
        raise InvalidParameters(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")
    return table[name](ctx, **kwargs)


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
