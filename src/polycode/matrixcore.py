"""Dense matrices over F_q: column partitioning and exact products.

Entries are stored as canonical int64 in [0, q), with q < 2**62 (FieldCtx
enforces it). Values from outside are reduced once, at the input boundary
(`canonical`). Every block product, encode and erasure decode is a matrix
product over F_q and runs through one kernel, `mulmod`: the operands are split
into b-bit limbs, multiplied with float64 BLAS, which is exact while every
partial sum stays below 2**53, and recombined mod q in int64 (the FFLAS-FFPACK
approach of Dumas, Giorgi and Pernet). Both operands are split into L limbs
(k * (2**b - 1)**2 < 2**53, L**2 products), unless splitting only the left
one into L' limbs and passing the right one whole is exact
(k * (2**bits - 1) * (2**b - 1) < 2**53) and needs fewer products, L' < L**2.
The result is the only array a product allocates: each thread keeps one
float64 work buffer, which holds the largest call's limbs, products and
int64 scratch and never shrinks, and large accumulators are reduced by
numpy's libdivide quotient, acc - (acc // q) * q, instead of `%`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    InvalidParameters,
    NonDivisiblePartition,
    ShapeMismatch,
)
from .field import FieldCtx, as_int, field_ints

# Integers up to 2**53 are exact in float64.
_EXACT_BITS = 53


def canonical(values, q: int) -> np.ndarray:
    """`values` reduced into [0, q), as an int64 array of the same shape.

    Integer ndarrays that fit in int64 are reduced in numpy. Anything else
    (nested lists, Python ints of any size, floats, objects) is read as
    `field_ints` reads it, int(v) % q, so no value is wrapped or rounded in a
    fixed-width type before it is reduced. An entry that int(v) does not
    equal, such as 1.5, raises InvalidParameters; an integral float such as
    2.0 is kept. An object array is first cast to int64 in C, and kept when
    every cast entry equals its object; on any other outcome (an entry past
    int64, NaN, a str) `field_ints` reads it entry by entry.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    kind, size = arr.dtype.kind, arr.dtype.itemsize
    if kind in "bi" or (kind == "u" and size < 8):
        return np.mod(arr.astype(np.int64), q)
    if kind == "O":
        try:
            ints = arr.astype(np.int64)
            if (ints == arr).all():
                return np.mod(ints, q)
        except (TypeError, ValueError, OverflowError):
            pass
    return np.array(field_ints(arr.reshape(-1), q), dtype=np.int64).reshape(arr.shape)


def _limbs(bits: int, k: int) -> tuple:
    """(x width, x count, y width, y count): how `mulmod` splits its operands
    of `bits`-bit entries at inner dimension k into limbs.

    Symmetric split: both operands in L limbs of width b, the widest width
    with k * (2**b - 1)**2 < 2**53, narrowed to the smallest width that still
    needs only L limbs. One-sided split: y whole and x in L' limbs of width w,
    the widest with k * (2**bits - 1) * (2**w - 1) < 2**53, narrowed the same
    way. Either way every float64 limb product is exact. The one-sided split
    is chosen whenever its L' products are fewer than the symmetric L**2.
    """
    # The widest w with 2**w - 1 <= B is (B + 1).bit_length() - 1. B is
    # isqrt((2**53 - 1) // k) for both operands split, and
    # (2**53 - 1) // (k * (2**bits - 1)) for x split and y whole.
    k = max(k, 1)
    most = (1 << _EXACT_BITS) - 1
    width = min(bits, (math.isqrt(most // k) + 1).bit_length() - 1)
    count = -(-bits // width)
    x_width = min(bits, (most // (k * ((1 << bits) - 1)) + 1).bit_length() - 1)
    if x_width and -(-bits // x_width) < count * count:
        count = -(-bits // x_width)
        return -(-bits // count), count, bits, 1
    width = -(-bits // count)
    return width, count, width, count


# Each thread's float64 work buffer (`buf`) and, per call shape since it last
# grew, the views `mulmod` carves from it (`plans`). The views are dropped
# once _MAX_PLANS shapes are kept, so shapes seen once do not pile up.
_work = threading.local()
_MAX_PLANS = 256
# From this many result entries on, reducing by the libdivide quotient (three
# passes) is cheaper than one `%` pass.
_QUOTIENT_MIN = 1024


def _plan(x_shape: tuple, y_shape: tuple, bits: int) -> tuple:
    """This thread's views for a product of these shapes at `bits`-bit
    entries: the limb width, x's and y's float64 limb slots with their int64
    shift scratch, the float64 operands and products of the one BLAS call,
    the top product and the Horner diagonals below it, the cast scratch and
    the quotient scratch (None: the result is reduced by `%`).

    The work buffer holds the products, then x's limbs (..., Lx, n, k) and
    y's limbs (..., k, Ly, p). The limb shifts are done in int64 where the
    products will go, and each product is cast to int64, then divided, where
    the limbs were. The buffer grows to at least twice its size when a call
    needs more, and the views cut from the old one are dropped with it.
    """
    n, k = x_shape[-2:]
    p = y_shape[-1]
    width, x_count, _, y_count = _limbs(bits, k)
    batch = np.broadcast_shapes(x_shape[:-2], y_shape[:-2])
    out_shape = (*batch, n, p)
    x_size, y_size, out_size = math.prod(x_shape), math.prod(y_shape), math.prod(out_shape)
    x_end = max(out_size * x_count * y_count, x_size, y_size)
    y_end = x_end + x_size * x_count
    need = max(y_end + y_size * y_count, x_end + out_size)
    buf = getattr(_work, "buf", None)
    if buf is None or buf.size < need:
        _work.buf = buf = np.empty(max(need, 0 if buf is None else 2 * buf.size))
        _work.plans = {}
    elif len(_work.plans) >= _MAX_PLANS:
        _work.plans = {}
    prods = buf[: out_size * x_count * y_count].reshape(*batch, x_count * n, y_count * p)
    xf = buf[x_end:y_end].reshape(*x_shape[:-2], x_count, n, k)
    yf = buf[y_end : y_end + y_size * y_count].reshape(*y_shape[:-2], k, y_count, p)
    shifted = buf[:x_end].view(np.int64)
    cast = buf[x_end : x_end + out_size].view(np.int64).reshape(out_shape)
    blocks = prods.reshape(*batch, x_count, n, y_count, p)
    plan = (
        width,
        [xf[..., i, :, :] for i in range(x_count)],
        shifted[:x_size].reshape(x_shape),
        [yf[..., :, j, :] for j in range(y_count)],
        shifted[:y_size].reshape(y_shape),
        xf.reshape(*x_shape[:-2], x_count * n, k),
        yf.reshape(*y_shape[:-2], k, y_count * p),
        prods,
        blocks[..., x_count - 1, :, y_count - 1, :],
        [[blocks[..., i, :, d - i, :] for i in range(max(0, d - y_count + 1), min(d, x_count - 1) + 1)]
         for d in range(x_count + y_count - 3, -1, -1)],
        cast,
        cast if out_size >= _QUOTIENT_MIN else None,
    )
    _work.plans[(x_shape, y_shape, bits)] = plan
    return plan


def _split(v: np.ndarray, limbs: list, width: int, tmp: np.ndarray) -> None:
    """Write v's `width`-bit limbs, lowest first, into the float64 views
    `limbs`; the top limb is the rest of v, unmasked."""
    top = len(limbs) - 1
    for i, out in enumerate(limbs):
        src = np.right_shift(v, width * i, out=tmp) if i else v
        if i < top:
            src = np.bitwise_and(src, (1 << width) - 1, out=tmp)
        np.copyto(out, src)


def _reduce(acc: np.ndarray, q: int, quot: np.ndarray) -> None:
    """acc %= q in place, for acc >= 0, where the floor is exact. With a
    quotient scratch, by numpy's libdivide floor_divide by the scalar q."""
    if quot is None:
        np.remainder(acc, q, out=acc)
    else:
        np.floor_divide(acc, q, out=quot)
        np.multiply(quot, q, out=quot)
        np.subtract(acc, quot, out=acc)


def mulmod(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """Exact (x @ y) mod q for canonical int64 operands and q < 2**62.

    Operands may be stacks, x of shape (..., n, k) and y of shape (..., k, p),
    with batch axes that broadcast as in `np.matmul`; the result is then
    (..., n, p), and one BLAS call serves every slice.

    x is split into Lx limbs of b bits, x = sum_i 2**(b*i) x_i, and y into
    Ly limbs (`_limbs`): either Ly = Lx, with y's limbs b bits wide too, or
    Ly = 1 and y goes to BLAS whole, which is exact while
    k * (2**bits - 1) * (2**b - 1) < 2**53. At q = 2**31 - 1 the one-sided
    split takes 2 products instead of 4 for k <= 64, and 3 for k <= 2049; at
    q = 2**61 - 1 its bound never holds. Limb i of x is stacked as rows
    i*n .. i*n + n - 1 and limb j of y as columns j*p .. j*p + p - 1, so one
    float64 product yields every x_i @ y_j exactly, each an n x p block.
    Horner steps mod q recombine sum_d 2**(b*d) D_d over the diagonals
    D_d = sum_{i+j=d} x_i @ y_j; with Ly = 1 a diagonal is one product.

    The result is the only array a call allocates. Each thread keeps one
    float64 work buffer, as large as its largest call's limbs, products and
    int64 scratch, and never shrinks it: the limbs are written into it as
    float64, BLAS writes the products into it, and each product is cast
    into the scratch before it is added to the result. Every accumulator is
    >= 0, so from `_QUOTIENT_MIN` entries on it is reduced as
    acc - (acc // q) * q, by numpy's libdivide quotient, not by `%`.
    """
    bits = (q - 1).bit_length()
    try:
        plan = _work.plans[(x.shape, y.shape, bits)]
    except (AttributeError, KeyError):
        plan = _plan(x.shape, y.shape, bits)
    width, x_limbs, x_tmp, y_limbs, y_tmp, xf, yf, prods, top, diagonals, cast, quot = plan
    _split(x, x_limbs, width, x_tmp)
    _split(y, y_limbs, width, y_tmp)
    np.matmul(xf, yf, out=prods)

    # With acc < q, acc << step stays below 2**63 and acc << (step - 1) below
    # 2**62. A diagonal is below L * 2**53 <= 2**59, so the last shift of
    # each Horner step and the add fit in int64 before one reduction.
    step = 63 - bits
    full, left = divmod(width, step)
    acc = np.empty(top.shape, dtype=np.int64)
    np.copyto(acc, top, casting="unsafe")
    _reduce(acc, q, quot)
    for diagonal in diagonals:
        for _ in range(full):
            np.left_shift(acc, step, out=acc)
            _reduce(acc, q, quot)
        np.left_shift(acc, left, out=acc)
        for product in diagonal:
            np.copyto(cast, product, casting="unsafe")
            np.add(acc, cast, out=acc)
        _reduce(acc, q, quot)
    return acc


class FMatrix:
    """Immutable dense matrix with canonical int64 entries in [0, q)."""

    __slots__ = ("data", "ctx")

    def __init__(self, data, ctx: FieldCtx, _canonical: bool = False):
        if not isinstance(ctx, FieldCtx):
            raise InvalidParameters(f"ctx is a {type(ctx).__name__}, not a FieldCtx")
        arr = np.asarray(data, dtype=np.int64) if _canonical else canonical(data, ctx.q)
        if arr.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
        arr.flags.writeable = False
        self.data = arr
        self.ctx = ctx

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, FMatrix)
            and self.ctx == other.ctx
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )

    def __repr__(self):
        return f"FMatrix({self.rows}x{self.cols}, q={self.ctx.q})"

    @classmethod
    def zeros(cls, rows: int, cols: int, ctx: FieldCtx) -> "FMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), ctx, _canonical=True)

    @classmethod
    def random(cls, rows: int, cols: int, ctx: FieldCtx, rng: np.random.Generator) -> "FMatrix":
        vals = rng.integers(0, ctx.q, size=(rows, cols), dtype=np.int64)
        return cls(vals, ctx, _canonical=True)

    def digest(self) -> str:
        """Checksum of the canonical entries (hex), for run reports."""
        import hashlib

        h = hashlib.sha256()
        h.update(f"{self.rows} {self.cols} {self.ctx.q}\n".encode())
        h.update(" ".join(map(str, self.data.reshape(-1).tolist())).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class ProblemShape:
    """Dimensions and partitioning of one distributed multiplication task.

    A is s x r split into m column blocks, B is s x t split into n column
    blocks, computed by N workers.
    """

    s: int
    r: int
    t: int
    m: int
    n: int
    N: int

    def __post_init__(self):
        for name in ("s", "r", "t", "m", "n", "N"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"shape parameter {name}"))
        if min(self.s, self.r, self.t, self.m, self.n, self.N) < 1:
            raise InvalidParameters("all shape parameters must be positive")
        if self.r % self.m:
            raise NonDivisiblePartition(f"m={self.m} does not divide r={self.r}")
        if self.t % self.n:
            raise NonDivisiblePartition(f"n={self.n} does not divide t={self.t}")
        if self.s < self.r and self.s < self.t:
            raise InvalidParameters(
                "both inputs are wide (s < r and s < t): the product is rank deficient"
            )

    @property
    def block_rows(self) -> int:
        return self.r // self.m

    @property
    def block_cols(self) -> int:
        return self.t // self.n


def split_cols(mat: FMatrix, parts: int) -> list:
    """Split into `parts` equal column blocks; concatenation restores the input."""
    if not isinstance(mat, FMatrix):
        raise InvalidParameters(f"mat is a {type(mat).__name__}, not an FMatrix")
    parts = as_int(parts, "parts")
    if parts < 1 or mat.cols % parts:
        raise NonDivisiblePartition(f"{parts} does not divide {mat.cols} columns")
    w = mat.cols // parts
    return [
        FMatrix(mat.data[:, i * w : (i + 1) * w], mat.ctx, _canonical=True)
        for i in range(parts)
    ]


def transpose_mul(a: FMatrix, b: FMatrix) -> FMatrix:
    """Exact C = A^T B over F_q."""
    if not (isinstance(a, FMatrix) and isinstance(b, FMatrix)):
        raise InvalidParameters(f"operands are a {type(a).__name__} and a {type(b).__name__}, not FMatrix")
    if a.ctx != b.ctx:
        raise ShapeMismatch("operands live in different fields")
    if a.rows != b.rows:
        raise ShapeMismatch(f"row counts differ: {a.rows} vs {b.rows}")
    return FMatrix(mulmod(a.data.T, b.data, a.ctx.q), a.ctx, _canonical=True)


def lincomb(blocks: list, coeffs: list) -> FMatrix:
    """Entrywise sum of coeffs[j] * blocks[j] over F_q, as one `mulmod`."""
    if not blocks:
        raise EmptyInput("linear combination over an empty block list")
    ctx = blocks[0].ctx
    shape = blocks[0].data.shape
    for b in blocks:
        if b.data.shape != shape or b.ctx != ctx:
            raise ShapeMismatch("combined blocks must share shape and field")
    coef = canonical([coeffs], ctx.q)
    if coef.shape != (1, len(blocks)):
        raise ShapeMismatch(f"{len(blocks)} blocks vs coefficients of shape {coef.shape[1:]}")
    stacked = np.stack([b.data for b in blocks]).reshape(len(blocks), -1)
    return FMatrix(mulmod(coef, stacked, ctx.q).reshape(shape), ctx, _canonical=True)


def save_array(values, path, q: int) -> None:
    """The one text format: a header of the dimensions and q, then the
    entries, one line per row (a vector on one line)."""
    arr = canonical(values, q)
    with open(path, "w") as fh:
        fh.write(" ".join(map(str, arr.shape + (q,))) + "\n")
        for row in arr if arr.ndim == 2 else [arr]:
            fh.write(" ".join(map(str, row.tolist())) + "\n")


def load_array(path, ndim: int, ctx: FieldCtx = None) -> tuple:
    """(entries, ctx) from a `save_array` file with `ndim` dimensions.

    Whitespace is free, and entries are reduced mod q. A token that is not an
    integer, a negative dimension, a modulus other than ctx's or a wrong
    entry count raises InvalidParameters.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        nums = [int(t) for t in tokens]
    except ValueError:
        raise InvalidParameters(f"{path} holds a token that is not an integer") from None
    if len(nums) < ndim + 1:
        raise InvalidParameters(f"{path} is truncated")
    dims, q, vals = nums[:ndim], nums[ndim], nums[ndim + 1 :]
    if min(dims) < 0:
        raise InvalidParameters(f"{path} has negative dimensions {dims}")
    if ctx is None:
        ctx = FieldCtx(q)
    elif ctx.q != q:
        raise InvalidParameters(f"file modulus {q} differs from context {ctx.q}")
    if len(vals) != math.prod(dims):
        raise InvalidParameters(f"expected {math.prod(dims)} entries, found {len(vals)}")
    return canonical(vals, q).reshape(dims), ctx


def save_matrix(mat: FMatrix, path) -> None:
    save_array(mat.data, path, mat.ctx.q)


def load_matrix(path, ctx: FieldCtx = None) -> FMatrix:
    data, ctx = load_array(path, 2, ctx)
    return FMatrix(data, ctx, _canonical=True)
