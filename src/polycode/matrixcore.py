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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInput,
    InvalidParameters,
    NonDivisiblePartition,
    ShapeMismatch,
)
from .field import FieldCtx, as_int

# Integers up to 2**53 are exact in float64.
_EXACT_BITS = 53


def canonical(values, q: int) -> np.ndarray:
    """`values` reduced into [0, q), as an int64 array of the same shape.

    Integer ndarrays that fit in int64 are reduced in numpy. Anything else
    (nested lists, Python ints of any size, floats, objects) goes through
    int(v) % q, so no value is wrapped or rounded in a fixed-width type
    before it is reduced. An entry that int(v) does not equal, such as 1.5,
    raises InvalidParameters; an integral float such as 2.0 is kept.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    kind, size = arr.dtype.kind, arr.dtype.itemsize
    if kind in "bi" or (kind == "u" and size < 8):
        return np.mod(arr.astype(np.int64), q)
    flat = arr.reshape(-1)
    try:
        ints = [int(v) for v in flat]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameters("field entries must be finite numbers") from None
    if any(i != v for i, v in zip(ints, flat)):
        raise InvalidParameters("field entries must be integers")
    return np.array([i % q for i in ints], dtype=np.int64).reshape(arr.shape)


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
    D_d = sum_{i+j=d} x_i @ y_j; with Ly = 1 a diagonal is one product. The
    products are added into the int64 accumulator as numpy casts them, so
    besides the limbs and the float products only the result is allocated.
    """
    n, k = x.shape[-2:]
    p = y.shape[-1]
    bits = (q - 1).bit_length()
    width, x_count, _, y_count = _limbs(bits, k)
    # y is split only in the symmetric case, into limbs as wide as x's.
    shifts = np.arange(0, width * x_count, width, dtype=np.int64)
    mask = (1 << width) - 1
    if x_count > 1:
        x = ((x[..., None, :, :] >> shifts[:, None, None]) & mask).reshape(
            *x.shape[:-2], x_count * n, k)
    if y_count > 1:
        y = ((y[..., :, None, :] >> shifts[:, None]) & mask).reshape(
            *y.shape[:-2], k, y_count * p)
    prods = x.astype(np.float64) @ y.astype(np.float64)
    prods = prods.reshape(*prods.shape[:-2], x_count, n, y_count, p)

    # With acc < q, acc << step stays below 2**63 and acc << (step - 1) below
    # 2**62. A diagonal is below L * 2**53 <= 2**59, so the last shift of
    # each Horner step and the add fit in int64 before one reduction.
    step = 63 - bits
    acc = prods[..., x_count - 1, :, y_count - 1, :].astype(np.int64)
    acc %= q
    for d in range(x_count + y_count - 3, -1, -1):
        left = width
        while left >= step:
            acc <<= step
            acc %= q
            left -= step
        acc <<= left
        for i in range(max(0, d - y_count + 1), min(d, x_count - 1) + 1):
            np.add(acc, prods[..., i, :, d - i, :], out=acc, dtype=np.int64, casting="unsafe")
        acc %= q
    return acc


class FMatrix:
    """Immutable dense matrix with canonical int64 entries in [0, q)."""

    __slots__ = ("data", "ctx")

    def __init__(self, data, ctx: FieldCtx, _canonical: bool = False):
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
    allow_wide: bool = field(default=False, compare=False)

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
            if not self.allow_wide:
                raise InvalidParameters(
                    "both inputs are wide (s < r and s < t): the product is rank "
                    "deficient; pass allow_wide=True to proceed anyway"
                )
            warnings.warn("both input matrices are wide; output is rank deficient")

    @property
    def block_rows(self) -> int:
        return self.r // self.m

    @property
    def block_cols(self) -> int:
        return self.t // self.n


def split_cols(mat: FMatrix, parts: int) -> list:
    """Split into `parts` equal column blocks; concatenation restores the input."""
    if parts < 1 or mat.cols % parts:
        raise NonDivisiblePartition(f"{parts} does not divide {mat.cols} columns")
    w = mat.cols // parts
    return [
        FMatrix(mat.data[:, i * w : (i + 1) * w], mat.ctx, _canonical=True)
        for i in range(parts)
    ]


def transpose_mul(a: FMatrix, b: FMatrix) -> FMatrix:
    """Exact C = A^T B over F_q."""
    if a.ctx != b.ctx:
        raise ShapeMismatch("operands live in different fields")
    if a.rows != b.rows:
        raise ShapeMismatch(f"row counts differ: {a.rows} vs {b.rows}")
    return FMatrix(mulmod(a.data.T, b.data, a.ctx.q), a.ctx, _canonical=True)


def combine(coeffs: list, blocks: list) -> list:
    """One block sum_j coeffs[i][j] * blocks[j] over F_q per row i of coeffs.

    Encoding (a generator times the input blocks) and erasure decoding
    (interpolation weights or an inverse times the worker results) are such
    maps, so each is one `mulmod` of coeffs with the stacked blocks.
    """
    if not blocks:
        raise EmptyInput("linear combination over an empty block list")
    ctx = blocks[0].ctx
    shape = blocks[0].data.shape
    for b in blocks:
        if b.data.shape != shape or b.ctx != ctx:
            raise ShapeMismatch("combined blocks must share shape and field")
    coef = canonical(coeffs, ctx.q)
    if coef.ndim != 2 or coef.shape[1] != len(blocks):
        raise ShapeMismatch(f"{len(blocks)} blocks vs coefficient rows of shape {coef.shape}")
    stacked = np.stack([b.data for b in blocks]).reshape(len(blocks), -1)
    out = mulmod(coef, stacked, ctx.q)
    return [FMatrix(row.reshape(shape), ctx, _canonical=True) for row in out]


def lincomb(blocks: list, coeffs: list) -> FMatrix:
    """Entrywise sum of coeffs[j] * blocks[j] over F_q."""
    return combine([coeffs], blocks)[0]


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
