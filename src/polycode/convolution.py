"""Distributed convolution by a polynomial code of degree m+n-2.

Vectors are numpy int64 arrays of canonical entries in [0, q). Worker i
stores sum_j a_j i^j and sum_k b_k i^k and convolves them locally. The master
interpolates the m+n-1 coefficient vectors at the ids of the workers it
decodes from and reassembles the output by overlap-add. Encoding, the local
convolution and interpolation are each one `mulmod` product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidParameters, NonDivisiblePartition, NotEnoughResults
from .field import FieldCtx, as_int
from .matrixcore import canonical, load_array, mulmod, save_array
from .schemes import _evaluation_points, _first_per_worker, _interpolation_weights, _vandermonde


def as_vector(values, ctx: FieldCtx):
    return canonical(values, ctx.q).reshape(-1)


def split_vector(vec, parts: int, ctx: FieldCtx) -> list:
    """Split into `parts` equal-length contiguous blocks."""
    vec = as_vector(vec, ctx)
    parts = as_int(parts, "parts")
    if parts < 1 or len(vec) % parts:
        raise NonDivisiblePartition(f"{parts} does not divide vector length {len(vec)}")
    s = len(vec) // parts
    return [vec[i * s : (i + 1) * s] for i in range(parts)]


def conv_direct(a, b, ctx: FieldCtx):
    """Full linear convolution over F_q, length |a| + |b| - 1."""
    a = as_vector(a, ctx)
    b = as_vector(b, ctx)
    if len(a) == 0 or len(b) == 0:
        raise EmptyInput("convolution of an empty vector")
    # Toeplitz matrix T[r, j] = a[r - j] (zero outside a), so T @ b = a * b:
    # a read-only view of a zero-padded copy, one step down a row and one
    # step back along it.
    padded = np.zeros(len(a) + 2 * (len(b) - 1), dtype=np.int64)
    padded[len(b) - 1 : len(b) - 1 + len(a)] = a
    step = padded.strides[0]
    toeplitz = np.lib.stride_tricks.as_strided(padded[len(b) - 1 :], (len(a) + len(b) - 1, len(b)),
                                               (step, -step), writeable=False)
    return mulmod(toeplitz, b[:, None], ctx.q)[:, 0]


@dataclass(frozen=True)
class ConvShare:
    """Combined input blocks stored at one worker."""

    worker_id: int
    a_tilde: object
    b_tilde: object


@dataclass(frozen=True)
class ConvResult:
    worker_id: int
    value: object  # local convolution, length 2s - 1


def conv_encode(a_blocks: list, b_blocks: list, big_n: int, ctx: FieldCtx) -> list:
    """Worker i stores sum_j a_j i^j and sum_k b_k i^k."""
    if not isinstance(ctx, FieldCtx):
        raise InvalidParameters(f"ctx is a {type(ctx).__name__}, not a FieldCtx")
    if not a_blocks or not b_blocks:
        raise EmptyInput("need at least one block of each input")
    s = len(a_blocks[0])
    if any(len(blk) != s for blk in [*a_blocks, *b_blocks]):
        raise InvalidParameters("all blocks must share the same length")
    pts = _evaluation_points(big_n, ctx)

    def encode(blocks):
        gen = _vandermonde(pts, range(len(blocks)), ctx)
        return mulmod(gen, np.stack([as_vector(blk, ctx) for blk in blocks]), ctx.q)

    a_t, b_t = encode(a_blocks), encode(b_blocks)
    return [ConvShare(i, a_t[i], b_t[i]) for i in pts]


def conv_worker_compute(share: ConvShare, ctx: FieldCtx) -> ConvResult:
    return ConvResult(share.worker_id, conv_direct(share.a_tilde, share.b_tilde, ctx))


def conv_decode(results: list, m: int, n: int, ctx: FieldCtx):
    """Recover c = a * b from any m+n-1 worker results.

    It keeps the first result of each worker and uses those of the m+n-1
    lowest worker ids; worker i's point is i. A negative id, which no worker
    holds, is dropped, as `Scheme.decode` drops ids no share holds.
    Positionwise interpolation of the degree m+n-2 polynomial yields the
    m+n-1 coefficient vectors (each a sum of cross-term convolutions), which
    overlap-add into the output: coefficient slot d contributes to positions
    d*s .. d*s + 2s - 2.
    """
    m, n = as_int(m, "m"), as_int(n, "n")
    if m < 1 or n < 1:
        raise InvalidParameters(f"m and n must be positive, got m={m}, n={n}")
    need = m + n - 1
    first = {i: r for i, r in _first_per_worker(results).items() if i >= 0}
    if len(first) < need:
        raise NotEnoughResults(f"need {need} distinct results, got {len(first)}")
    ids = sorted(first)[:need]
    picked = [first[i] for i in ids]
    weights = _interpolation_weights(ids, ctx)
    vlen = len(picked[0].value)
    if vlen % 2 != 1:
        raise InvalidParameters("worker results must have odd length 2s-1")
    s = (vlen + 1) // 2
    if any(len(r.value) != vlen for r in picked):
        raise InvalidParameters("worker results must share one length")
    coeff_vecs = mulmod(weights, np.stack([as_vector(r.value, ctx) for r in picked]), ctx.q)
    # Slots d and d+1 overlap, d and d+2 do not: each output sums at most two
    # canonical entries, below 2q < 2**63.
    out = np.zeros(s * (m + n) - 1, dtype=np.int64)
    for d in range(need):
        out[d * s : d * s + vlen] += coeff_vecs[d]
    return out % ctx.q


def save_vector(vec, path, ctx: FieldCtx) -> None:
    save_array(as_vector(vec, ctx), path, ctx.q)


def load_vector(path, ctx: FieldCtx = None) -> tuple:
    """(vector, ctx) from a file in the `save_array` format."""
    return load_array(path, 1, ctx)


def pad_to_multiple(vec, parts: int, ctx: FieldCtx):
    """Zero-pad so that `parts` divides the length (CLI convenience)."""
    vec = as_vector(vec, ctx)
    parts = as_int(parts, "parts")
    if parts < 1:
        raise NonDivisiblePartition(f"cannot pad to a multiple of {parts}")
    rem = len(vec) % parts
    if rem:
        vec = np.concatenate([vec, np.zeros(parts - rem, dtype=np.int64)])
    return vec


def conv_thresholds(m: int, n: int, big_n: int) -> dict:
    """Recovery-threshold comparison for one (m, n, N) convolution task."""
    m, n, big_n = as_int(m, "m"), as_int(n, "n"), as_int(big_n, "N")
    if min(m, n, big_n) < 1:
        raise InvalidParameters("m, n, N must be positive")
    out = {
        "conv_poly": m + n - 1,
        "via_matmul": m * n,
        "lower_bound": max(m, n),
    }
    if big_n % n == 0 and big_n // n >= m:
        out["coded_conv_baseline"] = big_n - big_n // n + m
    # Factor-2 guarantee: the lower bound always exceeds half the achieved threshold.
    assert out["lower_bound"] > out["conv_poly"] / 2
    return out
