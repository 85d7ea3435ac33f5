"""The benchmark's own reference results, independent of polycode's kernels.

Matrix products are recomputed with Python ints on numpy object arrays,
convolutions by Kronecker substitution into one big integer, and simulator
latencies are verified against a vectorised re-statement of each scheme's
decodability rule. None of them calls polycode arithmetic, so a kernel change
cannot agree with itself.
"""

from __future__ import annotations

import numpy as np


def matmul(a_raw: np.ndarray, b_raw: np.ndarray, q: int) -> np.ndarray:
    """(A^T B) mod q from the raw integer inputs, as an object array of ints."""
    a = np.array(a_raw.tolist(), dtype=object)
    b = np.array(b_raw.tolist(), dtype=object)
    return (a.T @ b) % q


def same_matrix(got, want: np.ndarray) -> bool:
    """True when an FMatrix holds exactly the reference entries."""
    data = np.asarray(got.data)
    return data.shape == want.shape and all(
        int(x) == y for x, y in zip(data.reshape(-1).tolist(), want.reshape(-1).tolist())
    )


def convolve(a: list, b: list, q: int) -> list:
    """Full linear convolution mod q by Kronecker substitution."""
    width = 2 * q.bit_length() + max(len(a), len(b)).bit_length() + 1
    pack = lambda vec: sum(int(v) << (i * width) for i, v in enumerate(vec))
    prod = pack(a) * pack(b)
    mask = (1 << width) - 1
    return [((prod >> (i * width)) & mask) % q for i in range(len(a) + len(b) - 1)]


# Decodability of each scheme on a boolean (trials x N) "has responded" mask.

def _poly(mask, m, n):
    return mask.sum(axis=1) >= m * n


def _uncoded(mask, m, n):
    return mask[:, : m * n].all(axis=1)


def _mds1d(mask, m, n):
    groups = mask.reshape(mask.shape[0], n, -1)
    return (groups.sum(axis=2) >= m).all(axis=1)


def _product(mask, m, n):
    side = int(round(mask.shape[1] ** 0.5))
    known = mask.reshape(mask.shape[0], side, side)
    while True:
        rows = known.sum(axis=2) >= m
        cols = known.sum(axis=1) >= m
        grown = known | rows[:, :, None] | cols[:, None, :]
        if (grown == known).all():
            break
        known = grown
    return known[:, :m, :m].all(axis=(1, 2))


DECODABLE = {"poly": _poly, "uncoded": _uncoded, "mds1d": _mds1d, "product": _product}


def latency_ok(name: str, latencies: np.ndarray, samples: np.ndarray, m: int, n: int) -> bool:
    """Each trial's latency is the first completion time at which the set of
    workers done by then is decodable, and the set done before it is not."""
    lat = np.asarray(latencies, dtype=float)[:, None]
    if lat.shape[0] != samples.shape[0]:
        return False
    pred = DECODABLE[name]
    return bool(pred(samples <= lat, m, n).all() and not pred(samples < lat, m, n).any())
