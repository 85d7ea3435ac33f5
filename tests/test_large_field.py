"""End to end at q = 2**61 - 1, checked against object-array oracles.

With entries near 2**61, any fixed-width numpy scalar that leaks into Python-int
field arithmetic, or any int64 product taken without the kernel, wraps
silently; every result here is compared with Python-int arithmetic that
cannot wrap.
"""

import numpy as np
import pytest

from polycode.cluster import StragglerPlan, run
from polycode.convolution import conv_decode, conv_encode, conv_worker_compute, split_vector
from polycode.field import FieldCtx
from polycode.matrixcore import FMatrix, ProblemShape
from polycode.schemes import SCHEME_NAMES, PolyScheme, WorkerResult, get_scheme, worker_compute

Q61 = FieldCtx(2**61 - 1)


def object_product(a, b, q):
    ao = np.array(a.data.tolist(), dtype=object)
    bo = np.array(b.data.tolist(), dtype=object)
    return (np.dot(ao.T, bo) % q).tolist()


def instance(shape, seed):
    rng = np.random.default_rng(seed)
    a = FMatrix.random(shape.s, shape.r, Q61, rng)
    b = FMatrix.random(shape.s, shape.t, Q61, rng)
    return a, b, object_product(a, b, Q61.q)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_cluster_run_every_scheme(name):
    shape = ProblemShape(s=12, r=6, t=6, m=2, n=2, N=16)
    a, b, want = instance(shape, seed=61)
    c, report = run(get_scheme(name, Q61), a, b, shape, plan=StragglerPlan("slow_random"), seed=3)
    assert c.data.dtype == np.int64
    assert c.data.tolist() == want
    assert report.output_digest == FMatrix(want, Q61).digest()


def test_decode_with_errors_at_full_radius():
    shape = ProblemShape(s=10, r=4, t=4, m=2, n=2, N=12)
    scheme = PolyScheme(Q61)
    a, b, want = instance(shape, seed=62)
    shares = scheme.encode(a, b, shape)
    results = [worker_compute(sh) for sh in shares]
    radius = (shape.N - scheme.required_results(shape)) // 2
    rng = np.random.default_rng(5)
    for wid in rng.choice(shape.N, size=radius, replace=False):
        noise = rng.integers(1, Q61.q, size=results[wid].c_tilde.data.shape, dtype=np.int64)
        wrong = (np.array(results[wid].c_tilde.data.tolist(), dtype=object) + noise.astype(object)) % Q61.q
        results[wid] = WorkerResult(int(wid), FMatrix(wrong, Q61))
    got = scheme.decode_with_errors(results, shares, shape)
    assert got.data.tolist() == want


def test_coded_convolution():
    m, n, s = 3, 2, 9
    rng = np.random.default_rng(63)
    a = [int(v) for v in rng.integers(0, Q61.q, size=m * s, dtype=np.int64)]
    b = [int(v) for v in rng.integers(0, Q61.q, size=n * s, dtype=np.int64)]
    want = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            want[i + j] = (want[i + j] + av * bv) % Q61.q
    shares = conv_encode(split_vector(a, m, Q61), split_vector(b, n, Q61), 7, Q61)
    results = [conv_worker_compute(sh, Q61) for sh in shares]
    got = conv_decode(results[2 : 2 + m + n - 1], m, n, Q61)
    assert got.tolist() == want
