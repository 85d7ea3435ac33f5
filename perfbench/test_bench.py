"""Self-tests of the benchmark: oracle, fault generator, verdict and tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import polycode  # noqa: E402
from polycode import schemes  # noqa: E402
from polycode.errors import DecodingFailure  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import MISCORRECTED, Q  # noqa: E402


def tiny_runs(conv=False):
    w = workloads.SchemeRuns("tiny", s=4, m=2, big_n=16,
                             conv_block=3 if conv else None, conv_n=8 if conv else None)
    w.setup()
    return w


def tiny_fault():
    w = workloads.FaultBW(s=4, m=2, big_n=12)
    w.setup()
    return w


# -- oracle ------------------------------------------------------------------

def test_oracle_matmul_matches_python_ints():
    rng = np.random.default_rng(0)
    a = rng.integers(0, Q, size=(3, 2), dtype=np.int64)
    b = rng.integers(0, Q, size=(3, 4), dtype=np.int64)
    want = [[sum(int(a[k, i]) * int(b[k, j]) for k in range(3)) % Q for j in range(4)]
            for i in range(2)]
    assert oracle.matmul(a, b, Q).tolist() == want


def test_oracle_convolve_matches_schoolbook():
    rng = np.random.default_rng(1)
    a = [int(v) for v in rng.integers(0, Q, size=7)]
    b = [int(v) for v in rng.integers(0, Q, size=5)]
    want = [0] * 11
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] = (want[i + j] + x * y) % Q
    assert oracle.convolve(a, b, Q) == want


def test_oracle_latency_rejects_a_late_answer():
    samples = np.random.default_rng(2).exponential(size=(5, 16)) + 1.0
    poly = np.sort(samples, axis=1)[:, 3]  # m = n = 2: the 4th arrival
    assert oracle.latency_ok("poly", poly, samples, 2, 2)
    late = np.sort(samples, axis=1)[:, 4]
    assert not oracle.latency_ok("poly", late, samples, 2, 2)


def test_oracle_product_peeling_matches_polycode():
    shape = polycode.ProblemShape(4, 4, 4, 2, 2, 16)
    scheme = schemes.ProductScheme(polycode.FieldCtx(Q))
    masks = np.random.default_rng(3).random((200, 16)) < 0.45
    got = oracle.DECODABLE["product"](masks, 2, 2)
    want = [scheme.decodable(set(np.flatnonzero(row).tolist()), shape) for row in masks]
    assert got.tolist() == want


# -- fault generator ---------------------------------------------------------

@pytest.mark.parametrize("f", [5, 6, 7, 8])
def test_forged_codeword_agrees_with_exactly_the_stated_honest_workers(f):
    big_n, k, radius = 12, 4, 4
    xs = list(range(big_n))
    fault = workloads.make_fault(np.random.default_rng(f), xs, f, True, k, radius, (2, 2))
    assert len(fault["agree"]) == big_n - radius - f
    assert not set(fault["agree"]) & set(fault["faulty"])
    assert len(fault["coeffs"]) == k  # degree exactly k - 1
    for i in range(big_n):
        zero = workloads._poly_eval(fault["coeffs"], xs[i], Q) == 0
        assert zero == (i in fault["agree"])
    # The forged word agrees with N - radius workers, so it is within the radius.
    assert len(fault["faulty"]) + len(fault["agree"]) == big_n - radius


def test_forged_fault_is_miscorrected_and_counted():
    w = tiny_fault()
    inp = w.make_inputs(np.random.default_rng(0), w.cycle - 1)  # f = 8, forged
    assert inp["fault"]["forged"] and inp["fault"]["f"] == 8
    out, _ = w.run_job(inp)
    assert w.check(inp, out) == MISCORRECTED


def test_random_faults_within_radius_decode_exactly():
    w = tiny_fault()
    for index in range(w.radius + 1):
        inp = w.make_inputs(np.random.default_rng(index), index)
        assert inp["fault"]["f"] == index and len(inp["fault"]["blocks"]) == index
        out, _ = w.run_job(inp)
        assert w.check(inp, out) is None


# -- verdict ----------------------------------------------------------------

def test_corrupted_product_counts_as_failure(monkeypatch):
    original = schemes.PolyScheme.decode

    def corrupt(self, results, shares, shape):
        c = original(self, results, shares, shape)
        data = (np.asarray(c.data, dtype=object) + 1) % Q
        return polycode.FMatrix(data.tolist(), c.ctx)

    monkeypatch.setattr(schemes.PolyScheme, "decode", corrupt)
    monkeypatch.setattr(run, "MIN_JOBS", 3)
    res = run.measure(tiny_runs(), seed=0, seconds=0)
    assert res["failures"] == {"wrong_product": 3}
    assert run.end_to_end(res, 1.0)["ok_share"][0] == 0.0
    assert not workloads.verdict(res["failures"])


def test_decoding_failure_is_success_only_beyond_the_radius(monkeypatch):
    def refuse(self, results, shares, shape):
        raise DecodingFailure("refused")

    monkeypatch.setattr(schemes.PolyScheme, "decode_with_errors", refuse)
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    w = tiny_fault()
    res = run.measure(w, seed=0, seconds=0)
    assert res["jobs"] == w.cycle
    within = 2 * (w.radius + 1)  # f = 0..radius, once per pass
    assert res["failures"] == {"decoding_failure_within_radius": within}
    assert not workloads.verdict(res["failures"])
    assert workloads.verdict({MISCORRECTED: 4})


def test_clean_runs_pass(monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    for w in (tiny_runs(conv=True), tiny_fault()):
        res = run.measure(w, seed=1, seconds=0)
        assert set(res["failures"]) <= {MISCORRECTED}


# -- tracer -----------------------------------------------------------------

def test_tracer_reports_missing_targets_and_restores_functions():
    gone = (spans.Target("matrixcore.gone", "polycode.matrixcore", "no_such_function"),
            spans.Target("nowhere.gone", "polycode.no_such_module", "f"))
    tracer = spans.Tracer(spans.TARGETS + gone)
    before = schemes.transpose_mul
    tracer.install(1)
    try:
        assert schemes.transpose_mul is not before
        assert polycode.transpose_mul is schemes.transpose_mul
    finally:
        tracer.uninstall()
    assert schemes.transpose_mul is before
    assert tracer.missing == ["polycode.matrixcore.no_such_function",
                              "polycode.no_such_module.f"]


def test_traced_run_self_times_add_up(monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 4)
    w = tiny_runs(conv=True)
    tracer = spans.Tracer()
    res = run.measure(w, seed=2, seconds=0, tracer=tracer)
    metrics = run.per_layer(res, tracer, w)
    assert metrics["cluster.run.calls"][0] == len(workloads.SCHEME_NAMES)
    assert metrics["convolution.conv_decode.calls"][0] == 1
    assert metrics["trace.missing_targets"][0] == 0
    # Self times of nested spans sum to the top-level spans' durations.
    self_total = sum(v for k, (v, _u) in metrics.items()
                     if k.endswith(".self_s") and not k.startswith("trace."))
    covered = sum(tracer.covered_ns_by_job().values()) / 1e9 / len(res["times"][True])
    assert self_total == pytest.approx(covered, rel=1e-9)
    assert covered <= max(res["times"][True])
