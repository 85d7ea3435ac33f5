import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycode
from polycode import cluster, matrixcore, schemes
from polycode.cluster import DECODE_SECONDS_PER_OP, StragglerPlan, run
from polycode.errors import HarnessTimeout, InvalidParameters, ShapeMismatch
from polycode.field import FieldCtx
from polycode.matrixcore import FMatrix, ProblemShape, transpose_mul
from polycode.schemes import SCHEME_NAMES, Mds1dScheme, PolyScheme, UncodedScheme, get_scheme
from polycode.sim import LatencyModel
from recovery import arrival_cut
from test_decode_errors import shared_offset

BIG = FieldCtx()
# The default model scaled to hundredths of a second: the threads clock waits
# each worker's sampled time.
FAST = LatencyModel(shift=0.01, rate=100.0)


def make_instance(shape, seed=0):
    rng = np.random.default_rng(seed)
    a = FMatrix.random(shape.s, shape.r, BIG, rng)
    b = FMatrix.random(shape.s, shape.t, BIG, rng)
    return a, b, transpose_mul(a, b)


SHAPE5 = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)


class TestStragglerPlan:
    def test_invalid_modes(self):
        with pytest.raises(InvalidParameters):
            StragglerPlan(mode="bogus")
        with pytest.raises(InvalidParameters):
            StragglerPlan(mode="slow_random", factor=0.5)
        with pytest.raises(InvalidParameters):
            StragglerPlan(mode="per_worker", delays=(1.0, -2.0))
        with pytest.raises(InvalidParameters):
            StragglerPlan(mode="model_sampled")

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_factor_must_be_finite(self, bad):
        with pytest.raises(InvalidParameters):
            StragglerPlan(mode="slow_random", factor=bad)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_delays_must_be_finite(self, bad):
        with pytest.raises(InvalidParameters):
            StragglerPlan(mode="per_worker", delays=(bad, 1.0, 2.0, 3.0))

    def test_per_worker_times_pass_through(self):
        plan = StragglerPlan(mode="per_worker", delays=(3.0, 1.0, 2.0))
        rng = np.random.default_rng(0)
        times = plan.sample_times(3, rng, LatencyModel())
        assert list(times) == [3.0, 1.0, 2.0]

    def test_slow_random_scales_exactly_one(self):
        plan = StragglerPlan(mode="slow_random", factor=10.0)
        base = LatencyModel(kind="deterministic", value=1.0)
        rng = np.random.default_rng(1)
        times = plan.sample_times(6, rng, base)
        assert sorted(times)[:-1] == [1.0] * 5 and max(times) == 10.0

    def test_base_model_drives_the_default_plan(self):
        # A plan with no mode of its own draws every time from `base_model`.
        model = LatencyModel(kind="shifted_exponential", shift=2.5, rate=4.0)
        a, b, oracle = make_instance(SHAPE5)
        c, rep = run(PolyScheme(BIG), a, b, SHAPE5, plan=StragglerPlan(), seed=13, base_model=model)
        expect = model.sample(SHAPE5.N, np.random.default_rng(13))
        assert c == oracle
        assert rep.arrival_times == [(i, float(expect[i])) for i in rep.responders]
        assert rep.responders == sorted(range(5), key=lambda i: (expect[i], i))[:4]


class TestVirtualRuns:
    def test_poly_exact_under_straggler(self):
        a, b, oracle = make_instance(SHAPE5)
        plan = StragglerPlan(mode="per_worker", delays=(9.0, 1.0, 2.0, 3.0, 4.0))
        c, rep = run(PolyScheme(BIG), a, b, SHAPE5, plan=plan, seed=7)
        assert c == oracle
        assert rep.responders == [1, 2, 3, 4]  # worker 0 never consulted
        assert rep.scheme == "poly" and rep.output_digest == oracle.digest()

    def test_wall_latency_is_fire_time_plus_decode(self):
        a, b, _ = make_instance(SHAPE5)
        plan = StragglerPlan(mode="per_worker", delays=(9.0, 1.0, 2.0, 3.0, 4.0))
        scheme = PolyScheme(BIG)
        _, rep = run(scheme, a, b, SHAPE5, plan=plan, seed=7)
        decode = scheme.decode_op_estimate(SHAPE5) * DECODE_SECONDS_PER_OP
        assert rep.decode_time == decode
        assert rep.wall_latency == pytest.approx(4.0 + decode)
        assert all(t <= 4.0 for _, t in rep.arrival_times)

    def test_uncoded_waits_for_all(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=4)
        a, b, oracle = make_instance(shape)
        c, rep = run(UncodedScheme(BIG), a, b, shape, seed=3)
        assert c == oracle
        assert sorted(rep.responders) == [0, 1, 2, 3]

    def test_mds1d_run(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=6)
        a, b, oracle = make_instance(shape)
        c, rep = run(Mds1dScheme(BIG), a, b, shape, seed=11)
        assert c == oracle
        assert len(rep.responders) >= 4

    def test_same_seed_reproducible(self):
        a, b, _ = make_instance(SHAPE5)
        plan = StragglerPlan(mode="slow_random", factor=5.0)
        _, rep1 = run(PolyScheme(BIG), a, b, SHAPE5, plan=plan, seed=42)
        _, rep2 = run(PolyScheme(BIG), a, b, SHAPE5, plan=plan, seed=42)
        assert rep1.to_json() == rep2.to_json()

    def test_bytes_received_counts_used_blocks(self):
        a, b, _ = make_instance(SHAPE5)
        _, rep = run(PolyScheme(BIG), a, b, SHAPE5, seed=0)
        per_block = SHAPE5.block_rows * SHAPE5.block_cols * 4  # 4 bytes/element at q < 2^32
        assert rep.bytes_received == len(rep.responders) * per_block

    def test_unknown_clock_rejected(self):
        a, b, _ = make_instance(SHAPE5)
        with pytest.raises(InvalidParameters):
            run(PolyScheme(BIG), a, b, SHAPE5, clock="sundial")


@st.composite
def scheme_shapes(draw):
    """A scheme name and a small shape on which that scheme runs."""
    name = draw(st.sampled_from(SCHEME_NAMES))
    m = draw(st.integers(1, 3))
    n = m if name == "product" else draw(st.integers(1, 3))
    if name == "mds1d":
        big_n = n * draw(st.integers(m, m + 3))
    elif name == "product":
        big_n = draw(st.integers(m, m + 2)) ** 2
    else:
        big_n = m * n + draw(st.integers(0, 5))
    r, t = m * draw(st.integers(1, 3)), n * draw(st.integers(1, 3))
    s = min(r, t) + draw(st.integers(0, 3))
    return name, ProblemShape(s=s, r=r, t=t, m=m, n=n, N=big_n)


class TestVirtualCut:
    DELAYS = (5, 1, 1, 7, 2, 0, 3, 3, 9, 4, 4, 6, 8, 2, 5, 1)

    @settings(deadline=None, max_examples=150)
    @given(case=scheme_shapes(), data=st.data())
    def test_cut_equals_a_scan_of_every_arrival(self, case, data):
        # Delays from a few integers make ties common; ties go by worker id.
        name, shape = case
        delays = data.draw(st.lists(st.integers(0, 3), min_size=shape.N, max_size=shape.N))
        scheme = get_scheme(name, BIG)
        a, b, oracle = make_instance(shape, seed=len(delays))
        plan = StragglerPlan(mode="per_worker", delays=tuple(float(d) for d in delays))
        c, rep = run(scheme, a, b, shape, plan=plan)
        want = arrival_cut(name, shape, delays)
        assert rep.responders == want
        assert rep.arrival_times == [(i, float(delays[i])) for i in want]
        assert rep.wall_latency == delays[want[-1]] + rep.decode_time
        assert c == oracle

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_only_responders_compute_in_one_kernel_call(self, name, monkeypatch):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=16)
        scheme = get_scheme(name, BIG)
        log = SimpleNamespace(encoded=[], products=[])
        stacks, mulmod = scheme._stacks, cluster.mulmod

        def tracked(a, b, shape, ids):
            log.encoded.append(list(ids))
            return stacks(a, b, shape, ids)

        def counted_mulmod(x, y, q):
            log.products.append((x.shape, y.shape))
            return mulmod(x, y, q)

        def forbidden(share):
            raise AssertionError("the virtual clock computes no worker alone")

        monkeypatch.setattr(scheme, "_stacks", tracked)
        monkeypatch.setattr(cluster, "mulmod", counted_mulmod)
        monkeypatch.setattr(cluster, "worker_compute", forbidden)
        a, b, oracle = make_instance(shape)
        plan = StragglerPlan(mode="per_worker", delays=tuple(map(float, self.DELAYS)))
        c, rep = run(scheme, a, b, shape, plan=plan)
        assert c == oracle
        assert log.encoded == [sorted(rep.responders)]
        k = len(rep.responders)
        assert log.products == [((k, shape.block_rows, shape.s), (k, shape.s, shape.block_cols))]

    @pytest.mark.parametrize("clock", ("virtual", "threads"))
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_encode_builds_only_the_responders_rows(self, name, clock, monkeypatch):
        # Poly decodes from the 4 fastest of 16 workers: the virtual clock
        # builds those 4 rows of each generator, the threads clock all 16.
        # Delays in milliseconds keep the threads clock's waits short.
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=16)
        scheme = get_scheme(name, BIG)
        built, encoding, stacks, mulmod = [], [], scheme._stacks, schemes.mulmod

        def encode_stacks(*args):
            encoding.append(True)
            try:
                return stacks(*args)
            finally:
                encoding.pop()

        def logged(x, y, q):
            if encoding:
                built.append(sorted(map(tuple, x.tolist())))
            return mulmod(x, y, q)

        monkeypatch.setattr(scheme, "_stacks", encode_stacks)
        monkeypatch.setattr(schemes, "mulmod", logged)
        a, b, oracle = make_instance(shape)
        plan = StragglerPlan(mode="per_worker", delays=tuple(d * 1e-3 for d in self.DELAYS))
        c, rep = run(scheme, a, b, shape, plan=plan, clock=clock)
        encoded = rep.responders if clock == "virtual" else range(scheme.num_shares(shape))
        gen_a, gen_b, placement = scheme._layout(shape)
        want = [sorted({tuple(gen[placement[i][side]].tolist()) for i in encoded})
                for side, gen in enumerate((gen_a, gen_b)) if gen is not None]
        assert c == oracle
        assert built == want
        if name == "poly":
            assert [len(rows) for rows in built] == ([4, 4] if clock == "virtual" else [16, 16])

    def test_never_decodable_computes_no_worker(self, monkeypatch):
        # The cut is one call of the rule, on the workers' places in order.
        class Never(PolyScheme):
            seen = []

            def latency(self, times, shape):
                self.seen.append(times.tolist())
                return np.full(len(times), np.inf)

        computed = []
        monkeypatch.setattr(Never, "_stacks", lambda *args: computed.append(args))
        monkeypatch.setattr(cluster, "mulmod", lambda *args: computed.append(args))
        a, b, _ = make_instance(SHAPE5)
        plan = StragglerPlan(mode="per_worker", delays=(3.0, 1.0, 4.0, 1.0, 5.0))
        with pytest.raises(HarnessTimeout):
            run(Never(BIG), a, b, SHAPE5, plan=plan)
        assert computed == []
        assert Never.seen == [[[2.0, 0.0, 3.0, 1.0, 4.0]]]


class TestInputChecks:
    SHAPE = ProblemShape(s=4, r=4, t=4, m=2, n=2, N=4)

    @pytest.mark.parametrize("clock", ("virtual", "threads"))
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_bad_inputs_raise_before_the_cut_and_the_kernel(self, name, clock, monkeypatch):
        f7 = FieldCtx(7)
        scheme = get_scheme(name, f7)
        a, b, _ = make_instance(self.SHAPE)
        a7, b7 = FMatrix(a.data, f7), FMatrix(b.data, f7)

        def forbidden(*args, **kwargs):
            raise AssertionError("a bad input reached the cut or the kernel")

        monkeypatch.setattr(scheme, "decodable", forbidden)
        monkeypatch.setattr(schemes, "mulmod", forbidden)
        monkeypatch.setattr(matrixcore, "mulmod", forbidden)
        for pair in ((a, b), (a7, b), (a, b7)):
            with pytest.raises(ShapeMismatch):
                run(scheme, *pair, self.SHAPE, clock=clock)
        with pytest.raises(InvalidParameters):
            run(scheme, FMatrix(a7.data[:, :2], f7), b7, self.SHAPE, clock=clock)


class TestThreadsClock:
    def test_small_real_run_matches_oracle(self):
        shape = ProblemShape(s=4, r=2, t=2, m=2, n=1, N=3)
        a, b, oracle = make_instance(shape)
        c, rep = run(PolyScheme(BIG), a, b, shape, seed=1, base_model=FAST, clock="threads")
        assert c == oracle
        assert rep.wall_latency > 0 and rep.decode_time >= 0
        assert len(rep.responders) >= 2

    @pytest.fixture
    def workers(self, monkeypatch):
        """Records the ids that compute in `ran`; the ids in `fail` raise."""
        log = SimpleNamespace(ran=[], fail=set())
        compute = cluster.worker_compute

        def tracked(share):
            log.ran.append(share.worker_id)
            if share.worker_id in log.fail:
                raise RuntimeError(f"worker {share.worker_id} crashed")
            return compute(share)

        monkeypatch.setattr(cluster, "worker_compute", tracked)
        return log

    def test_crashed_worker_is_an_erasure(self, workers):
        workers.fail.add(0)
        a, b, oracle = make_instance(SHAPE5)
        before = threading.active_count()
        c, rep = run(PolyScheme(BIG), a, b, SHAPE5, seed=2, base_model=FAST, clock="threads")
        assert c == oracle
        assert sorted(rep.responders) == [1, 2, 3, 4]
        assert threading.active_count() == before

    def test_crash_below_threshold_times_out_at_once(self, workers):
        workers.fail.add(0)
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=4)
        a, b, _ = make_instance(shape)
        before = threading.active_count()
        start = time.perf_counter()
        with pytest.raises(HarnessTimeout):
            run(UncodedScheme(BIG), a, b, shape, seed=2, base_model=FAST, clock="threads")
        assert time.perf_counter() - start < 5.0
        assert threading.active_count() == before

    def test_straggler_released_and_joined(self, workers):
        a, b, oracle = make_instance(SHAPE5)
        plan = StragglerPlan(mode="per_worker", delays=(0.01, 0.02, 0.03, 0.04, 30.0))
        before = threading.active_count()
        start = time.perf_counter()
        c, rep = run(PolyScheme(BIG), a, b, SHAPE5, plan=plan, clock="threads")
        assert time.perf_counter() - start < 5.0
        assert c == oracle and rep.responders == [0, 1, 2, 3]
        assert threading.active_count() == before
        assert sorted(workers.ran) == [0, 1, 2, 3]  # worker 4 never computed

    def test_pool_runs_at_most_one_thread_per_cpu(self, monkeypatch):
        # Poly needs all 64 results at m = n = 8, so every worker computes,
        # each on one of at most min(N, CPUs) pool threads.
        shape = ProblemShape(s=8, r=8, t=8, m=8, n=8, N=64)
        a, b, oracle = make_instance(shape)
        seen, compute = [], cluster.worker_compute

        def counted(share):
            seen.append(threading.active_count())
            return compute(share)

        monkeypatch.setattr(cluster, "worker_compute", counted)
        before = threading.active_count()
        model = LatencyModel(shift=0.001, rate=1000.0)
        c, rep = run(PolyScheme(BIG), a, b, shape, seed=3, base_model=model, clock="threads")
        assert c == oracle and len(seen) == 64
        assert max(seen) <= before + min(64, os.cpu_count() or 2)
        assert threading.active_count() == before

    def test_import_leaves_the_pool_module_unloaded(self):
        code = "import sys, polycode; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(polycode.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False"


class TestOutputDigest:
    """The report hashes its output only when `output_digest` is read."""

    # sha256 of the 4x4 product of make_instance(s=8, r=4, t=4), as every
    # report gave it when each run computed the digest itself.
    PINNED = "28931d55db16fbfa6326cff85e07e27ec04c804b24dbfaf11236e11b23fa3726"
    SHAPES = {
        "poly": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9),
        "mds1d": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=8),
        "product": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9),
        "uncoded": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9),
    }

    @pytest.fixture
    def digest_calls(self, monkeypatch):
        calls = []
        digest = FMatrix.digest

        def counted(mat):
            calls.append(mat)
            return digest(mat)

        monkeypatch.setattr(FMatrix, "digest", counted)
        return calls

    def test_runs_compute_no_digest(self, digest_calls):
        plan = StragglerPlan(mode="slow_random", factor=3.0)
        for name, shape in self.SHAPES.items():
            a, b, _ = make_instance(shape)
            run(get_scheme(name, BIG), a, b, shape, plan=plan, seed=5)
        assert digest_calls == []

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_reading_the_digest_gives_the_pinned_bytes(self, name, digest_calls):
        shape = self.SHAPES[name]
        a, b, _ = make_instance(shape)
        plan = StragglerPlan(mode="slow_random", factor=3.0)
        c, rep = run(get_scheme(name, BIG), a, b, shape, plan=plan, seed=5)
        assert rep.output_digest == self.PINNED
        assert digest_calls == [c]
        assert f'"output_digest": "{self.PINNED}"' in rep.to_json()
        assert "output=" not in repr(rep)

    def test_fault_run_digest_is_pinned(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=12)
        a, b, _ = make_instance(shape)
        scheme = PolyScheme(BIG)
        shares = scheme.encode(a, b, shape)
        results = [schemes.worker_compute(sh) for sh in shares]
        results = shared_offset(results, {1, 4, 8, 11}, 2, BIG)
        assert scheme.decode_with_errors(results, shares, shape).digest() == self.PINNED


class TestVirtualClockAsksTheRuleOnce:
    """The virtual clock's cut is the one question a run asks of the recovery
    rule: `decode` takes the responders as decodable."""

    @pytest.mark.parametrize("name", sorted(TestOutputDigest.SHAPES))
    def test_one_latency_call_per_run(self, name, monkeypatch):
        shape = TestOutputDigest.SHAPES[name]
        scheme = get_scheme(name, BIG)
        calls = []
        latency = type(scheme).latency

        def counted(self, times, shape):
            calls.append(times.shape)
            return latency(self, times, shape)

        monkeypatch.setattr(type(scheme), "latency", counted)
        a, b, oracle = make_instance(shape)
        plan = StragglerPlan(mode="slow_random", factor=3.0)
        c, rep = run(scheme, a, b, shape, plan=plan, seed=5)
        assert calls == [(1, scheme.num_shares(shape))]
        times = plan.sample_times(shape.N, np.random.default_rng(5), LatencyModel())
        assert rep.responders == arrival_cut(name, shape, times.tolist())
        assert rep.arrival_times == [(i, float(times[i])) for i in rep.responders]
        assert c == oracle and rep.output_digest == TestOutputDigest.PINNED

    @pytest.mark.parametrize("name", sorted(TestOutputDigest.SHAPES))
    def test_decode_asks_the_rule_for_other_callers(self, name, monkeypatch):
        shape = TestOutputDigest.SHAPES[name]
        scheme = get_scheme(name, BIG)
        a, b, oracle = make_instance(shape)
        shares = scheme.encode(a, b, shape)
        results = [schemes.worker_compute(sh) for sh in shares]
        calls = []
        latency = type(scheme).latency
        monkeypatch.setattr(type(scheme), "latency",
                            lambda self, times, shape: calls.append(1) or latency(self, times, shape))
        assert scheme.decode(results, shares, shape) == oracle
        assert calls == [1]
        monkeypatch.setattr(type(scheme), "latency",
                            lambda self, times, shape: np.full(len(times), math.inf))
        with pytest.raises(polycode.errors.NotEnoughResults):
            scheme.decode(results, shares, shape)
