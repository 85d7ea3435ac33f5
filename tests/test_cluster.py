import numpy as np
import pytest

from polycode.cluster import (
    DECODE_SECONDS_PER_OP,
    StragglerPlan,
    run,
    run_with_faults,
)
from polycode.errors import DecodingFailure, InvalidParameters
from polycode.field import FieldCtx
from polycode.matrixcore import FMatrix, ProblemShape, transpose_mul
from polycode.schemes import Mds1dScheme, PolyScheme, UncodedScheme, get_scheme
from polycode.sim import LatencyModel

BIG = FieldCtx()


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


class TestThreadsClock:
    def test_small_real_run_matches_oracle(self):
        shape = ProblemShape(s=4, r=2, t=2, m=2, n=1, N=3)
        a, b, oracle = make_instance(shape)
        c, rep = run(
            PolyScheme(BIG), a, b, shape, seed=1, clock="threads", time_scale=0.01
        )
        assert c == oracle
        assert rep.wall_latency > 0 and rep.decode_time >= 0
        assert len(rep.responders) >= 2


class TestFaultRuns:
    SHAPE12 = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=12)

    def test_four_corruptions_corrected(self):
        a, b, oracle = make_instance(self.SHAPE12)
        c, rep = run_with_faults(
            PolyScheme(BIG), a, b, self.SHAPE12, corrupt={1, 4, 8, 11}, seed=2
        )
        assert c == oracle
        assert rep.output_digest == oracle.digest()

    def test_no_corruption_matches_plain_run(self):
        a, b, oracle = make_instance(self.SHAPE12)
        c, _ = run_with_faults(PolyScheme(BIG), a, b, self.SHAPE12, corrupt=set(), seed=2)
        assert c == oracle

    def test_six_corruptions_detected(self):
        a, b, _ = make_instance(self.SHAPE12)
        with pytest.raises(DecodingFailure):
            run_with_faults(
                PolyScheme(BIG), a, b, self.SHAPE12, corrupt={0, 2, 4, 6, 8, 10}, seed=5
            )

    def test_bad_corrupt_ids_rejected(self):
        a, b, _ = make_instance(self.SHAPE12)
        with pytest.raises(InvalidParameters):
            run_with_faults(PolyScheme(BIG), a, b, self.SHAPE12, corrupt={12}, seed=0)

    def test_only_poly_supported(self):
        a, b, _ = make_instance(self.SHAPE12)
        with pytest.raises(InvalidParameters):
            run_with_faults(UncodedScheme(BIG), a, b, self.SHAPE12, corrupt=set())


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
        a, b, _ = make_instance(TestFaultRuns.SHAPE12)
        run_with_faults(PolyScheme(BIG), a, b, TestFaultRuns.SHAPE12, corrupt={1, 4}, seed=2)
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
        shape = TestFaultRuns.SHAPE12
        a, b, _ = make_instance(shape)
        _, rep = run_with_faults(PolyScheme(BIG), a, b, shape, corrupt={1, 4, 8, 11}, seed=2)
        assert rep.output_digest == self.PINNED
