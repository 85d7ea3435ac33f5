import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode import sim
from polycode.cluster import StragglerPlan, run
from polycode.errors import (
    DominanceViolation,
    InvalidGrid,
    InvalidModelParams,
    InvalidParameters,
    NeverDecodable,
    ShapeMismatch,
)
from polycode.field import FieldCtx, embed_reals, unembed_reals
from polycode.convolution import conv_encode
from polycode.matrixcore import FMatrix, ProblemShape, split_cols, transpose_mul
from polycode.schemes import SCHEME_NAMES, ProductScheme, Scheme, get_scheme, worker_compute
from polycode.sim import (
    LatencyModel,
    ccdf_table,
    comm_load_analytic,
    comm_load_bits,
    dominance_check,
    sample_latency,
    scheme_latency,
    scheme_latency_batch,
)
from recovery import latency_ref

BIG = FieldCtx()
# One model of each kind; the deterministic one ties every worker. The
# latency tests also round times up to whole numbers, which ties some.
MODELS = (LatencyModel(), LatencyModel(kind="deterministic", value=3.0))


def per_row(scheme, shape, samples):
    """The reference master's latency on every row, asking the test's own
    statement of the scheme's rule at every arrival; NeverDecodable if any
    row never decodes."""
    try:
        return [latency_ref(scheme.name, shape, row) for row in samples]
    except NeverDecodable:
        return NeverDecodable


def batch(scheme, shape, samples):
    try:
        return scheme_latency_batch(scheme, shape, samples).tolist()
    except NeverDecodable:
        return NeverDecodable


class TestLatencyModel:
    def test_deterministic(self):
        model = LatencyModel(kind="deterministic", value=2.5)
        rng = np.random.default_rng(0)
        assert list(model.sample(4, rng)) == [2.5] * 4

    def test_shifted_exponential_mean(self):
        # mean = shift + 1/rate = 2.0; loose Monte-Carlo tolerance
        samples = sample_latency(LatencyModel(), 10, seed=1, trials=10_000)
        assert samples.min() >= 1.0
        assert abs(samples.mean() - 2.0) < 0.05

    def test_seed_reproducibility(self):
        a = sample_latency(LatencyModel(), 5, seed=9, trials=50)
        b = sample_latency(LatencyModel(), 5, seed=9, trials=50)
        assert (a == b).all()

    def test_invalid_params(self):
        with pytest.raises(InvalidModelParams):
            LatencyModel(kind="shifted_exponential", rate=0.0)
        with pytest.raises(InvalidModelParams):
            LatencyModel(kind="deterministic", value=-1.0)
        for kind in ("uniform", "empirical"):
            with pytest.raises(InvalidModelParams):
                LatencyModel(kind=kind)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_shifted_exponential_rejects_non_finite(self, bad):
        with pytest.raises(InvalidModelParams):
            LatencyModel(kind="shifted_exponential", shift=bad)
        with pytest.raises(InvalidModelParams):
            LatencyModel(kind="shifted_exponential", rate=bad)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_deterministic_rejects_non_finite(self, bad):
        with pytest.raises(InvalidModelParams):
            LatencyModel(kind="deterministic", value=bad)


@pytest.mark.parametrize(
    "probe,error",
    (
        (lambda: LatencyModel(shift="a"), InvalidModelParams),
        (lambda: StragglerPlan("per_worker", delays=("a",)), InvalidParameters),
        (lambda: StragglerPlan("slow_random", factor="2"), InvalidParameters),
        (lambda: sample_latency(LatencyModel(), 5, 0, 2.5), InvalidParameters),
        (lambda: embed_reals(["a"], 8, BIG), InvalidParameters),
        (lambda: unembed_reals(["a"], 4, BIG), InvalidParameters),
        (lambda: unembed_reals([1.5], 0, BIG), InvalidParameters),
        (lambda: scheme_latency(get_scheme("poly", BIG), PROBE_SHAPE, [1, "a"]), InvalidParameters),
        (lambda: scheme_latency_batch(get_scheme("poly", BIG), PROBE_SHAPE, [[1, 2], [3]]),
         InvalidParameters),
        (lambda: sample_latency(None, 5, 0, 2), InvalidModelParams),
        (lambda: dominance_check(["poly"], None, PROBE_SHAPE, 2, 0), InvalidModelParams),
        (lambda: run(get_scheme("poly", BIG), *PROBE_INPUTS, PROBE_SHAPE, plan=None),
         InvalidParameters),
        (lambda: run(get_scheme("poly", BIG), *PROBE_INPUTS, PROBE_SHAPE, base_model="x"),
         InvalidParameters),
        # Fields the mode or kind does not read are checked all the same.
        (lambda: StragglerPlan("none", delays=(-1.0,)), InvalidParameters),
        (lambda: LatencyModel("deterministic", rate=0), InvalidModelParams),
    ),
    ids=("model_shift", "plan_delays", "plan_factor", "trials", "embed_reals",
         "unembed_reals", "unembed_truncated", "scheme_latency", "scheme_latency_batch",
         "sample_latency_model", "dominance_check_model", "run_plan", "run_base_model",
         "unread_plan_delays", "unread_model_rate"),
)
def test_parameters_that_are_not_numbers_raise_typed_errors(probe, error):
    with pytest.raises(error):
        probe()


PROBE_SHAPE = ProblemShape(s=4, r=4, t=4, m=2, n=2, N=4)
PROBE_INPUTS = [FMatrix.zeros(4, 4, BIG)] * 2


@pytest.mark.parametrize(
    "probe",
    (
        lambda bad: embed_reals([0.5], bad, BIG),
        lambda bad: unembed_reals([1], bad, BIG),
        lambda bad: sample_latency(LatencyModel(), 5, bad, 2),
        lambda bad: run(get_scheme("poly", BIG), *PROBE_INPUTS, PROBE_SHAPE, seed=bad),
        lambda bad: dominance_check(["poly"], LatencyModel(), PROBE_SHAPE, 2, seed=bad),
    ),
    ids=("embed_reals", "unembed_reals", "sample_latency", "run", "dominance_check"),
)
@pytest.mark.parametrize("bad", (2.5, "a", -1, None))
def test_seeds_and_precision_must_be_non_negative_integers(probe, bad):
    with pytest.raises(InvalidParameters):
        probe(bad)


PROBE_SHARES = get_scheme("poly", BIG).encode(*PROBE_INPUTS, PROBE_SHAPE)
PROBE_RESULTS = [worker_compute(sh) for sh in PROBE_SHARES]


@pytest.mark.parametrize(
    "probe",
    (
        lambda: FMatrix([[1]], None),
        lambda: split_cols(None, 2),
        lambda: transpose_mul("a", PROBE_INPUTS[1]),
        lambda: get_scheme("poly", BIG).encode(*PROBE_INPUTS, None),
        lambda: conv_encode([[1, 2]], [[3, 4]], 3, None),
        lambda: run(get_scheme("poly", BIG), None, PROBE_INPUTS[1], PROBE_SHAPE),
        lambda: run(get_scheme("poly", BIG), *PROBE_INPUTS, None),
        lambda: worker_compute(None),
        lambda: get_scheme("poly", BIG).decode(None, PROBE_SHARES, PROBE_SHAPE),
        lambda: get_scheme("poly", BIG).decode([1], PROBE_SHARES, PROBE_SHAPE),
        lambda: get_scheme("poly", BIG).decode(PROBE_RESULTS, None, PROBE_SHAPE),
    ),
    ids=("fmatrix_ctx", "split_cols", "transpose_mul", "encode_shape", "conv_encode_ctx",
         "run_a", "run_shape", "worker_compute", "decode_results_none", "decode_results_int",
         "decode_shares_none"),
)
def test_objects_of_the_wrong_type_raise_typed_errors(probe):
    with pytest.raises(InvalidParameters):
        probe()


class TestSchemeLatency:
    SHAPE5 = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)

    def test_poly_is_fourth_order_statistic(self):
        scheme = get_scheme("poly", BIG)
        assert scheme_latency(scheme, self.SHAPE5, [5.0, 1.0, 2.0, 3.0, 4.0]) == 4.0

    def test_uncoded_is_max(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=4)
        scheme = get_scheme("uncoded", BIG)
        assert scheme_latency(scheme, shape, [5.0, 1.0, 2.0, 3.0]) == 5.0

    def test_mds1d_slowest_group_gates(self):
        # groups {0,1,2} and {3,4,5}, each needs its 2 fastest
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=6)
        scheme = get_scheme("mds1d", BIG)
        # group 0 done at t=2; group 1 (times 1, 7, 8) at its 2nd fastest, 7
        times = [1.0, 2.0, 9.0, 1.0, 7.0, 8.0]
        assert scheme_latency(scheme, shape, times) == 7.0

    def test_product_peels_at_first_decodable_prefix(self):
        # Workers 1, 4, 5, 6 arrive first; that 4-set already peels
        # (column 1 gives both row products, then two eliminations), so
        # latency is the 4th arrival even though worst case needs 6.
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9)
        scheme = get_scheme("product", BIG)
        times = [99.0] * 9
        for rank, wid in enumerate((1, 4, 5, 6, 7)):
            times[wid] = 1.0 + rank
        assert scheme.decodable({1, 4, 5, 6}, shape)
        assert not scheme.decodable({1, 4, 5}, shape)
        assert scheme_latency(scheme, shape, times) == 4.0

    def test_batch_agrees_with_scalar_path(self):
        shapes = {
            "poly": self.SHAPE5,
            "uncoded": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=4),
            "mds1d": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=6),
            "product": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9),
        }
        # Latencies are order statistics of the samples, so they are equal.
        # Dropping columns removes workers; extra columns are not workers.
        # `scheme_latency` is the batch path on one row, so it agrees too.
        for name, shape in shapes.items():
            scheme = get_scheme(name, BIG)
            full = sample_latency(LatencyModel(), shape.N + 2, seed=3, trials=64)
            for cols in (shape.N + 2, shape.N, shape.N - 1, 1):
                samples = full[:, :cols]
                want = per_row(scheme, shape, samples)
                assert batch(scheme, shape, samples) == want
                if want is not NeverDecodable:
                    assert [scheme_latency(scheme, shape, row) for row in samples] == want
            assert batch(scheme, shape, full[:, :1]) is NeverDecodable
            assert batch(scheme, shape, full[:, : shape.N]) is not NeverDecodable

    def test_poly_below_its_threshold_never_decodes(self):
        # N = 3 workers cannot give the mn = 4 results poly needs: both paths
        # raise NeverDecodable.
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=3)
        scheme = get_scheme("poly", BIG)
        samples = sample_latency(LatencyModel(), shape.N, seed=6, trials=8)
        assert batch(scheme, shape, samples) is NeverDecodable
        assert per_row(scheme, shape, samples) is NeverDecodable

    def test_batch_asks_the_scheme_for_its_latency_rule(self):
        # A scheme outside the four states its rule in `latency` alone: the
        # batch path pads missing workers with +inf and hands it the grid,
        # the scalar path one row, and `decodable` one row of 0 and +inf.
        class FirstTwo(Scheme):
            name = "first_two"
            seen = []

            def latency(self, times, shape):
                self.seen.append(times.shape)
                return np.sort(times, axis=1)[:, 1]

        scheme = FirstTwo(BIG)
        samples = sample_latency(LatencyModel(), 5, seed=4, trials=16)
        want = np.sort(samples, axis=1)[:, 1].tolist()
        assert batch(scheme, self.SHAPE5, samples) == want
        assert [scheme_latency(scheme, self.SHAPE5, row) for row in samples] == want
        assert batch(scheme, self.SHAPE5, samples[:, :1]) is NeverDecodable
        assert scheme.decodable({0, 4, 9}, self.SHAPE5)
        assert not scheme.decodable({3, -1, 5}, self.SHAPE5)
        assert FirstTwo.seen == [(16, 5)] + [(1, 5)] * 16 + [(16, 5)] + [(1, 5)] * 2

    @pytest.mark.parametrize("dims", ((5,), (2, 3, 5), (), (2, 5)))
    def test_samples_that_are_not_a_matrix_are_rejected(self, dims):
        # The batch path takes a matrix, the scalar path one row.
        scheme = get_scheme("poly", BIG)
        if len(dims) != 2:
            with pytest.raises(ShapeMismatch):
                scheme_latency_batch(scheme, self.SHAPE5, np.ones(dims))
        if len(dims) != 1:
            with pytest.raises(ShapeMismatch):
                scheme_latency(scheme, self.SHAPE5, np.ones(dims))

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    @pytest.mark.parametrize("col", (0, 3, 9))
    def test_nan_times_are_rejected(self, name, col):
        # A NaN time has no place in the arrival order, so the batch rules and
        # the scalar path would disagree on it (or, for product, not stop).
        # Both reject it in any column, even past the last worker; +inf
        # still means never.
        shape = ProblemShape(s=4, r=2, t=2, m=2, n=2, N={"product": 4, "mds1d": 6}.get(name, 5))
        scheme = get_scheme(name, BIG)
        times = np.arange(10.0)
        times[col] = math.nan
        with pytest.raises(InvalidParameters):
            scheme_latency_batch(scheme, shape, times[None, :])
        with pytest.raises(InvalidParameters):
            scheme_latency(scheme, shape, times)
        times[col] = math.inf
        assert batch(scheme, shape, times[None, :]) == per_row(scheme, shape, [times])

    def test_product_step_after_a_quiet_first_step(self):
        # The row step lowers nothing here, yet the column step lowers every
        # cell: cell (0, 0) is known at 1.0 from column 0, not at its 5.0.
        shape = ProblemShape(s=1, r=1, t=1, m=1, n=1, N=4)
        times = np.array([[5.0, 5.0, 1.0, 1.0]])
        scheme = get_scheme("product", BIG)
        assert scheme.latency(times, shape).tolist() == [1.0] == per_row(scheme, shape, times)


@pytest.mark.parametrize("name", SCHEME_NAMES)
@settings(deadline=None, max_examples=150)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_latency_rule_equals_scalar_path(name, model, seed, data):
    # Each scheme's batch rule against the reference master, which asks the
    # test's own statement of the rule at every arrival, compared exactly
    # (product: its peeling fixed point against set peeling). Fewer columns
    # than N leave workers out, which can make a trial never decodable; both
    # must then say NeverDecodable.
    if name == "product":
        side = data.draw(st.integers(1, 10), label="side")
        m = n = data.draw(st.integers(1, side), label="m")
        big_n = side * side
    else:
        m, n = data.draw(st.integers(1, 4), label="m"), data.draw(st.integers(1, 4), label="n")
        spare = data.draw(st.integers(0, 8), label="spare")
        big_n = n * (m + spare) if name == "mds1d" else m * n + spare
    shape = ProblemShape(s=max(m, n), r=m, t=n, m=m, n=n, N=big_n)
    scheme = get_scheme(name, BIG)
    scheme.validate(shape)
    cols = data.draw(st.one_of(st.just(big_n), st.integers(0, big_n - 1)), label="cols")
    samples = sample_latency(model, big_n, seed, trials=6)[:, :cols]
    if data.draw(st.booleans(), label="whole"):
        samples = np.ceil(samples)
    assert batch(scheme, shape, samples) == per_row(scheme, shape, samples)


def parallel_peeling(times, side, m):
    """The product rule lowered from rows and columns together until no cell
    moves: the reference for `ProductScheme.latency`'s alternating steps."""
    known = np.asarray(times, dtype=float).reshape(-1, side, side)
    while True:
        row_kth = np.partition(known, m - 1, axis=2).take(m - 1, axis=2)
        col_kth = np.partition(known, m - 1, axis=1).take(m - 1, axis=1)
        peeled = np.minimum(row_kth[:, :, None], col_kth[:, None, :])
        np.minimum(peeled, known, out=peeled)
        if np.array_equal(peeled, known):
            return known[:, :m, :m].max(axis=(1, 2))
        known = peeled


@settings(deadline=None, max_examples=80)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_product_latency_equals_parallel_peeling(model, seed, data):
    # Hundreds of trials per draw, so trials leave the live set at different
    # steps. +inf cells in some rows make trials that never decode, which
    # must give +inf. Exact floats, and the caller's array is left as it was.
    side = data.draw(st.integers(1, 12), label="side")
    m = data.draw(st.integers(1, side), label="m")
    trials = data.draw(st.integers(200, 260), label="trials")
    never = data.draw(st.sampled_from((0.0, 0.1, 0.4, 0.8)), label="never")
    rng = np.random.default_rng(seed)
    samples = sample_latency(model, side * side, seed, trials)
    if data.draw(st.booleans(), label="whole"):
        samples = np.ceil(samples)
    hit = (rng.random(samples.shape) < never) & (rng.random((trials, 1)) < 0.5)
    samples[hit] = math.inf
    before = samples.copy()
    shape = ProblemShape(s=m, r=m, t=m, m=m, n=m, N=side * side)
    got = ProductScheme(BIG).latency(samples, shape)
    want = parallel_peeling(samples, side, m)
    assert got.tolist() == want.tolist()
    assert np.array_equal(samples, before)


@settings(deadline=None, max_examples=60)
@given(
    model=st.sampled_from(MODELS),
    n=st.integers(1, 70),
    trials=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_latency_is_the_per_trial_stream(model, n, trials, seed):
    # `polycode sim` outputs and every seeded sample depend on this order.
    rng = np.random.default_rng(seed)
    rows = np.vstack([model.sample(n, rng) for _ in range(trials)])
    assert np.array_equal(sample_latency(model, n, seed, trials), rows)


class TestCcdf:
    def test_step_function_values(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        grid = np.array([0.5, 1.0, 2.5, 4.0, 5.0])
        assert list(ccdf_table(samples, grid)) == [1.0, 0.75, 0.5, 0.0, 0.0]


class TestCommLoad:
    SHAPE5 = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)

    def test_bits_formula(self):
        got = comm_load_bits(4, self.SHAPE5, BIG)
        assert got == pytest.approx(4 * 2 * 2 * np.log2(BIG.q))

    def test_analytic_uses_threshold(self):
        assert comm_load_analytic("poly", self.SHAPE5, BIG) == pytest.approx(
            comm_load_bits(4, self.SHAPE5, BIG)
        )


class TestDominance:
    def test_zero_violations_all_schemes(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=16)
        rep = dominance_check(
            ["poly", "mds1d", "product", "uncoded"],
            LatencyModel(),
            shape,
            trials=2000,
            seed=0,
            ctx=BIG,
        )
        assert rep.violations == 0 and rep.max_violation == 0.0
        assert rep.means["poly"] <= min(rep.means.values()) + 1e-12
        # CCDFs pointwise ordered: poly's tail never above the others'
        for name, ccdf in rep.ccdfs.items():
            assert (rep.ccdfs["poly"] <= ccdf + 1e-12).all()

    def test_poly_latency_is_threshold_order_statistic(self):
        # Independent oracle: the 4th sorted column. A hypothetical scheme
        # stopping at the 3rd arrival would register as a violation.
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=16)
        samples = sample_latency(LatencyModel(), 16, seed=1, trials=100)
        poly = scheme_latency_batch(get_scheme("poly", BIG), shape, samples)
        assert (poly == np.sort(samples, axis=1)[:, 3]).all()
        third = np.sort(samples, axis=1)[:, 2]
        assert (third <= poly).all() and (third < poly).any()

    def test_every_scheme_is_checked_before_sampling(self, monkeypatch):
        # An unknown name or a shape a scheme cannot take fails before any
        # sample is drawn or any latency computed.
        def no_sampling(*args):
            raise AssertionError("sampled before the schemes were checked")

        monkeypatch.setattr(sim, "sample_latency", no_sampling)
        square = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=16)
        with pytest.raises(InvalidParameters, match="unknown scheme 'warp'"):
            dominance_check(["poly", "warp"], LatencyModel(), square, trials=10, seed=0)
        not_square = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=15)
        with pytest.raises(InvalidGrid):
            dominance_check(["poly", "product"], LatencyModel(), not_square, trials=10, seed=0)

    def test_no_raise_when_clean(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=8)
        rep = dominance_check(
            ["uncoded"], LatencyModel(), shape, trials=200, seed=2, ctx=BIG
        )
        assert rep.violations == 0
        assert isinstance(DominanceViolation("x"), Exception)
