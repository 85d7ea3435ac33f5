import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode.errors import (
    InvalidGrid,
    NonDivisibleGroups,
    NotDecodable,
    NotEnoughResults,
    PolycodeError,
    ShapeMismatch,
    TooManyWorkersForField,
)
from polycode import schemes
from polycode.cluster import StragglerPlan, run
from polycode.field import FieldCtx, invert_matrix
from polycode.matrixcore import FMatrix, ProblemShape, mulmod, transpose_mul
from polycode.schemes import (
    SCHEME_NAMES,
    Mds1dScheme,
    PolyScheme,
    ProductScheme,
    UncodedScheme,
    WorkerResult,
    _vandermonde,
    get_scheme,
    systematic_generator,
    threshold,
    threshold_table,
    worker_compute,
)

from recovery import decodable_ref

F7 = FieldCtx(7)
BIG = FieldCtx()


def make_instance(shape, ctx, seed=0):
    rng = np.random.default_rng(seed)
    a = FMatrix.random(shape.s, shape.r, ctx, rng)
    b = FMatrix.random(shape.s, shape.t, ctx, rng)
    return a, b, transpose_mul(a, b)


def all_results(scheme, a, b, shape):
    shares = scheme.encode(a, b, shape)
    return shares, [worker_compute(s) for s in shares]


class TestCodeParams:
    """The code's fixed parameters: A block j at degree j, B block k at
    degree k m (exponents (1, m)), at the points 0..N-1."""

    def test_default_is_one_m(self):
        shape = ProblemShape(s=6, r=6, t=4, m=3, n=2, N=8)
        a_gen, b_gen, layout = PolyScheme(BIG)._layout(shape)
        for i, _, x in layout:
            assert x == i
            assert a_gen[i].tolist() == [pow(x, j, BIG.q) for j in range(3)]
            assert b_gen[i].tolist() == [pow(x, 3 * k, BIG.q) for k in range(2)]

    @pytest.mark.parametrize("m", range(1, 33))
    @pytest.mark.parametrize("n", (1, 2, 17, 32))
    def test_one_m_and_n_one_always_valid(self, m, n):
        # The product exponents j + k m are 0..mn-1, each once, so any mn of
        # the N = mn workers decode and fewer do not.
        assert sorted(j + k * m for j in range(m) for k in range(n)) == list(range(m * n))
        shape = ProblemShape(s=max(m, n), r=m, t=n, m=m, n=n, N=m * n)
        scheme = PolyScheme(BIG)
        scheme.validate(shape)
        assert scheme.required_results(shape) == m * n
        assert scheme.decodable(range(m * n), shape)
        assert not scheme.decodable(range(m * n - 1), shape)
        a_gen, b_gen, _ = scheme._layout(shape)
        x = m * n - 1
        assert a_gen[x].tolist() == [pow(x, j, BIG.q) for j in range(m)]
        assert b_gen[x].tolist() == [pow(x, k * m, BIG.q) for k in range(n)]

    def test_degree_default(self):
        shape = ProblemShape(s=8, r=4, t=3, m=4, n=3, N=12)
        assert PolyScheme(BIG).required_results(shape) == 4 * 3
        assert PolyScheme(BIG).threshold(shape) == 4 * 3


class TestPolyScheme:
    shape5 =ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)

    def test_worked_example_shares(self):
        # Worker i stores A0 + i*A1 and B0 + i^2*B1 over F_7, points 0..4.
        a, b, _ = make_instance(self.shape5, F7)
        scheme = PolyScheme(F7)
        shares = scheme.encode(a, b, self.shape5)
        a0, a1 = a.data[:, :2], a.data[:, 2:]
        b0, b1 = b.data[:, :2], b.data[:, 2:]
        for i, sh in enumerate(shares):
            assert sh.x == i
            assert (sh.a_tilde.data == (a0 + i * a1) % 7).all()
            assert (sh.b_tilde.data == (b0 + i * i * b1) % 7).all()

    def test_worker_zero_gets_systematic_share(self):
        a, b, _ = make_instance(self.shape5, F7)
        sh0 = PolyScheme(F7).encode(a, b, self.shape5)[0]
        assert (sh0.a_tilde.data == a.data[:, :2]).all()
        assert (sh0.b_tilde.data == b.data[:, :2]).all()

    def test_trivial_partition_stores_everything(self):
        shape = ProblemShape(s=4, r=3, t=2, m=1, n=1, N=3)
        a, b, _ = make_instance(shape, F7)
        for sh in PolyScheme(F7).encode(a, b, shape):
            assert sh.a_tilde == a and sh.b_tilde == b

    def test_decodable_is_count_threshold(self):
        scheme = PolyScheme(F7)
        assert scheme.decodable({1, 2, 3, 4}, self.shape5)
        assert not scheme.decodable({0, 2, 4}, self.shape5)
        shape1 = ProblemShape(s=2, r=1, t=1, m=1, n=1, N=1)
        assert scheme.decodable({0}, shape1)

    def test_every_four_subset_decodes_exactly(self):
        a, b, oracle = make_instance(self.shape5, F7)
        scheme = PolyScheme(F7)
        shares, results = all_results(scheme, a, b, self.shape5)
        for size in (4, 5):
            for subset in combinations(range(5), size):
                c = scheme.decode([results[i] for i in subset], shares, self.shape5)
                assert c == oracle

    def test_three_results_raise(self):
        a, b, _ = make_instance(self.shape5, F7)
        scheme = PolyScheme(F7)
        shares, results = all_results(scheme, a, b, self.shape5)
        with pytest.raises(NotEnoughResults):
            scheme.decode(results[:3], shares, self.shape5)

    def test_superset_independence(self):
        a, b, _ = make_instance(self.shape5, F7)
        scheme = PolyScheme(F7)
        shares, results = all_results(scheme, a, b, self.shape5)
        base = scheme.decode(results, shares, self.shape5)
        # arrival order must not matter either
        shuffled = [results[i] for i in (4, 0, 2, 1, 3)]
        assert scheme.decode(shuffled, shares, self.shape5) == base

    def test_too_many_workers_for_field(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=8)
        a, b, _ = make_instance(shape, F7)
        with pytest.raises(TooManyWorkersForField):
            PolyScheme(F7).encode(a, b, shape)


class TestPolyErrors:
    shape12 = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=12)

    def test_corrects_four_of_twelve(self):
        a, b, oracle = make_instance(self.shape12, BIG)
        scheme = PolyScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape12)
        rng = np.random.default_rng(5)
        for wid in (2, 5, 7, 11):
            wrong = FMatrix(
                (results[wid].c_tilde.data + rng.integers(1, BIG.q)) % BIG.q, BIG
            )
            results[wid] = type(results[wid])(wid, wrong)
        assert scheme.decode_with_errors(results, shares, self.shape12) == oracle

    def test_zero_corruption_matches_plain_decode(self):
        a, b, oracle = make_instance(self.shape12, BIG)
        scheme = PolyScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape12)
        got = scheme.decode_with_errors(results, shares, self.shape12)
        assert got == scheme.decode(results, shares, self.shape12) == oracle

    def test_five_corruptions_detected(self):
        from polycode.errors import DecodingFailure

        a, b, _ = make_instance(self.shape12, BIG)
        scheme = PolyScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape12)
        # shared offset: inconsistent with every degree<4 candidate on >= 8 points
        for wid in (0, 3, 6, 8, 10):
            wrong = FMatrix((results[wid].c_tilde.data + 1) % BIG.q, BIG)
            results[wid] = type(results[wid])(wid, wrong)
        with pytest.raises(DecodingFailure):
            scheme.decode_with_errors(results, shares, self.shape12)

    def test_needs_k_distinct_results(self):
        # Any K = 4 distinct results decode; 3, even with a repeat, do not.
        a, b, oracle = make_instance(self.shape12, BIG)
        scheme = PolyScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape12)
        assert scheme.decode_with_errors(results[5:9], shares, self.shape12) == oracle
        with pytest.raises(NotEnoughResults):
            scheme.decode_with_errors(results[:3] + [results[1]], shares, self.shape12)

    def test_unknown_id_is_not_a_worker(self):
        a, b, oracle = make_instance(self.shape12, BIG)
        scheme = PolyScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape12)
        stray = WorkerResult(99, FMatrix((results[0].c_tilde.data + 1) % BIG.q, BIG))
        with pytest.raises(NotEnoughResults):
            scheme.decode_with_errors(results[:3] + [stray], shares, self.shape12)
        # Read as a worker, the stray's wrong block would fail pure detection.
        got = scheme.decode_with_errors(results[:11] + [stray], shares, self.shape12, max_errors=0)
        assert got == oracle

    def test_duplicated_result_is_ignored(self):
        a, b, oracle = make_instance(self.shape12, BIG)
        scheme = PolyScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape12)
        got = scheme.decode_with_errors(results + [results[3]], shares, self.shape12)
        assert got == oracle


class TestSystematicGenerator:
    def test_single_parity_is_all_ones(self):
        gen = systematic_generator(3, 2, F7)
        assert gen.tolist() == [[1, 0], [0, 1], [1, 1]]

    # Every (total, k) with total <= min(q, 12) in four small fields, plus
    # one case in the default field.
    CASES = [
        (q, total, k)
        for q in (7, 11, 13, 101)
        for total in range(1, min(q, 12) + 1)
        for k in range(1, total + 1)
    ] + [(BIG.q, 6, 3)]

    @pytest.mark.parametrize("q,total,k", CASES, ids=[f"q{q}-{t}-{k}" for q, t, k in CASES])
    def test_every_subset_invertible(self, q, total, k):
        gen = systematic_generator(total, k, FieldCtx(q)).tolist()
        assert gen[:k] == np.eye(k, dtype=int).tolist()
        for subset in combinations(range(total), k):
            invert_matrix([gen[i] for i in subset], q)

    def test_more_rows_than_field_elements_rejected(self):
        with pytest.raises(TooManyWorkersForField):
            systematic_generator(8, 3, F7)


class TestCachedCodes:
    def test_generators_are_built_once_and_read_only(self):
        for build in (lambda: systematic_generator(6, 3, BIG),
                      lambda: _vandermonde([0, 1, 2, 3], range(2), BIG)):
            gen = build()
            assert gen is build()
            assert gen.dtype == np.int64 and not gen.flags.writeable
            with pytest.raises(ValueError):
                gen[0, 0] = 5

    def test_vandermonde_key_holds_the_points_exponents_and_field(self):
        assert _vandermonde([2, 3], [0, 1, 2], F7).tolist() == [[1, 2, 4], [1, 3, 2]]
        assert _vandermonde([2, 3], [0, 2], F7).tolist() == [[1, 4], [1, 2]]
        assert _vandermonde([2, 3], [0, 1, 2], FieldCtx(5)).tolist() == [[1, 2, 4], [1, 3, 4]]
        assert _vandermonde(np.array([2, 3]), range(3), F7) is _vandermonde([2, 3], [0, 1, 2], F7)


class TestComputeShares:
    """The virtual clock's worker products: one `mulmod` over the `_stacks`
    of the responders, against `worker_compute` of their shares."""

    SHAPES = {
        "poly": ProblemShape(s=8, r=4, t=6, m=2, n=3, N=7),
        "mds1d": ProblemShape(s=8, r=4, t=6, m=2, n=3, N=9),
        "product": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9),
        "uncoded": ProblemShape(s=8, r=4, t=6, m=2, n=3, N=6),
    }

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    @pytest.mark.parametrize("ctx", (F7, BIG, FieldCtx(2**61 - 1)), ids=("q7", "q31", "q61"))
    def test_matches_worker_compute(self, name, ctx):
        shape = self.SHAPES[name]
        a, b, _ = make_instance(shape, ctx)
        scheme = get_scheme(name, ctx)
        picked = scheme.encode(a, b, shape)[::-2]
        a_coded, b_coded = scheme._stacks(a, b, shape, [sh.worker_id for sh in picked])
        products = mulmod(a_coded.transpose(0, 2, 1), b_coded, ctx.q)
        assert [FMatrix(c, ctx) for c in products] == [worker_compute(sh).c_tilde for sh in picked]

    def test_no_shares_no_results(self):
        for name in SCHEME_NAMES:
            shape = self.SHAPES[name]
            scheme = get_scheme(name, BIG)
            a, b, _ = make_instance(shape, BIG)
            a_coded, b_coded = scheme._stacks(a, b, shape, [])
            assert a_coded.shape == (0, shape.s, shape.block_rows)
            assert b_coded.shape == (0, shape.s, shape.block_cols)

    @settings(deadline=None, max_examples=150)
    @given(
        name=st.sampled_from(SCHEME_NAMES),
        ctx=st.sampled_from((F7, BIG, FieldCtx(2**61 - 1))),
        data=st.data(),
    )
    def test_virtual_run_equals_the_list_path(self, name, ctx, data):
        # The virtual clock's stacked encode, products and decode against
        # the shares, `worker_compute` and list decode of its responders.
        shape = self.SHAPES[name]
        scheme = get_scheme(name, ctx)
        a, b, oracle = make_instance(shape, ctx, seed=data.draw(st.integers(0, 99)))
        delays = data.draw(st.lists(st.integers(0, 4), min_size=shape.N, max_size=shape.N))
        plan = StragglerPlan(mode="per_worker", delays=tuple(map(float, delays)))
        c, rep = run(scheme, a, b, shape, plan=plan)
        full = scheme.encode(a, b, shape)
        shares = [full[i] for i in rep.responders]
        assert c == scheme.decode([worker_compute(sh) for sh in shares], shares, shape) == oracle

        # Any ids, repeated and unordered: the stacks hold the full encode's
        # blocks of those workers, in that order.
        ids = data.draw(st.lists(st.integers(0, len(full) - 1), max_size=12))
        a_coded, b_coded = scheme._stacks(a, b, shape, ids)
        assert a_coded.shape == (len(ids), shape.s, shape.block_rows)
        assert b_coded.shape == (len(ids), shape.s, shape.block_cols)
        for i, at, bt in zip(ids, a_coded, b_coded, strict=True):
            assert full[i].a_tilde == FMatrix(at, ctx) and full[i].b_tilde == FMatrix(bt, ctx)


class TestSubsetEncode:
    SHAPES = TestComputeShares.SHAPES

    @settings(deadline=None, max_examples=80)
    @given(
        name=st.sampled_from(SCHEME_NAMES),
        ctx=st.sampled_from((F7, BIG, FieldCtx(2**61 - 1))),
        data=st.data(),
    )
    def test_equals_the_full_encode_at_the_ids(self, name, ctx, data):
        # The virtual clock encodes only its responders: a worker's blocks
        # must not depend on which other ids are asked for.
        shape = self.SHAPES[name]
        scheme = get_scheme(name, ctx)
        a, b, _ = make_instance(shape, ctx, seed=data.draw(st.integers(0, 99)))
        full = scheme.encode(a, b, shape)
        subset = data.draw(st.sets(st.integers(0, len(full) - 1)))
        ids = data.draw(st.permutations(sorted(subset)))
        a_coded, b_coded = scheme._stacks(a, b, shape, ids)
        for i, at, bt in zip(ids, a_coded, b_coded, strict=True):
            assert full[i].a_tilde == FMatrix(at, ctx) and full[i].b_tilde == FMatrix(bt, ctx)

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_inputs_over_another_field_raise(self, name):
        shape = self.SHAPES[name]
        a, b, _ = make_instance(shape, BIG)
        a7, b7 = FMatrix(a.data, F7), FMatrix(b.data, F7)
        for pair in ((a, b), (a7, b), (a, b7)):
            with pytest.raises(ShapeMismatch):
                get_scheme(name, F7).encode(*pair, shape)


class TestMds1d:
    def test_fig2a_shares(self):
        # N=3, m=2, n=1: coded A blocks are A0, A1, A0+A1; B stored whole.
        shape = ProblemShape(s=8, r=4, t=2, m=2, n=1, N=3)
        a, b, _ = make_instance(shape, F7)
        shares = Mds1dScheme(F7).encode(a, b, shape)
        a0, a1 = a.data[:, :2], a.data[:, 2:]
        assert (shares[0].a_tilde.data == a0).all()
        assert (shares[1].a_tilde.data == a1).all()
        assert (shares[2].a_tilde.data == (a0 + a1) % 7).all()
        for sh in shares:
            assert sh.b_tilde == b

    def test_any_two_of_three_decode(self):
        shape = ProblemShape(s=8, r=4, t=2, m=2, n=1, N=3)
        a, b, oracle = make_instance(shape, F7)
        scheme = Mds1dScheme(F7)
        shares, results = all_results(scheme, a, b, shape)
        for subset in combinations(range(3), 2):
            assert scheme.decode([results[i] for i in subset], shares, shape) == oracle

    def test_exhaustive_threshold_n6(self):
        # Brute force over all 2^6 response sets: worst case 5 = N - N/n + m.
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=6)
        scheme = Mds1dScheme(BIG)
        decodable_sizes = {}
        for mask in range(64):
            subset = {i for i in range(6) if mask >> i & 1}
            ok = scheme.decodable(subset, shape)
            decodable_sizes.setdefault(len(subset), []).append(ok)
        worst = min(k for k, oks in decodable_sizes.items() if all(oks))
        assert worst == 5 == scheme.threshold(shape)

    def test_all_respond_decodes(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=6)
        a, b, oracle = make_instance(shape, BIG)
        scheme = Mds1dScheme(BIG)
        shares, results = all_results(scheme, a, b, shape)
        assert scheme.decode(results, shares, shape) == oracle

    def test_every_decodable_subset_exact(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=6)
        a, b, oracle = make_instance(shape, BIG)
        scheme = Mds1dScheme(BIG)
        shares, results = all_results(scheme, a, b, shape)
        for mask in range(64):
            subset = [i for i in range(6) if mask >> i & 1]
            if scheme.decodable(set(subset), shape):
                got = scheme.decode([results[i] for i in subset], shares, shape)
                assert got == oracle
            else:
                with pytest.raises((NotDecodable, NotEnoughResults)):
                    scheme.decode([results[i] for i in subset], shares, shape)

    def test_group_divisibility_enforced(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=7)
        with pytest.raises(NonDivisibleGroups):
            Mds1dScheme(BIG).threshold(shape)


class TestProduct:
    shape9 = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9)

    def test_fig2b_pattern_decodes(self):
        # The five results A1'B0, A1'B1, (A0+A1)'B1, A0'(B0+B1), A1'(B0+B1)
        # sit at grid cells (0,1),(1,1),(1,2),(2,0),(2,1): workers 1,4,5,6,7.
        a, b, oracle = make_instance(self.shape9, BIG)
        scheme = ProductScheme(BIG)
        assert scheme.decodable({1, 4, 5, 6, 7}, self.shape9)
        shares, results = all_results(scheme, a, b, self.shape9)
        got = scheme.decode([results[i] for i in (1, 4, 5, 6, 7)], shares, self.shape9)
        assert got == oracle

    def test_exhaustive_threshold_2_9(self):
        scheme = ProductScheme(BIG)
        by_size = {}
        for mask in range(512):
            subset = {i for i in range(9) if mask >> i & 1}
            by_size.setdefault(len(subset), []).append(scheme.decodable(subset, self.shape9))
        worst = min(k for k, oks in by_size.items() if all(oks))
        assert worst == 6 == scheme.threshold(self.shape9)

    def test_every_decodable_subset_exact(self):
        a, b, oracle = make_instance(self.shape9, BIG)
        scheme = ProductScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape9)
        for mask in range(512):
            subset = [i for i in range(9) if mask >> i & 1]
            if scheme.decodable(set(subset), self.shape9):
                got = scheme.decode([results[i] for i in subset], shares, self.shape9)
                assert got == oracle

    @pytest.mark.parametrize("ids,calls", [((1, 4, 5, 6, 7), 2), ((0, 1, 3, 4), 0)])
    def test_one_mulmod_per_peel_round(self, monkeypatch, ids, calls):
        # {1, 4, 5, 6, 7}: a row round completes rows 1 and 2, then a column
        # round columns 0 and 2. {0, 1, 3, 4} is the systematic corner itself.
        a, b, oracle = make_instance(self.shape9, BIG)
        scheme = ProductScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape9)
        seen = []

        def counted(*args):
            seen.append(args)
            return mulmod(*args)

        monkeypatch.setattr(schemes, "mulmod", counted)
        assert scheme.decode([results[i] for i in ids], shares, self.shape9) == oracle
        assert len(seen) == calls

    def test_solve_stops_when_peeling_stalls(self):
        # {0, 1, 2, 3}: a column round completes column 0, then no row or
        # column has m known cells and missing ones, and cell 4 is unknown.
        a, b, _ = make_instance(self.shape9, BIG)
        scheme = ProductScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape9)
        ids = [0, 1, 2, 3]
        blocks = np.stack([results[i].c_tilde.data for i in ids])
        with pytest.raises(NotEnoughResults):
            scheme._solve(ids, blocks, self.shape9)

    def test_invalid_grids_rejected(self):
        with pytest.raises(InvalidGrid):
            ProductScheme(BIG).threshold(ProblemShape(s=8, r=4, t=4, m=2, n=2, N=8))
        with pytest.raises(InvalidGrid):
            ProductScheme(BIG).threshold(ProblemShape(s=8, r=4, t=6, m=2, n=3, N=9))

    def test_results_outside_the_grid_are_ignored(self):
        a, b, oracle = make_instance(self.shape9, BIG)
        scheme = ProductScheme(BIG)
        shares, results = all_results(scheme, a, b, self.shape9)
        stray = [type(results[0])(wid, results[0].c_tilde) for wid in (-1, 9, 99)]
        assert scheme.decode(results[3:] + stray, shares, self.shape9) == oracle

    def test_grid_side_above_field_size_rejected(self):
        shape = ProblemShape(s=4, r=4, t=4, m=2, n=2, N=64)
        a, b, _ = make_instance(shape, F7)
        with pytest.raises(TooManyWorkersForField):
            ProductScheme(F7).encode(a, b, shape)


@settings(deadline=None, max_examples=150)
@given(
    side=st.integers(2, 5),
    q=st.sampled_from((7, BIG.q)),
    data=st.data(),
)
def test_product_decode_replays_the_peeling_schedule(side, q, data):
    """decode returns the exact product exactly when decodable holds."""
    ctx = FieldCtx(q)
    m = data.draw(st.integers(1, side), label="m")
    shape = ProblemShape(s=2 * m, r=2 * m, t=2 * m, m=m, n=m, N=side * side)
    subset = data.draw(st.sets(st.integers(0, side * side - 1)), label="subset")
    a, b, oracle = make_instance(shape, ctx, seed=data.draw(st.integers(0, 2**16), label="seed"))
    scheme = ProductScheme(ctx)
    shares, results = all_results(scheme, a, b, shape)
    picked = [results[i] for i in sorted(subset)]
    if scheme.decodable(subset, shape):
        assert scheme.decode(picked, shares, shape) == oracle
    else:
        with pytest.raises(NotDecodable):
            scheme.decode(picked, shares, shape)


# One small shape per scheme, valid at q = 7 and in the default field.
SELECTION_SHAPES = {
    "poly": ProblemShape(s=4, r=4, t=4, m=2, n=2, N=6),
    "mds1d": ProblemShape(s=4, r=4, t=4, m=2, n=2, N=6),
    "product": ProblemShape(s=4, r=4, t=4, m=2, n=2, N=9),
    "uncoded": ProblemShape(s=4, r=4, t=4, m=2, n=2, N=4),
}


@pytest.mark.parametrize(
    "name,big_n,stray", [("poly", 9, -1), ("mds1d", 8, -1), ("mds1d", 8, 99)]
)
def test_result_from_unknown_worker_is_ignored(name, big_n, stray):
    shape = ProblemShape(s=4, r=4, t=4, m=2, n=2, N=big_n)
    a, b, oracle = make_instance(shape, BIG)
    scheme = get_scheme(name, BIG)
    shares, results = all_results(scheme, a, b, shape)
    extra = WorkerResult(stray, results[0].c_tilde)
    assert scheme.decode(results + [extra], shares, shape) == oracle


@settings(deadline=None, max_examples=300)
@given(
    name=st.sampled_from(sorted(SELECTION_SHAPES)),
    q=st.sampled_from((7, BIG.q)),
    data=st.data(),
)
def test_decode_keeps_the_first_result_of_each_known_worker(name, q, data):
    """Over arbitrary worker id lists (unknown, negative and repeated ids, and
    repeats carrying a wrong block) decode returns the exact product when the
    distinct known ids are decodable, raises NotEnoughResults otherwise, and
    lets no other exception escape."""
    ctx, shape = FieldCtx(q), SELECTION_SHAPES[name]
    scheme = get_scheme(name, ctx)
    a, b, oracle = make_instance(shape, ctx, seed=data.draw(st.integers(0, 2**16), label="seed"))
    shares, results = all_results(scheme, a, b, shape)
    total = len(shares)
    ids = data.draw(st.lists(st.integers(-2, total + 2), max_size=3 * total), label="ids")
    wrong = FMatrix.random(shape.block_rows, shape.block_cols, ctx, np.random.default_rng(q))
    sent, distinct = [], set()
    for i in ids:
        if 0 <= i < total and i not in distinct:
            # A worker's first result is right.
            sent.append(WorkerResult(i, results[i].c_tilde))
            distinct.add(i)
        else:
            # A repeat or a stray id: the right block or a wrong one.
            block = data.draw(st.sampled_from((results[i % total].c_tilde, wrong)), label="block")
            sent.append(WorkerResult(i, block))
    try:
        got = scheme.decode(sent, shares, shape)
    except PolycodeError as exc:
        assert isinstance(exc, NotEnoughResults) and not scheme.decodable(distinct, shape)
    else:
        assert scheme.decodable(distinct, shape) and got == oracle
    if name == "poly":
        try:
            got = scheme.decode_with_errors(sent, shares, shape)
        except PolycodeError as exc:
            assert isinstance(exc, NotEnoughResults) and not scheme.decodable(distinct, shape)
        else:
            assert scheme.decodable(distinct, shape) and got == oracle


@settings(deadline=None, max_examples=300)
@given(
    name=st.sampled_from(sorted(SELECTION_SHAPES)),
    big_n=st.integers(4, 16),
    data=st.data(),
)
def test_decodable_ignores_ids_of_no_worker(name, big_n, data):
    """decodable answers for the worker ids among its argument only: foreign
    ids (negative, or num_shares and beyond) change nothing and raise
    nothing. A shape the scheme rejects may raise, but only a PolycodeError."""
    shape = dataclasses.replace(SELECTION_SHAPES[name], N=big_n)
    scheme = get_scheme(name, BIG)
    total = scheme.num_shares(shape)
    ids = data.draw(st.sets(st.integers(-3 * total, 3 * total)), label="ids")
    try:
        got = scheme.decodable(ids, shape)
    except PolycodeError:
        with pytest.raises(PolycodeError):
            scheme.decodable(set(), shape)
        return
    assert got == scheme.decodable({i for i in ids if 0 <= i < total}, shape)


@st.composite
def rule_cases(draw):
    """A scheme name and a shape it takes, from 1 to 36 workers."""
    name = draw(st.sampled_from(SCHEME_NAMES), label="name")
    m = draw(st.integers(1, 4), label="m")
    n = m if name == "product" else draw(st.integers(1, 4), label="n")
    if name == "product":
        big_n = draw(st.integers(m, 6), label="side") ** 2
    elif name == "mds1d":
        big_n = n * draw(st.integers(m, m + 4), label="group_size")
    else:
        big_n = m * n + draw(st.integers(0, 6), label="spare")
    return name, ProblemShape(s=max(m, n), r=m, t=n, m=m, n=n, N=big_n)


@settings(deadline=None, max_examples=400)
@given(case=rule_cases(), data=st.data())
def test_decodable_equals_the_rule_on_id_sets(case, data):
    """`decodable`, which asks `latency`, against each scheme's rule stated on
    sets in the tests, on random id sets of every size with ids of no worker
    among them."""
    name, shape = case
    scheme = get_scheme(name, BIG)
    total = scheme.num_shares(shape)
    size = data.draw(st.integers(0, total), label="size")
    ids = set(data.draw(st.permutations(range(total)), label="order")[:size])
    ids |= data.draw(st.sets(st.integers(-total, 2 * total).filter(lambda i: not 0 <= i < total),
                             max_size=3), label="foreign")
    assert scheme.decodable(ids, shape) == decodable_ref(name, ids, shape)


@pytest.mark.parametrize(
    "name,big_n,ids",
    [
        ("mds1d", 8, {0, 1, -1, -2}),
        ("mds1d", 8, {0, 1, 4, 99}),
        ("product", 9, {0, 1, 3, 99}),
        ("poly", 9, {-1, -2, 99, 100}),
    ],
)
def test_foreign_ids_do_not_count(name, big_n, ids):
    shape = ProblemShape(s=4, r=2, t=2, m=2, n=2, N=big_n)
    assert not get_scheme(name, BIG).decodable(ids, shape)


@pytest.mark.parametrize("case", ("one 4x2", "one 3x4", "every 4x2"))
@pytest.mark.parametrize("name,big_n", [("poly", 6), ("mds1d", 6), ("product", 4), ("uncoded", 4)])
def test_decode_rejects_blocks_of_the_wrong_shape(name, big_n, case):
    # Blocks are 2x4. A 3x4 block has the wrong size; a 4x2 block has the
    # right size and would otherwise be read as a 2x4 one.
    shape = ProblemShape(s=4, r=4, t=8, m=2, n=2, N=big_n)
    a, b, _ = make_instance(shape, BIG)
    scheme = get_scheme(name, BIG)
    shares, results = all_results(scheme, a, b, shape)

    def turned(r):
        return WorkerResult(r.worker_id, FMatrix(r.c_tilde.data.reshape(4, 2), BIG))

    if case == "every 4x2":
        results = [turned(r) for r in results]
    elif case == "one 4x2":
        results[1] = turned(results[1])
    else:
        results[1] = WorkerResult(1, FMatrix.random(3, 4, BIG, np.random.default_rng(1)))
    with pytest.raises(ShapeMismatch):
        scheme.decode(results, shares, shape)


class TestUncoded:
    def test_requires_every_worker(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)
        a, b, oracle = make_instance(shape, BIG)
        scheme = UncodedScheme(BIG)
        shares, results = all_results(scheme, a, b, shape)
        assert len(shares) == 4
        assert scheme.decodable({0, 1, 2, 3}, shape)
        assert not scheme.decodable({0, 1, 2}, shape)
        assert scheme.decode(results, shares, shape) == oracle
        with pytest.raises(NotEnoughResults):
            scheme.decode(results[:3], shares, shape)


class TestThresholds:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_poly_threshold_is_mn(self, m, n):
        shape = ProblemShape(s=max(m, n), r=m, t=n, m=m, n=n, N=m * n)
        assert threshold("poly", shape) == m * n

    def test_fig3_regime(self):
        shape = ProblemShape(s=10, r=10, t=10, m=10, n=10, N=400)
        assert threshold("poly", shape) == 100
        assert threshold("mds1d", shape) == 370
        assert threshold("product", shape) == 280

    def test_worked_example_threshold(self):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)
        assert threshold("poly", shape) == 4

    def test_all_one_partition(self):
        shape = ProblemShape(s=2, r=1, t=1, m=1, n=1, N=1)
        for name in ("poly", "mds1d", "product", "uncoded"):
            assert threshold(name, shape) == 1

    def test_ordering_poly_product_mds(self):
        # wherever all three are defined: K_poly <= K_product <= K_mds1d
        for m in (2, 3, 4):
            for side in range(m, 9):
                big_n = side * side
                if big_n % m:
                    continue
                shape = ProblemShape(s=m, r=m, t=m, m=m, n=m, N=big_n)
                kp = threshold("poly", shape)
                kprod = threshold("product", shape)
                if big_n // m >= m:
                    kmds = threshold("mds1d", shape)
                    assert kprod <= kmds
                assert kp <= kprod

    def test_cut_set_floor_on_predicates(self):
        # decodable(S) implies |S| >= mn for every scheme on small instances
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=4)
        shapes = {
            "poly": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5),
            "mds1d": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=6),
            "product": ProblemShape(s=8, r=4, t=4, m=2, n=2, N=9),
            "uncoded": shape,
        }
        for name, shp in shapes.items():
            scheme = get_scheme(name, BIG)
            workers = scheme.num_shares(shp)
            for mask in range(1 << workers):
                subset = {i for i in range(workers) if mask >> i & 1}
                if scheme.decodable(subset, shp):
                    assert len(subset) >= 4

    def test_threshold_table(self):
        rows = threshold_table(10, 10, [400])
        table = {name: t for _, name, t in rows}
        assert table["poly"] == 100
        assert table["product"] == 280
        assert table["mds1d"] == 370

    def test_threshold_table_propagates_foreign_errors(self, monkeypatch):
        # Only PolycodeError means "scheme undefined at this N"; a bug inside
        # a scheme's threshold must surface, not drop the row.
        def broken(self, shape):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(PolyScheme, "threshold", broken)
        with pytest.raises(ZeroDivisionError):
            threshold_table(2, 2, [4])

