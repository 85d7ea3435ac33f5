import dataclasses
from itertools import combinations

import numpy as np
import pytest

from polycode.errors import (
    DuplicateEvaluationPoint,
    EmptyInput,
    InvalidParameters,
    NonDivisiblePartition,
    NotEnoughResults,
    TooManyWorkersForField,
)
from polycode import convolution, schemes
from polycode.field import FieldCtx
from polycode.convolution import (
    ConvResult,
    ConvShare,
    as_vector,
    conv_decode,
    conv_direct,
    conv_encode,
    conv_thresholds,
    conv_worker_compute,
    load_vector,
    pad_to_multiple,
    save_vector,
    split_vector,
)

F7 = FieldCtx(7)
BIG = FieldCtx()


def schoolbook(a, b, q):
    # independent double-loop oracle
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] = (out[i + j] + int(av) * int(bv)) % q
    return out


def run_pipeline(a, b, m, n, big_n, ctx, subset=None):
    a_blocks = split_vector(a, m, ctx)
    b_blocks = split_vector(b, n, ctx)
    shares = conv_encode(a_blocks, b_blocks, big_n, ctx)
    results = [conv_worker_compute(sh, ctx) for sh in shares]
    if subset is not None:
        results = [results[i] for i in subset]
    return conv_decode(results, m, n, ctx)


class TestConvDirect:
    def test_identity_kernel(self):
        a = [3, 1, 4, 1, 5]
        assert list(conv_direct(a, [1], F7)) == a

    def test_ones_pair(self):
        assert list(conv_direct([1, 1], [1, 1], F7)) == [1, 2, 1]

    def test_matches_schoolbook(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = list(rng.integers(0, BIG.q, size=int(rng.integers(1, 9))))
            b = list(rng.integers(0, BIG.q, size=int(rng.integers(1, 9))))
            assert list(conv_direct(a, b, BIG)) == schoolbook(a, b, BIG.q)

    @pytest.mark.parametrize("ctx", (F7, BIG), ids=("q7", "q31"))
    def test_every_length_to_64(self, ctx):
        # Equal and ragged lengths, either one the longer.
        rng = np.random.default_rng(64)
        for la in range(1, 65):
            for lb in (1, 2, 3, la, 17, 64):
                a = rng.integers(0, ctx.q, size=la)
                b = rng.integers(0, ctx.q, size=lb)
                got = conv_direct(a, b, ctx)
                assert got.dtype == np.int64 and list(got) == schoolbook(a, b, ctx.q)
                assert list(conv_direct(b, a, ctx)) == list(got)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            conv_direct([], [1], F7)


class TestSplitVector:
    def test_round_trip(self):
        blocks = split_vector(list(range(6)), 3, F7)
        assert [list(b) for b in blocks] == [[0, 1], [2, 3], [4, 5]]

    def test_non_divisible(self):
        with pytest.raises(NonDivisiblePartition):
            split_vector([1, 2, 3], 2, F7)

    def test_pad_to_multiple(self):
        padded = pad_to_multiple([1, 2, 3], 2, F7)
        assert list(padded) == [1, 2, 3, 0]
        assert list(pad_to_multiple([1, 2], 2, F7)) == [1, 2]

    def test_pad_to_no_parts(self):
        with pytest.raises(NonDivisiblePartition):
            pad_to_multiple([1, 2, 3], 0, F7)

    @pytest.mark.parametrize("parts", (2.5, "2", None))
    def test_part_count_must_be_an_integer(self, parts):
        with pytest.raises(InvalidParameters):
            pad_to_multiple([1, 2, 3], parts, F7)
        with pytest.raises(InvalidParameters):
            split_vector([1, 2, 3, 4, 5], parts, F7)


class TestConvEncode:
    def test_point_zero_keeps_first_blocks(self):
        a_blocks = split_vector([1, 2, 3, 4], 2, F7)
        b_blocks = split_vector([5, 6, 0, 1], 2, F7)
        sh0 = conv_encode(a_blocks, b_blocks, 3, F7)[0]
        assert sh0.worker_id == 0
        assert list(sh0.a_tilde) == [1, 2] and list(sh0.b_tilde) == [5, 6]

    def test_point_one_sums_blocks(self):
        a_blocks = split_vector([1, 2, 3, 4], 2, F7)
        b_blocks = split_vector([5, 6, 0, 1], 2, F7)
        sh1 = conv_encode(a_blocks, b_blocks, 3, F7)[1]
        assert list(sh1.a_tilde) == [(1 + 3) % 7, (2 + 4) % 7]
        assert list(sh1.b_tilde) == [(5 + 0) % 7, (6 + 1) % 7]

    def test_too_many_workers_for_field(self):
        blocks = split_vector([1, 2], 2, F7)
        with pytest.raises(TooManyWorkersForField):
            conv_encode(blocks, blocks, 8, F7)

    def test_mismatched_block_lengths(self):
        with pytest.raises(InvalidParameters):
            conv_encode([as_vector([1, 2], F7)], [as_vector([1], F7)], 2, F7)

    @pytest.mark.parametrize("big_n", (0, -1, 2.5, "3", None))
    def test_worker_count_must_be_a_positive_integer(self, big_n):
        blocks = split_vector([1, 2, 3, 4], 2, F7)
        with pytest.raises(InvalidParameters):
            conv_encode(blocks, blocks, big_n, F7)


class TestConvDecode:
    def test_all_four_subsets_of_seven_exact(self):
        rng = np.random.default_rng(1)
        m, n, big_n, s = 3, 2, 7, 16
        a = list(rng.integers(0, BIG.q, size=m * s))
        b = list(rng.integers(0, BIG.q, size=n * s))
        oracle = schoolbook(a, b, BIG.q)
        a_blocks = split_vector(a, m, BIG)
        b_blocks = split_vector(b, n, BIG)
        shares = conv_encode(a_blocks, b_blocks, big_n, BIG)
        results = [conv_worker_compute(sh, BIG) for sh in shares]
        for subset in combinations(range(big_n), m + n - 1):
            got = conv_decode([results[i] for i in subset], m, n, BIG)
            assert list(got) == oracle

    def test_one_short_raises(self):
        rng = np.random.default_rng(2)
        a = list(rng.integers(0, 7, size=6))
        b = list(rng.integers(0, 7, size=4))
        with pytest.raises(NotEnoughResults):
            run_pipeline(a, b, 3, 2, 7, F7, subset=range(3))

    def test_duplicate_points_among_results(self):
        # Worker 7's point is worker 0's in F_7.
        blocks = split_vector([1, 2, 3, 4], 2, F7)
        results = [conv_worker_compute(sh, F7) for sh in conv_encode(blocks, blocks, 3, F7)]
        results[1] = dataclasses.replace(results[1], worker_id=7)
        with pytest.raises(DuplicateEvaluationPoint):
            conv_decode(results, 2, 2, F7)

    def test_negative_worker_ids_are_dropped(self):
        # No worker holds id -1: its result is dropped, not read at the
        # point -1, which is 6 in F_7.
        blocks = split_vector([1, 2, 3, 4], 2, F7)
        results = [conv_worker_compute(sh, F7) for sh in conv_encode(blocks, blocks, 4, F7)]
        results[0] = dataclasses.replace(results[0], worker_id=-1)
        with pytest.raises(NotEnoughResults):
            conv_decode(results[:3], 2, 2, F7)
        assert list(conv_decode(results, 2, 2, F7)) == schoolbook([1, 2, 3, 4], [1, 2, 3, 4], 7)

    def test_points_are_the_picked_worker_ids(self, monkeypatch):
        # The lowest m+n-1 distinct worker ids, whatever the results' order;
        # neither a share nor a result carries a point of its own.
        assert [f.name for f in dataclasses.fields(ConvShare)] == ["worker_id", "a_tilde", "b_tilde"]
        assert [f.name for f in dataclasses.fields(ConvResult)] == ["worker_id", "value"]
        asked, real = [], convolution._interpolation_weights
        monkeypatch.setattr(convolution, "_interpolation_weights",
                            lambda xs, ctx: asked.append(list(xs)) or real(xs, ctx))
        rng = np.random.default_rng(6)
        a = list(rng.integers(0, BIG.q, size=6))
        b = list(rng.integers(0, BIG.q, size=6))
        shares = conv_encode(split_vector(a, 2, BIG), split_vector(b, 2, BIG), 7, BIG)
        results = [conv_worker_compute(shares[i], BIG) for i in (6, 2, 4, 2, 1, 5)]
        assert list(conv_decode(results, 2, 2, BIG)) == schoolbook(a, b, BIG.q)
        assert asked == [[1, 2, 4]]

    def test_a_far_worker_id_builds_no_power_table(self):
        # conv_decode reads a result's worker id at face value; a point far
        # past the others is interpolated at, but no table as long as the id
        # is built for it.
        blocks = split_vector([1, 2, 3, 4], 2, BIG)
        results = [conv_worker_compute(sh, BIG) for sh in conv_encode(blocks, blocks, 3, BIG)]
        results[2] = dataclasses.replace(results[2], worker_id=10**4)
        built = schemes._vandermonde_of.cache_info().misses
        conv_decode(results, 2, 2, BIG)
        assert schemes._vandermonde_of.cache_info().misses == built

    @pytest.mark.parametrize("m, n", ((1.5, 2), (2, "2"), (None, 1)))
    def test_partition_counts_must_be_integers(self, m, n):
        with pytest.raises(InvalidParameters):
            conv_decode([], m, n, F7)

    @pytest.mark.parametrize("m, n", ((0, 1), (0, 0), (1, 0)))
    def test_nonpositive_partition_counts(self, m, n):
        blocks = split_vector([1, 2, 3, 4], 2, F7)
        results = [conv_worker_compute(sh, F7) for sh in conv_encode(blocks, blocks, 3, F7)]
        with pytest.raises(InvalidParameters):
            conv_decode(results, m, n, F7)

    def test_all_small_partitions_match_oracle(self):
        rng = np.random.default_rng(3)
        s = 4
        for m in range(1, 6):
            for n in range(1, 6):
                a = list(rng.integers(0, BIG.q, size=m * s))
                b = list(rng.integers(0, BIG.q, size=n * s))
                got = run_pipeline(a, b, m, n, m + n - 1, BIG)
                assert list(got) == schoolbook(a, b, BIG.q)

    def test_duplicate_worker_results_ignored(self):
        rng = np.random.default_rng(4)
        a = list(rng.integers(0, 7, size=4))
        b = list(rng.integers(0, 7, size=4))
        a_blocks = split_vector(a, 2, F7)
        b_blocks = split_vector(b, 2, F7)
        shares = conv_encode(a_blocks, b_blocks, 4, F7)
        results = [conv_worker_compute(sh, F7) for sh in shares]
        got = conv_decode([results[0], results[0], results[1], results[2]], 2, 2, F7)
        assert list(got) == schoolbook(a, b, 7)


class TestConvThresholds:
    def test_known_values(self):
        t = conv_thresholds(3, 2, 7)
        assert t["conv_poly"] == 4
        assert t["via_matmul"] == 6
        assert t["lower_bound"] == 3
        assert "coded_conv_baseline" not in t

    def test_baseline_when_defined(self):
        t = conv_thresholds(2, 2, 6)
        assert t["coded_conv_baseline"] == 6 - 3 + 2

    @pytest.mark.parametrize("m, n, big_n", ((2.5, 2, 4), (2, "2", 4), (2, 2, 4.0)))
    def test_counts_must_be_integers(self, m, n, big_n):
        with pytest.raises(InvalidParameters):
            conv_thresholds(m, n, big_n)

    def test_factor_two_gap_over_sweep(self):
        for m in range(1, 12):
            for n in range(1, 12):
                t = conv_thresholds(m, n, m * n)
                # Factor-2 guarantee: the lower bound exceeds half the achieved threshold.
                assert t["lower_bound"] <= t["conv_poly"] < 2 * t["lower_bound"]


class TestVectorIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        vec = as_vector(rng.integers(0, BIG.q, size=9), BIG)
        path = tmp_path / "v.txt"
        save_vector(vec, path, BIG)
        back, ctx = load_vector(path)
        assert ctx.q == BIG.q and list(back) == list(vec)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 7\n1 2\n")
        with pytest.raises(InvalidParameters):
            load_vector(path)

    @pytest.mark.parametrize("text", ["3 7\n1 x 3", "-2 7\n", "3 7\n1 2 3.5"])
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidParameters):
            load_vector(path)
