import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgrid import assemble_blocks
from polycode.errors import (
    EmptyInput,
    InvalidParameters,
    NonDivisiblePartition,
    ShapeMismatch,
)
from polycode.field import FieldCtx, field_ints
from polycode.matrixcore import (
    FMatrix,
    ProblemShape,
    canonical,
    lincomb,
    load_matrix,
    save_matrix,
    split_cols,
    transpose_mul,
)

F7 = FieldCtx(7)
BIG = FieldCtx()


def naive_transpose_mul(a: FMatrix, b: FMatrix) -> FMatrix:
    # independent triple-loop oracle
    q = a.ctx.q
    out = [[0] * b.cols for _ in range(a.cols)]
    for i in range(a.cols):
        for j in range(b.cols):
            acc = 0
            for k in range(a.rows):
                acc += int(a.data[k, i]) * int(b.data[k, j])
            out[i][j] = acc % q
    return FMatrix(out, a.ctx)


class TestProblemShape:
    def test_valid(self):
        shape = ProblemShape(s=8, r=4, t=6, m=2, n=3, N=7)
        assert shape.block_rows == 2 and shape.block_cols == 2

    def test_non_divisible_rejected(self):
        with pytest.raises(NonDivisiblePartition):
            ProblemShape(s=8, r=5, t=6, m=2, n=3, N=7)
        with pytest.raises(NonDivisiblePartition):
            ProblemShape(s=8, r=4, t=7, m=2, n=3, N=7)

    def test_wide_inputs_rejected_by_default(self):
        with pytest.raises(InvalidParameters):
            ProblemShape(s=2, r=4, t=4, m=2, n=2, N=5)


    @pytest.mark.parametrize("name", ("s", "r", "t", "m", "n", "N"))
    @pytest.mark.parametrize("kind", (float, str, lambda v: None), ids=("float", "str", "none"))
    def test_parameters_must_be_integers(self, name, kind):
        args = dict(s=8, r=8, t=8, m=2, n=2, N=6)
        args[name] = kind(args[name])
        with pytest.raises(InvalidParameters):
            ProblemShape(**args)

    def test_numpy_integer_parameters_are_stored_as_ints(self):
        args = dict(s=8, r=8, t=8, m=2, n=2, N=6)
        shape = ProblemShape(**{k: np.int64(v) for k, v in args.items()})
        assert all(type(getattr(shape, k)) is int for k in args)
        assert shape == ProblemShape(**args) and hash(shape) == hash(ProblemShape(**args))


class TestSplitCols:
    def test_two_way_split_round_trip(self):
        rng = np.random.default_rng(0)
        m = FMatrix.random(4, 4, F7, rng)
        parts = split_cols(m, 2)
        assert [p.cols for p in parts] == [2, 2]
        assert assemble_blocks([parts]) == m

    def test_identity_split(self):
        rng = np.random.default_rng(1)
        m = FMatrix.random(3, 5, F7, rng)
        assert split_cols(m, 1) == [m]

    def test_full_split_is_column_extraction(self):
        rng = np.random.default_rng(2)
        m = FMatrix.random(3, 4, F7, rng)
        parts = split_cols(m, 4)
        for j, p in enumerate(parts):
            assert [int(v) for v in p.data[:, 0]] == [int(v) for v in m.data[:, j]]

    def test_non_divisible(self):
        rng = np.random.default_rng(3)
        m = FMatrix.random(3, 4, F7, rng)
        with pytest.raises(NonDivisiblePartition):
            split_cols(m, 3)

    @pytest.mark.parametrize("parts", ("1", 2.0, None))
    def test_part_count_must_be_an_integer(self, parts):
        with pytest.raises(InvalidParameters):
            split_cols(FMatrix.zeros(3, 4, F7), parts)


class TestTransposeMul:
    def test_identity_padded(self):
        eye = np.zeros((5, 3), dtype=object)
        for i in range(3):
            eye[i, i] = 1
        a = FMatrix(eye, F7)
        rng = np.random.default_rng(4)
        b = FMatrix.random(5, 4, F7, rng)
        c = transpose_mul(a, b)
        assert (c.data == b.data[:3, :]).all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        a = FMatrix.random(8, 4, F7, rng)
        b = FMatrix.random(8, 6, F7, rng)
        assert transpose_mul(a, b) == naive_transpose_mul(a, b)

    def test_matches_naive_oracle_large_modulus(self):
        rng = np.random.default_rng(6)
        a = FMatrix.random(6, 3, BIG, rng)
        b = FMatrix.random(6, 5, BIG, rng)
        assert transpose_mul(a, b) == naive_transpose_mul(a, b)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ShapeMismatch):
            transpose_mul(FMatrix.random(3, 2, F7, rng), FMatrix.random(4, 2, F7, rng))

    def test_block_assembly_identity(self):
        rng = np.random.default_rng(8)
        a = FMatrix.random(8, 4, F7, rng)
        b = FMatrix.random(8, 6, F7, rng)
        a_blocks = split_cols(a, 2)
        b_blocks = split_cols(b, 3)
        grid = [[transpose_mul(aj, bk) for bk in b_blocks] for aj in a_blocks]
        assert assemble_blocks(grid) == transpose_mul(a, b)


class TestLincomb:
    def test_unit_coefficients(self):
        rng = np.random.default_rng(9)
        blocks = [FMatrix.random(3, 3, F7, rng) for _ in range(3)]
        assert lincomb(blocks, [1, 0, 0]) == blocks[0]

    def test_additive_inverse(self):
        rng = np.random.default_rng(10)
        x = FMatrix.random(3, 3, F7, rng)
        neg = FMatrix(x.data * 6, F7)
        assert lincomb([x, neg], [1, 1]) == FMatrix.zeros(3, 3, F7)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(11)
        blocks = [FMatrix.random(4, 3, BIG, rng) for _ in range(4)]
        coeffs = [int(c) for c in rng.integers(0, BIG.q, size=4)]
        got = lincomb(blocks, coeffs)
        for i in range(4):
            for j in range(3):
                want = sum(c * int(b.data[i, j]) for c, b in zip(coeffs, blocks)) % BIG.q
                assert int(got.data[i, j]) == want

    def test_bilinearity_of_transpose_mul(self):
        # transpose_mul(lincomb(As, c), B) == lincomb([Aj^T B], c)
        rng = np.random.default_rng(12)
        a_blocks = [FMatrix.random(5, 3, BIG, rng) for _ in range(3)]
        b = FMatrix.random(5, 4, BIG, rng)
        coeffs = [int(c) for c in rng.integers(0, BIG.q, size=3)]
        left = transpose_mul(lincomb(a_blocks, coeffs), b)
        right = lincomb([transpose_mul(aj, b) for aj in a_blocks], coeffs)
        assert left == right

    def test_errors(self):
        rng = np.random.default_rng(13)
        with pytest.raises(EmptyInput):
            lincomb([], [])
        blocks = [FMatrix.random(2, 2, F7, rng), FMatrix.random(2, 3, F7, rng)]
        with pytest.raises(ShapeMismatch):
            lincomb(blocks, [1, 1])


class TestStorage:
    def test_entries_are_canonical_int64(self):
        m = FMatrix([[2**70, -1], [7, 2**63 + 1]], F7)
        assert m.data.dtype == np.int64
        assert m.data.tolist() == [[2**70 % 7, 6], [0, (2**63 + 1) % 7]]

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
    def test_non_finite_entries_are_rejected(self, bad):
        with pytest.raises(InvalidParameters):
            FMatrix([[1, bad]], F7)
        with pytest.raises(InvalidParameters):
            FMatrix(np.array([[bad, 2.0]]), BIG)

    @pytest.mark.parametrize("bad", ([[1.5, 2.9]], np.array([[-0.5]]), [[2**70, 0.25]]))
    def test_non_integer_entries_are_rejected(self, bad):
        with pytest.raises(InvalidParameters):
            FMatrix(bad, F7)

    def test_integral_float_entries_are_kept(self):
        assert FMatrix([[2.0, -1.0]], F7).data.tolist() == [[2, 6]]
        assert FMatrix(np.array([[9.0, 0.0]]), F7).data.tolist() == [[2, 0]]

    @settings(deadline=None, max_examples=300)
    @given(
        q=st.sampled_from((7, 2**31 - 1, 2**61 - 1)),
        entries=st.lists(st.one_of(
            st.integers(), st.integers(-2**70, 2**70), st.booleans(), st.none(),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-2**60, 2**60).map(float),
            st.integers(-100, 100).map(str)), max_size=12),
    )
    def test_object_arrays_read_as_field_ints_reads_them(self, q, entries):
        # The int64 cast of an object array must give what field_ints gives
        # entry by entry, or raise InvalidParameters where it does.
        arr = np.empty(len(entries), dtype=object)
        arr[:] = entries
        try:
            want = field_ints(entries, q)
        except InvalidParameters:
            with pytest.raises(InvalidParameters):
                canonical(arr, q)
        else:
            got = canonical(arr, q)
            assert got.dtype == np.int64 and got.tolist() == want

    def test_digest_pinned(self):
        # Hex digests of the object-array storage this int64 storage replaced:
        # run reports must keep printing the same checksums.
        pinned = {
            7: "8ea297dba4c221eb39e7f7041020b54b6d768b3fbd8fcfa1ba4d137e57c85dc8",
            2147483647: "db995255deb45fbd9ab934933c4320f35f5d45b249a08915dec5abd7f1cc42cf",
            2**61 - 1: "16380bc74c10dfc9c214298b31dfd5b9d653f266ddcafea8958b26a86b4cc559",
        }
        for q, want in pinned.items():
            m = FMatrix.random(64, 64, FieldCtx(q), np.random.default_rng(20261017))
            assert m.digest() == want


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        m = FMatrix.random(3, 5, BIG, rng)
        path = tmp_path / "m.txt"
        save_matrix(m, path)
        assert load_matrix(path) == m
        assert load_matrix(path, BIG) == m

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 7\n1 2 3\n")
        with pytest.raises(InvalidParameters):
            load_matrix(path)

    @pytest.mark.parametrize("text", ["2 2 7\n1 x\n3 4", "-1 -4 7\n1 2 3 4", "2 2 7.0\n1 2\n3 4"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidParameters):
            load_matrix(path)
