import json

import numpy as np
import pytest

from polycode.cli import _parse_range, main
from polycode.field import FieldCtx
from polycode.matrixcore import FMatrix, ProblemShape, save_matrix
from polycode.schemes import PolyScheme
from polycode.verify import sweep_decode_subsets

F7 = FieldCtx(7)


class TestParseRange:
    def test_single(self):
        assert _parse_range("400") == [400]

    def test_range(self):
        assert _parse_range("3..6") == [3, 4, 5, 6]

    def test_range_with_step(self):
        assert _parse_range("100..500:200") == [100, 300, 500]


class TestThresholdCommand:
    def test_csv_known_values(self, capsys):
        assert main(["threshold", "--m", "10", "--n", "10", "--N", "400"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "N,scheme,threshold"
        table = {row.split(",")[1]: int(row.split(",")[2]) for row in lines[1:]}
        assert table["poly"] == 100
        assert table["product"] == 280
        assert table["mds1d"] == 370
        assert table["lower_bound"] == 100

    def test_output_file_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(
                ["threshold", "--m", "3", "--n", "3", "--N", "9..36:9", "--out", str(p)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format(self, capsys):
        assert main(["threshold", "--m", "2", "--n", "2", "--N", "5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"N": 5, "scheme": "poly", "threshold": 4} in rows

    @pytest.mark.parametrize("m, n", ((0, 1), (1, 0), (-2, 3)))
    def test_nonpositive_partition_counts_are_an_error(self, m, n, capsys):
        assert main(["threshold", "--m", str(m), "--n", str(n), "--N", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: m and n must be positive, got m={m}, n={n}\n"


    @pytest.mark.parametrize("spec", ("0", "-2", "0..3"))
    def test_nonpositive_worker_counts_are_an_error(self, spec, capsys):
        assert main(["threshold", "--m", "2", "--n", "2", "--N", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: N must be positive")


class TestRunCommand:
    ARGS = ["run", "--scheme", "poly", "--N", "5", "--m", "2", "--n", "2",
            "--s", "8", "--r", "4", "--t", "4", "--verify"]

    def test_verified_run(self, capsys):
        assert main(self.ARGS) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["scheme"] == "poly"
        assert len(rep["responders"]) == 4

    def test_reproducible_json(self, capsys):
        main(self.ARGS + ["--seed", "5"])
        first = capsys.readouterr().out
        main(self.ARGS + ["--seed", "5"])
        assert capsys.readouterr().out == first

    def test_matrix_files(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = FMatrix.random(8, 4, F7, rng)
        b = FMatrix.random(8, 4, F7, rng)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_matrix(a, pa)
        save_matrix(b, pb)
        code = main(self.ARGS + ["--q", "7", "--A", str(pa), "--B", str(pb)])
        assert code == 0

    def test_missing_matrix_pair_is_error(self, tmp_path, capsys):
        code = main(self.ARGS + ["--A", str(tmp_path / "only_a.txt")])
        assert code == 1

    def test_invalid_shape_is_error(self, capsys):
        # r not divisible by m
        code = main(["run", "--N", "5", "--m", "2", "--n", "2",
                     "--s", "8", "--r", "5", "--t", "4"])
        assert code == 1

    def test_env_var_sets_modulus(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYCODE_Q", "101")
        # parser defaults are bound at build time, so a fresh parse picks it up
        assert main(self.ARGS) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["scheme"] == "poly"
        # 101 < 2^8: one byte per element, 4 results x 2x2 blocks
        assert rep["bytes_received"] == 16


class TestSimCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        code = main(
            ["sim", "--N", "9", "--m", "2", "--n", "2",
             "--schemes", "poly,product,uncoded", "--trials", "200",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        for name in ("latency.csv", "ccdf.csv", "summary.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["mean"]["poly"] <= summary["mean"]["uncoded"]
        lat = (tmp_path / "latency.csv").read_text().splitlines()
        assert lat[0] == "trial,scheme,latency"
        assert len(lat) == 1 + 3 * 200

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            main(["sim", "--N", "8", "--m", "2", "--n", "2",
                  "--schemes", "poly,uncoded", "--trials", "100",
                  "--seed", "3", "--out-dir", str(d)])
        for name in ("latency.csv", "ccdf.csv", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_a_scheme_that_cannot_run_is_named(self, tmp_path, capsys):
        # All four schemes by default: mds1d cannot split N = 9 into n = 2
        # groups, while poly, product and uncoded could run.
        code = main(["sim", "--N", "9", "--m", "2", "--n", "2", "--trials", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mds1d: n=2 does not divide N=9") and "--schemes" in err
        assert not any(tmp_path.iterdir())

    def test_unknown_scheme_is_error(self, tmp_path, capsys):
        code = main(["sim", "--N", "8", "--m", "2", "--n", "2",
                     "--schemes", "warp", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unknown scheme 'warp'; choose from" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", (
    ["run", "--N", "4", "--m", "2", "--n", "2", "--factor", "0.5"],
    ["run", "--N", "4", "--m", "2", "--n", "2", "--factor", "nan"],
    ["sim", "--N", "4", "--m", "2", "--n", "2", "--model", "deterministic", "--rate", "-1"],
    ["sim", "--N", "4", "--m", "2", "--n", "2", "--model", "deterministic", "--shift", "-1"],
    ["sim", "--N", "4", "--m", "2", "--n", "2", "--value", "-5"],
), ids=("run_factor_below_1", "run_factor_nan", "sim_rate", "sim_shift", "sim_value"))
def test_bad_plan_and_model_flags_are_an_error_line(argv, capsys, tmp_path, monkeypatch):
    # Each flag goes to StragglerPlan or LatencyModel, which check every
    # field, whether or not the chosen plan or model reads it.
    monkeypatch.chdir(tmp_path)
    if argv[0] == "sim":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not any(tmp_path.iterdir())


class TestConvCommand:
    def test_exact_decode_and_thresholds(self, capsys):
        code = main(["conv", "--m", "3", "--n", "2", "--N", "7", "--s", "16"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True
        assert payload["decoded_from"] == 4
        assert payload["thresholds"]["conv_poly"] == 4
        assert payload["thresholds"]["lower_bound"] == 3

    def test_pad_flag_with_files(self, tmp_path, capsys):
        from polycode.convolution import save_vector

        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_vector([1, 2, 3], pa, F7)
        save_vector([4, 5, 6], pb, F7)
        code = main(["conv", "--m", "2", "--n", "2", "--N", "3",
                     "--q", "7", "--A", str(pa), "--B", str(pb), "--pad"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["exact"] is True


@pytest.mark.parametrize("argv", (
    ["verify"],
    ["run", "--N", "4", "--m", "2", "--n", "2"],
    ["threshold", "--m", "2", "--n", "2", "--N", "4"],
    ["sim", "--N", "4", "--m", "2", "--n", "2"],
    ["conv", "--m", "2", "--n", "2", "--N", "4"],
), ids=lambda argv: argv[0])
def test_bad_env_modulus_is_an_error_line(argv, capsys, monkeypatch):
    # The --q default is read while the parser is built; that must not
    # escape main as a traceback, whichever subcommand runs.
    monkeypatch.setenv("POLYCODE_Q", "abc")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: POLYCODE_Q must be an integer, got 'abc'\n"


class TestUsageErrors:
    # Each command takes only the shared options it reads, spelled out in
    # full; a usage error is a validation error.
    @pytest.mark.parametrize("argv", (
        ["run", "--scheme", "bogus", "--N", "4", "--m", "2", "--n", "2"],
        ["run", "--N", "4", "--m", "2", "--n", "2", "--format", "csv"],
        ["conv", "--m", "2", "--n", "2", "--N", "4", "--format", "csv"],
        ["threshold", "--m", "2", "--n", "2", "--N", "4", "--seed", "1"],
        ["sim", "--N", "4", "--m", "2", "--n", "2", "--format", "csv"],
        ["sim", "--N", "4", "--m", "2", "--n", "2", "--out", "x.json"],
        ["run", "--N", "4", "--m", "2", "--n", "2", "--form", "text"],
        [],
        ["verify", "--max-workers", "9"],
        ["run", "--N", "4", "--m", "2", "--n", "2", "--plan", "slow1x2"],
    ), ids=("bad_choice", "run_csv", "conv_csv", "threshold_seed", "sim_format", "sim_out",
            "abbreviation", "no_command", "verify_max_workers", "plan_slow1x2"))
    def test_exit_1_with_usage_on_stderr(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: polycode")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", (["--help"], ["run", "--help"]))
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: polycode")


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("[PASS]") >= 4

    class Unchecked(PolyScheme):
        """Solves whatever it is given, without the decodability check."""

        def _select(self, results, shares, shape):
            results = sorted(results, key=lambda r: r.worker_id)
            return [r.worker_id for r in results], np.stack([r.c_tilde.data for r in results])

    class Constant(PolyScheme):
        """Returns a product for any subset."""

        def decode(self, results, shares, shape):
            return FMatrix.zeros(4, 4, F7)

    @pytest.mark.parametrize("mutant", [Unchecked, Constant])
    def test_sweep_requires_not_enough_results_below_the_threshold(self, mutant):
        shape = ProblemShape(s=8, r=4, t=4, m=2, n=2, N=5)
        with pytest.raises(AssertionError, match=r"subset \(0,\)") as info:
            sweep_decode_subsets(mutant(F7), shape, F7)
        # The mutant's selection has the real one's type: the decode itself fails.
        assert "TypeError" not in str(info.value)
