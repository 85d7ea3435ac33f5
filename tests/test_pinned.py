"""Pinned outputs: the exact shares each scheme hands its workers, the exact
`polycode run` report, the exact `polycode sim` files and the exact
`polycode conv` and `polycode threshold` stdout.

A placement that gives worker i the wrong coded block can still decode
correctly, so only a pinned digest catches it. The digests were recorded
before encode and decode became single base-class methods; a change to any of
them changes the coded blocks or the CLI output, not just their speed.
"""

import hashlib

import numpy as np
import pytest

from polycode.cli import main
from polycode.field import FieldCtx
from polycode.matrixcore import FMatrix, ProblemShape
from polycode.schemes import get_scheme

# q -> (shape without N, N per scheme)
CASES = {
    7: (dict(s=4, r=4, t=4, m=2, n=2), {"poly": 6, "mds1d": 6, "product": 9, "uncoded": 4}),
    2**31 - 1: (dict(s=7, r=6, t=6, m=3, n=3), {"poly": 12, "mds1d": 12, "product": 16, "uncoded": 9}),
}

SHARE_DIGESTS = {
    (7, "poly"): "0e31ca8acbb7f061b68dacee8aeabd69eafec780a0fb03058d6855066118ee8c",
    (7, "mds1d"): "95bcd7b84213bf7d8f472edc3b256ca071166714682dec236be930c8d7eaaeaa",
    (7, "product"): "2b5d80c7a1be5525ccd532f9898a48db9dad145cd4b3ef8ac8f64f8d3eb76045",
    (7, "uncoded"): "3f9ce8ebbf013c715ea987b046b2ad251a087b45bd3175dac2ed0b29205d7ff4",
    (2**31 - 1, "poly"): "ed0edf1643b8252132c251cfe612b38db91820fbaeda4b9c4b8569d3f2661c59",
    (2**31 - 1, "mds1d"): "8590b9974276e4427682eb5e341672bd0f3d2bd4920ce18e0dfc56ac69ddcf56",
    (2**31 - 1, "product"): "0b2b6f0c783f923d2d46fcaedff941847b8feefddc7d602c972b3e8974521062",
    (2**31 - 1, "uncoded"): "ac7f97651dea2938ef12caa04c592f91b34ae26c04f2764205273de07756a6b5",
}

# sha256 of the stdout of `polycode run --scheme <name> --N 16 --m 2 --n 2
# --s 8 --r 4 --t 6 --seed 3 --format json --plan slow_random`.
RUN_DIGESTS = {
    "poly": "50924343163e6bc5de90ecdf98e68c9bcdf714685633fb927dda61c74c384601",
    "mds1d": "341d37b3bb1ce8f086c96f3d39fc3d6d980a9443b1da2be27ed8ed16b515422b",
    "product": "133ea0b2fc1128a89b0ab3287d2b0111e28405ed68736203f7092bbc38ba6b54",
    "uncoded": "a0e892d3ee39d8a54411e9c91a4d5bd302db09c8dd23698aacc9805b8a6e0036",
}

# sha256 of each file `polycode sim <args> --out-dir <dir>` writes, for all
# four schemes. The deterministic model makes every arrival tie. Recorded
# before the simulator asked each scheme for its own recovery rule.
SIM_DIGESTS = {
    "--N 16 --m 2 --n 2 --trials 300 --seed 5": {
        "latency.csv": "794dbff1f49d04772e20c83ec1eb567c2d277f74d358b25480fc624702e3716d",
        "ccdf.csv": "cafa740996e1830596e294648021f196458486b0990a429e576cff87995d0c6b",
        "summary.json": "327fe84423ff4202b097855eaa259a17a97bce56d1cedaa6733b1456abb2b0ca",
    },
    "--N 36 --m 3 --n 3 --trials 200 --seed 8 --model deterministic --value 2.5": {
        "latency.csv": "37af82fbf862f7a9cab39098016252f9572a0655493da8e92edbe355a5cb3033",
        "ccdf.csv": "a05761a14dfaf6533c615a0a6c26052154399fd1e85c3b789f7bc004e87b03fc",
        "summary.json": "1524c33bcdb0c94245275df5487681628b2ba50855980704cc812d429a11cee5",
    },
    # The simulator's larger shapes, where product-code peeling runs for many
    # rounds. Recorded before ProductScheme.latency alternated row and column
    # steps.
    "--N 64 --m 4 --n 4 --trials 500 --seed 11": {
        "latency.csv": "53d198dc4fb5a224b676fc06fce78d15936f772f87d4d4769044c7b812d2c1de",
        "ccdf.csv": "49a52a7a5d52fdf6780a272546ccafea7d0dedf7666c0096af9f8b32b239eee4",
        "summary.json": "3a8935fec8b0247503c9b3265d665a88b1e079d834ae72661f25cab9e4f47a26",
    },
    "--N 144 --m 6 --n 6 --trials 400 --seed 12": {
        "latency.csv": "e374c4be3243249ac507bc57dc2467de5f28efa401b034a9e05a984a1f4c9d8e",
        "ccdf.csv": "04344ad776b7757fef9c4dcf5dbecf5281c6c652e426124b9bc5a7e13f2d890c",
        "summary.json": "92050ff522844f28167e1a94520b4be44036e7b43a58c578ca6933fcf91995f8",
    },
}


# sha256 of the stdout of `polycode conv <args>`. The report holds no field
# element, so each shape prints the same bytes at every q; the pins fail if a
# decode at any q stops being exact.
CONV_DIGESTS = {
    "--m 3 --n 2 --N 7 --s 5 --seed 9 --q 7 --format json": "289f0bc1236e03501d0166c89f41f2874301e06f04e116371972de247ac3841b",
    "--m 3 --n 2 --N 7 --s 5 --seed 9 --q 7 --format text": "92424414001db4dc256f609638a58e488219f3943af02b78e333b4c73f6dd752",
    "--m 2 --n 2 --N 5 --s 3 --seed 1 --q 7 --format json": "708af36afbeeffc129c66b9a864cc7070c143e212c53164a8f9ff6ca3592157a",
    "--m 2 --n 2 --N 5 --s 3 --seed 1 --q 7 --format text": "29baf16ffd31a199aa7b160c9cede3c1a4b704c14649adb8025deda63678ea45",
    "--m 3 --n 2 --N 7 --s 5 --seed 9 --q 2147483647 --format json": "289f0bc1236e03501d0166c89f41f2874301e06f04e116371972de247ac3841b",
    "--m 3 --n 2 --N 7 --s 5 --seed 9 --q 2147483647 --format text": "92424414001db4dc256f609638a58e488219f3943af02b78e333b4c73f6dd752",
    "--m 2 --n 2 --N 5 --s 3 --seed 1 --q 2147483647 --format json": "708af36afbeeffc129c66b9a864cc7070c143e212c53164a8f9ff6ca3592157a",
    "--m 2 --n 2 --N 5 --s 3 --seed 1 --q 2147483647 --format text": "29baf16ffd31a199aa7b160c9cede3c1a4b704c14649adb8025deda63678ea45",
    "--m 3 --n 2 --N 7 --s 5 --seed 9 --q 2305843009213693951 --format json": "289f0bc1236e03501d0166c89f41f2874301e06f04e116371972de247ac3841b",
    "--m 3 --n 2 --N 7 --s 5 --seed 9 --q 2305843009213693951 --format text": "92424414001db4dc256f609638a58e488219f3943af02b78e333b4c73f6dd752",
    "--m 2 --n 2 --N 5 --s 3 --seed 1 --q 2305843009213693951 --format json": "708af36afbeeffc129c66b9a864cc7070c143e212c53164a8f9ff6ca3592157a",
    "--m 2 --n 2 --N 5 --s 3 --seed 1 --q 2305843009213693951 --format text": "29baf16ffd31a199aa7b160c9cede3c1a4b704c14649adb8025deda63678ea45",
}

# sha256 of the stdout of `polycode threshold <args>`.
THRESHOLD_DIGESTS = {
    "--m 3 --n 2 --N 1..40 --format csv": "03cddfb2e2a12f7ab72dfaad5a2eb1db05f6edc8dee52b8410a7ed09f0a304ba",
    "--m 3 --n 2 --N 1..40 --format json": "ad6d0306878437c34038a278e02cc084fc63cd2a74510a6d8af1aa879fc6ef93",
    "--m 3 --n 2 --N 1..40 --format text": "36590027b7fa81b8b20dba1daa9a11338485e4ebb8cf6fec6a65316f0301589c",
    "--m 2 --n 3 --N 6..150:12 --q 7 --format csv": "7d2fe22e64c2bf093247ab7697231d2961114b2196777aab0be5c7d4fbf12a5e",
    "--m 2 --n 3 --N 6..150:12 --q 7 --format json": "d9fd4d1140be2d5fad7c51ea3c73be882ef7863d4c76ff9d418283c3081256bd",
    "--m 2 --n 3 --N 6..150:12 --q 7 --format text": "e8f96701c8b7355e100b2b2c0770957d75d5283729ebe5b313e9e708dbb19939",
}


def share_digest(name: str, q: int) -> str:
    """One sha256 over every share's id, point and coded blocks, in order."""
    dims, big_ns = CASES[q]
    ctx = FieldCtx(q)
    shape = ProblemShape(N=big_ns[name], **dims)
    rng = np.random.default_rng(q % 1000 + 1)
    a = FMatrix.random(shape.s, shape.r, ctx, rng)
    b = FMatrix.random(shape.s, shape.t, ctx, rng)
    h = hashlib.sha256()
    for sh in get_scheme(name, ctx).encode(a, b, shape):
        h.update(f"{sh.worker_id} {sh.x} {sh.a_tilde.digest()} {sh.b_tilde.digest()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("q,name", sorted(SHARE_DIGESTS), ids=lambda v: str(v))
def test_share_digests_are_pinned(q, name):
    assert share_digest(name, q) == SHARE_DIGESTS[(q, name)]


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_report_is_pinned(name, capsys):
    args = ["run", "--scheme", name, "--N", "16", "--m", "2", "--n", "2", "--s", "8",
            "--r", "4", "--t", "6", "--seed", "3", "--format", "json", "--plan", "slow_random"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RUN_DIGESTS[name]


@pytest.mark.parametrize("args", sorted(SIM_DIGESTS))
def test_sim_files_are_pinned(args, tmp_path, capsys):
    assert main(["sim", *args.split(), "--out-dir", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in SIM_DIGESTS[args]}
    assert got == SIM_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(CONV_DIGESTS))
def test_conv_report_is_pinned(args, capsys):
    assert main(["conv", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CONV_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(THRESHOLD_DIGESTS))
def test_threshold_table_is_pinned(args, capsys):
    assert main(["threshold", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == THRESHOLD_DIGESTS[args]
