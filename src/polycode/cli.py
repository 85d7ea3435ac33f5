"""Command-line entry point.

Subcommands: threshold, run, sim, conv, verify, each taking only the shared
options it reads (--q, --seed, --format, --out). All randomness hangs off a
single seed; outputs are byte-identical across runs with the same arguments.

Exit codes: 0 ok, 1 validation or usage error, 2 decoding failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import verify as verify_mod
from .cluster import StragglerPlan, run
from .convolution import (
    conv_decode,
    conv_direct,
    conv_encode,
    conv_thresholds,
    conv_worker_compute,
    load_vector,
    pad_to_multiple,
    split_vector,
)
from .errors import DecodingFailure, InvalidParameters, PolycodeError
from .field import DEFAULT_Q, FieldCtx
from .matrixcore import FMatrix, ProblemShape, load_matrix, transpose_mul
from .schemes import SCHEME_NAMES, get_scheme, threshold_table
from .sim import LatencyModel, dominance_check


def _parse_range(spec: str) -> list:
    """`400` or `100..500` or `100..500:50`: a nonempty list, or
    InvalidParameters naming the spec."""
    bounds, colon, step = spec.partition(":")
    lo, dots, hi = bounds.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
        step = int(step) if colon else 1
    except ValueError:
        raise InvalidParameters(f"N range {spec!r}: bounds and step must be integers") from None
    if step < 1:
        raise InvalidParameters(f"N range {spec!r}: step must be at least 1")
    if hi < lo:
        raise InvalidParameters(f"N range {spec!r} is empty")
    return list(range(lo, hi + 1, step))


def _atomic_write(path: str, text: str) -> None:
    """No partial output files: write to a sibling temp file, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-polycode-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str = None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _files_given(args) -> bool:
    """Whether the inputs come from the files --A and --B: both or neither."""
    if bool(args.A) != bool(args.B):
        raise PolycodeError("provide both --A and --B, or neither")
    return bool(args.A)


def cmd_threshold(args) -> int:
    rows = threshold_table(args.m, args.n, _parse_range(args.N), FieldCtx(args.q))
    rows += [(big_n, "lower_bound", args.m * args.n) for big_n in _parse_range(args.N)]
    rows.sort(key=lambda r: (r[0], r[1]))
    if args.format == "json":
        text = json.dumps(
            [{"N": n, "scheme": s, "threshold": t} for n, s, t in rows], indent=2
        ) + "\n"
    else:
        lines = ["N,scheme,threshold"] + [f"{n},{s},{t}" for n, s, t in rows]
        text = "\n".join(lines) + "\n"
        if args.format == "text":
            text = text.replace(",", "\t")
    _emit(text, args.out)
    return 0


def cmd_run(args) -> int:
    ctx = FieldCtx(args.q)
    shape = ProblemShape(s=args.s, r=args.r, t=args.t, m=args.m, n=args.n, N=args.N)
    rng = np.random.default_rng(args.seed)
    if _files_given(args):
        a = load_matrix(args.A, ctx)
        b = load_matrix(args.B, ctx)
    else:
        a = FMatrix.random(shape.s, shape.r, ctx, rng)
        b = FMatrix.random(shape.s, shape.t, ctx, rng)
    scheme = get_scheme(args.scheme, ctx)
    plan = StragglerPlan(args.plan, factor=args.factor)
    c, report = run(scheme, a, b, shape, plan=plan, seed=args.seed, clock=args.clock)
    if args.verify and c != transpose_mul(a, b):
        raise DecodingFailure("decoded output differs from the direct product")
    if args.format == "text":
        lines = [
            f"scheme          {report.scheme}",
            f"wall_latency    {report.wall_latency:.6f}",
            f"decode_time     {report.decode_time:.6f}",
            f"responders      {report.responders}",
            f"bytes_received  {report.bytes_received}",
            f"output_digest   {report.output_digest}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(report.to_json() + "\n", args.out)
    return 0


def cmd_sim(args) -> int:
    ctx = FieldCtx(args.q)
    shape = ProblemShape(s=max(args.m, args.n), r=args.m, t=args.n, m=args.m, n=args.n, N=args.N)
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    kind = {"shifted_exp": "shifted_exponential"}.get(args.model, args.model)
    model = LatencyModel(kind, shift=args.shift, rate=args.rate, value=args.value)
    report = dominance_check(names, model, shape, args.trials, args.seed, ctx)
    os.makedirs(args.out_dir, exist_ok=True)
    lat_lines = ["trial,scheme,latency"]
    for name, lat in sorted(report.latencies.items()):
        lat_lines += [f"{i},{name},{v:.9f}" for i, v in enumerate(lat)]
    _atomic_write(os.path.join(args.out_dir, "latency.csv"), "\n".join(lat_lines) + "\n")
    ccdf_lines = ["t,scheme,ccdf"]
    for name in sorted(report.ccdfs):
        ccdf_lines += [
            f"{t:.9f},{name},{p:.9f}" for t, p in zip(report.grid, report.ccdfs[name])
        ]
    _atomic_write(os.path.join(args.out_dir, "ccdf.csv"), "\n".join(ccdf_lines) + "\n")
    summary = {
        "N": shape.N,
        "m": shape.m,
        "n": shape.n,
        "trials": report.trials,
        "seed": report.seed,
        "violations": report.violations,
        "max_violation": report.max_violation,
        "mean": report.means,
        "p95": report.p95,
        "p99": report.p99,
        "comm_load_bits": report.comm_bits,
    }
    _atomic_write(
        os.path.join(args.out_dir, "summary.json"), json.dumps(summary, indent=2) + "\n"
    )
    sys.stdout.write(
        f"wrote latency.csv, ccdf.csv, summary.json to {args.out_dir} "
        f"({report.violations} dominance violations)\n"
    )
    return 0


def cmd_conv(args) -> int:
    ctx = FieldCtx(args.q)
    thresholds = conv_thresholds(args.m, args.n, args.N)
    rng = np.random.default_rng(args.seed)
    if _files_given(args):
        a, _ = load_vector(args.A, ctx)
        b, _ = load_vector(args.B, ctx)
        if args.pad:
            a = pad_to_multiple(a, args.m, ctx)
            b = pad_to_multiple(b, args.n, ctx)
    else:
        a = rng.integers(0, ctx.q, size=args.m * args.s)
        b = rng.integers(0, ctx.q, size=args.n * args.s)
    shares = conv_encode(split_vector(a, args.m, ctx), split_vector(b, args.n, ctx), args.N, ctx)
    need = thresholds["conv_poly"]
    results = [conv_worker_compute(sh, ctx) for sh in shares[:need]]
    c = conv_decode(results, args.m, args.n, ctx)
    exact = bool((c == conv_direct(a, b, ctx)).all())
    payload = {
        "m": args.m,
        "n": args.n,
        "N": args.N,
        "block_len": len(a) // args.m,
        "thresholds": thresholds,
        "decoded_from": need,
        "exact": exact,
    }
    if args.format == "text":
        lines = [f"{k:14} {v}" for k, v in payload.items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if not exact:
        raise DecodingFailure("convolution decode mismatch")
    return 0


def cmd_verify(args) -> int:
    failed = 0
    for name, ok, detail in verify_mod.run_suites():
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"[{status}] {name}: {detail}\n")
        if not ok:
            failed += 1
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycode",
        description="Coded distributed matrix multiplication and convolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=(), seed=True):
        """The shared options a command reads: formats[0] is the default."""
        p.add_argument("--q", type=int, default=DEFAULT_Q, help="prime field modulus")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
            p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("threshold", help="recovery-threshold table across an N range")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", required=True, help="N value or range, e.g. 400 or 100..500:50")
    common(p, ("csv", "json", "text"), seed=False)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("run", help="one end-to-end coded multiplication")
    p.add_argument("--scheme", choices=SCHEME_NAMES, default="poly")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=32)
    p.add_argument("--r", type=int, default=32)
    p.add_argument("--t", type=int, default=32)
    p.add_argument("--A", default=None, help="matrix file for A (text format)")
    p.add_argument("--B", default=None, help="matrix file for B (text format)")
    p.add_argument("--plan", choices=("none", "slow_random"), default="none")
    p.add_argument("--factor", type=float, default=2.0)
    p.add_argument("--clock", choices=("virtual", "threads"), default="virtual")
    p.add_argument("--verify", action="store_true", help="check against the direct product")
    common(p, ("json", "text"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sim", help="Monte-Carlo latency simulation and CCDFs")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--schemes", default=",".join(SCHEME_NAMES))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--model", choices=("shifted_exp", "deterministic"), default="shifted_exp")
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--value", type=float, default=1.0)
    p.add_argument("--out-dir", default=".")
    common(p)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("conv", help="distributed convolution demo and thresholds")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, default=16, help="block length for generated inputs")
    p.add_argument("--A", default=None, help="vector file for a (text format)")
    p.add_argument("--B", default=None, help="vector file for b (text format)")
    p.add_argument("--pad", action="store_true", help="zero-pad inputs to a block multiple")
    common(p, ("json", "text"))
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("verify", help="exhaustive small-instance verification suites")
    p.set_defaults(func=cmd_verify)

    # Options are spelled out in full: `sim --out` is no `--out-dir`.
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    except DecodingFailure as exc:
        sys.stderr.write(f"decoding failure: {exc}\n")
        return 2
    except (PolycodeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
