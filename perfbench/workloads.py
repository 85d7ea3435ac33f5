"""The benchmark's closed-loop workloads.

Each workload builds its field and schemes once (`setup`), makes fresh inputs
for every job from a seeded generator (`make_inputs`, untimed), runs the job
through polycode's public API and times only the calls into polycode
(`run_job`), then checks the outputs against the benchmark's own oracle
(`check`, untimed). The field is pinned to q = 2^31 - 1 through `FieldCtx`,
and only the virtual clock is used: the `threads` clock sleeps for modeled
latencies and would time the scheduler, not the program.
"""

from __future__ import annotations

import time

import numpy as np

import polycode
from polycode import cluster, convolution, schemes, sim
from polycode.errors import DecodingFailure

import oracle

Q = 2147483647
SCHEME_NAMES = ("poly", "mds1d", "product", "uncoded")

# Failure kinds. A wrong product returned beyond the correction radius is the
# known silent-miscorrection defect: it is counted as a failed job but does
# not make the run's verdict incorrect. Every other kind does.
MISCORRECTED = "miscorrected_beyond_radius"


def verdict(failures: dict) -> bool:
    """The run's `correct` flag: no failure other than miscorrection."""
    return all(kind == MISCORRECTED for kind in failures)


class Workload:
    name = ""
    trials_per_job = 1
    cycle = 1  # a run ends on a multiple of this many jobs

    def setup(self) -> None:
        raise NotImplementedError

    def make_inputs(self, rng: np.random.Generator, index: int):
        raise NotImplementedError

    def run_job(self, inputs):
        """Return (output, seconds spent inside polycode)."""
        raise NotImplementedError

    def check(self, inputs, output):
        """None when the output is right, else a failure kind."""
        raise NotImplementedError


def _fmatrix(raw: np.ndarray, ctx) -> "polycode.FMatrix":
    return polycode.FMatrix(raw.tolist(), ctx)


class SchemeRuns(Workload):
    """One job: `cluster.run` (slow_random plan) for all four schemes on one
    fresh A, B; optionally followed by one coded convolution."""

    def __init__(self, name, s, m, big_n, conv_block=None, conv_n=None):
        self.name = name
        self.s, self.m, self.big_n = s, m, big_n
        self.conv_block, self.conv_n = conv_block, conv_n
        self.trials_per_job = len(SCHEME_NAMES) + (1 if conv_block else 0)

    def setup(self):
        self.ctx = polycode.FieldCtx(Q)
        self.shape = polycode.ProblemShape(self.s, self.s, self.s, self.m, self.m, self.big_n)
        self.schemes = {n: schemes.get_scheme(n, self.ctx) for n in SCHEME_NAMES}
        for sch in self.schemes.values():
            sch.validate(self.shape)
        self.plan = cluster.StragglerPlan("slow_random")

    def make_inputs(self, rng, index):
        a_raw = rng.integers(0, Q, size=(self.s, self.s), dtype=np.int64)
        b_raw = rng.integers(0, Q, size=(self.s, self.s), dtype=np.int64)
        inp = {
            "a_raw": a_raw, "b_raw": b_raw,
            "a": _fmatrix(a_raw, self.ctx), "b": _fmatrix(b_raw, self.ctx),
            "plan_seed": int(rng.integers(0, 2**31)),
        }
        if self.conv_block:
            m = self.m
            u = rng.integers(0, Q, size=m * self.conv_block, dtype=np.int64).tolist()
            v = rng.integers(0, Q, size=m * self.conv_block, dtype=np.int64).tolist()
            split = lambda vec: [np.array(vec[i * self.conv_block:(i + 1) * self.conv_block],
                                          dtype=object) for i in range(m)]
            inp.update(u=u, v=v, u_blocks=split(u), v_blocks=split(v))
        return inp

    def run_job(self, inp):
        out = {}
        t0 = time.perf_counter()
        for name, sch in self.schemes.items():
            out[name], _report = cluster.run(sch, inp["a"], inp["b"], self.shape,
                                             plan=self.plan, seed=inp["plan_seed"],
                                             clock="virtual")
        if self.conv_block:
            m = self.m
            shares = convolution.conv_encode(inp["u_blocks"], inp["v_blocks"], self.conv_n, self.ctx)
            results = [convolution.conv_worker_compute(sh, self.ctx) for sh in shares[: 2 * m - 1]]
            out["conv"] = convolution.conv_decode(results, m, m, self.ctx)
        return out, time.perf_counter() - t0

    def check(self, inp, out):
        want = oracle.matmul(inp["a_raw"], inp["b_raw"], Q)
        for name in SCHEME_NAMES:
            if not oracle.same_matrix(out[name], want):
                return "wrong_product"
        if self.conv_block:
            got = [int(x) for x in np.asarray(out["conv"]).reshape(-1).tolist()]
            if got != oracle.convolve(inp["u"], inp["v"], Q):
                return "wrong_convolution"
        return None


# -- fault_bw ----------------------------------------------------------------

def _poly_eval(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _poly_mul_linear(coeffs, root, q):
    """coeffs(x) * (x - root), lowest degree first."""
    out = [0] * (len(coeffs) + 1)
    for d, c in enumerate(coeffs):
        out[d + 1] = (out[d + 1] + c) % q
        out[d] = (out[d] - c * root) % q
    return out


def make_fault(rng, xs, f, forged, k, radius, block_shape, q=Q):
    """Fault pattern for f faulty workers out of len(xs).

    Random: each faulty worker returns an independent uniform block.
    Forged (f > radius): every faulty worker adds z_i * R to its true block,
    where z_i = Z(x_i) for a nonzero polynomial Z of degree < k that vanishes
    exactly at `agree`, a set of N - radius - f honest workers, and R is a
    random matrix with nonzero entries. Entry (u, v) of the received word is
    then the codeword of P_uv + R_uv Z, which agrees with exactly the faulty
    workers and `agree`: N - radius points, so a radius-bounded decoder
    returns it instead of the true product.
    """
    big_n = len(xs)
    faulty = sorted(int(i) for i in rng.choice(big_n, size=f, replace=False))
    fault = {"f": f, "faulty": faulty, "forged": forged, "agree": [], "z": {}, "blocks": {}}
    if not forged:
        for i in faulty:
            fault["blocks"][i] = rng.integers(0, q, size=block_shape, dtype=np.int64)
        return fault
    honest = [i for i in range(big_n) if i not in faulty]
    n_agree = big_n - radius - f
    if not 0 <= n_agree < k:
        raise ValueError(f"no forged codeword of degree < {k} for f={f}")
    agree = sorted(int(i) for i in rng.choice(honest, size=n_agree, replace=False))
    while True:
        # Random cofactor of degree k - 1 - n_agree with a nonzero leading
        # coefficient, so Z has degree exactly k - 1.
        z = [int(c) for c in rng.integers(0, q, size=k - 1 - n_agree)] + [int(rng.integers(1, q))]
        for i in agree:
            z = _poly_mul_linear(z, xs[i], q)
        vals = {i: _poly_eval(z, xs[i], q) for i in range(big_n)}
        if all(vals[i] for i in range(big_n) if i not in agree):
            break
    fault.update(agree=agree, z={i: vals[i] for i in faulty}, coeffs=z,
                 r=rng.integers(1, q, size=block_shape, dtype=np.int64))
    return fault


def apply_fault(results, fault, ctx):
    """Replace the faulty workers' results according to `fault`."""
    r_obj = np.array(fault["r"].tolist(), dtype=object) if fault["forged"] else None
    out = []
    for res in results:
        i = res.worker_id
        if i in fault["blocks"]:
            res = schemes.WorkerResult(i, _fmatrix(fault["blocks"][i], ctx))
        elif i in fault["z"]:
            data = (np.asarray(res.c_tilde.data, dtype=object) + fault["z"][i] * r_obj) % ctx.q
            res = schemes.WorkerResult(i, polycode.FMatrix(data.tolist(), ctx))
        out.append(res)
    return out


class FaultBW(Workload):
    """One job: PolyScheme.encode, worker_compute on all N workers, corruption
    of f workers (untimed), then decode_with_errors. f cycles through 0..2e;
    beyond the radius e the pattern alternates between random blocks (first
    pass) and a forged codeword (second pass)."""

    name = "fault_bw"

    def __init__(self, s=32, m=2, big_n=12):
        self.s, self.m, self.big_n = s, m, big_n

    def setup(self):
        self.ctx = polycode.FieldCtx(Q)
        self.shape = polycode.ProblemShape(self.s, self.s, self.s, self.m, self.m, self.big_n)
        self.scheme = schemes.PolyScheme(self.ctx)
        self.scheme.validate(self.shape)
        self.k = self.scheme.required_results(self.shape)
        self.radius = (self.big_n - self.k) // 2
        self.cycle = 2 * (2 * self.radius + 1)

    def make_inputs(self, rng, index):
        pos = index % self.cycle
        f = pos % (2 * self.radius + 1)
        forged = f > self.radius and pos > 2 * self.radius
        a_raw = rng.integers(0, Q, size=(self.s, self.s), dtype=np.int64)
        b_raw = rng.integers(0, Q, size=(self.s, self.s), dtype=np.int64)
        xs = list(range(self.big_n))  # PolyScheme's default evaluation points
        block = (self.shape.block_rows, self.shape.block_cols)
        return {
            "a_raw": a_raw, "b_raw": b_raw,
            "a": _fmatrix(a_raw, self.ctx), "b": _fmatrix(b_raw, self.ctx),
            "fault": make_fault(rng, xs, f, forged, self.k, self.radius, block),
        }

    def run_job(self, inp):
        t0 = time.perf_counter()
        shares = self.scheme.encode(inp["a"], inp["b"], self.shape)
        results = [schemes.worker_compute(sh) for sh in shares]
        t1 = time.perf_counter()
        if [sh.x for sh in shares] != list(range(self.big_n)):
            raise RuntimeError("evaluation points differ from the fault generator's")
        results = apply_fault(results, inp["fault"], self.ctx)
        t2 = time.perf_counter()
        try:
            out = self.scheme.decode_with_errors(results, shares, self.shape)
        except DecodingFailure as exc:
            out = exc
        return out, (t1 - t0) + (time.perf_counter() - t2)

    def check(self, inp, out):
        beyond = inp["fault"]["f"] > self.radius
        if isinstance(out, DecodingFailure):
            return None if beyond else "decoding_failure_within_radius"
        if oracle.same_matrix(out, oracle.matmul(inp["a_raw"], inp["b_raw"], Q)):
            return None
        return MISCORRECTED if beyond else "wrong_product"


# -- sim_mc ------------------------------------------------------------------

class SimMC(Workload):
    """One job: dominance_check over the four schemes at N=64, m=n=4."""

    name = "sim_mc"

    def __init__(self, big_n=64, m=4, trials=500):
        self.big_n, self.m, self.trials_per_job = big_n, m, trials

    def setup(self):
        self.ctx = polycode.FieldCtx(Q)
        self.shape = polycode.ProblemShape(32, 32, 32, self.m, self.m, self.big_n)
        self.model = sim.LatencyModel()

    def make_inputs(self, rng, index):
        return {"seed": int(rng.integers(0, 2**31))}

    def run_job(self, inp):
        t0 = time.perf_counter()
        report = sim.dominance_check(list(SCHEME_NAMES), self.model, self.shape,
                                     self.trials_per_job, inp["seed"], ctx=self.ctx)
        return report, time.perf_counter() - t0

    def check(self, inp, report):
        # The samples are those dominance_check draws: sample_latency is its
        # documented sampler. The oracle checks the latencies, not the draw.
        samples = sim.sample_latency(self.model, self.big_n, inp["seed"], self.trials_per_job)
        for name in SCHEME_NAMES:
            if not oracle.latency_ok(name, report.latencies[name], samples, self.m, self.m):
                return f"wrong_latency_{name}"
        return None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        SchemeRuns("run_large", s=64, m=2, big_n=16),
        SchemeRuns("run_small", s=32, m=4, big_n=36, conv_block=32, conv_n=64),
        FaultBW(),
        SimMC(),
    )
}
