"""In-process master/worker harness with straggler injection.

Workers finish at sampled virtual times (deterministic and fast, the default)
or on real threads with wall-clock sleeps (demo mode). The master consumes
results in completion order, re-checks the scheme's decodability predicate on
every arrival, decodes at the first hit, and ignores everything after.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import HarnessTimeout, InvalidParameters
from .field import FieldCtx
from .matrixcore import FMatrix, ProblemShape
from .schemes import PolyScheme, Scheme, WorkerResult, worker_compute
from .sim import LatencyModel

# Modeled, not measured: the virtual cost of one decode multiply-accumulate.
# A fixed constant keeps the decode time in RunReport deterministic.
DECODE_SECONDS_PER_OP = 1e-7


@dataclass(frozen=True)
class StragglerPlan:
    """How worker completion times are produced for one run.

    modes:
      none            -- times straight from the base model
      slow_random     -- one uniformly picked worker's time multiplied by `factor`
      per_worker      -- completion times given explicitly in `delays`
      model_sampled   -- times from `model` instead of the base model
    """

    mode: str = "none"
    factor: float = 2.0
    delays: tuple = None
    model: LatencyModel = None

    def __post_init__(self):
        if self.mode not in ("none", "slow_random", "per_worker", "model_sampled"):
            raise InvalidParameters(f"unknown straggler plan mode {self.mode!r}")
        if self.factor < 1:
            raise InvalidParameters("slowdown factor must be >= 1")
        if self.mode == "per_worker" and (
            self.delays is None or any(d < 0 for d in self.delays)
        ):
            raise InvalidParameters("per_worker plan needs nonnegative delays")
        if self.mode == "model_sampled" and self.model is None:
            raise InvalidParameters("model_sampled plan needs a model")

    def sample_times(self, n: int, rng: np.random.Generator, base_model: LatencyModel) -> np.ndarray:
        if self.mode == "per_worker":
            if len(self.delays) < n:
                raise InvalidParameters(f"plan provides {len(self.delays)} delays for {n} workers")
            return np.asarray(self.delays[:n], dtype=float)
        model = self.model if self.mode == "model_sampled" else base_model
        times = model.sample(n, rng)
        if self.mode == "slow_random":
            victim = int(rng.integers(0, n))
            times[victim] *= self.factor
        return times


@dataclass
class RunReport:
    """Outcome of one harness run."""

    scheme: str
    seed: int
    wall_latency: float          # collection time + decode time
    decode_time: float
    responders: list             # worker ids in completion order at decode moment
    bytes_received: int
    output_digest: str
    arrival_times: list = field(default_factory=list)  # (worker_id, time) pairs

    def to_json(self) -> str:
        return json.dumps(
            {
                "scheme": self.scheme,
                "seed": self.seed,
                "wall_latency": self.wall_latency,
                "decode_time": self.decode_time,
                "responders": self.responders,
                "bytes_received": self.bytes_received,
                "output_digest": self.output_digest,
                "arrival_times": self.arrival_times,
            },
            indent=2,
        )


def _bytes_per_element(ctx: FieldCtx) -> int:
    return math.ceil((ctx.q - 1).bit_length() / 8)


def _bytes_received(used: int, shape: ProblemShape, ctx: FieldCtx) -> int:
    return used * shape.block_rows * shape.block_cols * _bytes_per_element(ctx)


def run(
    scheme: Scheme,
    a: FMatrix,
    b: FMatrix,
    shape: ProblemShape,
    plan: StragglerPlan = StragglerPlan(),
    seed: int = 0,
    base_model: LatencyModel = None,
    clock: str = "virtual",
    time_scale: float = 1.0,
):
    """Execute one coded multiplication and return (C, RunReport)."""
    if clock not in ("virtual", "threads"):
        raise InvalidParameters(f"unknown clock mode {clock!r}")
    scheme.validate(shape)
    base_model = base_model or LatencyModel()
    rng = np.random.default_rng(seed)
    # Sample over the full configured N so the straggler pick is comparable
    # across schemes that spawn fewer workers (e.g. uncoded uses only mn).
    times = plan.sample_times(shape.N, rng, base_model)
    shares = scheme.encode(a, b, shape)
    worker_times = times[: len(shares)]

    if clock == "virtual":
        arrivals = sorted(range(len(shares)), key=lambda i: (worker_times[i], i))
        results = []
        responders = []
        arrival_times = []
        decode_fire = None
        for i in arrivals:
            results.append(worker_compute(shares[i]))
            responders.append(i)
            arrival_times.append((i, float(worker_times[i])))
            if scheme.decodable(set(responders), shape):
                decode_fire = float(worker_times[i])
                break
        if decode_fire is None:
            raise HarnessTimeout("no decodable response set formed")
        c = scheme.decode(results, shares, shape)
        decode_time = scheme.decode_op_estimate(shape) * DECODE_SECONDS_PER_OP
        wall = decode_fire + decode_time
    else:
        out_q = queue.Queue()

        def work(idx):
            time.sleep(worker_times[idx] * time_scale)
            out_q.put((idx, worker_compute(shares[idx]), time.perf_counter()))

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=work, args=(i,), daemon=True)
            for i in range(len(shares))
        ]
        for t in threads:
            t.start()
        results = []
        responders = []
        arrival_times = []
        while True:
            try:
                idx, res, stamp = out_q.get(timeout=60.0)
            except queue.Empty:
                raise HarnessTimeout("no decodable response set formed within 60s")
            results.append(res)
            responders.append(idx)
            arrival_times.append((idx, stamp - t0))
            if scheme.decodable(set(responders), shape):
                break
        dec0 = time.perf_counter()
        c = scheme.decode(results, shares, shape)
        decode_time = time.perf_counter() - dec0
        wall = (time.perf_counter() - t0 - decode_time) + decode_time

    report = RunReport(
        scheme=scheme.name,
        seed=seed,
        wall_latency=wall,
        decode_time=decode_time,
        responders=responders,
        bytes_received=_bytes_received(len(responders), shape, ctx=scheme.ctx),
        output_digest=c.digest(),
        arrival_times=arrival_times,
    )
    return c, report


def run_with_faults(
    scheme: PolyScheme,
    a: FMatrix,
    b: FMatrix,
    shape: ProblemShape,
    corrupt: set,
    seed: int = 0,
):
    """Fault-tolerance setting: all N workers respond, `corrupt` of them lie.

    Routes through `PolyScheme.decode_with_errors` at its default radius
    t = floor((N - mn)/2): exact output up to t corrupted workers,
    DecodingFailure up to N - mn - t. Beyond that a wrong product may be
    returned.
    """
    if not isinstance(scheme, PolyScheme):
        raise InvalidParameters("fault-tolerant decoding is defined for the polynomial code")
    scheme.validate(shape)
    corrupt = set(corrupt)
    if not corrupt <= set(range(shape.N)):
        raise InvalidParameters("corrupt ids must be worker ids in [0, N)")
    rng = np.random.default_rng(seed)
    # One shared nonzero offset corrupts every entry of every faulty block: a
    # convenient pattern, not a worst case. The faulty workers then agree on
    # the codeword of (true polynomial + offset): with f >= N - t of them,
    # that wrong codeword is returned. A coordinated pattern can do the same
    # at any f > N - mn - t.
    offset = 1 + int(rng.integers(0, scheme.ctx.q - 1))
    shares = scheme.encode(a, b, shape)
    results = []
    for share in shares:
        res = worker_compute(share)
        if share.worker_id in corrupt:
            wrong = FMatrix(
                (res.c_tilde.data + offset) % scheme.ctx.q, scheme.ctx, _canonical=True
            )
            res = WorkerResult(share.worker_id, wrong)
        results.append(res)
    c = scheme.decode_with_errors(results, shares, shape)
    report = RunReport(
        scheme=scheme.name,
        seed=seed,
        wall_latency=0.0,
        decode_time=0.0,
        responders=[r.worker_id for r in results],
        bytes_received=_bytes_received(len(results), shape, scheme.ctx),
        output_digest=c.digest(),
    )
    return c, report
