"""In-process master/worker harness with straggler injection.

The master decodes from the first prefix of the worker results, in completion
order, that the scheme's recovery rule accepts. The virtual clock (the
default, deterministic) orders the workers by sampled time, all known before
any worker runs. One call of the scheme's `latency`, with each worker's place
in that order as its time, gives the length of that prefix without any share;
then only those workers are encoded and computed, with one kernel call per
input and one for the products. The threads clock encodes every share, runs
each worker on a joined thread pool that waits out the worker's sampled time
before computing, measures wall-clock time, and asks `decodable` at each
arrival.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import HarnessTimeout, InvalidParameters
from .field import FieldCtx
from .matrixcore import FMatrix, ProblemShape
from .schemes import PolyScheme, Scheme, WorkerResult, compute_shares, worker_compute
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
    """

    mode: str = "none"
    factor: float = 2.0
    delays: tuple = None

    def __post_init__(self):
        if self.mode not in ("none", "slow_random", "per_worker"):
            raise InvalidParameters(f"unknown straggler plan mode {self.mode!r}")
        # `not a <= v < inf` also rejects NaN, and raises TypeError for a
        # value that is not a real number.
        try:
            if not 1 <= self.factor < math.inf:
                raise InvalidParameters("slowdown factor must be finite and >= 1")
            if self.mode == "per_worker" and (
                self.delays is None or not all(0 <= d < math.inf for d in self.delays)
            ):
                raise InvalidParameters("per_worker plan needs finite nonnegative delays")
        except TypeError:
            raise InvalidParameters("straggler plan parameters must be real numbers") from None

    def sample_times(self, n: int, rng: np.random.Generator, base_model: LatencyModel) -> np.ndarray:
        if self.mode == "per_worker":
            if len(self.delays) < n:
                raise InvalidParameters(f"plan provides {len(self.delays)} delays for {n} workers")
            return np.asarray(self.delays[:n], dtype=float)
        times = base_model.sample(n, rng)
        if self.mode == "slow_random":
            victim = int(rng.integers(0, n))
            times[victim] *= self.factor
        return times


@dataclass
class RunReport:
    """Outcome of one harness run.

    `output_digest` is computed from `output` each time it is read, so a run
    whose caller never reads it never pays for the hash.
    """

    scheme: str
    seed: int
    wall_latency: float          # collection time + decode time
    decode_time: float
    responders: list             # worker ids in completion order at decode moment
    bytes_received: int
    output: FMatrix = field(repr=False)
    arrival_times: list = field(default_factory=list)  # (worker_id, time) pairs

    @property
    def output_digest(self) -> str:
        return self.output.digest()

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


def _thread_arrivals(shares, delays):
    """Yield (worker id, result, seconds since start) as pool workers finish.

    A worker that raises yields nothing. Closing the generator releases the
    workers still waiting out their delay, and joins every thread.
    """
    from concurrent import futures

    stop = threading.Event()

    def work(i):
        return None if stop.wait(delays[i]) else worker_compute(shares[i])

    t0 = time.perf_counter()
    with futures.ThreadPoolExecutor(len(shares)) as pool:
        pending = {pool.submit(work, i): i for i in range(len(shares))}
        try:
            for done in futures.as_completed(pending, timeout=60.0):
                if done.exception() is None:
                    yield pending[done], done.result(), time.perf_counter() - t0
        except futures.TimeoutError:
            raise HarnessTimeout("no decodable response set formed within 60s") from None
        finally:
            stop.set()


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
    """Execute one coded multiplication and return (C, RunReport).

    `plan` draws each worker's completion time from `base_model` (default
    `LatencyModel()`) with `default_rng(seed)`. The master decodes at the
    first decodable prefix of the results in completion order, ties in time
    broken by worker id. The inputs are checked (`Scheme.check_inputs`)
    before any share is encoded. On the virtual clock the times are virtual
    seconds, only the workers in that prefix are encoded and compute, and
    `decode_time` is modeled. On the threads clock every share is encoded,
    and each worker runs on a pool thread and waits `time_scale` times its
    sampled time before computing; every time in the report is then
    measured, and once the master can decode, workers still waiting return
    without computing. A worker that raises is an erasure. Every thread is
    joined before `run` returns or raises. HarnessTimeout is raised when all
    workers have finished without a decodable set, or after 60 s of threads.
    """
    if clock not in ("virtual", "threads"):
        raise InvalidParameters(f"unknown clock mode {clock!r}")
    if not 0 <= time_scale < math.inf:
        raise InvalidParameters("time_scale must be finite and >= 0")
    scheme.validate(shape)
    scheme.check_inputs(a, b, shape)
    base_model = base_model or LatencyModel()
    rng = np.random.default_rng(seed)
    # Sample over the full configured N so the straggler pick is comparable
    # across schemes that spawn fewer workers (e.g. uncoded uses only mn).
    times = plan.sample_times(shape.N, rng, base_model)
    worker_times = times[: scheme.num_shares(shape)]
    if clock == "virtual":
        order = np.argsort(worker_times, kind="stable")  # ties by worker id
        # With its place in the order as each worker's time, the recovery
        # rule returns the place of the last worker the master needs.
        place = np.empty(len(order))
        place[order] = np.arange(len(order))
        last = scheme.latency(place[None], shape)[0]
        if last == math.inf:
            raise HarnessTimeout("no decodable response set formed")
        responders = order[: int(last) + 1].tolist()
        shares = scheme.encode(a, b, shape, responders)
        results = compute_shares(shares)
        arrival_times = [(i, float(worker_times[i])) for i in responders]
    else:
        shares = scheme.encode(a, b, shape)
        results, responders, arrival_times = [], [], []
        with closing(_thread_arrivals(shares, worker_times * time_scale)) as arrivals:
            for i, result, fire in arrivals:
                results.append(result)
                responders.append(i)
                arrival_times.append((i, fire))
                if scheme.decodable(responders, shape):
                    break
            else:
                raise HarnessTimeout("no decodable response set formed")
    fire = arrival_times[-1][1]
    dec0 = time.perf_counter()
    c = scheme.decode(results, shares, shape)
    if clock == "virtual":
        decode_time = scheme.decode_op_estimate(shape) * DECODE_SECONDS_PER_OP
    else:
        decode_time = time.perf_counter() - dec0

    report = RunReport(
        scheme=scheme.name,
        seed=seed,
        wall_latency=fire + decode_time,
        decode_time=decode_time,
        responders=responders,
        bytes_received=_bytes_received(len(responders), shape, ctx=scheme.ctx),
        output=c,
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
        output=c,
    )
    return c, report
