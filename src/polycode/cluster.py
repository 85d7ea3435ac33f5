"""In-process master/worker harness with straggler injection.

The master decodes from the first prefix of the worker results, in completion
order, that the scheme's recovery rule accepts. The virtual clock (the
default, deterministic) orders the workers by sampled time, all known before
any worker runs. One call of the scheme's `latency`, with each worker's place
in that order as its time, gives the length of that prefix; then only those
workers are encoded, one stack per input (`Scheme._stacks`), their products
are one kernel call on the stacks, and those go to `Scheme.decode` without
any share or result object and without asking the rule again. The threads
clock encodes every share, runs the workers on a joined pool of min(N, CPUs)
threads, each waiting until its sampled time before computing, measures
wall-clock time, and asks `decodable` at each arrival.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import HarnessTimeout, InvalidParameters
from .field import FieldCtx, as_natural
from .matrixcore import FMatrix, ProblemShape, mulmod
from .schemes import Scheme, _Accepted, worker_compute
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
        if self.mode == "per_worker" and self.delays is None:
            raise InvalidParameters("per_worker plan needs delays")
        # Every field is checked, whatever the mode. `not a <= v < inf` also
        # rejects NaN, and raises TypeError for a value that is not a real number.
        try:
            if not 1 <= self.factor < math.inf:
                raise InvalidParameters("slowdown factor must be finite and >= 1")
            if self.delays is not None and not all(0 <= d < math.inf for d in self.delays):
                raise InvalidParameters("plan delays must be finite and nonnegative")
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

    At most min(N, CPUs) threads take the workers in release order, ties by
    id. A worker that raises yields nothing. Closing the generator releases
    the workers still waiting out their delay, and joins every thread.
    """
    from concurrent import futures

    stop = threading.Event()

    def work(i):
        # What is left of the delay; a negative wait returns at once.
        return None if stop.wait(t0 + delays[i] - time.perf_counter()) else worker_compute(shares[i])

    t0 = time.perf_counter()
    with futures.ThreadPoolExecutor(min(len(shares), os.cpu_count() or 2)) as pool:
        pending = {pool.submit(work, i): i for i in np.argsort(delays, kind="stable").tolist()}
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
):
    """Execute one coded multiplication and return (C, RunReport).

    `plan` draws each worker's completion time from `base_model` (default
    `LatencyModel()`) with `default_rng(seed)`. The master decodes at the
    first decodable prefix of the results in completion order, ties in time
    broken by worker id. The inputs are checked (`Scheme.check_inputs`)
    before any share is encoded. On the virtual clock the times are virtual
    seconds, only the workers in that prefix are encoded and compute, and
    `decode_time` is modeled. On the threads clock every share is encoded,
    and each worker runs on a pool thread and waits out its sampled time, in
    seconds, before computing; every time in the report is then measured,
    and once the master can decode, workers still waiting return without
    computing (short waits come from a scaled `base_model` or `per_worker`
    delays). A worker that raises is an erasure. Every thread is
    joined before `run` returns or raises. HarnessTimeout is raised when all
    workers have finished without a decodable set, or after 60 s of threads.
    """
    if clock not in ("virtual", "threads"):
        raise InvalidParameters(f"unknown clock mode {clock!r}")
    if not isinstance(plan, StragglerPlan):
        raise InvalidParameters(f"plan is a {type(plan).__name__}, not a StragglerPlan")
    base_model = LatencyModel() if base_model is None else base_model
    if not isinstance(base_model, LatencyModel):
        raise InvalidParameters(f"base_model is a {type(base_model).__name__}, not a LatencyModel")
    seed = as_natural(seed, "seed")
    scheme.check_inputs(a, b, shape)
    scheme.validate(shape)
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
        ids = sorted(responders)
        a_coded, b_coded = scheme._stacks(a, b, shape, ids)
        results = _Accepted(ids, mulmod(a_coded.transpose(0, 2, 1), b_coded, scheme.ctx.q))
        shares = None
        arrival_times = [(i, float(worker_times[i])) for i in responders]
    else:
        shares = scheme.encode(a, b, shape)
        results, responders, arrival_times = [], [], []
        with closing(_thread_arrivals(shares, worker_times)) as arrivals:
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

