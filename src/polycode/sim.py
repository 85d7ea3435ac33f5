"""Monte-Carlo latency and communication analysis.

Worker completion times are sampled iid from a pluggable model. A scheme's
latency on a batch of samples is its own recovery rule, `Scheme.latency`
(`scheme_latency_batch`), and on one sample that rule on a batch of one
(`scheme_latency`). Latency excludes decoding (the harness reports decode
overhead separately).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DominanceViolation, InvalidModelParams, InvalidParameters, NeverDecodable, ShapeMismatch
from .field import FieldCtx, as_int
from .matrixcore import ProblemShape
from .schemes import Scheme, get_scheme

CCDF_GRID_POINTS = 200


@dataclass(frozen=True)
class LatencyModel:
    """iid per-worker completion-time model."""

    kind: str = "shifted_exponential"
    shift: float = 1.0
    rate: float = 1.0
    value: float = 1.0
    samples: tuple = ()

    def __post_init__(self):
        # Parameters must be finite; `not 0 <= v < inf` also rejects NaN, and
        # raises TypeError for a value that is not a real number.
        try:
            if self.kind == "shifted_exponential":
                if not (0 <= self.shift < math.inf and 0 < self.rate < math.inf):
                    raise InvalidModelParams("need shift >= 0 and rate > 0")
            elif self.kind == "deterministic":
                if not 0 <= self.value < math.inf:
                    raise InvalidModelParams("deterministic time must be >= 0")
            elif self.kind == "empirical":
                if not self.samples or not all(0 <= s < math.inf for s in self.samples):
                    raise InvalidModelParams("empirical model needs nonnegative samples")
            else:
                raise InvalidModelParams(f"unknown latency model kind {self.kind!r}")
        except TypeError:
            raise InvalidModelParams(f"{self.kind} model parameters must be real numbers") from None

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        """Completion times of the given array size (an int or a shape)."""
        if self.kind == "shifted_exponential":
            return self.shift + rng.exponential(1.0 / self.rate, size=size)
        if self.kind == "deterministic":
            return np.full(size, float(self.value))
        return rng.choice(np.asarray(self.samples, dtype=float), size=size, replace=True)


def sample_latency(model: LatencyModel, n: int, seed: int, trials: int) -> np.ndarray:
    """trials x n matrix of worker completion times, reproducible by seed.

    One draw of shape (trials, n) reads the generator's stream in the order
    that `trials` draws of n would, so the matrix equals stacking those rows.
    """
    if as_int(trials, "trials") < 1 or as_int(n, "n") < 1:
        raise InvalidModelParams("need trials >= 1 and n >= 1")
    return model.sample((trials, n), np.random.default_rng(seed))


def scheme_latency(scheme: Scheme, shape: ProblemShape, times) -> float:
    """Earliest t at which the responded set {i : T_i <= t} is decodable:
    `scheme_latency_batch` on the one row `times`.

    A worker with time +inf never answers; a NaN time is rejected, and
    `times` that are not one row raise ShapeMismatch.
    """
    return float(scheme_latency_batch(scheme, shape, np.asarray(times, dtype=float)[None])[0])


def scheme_latency_batch(scheme: Scheme, shape: ProblemShape, samples: np.ndarray) -> np.ndarray:
    """Per-trial latencies: the scheme's recovery rule, `Scheme.latency`.

    `samples` is a (trials, workers) array. Workers past the last column
    never answer (+inf), and a NaN time is rejected. NeverDecodable is
    raised if any trial cannot decode.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ShapeMismatch(f"samples must be a (trials, workers) array, got shape {samples.shape}")
    if np.isnan(samples).any():
        raise InvalidParameters("completion times must not be NaN; +inf means never")
    active = scheme.num_shares(shape)
    samples = samples[:, :active]
    if samples.shape[1] < active:
        missing = ((0, 0), (0, active - samples.shape[1]))
        samples = np.pad(samples, missing, constant_values=math.inf)
    out = scheme.latency(samples, shape)
    if (out == math.inf).any():
        raise NeverDecodable(f"{scheme.name} cannot decode even with all workers")
    return out


def ccdf_table(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Empirical P(T > t) on the given grid."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    idx = np.searchsorted(samples, grid, side="right")
    return (n - idx) / n


def ccdf_grid(pooled: np.ndarray) -> np.ndarray:
    """Evenly spaced grid between the pooled minimum and p99.9."""
    lo = float(np.min(pooled))
    hi = float(np.percentile(pooled, 99.9))
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, CCDF_GRID_POINTS)


def comm_load_bits(results_used: int, shape: ProblemShape, ctx: FieldCtx) -> float:
    """Bits received by the master: used results x block elements x log2(q)."""
    elems = results_used * shape.block_rows * shape.block_cols
    return elems * math.log2(ctx.q)


def comm_load_analytic(name: str, shape: ProblemShape, ctx: FieldCtx) -> float:
    """Worst-case load: the scheme's recovery threshold worth of results."""
    return comm_load_bits(get_scheme(name, ctx).threshold(shape), shape, ctx)


@dataclass
class DominanceReport:
    shape: ProblemShape
    trials: int
    seed: int
    latencies: dict = field(default_factory=dict)   # scheme -> np.ndarray
    max_violation: float = 0.0
    violations: int = 0
    grid: np.ndarray = None
    ccdfs: dict = field(default_factory=dict)       # scheme -> np.ndarray
    means: dict = field(default_factory=dict)
    p95: dict = field(default_factory=dict)
    p99: dict = field(default_factory=dict)
    comm_bits: dict = field(default_factory=dict)


def dominance_check(
    scheme_names: list,
    model: LatencyModel,
    shape: ProblemShape,
    trials: int,
    seed: int,
    ctx: FieldCtx = None,
) -> DominanceReport:
    """Per-sample check of the polynomial code's latency dominance.

    Every scheme's latency is computed on the SAME completion-time sample as
    the polynomial code's; any strictly smaller value raises DominanceViolation.
    Every scheme is built and validated before any sample is drawn.
    """
    ctx = ctx or FieldCtx()
    if "poly" not in scheme_names:
        scheme_names = ["poly"] + list(scheme_names)
    schemes = {name: get_scheme(name, ctx) for name in scheme_names}
    for scheme in schemes.values():
        scheme.validate(shape)
    samples = sample_latency(model, shape.N, seed, trials)
    report = DominanceReport(shape=shape, trials=trials, seed=seed)
    for name, scheme in schemes.items():
        report.latencies[name] = scheme_latency_batch(scheme, shape, samples)
    poly_lat = report.latencies["poly"]
    for name, lat in report.latencies.items():
        diff = poly_lat - lat
        report.max_violation = max(report.max_violation, float(diff.max(initial=0.0)))
        report.violations += int((diff > 0).sum())
    if report.violations:
        raise DominanceViolation(
            f"{report.violations} samples beat poly (max gap {report.max_violation})"
        )
    pooled = np.concatenate(list(report.latencies.values()))
    report.grid = ccdf_grid(pooled)
    for name, lat in report.latencies.items():
        report.ccdfs[name] = ccdf_table(lat, report.grid)
        report.means[name] = float(lat.mean())
        report.p95[name] = float(np.percentile(lat, 95))
        report.p99[name] = float(np.percentile(lat, 99))
        report.comm_bits[name] = comm_load_analytic(name, shape, ctx)
    return report
