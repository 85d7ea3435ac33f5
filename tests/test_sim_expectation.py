"""The simulator against exact expected latencies.

With iid worker times a scheme decodes at T_(J:n), the J-th of its n
workers' arrivals. J depends only on the order of the arrivals, which is
uniform and independent of the sorted times, so

    E[T] = sum_j P(J = j) * E[T_(j:n)],

and P(J <= j) is the share of the j-subsets of the workers that can decode.
For the shifted exponential, E[T_(j:n)] = shift + (H_n - H_(n-j)) / rate
(Renyi's representation of exponential order statistics). The subsets are
counted from `tests/recovery.py`'s statement of each rule, never from
`Scheme.latency`, so the exact value and the simulator stay independent.
"""

import functools
import math
from itertools import combinations

import pytest

from polycode.matrixcore import ProblemShape
from polycode.sim import LatencyModel, dominance_check
from recovery import decodable_ref, num_workers


@functools.cache
def enumerated_counts(name, shape):
    """counts[j]: how many j-subsets of the workers can decode, each subset
    asked of the rule."""
    n = num_workers(name, shape)
    return tuple(sum(decodable_ref(name, ids, shape) for ids in combinations(range(n), j))
                 for j in range(n + 1))


def counting_counts(name, shape):
    """The same counts for poly and uncoded, whose rules see only how many
    workers answered: one subset of each size is asked of the rule."""
    n = num_workers(name, shape)
    return tuple(math.comb(n, j) * decodable_ref(name, range(j), shape) for j in range(n + 1))


def mds1d_counts(shape):
    """The same counts for mds1d in closed form: a subset decodes when each
    of the n groups of g = N/n workers holds at least m of it, so counts[j]
    is the coefficient of x^j in (sum_{k >= m} C(g, k) x^k)^n."""
    g = shape.N // shape.n
    group = [math.comb(g, k) if k >= shape.m else 0 for k in range(g + 1)]
    counts = [1]
    for _ in range(shape.n):
        grown = [0] * (len(counts) + g)
        for i, c in enumerate(counts):
            for k, w in enumerate(group):
                grown[i + k] += c * w
        counts = grown
    return tuple(counts)


def exact_mean(counts, model):
    """E[T] for iid shifted-exponential times, from the decodable counts."""
    n = len(counts) - 1
    harmonic = [0.0]
    for k in range(1, n + 1):
        harmonic.append(harmonic[-1] + 1.0 / k)
    decoded = [counts[j] / math.comb(n, j) for j in range(n + 1)]  # P(J <= j)
    assert decoded[n] == 1.0
    return math.fsum((decoded[j] - decoded[j - 1])
                     * (model.shift + (harmonic[n] - harmonic[n - j]) / model.rate)
                     for j in range(1, n + 1))


def exact_counts(name, shape):
    if name == "mds1d":
        return mds1d_counts(shape)
    if name in ("poly", "uncoded"):
        return counting_counts(name, shape)
    return enumerated_counts(name, shape)


@pytest.mark.parametrize("shape", (
    ProblemShape(s=2, r=2, t=2, m=2, n=2, N=16),
    ProblemShape(s=3, r=3, t=2, m=3, n=2, N=12),
    ProblemShape(s=2, r=2, t=3, m=2, n=3, N=9),
), ids=("N16_m2_n2", "N12_m3_n2", "N9_m2_n3"))
def test_closed_forms_equal_enumeration(shape):
    # The closed forms used at N = 64 against every subset asked of the rule.
    assert mds1d_counts(shape) == enumerated_counts("mds1d", shape)
    for name in ("poly", "uncoded"):
        assert counting_counts(name, shape) == enumerated_counts(name, shape)


def test_exact_mean_of_known_cases():
    # Every worker needed: E[max of n iid Exp(rate)] = H_n / rate. One worker
    # enough: E[min] = 1 / (n * rate). Both shifted.
    model = LatencyModel(shift=0.5, rate=4.0)
    assert exact_mean((0, 0, 0, 1), model) == pytest.approx(0.5 + (1 + 1 / 2 + 1 / 3) / 4)
    assert exact_mean((0, 3, 3, 1), model) == pytest.approx(0.5 + 1 / 12)


CASES = {
    # N = 16: every subset of the product grid is counted. The means are
    # against 40000 trials; the second case, at rate != 1, separates the
    # rate from its inverse.
    "N16_shift1_rate1": (16, 2, ("poly", "mds1d", "product", "uncoded"), 1.0, 1.0, 11),
    "N16_shift0.5_rate4": (16, 2, ("poly", "mds1d", "product", "uncoded"), 0.5, 4.0, 12),
    # N = 64: 2^64 subsets, so mds1d's closed form; product has no closed form.
    "N64_shift2_rate0.5": (64, 4, ("poly", "mds1d", "uncoded"), 2.0, 0.5, 7),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_means_match_exact_expectations(case):
    big_n, m, names, shift, rate, seed = CASES[case]
    shape = ProblemShape(s=m, r=m, t=m, m=m, n=m, N=big_n)
    model = LatencyModel(shift=shift, rate=rate)
    trials = 40000
    report = dominance_check(list(names), model, shape, trials, seed)
    exact = {name: exact_mean(exact_counts(name, shape), model) for name in names}
    for name in names:
        lat = report.latencies[name]
        stderr = lat.std(ddof=1) / math.sqrt(trials)
        assert abs(report.means[name] - exact[name]) <= 4 * stderr, (name, exact[name])
    # The least threshold gives the least expected latency.
    assert min(exact, key=exact.get) == "poly"
