"""Test helper: each scheme's recovery rule restated on sets of worker ids,
and the master that asks it at every arrival.

These are the references for `Scheme.latency`, which states each rule in
the package, and for everything derived from it (`decodable`, the harness's
cut, `sim.scheme_latency`). Nothing here calls a scheme's rule.
"""

import math

from polycode.errors import NeverDecodable


def num_workers(name, shape):
    return shape.m * shape.n if name == "uncoded" else shape.N


def _peels(ids, side, m):
    """Row/column peeling on a set: a line with m known cells becomes known
    whole, until no line changes; then the m x m systematic corner must be
    known."""
    lines = [set(range(r * side, (r + 1) * side)) for r in range(side)]
    lines += [set(range(c, side * side, side)) for c in range(side)]
    known = set(ids)
    while True:
        grown = known.union(*(line for line in lines if len(line & known) >= m))
        if grown == known:
            return all(r * side + c in known for r in range(m) for c in range(m))
        known = grown


def decodable_ref(name, ids, shape):
    """Whether the workers `ids` let the named scheme decode; ids of no
    worker are ignored."""
    m, n = shape.m, shape.n
    ids = {i for i in ids if 0 <= i < num_workers(name, shape)}
    if name == "poly":
        return len(ids) >= m * n
    if name == "mds1d":
        g = shape.N // n
        return all(sum(k * g <= i < (k + 1) * g for i in ids) >= m for k in range(n))
    if name == "product":
        return _peels(ids, math.isqrt(shape.N), m)
    return len(ids) == m * n


def arrival_cut(name, shape, times):
    """The workers in (time, id) order up to the first arrival at which they
    are decodable, asking the rule at every arrival; None if they never are.
    Workers past the end of `times`, or at time +inf, never answer."""
    active = min(len(times), num_workers(name, shape))
    order = sorted(range(active), key=lambda i: (times[i], i))
    for used in range(1, len(order) + 1):
        if times[order[used - 1]] == math.inf:
            break
        if decodable_ref(name, order[:used], shape):
            return order[:used]
    return None


def latency_ref(name, shape, times):
    """The time of the last worker in `arrival_cut`; NeverDecodable if none."""
    cut = arrival_cut(name, shape, times)
    if cut is None:
        raise NeverDecodable(f"{name} cannot decode even with all workers")
    return float(times[cut[-1]])
