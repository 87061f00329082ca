"""Order statistics and span arithmetic shared by the benchmark and its tracer."""

from __future__ import annotations

import math
import statistics

# op_tail_s is the latency with at least this many ops above it, so a run
# needs MIN_OPS ops
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
# ...but at most this quantile.  Beyond the 99th percentile of a `transform`
# run (~10^5 solves) lie the few points that land closest to a support edge,
# with 100+ iterations, and how close they land depends on the seed: over ten
# seeds on a shared 2-core x86-64 host, the uncapped tail (the 99.99th
# percentile) spread 0.38 between runs, the 99th percentile of the same runs
# 0.18.
TAIL_QUANTILE = 0.99
# ops_per_s and op_p50_s are taken over the cycles whose total latency ranks
# in this band of the run, from the median cycle to the 90th percentile.  A
# shared host runs at a steady loaded speed with spells up to 1.6x faster that
# come and go over tens of seconds, and now and then one op stalls several-fold
# (a 1.2 s `simulate` op once took 5.6 s).  The slower half of a run's cycles
# lies at the loaded speed in nearly every run, the run as a whole does not;
# leaving out the slowest tenth leaves out the stalls.
CYCLE_BAND = (0.5, 0.9)

# oracle verdicts on one op (see workloads.py)
OK, FAILED, WRONG = "ok", "failed", "wrong"


def median(values):
    return float(statistics.median(values))


def tail_latency(latencies, beyond=TAIL_BEYOND, cap=TAIL_QUANTILE):
    """Latency at the highest percentile up to ``cap`` that leaves ``beyond`` ops above it.

    Of n sorted latencies that is the one at 0-based index
    min(n - beyond - 1, floor(cap * n)).  With the defaults that is index
    n - 11 up to n = 1100 ops and the 99th percentile above.  It needs
    n >= beyond + 1.
    """
    n = len(latencies)
    if n < beyond + 1:
        raise ValueError(f"a tail with {beyond} ops beyond it needs at least {beyond + 1} ops, got {n}")
    return float(sorted(latencies)[min(n - beyond - 1, int(cap * n))])


def cycle_band(ops, band=CYCLE_BAND):
    """The ops of the cycles whose total latency ranks within ``band`` of the run.

    ``ops`` are ``(cycle, latency, ...)`` records.  Of n cycles sorted by
    total latency, the band keeps 0-based ranks floor(lo * n) up to
    ceil(hi * n) - 1, and always at least one cycle.  Cycles of one workload
    hold the same mix of ops, so a cycle's rank follows the host's speed while
    it ran, not how hard its inputs were.
    """
    totals = {}
    for op in ops:
        totals[op[0]] = totals.get(op[0], 0.0) + op[1]
    ranked = sorted(totals, key=totals.get)
    lo = math.floor(band[0] * len(ranked))
    keep = set(ranked[lo : max(lo + 1, math.ceil(band[1] * len(ranked)))])
    return [op for op in ops if op[0] in keep]


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(start, end, children):
    """Span duration minus the part of it that child spans cover."""
    return (end - start) - covered(start, end, children)

