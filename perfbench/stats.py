"""Statistics of the end-to-end benchmark: percentiles, failure counting,
run-to-run spread and span self times. Pure functions, tested by
test_stats.py."""

import math
import statistics


def median(values):
    """Median of a non-empty sample (mean of the two middle values)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def percentile(values, q):
    """q-th percentile by linear interpolation between the closest ranks
    (numpy's default; the 'inclusive' method of statistics.quantiles).
    On a handful of samples this keeps a single slow op from setting the
    tail alone. q is in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile rank must be in [0, 100]")
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def samples_beyond(values, q):
    """How many samples lie above the q-th percentile; a percentile is
    supported when this is at least ten."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def failure_counts(ok_flags):
    """(attempted, failed) from one flag per attempted op (truthy = ok)."""
    attempted = len(ok_flags)
    failed = sum(1 for ok in ok_flags if not ok)
    return attempted, failed


def ok_ratio(attempted, failed):
    """Share of attempted ops that completed and passed their checks."""
    if attempted < 1:
        raise ValueError("no op was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed ops must be between 0 and the attempts")
    return (attempted - failed) / attempted


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4, its default method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover. Children of one span are sequential calls on the
    parent's thread, so their covered part is the union of their
    intervals clipped to the parent. `spans` is a list of dicts with
    id, parent, start and end; returns {id: self_time}."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
