"""Benchmark arithmetic that needs no numpy: step statistics and sample counts."""

from __future__ import annotations

import math
import statistics

# Percentiles tried for the step-time tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list, q: float):
    """Nearest-rank percentile: the value at 1-based rank ceil(q/100 * n)."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(values) -> dict:
    """Highest ladder percentile with at least MIN_BEYOND samples above it.

    With fewer than 40 samples not even p75 qualifies: the tail is
    unresolved, and the median is reported in its place and marked so.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    for q in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= MIN_BEYOND:
            return {"percentile": q, "value": value, "beyond": beyond, "n": len(ordered),
                    "resolved": True}
    value, beyond = nearest_rank(ordered, 50.0)
    return {"percentile": 50.0, "value": value, "beyond": beyond, "n": len(ordered),
            "resolved": False}


def quartile_spread(values) -> float:
    """Distance between first and third quartiles as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steps_and_samples(pool: int, batch_size: int) -> tuple[int, int]:
    """(optimizer steps per epoch, samples per step) of the fine-tune loops.

    Every step takes a full batch; a pool smaller than one batch gives one
    step over the whole pool.
    """
    return max(1, pool // batch_size), min(batch_size, pool)


def step_stats(intervals_ms: list, samples: list) -> dict:
    """Throughput and step-time statistics over measured steps."""
    total_s = sum(intervals_ms) / 1000.0
    return {"steps": len(intervals_ms), "samples": sum(samples),
            "images_per_s": sum(samples) / total_s,
            "p50_ms": statistics.median(intervals_ms),
            "p75_ms": nearest_rank(sorted(intervals_ms), 75.0)[0],
            "tail": tail(intervals_ms)}


def measured_steps(loops: list[dict]) -> list[tuple[int, int, int, int]]:
    """(start, end, samples, param_bytes) of every measured optimizer step.

    A step runs from the previous step's completion, or from its loop's
    start for a loop's first step. The first step of each loop in rep 0
    is warm-up and left out. Loops without a `rep` key belong to a rep
    that did not finish and are left out too.
    """
    out = []
    for loop in loops:
        if "rep" not in loop:
            continue
        bounds = [loop["start"]] + loop["steps"]
        for i in range(1 if loop["rep"] == 0 else 0, len(loop["steps"])):
            out.append((bounds[i], bounds[i + 1], loop["samples_per_step"],
                        loop["param_bytes"]))
    return out
