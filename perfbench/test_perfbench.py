"""Tests of the benchmark's own arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
from summary import measured_steps, step_stats, steps_and_samples, tail  # noqa: E402
from workloads import pool_size  # noqa: E402


# ---------------------------------------------------------------- tail percentile

def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1, 1001))  # 1000 samples
    t = tail(values)
    assert (t["percentile"], t["value"], t["beyond"], t["n"]) == (99.0, 990, 10, 1000)
    assert t["resolved"]


def test_tail_steps_down_the_ladder_as_samples_shrink():
    t = tail(list(range(1, 101)))  # p90 leaves exactly 10 beyond; p95 leaves 5
    assert (t["percentile"], t["value"], t["beyond"]) == (90.0, 90, 10)
    t = tail(list(range(1, 41)))  # 40 samples: p75 is rank 30, 10 beyond
    assert (t["percentile"], t["value"], t["beyond"]) == (75.0, 30, 10)
    assert t["resolved"]


def test_tail_unresolved_below_forty_samples():
    # 39 samples: p75 is rank 30 with 9 beyond, so the median stands in
    t = tail(list(range(1, 40)))
    assert not t["resolved"]
    assert (t["percentile"], t["value"], t["beyond"], t["n"]) == (50.0, 20, 19, 39)
    t = tail([5.0, 1.0, 3.0] * 6)
    assert not t["resolved"]
    assert (t["percentile"], t["value"], t["beyond"], t["n"]) == (50.0, 3.0, 9, 18)


def test_step_stats_quartiles_and_throughput():
    stats = step_stats([80.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0], [2] * 8)
    assert (stats["p50_ms"], stats["p75_ms"]) == (45.0, 60.0)  # p75: rank 6 of 8
    assert stats["images_per_s"] == pytest.approx(16 / 0.36)
    assert not stats["tail"]["resolved"]


def test_tail_is_order_independent():
    values = [float(v) for v in np.random.default_rng(0).permutation(500)]
    assert tail(values) == tail(sorted(values))


# ---------------------------------------------------------------- sample counting

def test_segment_crops_count_as_samples():
    assert pool_size("segment", 9, (32, 32), 24) == 9 * 2 * 2
    assert pool_size("segment", 9, (32, 32), None) == 9  # no crop: one per image
    assert pool_size("segment", 2, (32, 24), 16) == 2 * 3 * 2  # flush last tile
    assert steps_and_samples(36, 12) == (3, 12)


def test_change_pairs_count_once():
    assert pool_size("change", 9, (32, 32), None) == 9
    assert steps_and_samples(9, 4) == (2, 4)  # the ninth pair is dropped


def test_pool_smaller_than_batch_is_one_short_step():
    assert steps_and_samples(3, 4) == (1, 3)


def test_measured_steps_drop_warmup_only_in_rep0():
    loops = [{"rep": 0, "start": 0, "steps": [10, 25, 45], "samples_per_step": 4,
              "param_bytes": 8},
             {"rep": 1, "start": 100, "steps": [130, 150], "samples_per_step": 2,
              "param_bytes": 8},
             {"start": 200, "steps": [210]}]  # unfinished rep
    assert measured_steps(loops) == [(10, 25, 4, 8), (25, 45, 4, 8),
                                     (100, 130, 2, 8), (130, 150, 2, 8)]


# ---------------------------------------------------------------- spans

def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a[0,100] > b[10,60] > c[20,30];  a > d[70,90]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 20, 70])
    end = np.array([100, 60, 30, 90])
    assert spans.self_times(parent, start, end).tolist() == [30.0, 40.0, 10.0, 20.0]


def test_recorder_nests_spans_by_call_stack():
    rec = spans.Recorder(clock=fake_clock([0, 10, 20, 30, 40, 50]))
    outer = rec.open(rec.name("outer"))
    first = rec.open(rec.name("inner"))
    rec.close(first)
    second = rec.open(rec.name("inner"))
    rec.close(second)
    rec.close(outer)
    a = rec.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert spans.self_times(a["parent"], a["start"], a["end"]).tolist() == [30.0, 10.0, 10.0]


def test_backward_closures_nest_under_tensor_backward():
    from spectralmae import tensor as T

    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        w = T.Parameter(np.ones((3, 2), np.float32))
        x = T.Tensor(np.ones((4, 3), np.float32))
        loss = T.mse(T.gelu(T.matmul(x, w)), T.Tensor(np.zeros((4, 2), np.float32)))
        loss.backward()
    finally:
        spans.uninstall(patches)
    a = rec.arrays()
    names = [rec.names[i] for i in a["name_id"]]
    backward = names.index(spans.BACKWARD)
    bwd = [i for i, n in enumerate(names) if n.endswith(".bwd")]
    # mse's inner sub/mul/mean_all closures are charged to mse; matmul's and gelu's to themselves
    assert sorted(names[i] for i in bwd) == ["tensor.gelu.bwd", "tensor.matmul.bwd",
                                             "tensor.mse.bwd", "tensor.mse.bwd",
                                             "tensor.mse.bwd"]
    assert all(a["parent"][i] == backward for i in bwd)
    assert a["value"][backward] == 5  # op nodes: matmul, gelu, sub, mul, mean_all
    self_ns = spans.self_times(a["parent"], a["start"], a["end"])
    total = a["end"][backward] - a["start"][backward]
    assert self_ns[backward] == pytest.approx(
        total - sum(a["end"][i] - a["start"][i] for i in bwd))
    assert "tensor.sub.fwd" not in names  # ops inside ops record no span of their own
    assert T.mse.__name__ == "mse" and not hasattr(T.mse, "__wrapped__")


def test_inside_windows():
    lo, hi = np.array([10, 50]), np.array([20, 60])
    start = np.array([5, 10, 15, 19, 50, 55, 61])
    end = np.array([12, 20, 21, 20, 60, 58, 62])
    assert spans.inside(start, end, lo, hi).tolist() == [False, True, False, True,
                                                          True, True, False]
