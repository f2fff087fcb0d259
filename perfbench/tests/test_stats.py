"""The benchmark's pure arithmetic: the tail rule and self times.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import stats  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))            # 1..100, shuffled order must not matter
    value, pct, beyond = stats.tail(reversed(values))
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(v > value for v in values) == 10


def test_tail_at_twenty_samples_is_the_median_rank():
    values = [float(v) for v in range(20)]
    value, pct, beyond = stats.tail(values)
    assert (value, pct, beyond) == (9.0, 50.0, 10)


def test_tail_with_too_few_samples_is_the_maximum():
    for n in (1, 2, 11, 19):
        values = [float(v) for v in range(n)]
        assert stats.tail(values) == (float(n - 1), 100.0, 0)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.tail([])


def spans_fixture():
    """op 1: root [0, 10] holding a [1, 4] (which holds c [2, 3]) and b [5, 9];
    op 2: root [20, 25]; one set-up span [-1, -0.5] before everything."""
    return [
        ["setup.x", -1.0, -0.5, -1, None],
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 1, 1],
        ["c", 2.0, 3.0, 2, 1],
        ["b", 5.0, 9.0, 1, 1],
        ["root", 20.0, 25.0, -1, 2],
    ]


def test_self_time_subtracts_direct_children_only():
    own = stats.self_times(spans_fixture())
    assert own == [0.5, 3.0, 2.0, 1.0, 4.0, 5.0]


def test_self_times_partition_the_root_interval():
    spans = spans_fixture()
    own = stats.self_times(spans)
    op1 = sum(s for span, s in zip(spans, own) if span[4] == 1)
    assert op1 == pytest.approx(10.0)


def test_aggregate_selects_ops_and_sums_calls():
    agg = stats.aggregate(spans_fixture(), ops=[1, 2])
    assert agg["root"] == {"calls": 2, "total_s": 15.0, "self_s": 8.0}
    assert agg["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert "setup.x" not in agg
    assert stats.aggregate(spans_fixture(), ops=[None])["setup.x"]["calls"] == 1


def test_tracer_nests_spans_and_closes_inner_ones():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op_id = 7
    outer = tracer.begin("outer")         # t=0
    tracer.begin("inner")                 # t=1, left open
    tracer.end(outer)                     # t=2 closes both
    tracer.end(outer)                     # closing twice is a no-op
    assert tracer.spans == [["outer", 0.0, 2.0, -1, 7], ["inner", 1.0, 2.0, 0, 7]]
    assert stats.self_times(tracer.spans) == [1.0, 1.0]
