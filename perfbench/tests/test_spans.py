import numpy as np
import pytest

import spans


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] calls a [1, 4] and b [5, 9]; a calls c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_aggregate_sums_calls_and_self_time_per_name():
    names = ["cli.command", "world.solve"]
    # cli [0, 10] calls solve [1, 3] and solve [4, 5]; a second cli [20, 21]
    calls, selfs = spans.aggregate(names, [0, 1, 1, 0], [0.0, 1.0, 4.0, 20.0],
                                   [10.0, 3.0, 5.0, 21.0], [-1, 0, 0, -1])
    assert calls == {"cli.command": 2, "world.solve": 2}
    assert selfs == pytest.approx({"cli.command": 8.0, "world.solve": 3.0})


def test_wrappers_record_the_call_tree():
    rec = spans.Recorder()

    def inner(x):
        return x + 1

    inner_w = spans._wrap(rec, "inner", inner)

    def outer(x):
        return inner_w(x) * inner_w(x)

    outer_w = spans._wrap(rec, "outer", outer)
    rec.op = 7
    assert outer_w(1) == 4
    names, starts, ends, parents = rec.span_arrays()
    assert [rec.names[i] for i in names] == ["outer", "inner", "inner"]
    assert parents.tolist() == [-1, 0, 0]
    assert list(rec.ops) == [7, 7, 7]
    assert np.all(ends >= starts) and not rec.stack
    own = spans.self_times(starts, ends, parents)
    assert own[0] == pytest.approx((ends[0] - starts[0]) - (ends[1:] - starts[1:]).sum())


def test_every_layer_metric_is_reported_once():
    names = [name for name, _, _ in spans.LAYER_METRICS]
    assert len(names) == len(set(names)) <= 128
    assert spans.Recorder().metrics().keys() == set(names) - {"trace.overhead_share"}
