"""Self-time arithmetic and span attribution on synthetic and real spans."""

import numpy as np
import pytest

from perfbench.layers import LAYER_METRICS, derive
from perfbench.run import tail
from perfbench.trace import Span, Tracer, covered, instrument, self_times, tracing


def span(name, start, end, parent=-1, attrs=None):
    return Span(name, start, end, parent, "pass-1", attrs)


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(2.0, 3.0, [(0.0, 10.0), (2.5, 2.7)]) == 1.0


def test_self_time_subtracts_direct_children_only():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 3.0, parent=0),
             span("c", 1.5, 2.0, parent=1),
             span("d", 5.0, 6.0, parent=0)]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_ranking_time_goes_to_the_innermost_ranking_function():
    spans = [span("cli.run_eval", 0.0, 10.0),
             span("metrics.range_binned", 1.0, 5.0, parent=0),
             span("metrics.average_precision", 2.0, 3.0, parent=1, attrs={"pixels": 40}),
             span("metrics.two_fold_open_eval", 6.0, 9.0, parent=0),
             span("metrics.calibrate_threshold", 6.5, 7.5, parent=3, attrs={"pixels": 100})]
    m = derive(spans, keep=lambda s: True, n_ops=2)
    assert set(m) == set(LAYER_METRICS)
    assert m["metrics.range_binned_s"] == pytest.approx(3.0 / 2)
    assert m["metrics.average_precision_s"] == pytest.approx(1.0 / 2)
    assert m["metrics.two_fold_open_eval_s"] == pytest.approx(3.0 / 2)
    assert m["cli.run_eval.self_s"] == pytest.approx(3.0 / 2)
    assert m["cli.run_eval_s"] == pytest.approx(10.0 / 2)
    assert m["metrics.pixels_ranked"] == pytest.approx(140 / 2)


def test_tail_interpolates_and_counts_the_samples_beyond_it():
    value, label, beyond = tail([float(i) for i in range(101)], 90)
    assert (value, label, beyond) == (90.0, "p90 of 101", 10)
    assert tail([3.0, 1.0, 2.0], 75) == (pytest.approx(2.5), "p75 of 3", 1)


def test_instrument_records_nested_spans_and_restores_the_package():
    from hybridseg import scoring

    original = scoring.log_sum_exp
    tracer = Tracer()
    with instrument(tracer):
        assert scoring.log_sum_exp is not original
        tracer.set_op("pass-0")
        with tracing(tracer):
            scoring.unnormalized_log_likelihood(np.zeros((3, 4)), axis=0)
        scoring.log_sum_exp(np.zeros(2))  # not enabled: no span
    assert scoring.log_sum_exp is original
    names = [s.name for s in tracer.spans]
    assert names == ["scoring.unnormalized_log_likelihood", "scoring.log_sum_exp"]
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1 and inner.op == "pass-0"
    assert outer.start <= inner.start <= inner.end <= outer.end
