"""Minimum-size run of each workload, untraced and traced."""

import contextlib
import io

import pytest
from hybridseg import cli

from perfbench import workloads
from perfbench.layers import LAYER_METRICS, derive
from perfbench.run import end_to_end, run_workload
from perfbench.trace import Tracer, instrument, tracing

TINY = {
    "scene-train": dict(train_count=4, test_count=2, size=32, patch_count=4, crop=32,
                        batch=2, widths=(4,), epochs=1, batches_per_epoch=2),
    "scene-score-eval": dict(test_count=8, train_count=4, widths="4", train_batches=6,
                             batch=2, crop=32, size=32),
    "toy-2d": dict(n_per_role=100, widths=(8, 8), steps=100),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimum_size_run(name, trace, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path, **TINY[name])
    record = run_workload(workload, seconds=0.0, trace=trace, workloads_module=workloads)
    assert record["checks"]["failures"] == []
    assert record["checks"]["attempted"] > 0
    assert all(value > 0 for value, _ in end_to_end(record).values())
    if trace:
        assert set(record["layers"]) == set(LAYER_METRICS)
        assert record["layers"]["trace.op_s"] > 0


def test_score_eval_file_io_counts_only_the_program(tmp_path):
    """The read-back checks stay out of the traced figures: a traced pass
    reads and writes the bytes of run_score and run_eval traced alone."""
    workload = workloads.SceneScoreEval(0, tmp_path, **TINY["scene-score-eval"])
    record = run_workload(workload, seconds=0.0, trace=True, workloads_module=workloads)
    state = workload.setup(99)
    tracer = Tracer()
    with instrument(tracer), tracing(tracer), contextlib.redirect_stdout(io.StringIO()):
        cli.run_score(state["score"])
        cli.run_eval(state["eval"])
    alone = derive(tracer.spans, keep=lambda s: True, n_ops=1)
    for name in ("rasters.bytes_read", "rasters.bytes_written"):
        assert record["layers"][name] == alone[name] > 0
