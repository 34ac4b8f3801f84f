"""Benchmark of hybridseg's train, score+eval and 2-D toy paths.

Run from the repository root:

    python3 perfbench/run.py --workload scene-train --seed 0 --seconds 40 --trace 0

The workload's inputs come from ``--seed``. The run times the workload's
set-up several times, then repeats passes of its operation for
``--seconds`` (at least two, so reruns of one seed can be compared), checks
every output, and prints a table followed by one JSON line. With
``--trace 0`` the JSON holds the end-to-end metrics, measured untraced; with
``--trace 1`` passes alternate untraced and traced, and the JSON holds the
per-layer metrics of the traced passes plus the tracing overhead. Records
(machine, digests, samples, spans) go to ``.perfbench/`` in the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2


# One BLAS thread: on two CPUs a second one gained about 5% on scene-train
# and lost as much on toy-2d, and its spin-waiting worker turned any other
# load on the machine into slow-downs of ten times and more.
BLAS_THREADS = 1


def _limit_blas_threads() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def tail(samples: list[float], percentile: int) -> tuple[float, str, int]:
    """(value, label, samples beyond it) of a fixed, linearly interpolated
    percentile, which keeps runs with different sample counts comparable."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * percentile / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for x in ordered if x > value)
    return value, f"p{percentile} of {len(ordered)}", beyond


def run_workload(workload, seconds: float, trace: bool, workloads_module) -> dict:
    """Set up, run passes for ``seconds``, check; return the run's record."""
    from perfbench.layers import derive, setup_metrics
    from perfbench.trace import Tracer, instrument, tracing
    from perfbench.workloads import Checks

    checks = Checks()
    tracer = Tracer() if trace else None
    record = {"workload": workload.name, "op": workload.op_name,
              "op_metric": workload.op_metric, "tail_percentile": workload.tail_percentile,
              "trace": trace}
    setup_s, setup_digests = [], []

    def set_up():
        k = len(setup_s)
        if tracer is not None:
            tracer.set_op(f"setup-{k}")
        with tracing(tracer):
            start = perf_counter()
            state = workload.setup(k)
            setup_s.append(perf_counter() - start)
        setup_digests.append(workload.setup_digest(state))
        return state

    with (instrument(tracer, extra=(workloads_module,)) if trace else contextlib.nullcontext()):
        state = set_up()
        for _ in range(workload.setup_repeats - 1):
            set_up()
        workload.check_setup(state, checks)

        passes, traced = [], []
        peak_rss_mib = None
        deadline = perf_counter() + seconds
        index = 0
        while index < MIN_PASSES or perf_counter() < deadline:
            is_traced = trace and index % 2 == 1
            seed = workload.pass_seed(index, trace)
            if tracer is not None:
                tracer.set_op(f"pass-{index}")
            try:
                with tracing(tracer if is_traced else None):
                    result = workload.run_pass(state, index, seed,
                                               tracer if is_traced else None, checks)
            except Exception as exc:  # a raised error is a failed operation
                traceback.print_exc()
                checks.check(False, f"pass {index}: {type(exc).__name__}: {exc}")
                break
            result.recorded["seed"] = seed
            (traced if is_traced else passes).append(result)
            index += 1
            # more set-ups between passes, so that their median spans the run
            for _ in range(workload.setup_between_passes):
                set_up()
            if index == MIN_PASSES:
                # native heap fragmentation adds a few MiB per pass, so the
                # peak is taken over a fixed amount of work
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks.check(len(set(setup_digests)) == 1, "set-ups of one seed gave different bytes")
    if peak_rss_mib is None:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    by_seed = {}
    for p in passes + traced:
        by_seed.setdefault(p.recorded["seed"], []).append(p.digest)
    for seed, seen in by_seed.items():
        if len(seen) > 1:
            checks.check(len(set(seen)) == 1, f"passes of seed {seed} gave different bytes")
    if not passes:
        raise RuntimeError("no pass completed: " + "; ".join(checks.failures))

    samples = [s for p in passes for s in p.samples]
    record.update({
        "setup_s": setup_s, "samples": samples,
        "digests": sorted({p.digest for p in passes + traced}),
        "setup_digests": sorted(set(setup_digests)),
        "recorded": [p.recorded for p in passes + traced],
        "identity_mismatch_px": passes[-1].identity_mismatch_px,
        "report": workload.report(passes),
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "peak_rss_mib": peak_rss_mib,
    })
    if trace:
        if not traced:
            raise RuntimeError("no traced pass completed")
        traced_samples = [s for p in traced for s in p.samples]
        # only traced passes record spans; set-up spans are counted apart
        keep = (lambda s: not s.op.startswith("setup") and workload.counts_toward_op(s))
        layers = derive(tracer.spans, keep, len(traced_samples))
        layers.update(setup_metrics(tracer.spans, len(setup_s)))
        layers["score.identity_mismatch_px"] = float(record["identity_mismatch_px"])
        layers["trace.op_s"] = statistics.median(traced_samples)
        layers["trace.overhead_s"] = layers["trace.op_s"] - statistics.median(samples)
        record["layers"] = layers
        record["traced_samples"] = traced_samples
        record["tracer"] = tracer
    return record


def end_to_end(record: dict) -> dict[str, tuple[float, str]]:
    value, _, _ = tail(record["samples"], record["tail_percentile"])
    return {
        "setup_s": (statistics.median(record["setup_s"]), "s"),
        "op_s": (statistics.median(record["samples"]), "s"),
        "op_s.tail": (value, "s"),
        "peak_rss_mib": (record["peak_rss_mib"], "MiB"),
    }


def print_table(record: dict, machine: dict) -> None:
    from perfbench.layers import LAYER_METRICS

    print(f"# perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    n = len(record["samples"])
    tail_value, tail_label, beyond = tail(record["samples"], record["tail_percentile"])
    rows = [
        ("setup_s", statistics.median(record["setup_s"]), "s",
         f"median of {len(record['setup_s'])} set-ups"),
        (f"op_s = {record['op_metric']}", statistics.median(record["samples"]), "s",
         f"{record['op']}: median of {n}"),
        (f"op_s.tail = {record['op_metric']}.tail", tail_value, "s",
         f"{record['op']}: {tail_label}, {beyond} beyond"),
        ("peak_rss_mib", record["peak_rss_mib"], "MiB",
         f"ru_maxrss over set-up and the first {MIN_PASSES} passes"),
    ] + record["report"] + [
        ("error_rate", len(record["checks"]["failures"]) / record["checks"]["attempted"], "",
         f"{len(record['checks']['failures'])} failed of {record['checks']['attempted']} checks"),
        ("score.identity_mismatch_px", record["identity_mismatch_px"], "px",
         "float32 hybrid != generative + discriminative (exact), one scoring"),
    ]
    for name, value, unit, note in rows:
        print(f"{name:34s} {value:14.6g} {unit:8s} {note}")
    for digest in record["digests"]:
        print(f"digest {digest} (recorded; low bits may change with kernels)")
    for failure in record["checks"]["failures"]:
        print(f"FAILED {failure}")
    if record["trace"]:
        layers = record["layers"]
        op_s = layers["trace.op_s"]
        print(f"# per-layer, per {record['op']} (traced op {op_s:.6g} s, "
              f"{len(record['traced_samples'])} samples; overhead "
              f"{layers['trace.overhead_s']:+.6g} s); share of traced op, metric it moves")
        for name, (unit, _, moves) in LAYER_METRICS.items():
            share = f"{100 * layers[name] / op_s:5.1f}%" if unit == "s" and op_s else "      "
            label = " (computed)" if unit in ("GFLOP", "GB") else ""
            print(f"{name:34s} {layers[name]:14.6g} {unit:8s} {share} {moves}{label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "hybridseg"
    if not package.is_dir():
        sys.exit(f"perfbench: no package at {package}")
    # numpy reads the BLAS thread variables when it loads, so the package and
    # everything importing it load only after they are set
    threads = _limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as workloads_module
    from perfbench.layers import LAYER_METRICS
    from perfbench.machine import machine_record

    if args.workload not in workloads_module.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads_module.WORKLOADS)}")
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads_module.WORKLOADS[args.workload](args.seed, workdir)
        record = run_workload(workload, args.seconds, bool(args.trace), workloads_module)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["seed"] = args.seed
    machine = machine_record(threads)
    print_table(record, machine)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl.gz")
    record["machine"] = machine
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    if args.trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, (unit, _, _) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(record).items()}
    failed = len(record["checks"]["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": record["checks"]["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
