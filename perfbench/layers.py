"""Per-layer metrics derived from a traced run's spans.

Every time metric is self time (see ``trace.self_times``) summed over the
traced workload operations and divided by their number; counts are taken at
the same span boundaries. conv2d and batch_norm backward run as closures
inside ``Tensor.backward``, which are not public, so their times come from
isolated replays at the shapes the traced steps recorded
(``replay_backward``) and are parts of ``autodiff.backward_s``. FLOPs and
bytes are computed from those shapes, not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from .trace import Span, ancestors, self_times

# per-layer metric -> (unit, better, the end-to-end metric it should move)
LAYER_METRICS = {
    "autodiff.conv2d.fwd_s": ("s", "lower", "op_s on scene-train (train step) and scene-score-eval (forward only)"),
    "autodiff.conv2d.bwd_s": ("s", "lower", "op_s on scene-train; computed from replays"),
    "autodiff.batch_norm.fwd_s": ("s", "lower", "op_s on scene-train and scene-score-eval"),
    "autodiff.batch_norm.bwd_s": ("s", "lower", "op_s on scene-train; computed from replays"),
    "autodiff.other.fwd_s": ("s", "lower", "op_s on scene-train and toy-2d"),
    "autodiff.backward_s": ("s", "lower", "op_s on scene-train and toy-2d"),
    "autodiff.ops_per_step": ("count", "lower", "op_s on toy-2d (fixed cost per op)"),
    "autodiff.conv2d.gflop": ("GFLOP", "lower", "none: computed work, fixed while a kernel gets faster"),
    "autodiff.conv2d.gbytes": ("GB", "lower", "none: computed compulsory traffic"),
    "autodiff.conv2d.gflop_per_s": ("GFLOP/s", "higher", "op_s on scene-train"),
    "network.forward_s.train": ("s", "lower", "op_s on scene-train and toy-2d"),
    "network.forward_s.eval": ("s", "lower", "op_s on scene-score-eval"),
    "losses.compound_loss_s": ("s", "lower", "op_s on toy-2d, slightly on scene-train"),
    "optim.adam_step_s": ("s", "lower", "op_s on toy-2d more than scene-train"),
    "optim.skipped_steps": ("count", "lower", "none: skipped optimizer steps"),
    "data.mixed_batch_s": ("s", "lower", "op_s on scene-train; absent (0) on toy-2d"),
    "data.gen_scenes_s": ("s", "lower", "setup_s on scene-train and scene-score-eval"),
    "train.self_s": ("s", "lower", "op_s on scene-train and toy-2d"),
    "inference.score_image_s": ("s", "lower", "op_s on scene-score-eval"),
    "inference.self_s": ("s", "lower", "op_s on scene-score-eval"),
    "scoring.log_sum_exp_s": ("s", "lower", "op_s on scene-score-eval"),
    "scoring.class_posterior_s": ("s", "lower", "op_s on scene-score-eval"),
    "rasters.write_s": ("s", "lower", "op_s on scene-score-eval (score half)"),
    "rasters.bytes_written": ("B", "lower", "op_s on scene-score-eval (score half)"),
    "rasters.read_s": ("s", "lower", "op_s on scene-score-eval (eval half)"),
    "rasters.bytes_read": ("B", "lower", "op_s on scene-score-eval (eval half)"),
    "metrics.average_precision_s": ("s", "lower", "op_s on scene-score-eval (eval half)"),
    "metrics.auroc_s": ("s", "lower", "op_s on scene-score-eval (eval half)"),
    "metrics.fpr_at_tpr_s": ("s", "lower", "op_s on scene-score-eval (eval half)"),
    "metrics.two_fold_open_eval_s": ("s", "lower", "op_s on scene-score-eval (eval half)"),
    "metrics.range_binned_s": ("s", "lower", "op_s on scene-score-eval (eval half)"),
    "metrics.pixels_ranked": ("count", "lower", "op_s on scene-score-eval (eval half)"),
    "cli.run_score.self_s": ("s", "lower", "op_s on scene-score-eval (score half)"),
    "cli.run_eval.self_s": ("s", "lower", "op_s on scene-score-eval (eval half)"),
    "cli.run_score_s": ("s", "lower", "op_s on scene-score-eval: traced score half"),
    "cli.run_eval_s": ("s", "lower", "op_s on scene-score-eval: traced eval half"),
    "score.identity_mismatch_px": ("count", "lower", "none: hybrid != generative + discriminative in float32"),
    "trace.op_s": ("s", "lower", "op_s, traced"),
    "trace.overhead_s": ("s", "lower", "none: traced op_s minus untraced op_s"),
}

# backward replays per recorded shape; their median is used
REPLAY_REPEATS = 3

# ranking entry points of metrics.py; nested calls go to the innermost one
RANKING = ("metrics.average_precision", "metrics.auroc", "metrics.fpr_at_tpr",
           "metrics.two_fold_open_eval", "metrics.range_binned")


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def conv_flops_bytes(attrs: dict, backward: bool) -> tuple[float, float]:
    """Computed multiply-add FLOPs and compulsory bytes (float64) of one conv2d.

    Forward, grad-w and grad-x each do 2*N*Co*Ci*k*k*H*W FLOPs and read or
    write each of their operands once. Backward passes count only where the
    traced step ran backward and the operand needed a gradient.
    """
    n, ci, h, w = attrs["x"]
    co, _, k, _ = attrs["w"]
    flops = 2.0 * n * co * ci * k * k * h * w
    x_b, w_b, y_b = 8.0 * n * ci * h * w, 8.0 * co * ci * k * k, 8.0 * n * co * h * w
    total_f, total_b = flops, x_b + w_b + y_b
    if backward and attrs["w_grad"]:
        total_f += flops
        total_b += y_b + x_b + w_b
    if backward and attrs["x_grad"]:
        total_f += flops
        total_b += y_b + w_b + x_b
    return total_f, total_b


def _conv_key(attrs):
    return ("conv2d", tuple(attrs["x"]), tuple(attrs["w"]), attrs["bias"],
            attrs["x_grad"], attrs["w_grad"])


def _bn_key(attrs):
    return ("batch_norm", tuple(attrs["x"]), attrs["x_grad"])


def _backward_seconds(loss) -> float:
    start = perf_counter()
    loss.backward()
    return perf_counter() - start


def replay_backward(key) -> float:
    """Median backward seconds of one conv2d or training-mode batch_norm.

    The op runs on random inputs of the recorded shapes, its output is
    contracted with a random cotangent, and the backward of that
    contraction alone (replayed on a leaf of the output's shape) is
    subtracted.
    """
    from hybridseg import autodiff as ad

    rng = np.random.default_rng(0)
    op_times, base_times = [], []
    for _ in range(REPLAY_REPEATS):
        if key[0] == "conv2d":
            _, xs, ws, bias, x_grad, w_grad = key
            x = ad.Tensor(rng.standard_normal(xs), requires_grad=x_grad)
            w = ad.Tensor(rng.standard_normal(ws) * 0.1, requires_grad=w_grad)
            b = ad.parameter(np.zeros(ws[0])) if bias else None
            y = ad.conv2d(x, w, b)
        else:
            _, xs, x_grad = key
            c = xs[1]
            x = ad.Tensor(rng.standard_normal(xs), requires_grad=x_grad)
            y = ad.batch_norm(x, ad.parameter(np.ones(c)), ad.parameter(np.zeros(c)),
                              np.zeros(c), np.ones(c), training=True)
        cot = ad.constant(rng.standard_normal(y.shape))
        op_times.append(_backward_seconds(ad.tsum(ad.mul(y, cot))))
        leaf = ad.parameter(np.array(y.value))
        base_times.append(_backward_seconds(ad.tsum(ad.mul(leaf, cot))))
    return max(statistics.median(op_times) - statistics.median(base_times), 0.0)


def derive(spans: list[Span], keep, n_ops: int) -> dict[str, float]:
    """Per-layer metrics per workload operation.

    Only spans for which ``keep(span)`` holds count; they come from ``n_ops``
    traced operations. Set-up spans (operation id ``setup-*``) are left to
    ``setup_metrics``.
    """
    selfs = self_times(spans)
    per_op = 1.0 / max(n_ops, 1)
    m = defaultdict(float)

    def under(i, name):
        return any(spans[j].name == name for j in ancestors(spans, spans[i].parent))

    conv_keys, bn_keys = defaultdict(int), defaultdict(int)
    flops = nbytes = 0.0
    steps = step_ops = images = image_ops = 0
    skipped: dict[int, int] = {}
    for i, (s, st) in enumerate(zip(spans, selfs)):
        if not keep(s):
            continue
        name, mod = s.name, _module(s.name)
        if mod == "autodiff":
            if name == "autodiff.Tensor.backward":
                m["autodiff.backward_s"] += st
                continue
            in_train = under(i, "train.train")
            split = name in ("autodiff.conv2d", "autodiff.batch_norm")
            m[f"{name}.fwd_s" if split else "autodiff.other.fwd_s"] += st
            if in_train:
                step_ops += 1
            elif under(i, "inference.score_image"):
                image_ops += 1
            if name == "autodiff.conv2d":
                if in_train:
                    conv_keys[_conv_key(s.attrs)] += 1
                f, b = conv_flops_bytes(s.attrs, backward=in_train)
                flops += f
                nbytes += b
            elif name == "autodiff.batch_norm" and in_train and s.attrs["training"]:
                bn_keys[_bn_key(s.attrs)] += 1
        elif name == "network.forward":
            m["network.forward_s." + ("train" if s.attrs["training"] else "eval")] += st
        elif name == "optim.Adam.step":
            m["optim.adam_step_s"] += st
            steps += 1
            skipped[s.attrs["optimizer"]] = s.attrs["skipped"]
        elif mod == "train":
            m["train.self_s"] += st
        elif mod == "inference":
            m["inference.self_s"] += st
            if name == "inference.score_image":
                m["inference.score_image_s"] += s.end - s.start
                images += 1
        elif name in ("scoring.log_sum_exp", "scoring.unnormalized_log_likelihood"):
            m["scoring.log_sum_exp_s"] += st
        elif name == "scoring.class_posterior":
            m["scoring.class_posterior_s"] += st
        elif mod == "losses":
            m["losses.compound_loss_s"] += st
        elif mod == "data":
            if name == "data.mixed_batch" or under(i, "data.mixed_batch"):
                m["data.mixed_batch_s"] += st
        elif mod == "rasters":
            kind = "write" if name.startswith("rasters.write") else "read"
            m[f"rasters.{kind}_s"] += st
            m["rasters.bytes_written" if kind == "write" else "rasters.bytes_read"] += \
                (s.attrs or {}).get("bytes", 0)
        elif mod == "metrics":
            if s.attrs and "pixels" in s.attrs:
                m["metrics.pixels_ranked"] += s.attrs["pixels"]
            owner = next((spans[j].name for j in ancestors(spans, i) if spans[j].name in RANKING),
                         None)
            if owner is not None:
                m[f"{owner}_s"] += st
        elif name in ("cli.run_score", "cli.run_eval"):
            m[f"{name}.self_s"] += st
            m[f"{name}_s"] += s.end - s.start

    for key, count in conv_keys.items():
        m["autodiff.conv2d.bwd_s"] += count * replay_backward(key)
    for key, count in bn_keys.items():
        m["autodiff.batch_norm.bwd_s"] += count * replay_backward(key)
    m["autodiff.conv2d.gflop"] = flops / 1e9
    m["autodiff.conv2d.gbytes"] = nbytes / 1e9

    out = {name: 0.0 for name in LAYER_METRICS}
    for name, value in m.items():
        out[name] = value * per_op
    conv_s = out["autodiff.conv2d.fwd_s"] + out["autodiff.conv2d.bwd_s"]
    out["autodiff.conv2d.gflop_per_s"] = out["autodiff.conv2d.gflop"] / conv_s if conv_s else 0.0
    # ops per train step where the workload trains, else per scored image
    out["autodiff.ops_per_step"] = (step_ops / steps if steps
                                    else image_ops / images if images else 0.0)
    out["optim.skipped_steps"] = float(sum(skipped.values()))
    return out


def setup_metrics(spans: list[Span], n_setups: int) -> dict[str, float]:
    """``data.gen_scenes_s``: scene synthesis seconds per traced set-up."""
    total = sum(s.end - s.start for s in spans
                if s.name == "data.gen_scenes" and s.op.startswith("setup"))
    return {"data.gen_scenes_s": total / max(n_setups, 1)}
