"""The traced run and the per-layer metrics it reports.

Times and counts are per unit (image, optimizer step or verify pass), except
the `data.*` times, which are per set-up because the data is made there.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

import tracing

UNTRACED_SHARE = 0.25
KERNEL_KINDS = ("depthwise", "dense")
LAYERS = ("Linear", "LayerNorm", "MultiHeadAttention")
BACKWARD_OPS = tracing.TENSOR_OPS + ("cross_entropy",)


def _metric_table():
    """(name, unit, better) of every per-layer metric, in report order."""
    t = []
    for op in tracing.TENSOR_OPS:
        t += [(f"tensor.{op}.self_ms", "ms", "lower"), (f"tensor.{op}.calls", "count", "lower")]
    t += [(f"tensor.backward.{op}.self_ms", "ms", "lower") for op in BACKWARD_OPS]
    t += [("tensor.backward.ms", "ms", "lower"), ("tensor.tape_records", "count", "lower"),
          ("tensor.us_per_op", "us", "lower")]
    for kind in KERNEL_KINDS:
        for d in ("forward", "backward"):
            t += [(f"kernels.{kind}.{d}.ms", "ms", "lower"),
                  (f"kernels.{kind}.{d}.calls", "count", "lower"),
                  (f"kernels.{kind}.{d}.gmac_per_s", "GMAC/s", "higher")]
    for layer in LAYERS:
        t += [(f"layers.{layer}.ms", "ms", "lower"), (f"layers.{layer}.calls", "count", "lower")]
    t += [("layers.MultiHeadAttention.ops_per_call", "count", "lower")]
    for stage in tracing.BLOCK_STAGES:
        t += [(f"block.{stage}.ms", "ms", "lower"), (f"block.{stage}.gmac_per_s", "GMAC/s", "higher")]
    t += [(f"model.{part}.self_ms", "ms", "lower") for part in ("stem", "merge", "head")]
    t += [("model.forward.ms", "ms", "lower"), ("model.checkpoint_write.ms", "ms", "lower"),
          ("model.checkpoint_read.ms", "ms", "lower"), ("model.checkpoint.bytes", "bytes", "lower")]
    t += [(f"analysis.{f}.ms", "ms", "lower")
          for f in ("count_flops", "instrumented_macs", "attention_map")]
    t += [("data.gen_synthetic.ms", "ms", "lower"), ("data.dataset_io.ms", "ms", "lower")]
    t += [(f"train.{f}.ms", "ms", "lower")
          for f in ("step", "forward", "backward", "cross_entropy", "evaluate", "state_io")]
    t += [("train.update.self_ms", "ms", "lower")]
    t += [("gradcheck.grad_check.ms", "ms", "lower"), ("gradcheck.probes", "count", "lower"),
          ("gradcheck.us_per_probe", "us", "lower")]
    t += [(f"checks.gradcheck_{s}.ms", "ms", "lower") for s in ("primitives", "blocks", "model")]
    t += [("trace.coverage", "ratio", "higher"), ("trace.overhead_ratio", "ratio", "lower")]
    return t


PER_LAYER = _metric_table()


def _path_key(path):
    """The span that covers a count_flops entry, or None for the global-token
    projections, which no span isolates (the model total still covers them)."""
    if path == "stem":
        return "model.stem"
    if path.startswith("merge"):
        return "model.merge"
    if path == "head":
        return "model.head"
    if path.startswith("stage"):
        suffix = path.rsplit(".", 1)[-1]
        return "block.local" if suffix in ("conv_encoder", "window_local") else f"block.{suffix}"
    return None


def check_path_macs(tracer, m):
    """One traced forward: the MACs executed inside each layer span must equal
    the analytic count_flops entries of that layer, summed over blocks."""
    from dualtoken import analysis
    from dualtoken.tensor import Tensor
    res = m.cfg.input_resolution
    tracer.reset()
    m.forward(Tensor(np.zeros((res, res, 3), dtype=np.float32)), want_activations=False)
    got = tracer.by_name()
    report = analysis.count_flops(m.cfg)
    want = {"model.forward": report.total_macs}
    for e in report.entries:
        key = _path_key(e.path)
        if key is not None:
            want[key] = want.get(key, 0) + e.macs
    bad = {k: (got.get(k, [0, 0, 0, 0])[3], v) for k, v in want.items()
           if got.get(k, [0, 0, 0, 0])[3] != v}
    if bad:
        raise AssertionError(f"{m.cfg.name}: per-layer MACs (traced, analytic) differ: {bad}")


def traced_run(args, make_workload, untraced, measure):
    """Install the tracer, set a fresh workload up under it, check the MACs
    of every layer span, then measure the rest of the run traced."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl = make_workload()
    wl.setup()
    setup_stats = tracer.by_name()
    for m in wl.models:
        check_path_macs(tracer, m)
    tracer.reset()
    traced = measure(wl, args.seconds * (1.0 - UNTRACED_SHARE), tracer=tracer)

    metrics = per_layer(tracer, setup_stats, traced, untraced)
    out_dir = os.path.dirname(wl.scratch)
    tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))
    samples = {"untraced_latencies_s": untraced.latencies,
               "traced_latencies_s": traced.latencies,
               "spans_recorded": len(tracer.span_start)}
    return [untraced, traced], metrics, samples


def per_layer(tracer, setup_stats, traced, untraced):
    n = max(traced.attempted, 1)
    by = tracer.by_name()
    under_step = tracer.by_name(parent="train.step")
    zero = [0, 0.0, 0.0, 0, 0]

    def get(name, field, stats=by):
        return stats.get(name, zero)[field]

    def ms(name, stats=by, per=n):
        return 1e3 * get(name, 1, stats) / per

    def rate(macs, seconds):
        return macs / seconds / 1e9 if seconds > 0 else 0.0

    v = {}
    ops = [f"tensor.{op}" for op in tracing.TENSOR_OPS]
    closures = [tracing.CLOSURE_PREFIX + op for op in BACKWARD_OPS]
    for op, name in zip(tracing.TENSOR_OPS, ops):
        v[f"{name}.self_ms"] = 1e3 * get(name, 2) / n
        v[f"{name}.calls"] = get(name, 0) / n
    for name in closures:
        v[f"{name}.self_ms"] = 1e3 * get(name, 2) / n
    v["tensor.backward.ms"] = ms("tensor.backward")
    v["tensor.tape_records"] = tracer.tape_records / n
    core_calls = sum(get(s, 0) for s in ops + closures)
    core_self = sum(get(s, 2) for s in ops + closures)
    v["tensor.us_per_op"] = 1e6 * core_self / core_calls if core_calls else 0.0

    for kind in KERNEL_KINDS:
        for d in ("forward", "backward"):
            name = f"kernels.{kind}.{d}"
            v[f"{name}.ms"] = ms(name)
            v[f"{name}.calls"] = get(name, 0) / n
            v[f"{name}.gmac_per_s"] = rate(tracer.kernel_macs.get(tracer.intern(name), 0),
                                           get(name, 1))
    for layer in LAYERS:
        v[f"layers.{layer}.ms"] = ms(f"layers.{layer}")
        v[f"layers.{layer}.calls"] = get(f"layers.{layer}", 0) / n
    mha = "layers.MultiHeadAttention"
    v[f"{mha}.ops_per_call"] = get(mha, 4) / get(mha, 0) if get(mha, 0) else 0.0
    for stage in tracing.BLOCK_STAGES:
        name = f"block.{stage}"
        v[f"{name}.ms"] = ms(name)
        v[f"{name}.gmac_per_s"] = rate(get(name, 3), get(name, 1))

    for part in ("stem", "merge", "head"):
        v[f"model.{part}.self_ms"] = 1e3 * get(f"model.{part}", 2) / n
    for name in ("model.forward", "model.checkpoint_write", "model.checkpoint_read"):
        v[f"{name}.ms"] = ms(name)
    v["model.checkpoint.bytes"] = tracer.bytes_written / n
    for f in ("count_flops", "instrumented_macs", "attention_map"):
        v[f"analysis.{f}.ms"] = ms(f"analysis.{f}")

    # the data is made during set-up: these two are per set-up
    v["data.gen_synthetic.ms"] = ms("data.gen_synthetic", setup_stats, 1)
    v["data.dataset_io.ms"] = (ms("data.save_dataset", setup_stats, 1)
                               + ms("data.load_dataset", setup_stats, 1))

    v["train.step.ms"] = ms("train.step")
    v["train.forward.ms"] = ms("model.forward", under_step)
    v["train.backward.ms"] = ms("tensor.backward", under_step)
    v["train.cross_entropy.ms"] = ms("train.cross_entropy")
    v["train.evaluate.ms"] = ms("train.evaluate")
    v["train.state_io.ms"] = ms("train.save_state") + ms("train.load_state")
    v["train.update.self_ms"] = 1e3 * get("train.step", 2) / n

    v["gradcheck.grad_check.ms"] = ms("gradcheck.grad_check")
    v["gradcheck.probes"] = tracer.probes / n
    suites = [f"checks.gradcheck_{s}" for s in ("primitives", "blocks", "model")]
    suite_s = sum(get(s, 1) for s in suites)
    v["gradcheck.us_per_probe"] = 1e6 * suite_s / tracer.probes if tracer.probes else 0.0
    for s in suites:
        v[f"{s}.ms"] = ms(s)

    # share of unit latency spent inside the tensor core: primitive ops (with
    # their kernels) and tape closures; the rest is Python around them
    unit_s = get("bench.unit", 1)
    core_s = sum(get(s, 1) for s in ops + closures)
    v["trace.coverage"] = core_s / unit_s if unit_s else 0.0
    # traced over untraced median unit latency; only a run with failed units
    # can lack either
    if traced.latencies and untraced.latencies:
        v["trace.overhead_ratio"] = (statistics.median(traced.latencies)
                                     / statistics.median(untraced.latencies))
    else:
        v["trace.overhead_ratio"] = 0.0

    return {name: {"value": float(v[name]), "unit": unit} for name, unit, _ in PER_LAYER}
