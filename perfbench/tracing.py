"""Outside-in span tracing of the dualtoken package.

`install(tracer)` wraps the public functions and methods that each module
exposes, at every place the package looks them up, so that each call opens a
span. Nothing in the package's source changes: the wrapping happens in the
benchmark process only, and only in a traced run.

A span records its name, start, end and parent. Spans are kept in memory
(compact arrays, 24 bytes a span) and written out by `Tracer.dump` when the
run ends. Aggregates are kept per (name, parent name) while the
spans close: call count, total time, self time (duration minus the time its
child spans cover), forward MACs and tensor-op count, the last two inclusive
of the children.
"""

from __future__ import annotations

import sys
import time
from array import array

_now = time.perf_counter

# Primitive ops of dualtoken.tensor that the model and the checks call.
TENSOR_OPS = ("add", "sub", "mul", "scale", "gelu", "sigmoid", "matmul",
              "conv2d", "avgpool2d", "layernorm", "softmax",
              "bilinear_resize", "reshape", "transpose", "concat",
              "slice_axis", "sum", "mean")

# Dual-token block stages, named after the analysis.count_flops suffixes.
BLOCK_STAGES = {
    "local": ("block", "DualTokenBlock", "local_branch"),
    "downsample": ("block", "DualTokenBlock", "downsample"),
    "aggregate": ("block", "DualTokenBlock", "global_aggregate"),
    "fuse": ("block", "DualTokenBlock", "fuse_global_tokens"),
    "broadcast": ("block", "DualTokenBlock", "global_broadcast"),
    "ffn": ("block", "FFN", "__call__"),
    "bidim": ("block", "BiDimAttention", "__call__"),
}

# Module-level functions: span name -> (module, attribute).
FUNCTIONS = {
    "tensor.backward": ("tensor", "backward"),
    "model.checkpoint_write": ("model", "save_checkpoint"),
    "model.checkpoint_read": ("model", "load_checkpoint"),
    "analysis.count_flops": ("analysis", "count_flops"),
    "analysis.instrumented_macs": ("analysis", "instrumented_macs"),
    "analysis.attention_map": ("analysis", "extract_attention_map"),
    "data.gen_synthetic": ("data", "gen_synthetic"),
    "data.save_dataset": ("data", "save_dataset"),
    "data.load_dataset": ("data", "load_dataset"),
    "train.step": ("train", "train_step"),
    "train.cross_entropy": ("train", "cross_entropy"),
    "train.evaluate": ("train", "evaluate"),
    "train.save_state": ("train", "save_state"),
    "train.load_state": ("train", "load_state"),
    "gradcheck.grad_check": ("gradcheck", "grad_check"),
    "checks.gradcheck_primitives": ("checks", "gradcheck_primitives"),
    "checks.gradcheck_blocks": ("checks", "gradcheck_blocks"),
    "checks.gradcheck_model": ("checks", "gradcheck_model"),
}

# Methods: span name -> (module, class, attribute).
METHODS = {
    "layers.Linear": ("layers", "Linear", "__call__"),
    "layers.LayerNorm": ("layers", "LayerNorm", "__call__"),
    "layers.MultiHeadAttention": ("layers", "MultiHeadAttention", "__call__"),
    "model.stem": ("model", "Stem", "__call__"),
    "model.merge": ("model", "MergePatch", "__call__"),
    **{f"block.{k}": v for k, v in BLOCK_STAGES.items()},
}

CLOSURE_PREFIX = "tensor.backward."


class Tracer:
    """Span stack, span store and per-(name, parent) aggregates."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        """Forget every span and aggregate recorded so far."""
        self.stack = []                 # open frames
        self.stats = {}                 # (name id, parent id) -> [calls, total, self, macs, ops]
        self.kernel_macs = {}           # kernel span name id -> MACs
        self.tape_records = 0
        self.bytes_written = 0
        self.probes = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def push(self, nid, ops=0):
        stack = self.stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][5] if stack else -1)
        t = _now()
        self.span_start.append(t)
        self.span_end.append(0.0)
        # frame: name id, start, child time, MACs, op count, span index
        stack.append([nid, t, 0.0, 0, ops, idx])

    def pop(self):
        end = _now()
        nid, start, child, macs, ops, idx = self.stack.pop()
        dur = end - start
        self.span_end[idx] = end
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent[3] += macs
            parent[4] += ops
            pid = parent[0]
        else:
            pid = -1
        st = self.stats.get((nid, pid))
        if st is None:
            st = self.stats[(nid, pid)] = [0, 0.0, 0.0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        st[3] += macs
        st[4] += ops

    def unwind(self, depth):
        """Close frames left open above `depth` after an exception."""
        while len(self.stack) > depth:
            self.pop()

    def add_macs(self, n):
        self.stack[-1][3] += n

    def top_name(self):
        return self.names[self.stack[-1][0]] if self.stack else ""

    # -- views ---------------------------------------------------------------

    def by_name(self, parent=None):
        """Aggregates summed over parents, or only under the named parent."""
        pid = None if parent is None else self._ids.get(parent, -2)
        out = {}
        for (nid, p), st in self.stats.items():
            if pid is not None and p != pid:
                continue
            acc = out.setdefault(self.names[nid], [0, 0.0, 0.0, 0, 0])
            for i in range(5):
                acc[i] += st[i]
        return out

    def dump(self, path):
        """Write the recorded spans as a compressed npz archive."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))


def _wrap(tracer, name, fn, ops=0):
    nid = tracer.intern(name)
    push, pop = tracer.push, tracer.pop

    def wrapper(*args, **kwargs):
        push(nid, ops)
        try:
            return fn(*args, **kwargs)
        finally:
            pop()

    return wrapper


def _rebind(orig, repl):
    """Point every module-level name in the package that is bound to `orig`
    at `repl` (modules that imported the name directly included)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dualtoken" or modname.startswith("dualtoken.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, repl)


def install(tracer):
    """Wrap the package's public entry points so that each call is a span.

    Installing is one-way: a traced run stays traced until the process ends.
    """
    import importlib
    mods = {m: importlib.import_module(f"dualtoken.{m}") for m in
            ("tensor", "kernels", "layers", "block", "model", "analysis",
             "data", "train", "gradcheck", "checks")}
    T, K = mods["tensor"], mods["kernels"]

    # tensor primitives; matmul attributes its forward MACs to the open spans
    for op in TENSOR_OPS:
        orig = getattr(T, op)
        if op == "matmul":
            orig = _mac_counting_matmul(tracer, orig)
        _rebind(getattr(T, op), _wrap(tracer, f"tensor.{op}", orig, ops=1))

    # convolution kernels, split by kind; MACs follow from the shapes
    _rebind(K.conv_forward, _kernel_wrapper(tracer, K.conv_forward, "forward"))
    _rebind(K.conv_backward, _kernel_wrapper(tracer, K.conv_backward, "backward"))

    # tape closures: each closure replayed by backward() is a span named after
    # the op that recorded it
    tape_record = T.GradTape.record

    def record(self, out, fn):
        tracer.tape_records += 1
        op = tracer.top_name().rsplit(".", 1)[-1]
        return tape_record(self, out, _wrap(tracer, CLOSURE_PREFIX + op, fn, ops=1))

    T.GradTape.record = record

    for name, (mod, attr) in FUNCTIONS.items():
        orig = getattr(mods[mod], attr)
        wrapped = _wrap(tracer, name, orig)
        if name == "model.checkpoint_write":
            wrapped = _counting_bytes(tracer, wrapped)
        elif name.startswith("checks."):
            wrapped = _counting_probes(tracer, wrapped)
        _rebind(orig, wrapped)

    for name, (mod, cls, attr) in METHODS.items():
        klass = getattr(mods[mod], cls)
        setattr(klass, attr, _wrap(tracer, name, getattr(klass, attr)))

    _install_model_forward(tracer, mods["model"].Model)


def _mac_counting_matmul(tracer, fn):
    def matmul(a, b):
        out = fn(a, b)
        m, k = a.shape
        tracer.add_macs(m * k * b.shape[1])
        return out
    return matmul


def _kernel_wrapper(tracer, fn, direction):
    ids = {kind: tracer.intern(f"kernels.{kind}.{direction}")
           for kind in ("dense", "depthwise")}

    def kernel(xp, w, *rest):
        stride, groups = rest[-2], rest[-1]
        cin = xp.shape[2]
        kh, kw, cig, cout = w.shape
        if groups == 1:
            kind = "dense"
        elif groups == cin and cout == cin:
            kind = "depthwise"
        else:  # other grouped convolutions: nothing in the package makes one
            return fn(xp, w, *rest)
        ho = (xp.shape[0] - kh) // stride + 1
        wo = (xp.shape[1] - kw) // stride + 1
        macs = ho * wo * kh * kw * cig * cout
        nid = ids[kind]
        tracer.push(nid)
        try:
            if direction == "forward":
                tracer.add_macs(macs)
            # backward computes both the input and the weight gradient
            tracer.kernel_macs[nid] = tracer.kernel_macs.get(nid, 0) + (
                macs if direction == "forward" else 2 * macs)
            return fn(xp, w, *rest)
        finally:
            tracer.pop()

    return kernel


def _counting_bytes(tracer, fn):
    import os

    def save(model, path):
        out = fn(model, path)
        tracer.bytes_written += os.path.getsize(path)
        return out
    return save


def _counting_probes(tracer, fn):
    def suite(*args, **kwargs):
        results = fn(*args, **kwargs)
        tracer.probes += sum(report.checked for _, report in results)
        return results
    return suite


class _HeadEntry:
    """Stands in for the head norm: opens the `model.head` span."""

    def __init__(self, inner, tracer):
        self._inner, self._tracer = inner, tracer
        self._nid = tracer.intern("model.head")

    def __call__(self, x):
        self._tracer.push(self._nid)
        return self._inner(x)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _HeadExit:
    """Stands in for the classifier: closes the `model.head` span."""

    def __init__(self, inner, tracer):
        self._inner, self._tracer = inner, tracer

    def __call__(self, x):
        out = self._inner(x)
        if self._tracer.top_name() == "model.head":
            self._tracer.pop()
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _install_model_forward(tracer, Model):
    """`Model.forward` becomes a span; the head, which is inline code in
    forward, is the span from the head norm's entry to the classifier's exit."""
    forward = Model.forward
    nid = tracer.intern("model.forward")

    def traced_forward(self, *args, **kwargs):
        if not isinstance(self.head_norm, _HeadEntry):
            self.head_norm = _HeadEntry(self.head_norm, tracer)
            self.head_lin2 = _HeadExit(self.head_lin2, tracer)
        depth = len(tracer.stack)
        tracer.push(nid)
        try:
            return forward(self, *args, **kwargs)
        finally:
            tracer.unwind(depth)  # also closes a head span an exception left open

    Model.forward = traced_forward
