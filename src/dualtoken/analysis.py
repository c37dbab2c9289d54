"""Static cost accounting (parameters and multiply-accumulates) and
attention-map extraction/export.

The MAC convention is 1 multiply-accumulate = 1 FLOP; norms, activations,
softmax, pooling, and residual adds are excluded. The analytic count mirrors
the executed forward pass exactly (checked against the instrumented counter
in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import ConvEncoder, ds_conv_count, ds_plan
from .model import Model, ModelConfig
from .tensor import Tensor, count_macs

# Published targets: preset name -> (params, macs at 224^2)
TABLE_TARGETS = {
    "dualtoken_t_mix": (5.8e6, 0.5e9),
    "dualtoken_s_mix": (11.4e6, 1.0e9),
    "dualtoken_s": (11.9e6, 1.1e9),
}
PARAM_TOL = 0.10
FLOP_TOL = 0.15
TOP_CELLS = 8  # cells `top_cells` returns


@dataclass
class CostEntry:
    path: str
    params: int = 0
    macs: int = 0


@dataclass
class CostReport:
    entries: list

    @property
    def total_params(self):
        return sum(e.params for e in self.entries)

    @property
    def total_macs(self):
        return sum(e.macs for e in self.entries)

    def lines(self):
        width = max((len(e.path) for e in self.entries), default=10) + 2
        out = []
        for e in self.entries:
            out.append(f"{e.path:<{width}} params={e.params:>10d} macs={e.macs:>12d}")
        out.append(f"{'TOTAL':<{width}} params={self.total_params:>10d} "
                   f"macs={self.total_macs:>12d}")
        return out


def count_params(model: Model) -> CostReport:
    """Exact per-layer parameter counts beside the MACs of `count_flops` at
    the model's input resolution. The rows are the layer paths that
    `count_flops` names, in its order, each with its MACs and the sum of the
    parameters whose names lie under it; a parameter under none of them (the
    initial global tokens) is a row of its own, after them, with no MACs."""
    rows = {e.path: e for e in count_flops(model.cfg).entries}
    for name, p in model.named_params():
        path = name
        while path not in rows and "." in path:
            path = path.rsplit(".", 1)[0]
        if path not in rows:
            path = name
            rows[path] = CostEntry(path)
        rows[path].params += p.size
    return CostReport(list(rows.values()))


def _attn_macs(nq, nk, c):
    # Q/out on nq tokens, K/V on nk tokens, logits + weighted sum across heads
    return 2 * nq * c * c + 2 * nk * c * c + 2 * nq * nk * c


def count_flops(cfg: ModelConfig, resolution=None) -> CostReport:
    """Analytic MAC counts per layer at the given input resolution."""
    if resolution is None:
        resolution = cfg.input_resolution
    if resolution % 32 != 0:
        raise ValueError(f"resolution {resolution} not divisible by 32")
    entries = []
    g = cfg.token_grid
    t = g * g
    n_g = cfg.global_token_count
    c1 = cfg.stages[0].channels
    mid = max(c1 // 2, 1)
    s = resolution
    stem = ((s // 2) ** 2 * 9 * 3 * mid
            + (s // 4) ** 2 * 9 * mid * mid
            + (s // 8) ** 2 * 9 * mid * c1)
    entries.append(CostEntry("stem", macs=stem))
    for si in range(3):
        sc = cfg.stages[si]
        c = sc.channels
        r = resolution // (8 << si)
        if si > 0:
            prev_c = cfg.stages[si - 1].channels
            prev_r = resolution // (8 << (si - 1))
            entries.append(CostEntry(
                f"merge{si}", macs=(prev_r // 2) ** 2 * 4 * prev_c * c))
            entries.append(CostEntry(
                f"global_tokens.proj{si - 1}", macs=n_g * prev_c * c))
        n = r * r
        skip = (si == 2)
        for bi in range(sc.blocks):
            prefix = f"stage{si + 1}.block{bi}"
            if not skip:
                if cfg.local_kind == "conv_encoder":
                    k = sc.dw_kernel
                    local = n * k * k * c + 2 * n * c * (ConvEncoder.EXPANSION * c)
                    entries.append(CostEntry(f"{prefix}.conv_encoder", macs=local))
                else:
                    win = cfg.window
                    nw = (r // win) ** 2
                    wn = win * win
                    entries.append(CostEntry(
                        f"{prefix}.window_local",
                        macs=nw * (4 * wn * c * c + 2 * wn * wn * c)))
                if cfg.ds_kind == "step_wise":
                    built = ds_conv_count(cfg.stage_resolution(si), g)
                    sizes, _ = ds_plan(r, g, built)
                    ds_macs = sum(sz * sz * 9 * c * c for sz in sizes)
                    entries.append(CostEntry(f"{prefix}.downsample", macs=ds_macs))
            entries.append(CostEntry(
                f"{prefix}.aggregate", macs=_attn_macs(t, t, c)))
            if cfg.global_mode == "position_aware_sum":
                if cfg.mlp_kind == "normal":
                    fuse = 2 * t * c * c
                else:
                    fuse = t * c * c + c * t * t
            else:
                fuse = _attn_macs(n_g, n_g + t, c)
            entries.append(CostEntry(f"{prefix}.fuse", macs=fuse))
            entries.append(CostEntry(
                f"{prefix}.broadcast", macs=_attn_macs(n, n_g, c)))
            entries.append(CostEntry(
                f"{prefix}.ffn", macs=2 * n * c * (cfg.ffn_ratio * c)))
            if cfg.bidim:
                entries.append(CostEntry(f"{prefix}.bidim", macs=n * c + c * c))
    c3 = cfg.stages[2].channels
    entries.append(CostEntry(
        "head", macs=c3 * cfg.head_hidden + cfg.head_hidden * cfg.num_classes))
    return CostReport(entries)


def instrumented_macs(model: Model, resolution=None, seed=0):
    """Run one forward pass under the MAC counter and return the total."""
    if resolution is None:
        resolution = model.cfg.input_resolution
    rng = np.random.default_rng(seed)
    image = Tensor(rng.standard_normal((resolution, resolution, 3)).astype(np.float32))
    with count_macs() as counter:
        model.forward(image, want_activations=False)
    return counter.total


# ---------------------------------------------------------------------------
# attention maps
# ---------------------------------------------------------------------------

@dataclass
class AttentionMapExport:
    maps: list                    # list of (grid x grid) or (n,) arrays
    queries: list                 # query label per map
    source_block: str = ""

    def mean_map(self):
        return np.mean(self.maps, axis=0)


def extract_attention_map(model: Model, image, query="mean"):
    """Head-averaged broadcast-attention rows of the last block for one image.

    `query` is an image-token index, "mean" (average over all queries), or
    "all".
    """
    image = image if isinstance(image, Tensor) else Tensor(image)
    _, attention = model.forward(image)
    source_block = list(attention)[-1]
    attn = attention[source_block]  # N x n_g
    n = attn.shape[0]
    side = model.cfg.token_grid if model.cfg.global_mode != "normal_msa" else None

    def shaped(row):
        return row.reshape(side, side) if side is not None else row

    if query == "mean":
        maps = [shaped(attn.mean(axis=0))]
        queries = ["mean"]
    elif query == "all":
        maps = [shaped(attn[i]) for i in range(n)]
        queries = list(range(n))
    else:
        q = int(query)
        if not 0 <= q < n:
            raise ValueError(f"query index {q} out of range [0, {n})")
        maps = [shaped(attn[q])]
        queries = [q]
    return AttentionMapExport(maps=maps, queries=queries, source_block=source_block)


def top_cells(map2d):
    """Indices of the TOP_CELLS largest cells, strongest first (row, col) pairs."""
    flat = np.asarray(map2d).reshape(-1)
    order = np.argsort(-flat, kind="stable")[:TOP_CELLS]
    w = np.asarray(map2d).shape[-1]
    return [(int(i) // w, int(i) % w) for i in order]


def export_heatmap(map2d, path, fmt="csv"):
    """Write one map as CSV (decimal values) or P2 ASCII PGM (min-max scaled
    to 0..255; a constant map becomes all zeros)."""
    m = np.asarray(map2d, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("refusing to export a non-finite map")
    if m.ndim == 1:
        m = m[None, :]
    if fmt == "csv":
        with open(path, "w") as fh:
            for row in m:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
    elif fmt == "pgm":
        lo, hi = m.min(), m.max()
        if hi > lo:
            px = np.rint((m - lo) / (hi - lo) * 255).astype(int)
        else:
            px = np.zeros_like(m, dtype=int)
        with open(path, "w") as fh:
            fh.write("P2\n")
            fh.write(f"{m.shape[1]} {m.shape[0]}\n255\n")
            for row in px:
                fh.write(" ".join(str(v) for v in row) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_heatmap_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)
