"""Cost accounting and attention-map extraction/export."""

from dataclasses import replace

import numpy as np
import pytest

from dualtoken import analysis
from dualtoken.analysis import (TABLE_TARGETS, count_flops, count_params,
                                export_heatmap, extract_attention_map,
                                instrumented_macs, read_heatmap_csv, top_cells)
from dualtoken.block import DualTokenBlock
from dualtoken.layers import Linear
from dualtoken.model import PRESET_NAMES, build_model, preset
from dualtoken.tensor import Tensor, count_macs
from dualtoken.tensor import matmul

from test_acceptance import criterion_7_variants


def test_linear_parameter_arithmetic():
    lin = Linear(np.random.default_rng(0), 4, 3)
    assert sum(p.size for _, p in lin.named_params()) == 4 * 3 + 3


def test_count_params_equals_flat_enumeration():
    model = build_model("toy", seed=1)
    report = count_params(model)
    brute = sum(p.data.size for _, p in model.named_params())
    assert report.total_params == brute


def test_count_params_is_seed_invariant():
    a = count_params(build_model("toy_grad", seed=1)).total_params
    b = count_params(build_model("toy_grad", seed=2)).total_params
    assert a == b


def test_single_projection_mac_formula():
    with count_macs() as counter:
        matmul(Tensor(np.zeros((49, 64))), Tensor(np.zeros((64, 64))))
    assert counter.total == 49 * 64 * 64 == 200704


@pytest.mark.parametrize("name", sorted(TABLE_TARGETS))
def test_published_cost_targets(name):
    p_target, f_target = TABLE_TARGETS[name]
    cfg = preset(name)
    params = count_params(build_model(cfg, seed=0)).total_params
    macs = count_flops(cfg).total_macs
    assert abs(params - p_target) / p_target <= analysis.PARAM_TOL
    assert abs(macs - f_target) / f_target <= analysis.FLOP_TOL


@pytest.mark.parametrize("name", ["toy", "toy_grad"])
def test_analytic_macs_equal_instrumented_forward_exactly(name):
    cfg = preset(name)
    model = build_model(cfg, seed=3)
    analytic = count_flops(cfg).total_macs
    executed = instrumented_macs(model)
    assert analytic == executed


# the block step that computes each per-block count_flops path
_BLOCK_PATHS = [("downsample", "downsample"), ("global_aggregate", "aggregate"),
                ("fuse_global_tokens", "fuse"), ("global_broadcast", "broadcast"),
                ("ffn", "ffn"), ("bidim", "bidim")]


def _executed_macs_per_path(model):
    """The MACs of one forward of `model`, by the count_flops path whose
    callable ran them; each callable is wrapped on its instance. Paths that
    ran none are left out."""
    macs = {}

    def wrap(owner, attr, path):
        call = getattr(owner, attr)
        if call is None:  # a block without bi-dimensional attention
            return

        def counted(*args, **kwargs):
            before = counter.total
            out = call(*args, **kwargs)
            macs[path] = macs.get(path, 0) + counter.total - before
            return out
        setattr(owner, attr, counted)

    local = {"conv_encoder": "conv_encoder", "window_msa": "window_local"}[model.cfg.local_kind]
    wrap(model, "stem", "stem")
    for i, transition in enumerate(model.transitions):
        wrap(transition, "merge", f"merge{i + 1}")
        wrap(transition, "proj", f"global_tokens.proj{i}")
    for path, step in model.trunk():
        if isinstance(step, DualTokenBlock):
            for attr, name in [("local_branch", local)] + _BLOCK_PATHS:
                wrap(step, attr, f"{path}.{name}")
    wrap(model, "head", "head")
    side = model.cfg.input_resolution
    image = np.random.default_rng(0).standard_normal((side, side, 3)).astype(np.float32)
    with count_macs() as counter:
        model.forward(Tensor(image), want_activations=False)
    assert sum(macs.values()) == counter.total  # no MAC ran outside a path
    return {path: n for path, n in macs.items() if n}


@pytest.mark.parametrize("cfg", [preset(name) for name in PRESET_NAMES] + criterion_7_variants(),
                         ids=lambda cfg: cfg.name)
def test_every_count_flops_path_equals_its_executed_macs(cfg):
    want = {e.path: e.macs for e in count_flops(cfg).entries if e.macs}
    assert _executed_macs_per_path(build_model(cfg, seed=0)) == want


@pytest.mark.parametrize("cfg", [preset("toy")] + criterion_7_variants(), ids=lambda cfg: cfg.name)
def test_a_batch_of_three_counts_three_times_the_analytic_macs(cfg):
    side = cfg.input_resolution
    images = np.random.default_rng(0).standard_normal((3, side, side, 3)).astype(np.float32)
    with count_macs() as counter:
        logits, _ = build_model(cfg, seed=0).forward(Tensor(images), want_activations=False)
    assert logits.shape == (3, cfg.num_classes)
    assert counter.total == 3 * count_flops(cfg).total_macs


def test_analytic_macs_track_resolution():
    at32 = preset("toy")
    at64 = replace(at32, input_resolution=64)
    assert count_flops(at64).total_macs > count_flops(at32).total_macs
    for cfg in (at32, at64):
        model = build_model(cfg, seed=4)
        assert instrumented_macs(model) == count_flops(cfg).total_macs


def test_cost_report_lines_are_printable():
    report = count_flops(preset("toy"))
    lines = report.lines()
    assert lines[-1].startswith("TOTAL")
    assert any("stage1.block0" in ln for ln in lines)


def test_attention_maps_sum_to_one_and_mean_is_the_average():
    model = build_model("toy", seed=5)
    rng = np.random.default_rng(6)
    img = rng.standard_normal((32, 32, 3)).astype(np.float32)
    full = extract_attention_map(model, img, query="all")
    for m in full.maps:
        assert m.shape == (2, 2)
        assert abs(m.sum() - 1.0) <= 1e-6
    mean = extract_attention_map(model, img, query="mean")
    assert np.abs(mean.maps[0] - np.mean(full.maps, axis=0)).max() <= 1e-7
    single = extract_attention_map(model, img, query=0)
    assert np.abs(single.maps[0] - full.maps[0]).max() == 0.0
    assert mean.source_block == "stage3.block0"


def test_attention_map_query_out_of_range():
    model = build_model("toy_grad", seed=7)
    img = np.zeros((32, 32, 3), np.float32)
    with pytest.raises(ValueError):
        extract_attention_map(model, img, query=100)


def test_attention_map_refuses_a_stack_of_images():
    model = build_model("toy_grad", seed=7)
    with pytest.raises(ValueError, match="one image"):
        extract_attention_map(model, np.zeros((2, 32, 32, 3), np.float32))


def test_top_cells_matches_a_sort_oracle():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((7, 7))
    got = top_cells(m)
    order = sorted(((m[r, c], (r, c)) for r in range(7) for c in range(7)),
                   key=lambda t: -t[0])
    want = [rc for _, rc in order[:8]]
    assert got == want
    values = [m[r, c] for r, c in got]
    assert values == sorted(values, reverse=True)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    m = rng.random((7, 7))
    m /= m.sum()
    path = tmp_path / "map.csv"
    export_heatmap(m, path, fmt="csv")
    back = read_heatmap_csv(path)
    assert np.abs(back - m).max() <= 1e-9


def test_pgm_min_max_scaling(tmp_path):
    path = tmp_path / "map.pgm"
    export_heatmap(np.array([[0.0, 1.0], [1.0, 0.0]]), path, fmt="pgm")
    text = path.read_text().split()
    assert text[0] == "P2"
    assert text[1:4] == ["2", "2", "255"]
    assert text[4:] == ["0", "255", "255", "0"]


def test_pgm_constant_map_is_all_zeros(tmp_path):
    path = tmp_path / "flat.pgm"
    export_heatmap(np.full((2, 2), 0.25), path, fmt="pgm")
    pixels = path.read_text().split()[4:]
    assert pixels == ["0", "0", "0", "0"]


def test_export_rejects_non_finite_and_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_heatmap(np.array([[np.nan]]), tmp_path / "x.csv")
    with pytest.raises(ValueError):
        export_heatmap(np.zeros((2, 2)), tmp_path / "x.bmp", fmt="bmp")
