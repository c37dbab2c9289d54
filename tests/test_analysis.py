"""Cost accounting and attention-map extraction/export."""

import numpy as np
import pytest

from dualtoken import analysis
from dualtoken.analysis import (TABLE_TARGETS, count_flops, count_params,
                                export_heatmap, extract_attention_map,
                                instrumented_macs, read_heatmap_csv, top_cells)
from dualtoken.layers import Linear
from dualtoken.model import build_model, preset
from dualtoken.tensor import Tensor, count_macs
from dualtoken.tensor import matmul


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
    macs = count_flops(cfg, 224).total_macs
    assert abs(params - p_target) / p_target <= analysis.PARAM_TOL
    assert abs(macs - f_target) / f_target <= analysis.FLOP_TOL


@pytest.mark.parametrize("name", ["toy", "toy_grad"])
def test_analytic_macs_equal_instrumented_forward_exactly(name):
    cfg = preset(name)
    model = build_model(cfg, seed=3)
    analytic = count_flops(cfg).total_macs
    executed = instrumented_macs(model)
    assert analytic == executed


def test_analytic_macs_track_resolution():
    cfg = preset("toy")
    at32 = count_flops(cfg, 32).total_macs
    at64 = count_flops(cfg, 64).total_macs
    assert at64 > at32
    model = build_model(cfg, seed=4)
    assert instrumented_macs(model, resolution=64) == at64


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
