"""Command-line interface behavior: exit codes, output channels, and
determinism."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dualtoken import cli
from dualtoken.analysis import count_flops
from dualtoken.model import preset

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dualtoken.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def assert_one_fail_line(code, out, err):
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL ")
    assert "Traceback" not in err


def test_count_toy_reports_totals(capsys):
    code, out, err = run(["count", "--preset", "toy"], capsys)
    assert code == 0
    assert "params_total" in out
    assert "macs_total" in out
    assert "config:" in err


@pytest.mark.parametrize("name", ["toy", "dualtoken_s"])
def test_count_table_agrees_with_the_totals(name, capsys):
    code, out, _ = run(["count", "--preset", name], capsys)
    assert code == 0
    rows = {}
    for line in out.splitlines():
        row = re.fullmatch(r"(\S+) +params= *(\d+) macs= *(\d+)", line)
        if row:
            rows[row[1]] = (int(row[2]), int(row[3]))
    total = rows.pop("TOTAL")
    # one row per count_flops layer, with its MACs, plus the initial global
    # tokens, which take parameters and no MACs
    want = {e.path: e.macs for e in count_flops(preset(name)).entries}
    want["global_tokens.init"] = 0
    assert {path: macs for path, (_, macs) in rows.items()} == want
    assert sum(params for params, _ in rows.values()) == total[0]
    totals = dict(line.split()[:2] for line in out.splitlines()
                  if line.startswith(("params_total ", "macs_total ")))
    assert total == (int(totals["params_total"]), int(totals["macs_total"]))


def test_count_published_preset_passes(capsys):
    code, out, _ = run(["count", "--preset", "dualtoken_t_mix"], capsys)
    assert code == 0
    assert "PASS params_dualtoken_t_mix" in out
    assert "PASS flops_dualtoken_t_mix" in out
    assert "FAIL" not in out


def test_forward_is_deterministic(capsys):
    code1, out1, _ = run(["forward", "--preset", "toy", "--seed", "7"], capsys)
    code2, out2, _ = run(["forward", "--preset", "toy", "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "logits_head" in out1


def test_unknown_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["forward", "--bogus"])
    assert exc.value.code != 0


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])


def test_dump_config_emits_valid_json(capsys):
    code, out, _ = run(["dump-config", "--preset", "toy", "--mlp", "mix",
                        "--grid", "3"], capsys)
    assert code == 0
    cfg = json.loads(out)
    assert cfg["mlp_kind"] == "mix"
    assert cfg["token_grid"] == 3


def test_gen_data_writes_a_cache(tmp_path, capsys):
    out_path = tmp_path / "data.dtvt"
    code, out, _ = run(["gen-data", "--n", "16", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.exists()
    assert "dataset n=16" in out


def test_attnmap_exports_files(tmp_path, capsys):
    code, out, _ = run(["attnmap", "--preset", "toy", "--query", "all",
                        "--out", str(tmp_path), "--format", "csv"], capsys)
    assert code == 0
    # the toy last stage has a single image token, so one per-query map
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["map_0.csv"]
    assert "top8=" in out


def test_attnmap_mean_map_round_trips(tmp_path, capsys):
    from dualtoken.analysis import read_heatmap_csv
    code, _, _ = run(["attnmap", "--preset", "toy", "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    m = read_heatmap_csv(tmp_path / "map_mean.csv")
    assert m.shape == (2, 2)
    assert abs(m.sum() - 1.0) <= 1e-6


def test_train_smoke(capsys):
    code, out, _ = run(["train", "--preset", "toy_grad", "--steps", "3"],
                       capsys)
    assert code == 0
    assert "loss_first10" in out
    assert "train_accuracy" in out


def test_failure_is_one_fail_line_and_exit_one(capsys):
    code, out, _ = run(["forward", "--preset", "toy",
                        "--config", "/does/not/exist.json"], capsys)
    assert code == 1
    assert out.startswith("FAIL ")


def test_gradcheck_primitives_scope(capsys):
    code, out, _ = run(["gradcheck", "--scope", "primitives"], capsys)
    assert code == 0
    assert "PASS gradcheck_" in out
    assert "FAIL" not in out


def test_forward_with_a_2d_image_is_one_fail_line(tmp_path):
    path = tmp_path / "flat.npy"
    np.save(path, np.zeros((32, 32), np.float32))
    assert_one_fail_line(*run_process(["forward", "--preset", "toy",
                                       "--image", str(path)]))


def test_attnmap_query_out_of_range_is_one_fail_line(tmp_path):
    assert_one_fail_line(*run_process(["attnmap", "--preset", "toy",
                                       "--query", "99999",
                                       "--out", str(tmp_path)]))


def test_config_with_alpha_5_is_one_fail_line(tmp_path):
    config = tmp_path / "alpha.json"
    config.write_text(json.dumps(dict(preset("toy").to_dict(), alpha=5)))
    assert_one_fail_line(*run_process(["dump-config", "--config", str(config)]))


def test_resolution_override_is_validated():
    assert_one_fail_line(*run_process(["dump-config", "--preset", "toy",
                                       "--resolution", "48"]))


def test_config_with_non_list_stages_is_one_fail_line(tmp_path):
    config = tmp_path / "stages.json"
    config.write_text(json.dumps({"stages": 5}))
    assert_one_fail_line(*run_process(["dump-config", "--config", str(config)]))


def test_config_with_a_mistyped_alpha_is_one_fail_line(tmp_path):
    config = tmp_path / "alpha.json"
    config.write_text(json.dumps(dict(preset("toy").to_dict(), alpha="x")))
    assert_one_fail_line(*run_process(["dump-config", "--config", str(config)]))


def test_train_with_a_nan_learning_rate_is_one_fail_line():
    code, out, err = run_process(["train", "--preset", "toy", "--steps", "3",
                                  "--lr", "nan"])
    assert_one_fail_line(code, out, err)
    # refused before the first step, not by a later non-finite forward
    assert out.startswith("FAIL ValueError") and "lr" in out


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_train_with_no_steps_is_one_fail_line(steps):
    code, out, err = run_process(["train", "--preset", "toy_grad", "--steps", steps])
    assert_one_fail_line(code, out, err)
    assert out.startswith("FAIL ValueError") and "steps" in out
    assert "Warning" not in err


def test_forward_with_a_directory_as_image_is_one_fail_line(tmp_path):
    code, out, err = run_process(["forward", "--preset", "toy",
                                  "--image", str(tmp_path)])
    assert_one_fail_line(code, out, err)
    assert out.startswith("FAIL IsADirectoryError")


@pytest.mark.parametrize("name, fail", [("x.npz", "FAIL ValueError"),
                                        ("empty.npy", "FAIL EOFError")])
def test_forward_with_an_image_that_is_not_one_array_is_one_fail_line(name, fail, tmp_path):
    path = tmp_path / name
    if name.endswith(".npz"):
        np.savez(path, image=np.zeros((32, 32, 3), np.float32))
    else:
        path.write_bytes(b"")
    code, out, err = run_process(["forward", "--preset", "toy", "--image", str(path)])
    assert_one_fail_line(code, out, err)
    assert out.startswith(fail)


@pytest.mark.parametrize("command", ["forward", "gen-data"])
def test_a_zero_resolution_is_one_fail_line(command, tmp_path):
    path = tmp_path / "data.dtvt"
    argv = [command, "--resolution", "0"]
    if command == "gen-data":
        argv += ["--out", str(path)]
    code, out, err = run_process(argv)
    assert_one_fail_line(code, out, err)
    assert out.startswith("FAIL ValueError") and "must_be_a_positive_int" in out
    assert not path.exists()


def test_attnmap_out_at_an_existing_file_is_one_fail_line(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run_process(["attnmap", "--preset", "toy", "--out", str(path)])
    assert_one_fail_line(code, out, err)
    assert out.startswith("FAIL FileExistsError")


def test_gen_data_with_no_images_is_one_fail_line(tmp_path):
    path = tmp_path / "empty.dtvt"
    code, out, err = run_process(["gen-data", "--n", "0", "--out", str(path)])
    assert_one_fail_line(code, out, err)
    assert out.startswith("FAIL ValueError") and "n_must_be" in out
    assert not path.exists()


def test_a_failed_allocation_is_one_fail_line(monkeypatch, capsys):
    # the image of this resolution would take 24 TiB; no test asks for it
    def refuse(args, cfg):
        raise MemoryError("Unable to allocate 24.0 TiB")
    monkeypatch.setattr(cli, "_load_image", refuse)
    code, out, err = run(["forward", "--preset", "toy", "--resolution", "1048576"], capsys)
    assert_one_fail_line(code, out, err)
    assert out.startswith("FAIL MemoryError")


@pytest.mark.parametrize("argv", [["train", "--steps", "abc"], ["frobnicate"]])
def test_usage_error_is_one_fail_line(argv, capsys):
    code, out, err = run_process(argv)
    assert_one_fail_line(code, out, err)
    assert out.startswith("FAIL UsageError")
    assert "usage:" in err
    # in process, main returns the exit code instead of raising SystemExit
    assert run(argv, capsys)[:2] == (1, out)
