"""Command-line interface: build/inspect/verify workflows.

Results go to stdout (stable, machine-parseable PASS/FAIL lines where
applicable); diagnostics go to stderr. Exit code 0 iff every requested check
passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, checks, data as data_mod, train as train_mod
from .gradcheck import GRADCHECK_TOL
from .model import ModelConfig, PRESET_NAMES, build_model, preset
from .tensor import Tensor


def _err(*args):
    print(*args, file=sys.stderr)


def _load_config(args):
    if args.config:
        with open(args.config) as fh:
            cfg = ModelConfig.from_json(fh.read())
    else:
        cfg = preset(args.preset)
    overrides = {}
    if args.local:
        overrides["local_kind"] = {"conv": "conv_encoder", "window": "window_msa"}[args.local]
    if args.mlp:
        overrides["mlp_kind"] = args.mlp
    if args.ds:
        overrides["ds_kind"] = {"stepwise": "step_wise", "onestep": "one_step"}[args.ds]
    if args.tokens:
        overrides["global_mode"] = {"normal": "normal_msa",
                                    "posaware": "position_aware_sum"}[args.tokens]
    if args.grid is not None:
        overrides["token_grid"] = args.grid
    if args.resolution is not None:
        overrides["input_resolution"] = args.resolution
    cfg = dataclasses.replace(cfg, **overrides)
    _err(f"config: {cfg.to_dict()}")
    return cfg


def _fail(check, expected, got, tol):
    print(f"FAIL {check} expected={expected} got={got} tol={tol}")


def _check(check, ok, expected, got, tol):
    """Print the PASS or FAIL line of one check; returns `ok`."""
    if ok:
        print(f"PASS {check} expected={expected} got={got} tol={tol}")
    else:
        _fail(check, expected, got, tol)
    return ok


def _load_image(args, cfg):
    """The --image array, or a random image drawn from --seed at the
    config's resolution, as float32. The array must be one S x S x 3 image,
    S the config's resolution, of integers or real floats: a stack of
    images, or a bool, complex, string, date or structured array, is
    refused."""
    s = cfg.input_resolution
    if args.image:
        image = np.load(args.image)
        if not isinstance(image, np.ndarray):
            raise ValueError(f"--image {args.image} holds a {type(image).__name__}, "
                             "not one array")
        if not (np.issubdtype(image.dtype, np.integer)
                or np.issubdtype(image.dtype, np.floating)):
            raise ValueError(f"--image {args.image} holds {image.dtype} values, "
                             "not real numbers")
        if image.shape != (s, s, 3):
            raise ValueError(f"--image {args.image} holds an array of shape "
                             f"{image.shape}, not one {s} x {s} x 3 image")
        return image.astype(np.float32)
    rng = np.random.default_rng(args.seed)
    return rng.standard_normal((s, s, 3)).astype(np.float32)


def cmd_count(args):
    cfg = _load_config(args)
    # only the parameters' sizes are read, so no seed is asked for
    params = analysis.count_params(build_model(cfg))
    for line in params.lines():
        print(line)
    print(f"params_total {params.total_params}")
    print(f"macs_total {params.total_macs} resolution {cfg.input_resolution}")
    ok = True
    # the paper's table describes the preset itself, not a modified copy
    if cfg.name in analysis.TABLE_TARGETS and cfg == preset(cfg.name):
        targets = zip(("params", "flops"), analysis.TABLE_TARGETS[cfg.name],
                      (params.total_params, params.total_macs),
                      (analysis.PARAM_TOL, analysis.FLOP_TOL))
        for kind, target, got, tol in targets:
            ok &= _check(f"{kind}_{cfg.name}", abs(got - target) / target <= tol,
                         f"{target:.3g}", got, tol)
    return 0 if ok else 1


def cmd_forward(args):
    cfg = _load_config(args)
    _err(f"seed: {args.seed}")
    model = build_model(cfg, seed=args.seed)
    logits, _ = model.forward(Tensor(_load_image(args, cfg)), want_activations=False)
    z = logits.data
    if not np.isfinite(z).all():
        _fail("forward_finite", "finite", "non-finite", 0)
        return 1
    print(f"logits n={z.size} mean={z.mean():.6f} std={z.std():.6f} "
          f"argmax={int(np.argmax(z))}")
    print("logits_head " + " ".join(f"{v:.6f}" for v in z[:8]))
    return 0


def cmd_gradcheck(args):
    suites = {"primitives": checks.gradcheck_primitives,
              "blocks": checks.gradcheck_blocks,
              "model": checks.gradcheck_model}
    ok = True
    for name, report in suites[args.scope]():
        ok &= _check(f"gradcheck_{name}", report.passed, f"<={GRADCHECK_TOL}",
                     f"{report.max_rel_err:.3g}", GRADCHECK_TOL)
    return 0 if ok else 1


def cmd_train(args):
    cfg = _load_config(args)
    _err(f"seed: {args.seed}")
    ds = data_mod.gen_synthetic(seed=args.seed, n=800,
                                classes=cfg.num_classes,
                                side=cfg.input_resolution)
    state = train_mod.train_toy(cfg, ds, steps=args.steps, lr=args.lr,
                                seed=args.seed, log=_err)
    first = np.mean(state.loss_history[:10])
    last = np.mean(state.loss_history[-10:])
    print(f"loss_first10 {first:.6f}")
    print(f"loss_last10 {last:.6f}")
    subset = data_mod.SyntheticDataset(ds.images[:200], ds.labels[:200],
                                       ds.classes, ds.seed)
    acc = train_mod.evaluate(state.model, subset)
    print(f"train_accuracy {acc:.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "train_state.dtvt")
        train_mod.save_state(state, path)
        _err(f"saved state to {path}")
    return 0


def cmd_attnmap(args):
    cfg = _load_config(args)
    _err(f"seed: {args.seed}")
    model = build_model(cfg, seed=args.seed)
    export = analysis.extract_attention_map(model, _load_image(args, cfg),
                                            query=args.query)
    os.makedirs(args.out, exist_ok=True)
    ok = True
    for q, m in zip(export.queries, export.maps):
        total = float(np.sum(m))
        if abs(total - 1.0) > 1e-6:
            _fail(f"attnmap_sum_q{q}", 1.0, f"{total:.8f}", 1e-6)
            ok = False
        path = os.path.join(args.out, f"map_{q}.{args.format}")
        analysis.export_heatmap(m, path, fmt=args.format)
        cells = analysis.top_cells(m)
        print(f"map query={q} block={export.source_block} "
              f"top{analysis.TOP_CELLS}={';'.join(f'{r},{c}' for r, c in cells)} "
              f"file={path}")
    return 0 if ok else 1


def cmd_gen_data(args):
    _err(f"seed: {args.seed}")
    ds = data_mod.gen_synthetic(seed=args.seed, n=args.n, classes=8,
                                side=args.resolution)
    data_mod.save_dataset(ds, args.out)
    print(f"dataset n={len(ds)} classes={ds.classes} "
          f"side={ds.images.shape[1]} file={args.out}")
    return 0


def cmd_dump_config(args):
    cfg = _load_config(args)
    print(cfg.to_json())
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error follows the failure contract: the usage goes to stderr,
    then one FAIL line, and exit 1. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _fail("UsageError", "success", message.replace(" ", "_"), 0)
        self.exit(1)


def build_parser():
    p = _Parser(prog="dualtoken", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--preset", default="toy", choices=PRESET_NAMES)
        sp.add_argument("--config", default=None,
                        help="JSON model config (overrides --preset)")
        sp.add_argument("--resolution", type=int, default=None)
        sp.add_argument("--local", choices=["conv", "window"], default=None)
        sp.add_argument("--mlp", choices=["normal", "mix"], default=None)
        sp.add_argument("--ds", choices=["stepwise", "onestep"], default=None)
        sp.add_argument("--tokens", choices=["normal", "posaware"], default=None)
        sp.add_argument("--grid", type=int, choices=range(3, 9), default=None)

    sp = sub.add_parser("count", help="parameter/MAC report and target checks")
    common(sp)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("forward", help="run one image and print logits stats")
    common(sp)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--image", default=None, help="path to an S x S x 3 .npy image")
    sp.set_defaults(fn=cmd_forward)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    sp.add_argument("--scope", choices=["primitives", "blocks", "model"],
                    required=True)
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("train", help="toy training run on synthetic data")
    common(sp)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--lr", type=float, default=1e-3)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("attnmap", help="export global-broadcast attention maps")
    common(sp)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--image", default=None)
    sp.add_argument("--query", default="mean")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=["csv", "pgm"], default="csv")
    sp.set_defaults(fn=cmd_attnmap)

    sp = sub.add_parser("gen-data", help="write a synthetic dataset cache")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--n", type=int, default=800)
    sp.add_argument("--resolution", type=int, default=32)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("dump-config", help="emit the resolved JSON config")
    common(sp)
    sp.set_defaults(fn=cmd_dump_config)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already reported
        return exc.code
    try:
        return args.fn(args)
    except (ValueError, EOFError, FloatingPointError, OSError, MemoryError,
            train_mod.TrainingDiverged) as exc:
        _fail(type(exc).__name__, "success", str(exc).replace(" ", "_"), 0)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
