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
from .model import ModelConfig, PRESET_NAMES, build_model, preset
from .tensor import Tensor


def _err(*args):
    print(*args, file=sys.stderr)


def _load_config(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ModelConfig.from_json(fh.read())
    else:
        cfg = preset(args.preset)
    overrides = {}
    if getattr(args, "local", None):
        overrides["local_kind"] = {"conv": "conv_encoder", "window": "window_msa"}[args.local]
    if getattr(args, "mlp", None):
        overrides["mlp_kind"] = args.mlp
    if getattr(args, "ds", None):
        overrides["ds_kind"] = {"stepwise": "step_wise", "onestep": "one_step"}[args.ds]
    if getattr(args, "tokens", None):
        overrides["global_mode"] = {"normal": "normal_msa",
                                    "posaware": "position_aware_sum"}[args.tokens]
    if getattr(args, "grid", None):
        overrides["token_grid"] = args.grid
    if getattr(args, "resolution", None):
        overrides["input_resolution"] = args.resolution
    # rebuilt rather than mutated, so the overridden config is validated again
    cfg = dataclasses.replace(cfg, **overrides)
    _err(f"config: {cfg.to_dict()}")
    return cfg


def _fail(check, expected, got, tol):
    print(f"FAIL {check} expected={expected} got={got} tol={tol}")


def cmd_count(args):
    cfg = _load_config(args)
    report = analysis.count_flops(cfg, cfg.input_resolution)
    model = build_model(cfg, seed=args.seed)
    params = analysis.count_params(model)
    macs_by_path = {e.path: e.macs for e in report.entries}
    for e in params.entries:
        e.macs = macs_by_path.get(e.path, 0)
    for line in params.lines():
        print(line)
    print(f"params_total {params.total_params}")
    print(f"macs_total {report.total_macs} resolution {report.resolution}")
    ok = True
    if cfg.name in analysis.TABLE_TARGETS:
        p_target, f_target = analysis.TABLE_TARGETS[cfg.name]
        p_got, f_got = params.total_params, report.total_macs
        if abs(p_got - p_target) / p_target <= analysis.PARAM_TOL:
            print(f"PASS params_{cfg.name} expected={p_target:.3g} got={p_got} "
                  f"tol={analysis.PARAM_TOL}")
        else:
            _fail(f"params_{cfg.name}", f"{p_target:.3g}", p_got, analysis.PARAM_TOL)
            ok = False
        if abs(f_got - f_target) / f_target <= analysis.FLOP_TOL:
            print(f"PASS flops_{cfg.name} expected={f_target:.3g} got={f_got} "
                  f"tol={analysis.FLOP_TOL}")
        else:
            _fail(f"flops_{cfg.name}", f"{f_target:.3g}", f_got, analysis.FLOP_TOL)
            ok = False
    return 0 if ok else 1


def cmd_forward(args):
    cfg = _load_config(args)
    _err(f"seed: {args.seed}")
    model = build_model(cfg, seed=args.seed)
    if args.image:
        img = np.load(args.image).astype(np.float32)
    else:
        rng = np.random.default_rng(args.seed)
        img = rng.standard_normal(
            (cfg.input_resolution, cfg.input_resolution, 3)).astype(np.float32)
    logits, _ = model.forward(Tensor(img), want_activations=False)
    z = logits.data
    if not np.isfinite(z).all():
        _fail("forward_finite", "finite", "non-finite", 0)
        return 1
    print(f"logits n={z.size} mean={z.mean():.6f} std={z.std():.6f} "
          f"argmax={int(np.argmax(z))}")
    print("logits_head " + " ".join(f"{v:.6f}" for v in z[:8]))
    return 0


def cmd_gradcheck(args):
    _err(f"seed: {args.seed}")
    suites = {"primitives": checks.gradcheck_primitives,
              "blocks": checks.gradcheck_blocks,
              "model": checks.gradcheck_model}
    ok = True
    for name, report in suites[args.scope]():
        if report.passed:
            print(f"PASS gradcheck_{name} expected=<=0.0001 "
                  f"got={report.max_rel_err:.3g} tol=0.0001")
        else:
            _fail(f"gradcheck_{name}", "<=0.0001", f"{report.max_rel_err:.3g}",
                  0.0001)
            ok = False
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
    if args.image:
        img = np.load(args.image).astype(np.float32)
    else:
        rng = np.random.default_rng(args.seed)
        img = rng.standard_normal(
            (cfg.input_resolution, cfg.input_resolution, 3)).astype(np.float32)
    export = analysis.extract_attention_map(model, img, block="last",
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
        cells = analysis.top_cells(m, 8)
        print(f"map query={q} block={export.source_block} "
              f"top8={';'.join(f'{r},{c}' for r, c in cells)} file={path}")
    return 0 if ok else 1


def cmd_gen_data(args):
    _err(f"seed: {args.seed}")
    ds = data_mod.gen_synthetic(seed=args.seed, n=args.n, classes=8,
                                side=args.resolution or 32)
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

    def common(sp, config=True):
        sp.add_argument("--preset", default="toy", choices=PRESET_NAMES)
        if config:
            sp.add_argument("--config", default=None,
                            help="JSON model config (overrides --preset)")
        sp.add_argument("--seed", type=int, default=42)
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
    sp.add_argument("--image", default=None, help="path to an S x S x 3 .npy image")
    sp.set_defaults(fn=cmd_forward)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    sp.add_argument("--scope", choices=["primitives", "blocks", "model"],
                    required=True)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("train", help="toy training run on synthetic data")
    common(sp)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--lr", type=float, default=1e-3)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("attnmap", help="export global-broadcast attention maps")
    common(sp)
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
    except (ValueError, FloatingPointError, OSError,
            train_mod.TrainingDiverged) as exc:
        _fail(type(exc).__name__, "success", str(exc).replace(" ", "_"), 0)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
