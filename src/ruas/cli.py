"""Command-line entry point.

Subcommands: search, train, enhance, eval, gradcheck, ablate-k,
compare-strategies, fixed-op.  Exit codes: 0 success, 2 configuration
error, 3 I/O error or out of memory, 4 numeric error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import SEARCH_STRATEGIES, TRAIN_STRATEGIES, VARIANTS, RunConfig, resolve_seed
from .diagnostics import TOLERANCE, run_all
from .errors import (
    ConfigError,
    ContractError,
    DataIOError,
    DomainError,
    NumericError,
    RuasError,
)
from .io_metrics import load_dataset, load_png, output_dir, save_png, split_records, write_file
from .model import RuasModel, load_checkpoint, save_checkpoint
from .search import run_search
from .search_space import EDGES, SEARCH_OPS, count_params
from .train import evaluate, metrics_csv, pretrain_scene, train_hierarchical, train_model

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _load_config(path):
    return RunConfig.load(path) if path else RunConfig()


def _out_dir(args, cfg):
    """``--out`` if given, else the config's ``paths.out_dir``."""
    return Path(args.out if args.out is not None else cfg.paths.out_dir)


def _records_from(cfg, data_flag, references=None):
    """The dataset's records.  A command that scores them loads their
    references up front, so that a bad one fails before the run: every one
    the dataset has (``references="present"``), or one per record
    (``"all"``)."""
    data_dir = data_flag or cfg.paths.data_dir
    if not data_dir:
        raise ConfigError("no data directory given (--data or paths.data_dir)")
    records = load_dataset(data_dir)
    if references == "all" and any(r.reference_path is None for r in records):
        raise ConfigError(f"dataset {data_dir} lacks reference images")
    if references is not None:
        for r in records:
            r.reference()
    return records


def _start_run(args, references=None, strategy_section=None):
    """Config, seed, records and output directory of a run; the effective
    config, with ``--strategy`` applied to ``strategy_section``, is echoed
    only after all of them were accepted."""
    cfg = _load_config(args.config)
    if strategy_section is not None:
        cfg.set_strategy(strategy_section, args.strategy)
    seed = resolve_seed(args.seed, os.environ.get("RUAS_SEED"), cfg.seed)
    records = _records_from(cfg, args.data, references)
    out = _out_dir(args, cfg)
    cfg.echo(out, seed)
    return cfg, seed, records, out


def _model_from_config(cfg, rng, arch_path=None, stages=None):
    task = cfg.task
    if arch_path:
        try:
            raw = Path(arch_path).read_bytes()
        except OSError as exc:
            raise DataIOError(f"cannot read architecture file {arch_path}: {exc}") from exc
        try:
            arch = json.loads(raw)
            scene_ops, task_ops = list(arch["scene"]["ops"]), list(arch["task"]["ops"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"architecture file {arch_path} must be JSON with scene.ops and"
                f" task.ops lists: {exc!r}"
            ) from exc
        task = dataclasses.replace(task, scene_ops=scene_ops, task_ops=task_ops)
    scene_cfg = cfg.scene
    if stages is not None:
        scene_cfg = dataclasses.replace(scene_cfg, stages=stages)
    return RuasModel.from_config(rng, task, scene_cfg)


def _search(cfg, records, seed):
    """A search with the config's settings on a seeded split."""
    data = split_records(records, rng=np.random.default_rng(seed))
    return run_search(data, cfg.search, seed, cfg.scene, cfg.task.tv_weight)


# ---------------------------------------------------------------------------
# subcommands


def cmd_search(args):
    cfg, seed, records, out = _start_run(args, strategy_section="search")
    result = _search(cfg, records, seed)

    write_file(out / "history.csv", result.history_csv())
    alpha = {
        "scene": {
            "ops": [k.name for k in result.scene_ops],
            "logits": [l.data.tolist() for l in result.model.alpha_s.logits],
        },
        "task": {
            "ops": [k.name for k in result.task_ops],
            "logits": [l.data.tolist() for l in result.model.alpha_t.logits],
        },
        "momentum": result.momentum,
        "seed": seed,
        "strategy": cfg.search.strategy,
    }
    write_file(out / "alpha_final.json", json.dumps(alpha, indent=2) + "\n")
    write_file(out / "arch.dot", result.arch_dot())
    return 0


def cmd_train(args):
    cfg, seed, records, out = _start_run(args, strategy_section="train")
    rng = np.random.default_rng(seed)
    model = _model_from_config(cfg, rng, arch_path=args.arch)
    report = train_model(model, records, cfg.train)
    save_checkpoint(model, out / "model.ckpt")
    _write_curves(report, out / "curve.csv")
    if report.aborted:
        raise NumericError("training aborted on non-finite loss; last-good checkpoint kept")
    return 0


def _write_curves(report, path):
    lines = ["phase,epoch,loss"]
    for phase, curve in report.curves.items():
        for i, v in enumerate(curve):
            lines.append(f"{phase},{i},{v:.8f}")
    write_file(path, "\n".join(lines) + "\n")


def _raise_if_aborted(rows):
    if rows:
        raise NumericError(
            f"training aborted on non-finite loss for {', '.join(rows)}; their rows"
            " score the last-good weights"
        )


def cmd_enhance(args):
    model = load_checkpoint(args.model).set_variant(args.variant)
    in_path = Path(args.input)
    inputs = sorted(in_path.glob("*.png")) if in_path.is_dir() else [in_path]
    if not inputs:
        raise ConfigError(f"no PNG inputs under {in_path}")
    out = Path(args.out)
    k_range = range(1, model.scene_cfg.stages + 1) if args.dump_stages else ()
    names = [f"stage{k}_{m}.png" for k in k_range for m in "tu"]
    # each input's output paths: the enhanced image, then t and u per stage
    plan = {}
    for p in inputs:
        prefix = "" if len(inputs) == 1 else f"{p.stem}_"
        plan[p] = [out / f"{p.stem}.png"] + [out / f"{prefix}{n}" for n in names]
    sources = {p.resolve() for p in inputs}
    writer = {}  # resolved output path -> the input it is planned for
    for p, paths in plan.items():
        for path in map(Path.resolve, paths):
            if path in sources:
                raise ConfigError(f"output {path} would overwrite an input; choose another --out")
            if path in writer:
                raise ConfigError(f"output {path} is planned for both {writer[path]} and {p}")
            writer[path] = p
    output_dir(out)
    for p, (dst, *map_paths) in plan.items():
        y = Tensor(load_png(p))
        stages = [] if args.dump_stages else None
        with ad.no_grad():
            x = model.forward(y, stages)["x"]
        save_png(x.data, dst)
        maps = [m for pair in stages for m in pair] if stages else []
        for path, m in zip(map_paths, maps, strict=True):
            save_png(np.clip(m.data, 0, 1), path)
    return 0


def cmd_eval(args):
    cfg = _load_config(args.config)
    model = load_checkpoint(args.model).set_variant(args.variant)
    records = _records_from(cfg, args.data, references="present")
    out = output_dir(_out_dir(args, cfg))
    rows, means = evaluate(model, records)
    write_file(out / "metrics.csv", metrics_csv(rows, means))
    return 0


def cmd_gradcheck(args):
    checks = run_all(seed=resolve_seed(args.seed, None, 7))
    worst = max(err for _, err in checks)
    if args.out:
        lines = ["check,max_rel_error"] + [f"{n},{e:.3e}" for n, e in checks]
        write_file(Path(args.out) / "gradcheck.csv", "\n".join(lines) + "\n")
    for name, err in checks:
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{status:4s} {name}: {err:.3e}")
    if worst >= TOLERANCE:
        raise NumericError(f"gradient check exceeded tolerance: {worst:.3e}")
    return 0


def cmd_ablate_k(args):
    try:
        k_list = [int(v) for v in args.k_list.split(",") if v.strip()]
    except ValueError:
        k_list = []
    if not k_list or any(k < 1 for k in k_list):
        raise ConfigError(f"invalid k-list {args.k_list!r}")
    cfg, seed, records, out = _start_run(args, references="all")
    lines, aborted = ["k,psnr_db,ssim"], []
    for k in k_list:
        model = _model_from_config(cfg, np.random.default_rng(seed), stages=k)
        if train_model(model, records, cfg.train).aborted:
            aborted.append(f"k={k}")
        _, means = evaluate(model, records)
        lines.append(f"{k},{means['psnr']:.4f},{means['ssim']:.6f}")
    write_file(out / "ablation.csv", "\n".join(lines) + "\n")
    _raise_if_aborted(aborted)
    return 0


def cmd_compare_strategies(args):
    cfg, seed, records, out = _start_run(args)
    lines = ["strategy,scene_val,task_val,combined,scene_params,task_params"]
    for strategy in ("global", "independent", "cooperative"):
        cfg.set_strategy("search", strategy)
        result = _search(cfg, records, seed)
        final = result.history[-1]
        # the counts of the derived ruas model, built apart from the search's rng
        derived = RuasModel(
            np.random.default_rng(0), scene_ops=result.scene_ops, task_ops=result.task_ops
        )
        lines.append(
            f"{strategy},{final['scene_val']:.6f},{final['task_val']:.6f},"
            f"{final['combined']:.6f},{derived.scene_param_count()},"
            f"{count_params(derived.omega_t())}"
        )
        write_file(out / f"{strategy}_arch.dot", result.arch_dot())
        write_file(out / f"{strategy}_history.csv", result.history_csv())
    write_file(out / "strategies.csv", "\n".join(lines) + "\n")
    return 0


def cmd_fixed_op(args):
    cfg, seed, records, out = _start_run(args, references="all")
    tcfg = cfg.train
    tv_weight = cfg.task.tv_weight
    models, aborted = {}, []
    for kind in SEARCH_OPS:
        model = RuasModel(
            np.random.default_rng(seed),
            variant="ruas_s",
            scene_cfg=cfg.scene,
            scene_ops=[kind.name] * len(EDGES),
            tv_weight=tv_weight,
        )
        if train_hierarchical(model, records, tcfg).aborted:
            aborted.append(kind.name)
        models[kind.name] = model
    # the supernet's mixed scene cell at its initial (uniform-ish) logits
    supernet = RuasModel.supernet(np.random.default_rng(seed), cfg.scene, tv_weight)
    scene_cfg = dataclasses.replace(tcfg, pretrain_epochs=max(tcfg.pretrain_epochs, 1))
    if pretrain_scene(supernet, records, scene_cfg).aborted:
        aborted.append("supernet")
    models["supernet"] = supernet.set_variant("ruas_s")
    h, w = records[0].input().shape[2:]
    lines = ["model,psnr_db,ssim,params,mult_adds"]
    for name, model in models.items():
        _, means = evaluate(model, records)
        lines.append(
            f"{name},{means['psnr']:.4f},{means['ssim']:.6f},"
            f"{model.scene_param_count()},{model.flops(h, w)}"
        )
    write_file(out / "fixed_op.csv", "\n".join(lines) + "\n")
    _raise_if_aborted(aborted)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ruas", description="Retinex-inspired unrolling with architecture search"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory (default: paths.out_dir)")
        p.add_argument("--data", help="dataset directory (input/ + reference/)")

    p = sub.add_parser("search", help="run architecture search")
    common(p)
    p.add_argument("--strategy", choices=SEARCH_STRATEGIES)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="train a discrete model")
    common(p)
    p.add_argument("--strategy", choices=TRAIN_STRATEGIES)
    p.add_argument("--arch", help="alpha_final.json from a search run")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance images with a trained model")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", required=True, help="input PNG file or directory")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--dump-stages", action="store_true")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("eval", help="evaluate a model on a paired dataset")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--variant", choices=VARIANTS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the gradient-check suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate-k", help="stage-count ablation")
    common(p)
    p.add_argument("--k-list", default="1,2,3,4,5")
    p.set_defaults(func=cmd_ablate_k)

    p = sub.add_parser("compare-strategies", help="run all three search strategies")
    common(p)
    p.set_defaults(func=cmd_compare_strategies)

    p = sub.add_parser("fixed-op", help="uniform-operator baselines")
    common(p)
    p.set_defaults(func=cmd_fixed_op)
    return parser


def _keep_freed_pages():
    """Fix glibc malloc's trim threshold at 1 GiB and its mmap threshold at
    32 MiB, as ``perfbench/run.py`` pins them through ``MALLOC_*``.

    A taped step frees its tape during the backward walk; with glibc's
    defaults the heap then gives those pages back and every step faults them
    in again (README: about 20x the minor faults of a 64 px ``train``).
    Skipped where libc exports no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None):
    _keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataIOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, DomainError, ContractError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RuasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(f"out of memory: ruas {args.command}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
