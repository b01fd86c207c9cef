"""Command-line interface.

Exit codes: 0 success, 1 validation error (bad arguments, malformed files,
bad config), 2 runtime or numeric error. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .data import (DataFormatError, load_dataset, load_run_config,
                   model_config_from_dict, parse_citation_files,
                   write_citation_files, write_molecule_file)
from .geometry import DegenerateGeometryError
from .gradchecks import TOLERANCE, full_model_gradcheck, op_gradchecks
from .model import ConfigError, ModelConfig, build_path_cache, init_params
from .molgraph import FeaturizerConfig, MoleculeError, build_graph
from .paths import PathExplosionError, enumerate_paths
from .synth import TASKS, generate_molecules, synth_citation
from .tensor import CheckpointError, load_params, open_replacing, save_params
from .training import (evaluate_regression, save_report, summarize_reports,
                       train_node_classification, train_regression)

VALIDATION_ERRORS = (ConfigError, MoleculeError, DataFormatError,
                     DegenerateGeometryError, CheckpointError, FileNotFoundError,
                     IsADirectoryError, NotADirectoryError, PermissionError,
                     json.JSONDecodeError)


def cmd_paths(args) -> int:
    dataset = load_dataset(args.input, args.explicit_h or None)
    if not (0 <= args.index < len(dataset.records)):
        raise ConfigError(f"molecule index {args.index} out of range "
                          f"({len(dataset.records)} molecules)")
    graph = build_graph(dataset.records[args.index], dataset.featurizer)
    name = graph.ids[0]
    if not (0 <= args.node < graph.n):
        raise ConfigError(f"molecule {name}: --node {args.node} out of range ({graph.n} atoms)")
    if args.length < 1:
        raise ConfigError(f"molecule {name}: --length must be >= 1, got {args.length}")
    try:
        tables = enumerate_paths(graph, [args.node], args.length)
    except PathExplosionError as err:
        raise PathExplosionError(f"molecule {name}: {err}") from None
    # lexicographic, a prefix before its extensions: depth-first order
    for path in sorted(p for t in tables.values() for p in t.tolist()):
        print(" ".join(str(v) for v in path))
    return 0


def cmd_featurize(args) -> int:
    dataset = load_dataset(args.input, args.explicit_h or None)
    config = ModelConfig(path_length=args.length, feature_mode=args.mode)
    with open_replacing(args.out) as fh:   # a failing molecule leaves --out as it was
        for record in dataset.records:
            try:   # the molecule errors name the molecule; name the file too
                graph = build_graph(record, dataset.featurizer)
                cache = build_path_cache(graph, config)
            except (MoleculeError, ConfigError, DegenerateGeometryError,
                    PathExplosionError) as err:
                raise type(err)(f"{args.input}: {err}") from None
            # a static row holds k edge feature blocks, then the mode's features
            rows = {k: g.static[:, k * graph.edge_dim:].tolist() for k, g in cache.items()}
            # per root in depth-first order, lengths interleaved
            for path, k, i in sorted((p, k, i) for k, g in cache.items()
                                     for i, p in enumerate(g.paths.tolist())):
                fh.write(json.dumps({
                    "molecule": record.id,
                    "path": path,
                    "features": rows[k][i],
                }) + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    rows = []
    if args.op:
        all_ops = op_gradchecks(seed=args.seed)
        if args.op not in all_ops:
            raise ConfigError(f"unknown op {args.op!r}; known: {sorted(all_ops)}")
        rows.append((args.op, all_ops[args.op]))
    elif args.full_model:
        for mode, err in full_model_gradcheck(seed=args.seed).items():
            rows.append((f"full_model[{mode}]", err))
    else:
        rows.extend(sorted(op_gradchecks(seed=args.seed).items()))
    width = max(len(name) for name, _ in rows)
    for name, err in rows:
        print(f"{name:<{width}}  {err:12.3e}  {'PASS' if err < TOLERANCE else 'FAIL'}")
    if not all(err < TOLERANCE for _, err in rows):
        print("gradient check failed", file=sys.stderr)
        return 2
    return 0


def _train_regression_runs(config, repeats):
    dataset = load_dataset(config.dataset, config.explicit_hydrogens)
    try:
        return [train_regression(dataset.records,
                                 replace(config.model, seed=config.model.seed + r),
                                 config.train, dataset.featurizer) for r in range(repeats)]
    except ConfigError as err:     # an empty dataset or one too small to split: name its file
        raise ConfigError(f"{err} (molecules read from {config.dataset})") from None


def _train_citation_runs(config, repeats):
    graph = parse_citation_files(config.content, config.cites)
    try:
        return [train_node_classification(graph, replace(config.gcn, seed=config.gcn.seed + r),
                                          epochs=config.epochs, patience=config.patience)
                for r in range(repeats)]
    except ConfigError as err:     # a network too small to split: name the file of its nodes
        raise ConfigError(f"{err} (nodes read from {config.content})") from None


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    repeats = args.repeats if args.repeats is not None else config.repeats
    runs = _train_regression_runs if config.task == "regression" else _train_citation_runs
    try:
        results = runs(config, repeats)
    except OSError as err:   # a data file the config names
        raise ConfigError(f"{args.config}: {err.filename}: {err.strerror}") from None

    reports = [res.report for res in results]
    save_report(args.report, *reports)
    for report in reports:
        print(f"seed {report.seed}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in report.final.items()
            if isinstance(v, float)))
    if repeats > 1:
        summary = summarize_reports(reports)
        print(f"{summary['metric']}: {summary['mean']:.4g} +- {summary['std']:.4g} "
              f"over {repeats} seeds")

    if config.checkpoint and config.task == "regression":
        best = min(results, key=lambda res: res.report.final["val_metric_best"])
        save_params(config.checkpoint, best.params, metadata={
            "task": "regression",
            "model": asdict(best.model_config),
            "element_vocab": list(best.featurizer.element_vocab),
            "explicit_hydrogens": best.featurizer.explicit_hydrogens,
            "target_mean": best.target_mean.tolist(),
            "target_std": best.target_std.tolist(),
        })
        print(f"checkpoint written to {config.checkpoint}")
    return 0


def _regression_metadata(path, meta):
    """A regression checkpoint's metadata, checked once: (model config,
    featurizer, target mean, target std). Raises CheckpointError naming the
    file and the field that is missing or of the wrong type."""
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata: expected a JSON object, got "
                              f"{json.dumps(meta)}")
    if meta.get("task") != "regression":
        raise ConfigError(f"{path}: not a regression checkpoint")

    def field(name, valid, expected):
        if name not in meta:
            raise CheckpointError(f"{path}: {name}: missing from the metadata")
        if not valid(meta[name]):
            raise CheckpointError(f"{path}: {name}: expected {expected}, got "
                                  f"{json.dumps(meta[name])}")
        return meta[name]

    model = field("model", lambda v: isinstance(v, dict), "a JSON object")
    where = f"{path}: model"
    try:
        model_config = model_config_from_dict(model, where)
    except ConfigError as err:   # ModelConfig's own checks name no file
        if str(err).startswith(where):
            raise
        raise ConfigError(f"{where}: {err}") from None
    vocab = field("element_vocab", lambda v: isinstance(v, list) and all(
        isinstance(el, str) for el in v), "a list of strings")
    explicit_h = field("explicit_hydrogens", lambda v: isinstance(v, bool), "a boolean")
    n = model_config.n_targets
    stats = [np.asarray(field(name, lambda v: isinstance(v, list) and len(v) == n
                              and all(type(x) in (int, float) and np.isfinite(x) for x in v),
                              f"a list of finite numbers, one per target ({n})"))
             for name in ("target_mean", "target_std")]
    return model_config, FeaturizerConfig(tuple(vocab), explicit_h), *stats


def cmd_eval(args) -> int:
    params, meta = load_params(args.checkpoint)
    model_config, featurizer, target_mean, target_std = _regression_metadata(
        args.checkpoint, meta)
    dataset = load_dataset(args.input, featurizer.explicit_hydrogens)
    # the shapes training gives: edge width from the first molecule's coords
    with_coords = bool(dataset.records) and dataset.records[0].coords is not None
    expected = init_params(model_config, featurizer.node_dim, featurizer.edge_dim(with_coords))
    for name in sorted(expected.keys() | params.keys()):
        got, want = (str(p[name].values.shape) if name in p else "absent"
                     for p in (params, expected))
        if got != want:
            raise ConfigError(f"{args.checkpoint}: parameter {name}: {got} in the "
                              f"checkpoint, {want} for its model config and input "
                              f"{args.input}")
    try:   # the molecule errors name the molecule; name the file too
        metrics = evaluate_regression(dataset.records, params, model_config,
                                      featurizer, target_mean, target_std)
    except (MoleculeError, ConfigError, DegenerateGeometryError) as err:
        raise type(err)(f"{args.input}: {err}") from None
    print(json.dumps(metrics))
    return 0


def cmd_synth(args) -> int:
    if args.task == "citation":
        graph = synth_citation(n_nodes=args.n, seed=args.seed)
        write_citation_files(f"{args.out}.content", f"{args.out}.cites", graph)
        print(f"wrote {args.out}.content and {args.out}.cites "
              f"({graph.n} nodes, {len(graph.edges)} edges)")
        return 0
    records = generate_molecules(args.task, args.n, args.seed)
    write_molecule_file(args.out, records)
    print(f"wrote {len(records)} molecules to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathmpnn",
        description="Path message passing toolkit: enumeration, featurization, "
                    "training and evaluation.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("paths", help="list simple paths rooted at a node")
    p.add_argument("--input", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--index", type=int, default=0, help="molecule index in the file")
    p.add_argument("--explicit-h", action="store_true")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("featurize", help="dump per-path feature vectors")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("substructure", "geometry"), required=True)
    p.add_argument("--length", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--explicit-h", action="store_true")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--op", default=None)
    p.add_argument("--full-model", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--repeats", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a molecule file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--task", choices=TASKS + ("citation",), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - runtime/numeric failures exit 2
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
