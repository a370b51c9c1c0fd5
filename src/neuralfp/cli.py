"""Command line surface for the fingerprinting pipeline.

Subcommands mirror the pipeline stages: generate a Monte Carlo dataset,
reduce it, train a stage or the whole hierarchy, classify observations,
evaluate held-out data, rank best-fit baselines, and export training
curves or the encoding layout.  Every command is deterministic for a
given --seed.

Exit codes: 0 success (classify: verdict reached), 1 operational error,
2 an input or output path that cannot be used (missing, a directory,
no permission), 3 classify said not relevant, 4 classify could not
decide.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter

import numpy as np

from .datagen import GenerationError, PrevalenceTable, generate_dataset
from .encoding import TOTAL_NEURONS, encode_observation, feature_label, layout_table
from .dcerpc import DumpParseError, parse_endpoint_dump
from .hierarchy import (
    DEFAULT_HIDDEN,
    STAGE_HIDDEN,
    HierarchyConfig,
    HierarchyError,
    HierarchyModel,
    Stage,
    classify_vector,
    evaluate,
    report_classification,
    train_hierarchy,
)
from .neural import Mlp, TrainConfig, TrainingDivergedError, init_mlp, train
from .persistence import PersistenceError, load, save
from .preprocess import ReductionError, fit_pipeline, reduction_report
from .signatures import (
    ParseError,
    best_fit,
    parse_fingerprint_db,
    parse_observation,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_NOT_RELEVANT = 3
EXIT_UNKNOWN = 4

_USER_ERRORS = (
    ParseError,
    GenerationError,
    ReductionError,
    HierarchyError,
    PersistenceError,
    DumpParseError,
    ValueError,
)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_db(path: str):
    return parse_fingerprint_db(_read(path))


def _load_prevalence(path: str | None) -> PrevalenceTable | None:
    if path is None:
        return None
    return PrevalenceTable.parse(_read(path))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = json.loads(_read(path))
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _build(cls, cfg: dict, path_hint: str):
    known = set(cls.__dataclass_fields__)
    bad = sorted(set(cfg) - known)
    if bad:
        raise ValueError(f"{path_hint}: unknown config keys {bad}")
    return cls(**cfg)


def _write_history(history, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(history.to_csv())
    print(f"wrote {path}")


def _history_stem(path: str) -> str:
    return path[:-4] if path.endswith(".csv") else path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    db = _load_db(args.db)
    prev = _load_prevalence(args.prevalence)
    ds = generate_dataset(db, prev, args.total, stage=args.stage, seed=args.seed)
    save(ds, args.out, metadata={"seed": args.seed, "db": args.db})
    print(f"wrote {args.out} ({len(ds.inputs)} samples, stage {ds.stage})")
    counts = Counter(l.family or "not relevant" for l in ds.labels)
    print("samples per family:")
    for name, count in counts.most_common():
        print(f"  {count:6d}  {name}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    ds = load(args.dataset, expected_kind="dataset")
    pipe = fit_pipeline(ds.inputs, variance=args.variance)
    if args.out:
        save(pipe, args.out, metadata={"dataset": args.dataset, "variance": args.variance})
        print(f"wrote {args.out}")
    labels = None
    if ds.inputs.shape[1] == TOTAL_NEURONS:
        labels = [feature_label(i) for i in range(TOTAL_NEURONS)]
    print(reduction_report(pipe, labels))
    return EXIT_OK


def _train_hierarchy_cmd(args, cfg_json: dict) -> int:
    if args.db is None:
        raise ValueError("--stage hierarchy requires --db")
    db = _load_db(args.db)
    prev = _load_prevalence(args.prevalence)
    if args.seed is not None:
        cfg_json["seed"] = args.seed
    if args.fixed_lr:
        cfg_json["adaptive"] = False
    cfg = _build(HierarchyConfig, cfg_json, args.config or "--config")
    model = train_hierarchy(db, prev, cfg)
    save(model, args.out, metadata={"seed": cfg.seed, "config_digest": _config_digest(cfg_json)})
    print(f"wrote {args.out}")
    if args.history:
        stem = _history_stem(args.history)
        stages = {"relevance": model.relevance, "family": model.family, **model.versions}
        for name, stage in stages.items():
            _write_history(stage.net.history, f"{stem}-{name}.csv")
        if model.windows is not None and model.windows.net.history is not None:
            _write_history(model.windows.net.history, f"{stem}-windows.csv")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg_json = _load_config(args.config)
    if args.stage == "hierarchy":
        return _train_hierarchy_cmd(args, cfg_json)

    if args.dataset is None:
        raise ValueError("training a single stage requires --dataset")
    ds = load(args.dataset, expected_kind="dataset")
    stage_name = args.stage or ds.stage
    if stage_name != ds.stage:
        raise ValueError(f"dataset holds stage {ds.stage!r}, not {stage_name!r}")

    variance = cfg_json.pop("variance", 0.98)
    short = stage_name.split(":", 1)[-1]
    hidden = cfg_json.pop("hidden", STAGE_HIDDEN.get(short, DEFAULT_HIDDEN))
    if args.seed is not None:
        cfg_json["seed"] = args.seed
    if args.fixed_lr:
        cfg_json["adaptive"] = False
    cfg = _build(TrainConfig, cfg_json, args.config or "--config")

    if args.resume:
        prior = load(args.resume, expected_kind="stage")
        if prior.labels != ds.output_labels:
            raise ValueError(
                f"resume model schema mismatch: outputs {list(prior.labels)} "
                f"vs dataset {list(ds.output_labels)}"
            )
        if len(prior.pipeline.normalizer.mean) != ds.inputs.shape[1]:
            raise ValueError(
                f"resume model schema mismatch: input width "
                f"{len(prior.pipeline.normalizer.mean)} vs dataset {ds.inputs.shape[1]}"
            )
        pipe, net = prior.pipeline, prior.net
    else:
        pipe = fit_pipeline(ds.inputs, variance=variance)
        net = init_mlp([pipe.output_dim, hidden, ds.targets.shape[1]], seed=cfg.seed)

    history = train(net, pipe.apply(ds.inputs), ds.targets, cfg)
    stage = Stage(pipe, net, tuple(ds.output_labels))
    save(
        stage,
        args.out,
        metadata={
            "seed": cfg.seed,
            "stage": stage_name,
            "config_digest": _config_digest(cfg_json),
        },
    )
    gen, mse, lam, _ = history.rows[-1]
    print(f"wrote {args.out} (stage {stage_name}, {gen} generations, mse {mse:.6f}, lambda {lam:.6g})")
    if args.history:
        _write_history(history, args.history)
    return EXIT_OK


def cmd_classify(args) -> int:
    model = load(args.model, expected_kind="hierarchy")
    obs = parse_observation(_read(args.obs))
    vec = encode_observation(obs)
    expected = len(model.relevance.pipeline.normalizer.mean)
    if len(vec) != expected:
        raise ValueError(
            f"model/observation layout mismatch: model expects {expected} "
            f"features, observation encodes to {len(vec)}"
        )
    dump = None
    if args.dump:
        dump = parse_endpoint_dump(_read(args.dump), name=args.dump)
    result = classify_vector(model, vec, dump)
    print(report_classification(result))
    if result.verdict == "not relevant":
        return EXIT_NOT_RELEVANT
    if result.verdict == "unknown":
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load(args.model, expected_kind="hierarchy")
    ds = load(args.dataset, expected_kind="dataset")
    if ds.stage != "relevance":
        raise ValueError("evaluate needs a relevance-stage dataset (full labels)")
    print(evaluate(model, ds).render())
    return EXIT_OK


def cmd_baseline(args) -> int:
    db = _load_db(args.db)
    obs = parse_observation(_read(args.obs))
    ranked = best_fit(db, obs, top=args.top)
    print(f"best-fit scores (top {len(ranked)} of {len(db)} signatures)")
    for name, score in ranked:
        print(f"  {score:.5f}  {name}")
    return EXIT_OK


def cmd_export_curves(args) -> int:
    model = load(args.model)
    if isinstance(model, Mlp):
        nets = {None: model}
    elif isinstance(model, Stage):
        nets = {None: model.net}
    elif isinstance(model, HierarchyModel):
        nets = {"relevance": model.relevance.net, "family": model.family.net}
        nets.update({name: s.net for name, s in model.versions.items()})
        if model.windows is not None:
            nets["windows"] = model.windows.net
    else:
        raise ValueError(f"{args.model}: a {type(model).__name__} carries no training curves")
    missing = [name or "network" for name, net in nets.items() if net.history is None]
    if len(missing) == len(nets):
        raise ValueError(f"{args.model}: no training history recorded")
    stem = _history_stem(args.out)
    for name, net in nets.items():
        if net.history is None:
            print(f"skipping {name}: no history recorded")
            continue
        path = args.out if name is None else f"{stem}-{name}.csv"
        _write_history(net.history, path)
    return EXIT_OK


def cmd_export_layout(args) -> int:
    width = max(len(test) for _, test, _ in layout_table())
    lines = ["index  test  feature"]
    lines += [f"{i:5d}  {test:<{width}}  {label}" for i, test, label in layout_table()]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({TOTAL_NEURONS} rows)")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralfp",
        description="Neural OS fingerprint classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a Monte Carlo dataset from a signature db")
    p.add_argument("--db", required=True, help="signature database path")
    p.add_argument("--prevalence", help="weights file: one '<weight> <name>' per line")
    p.add_argument("--total", type=int, required=True, help="number of samples")
    p.add_argument("--stage", default="relevance",
                   help="relevance | family | version:<family> (default relevance)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset container path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="fit the correlation/PCA reduction on a dataset")
    p.add_argument("--dataset", required=True, help="dataset container path")
    p.add_argument("--variance", type=float, default=0.98, help="variance share to keep")
    p.add_argument("--out", help="write the fitted pipeline container here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("train", help="train one stage from a dataset, or the full hierarchy")
    p.add_argument("--dataset", help="dataset container (single-stage training)")
    p.add_argument("--db", help="signature database (hierarchy training)")
    p.add_argument("--prevalence", help="weights file (hierarchy training)")
    p.add_argument("--stage", help="stage to train, or 'hierarchy' (default: dataset's stage)")
    p.add_argument("--config", help="JSON training config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--fixed-lr", action="store_true",
                   help="disable the adaptive learning rate schedule")
    p.add_argument("--resume", help="continue training a saved stage model")
    p.add_argument("--out", required=True, help="model container path")
    p.add_argument("--history", help="write per-generation CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="run the decision cascade on one observation")
    p.add_argument("--model", required=True, help="hierarchy model container")
    p.add_argument("--obs", required=True, help="observation file")
    p.add_argument("--dump", help="DCE-RPC endpoint dump for Windows refinement")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score a hierarchy model on a labeled dataset")
    p.add_argument("--model", required=True, help="hierarchy model container")
    p.add_argument("--dataset", required=True, help="relevance-stage dataset container")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="rank signatures by the classic best-fit score")
    p.add_argument("--db", required=True, help="signature database path")
    p.add_argument("--obs", required=True, help="observation file")
    p.add_argument("--top", type=int, default=10, help="how many rows to print")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("export-curves", help="dump recorded training history to CSV")
    p.add_argument("--model", required=True, help="network, stage, or hierarchy container")
    p.add_argument("--out", required=True, help="CSV path (stem for hierarchy models)")
    p.set_defaults(func=cmd_export_curves)

    p = sub.add_parser("export-layout", help="write the observation encoding layout table")
    p.add_argument("--out", help="destination (default: stdout)")
    p.set_defaults(func=cmd_export_layout)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # missing file, a directory, no permission: name the path
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {(exc.strerror or str(exc)).lower()}{where}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
