"""Command line surface for the fingerprinting pipeline.

Subcommands mirror the pipeline stages: generate a Monte Carlo dataset,
reduce it, train the whole hierarchy (--db) or a dataset's stage
(--dataset) from one HierarchyConfig, classify observations, evaluate
held-out data, rank best-fit baselines, and export a saved model's
training curves or the encoding layout.  Every command is deterministic
for a given --seed.

Exit codes: 0 success (classify: verdict reached), 1 operational error,
a refused command line included, 2 an input or output path that cannot
be used (missing, a directory, no permission), 3 classify said not
relevant, 4 classify could not decide.  Each error is one "error:" line.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .datagen import generate_dataset, parse_prevalence
from .encoding import TOTAL_NEURONS, feature_label, layout_table
from .dcerpc import parse_endpoint_dump
from .hierarchy import (
    HierarchyConfig,
    HierarchyModel,
    ObservationError,
    Stage,
    classify,
    evaluate,
    report_classification,
    train_hierarchy,
    train_stage,
)
from .neural import Mlp, TrainingDivergedError
from .persistence import PersistenceError, _canonical, _digest, decode_config, load, save
from .preprocess import VARIANCE_TARGET, fit_pipeline, reduction_report
from .signatures import best_fit, parse_fingerprint_db, parse_observation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_NOT_RELEVANT = 3
EXIT_UNKNOWN = 4

# ValueError covers the parse, generation, reduction and hierarchy errors
_USER_ERRORS = (PersistenceError, TrainingDivergedError, ValueError)

# the config keys only the hierarchy reads
_STAGE_UNREAD = ("samples", "relevance_threshold", "decision_threshold", "windows")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    db = parse_fingerprint_db(Path(args.db).read_text())
    prev = parse_prevalence(Path(args.prevalence).read_text()) if args.prevalence is not None else None
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


def cmd_train(args) -> int:
    # the input names the mode: --db trains the hierarchy, --dataset that dataset's stage
    hierarchy = args.db is not None
    if hierarchy == (args.dataset is not None):
        raise ValueError("train needs --db (the hierarchy) or --dataset (one stage)"
                         + (", not both" if hierarchy else ""))
    if not hierarchy and args.prevalence is not None:
        raise ValueError("training a single stage does not read --prevalence")
    where = args.config or "--config"
    try:
        cfg_json = json.loads(Path(args.config).read_text()) if args.config else {}
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ValueError(f"{where}: {exc}") from None
    kwargs = decode_config(HierarchyConfig, cfg_json, where)
    # a single stage draws no corpus and makes no cascade
    if not hierarchy and (keys := sorted(set(kwargs) & set(_STAGE_UNREAD))):
        raise ValueError(f"{where}: training a single stage does not read {keys}")
    if args.seed is not None:
        cfg_json["seed"] = kwargs["seed"] = args.seed
    cfg = HierarchyConfig(**kwargs)
    metadata = {"seed": cfg.seed, "config_digest": _digest(_canonical(cfg_json))}
    if hierarchy:
        db = parse_fingerprint_db(Path(args.db).read_text())
        prev = parse_prevalence(Path(args.prevalence).read_text()) if args.prevalence is not None else None
        model = train_hierarchy(db, prev, cfg)
        save(model, args.out, metadata)
        print(f"wrote {args.out}")
        return EXIT_OK

    ds = load(args.dataset, expected_kind="dataset")
    if other := sorted(set(cfg.hidden) - {ds.stage.split(":", 1)[-1]}):
        raise ValueError(f"{where}: training stage {ds.stage!r} does not read hidden sizes for {other}")
    stage = train_stage(ds.stage, ds.inputs, ds.targets, ds.output_labels, cfg, cfg.seed)
    save(stage, args.out, {**metadata, "stage": ds.stage})
    gen, mse, lam, _ = stage.net.history.rows[-1]
    print(f"wrote {args.out} (stage {ds.stage}, {gen} generations, mse {mse:.6f}, lambda {lam:.6g})")
    return EXIT_OK


def cmd_classify(args) -> int:
    model = load(args.model, expected_kind="hierarchy")
    obs = parse_observation(Path(args.obs).read_text())
    dump = parse_endpoint_dump(Path(args.dump).read_text(), name=args.dump) if args.dump else None
    try:
        result = classify(model, obs, dump)
    except ObservationError as exc:
        raise ValueError(f"{args.obs}: {exc}") from None
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
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    db = parse_fingerprint_db(Path(args.db).read_text())
    obs = parse_observation(Path(args.obs).read_text())
    ranked = best_fit(db, obs, top=args.top)
    print(f"best-fit scores (top {len(ranked)} of {len(db)} signatures)")
    for name, score in ranked:
        print(f"  {score:.5f}  {name}")
    return EXIT_OK


def cmd_export_curves(args) -> int:
    """Write the training curve of each net in the model: to --out for a
    single net, to `<stem>-<name>.csv` for each net of a hierarchy."""
    model = load(args.model)
    if isinstance(model, HierarchyModel):
        nets = {name: part.net for name, part in {**model.stages(), "windows": model.windows}.items() if part}
    elif isinstance(model, (Mlp, Stage)):
        nets = {None: model.net if isinstance(model, Stage) else model}
    else:
        raise ValueError(f"{args.model}: a {type(model).__name__} carries no training curves")
    if all(net.history is None for net in nets.values()):
        raise ValueError(f"{args.model}: no training history recorded")
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    for name, net in nets.items():
        if net.history is None:
            print(f"skipping {name}: no history recorded")
            continue
        path = args.out if name is None else f"{stem}-{name}.csv"
        Path(path).write_text(net.history.to_csv())
        print(f"wrote {path}")
    return EXIT_OK


def cmd_export_layout(args) -> int:
    width = max(len(test) for _, test, _ in layout_table())
    lines = ["index  test  feature"]
    lines += [f"{i:5d}  {test:<{width}}  {label}" for i, test, label in layout_table()]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({TOTAL_NEURONS} rows)")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line through main's handler, as one error line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--variance", type=float, default=VARIANCE_TARGET, help="variance share to keep")
    p.add_argument("--out", help="write the fitted pipeline container here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("train", help="train the dataset's stage, or the full hierarchy from a db")
    p.add_argument("--dataset", help="dataset container: train its stage")
    p.add_argument("--db", help="signature database: train the hierarchy")
    p.add_argument("--prevalence", help="weights file (hierarchy training)")
    p.add_argument("--config", help="JSON training config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="model container path")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        # missing file, a directory, no permission: name the path
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {(exc.strerror or str(exc)).lower()}{where}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
