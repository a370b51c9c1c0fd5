"""
Version stages at paper scale: accuracy against lines per family
=================================================================

The paper's version nets tell the lines of one family apart. The repo's
recipes train on the 61-signature demo db, with 2 to 5 lines a family,
where Nmap's database has dozens. This script trains the cascade on
`family_task_database(per_family=N)` for N in 5, 20 and 60 lines a
family and seeds 7, 8 and 9, each with `HierarchyConfig(seed=seed,
samples=max(3000, 25 x signatures))`, and evaluates it on 2,000
relevance rows drawn with seed 99. Sizes and seeds are fixed here, not
picked after a result. For each version stage it prints:

- lines: the stage's outputs;
- k: the PCA width its pipeline keeps;
- hidden: its hidden-layer size;
- gens and stop: the generations it ran and why it stopped, read from
  the INFO record of the `neuralfp.neural` logger;
- G: `neural.fitness_g` of the trained net on its own training rows;
- acc: its held-out accuracy, from `evaluate`;
- s: its training seconds, reduction fit and backprop.

After each run one line gives the worst version stage and the seconds of
`train_hierarchy`. `--config` takes a JSON object of `HierarchyConfig`
keys, checked as `neuralfp train --config` checks them, that override
the setup above; `--lines` and `--seeds` run a part of the grid. A
60-line run takes 15 to 20 s on a 2-core machine. Run from the
repository root:
`PYTHONPATH=src python demos/07_scale.py [--lines 20] [--config '{"generations": 50}']`.
"""

import argparse
import json
import logging
import re
import time

from neuralfp import hierarchy
from neuralfp.corpus import family_task_database
from neuralfp.datagen import generate_dataset
from neuralfp.hierarchy import HierarchyConfig, evaluate, train_hierarchy
from neuralfp.neural import fitness_g
from neuralfp.persistence import decode_config
from neuralfp.signatures import parse_fingerprint_db

LINES = (5, 20, 60)
SEEDS = (7, 8, 9)
HELDOUT_ROWS, HELDOUT_SEED = 2000, 99


class _LastStop(logging.Handler):
    """Keeps the stop reason of the last run that neural.train logged."""

    reason = None

    def emit(self, record):
        if match := re.match(r"training stopped \((\w+)\)", record.getMessage()):
            self.reason = match[1]


def run(per_family: int, seed: int, overrides: dict) -> list[dict]:
    """Train and evaluate one cascade; one row per version stage."""
    db = parse_fingerprint_db(family_task_database(per_family=per_family))
    cfg = HierarchyConfig(**{"seed": seed, "samples": max(3000, 25 * len(db))} | overrides)
    heldout = generate_dataset(db, None, HELDOUT_ROWS, "relevance", seed=HELDOUT_SEED)
    stops, stats, train_stage = _LastStop(), {}, hierarchy.train_stage

    # a model keeps no stage's time, stop reason or training rows, so the run
    # wraps the stage trainer that train_hierarchy calls, and puts it back after
    def timed_stage(stage, X, Y, *args):
        start = time.perf_counter()
        trained = train_stage(stage, X, Y, *args)
        seconds = time.perf_counter() - start
        stats[stage.split(":", 1)[-1]] = (stops.reason, fitness_g(trained.net, trained.pipeline.apply(X), Y),
                                          seconds)
        return trained

    logger = logging.getLogger("neuralfp.neural")
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(stops)
    hierarchy.train_stage = timed_stage
    try:
        start = time.perf_counter()
        model = train_hierarchy(db, cfg=cfg)
        total = time.perf_counter() - start
    finally:
        hierarchy.train_stage = train_stage
        logger.removeHandler(stops)
        logger.setLevel(level)
    accuracy = evaluate(model, heldout).version_accuracy
    rows = []
    for name, stage in model.versions.items():
        stop, g, seconds = stats[name]
        rows.append({"per_family": per_family, "seed": seed, "stage": name, "lines": len(stage.labels),
                     "k": stage.pipeline.output_dim, "hidden": stage.net.sizes[1],
                     "generations": stage.net.history.generations(), "stop": stop, "G": g,
                     "accuracy": accuracy[name], "seconds": seconds})
    worst = min(rows, key=lambda row: row["accuracy"])
    print(f"{per_family:>5} {seed:>4}  worst {worst['stage']} {worst['accuracy']:.3f}, "
          f"train_hierarchy {total:.1f} s")
    return rows


def main(argv=None) -> list[dict]:
    parser = argparse.ArgumentParser(description="version-stage accuracy against lines per family")
    parser.add_argument("--lines", type=int, nargs="+", default=LINES, help="lines per family")
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    parser.add_argument("--config", default="{}", help="JSON object of HierarchyConfig overrides")
    args = parser.parse_args(argv)
    try:
        overrides = decode_config(HierarchyConfig, json.loads(args.config), "--config")
        HierarchyConfig(**overrides)  # a bad value fails here, before any corpus is drawn
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"overrides {json.dumps(overrides, sort_keys=True)}; "
          f"held-out {HELDOUT_ROWS} rows, seed {HELDOUT_SEED}")
    rows = []
    for per_family in args.lines:
        for seed in args.seeds:
            rows += run(per_family, seed, overrides)
    print(f"{'N':>5} {'seed':>4} {'stage':8} {'lines':>5} {'k':>3} {'hidden':>6} {'gens':>4} {'stop':8} "
          f"{'G':>6} {'acc':>6} {'s':>6}")
    for row in rows:
        print(f"{row['per_family']:>5} {row['seed']:>4} {row['stage']:8} {row['lines']:>5} {row['k']:>3} "
              f"{row['hidden']:>6} {row['generations']:>4} {row['stop']:8} {row['G']:6.3f} "
              f"{row['accuracy']:6.3f} {row['seconds']:6.2f}")
    return rows


if __name__ == "__main__":
    main()
