"""Per-layer metrics: which calls a traced pass wraps, and what it reports.

Each target is the attribute a caller looks up at call time, so wrapping
it catches the program's own calls as well as the benchmark's.  The
metric names, units and directions here are the `per_layer` list of
BENCHMARK.json (a test keeps the two equal).
"""

from __future__ import annotations

from neuralfp import datagen, dcerpc, hierarchy, neural, persistence, preprocess, signatures

import pipeline
import stats
from tracer import Span, Tracer, relabel, self_times

LAYERS = ("signatures", "encoding", "datagen", "preprocess", "neural",
          "hierarchy", "dcerpc", "persistence", "cli")
STAGES = ("relevance", "family", "Linux", "Solaris", "OpenBSD", "FreeBSD", "NetBSD")
DEPTHS = ("relevance", "family", "version", "dcerpc")
OUTCOMES = {"perfect": "perfect match", "partial": "partial match",
            "error": "error", "no_answer": "no answer"}


def _first_arg(args, result):
    return id(args[0])


def _result(args, result):
    return id(result)


def _pairs(args, result):
    return len(args[1])


# (owner, attribute, span name, tag)
TARGETS = (
    (signatures, "parse_fingerprint_db", "signatures.parse_fingerprint_db", None),
    (signatures, "parse_observation", "signatures.parse_observation", None),
    (signatures, "best_fit", "signatures.best_fit", None),
    (datagen, "generate_dataset", "datagen.generate_dataset", None),
    (datagen, "sample_observation", "datagen.sample_observation", None),
    (datagen, "encode_observation", "encoding.encode_observation", None),
    (hierarchy, "encode_observation", "encoding.encode_observation", None),
    (dcerpc, "encode_endpoint_map", "encoding.encode_endpoint_map", None),
    (dcerpc, "parse_endpoint_dump", "dcerpc.parse_endpoint_dump", None),
    (dcerpc.WindowsRefiner, "classify", "dcerpc.refine", None),
    (dcerpc, "train_windows_net", "dcerpc.train_windows_net", _result),
    (preprocess, "fit_pipeline", "preprocess.fit_pipeline", _result),
    (hierarchy, "fit_pipeline", "preprocess.fit_pipeline", _result),
    (preprocess.ReductionPipeline, "apply", "preprocess.apply", _first_arg),
    (hierarchy, "train", "neural.train", _first_arg),
    (neural, "backprop_generation", "neural.backprop_generation", _pairs),
    (hierarchy, "forward", "neural.forward", None),
    (hierarchy, "train_hierarchy", "hierarchy.train_hierarchy", None),
    (hierarchy, "classify", "hierarchy.classify", None),
    (hierarchy, "evaluate", "hierarchy.evaluate", None),
    (persistence, "save", "persistence.save", None),
    (persistence, "load", "persistence.load", None),
)

# per-call timings: (metric stem, span name, unit, host requests only)
# Host-only timings leave out the batch calls made while training and
# evaluating, so they read as the per-host cost `neuralfp classify` pays.
PER_CALL = (
    ("signatures.parse_observation", "signatures.parse_observation", "us", False),
    ("signatures.best_fit", "signatures.best_fit", "ms", False),
    ("encoding.encode_observation", "encoding.encode_observation", "us", False),
    ("encoding.encode_endpoint_map", "encoding.encode_endpoint_map", "us", False),
    ("dcerpc.parse_endpoint_dump", "dcerpc.parse_endpoint_dump", "us", False),
    ("dcerpc.refine", "dcerpc.refine", "us", False),
    ("datagen.sample_observation", "datagen.sample_observation", "us", False),
    ("preprocess.apply", "preprocess.apply", "us", True),
    ("neural.forward", "neural.forward", "us", True),
    ("preprocess.fit_pipeline", "preprocess.fit_pipeline", "s", False),
)

# whole-call timings: (metric, span name, request id or None for any, unit)
TOTALS = (
    ("signatures.parse_fingerprint_db_ms", "signatures.parse_fingerprint_db", None, "ms"),
    ("datagen.generate_dataset_s", "datagen.generate_dataset", "dataset", "s"),
    ("hierarchy.evaluate_s", "hierarchy.evaluate", None, "s"),
    ("dcerpc.train_windows_net_s", "dcerpc.train_windows_net", None, "s"),
    ("persistence.save_dataset_s", "persistence.save", "dataset", "s"),
    ("persistence.load_dataset_s", "persistence.load", "dataset", "s"),
    ("persistence.save_model_ms", "persistence.save", "model", "ms"),
    ("persistence.load_model_ms", "persistence.load", "model", "ms"),
)

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _catalog() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for stem, _, unit, _ in PER_CALL:
        out[f"{stem}_{unit}"] = (unit, "lower")
        out[f"{stem}.calls"] = ("count", "lower")
        out[f"{stem}.total_s"] = ("s", "lower")
    out["neural.backprop_us_per_pair"] = ("us", "lower")
    out["neural.backprop.pairs"] = ("count", "lower")
    out["neural.backprop.total_s"] = ("s", "lower")
    out["hierarchy.classify_self_us"] = ("us", "lower")
    out["hierarchy.classify.calls"] = ("count", "lower")
    out["hierarchy.classify.self_total_s"] = ("s", "lower")
    for name, _, _, unit in TOTALS:
        out[name] = (unit, "lower")
    out["cli.import_s"] = ("s", "lower")
    for stage in ("corpus",) + STAGES:
        out[f"preprocess.kept_columns.{stage}"] = ("count", "lower")
        out[f"preprocess.k.{stage}"] = ("count", "lower")
    for stage in STAGES:
        out[f"neural.train_s.{stage}"] = ("s", "lower")
        out[f"neural.generations.{stage}"] = ("count", "lower")
        out[f"neural.useful_generation_share.{stage}"] = ("share", "higher")
    out["signatures.best_fit_top1_family_hits"] = ("count", "higher")
    for d in DEPTHS:
        out[f"hierarchy.depth.{d}"] = ("count", "lower")
    for key in OUTCOMES:
        out[f"hierarchy.outcome.{key}"] = ("count", "higher" if key == "perfect" else "lower")
    out["persistence.dataset_bytes"] = ("bytes", "lower")
    out["persistence.model_bytes"] = ("bytes", "lower")
    for layer in LAYERS:
        out[f"{layer}.failed"] = ("count", "lower")
    out["trace.overhead_share"] = ("share", "lower")
    return out


METRICS = _catalog()


def install(tracer: Tracer) -> None:
    for owner, attr, name, tag in TARGETS:
        tracer.wrap(owner, attr, name, tag)


def _stages(model) -> dict[str, object]:
    stages = {"relevance": model.relevance, "family": model.family, **model.versions}
    missing = [s for s in STAGES if s not in stages]
    if missing:
        raise RuntimeError(f"trained model lacks the stages {missing}")
    return stages


def per_layer(spans: list[Span], r, import_s: float, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (`r` is its PassResult)."""
    stages = _stages(r.model)
    names_by_tag = {id(model_part): name for name, stage in stages.items()
                    for model_part in (stage.net, stage.pipeline)}
    names_by_tag[id(r.model.windows)] = "windows"
    relabel(spans, "train", names_by_tag)
    selfs = self_times(spans)

    def pick(name, rid=None, hosts_only=False):
        return [(s, own) for s, own in zip(spans, selfs)
                if s.name == name
                and (rid is None or s.rid == rid)
                and (not hosts_only or isinstance(s.rid, int))]

    out: dict[str, float] = {}
    for stem, name, unit, hosts_only in PER_CALL:
        chosen = pick(name, hosts_only=hosts_only)
        total = sum(s.duration for s, _ in chosen)
        out[f"{stem}_{unit}"] = total / len(chosen) * SCALE[unit] if chosen else 0.0
        out[f"{stem}.calls"] = len(chosen)
        out[f"{stem}.total_s"] = total

    chosen = pick("neural.backprop_generation")
    pairs = sum(s.tag for s, _ in chosen)
    total = sum(s.duration for s, _ in chosen)
    out["neural.backprop_us_per_pair"] = total / pairs * 1e6
    out["neural.backprop.pairs"] = pairs
    out["neural.backprop.total_s"] = total

    chosen = pick("hierarchy.classify", hosts_only=True)
    own = sum(o for _, o in chosen)
    out["hierarchy.classify_self_us"] = own / len(chosen) * 1e6
    out["hierarchy.classify.calls"] = len(chosen)
    out["hierarchy.classify.self_total_s"] = own

    for metric, name, rid, unit in TOTALS:
        out[metric] = sum(s.duration for s, _ in pick(name, rid)) * SCALE[unit]
    out["cli.import_s"] = import_s

    out["preprocess.kept_columns.corpus"] = r.reduce_kept
    out["preprocess.k.corpus"] = r.reduce_k
    for name in STAGES:
        stage = stages[name]
        out[f"preprocess.kept_columns.{name}"] = len(stage.pipeline.kept)
        out[f"preprocess.k.{name}"] = stage.pipeline.output_dim
        out[f"neural.train_s.{name}"] = sum(s.duration for s, _ in pick("neural.train", name))
        out[f"neural.generations.{name}"] = stage.net.history.generations()
        out[f"neural.useful_generation_share.{name}"] = stats.useful_generation_share(
            stage.net.history)

    out["signatures.best_fit_top1_family_hits"] = r.best_fit_hits
    depths = [pipeline.depth(v) for v in r.verdicts if v is not None]
    for d in DEPTHS:
        out[f"hierarchy.depth.{d}"] = depths.count(d)
    for key, bucket in OUTCOMES.items():
        out[f"hierarchy.outcome.{key}"] = r.report.categories[bucket]
    out["persistence.dataset_bytes"] = r.dataset_bytes
    out["persistence.model_bytes"] = r.model_bytes

    for layer in LAYERS:
        out[f"{layer}.failed"] = sum(s.error for s in spans if s.name.startswith(layer + "."))
    out["cli.failed"] += r.cold_failed
    out["trace.overhead_share"] = overhead_share
    return out
