"""Decision cascade: relevance, then OS family, then version analysis.

One network answers "is this host one of the families we care about";
one picks the family; per-family networks pick the version group.  Each
stage owns its reduction pipeline, fit on that stage's training slice.
Windows version analysis is delegated to the DCE-RPC endpoint classifier
when a dump is available, since the TCP/IP probes barely separate
Windows versions.  Every stage net, alone or in the cascade, trains
through train_stage on one HierarchyConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import (
    RELEVANT_FAMILIES,
    Dataset,
    SampleLabel,
    generate_dataset,
    in_stage,
    resolve_weights,
    sample_label,
    stage_outputs,
    stage_targets,
)
from .dcerpc import WindowsRefiner, WindowsVerdict, report_windows
from .encoding import TOTAL_NEURONS, EndpointMap, encode_observation, has_encoded_field
from .neural import Mlp, TrainConfig, forward, init_mlp, train
from .preprocess import VARIANCE_TARGET, ReductionPipeline, fit_pipeline
from .signatures import Observation, Signature


# hidden-layer size by stage short name, for every stage a dataset can carry
STAGE_HIDDEN = {"relevance": 20, "family": 20, "Windows": 8, "Linux": 18, "Solaris": 7, "OpenBSD": 4,
                "FreeBSD": 8, "NetBSD": 8}
# every stage net stops this many generations after its last rise in G (neural.train)
STAGE_PATIENCE = 5

OUTCOMES = ("perfect match", "partial match", "error", "no answer")


class HierarchyError(ValueError):
    pass


class ObservationError(HierarchyError):
    """An observation with no field the layout encodes: an all-zero vector, no evidence."""


@dataclass
class Stage:
    """One trained decision: a reduction pipeline, a net, output labels."""

    pipeline: ReductionPipeline
    net: Mlp
    labels: tuple[str, ...]

    def __post_init__(self):
        if (self.net.sizes[0], self.net.sizes[-1]) != (self.pipeline.output_dim, len(self.labels)):
            raise HierarchyError("expected net input width = PCA k and one net output per label")

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Net outputs for one encoded vector or for each row of a stack."""
        return forward(self.net, self.pipeline.apply(X))


@dataclass
class HierarchyModel:
    relevance: Stage
    family: Stage
    versions: dict[str, Stage]
    relevance_threshold: float = 0.0
    decision_threshold: float = 0.5
    windows: WindowsRefiner | None = None

    def __post_init__(self):
        if self.relevance.labels != ("relevant",) or not np.isfinite(
                [self.relevance_threshold, self.decision_threshold]).all():
            raise HierarchyError("expected a relevance stage labelled ('relevant',) and finite thresholds")

    def stages(self) -> dict[str, Stage]:
        """Every TCP/IP stage by short name, in cascade order: relevance, family, then the versions."""
        return {"relevance": self.relevance, "family": self.family, **self.versions}


@dataclass(frozen=True)
class HierarchyConfig:
    """The one training config; building it checks every range that needs no db."""

    seed: int = 0
    samples: int = 3000
    generations: int = 300
    target_error: float = 0.02
    lam: float = 0.01
    momentum: float = 0.8
    adaptive: bool = True
    variance: float = VARIANCE_TARGET
    relevance_threshold: float = 0.0
    decision_threshold: float = 0.5
    subset_size: int | None = None
    hidden: dict[str, int] = field(default_factory=dict)
    # train a DCE-RPC refiner on the synthetic dump corpus and attach it
    windows: bool = False

    def __post_init__(self):
        # stage seeds and sizes derive from these: reject them before any corpus is drawn
        if self.seed < 0 or any(h < 1 for h in self.hidden.values()):
            raise HierarchyError(f"hierarchy training needs seed >= 0 and every hidden size >= 1, "
                                 f"got seed {self.seed} and hidden {self.hidden}")
        # every score < NaN is False, so a NaN threshold would never answer "unknown"
        if not np.isfinite([self.relevance_threshold, self.decision_threshold]).all():
            raise HierarchyError(f"hierarchy training needs finite thresholds, got "
                                 f"relevance_threshold {self.relevance_threshold} "
                                 f"and decision_threshold {self.decision_threshold}")
        if not 0 < self.variance <= 1:
            raise HierarchyError(f"hierarchy training needs 0 < variance <= 1, got variance {self.variance}")
        self.train_config(self.seed)  # TrainConfig checks the keys it shares

    def train_config(self, seed: int) -> TrainConfig:
        """What every stage net trains with: the shared keys, STAGE_PATIENCE and seed."""
        return TrainConfig(generations=self.generations, target_error=self.target_error, lam=self.lam,
                           momentum=self.momentum, adaptive=self.adaptive, subset_size=self.subset_size,
                           patience=STAGE_PATIENCE, seed=seed)


@dataclass
class ClassificationResult:
    relevance: float
    family_scores: dict[str, float] | None
    version_scores: dict[str, float] | None
    verdict: tuple[str, str | None] | str
    stage_trace: tuple[str, ...]
    windows: WindowsVerdict | None = None

    def os_name(self) -> str | None:
        if isinstance(self.verdict, str):
            return None
        family, line = self.verdict
        return family if line is None else f"{family} {line}"


def train_stage(
    stage: str,
    X: np.ndarray,
    Y: np.ndarray,
    outputs: tuple[str, ...],
    cfg: HierarchyConfig,
    seed: int,
) -> Stage:
    """Train one stage net on its rows X with +-1 targets Y over outputs.

    The stage fits its pipeline to cfg.variance and a net sized by
    cfg.hidden, else STAGE_HIDDEN, under the stage's short name, seeded by
    seed.
    """
    if len(X) == 0:
        raise HierarchyError(f"stage {stage!r} has an empty dataset")
    pipe = fit_pipeline(X, variance=cfg.variance)
    name = stage.split(":", 1)[-1]
    hidden = cfg.hidden.get(name, STAGE_HIDDEN[name])
    net = init_mlp([pipe.output_dim, hidden, Y.shape[1]], seed=seed)
    train(net, pipe.apply(X), Y, cfg.train_config(seed))
    return Stage(pipe, net, tuple(outputs))


def train_hierarchy(
    db: list[Signature],
    prev: dict[str, float] | None = None,
    cfg: HierarchyConfig | None = None,
    corpus: tuple[np.ndarray, list[SampleLabel]] | None = None,
) -> HierarchyModel:
    """Train every stage of the cascade from a signature database.

    By default each stage draws its own Monte Carlo corpus, weighted by
    `prev`; pass `corpus` (encoded inputs plus their sample labels, e.g.
    the training side of a holdout split) to slice every stage from shared
    data instead.  A family with two lines in the db and data gets a version
    net; Windows never does, since DCE-RPC, not TCP/IP probes, refines it.
    """
    cfg = cfg or HierarchyConfig()
    if corpus is not None and prev is not None:
        raise HierarchyError("prevalence weights shape a drawn corpus; a given corpus takes none")
    weights = resolve_weights(db, prev) if corpus is None else ()
    # a family has data if it has a row of the given corpus, else a signature of positive weight
    with_data = ({label.family for label in corpus[1]} if corpus
                 else {sample_label(sig).family for sig, w in zip(db, weights) if w > 0})
    table = {"relevance": "relevance", "family": "family"} | {
        fam: f"version:{fam}" for fam in RELEVANT_FAMILIES
        if fam != "Windows" and fam in with_data and len(stage_outputs(db, f"version:{fam}")) >= 2}
    if unknown := sorted(set(cfg.hidden) - set(table)):
        raise HierarchyError(f"hidden sizes for unknown stages {unknown}; the stages are {list(table)}")
    if corpus is None:  # the checks of a drawn corpus, made before any stage draws or trains
        if cfg.samples < (need := sum(w > 0 for w in weights)):  # relevance draws each at least once
            raise HierarchyError(f"hierarchy training needs samples >= {need}, the positive-weight "
                                 f"signature count, got samples {cfg.samples}")
        for stage in table.values():  # a stage with no signature or no positive weight fails
            resolve_weights([s for s in db if in_stage(sample_label(s), stage)], prev, f"stage {stage!r}")
    trained: dict[str, Stage] = {}
    for index, (name, stage) in enumerate(table.items()):
        seed = cfg.seed * 1000 + index  # a stage the table leaves out takes no index
        if corpus is None:
            ds = generate_dataset(db, prev, cfg.samples, stage=stage, seed=seed)
        inputs, labels = corpus or (ds.inputs, ds.labels)
        rows = [i for i, l in enumerate(labels) if in_stage(l, stage)]
        outputs = stage_outputs(db, stage)
        X = np.asarray(inputs, dtype=float)[rows]
        Y = stage_targets([labels[i] for i in rows], stage, outputs)
        trained[name] = train_stage(stage, X, Y, outputs, cfg, seed)

    refiner = None
    if cfg.windows:
        from .dcerpc import synthetic_windows_corpus, train_windows_net

        refiner = train_windows_net(synthetic_windows_corpus(seed=cfg.seed))

    return HierarchyModel(
        relevance=trained.pop("relevance"),
        family=trained.pop("family"),
        versions=trained,
        relevance_threshold=cfg.relevance_threshold,
        decision_threshold=cfg.decision_threshold,
        windows=refiner,
    )


def classify_batch(
    model: HierarchyModel, X: np.ndarray, dumps: list[EndpointMap | None] | None = None
) -> list[ClassificationResult]:
    """Run the cascade on encoded rows, one result per row.

    Each stage scores only the rows that reach it (X itself, uncopied,
    when all do), and every product is taken row by row, so row i gets
    the same bits as a batch of one: classify_vector(model, X[i], dumps[i]).
    A dump needs a model trained with a Windows refiner, since no other
    stage reads one.
    """
    X = np.asarray(X, dtype=float)
    if dumps is not None and len(dumps) != len(X):
        raise HierarchyError(f"{len(dumps)} endpoint dumps for {len(X)} rows")
    if model.windows is None and any(d is not None for d in dumps or ()):
        raise HierarchyError('an endpoint dump needs a model trained with "windows": true')
    if len(X) == 0:
        return []
    dumps = dumps or [None] * len(X)
    relevance = model.relevance.scores(X)[:, 0].tolist()
    results = [ClassificationResult(r, None, None, "not relevant", ("relevance",))
               if r < model.relevance_threshold else None for r in relevance]
    reached = [i for i, r in enumerate(results) if r is None]

    trace = ("relevance", "family")
    family_scores: dict[int, dict[str, float]] = {}
    by_family: dict[str, list[int]] = {}
    scores = model.family.scores(X if len(reached) == len(X) else X[reached]) if reached else ()
    for i, out in zip(reached, scores):
        family_scores[i] = dict(zip(model.family.labels, out.tolist()))
        best = int(out.argmax())
        family = model.family.labels[best]
        verdict, windows = (family, None), None
        if out[best] < model.decision_threshold:
            verdict = "unknown"
        elif family == "Windows" and dumps[i] is not None:
            windows = model.windows.classify(dumps[i])
            verdict = ("Windows", f"{windows.version} {windows.edition} sp{windows.service_pack}")
        elif family in model.versions:
            by_family.setdefault(family, []).append(i)
            continue
        results[i] = ClassificationResult(relevance[i], family_scores[i], None, verdict,
                                          trace + (("dcerpc",) if windows else ()), windows)

    for family, rows in by_family.items():
        stage = model.versions[family]
        for i, out in zip(rows, stage.scores(X if len(rows) == len(X) else X[rows])):
            best = int(out.argmax())
            verdict = ("unknown" if out[best] < model.decision_threshold
                       else (family, stage.labels[best]))
            results[i] = ClassificationResult(relevance[i], family_scores[i],
                                              dict(zip(stage.labels, out.tolist())), verdict,
                                              trace + (f"version:{family}",))
    return results


def classify_vector(
    model: HierarchyModel, vec: np.ndarray, dump: EndpointMap | None = None
) -> ClassificationResult:
    """Run the cascade on one already-encoded feature vector: a batch of one."""
    return classify_batch(model, np.asarray(vec, dtype=float)[None, :], [dump])[0]


def classify(
    model: HierarchyModel, obs: Observation, dump: EndpointMap | None = None
) -> ClassificationResult:
    """Encode one observation and run the cascade on it (see ObservationError)."""
    if not has_encoded_field(obs):
        raise ObservationError("no probe field the layout encodes")
    if (width := model.relevance.pipeline.width) != TOTAL_NEURONS:
        raise HierarchyError(f"model/observation layout mismatch: model expects {width} "
                             f"features, observation encodes to {TOTAL_NEURONS}")
    return classify_vector(model, encode_observation(obs), dump)


def report_classification(result: ClassificationResult) -> str:
    """The staged two-column listing, one section per executed stage."""
    lines = ["Relevant / not relevant analysis"]
    lines.append(f"    {result.relevance:.17f} relevant")
    if result.verdict == "not relevant":
        lines.append("Host is not relevant; analysis stopped.")
        return "\n".join(lines)
    lines.append("OS family analysis")
    for name, score in sorted(result.family_scores.items(), key=lambda p: -p[1]):
        lines.append(f"    {score:.17f} {name}")
    if result.windows is not None:
        lines.append(report_windows(result.windows))
    elif result.version_scores is not None:
        family = result.stage_trace[-1].split(":", 1)[1]
        lines.append(f"{family} version analysis")
        for name, score in sorted(result.version_scores.items(), key=lambda p: -p[1]):
            lines.append(f"    {score:.17f} {name}")
    name = result.os_name()
    if name is None:
        lines.append("OS unknown: strongest score fell below the decision threshold.")
    else:
        lines.append(f"Setting OS to {name}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Evaluation


def _wilson(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class EvaluationReport:
    n: int
    relevance_accuracy: float
    family_accuracy: float
    family_interval: tuple[float, float]
    version_accuracy: dict[str, float]
    confusion: np.ndarray
    confusion_labels: tuple[str, ...]
    categories: dict[str, int]

    def render(self) -> str:
        lines = [f"Evaluation over {self.n} held-out observations"]
        lines.append(f"  relevance accuracy: {self.relevance_accuracy:.4f}")
        lo, hi = self.family_interval
        lines.append(
            f"  family accuracy:    {self.family_accuracy:.4f} (95% CI {lo:.4f}-{hi:.4f})"
        )
        for fam, acc in sorted(self.version_accuracy.items()):
            lines.append(f"  {fam} version accuracy: {acc:.4f}")
        lines.append("  confusion (rows true, columns predicted):")
        width = max(len(l) for l in self.confusion_labels) + 1
        header = " " * (width + 2) + " ".join(f"{l:>{width}}" for l in self.confusion_labels)
        lines.append(header)
        for i, lab in enumerate(self.confusion_labels):
            row = " ".join(f"{int(v):>{width}}" for v in self.confusion[i])
            lines.append(f"  {lab:>{width}} {row}")
        lines.append("  outcomes: " + ", ".join(f"{k} {self.categories[k]}" for k in OUTCOMES))
        return "\n".join(lines)


def _outcome(label: SampleLabel, verdict) -> str:
    if verdict == "unknown":
        return "no answer"
    if not label.relevant:
        return "perfect match" if verdict == "not relevant" else "error"
    if isinstance(verdict, str) or verdict[0] != label.family:
        return "error"
    if verdict[1] is not None and verdict[1] == label.line:
        return "perfect match"
    return "partial match"


def evaluate(model: HierarchyModel, heldout: Dataset) -> EvaluationReport:
    """Score every stage on held-out data and bucket cascade outcomes.

    Stage accuracies are measured independently on the rows where ground
    truth makes the stage applicable (family accuracy over truly
    relevant rows, and so on); relevance accuracy reads the cascade's own
    first decision.  The outcome buckets come from one classify_batch
    call: perfect match needs family and version both right, partial
    match is a right family with a missing or wrong version, "unknown"
    verdicts count as no answer, and everything else is an error.
    """
    X = heldout.inputs
    labels = heldout.labels
    if len(X) == 0:
        raise HierarchyError("held-out dataset has no rows")
    if (width := X.shape[1]) != (want := model.relevance.pipeline.width):
        raise HierarchyError(f"held-out dataset has {width} input columns, the model expects {want}")
    fam_labels = model.family.labels
    if unknown := sorted({str(l.family) for l in labels if l.relevant} - set(fam_labels)):
        raise HierarchyError(f"held-out labels name families the model does not know: {unknown}")
    results = classify_batch(model, X)
    rel_truth = np.array([l.relevant for l in labels], dtype=bool)
    rel_pred = np.array([r.verdict != "not relevant" for r in results], dtype=bool)
    relevance_accuracy = float((rel_pred == rel_truth).mean())

    relevant = [i for i, l in enumerate(labels) if in_stage(l, "family")]
    fam_pred = model.family.scores(X[relevant]).argmax(axis=1)
    confusion = np.zeros((len(fam_labels), len(fam_labels)))
    for i, pred in zip(relevant, fam_pred):
        confusion[fam_labels.index(labels[i].family), pred] += 1
    fam_ok = int(np.trace(confusion))
    fam_total = len(relevant)
    family_accuracy = fam_ok / fam_total if fam_total else 0.0

    version_accuracy: dict[str, float] = {}
    for fam, stage in model.versions.items():
        rows = [i for i, l in enumerate(labels) if in_stage(l, f"version:{fam}")]
        if not rows:
            continue
        pred = stage.scores(X[rows]).argmax(axis=1)
        ok = sum(stage.labels[p] == labels[i].line for p, i in zip(pred, rows))
        version_accuracy[fam] = ok / len(rows)

    categories = dict.fromkeys(OUTCOMES, 0)
    for label, result in zip(labels, results):
        categories[_outcome(label, result.verdict)] += 1

    return EvaluationReport(
        n=len(X),
        relevance_accuracy=relevance_accuracy,
        family_accuracy=family_accuracy,
        family_interval=_wilson(fam_ok, fam_total),
        version_accuracy=version_accuracy,
        confusion=confusion,
        confusion_labels=fam_labels,
        categories=categories,
    )
