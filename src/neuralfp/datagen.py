"""Monte Carlo corpus synthesis from a fingerprint database.

Signatures are population descriptions, not points: a rule like gcd=<6
covers six concrete values.  Training corpora are drawn by sampling each
rule uniformly (one of its choices; a literal as is, a numeric one in
upper-case hex, a Range uniformly over its integers up to the field's
bound), so every sample matches its source signature perfectly by
construction.  Each signature object is compiled once, on first use, into
a plan both samplers share while it lives: its fixed fields and, in rule
order, its draws (the rules with several choices or a Range), which one
loop makes.  generate_dataset encodes a plan's fixed fields once a call,
as a template row; each row copies it and writes only its drawn fields'
slots: the bits encode_observation gives the same draw's sample_observation.

Sample counts follow a prevalence table, apportioned by largest remainder
after reserving one sample per signature with positive weight.  Each
signature samples from its own (seed, index) substream, so the corpus is
reproducible and independent of evaluation order.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from math import floor, isfinite

import numpy as np

from .encoding import FIELDS, TOTAL_NEURONS, encode_observation
from .signatures import NUMERIC_FIELDS, Observation, Range, Signature, lines

# OS families the pipeline is trained to tell apart, in output order.
RELEVANT_FAMILIES = ("Windows", "Linux", "Solaris", "OpenBSD", "FreeBSD", "NetBSD")
_plans: dict[int, tuple] = {}  # id(signature) -> its _plan while it lives; callers never write one


class GenerationError(ValueError):
    pass


def signature_family(sig: Signature) -> str | None:
    """First class family that names a supported OS family, else None."""
    return sample_label(sig).family


def signature_line(sig: Signature) -> str | None:
    """Version line of the class that carries the supported family."""
    return sample_label(sig).line


def parse_prevalence(text: str) -> dict[str, float]:
    """Sampling weights keyed by signature or family name, one
    '<weight> <name>' per line, each name once. '#' comments allowed."""
    weights, first_line = {}, {}
    for lineno, line in lines(text):
        head, _, name = line.partition(" ")
        name = name.strip()
        try:
            w = float(head)
        except ValueError:
            raise GenerationError(f"prevalence line {lineno}: bad weight {head!r}") from None
        if not isfinite(w) or w < 0 or not name:
            raise GenerationError(f"prevalence line {lineno}: need a finite non-negative weight and name")
        if name in first_line:
            raise GenerationError(f"prevalence lines {first_line[name]} and {lineno} "
                                  f"both weigh {name!r}")
        weights[name], first_line[name] = w, lineno
    return weights


def resolve_weights(db: list[Signature], prev: dict[str, float] | None, where: str = "the db") -> list[float]:
    """Per-signature weights, normalized to sum 1.

    Signature-name keys override; a family key spreads its mass equally over
    the family's signatures; everything else keeps the uniform default.
    An error that db is empty or that every weight is zero names db as where.
    """
    if not db:
        raise GenerationError(f"{where} has no signatures to sample")
    uniform = 1.0 / len(db)
    weights = [uniform] * len(db)
    if prev is not None:
        families = [signature_family(sig) for sig in db]
        family_sizes = Counter(families)
        for i, (sig, fam) in enumerate(zip(db, families)):
            if sig.name in prev:
                weights[i] = prev[sig.name]
            elif fam in prev:
                weights[i] = prev[fam] / family_sizes[fam]
    mass = sum(weights)
    if not isfinite(mass):
        raise GenerationError(f"signature weights must sum to a finite number, got {mass}")
    if mass <= 0:
        raise GenerationError(f"all signature weights of {where} are zero")
    return [w / mass for w in weights]


def signature_counts(weights: list[float], total: int) -> list[int]:
    """Largest-remainder apportionment with one sample reserved per
    positive-weight signature, so coverage is guaranteed."""
    positive = [i for i, w in enumerate(weights) if w > 0]
    if total < len(positive):
        raise GenerationError(f"total {total} below positive-weight signature count {len(positive)}")
    mass = sum(weights[i] for i in positive)
    rest = total - len(positive)
    counts = [0] * len(weights)
    try:
        quotas = {i: weights[i] / mass * rest for i in positive}
    except OverflowError:  # an int beyond every float
        raise GenerationError(f"total of {len(str(total))} digits is too large to apportion") from None
    for i in positive:
        counts[i] = 1 + floor(quotas[i])
    assigned = sum(counts)
    order = sorted(positive, key=lambda i: (-(quotas[i] - floor(quotas[i])), i))
    for i in order[: total - assigned]:
        counts[i] += 1
    return counts


def _plan(sig: Signature) -> tuple[dict[str, dict[str, str | int]], list[tuple]]:
    """sig compiled on first use, so its checks run once: each test's fields
    in first-rule order, each holding a single literal's text or the index of
    the draw that decides it, and the draws in rule order as (test, field,
    choices).  A later rule of a field overrides an earlier one."""
    if (plan := _plans.get(id(sig))) is not None:
        return plan
    tests, draws = {}, []
    for tid, rules in sig.tests.items():
        fields = tests[tid] = {}
        for rule in rules:
            if not (choices := rule.choices):  # an unknown field: nothing to encode
                continue
            if len(choices) == 1 and not isinstance(c := choices[0], Range):
                fields[rule.field] = c if isinstance(c, str) else f"{c:X}"
                continue
            field, bound, drawn = rule.field, NUMERIC_FIELDS.get(rule.field), []
            for c in choices:
                if isinstance(c, Range):
                    if bound is None:
                        raise GenerationError(f"{sig.name}: {tid}.{field}: comparison in a non-numeric field")
                    if not (c := c.span(bound)):
                        raise GenerationError(f"{sig.name}: {tid}.{field}: unsatisfiable interval")
                elif not (isinstance(c, str) or type(c) is int and bound is not None and 0 <= c <= bound):
                    c = f"{c:X}"
                drawn.append(c)
            fields[field] = len(draws)
            draws.append((tid, field, drawn))
    weakref.finalize(sig, _plans.pop, id(sig), None)
    _plans[id(sig)] = tests, draws
    return tests, draws


def _draw(draws: list[tuple], rng) -> list[str | int]:
    """One value per draw, in order: a choice, or an int of a Range.  This
    loop alone makes the rng calls, so both samplers draw the same stream."""
    values = []
    for _, _, choices in draws:
        c = choices[0] if len(choices) == 1 else choices[int(rng.integers(len(choices)))]
        values.append(int(rng.integers(c.start, c.stop)) if type(c) is range else c)
    return values


def sample_observation(sig: Signature, rng) -> Observation:
    """Draw one concrete observation satisfying every rule of sig."""
    tests, draws = _plan(sig)
    observed = {tid: fields.copy() for tid, fields in tests.items()}  # the plan is never written
    for k, ((tid, field, _), value) in enumerate(zip(draws, _draw(draws, rng))):
        if tests[tid][field] == k:  # no later rule overrode it
            observed[tid][field] = value if isinstance(value, str) else f"{value:X}"
    # a silent probe carries nothing but the fact that it stayed silent
    return Observation(None, {t: {"Resp": "N"} if f.get("Resp") == "N" else f for t, f in observed.items()})


# each (test, field)'s slots in the vector
_SLOTS = {(f.test, f.name): slice(f.start, f.stop) for f in FIELDS}


@dataclass(frozen=True)
class SampleLabel:
    signature: str
    relevant: bool
    family: str | None
    line: str | None


def sample_label(sig: Signature) -> SampleLabel:
    """The provenance label every sample of sig carries: the family and
    line of its first class that names a supported OS family."""
    for _, family, line, _ in sig.classes:
        if family in RELEVANT_FAMILIES:
            return SampleLabel(sig.name, True, family, line)
    return SampleLabel(sig.name, False, None, None)


@dataclass
class Dataset:
    """Encoded samples plus per-sample provenance labels.

    output_labels decodes target columns: ("relevant",) for the relevance
    stage, the six family names for the family stage, version lines for a
    version stage.
    """

    stage: str
    inputs: np.ndarray
    targets: np.ndarray
    labels: list[SampleLabel]
    output_labels: tuple[str, ...]
    seed: int

    def __post_init__(self):
        stage_outputs([], self.stage)  # an unknown stage or family raises
        if not (self.inputs.ndim == 2 and len(self.inputs) == len(self.labels)
                and np.isfinite(self.inputs).all()
                and np.array_equal(self.targets, stage_targets(self.labels, self.stage, self.output_labels))):
            raise GenerationError("expected one 2-D input row and target row per label, finite inputs, and "
                                  "targets of -1 or +1 as its labels give")


def stage_outputs(db: list[Signature], stage: str) -> tuple[str, ...]:
    """Output labels of a stage, in target-column order."""
    if stage == "relevance":
        return ("relevant",)
    if stage == "family":
        return RELEVANT_FAMILIES
    if not stage.startswith("version:"):
        raise GenerationError(f"unknown stage {stage!r}")
    family = stage.split(":", 1)[1]
    if family not in RELEVANT_FAMILIES:
        raise GenerationError(f"unknown family {family!r}")
    return tuple(sorted({l.line for l in map(sample_label, db) if in_stage(l, stage)}))


def in_stage(label: SampleLabel, stage: str) -> bool:
    """Whether a sample belongs to a stage's slice: every sample for
    relevance, relevant ones for family, one family's for version:<F>."""
    if stage == "relevance":
        return True
    if stage == "family":
        return label.relevant
    return label.family == stage.split(":", 1)[1]


def stage_targets(
    labels: list[SampleLabel], stage: str, outputs: tuple[str, ...]
) -> np.ndarray:
    """One +-1 row per label: +1 in the column whose output label equals
    the sample's relevance, family or line, -1 everywhere else."""
    if stage == "relevance":
        keys = ["relevant" if l.relevant else None for l in labels]
    else:
        keys = [l.family if stage == "family" else l.line for l in labels]
    rows = [[1.0 if key == out else -1.0 for out in outputs] for key in keys]
    return np.array(rows, dtype=float).reshape(len(labels), len(outputs))


def generate_dataset(
    db: list[Signature],
    prev: dict[str, float] | None,
    total: int,
    stage: str = "relevance",
    seed: int = 0,
) -> Dataset:
    """Synthesize an encoded, labeled corpus for one pipeline stage."""
    output_labels = stage_outputs(db, stage)
    labeled = [(sig, sample_label(sig)) for sig in db]
    known = {name for _, label in labeled for name in (label.signature, label.family)}
    if prev is not None and (unknown := sorted(set(prev) - known)):
        raise GenerationError(f"prevalence names no signature or family of the db: {', '.join(unknown)}")
    slice_ = [(sig, label) for sig, label in labeled if in_stage(label, stage)]
    counts = signature_counts(resolve_weights([sig for sig, _ in slice_], prev, f"stage {stage!r}"), total)
    inputs = np.zeros((total, TOTAL_NEURONS))
    labels: list[SampleLabel] = []
    memo: dict[tuple[str, str, str], np.ndarray] = {}  # a drawn literal's slots, encoded and warned of once
    for i, ((sig, label), count) in enumerate(zip(slice_, counts)):
        if not count:  # nothing drawn, nothing checked
            continue
        tests, draws = _plan(sig)
        rng, start = np.random.default_rng((seed, i)), len(labels)
        labels += [label] * count
        if any(type(fields.get("Resp")) is int for fields in tests.values()):
            # a drawn Resp decides whether the fixed fields of its test count: encode such rows whole
            for r in range(start, start + count):
                inputs[r] = encode_observation(sample_observation(sig, rng))
            continue
        # the template row encodes the fixed fields; a test whose every field is drawn still answers
        template = encode_observation(Observation(None, {
            tid: {"Resp": "N"} if fields.get("Resp") == "N"
            else {k: v for k, v in fields.items() if isinstance(v, str)} or {"Resp": "Y"}
            for tid, fields in tests.items() if fields}))
        # each row writes the slots of its drawn fields that no later rule or silent probe overrides
        steps = [(k, tid, name, _SLOTS[tid, name]) for k, (tid, name, _) in enumerate(draws)
                 if tests[tid][name] == k and (tid, name) in _SLOTS and tests[tid].get("Resp") != "N"]
        for r in range(start, start + count):
            inputs[r] = template
            row, values = inputs[r], _draw(draws, rng)  # written in place
            for k, tid, name, where in steps:
                if type(value := values[k]) is int:
                    row[where.start] = float(value)
                    continue
                if (key := (tid, name, value)) not in memo:
                    memo[key] = encode_observation(Observation(None, {tid: {name: value}}))[where].copy()
                row[where] = memo[key]
    targets = stage_targets(labels, stage, output_labels)
    return Dataset(stage, inputs, targets, labels, output_labels, seed)
