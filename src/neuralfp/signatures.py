"""First-generation Nmap fingerprint database: parsing, matching, serialization.

A database is plain text.  Each record starts with a ``Fingerprint <name>``
line, followed by zero or more ``Class vendor | family | line | purpose``
lines and one test line per probe::

    Fingerprint OpenBSD 3.6 (i386)
    Class OpenBSD | OpenBSD | 3.X | general purpose
    T1(DF=N%W=4000%ACK=S++%Flags=AS%Ops=MNWNNT)

Test bodies are ``%``-separated ``field=expr`` assertions.  An expression is
a ``|``-separated list of alternatives; each alternative is a literal value,
a comparison (``<1C``, ``>5``, hex bounds) or a ``&``-conjunction of
comparisons.  Whitespace around tokens is ignored, so the spaced variant
``T1(DF=N % W=4000 % ...)`` is accepted too.  ``lines`` skips blank and ``#``
comment lines, and ``records`` groups header-led records, for every text
format neuralfp reads: databases, observations, dumps and prevalence tables.

Each rule is parsed once into a ``FieldConstraint``: its field and a tuple
of choices, one per alternative.  A choice is a ``str`` literal, an ``int``
for a literal of a numeric field, or a ``Range(lo, hi)``, the open interval
of a comparison chain, with ``None`` on an unbounded side, in a numeric field
only and holding an integer from 0 to the field's bound.  An unknown field's
rule keeps its raw text and has no choices, so it accepts any value.

Observations use the same test-line grammar but carry concrete values only;
a value holding ``|``, ``<``, ``>`` or ``&`` is rejected, whatever its field.
A literal of a numeric field, in either, must be bare hex (``[0-9A-F]+``)
and must not exceed the field's bound.

Best-fit scores come from an index of the db's rules (``_Index``), built on
the first call for that db; only the last db's index is kept.
"""

from __future__ import annotations

import logging
import math
import re
import weakref
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

import numpy as np

from .encoding import BARE_HEX, FIELDS

log = logging.getLogger(__name__)

# Each test's fields, in layout order: the encoding table minus its padding.
KNOWN_FIELDS = {test: tuple(f.name for f in FIELDS if f.test == test and f.kind != "pad")
                for test in dict.fromkeys(f.test for f in FIELDS)}

# Fields whose values are hexadecimal integers -> the sampler's upper bound.
NUMERIC_FIELDS = {f.name: f.bound for f in FIELDS if f.kind == "num"}

# lower-cased field name -> canonical spelling, per test
_FIELD_CASE = {
    tid: {f.lower(): f for f in fields} for tid, fields in KNOWN_FIELDS.items()
}


class ParseError(ValueError):
    """Raised on malformed database or observation text."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a
    '#' comment: the line grammar of every text format neuralfp reads."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if (line := raw.strip()) and line[0] != "#":
            yield lineno, line


def records(text: str, header: Callable[[str], Any]) -> Iterator[tuple[int, Any, list[tuple[int, str]]]]:
    """Group lines(text) into (line number, head, body) records.

    A line for which header(line) is not None opens a record, numbered by
    that line, with that value as head; body holds the (line number, line)
    pairs up to the next one.  Lines before the first header form record 0,
    whose head is None.
    """
    start, head, body = 0, None, []
    for lineno, line in lines(text):
        if (opened := header(line)) is None:
            body.append((lineno, line))
            continue
        if head is not None or body:
            yield start, head, body
        start, head, body = lineno, opened, []
    if head is not None or body:
        yield start, head, body


@dataclass(frozen=True)
class Range:
    """Open interval of hex integers: lo < value < hi, None on an unbounded side."""

    lo: int | None
    hi: int | None

    def span(self, bound: int) -> range:
        """The integers a sample of this Range takes in a field bounded by bound."""
        return range(0 if self.lo is None else self.lo + 1,
                     bound + 1 if self.hi is None else min(bound + 1, self.hi))


@dataclass(frozen=True)
class FieldConstraint:
    """One rule: the alternatives its field accepts, each a literal (an int
    in a numeric field) or a Range.  An unknown field's rule keeps its raw
    text and has no choices: it accepts any value."""

    field: str
    choices: tuple[str | int | Range, ...]
    raw: str | None = None


@dataclass(frozen=True)
class Signature:
    """One fingerprint record.

    classes holds (vendor, family, line, purpose) tuples; tests maps test id
    to its rules in database order, read-only, as a db's index outlives edits.
    """

    name: str
    classes: tuple[tuple[str, str, str, str], ...]
    tests: Mapping[str, tuple[FieldConstraint, ...]]

    def __post_init__(self):
        object.__setattr__(self, "tests", MappingProxyType(dict(self.tests)))


@dataclass(frozen=True)
class Observation:
    """Concrete probe results: test id -> field -> value."""

    name: str | None
    tests: dict[str, dict[str, str]]


_FP_RE = re.compile(r"^Fingerprint\s+(.*\S)\s*$")
_OBS_RE = re.compile(r"^Observation\s+(.*\S)\s*$")
_CLASS_RE = re.compile(r"^Class\s+(.*)$")
_TEST_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\s*\(")
_CMP_RE = re.compile(r"^([<>])\s*([0-9A-Fa-f]+)$")


def _parse_choice(text: str, lineno: int) -> str | Range:
    """One alternative: a literal, or a comparison or &-chain of them as the
    Range of its largest '>' and smallest '<' bound."""
    text = text.strip()
    lo = hi = None
    for part in text.split("&"):
        m = _CMP_RE.match(part.strip())
        if not m:
            if "&" in text:
                raise ParseError(f"bad conjunction term {part!r}", lineno)
            return text
        bound = int(m.group(2), 16)
        if m.group(1) == ">":
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return Range(lo, hi)


def _split_test_line(line: str, lineno: int) -> tuple[str, list[tuple[str, bool, str]]]:
    """Tokenize one test line into its id and its fields, in line order.

    Each field is (name, known, expr): the canonical name of a known field or
    the raw name of an unknown one, and the stripped expression, unparsed.
    """
    m = _TEST_RE.match(line)
    if not m:
        raise ParseError(f"unrecognized line {line!r}", lineno)
    tid = m.group(1)
    body = line[m.end():]
    # The closing paren may be lost to line truncation in circulated copies;
    # accept end-of-line as an implicit close but reject trailing garbage.
    if ")" in body:
        body, _, rest = body.partition(")")
        if rest.strip():
            raise ParseError(f"text after ')' in {line!r}", lineno)
    else:
        log.warning("line %d: unterminated test line %r", lineno, line)
    if tid not in _FIELD_CASE:
        log.warning("line %d: unknown test id %s", lineno, tid)
    cases = _FIELD_CASE.get(tid, {})
    fields = []
    seen = set()
    for token in body.split("%"):
        name, eq, expr = token.partition("=")
        if not eq:
            if token.strip():
                raise ParseError(f"missing '=' in {token.strip()!r}", lineno)
            continue
        name = name.strip()
        canonical = cases.get(name.lower())
        if canonical is None:
            log.warning("line %d: unknown field %s.%s kept verbatim", lineno, tid, name)
        key = canonical or name
        if key in seen:
            raise ParseError(f"duplicate field {key} in {tid}", lineno)
        seen.add(key)
        fields.append((key, canonical is not None, expr.strip()))
    return tid, fields


def _parse_rule(name: str, known: bool, expr: str, lineno: int) -> FieldConstraint:
    if not known:
        return FieldConstraint(name, (), expr)
    bound = NUMERIC_FIELDS.get(name)
    choices = [_parse_choice(a, lineno) for a in (expr if bound is None else expr.upper()).split("|")]
    for c in choices:
        if isinstance(c, Range):
            if bound is None:
                raise ParseError(f"comparison in non-numeric field {name}: {expr!r}", lineno)
            if not c.span(bound):
                raise ParseError(f"field {name}: no value in 0..{bound:X} satisfies {expr!r}", lineno)
        elif bound is not None and not BARE_HEX.fullmatch(c):
            raise ParseError(f"field {name} wants bare hex values, got {expr!r}", lineno)
        elif bound is not None and int(c, 16) > bound:
            raise ParseError(f"field {name}: literal {c} above its bound {bound:X}", lineno)
    return FieldConstraint(name, tuple(c if bound is None or isinstance(c, Range) else int(c, 16)
                                       for c in choices))


def parse_fingerprint_db(text: str) -> list[Signature]:
    """Parse a fingerprint database. Raises ParseError with the line number."""
    sigs: list[Signature] = []
    for _, head, body in records(text, _FP_RE.match):
        classes: list[tuple[str, str, str, str]] = []
        tests: dict[str, tuple[FieldConstraint, ...]] = {}
        for lineno, line in body:
            m = _CLASS_RE.match(line)
            if head is None:
                raise ParseError(f"{'Class' if m else 'test'} line before any Fingerprint line", lineno)
            if m:
                parts = [p.strip() for p in m.group(1).split("|")]
                if len(parts) != 4:
                    raise ParseError(f"Class line needs 4 '|' fields, got {len(parts)}", lineno)
                classes.append(tuple(parts))
                continue
            tid, fields = _split_test_line(line, lineno)
            rules = tuple(_parse_rule(*f, lineno) for f in fields)
            if tid in tests:
                raise ParseError(f"duplicate test {tid}", lineno)
            tests[tid] = rules
        sigs.append(Signature(head.group(1), tuple(classes), tests))
    return sigs


def _format_rule(rule: FieldConstraint) -> str:
    """A rule's expression: its raw text, or its choices, a Range as >lo&<hi."""
    if not rule.choices:
        return rule.raw
    alts = []
    for c in rule.choices:
        if isinstance(c, Range):
            c = "&".join(f"{op}{b:X}" for op, b in ((">", c.lo), ("<", c.hi)) if b is not None)
        alts.append(c if isinstance(c, str) else f"{c:X}")
    return "|".join(alts)


def format_signature(sig: Signature) -> str:
    lines = [f"Fingerprint {sig.name}"]
    for cls in sig.classes:
        lines.append("Class " + " | ".join(cls))
    for tid, rules in sig.tests.items():
        body = "%".join(f"{r.field}={_format_rule(r)}" for r in rules)
        lines.append(f"{tid}({body})")
    return "\n".join(lines)


def serialize_fingerprint_db(sigs: list[Signature]) -> str:
    """Inverse of parse_fingerprint_db up to structural equality."""
    return "\n\n".join(format_signature(s) for s in sigs) + "\n"


class _Index:
    """A db's rules as parallel arrays of signature, (test, field) slot and
    distinct-constraint numbers.  Per slot, a literal's constraints are
    keyed by the literal, an unknown field's by None, as they match every
    value; a Range's are open intervals."""

    def __init__(self, db: list[Signature]):
        self.size = len(db)
        self.slots: dict[tuple[str, str], int] = {}
        self.equals: dict[tuple[int, str | int | None], list[int]] = {}
        self.intervals: dict[int, list[tuple[float | int, float | int, int]]] = {}
        numbers: dict[tuple[int, tuple], int] = {}
        rules = []
        for s, sig in enumerate(db):
            for tid, fields in sig.tests.items():
                for rule in fields:
                    slot = self.slots.setdefault((tid, rule.field), len(self.slots))
                    count = len(numbers)
                    number = numbers.setdefault((slot, rule.choices), count)
                    if number == count:  # a new constraint: key each of its choices
                        for c in rule.choices or (None,):
                            if isinstance(c, Range):
                                lo = -math.inf if c.lo is None else c.lo
                                hi = math.inf if c.hi is None else c.hi
                                self.intervals.setdefault(slot, []).append((lo, hi, number))
                            else:
                                self.equals.setdefault((slot, c), []).append(number)
                    rules += (s, slot, number)
        self.rule_sig, self.rule_slot, self.rule_constraint = np.array(rules, np.intp).reshape(-1, 3).T
        self.constraints = len(numbers)

    def scores(self, obs: Observation) -> np.ndarray:
        observed, satisfied = np.zeros(len(self.slots)), np.zeros(self.constraints)
        for tid, fields in obs.tests.items():
            for name, value in fields.items():
                slot = self.slots.get((tid, name))
                if slot is None:
                    continue
                observed[slot] = 1
                hits = self.equals.get((slot, None), []) + self.equals.get((slot, value), [])
                if BARE_HEX.fullmatch(value):  # only bare hex is a number
                    v = int(value, 16)
                    hits += self.equals.get((slot, v), [])
                    hits += [number for lo, hi, number in self.intervals.get(slot, ()) if lo < v < hi]
                satisfied[hits] = 1
        considered = np.bincount(self.rule_sig, observed[self.rule_slot], self.size)
        matched = np.bincount(self.rule_sig, satisfied[self.rule_constraint], self.size)
        return np.divide(matched, considered, out=np.zeros(self.size), where=considered > 0)


# the last db's index, with weak references to its signatures in order
_last: tuple[list[weakref.ref], _Index] | None = None


def match_scores(db: list[Signature], obs: Observation) -> np.ndarray:
    """Each signature's fraction of considered rules the observation satisfies.

    A rule is considered only when the observation carries its test and
    field; with nothing considered the score is 0.0.  This is the classic
    best-fit score and inherits its bias toward sparse signatures.  The
    index is reused while the same signature objects come in the same order.
    """
    global _last
    refs, index = _last or ((), None)  # one read, so another thread's db cannot slip in
    if index is None or len(refs) != len(db) or any(r() is not s for r, s in zip(refs, db)):
        _last = refs, index = [weakref.ref(s) for s in db], _Index(db)
    return index.scores(obs)


def best_fit(db: list[Signature], obs: Observation, top: int = 10) -> list[tuple[str, float]]:
    """Rank signatures by match score, descending; ties keep database order."""
    scores = match_scores(db, obs)
    return [(db[i].name, float(scores[i])) for i in np.argsort(-scores, kind="stable")[: max(top, 0)]]


def parse_observations(text: str) -> list[Observation]:
    """Parse one or more observation blocks.

    Blocks are introduced by ``Observation <name>`` headers; a header-less
    file is a single anonymous observation.  Constraint syntax in a value is
    rejected: observations carry concrete results only.
    """
    obs: list[Observation] = []
    for _, head, body in records(text, _OBS_RE.match):
        tests: dict[str, dict[str, str]] = {}
        for lineno, line in body:
            tid, fields = _split_test_line(line, lineno)
            values = {}
            for key, known, expr in fields:
                if "|" in expr or "<" in expr or ">" in expr or "&" in expr:
                    raise ParseError(f"constraint syntax in observation field {key}", lineno)
                if known and key in NUMERIC_FIELDS:
                    if not BARE_HEX.fullmatch(expr := expr.upper()):
                        raise ParseError(f"field {key} wants a bare hex value, got {expr!r}", lineno)
                    if int(expr, 16) > (bound := NUMERIC_FIELDS[key]):
                        raise ParseError(f"field {key}: value {expr} above its bound {bound:X}", lineno)
                values[key] = expr
            if tid in tests:
                raise ParseError(f"duplicate test {tid}", lineno)
            tests[tid] = values
        obs.append(Observation(head and head.group(1), tests))
    return obs


def parse_observation(text: str) -> Observation:
    """Parse exactly one observation."""
    parsed = parse_observations(text)
    if len(parsed) != 1:
        raise ParseError(f"expected exactly one observation, found {len(parsed)}", 1)
    return parsed[0]


def format_observation(obs: Observation) -> str:
    lines = []
    if obs.name is not None:
        lines.append(f"Observation {obs.name}")
    for tid, fields in obs.tests.items():
        body = "%".join(f"{k}={v}" for k, v in fields.items())
        lines.append(f"{tid}({body})")
    return "\n".join(lines)
