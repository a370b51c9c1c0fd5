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

Each rule is parsed into a ``FieldConstraint``: its field and a tuple of
choices, one per alternative: a ``str`` literal in a text field; in a numeric
field an ``int`` from 0 to its bound, or a ``Range(lo, hi)`` holding one, the
open interval of a comparison chain (``None`` on an unbounded side).  Both
check this when built (the parser's ``ParseError`` names the line).  An
unknown field's rule keeps its raw text and has no choices, so it accepts any
value.  A db parse reads each distinct rule once; records that repeat it share
its constraint.

Observations use the same test-line grammar but carry concrete values only;
a value holding ``|``, ``<``, ``>`` or ``&`` is rejected, whatever its field.
A literal of a numeric field, in either, must be bare hex (``[0-9A-F]+``)
and must not exceed the field's bound.

Best-fit scores come from an index of the db's rules (``_Index``), built on
the first call for that db; only the last db's index is kept.  Each (test,
field) slot has one matcher, which gives the constraints a value satisfies,
exact for any int; a score is then two sums per signature, over its slots
and over its rules.
"""

from __future__ import annotations

import logging
import operator
import re
import weakref
from bisect import bisect_right
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
_NUMERIC = {tid: tuple(f for f in fields if f in NUMERIC_FIELDS) for tid, fields in KNOWN_FIELDS.items()}

# canonical and lower-cased field name -> canonical spelling, per test
_FIELD_CASE = {tid: {s: f for f in fields for s in (f, f.lower())} for tid, fields in KNOWN_FIELDS.items()}


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

    def __post_init__(self):
        for b in (self.lo, self.hi):
            if not (b is None or type(b) is int and b >= 0) or self.lo is self.hi is None:
                raise ValueError(f"a Range bound is None or an int >= 0, and one bound is an int: got {self}")

    def span(self, bound: int) -> range:
        """The integers a sample of this Range takes in a field bounded by bound."""
        return range(0 if self.lo is None else self.lo + 1,
                     bound + 1 if self.hi is None else min(bound + 1, self.hi))


@dataclass(frozen=True)
class FieldConstraint:
    """One rule: the alternatives its field accepts, each a literal (an int
    in a numeric field) or a Range.  An unknown field's rule keeps its raw
    text and has no choices: it accepts any value.  No rule has both."""

    field: str
    choices: tuple[str | int | Range, ...]
    raw: str | None = None

    def __post_init__(self):
        if (self.raw is None) == (not self.choices):
            raise ValueError(f"field {self.field}: expected choices or raw text, got "
                             + ("both" if self.choices else "neither"))
        bound = NUMERIC_FIELDS.get(self.field)
        for c in self.choices:
            if type(c) is not Range and type(c) is not (str if bound is None else int):
                raise ValueError(f"field {self.field}: choice {c!r} is neither a Range nor "
                                 + ("a str" if bound is None else "an int"))
            if type(c) is Range and bound is None:
                raise ValueError(f"comparison in non-numeric field {self.field}: {_format_rule(self)!r}")
            if bound is not None and not (c.span(bound) if type(c) is Range else 0 <= c <= bound):
                raise ValueError(f"field {self.field}: no value in 0..{bound:X} "
                                 f"satisfies {_format_rule(self)!r}")


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


def _parse_choice(name: str, text: str, lineno: int) -> str | int | Range:
    """One alternative: a literal (a numeric field's as its int), or a comparison
    or &-chain of them as the Range of its largest '>' and smallest '<' bound."""
    text = text.strip()
    lo = hi = None
    for part in text.split("&"):
        m = _CMP_RE.match(part.strip())
        if not m:
            if "&" in text:
                raise ParseError(f"bad conjunction term {part!r}", lineno)
            return _hex_value(name, text.upper(), lineno) if name in NUMERIC_FIELDS else text
        bound = int(m.group(2), 16)
        if m.group(1) == ">":
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return Range(lo, hi)


def _split_test_line(line: str, lineno: int) -> tuple[str, dict[str, str]]:
    """Tokenize one test line into its id and its fields in line order: a dict from each canonical
    name (the raw one of a field not in _FIELD_CASE[tid]) to its stripped expression, unparsed."""
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
    fields: dict[str, str] = {}
    for token in body.split("%"):
        name, eq, expr = token.partition("=")
        if not eq:
            if token.strip():
                raise ParseError(f"missing '=' in {token.strip()!r}", lineno)
            continue
        if (canonical := cases.get(name)) is None:
            name = name.strip()
            if (canonical := cases.get(name) or cases.get(name.lower())) is None:
                log.warning("line %d: unknown field %s.%s kept verbatim", lineno, tid, name)
        if (key := canonical or name) in fields:
            raise ParseError(f"duplicate field {key} in {tid}", lineno)
        fields[key] = expr.strip()
    return tid, fields


def _hex_value(name: str, text: str, lineno: int) -> int:
    """A numeric field's value: bare hex, at most the field's bound."""
    if not BARE_HEX.fullmatch(text):
        raise ParseError(f"field {name} wants a bare hex value, got {text!r}", lineno)
    if (value := int(text, 16)) > (bound := NUMERIC_FIELDS[name]):
        raise ParseError(f"field {name}: value {text} above its bound {bound:X}", lineno)
    return value


def _parse_rule(name: str, known: bool, expr: str, lineno: int) -> FieldConstraint:
    if not known:
        return FieldConstraint(name, (), expr)
    choices = tuple([_parse_choice(name, a, lineno) for a in expr.split("|")])
    try:  # the rule checks itself
        return FieldConstraint(name, choices)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_fingerprint_db(text: str) -> list[Signature]:
    """Parse a fingerprint database. Raises ParseError with the line number."""
    sigs: list[Signature] = []
    parsed: dict[tuple[str, bool, str], FieldConstraint] = {}  # each distinct rule text, parsed once
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
            keys = [(name, name in _FIELD_CASE.get(tid, ()), expr) for name, expr in fields.items()]
            rules = tuple(parsed.get(f) or parsed.setdefault(f, _parse_rule(*f, lineno)) for f in keys)
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


def _matcher(constraints: list[tuple[int, tuple]]) -> list[int] | dict | tuple[dict, list, list]:
    """A slot's matcher, from its distinct (number, choices) constraints: an
    unknown field's numbers, which every value satisfies; a str field's dict
    from literal to numbers; or a numeric field's dict from int literal to
    numbers, the sorted ends of its Ranges' runs of ints (lo + 1 <= v < hi)
    and, per stretch between two ends, the numbers of the runs that cover
    it.  A value's stretch is a bisect on Python ints: exact for any int."""
    if not constraints[0][1]:
        return [number for number, _ in constraints]
    literals, opens, closes = {}, {}, {}  # run start or stop (None: unbounded) -> numbers
    for number, choices in constraints:
        for c in choices:
            if not isinstance(c, Range):
                literals.setdefault(c, []).append(number)
            else:
                opens.setdefault(None if c.lo is None else c.lo + 1, []).append(number)
                closes.setdefault(c.hi, []).append(number)
    if isinstance(constraints[0][1][0], str):
        return literals
    ends = sorted((opens.keys() | closes.keys()) - {None})
    stretches = [list(opens.get(None, ()))]  # the one below the first end
    for end in ends:  # one sweep
        active = stretches[-1] + opens.get(end, [])
        for number in closes.get(end, ()):
            active.remove(number)
        stretches.append(active)
    return literals, ends, stretches


class _Index:
    """A db's rules as distinct-constraint numbers, each signature's rules one
    segment, the rule count per (test, field) slot and signature, and per
    slot a matcher (``_matcher``) that gives the numbers a value satisfies."""

    def __init__(self, db: list[Signature]):
        self.size = len(db)
        numbers: dict[tuple[str, str, tuple], int] = {}
        rules, ends = [], []
        for sig in db:
            for tid, fields in sig.tests.items():
                for rule in fields:
                    rules.append(numbers.setdefault((tid, rule.field, rule.choices), len(numbers)))
            ends.append(len(rules))
        per_slot: dict[tuple[str, str], list[tuple[int, tuple]]] = {}
        for (tid, field, choices), number in numbers.items():
            per_slot.setdefault((tid, field), []).append((number, choices))
        self.slots, slot_of = {}, np.empty(len(numbers), np.intp)  # test -> field -> (slot, matcher)
        for slot, ((tid, field), constraints) in enumerate(per_slot.items()):
            self.slots.setdefault(tid, {})[field] = slot, _matcher(constraints)
            slot_of[[number for number, _ in constraints]] = slot
        self.constraints, self.rule_constraint = len(numbers), np.array(rules, np.intp)
        sizes = np.diff([0, *ends])
        cells = slot_of[self.rule_constraint] * self.size + np.repeat(np.arange(self.size), sizes)
        shape = len(per_slot), self.size
        self.slot_counts = np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape).astype(float)
        self.filled = np.flatnonzero(sizes)  # reduceat misreads an empty segment
        self.starts = (np.cumsum(sizes) - sizes)[self.filled]

    def scores(self, obs: Observation) -> np.ndarray:
        seen, hits = [], []
        for tid, fields in obs.tests.items():
            slots = self.slots.get(tid, {})
            for name, value in fields.items():
                if (entry := slots.get(name)) is None:
                    continue
                slot, match = entry
                seen.append(slot)
                if type(match) is list:
                    hits += match
                elif type(match) is dict:
                    hits += match.get(value, ())
                elif BARE_HEX.fullmatch(value):  # only bare hex is a number
                    literals, ends, stretches = match
                    hits += literals.get(v := int(value, 16), ())
                    hits += stretches[bisect_right(ends, v)]
        observed, satisfied = np.zeros(len(self.slot_counts)), np.zeros(self.constraints)
        observed[seen] = 1
        satisfied[hits] = 1
        # Every partial sum is an integer below 2**53, so any order of summing
        # is exact: each score has the bits of the plain per-rule sums.
        considered, matched = np.vecmat(observed, self.slot_counts), np.zeros(self.size)
        matched[self.filled] = np.add.reduceat(satisfied[self.rule_constraint], self.starts)
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
    if index is None or len(refs) != len(db) or not all(map(operator.is_, map(operator.call, refs), db)):
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
            tid, values = _split_test_line(line, lineno)
            syntax = "|" in line or "<" in line or ">" in line or "&" in line  # one check per line
            numeric = _NUMERIC.get(tid, ())
            for key, expr in values.items():
                if syntax and ("|" in expr or "<" in expr or ">" in expr or "&" in expr):
                    raise ParseError(f"constraint syntax in observation field {key}", lineno)
                if key in numeric:
                    _hex_value(key, expr := expr.upper(), lineno)
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
