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
comparisons.  ``#`` starts a comment line.  Whitespace around tokens is
ignored, so the spaced variant ``T1(DF=N % W=4000 % ...)`` is accepted too.

Observations use the same test-line grammar but carry concrete values only;
a value holding ``|``, ``<``, ``>`` or ``&`` is rejected, whatever its field.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from .encoding import FIELDS

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


@dataclass(frozen=True)
class Const:
    """Literal value; hex case is normalized for numeric fields."""

    value: str


@dataclass(frozen=True)
class Cmp:
    """One-sided strict bound on a hex integer. op is '<' or '>'."""

    op: str
    bound: int


@dataclass(frozen=True)
class And:
    """Conjunction of comparisons, e.g. SI=<2D870A&>66C6."""

    terms: tuple[Cmp, ...]


@dataclass(frozen=True)
class AnyValue:
    """Unknown field preserved verbatim; matches any observed value."""

    raw: str


Atom = Const | Cmp | And


@dataclass(frozen=True)
class OneOf:
    """|-separated alternatives."""

    choices: tuple[Atom, ...]


Constraint = Const | Cmp | And | OneOf | AnyValue


@dataclass(frozen=True)
class FieldConstraint:
    field: str
    constraint: Constraint


@dataclass(frozen=True)
class Signature:
    """One fingerprint record.

    classes holds (vendor, family, line, purpose) tuples; tests maps test id
    to its rules in database order.
    """

    name: str
    classes: tuple[tuple[str, str, str, str], ...]
    tests: dict[str, tuple[FieldConstraint, ...]]

    def rule_count(self) -> int:
        return sum(len(rules) for rules in self.tests.values())


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


def _parse_atom(text: str, lineno: int) -> Atom:
    text = text.strip()
    if "&" in text:
        terms = []
        for part in text.split("&"):
            m = _CMP_RE.match(part.strip())
            if not m:
                raise ParseError(f"bad conjunction term {part!r}", lineno)
            terms.append(Cmp(m.group(1), int(m.group(2), 16)))
        return And(tuple(terms))
    m = _CMP_RE.match(text)
    if m:
        return Cmp(m.group(1), int(m.group(2), 16))
    return Const(text)


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
        return FieldConstraint(name, AnyValue(expr))
    if name in NUMERIC_FIELDS:
        expr = expr.upper()
    alts = tuple(_parse_atom(a, lineno) for a in expr.split("|"))
    return FieldConstraint(name, alts[0] if len(alts) == 1 else OneOf(alts))


def parse_fingerprint_db(text: str) -> list[Signature]:
    """Parse a fingerprint database. Raises ParseError with the line number."""
    sigs: list[Signature] = []
    name = None
    classes: list[tuple[str, str, str, str]] = []
    tests: dict[str, tuple[FieldConstraint, ...]] = {}

    def flush():
        nonlocal name, classes, tests
        if name is not None:
            sigs.append(Signature(name, tuple(classes), tests))
        name, classes, tests = None, [], {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _FP_RE.match(line)
        if m:
            flush()
            name = m.group(1)
            continue
        m = _CLASS_RE.match(line)
        if m:
            if name is None:
                raise ParseError("Class line before any Fingerprint line", lineno)
            parts = [p.strip() for p in m.group(1).split("|")]
            if len(parts) != 4:
                raise ParseError(f"Class line needs 4 '|' fields, got {len(parts)}", lineno)
            classes.append(tuple(parts))
            continue
        if name is None:
            raise ParseError("test line before any Fingerprint line", lineno)
        tid, fields = _split_test_line(line, lineno)
        rules = tuple(_parse_rule(*f, lineno) for f in fields)
        if tid in tests:
            raise ParseError(f"duplicate test {tid}", lineno)
        tests[tid] = rules
    flush()
    return sigs


def _format_atom(atom: Atom) -> str:
    if isinstance(atom, Const):
        return atom.value
    if isinstance(atom, Cmp):
        return f"{atom.op}{atom.bound:X}"
    return "&".join(_format_atom(t) for t in atom.terms)


def _format_constraint(c: Constraint) -> str:
    if isinstance(c, AnyValue):
        return c.raw
    if isinstance(c, OneOf):
        return "|".join(_format_atom(a) for a in c.choices)
    return _format_atom(c)


def format_signature(sig: Signature) -> str:
    lines = [f"Fingerprint {sig.name}"]
    for cls in sig.classes:
        lines.append("Class " + " | ".join(cls))
    for tid, rules in sig.tests.items():
        body = "%".join(f"{r.field}={_format_constraint(r.constraint)}" for r in rules)
        lines.append(f"{tid}({body})")
    return "\n".join(lines)


def serialize_fingerprint_db(sigs: list[Signature]) -> str:
    """Inverse of parse_fingerprint_db up to structural equality."""
    return "\n\n".join(format_signature(s) for s in sigs) + "\n"


def _to_int(value: str) -> int | None:
    try:
        return int(value, 16)
    except ValueError:
        return None


def _atom_matches(atom: Atom, field: str, value: str) -> bool:
    if isinstance(atom, Const):
        if field in NUMERIC_FIELDS:
            a, b = _to_int(atom.value), _to_int(value)
            if a is not None and b is not None:
                return a == b
        return atom.value == value
    if isinstance(atom, Cmp):
        v = _to_int(value)
        if v is None:
            return False
        return v < atom.bound if atom.op == "<" else v > atom.bound
    return all(_atom_matches(t, field, value) for t in atom.terms)


def constraint_matches(constraint: Constraint, field: str, value: str) -> bool:
    if isinstance(constraint, AnyValue):
        return True
    if isinstance(constraint, OneOf):
        return any(_atom_matches(a, field, value) for a in constraint.choices)
    return _atom_matches(constraint, field, value)


def match_score(sig: Signature, obs: Observation) -> float:
    """Fraction of considered rules the observation satisfies.

    A rule is considered only when the observation carries its test and
    field; with nothing considered the score is 0.0.  This is the classic
    best-fit score and inherits its bias toward sparse signatures.
    """
    considered = 0
    matched = 0
    for tid, rules in sig.tests.items():
        obs_fields = obs.tests.get(tid)
        if obs_fields is None:
            continue
        for rule in rules:
            value = obs_fields.get(rule.field)
            if value is None:
                continue
            considered += 1
            if constraint_matches(rule.constraint, rule.field, value):
                matched += 1
    if considered == 0:
        return 0.0
    return matched / considered


def best_fit(db: list[Signature], obs: Observation, top: int = 10) -> list[tuple[str, float]]:
    """Rank signatures by match_score, descending; ties keep database order."""
    scored = [(sig.name, match_score(sig, obs)) for sig in db]
    scored.sort(key=lambda pair: -pair[1])
    return scored[: max(top, 0)]


def parse_observations(text: str) -> list[Observation]:
    """Parse one or more observation blocks.

    Blocks are introduced by ``Observation <name>`` headers; a header-less
    file is a single anonymous observation.  Constraint syntax in a value is
    rejected: observations carry concrete results only.
    """
    obs: list[Observation] = []
    name: str | None = None
    tests: dict[str, dict[str, str]] = {}
    started = False

    def flush():
        nonlocal name, tests, started
        if started:
            obs.append(Observation(name, tests))
        name, tests, started = None, {}, False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _OBS_RE.match(line)
        if m:
            flush()
            name, started = m.group(1), True
            continue
        tid, fields = _split_test_line(line, lineno)
        values = {}
        for key, known, expr in fields:
            if "|" in expr or "<" in expr or ">" in expr or "&" in expr:
                raise ParseError(f"constraint syntax in observation field {key}", lineno)
            values[key] = expr.upper() if known and key in NUMERIC_FIELDS else expr
        if tid in tests:
            raise ParseError(f"duplicate test {tid}", lineno)
        tests[tid] = values
        started = True
    flush()
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
