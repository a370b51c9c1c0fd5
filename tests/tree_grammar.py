"""The rule grammar as a constraint tree, the oracle of the parser and
matcher tests.

Before rules were parsed into flat tuples of choices, the package parsed
each one into a tree of five classes: literals (Const), one-sided bounds
(Cmp), &-chains of bounds (And), |-alternatives (OneOf) and an unknown
field's raw text (AnyValue).  This is that parser's database path, its
formatter, and the map from a tree rule to the flat rule it stands for.
"""

import logging
import re
from dataclasses import dataclass

from neuralfp.encoding import BARE_HEX
from neuralfp.signatures import (
    KNOWN_FIELDS,
    NUMERIC_FIELDS,
    FieldConstraint,
    ParseError,
    Range,
    Signature,
)


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


@dataclass(frozen=True)
class OneOf:
    """|-separated alternatives."""

    choices: tuple


@dataclass(frozen=True)
class TreeRule:
    """A field and its constraint tree, where FieldConstraint now stands."""

    field: str
    constraint: object


def satisfiable(atom, bound: int) -> bool:
    """Whether an integer in 0..bound meets a Cmp or an And of them, as the
    parser asks of every comparison in a numeric field."""
    terms = atom.terms if isinstance(atom, And) else (atom,)
    lo = max([t.bound + 1 for t in terms if t.op == ">"], default=0)
    return lo <= min([t.bound - 1 for t in terms if t.op == "<"], default=bound) and lo <= bound


# ---------------------------------------------------------------------------
# The parser's database path, unchanged but for the class names and the
# bound on a numeric literal, which the package's parser checks as well.

ORACLE_LOG = logging.getLogger("neuralfp.signatures")
_FIELD_CASE = {tid: {f.lower(): f for f in fields} for tid, fields in KNOWN_FIELDS.items()}
_TEST_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\s*\(")
_CMP_RE = re.compile(r"^([<>])\s*([0-9A-Fa-f]+)$")
_FP_RE = re.compile(r"^Fingerprint\s+(.*\S)\s*$")
_CLASS_RE = re.compile(r"^Class\s+(.*)$")


def _oracle_atom(text, lineno):
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


def _oracle_field(tid, token, lineno):
    if "=" not in token:
        raise ParseError(f"missing '=' in {token!r}", lineno)
    name, _, expr = token.partition("=")
    name = name.strip()
    expr = expr.strip()
    canonical = _FIELD_CASE.get(tid, {}).get(name.lower())
    if canonical is None:
        ORACLE_LOG.warning("line %d: unknown field %s.%s kept verbatim", lineno, tid, name)
        return TreeRule(name, AnyValue(expr))
    if canonical in NUMERIC_FIELDS:
        expr = expr.upper()
    alts = tuple(_oracle_atom(a, lineno) for a in expr.split("|"))
    if len(alts) == 1:
        return TreeRule(canonical, alts[0])
    return TreeRule(canonical, OneOf(alts))


def parse_test_line(line, lineno):
    m = _TEST_RE.match(line)
    if not m:
        raise ParseError(f"unrecognized line {line!r}", lineno)
    tid = m.group(1)
    body = line[m.end():]
    if ")" in body:
        body, _, rest = body.partition(")")
        if rest.strip():
            raise ParseError(f"text after ')' in {line!r}", lineno)
    else:
        ORACLE_LOG.warning("line %d: unterminated test line %r", lineno, line)
    if tid not in KNOWN_FIELDS:
        ORACLE_LOG.warning("line %d: unknown test id %s", lineno, tid)
    rules = []
    seen = set()
    for token in body.split("%"):
        token = token.strip()
        if not token:
            continue
        rule = _oracle_field(tid, token, lineno)
        if rule.field in seen:
            raise ParseError(f"duplicate field {rule.field} in {tid}", lineno)
        seen.add(rule.field)
        rules.append(rule)
    return tid, tuple(rules)


def _check_literals(rules, lineno):
    """A db's numeric literal above its field's bound, refused once its line is read."""
    for rule in rules:
        bound = NUMERIC_FIELDS.get(rule.field)
        atoms = rule.constraint.choices if isinstance(rule.constraint, OneOf) else (rule.constraint,)
        for atom in atoms:
            value = atom.value if isinstance(atom, Const) else ""
            if bound is not None and BARE_HEX.fullmatch(value) and int(value, 16) > bound:
                raise ParseError(f"field {rule.field}: literal {value} above its bound {bound:X}", lineno)


def oracle_parse_fingerprint_db(text):
    sigs, name, classes, tests = [], None, [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _FP_RE.match(line)
        if m:
            if name is not None:
                sigs.append(Signature(name, tuple(classes), tests))
            name, classes, tests = m.group(1), [], {}
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
        tid, rules = parse_test_line(line, lineno)
        _check_literals(rules, lineno)
        if tid in tests:
            raise ParseError(f"duplicate test {tid}", lineno)
        tests[tid] = rules
    if name is not None:
        sigs.append(Signature(name, tuple(classes), tests))
    return sigs


# ---------------------------------------------------------------------------
# The formatter, and the flat rule a tree rule stands for.

def _format_atom(atom):
    if isinstance(atom, Const):
        return atom.value
    if isinstance(atom, Cmp):
        return f"{atom.op}{atom.bound:X}"
    return "&".join(_format_atom(t) for t in atom.terms)


def _format_constraint(c):
    if isinstance(c, AnyValue):
        return c.raw
    if isinstance(c, OneOf):
        return "|".join(_format_atom(a) for a in c.choices)
    return _format_atom(c)


def format_tree_db(sigs):
    """Database text of tree-shaped signatures."""
    records = []
    for sig in sigs:
        lines = [f"Fingerprint {sig.name}"] + ["Class " + " | ".join(cls) for cls in sig.classes]
        for tid, rules in sig.tests.items():
            body = "%".join(f"{r.field}={_format_constraint(r.constraint)}" for r in rules)
            lines.append(f"{tid}({body})")
        records.append("\n".join(lines))
    return "\n\n".join(records) + "\n"


def _flat_choice(atom, numeric):
    if isinstance(atom, Const):
        return int(atom.value, 16) if numeric else atom.value
    terms = atom.terms if isinstance(atom, And) else (atom,)
    return Range(max((t.bound for t in terms if t.op == ">"), default=None),
                 min((t.bound for t in terms if t.op == "<"), default=None))


def flat_rule(rule):
    """The flat rule a tree rule stands for; a numeric field's literals must be hex."""
    c = rule.constraint
    if isinstance(c, AnyValue):
        return FieldConstraint(rule.field, (), c.raw)
    atoms = c.choices if isinstance(c, OneOf) else (c,)
    return FieldConstraint(rule.field, tuple(_flat_choice(a, rule.field in NUMERIC_FIELDS) for a in atoms))


def flatten(sigs):
    """Tree-shaped signatures as the package parses them."""
    return [Signature(sig.name, sig.classes, {tid: tuple(map(flat_rule, rules))
                                              for tid, rules in sig.tests.items()})
            for sig in sigs]
