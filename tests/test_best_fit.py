"""The indexed best-fit matcher against the per-rule tree walk it replaced.

Both sides read the same db text: the tree grammar's parser and the walk
on one side, parse_fingerprint_db and best_fit on the other.
"""

import gc
import hashlib
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp import signatures
from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import sample_observation
from neuralfp.signatures import (
    KNOWN_FIELDS,
    NUMERIC_FIELDS,
    Observation,
    Signature,
    best_fit,
    match_scores,
    parse_fingerprint_db,
    serialize_fingerprint_db,
)

from tree_grammar import (
    And,
    AnyValue,
    Cmp,
    Const,
    OneOf,
    TreeRule,
    format_tree_db,
    oracle_parse_fingerprint_db,
    satisfiable,
)

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# The matcher as it was before the index: every rule of every signature
# walked through the constraint tree.  Only bare hex counts as a number.

_HEX = re.compile(r"[0-9A-Fa-f]+")


def _to_int(value):
    return int(value, 16) if _HEX.fullmatch(value) else None


def _atom_matches(atom, field, value):
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


def constraint_matches(constraint, field, value):
    if isinstance(constraint, AnyValue):
        return True
    if isinstance(constraint, OneOf):
        return any(_atom_matches(a, field, value) for a in constraint.choices)
    return _atom_matches(constraint, field, value)


def oracle_score(sig, obs):
    considered = matched = 0
    for tid, rules in sig.tests.items():
        obs_fields = obs.tests.get(tid)
        if obs_fields is None:
            continue
        for rule in rules:
            value = obs_fields.get(rule.field)
            if value is None:
                continue
            considered += 1
            matched += constraint_matches(rule.constraint, rule.field, value)
    return matched / considered if considered else 0.0


def oracle_ranking(tree, obs):
    scored = [(sig.name, oracle_score(sig, obs)) for sig in tree]
    scored.sort(key=lambda pair: -pair[1])
    return scored


def tree_ranking(db, obs):
    """The walk's ranking of a parsed db, read back from its text as trees."""
    return oracle_ranking(oracle_parse_fingerprint_db(serialize_fingerprint_db(db)), obs)


# ---------------------------------------------------------------------------
# Drawn databases, in the tree shape: small value pools, so that signatures
# share constraints, observations hit them and scores tie.

_TESTS = ["T1", "T4", "TSeq", "PU"]
_UNKNOWN = st.sampled_from(["Bogus", "X9"])
_WORDS = st.sampled_from(["Y", "N", "S++", "AS", "MNWNNT", "0A", "A", "E", "Z", "x_1"])
_INT = st.integers(0, 0x30)


@st.composite
def _hex(draw):
    """A small hex value, sometimes with leading zeros (0A and A are one int)."""
    return "0" * draw(st.integers(0, 2)) + f"{draw(_INT):X}"


def _atom(bound):
    const = st.builds(Const, _WORDS if bound is None else _hex())
    if bound is None:
        return const
    # comparisons only in numeric fields, each met by an integer in 0..bound
    cmp = st.builds(Cmp, st.sampled_from("<>"), _INT)
    ranges = cmp | st.builds(And, st.lists(cmp, min_size=2, max_size=3).map(tuple))
    return const | ranges.filter(lambda atom: satisfiable(atom, bound))


def _constraint(field):
    atom = _atom(NUMERIC_FIELDS.get(field))
    return atom | st.builds(OneOf, st.lists(atom, min_size=2, max_size=3).map(tuple))


@st.composite
def _signature(draw):
    tests = {}
    for tid in draw(st.lists(st.sampled_from(_TESTS), unique=True, max_size=3)):
        names = draw(st.lists(st.sampled_from(KNOWN_FIELDS[tid][:6]) | _UNKNOWN, unique=True,
                              max_size=4))
        tests[tid] = tuple(
            TreeRule(f, AnyValue(draw(_WORDS)) if f not in KNOWN_FIELDS[tid]
                     else draw(_constraint(f)))
            for f in names)
    return Signature(draw(st.sampled_from(["A", "B", "C", "D"])), (), tests)


def _satisfying(draw, rule):
    """A value the rule accepts: a literal, or an int inside its bounds."""
    c = rule.constraint
    if isinstance(c, AnyValue):
        return draw(_WORDS)
    if isinstance(c, OneOf):
        c = draw(st.sampled_from(c.choices))
    if isinstance(c, Const):
        return c.value
    terms = c.terms if isinstance(c, And) else (c,)
    lo = max((t.bound + 1 for t in terms if t.op == ">"), default=0)
    hi = max(min((t.bound - 1 for t in terms if t.op == "<"), default=lo + 3), 0)
    return f"{draw(st.integers(min(lo, hi), hi)):X}"


@st.composite
def _observation(draw, db):
    """One signature's values, perturbed: fields dropped, replaced or added."""
    sig = draw(st.sampled_from(db))
    tests = {}
    for tid, rules in sig.tests.items():
        tests[tid] = {r.field: _satisfying(draw, r) for r in rules}
    for tid in draw(st.lists(st.sampled_from(_TESTS), max_size=3)):
        fields = tests.setdefault(tid, {})
        name = draw(st.sampled_from(KNOWN_FIELDS[tid][:6]) | _UNKNOWN)
        if draw(st.booleans()):
            fields.pop(name, None)
        else:
            fields[name] = draw(_hex() | _WORDS)
    return Observation(None, tests)


@st.composite
def _db_text_and_observations(draw):
    tree = draw(st.lists(_signature(), min_size=1, max_size=6))
    return format_tree_db(tree), draw(st.lists(_observation(tree), min_size=1, max_size=4))


def _both(text):
    """text parsed by parse_fingerprint_db and by the tree grammar."""
    return parse_fingerprint_db(text), oracle_parse_fingerprint_db(text)


class TestOracle:
    @settings(max_examples=150)
    @given(drawn=_db_text_and_observations())
    def test_full_ranking_equals_the_tree_walk(self, drawn):
        text, observations = drawn
        db, tree = _both(text)
        for obs in observations:
            assert best_fit(db, obs, top=len(db)) == oracle_ranking(tree, obs)

    @settings(max_examples=50)
    @given(drawn=_db_text_and_observations())
    def test_match_score_equals_the_tree_walk(self, drawn):
        text, observations = drawn
        db, tree = _both(text)
        for obs in observations:
            assert [match_scores([sig], obs)[0] for sig in db] == [oracle_score(s, obs) for s in tree]

    def test_machine_written_db(self):
        db, tree = _both(demo_database() + "\n" + large_database(40, 3))
        rng = np.random.default_rng(0)
        for _ in range(40):
            obs = sample_observation(db[int(rng.integers(len(db)))], rng)
            assert best_fit(db, obs, top=len(db)) == oracle_ranking(tree, obs)

    def test_only_bare_hex_is_a_number(self):
        (sig,), (tree,) = _both("Fingerprint X\nT1(W=10|>FF0)\n")
        for value, want in [("10", 1.0), ("010", 1.0), ("0x10", 0.0), ("+10", 0.0),
                            ("1_0", 0.0), ("FFFF", 1.0), ("-FFFF", 0.0)]:
            obs = Observation(None, {"T1": {"W": value}})
            assert match_scores([sig], obs)[0] == oracle_score(tree, obs) == want

    def test_leading_zeros_equal_only_in_numeric_fields(self):
        (sig,), (tree,) = _both("Fingerprint X\nT1(W=0A%ACK=0A)\n")
        obs = Observation(None, {"T1": {"W": "A", "ACK": "A"}})
        assert match_scores([sig], obs)[0] == oracle_score(tree, obs) == 0.5

    def test_empty_db_and_empty_signature(self):
        obs = Observation(None, {"T1": {"W": "0"}})
        assert best_fit([], obs) == []
        assert match_scores([], obs).shape == (0,)
        assert match_scores([Signature("E", (), {})], obs)[0] == 0.0


# ---------------------------------------------------------------------------
# Golden rankings, recorded before the index replaced the tree walk.

def ranking_digest(db, hosts, seed):
    """Full rankings of hosts drawn from db: every other host mixes the
    tests of a second signature's sample into the first's."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for i in range(hosts):
        obs = sample_observation(db[int(rng.integers(len(db)))], rng)
        if i % 2:
            other = sample_observation(db[int(rng.integers(len(db)))], rng)
            tests = dict(obs.tests)
            for tid, fields in other.tests.items():
                if rng.random() < 0.5:
                    tests[tid] = fields
            obs = Observation(None, tests)
        h.update(repr(best_fit(db, obs, top=len(db))).encode())
    return h.hexdigest()


class TestGolden:
    DEMO = "288b19bd883a39188698016bc4fd5e5a4a7670ed40d7fe3a756fb4a99e2bedf1"
    CORPUS = "47759d8d71c6d0a7821fcdf1ecde10bc2ea68e539d09fe524dd88fd8ff8e2f4f"
    V1 = "ad418d38811ca6ba0933375bea20dc07052c4e0588876f686c3c9a2525571243"

    def test_demo_db(self):
        # the train and scan workloads' db
        assert ranking_digest(parse_fingerprint_db(demo_database()), 200, 2026) == self.DEMO

    def test_corpus_db(self):
        db = parse_fingerprint_db(demo_database() + "\n" + large_database(220))
        assert ranking_digest(db, 200, 2026) == self.CORPUS

    def test_circulated_db(self):
        db = parse_fingerprint_db((DATA / "fingerprints_v1.txt").read_text())
        assert ranking_digest(db, 200, 2026) == self.V1


# ---------------------------------------------------------------------------
# The index cache: one db at a time, keyed on its signature objects.

@pytest.fixture
def builds(monkeypatch):
    """The sizes of the dbs indexed while the test runs."""
    sizes = []
    real = signatures._Index

    def counting(db):
        sizes.append(len(db))
        return real(db)

    monkeypatch.setattr(signatures, "_Index", counting)
    return sizes


def _hosts(db, n, seed):
    rng = np.random.default_rng(seed)
    return [sample_observation(db[int(rng.integers(len(db)))], rng) for _ in range(n)]


class TestCache:
    def test_same_list_builds_once(self, builds):
        db = parse_fingerprint_db(demo_database())
        for obs in _hosts(db, 5, 1):
            assert best_fit(db, obs, top=len(db)) == tree_ranking(db, obs)
        assert builds == [len(db)]

    def test_equal_signatures_in_a_new_list_reuse_the_index(self, builds):
        db = parse_fingerprint_db(demo_database())
        obs = _hosts(db, 1, 2)[0]
        best_fit(db, obs)
        best_fit(list(db), obs)
        assert builds == [len(db)]

    @pytest.mark.parametrize("edit", ["append", "replace", "reorder"])
    def test_changed_list_rebuilds(self, builds, edit):
        db = parse_fingerprint_db(demo_database())
        extra = parse_fingerprint_db(large_database(1, 5))[0]
        obs = _hosts(db, 1, 3)[0]
        best_fit(db, obs)
        if edit == "append":
            db.append(extra)
        elif edit == "replace":
            db[7] = extra
        else:
            db[3], db[9] = db[9], db[3]
        assert best_fit(db, obs, top=len(db)) == tree_ranking(db, obs)
        assert builds == [len(db) - (edit == "append"), len(db)]

    def test_dropped_db_is_freed_and_never_answers_for_another(self):
        text = demo_database()
        a = parse_fingerprint_db(text)
        obs = _hosts(a, 1, 4)[0]
        best_fit(a, obs)
        refs = [weakref.ref(s) for s in a]
        del a
        gc.collect()
        assert all(r() is None for r in refs)
        b = parse_fingerprint_db(text)  # equal, perhaps at reused addresses
        assert best_fit(b, obs, top=len(b)) == tree_ranking(b, obs)
        del b
        gc.collect()
        # same length, other content
        c = parse_fingerprint_db(large_database(len(refs), 9))
        assert best_fit(c, obs, top=len(c)) == tree_ranking(c, obs)

    def test_interleaved_match_score_and_best_fit(self, builds):
        # each switch between a one-signature db and the whole db rebuilds,
        # and neither index answers for the other
        db, trees = _both(demo_database())
        for obs in _hosts(db, 3, 5):
            for sig, tree in zip(db[::7], trees[::7]):
                assert match_scores([sig], obs)[0] == oracle_score(tree, obs)
                assert best_fit(db, obs, top=len(db)) == tree_ranking(db, obs)
        assert builds == [1, len(db)] * (3 * len(db[::7]))

    def test_rules_are_read_only(self, builds):
        # an in-place edit cannot leave the cached index behind the rules
        db = parse_fingerprint_db(demo_database())
        obs = _hosts(db, 1, 6)[0]
        ranked = best_fit(db, obs, top=len(db))
        with pytest.raises(TypeError):
            db[0].tests["T1"] = ()
        with pytest.raises(TypeError):
            del db[0].tests["T1"]
        assert db == parse_fingerprint_db(demo_database())
        assert best_fit(db, obs, top=len(db)) == ranked == tree_ranking(db, obs)
        assert dict(ranked)[db[0].name] == match_scores(db, obs)[0]
        assert builds.count(len(db)) == 1
