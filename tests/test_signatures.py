"""Database grammar, match scoring, and round-trip serialization."""

import hashlib
import logging
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp.corpus import demo_database, family_task_database, large_database, openbsd_study_database
from neuralfp.datagen import sample_observation
from neuralfp.dcerpc import format_endpoint_dump, parse_endpoint_dump, synthetic_windows_corpus
from neuralfp.encoding import BARE_HEX
from neuralfp.signatures import (
    KNOWN_FIELDS,
    NUMERIC_FIELDS,
    FieldConstraint,
    Observation,
    ParseError,
    Range,
    Signature,
    best_fit,
    format_observation,
    match_scores,
    parse_fingerprint_db,
    parse_observation,
    lines,
    parse_observations,
    records,
    serialize_fingerprint_db,
)

from conftest import LINUX_260_BLOCK, LINUX_260_T3, OPENBSD_22_BLOCK, OPENBSD_36_BLOCK
from hosts import varied_observations
from tree_grammar import (
    ORACLE_LOG,
    And,
    AnyValue,
    Cmp,
    Const,
    OneOf,
    TreeRule,
    flatten,
    format_tree_db,
    oracle_parse_fingerprint_db,
    parse_test_line,
    satisfiable,
)

DATA = Path(__file__).parent / "data"


class TestParsing:
    def test_linux_block(self):
        sigs = parse_fingerprint_db(LINUX_260_BLOCK)
        assert len(sigs) == 1
        sig = sigs[0]
        assert sig.name == "Linux 2.6.0-test5 x86"
        assert sig.classes == (("Linux", "Linux", "2.6.X", "general purpose"),)
        assert list(sig.tests) == ["TSeq", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "PU"]
        # one rule per truncated line, nine in total
        assert sum(map(len, sig.tests.values())) == 9
        assert sig.tests["TSeq"][0].field == "Class"
        assert sig.tests["TSeq"][0].choices == ("RI",)
        assert sig.tests["PU"][0].choices == ("N",)

    def test_openbsd_block(self):
        sigs = parse_fingerprint_db(OPENBSD_36_BLOCK)
        assert len(sigs) == 1
        sig = sigs[0]
        assert sig.name == "OpenBSD 3.6 (i386)"
        t1 = {r.field: r.choices for r in sig.tests["T1"]}
        assert t1["W"] == (0x4000,)
        assert t1["Ops"] == ("MNWNNT",)
        assert sig.tests["T2"][0] == sig.tests["T2"][0]
        assert {r.field: r.choices for r in sig.tests["T2"]} == {"Resp": ("N",)}
        # '%Flags=R' with no space still splits cleanly
        t4 = {r.field: r.choices for r in sig.tests["T4"]}
        assert t4["Flags"] == ("R",)
        assert t4["Ops"] == ("",)

    def test_comments_and_blanks_ignored(self):
        text = "# Fingerprint bogus\n\n" + OPENBSD_36_BLOCK + "\n# trailing note\n"
        assert len(parse_fingerprint_db(text)) == 1

    def test_empty_input(self):
        assert parse_fingerprint_db("") == []

    def test_test_line_before_fingerprint(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_fingerprint_db("T1(DF=Y)")

    def test_class_line_arity(self):
        text = "Fingerprint X\nClass a | b | c\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_fingerprint_db(text)

    def test_duplicate_test_rejected(self):
        text = "Fingerprint X\nT1(DF=Y)\nT1(DF=N)\n"
        with pytest.raises(ParseError, match="duplicate test T1"):
            parse_fingerprint_db(text)

    def test_trailing_text_after_close(self):
        with pytest.raises(ParseError, match="after"):
            parse_fingerprint_db("Fingerprint X\nT1(DF=Y) junk\n")

    def test_unterminated_line_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="neuralfp.signatures"):
            sigs = parse_fingerprint_db("Fingerprint X\nT1(DF=Y%W=4000\n")
        assert sum(map(len, sigs[0].tests.values())) == 2
        assert any("unterminated" in rec.message for rec in caplog.records)

    def test_unknown_field_kept_verbatim(self, caplog):
        with caplog.at_level(logging.WARNING, logger="neuralfp.signatures"):
            sigs = parse_fingerprint_db("Fingerprint X\nT1(Bogus=Q|Z%DF=Y)\n")
        rule = sigs[0].tests["T1"][0]
        assert rule.field == "Bogus"
        assert rule == FieldConstraint("Bogus", (), "Q|Z")
        assert any("unknown field" in rec.message for rec in caplog.records)

    def test_constraint_grammar(self):
        text = "Fingerprint X\nTSeq(Class=RI%gcd=<6%SI=<2D870A&>66C6%IPID=Z|I%TS=100HZ)\n"
        sig = parse_fingerprint_db(text)[0]
        rules = {r.field: r.choices for r in sig.tests["TSeq"]}
        assert rules["gcd"] == (Range(None, 6),)
        assert rules["SI"] == (Range(0x66C6, 0x2D870A),)
        assert rules["IPID"] == ("Z", "I")
        assert rules["TS"] == ("100HZ",)

    def test_chain_keeps_its_tightest_bounds(self):
        sig = parse_fingerprint_db("Fingerprint X\nTSeq(SI=<10&>2&<8&>5|>3|1F)\n")[0]
        assert sig.tests["TSeq"][0].choices == (Range(5, 8), Range(3, None), 0x1F)

    def test_hex_case_normalized(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(W=402e)\n")[0]
        assert sig.tests["T1"][0].choices == (0x402E,)

    def test_bad_conjunction(self):
        with pytest.raises(ParseError, match="conjunction"):
            parse_fingerprint_db("Fingerprint X\nTSeq(SI=<5&RI)\n")

    @pytest.mark.parametrize("expr", ["0x4000", "+4000", "40_00", "-5", "4000|0x0", "", " "])
    def test_numeric_literals_are_bare_hex(self, expr):
        with pytest.raises(ParseError, match="^line 2: field W wants a bare hex value"):
            parse_fingerprint_db(f"Fingerprint X\nT1(DF=Y%W={expr})\n")

    @pytest.mark.parametrize("rule, message", [
        ("T1(DF=<5%W=4000)", "comparison in non-numeric field DF: '<5'"),
        ("T1(ACK=S++|>1)", "comparison in non-numeric field ACK"),
        ("TSeq(SI=>7&<5)", "field SI: no value in 0..FFFFFF satisfies '>7&<5'"),
        ("TSeq(SI=<0)", "field SI: no value in 0..FFFFFF"),
        # the sampler draws W from 0..FFFF
        ("T1(W=1|>FFFF)", "field W: no value in 0..FFFF satisfies '1|>FFFF'"),
    ])
    def test_rule_no_sample_can_meet_is_refused(self, rule, message):
        with pytest.raises(ParseError, match=f"^line 3: {re.escape(message)}"):
            parse_fingerprint_db(f"Fingerprint X\nT2(Resp=N)\n{rule}\n")

    def test_range_at_the_bound_is_kept(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(W=>FFFE%ACK=S)\nTSeq(SI=>5&<7)\n")[0]
        assert [r.choices for rules in sig.tests.values() for r in rules] == [
            (Range(0xFFFE, None),), ("S",), (Range(5, 7),)]

    def test_other_fields_keep_any_literal(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(ACK=0x4000%Ops=+4_0)\n")[0]
        assert [r.choices for r in sig.tests["T1"]] == [("0x4000",), ("+4_0",)]


class TestRuleMemo:
    """A db parse reads each distinct rule text once, and the records that repeat it share it."""

    def test_records_that_share_rules_parse_as_they_do_alone(self):
        blocks = [OPENBSD_36_BLOCK, OPENBSD_22_BLOCK, LINUX_260_BLOCK]
        together = parse_fingerprint_db("\n".join(blocks))
        assert together == [sig for block in blocks for sig in parse_fingerprint_db(block)]
        a, b, _ = together
        assert all(x is y for x, y in zip(a.tests["T5"], b.tests["T5"]))  # the same five texts

    def test_a_bad_rule_on_two_lines_fails_at_the_first(self):
        with pytest.raises(ParseError, match="^line 3: field W wants a bare hex value, got 'Z'$"):
            parse_fingerprint_db("Fingerprint A\nT2(Resp=N)\nT1(W=Z)\n\nFingerprint B\nT1(W=Z)\n")

    @pytest.mark.parametrize("first, second, bad_line", [
        ("T1(DF=Z)", "T1(W=Z)", 5), ("T1(W=Z)", "T1(DF=Z)", 2),
        # an unknown test's W is no numeric field: its Z is kept verbatim
        ("U1(W=Z)", "T1(W=Z)", 5)])
    def test_each_field_reads_the_same_text_its_own_way(self, first, second, bad_line):
        with pytest.raises(ParseError, match=f"^line {bad_line}: field W wants a bare hex value, got 'Z'$"):
            parse_fingerprint_db(f"Fingerprint A\n{first}\n\nFingerprint B\n{second}\n")

    def test_a_text_one_field_refuses_others_keep(self):
        a, b = parse_fingerprint_db("Fingerprint A\nT1(DF=Z)\n\nFingerprint B\nU1(W=Z)\nT1(W=0%ACK=Z)\n")
        assert a.tests["T1"] == (FieldConstraint("DF", ("Z",)),)
        assert b.tests["U1"] == (FieldConstraint("W", (), "Z"),)
        assert b.tests["T1"] == (FieldConstraint("W", (0,)), FieldConstraint("ACK", ("Z",)))


class TestRoundTrip:
    def test_structural_roundtrip(self):
        text = (
            OPENBSD_36_BLOCK
            + "\nFingerprint Weird OS\n"
            + "Class V | F | 1.X | general purpose\n"
            + "Class V | F | 1.X | router\n"
            + "TSeq(Class=RI|TD%gcd=<6%SI=<2D870A&>66C6%VAL=9E)\n"
            + "T1(Bogus=keep|this%DF=Y)\n"
        )
        once = parse_fingerprint_db(text)
        again = parse_fingerprint_db(serialize_fingerprint_db(once))
        assert once == again

    # sha256 of serialize_fingerprint_db, recorded before rules were flattened
    @pytest.mark.parametrize("text, digest", [
        (demo_database(), "014ba4e4cb9e598c8d4a629c3119a4e44ca96b925c9b7081cd5fe0e2f734e4d6"),
        (demo_database() + "\n" + large_database(220),
         "17acb4cb77790b1834b4ba0e391828141129bb95215217405a9ead0f379c4363"),
        ((DATA / "fingerprints_v1.txt").read_text(),
         "20626ceb694a53661f0925531e9ef6aa9788926aa87b97364e4048455d41f968"),
    ], ids=["demo", "corpus", "v1"])
    def test_serialized_db_is_golden(self, text, digest):
        out = serialize_fingerprint_db(parse_fingerprint_db(text))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_observation_roundtrip(self):
        obs = parse_observation("Observation probe-1\n" + LINUX_260_T3 + "\n")
        assert obs.name == "probe-1"
        again = parse_observation(format_observation(obs))
        assert again == obs


class TestMatching:
    def test_hand_counted_score(self):
        # five rules considered, three satisfied -> 3/5
        sig = parse_fingerprint_db(
            "Fingerprint X\nT1(DF=Y%W=402E%ACK=S++%Flags=AS%Ops=MNWNNT)\nT2(Resp=N)\n"
        )[0]
        obs = parse_observation("T1(DF=Y%W=402e%ACK=O%Flags=AS%Ops=M)\n")
        assert match_scores([sig], obs)[0] == pytest.approx(0.6)

    def test_absent_field_not_considered(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(DF=Y%W=4000)\n")[0]
        obs = parse_observation("T1(DF=Y)\n")
        assert match_scores([sig], obs)[0] == 1.0

    def test_empty_considered_scores_zero(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(DF=Y)\n")[0]
        obs = parse_observation("T2(Resp=N)\n")
        assert match_scores([sig], obs)[0] == 0.0

    def test_cmp_bounds_are_strict(self):
        sig = parse_fingerprint_db("Fingerprint X\nTSeq(gcd=<6%SI=>A)\n")[0]
        assert match_scores([sig], parse_observation("TSeq(gcd=5%SI=B)\n"))[0] == 1.0
        assert match_scores([sig], parse_observation("TSeq(gcd=6%SI=B)\n"))[0] == 0.5
        assert match_scores([sig], parse_observation("TSeq(gcd=5%SI=A)\n"))[0] == 0.5

    def test_conjunction_window(self):
        sig = parse_fingerprint_db("Fingerprint X\nTSeq(SI=<10&>5)\n")[0]
        assert match_scores([sig], parse_observation("TSeq(SI=8)\n"))[0] == 1.0
        assert match_scores([sig], parse_observation("TSeq(SI=10)\n"))[0] == 0.0

    def test_alternatives(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(W=0|4000|>8000)\n")[0]
        for value, want in [("0", 1.0), ("4000", 1.0), ("8001", 1.0), ("7000", 0.0)]:
            assert match_scores([sig], parse_observation(f"T1(W={value})\n"))[0] == want

    def test_sibling_version_scores(self, openbsd_pair):
        bsd36, bsd22 = openbsd_pair
        obs = parse_observation(
            "T1(DF=N%W=4000%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
            "T2(Resp=N)\nT3(Resp=N)\n"
            "T4(DF=N%W=0%ACK=O%Flags=R%Ops=)\n"
            "T5(DF=N%W=0%ACK=S++%Flags=AR%Ops=)\n"
        )
        assert match_scores([bsd36], obs)[0] == 1.0
        # 2.2-2.3: considered 5+1+1+5+5 = 17, mismatches T1.W, T3.Resp, T4.W
        assert match_scores([bsd22], obs)[0] == pytest.approx(14 / 17)


class TestBestFit:
    def test_ranking_and_tie_order(self, openbsd_pair):
        db = openbsd_pair
        obs = parse_observation("T5(DF=N%W=0%ACK=S++%Flags=AR%Ops=)\n")
        ranked = best_fit(db, obs, top=10)
        # identical T5 lines -> tie at 1.0, database order preserved
        assert [name for name, _ in ranked] == ["OpenBSD 3.6 (i386)", "OpenBSD 2.2 - 2.3"]
        assert all(s == 1.0 for _, s in ranked)

    def test_permutation_invariance_up_to_ties(self, openbsd_pair):
        obs = parse_observation(
            "T1(DF=N%W=402E%ACK=S++%Flags=AS%Ops=MNWNNT)\nT4(DF=N%W=4000%ACK=O%Flags=R%Ops=)\n"
        )
        fwd = best_fit(openbsd_pair, obs, top=2)
        rev = best_fit(list(reversed(openbsd_pair)), obs, top=2)
        assert dict(fwd) == dict(rev)
        assert [s for _, s in fwd] == sorted((s for _, s in fwd), reverse=True)

    def test_sparse_signature_outranks_denser_match(self):
        # the classic failure mode: one matching rule beats eleven of twelve
        db = parse_fingerprint_db(
            "Fingerprint Dense OS\n"
            "Class V | F | 1.X | general purpose\n"
            "T1(DF=Y%W=16A0%ACK=S++%Flags=AS%Ops=MNNTNW)\n"
            "T4(DF=Y%W=0%ACK=O%Flags=R%Ops=)\n"
            "PU(DF=N%TOS=0)\n"
            "\n"
            "Fingerprint Sparse Impostor\n"
            "Class V | G | 9.X | game console\n"
            "T1(DF=Y)\n"
        )
        obs = parse_observation(
            "T1(DF=Y%W=16A0%ACK=S++%Flags=AS%Ops=MNNTNW)\n"
            "T4(DF=Y%W=0%ACK=O%Flags=R%Ops=)\n"
            "PU(DF=N%TOS=C0)\n"
        )
        ranked = best_fit(db, obs, top=2)
        assert ranked[0][0] == "Sparse Impostor"
        assert ranked[0][1] == 1.0
        assert ranked[1][1] == pytest.approx(11 / 12)


class TestObservations:
    def test_multiple_blocks(self):
        text = "Observation a\nT1(DF=Y)\n\nObservation b\nT2(Resp=N)\n"
        parsed = parse_observations(text)
        assert [o.name for o in parsed] == ["a", "b"]

    def test_headerless_single(self):
        obs = parse_observation("T1(DF=Y%W=4000)\n")
        assert obs.name is None
        assert obs.tests["T1"] == {"DF": "Y", "W": "4000"}

    def test_constraint_syntax_rejected(self):
        for bad in ["T1(W=0|4000)", "T1(W=<6)", "TSeq(SI=<10&>5)"]:
            with pytest.raises(ParseError, match="constraint syntax|conjunction"):
                parse_observation(bad + "\n")

    def test_hex_case_normalized_in_known_fields_only(self, caplog):
        with caplog.at_level(logging.WARNING, logger="neuralfp.signatures"):
            obs = parse_observation("T1(w=402e%Bogus=ab)\nT9(W=ab)\n")
        assert obs.tests == {"T1": {"W": "402E", "Bogus": "ab"}, "T9": {"W": "ab"}}
        assert [r.message for r in caplog.records] == [
            "line 1: unknown field T1.Bogus kept verbatim",
            "line 2: unknown test id T9",
            "line 2: unknown field T9.W kept verbatim",
        ]

    @pytest.mark.parametrize("value", ["0x4000", "+4000", "40_00", "-5", "", "4 0"])
    def test_numeric_values_are_bare_hex(self, value):
        with pytest.raises(ParseError, match="^line 1: field W wants a bare hex value"):
            parse_observation(f"T1(DF=Y%W={value})\n")
        # an unknown test's fields stay verbatim
        assert parse_observation(f"T9(W={value})\n").tests == {"T9": {"W": value.strip()}}

    @pytest.mark.parametrize("line, message", [
        ("T1(DF=Y%W=FFFFFFFF)", "field W: value FFFFFFFF above its bound FFFF"),
        ("T1(W=1%DF=Y%Ops=M%W=10000)", "duplicate field W in T1"),
        ("PU(TOS=100)", "field TOS: value 100 above its bound FF"),
        ("TSeq(SI=1000000)", "field SI: value 1000000 above its bound FFFFFF"),
        ("T1(W=" + "f" * 400 + ")", "field W: value " + "F" * 400 + " above its bound FFFF"),
    ], ids=["W", "duplicate field first", "TOS", "SI", "W of 400 digits"])
    def test_numeric_value_above_its_bound_is_refused(self, line, message):
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            parse_observations(f"Observation x\n{line}\n")
        # a value at the bound, with leading zeros or not, parses
        assert parse_observation("T1(W=0FFFF)\nPU(TOS=ff)\n").tests == {"T1": {"W": "0FFFF"},
                                                                        "PU": {"TOS": "FF"}}

    def test_exactly_one_required(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_observation("Observation a\nT1(DF=Y)\nObservation b\nT1(DF=N)\n")
        with pytest.raises(ParseError, match="exactly one"):
            parse_observation("# nothing\n")


# values free of the grammar's separators: % = ( ) | < > & and whitespace
_WORD = st.text(string.ascii_letters + string.digits + "+-_.", min_size=1, max_size=8)
_HEX = st.integers(0, 0xFFFFF).map(lambda v: f"{v:X}")
_NAME = st.text(string.ascii_letters + string.digits + " .-_()", min_size=1, max_size=20).map(
    str.strip).filter(bool)


@st.composite
def _probe_fields(draw, tid, value):
    """An ordered subset of a probe's known fields, each with a value."""
    names = draw(st.lists(st.sampled_from(KNOWN_FIELDS[tid]), unique=True))
    return {name: draw(value(name)) for name in names}


def _hex(name):
    """A numeric field's value in 0..its bound, where a db literal must lie."""
    return st.integers(0, NUMERIC_FIELDS[name]).map(lambda v: f"{v:X}")


def _observed(name):
    """An observed value: a word, or a numeric field's hex value, within
    its bound but rarely drawn from 0..FFFFF, which may exceed it."""
    if name not in NUMERIC_FIELDS:
        return _WORD
    # hypothesis favours the ends of a range, so a middle value picks the rare case
    return st.integers(0, 4).flatmap(lambda i: _HEX if i == 2 else _hex(name))


def _valid(name):
    """A value the observation parser accepts: a word, or a hex value within its field's bound."""
    return _hex(name) if name in NUMERIC_FIELDS else _WORD


@st.composite
def observations(draw, value=_observed):
    tids = draw(st.lists(st.sampled_from(list(KNOWN_FIELDS)), min_size=1, unique=True))
    tests = {tid: draw(_probe_fields(tid, value)) for tid in tids}
    return Observation(draw(st.none() | _NAME), tests)


def _atom(name):
    cmp = st.builds(Cmp, st.sampled_from("<>"), st.integers(0, 0xFFFFF))
    const = st.builds(Const, _hex(name) if name in NUMERIC_FIELDS else _WORD)
    if name not in NUMERIC_FIELDS:
        return const
    ranges = cmp | st.builds(And, st.lists(cmp, min_size=2, max_size=3).map(tuple))
    return const | ranges.filter(lambda atom: satisfiable(atom, NUMERIC_FIELDS[name]))


def _constraint(name):
    return _atom(name) | st.builds(OneOf, st.lists(_atom(name), min_size=2, max_size=3).map(tuple))


@st.composite
def tree_signatures(draw):
    """A signature in the tree shape, as the tree grammar's formatter takes it."""
    tids = draw(st.lists(st.sampled_from(list(KNOWN_FIELDS)), unique=True))
    tests = {}
    for tid in tids:
        fields = draw(_probe_fields(tid, _constraint))
        tests[tid] = tuple(TreeRule(f, c) for f, c in fields.items())
    classes = draw(st.lists(st.tuples(_WORD, _WORD, _WORD, _WORD), max_size=2).map(tuple))
    return Signature(draw(_NAME), classes, tests)


_DEMO = parse_fingerprint_db(demo_database())


class TestProperties:
    @settings(max_examples=100)
    @given(obs=observations(_valid))
    def test_observation_format_parse_is_identity(self, obs):
        assert parse_observation(format_observation(obs)) == obs

    @settings(max_examples=30)
    @given(tree=st.lists(tree_signatures(), max_size=3))
    def test_db_serialize_parse_is_identity(self, tree):
        text = format_tree_db(tree)
        db = parse_fingerprint_db(text)
        assert db == flatten(oracle_parse_fingerprint_db(text))
        assert parse_fingerprint_db(serialize_fingerprint_db(db)) == db

    @settings(max_examples=20)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**16))
    def test_machine_written_db_round_trips(self, n, seed):
        db = parse_fingerprint_db(large_database(n, seed))
        assert parse_fingerprint_db(serialize_fingerprint_db(db)) == db

    @settings(max_examples=100)
    @given(index=st.integers(0, len(_DEMO) - 1), seed=st.integers(0, 2**32 - 1))
    def test_sampled_observation_matches_its_signature(self, index, seed):
        sig = _DEMO[index]
        assert match_scores([sig], sample_observation(sig, np.random.default_rng(seed)))[0] == 1.0

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**16), pick=st.integers(0, 2**32 - 1))
    def test_sampled_observation_matches_machine_written_signature(self, seed, pick):
        db = parse_fingerprint_db(large_database(10, seed))
        sig = db[pick % len(db)]
        assert match_scores([sig], sample_observation(sig, np.random.default_rng(pick)))[0] == 1.0


# ---------------------------------------------------------------------------
# The parser as it was before observations were tokenized without atoms: the
# oracle for the shared test-line tokenizer.  Its observation path built a
# constraint atom for every field and unwrapped it again; its db path (in
# tree_grammar) is the one parse_fingerprint_db must still agree with, once
# its trees are flattened.

_OBS_RE = re.compile(r"^Observation\s+(.*\S)\s*$")
_VALUE_OK_RE = re.compile(r"^[^|<>&]*$")


def oracle_parse_observations(text):
    obs, name, tests, started = [], None, {}, False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _OBS_RE.match(line)
        if m:
            if started:
                obs.append(Observation(name, tests))
            name, tests, started = m.group(1), {}, True
            continue
        tid, rules = parse_test_line(line, lineno)
        fields = {}
        for rule in rules:
            if isinstance(rule.constraint, Const):
                value = fields[rule.field] = rule.constraint.value
                # the bound on a numeric value, which the package's parser checks as well
                bound = NUMERIC_FIELDS.get(rule.field)
                if bound is not None and BARE_HEX.fullmatch(value) and int(value, 16) > bound:
                    raise ParseError(f"field {rule.field}: value {value} above its bound {bound:X}", lineno)
            elif isinstance(rule.constraint, AnyValue) and _VALUE_OK_RE.match(rule.constraint.raw):
                fields[rule.field] = rule.constraint.raw
            else:
                raise ParseError(f"constraint syntax in observation field {rule.field}", lineno)
        if tid in tests:
            raise ParseError(f"duplicate test {tid}", lineno)
        tests[tid] = fields
        started = True
    if started:
        obs.append(Observation(name, tests))
    return obs


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(parse, text):
    """(result, ParseError message, warnings) of one parse."""
    handler = _Records()
    ORACLE_LOG.addHandler(handler)
    try:
        return parse(text), None, handler.messages
    except ParseError as exc:
        return None, str(exc), handler.messages
    finally:
        ORACLE_LOG.removeHandler(handler)


def flattened(tree_outcome):
    """A tree parse's outcome with its signatures flattened."""
    result, error, warnings = tree_outcome
    return (None if result is None else flatten(result)), error, warnings


_MUTATIONS = ("test id", "case", "syntax", "duplicate", "unknown", "no =", "empty", "spaces",
              "no )", "after )")


@st.composite
def mutated_test_line(draw, tid, fields):
    """A formatted test line, left alone or mutated as circulated and
    hand-written lines are.  Also returns whether a value in it carries
    constraint syntax."""
    # hypothesis favours the ends of a range, so a middle value picks the rare case
    kinds = draw(st.sets(st.sampled_from(_MUTATIONS), max_size=3)) if draw(
        st.integers(0, 4)) == 2 else set()
    if "test id" in kinds:
        tid = draw(st.sampled_from(["T9", "Foo", tid.lower()]))
    tokens = []
    for name, value in fields.items():
        if "case" in kinds:
            name = draw(st.sampled_from([name, name.lower(), name.upper(), name.swapcase()]))
            value = draw(st.sampled_from([value, value.lower()]))
        tokens.append(f"{name}={value}")
    syntax = "syntax" in kinds and bool(tokens)
    if syntax:
        i = draw(st.integers(0, len(tokens) - 1))
        at = draw(st.integers(tokens[i].index("=") + 1, len(tokens[i])))
        tokens[i] = tokens[i][:at] + draw(st.sampled_from("|<>&")) + tokens[i][at:]
    extra = {"duplicate": draw(st.sampled_from(tokens)) if tokens else None,
             "unknown": f"Bogus={draw(_WORD)}", "no =": draw(_WORD), "empty": " "}
    for kind in kinds & extra.keys():
        if extra[kind] is not None:
            tokens.insert(draw(st.integers(0, len(tokens))), extra[kind])
    sep = " % " if "spaces" in kinds else "%"
    close = ")"
    if "no )" in kinds:
        close = ""
    elif "after )" in kinds:
        close = draw(st.sampled_from([") junk", ")x"]))
    return f"{tid}({sep.join(tokens)}{close}", syntax


@st.composite
def mutated_observation_text(draw):
    obs = draw(observations())
    lines, syntax = [], False
    if obs.name is not None:
        lines.append(f"Observation {obs.name}")
    for tid, fields in obs.tests.items():
        line, carries = draw(mutated_test_line(tid, fields))
        lines.append(line)
        syntax |= carries
        if draw(st.integers(0, 19)) == 10:
            lines.append(line)  # a duplicate test
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "# note"])))
    return "\n".join(lines) + "\n", syntax


class TestTokenizerOracle:
    """parse_observations and parse_fingerprint_db agree with the parser
    that built constraint atoms, warnings and error messages included."""

    @settings(max_examples=300)
    @given(drawn=mutated_observation_text())
    def test_observations_agree(self, drawn):
        text, syntax = drawn
        got = outcome(parse_observations, text)
        want = outcome(oracle_parse_observations, text)
        if not syntax:
            assert got == want
            return
        assert got[1] is not None
        # literals with <, > or & in a known field were accepted; now rejected
        assert want[1] is not None or "constraint syntax in observation field" in got[1]

    @settings(max_examples=200)
    @given(drawn=mutated_observation_text())
    def test_db_test_lines_agree(self, drawn):
        text, syntax = drawn
        text = "Fingerprint X\n" + text.replace("Observation ", "# ")
        got = outcome(parse_fingerprint_db, text)
        want = outcome(oracle_parse_fingerprint_db, text)
        if got[1] is not None and re.search("wants a bare hex value|comparison in non-numeric|no value in",
                                            got[1]):
            # |, < or > inside a value made a numeric literal that is not
            # bare hex, such as '' or '4<0', a comparison in a field that
            # holds no number, or one that no sample can meet, such as W=<0:
            # accepted before, an error now
            assert syntax
            return
        want = flattened(want)
        if "&" not in text:
            assert got == want
        else:
            # a bad conjunction may now be reported after the line's other faults
            assert got[0] == want[0] and (got[1] is None) == (want[1] is None)

    @pytest.mark.parametrize("text", [
        demo_database(),
        large_database(220),
        *(path.read_text() for path in sorted(DATA.glob("*.txt"))),  # the databases, not the containers
    ])
    def test_databases_are_bit_identical(self, text):
        got = outcome(parse_fingerprint_db, text)
        assert got == flattened(outcome(oracle_parse_fingerprint_db, text))
        assert got[0] and got[1] is None

    @pytest.mark.parametrize("line, field", [
        ("T1(W=<)", "W"),
        ("T1(W=1>2)", "W"),
        ("T1(DF=a<b)", "DF"),
        ("T1(W=1&2)", "W"),
        ("T1(Bogus=a|b)", "Bogus"),
    ])
    def test_constraint_characters_name_the_field(self, line, field):
        with pytest.raises(ParseError, match=f"constraint syntax in observation field {field}$"):
            parse_observation(line + "\n")


# ---------------------------------------------------------------------------
# Golden parses, recorded before the four line formats shared one reader.

def parse_digest():
    """sha256 over the repr of every corpus db's parse (the demo db once more
    with every line indented and followed by a comment and a blank line), of
    300 sampled hosts parsed one by one and as one multi-block text, and of
    the synthetic Windows dumps parsed back from their text."""
    h = hashlib.sha256()
    demo = demo_database()
    noisy = "".join(f"  {line}\n# note\n\n" for line in demo.splitlines())
    for text in (demo, noisy, openbsd_study_database(), family_task_database(), large_database(),
                 (DATA / "fingerprints_v1.txt").read_text()):
        h.update(repr(parse_fingerprint_db(text)).encode())
    db = parse_fingerprint_db(demo + "\n" + large_database(220))
    rng = np.random.default_rng(2026)
    hosts = [sample_observation(db[int(rng.integers(len(db)))], rng) for _ in range(300)]
    h.update(repr([parse_observation(format_observation(obs)) for obs in hosts]).encode())
    named = [format_observation(Observation(f"host {i}", obs.tests)) for i, obs in enumerate(hosts)]
    h.update(repr(parse_observations("\n\n".join(named))).encode())
    for emap, _ in synthetic_windows_corpus():
        h.update(repr(parse_endpoint_dump(format_endpoint_dump(emap), emap.name)).encode())
    return h.hexdigest()


class TestGoldenParse:
    DIGEST = "14cc64cf67ee976d29d02700066c0b7f9f27f7bee3edf23690c1a1c47ca0ca06"

    def test_parses_keep_their_bits(self):
        assert parse_digest() == self.DIGEST


# Unusual and malformed observation text, recorded before the parser checked
# a line's constraint syntax once and a test's numeric fields by name.
ODD_OBSERVATIONS = [
    OPENBSD_36_BLOCK.replace("Fingerprint", "Observation").replace("Class", "# Class"),
    "T1(DF=N % W=4000 % ACK=S++ % Flags=AS % Ops=MNWNNT)",
    "t1(DF=Y)\nT1(df=y%w=ffff%flags=as%OPS=mnw%Resp=Y)\nTSeq(CLASS=td%Gcd=a%si=0%val=ff%ipid=i)",
    "T1(DF=Y%W=1)\nT9(W=zz%DF=Q)\nFoo(x=1)\nPU(tos=ff%Ulen=0)",
    "T1(DF=Y%Quirk=odd%TSeq=1)\nTSeq(PAD=1%W=q)",
    "T1(  DF = Y  %  W = 00ff  % ACK = S ++ )",
    "T1(W=1|2)", "T1(DF=<Y)", "T1(Quirk=a&b)", "T9(W=1|2)", "T1(W=zz%DF=a|b)", "T1(DF=a|b%W=zz)",
    "T1(W|X=1%DF=Y)", "T1(a<b=1)", "T1(x>=1%y&=2)", "T1(W|X=1%W=zz)", "T1(a<b=1%W=10000)", "T9(a<b=1%W=zz)",
    "T1(DF=Y%DF=N)", "T1(DF=Y%df=N)", "T1(Quirk=1%Quirk=2)",
    "T1(W=0x10)", "T1(W=G)", "T1(W=)", "T1(W=-1)", "TSeq(VAL=zz%gcd=yy)", "PU(TOS=zz%ULEN=1000000)",
    "PU(TOS=100)", "T1(W=10000)", "TSeq(gcd=1000000%SI=FFFFFF)", "PU(IPLEN=ffff%RIPTL=10000)",
    "T1(DF)", "T1(DF=Y%%W=1%)", "T1()", "T1(%)", "T1(DF=Y%  %W=1)", "T1(DF=Y%|)",
    "T1(DF=Y) x", "T1(DF=Y) ", "T1(DF=Y)|", "T1(DF=Y%W=10", "T1(DF=Y\nT2(Resp=N",
    "hello world", "T1(DF=Y)\nT1(DF=N)", "Observation a\nT1(DF=Y)\nObservation b\nT1(DF=N)",
    "Observation a\nObservation b", "", "# nothing", "T1(DF=Y)\nObservation late\nT2(Resp=N)",
]


class TestGoldenOddObservations:
    DIGEST = "0a974fca5a5515cc5cd883ccbc0542642d63b71883b095875d8f323265e794d2"

    def test_odd_and_varied_observations_keep_their_parse(self, caplog):
        # each text's observations or ParseError, with the records it logs;
        # then the varied hosts' printed forms, hex in both cases
        texts = ODD_OBSERVATIONS + [format_observation(obs) for obs in varied_observations(2000)]
        digest = hashlib.sha256()
        for text in texts:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="neuralfp.signatures"):
                try:
                    got = repr(parse_observations(text))
                except ParseError as exc:
                    got = f"ParseError {exc.line}: {exc}"
            records = [(r.levelname, r.getMessage()) for r in caplog.records]
            digest.update(repr((got, records)).encode())
        assert digest.hexdigest() == self.DIGEST


# ---------------------------------------------------------------------------
# The shared reader and the framing each format builds on it.

class TestReader:
    def test_lines_skip_blanks_and_comments(self):
        text = "  a b \n\n\t\n # note\n#\nc#d\n"
        assert list(lines(text)) == [(1, "a b"), (6, "c#d")]

    def test_records_number_their_header_line(self):
        text = "x\n# c\ny\nH 1\nz\n\nH 2\nH 3\nw\n"
        head = lambda line: line[2:] if line.startswith("H ") else None  # noqa: E731
        assert list(records(text, head)) == [
            (0, None, [(1, "x"), (3, "y")]),
            (4, "1", [(5, "z")]),
            (7, "2", []),
            (8, "3", [(9, "w")]),
        ]

    def test_no_lines_no_records(self):
        assert list(records("\n# only a comment\n", lambda line: line)) == []

    @pytest.mark.parametrize("text, message", [
        ("# c\nClass a | b | c | d\nFingerprint X\n", "line 2: Class line before any Fingerprint line"),
        ("\nT1(DF=Y)\nFingerprint X\n", "line 2: test line before any Fingerprint line"),
    ])
    def test_db_line_before_any_fingerprint(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_fingerprint_db(text)

    def test_db_header_with_empty_body(self):
        assert parse_fingerprint_db("Fingerprint A\n# nothing\nFingerprint B\nT1(DF=Y)\n") == [
            Signature("A", (), {}),
            Signature("B", (), {"T1": (FieldConstraint("DF", ("Y",)),)}),
        ]

    def test_test_lines_before_an_observation_header(self):
        parsed = parse_observations("T1(DF=Y)\nT2(Resp=N)\nObservation a\nT1(DF=N)\n")
        assert parsed == [Observation(None, {"T1": {"DF": "Y"}, "T2": {"Resp": "N"}}),
                          Observation("a", {"T1": {"DF": "N"}})]

    def test_observation_header_with_empty_body(self):
        assert parse_observations("Observation a\nObservation b\n\n") == [
            Observation("a", {}), Observation("b", {})]

    def test_several_faults_report_the_earliest_line(self):
        with pytest.raises(ParseError, match="^line 2: duplicate test T1$"):
            parse_observations("T1(DF=Y)\nT1(DF=N)\nObservation a\nT1(W=<5)\n")
        with pytest.raises(ParseError, match="^line 3: missing '='"):
            parse_fingerprint_db("Fingerprint A\nT1(DF=Y)\nT2(DF)\nFingerprint B\nClass a\n")
