"""Database grammar, match scoring, and round-trip serialization."""

import logging
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import sample_observation
from neuralfp.signatures import (
    KNOWN_FIELDS,
    NUMERIC_FIELDS,
    TEST_IDS,
    And,
    AnyValue,
    Cmp,
    Const,
    FieldConstraint,
    Observation,
    OneOf,
    ParseError,
    Signature,
    best_fit,
    format_observation,
    match_score,
    parse_fingerprint_db,
    parse_observation,
    parse_observations,
    serialize_fingerprint_db,
)

from conftest import LINUX_260_BLOCK, LINUX_260_T3, OPENBSD_22_BLOCK, OPENBSD_36_BLOCK


class TestParsing:
    def test_linux_block(self):
        sigs = parse_fingerprint_db(LINUX_260_BLOCK)
        assert len(sigs) == 1
        sig = sigs[0]
        assert sig.name == "Linux 2.6.0-test5 x86"
        assert sig.classes == (("Linux", "Linux", "2.6.X", "general purpose"),)
        assert list(sig.tests) == ["TSeq", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "PU"]
        # one rule per truncated line, nine in total
        assert sig.rule_count() == 9
        assert sig.tests["TSeq"][0].field == "Class"
        assert sig.tests["TSeq"][0].constraint == Const("RI")
        assert sig.tests["PU"][0].constraint == Const("N")

    def test_openbsd_block(self):
        sigs = parse_fingerprint_db(OPENBSD_36_BLOCK)
        assert len(sigs) == 1
        sig = sigs[0]
        assert sig.name == "OpenBSD 3.6 (i386)"
        t1 = {r.field: r.constraint for r in sig.tests["T1"]}
        assert t1["W"] == Const("4000")
        assert t1["Ops"] == Const("MNWNNT")
        assert sig.tests["T2"][0] == sig.tests["T2"][0]
        assert {r.field: r.constraint for r in sig.tests["T2"]} == {"Resp": Const("N")}
        # '%Flags=R' with no space still splits cleanly
        t4 = {r.field: r.constraint for r in sig.tests["T4"]}
        assert t4["Flags"] == Const("R")
        assert t4["Ops"] == Const("")

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
        assert sigs[0].rule_count() == 2
        assert any("unterminated" in rec.message for rec in caplog.records)

    def test_unknown_field_kept_verbatim(self, caplog):
        with caplog.at_level(logging.WARNING, logger="neuralfp.signatures"):
            sigs = parse_fingerprint_db("Fingerprint X\nT1(Bogus=Q|Z%DF=Y)\n")
        rule = sigs[0].tests["T1"][0]
        assert rule.field == "Bogus"
        assert rule.constraint == AnyValue("Q|Z")
        assert any("unknown field" in rec.message for rec in caplog.records)

    def test_constraint_grammar(self):
        text = "Fingerprint X\nTSeq(Class=RI%gcd=<6%SI=<2D870A&>66C6%IPID=Z|I%TS=100HZ)\n"
        sig = parse_fingerprint_db(text)[0]
        rules = {r.field: r.constraint for r in sig.tests["TSeq"]}
        assert rules["gcd"] == Cmp("<", 6)
        assert rules["SI"] == And((Cmp("<", 0x2D870A), Cmp(">", 0x66C6)))
        assert rules["IPID"] == OneOf((Const("Z"), Const("I")))
        assert rules["TS"] == Const("100HZ")

    def test_hex_case_normalized(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(W=402e)\n")[0]
        assert sig.tests["T1"][0].constraint == Const("402E")

    def test_bad_conjunction(self):
        with pytest.raises(ParseError, match="conjunction"):
            parse_fingerprint_db("Fingerprint X\nTSeq(SI=<5&RI)\n")


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
        assert match_score(sig, obs) == pytest.approx(0.6)

    def test_absent_field_not_considered(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(DF=Y%W=4000)\n")[0]
        obs = parse_observation("T1(DF=Y)\n")
        assert match_score(sig, obs) == 1.0

    def test_empty_considered_scores_zero(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(DF=Y)\n")[0]
        obs = parse_observation("T2(Resp=N)\n")
        assert match_score(sig, obs) == 0.0

    def test_cmp_bounds_are_strict(self):
        sig = parse_fingerprint_db("Fingerprint X\nTSeq(gcd=<6%SI=>A)\n")[0]
        assert match_score(sig, parse_observation("TSeq(gcd=5%SI=B)\n")) == 1.0
        assert match_score(sig, parse_observation("TSeq(gcd=6%SI=B)\n")) == 0.5
        assert match_score(sig, parse_observation("TSeq(gcd=5%SI=A)\n")) == 0.5

    def test_conjunction_window(self):
        sig = parse_fingerprint_db("Fingerprint X\nTSeq(SI=<10&>5)\n")[0]
        assert match_score(sig, parse_observation("TSeq(SI=8)\n")) == 1.0
        assert match_score(sig, parse_observation("TSeq(SI=10)\n")) == 0.0

    def test_alternatives(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(W=0|4000|>8000)\n")[0]
        for value, want in [("0", 1.0), ("4000", 1.0), ("8001", 1.0), ("7000", 0.0)]:
            assert match_score(sig, parse_observation(f"T1(W={value})\n")) == want

    def test_sibling_version_scores(self, openbsd_pair):
        bsd36, bsd22 = openbsd_pair
        obs = parse_observation(
            "T1(DF=N%W=4000%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
            "T2(Resp=N)\nT3(Resp=N)\n"
            "T4(DF=N%W=0%ACK=O%Flags=R%Ops=)\n"
            "T5(DF=N%W=0%ACK=S++%Flags=AR%Ops=)\n"
        )
        assert match_score(bsd36, obs) == 1.0
        # 2.2-2.3: considered 5+1+1+5+5 = 17, mismatches T1.W, T3.Resp, T4.W
        assert match_score(bsd22, obs) == pytest.approx(14 / 17)


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


@st.composite
def observations(draw):
    tids = draw(st.lists(st.sampled_from(TEST_IDS), min_size=1, unique=True))
    value = lambda name: _HEX if name in NUMERIC_FIELDS else _WORD  # noqa: E731
    tests = {tid: draw(_probe_fields(tid, value)) for tid in tids}
    return Observation(draw(st.none() | _NAME), tests)


def _atom(name):
    cmp = st.builds(Cmp, st.sampled_from("<>"), st.integers(0, 0xFFFFF))
    const = st.builds(Const, _HEX if name in NUMERIC_FIELDS else _WORD)
    if name not in NUMERIC_FIELDS:
        return const
    return const | cmp | st.builds(And, st.lists(cmp, min_size=2, max_size=3).map(tuple))


def _constraint(name):
    return _atom(name) | st.builds(OneOf, st.lists(_atom(name), min_size=2, max_size=3).map(tuple))


@st.composite
def signatures(draw):
    tids = draw(st.lists(st.sampled_from(TEST_IDS), unique=True))
    tests = {}
    for tid in tids:
        fields = draw(_probe_fields(tid, _constraint))
        tests[tid] = tuple(FieldConstraint(f, c) for f, c in fields.items())
    classes = draw(st.lists(st.tuples(_WORD, _WORD, _WORD, _WORD), max_size=2).map(tuple))
    return Signature(draw(_NAME), classes, tests)


_DEMO = parse_fingerprint_db(demo_database())


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(obs=observations())
    def test_observation_format_parse_is_identity(self, obs):
        assert parse_observation(format_observation(obs)) == obs

    @settings(max_examples=30, deadline=None)
    @given(db=st.lists(signatures(), max_size=3))
    def test_db_serialize_parse_is_identity(self, db):
        assert parse_fingerprint_db(serialize_fingerprint_db(db)) == db

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**16))
    def test_machine_written_db_round_trips(self, n, seed):
        db = parse_fingerprint_db(large_database(n, seed))
        assert parse_fingerprint_db(serialize_fingerprint_db(db)) == db

    @settings(max_examples=100, deadline=None)
    @given(index=st.integers(0, len(_DEMO) - 1), seed=st.integers(0, 2**32 - 1))
    def test_sampled_observation_matches_its_signature(self, index, seed):
        sig = _DEMO[index]
        assert match_score(sig, sample_observation(sig, np.random.default_rng(seed))) == 1.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), pick=st.integers(0, 2**32 - 1))
    def test_sampled_observation_matches_machine_written_signature(self, seed, pick):
        db = parse_fingerprint_db(large_database(10, seed))
        sig = db[pick % len(db)]
        assert match_score(sig, sample_observation(sig, np.random.default_rng(pick))) == 1.0
