"""Vector layout and encoding semantics."""

import hashlib
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuralfp.encoding import (
    FIELDS,
    PU_BASE,
    TOTAL_NEURONS,
    TSEQ_BASE,
    EncodeError,
    EndpointMap,
    RpcProgram,
    build_endpoint_schema,
    encode_endpoint_map,
    encode_observation,
    feature_label,
    has_encoded_field,
    layout_table,
)
from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import sample_observation
from neuralfp.signatures import (
    KNOWN_FIELDS,
    FieldConstraint,
    Observation,
    parse_fingerprint_db,
    parse_observation,
)

from conftest import LINUX_260_T3, scan_hosts


def enc(text):
    return encode_observation(parse_observation(text))


class TestLayout:
    def test_total_width(self):
        assert TOTAL_NEURONS == 568
        assert len(layout_table()) == 568
        assert enc("T1(DF=Y)\n").shape == (568,)

    def test_survivor_table_indices(self):
        # Every named row of the OpenBSD survivor table lands on its
        # published index. Option-group numbers are zero-based; the S++
        # label lost its suffix in flattened copies of the table.
        table = {idx: (test, label) for idx, test, label in layout_table()}
        expected = [
            (20, "T1", "TCP OPT 1 EOL"),
            (26, "T1", "TCP OPT 2 EOL"),
            (29, "T1", "TCP OPT 2 TIMESTAMP"),
            (74, "T1", "W FIELD"),
            (75, "T2", "ACK FIELD"),
            (149, "T2", "W FIELD"),
            (150, "T3", "ACK FIELD"),
            (170, "T3", "TCP OPT 1 EOL"),
            (179, "T3", "TCP OPT 2 TIMESTAMP"),
            (224, "T3", "W FIELD"),
            (227, "T4", "SEQ S++"),
            (299, "T4", "W FIELD"),
            (377, "T6", "SEQ S++"),
            (452, "T7", "SEQ S++"),
            (525, "TSeq", "CLASS FIELD"),
            (526, "TSeq", "SEQ TD"),
            (528, "TSeq", "SEQ RI"),
            (529, "TSeq", "SEQ TR"),
            (532, "TSeq", "GCD FIELD"),
            (533, "TSeq", "IPID FIELD"),
            (535, "TSeq", "IPID SEQ BROKEN INCR"),
            (536, "TSeq", "IPID SEQ RPI"),
            (537, "TSeq", "IPID SEQ RD"),
            (540, "TSeq", "SI FIELD"),
            (543, "TSeq", "TS SEQ 2HZ"),
            (546, "TSeq", "TS SEQ UNSUPPORTED"),
            (555, "PU", "UCK EQ"),
            (558, "PU", "RID ZERO"),
            (559, "PU", "RIPCK EQ"),
            (560, "PU", "RIPCK FAIL"),
            (563, "PU", "DAT EQ"),
            (564, "PU", "DAT FAIL"),
            (565, "PU", "RIPTL FIELD"),
            (566, "PU", "TOS FIELD"),
        ]
        for idx, test, label in expected:
            assert table[idx] == (test, label), f"index {idx}"

    def test_feature_label(self):
        assert feature_label(74) == "T1: W FIELD"
        assert feature_label(525) == "TSeq: CLASS FIELD"


class TestTcpBlocks:
    def test_linux_t3_row(self):
        vec = enc(LINUX_260_T3 + "\n")
        base = 150
        assert vec[base + 0] == 1.0       # ACK field present
        assert vec[base + 1] == -1.0      # S
        assert vec[base + 2] == 1.0       # S++
        assert vec[base + 3] == -1.0      # O
        assert vec[base + 4] == 1.0       # DF=Y
        assert vec[base + 5] == 1.0       # responded
        assert vec[base + 6] != 0.0       # Flags aggregate (two set flags)
        flags = vec[base + 7:base + 14]
        assert list(flags) == [-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0]
        assert vec[224] == float(0x16A0)
        # Ops=MNNTNW: MAXSEG NOP NOP TIMESTAMP NOP WINDOW then empty groups
        g0 = vec[base + 14:base + 20]
        assert list(g0) == [-1.0, 1.0, -1.0, -1.0, -1.0, -1.0]
        g3 = vec[base + 14 + 18:base + 14 + 24]
        assert list(g3) == [-1.0, -1.0, -1.0, 1.0, -1.0, -1.0]
        for g in range(6, 10):
            grp = vec[base + 14 + 6 * g:base + 20 + 6 * g]
            assert list(grp) == [-1.0] * 6

    def test_absent_test_is_all_zero(self):
        vec = enc(LINUX_260_T3 + "\n")
        assert not vec[0:150].any()
        assert not vec[225:525].any()
        assert not vec[TSEQ_BASE:].any()

    def test_no_response_sets_only_resp(self):
        vec = enc("T2(Resp=N)\n")
        base = 75
        assert vec[base + 5] == -1.0
        rest = np.delete(vec[base:base + 75], 5)
        assert not rest.any()

    def test_implied_response(self):
        # a test line with fields but no Resp counts as answered
        assert enc("T1(DF=Y)\n")[5] == 1.0

    def test_empty_ops_differs_from_absent(self):
        present = enc("T4(Ops=)\n")
        absent = enc("T4(DF=N)\n")
        base = 225
        assert list(present[base + 14:base + 74]) == [-1.0] * 60
        assert not absent[base + 14:base + 74].any()

    def test_flags_empty_and_bogus_letter(self):
        vec = enc("T4(Flags=)\n")
        assert vec[225 + 6] == 0.0
        assert list(vec[225 + 7:225 + 14]) == [-1.0] * 7
        # first-gen reserved-bit spelling B lands on the ECE neuron
        vec = enc("T1(Flags=BSF)\n")
        assert vec[6] == 3.0
        assert list(vec[7:14]) == [1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0]

    def test_unrecognized_ack_value(self):
        vec = enc("T1(ACK=Z)\n")
        assert vec[0] == 1.0
        assert list(vec[1:4]) == [-1.0] * 3

    @pytest.mark.parametrize("value", ["12G4", "0x4000", "+4000", "40_00", "-5", ""])
    def test_w_must_be_hex(self, value):
        # the parser rejects these first; the encoder, like the matcher,
        # still reads only bare hex as a number in a built observation
        with pytest.raises(EncodeError, match="T1.W"):
            encode_observation(Observation(None, {"T1": {"W": value}}))

    def test_w_too_large_for_a_float_is_named(self):
        # the parser refuses a value above W's bound first; a built observation meets the encoder
        with pytest.raises(EncodeError, match="^T1.W too large for a float: 400 hex digits$"):
            encode_observation(Observation(None, {"T1": {"W": "F" * 400}}))

    def test_df_must_be_yn(self):
        with pytest.raises(EncodeError, match="T1.DF"):
            enc("T1(DF=MAYBE)\n")

    def test_block_locality(self):
        # changing one test's fields never touches another test's block
        rng = np.random.default_rng(7)
        base_text = "T1(DF=Y%W=4000%ACK=S%Flags=AS%Ops=MNWNNT)\nT4(DF=N%W=0)\n"
        before = enc(base_text)
        for w in rng.integers(1, 0xFFFF, size=5):
            after = enc(f"T1(DF=N%W={w:X}%ACK=O%Flags=R%Ops=M)\nT4(DF=N%W=0)\n")
            assert np.array_equal(before[75:], after[75:])
            assert not np.array_equal(before[:75], after[:75])


class TestTseqAndPu:
    def test_tseq_values(self):
        vec = enc("TSeq(Class=RI%gcd=1%SI=1F4%IPID=Z%TS=2HZ%VAL=9E)\n")
        b = TSEQ_BASE
        assert vec[b] == 1.0
        assert list(vec[b + 1:b + 7]) == [-1.0, -1.0, 1.0, -1.0, -1.0, -1.0]
        assert vec[b + 7] == 1.0
        assert vec[b + 8] == 1.0
        assert list(vec[b + 9:b + 15]) == [-1.0, -1.0, -1.0, -1.0, -1.0, 1.0]
        assert vec[b + 15] == float(0x1F4)
        assert vec[b + 16] == 1.0
        assert list(vec[b + 17:b + 22]) == [-1.0, 1.0, -1.0, -1.0, -1.0]
        assert vec[b + 22] == float(0x9E)
        assert list(vec[b + 23:b + 27]) == [0.0] * 4

    def test_tseq_padding_always_zero(self):
        vec = enc("TSeq(Class=C%gcd=40%SI=0%IPID=C%TS=U%VAL=FF)\n")
        assert not vec[TSEQ_BASE + 23:TSEQ_BASE + 27].any()

    def test_unknown_class_value(self):
        vec = enc("TSeq(Class=WEIRD)\n")
        assert vec[TSEQ_BASE] == 1.0
        assert list(vec[TSEQ_BASE + 1:TSEQ_BASE + 7]) == [-1.0] * 6

    def test_pu_values(self):
        vec = enc("PU(DF=N%TOS=C0%IPLEN=38%RIPTL=148%RID=E%RIPCK=F%UCK=0%ULEN=134%DAT=E)\n")
        b = PU_BASE
        assert vec[b + 0] == -1.0
        assert list(vec[b + 1:b + 4]) == [1.0, -1.0, -1.0]     # UCK=0
        assert list(vec[b + 4:b + 7]) == [1.0, -1.0, -1.0]     # RID=E
        assert list(vec[b + 7:b + 10]) == [-1.0, 1.0, -1.0]    # RIPCK=F
        assert vec[b + 10] == float(0x134)
        assert list(vec[b + 11:b + 13]) == [1.0, -1.0]         # DAT=E
        assert vec[b + 13] == float(0x148)
        assert vec[b + 14] == float(0xC0)
        assert vec[b + 15] == float(0x38)

    def test_pu_bad_outcome(self):
        with pytest.raises(EncodeError, match="PU.RID"):
            enc("PU(RID=Q)\n")


def two_maps():
    m1 = EndpointMap(
        "host-a",
        (
            RpcProgram(
                "5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC",
                None,
                (("ncalrpc", "ntsvcs"), ("ncacn_np", r"\PIPE\ntsvcs")),
            ),
            RpcProgram(
                "1FF70682-0A51-30E8-076D-740BE8CEE98B",
                "Messenger Service",
                (("ncalrpc", "LRPC"),),
            ),
        ),
    )
    m2 = EndpointMap(
        "host-b",
        (
            RpcProgram(
                "5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC",
                None,
                (("ncalrpc", "ntsvcs"), ("ncadg_ip_udp", None)),
            ),
        ),
    )
    return m1, m2


class TestEndpointEncoding:
    def test_schema_first_seen_order(self):
        m1, m2 = two_maps()
        schema = build_endpoint_schema([m1, m2])
        # uuid, its two bindings, second uuid, its binding, then the novel
        # binding from the second map
        assert schema.size == 6
        assert schema.uuid_index["5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC"] == 0
        assert schema.binding_index[("5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC", "ncalrpc", "ntsvcs")] == 1
        assert schema.uuid_index["1FF70682-0A51-30E8-076D-740BE8CEE98B"] == 3
        assert schema.binding_index[("5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC", "ncadg_ip_udp", None)] == 5

    def test_encode_plus_minus_one(self):
        m1, m2 = two_maps()
        schema = build_endpoint_schema([m1, m2])
        v1 = encode_endpoint_map(schema, m1)
        assert set(v1) <= {-1.0, 1.0}
        assert list(v1) == [1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
        v2 = encode_endpoint_map(schema, m2)
        assert list(v2) == [1.0, 1.0, -1.0, -1.0, -1.0, 1.0]

    def test_novel_binding_only_uuid_neuron(self):
        m1, _ = two_maps()
        schema = build_endpoint_schema([m1])
        novel = EndpointMap(
            None,
            (RpcProgram("5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC", None, (("ncacn_ip_tcp", "135"),)),),
        )
        vec = encode_endpoint_map(schema, novel)
        assert vec[schema.uuid_index["5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC"]] == 1.0
        assert list(vec[1:]) == [-1.0] * (schema.size - 1)

    def test_unknown_uuid_ignored(self):
        m1, _ = two_maps()
        schema = build_endpoint_schema([m1])
        stranger = EndpointMap(
            None, (RpcProgram("00000000-0000-0000-0000-000000000000", None, ()),)
        )
        assert list(encode_endpoint_map(schema, stranger)) == [-1.0] * schema.size


_DBS = [parse_fingerprint_db(demo_database()), parse_fingerprint_db(large_database(40))]


class TestProperties:
    @settings(max_examples=100)
    @given(which=st.integers(0, 1), pick=st.integers(0, 2**32 - 1))
    def test_sampled_observation_encodes_finite_and_full_width(self, which, pick):
        db = _DBS[which]
        vec = encode_observation(sample_observation(db[pick % len(db)], np.random.default_rng(pick)))
        assert vec.shape == (TOTAL_NEURONS,) == (568,)
        assert np.isfinite(vec).all()


# Digests of the layout and of encoded samples, recorded before the layout
# was declared as one field table; any moved slot or changed bit fails.
LAYOUT_SHA256 = "4dc92de25d56525fe09d708dfbd61bdb3db21502c8d5c5088f4985c72686ce0a"
SAMPLES_SHA256 = "2907ca3f7afc4e16ba2f3f7520963caa0ce9ce9cab1dc07603be8353c76fc594"
# recorded before known values were written from tables built at import
SCAN_HOSTS_SHA256 = "03667819831da41a7f16b469980d51ae9ea1e059f9a224c8ac0eb967149dfd9f"


class TestGolden:
    def test_layout_digest(self):
        text = "".join(f"{i}\t{test}\t{label}\n" for i, test, label in layout_table())
        assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_SHA256

    def test_sample_digest(self):
        # five samples per signature of the demo db and large_database(40)
        digest = hashlib.sha256()
        for db in _DBS:
            for k, sig in enumerate(db):
                rng = np.random.default_rng(k)
                for _ in range(5):
                    vec = encode_observation(sample_observation(sig, rng))
                    digest.update(vec.astype("<f8").tobytes())
        assert digest.hexdigest() == SAMPLES_SHA256

    def test_scan_hosts_digest(self):
        # the parsed observations of the first 1000 bench scan hosts of seed 1
        digest = hashlib.sha256()
        for obs, _ in scan_hosts(_DBS[0], 1000):
            digest.update(encode_observation(obs).astype("<f8").tobytes())
        assert digest.hexdigest() == SCAN_HOSTS_SHA256


def _encoder_records(caplog):
    return [r for r in caplog.records if r.name == "neuralfp.encoding"]


class TestLoggedDrops:
    @pytest.mark.parametrize("text, message, start, bits", [
        ("T1(ACK=Z)", "T1.ACK=Z", 0, [1.0, -1.0, -1.0, -1.0]),
        ("TSeq(Class=WEIRD)", "TSeq.Class=WEIRD", TSEQ_BASE, [1.0] + [-1.0] * 6),
        ("TSeq(IPID=QQ)", "TSeq.IPID=QQ", TSEQ_BASE + 8, [1.0] + [-1.0] * 6),
        ("TSeq(TS=7HZ)", "TSeq.TS=7HZ", TSEQ_BASE + 16, [1.0] + [-1.0] * 5),
        # the count and the slots see only the known letters A and S
        ("T3(Flags=AXS)", "'X' in T3.Flags=AXS", 156, [2.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0]),
        # the unknown letter's group stays all -1, the next group is M
        ("T2(Ops=QM)", "'Q' in T2.Ops=QM", 89, [-1.0] * 7 + [1.0] + [-1.0] * 4),
        # group 9 is the tenth letter; the eleventh is dropped
        ("T5(Ops=MMMMMMMMMMN)", "T5.Ops=MMMMMMMMMMN: groups past 10", 368,
         [-1.0, 1.0, -1.0, -1.0, -1.0, -1.0]),
    ])
    def test_one_warning_and_the_same_bits(self, caplog, text, message, start, bits):
        obs = parse_observation(text + "\n")
        with caplog.at_level(logging.WARNING, logger="neuralfp.encoding"):
            vec = encode_observation(obs)
        records = _encoder_records(caplog)
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        assert message in records[0].getMessage()
        assert list(vec[start:start + len(bits)]) == bits

    def test_known_values_log_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="neuralfp.encoding"):
            enc("T1(Resp=Y%DF=Y%W=16A0%ACK=S++%Flags=BEUAPRSF%Ops=LMNTWELMNT)\n"
                "TSeq(Class=i800%gcd=1%IPID=RPI%TS=1000HZ%VAL=9E)\n")
        assert _encoder_records(caplog) == []

    def test_sampled_observations_log_nothing(self, caplog):
        dbs = [parse_fingerprint_db(demo_database()), parse_fingerprint_db(large_database())]
        rng = np.random.default_rng(3)
        with caplog.at_level(logging.DEBUG, logger="neuralfp.encoding"):
            for db in dbs:
                for sig in db:
                    for _ in range(5):
                        encode_observation(sample_observation(sig, rng))
        assert _encoder_records(caplog) == []

    def test_silent_udp_probe_encodes_like_an_unsent_one(self, caplog):
        # the paper's 16-neuron PU block has no slot for Resp
        with caplog.at_level(logging.DEBUG, logger="neuralfp.encoding"):
            silent = enc("T1(DF=Y)\nPU(Resp=N)\n")
            answered = enc("PU(Resp=Y%DF=N)\n")
        assert np.array_equal(silent, enc("T1(DF=Y)\n"))
        assert np.array_equal(answered, enc("PU(DF=N)\n"))
        assert _encoder_records(caplog) == []


class TestRepeatedValues:
    """Known choice and Y/N values are written from tables; any other value
    is checked again on every call."""

    @pytest.mark.parametrize("text, message", [
        ("T3(Flags=AXS)", "'X' in T3.Flags=AXS"),
        ("T2(Ops=QM)", "'Q' in T2.Ops=QM"),
        ("T5(Ops=MMMMMMMMMMN)", "T5.Ops=MMMMMMMMMMN: groups past 10"),
        ("T1(ACK=Z)", "T1.ACK=Z"),
        ("TSeq(Class=WEIRD)", "TSeq.Class=WEIRD"),
    ])
    def test_unknown_letters_and_values_log_on_every_call(self, caplog, text, message):
        obs = parse_observation(text + "\n")
        with caplog.at_level(logging.WARNING, logger="neuralfp.encoding"):
            vecs = [encode_observation(obs) for _ in range(3)]
        records = _encoder_records(caplog)
        assert len(records) == 3 and all(message in r.getMessage() for r in records)
        assert all(np.array_equal(v, vecs[0]) for v in vecs)

    @pytest.mark.parametrize("text, field", [("T1(DF=X)", "T1.DF"), ("PU(UCK=Q)", "PU.UCK")])
    def test_bad_values_raise_on_every_call(self, text, field):
        obs = parse_observation(text + "\n")
        for _ in range(3):
            with pytest.raises(EncodeError, match=field):
                encode_observation(obs)


_ENTRY = {(f.test, f.name): f for f in FIELDS}
_PARSER_FIELDS = [(test, name) for test, names in KNOWN_FIELDS.items() for name in names]


def _known_value(f):
    """A value of f's kind that the encoder knows."""
    return {"num": "1", "yn": "Y", "resp": "Y", "unslotted": "Y"}.get(f.kind) or next(iter(f.slot))


class TestVocabulary:
    """The parser, the sampler and the encoder read one field table."""

    @pytest.mark.parametrize("test, name", _PARSER_FIELDS)
    def test_each_known_field_parses_and_encodes_in_its_span(self, caplog, test, name):
        f = _ENTRY[test, name]
        with caplog.at_level(logging.DEBUG, logger="neuralfp"):
            vec = enc(f"{test}({name}={_known_value(f)})\n")
        assert caplog.records == []
        # a TCP test that answered implies Resp=Y
        implied = [g for g in FIELDS if g.test == test and g.absent is not None and g is not f]
        allowed = np.zeros(TOTAL_NEURONS, dtype=bool)
        for g in [f] + implied:
            allowed[g.start:g.stop] = True
        assert not vec[~allowed].any()
        assert vec[f.start:f.stop].any() == (f.stop > f.start)

    @settings(max_examples=200)
    @given(tests=st.dictionaries(
        st.sampled_from(sorted({f.test for f in FIELDS}) + ["T9"]),
        st.dictionaries(st.sampled_from(sorted({f.name for f in FIELDS}) + ["ZZ"]),
                        st.sampled_from(["1", "N", "Y"]), max_size=3),
        max_size=4))
    @example(tests={"T9": {"W": "1"}})
    @example(tests={"TSeq": {}})
    @example(tests={"PU": {"Resp": "N"}})
    @example(tests={"TSeq": {"PAD": "1"}, "PU": {"Resp": "Y"}})
    def test_has_encoded_field_is_the_walk_over_the_table(self, tests):
        obs = Observation(None, tests)
        walk = any(f.name in tests.get(f.test, ()) for f in FIELDS
                   if f.kind not in ("pad", "unslotted"))
        assert has_encoded_field(obs) == walk

    def test_only_pu_resp_owns_no_slot(self):
        assert [(f.test, f.name) for f in FIELDS if f.start == f.stop] == [("PU", "Resp")]

    def test_padding_is_not_a_field(self, caplog):
        with caplog.at_level(logging.WARNING, logger="neuralfp.signatures"):
            sig, = parse_fingerprint_db("Fingerprint Padded\nTSeq(PAD=1)\n")
        assert sig.tests["TSeq"] == (FieldConstraint("PAD", (), "1"),)
        assert "unknown field TSeq.PAD kept verbatim" in caplog.text

    @pytest.mark.parametrize("test, name", [(f.test, f.name) for f in FIELDS if f.kind == "num"])
    def test_open_comparison_samples_within_the_table_bound(self, test, name):
        bound = _ENTRY[test, name].bound
        rng = np.random.default_rng(0)
        for rule, low in ((">0", 1), (f">{bound - 1:X}", bound)):
            sig, = parse_fingerprint_db(f"Fingerprint Open\n{test}({name}={rule})\n")
            values = [int(sample_observation(sig, rng).tests[test][name], 16) for _ in range(50)]
            assert low <= min(values) and max(values) <= bound
