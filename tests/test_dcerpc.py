"""Endpoint dump parsing, the Windows label space, and the refiner."""

import hashlib
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp.dcerpc import (
    DumpParseError,
    WindowsLabelSpace,
    WindowsRefiner,
    format_endpoint_dump,
    parse_endpoint_dump,
    report_windows,
    synthetic_windows_corpus,
    train_windows_net,
)
from neuralfp.encoding import EndpointMap, RpcProgram, build_endpoint_schema, encode_endpoint_map
from neuralfp.neural import Mlp

from conftest import MESSENGER_DUMP


_MESSENGER = "5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC"


class TestDumpParsing:
    def test_reference_shape(self):
        emap = parse_endpoint_dump(MESSENGER_DUMP, name="host")
        assert emap.name == "host"
        assert len(emap.programs) == 3
        assert emap.binding_count() == 8
        first = emap.programs[0]
        assert first.annotation == "Messenger Service"
        assert first.bindings[0] == ("ncalrpc", "ntsvcs")
        # datagram transport registered without an endpoint name
        assert first.bindings[3] == ("ncadg_ip_udp", None)

    def test_uuid_canonicalized_to_upper(self):
        emap = parse_endpoint_dump(
            "uuid 5a7b91f8-ff00-11d0-a9b2-00c04fb6e6fc\n  binding ncalrpc x\n"
        )
        assert emap.programs[0].uuid == "5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC"

    def test_empty_text_is_empty_map(self):
        emap = parse_endpoint_dump("\n# nothing here\n")
        assert emap.programs == ()
        assert emap.binding_count() == 0

    def test_malformed_uuid_reports_line(self):
        with pytest.raises(DumpParseError, match="line 2: malformed UUID"):
            parse_endpoint_dump("# hi\nuuid not-a-uuid\n")

    def test_binding_before_uuid(self):
        with pytest.raises(DumpParseError, match="binding before any uuid"):
            parse_endpoint_dump("binding ncalrpc x\n")

    def test_annotation_before_uuid(self):
        with pytest.raises(DumpParseError, match="annotation before any uuid"):
            parse_endpoint_dump("annotation hello\n")

    def test_program_without_bindings_rejected(self):
        text = "uuid 5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC\nuuid 1FF70682-0A51-30E8-076D-740BE8CEE98B\n  binding ncalrpc x\n"
        with pytest.raises(DumpParseError, match="line 1: .*no bindings"):
            parse_endpoint_dump(text)

    def test_unrecognized_directive(self):
        with pytest.raises(DumpParseError, match="unrecognized directive 'frobnicate'"):
            parse_endpoint_dump("frobnicate 12\n")

    @pytest.mark.parametrize("text, message", [
        ("uuid\n", "line 1: malformed UUID ''"),
        ("# c\n  uuid   \n", "line 2: malformed UUID ''"),
        ("uuidX 5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC\n", "line 1: unrecognized directive 'uuidX'"),
        ("uuid\t5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC\n",
         "line 1: unrecognized directive 'uuid\\t5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC'"),
        (f"uuid {_MESSENGER}\n# none\n", f"line 1: program {_MESSENGER} has no bindings"),
        (f"uuid {_MESSENGER}\n  binding\n", "line 2: binding needs a protocol"),
    ])
    def test_uuid_line_framing(self, text, message):
        with pytest.raises(DumpParseError, match=f"^{re.escape(message)}$"):
            parse_endpoint_dump(text)

    @pytest.mark.parametrize("text, message", [
        # a program with no bindings, then a malformed UUID
        (f"uuid {_MESSENGER}\nuuid not-a-uuid\n", f"line 1: program {_MESSENGER} has no bindings"),
        # a stray directive inside a program, then a malformed UUID
        (f"uuid {_MESSENGER}\n  binding ncalrpc x\n  frob\nuuid bad\n",
         "line 3: unrecognized directive 'frob'"),
        # a binding before any uuid line, then a program with no bindings
        (f"binding ncalrpc x\nuuid {_MESSENGER}\n", "line 1: binding before any uuid line"),
    ])
    def test_two_faults_report_the_earlier(self, text, message):
        with pytest.raises(DumpParseError, match=f"^{re.escape(message)}$"):
            parse_endpoint_dump(text)

    def test_format_round_trip(self):
        emap = parse_endpoint_dump(MESSENGER_DUMP)
        again = parse_endpoint_dump(format_endpoint_dump(emap))
        assert again.programs == emap.programs


class TestLabelSpace:
    def test_default_shape(self):
        labels = WindowsLabelSpace.default()
        assert len(labels.versions) == 4
        assert sum(len(v) for v in labels.editions.values()) == 10
        assert sum(len(v) for v in labels.service_packs.values()) == 11
        assert labels.total == 25
        assert len(labels.neurons) == 25
        assert len(labels.neuron_labels) == 25
        assert labels.neurons[labels.indices("edition", "XP")[1]] == ("edition", "XP", "Home")

    def test_groups_are_disjoint_and_cover(self):
        labels = WindowsLabelSpace.default()
        seen = set(labels.indices("version"))
        assert seen == set(range(len(labels.versions)))
        for v in labels.versions:
            for idx in (labels.indices("edition", v), labels.indices("sp", v)):
                chunk = set(idx)
                assert not (chunk & seen)
                seen |= chunk
        assert seen == set(range(labels.total))

    def test_target_vector_lights_three_neurons(self):
        labels = WindowsLabelSpace.default()
        y = labels.target_vector("2000", "Server", "1")
        assert y.shape == (25,)
        assert (y == 1.0).sum() == 3
        assert (y == -1.0).sum() == 22
        names = labels.neuron_labels
        lit = {names[i] for i in np.flatnonzero(y == 1.0)}
        assert lit == {"version 2000", "2000 edition Server", "2000 sp1"}


def _stub_refiner(outputs: np.ndarray, schema, labels) -> WindowsRefiner:
    """A refiner whose one hidden neuron ignores its input and whose
    output layer ignores that neuron: bias alone fixes the outputs."""
    w = np.zeros((len(outputs), 2))
    w[:, 0] = -np.arctanh(outputs)
    return WindowsRefiner(Mlp([np.zeros((1, schema.size + 1)), w]), schema, labels)


def _stub_dump() -> tuple:
    emap = parse_endpoint_dump(
        "uuid 00000001-0000-0000-0000-000000000000\n  binding ncalrpc a\n"
    )
    schema = build_endpoint_schema([emap])
    return emap, schema


class TestDecodeIndependence:
    def test_edition_neurons_cannot_move_sp_verdict(self):
        labels = WindowsLabelSpace.default()
        emap, schema = _stub_dump()
        base = np.full(25, -0.9)
        base[labels.neurons.index(("version", None, "XP"))] = 0.9
        base[labels.indices("sp", "XP")[1]] = 0.5  # sp0
        a = base.copy()
        a[labels.indices("edition", "XP")[0]] = 0.7  # Professional
        b = base.copy()
        b[labels.indices("edition", "XP")[1]] = 0.7  # Home
        va = _stub_refiner(a, schema, labels).classify(emap)
        vb = _stub_refiner(b, schema, labels).classify(emap)
        assert va.edition != vb.edition
        assert va.version == vb.version == "XP"
        assert va.service_pack == vb.service_pack == "0"

    def test_sp_neurons_cannot_move_edition_verdict(self):
        labels = WindowsLabelSpace.default()
        emap, schema = _stub_dump()
        base = np.full(25, -0.9)
        base[labels.neurons.index(("version", None, "2003"))] = 0.9
        base[labels.indices("edition", "2003")[2]] = 0.5
        a, b = base.copy(), base.copy()
        a[labels.indices("sp", "2003")[0]] = 0.7
        b[labels.indices("sp", "2003")[0]] = -0.2
        va = _stub_refiner(a, schema, labels).classify(emap)
        vb = _stub_refiner(b, schema, labels).classify(emap)
        assert va.edition == vb.edition == "Standard Edition"


@pytest.fixture(scope="module")
def refiner():
    corpus = synthetic_windows_corpus(per_triple=2, seed=1, dropout=0.0)
    return corpus, train_windows_net(corpus)


class TestRefiner:
    def test_corpus_covers_every_triple(self):
        corpus = synthetic_windows_corpus(per_triple=2, seed=1, dropout=0.0)
        labels = WindowsLabelSpace.default()
        triples = {t for _, t in corpus}
        expected = {
            (v, e, s)
            for v in labels.versions
            for e in labels.editions[v]
            for s in labels.service_packs[v]
        }
        assert triples == expected
        assert len(corpus) == 2 * len(expected)

    def test_replay_recovers_labels(self, refiner):
        corpus, ref = refiner
        hits = sum(
            (v.version, v.edition, v.service_pack) == triple
            for dump, triple in corpus
            for v in [ref.classify(dump)]
        )
        assert hits / len(corpus) >= 0.95

    def test_unknown_uuids_flag_low_confidence(self, refiner):
        _, ref = refiner
        stranger = parse_endpoint_dump(
            "uuid FFFFFFFF-0000-0000-0000-00000000FFFF\n  binding ncalrpc q\n"
        )
        verdict = ref.classify(stranger)
        assert verdict.low_confidence
        assert np.all(encode_endpoint_map(ref.schema, stranger) == -1.0)

    def test_report_sections(self, refiner):
        corpus, ref = refiner
        verdict = ref.classify(corpus[0][0])
        text = report_windows(verdict)
        assert text.startswith("DCE-RPC Windows analysis")
        assert "Windows version analysis" in text
        assert f"Windows {verdict.version} edition analysis" in text
        assert f"Windows {verdict.version} service pack analysis" in text

    def test_corpus_deterministic(self):
        a = synthetic_windows_corpus(per_triple=2, seed=9, dropout=0.2)
        b = synthetic_windows_corpus(per_triple=2, seed=9, dropout=0.2)
        assert [(m.programs, t) for m, t in a] == [(m.programs, t) for m, t in b]


class TestRefinerGolden:
    # recorded before the output layout became one neuron table: the
    # verdicts, scores, reports and targets must keep these bits
    DIGEST = "ecd90059b70fe2086dc015cd0b8365f9b06f66a4b34edb2a5c23de494e704b14"

    def test_verdicts_scores_reports_and_targets(self):
        labels = WindowsLabelSpace.default()
        ref = train_windows_net(synthetic_windows_corpus(seed=0))
        probes = [m for m, _ in synthetic_windows_corpus(per_triple=3, seed=5, dropout=0.4)]
        probes.append(parse_endpoint_dump(
            "uuid FFFFFFFF-0000-0000-0000-00000000FFFF\n  binding ncalrpc q\n"))
        h = hashlib.sha256()
        for dump in probes:
            v = ref.classify(dump)
            h.update(repr((v.version, v.edition, v.service_pack, v.low_confidence)).encode())
            h.update(repr(v.scores).encode())
            h.update(report_windows(v).encode())
        for version in labels.versions:
            for edition in labels.editions[version]:
                for sp in labels.service_packs[version]:
                    h.update(labels.target_vector(version, edition, sp).tobytes())
        assert h.hexdigest() == self.DIGEST


_TOKEN = st.text(string.ascii_letters + string.digits + "_\\.$", min_size=1, max_size=12)
_TEXT = st.text(string.ascii_letters + string.digits + " ._-", min_size=1, max_size=24).map(
    str.strip).filter(bool)
_UUIDS = st.uuids().map(lambda u: str(u).upper())
_PROGRAMS = st.builds(
    RpcProgram,
    _UUIDS,
    st.none() | _TEXT,
    st.lists(st.tuples(_TOKEN, st.none() | _TOKEN), min_size=1, max_size=4).map(tuple),
)


class TestDumpProperties:
    @settings(max_examples=100)
    @given(name=st.none() | _TEXT, programs=st.lists(_PROGRAMS, max_size=5).map(tuple))
    def test_format_parse_is_identity(self, name, programs):
        emap = EndpointMap(name, programs)
        assert parse_endpoint_dump(format_endpoint_dump(emap), name=name) == emap
