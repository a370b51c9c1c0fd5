"""Container round-trips, integrity checks, and error taxonomy."""

import base64
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import stat
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from neuralfp.cli import main
from neuralfp.corpus import demo_database
from neuralfp.datagen import (
    Dataset,
    GenerationError,
    SampleLabel,
    generate_dataset,
    sample_observation,
    stage_targets,
)
from neuralfp.encoding import build_endpoint_schema
from neuralfp.dcerpc import (
    WindowsLabelSpace,
    WindowsRefiner,
    parse_endpoint_dump,
    synthetic_windows_corpus,
    train_windows_net,
)
from neuralfp.hierarchy import (
    HierarchyConfig,
    HierarchyError,
    classify,
    classify_vector,
    train_hierarchy,
)
from neuralfp.neural import Mlp, forward, init_mlp
from neuralfp.persistence import (
    FORMAT_VERSION,
    READ_FORMATS,
    CorruptContainerError,
    FormatVersionError,
    KindMismatchError,
    PersistenceError,
    _canonical,
    _decode_array,
    _digest,
    _encode,
    decode_config,
    load,
    load_container,
    save,
)
from neuralfp.preprocess import fit_pipeline
from neuralfp.signatures import format_observation, parse_fingerprint_db

from hosts import scan_hosts

DATA = Path(__file__).parent / "data"


def _split(path):
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


def _join(path, header, body: bytes):
    path.write_bytes(_canonical(header) + b"\n" + body)


def _rewrite_body(path, mutate):
    """Edit the parsed body and re-digest it, so that only decoding can object."""
    header, body = _split(path)
    raw = json.loads(body)
    mutate(raw)
    body = _canonical(raw)
    _join(path, {**header, "digest": _digest(body)}, body)


def _relabel_format_2(path):
    """Give a container the format-2 header: format 2 had this layout, but
    each pipeline stored a full-width normalizer."""
    header, body = _split(path)
    _join(path, {**header, "format_version": 2}, body)


def _pipeline(seed=0):
    """A small fitted pipeline: the container tests need some artifact of a kind."""
    return fit_pipeline(np.random.default_rng(seed).normal(size=(40, 6)))


def _stage_nets(model):
    return {name: stage.net for name, stage in model.stages().items()}


class TestNetworkRoundTrip:
    """A net is saved inside the hierarchy that holds it."""

    def test_forward_outputs_bit_exact_on_100_random_inputs(self, small_hierarchy):
        model, root = small_hierarchy
        back = _stage_nets(load(root / "h.model"))
        for name, net in _stage_nets(model).items():
            probe = np.random.default_rng(42).uniform(-10.0, 10.0, (100, net.sizes[0]))
            assert np.array_equal(forward(net, probe), forward(back[name], probe))

    def test_history_survives(self, small_hierarchy):
        model, root = small_hierarchy
        back = _stage_nets(load(root / "h.model"))
        for name, net in _stage_nets(model).items():
            assert back[name].history.rows == net.history.rows

    def test_weights_identical(self, small_hierarchy):
        model, root = small_hierarchy
        back = _stage_nets(load(root / "h.model"))
        for name, net in _stage_nets(model).items():
            assert len(net.weights) == len(back[name].weights)
            for a, b in zip(net.weights, back[name].weights):
                assert np.array_equal(a, b)


class TestOtherKinds:
    def test_pipeline_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 9))
        X[:, 4] = 2.0  # constant column exercises the mask
        pipe = fit_pipeline(X, variance=0.98)
        save(pipe, tmp_path / "p.model")
        back = load(tmp_path / "p.model")
        assert back.kept == pipe.kept
        assert np.array_equal(pipe.apply(X), back.apply(X))

    def test_dataset_round_trip(self, tmp_path):
        db = parse_fingerprint_db(demo_database())
        ds = generate_dataset(db, None, 120, stage="family", seed=6)
        save(ds, tmp_path / "d.model")
        back = load(tmp_path / "d.model")
        assert back.stage == "family"
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)
        assert back.labels == ds.labels
        assert back.output_labels == ds.output_labels

    @pytest.mark.parametrize("cell, value, wants", [
        ("inputs", math.nan, "finite inputs"),
        ("inputs", -math.inf, "finite inputs"),
        ("targets", 0.5, "targets of -1 or \\+1"),
        ("targets", -0.5, "targets of -1 or \\+1"),
        ("targets", 0.0, "targets of -1 or \\+1"),
    ])
    def test_dataset_wants_finite_inputs_and_unit_targets(self, tmp_path, cell, value, wants):
        db = parse_fingerprint_db(demo_database())
        good = generate_dataset(db, None, 70, stage="relevance", seed=8)
        save(good, tmp_path / "good.ds")
        getattr(good, cell)[7, 0] = value
        with pytest.raises(PersistenceError, match=f"cannot save Dataset: expected .*{wants}"):
            save(good, tmp_path / "bad.ds")
        assert not (tmp_path / "bad.ds").exists()
        # the same values in a digest-valid container fail to load
        path = tmp_path / "good.ds"
        _rewrite_body(path, lambda body: body.update({cell: _encode(getattr(good, cell))}))
        with pytest.raises(CorruptContainerError, match=f"malformed dataset: body: expected .*{wants}"):
            load(path)

    @pytest.mark.parametrize("edit", ["flip", "swap"])
    def test_dataset_targets_follow_labels(self, tmp_path, edit):
        db = parse_fingerprint_db(demo_database())
        ds = generate_dataset(db, None, 70, stage="family", seed=8)
        if edit == "flip":
            ds.targets[7] *= -1
        else:  # two rows of other families trade targets
            j = next(i for i, l in enumerate(ds.labels) if l.family != ds.labels[7].family)
            ds.targets[[7, j]] = ds.targets[[j, 7]]
        with pytest.raises(PersistenceError, match="targets of -1 or \\+1 as its labels give"):
            save(ds, tmp_path / "bad.ds")

    @pytest.mark.parametrize("stage, wants", [("versions", "unknown stage 'versions'"),
                                              ("version:Plan9", "unknown family 'Plan9'")])
    def test_dataset_of_an_unknown_stage_is_corrupt(self, tmp_path, capsys, stage, wants):
        # a stage no hidden size is kept for would reach train_stage and fail there
        db = parse_fingerprint_db(demo_database())
        path = tmp_path / "d.ds"
        save(generate_dataset(db, None, 70, stage="relevance", seed=8), path)
        _rewrite_body(path, lambda body: body.update(stage=stage))
        with pytest.raises(CorruptContainerError, match=f"malformed dataset: body: {wants}$"):
            load(path)
        assert main(["reduce", "--dataset", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: malformed dataset: body: {wants}"]

    def test_dataset_seed_recorded_in_metadata(self, tmp_path):
        # `generate` names the seed in the header; the body holds it as a field
        (tmp_path / "demo.db").write_text(demo_database())
        path = tmp_path / "d.model"
        assert main(["generate", "--db", str(tmp_path / "demo.db"), "--total", "120", "--seed", "31",
                     "--out", str(path)]) == 0
        assert load_container(path)["metadata"]["seed"] == load(path).seed == 31

    def test_refiner_round_trip_classifies_identically(self, small_hierarchy):
        model, root = small_hierarchy
        back = load(root / "h.model").windows
        for dump, _ in _refiner_corpus()[:10]:
            a, b = model.windows.classify(dump), back.classify(dump)
            assert (a.version, a.edition, a.service_pack) == (b.version, b.edition, b.service_pack)
            assert a.scores == b.scores

    @pytest.mark.parametrize("group", ["editions", "service_packs"])
    def test_refiner_version_without_its_group_is_corrupt(self, small_hierarchy, tmp_path, group):
        path = tmp_path / "h.model"
        path.write_bytes((small_hierarchy[1] / "h.model").read_bytes())

        def drop_xp(body):
            body["windows"]["labels"][group] = [p for p in body["windows"]["labels"][group] if p[0] != "XP"]

        _rewrite_body(path, drop_xp)
        with pytest.raises(CorruptContainerError,
                           match="body.windows.labels: expected editions and service packs for every"):
            load(path)

    def test_schema_round_trip(self, small_hierarchy, tmp_path):
        emap = parse_endpoint_dump(
            "uuid 00000001-0000-0000-0000-000000000002\n"
            "  binding ncalrpc ep1\n  binding ncadg_ip_udp\n"
        )
        schema, labels = build_endpoint_schema([emap]), WindowsLabelSpace.default()
        ref = WindowsRefiner(init_mlp([schema.size, 2, labels.total]), schema, labels)
        save(dataclasses.replace(small_hierarchy[0], windows=ref), tmp_path / "s.model")
        back = load(tmp_path / "s.model").windows.schema
        assert back.uuid_index == schema.uuid_index
        assert back.binding_index == schema.binding_index

    def test_hierarchy_round_trip_classifies_identically(self, tmp_path):
        db = parse_fingerprint_db(demo_database())
        ds = generate_dataset(db, None, 400, stage="relevance", seed=8)
        model = train_hierarchy(
            db,
            cfg=HierarchyConfig(seed=2, generations=40),
            corpus=(ds.inputs, ds.labels),
        )
        save(model, tmp_path / "h.model")
        back = load(tmp_path / "h.model", expected_kind="hierarchy")
        for i in range(0, 400, 13):
            a = classify_vector(model, ds.inputs[i])
            b = classify_vector(back, ds.inputs[i])
            assert a.verdict == b.verdict
            assert a.relevance == b.relevance
            assert a.family_scores == b.family_scores


class TestContainerChecks:
    def test_tampered_body_is_an_integrity_error(self, tmp_path):
        path = tmp_path / "p.pipe"
        pipe = _pipeline()
        save(pipe, path)
        header, body = _split(path)
        raw = json.loads(body)
        center = pipe.center.copy()
        center[0] += 1e-12
        raw["center"] = _encode(center)
        _join(path, header, _canonical(raw))
        with pytest.raises(CorruptContainerError, match="does not match its digest"):
            load(path)

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "p.pipe"
        save(_pipeline(), path)
        header, body = _split(path)
        header["format_version"] = FORMAT_VERSION + 1
        _join(path, header, body)
        with pytest.raises(FormatVersionError, match="format version"):
            load(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_format_container_rejected(self, tmp_path, version):
        path = tmp_path / f"v{version}.model"
        if version == 1:  # one JSON document, with the body inline
            path.write_text(json.dumps({
                "format_version": 1, "kind": "network", "metadata": {},
                "digest": "0" * 64, "body": {"weights": [[[0.5, 1.0]]]},
            }, separators=(",", ":")))
        else:
            save(_pipeline(), path)
            _relabel_format_2(path)
        with pytest.raises(FormatVersionError, match=f"format version {version} "):
            load(path)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "p.pipe"
        save(_pipeline(), path)
        with pytest.raises(KindMismatchError, match="holds 'pipeline', expected 'dataset'"):
            load(path, expected_kind="dataset")

    def test_not_json_is_corrupt(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("definitely not json{")
        with pytest.raises(CorruptContainerError, match="not a valid container"):
            load(path)

    def test_missing_field_is_corrupt(self, tmp_path):
        path = tmp_path / "p.pipe"
        save(_pipeline(), path)
        header, body = _split(path)
        del header["digest"]
        _join(path, header, body)
        with pytest.raises(CorruptContainerError, match="missing field 'digest'"):
            load(path)

    def test_error_classes_are_distinct_but_related(self):
        for cls in (CorruptContainerError, FormatVersionError, KindMismatchError):
            assert issubclass(cls, PersistenceError)
        assert not issubclass(CorruptContainerError, FormatVersionError)
        assert not issubclass(FormatVersionError, KindMismatchError)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="no container kind"):
            save({"weights": [1, 2]}, tmp_path / "x.model")


class TestAtomicity:
    def test_overwrite_leaves_valid_file(self, tmp_path):
        path = tmp_path / "p.pipe"
        save(_pipeline(seed=0), path)
        save(_pipeline(seed=1), path)
        back = load(path)
        assert np.array_equal(back.center, _pipeline(seed=1).center)
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]

    def test_no_partial_file_on_failure(self, tmp_path):
        # an object of no container kind, a lone net among them, aborts before the rename
        with pytest.raises(PersistenceError, match="no container kind for Mlp"):
            save(init_mlp([2, 2, 1]), tmp_path / "w.model")
        assert not (tmp_path / "w.model").exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]

    def test_save_refuses_what_load_rejects(self, tmp_path):
        # 100 input rows and no labels: load would call this malformed, and so does building it
        wants = "expected one 2-D input row and target row per label"
        with pytest.raises(GenerationError, match=f"^{wants}"):
            Dataset("relevance", np.zeros((100, 4)), np.zeros((100, 1)), [], ("relevant",), 0)
        ds = Dataset("relevance", np.zeros((0, 4)), np.zeros((0, 1)), [], ("relevant",), 0)
        ds.inputs, ds.targets = np.zeros((100, 4)), np.zeros((100, 1))  # set after it was built
        with pytest.raises(PersistenceError, match=f"cannot save Dataset: {wants}"):
            save(ds, tmp_path / "d.ds")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", ["center", "scale", "_columns"])
    def test_pipeline_arrays_cannot_change_in_place(self, tmp_path, name):
        # what a pipeline saves is what it applies
        pipe = fit_pipeline(np.random.default_rng(0).normal(size=(40, 6)))
        save(pipe, tmp_path / "p.pipe")
        for p in (pipe, load(tmp_path / "p.pipe")):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name)[0] = 0


    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch, step):
        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, step, disk_full)
        with pytest.raises(OSError, match="No space left on device"):
            save(_pipeline(), tmp_path / "p.pipe")
        assert os.listdir(tmp_path) == []

    def test_failed_write_through_the_cli_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        db, out = tmp_path / "demo.db", tmp_path / "out" / "rel.ds"
        db.write_text(demo_database())
        out.parent.mkdir()

        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        # an OSError takes the CLI's file-error exit status, as a missing input does
        assert main(["generate", "--db", str(db), "--total", "80", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: no space left on device"] and captured.out == ""
        assert os.listdir(out.parent) == []


class TestWrites:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            save(_pipeline(), tmp_path / "p.pipe")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "p.pipe").st_mode) == 0o666 & ~umask

    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", lambda a, b: (calls.append("replace"), replace(a, b)))
        save(_pipeline(), tmp_path / "p.pipe")
        # the file reaches the disk before the rename, the rename after it
        assert calls == ["fsync file", "replace", "fsync dir"]


def _refiner_corpus():
    return synthetic_windows_corpus(per_triple=1, seed=2, dropout=0.0)


@pytest.fixture(scope="module")
def small_hierarchy(tmp_path_factory):
    """A hierarchy with a Windows refiner, saved: every net, stage and schema is saved inside one."""
    db = parse_fingerprint_db(demo_database())
    ds = generate_dataset(db, None, 300, stage="relevance", seed=8)
    model = train_hierarchy(
        db, cfg=HierarchyConfig(seed=2, generations=5), corpus=(ds.inputs, ds.labels)
    )
    model = dataclasses.replace(model, windows=train_windows_net(_refiner_corpus()))
    root = tmp_path_factory.mktemp("hier")
    save(model, root / "h.model")
    sig = next(s for s in db if s.name == "Linux Kernel 2.4.20")
    obs = format_observation(sample_observation(sig, np.random.default_rng(5)))
    (root / "host.obs").write_text(obs + "\n")
    return model, root


def _drop_key(body, model):
    del body["relevance"]["pipeline"]


def _short_bytes(body, model):
    body["relevance"]["pipeline"]["basis"]["shape"][0] += 1


def _narrow_basis(body, model):
    body["family"]["pipeline"]["basis"] = _encode(model.family.pipeline.basis[:, :-1])


def _boolean_array(body, model):
    # the record format 2 wrote for a boolean mask: every array is now <f8 or <i4
    mask = np.ones(len(model.relevance.pipeline.kept), dtype=bool)
    data = base64.b64encode(zlib.compress(mask.tobytes())).decode()
    body["relevance"]["pipeline"]["center"] = {"dtype": "|b1", "shape": [len(mask)], "zlib": data}


def _inflating(shape):
    """An <f8 array record whose data inflates to 64 MB of zeros, compressed a
    MB at a time so that the test itself never holds them."""
    deflate, chunk = zlib.compressobj(1), bytes(1 << 20)
    data = b"".join(deflate.compress(chunk) for _ in range(64)) + deflate.flush()
    return {"dtype": "<f8", "shape": list(shape), "zlib": base64.b64encode(data).decode()}


def _inflating_weights(body, model):
    body["relevance"]["net"]["weights"][0] = _inflating([1])


def _constant_kept(body, model):
    # fit_pipeline keeps no constant column (its R column is all zero), so no zero std
    scale = model.relevance.pipeline.scale.copy()
    scale[0] = 0.0
    body["relevance"]["pipeline"]["scale"] = _encode(scale)


def _kept_past_width(body, model):
    body["relevance"]["pipeline"]["kept"][-1] = model.relevance.pipeline.width


def _unknown_key(body, model):
    body["relevance"]["bogus"] = 1


def _string_labels(body, model):
    body["family"]["labels"] = "Linux"


def _bad_base64(body, model):
    body["relevance"]["net"]["weights"][0]["zlib"] = "not base64!"


def _huge_threshold(body, model):
    body["decision_threshold"] = 10**400


def _negative_shape(body, model):
    body["relevance"]["pipeline"]["basis"]["shape"][0] = -1


def _versions_not_pairs(body, model):
    body["versions"][0] = body["versions"][0][:1]


def _short_history_row(body, model):
    body["relevance"]["net"]["history"]["rows"][0].pop()


def _unchained_net(body, model):
    body["family"]["net"]["weights"] = [_encode(np.zeros((2, 3))), _encode(np.zeros((1, 2)))]


def _wide_refiner_net(body, model):
    ref = model.windows
    body["windows"]["net"] = _encode(init_mlp([ref.schema.size, 2, ref.labels.total + 1]))


def _short_binding(body, model):
    body["windows"]["schema"]["binding_index"][0][0].pop()


def _string_uuid_neuron(body, model):
    body["windows"]["schema"]["uuid_index"][0][1] = "0"


MALFORMED = {
    "missing key": (_drop_key, "missing key 'pipeline'"),
    "bytes do not fill shape": (_short_bytes, "bytes do not fill shape"),
    "net width is not PCA k": (_narrow_basis, "net input width = PCA k"),
    "boolean array": (_boolean_array, "dtype '\\|b1', expected '<f8' or '<i4'"),
    "array data inflating past its shape": (_inflating_weights,
                                            "body.relevance.net.weights: data inflates past shape \\(1,\\)"),
    "kept column is constant": (_constant_kept, "a finite scale > 0"),
    "kept column past the width": (_kept_past_width, "must be one of the 568 input columns"),
    "unknown key": (_unknown_key, "body.relevance: unknown keys \\['bogus'\\]"),
    "labels not a list": (_string_labels, "expected list, got str"),
    "array data not base64": (_bad_base64, "malformed hierarchy"),
    "threshold too large for a float": (_huge_threshold, "malformed hierarchy: body.decision_threshold: "
                                                         "integer of 401 digits is too large for a float"),
    "array shape not counts": (_negative_shape, "body.relevance.pipeline.basis: bad shape \\[-1, "),
    "versions not key-value pairs": (_versions_not_pairs, "body.versions: expected \\[key, value\\] pairs"),
    "history row of three items": (_short_history_row,
                                   "body.relevance.net.history.rows: expected 4 items, got 3"),
    # the rules of the artifacts a hierarchy nests: a net, the refiner and its endpoint schema
    "net layers that do not chain": (_unchained_net, "body.family.net: expected 2-D layers whose widths chain"),
    "refiner net wider than its label space": (
        _wide_refiner_net, "body.windows: expected net widths = schema size and label space size"),
    "schema binding of two items": (_short_binding,
                                    "body.windows.schema.binding_index: expected 3 items, got 2"),
    "schema uuid neuron not an int": (_string_uuid_neuron,
                                      "body.windows.schema.uuid_index: expected int, got str"),
}


def test_cli_refuses_a_format_2_model_in_one_line(small_hierarchy, tmp_path, capsys):
    _, root = small_hierarchy
    path = tmp_path / "v2.model"
    path.write_bytes((root / "h.model").read_bytes())
    _relabel_format_2(path)
    assert main(["classify", "--model", str(path), "--obs", str(root / "host.obs")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: format version 2 (supported: 3, 4)"]


def _list_header(path):
    header, body = _split(path)
    path.write_bytes(json.dumps(list(header)).encode() + b"\n" + body)


def _unknown_kind(path):
    header, body = _split(path)
    _join(path, {**header, "kind": "bogus"}, body)


def _body_not_json(path):
    header, _ = _split(path)
    _join(path, {**header, "digest": _digest(b"not json{")}, b"not json{")


# container-level forgeries: the header is checked, or the body's digest holds
FORGED = {
    "header not an object": (_list_header, "not a valid container$"),
    "unknown kind under a valid digest": (_unknown_kind, "unknown payload kind 'bogus'$"),
    "body not JSON under a valid digest": (_body_not_json, "body is not valid JSON: "),
}


class TestForgedContainer:
    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_load_raises_corrupt(self, small_hierarchy, tmp_path, case):
        forge, match = FORGED[case]
        path = tmp_path / "bad.model"
        path.write_bytes((small_hierarchy[1] / "h.model").read_bytes())
        forge(path)
        with pytest.raises(CorruptContainerError, match=f"^{re.escape(str(path))}: {match}"):
            load(path)

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_cli_prints_one_error_line(self, small_hierarchy, tmp_path, capsys, case):
        forge, match = FORGED[case]
        root = small_hierarchy[1]
        path = tmp_path / "bad.model"
        path.write_bytes((root / "h.model").read_bytes())
        forge(path)
        assert main(["classify", "--model", str(path), "--obs", str(root / "host.obs")]) == 1
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert re.match(f"^error: {re.escape(str(path))}: {match}", err) and captured.out == ""


class TestMalformedBody:
    """Digest-valid bodies that do not describe a model."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_load_raises_corrupt(self, small_hierarchy, tmp_path, case):
        model, root = small_hierarchy
        mutate, match = MALFORMED[case]
        path = tmp_path / "bad.model"
        path.write_bytes((root / "h.model").read_bytes())
        _rewrite_body(path, lambda body: mutate(body, model))
        with pytest.raises(CorruptContainerError, match=match):
            load(path)

    @pytest.mark.parametrize("case", ["missing key", "bytes do not fill shape", "net width is not PCA k",
                                      "array data inflating past its shape",
                                      "kept column is constant", "threshold too large for a float",
                                      "array shape not counts", "versions not key-value pairs",
                                      "history row of three items"])
    def test_cli_prints_one_error_line(self, small_hierarchy, tmp_path, capsys, case):
        model, root = small_hierarchy
        path = tmp_path / "bad.model"
        path.write_bytes((root / "h.model").read_bytes())
        _rewrite_body(path, lambda body: MALFORMED[case][0](body, model))
        assert main(["classify", "--model", str(path), "--obs", str(root / "host.obs")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


# a cascade reads output 0 of its relevance stage and compares scores with
# its thresholds: a six-output stage there, or a threshold no score can
# fall below, would classify with no error (field: its value from the model)
UNSOUND = {
    "family stage as relevance": ("relevance", lambda model: model.family),
    "nan decision threshold": ("decision_threshold", lambda model: math.nan),
    "infinite relevance threshold": ("relevance_threshold", lambda model: -math.inf),
}


class TestUnsoundHierarchy:
    """Models whose every field is well formed but whose cascade is not."""

    @pytest.mark.parametrize("case", sorted(UNSOUND))
    def test_save_refuses(self, small_hierarchy, tmp_path, case):
        model, _ = small_hierarchy
        name, value = UNSOUND[case]
        wants = "expected a relevance stage labelled"
        with pytest.raises(HierarchyError, match=f"^{wants}"):
            dataclasses.replace(model, **{name: value(model)})
        bad = dataclasses.replace(model)
        setattr(bad, name, value(model))  # set after it was built
        with pytest.raises(PersistenceError, match=f"cannot save HierarchyModel: {wants}"):
            save(bad, tmp_path / "bad.model")
        assert list(tmp_path.iterdir()) == []

    def _forged(self, small_hierarchy, tmp_path, case):
        model, root = small_hierarchy
        name, value = UNSOUND[case]
        path = tmp_path / "bad.model"
        path.write_bytes((root / "h.model").read_bytes())
        _rewrite_body(path, lambda body: body.update({name: _encode(value(model))}))
        return path

    @pytest.mark.parametrize("case", sorted(UNSOUND))
    def test_load_raises_corrupt(self, small_hierarchy, tmp_path, case):
        path = self._forged(small_hierarchy, tmp_path, case)
        with pytest.raises(CorruptContainerError, match="expected a relevance stage labelled "
                                                        r"\('relevant',\) and finite thresholds"):
            load(path)

    @pytest.mark.parametrize("case", sorted(UNSOUND))
    def test_cli_prints_one_error_line(self, small_hierarchy, tmp_path, capsys, case):
        path = self._forged(small_hierarchy, tmp_path, case)
        host = small_hierarchy[1] / "host.obs"
        assert main(["classify", "--model", str(path), "--obs", str(host)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and captured.out == ""


# a valid artifact of each kind, from the trained model, and the error its
# constructor raises on the cross-field rule that load alone used to check
KINDS = {
    "network": (lambda model: model.family.net, ValueError, "expected 2-D layers whose widths chain"),
    "stage": (lambda model: model.family, HierarchyError,
              "expected net input width = PCA k and one net output per label"),
    "hierarchy": (lambda model: model, HierarchyError,
                  "expected a relevance stage labelled ('relevant',) and finite thresholds"),
    "label space": (lambda model: WindowsLabelSpace.default(), ValueError,
                    "expected editions and service packs for every version"),
    "refiner": (lambda model: _windows_refiner(), ValueError,
                "expected net widths = schema size and label space size"),
    "dataset": (lambda model: generate_dataset(parse_fingerprint_db(demo_database()), None, 120,
                                               stage="family", seed=3),
                GenerationError, "expected one 2-D input row and target row per label, finite inputs, "
                                 "and targets of -1 or +1 as its labels give"),
}

# (kind, the fields that break a valid artifact of that kind, given it and the model)
UNBUILDABLE = {
    "network layers that do not chain": ("network", lambda a, model: {
        "weights": [np.zeros((2, 3)), np.zeros((1, 2))]}),
    "network without layers": ("network", lambda a, model: {"weights": []}),
    "stage with too few labels": ("stage", lambda a, model: {"labels": a.labels[:-1]}),
    "stage whose net reads another width": ("stage", lambda a, model: {"net": model.relevance.net}),
    "hierarchy with nan thresholds": ("hierarchy", lambda a, model: {
        "relevance_threshold": math.nan, "decision_threshold": math.nan}),
    "hierarchy led by the family stage": ("hierarchy", lambda a, model: {"relevance": model.family}),
    "version without service packs": ("label space", lambda a, model: {
        "service_packs": {v: p for v, p in a.service_packs.items() if v != "XP"}}),
    "refiner net wider than its label space": ("refiner", lambda a, model: {
        "net": init_mlp([a.schema.size, 2, a.labels.total + 1])}),
    "dataset with a row too few": ("dataset", lambda a, model: {"inputs": a.inputs[:-1]}),
    "dataset with a nan input": ("dataset", lambda a, model: {"inputs": np.where(a.inputs == 1, np.nan, 0)}),
    "dataset with flipped targets": ("dataset", lambda a, model: {"targets": -a.targets}),
}


@pytest.mark.parametrize("kind", ["stage", "network"])
def test_a_retired_kind_is_refused(small_hierarchy, tmp_path, capsys, kind):
    # earlier versions saved a lone stage or net; no command writes either, and none reads one
    model, _ = small_hierarchy
    body = _canonical(_encode(model.family if kind == "stage" else model.family.net))
    path = tmp_path / f"old.{kind}"
    header = {"format_version": FORMAT_VERSION, "kind": kind, "metadata": {}, "digest": _digest(body)}
    _join(path, header, body)
    with pytest.raises(CorruptContainerError, match=f"unknown payload kind '{kind}'$"):
        load(path)
    assert main(["export-curves", "--model", str(path), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: unknown payload kind '{kind}'"]
    assert list(tmp_path.iterdir()) == [path]


def _windows_refiner() -> WindowsRefiner:
    labels = WindowsLabelSpace.default()
    schema = build_endpoint_schema([m for m, _ in _refiner_corpus()])
    return WindowsRefiner(init_mlp([schema.size, 2, labels.total]), schema, labels)


@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_an_artifact_refuses_what_load_refuses_when_built(small_hierarchy, case):
    model, _ = small_hierarchy
    kind, breaks = UNBUILDABLE[case]
    valid, error, wants = KINDS[kind]
    artifact = valid(model)
    dataclasses.replace(artifact)  # a valid one rebuilds
    with pytest.raises(error, match=f"^{re.escape(wants)}$"):
        dataclasses.replace(artifact, **breaks(artifact, model))


# every float64 class the raw bytes must carry: signed zeros, nans,
# infinities, subnormals and the extremes
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2e-308,
                     1.7976931348623157e308]),
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def datasets(draw):
    # a dataset holds finite inputs and the targets its labels give (the
    # other float classes are covered by the network round trip)
    n = draw(st.integers(0, 6))
    finite = FLOATS.filter(math.isfinite)
    inputs = draw(arrays(np.float64, st.tuples(st.just(n), st.integers(0, 5)), elements=finite))
    labels = [SampleLabel(f"sig {i}", i % 2 == 0, "Linux" if i % 3 else None, None)
              for i in range(n)]
    targets = stage_targets(labels, "relevance", ("relevant",))
    return Dataset("relevance", inputs, targets, labels, ("relevant",), draw(st.integers(0, 2**32)))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("prop")


class TestProperties:
    @settings(max_examples=60)
    @given(ds=datasets())
    def test_dataset_round_trip_is_bit_identical(self, scratch, ds):
        save(ds, scratch / "d.ds")
        back = load(scratch / "d.ds")
        for a, b in ((ds.inputs, back.inputs), (ds.targets, back.targets)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (back.labels, back.seed) == (ds.labels, ds.seed)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_network_round_trip_is_bit_identical(self, small_hierarchy, scratch, data):
        # the family net's weights drawn from every float class, saved inside its hierarchy
        model, _ = small_hierarchy
        net = Mlp([data.draw(arrays(np.float64, w.shape, elements=FLOATS)) for w in model.family.net.weights])
        family = dataclasses.replace(model.family, net=net)
        save(dataclasses.replace(model, family=family), scratch / "h.model")
        back = load(scratch / "h.model").family.net
        assert [w.shape for w in back.weights] == [w.shape for w in net.weights]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(net.weights, back.weights))

    @settings(max_examples=100)
    @given(where=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
    def test_any_flipped_body_byte_is_corrupt(self, scratch, where, bit):
        path = scratch / "flip.pipe"
        save(_pipeline(), path)
        data = bytearray(path.read_bytes())
        start = data.index(b"\n") + 1
        data[start + int(where * (len(data) - start))] ^= 1 << bit
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptContainerError):
            load(path)


def _is_int32(v: float) -> bool:
    # an int32 value, and not -0.0
    return v.is_integer() and -2**31 <= v <= 2**31 - 1 and not (v == 0 and math.copysign(1.0, v) < 0)


# (array, the dtype of its record): "<i4" exactly when every value is an int32
# other than -0.0, so that the int32 bytes give back the float64 bytes
CODEC_CASES = {
    "int32 limits": (np.array([2**31 - 1, -(2**31 - 1), -2**31], dtype=float), "<i4"),
    "2**31": (np.array([1.0, 2.0**31]), "<f8"),
    "below -2**31": (np.array([-(2.0**31) - 1]), "<f8"),
    "negative zero": (np.array([0.0, -0.0]), "<f8"),
    "a half": (np.array([1.0, 0.5]), "<f8"),
    "a half first": (np.array([0.5, 1.0]), "<f8"),
    "nan": (np.array([1.0, math.nan]), "<f8"),
    "infinities": (np.array([math.inf, -math.inf]), "<f8"),
    "empty": (np.zeros(0), "<i4"),
    "no columns": (np.zeros((3, 0)), "<i4"),
    "2-D": (np.arange(-6.0, 6.0).reshape(3, 4), "<i4"),
    "2-D with a fraction": (np.array([[1.0, 2.0], [3.0, 4.5]]), "<f8"),
}


def _record(dtype, shape, raw: bytes, cut=0):
    data = zlib.compress(raw)
    return {"dtype": dtype, "shape": shape, "zlib": base64.b64encode(data[:len(data) - cut]).decode()}


class TestArrayCodec:
    @pytest.mark.parametrize("case", sorted(CODEC_CASES))
    def test_dtype_and_bit_exact_round_trip(self, case):
        a, dtype = CODEC_CASES[case]
        rec = _encode(a)
        assert (rec["dtype"], rec["shape"]) == (dtype, list(a.shape))
        # the payload is the dtype's raw bytes; every array loads as float64 with its bits
        assert zlib.decompress(base64.b64decode(rec["zlib"])) == a.astype(dtype).tobytes()
        back = _decode_array(rec, "a")
        assert back.dtype == np.float64 and back.shape == a.shape and back.tobytes() == a.tobytes()
        back[...] = 0  # a loaded array owns its data

    @settings(max_examples=200)
    @given(data=st.data())
    def test_int32_exactly_when_every_value_is_one(self, data):
        shape = data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4)) | st.tuples(st.integers(0, 6)))
        ints = st.integers(-2**31, 2**31 - 1).map(float)
        odd = st.sampled_from([2.0**31, -(2.0**31) - 1, -0.0, 0.5]) | FLOATS
        a = data.draw(arrays(np.float64, shape, elements=ints))
        if a.size and data.draw(st.booleans()):  # plant one value of any float class
            a[tuple(data.draw(st.integers(0, n - 1)) for n in shape)] = data.draw(odd)
        rec = _encode(a)
        assert rec["dtype"] == ("<i4" if all(_is_int32(v) for v in a.flat) else "<f8")
        back = _decode_array(rec, "a")
        assert back.dtype == np.float64 and back.shape == a.shape and back.tobytes() == a.tobytes()

    @pytest.mark.parametrize("rec, wants", [
        # an <i4 record holding the bytes the shape would take as <f8
        (_record("<i4", [3], np.zeros(3).tobytes()), "data inflates past shape \\(3,\\) of <i4"),
        (_record("<i4", [3], bytes(8)), "8 bytes do not fill shape \\(3,\\)"),
        (_record("<i4", [3], bytes(12), cut=4), "truncated zlib stream"),
        (_record("<f4", [3], np.zeros(3, "<f4").tobytes()), "dtype '<f4', expected '<f8' or '<i4'"),
        (_record("<i8", [3], np.zeros(3, "<i8").tobytes()), "dtype '<i8', expected '<f8' or '<i4'"),
        (_record("|b1", [3], np.zeros(3, bool).tobytes()), "dtype '\\|b1', expected '<f8' or '<i4'"),
    ], ids=["f8 bytes as i4", "short i4", "truncated", "f4", "i8", "b1"])
    def test_refused(self, rec, wants):
        with pytest.raises(ValueError, match=f"^a: {wants}$"):
            _decode_array(rec, "a")

    def test_a_payload_inflating_past_its_shape_stops_a_byte_past_it(self, tmp_path):
        # inflated in full, a crafted payload could exhaust memory before its byte count is checked
        path = tmp_path / "d.ds"
        save(generate_dataset(parse_fingerprint_db(demo_database()), None, 70, seed=8), path)
        _rewrite_body(path, lambda body: body.update(targets=_inflating([1])))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptContainerError, match="malformed dataset: body.targets: "
                                                            r"data inflates past shape \(1,\) of <f8$"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_a_dataset_takes_int32_records_and_a_trained_net_does_not(self, small_hierarchy, tmp_path):
        model, root = small_hierarchy
        save(generate_dataset(parse_fingerprint_db(demo_database()), None, 70, seed=8), tmp_path / "d.ds")
        body = json.loads(_split(tmp_path / "d.ds")[1])
        assert (body["inputs"]["dtype"], body["targets"]["dtype"]) == ("<i4", "<i4")
        assert all(_encode(w)["dtype"] == "<f8" for w in model.family.net.weights)
        assert _split(root / "h.model")[0]["format_version"] == FORMAT_VERSION == 4


class TestFormat3Fixtures:
    """Containers written at FORMAT_VERSION 3 (commit 2fa18ba), before "<i4"
    records, load at format 4 with every bit. They were made with

        neuralfp generate --db demo.db --total 60 --stage family --seed 34 --out format3.ds
        neuralfp train --db demo.db --config format3.cfg --seed 34 --out format3.model

    where demo.db holds neuralfp.corpus.demo_database() and format3.cfg is
    {"samples": 300, "generations": 5, "windows": true}."""

    # sha256 of the model's verdicts on the first 500 bench scan hosts of seed 1,
    # recorded with the format-3 code that wrote the model
    VERDICTS_DIGEST = "17757267dc137721758d5f8d88d72f6399761d052a36984ebfa3a81cc4f7b3fa"

    @pytest.mark.parametrize("name, kind", [("format3.ds", "dataset"), ("format3.model", "hierarchy")])
    def test_a_format_3_header_is_read(self, name, kind):
        assert READ_FORMATS == (3, 4)
        assert load_container(DATA / name, kind)["format_version"] == 3

    def test_dataset_is_the_same_draw_bit_for_bit(self):
        ds = load(DATA / "format3.ds", "dataset")
        fresh = generate_dataset(parse_fingerprint_db(demo_database()), None, 60, stage="family", seed=34)
        for a, b in ((ds.inputs, fresh.inputs), (ds.targets, fresh.targets)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (ds.stage, ds.labels, ds.output_labels, ds.seed) == (
            fresh.stage, fresh.labels, fresh.output_labels, fresh.seed)

    def test_model_verdicts_are_the_format_3_verdicts(self):
        model = load(DATA / "format3.model", "hierarchy")
        h, dumps = hashlib.sha256(), 0
        for obs, dump in scan_hosts(parse_fingerprint_db(demo_database()), 500):
            r = classify(model, obs, dump)
            w = r.windows
            dumps += w is not None
            windows = w and (w.version, w.edition, w.service_pack, w.scores, w.low_confidence)
            h.update(repr((r.relevance, r.family_scores, r.version_scores, r.verdict,
                           r.stage_trace, windows)).encode())
        assert dumps > 0 and h.hexdigest() == self.VERDICTS_DIGEST

    def test_saved_again_the_model_keeps_its_body_and_the_dataset_shrinks(self, tmp_path):
        # a trained model holds no integral array, a dataset nothing else
        for name in ("format3.model", "format3.ds"):
            save(load(DATA / name), tmp_path / name)
            (old_header, old), (header, new) = _split(DATA / name), _split(tmp_path / name)
            assert (old_header["format_version"], header["format_version"]) == (3, 4)
            assert (new == old) == (name == "format3.model")
        assert len(new) < 0.8 * len(old)


class TestDecodeConfig:
    def test_decodes_to_the_directly_built_config(self):
        kwargs = decode_config(HierarchyConfig, {"hidden": {"Linux": 3}, "lam": 1}, "c")
        assert HierarchyConfig(**kwargs) == HierarchyConfig(hidden={"Linux": 3}, lam=1.0)
        assert type(kwargs["lam"]) is float
        assert set(kwargs) == {"hidden", "lam"}

    @pytest.mark.parametrize("obj, message", [
        ([], "c: expected dict, got list"),
        ({"bogus": 1, "lam": 0.1}, "c: unknown config keys ['bogus']"),
        ({"hidden": [["Linux", 3]]}, "c.hidden: expected dict, got list"),
        ({"hidden": {"Linux": 3.0}}, "c.hidden: expected int, got float"),
        ({"adaptive": 1}, "c.adaptive: expected bool, got int"),
        ({"seed": True}, "c.seed: expected int, got bool"),
        ({"subset_size": "4"}, "c.subset_size: expected int, got str"),
        ({"lam": 10**400}, "c.lam: integer of 401 digits is too large for a float"),
    ])
    def test_mismatch_is_a_value_error_naming_the_key(self, obj, message):
        with pytest.raises(ValueError) as err:
            decode_config(HierarchyConfig, obj, "c")
        assert str(err.value) == message
