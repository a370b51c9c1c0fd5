"""Container round-trips, integrity checks, and error taxonomy."""

import base64
import dataclasses
import errno
import json
import math
import os
import re
import stat
import zlib

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
    classify_vector,
    train_hierarchy,
)
from neuralfp.neural import Mlp, TrainConfig, forward, init_mlp, train
from neuralfp.persistence import (
    FORMAT_VERSION,
    CorruptContainerError,
    FormatVersionError,
    KindMismatchError,
    PersistenceError,
    _canonical,
    _digest,
    _encode,
    decode_config,
    load,
    load_container,
    save,
)
from neuralfp.preprocess import fit_pipeline
from neuralfp.signatures import format_observation, parse_fingerprint_db


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


def _trained_net(sizes=(2, 2, 1), seed=0):
    rng = np.random.default_rng(seed)
    net = init_mlp(list(sizes), seed=seed)
    X = rng.uniform(-1.0, 1.0, (16, sizes[0]))
    Y = np.sign(rng.uniform(-1.0, 1.0, (16, sizes[-1])))
    train(net, X, Y, TrainConfig(generations=8, lam=0.05, seed=seed))
    return net


class TestNetworkRoundTrip:
    def test_forward_outputs_bit_exact_on_100_random_inputs(self, tmp_path):
        net = _trained_net()
        path = tmp_path / "net.model"
        save(net, path)
        back = load(path)
        probe = np.random.default_rng(42).uniform(-10.0, 10.0, (100, 2))
        assert np.array_equal(forward(net, probe), forward(back, probe))

    def test_history_survives(self, tmp_path):
        net = _trained_net()
        path = tmp_path / "net.model"
        save(net, path)
        assert load(path).history.rows == net.history.rows

    def test_weights_identical(self, tmp_path):
        net = _trained_net(sizes=(5, 4, 3), seed=9)
        save(net, tmp_path / "n.model")
        back = load(tmp_path / "n.model")
        for a, b in zip(net.weights, back.weights):
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
        assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "s.stage")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: malformed dataset: body: {wants}"]

    def test_dataset_seed_recorded_in_metadata(self, tmp_path):
        # `generate` names the seed in the header; the body holds it as a field
        (tmp_path / "demo.db").write_text(demo_database())
        path = tmp_path / "d.model"
        assert main(["generate", "--db", str(tmp_path / "demo.db"), "--total", "120", "--seed", "31",
                     "--out", str(path)]) == 0
        assert load_container(path)["metadata"]["seed"] == load(path).seed == 31

    def test_refiner_round_trip_classifies_identically(self, tmp_path):
        corpus = synthetic_windows_corpus(per_triple=1, seed=2, dropout=0.0)
        ref = train_windows_net(corpus)
        save(ref, tmp_path / "r.model")
        back = load(tmp_path / "r.model")
        for dump, _ in corpus[:10]:
            a, b = ref.classify(dump), back.classify(dump)
            assert (a.version, a.edition, a.service_pack) == (b.version, b.edition, b.service_pack)
            assert a.scores == b.scores

    @pytest.mark.parametrize("group", ["editions", "service_packs"])
    def test_refiner_version_without_its_group_is_corrupt(self, tmp_path, group):
        path = tmp_path / "r.model"
        save(train_windows_net(synthetic_windows_corpus(per_triple=1, seed=2, dropout=0.0)), path)

        def drop_xp(body):
            body["labels"][group] = [p for p in body["labels"][group] if p[0] != "XP"]

        _rewrite_body(path, drop_xp)
        with pytest.raises(CorruptContainerError,
                           match="body.labels: expected editions and service packs for every"):
            load(path)

    def test_schema_round_trip(self, tmp_path):
        emap = parse_endpoint_dump(
            "uuid 00000001-0000-0000-0000-000000000002\n"
            "  binding ncalrpc ep1\n  binding ncadg_ip_udp\n"
        )
        schema = build_endpoint_schema([emap])
        save(schema, tmp_path / "s.model")
        back = load(tmp_path / "s.model")
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
        path = tmp_path / "n.model"
        net = _trained_net()
        save(net, path)
        header, body = _split(path)
        raw = json.loads(body)
        w = net.weights[0].copy()
        w[0, 0] += 1e-12
        raw["weights"][0] = _encode(w)
        _join(path, header, _canonical(raw))
        with pytest.raises(CorruptContainerError, match="does not match its digest"):
            load(path)

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "n.model"
        save(_trained_net(), path)
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
            save(_trained_net(), path)
            _relabel_format_2(path)
        with pytest.raises(FormatVersionError, match=f"format version {version} "):
            load(path)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "n.model"
        save(_trained_net(), path)
        with pytest.raises(KindMismatchError, match="holds 'network', expected 'dataset'"):
            load(path, expected_kind="dataset")

    def test_not_json_is_corrupt(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("definitely not json{")
        with pytest.raises(CorruptContainerError, match="not a valid container"):
            load(path)

    def test_missing_field_is_corrupt(self, tmp_path):
        path = tmp_path / "n.model"
        save(_trained_net(), path)
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
        path = tmp_path / "n.model"
        save(_trained_net(seed=0), path)
        save(_trained_net(seed=1), path)
        back = load(path)
        assert isinstance(back, Mlp)
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]

    def test_no_partial_file_on_failure(self, tmp_path):
        # an unserializable object aborts before the rename
        class Weird(Mlp):
            pass

        net = _trained_net()
        bad = Weird(net.weights)
        with pytest.raises(PersistenceError):
            save(bad, tmp_path / "w.model")
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
            save(_trained_net(), tmp_path / "n.model")
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
            save(_trained_net(), tmp_path / "n.model")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "n.model").st_mode) == 0o666 & ~umask

    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", lambda a, b: (calls.append("replace"), replace(a, b)))
        save(_trained_net(), tmp_path / "n.model")
        # the file reaches the disk before the rename, the rename after it
        assert calls == ["fsync file", "replace", "fsync dir"]


@pytest.fixture(scope="module")
def small_hierarchy(tmp_path_factory):
    db = parse_fingerprint_db(demo_database())
    ds = generate_dataset(db, None, 300, stage="relevance", seed=8)
    model = train_hierarchy(
        db, cfg=HierarchyConfig(seed=2, generations=5), corpus=(ds.inputs, ds.labels)
    )
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
    # the record format 2 wrote for a boolean mask: every array is now <f8
    mask = np.ones(len(model.relevance.pipeline.kept), dtype=bool)
    data = base64.b64encode(zlib.compress(mask.tobytes())).decode()
    body["relevance"]["pipeline"]["center"] = {"dtype": "|b1", "shape": [len(mask)], "zlib": data}


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


MALFORMED = {
    "missing key": (_drop_key, "missing key 'pipeline'"),
    "bytes do not fill shape": (_short_bytes, "bytes do not fill shape"),
    "net width is not PCA k": (_narrow_basis, "net input width = PCA k"),
    "boolean array": (_boolean_array, "dtype '\\|b1', expected '<f8'"),
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
}


def test_cli_refuses_a_format_2_model_in_one_line(small_hierarchy, tmp_path, capsys):
    _, root = small_hierarchy
    path = tmp_path / "v2.model"
    path.write_bytes((root / "h.model").read_bytes())
    _relabel_format_2(path)
    assert main(["classify", "--model", str(path), "--obs", str(root / "host.obs")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: format version 2 (supported: {FORMAT_VERSION})"]


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


def _windows_refiner() -> WindowsRefiner:
    labels = WindowsLabelSpace.default()
    schema = build_endpoint_schema([m for m, _ in synthetic_windows_corpus(per_triple=1, seed=2, dropout=0.0)])
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


@st.composite
def networks(draw):
    sizes = draw(st.lists(st.integers(0, 4), min_size=2, max_size=4))
    return Mlp([draw(arrays(np.float64, (n_out, n_in + 1), elements=FLOATS))
                for n_in, n_out in zip(sizes, sizes[1:])])


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
    @given(net=networks())
    def test_network_round_trip_is_bit_identical(self, scratch, net):
        save(net, scratch / "n.model")
        back = load(scratch / "n.model")
        assert [w.shape for w in back.weights] == [w.shape for w in net.weights]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(net.weights, back.weights))

    @settings(max_examples=100)
    @given(where=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
    def test_any_flipped_body_byte_is_corrupt(self, scratch, where, bit):
        path = scratch / "flip.model"
        save(_trained_net(), path)
        data = bytearray(path.read_bytes())
        start = data.index(b"\n") + 1
        data[start + int(where * (len(data) - start))] ^= 1 << bit
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptContainerError):
            load(path)


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
