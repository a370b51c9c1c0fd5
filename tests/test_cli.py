"""Command line surface: subcommands, exit codes, file outputs."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp import hierarchy, persistence
from neuralfp.cli import main
from neuralfp.corpus import demo_database, large_database, pathology_observation
from neuralfp.datagen import RELEVANT_FAMILIES, Dataset, SampleLabel, sample_observation, signature_family
from neuralfp.dcerpc import format_endpoint_dump, synthetic_windows_corpus
from neuralfp.encoding import TOTAL_NEURONS
from neuralfp.persistence import (
    FORMAT_VERSION,
    _canonical,
    _digest,
    _encode,
    load,
    load_container,
    save,
)
from neuralfp.signatures import format_observation, parse_fingerprint_db

DATA = Path(__file__).parent / "data"
TWO_SIG_DB = """\
Fingerprint Alpha Server
Class Alpha | Linux | 2.4.X | general purpose
TSeq(Class=RI%gcd=1%IPID=I%TS=100HZ)
T1(Resp=Y%DF=Y%W=16A0%ACK=S++%Flags=AS%Ops=MNNTNW)

Fingerprint Beta Box
Class Beta | Windows | NT4 | general purpose
TSeq(Class=TD%gcd=1%IPID=BI%TS=U)
T1(Resp=Y%DF=N%W=2017%ACK=S++%Flags=AS%Ops=M)
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "db": root / "demo.db",
        "two": root / "two.db",
        "prev": root / "prev.txt",
        "sol_obs": root / "solaris.obs",
        "prn_obs": root / "printer.obs",
        "win_obs": root / "win.obs",
        "dump": root / "win.dump",
        "cfg": root / "hier.cfg",
        "rel_ds": root / "rel.ds",
        "fam_ds": root / "fam.ds",
        "model": root / "hier.model",
        "curves": root / "hier.csv",
    }
    paths["db"].write_text(demo_database())
    paths["two"].write_text(TWO_SIG_DB)
    paths["prev"].write_text("# tilted weights\n0.75 Alpha Server\n0.25 Beta Box\n")

    db = parse_fingerprint_db(demo_database())
    sol = next(s for s in db if signature_family(s) == "Solaris")
    paths["sol_obs"].write_text(
        format_observation(sample_observation(sol, np.random.default_rng(5))) + "\n"
    )
    printer = next(s for s in db if "LaserJet" in s.name)
    paths["prn_obs"].write_text(
        format_observation(sample_observation(printer, np.random.default_rng(2))) + "\n"
    )
    win = next(s for s in db if signature_family(s) == "Windows")
    paths["win_obs"].write_text(
        format_observation(sample_observation(win, np.random.default_rng(8))) + "\n"
    )
    dump, triple = synthetic_windows_corpus(seed=6)[0]
    paths["dump"].write_text(format_endpoint_dump(dump))
    paths["triple"] = triple
    paths["cfg"].write_text(json.dumps({"samples": 700, "generations": 120, "windows": True}))

    assert main(["generate", "--db", str(paths["db"]), "--total", "500",
                 "--seed", "3", "--out", str(paths["rel_ds"])]) == 0
    assert main(["generate", "--db", str(paths["db"]), "--total", "400",
                 "--stage", "family", "--seed", "4", "--out", str(paths["fam_ds"])]) == 0
    assert main(["train", "--db", str(paths["db"]), "--config", str(paths["cfg"]), "--seed", "6",
                 "--out", str(paths["model"])]) == 0
    assert main(["export-curves", "--model", str(paths["model"]), "--out", str(paths["curves"])]) == 0
    return paths


@pytest.fixture(scope="module")
def family40(work):
    """A 40-row family dataset: configs train on it in milliseconds."""
    path = work["db"].parent / "fam40.ds"
    assert main(["generate", "--db", str(work["two"]), "--total", "40", "--stage", "family",
                 "--seed", "1", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_prints_per_family_counts(self, work, capsys):
        out = work["rel_ds"].parent / "counts.ds"
        assert main(["generate", "--db", str(work["two"]), "--prevalence", str(work["prev"]),
                     "--total", "100", "--seed", "0", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "samples per family:" in text
        assert "75  Linux" in text
        assert "25  Windows" in text

    def test_dataset_container_kind(self, work):
        assert load_container(work["rel_ds"])["kind"] == "dataset"

    def test_missing_db_exits_2(self, work, capsys):
        assert main(["generate", "--db", "no-such.db", "--total", "10",
                     "--out", "/tmp/never.ds"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_negative_seed_is_exit_1_and_one_line(self, work, tmp_path, capsys):
        out = tmp_path / "neg.ds"
        assert main(["generate", "--db", str(work["db"]), "--total", "100",
                     "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --seed must be >= 0, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("table, message", [
        ("nan Linux\n", "prevalence line 1: need a finite non-negative weight and name"),
        ("inf Linux\n", "prevalence line 1: need a finite non-negative weight and name"),
        ("1e308 Linux\n1e308 Windows\n", "signature weights must sum to a finite number, got inf"),
        ("0.5 Foo\n", "prevalence names no signature or family of the db: Foo"),
        ("0.9 Windows\n# later\n0.0 Windows\n", "prevalence lines 1 and 3 both weigh 'Windows'"),
    ])
    def test_bad_prevalence_is_exit_1_and_one_line(self, work, tmp_path, capsys, table, message):
        prev, out = tmp_path / "prev.txt", tmp_path / "prev.ds"
        prev.write_text(table)
        assert main(["generate", "--db", str(work["db"]), "--prevalence", str(prev),
                     "--total", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_a_stage_of_zero_weight_is_exit_1_and_one_line_naming_it(self, work, tmp_path, capsys):
        prev, out = tmp_path / "zero.prev", tmp_path / "zero.ds"
        prev.write_text("".join(f"0 {family}\n" for family in RELEVANT_FAMILIES))
        assert main(["generate", "--db", str(work["db"]), "--prevalence", str(prev), "--stage", "family",
                     "--total", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: all signature weights of stage 'family' are zero"]
        assert not out.exists()

    def test_a_drawn_outcome_the_encoder_refuses_is_exit_1_and_one_line(self, tmp_path, capsys):
        db, out = tmp_path / "q.db", tmp_path / "q.ds"
        db.write_text("Fingerprint X\nClass V | Linux | 1.X | general purpose\nPU(Resp=Y%UCK=Q|E)\n")
        assert main(["generate", "--db", str(db), "--total", "20", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: PU.UCK outcome must be one of ['0', 'E', 'F'], got 'Q'"]
        assert not out.exists()

    def test_determinism(self, work, tmp_path):
        a, b = tmp_path / "a.ds", tmp_path / "b.ds"
        for out in (a, b):
            assert main(["generate", "--db", str(work["db"]), "--total", "150",
                         "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestReduce:
    def test_report(self, work, capsys, tmp_path):
        assert main(["reduce", "--dataset", str(work["rel_ds"])]) == 0
        text = capsys.readouterr().out
        assert "columns kept" in text
        assert "% of variance" in text
        # reduce writes no container: none of the commands reads a fitted pipeline alone
        out = tmp_path / "rel.pipe"
        assert main(["reduce", "--dataset", str(work["rel_ds"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: neuralfp: unrecognized arguments: --out {out}"]
        assert not out.exists()

    @pytest.mark.parametrize("variance", ["0", "2", "nan"])
    def test_variance_outside_unit_interval_is_exit_1(self, family40, capsys, variance):
        assert main(["reduce", "--dataset", str(family40), "--variance", variance]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: variance share {float(variance)!r} is not in (0, 1]"]


class TestTrain:
    def test_history_csv_header(self, work):
        first = work["curves"].with_name("hier-family.csv").read_text().splitlines()[0]
        assert first == "generation,mse,lambda,G"

    def test_digest_covers_the_whole_config(self, work, tmp_path):
        digests = []
        for hidden in (5, 6):
            cfg, out = tmp_path / f"h{hidden}.cfg", tmp_path / f"h{hidden}.model"
            cfg.write_text(json.dumps({"generations": 3, "hidden": {"family": hidden}}))
            assert main(["train", "--db", str(work["two"]), "--config", str(cfg),
                         "--seed", "11", "--out", str(out)]) == 0
            digests.append(load_container(out)["metadata"]["config_digest"])
            assert load(out).family.net.sizes[1] == hidden
        assert digests[0] != digests[1]
        # sha256 of the canonical '{"generations":3,"hidden":{"family":5},"seed":11}'
        assert digests[0] == "0f8c8add4a8f3426ae7c926ca744de350d074e95131ea9ef1f4be73a1c06e637"

    def test_trains_through_the_stage_trainer(self, work, tmp_path, monkeypatch):
        # the traced bench times these three names on the hierarchy module, once per stage
        called = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                called.append((name, args[0][-1] if name == "init_mlp" else None))
                return real(*args, **kwargs)
            return wrapper

        for name in ("fit_pipeline", "init_mlp", "train"):
            monkeypatch.setattr(hierarchy, name, spy(name, getattr(hierarchy, name)))
        cfg, out = tmp_path / "small.cfg", tmp_path / "t.model"
        cfg.write_text(json.dumps({"samples": 300, "generations": 2}))
        assert main(["train", "--db", str(work["db"]), "--config", str(cfg), "--seed", "11",
                     "--out", str(out)]) == 0
        # init_mlp sizes each net's output layer: one output per label of the stage, in table order
        stages = load(out).stages().values()
        assert len(stages) == 7
        assert called == [call for stage in stages for call in (
            ("fit_pipeline", None), ("init_mlp", len(stage.labels)), ("train", None))]

    def test_fixed_lr_flag_freezes_lambda(self, work, tmp_path, capsys):
        # a fixed rate has one spelling, the config's "adaptive": false
        out, cfg = tmp_path / "fixed.model", tmp_path / "fixed.cfg"
        assert main(["train", "--db", str(work["db"]), "--fixed-lr", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: neuralfp: unrecognized arguments: --fixed-lr"]
        cfg.write_text(json.dumps({"samples": 300, "generations": 10, "adaptive": False}))
        assert main(["train", "--db", str(work["db"]), "--seed", "11", "--config", str(cfg),
                     "--out", str(out)]) == 0
        for stage in load(out).stages().values():
            assert len({lam for _, _, lam, _ in stage.net.history.rows}) == 1

    def test_trained_twice_from_its_seed_is_the_same_bytes(self, work, tmp_path, capsys):
        # each stage stops on a plateau before its cap of 8, with lambda raised on the way:
        # every part of each curve is pinned
        cfg = tmp_path / "c.cfg"
        cfg.write_text(json.dumps({"samples": 300, "generations": 8, "target_error": 0}))
        outs = [tmp_path / "a.model", tmp_path / "b.model"]
        for out in outs:
            assert main(["train", "--db", str(work["db"]), "--config", str(cfg),
                         "--seed", "11", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"wrote {out}" for out in outs]
        data = [out.read_bytes() for out in outs]
        assert data[0] == data[1]
        for stage in load(outs[0]).stages().values():
            rows = stage.net.history.rows
            # with no target error, a run shorter than 8 stopped on a plateau
            assert len(rows) < 8 and max(lam for _, _, lam, _ in rows) > rows[0][2]
        # the body's sha256: a change to any trained bit of any stage shows here. Both digests
        # were recorded with the subset schedule still in neural.train, whose deletion kept them
        head, _, body = data[0].partition(b"\n")
        assert hashlib.sha256(body).hexdigest() == (
            "a76178adc3f835497a740dafd78bffcaf6002ef974a08fbcb1b388173bfc0bb2")
        # the whole container's, header included
        assert json.loads(head)["format_version"] == 6
        assert hashlib.sha256(data[0]).hexdigest() == (
            "9c276eca1296e46266a15a68570bb10633e1799c109ff263c8516b7e4f4401b1")

    def test_subset_size_is_an_unknown_key(self, work, tmp_path, monkeypatch, capsys):
        # subset training is gone: its key is refused as any unknown key is, before a file is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"subset_size": 100}))
        assert main(["train", "--db", str(work["db"]), "--config", "c.json", "--out", "s.model"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: c.json: unknown config keys ['subset_size']"]
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        # the key was never part of a model body: models of earlier versions load and classify
        reports = []
        for name in ("format3.model", "format4.model"):
            assert main(["classify", "--model", str(DATA / name), "--obs", str(work["sol_obs"])]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and "Setting OS to Solaris" in reports[0]

    def test_hierarchy_requires_db(self, tmp_path, monkeypatch, capsys):
        # train reads one input, the db, and has no --dataset flag
        monkeypatch.chdir(tmp_path)
        for argv, message in (
                (["train", "--out", "y"], "neuralfp train: the following arguments are required: --db"),
                (["train", "--db", "d", "--dataset", "x.ds", "--out", "y"],
                 "neuralfp: unrecognized arguments: --dataset x.ds")):
            assert main(argv) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("db_first, flags, message", [
        pytest.param(True, ["--dataset"], "neuralfp: unrecognized arguments: --dataset {path}",
                     id="True-flags0-train needs --db, not --dataset"),
        # train reads no saved model to train on
        (True, ["--resume"], "neuralfp: unrecognized arguments: --resume {path}"),
        (False, ["--resume"], "neuralfp: unrecognized arguments: --resume {path}"),
        pytest.param(False, ["--dataset"], "neuralfp: unrecognized arguments: --dataset {path}",
                     id="False-flags3-train needs --db, not --dataset"),
    ])
    def test_a_path_the_mode_does_not_read_is_refused(self, work, tmp_path, capsys,
                                                       db_first, flags, message):
        # paths that do not exist, before or after --db: the flag is refused before any file is read
        path = tmp_path / "missing"
        unread = [a for flag in flags for a in (flag, str(path))]
        mode = ["--db", str(work["db"])]
        argv = [*mode, *unread] if db_first else [*unread, *mode]
        assert main(["train", *argv, "--out", str(tmp_path / "x.model")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message.format(path=path)}"]
        assert list(tmp_path.iterdir()) == []

    def test_hierarchy_with_a_family_of_zero_prevalence(self, work, tmp_path):
        # a valid prevalence file may zero a family: it gets no version stage, and no corpus is drawn for one
        prev, cfg, out = tmp_path / "z.prev", tmp_path / "small.cfg", tmp_path / "h.model"
        prev.write_text("0 Solaris\n")
        cfg.write_text(json.dumps({"samples": 300, "generations": 3}))
        assert main(["train", "--db", str(work["db"]), "--prevalence", str(prev), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert list(load(out).versions) == ["Linux", "OpenBSD", "FreeBSD", "NetBSD"]

    def test_hierarchy_with_every_family_of_zero_prevalence(self, work, tmp_path, capsys):
        # the relevance stage could still draw every other signature, but the family stage has
        # nothing to draw, so training stops before either draws or trains
        prev, out = tmp_path / "zero.prev", tmp_path / "h.model"
        prev.write_text("".join(f"0 {family}\n" for family in RELEVANT_FAMILIES))
        assert main(["train", "--db", str(work["db"]), "--prevalence", str(prev), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: all signature weights of stage 'family' are zero"]
        assert not out.exists()

    def test_hierarchy_of_a_db_with_no_relevant_family(self, tmp_path, capsys):
        # the family stage has no signature to draw: one line, and nothing drawn or trained first
        db, out = tmp_path / "irrelevant.db", tmp_path / "h.model"
        db.write_text(large_database(30))
        assert main(["train", "--db", str(db), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: stage 'family' has no signatures to sample"]
        assert not out.exists()

    def test_hierarchy_rejects_unknown_hidden_keys(self, work, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(json.dumps({"samples": 60, "generations": 1, "hidden": {"linux": 3}}))
        assert main(["train", "--db", str(work["db"]),
                     "--config", str(cfg), "--out", str(tmp_path / "h.model")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'linux'" in err[0] and "'Linux'" in err[0]
        assert not (tmp_path / "h.model").exists()

    # each config names the key it gets wrong in a type error, None for values
    # out of range (the message names each key of the config), "" for an
    # unknown key; text that is not JSON is named by its path
    @pytest.mark.parametrize("config, key", [
        ({"hidden": "a"}, "hidden"),
        ({"generations": "x"}, "generations"),
        ({"lam": None}, "lam"),
        ({"momentum": "x"}, "momentum"),
        ({"seed": 1.5}, "seed"),
        ({"hidden": {"Linux": "a"}}, "hidden"),
        ({"adaptive": "no"}, "adaptive"),
        ({"generations": 0}, None),
        ({"target_error": -1}, None),
        ({"variance": 0}, None),
        ({"variance": 2}, None),
        ({"generations": 2, "bogus": 1}, ""),
        ({"seed": -1}, None),
        ({"hidden": {"family": 0}}, None),
        (b'{"generations" 2}', None),
        (b'{"generations": "\xff"}', None),
        # every stage stops on hierarchy.STAGE_PATIENCE
        ({"patience": 7}, ""),
        ({"variance": float("nan")}, None),
        ({"target_error": float("nan")}, None),
        ({"momentum": float("inf")}, None),
        ({"momentum": -2}, None),
        ({"lam": -1}, None),
        # the adaptive schedule's factors and bounds are constants of neural
        ({"lam_up": 1.0}, ""),
        ({"lam_down": 1.0}, ""),
        ({"lam_min": 1e-6}, ""),
        ({"lam_max": 1.0}, ""),
    ])
    def test_bad_config_is_exit_1_and_one_line(self, work, tmp_path, capsys, config, key):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "bad.model"
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        assert main(["train", "--db", str(work["two"]), "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if key:
            assert err[0].startswith(f"error: {cfg}.{key}: expected ")
        elif key == "":
            unknown = [name for name in config if name not in _CONFIG_KEYS]
            assert err[0] == f"error: {cfg}: unknown config keys {unknown}"
        elif isinstance(config, dict):
            assert all(name in err[0] for name in config)
        else:
            assert err[0].startswith(f"error: {cfg}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--db", "two", "--config", '{"lam": HUGE}'],
         "{cfg}.lam: integer of 401 digits is too large for a float"),
        (["train", "--db", "two", "--config", '{"decision_threshold": HUGE}'],
         "{cfg}.decision_threshold: integer of 401 digits is too large for a float"),
        (["train", "--db", "two", "--config", '{"samples": HUGE}'],
         "total of 401 digits is too large to apportion"),
        (["generate", "--db", "two", "--total", "HUGE"], "total of 401 digits is too large to apportion"),
    ], ids=["lam", "decision_threshold", "samples", "total"])
    def test_integer_beyond_every_float_is_exit_1_and_one_line(self, work, tmp_path, capsys, argv, message):
        cfg, out = tmp_path / "huge.cfg", tmp_path / "huge.out"
        if "--config" in argv:
            cfg.write_text(argv[-1].replace("HUGE", str(10**400)))
            argv = argv[:-1] + [str(cfg)]
        argv = [str(work[a]) if a == "two" else a.replace("HUGE", str(10**400)) for a in argv]
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: " + message.format(cfg=cfg)]
        assert not out.exists()

    # totals far past any address space, so the allocation fails at once, never lazily
    @pytest.mark.parametrize("argv", [
        ["train", "--db", "two", "--config", '{"samples": TOTAL}'],
        ["generate", "--db", "two", "--total", "TOTAL"],
    ], ids=["samples", "total"])
    @pytest.mark.parametrize("total", [10**12, 10**13, 10**19])
    def test_rows_beyond_memory_are_exit_1_and_one_line(self, work, tmp_path, capsys, argv, total):
        cfg, out = tmp_path / "big.cfg", tmp_path / "big.out"
        if "--config" in argv:
            cfg.write_text(argv[-1].replace("TOTAL", str(total)))
            argv = argv[:-1] + [str(cfg)]
        argv = [str(work[a]) if a == "two" else a.replace("TOTAL", str(total)) for a in argv]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: total {total}: too many rows to allocate"]
        assert not out.exists()

    def test_config_nested_too_deep_is_exit_1_and_one_line(self, work, tmp_path, capsys):
        cfg, out = tmp_path / "deep.cfg", tmp_path / "deep.model"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["train", "--db", str(work["two"]), "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: maximum recursion depth exceeded")
        assert not out.exists()

    @pytest.mark.parametrize("config", [{"seed": -1}, {"hidden": {"Linux": 0}}, {"variance": 0},
                                        {"variance": 1.5}])
    def test_hierarchy_range_is_checked_before_training(self, work, tmp_path, capsys,
                                                         monkeypatch, config):
        monkeypatch.setattr(hierarchy, "generate_dataset", None)
        cfg, out = tmp_path / "bad.cfg", tmp_path / "h.model"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--db", str(work["db"]),
                     "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: hierarchy training needs ")
        assert all(name in err[0] for name in config)
        assert not out.exists()

    def test_hierarchy_train_config_out_of_range_is_exit_1_and_one_line(self, work, tmp_path, capsys):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "h.model"
        cfg.write_text('{"target_error": NaN}')
        assert main(["train", "--db", str(work["db"]),
                     "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training needs ")
        assert err[0].endswith("got target_error=nan")
        assert not out.exists()

    def test_hierarchy_samples_are_checked_before_training(self, work, tmp_path, capsys,
                                                           monkeypatch):
        # the demo db has 61 signatures, each of positive weight without --prevalence
        monkeypatch.setattr(hierarchy, "generate_dataset", None)
        monkeypatch.setattr(hierarchy, "train_stage", None)
        cfg, out = tmp_path / "bad.cfg", tmp_path / "h.model"
        cfg.write_text(json.dumps({"samples": 5}))
        assert main(["train", "--db", str(work["db"]),
                     "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: hierarchy training needs samples >= 61, the positive-weight signature "
            "count, got samples 5"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("decision_threshold", "NaN"),
                                            ("decision_threshold", "Infinity"),
                                            ("relevance_threshold", "-Infinity")])
    def test_hierarchy_thresholds_must_be_finite(self, work, tmp_path, capsys, monkeypatch,
                                                 key, value):
        # Python's json reads these tokens as floats, so only the range check can refuse them
        monkeypatch.setattr(hierarchy, "generate_dataset", None)
        cfg, out = tmp_path / "bad.cfg", tmp_path / "h.model"
        cfg.write_text(f'{{"{key}": {value}}}')
        assert main(["train", "--db", str(work["db"]),
                     "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: hierarchy training needs finite thresholds")
        assert key in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ([], ": expected dict, got list"),
        ({"hidden": 5}, ".hidden: expected dict, got int"),
        ({"hidden": {"Linux": "a"}}, ".hidden: expected int, got str"),
        ({"windows": "yes"}, ".windows: expected bool, got str"),
        ({"variance": 0.98, "hiden": {}}, ": unknown config keys ['hiden']"),
    ])
    def test_hierarchy_config_is_checked_before_training(self, work, tmp_path, capsys,
                                                          config, message):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "h.model"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--db", str(work["db"]),
                     "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}{message}"]
        assert not out.exists()

    def test_hierarchy_history_per_stage(self, work, tmp_path):
        # a model without a Windows refiner: one curve per stage net, and no other
        cfg, model, stem = tmp_path / "small.cfg", tmp_path / "h.model", tmp_path / "curves.csv"
        cfg.write_text(json.dumps({"samples": 300, "generations": 30}))
        assert main(["train", "--db", str(work["db"]), "--config", str(cfg), "--seed", "2",
                     "--out", str(model)]) == 0
        assert main(["export-curves", "--model", str(model), "--out", str(stem)]) == 0
        written = {p.name for p in tmp_path.glob("curves-*.csv")}
        assert {"curves-relevance.csv", "curves-family.csv", "curves-Linux.csv"} <= written
        assert written == {f"curves-{name}.csv" for name in load(model).stages()}

    @pytest.mark.parametrize("config", [{"lam": -1}, {"generations": 0}, {"momentum": float("nan")}])
    def test_hierarchy_train_keys_are_checked_before_any_corpus(self, work, tmp_path, capsys,
                                                               monkeypatch, config):
        monkeypatch.setattr(hierarchy, "generate_dataset", None)
        cfg, out = tmp_path / "bad.cfg", tmp_path / "h.model"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--db", str(work["db"]), "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training needs ")
        assert all(f"{name}=" in err[0] for name in config)
        assert not out.exists()


class TestClassify:
    def test_classified_exit_0(self, work, capsys):
        assert main(["classify", "--model", str(work["model"]),
                     "--obs", str(work["sol_obs"])]) == 0
        text = capsys.readouterr().out
        assert "Relevant / not relevant analysis" in text
        assert "OS family analysis" in text
        assert "Setting OS to Solaris" in text

    def test_not_relevant_exit_3(self, work, capsys):
        assert main(["classify", "--model", str(work["model"]),
                     "--obs", str(work["prn_obs"])]) == 3
        assert "not relevant" in capsys.readouterr().out

    def test_windows_dump_combined_report(self, work, capsys):
        assert main(["classify", "--model", str(work["model"]),
                     "--obs", str(work["win_obs"]), "--dump", str(work["dump"])]) == 0
        text = capsys.readouterr().out
        assert "DCE-RPC Windows analysis" in text
        version, edition, sp = work["triple"]
        assert f"Setting OS to Windows {version} {edition} sp{sp}" in text

    def test_dump_without_a_refiner_is_exit_1_and_one_line(self, work, tmp_path, capsys):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text(json.dumps({"samples": 300, "generations": 2}))
        bare = tmp_path / "bare.model"
        assert main(["train", "--db", str(work["db"]),
                     "--config", str(cfg), "--seed", "2", "--out", str(bare)]) == 0
        capsys.readouterr()
        assert main(["classify", "--model", str(bare),
                     "--obs", str(work["win_obs"]), "--dump", str(work["dump"])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            'error: an endpoint dump needs a model trained with "windows": true']

    def test_unknown_exit_4(self, work, tmp_path, capsys):
        model = load(work["model"])
        model.decision_threshold = 2.0
        from neuralfp.persistence import save

        strict = tmp_path / "strict.model"
        save(model, strict)
        assert main(["classify", "--model", str(strict),
                     "--obs", str(work["sol_obs"])]) == 4
        assert "OS unknown" in capsys.readouterr().out

    def test_pathology_observation_classified(self, work, tmp_path, capsys):
        obs = tmp_path / "pathology.obs"
        obs.write_text(format_observation(pathology_observation()) + "\n")
        assert main(["classify", "--model", str(work["model"]), "--obs", str(obs)]) == 0
        assert "Setting OS to Linux 2.6.X" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["T9(W=1)\n", "T1(\n", "TSeq()\n", "PU(Resp=N)\n"])
    def test_no_encoded_field_is_exit_1_and_one_line(self, work, tmp_path, capsys, text):
        obs = tmp_path / "empty.obs"
        obs.write_text(text)
        assert main(["classify", "--model", str(work["model"]), "--obs", str(obs)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {obs}: no probe field the layout encodes"]

    def test_hex_too_large_for_a_float_is_exit_1_and_one_line(self, work, tmp_path, capsys):
        # both values exceed W's bound, so each is refused as it is parsed
        wide = "F" * 400
        obs, db, out = tmp_path / "wide.obs", tmp_path / "wide.db", tmp_path / "wide.ds"
        obs.write_text(f"T1(Resp=Y%DF=Y%W={wide}%ACK=S++%Flags=AS%Ops=M)\n")
        db.write_text(f"Fingerprint X\nClass X | Linux | 2.4.X | general purpose\nT1(W={wide})\n")
        for argv, message in ((["classify", "--model", str(work["model"]), "--obs", str(obs)],
                               f"line 1: field W: value {wide} above its bound FFFF"),
                              (["generate", "--db", str(db), "--total", "3", "--out", str(out)],
                               f"line 3: field W: value {wide} above its bound FFFF")):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_value_above_its_bound_is_exit_1_and_one_line(self, work, tmp_path, capsys):
        # classify used to encode such a host raw, and baseline to rank signatures for it
        obs = tmp_path / "wide.obs"
        obs.write_text("T1(Resp=Y%DF=Y%W=FFFFFFFF%ACK=S++%Flags=AS%Ops=M)\n")
        for argv in (["classify", "--model", str(work["model"]), "--obs", str(obs)],
                     ["baseline", "--db", str(work["db"]), "--obs", str(obs)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == ["error: line 1: field W: value FFFFFFFF above its bound FFFF"]

    def test_one_known_field_reaches_a_verdict(self, work, tmp_path, capsys):
        # gcd=0 encodes to an all-zero vector, but it is evidence
        obs = tmp_path / "gcd.obs"
        obs.write_text("TSeq(gcd=0)\n")
        assert main(["classify", "--model", str(work["model"]), "--obs", str(obs)]) in (0, 3, 4)
        assert "Relevant / not relevant analysis" in capsys.readouterr().out


class TestBadPaths:
    @pytest.mark.parametrize("command, flag", [("baseline", "--db"), ("classify", "--model")])
    def test_directory_is_exit_2_and_one_line(self, work, tmp_path, capsys, command, flag):
        assert main([command, flag, str(tmp_path), "--obs", str(work["sol_obs"])]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: is a directory: {tmp_path}"]


class TestEvaluateBaseline:
    def test_evaluate_report(self, work, capsys):
        assert main(["evaluate", "--model", str(work["model"]),
                     "--dataset", str(work["rel_ds"])]) == 0
        text = capsys.readouterr().out
        assert "Evaluation over 500 held-out observations" in text
        assert "outcomes:" in text

    def test_evaluate_rejects_non_relevance_dataset(self, work, capsys):
        assert main(["evaluate", "--model", str(work["model"]),
                     "--dataset", str(work["fam_ds"])]) == 1
        assert "relevance-stage" in capsys.readouterr().err

    def test_evaluate_rejects_an_empty_dataset(self, work, tmp_path, capsys):
        empty = tmp_path / "empty.ds"
        save(Dataset("relevance", np.zeros((0, TOTAL_NEURONS)), np.zeros((0, 1)), [],
                     ("relevant",), 0), empty)
        assert main(["evaluate", "--model", str(work["model"]), "--dataset", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: held-out dataset has no rows"]
        assert "nan" not in captured.out

    def test_evaluate_rejects_another_width(self, work, tmp_path, capsys):
        narrow = tmp_path / "narrow.ds"
        labels = [SampleLabel("Beta Box", True, "Windows", "NT4")] * 3
        save(Dataset("relevance", np.zeros((3, 10)), np.ones((3, 1)), labels, ("relevant",), 0),
             narrow)
        assert main(["evaluate", "--model", str(work["model"]), "--dataset", str(narrow)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: held-out dataset has 10 input columns, the model expects {TOTAL_NEURONS}"]

    def test_evaluate_rejects_an_unknown_family(self, work, tmp_path, capsys):
        ds = load(work["rel_ds"])
        ds.labels[4] = SampleLabel("Plan 9 4th edition", True, "Plan9", "4")
        odd = tmp_path / "plan9.ds"
        save(ds, odd)
        assert main(["evaluate", "--model", str(work["model"]), "--dataset", str(odd)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: held-out labels name families the model does not know: ['Plan9']"]

    def test_baseline_top_flag(self, work, tmp_path, capsys):
        obs = tmp_path / "pathology.obs"
        obs.write_text(format_observation(pathology_observation()) + "\n")
        assert main(["baseline", "--db", str(work["db"]), "--obs", str(obs),
                     "--top", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "best-fit scores (top 4 of 61 signatures)"
        assert len(lines) == 5
        # the sparse impostor pathology shows up right at the top
        assert "1.00000  RetroBox Game Console" in lines[1]

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_baseline_top_below_1_is_exit_1_and_one_line(self, work, capsys, top):
        assert main(["baseline", "--db", str(work["db"]), "--obs", str(work["sol_obs"]),
                     "--top", top]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: --top must be >= 1, got {top}"]
        assert captured.out == ""

    @pytest.mark.parametrize("rule, message", [
        ("T1(DF=<5%W=4000)", "comparison in non-numeric field DF"),
        ("TSeq(SI=>7&<5)", "field SI: no value in 0..FFFFFF"),
        ("T1(W=>FFFF)", "field W: no value in 0..FFFF"),
        # a literal above the field's bound, which no sample of a Range reaches
        ("T1(W=FFFFFFFF)", "field W: value FFFFFFFF above its bound FFFF"),
        ("PU(DF=N%TOS=0|100)", "field TOS: value 100 above its bound FF"),
    ])
    def test_rule_no_sample_can_meet_is_exit_1_and_one_line(self, work, tmp_path, capsys,
                                                            rule, message):
        # baseline used to rank such a db, and generate failed while sampling
        db = tmp_path / "unmeetable.db"
        db.write_text(f"Fingerprint X\nClass X | Linux | 2.4.X | general purpose\n{rule}\n")
        out = tmp_path / "never.ds"
        for argv in (["baseline", "--db", str(db), "--obs", str(work["sol_obs"])],
                     ["generate", "--db", str(db), "--total", "10", "--out", str(out)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: line 3: {message}")
            assert captured.out == ""
        assert not out.exists()


class TestExports:
    def test_export_curves_hierarchy(self, work, tmp_path):
        stem = tmp_path / "h.csv"
        assert main(["export-curves", "--model", str(work["model"]),
                     "--out", str(stem)]) == 0
        names = {p.name for p in tmp_path.glob("h-*.csv")}
        assert {"h-relevance.csv", "h-family.csv", "h-windows.csv"} <= names

    def test_export_curves_rejects_a_dataset(self, work, tmp_path, capsys):
        assert main(["export-curves", "--model", str(work["rel_ds"]),
                     "--out", str(tmp_path / "no.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {work['rel_ds']}: holds 'dataset', expected 'hierarchy'"]
        assert list(tmp_path.iterdir()) == []

    def test_export_layout(self, work, tmp_path, capsys):
        out = tmp_path / "layout.txt"
        assert main(["export-layout", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index  test  feature"
        assert len(lines) == 1 + 568
        assert lines[1].split() == ["0", "T1", "ACK", "FIELD"]
        assert capsys.readouterr().out == f"wrote {out} (568 rows)\n"
        # with no --out, stdout carries the same table
        assert main(["export-layout"]) == 0
        assert capsys.readouterr().out == out.read_text()


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestCurves:
    """export-curves writes the history each net of the saved model recorded."""

    def _export(self, model, tmp_path):
        assert main(["export-curves", "--model", str(model), "--out", str(tmp_path / "c.csv")]) == 0
        return _files(tmp_path)

    def test_hierarchy(self, work, tmp_path):
        model = load(work["model"])
        nets = {name: stage.net for name, stage in model.stages().items()} | {"windows": model.windows.net}
        assert {"Linux", "Solaris"} <= set(nets)
        assert self._export(work["model"], tmp_path) == {
            f"c-{name}.csv": net.history.to_csv().encode() for name, net in nets.items()}


class TestUsage:
    """A command line argparse refuses, a removed flag among them, is one
    error line and exit 1, as any other operational error."""

    @pytest.mark.parametrize("argv, message", [
        (["train", "--db", "x.db", "--fixed-lr", "--out", "x"],
         "neuralfp: unrecognized arguments: --fixed-lr"),
        (["train", "--db", "x.db", "--history", "c.csv", "--out", "x"],
         "neuralfp: unrecognized arguments: --history c.csv"),
        (["train", "--db", "x.db", "--stage", "hierarchy", "--out", "x"],
         "neuralfp: unrecognized arguments: --stage hierarchy"),
        (["classify", "--model", "x.model"],
         "neuralfp classify: the following arguments are required: --obs"),
        (["generate", "--db", "x.db", "--total", "ten", "--out", "x"],
         "neuralfp generate: argument --total: invalid int value: 'ten'"),
        ([], "neuralfp: the following arguments are required: command"),
    ])
    def test_bad_command_line_is_exit_1_and_one_line(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--db" in out and "--dataset" not in out

    def test_every_container_kind_has_a_writer(self, work, tmp_path):
        # generate and train --db write every kind load accepts, and no other
        ds, model, cfg = (tmp_path / name for name in ("t.ds", "t.model", "t.cfg"))
        cfg.write_text(json.dumps({"samples": 20, "generations": 1}))
        for argv in (["generate", "--db", str(work["two"]), "--total", "20", "--out", str(ds)],
                     ["train", "--db", str(work["two"]), "--config", str(cfg), "--out", str(model)]):
            assert _run(argv) == (0, [])
        assert {load_container(path)["kind"] for path in (ds, model)} == set(persistence._KINDS)


# ---------------------------------------------------------------------------
# Every input gets a defined outcome


def _run(argv):
    """main(argv) -> (exit code, the stderr lines that start with "error:");
    logged warnings share stderr, so only those lines count."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


@st.composite
def _mutated(draw, data: bytes, hex_runs: bool = False) -> bytes:
    """data with one to three edits: a byte replaced, deleted or inserted,
    or, with hex_runs, a run of 300 to 400 of one non-zero hex digit, a
    number too large for a float, inserted at the start of a value (after a
    '=') or, in text without one, anywhere."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op, i = draw(st.sampled_from("rdih" if hex_runs else "rdi")), draw(st.integers(0, len(data)))
        if op == "h":
            values = [j + 1 for j, byte in enumerate(data) if byte == ord("=")]
            i = draw(st.sampled_from(values)) if values else i
            digit = draw(st.sampled_from(b"123456789ABCDEF"))
            data[i:i] = bytes([digit]) * draw(st.integers(300, 400))
        elif op == "i":
            data.insert(i, draw(st.integers(0, 255)))
        elif i < len(data) and op == "d":
            del data[i]
        elif i < len(data):
            data[i] = draw(st.integers(0, 255))
    return bytes(data)


# 10**400 is an integer beyond every float
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.just(10**400), st.floats(),
                     st.text(max_size=3))
_JSON_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2),
                         st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))
# the keys a config may set
_CONFIG_KEYS = list(hierarchy.HierarchyConfig.__dataclass_fields__)
_SMALL_CONFIG = b'{"samples": 40, "generations": 2, "hidden": {"family": 3}, "variance": 0.9}'
# the keys a hierarchy config may set, and values of which half are of
# the kinds the keys take (a hidden size is keyed by stage name), so that
# some configs train
_HIERARCHY_VALUES = st.sampled_from([_JSON_VALUES, st.one_of(
    st.booleans(), st.integers(1, 50), st.just(10**400), st.floats(0.01, 1.0),
    st.dictionaries(st.sampled_from(["relevance", "family", "Linux"]), st.integers(-1, 4), max_size=2),
)]).flatmap(lambda values: values)
_HIERARCHY_CONFIG = {"samples": 40, "generations": 2}
# configs whose every key is in range, with a schedule that stays finite;
# any other key is left out at times, so its default is drawn too, but
# generations and samples are always set, so that no draw trains for long
_VALID_HIERARCHY_CONFIG = st.fixed_dictionaries(
    {"generations": st.integers(1, 3), "samples": st.integers(10, 60)},
    optional={"seed": st.integers(0, 2**32), "target_error": st.floats(0, 1), "lam": st.floats(1e-4, 0.1),
              "momentum": st.floats(0, 0.9), "adaptive": st.booleans(), "variance": st.floats(0.01, 1),
              "windows": st.booleans(),
              "relevance_threshold": st.floats(-2, 2), "decision_threshold": st.floats(-2, 2),
              "hidden": st.dictionaries(st.sampled_from(["relevance", "family"]), st.integers(1, 6))})
# a weight as a prevalence file spells it, for a signature or family of the
# two-signature db or for a name it lacks
_PREVALENCE_LINES = st.lists(st.tuples(
    st.one_of(st.floats(), st.integers(-2, 5), st.text(max_size=3)),
    st.sampled_from(["Alpha Server", "Beta Box", "Linux", "Windows", "Gamma"])), max_size=4)


def _forged(fields: dict, path) -> None:
    """Write a dataset's fields as a digest-valid container, past the checks
    that building a Dataset and saving it make."""
    hints = dict(persistence._fields(Dataset))
    body = _canonical({name: _encode(value, hints[name]) for name, value in fields.items()})
    header = {"format_version": FORMAT_VERSION, "kind": "dataset", "metadata": {},
              "digest": _digest(body)}
    path.write_bytes(_canonical(header) + b"\n" + body)


@st.composite
def _inconsistent(draw, ds: Dataset) -> dict:
    """The fields of ds with non-finite inputs, targets other than -1 and +1, a target row
    flipped or traded with a row of other targets, or a row missing from
    its inputs, targets or labels; at least one of them."""
    inputs, targets, labels = ds.inputs.copy(), ds.targets.copy(), list(ds.labels)
    kinds = draw(st.sets(st.sampled_from(["inputs", "targets", "labels", "rows"]), min_size=1))
    cells = lambda a: st.tuples(st.integers(0, len(a) - 1), st.integers(0, a.shape[1] - 1))  # noqa: E731
    if "inputs" in kinds:
        for cell in draw(st.lists(cells(inputs), min_size=1, max_size=3)):
            inputs[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if "targets" in kinds:
        for cell in draw(st.lists(cells(targets), min_size=1, max_size=3)):
            targets[cell] = draw(st.floats().filter(lambda v: abs(v) != 1))
    if "labels" in kinds:
        row = draw(st.integers(0, len(targets) - 1))
        others = [i for i, t in enumerate(targets) if not np.array_equal(t, targets[row])]
        if others and draw(st.booleans()):
            other = draw(st.sampled_from(others))
            targets[[row, other]] = targets[[other, row]]
        else:
            targets[row] *= -1
    if "rows" in kinds:
        which = draw(st.sampled_from(["inputs", "targets", "labels"]))
        row = draw(st.integers(0, len(labels) - 1))
        if which == "labels":
            del labels[row]
        elif which == "inputs":
            inputs = np.delete(inputs, row, axis=0)
        else:
            targets = np.delete(targets, row, axis=0)
    return {**vars(ds), "inputs": inputs, "targets": targets, "labels": labels}


class TestMainProperty:
    """Mutated inputs and drawn config values end in an exit code of the
    documented set; a failure leaves exactly one "error:" line."""

    @staticmethod
    def _check(code, errors):
        assert code in (0, 1, 2, 3, 4)
        assert len(errors) == (1 if code in (1, 2) else 0)

    def _mutated_file(self, work, name, data):
        path = work["db"].parent / name
        path.write_bytes(data)
        return str(path)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_mutated_db_observation_and_dump(self, work, data):
        db = self._mutated_file(work, "fuzz.db", data.draw(_mutated(work["two"].read_bytes(), True)))
        self._check(*_run(["baseline", "--db", db, "--obs", str(work["sol_obs"])]))
        self._writes(work, ["generate", "--db", db, "--total", "3"], "fuzz.ds", "dataset")
        obs = self._mutated_file(work, "fuzz.obs",
                                 data.draw(_mutated(work["win_obs"].read_bytes(), True)))
        self._check(*_run(["classify", "--model", str(work["model"]), "--obs", obs]))
        dump = self._mutated_file(work, "fuzz.dump",
                                  data.draw(_mutated(work["dump"].read_bytes(), True)))
        self._check(*_run(["classify", "--model", str(work["model"]),
                           "--obs", str(work["win_obs"]), "--dump", dump]))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_container(self, work, data):
        model = self._mutated_file(work, "fuzz.model",
                                   data.draw(_mutated(work["model"].read_bytes())))
        self._check(*_run(["classify", "--model", model, "--obs", str(work["sol_obs"])]))

    def _writes(self, work, argv, name, kind):
        """Run argv --out <name>: it writes an artifact that load accepts
        exactly when it exits 0."""
        out = work["db"].parent / name
        out.unlink(missing_ok=True)
        code, errors = _run(argv + ["--out", str(out)])
        self._check(code, errors)
        assert out.exists() == (code == 0)
        if code == 0:
            load(out, expected_kind=kind)

    def _train(self, work, config: bytes, *prevalence: str):
        cfg = self._mutated_file(work, "fuzz.cfg", config)
        self._writes(work, ["train", "--db", str(work["two"]), "--config", cfg,
                            *prevalence], "fuzz.model", "hierarchy")

    @settings(max_examples=60)
    @given(config=_mutated(_SMALL_CONFIG))
    def test_mutated_config(self, work, config):
        self._train(work, config)

    @settings(max_examples=100)
    @given(drawn=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON_VALUES, max_size=3))
    def test_drawn_config_values(self, work, drawn):
        self._train(work, json.dumps({**_HIERARCHY_CONFIG, **drawn}).encode())

    @settings(max_examples=100)
    @given(drawn=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _HIERARCHY_VALUES, max_size=3))
    def test_drawn_hierarchy_config_values(self, work, drawn):
        self._train(work, json.dumps({**_HIERARCHY_CONFIG, **drawn}).encode())

    def _trains(self, work, argv, config: dict, name, kind):
        """Run argv with config: it exits 0 with no error line and writes an artifact load accepts."""
        cfg = self._mutated_file(work, "valid.cfg", json.dumps(config).encode())
        out = work["db"].parent / name
        out.unlink(missing_ok=True)
        assert _run(argv + ["--config", cfg, "--out", str(out)]) == (0, [])
        load(out, expected_kind=kind)

    @settings(max_examples=50)
    @given(config=_VALID_HIERARCHY_CONFIG)
    def test_valid_hierarchy_config_trains(self, work, config):
        self._trains(work, ["train", "--db", str(work["two"])], config, "valid.model", "hierarchy")

    @settings(max_examples=60)
    @given(lines=_PREVALENCE_LINES, stage=st.sampled_from(["relevance", "family"]),
           total=st.integers(1, 60))
    def test_drawn_prevalence_weights(self, work, lines, stage, total):
        prev = self._mutated_file(work, "fuzz.prev", "".join(f"{w} {n}\n" for w, n in lines).encode())
        self._writes(work, ["generate", "--db", str(work["two"]), "--prevalence", prev, "--stage", stage,
                            "--total", str(total)], "fuzz.ds", "dataset")
        self._train(work, json.dumps(_HIERARCHY_CONFIG).encode(), "--prevalence", prev)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_inconsistent_dataset(self, work, family40, data):
        # every command that loads a dataset refuses it with one error line
        path = work["db"].parent / "fuzz.ds"
        _forged(data.draw(_inconsistent(load(family40))), path)
        for argv in (["reduce", "--dataset", str(path)],
                     ["evaluate", "--model", str(work["model"]), "--dataset", str(path)]):
            code, errors = _run(argv)
            assert code == 1 and len(errors) == 1, (argv[0], code, errors)
            assert "malformed dataset" in errors[0]
