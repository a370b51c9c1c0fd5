"""Decision cascade: training, classification, reporting, evaluation."""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp import hierarchy, neural
from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import (
    RELEVANT_FAMILIES,
    Dataset,
    GenerationError,
    SampleLabel,
    generate_dataset,
    sample_observation,
    signature_family,
)
from neuralfp.dcerpc import synthetic_windows_corpus
from neuralfp.encoding import TOTAL_NEURONS, encode_observation
from neuralfp.hierarchy import (
    OUTCOMES,
    STAGE_HIDDEN,
    STAGE_PATIENCE,
    HierarchyConfig,
    HierarchyError,
    ObservationError,
    classify,
    classify_batch,
    classify_vector,
    evaluate,
    report_classification,
    train_hierarchy,
    train_stage,
)
from neuralfp.neural import TrainConfig
from neuralfp.preprocess import ReductionError
from neuralfp.signatures import parse_fingerprint_db, parse_observation

from hosts import scan_hosts
from test_neural import TRAINED_SHAPES


@pytest.fixture(scope="module")
def db():
    return parse_fingerprint_db(demo_database())


@pytest.fixture(scope="module")
def dataset(db):
    return generate_dataset(db, None, 900, stage="relevance", seed=1)


@pytest.fixture(scope="module")
def model(db, dataset):
    cfg = HierarchyConfig(seed=3, generations=200, windows=True)
    return train_hierarchy(db, cfg=cfg, corpus=(dataset.inputs, dataset.labels))


def _pick(db, family, line=None):
    for sig in db:
        if signature_family(sig) == family:
            if line is None or any(l == line for _, f, l, _ in sig.classes if f == family):
                return sig
    raise LookupError(family)


class TestTraining:
    def test_stage_inventory(self, model):
        assert model.family.labels == RELEVANT_FAMILIES
        # Windows versions come from DCE-RPC, never from a TCP/IP stage
        assert set(model.versions) == set(RELEVANT_FAMILIES) - {"Windows"}
        assert model.windows is not None

    def test_version_stage_labels_are_the_lines(self, model):
        assert model.versions["Linux"].labels == ("2.0.X", "2.2.X", "2.4.X", "2.6.X")

    def test_empty_family_stage_is_a_named_error(self, db, dataset):
        labels = [
            SampleLabel(l.signature, False, None, None) for l in dataset.labels[:50]
        ]
        with pytest.raises(HierarchyError, match="stage 'family' has an empty dataset"):
            train_hierarchy(
                db,
                cfg=HierarchyConfig(seed=0, generations=5),
                corpus=(dataset.inputs[:50], labels),
            )

    def test_stage_hidden_size_defaults_by_short_name(self, db):
        ds = generate_dataset(db, None, 60, stage="version:OpenBSD", seed=2)
        args = (ds.stage, ds.inputs, ds.targets, ds.output_labels)
        assert train_stage(*args, HierarchyConfig(generations=2), 0).net.sizes[1] == STAGE_HIDDEN["OpenBSD"]
        cfg = HierarchyConfig(generations=2, hidden={"OpenBSD": 5})
        assert train_stage(*args, cfg, 0).net.sizes[1] == 5

    def test_stage_trains_with_the_configs_stage_recipe(self, db, monkeypatch):
        ds = generate_dataset(db, None, 60, stage="version:OpenBSD", seed=2)
        seen = []
        monkeypatch.setattr(hierarchy, "train", lambda net, X, Y, tcfg: seen.append(tcfg))
        train_stage(ds.stage, ds.inputs, ds.targets, ds.output_labels,
                    HierarchyConfig(seed=3, generations=9, lam=0.5, momentum=0.3), 1234)
        assert seen == [TrainConfig(generations=9, target_error=0.02, lam=0.5, momentum=0.3,
                                    adaptive=True, patience=STAGE_PATIENCE, seed=1234)]

    @pytest.mark.parametrize("kw, message", [
        ({"variance": 0}, "needs 0 < variance <= 1, got variance 0"),
        ({"variance": 1.5}, "needs 0 < variance <= 1, got variance 1.5"),
        ({"variance": float("nan")}, "needs 0 < variance <= 1, got variance nan"),
        ({"seed": -2}, "needs seed >= 0 and every hidden size >= 1, got seed -2 and hidden {}"),
        ({"hidden": {"Linux": 0}},
         "needs seed >= 0 and every hidden size >= 1, got seed 0 and hidden {'Linux': 0}"),
    ])
    def test_config_out_of_range_is_refused_as_it_is_built(self, kw, message):
        with pytest.raises(HierarchyError, match=f"^hierarchy training {re.escape(message)}$"):
            HierarchyConfig(**kw)

    @pytest.mark.parametrize("kw", [{"generations": 0}, {"lam": -1.0}, {"target_error": -0.5},
                                    {"target_error": float("nan")}, {"momentum": float("inf")}])
    def test_shared_training_keys_are_refused_as_the_config_is_built(self, kw):
        (key, value), = kw.items()
        with pytest.raises(ValueError, match=f"^training needs .*, got {key}={value!r}$"):
            HierarchyConfig(**kw)

    def test_unknown_hidden_key_is_rejected_before_training(self, db, monkeypatch):
        calls = []
        monkeypatch.setattr(hierarchy, "train_stage", lambda *a, **k: calls.append(a[0]))
        cfg = HierarchyConfig(samples=60, generations=1, hidden={"linux": 3, "Linux": 4, "Plan9": 2})
        with pytest.raises(HierarchyError) as err:
            train_hierarchy(db, cfg=cfg)
        assert calls == []
        message = str(err.value)
        assert "['Plan9', 'linux']" in message
        for name in ("relevance", "family", "Linux", "Solaris", "OpenBSD"):
            assert repr(name) in message

    @pytest.mark.parametrize("key", ["relevance_threshold", "decision_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_is_rejected_before_training(self, db, monkeypatch, key, value):
        # every score < nan is False: such a model would never answer "unknown"
        calls = []
        monkeypatch.setattr(hierarchy, "train_stage", lambda *a, **k: calls.append(a[0]))
        monkeypatch.setattr(hierarchy, "generate_dataset", None)
        with pytest.raises(HierarchyError, match=f"needs finite thresholds, got .*{key} {value}"):
            train_hierarchy(db, cfg=HierarchyConfig(**{key: value}))
        assert calls == []

    def test_prevalence_with_a_given_corpus_is_refused(self, db, dataset, monkeypatch):
        # the weights shape only a drawn corpus, so a given one would silently ignore them
        monkeypatch.setattr(hierarchy, "train_stage", None)
        with pytest.raises(HierarchyError, match="^prevalence weights shape a drawn corpus; "
                                                 "a given corpus takes none$"):
            train_hierarchy(db, {"Linux": 1.0}, corpus=(dataset.inputs, dataset.labels))

    def test_monte_carlo_branch_trains_without_corpus(self, db):
        cfg = HierarchyConfig(seed=5, samples=240, generations=40)
        model = train_hierarchy(db, cfg=cfg)
        obs = sample_observation(_pick(db, "Linux", "2.4.X"), np.random.default_rng(0))
        result = classify(model, obs)
        assert result.verdict[0] == "Linux"


def _spy_train_stage(monkeypatch):
    """Record each (stage, seed) that train_hierarchy trains, and train it."""
    seen, real = [], hierarchy.train_stage

    def spy(stage, X, Y, outputs, cfg, seed):
        seen.append((stage, seed))
        return real(stage, X, Y, outputs, cfg, seed)

    monkeypatch.setattr(hierarchy, "train_stage", spy)
    return seen


class TestStageTable:
    """train_hierarchy decides its stages once, before any corpus is drawn:
    relevance, family, and a version stage for each non-Windows family with
    two lines in the db and data; stage i of that table seeds from index i."""

    def test_stages_are_in_cascade_order(self, model):
        stages = model.stages()
        assert list(stages) == ["relevance", "family", "Linux", "Solaris", "OpenBSD", "FreeBSD", "NetBSD"]
        assert stages["relevance"] is model.relevance and stages["family"] is model.family
        assert all(stages[name] is stage for name, stage in model.versions.items())

    def test_every_stage_train_hierarchy_builds_has_a_hidden_size(self, db):
        # Windows has no version stage: DCE-RPC, not TCP/IP probes, refines it
        assert set(STAGE_HIDDEN) == {"relevance", "family", *RELEVANT_FAMILIES} - {"Windows"}
        ds = generate_dataset(db, None, 60, stage="version:Solaris", seed=2)
        stage = train_stage(ds.stage, ds.inputs, ds.targets, ds.output_labels, HierarchyConfig(generations=2), 0)
        assert stage.net.sizes[1] == STAGE_HIDDEN["Solaris"] == 7
        # `generate` still draws a Windows version dataset; training one needs a size given
        ds = generate_dataset(db, None, 60, stage="version:Windows", seed=2)
        args = ds.stage, ds.inputs, ds.targets, ds.output_labels
        with pytest.raises(HierarchyError, match="^stage 'version:Windows' has no hidden size: set one"):
            train_stage(*args, HierarchyConfig(generations=2), 0)
        assert train_stage(*args, HierarchyConfig(generations=2, hidden={"Windows": 3}), 0).net.sizes[1] == 3

    def test_drawn_family_of_zero_weight_gets_no_version_stage(self, db, monkeypatch):
        seen = _spy_train_stage(monkeypatch)
        model = train_hierarchy(db, {"Solaris": 0.0}, HierarchyConfig(seed=4, samples=300, generations=3))
        assert list(model.versions) == ["Linux", "OpenBSD", "FreeBSD", "NetBSD"]
        # the table leaves Solaris out, so OpenBSD takes its index
        assert seen == [("relevance", 4000), ("family", 4001), ("version:Linux", 4002),
                        ("version:OpenBSD", 4003), ("version:FreeBSD", 4004), ("version:NetBSD", 4005)]

    def test_given_corpus_without_a_family_trains_every_other_stage(self, db, dataset, monkeypatch):
        seen = _spy_train_stage(monkeypatch)
        rows = [i for i, l in enumerate(dataset.labels) if l.family != "NetBSD"]
        model = train_hierarchy(db, cfg=HierarchyConfig(seed=2, generations=3),
                                corpus=(dataset.inputs[rows], [dataset.labels[i] for i in rows]))
        assert list(model.stages()) == ["relevance", "family", "Linux", "Solaris", "OpenBSD", "FreeBSD"]
        assert [seed for _, seed in seen] == list(range(2000, 2006))
        # the family stage still names every family
        assert model.family.labels == RELEVANT_FAMILIES

    def test_a_drawn_stage_of_zero_weight_is_refused_before_any_stage_trains(self, db, monkeypatch):
        # every relevant family at 0: relevance could still draw, but the family stage has no weight
        monkeypatch.setattr(hierarchy, "train_stage", None)
        monkeypatch.setattr(hierarchy, "generate_dataset", None)
        with pytest.raises(GenerationError, match="^all signature weights of stage 'family' are zero$"):
            train_hierarchy(db, dict.fromkeys(RELEVANT_FAMILIES, 0.0), HierarchyConfig(samples=300))

    def test_a_drawn_stage_with_no_signature_is_refused_before_any_stage_trains(self, monkeypatch):
        # a db of no relevant family: the relevance stage could draw, the family stage has nothing
        seen = _spy_train_stage(monkeypatch)
        with pytest.raises(GenerationError, match="^stage 'family' has no signatures to sample$"):
            train_hierarchy(parse_fingerprint_db(large_database(30)), cfg=HierarchyConfig(samples=300))
        assert seen == []

    def test_hidden_size_for_a_stage_the_table_leaves_out_is_refused(self, db, monkeypatch):
        monkeypatch.setattr(hierarchy, "train_stage", None)
        monkeypatch.setattr(hierarchy, "generate_dataset", None)
        cfg = HierarchyConfig(samples=300, generations=1, hidden={"Solaris": 3, "Linux": 4})
        with pytest.raises(HierarchyError, match=re.escape(
                "hidden sizes for unknown stages ['Solaris']; the stages are "
                "['relevance', 'family', 'Linux', 'OpenBSD', 'FreeBSD', 'NetBSD']")):
            train_hierarchy(db, {"Solaris": 0.0}, cfg)


class TestGolden:
    # re-recorded when stage nets began to stop on G: the Solaris and OpenBSD
    # stages stop at generations 7 and 6 of 30, each history a prefix of the
    # old one (test_patience_moves_only_the_stop)
    SCAN_RECIPE_DIGEST = "3d897934365cb2233df18e9781d1555c4e996a970eb8c2b2e81a7697a259583a"
    # re-recorded when stage nets began to stop on G: the Solaris stage stops
    # at generation 9 of 30, every other stage where it did
    CORPUS_RECIPE_DIGEST = "1a76f49b71a06f42494beac3a28cdee042b5febf22acfa22b62f1ecd152beb29"
    # recorded before plateau stopping: the 300-generation run with it turned off
    TRAIN_RECIPE_FULL_DIGEST = "ac7ee926fe462b7657cabf205af42480e51752a0cc371a0a1dac6f89418a5e76"

    # re-recorded with SCAN_RECIPE_DIGEST: the Solaris and OpenBSD scores move
    # with their nets' earlier stop
    SCAN_VERDICTS_DIGEST = "1181dd1ff1ab3ffad004d2d99ea3815f5109209c0ab08750ccd98d0e7eee8618"

    @staticmethod
    def recipe(db, rows, **cfg):
        """A model trained on a bench recipe: corpus seed 42, HierarchyConfig
        seed 7 with the refiner."""
        ds = generate_dataset(db, None, rows, stage="relevance", seed=42)
        return train_hierarchy(db, cfg=HierarchyConfig(seed=7, windows=True, **cfg),
                               corpus=(ds.inputs, ds.labels))

    @staticmethod
    def nets(model):
        return {name: stage.net for name, stage in model.stages().items()} | {"windows": model.windows.net}

    @classmethod
    def digest(cls, model):
        """Every net's weights and history."""
        h = hashlib.sha256()
        for name, net in cls.nets(model).items():
            h.update(name.encode())
            for W in net.weights:
                h.update(W.tobytes())
            h.update(repr(net.history.rows).encode())
        return h.hexdigest()

    @pytest.fixture(scope="class")
    def scan_model(self, db):
        # the bench scan recipe: 1000 rows, 30 generations
        return self.recipe(db, 1000, generations=30)

    def test_scan_recipe_weights_and_histories(self, scan_model):
        assert self.digest(scan_model) == self.SCAN_RECIPE_DIGEST

    def test_scan_recipe_verdicts(self, db, scan_model):
        # every score, verdict, stage trace and Windows verdict of the first
        # 1000 bench scan hosts of seed 1
        h = hashlib.sha256()
        for obs, dump in scan_hosts(db, 1000):
            r = classify(scan_model, obs, dump)
            w = r.windows
            windows = w and (w.version, w.edition, w.service_pack, w.scores, w.low_confidence)
            h.update(repr((r.relevance, r.family_scores, r.version_scores, r.verdict,
                           r.stage_trace, windows)).encode())
        assert h.hexdigest() == self.SCAN_VERDICTS_DIGEST

    def test_corpus_recipe_weights_and_histories(self):
        # the bench corpus recipe: the demo db plus 220 machine-written
        # signatures, 1500 rows, 30 generations
        db = parse_fingerprint_db(demo_database() + "\n" + large_database(220))
        assert self.digest(self.recipe(db, 1500, generations=30)) == self.CORPUS_RECIPE_DIGEST

    @pytest.fixture(scope="class")
    def train_runs(self, db):
        """The bench train recipe (1000 rows, 300 generations) with every
        (net, G) that its training computed, and the recipe with patience off."""
        seen, fitness_g = [], neural.fitness_g

        def spy(mlp, inputs, targets):
            seen.append((mlp, fitness_g(mlp, inputs, targets)))
            return seen[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "fitness_g", spy)
            model = self.recipe(db, 1000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hierarchy, "STAGE_PATIENCE", None)
            full = self.recipe(db, 1000)
        return model, seen, full

    def test_train_recipe_without_patience_runs_in_full(self, train_runs):
        assert self.digest(train_runs[2]) == self.TRAIN_RECIPE_FULL_DIGEST

    def test_patience_reaches_every_stage(self, train_runs):
        model, seen, _ = train_runs
        patience = hierarchy.STAGE_PATIENCE
        plateaued = []
        for name, stage in model.stages().items():
            rows = stage.net.history.rows
            gs = [g for net, g in seen if net is stage.net]
            if rows[-1][1] <= 0.02:  # the target error, checked before G
                assert len(gs) == len(rows) - 1
                continue
            assert len(gs) == len(rows)
            rises = [gen for gen, g in enumerate(gs, start=1) if g > max(gs[:gen - 1], default=-np.inf)]
            assert len(rows) == rises[-1] + patience < 300
            plateaued.append(name)
        assert plateaued == ["Solaris", "OpenBSD"]
        # the refiner trains with no patience and computes no G
        assert not any(net is model.windows.net for net, _ in seen)

    def test_kernel_cases_are_the_trained_shapes(self, train_runs):
        # test_neural checks the backprop kernel at each of these shapes
        assert {name: net.sizes for name, net in self.nets(train_runs[0]).items()} == TRAINED_SHAPES

    @pytest.mark.parametrize("recipe", ["train", "corpus"])
    def test_patience_moves_only_the_stop(self, db, train_runs, recipe):
        if recipe == "train":
            model, _, full = train_runs
        else:
            db = parse_fingerprint_db(demo_database() + "\n" + large_database(220))
            model = self.recipe(db, 1500, generations=30)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hierarchy, "STAGE_PATIENCE", None)
                full = self.recipe(db, 1500, generations=30)
        # each stage's history under STAGE_PATIENCE is a prefix of its history without
        for net, whole in zip(self.nets(model).values(), self.nets(full).values()):
            rows = net.history.rows
            assert repr(rows) == repr(whole.history.rows[:len(rows)])


class TestClassification:
    def test_family_verdicts_on_fresh_samples(self, db, model):
        rng = np.random.default_rng(123)
        for family in RELEVANT_FAMILIES:
            obs = sample_observation(_pick(db, family), rng)
            result = classify(model, obs)
            assert result.verdict[0] == family, (family, result.verdict)

    def test_version_verdict_and_trace(self, db, model):
        obs = sample_observation(_pick(db, "Solaris", "10"), np.random.default_rng(7))
        result = classify(model, obs)
        assert result.verdict == ("Solaris", "10")
        assert result.stage_trace == ("relevance", "family", "version:Solaris")
        assert result.os_name() == "Solaris 10"

    def test_irrelevant_host_short_circuits(self, db, model):
        printer = next(s for s in db if "LaserJet" in s.name)
        obs = sample_observation(printer, np.random.default_rng(11))
        result = classify(model, obs)
        assert result.verdict == "not relevant"
        assert result.stage_trace == ("relevance",)
        assert result.family_scores is None
        assert result.os_name() is None

    def test_windows_without_dump_stops_at_family(self, db, model):
        obs = sample_observation(_pick(db, "Windows"), np.random.default_rng(13))
        result = classify(model, obs)
        assert result.verdict == ("Windows", None)
        assert "dcerpc" not in result.stage_trace
        assert result.os_name() == "Windows"

    def test_windows_with_dump_is_refined(self, db, model):
        obs = sample_observation(_pick(db, "Windows"), np.random.default_rng(13))
        dump, triple = synthetic_windows_corpus(seed=3)[0]
        result = classify(model, obs, dump)
        assert result.stage_trace[-1] == "dcerpc"
        assert result.verdict[0] == "Windows"
        assert result.windows is not None
        version, edition, sp = triple
        assert result.verdict[1] == f"{version} {edition} sp{sp}"
        assert result.os_name() == f"Windows {version} {edition} sp{sp}"

    def test_thresholds_gate_the_cascade(self, db, model, dataset):
        vec = dataset.inputs[0]
        import dataclasses

        strict = dataclasses.replace(model, relevance_threshold=2.0)
        assert classify_vector(strict, vec).verdict == "not relevant"
        undecided = dataclasses.replace(model, decision_threshold=2.0)
        assert classify_vector(undecided, vec).verdict == "unknown"

    def test_vector_and_observation_paths_agree(self, db, model):
        obs = sample_observation(_pick(db, "OpenBSD"), np.random.default_rng(29))
        a = classify(model, obs)
        b = classify_vector(model, encode_observation(obs))
        assert a.verdict == b.verdict
        assert a.stage_trace == b.stage_trace

    @pytest.mark.parametrize("text", ["T9(W=1)", "T1(", "TSeq()", "PU(Resp=N)"])
    def test_no_encoded_field_is_a_named_error(self, model, text):
        with pytest.raises(ObservationError, match="^no probe field the layout encodes$"):
            classify(model, parse_observation(text))

    def test_one_known_field_reaches_a_verdict(self, model):
        # gcd=0 encodes to an all-zero vector, but it is evidence
        assert classify(model, parse_observation("TSeq(gcd=0)")).stage_trace[0] == "relevance"

    def test_model_of_another_width_is_a_named_error(self, db, model):
        import dataclasses

        relevance = dataclasses.replace(
            model.relevance, pipeline=dataclasses.replace(model.relevance.pipeline, width=567))
        obs = sample_observation(_pick(db, "OpenBSD"), np.random.default_rng(29))
        with pytest.raises(HierarchyError, match="model expects 567 features, observation encodes to 568"):
            classify(dataclasses.replace(model, relevance=relevance), obs)

    @pytest.mark.parametrize("width", [567, 569])
    def test_vector_of_another_width_is_refused(self, model, width):
        with pytest.raises(ReductionError, match=f"rows have {width} columns, the pipeline expects 568"):
            classify_vector(model, np.zeros(width))


@pytest.fixture(scope="module")
def batch(model, dataset):
    """120 rows from across the db, a dump on every third, and their results."""
    X = dataset.inputs[::7][:120]
    corpus = synthetic_windows_corpus(seed=5)
    dumps = [corpus[i % len(corpus)][0] if i % 3 == 0 else None for i in range(len(X))]
    return X, dumps, classify_batch(model, X, dumps)


class TestBatch:
    def test_each_row_equals_its_batch_of_one(self, model, batch):
        X, dumps, results = batch
        assert len(results) == len(X)
        for i, result in enumerate(results):
            assert result == classify_vector(model, X[i], dumps[i])
        # every way out of the cascade is exercised
        ends = {r.stage_trace[-1].split(":")[0] for r in results}
        assert ends == {"relevance", "family", "version", "dcerpc"}

    @settings(max_examples=40)
    @given(idx=st.lists(st.integers(0, 119), max_size=25))
    def test_any_sub_batch_gives_the_same_results(self, model, batch, idx):
        X, dumps, results = batch
        assert classify_batch(model, X[idx], [dumps[i] for i in idx]) == [results[i] for i in idx]

    def test_without_dumps_matches_one_by_one(self, model, batch):
        X, _, _ = batch
        assert classify_batch(model, X[:30]) == [classify_vector(model, x) for x in X[:30]]

    def test_empty_batch(self, model):
        assert classify_batch(model, np.empty((0, TOTAL_NEURONS))) == []

    def test_dump_without_a_refiner_is_refused(self, db, model, batch):
        import dataclasses

        X, dumps, _ = batch
        bare = dataclasses.replace(model, windows=None)
        message = 'an endpoint dump needs a model trained with "windows": true'
        with pytest.raises(HierarchyError, match=message):
            classify_batch(bare, X, dumps)
        obs = sample_observation(_pick(db, "Windows"), np.random.default_rng(8))
        with pytest.raises(HierarchyError, match=message):
            classify(bare, obs, dumps[0])
        # a list with no dump in it gives what no list gives
        assert classify_batch(bare, X, [None] * len(X)) == classify_batch(bare, X)

    def test_shorter_dumps_list_is_refused(self, model, batch):
        X, dumps, _ = batch
        with pytest.raises(HierarchyError, match="^1 endpoint dumps for 120 rows$"):
            classify_batch(model, X, dumps[:1])
        with pytest.raises(HierarchyError, match="^0 endpoint dumps for 120 rows$"):
            classify_batch(model, X, [])

    def test_longer_dumps_list_is_refused(self, model, batch):
        X, dumps, _ = batch
        with pytest.raises(HierarchyError, match="^120 endpoint dumps for 30 rows$"):
            classify_batch(model, X[:30], dumps)
        with pytest.raises(HierarchyError, match="^1 endpoint dumps for 0 rows$"):
            classify_batch(model, X[:0], [None])


class TestReport:
    def test_full_listing(self, db, model):
        obs = sample_observation(_pick(db, "Solaris", "8"), np.random.default_rng(17))
        text = report_classification(classify(model, obs))
        assert text.startswith("Relevant / not relevant analysis")
        assert "OS family analysis" in text
        assert "Solaris version analysis" in text
        assert text.splitlines()[-1].startswith("Setting OS to Solaris")

    def test_not_relevant_listing_stops_early(self, db, model):
        printer = next(s for s in db if "Cisco" in s.name)
        obs = sample_observation(printer, np.random.default_rng(19))
        text = report_classification(classify(model, obs))
        assert text.endswith("Host is not relevant; analysis stopped.")
        assert "OS family analysis" not in text

    def test_unknown_listing(self, model, dataset):
        import dataclasses

        undecided = dataclasses.replace(model, decision_threshold=2.0)
        text = report_classification(classify_vector(undecided, dataset.inputs[0]))
        assert text.endswith("OS unknown: strongest score fell below the decision threshold.")


@pytest.fixture(scope="module")
def report(db, model):
    heldout = generate_dataset(db, None, 400, stage="relevance", seed=97)
    return evaluate(model, heldout), heldout


class TestEvaluate:
    def test_stage_accuracies_in_range(self, report):
        rep, _ = report
        assert 0.9 <= rep.relevance_accuracy <= 1.0
        assert 0.8 <= rep.family_accuracy <= 1.0
        assert set(rep.version_accuracy) == set(RELEVANT_FAMILIES) - {"Windows"}
        for fam, acc in rep.version_accuracy.items():
            assert 0.5 <= acc <= 1.0, fam

    def test_confusion_counts_relevant_rows(self, report):
        rep, heldout = report
        truly_relevant = sum(l.relevant for l in heldout.labels)
        assert rep.confusion.sum() == truly_relevant
        assert rep.confusion_labels == RELEVANT_FAMILIES

    def test_wilson_interval_brackets_the_estimate(self, report):
        rep, _ = report
        lo, hi = rep.family_interval
        assert 0.0 <= lo <= rep.family_accuracy <= hi <= 1.0

    def test_outcome_categories_partition_the_set(self, report):
        rep, heldout = report
        assert set(rep.categories) == {"perfect match", "partial match", "error", "no answer"}
        assert sum(rep.categories.values()) == rep.n == len(heldout.inputs)
        # Windows rows have no version net and no dump, so they land in
        # partial at best; everything else here is separable
        windows_rows = sum(l.family == "Windows" for l in heldout.labels)
        assert rep.categories["partial match"] >= windows_rows - rep.categories["no answer"]

    def test_render_mentions_everything(self, report):
        rep, _ = report
        text = rep.render()
        assert f"Evaluation over {rep.n} held-out observations" in text
        assert "relevance accuracy" in text
        assert "95% CI" in text
        assert "confusion (rows true, columns predicted):" in text
        assert "outcomes:" in text

    def test_buckets_equal_the_one_by_one_cascade(self, model, report):
        rep, heldout = report
        counts = Counter(
            hierarchy._outcome(label, classify_vector(model, x).verdict)
            for label, x in zip(heldout.labels, heldout.inputs)
        )
        assert rep.categories == {k: counts[k] for k in OUTCOMES}

    def test_version_stage_without_heldout_rows_is_not_scored(self, model, report):
        _, heldout = report
        rows = [i for i, l in enumerate(heldout.labels) if l.family != "NetBSD"]
        rep = evaluate(model, Dataset("relevance", heldout.inputs[rows], heldout.targets[rows],
                                      [heldout.labels[i] for i in rows], ("relevant",), heldout.seed))
        assert set(rep.version_accuracy) == {"Linux", "Solaris", "OpenBSD", "FreeBSD"}

    def test_relevant_host_of_another_family_is_an_error(self):
        label = SampleLabel("Linux Kernel 2.4.20", True, "Linux", "2.4.X")
        assert hierarchy._outcome(label, ("Solaris", "10")) == "error"
        assert hierarchy._outcome(label, ("Solaris", None)) == "error"
        assert hierarchy._outcome(label, "not relevant") == "error"
        assert hierarchy._outcome(label, ("Linux", "2.6.X")) == "partial match"

    def test_wilson_interval_of_no_trials_is_the_unit_interval(self):
        assert hierarchy._wilson(0, 0) == (0.0, 1.0)

    def test_empty_heldout_is_a_named_error(self, model):
        empty = Dataset("relevance", np.zeros((0, TOTAL_NEURONS)), np.zeros((0, 1)), [],
                        ("relevant",), 0)
        with pytest.raises(HierarchyError, match="held-out dataset has no rows"):
            evaluate(model, empty)

    def test_evaluate_classifies_in_one_batch(self, model, report, monkeypatch):
        _, heldout = report

        def one_row(*args, **kwargs):
            raise AssertionError("evaluate classified a row on its own")

        monkeypatch.setattr(hierarchy, "classify_vector", one_row)
        assert evaluate(model, heldout).n == len(heldout.inputs)
