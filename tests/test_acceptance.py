"""Acceptance gate: the nine pipeline-level criteria, one test each.

Every test ends with a single `criterion N PASS` line carrying the
measured numbers; run `pytest tests/test_acceptance.py -v -s` to see
them next to the verdicts. The expensive fixture (the fully trained
hierarchy of criterion 6) is shared with criteria 8 and 9.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from neuralfp.corpus import (
    PATHOLOGY_TARGET,
    SPARSE_IMPOSTOR,
    demo_database,
    family_task_database,
    openbsd_study_database,
    pathology_observation,
)
from neuralfp.datagen import (
    Dataset,
    RELEVANT_FAMILIES,
    generate_dataset,
    sample_observation,
    signature_family,
)
from neuralfp.dcerpc import (
    parse_endpoint_dump,
    synthetic_windows_corpus,
    train_windows_net,
)
from neuralfp.encoding import TOTAL_NEURONS, encode_observation
from neuralfp.hierarchy import (
    HierarchyConfig,
    classify_vector,
    evaluate,
    train_hierarchy,
)
from neuralfp.neural import TrainConfig, forward, init_mlp, loss_gradient, train
from neuralfp.persistence import load, save
from neuralfp.preprocess import fit_pipeline
from neuralfp.signatures import (
    best_fit,
    match_scores,
    parse_fingerprint_db,
    parse_observation,
)

from conftest import LINUX_260_T3, MESSENGER_DUMP

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def demo_db():
    return parse_fingerprint_db(demo_database())


@pytest.fixture(scope="module")
def trained(demo_db):
    """Criterion 6 training run, reused by criteria 8 and 9.

    4000 relevance-stage samples, an 80/20 split, and the full
    hierarchy trained on the 80% side only.
    """
    ds = generate_dataset(demo_db, None, 4000, stage="relevance", seed=42)
    order = np.random.default_rng(42).permutation(len(ds.inputs))
    cut = int(0.8 * len(order))
    fit, held = order[:cut], order[cut:]
    heldout = Dataset(
        stage=ds.stage,
        inputs=ds.inputs[held],
        targets=ds.targets[held],
        labels=[ds.labels[i] for i in held],
        output_labels=ds.output_labels,
        seed=ds.seed,
    )
    start = time.perf_counter()
    model = train_hierarchy(
        demo_db,
        cfg=HierarchyConfig(seed=7),
        corpus=(ds.inputs[fit], [ds.labels[i] for i in fit]),
    )
    seconds = time.perf_counter() - start
    return model, heldout, seconds


def _fd_gradient(mlp, x, y, h=1e-5):
    """Central finite differences of E = 1/2 sum (y - v)^2."""
    def loss():
        e = y - forward(mlp, x)
        return 0.5 * float(e @ e)

    grads = []
    for W in mlp.weights:
        G = np.zeros_like(W)
        it = np.nditer(W, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = W[idx]
            W[idx] = orig + h
            up = loss()
            W[idx] = orig - h
            down = loss()
            W[idx] = orig
            G[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(G)
    return grads


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for trial in range(20):
        sizes = [int(rng.integers(1, 7)), int(rng.integers(1, 6)), int(rng.integers(1, 5))]
        net = init_mlp(sizes, seed=trial)
        x = rng.uniform(-1.0, 1.0, sizes[0])
        y = rng.uniform(-1.0, 1.0, sizes[-1])
        for A, B in zip(loss_gradient(net, x, y), _fd_gradient(net, x, y)):
            scale = np.maximum(1e-3, np.maximum(np.abs(A), np.abs(B)))
            worst = max(worst, float(np.max(np.abs(A - B) / scale)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    print(
        f"criterion 1 PASS: analytic vs finite-difference gradients on 20 nets, "
        f"max relative deviation {worst:.2e} (< 1e-6), {elapsed:.2f}s"
    )


def test_criterion_2_encoding_fidelity():
    vec = encode_observation(parse_observation(LINUX_260_T3 + "\n"))
    assert TOTAL_NEURONS == 568
    assert vec.shape == (568,)
    base = 150  # the T3 block
    assert vec[base + 0] == 1.0       # ACK field present
    assert vec[base + 1] == -1.0      # ACK=S
    assert vec[base + 2] == 1.0       # ACK=S++
    assert vec[base + 3] == -1.0      # ACK=O
    assert vec[base + 4] == 1.0       # DF=Y
    assert vec[base + 5] == 1.0       # responded
    assert vec[base + 6] != 0.0       # flag count
    flags = list(vec[base + 7:base + 14])
    assert flags == [-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0]  # E,U,A,P,R,S,F
    print(
        "criterion 2 PASS: Linux 2.6.0 T3 row matches the reference "
        "transformation exactly; layout width 568"
    )


def test_criterion_3_sampling_soundness():
    start = time.perf_counter()
    db = parse_fingerprint_db((DATA / "fingerprints_v1.txt").read_text())
    assert len(db) >= 200
    rng = np.random.default_rng(3)
    checked = 0
    for sig in db[:200]:
        for _ in range(50):
            obs = sample_observation(sig, rng)
            assert match_scores([sig], obs)[0] == 1.0
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 10000
    assert elapsed < 30.0
    print(
        f"criterion 3 PASS: {checked} Monte Carlo samples across 200 signatures "
        f"all match their source at 1.0, {elapsed:.1f}s"
    )


def test_criterion_4_reduction_and_pca():
    db = parse_fingerprint_db(openbsd_study_database())
    ds = generate_dataset(db, None, 1500, stage="version:OpenBSD", seed=5)
    pipe = fit_pipeline(ds.inputs)
    kept = len(pipe.kept)
    k = pipe.output_dim
    t5_survivors = [j for j in pipe.kept if 300 <= j < 375]
    assert t5_survivors == []
    assert pipe.variance_kept >= 0.98
    assert k < kept
    assert 34 * 0.7 <= kept <= 34 * 1.3
    assert 23 * 0.7 <= k <= 23 * 1.3
    print(
        f"criterion 4 PASS: T5 block fully eliminated; kept {kept} columns "
        f"(34 +/- 30%), k={k} components (23 +/- 30%), "
        f"variance retained {pipe.variance_kept:.4f}"
    )


def test_criterion_5_adaptive_learning_rate():
    start = time.perf_counter()
    db = parse_fingerprint_db(family_task_database(20, seed=4))
    ds = generate_dataset(db, None, 3000, stage="family", seed=9)
    pipe = fit_pipeline(ds.inputs)
    X = pipe.apply(ds.inputs)

    def run(adaptive, budget):
        net = init_mlp([X.shape[1], 20, 6], seed=9)
        cfg = TrainConfig(
            generations=budget,
            target_error=0.05,
            lam=1e-6,
            momentum=0.8,
            adaptive=adaptive,
            seed=9,
        )
        hist = train(net, X, ds.targets, cfg)
        return len(hist.rows), hist.rows[-1][1] <= 0.05

    g_adaptive, reached_a = run(True, 400)
    assert reached_a, "adaptive run never reached mse <= 0.05"
    g_fixed, reached_f = run(False, 2 * g_adaptive)
    # pass iff the fixed-rate run needs at least twice the generations
    assert (not reached_f) or g_fixed >= 2 * g_adaptive
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    fixed_note = (
        f"needed {g_fixed}" if reached_f
        else f"still above it after {g_fixed}"
    )
    print(
        f"criterion 5 PASS: adaptive lambda reached mse <= 0.05 in {g_adaptive} "
        f"generations, fixed lambda {fixed_note} (budget {2 * g_adaptive}), "
        f"{elapsed:.1f}s"
    )


def test_criterion_6_end_to_end_desk_scale(demo_db, trained):
    assert len(demo_db) >= 60
    assert set(RELEVANT_FAMILIES) <= {signature_family(s) for s in demo_db}
    model, heldout, seconds = trained
    report = evaluate(model, heldout)
    assert report.relevance_accuracy >= 0.95
    assert report.family_accuracy >= 0.90
    assert report.version_accuracy
    for family, acc in report.version_accuracy.items():
        assert acc >= 0.80, f"{family} version accuracy {acc:.3f}"
    assert seconds < 900.0
    versions = ", ".join(
        f"{fam} {acc:.3f}" for fam, acc in sorted(report.version_accuracy.items())
    )
    print(
        f"criterion 6 PASS: {report.n} held-out samples; relevance "
        f"{report.relevance_accuracy:.3f} (>= 0.95), family "
        f"{report.family_accuracy:.3f} (>= 0.90), versions [{versions}] "
        f"(each >= 0.80); trained in {seconds:.1f}s (< 900s)"
    )


def test_criterion_7_dcerpc_path():
    corpus = synthetic_windows_corpus(per_triple=8, seed=0, dropout=0.1)
    refiner = train_windows_net(corpus)
    hits = sum(
        (v.version, v.edition, v.service_pack) == triple
        for dump, triple in corpus
        for v in [refiner.classify(dump)]
    )
    rate = hits / len(corpus)
    assert rate >= 0.95
    emap = parse_endpoint_dump(MESSENGER_DUMP)
    assert len(emap.programs) == 3
    assert emap.binding_count() == 8
    print(
        f"criterion 7 PASS: replay decodes {hits}/{len(corpus)} dumps "
        f"({rate:.4f} >= 0.95); reference dump parses to 3 programs / 8 bindings"
    )


def test_criterion_8_persistence_round_trip(demo_db, trained, tmp_path):
    model, _, _ = trained
    path = tmp_path / "hierarchy.model"
    save(model, path)
    back = load(path, expected_kind="hierarchy")
    rng = np.random.default_rng(88)
    for _ in range(100):
        sig = demo_db[int(rng.integers(len(demo_db)))]
        vec = encode_observation(sample_observation(sig, rng))
        a = classify_vector(model, vec)
        b = classify_vector(back, vec)
        assert a.relevance == b.relevance
        assert a.family_scores == b.family_scores
        assert a.version_scores == b.version_scores
        assert a.verdict == b.verdict
    print(
        "criterion 8 PASS: saved and reloaded hierarchy scores 100 random "
        "observations bit-identically"
    )


def test_criterion_9_baseline_pathology(demo_db, trained):
    model, _, _ = trained
    obs = pathology_observation()
    ranked = best_fit(demo_db, obs)
    assert ranked[0] == (SPARSE_IMPOSTOR, 1.0)
    truth_score = dict(ranked)[PATHOLOGY_TARGET]
    assert truth_score < 1.0
    result = classify_vector(model, encode_observation(obs))
    assert result.verdict == ("Linux", "2.6.X")
    print(
        f"criterion 9 PASS: best fit ranks '{SPARSE_IMPOSTOR}' first at 1.00000 "
        f"over the true '{PATHOLOGY_TARGET}' at {truth_score:.5f}; the "
        f"hierarchy still answers Linux 2.6.X"
    )
