"""Built-in synthetic corpora: parseability, coverage, determinism."""

import hashlib

import numpy as np
import pytest

from neuralfp.corpus import (
    PATHOLOGY_TARGET,
    SPARSE_IMPOSTOR,
    demo_database,
    family_task_database,
    large_database,
    openbsd_study_database,
    pathology_observation,
)
from neuralfp.datagen import RELEVANT_FAMILIES, sample_observation, signature_family
from neuralfp.signatures import best_fit, match_scores, parse_fingerprint_db


class TestDemoDatabase:
    def test_covers_all_families_plus_noise(self):
        db = parse_fingerprint_db(demo_database())
        assert len(db) >= 60
        families = {signature_family(s) for s in db}
        assert set(RELEVANT_FAMILIES) <= families
        assert None in families  # irrelevant devices present

    def test_every_family_has_multiple_version_lines(self):
        db = parse_fingerprint_db(demo_database())
        for family in RELEVANT_FAMILIES:
            lines = {
                line
                for s in db
                for _, f, line, _ in s.classes
                if f == family
            }
            assert len(lines) >= 2, family

    def test_samples_match_their_source(self):
        db = parse_fingerprint_db(demo_database())
        for i, sig in enumerate(db):
            rng = np.random.default_rng((77, i))
            for _ in range(5):
                assert match_scores([sig], sample_observation(sig, rng))[0] == 1.0

    def test_deterministic_text(self):
        assert demo_database() == demo_database()


class TestPathology:
    def test_impostor_outranks_dense_truth(self):
        db = parse_fingerprint_db(demo_database())
        obs = pathology_observation()
        ranked = best_fit(db, obs, top=len(db))
        assert ranked[0][0] == SPARSE_IMPOSTOR
        assert ranked[0][1] == 1.0
        truth = dict(ranked)[PATHOLOGY_TARGET]
        assert 0.9 < truth < 1.0

    def test_exactly_one_rule_misses(self):
        db = parse_fingerprint_db(demo_database())
        sig = next(s for s in db if s.name == PATHOLOGY_TARGET)
        obs = pathology_observation()
        rules = sum(map(len, sig.tests.values()))
        assert match_scores([sig], obs)[0] == (rules - 1) / rules


class TestStudyCorpora:
    def test_openbsd_study_is_single_family(self):
        db = parse_fingerprint_db(openbsd_study_database())
        assert len(db) == 12
        assert {signature_family(s) for s in db} == {"OpenBSD"}

    def test_family_task_counts(self):
        db = parse_fingerprint_db(family_task_database(per_family=20, seed=4))
        by_family = {}
        for s in db:
            by_family.setdefault(signature_family(s), []).append(s)
        assert set(by_family) == set(RELEVANT_FAMILIES)
        assert all(len(v) == 20 for v in by_family.values())

    def test_family_task_samples_sound(self):
        db = parse_fingerprint_db(family_task_database(per_family=4, seed=4))
        for i, sig in enumerate(db):
            rng = np.random.default_rng((3, i))
            assert match_scores([sig], sample_observation(sig, rng))[0] == 1.0

    def test_large_database_round_trips_through_parser(self):
        text = large_database(n_signatures=40, seed=11)
        db = parse_fingerprint_db(text)
        assert len(db) == 40
        assert text == large_database(n_signatures=40, seed=11)


class TestGolden:
    """Every generated byte is pinned: the datasets, models and golden digests
    of the other test files are all built from these texts."""

    @pytest.mark.parametrize("generate, digest", [
        (demo_database, "955b7cdac6192b6bbb1448c57fffb8bbc26667b44e10e5abf07dae572b1c4a56"),
        (openbsd_study_database, "3c9d3efdb504907dcc66a1aa19d7f6ebb25509d6fcc2c625e041cda667256f72"),
        (family_task_database, "2b7b208cda1237fc809625c7c9b7885d40d5d070bb19b0e24c0dd7816a47eecc"),
        (large_database, "c8f9f62d0fb51b1ee3273f96ad34f5472abafce03eff74874d3167acf5ddb532"),
    ])
    def test_text_digest(self, generate, digest):
        assert hashlib.sha256(generate().encode()).hexdigest() == digest
