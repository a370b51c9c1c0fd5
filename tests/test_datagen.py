"""Sampling soundness, apportionment, and dataset determinism."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import (
    RELEVANT_FAMILIES,
    GenerationError,
    PrevalenceTable,
    SampleLabel,
    generate_dataset,
    in_stage,
    resolve_weights,
    sample_label,
    sample_observation,
    signature_counts,
    stage_outputs,
    stage_targets,
)
from neuralfp.signatures import FieldConstraint, Range, Signature, match_scores, parse_fingerprint_db

from conftest import OPENBSD_22_BLOCK, OPENBSD_36_BLOCK

RICH_SIG = """\
Fingerprint Grammar Rich 1.0
Class V | Linux | 2.4.X | general purpose
TSeq(Class=RI|TD%gcd=<6%SI=<2D870A&>66C6%IPID=Z|I%TS=100HZ|1000HZ%VAL=>5)
T1(DF=Y%W=16A0|7F53%ACK=S++%Flags=AS%Ops=MENNTNW|MNNTNW)
T2(Resp=Y|N%DF=N%W=0)
T3(Resp=N)
PU(DF=N%TOS=0|C0%RIPTL=148%RID=E%RIPCK=E|F%UCK=E%ULEN=134%DAT=E)
"""


class TestApportionment:
    def test_exact_split(self):
        assert signature_counts([0.75, 0.25], 100) == [75, 25]

    def test_tiny_weights_still_covered(self):
        counts = signature_counts([0.99, 0.005, 0.005], 100)
        assert sum(counts) == 100
        assert min(counts) >= 1
        assert counts[0] > 90

    def test_zero_weight_gets_nothing(self):
        counts = signature_counts([0.5, 0.0, 0.5], 10)
        assert counts == [5, 0, 5]

    def test_total_below_coverage(self):
        with pytest.raises(GenerationError, match="below"):
            signature_counts([0.4, 0.3, 0.3], 2)

    def test_deterministic_tie_break(self):
        a = signature_counts([1 / 3, 1 / 3, 1 / 3], 10)
        assert a == signature_counts([1 / 3, 1 / 3, 1 / 3], 10)
        assert sum(a) == 10


class TestPrevalence:
    def test_parse(self):
        table = PrevalenceTable.parse("# c\n0.35 Windows\n0.02 OpenBSD 3.6 (i386)\n")
        assert table.weights == {"Windows": 0.35, "OpenBSD 3.6 (i386)": 0.02}

    def test_parse_errors(self):
        with pytest.raises(GenerationError, match="line 1"):
            PrevalenceTable.parse("x y\n")

    def test_second_entry_for_a_name_names_both_lines(self):
        with pytest.raises(GenerationError, match="^prevalence lines 1 and 3 both weigh 'Windows'$"):
            PrevalenceTable.parse("0.9 Windows\n0.1 Linux\n0.0  Windows\n")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_weight_names_its_line(self, weight):
        with pytest.raises(GenerationError, match="line 2: need a finite non-negative weight"):
            PrevalenceTable.parse(f"0.5 Windows\n{weight} Linux\n")

    def test_weight_sum_must_stay_finite(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + RICH_SIG)
        table = PrevalenceTable.parse("1e308 OpenBSD\n1e308 Linux\n")
        with pytest.raises(GenerationError, match="sum to a finite number, got inf"):
            resolve_weights(db, table)

    def test_entry_naming_nothing_in_the_db_is_listed(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + RICH_SIG)
        table = PrevalenceTable.parse("0.5 Foo\n0.2 OpenBSD\n0.1 Bar Box\n")
        with pytest.raises(GenerationError, match="no signature or family of the db: Bar Box, Foo$"):
            generate_dataset(db, table, 20)

    def test_entries_are_checked_against_the_whole_db(self):
        # a Linux entry matches nothing in the OpenBSD slice, but the db has it
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK + "\n" + RICH_SIG)
        table = PrevalenceTable.parse("0.9 Linux\n0.1 OpenBSD 3.6 (i386)\n")
        ds = generate_dataset(db, table, 20, stage="version:OpenBSD")
        assert {l.family for l in ds.labels} == {"OpenBSD"}

    def test_family_mass_is_split(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK + "\n" + RICH_SIG)
        weights = resolve_weights(db, PrevalenceTable.parse("0.8 OpenBSD\n0.2 Grammar Rich 1.0\n"))
        assert weights[0] == pytest.approx(0.4)
        assert weights[1] == pytest.approx(0.4)
        assert weights[2] == pytest.approx(0.2)

    def test_uniform_default(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK)
        assert resolve_weights(db, None) == [0.5, 0.5]


class TestSampling:
    def test_samples_match_source(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK + "\n" + RICH_SIG)
        for i, sig in enumerate(db):
            rng = np.random.default_rng((42, i))
            for _ in range(30):
                assert match_scores([sig], sample_observation(sig, rng))[0] == 1.0

    def test_cmp_intervals(self):
        sig = parse_fingerprint_db("Fingerprint X\nTSeq(gcd=<6%SI=>FFFF0%VAL=<A&>7)\n")[0]
        rng = np.random.default_rng(3)
        for _ in range(60):
            obs = sample_observation(sig, rng)
            assert 0 <= int(obs.tests["TSeq"]["gcd"], 16) <= 5
            assert 0xFFFF0 < int(obs.tests["TSeq"]["SI"], 16) <= 0xFFFFFF
            assert int(obs.tests["TSeq"]["VAL"], 16) in (8, 9)

    def test_unsatisfiable_interval(self):
        # the parser refuses such a rule, so only a hand-built signature has one
        sig = Signature("X", (), {"TSeq": (FieldConstraint("SI", (Range(10, 5),)),)})
        with pytest.raises(GenerationError, match="X: TSeq.SI"):
            sample_observation(sig, np.random.default_rng(0))

    def test_comparison_in_a_non_numeric_field(self):
        # nor one with a range in a field that is not numeric
        sig = Signature("X", (), {"T1": (FieldConstraint("DF", (Range(None, 5),)),)})
        with pytest.raises(GenerationError, match="X: T1.DF: comparison in a non-numeric field"):
            sample_observation(sig, np.random.default_rng(0))

    def test_silent_response_collapses_fields(self):
        sig = parse_fingerprint_db("Fingerprint X\nT2(Resp=Y|N%DF=N%W=0)\n")[0]
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(40):
            fields = sample_observation(sig, rng).tests["T2"]
            seen.add(fields["Resp"])
            if fields["Resp"] == "N":
                assert fields == {"Resp": "N"}
            else:
                assert fields == {"Resp": "Y", "DF": "N", "W": "0"}
        assert seen == {"Y", "N"}

    def test_unknown_field_omitted(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(Bogus=stuff%DF=Y)\n")[0]
        obs = sample_observation(sig, np.random.default_rng(0))
        assert obs.tests["T1"] == {"DF": "Y"}


class TestDatasets:
    def db(self):
        extra = (
            "Fingerprint Printer Thing\nClass HP | JetDirect | x | printer\nT1(DF=N%W=0)\n"
        )
        return parse_fingerprint_db(
            OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK + "\n" + RICH_SIG + "\n" + extra
        )

    def test_relevance_dataset(self):
        ds = generate_dataset(self.db(), None, 40, "relevance", seed=5)
        assert ds.inputs.shape == (40, 568)
        assert ds.targets.shape == (40, 1)
        assert ds.output_labels == ("relevant",)
        for label, target in zip(ds.labels, ds.targets):
            assert target[0] == (1.0 if label.relevant else -1.0)
        assert any(not lbl.relevant for lbl in ds.labels)

    def test_family_dataset_excludes_irrelevant(self):
        ds = generate_dataset(self.db(), None, 30, "family", seed=5)
        assert ds.targets.shape == (30, 6)
        assert all(lbl.relevant for lbl in ds.labels)
        for label, target in zip(ds.labels, ds.targets):
            hot = np.flatnonzero(target == 1.0)
            assert len(hot) == 1
            assert ds.output_labels[hot[0]] == label.family

    def test_version_dataset(self):
        ds = generate_dataset(self.db(), None, 20, "version:OpenBSD", seed=5)
        assert ds.output_labels == ("2.X", "3.X")
        assert ds.targets.shape == (20, 2)

    def test_unknown_stage(self):
        with pytest.raises(GenerationError, match="stage"):
            generate_dataset(self.db(), None, 10, "versions", seed=0)
        with pytest.raises(GenerationError, match="unknown family 'Plan9'"):
            generate_dataset(self.db(), None, 10, "version:Plan9", seed=0)

    def test_empty_slice(self):
        with pytest.raises(GenerationError, match="no signatures"):
            generate_dataset(self.db(), None, 10, "version:NetBSD", seed=0)

    def test_bit_identical_reruns(self):
        a = generate_dataset(self.db(), None, 50, "relevance", seed=9)
        b = generate_dataset(self.db(), None, 50, "relevance", seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        c = generate_dataset(self.db(), None, 50, "relevance", seed=10)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_per_signature_streams(self):
        # a signature's block only depends on (seed, its index), so it can be
        # regenerated in isolation
        from neuralfp.encoding import encode_observation

        db = self.db()
        ds = generate_dataset(db, None, 41, "relevance", seed=3)
        weights = resolve_weights(db, None)
        counts = signature_counts(weights, 41)
        start = sum(counts[:2])
        rng = np.random.default_rng((3, 2))
        for j in range(counts[2]):
            vec = encode_observation(sample_observation(db[2], rng))
            assert np.array_equal(ds.inputs[start + j], vec)


_DEMO = parse_fingerprint_db(demo_database())
_LARGE = parse_fingerprint_db(large_database())
# large_database has no relevant family, so its family and version stages
# are empty; joined to the demo db they gain many irrelevant signatures
_STAGE_DBS = [_DEMO, _LARGE, _DEMO + _LARGE]
_STAGES = ["relevance", "family"] + [f"version:{f}" for f in RELEVANT_FAMILIES]


class TestStageVocabulary:
    @settings(max_examples=30)
    @given(db=st.sampled_from(_STAGE_DBS), stage=st.sampled_from(_STAGES),
           seed=st.integers(0, 2**32 - 1))
    def test_one_builder_gives_every_dataset_its_targets(self, db, stage, seed):
        members = {sig.name for sig in db if in_stage(sample_label(sig), stage)}
        if not members:
            with pytest.raises(GenerationError, match="no signatures"):
                generate_dataset(db, None, 10, stage, seed=seed)
            return
        # enough rows that every member signature is sampled at least once
        ds = generate_dataset(db, None, len(members) + 30, stage, seed=seed)
        built = stage_targets(ds.labels, ds.stage, ds.output_labels)
        assert built.shape == ds.targets.shape
        assert built.tobytes() == ds.targets.tobytes()
        assert {label.signature for label in ds.labels} == members

    def test_a_line_outside_the_db_gives_an_all_minus_one_row(self):
        outputs = stage_outputs(_DEMO, "version:Linux")
        labels = [SampleLabel("stray", True, "Linux", "9.9.X"),
                  SampleLabel("known", True, "Linux", outputs[1])]
        targets = stage_targets(labels, "version:Linux", outputs)
        assert targets[0].tolist() == [-1.0] * len(outputs)
        assert targets[1].tolist() == [1.0 if i == 1 else -1.0 for i in range(len(outputs))]
        assert stage_targets([], "family", RELEVANT_FAMILIES).shape == (0, 6)



# The bench corpus recipes, (db text, relevance rows), and the sha256 of the
# inputs and targets that seed 42 draws from each; recorded before the
# sampler's bounds moved into the encoding table.
_CORPUS_RECIPES = {
    "demo": (demo_database(), 1000,
             "8b1af8bb3a764ed585c1ef1ec4e3b91c6e4c9ee5448b02575fe39773315dd406",
             "34d38342f3f9d37cae22cd0c24a01c625f4a2c94a10637acc9ada30d4aad8571"),
    "demo+large": (demo_database() + "\n" + large_database(220), 1500,
                   "c5af61d31c5f08b3e427294a181a4367de38bd3568e5e90319c39aec2f680720",
                   "fd17522d89268b8ead6641919d5d111b8664c4ce6dc27d0f94aa95ab1fdff842"),
}


class TestGoldenDataset:
    @pytest.mark.parametrize("recipe", list(_CORPUS_RECIPES))
    def test_relevance_corpus_digest(self, recipe):
        text, total, inputs_sha, targets_sha = _CORPUS_RECIPES[recipe]
        ds = generate_dataset(parse_fingerprint_db(text), None, total, stage="relevance", seed=42)
        assert hashlib.sha256(ds.inputs.tobytes()).hexdigest() == inputs_sha
        assert hashlib.sha256(ds.targets.tobytes()).hexdigest() == targets_sha
