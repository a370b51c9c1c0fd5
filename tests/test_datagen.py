"""Sampling soundness, apportionment, and dataset determinism."""

import dataclasses
import gc
import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp import datagen
from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import (
    RELEVANT_FAMILIES,
    GenerationError,
    SampleLabel,
    generate_dataset,
    in_stage,
    parse_prevalence,
    resolve_weights,
    sample_label,
    sample_observation,
    signature_counts,
    stage_outputs,
    stage_targets,
)
from neuralfp.encoding import FIELDS, EncodeError, encode_observation
from neuralfp.signatures import (
    KNOWN_FIELDS,
    FieldConstraint,
    ParseError,
    Range,
    Signature,
    match_scores,
    parse_fingerprint_db,
)

from conftest import OPENBSD_22_BLOCK, OPENBSD_36_BLOCK
from tree_grammar import And, AnyValue, Cmp, Const, OneOf, TreeRule, format_tree_db, satisfiable

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
        table = parse_prevalence("# c\n0.35 Windows\n0.02 OpenBSD 3.6 (i386)\n")
        assert table == {"Windows": 0.35, "OpenBSD 3.6 (i386)": 0.02}

    def test_parse_errors(self):
        with pytest.raises(GenerationError, match="line 1"):
            parse_prevalence("x y\n")

    def test_second_entry_for_a_name_names_both_lines(self):
        with pytest.raises(GenerationError, match="^prevalence lines 1 and 3 both weigh 'Windows'$"):
            parse_prevalence("0.9 Windows\n0.1 Linux\n0.0  Windows\n")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_weight_names_its_line(self, weight):
        with pytest.raises(GenerationError, match="line 2: need a finite non-negative weight"):
            parse_prevalence(f"0.5 Windows\n{weight} Linux\n")

    def test_weight_sum_must_stay_finite(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + RICH_SIG)
        table = parse_prevalence("1e308 OpenBSD\n1e308 Linux\n")
        with pytest.raises(GenerationError, match="sum to a finite number, got inf"):
            resolve_weights(db, table)

    def test_entry_naming_nothing_in_the_db_is_listed(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + RICH_SIG)
        table = parse_prevalence("0.5 Foo\n0.2 OpenBSD\n0.1 Bar Box\n")
        with pytest.raises(GenerationError, match="no signature or family of the db: Bar Box, Foo$"):
            generate_dataset(db, table, 20)

    def test_entries_are_checked_against_the_whole_db(self):
        # a Linux entry matches nothing in the OpenBSD slice, but the db has it
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK + "\n" + RICH_SIG)
        table = parse_prevalence("0.9 Linux\n0.1 OpenBSD 3.6 (i386)\n")
        ds = generate_dataset(db, table, 20, stage="version:OpenBSD")
        assert {l.family for l in ds.labels} == {"OpenBSD"}

    def test_family_mass_is_split(self):
        db = parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK + "\n" + RICH_SIG)
        weights = resolve_weights(db, parse_prevalence("0.8 OpenBSD\n0.2 Grammar Rich 1.0\n"))
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
        # no sampler meets such a rule: it is refused when built and when parsed
        with pytest.raises(ValueError, match=r"^field SI: no value in 0\.\.FFFFFF satisfies '>A&<5'$"):
            FieldConstraint("SI", (Range(10, 5),))
        with pytest.raises(ParseError, match=r"^line 2: field SI: no value in 0\.\.FFFFFF satisfies '>A&<5'$"):
            parse_fingerprint_db("Fingerprint X\nTSeq(SI=>A&<5)\n")

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

    def test_a_later_rule_of_a_field_wins(self):
        # only a hand-built signature sets a field twice: the last rule gives
        # the value, the first its place, and an overridden draw still draws
        sig = Signature("X", (), {"T1": (FieldConstraint("W", (1, 2)), FieldConstraint("DF", ("Y",)),
                                          FieldConstraint("W", (7,)), FieldConstraint("ACK", ("S", "O")),
                                          FieldConstraint("DF", ("N", "Y")))})
        for seed in range(6):
            twin = np.random.default_rng(seed)
            twin.integers(2)  # the overridden W
            ack = ("S", "O")[int(twin.integers(2))]
            df = ("N", "Y")[int(twin.integers(2))]
            fields = sample_observation(sig, np.random.default_rng(seed)).tests["T1"]
            assert list(fields.items()) == [("W", "7"), ("DF", df), ("ACK", ack)]

    def test_unknown_field_omitted(self):
        sig = parse_fingerprint_db("Fingerprint X\nT1(Bogus=stuff%DF=Y)\n")[0]
        obs = sample_observation(sig, np.random.default_rng(0))
        assert obs.tests["T1"] == {"DF": "Y"}


class TestPlanCache:
    """Each signature object is compiled once, on first use, into a plan kept while it lives."""

    TEXT = OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK + "\n" + RICH_SIG

    def _draws(self, db, seed):
        rng = np.random.default_rng(seed)
        return [sample_observation(sig, rng) for sig in db for _ in range(5)]

    def test_a_warm_plan_draws_what_a_cold_one_does(self):
        warm, cold = parse_fingerprint_db(self.TEXT), parse_fingerprint_db(self.TEXT)
        generate_dataset(warm, None, 12, "relevance", seed=0)  # compiles the plans sample_observation reads
        assert all(id(sig) in datagen._plans for sig in warm)
        assert not any(id(sig) in datagen._plans for sig in cold)
        for seed in range(4):
            assert self._draws(warm, seed) == self._draws(cold, seed)

    def test_changing_a_drawn_observation_leaves_the_next_draw(self):
        db = parse_fingerprint_db(self.TEXT)
        for obs in self._draws(db, 1):
            for fields in obs.tests.values():
                fields.update(dict.fromkeys(fields, "changed"), Extra="1")
            obs.tests["T9"] = {"DF": "Y"}
        assert self._draws(db, 1) == self._draws(parse_fingerprint_db(self.TEXT), 1)

    def test_an_equal_signature_object_compiles_its_own_plan(self):
        (a,), (b,) = parse_fingerprint_db(RICH_SIG), parse_fingerprint_db(RICH_SIG)
        assert a == b and a is not b
        sample_observation(a, np.random.default_rng(0))
        assert id(a) in datagen._plans and id(b) not in datagen._plans
        sample_observation(b, np.random.default_rng(0))
        assert datagen._plans[id(a)] is not datagen._plans[id(b)]

    def test_a_collected_db_leaves_no_plan(self):
        gc.collect()
        before = len(datagen._plans)
        for seed in range(3):
            db = parse_fingerprint_db(demo_database())
            generate_dataset(db, None, 200, "relevance", seed=seed)
            self._draws(db, seed)
            ids = [id(sig) for sig in db]
            assert all(i in datagen._plans for i in ids)
            del db
            gc.collect()
            assert not any(i in datagen._plans for i in ids)
            assert len(datagen._plans) == before


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

    @settings(max_examples=200)
    @given(keys=st.lists(st.tuples(st.booleans(), st.sampled_from(["A", "B", "C", None])), max_size=8),
           outputs=st.lists(st.sampled_from(["A", "B", "C", "relevant"]), max_size=5).map(tuple),
           stage=st.sampled_from(["relevance", "family", "version:Linux"]))
    def test_targets_are_the_label_by_output_comparison(self, keys, outputs, stage):
        # the plain loop is the reference: an output may repeat, a key may be no output
        labels = [SampleLabel("s", relevant, key, key) for relevant, key in keys]
        rows = [[1.0 if {"relevance": "relevant" if l.relevant else None, "family": l.family}.get(stage, l.line)
                 == out else -1.0 for out in outputs] for l in labels]
        expected = np.array(rows, dtype=float).reshape(len(labels), len(outputs))
        assert stage_targets(labels, stage, outputs).tobytes() == expected.tobytes()
        assert stage_targets(labels, stage, outputs).shape == expected.shape



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


# ---------------------------------------------------------------------------
# generate_dataset draws each row straight into its encoding, from a plan
# compiled once per signature; sample_observation then encode_observation
# is the reference every row must equal, bit for bit.

def reference_rows(db, counts, seed):
    """Each signature's rows as the sampler and the encoder give them, drawn
    from copies of db's signatures, which compile plans of their own."""
    rows = []
    for i, (sig, count) in enumerate(zip(db, counts)):
        sig = dataclasses.replace(sig)
        rng = np.random.default_rng((seed, i))
        rows += [encode_observation(sample_observation(sig, rng)) for _ in range(count)]
    return np.array(rows).reshape(-1, 568)


# literals of each categorical field: every value the encoder knows, and
# now and then one it warns of (Z in a marked field) or refuses (Z in an
# outcome or Y/N field)
_FIELD = {(f.test, f.name): f for f in FIELDS}
_TESTS = ["T1", "T2", "TSeq", "PU", "U1"]  # U1: an unknown test id, every rule of it unknown


def _atom(f):
    if f.kind == "num":
        cmp = st.builds(Cmp, st.sampled_from("<>"), st.integers(0, 0x40))
        ranges = cmp | st.builds(And, st.lists(cmp, min_size=2, max_size=3).map(tuple))
        return (st.integers(0, 0x40).map(lambda v: Const(f"{v:X}"))
                | ranges.filter(lambda atom: satisfiable(atom, f.bound)))
    known = ["Y", "N"] if f.kind in ("yn", "resp") else sorted(f.slot) + ["MNWNNT"] * (f.kind == "ops")
    return st.sampled_from(known * 4 + ["Z"]).map(Const)


@st.composite
def _rule(draw, tid, name):
    if (f := _FIELD.get((tid, name))) is None or f.kind == "unslotted":
        if name not in KNOWN_FIELDS.get(tid, ()):
            return TreeRule(name, AnyValue(draw(st.sampled_from(["x", "Y|N"]))))
        f = _FIELD["T1", "Resp"]  # PU's Resp: Y or N like a TCP test's
    if f.kind == "resp" and draw(st.booleans()):
        return TreeRule(name, OneOf((Const("Y"), Const("N"))))
    atoms = draw(st.lists(_atom(f), min_size=1, max_size=3))
    return TreeRule(name, atoms[0] if len(atoms) == 1 else OneOf(tuple(atoms)))


@st.composite
def _planned_db(draw):
    """db text in the tree grammar: silent and answering probes, Ranges,
    unknown fields and test ids, and tests whose rules have no choices."""
    sigs = []
    for n in range(draw(st.integers(1, 4))):
        tests = {}
        for tid in draw(st.lists(st.sampled_from(_TESTS), unique=True, max_size=4)):
            names = draw(st.lists(st.sampled_from(list(KNOWN_FIELDS.get(tid, ())) + ["Bogus"]),
                                  unique=True, max_size=5))
            tests[tid] = tuple(draw(_rule(tid, name)) for name in names)
        sigs.append(Signature(f"S{n}", (), tests))
    return format_tree_db(sigs)


class TestPlannedRows:
    @settings(max_examples=120, deadline=None)
    @given(text=_planned_db(), total=st.integers(4, 12), seed=st.integers(0, 2**16))
    def test_rows_are_the_sampled_observations_encoded(self, text, total, seed):
        logging.disable(logging.WARNING)  # Z in a marked field warns on every row of the reference
        try:
            db = parse_fingerprint_db(text)
            counts = signature_counts(resolve_weights(db, None), total)
            try:  # from a second parse of the text, so the rows under test share no plan with it
                expected = reference_rows(parse_fingerprint_db(text), counts, seed)
            except EncodeError:  # the same draw that the reference cannot encode
                with pytest.raises(EncodeError):
                    generate_dataset(db, None, total, "relevance", seed=seed)
                return
            ds = generate_dataset(db, None, total, "relevance", seed=seed)
        finally:
            logging.disable(logging.NOTSET)
        assert ds.inputs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rules", [
        # a later rule of a field wins, drawn or not, and its earlier draws still use the rng
        {"T1": (FieldConstraint("W", (1, 2)), FieldConstraint("W", (7,)), FieldConstraint("DF", ("Y",)))},
        {"T1": (FieldConstraint("W", (7,)), FieldConstraint("W", (Range(None, 9),)))},
        {"T1": (FieldConstraint("Resp", ("Y", "N")), FieldConstraint("Resp", ("Y",)),
                FieldConstraint("DF", ("Y", "N")))},
        # a drawn Resp=N empties its block, whichever rules come after it
        {"T2": (FieldConstraint("Resp", ("Y", "N")), FieldConstraint("W", (Range(3, None),)),
                FieldConstraint("Ops", ("MNW", "M")))},
        {"T2": (FieldConstraint("DF", ("Y", "N")), FieldConstraint("Resp", ("N", "Y")))},
        # a Resp where the layout has no Resp slot, and a test the layout lacks
        {"TSeq": (FieldConstraint("Resp", ("Y", "N")), FieldConstraint("gcd", (Range(None, 5),)))},
        {"PU": (FieldConstraint("Resp", ("N", "Y")), FieldConstraint("TOS", (0, 0xC0)))},
        {"U1": (FieldConstraint("W", (Range(None, 5),)),), "T3": (FieldConstraint("W", (1, 2)),)},
        # numeric literals at the field's bound and at 0, drawn and fixed
        {"T1": (FieldConstraint("W", (0xFFFF, 0)),), "PU": (FieldConstraint("DF", ("Y",)),)},
        {"T1": (FieldConstraint("W", (0xFFFF,)),), "T4": (FieldConstraint("W", (0xFFFF, 1)),)},
        # W=5|>A: a Range among the choices, so its bounds hang on the pick and rows draw one by one
        {"T1": (FieldConstraint("W", (5, Range(10, None))), FieldConstraint("DF", ("Y", "N"))),
         "TSeq": (FieldConstraint("gcd", (Range(None, 5),)),)},
    ])
    def test_hand_built_rules(self, rules):
        db = [Signature("X", (), rules), Signature("Y", (), {"T1": (FieldConstraint("DF", ("N",)),)})]
        ds = generate_dataset(db, None, 40, "relevance", seed=3)
        assert ds.inputs.tobytes() == reference_rows(db, [20, 20], 3).tobytes()

    def test_one_row_a_signature(self):
        # a block of one row; int picks in one rule next to str picks; a per-row signature next to it
        db = [Signature("X", (), {"T1": (FieldConstraint("W", (0xFFFF, 0, 7)),
                                          FieldConstraint("DF", ("Y", "N")))}),
              Signature("Y", (), {"T1": (FieldConstraint("W", (5, Range(10, None))),)}),
              Signature("Z", (), {"TSeq": (FieldConstraint("SI", (Range(None, 5),)),)})]
        for seed in range(8):
            ds = generate_dataset(db, None, 3, "relevance", seed=seed)
            assert ds.inputs.tobytes() == reference_rows(db, [1, 1, 1], seed).tobytes()

    def test_a_bad_range_fails_before_it_is_drawn(self):
        # a rule that could pick an unsatisfiable Range is refused, even
        # though its other choice is drawable, before any plan is compiled
        plans = len(datagen._plans)
        with pytest.raises(ValueError, match=r"^field SI: no value in 0\.\.FFFFFF satisfies '5\|>A&<5'$"):
            FieldConstraint("SI", (5, Range(10, 5)))
        with pytest.raises(ParseError, match=r"^line 2: field SI: no value in 0\.\.FFFFFF satisfies '5\|>A&<5'$"):
            parse_fingerprint_db("Fingerprint X\nTSeq(SI=5|>A&<5)\n")
        assert len(datagen._plans) == plans


# Rules the parser never gives, built in code: each is refused when built,
# so no plan, draw or encoding meets one (the parser's message where it has one).
RANGE_RULE = "a Range bound is None or an int >= 0, and one bound is an int"
REFUSED = {
    "range in a text field": (lambda: FieldConstraint("DF", ("Y", Range(None, 5))),
                              "comparison in non-numeric field DF: 'Y|<5'"),
    "empty span": (lambda: FieldConstraint("SI", (5, Range(10, 5))),
                   "field SI: no value in 0..FFFFFF satisfies '5|>A&<5'"),
    "span past the bound": (lambda: FieldConstraint("W", (Range(0xFFFF, None),)),
                            "field W: no value in 0..FFFF satisfies '>FFFF'"),
    "literal past the bound": (lambda: FieldConstraint("W", (0xFFFF, 0x10000)),
                               "field W: no value in 0..FFFF satisfies 'FFFF|10000'"),
    "negative literal": (lambda: FieldConstraint("W", (-1, 1)),
                         "field W: no value in 0..FFFF satisfies '-1|1'"),
    "10**400": (lambda: FieldConstraint("W", (10**400,)),
                f"field W: no value in 0..FFFF satisfies '{10**400:X}'"),
    "bool": (lambda: FieldConstraint("TOS", (True,)), "field TOS: choice True is neither a Range nor an int"),
    "int in a text field": (lambda: FieldConstraint("DF", (1,)),
                            "field DF: choice 1 is neither a Range nor a str"),
    "text in a hex field": (lambda: FieldConstraint("W", ("A",)),
                            "field W: choice 'A' is neither a Range nor an int"),
    # a known field's rule without choices would accept any value, and raw text beside choices
    # would be lost on a round trip through format_signature
    "neither choices nor raw text": (lambda: FieldConstraint("DF", ()),
                                     "field DF: expected choices or raw text, got neither"),
    "choices and raw text": (lambda: FieldConstraint("DF", ("Y",), "Y|N"),
                             "field DF: expected choices or raw text, got both"),
    "Range(None, None)": (lambda: Range(None, None), f"{RANGE_RULE}: got Range(lo=None, hi=None)"),
    "negative Range bound": (lambda: Range(-1, 5), f"{RANGE_RULE}: got Range(lo=-1, hi=5)"),
    "bool Range bound": (lambda: Range(None, True), f"{RANGE_RULE}: got Range(lo=None, hi=True)"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_rule_no_parser_gives_is_refused_when_built(case):
    build, message = REFUSED[case]
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


# generate_dataset draws a signature's rows in one rng call unless a choice
# is a Range. numpy's integers with array bounds must take the stream as the
# scalar calls of _draw do, element by element in C order, or every dataset
# changes its bits: a numpy that draws otherwise fails here.

_LITERAL = st.sampled_from(["Y", "N", "S", "MNW"]) | st.integers(0, 0xFFFF)
_SPAN = st.sampled_from([1, 2, 3, 256, 2**16, 2**24 + 1, 2**31, 2**32 - 1, 2**32, 2**33]) | st.integers(1, 2**32)
_FIXED_DRAW = (st.lists(_LITERAL, min_size=2, max_size=6)
               | st.builds(lambda lo, n: [range(lo, lo + n)], st.integers(0, 2**32), _SPAN))


class TestBlockDraws:
    @settings(max_examples=300, deadline=None)
    @given(choices=st.lists(_FIXED_DRAW, max_size=8), count=st.integers(0, 12),
           seed=st.integers(0, 2**64 - 1))
    def test_one_block_is_the_stream_of_per_row_draws(self, choices, count, seed):
        draws = [("T1", "W", c) for c in choices]
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = datagen._rows(draws, rng, count)
        expected = [datagen._draw(draws, twin) for _ in range(count)]
        assert rows == expected
        assert [list(map(type, row)) for row in rows] == [list(map(type, row)) for row in expected]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.integers(2**63) == twin.integers(2**63)


class TestDrawnLiterals:
    def _warnings(self, caplog, text, total):
        with caplog.at_level(logging.WARNING, logger="neuralfp.encoding"):
            generate_dataset(parse_fingerprint_db(text), None, total, "relevance", seed=1)
        return [r.getMessage() for r in caplog.records if r.name == "neuralfp.encoding"]

    def test_an_unknown_literal_warns_once_per_signature_and_call(self, caplog):
        # fixed or drawn, each signature's unknown literal is encoded, and warned of, once a call
        text = ("Fingerprint A\nT1(ACK=Z)\nT2(ACK=Z|S|O)\n\n"
                "Fingerprint B\nT1(ACK=Z)\n")
        assert sorted(self._warnings(caplog, text, 40)) == [
            "unknown value T1.ACK=Z encoded as no known value",
            "unknown value T1.ACK=Z encoded as no known value",
            "unknown value T2.ACK=Z encoded as no known value"]

    def test_a_bad_outcome_literal_fails_when_it_is_drawn(self):
        sig = parse_fingerprint_db("Fingerprint X\nPU(UCK=Q|E)\n")[0]
        outcomes = set()
        for seed in range(12):
            drawn = sample_observation(sig, np.random.default_rng((seed, 0))).tests["PU"]["UCK"]
            outcomes.add(drawn)
            if drawn == "E":
                ds = generate_dataset([sig], None, 1, "relevance", seed=seed)
                assert ds.inputs.tobytes() == reference_rows([sig], [1], seed).tobytes()
                continue
            with pytest.raises(EncodeError, match=r"^PU.UCK outcome must be one of \['0', 'E', 'F'\], got 'Q'$"):
                generate_dataset([sig], None, 1, "relevance", seed=seed)
        assert outcomes == {"E", "Q"}

    def test_a_stage_of_zero_weight_is_named(self):
        db = parse_fingerprint_db(demo_database())
        prev = dict.fromkeys(RELEVANT_FAMILIES, 0.0)
        assert len(generate_dataset(db, prev, 20, "relevance", seed=0).labels) == 20
        with pytest.raises(GenerationError, match="^all signature weights of stage 'family' are zero$"):
            generate_dataset(db, prev, 20, "family", seed=0)
        with pytest.raises(GenerationError, match="^all signature weights of the db are zero$"):
            resolve_weights(db, {sig.name: 0.0 for sig in db})
