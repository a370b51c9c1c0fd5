"""Normalization, correlation, column elimination, PCA."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import generate_dataset
from neuralfp.hierarchy import HierarchyConfig, train_hierarchy
from neuralfp.persistence import FORMAT_VERSION, _canonical, _decoder, _encode
from neuralfp.preprocess import (
    EPSILON_CONST,
    VARIANCE_TARGET,
    ReductionError,
    ReductionPipeline,
    correlation_matrix,
    fit_pca,
    fit_pipeline,
    normalize,
    reduce_dependent_columns,
    reduction_report,
)
from neuralfp.signatures import parse_fingerprint_db


def full_width_normalize(X):
    """Every column normalized, the constant ones pinned to 0: the reference
    the fit over distinct varying columns must reproduce."""
    mean, std = X.mean(axis=0), X.std(axis=0)
    constant = std < EPSILON_CONST
    Xn = (X - mean) / np.where(constant, 1.0, std)
    Xn[:, constant] = 0.0
    return mean, std, Xn


def full_width_correlation(X):
    """R over every column, a constant one's row and column all zero."""
    Xn = full_width_normalize(X)[2]
    R = Xn.T @ Xn / Xn.shape[0]
    return (R + R.T) / 2.0


def full_width_fit(X, variance=VARIANCE_TARGET):
    """The fit that normalizes every column, walks the full-width R and
    diagonalizes it."""
    mean, std, _ = full_width_normalize(X)
    R = full_width_correlation(X)
    kept = reduce_dependent_columns(R)
    if not kept:
        raise ReductionError("every column is constant or dependent")
    basis, eigenvalues, share = fit_pca(R[np.ix_(kept, kept)], variance)
    return ReductionPipeline(X.shape[1], tuple(kept), mean[kept], std[kept], np.ascontiguousarray(basis),
                             eigenvalues, share)


def fitted(fit, X):
    """A fit's fields in order, each array as its shape and bytes, or the
    message of the ReductionError it raised, alone in the list."""
    try:
        pipe = fit(X)
    except ReductionError as exc:
        return [str(exc)]
    values = (getattr(pipe, f.name) for f in dataclasses.fields(pipe))
    return [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values]


class TestNormalizer:
    def test_population_std_by_hand(self):
        X = np.array([[0.0, 2.0], [2.0, 2.0], [4.0, 2.0]])
        mean, std, columns, Xn = normalize(X)
        assert mean.tolist() == [2.0, 2.0]
        # population std of column 0 is sqrt(8/3); column 1 is constant
        assert std.tolist() == [pytest.approx(np.sqrt(8.0 / 3.0)), 0.0]
        expect = 2.0 / np.sqrt(8.0 / 3.0)  # = sqrt(1.5)
        # the constant column has no witness, so only column 0 is normalized
        assert columns == [0] and Xn.shape == (3, 1)
        assert Xn[:, 0] == pytest.approx([-expect, 0.0, expect])
        assert np.array_equal(Xn, full_width_normalize(X)[2][:, columns])

    def test_requires_two_rows(self):
        with pytest.raises(ReductionError, match="2 rows"):
            normalize(np.ones((1, 4)))

    @pytest.mark.parametrize("shape", [(20,), (4, 3, 2), ()])
    def test_not_a_matrix_is_named(self, shape):
        for fit in (normalize, fit_pipeline):
            with pytest.raises(ReductionError, match=re.escape(f"needs a 2-D array of at least 2 rows, "
                                                               f"got shape {shape}")):
                fit(np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_named(self, value, recwarn):
        X = np.random.default_rng(4).normal(size=(30, 6))
        X[17, 4] = value
        for fit in (normalize, fit_pipeline):
            with pytest.raises(ReductionError, match=f"needs finite values, row 17 column 4 is {value}"):
                fit(X)
        # refused before any arithmetic: no overflow or invalid-value warning
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_epsilon_threshold(self):
        X = np.zeros((4, 1))
        X[:, 0] = 5.0
        X[0, 0] = 5.0 + 1e-12
        _, std, columns, Xn = normalize(X)
        # a std above 0 but below EPSILON_CONST still counts as constant:
        # the column has no witness, as the full-width fit pins it to 0
        assert 0 < std[0] < EPSILON_CONST
        assert columns == [] and Xn.shape == (4, 0)
        assert not full_width_normalize(X)[2].any()

    def test_first_witness_of_each_distinct_varying_column(self):
        a, b = np.arange(6.0), np.arange(6.0) ** 2
        X = np.column_stack([np.ones(6), b, a, b, np.ones(6), a, 2.0 * a])
        mean, std, columns, Xn = normalize(X)
        # constants 0 and 4 have no witness, copies 3 and 5 are witnessed by 1
        # and 2, and the affine copy 6 has bytes of its own
        assert columns == [1, 2, 6]
        assert np.array_equal(Xn, full_width_normalize(X)[2][:, columns])

    def test_a_zero_of_another_sign_is_another_column(self):
        # equal values, unequal bytes: both are witnesses, and the walk drops
        # the second, as at full width
        a = np.array([0.0, 1.0, 3.0, 2.0])
        X = np.column_stack([a, np.r_[-0.0, a[1:]], a + 1.0])
        assert normalize(X)[2] == [0, 1, 2]
        assert fit_pipeline(X).kept == full_width_fit(X).kept == (0,)


class TestCorrelation:
    def test_small_exact(self):
        X = np.array([[0.0, 2.0], [2.0, 2.0], [4.0, 2.0]])
        _, _, columns, Xn = normalize(X)
        R = correlation_matrix(Xn)
        # the constant column 1 is not a witness: its full-width row and
        # column are zero, and R has neither
        assert R.shape == (1, 1) and R[0, 0] == pytest.approx(1.0)
        full = full_width_correlation(X)
        assert full[0, 1] == 0.0 and full[1, 1] == 0.0
        assert np.array_equal(R, full[np.ix_(columns, columns)])

    def test_independent_columns_nearly_uncorrelated(self):
        rng = np.random.default_rng(123)
        X = rng.uniform(-1.0, 1.0, size=(10000, 4))
        R = correlation_matrix(normalize(X)[3])
        assert R.shape == (4, 4) and np.allclose(np.diag(R), 1.0)
        off = R[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        R = correlation_matrix(normalize(rng.normal(size=(50, 6)))[3])
        assert np.array_equal(R, R.T)


class TestColumnElimination:
    def build(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        X = np.column_stack([
            a,                  # 0: kept
            2.0 * a + 1.0,      # 1: affine copy, dropped
            b,                  # 2: kept
            -a,                 # 3: negated copy, dropped
            np.full(200, 7.0),  # 4: constant, dropped
            a + b,              # 5: linear combination, dropped
        ])
        return full_width_correlation(X)

    def test_duplicates_and_constants_dropped(self):
        assert reduce_dependent_columns(self.build()) == [0, 2]

    def test_first_witness_survives(self):
        # same data with the duplicate in front: the lower index wins
        R = self.build()
        perm = [1, 0, 2, 3, 4, 5]
        Rp = R[np.ix_(perm, perm)]
        assert reduce_dependent_columns(Rp) == [0, 2]

    def test_all_constant_rejected_by_pipeline(self):
        for width in (3, 8):  # no witness at all, at a padded width and at another
            with pytest.raises(ReductionError) as info:
                fit_pipeline(np.tile(np.arange(width, dtype=float), (10, 1)))
            assert str(info.value) == "every column is constant or dependent"


def one_vector_at_a_time(R, tol=1e-6):
    """The column-by-column Gram-Schmidt rank test, kept as an oracle."""
    kept, basis = [], []
    for j in range(R.shape[0]):
        r = R[:, j].copy()
        for _ in range(2):
            for q in basis:
                r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm > tol:
            kept.append(j)
            basis.append(r / norm)
    return kept


# how a planted column derives from the earlier ones
_PLANTS = st.sampled_from(["fresh", "duplicate", "affine", "negation", "combination", "constant"])


@st.composite
def planted_columns(draw):
    """Rows of fresh normal columns mixed with columns planted dependent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(30, 80))

    def scale():
        return draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))

    columns = []
    for kind in draw(st.lists(_PLANTS, min_size=1, max_size=24)):
        earlier = [c for c in columns if c.std() > 0]
        if kind == "constant":
            columns.append(np.full(n, draw(st.floats(-5.0, 5.0))))
        elif kind == "fresh" or not earlier:
            columns.append(rng.normal(size=n))
        else:
            a, b = (earlier[draw(st.integers(0, len(earlier) - 1))] for _ in range(2))
            columns.append({
                "duplicate": lambda: a.copy(),
                "affine": lambda: scale() * a + draw(st.floats(-5.0, 5.0)),
                "negation": lambda: -a,
                "combination": lambda: scale() * a + scale() * b,
            }[kind]())
    return np.column_stack(columns)


class TestRankTestEquivalence:
    @settings(max_examples=60)
    @given(X=planted_columns())
    def test_same_kept_columns_as_the_one_vector_loop(self, X):
        for R in (full_width_correlation(X), correlation_matrix(normalize(X)[3])):
            assert reduce_dependent_columns(R) == one_vector_at_a_time(R)

    @settings(max_examples=60)
    @given(X=planted_columns(), data=st.data())
    def test_same_kept_columns_amid_many_constant_columns(self, X, data):
        # a version stage's slice: a few varying columns among hundreds of
        # constant ones, whose all-zero R-columns the walk never keeps
        width = X.shape[1] + data.draw(st.integers(50, 300))
        at = sorted(data.draw(st.lists(st.integers(0, width - 1), min_size=X.shape[1],
                                       max_size=X.shape[1], unique=True)))
        padded = np.tile(data.draw(st.floats(-5.0, 5.0)), (X.shape[0], width))
        padded[:, at] = X
        R = full_width_correlation(padded)
        kept = reduce_dependent_columns(R)
        assert kept == one_vector_at_a_time(R)
        assert kept == [at[i] for i in reduce_dependent_columns(full_width_correlation(X))]

    @pytest.mark.parametrize("bad, kept", [(np.nan, [2, 3]), (np.inf, [0])])
    def test_zero_column_after_a_non_finite_column(self, bad, kept, recwarn):
        # a NaN R-column is never kept; an inf one is, and writes NaN into Q,
        # after which no column is; the zero column after either is dropped,
        # as the one-vector loop drops it
        R = np.eye(4)
        R[:, 0] = [bad, 0.0, 0.0, 0.0]
        R[:, 1] = 0.0
        assert reduce_dependent_columns(R) == one_vector_at_a_time(R) == kept

    def test_same_kept_columns_on_a_sampled_corpus(self):
        db = parse_fingerprint_db(demo_database())
        X = generate_dataset(db, None, 600, stage="family", seed=3).inputs
        for R in (full_width_correlation(X), correlation_matrix(normalize(X)[3])):
            assert reduce_dependent_columns(R) == one_vector_at_a_time(R)


@st.composite
def scattered_columns(draw, multiple_of_8):
    """planted_columns() at random positions of a wider matrix, the other
    positions constant or exact copies of an earlier column."""
    X = draw(planted_columns())
    n, k = X.shape
    if multiple_of_8:
        width = 8 * draw(st.integers(-(-(k + 1) // 8), 8))
    else:
        width = draw(st.integers(k + 1, 64).filter(lambda w: w % 8))
    at = set(draw(st.lists(st.integers(0, width - 1), min_size=k, max_size=k, unique=True)))
    planted = iter(X.T)
    out = np.empty((n, width))
    for j in range(width):
        if j in at:
            out[:, j] = next(planted)
        elif j and draw(st.booleans()):
            out[:, j] = out[:, draw(st.integers(0, j - 1))]
        else:
            out[:, j] = draw(st.floats(-5.0, 5.0))
    return out


class TestDistinctVaryingColumns:
    """The fit over the first witness of each distinct varying column against
    the fit that normalizes every column and builds the full-width R."""

    @settings(max_examples=80, deadline=None)
    @given(X=scattered_columns(multiple_of_8=True))
    def test_same_fit_bit_for_bit_at_a_width_that_is_a_multiple_of_8(self, X):
        assert fitted(fit_pipeline, X) == fitted(full_width_fit, X)

    @settings(max_examples=40, deadline=None)
    @given(X=scattered_columns(multiple_of_8=False))
    def test_same_kept_columns_at_any_width(self, X):
        # elsewhere R's entries may round otherwise, but the walk decides alike:
        # the same width and kept columns, or the same error
        got, want = fitted(fit_pipeline, X), fitted(full_width_fit, X)
        assert got[:2] == want[:2]

    def test_one_copied_column_keeps_its_lowest_index(self):
        a = np.random.default_rng(8).normal(size=20)
        X = np.column_stack([np.full(20, 3.0), a, a, np.zeros(20), a, a])
        assert normalize(X)[2] == [1]
        assert fit_pipeline(X).kept == full_width_fit(X).kept == (1,)


# The bench corpus recipes (relevance, seed 42) and the sha256 of the fitted
# kept columns (int64), PCA basis and eigenvalues, recorded with the
# one-vector-at-a-time rank test.  The basis and spectrum come from LAPACK,
# so these two digests hold for one BLAS build (OpenBLAS 0.3.31).
_PIPELINE_RECIPES = {
    "demo": (demo_database(), 1000,
             "110e58207bc1b4494a004df05c79ea8cdd5cbf90ee10b71bd0ad35f91ed307b8",
             "0357788b5e225648b34270f53b1817787f638a1732eade340ebb3cf4acae522e",
             "810fa8dce98c8d03cd474a2b67aa66b9feb34cab6fa620801aa690521c77a646"),
    "demo+large": (demo_database() + "\n" + large_database(220), 1500,
                   "aa9dc23ec458b424541f1627e6e4e2ac35825eb8adc9a148036891bcb4f72c4d",
                   "ae120546413c78f43dbaa58092cc3f6d8407166e094f4e5808228ac8d5e7fb96",
                   "53a19fa985aa6191bd07ad90b84848526b52fc1441a073250bff73cd7e1f6b0c"),
}


class TestGoldenPipeline:
    @pytest.mark.parametrize("recipe", list(_PIPELINE_RECIPES))
    def test_bench_corpus_pipeline_digest(self, recipe):
        text, total, kept_sha, basis_sha, eigen_sha = _PIPELINE_RECIPES[recipe]
        ds = generate_dataset(parse_fingerprint_db(text), None, total, stage="relevance", seed=42)
        pipe = fit_pipeline(ds.inputs)
        digest = [hashlib.sha256(a.tobytes()).hexdigest()
                  for a in (np.asarray(pipe.kept, dtype=np.int64), pipe.basis, pipe.eigenvalues)]
        assert digest == [kept_sha, basis_sha, eigen_sha]


def stage_pipelines_digest(text, total):
    """sha256 over every stage pipeline of a hierarchy trained on the bench
    recipe's relevance corpus (seed 42, HierarchyConfig seed 7): each stage's
    name, kept columns (int64), center, scale, basis and eigenvalues.  One
    generation is enough, since a stage fits its pipeline before its net."""
    db = parse_fingerprint_db(text)
    ds = generate_dataset(db, None, total, stage="relevance", seed=42)
    model = train_hierarchy(db, cfg=HierarchyConfig(seed=7, generations=1), corpus=(ds.inputs, ds.labels))
    h = hashlib.sha256()
    for name, stage in [("relevance", model.relevance), ("family", model.family),
                        *sorted(model.versions.items())]:
        p = stage.pipeline
        h.update(name.encode())
        for a in (np.asarray(p.kept, dtype=np.int64), p.center, p.scale, p.basis, p.eigenvalues):
            h.update(a.tobytes())
    return h.hexdigest()


class TestGoldenStagePipelines:
    """Every stage of the bench `train` and `corpus` recipes, recorded with the
    rank test that visited every column of the full-width R.  The version
    stages vary in 5 to 28 of their 568 columns, so these pin the fit over
    the distinct varying ones alone.  Same BLAS caveat as TestGoldenPipeline."""

    @pytest.mark.parametrize("recipe, digest", [
        ("demo", "7c1591a791dbcb17080864d53d81d352ed230907cdf57a7105ff46330c706e35"),
        ("demo+large", "413e1431fac0151a34cc2a2bd8add2ac601b52ef6659206802d7b27d8450cccb"),
    ])
    def test_stage_pipelines_digest(self, recipe, digest):
        text, total = _PIPELINE_RECIPES[recipe][:2]
        assert stage_pipelines_digest(text, total) == digest


class TestPca:
    def corr(self, n=4000, seed=11):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, 3))
        X = np.column_stack([
            z[:, 0],
            z[:, 0] + 0.05 * z[:, 1],
            z[:, 1],
            z[:, 2],
            0.5 * z[:, 2] + 0.1 * z[:, 0],
        ])
        return correlation_matrix(normalize(X)[3])

    def test_orthonormal_basis_descending_spectrum(self):
        basis, w, kept_share = fit_pca(self.corr(), variance=0.98)
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert np.all(np.diff(w) <= 1e-12)
        assert kept_share >= 0.98

    def test_smallest_sufficient_prefix(self):
        R = self.corr()
        basis, w, share = fit_pca(R, variance=0.98)
        k = basis.shape[1]
        total = w.sum()
        assert np.cumsum(w)[k - 1] / total >= 0.98
        if k > 1:
            assert np.cumsum(w)[k - 2] / total < 0.98

    @pytest.mark.parametrize("variance", [0.0, -0.5, 1.5, float("nan")])
    def test_variance_share_outside_unit_interval_is_rejected(self, variance):
        with pytest.raises(ReductionError, match="not in"):
            fit_pca(self.corr(), variance=variance)

    def test_whole_variance_is_accepted(self):
        _, _, share = fit_pca(self.corr(), variance=1.0)
        assert share == pytest.approx(1.0, abs=1e-12)

    def test_component_variances_match_eigenvalues(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(4000, 3))
        X = np.column_stack([z[:, 0], z[:, 0] + 0.05 * z[:, 1], z[:, 1], z[:, 2]])
        pipe = fit_pipeline(X, variance=0.999)
        Y = pipe.apply(X)
        got = Y.var(axis=0)
        assert got == pytest.approx(pipe.eigenvalues[: Y.shape[1]], rel=1e-6)


def _saved(pipe) -> dict:
    """The body a saved model holds for a stage's pipeline."""
    return json.loads(_canonical(_encode(pipe)))


def _reloaded(pipe) -> ReductionPipeline:
    return _decoder(ReductionPipeline, FORMAT_VERSION)(_saved(pipe), "pipeline")


class TestPipeline:
    def data(self):
        # two tightly correlated pairs, one constant, one exact duplicate,
        # one independent straggler
        rng = np.random.default_rng(29)
        z = rng.normal(size=(500, 5))
        X = np.column_stack([
            z[:, 0],
            z[:, 0] + 0.15 * z[:, 1],
            np.full(500, 3.0),
            z[:, 2],
            z[:, 2] + 0.15 * z[:, 3],
            2.0 * z[:, 2],
            z[:, 4],
        ])
        return X

    def test_centroid_maps_to_zero(self):
        X = self.data()
        pipe = fit_pipeline(X)
        assert pipe.apply(X.mean(axis=0)) == pytest.approx(np.zeros(pipe.output_dim), abs=1e-12)

    def test_affine_linearity(self):
        X = self.data()
        pipe = fit_pipeline(X)
        mu = X.mean(axis=0)
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=X.shape[1]), rng.normal(size=X.shape[1])
        lhs = pipe.apply(mu + a + b)
        rhs = pipe.apply(mu + a) + pipe.apply(mu + b)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_projection_width_and_batch_shape(self):
        X = self.data()
        pipe = fit_pipeline(X)
        assert pipe.output_dim < len(pipe.kept) <= X.shape[1]
        out = pipe.apply(X[:7])
        assert out.shape == (7, pipe.output_dim)
        assert pipe.apply(X[0]).shape == (pipe.output_dim,)

    @settings(max_examples=60, deadline=None)
    @given(X=planted_columns())
    def test_apply_is_normalize_select_project_bit_for_bit(self, X):
        assume((X.std(axis=0) >= EPSILON_CONST).any())
        pipe = fit_pipeline(X)
        rows = np.vstack([X, np.random.default_rng(3).normal(size=X.shape)])
        # the full-width reference: normalize every column, pin the constant
        # ones to 0, then take the kept columns and project them
        mean, std = X.mean(axis=0), X.std(axis=0)
        constant = std < EPSILON_CONST
        Xn = (rows - mean) / np.where(constant, 1.0, std)
        Xn[:, constant] = 0.0
        want = np.vecmat(Xn.take(pipe.kept, axis=1), pipe.basis)
        for p in (pipe, _reloaded(pipe)):
            assert np.array_equal(p.apply(rows), want)
            assert all(np.array_equal(p.apply(row), w) for row, w in zip(rows, want))

    @pytest.mark.parametrize("column", [2, 7, -1])
    def test_kept_column_must_be_a_non_constant_one(self, column):
        # column 2 is constant, so the scale it would keep is 0; 7 and -1 are
        # not columns of the 7-wide rows
        X = self.data()
        pipe = fit_pipeline(X)
        scale = X.std(axis=0)[column] if column == 2 else 1.0
        with pytest.raises(ReductionError, match="must be one of the 7 input columns, with a finite "
                                                 "center, a finite scale > 0 and one basis row"):
            dataclasses.replace(pipe, kept=(column,) + pipe.kept[1:], scale=np.r_[scale, pipe.scale[1:]])

    @pytest.mark.parametrize("field, value", [
        ("center", lambda p: p.center[:-1]),
        ("scale", lambda p: np.r_[p.scale, 1.0]),
        ("scale", lambda p: np.r_[-p.scale[0], p.scale[1:]]),
        ("scale", lambda p: np.r_[np.nan, p.scale[1:]]),
        ("scale", lambda p: np.r_[np.inf, p.scale[1:]]),
        ("center", lambda p: np.r_[np.nan, p.center[1:]]),
        ("basis", lambda p: p.basis[:-1]),
        ("basis", lambda p: p.basis[:, 0]),
    ])
    def test_center_scale_and_basis_must_fit_the_kept_columns(self, field, value):
        pipe = fit_pipeline(self.data())
        with pytest.raises(ReductionError, match="a finite center, a finite scale > 0 and one basis row"):
            dataclasses.replace(pipe, **{field: value(pipe)})

    def test_take_index_is_the_kept_columns_and_is_not_saved(self):
        pipe = fit_pipeline(self.data())
        assert pipe._columns.dtype == np.intp and pipe._columns.tolist() == list(pipe.kept)
        assert isinstance(pipe.kept, tuple)
        assert set(_saved(pipe)) == {
            f.name for f in dataclasses.fields(pipe)}

    def test_deterministic_refit(self):
        X = self.data()
        p1, p2 = fit_pipeline(X), fit_pipeline(X)
        assert p1.kept == p2.kept
        assert np.array_equal(p1.basis, p2.basis)

    def test_report_mentions_counts_and_labels(self):
        X = self.data()
        pipe = fit_pipeline(X)
        labels = [f"feat {i}" for i in range(X.shape[1])]
        report = reduction_report(pipe, labels)
        assert f"columns kept {len(pipe.kept)} of 7" in report
        assert "feat 0" in report
