"""Normalization, correlation, column elimination, PCA."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import generate_dataset
from neuralfp.preprocess import (
    ReductionError,
    correlation_matrix,
    fit_normalizer,
    fit_pca,
    fit_pipeline,
    reduce_dependent_columns,
    reduction_report,
)
from neuralfp.signatures import parse_fingerprint_db


class TestNormalizer:
    def test_population_std_by_hand(self):
        X = np.array([[0.0, 2.0], [2.0, 2.0], [4.0, 2.0]])
        norm = fit_normalizer(X)
        assert norm.mean.tolist() == [2.0, 2.0]
        # population std of column 0 is sqrt(8/3); column 1 is constant
        assert norm.std[0] == pytest.approx(np.sqrt(8.0 / 3.0))
        assert norm.constant.tolist() == [False, True]
        Xn = norm.transform(X)
        expect = 2.0 / np.sqrt(8.0 / 3.0)  # = sqrt(1.5)
        assert Xn[:, 0] == pytest.approx([-expect, 0.0, expect])
        assert not Xn[:, 1].any()

    def test_requires_two_rows(self):
        with pytest.raises(ReductionError, match="2 rows"):
            fit_normalizer(np.ones((1, 4)))

    def test_epsilon_threshold(self):
        X = np.zeros((4, 1))
        X[:, 0] = 5.0
        X[0, 0] = 5.0 + 1e-12
        assert fit_normalizer(X).constant[0]


class TestCorrelation:
    def test_small_exact(self):
        X = np.array([[0.0, 2.0], [2.0, 2.0], [4.0, 2.0]])
        Xn = fit_normalizer(X).transform(X)
        R = correlation_matrix(Xn)
        assert R[0, 0] == pytest.approx(1.0)
        assert R[0, 1] == 0.0 and R[1, 1] == 0.0

    def test_independent_columns_nearly_uncorrelated(self):
        rng = np.random.default_rng(123)
        X = rng.uniform(-1.0, 1.0, size=(10000, 4))
        Xn = fit_normalizer(X).transform(X)
        R = correlation_matrix(Xn)
        assert np.allclose(np.diag(R), 1.0)
        off = R[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        Xn = fit_normalizer(rng.normal(size=(50, 6))).transform(rng.normal(size=(50, 6)))
        R = correlation_matrix(Xn)
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
        Xn = fit_normalizer(X).transform(X)
        return correlation_matrix(Xn)

    def test_duplicates_and_constants_dropped(self):
        assert reduce_dependent_columns(self.build()) == [0, 2]

    def test_first_witness_survives(self):
        # same data with the duplicate in front: the lower index wins
        R = self.build()
        perm = [1, 0, 2, 3, 4, 5]
        Rp = R[np.ix_(perm, perm)]
        assert reduce_dependent_columns(Rp) == [0, 2]

    def test_all_constant_rejected_by_pipeline(self):
        with pytest.raises(ReductionError, match="constant or dependent"):
            fit_pipeline(np.full((10, 3), 2.0))


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
        R = correlation_matrix(fit_normalizer(X).transform(X))
        assert reduce_dependent_columns(R) == one_vector_at_a_time(R)

    def test_same_kept_columns_on_a_sampled_corpus(self):
        db = parse_fingerprint_db(demo_database())
        X = generate_dataset(db, None, 600, stage="family", seed=3).inputs
        R = correlation_matrix(fit_normalizer(X).transform(X))
        assert reduce_dependent_columns(R) == one_vector_at_a_time(R)


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
        Xn = fit_normalizer(X).transform(X)
        return correlation_matrix(Xn)

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

    def test_apply_is_normalize_select_project_bit_for_bit(self):
        X = self.data()
        pipe = fit_pipeline(X)
        rows = np.vstack([X[:50], np.random.default_rng(3).normal(size=(50, X.shape[1]))])
        want = np.vecmat(pipe.normalizer.transform(rows).take(pipe.kept, axis=1), pipe.basis)
        assert np.array_equal(pipe.apply(rows), want)
        assert all(np.array_equal(pipe.apply(row), w) for row, w in zip(rows, want))

    @pytest.mark.parametrize("column", [2, 7, -1])
    def test_kept_column_must_be_a_non_constant_one(self, column):
        # column 2 is constant; 7 and -1 are not columns of the normalizer
        pipe = fit_pipeline(self.data())
        with pytest.raises(ReductionError, match="non-constant column of the normalizer"):
            dataclasses.replace(pipe, kept=(column,) + pipe.kept[1:])

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
