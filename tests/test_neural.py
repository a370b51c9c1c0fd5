"""Perceptron math, backprop against finite differences, training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp.neural import (
    Mlp,
    TrainConfig,
    TrainingDivergedError,
    backprop_generation,
    fitness_g,
    forward,
    init_mlp,
    loss_gradient,
    pair_error,
    train,
)


def fd_gradient(mlp, x, y, h=1e-5):
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


def gradient_deviation(net, x, y):
    worst = 0.0
    for A, B in zip(loss_gradient(net, x, y), fd_gradient(net, x, y)):
        scale = np.maximum(1e-3, np.maximum(np.abs(A), np.abs(B)))
        worst = max(worst, float(np.max(np.abs(A - B) / scale)))
    return worst


class TestPerceptron:
    def test_single_neuron_tanh(self):
        net = Mlp([np.array([[0.0, 1.0]])])
        assert forward(net, np.array([0.5]))[0] == pytest.approx(0.46211715726000974, abs=1e-15)

    def test_bias_subtracts(self):
        net = Mlp([np.array([[0.2, 0.0]])])
        assert forward(net, np.array([3.0]))[0] == pytest.approx(np.tanh(-0.2), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4),
           rows=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           fortran=st.booleans())
    def test_forward_batch_matches_forward(self, sizes, rows, seed, fortran):
        # each row of a batch gets exactly the bits it gets alone
        net = init_mlp(sizes, seed=seed)
        X = np.random.default_rng(seed).uniform(-3, 3, size=(rows, sizes[0]))
        batch = forward(net, np.asfortranarray(X) if fortran else X)
        assert batch.shape == (rows, sizes[-1])
        for i in range(rows):
            assert np.array_equal(batch[i], forward(net, X[i]))
        assert np.array_equal(forward(net, X[::2]), batch[::2])


class TestInit:
    def test_bounds_and_shapes(self):
        net = init_mlp([6, 5, 4], seed=7)
        assert [W.shape for W in net.weights] == [(5, 7), (4, 6)]
        for W, fan_in in zip(net.weights, (6, 5)):
            r = 1.0 / np.sqrt(fan_in + 1)
            assert np.max(np.abs(W)) <= r

    def test_deterministic(self):
        a, b = init_mlp([4, 3, 2], seed=5), init_mlp([4, 3, 2], seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        c = init_mlp([4, 3, 2], seed=6)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            init_mlp([4], seed=0)
        with pytest.raises(ValueError):
            init_mlp([4, 0, 2], seed=0)

    def test_sizes_property(self):
        assert init_mlp([6, 5, 4], seed=0).sizes == (6, 5, 4)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            sizes = [int(rng.integers(2, 7)), int(rng.integers(2, 6)), int(rng.integers(1, 5))]
            net = init_mlp(sizes, seed=trial)
            x = rng.uniform(-1.0, 1.0, sizes[0])
            y = rng.uniform(-1.0, 1.0, sizes[-1])
            assert gradient_deviation(net, x, y) < 1e-6

    def test_perfect_output_is_a_fixed_point(self):
        net = init_mlp([3, 4, 2], seed=9)
        x = np.array([0.3, -0.7, 0.1])
        y = forward(net, x).copy()
        before = [W.copy() for W in net.weights]
        mse, update = backprop_generation(net, x[None, :], y[None, :], 0.5, 0.9, None)
        assert mse == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))
        assert all(not u.any() for u in update)

    def test_momentum_carries_over(self):
        # zero deltas, nonzero previous update: weights move by mu * prev
        net = init_mlp([2, 2, 1], seed=3)
        x = np.array([0.2, 0.4])
        y = forward(net, x).copy()
        prev = [np.full_like(W, 0.01) for W in net.weights]
        before = [W.copy() for W in net.weights]
        _, update = backprop_generation(net, x[None, :], y[None, :], 0.5, 0.8, prev)
        for b, W, u in zip(before, net.weights, update):
            assert np.allclose(W - b, 0.008, atol=1e-15)
            assert np.allclose(u, 0.008, atol=1e-15)


class TestGenerationError:
    def test_error_taken_before_each_update(self):
        net = init_mlp([2, 3, 1], seed=4)
        clone = Mlp([W.copy() for W in net.weights])
        X = np.array([[0.5, -0.5], [0.1, 0.9]])
        Y = np.array([[1.0], [-1.0]])
        # manual replay: pair errors on the evolving weights
        e1 = pair_error(clone, X[0], Y[0])
        backprop_generation(clone, X[:1], Y[:1], 0.1, 0.0, None)
        e2 = pair_error(clone, X[1], Y[1])
        mse, _ = backprop_generation(net, X, Y, 0.1, 0.0, None)
        assert mse == pytest.approx((e1 + e2) / 2.0, abs=1e-15)


class TestTraining:
    def test_xor_learns(self):
        X = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        Y = np.array([[-1.0], [1.0], [1.0], [-1.0]])
        net = init_mlp([2, 4, 1], seed=0)
        hist = train(net, X, Y, TrainConfig(generations=2000, target_error=0.05, lam=0.1, momentum=0.9, seed=0))
        assert hist.last_mse() <= 0.05
        out = forward(net, X)
        assert np.array_equal(np.sign(out), Y)

    def test_lambda_trace_follows_error(self):
        X = np.random.default_rng(1).uniform(-1, 1, (30, 3))
        Y = np.sign(X[:, :1])
        net = init_mlp([3, 4, 1], seed=1)
        cfg = TrainConfig(generations=40, lam=0.05, seed=1)
        hist = train(net, X, Y, cfg)
        rows = hist.rows
        assert rows[0][2] == 0.05
        assert rows[1][2] == 0.05  # no predecessor to compare against
        for g in range(2, len(rows)):
            _, prev_mse, prev_lam, _ = rows[g - 1]
            _, before_mse, _, _ = rows[g - 2]
            want = (
                min(prev_lam * cfg.lam_up, cfg.lam_max)
                if prev_mse <= before_mse
                else max(prev_lam * cfg.lam_down, cfg.lam_min)
            )
            assert rows[g][2] == pytest.approx(want, rel=1e-12)

    def test_fixed_rate_two_spellings_agree(self):
        X = np.random.default_rng(2).uniform(-1, 1, (20, 2))
        Y = np.sign(X[:, :1] + X[:, 1:])
        a = init_mlp([2, 3, 1], seed=2)
        b = init_mlp([2, 3, 1], seed=2)
        train(a, X, Y, TrainConfig(generations=30, lam=0.02, adaptive=False, seed=5))
        train(b, X, Y, TrainConfig(generations=30, lam=0.02, lam_up=1.0, lam_down=1.0, seed=5))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_divergence_detected(self):
        X = np.random.default_rng(3).uniform(-1, 1, (20, 2))
        Y = np.sign(X[:, :1])
        net = init_mlp([2, 3, 1], seed=3)
        with pytest.raises(TrainingDivergedError):
            train(net, X, Y, TrainConfig(generations=200, lam=10.0, momentum=2.0, adaptive=False, seed=3))

    def test_target_error_stops_early(self):
        X = np.array([[0.5], [-0.5]])
        Y = np.array([[0.4], [-0.4]])
        net = init_mlp([1, 2, 1], seed=6)
        hist = train(net, X, Y, TrainConfig(generations=5000, target_error=0.01, lam=0.1, seed=6))
        assert hist.generations() < 5000
        assert hist.last_mse() <= 0.01

    def test_history_csv_shape(self):
        X = np.array([[0.5], [-0.5]])
        Y = np.array([[0.4], [-0.4]])
        net = init_mlp([1, 2, 1], seed=6)
        hist = train(net, X, Y, TrainConfig(generations=3, lam=0.1, seed=6))
        csv = hist.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "generation,mse,lambda,G"
        assert len(lines) == 4
        assert lines[1].startswith("1,") and lines[1].endswith(",")


class TestFitness:
    def test_binary_by_hand(self):
        # identity net: prediction is sign(x)
        net = Mlp([np.array([[0.0, 1.0]])])
        X = np.array([[2.0], [2.0], [-2.0], [-2.0], [2.0]])
        Y = np.array([[1.0], [-1.0], [1.0], [-1.0], [-1.0]])
        # fp rate 2/3, fn rate 1/2
        assert fitness_g(net, X, Y) == pytest.approx(1.0 - (2 / 3 + 1 / 2))

    def test_binary_perfect(self):
        net = Mlp([np.array([[0.0, 1.0]])])
        X = np.array([[3.0], [-3.0]])
        Y = np.array([[1.0], [-1.0]])
        assert fitness_g(net, X, Y) == 1.0

    def test_categorical_by_hand(self):
        net = Mlp([np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])])
        X = np.array([[2.0, -2.0], [-2.0, 2.0], [2.0, -2.0]])
        Y = np.array([[1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
        assert fitness_g(net, X, Y) == pytest.approx(2 / 3)


class TestSubsets:
    def data(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (40, 3))
        Y = np.sign(X[:, :1] - 0.1)
        return X, Y

    def test_single_subset_degenerates_to_train(self):
        X, Y = self.data()
        cfg = TrainConfig(generations=25, lam=0.05, seed=4, subset_size=len(X))
        a, b = init_mlp([3, 4, 1], seed=4), init_mlp([3, 4, 1], seed=4)
        ha = train(a, X, Y, TrainConfig(generations=25, lam=0.05, seed=4))
        hb = train(b, X, Y, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert [r[:3] for r in ha.rows] == [r[:3] for r in hb.rows]
        gs = [r[3] for r in hb.rows if r[3] is not None]
        assert len(gs) == 1

    def test_g_measured_per_subset_and_lambda_raised(self):
        X, Y = self.data()
        cfg = TrainConfig(generations=10, lam=0.02, seed=4, subset_size=20)
        net = init_mlp([3, 4, 1], seed=4)
        hist = train(net, X, Y, cfg)
        gs = [r[3] for r in hist.rows if r[3] is not None]
        assert len(gs) == 2
        # generation indices keep counting across subsets
        assert [r[0] for r in hist.rows] == list(range(1, 21))
        # a raise earned by the second subset would only reach a third one
        assert hist.rows[0][2] == 0.02
        assert hist.rows[10][2] == 0.02

    def test_lambda_raise_applies_to_later_subsets(self):
        X, Y = self.data()
        cfg = TrainConfig(generations=5, lam=0.02, seed=4, subset_size=10)
        net = init_mlp([3, 4, 1], seed=4)
        hist = train(net, X, Y, cfg)
        gs = [r[3] for r in hist.rows if r[3] is not None]
        assert len(gs) == 4
        lam0s = [hist.rows[i][2] for i in (0, 5, 10, 15)]
        expect = [cfg.lam]
        cur = cfg.lam
        for i in range(1, 4):
            if i >= 2 and gs[i - 1] > gs[i - 2]:
                cur = min(cur * cfg.lam_up, cfg.lam_max)
            expect.append(cur)
        assert lam0s == pytest.approx(expect)
