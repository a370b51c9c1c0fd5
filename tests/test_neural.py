"""Perceptron math, backprop against finite differences, training loop."""

import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfp import neural
from neuralfp.neural import (
    Mlp,
    TrainConfig,
    TrainingDivergedError,
    _Workspace,
    backprop_generation,
    fitness_g,
    forward,
    init_mlp,
    loss_gradient,
    train,
)
from neuralfp.persistence import decode_config


def one_pair_at_a_time(mlp, inputs, targets, lam, momentum, prev_update=None):
    """The reference online backprop: every intermediate a fresh array.

    backprop_generation must give the same bits: same weights, same
    momentum state, same generation error.
    """
    if prev_update is None:
        prev_update = [np.zeros_like(W) for W in mlp.weights]
    total = 0.0
    n_out = targets.shape[1]
    for x, y in zip(inputs, targets):
        acts = [np.ascontiguousarray(x, dtype=float)]
        for W in mlp.weights:
            acts.append(np.tanh(np.matvec(W[:, 1:], acts[-1]) - W[:, 0]))
        err = y - acts[-1]
        total += float(err @ err) / n_out
        # output layer: f'(v)(y - v); hidden: f'(v) * backpropagated sum
        deltas = [None] * len(mlp.weights)
        out = acts[-1]
        deltas[-1] = (1.0 - out * out) * (y - out)
        for l in range(len(mlp.weights) - 2, -1, -1):
            v = acts[l + 1]
            deltas[l] = (1.0 - v * v) * (mlp.weights[l + 1][:, 1:].T @ deltas[l + 1])
        for l, delta in enumerate(deltas):
            upd = prev_update[l]
            upd *= momentum
            upd[:, 0] -= lam * delta
            upd[:, 1:] += lam * (delta[:, None] * acts[l])
            mlp.weights[l] += upd
    return total / len(inputs), prev_update


def same_bits(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def make_case(sizes, rows, rng):
    """A net of the given (inputs, hidden, outputs) and rows pairs for it."""
    X = rng.uniform(-3, 3, size=(rows, sizes[0]))
    Y = np.where(rng.random((rows, sizes[-1])) < 0.5, -1.0, 1.0)
    return init_mlp(sizes, seed=int(rng.integers(2**32))), X, Y, rng


# (inputs, hidden, outputs) of each net that the bench `train` recipe
# trains: the criterion-6 stages, (k, hidden, outputs), and the Windows
# refiner; test_hierarchy.TestGolden reads them back from the trained model
TRAINED_SHAPES = {"relevance": (17, 20, 1), "family": (13, 20, 6), "Linux": (5, 18, 4),
                  "Solaris": (4, 7, 5), "OpenBSD": (4, 4, 3), "FreeBSD": (4, 8, 2),
                  "NetBSD": (3, 8, 2), "windows": (118, 24, 25)}


@st.composite
def nets_and_pairs(draw):
    """A net of (inputs, hidden, outputs), each 1-30, and 1-60 pairs for it."""
    sizes = draw(st.tuples(*[st.integers(1, 30)] * 3))
    rows = draw(st.integers(1, 60))
    return make_case(sizes, rows, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


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
        # one neuron per layer, unit weight, no bias: tanh(tanh(0.5))
        net = Mlp([np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]])])
        assert forward(net, np.array([0.5]))[0] == pytest.approx(0.4318081805950961, abs=1e-15)

    def test_bias_subtracts(self):
        # the hidden neuron ignores its input; each layer subtracts its bias
        net = Mlp([np.array([[0.2, 0.0]]), np.array([[0.3, 1.0]])])
        assert forward(net, np.array([3.0]))[0] == pytest.approx(np.tanh(np.tanh(-0.2) - 0.3), abs=1e-15)

    @settings(max_examples=60)
    @given(sizes=st.tuples(*[st.integers(1, 40)] * 3),
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
        # (inputs, hidden, outputs) only: no other depth, no empty layer
        for sizes in ([4], [4, 2], [4, 3, 2, 1], [4, 0, 2]):
            want = f"expected (inputs, hidden, outputs) sizes >= 1, got {sizes!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                init_mlp(sizes, seed=0)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            init_mlp([4, 3, 2], seed=-1)

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


class TestKernelAgainstOracle:
    """The buffered per-pair kernel against the allocate-everything loop."""

    @settings(max_examples=150)
    @given(case=nets_and_pairs(), lam=st.floats(0.001, 1.0), momentum=st.floats(0.0, 0.99),
           carried=st.booleans())
    def test_generation_is_bit_identical(self, case, lam, momentum, carried):
        net, X, Y, rng = case
        twin = Mlp([W.copy() for W in net.weights])
        prev = [rng.uniform(-0.1, 0.1, W.shape) for W in net.weights]

        def carry():
            return [u.copy() for u in prev] if carried else None

        with np.errstate(over="ignore", invalid="ignore"):
            mse, update = backprop_generation(net, X, Y, lam, momentum, carry())
            want_mse, want_update = one_pair_at_a_time(twin, X, Y, lam, momentum, carry())
        assert np.float64(mse).tobytes() == np.float64(want_mse).tobytes()
        assert same_bits(net.weights, twin.weights)
        assert same_bits(update, want_update)

    @settings(max_examples=40)
    @given(case=nets_and_pairs(), lam=st.floats(0.001, 0.5))
    def test_train_is_bit_identical(self, case, lam):
        net, X, Y, _ = case
        twin = Mlp([W.copy() for W in net.weights])
        cfg = TrainConfig(generations=4, lam=lam, seed=3)

        def run(mlp):
            try:
                return train(mlp, X, Y, cfg).rows
            except TrainingDivergedError as exc:
                return exc.generation

        got = run(net)
        with mock.patch.object(neural, "backprop_generation", one_pair_at_a_time):
            want = run(twin)
        assert repr(got) == repr(want)
        assert same_bits(net.weights, twin.weights)

    @pytest.mark.parametrize("name", list(TRAINED_SHAPES))
    def test_trained_shapes_are_bit_identical(self, name):
        # two generations, the second carrying the first's momentum
        net, X, Y, _ = make_case(TRAINED_SHAPES[name], 60, np.random.default_rng(TRAINED_SHAPES[name]))
        twin = Mlp([W.copy() for W in net.weights])
        got = want = None
        for lam in (0.05, 0.0525):
            mse, got = backprop_generation(net, X, Y, lam, 0.8, got)
            want_mse, want = one_pair_at_a_time(twin, X, Y, lam, 0.8, want)
            assert np.float64(mse).tobytes() == np.float64(want_mse).tobytes()
            assert same_bits(net.weights, twin.weights)
            assert same_bits(got, want)

    @settings(max_examples=60)
    @given(case=nets_and_pairs())
    def test_workspace_forward_is_forward(self, case):
        net, X, Y, _ = case
        ws = _Workspace(net, net.weights)
        for x, xe, y in zip(X, neural._extended(X), Y):
            ws.pair(xe, y, np.empty(len(y)))
            assert ws.out.tobytes() == forward(net, x).tobytes()


class TestGenerationError:
    def test_error_taken_before_each_update(self):
        net = init_mlp([2, 3, 1], seed=4)
        clone = Mlp([W.copy() for W in net.weights])
        X = np.array([[0.5, -0.5], [0.1, 0.9]])
        Y = np.array([[1.0], [-1.0]])
        def pair_error(x, y):
            e = y - forward(clone, x)
            return float(e @ e) / len(e)

        # manual replay: pair errors on the evolving weights
        e1 = pair_error(X[0], Y[0])
        backprop_generation(clone, X[:1], Y[:1], 0.1, 0.0, None)
        e2 = pair_error(X[1], Y[1])
        mse, _ = backprop_generation(net, X, Y, 0.1, 0.0, None)
        assert mse == pytest.approx((e1 + e2) / 2.0, abs=1e-15)


class TestTraining:
    def test_zero_rows_are_refused(self):
        net = init_mlp([3, 2, 1], seed=0)
        with pytest.raises(ValueError, match="^no training pairs$"):
            train(net, np.zeros((0, 3)), np.zeros((0, 1)), TrainConfig(generations=5))
        assert net.history is None

    def test_xor_learns(self):
        X = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        Y = np.array([[-1.0], [1.0], [1.0], [-1.0]])
        net = init_mlp([2, 4, 1], seed=0)
        hist = train(net, X, Y, TrainConfig(generations=2000, target_error=0.05, lam=0.1, momentum=0.9, seed=0))
        assert hist.rows[-1][1] <= 0.05
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
                min(prev_lam * neural.LAM_UP, neural.LAM_MAX)
                if prev_mse <= before_mse
                else max(prev_lam * neural.LAM_DOWN, neural.LAM_MIN)
            )
            assert rows[g][2] == pytest.approx(want, rel=1e-12)

    def test_divergence_detected(self):
        X = np.random.default_rng(3).uniform(-1, 1, (20, 2))
        Y = np.sign(X[:, :1])
        net = init_mlp([2, 3, 1], seed=3)
        with pytest.raises(TrainingDivergedError):
            train(net, X, Y, TrainConfig(generations=200, lam=10.0, momentum=2.0, adaptive=False, seed=3))

    @pytest.mark.parametrize("bad", [{"generations": 0}, {"generations": -3}, {"lam": 0.0},
                                     {"lam": float("nan")}, {"generations": float("nan")},
                                     {"patience": float("nan")}, {"seed": -1}, {"patience": 0},
                                     {"patience": -2}, {"target_error": float("nan")},
                                     {"momentum": float("inf")}, {"momentum": -2}, {"lam": -0.5},
                                     {"target_error": -0.1}, {"lam": float("inf")},
                                     {"momentum": float("nan")}, {"target_error": float("inf")},
                                     {"lam": float("-inf")}, {"seed": -7}, {"generations": -1},
                                     {"momentum": float("-inf")}])
    def test_out_of_range_config_is_a_value_error(self, bad):
        # refused as it is built, so no run starts on it
        (key, value), = bad.items()
        with pytest.raises(ValueError, match=f"^training needs .*, got {key}={value!r}$"):
            TrainConfig(**bad)

    def test_a_second_train_records_a_fresh_curve(self):
        X = np.array([[0.5], [-0.5]])
        Y = np.array([[0.4], [-0.4]])
        net = init_mlp([1, 2, 1], seed=6)
        first = train(net, X, Y, TrainConfig(generations=3, lam=0.1, seed=6))
        assert first.rows[-1][2] != 0.1  # the adaptive rate moved
        hist = train(net, X, Y, TrainConfig(generations=2, lam=0.05, seed=6))
        assert net.history is hist and hist is not first
        assert [row[0] for row in hist.rows] == [1, 2]
        assert hist.rows[0][2] == 0.05

    def test_target_error_stops_early(self):
        X = np.array([[0.5], [-0.5]])
        Y = np.array([[0.4], [-0.4]])
        net = init_mlp([1, 2, 1], seed=6)
        hist = train(net, X, Y, TrainConfig(generations=5000, target_error=0.01, lam=0.1, seed=6))
        assert hist.generations() < 5000
        assert hist.rows[-1][1] <= 0.01

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


def sign_net(n):
    """n inputs, n hidden and n output neurons, each output tanh(tanh(x_i)):
    its sign is the sign of x_i."""
    unit = np.hstack([np.zeros((n, 1)), np.eye(n)])
    return Mlp([unit, unit.copy()])


class TestFitness:
    def test_binary_by_hand(self):
        # prediction is sign(x)
        net = sign_net(1)
        X = np.array([[2.0], [2.0], [-2.0], [-2.0], [2.0]])
        Y = np.array([[1.0], [-1.0], [1.0], [-1.0], [-1.0]])
        # fp rate 2/3, fn rate 1/2
        assert fitness_g(net, X, Y) == pytest.approx(1.0 - (2 / 3 + 1 / 2))

    def test_binary_perfect(self):
        net = sign_net(1)
        X = np.array([[3.0], [-3.0]])
        Y = np.array([[1.0], [-1.0]])
        assert fitness_g(net, X, Y) == 1.0

    def test_categorical_by_hand(self):
        net = sign_net(2)
        X = np.array([[2.0, -2.0], [-2.0, 2.0], [2.0, -2.0]])
        Y = np.array([[1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
        assert fitness_g(net, X, Y) == pytest.approx(2 / 3)


def g_rises(gs):
    """By hand: the generations, numbered from 1, whose G is strictly above
    every earlier G of the run."""
    rises, best = [], None
    for gen, g in enumerate(gs, start=1):
        if best is None or g > best:
            rises.append(gen)
            best = g
    return rises


@pytest.fixture
def seen_g(monkeypatch):
    """Every G that neural.train computes, in order."""
    seen = []

    def spy(mlp, inputs, targets):
        seen.append(fitness_g(mlp, inputs, targets))
        return seen[-1]

    monkeypatch.setattr(neural, "fitness_g", spy)
    return seen


def stop_records(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "neuralfp.neural"]


class TestPlateau:
    """Stopping on G, on a net whose G on its rows rises at generations 1,
    2 and 6 while its mse creeps down for 120."""

    def data(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (40, 3))
        Y = np.sign(X[:, :1] - 0.1)
        return X, Y

    def run(self, **kw):
        X, Y = self.data()
        net = init_mlp([3, 4, 1], seed=4)
        return net, train(net, X, Y, TrainConfig(**{"generations": 120, "lam": 0.02, "seed": 4, **kw}))

    @pytest.mark.parametrize("patience", [2, 3, 5, 8])
    def test_stops_patience_generations_after_the_last_useful_one(self, patience, seen_g):
        """A useful generation is one whose G beats every earlier G of the run."""
        _, full = self.run()
        assert seen_g == []  # no patience, no G
        _, hist = self.run(patience=patience)
        # one G per generation, on the run's own rows, and none kept in the history
        assert len(seen_g) == hist.generations()
        assert {row[3] for row in hist.rows} == {None}
        rises = g_rises(seen_g)
        assert hist.generations() == rises[-1] + patience < 120
        # no earlier gap between rises left room for a stop
        assert all(b - a <= patience for a, b in zip(rises, rises[1:]))
        # the stopped run is the full run cut short
        assert repr(hist.rows) == repr(full.rows[:hist.generations()])
        # each G the rule saw is the G of the net capped at that generation
        X, Y = self.data()
        for gen in (1, rises[-1], hist.generations()):
            net, _ = self.run(generations=gen)
            assert fitness_g(net, X, Y) == seen_g[gen - 1]

    def test_off_by_default_and_for_none(self):
        a, ha = self.run()
        b, hb = self.run(patience=None)
        assert TrainConfig().patience is None
        assert ha.generations() == 120
        assert repr(ha.rows) == repr(hb.rows)
        assert same_bits(a.weights, b.weights)

    def test_target_error_wins_a_tie(self, caplog):
        _, plateau = self.run(patience=2)
        stop, mse = plateau.rows[-1][:2]
        # the generation that plateaus is also the first to reach this target
        assert min(r[1] for r in plateau.rows[:-1]) > mse
        with caplog.at_level(logging.INFO, logger="neuralfp.neural"):
            _, hist = self.run(patience=2, target_error=mse)
        assert hist.generations() == stop
        assert stop_records(caplog) == [f"training stopped (target) at generation {stop}, mse {mse:.6g}"]

    @pytest.mark.parametrize("kw, reason", [({}, "cap"), ({"patience": 5}, "plateau"),
                                            ({"patience": 5, "target_error": 0.2}, "target")])
    def test_one_record_names_why_the_run_stopped(self, caplog, seen_g, kw, reason):
        with caplog.at_level(logging.INFO, logger="neuralfp.neural"):
            _, hist = self.run(**kw)
        gen, mse = hist.rows[-1][:2]
        record = f"training stopped ({reason}) at generation {gen}, mse {mse:.6g}"
        if reason == "plateau":
            # the best G and the generation that reached it
            assert (max(seen_g), g_rises(seen_g)[-1]) == (1.0, 6)
            record += ", G 1 (best at generation 6)"
        assert stop_records(caplog) == [record]

    def test_config_decodes_patience(self):
        assert decode_config(TrainConfig, {"patience": None}, "cfg") == {"patience": None}
        assert decode_config(TrainConfig, {"patience": 7}, "cfg") == {"patience": 7}
        with pytest.raises(ValueError, match=r"^cfg\.patience: "):
            decode_config(TrainConfig, {"patience": "x"}, "cfg")
        # the range is checked as the config is built
        kwargs = decode_config(TrainConfig, {"patience": 0}, "cfg")
        with pytest.raises(ValueError, match=r"^training needs .*, got patience=0$"):
            TrainConfig(**kwargs)
