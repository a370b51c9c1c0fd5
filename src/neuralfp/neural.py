"""Multilayer perceptrons with momentum backpropagation and adaptive rate.

Every neuron computes v = tanh(sum_k w_k x_k - w_0): weights carry an
explicit bias term against a fixed virtual input of -1 in slot 0.  Layer
weights are stored as (n_out, n_in + 1) matrices with the bias in column 0.

Training is online: weights update after every input/output pair, with a
momentum term folding in the previous update.  The learning rate lambda
adapts between generations: a generation that does not increase the error
scales lambda up, a worse one scales it down, both within fixed bounds.
Each generation visits the pairs in a freshly shuffled, seeded order.

Fitness G summarizes a net against labeled data: for one output,
1 - (false positive rate + false negative rate) at threshold 0; for several,
1 - share of argmax mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TrainingDivergedError(RuntimeError):
    def __init__(self, generation: int):
        super().__init__(f"training diverged at generation {generation}")
        self.generation = generation


@dataclass
class TrainConfig:
    generations: int = 200
    target_error: float | None = None
    lam: float = 0.01
    momentum: float = 0.8
    lam_up: float = 1.05
    lam_down: float = 0.7
    lam_min: float = 1e-6
    lam_max: float = 1.0
    adaptive: bool = True
    subset_size: int | None = None
    seed: int = 0


@dataclass
class TrainHistory:
    """Per-generation (generation, mse, lambda, G) rows. G is set only when
    subset training measures fitness at a subset boundary."""

    rows: list[tuple[int, float, float, float | None]] = field(default_factory=list)

    def last_mse(self) -> float:
        return self.rows[-1][1]

    def generations(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        lines = ["generation,mse,lambda,G"]
        for gen, mse, lam, g in self.rows:
            lines.append(f"{gen},{mse!r},{lam!r},{'' if g is None else repr(g)}")
        return "\n".join(lines) + "\n"


@dataclass
class Mlp:
    """Feed-forward tanh network; weights[l] maps layer l to layer l+1."""

    weights: list[np.ndarray]
    history: TrainHistory | None = None

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[1] - 1] + [w.shape[0] for w in self.weights])


def init_mlp(sizes: tuple[int, ...] | list[int], seed: int = 0) -> Mlp:
    """Uniform init on [-r, r] with r = 1/sqrt(fan-in), bias included."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes!r}")
    rng = np.random.default_rng(seed)
    weights = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        r = 1.0 / np.sqrt(n_in + 1)
        weights.append(rng.uniform(-r, r, size=(n_out, n_in + 1)))
    return Mlp(weights)


def _activations(mlp: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output for one input vector (n,) or a stack of rows
    (..., n).  Each row is its own matrix-vector product on contiguous
    memory, so a row gets the same bits alone as inside any batch."""
    acts = [np.ascontiguousarray(x, dtype=float)]
    for W in mlp.weights:
        acts.append(np.tanh(np.matvec(W[:, 1:], acts[-1]) - W[:, 0]))
    return acts


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output for one input vector or each row of a stack."""
    return _activations(mlp, x)[-1]


def _deltas(mlp: Mlp, acts: list[np.ndarray], target: np.ndarray) -> list[np.ndarray]:
    # output layer: f'(v)(y - v); hidden: f'(v) * backpropagated sum
    deltas = [None] * len(mlp.weights)
    out = acts[-1]
    deltas[-1] = (1.0 - out * out) * (target - out)
    for l in range(len(mlp.weights) - 2, -1, -1):
        v = acts[l + 1]
        deltas[l] = (1.0 - v * v) * (mlp.weights[l + 1][:, 1:].T @ deltas[l + 1])
    return deltas


def loss_gradient(mlp: Mlp, x: np.ndarray, target: np.ndarray) -> list[np.ndarray]:
    """Gradient of E = 1/2 sum (y - v)^2 with respect to every weight."""
    acts = _activations(mlp, x)
    deltas = _deltas(mlp, acts, np.asarray(target, dtype=float))
    grads = []
    for l, delta in enumerate(deltas):
        g = np.empty_like(mlp.weights[l])
        g[:, 0] = delta          # bias input is fixed at -1
        g[:, 1:] = -np.outer(delta, acts[l])
        grads.append(g)
    return grads


def backprop_generation(
    mlp: Mlp,
    inputs: np.ndarray,
    targets: np.ndarray,
    lam: float,
    momentum: float,
    prev_update: list[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """One pass over the pairs with per-pair updates.

    Returns the generation error (each pair's error taken at its own
    forward pass, before its update) and the final momentum state.
    """
    if prev_update is None:
        prev_update = [np.zeros_like(W) for W in mlp.weights]
    total = 0.0
    n_out = targets.shape[1]
    for x, y in zip(inputs, targets):
        acts = _activations(mlp, x)
        err = y - acts[-1]
        total += float(err @ err) / n_out
        deltas = _deltas(mlp, acts, y)
        for l, delta in enumerate(deltas):
            upd = prev_update[l]
            upd *= momentum
            upd[:, 0] -= lam * delta
            upd[:, 1:] += lam * (delta[:, None] * acts[l])
            mlp.weights[l] += upd
    return total / len(inputs), prev_update


def train(mlp: Mlp, inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig) -> TrainHistory:
    """Train in place until the generation cap or the target error.

    The lambda recorded per generation is the one that generation used;
    adaptation compares consecutive generation errors, ties counting as
    improvement.

    With cfg.subset_size, training runs over a seeded partition of the
    data, one full run per subset.  After each subset, fitness G is
    measured on the next subset in line (not yet trained on; the last
    wraps around to the first) and recorded on that run's final
    generation.  When G improved, the starting lambda of the next subset
    is raised.  A subset size covering all the data is one plain run
    plus one G.
    """
    if not (cfg.generations >= 1 and cfg.lam > 0
            and (cfg.subset_size is None or cfg.subset_size >= 1)):
        raise ValueError(f"training needs generations >= 1, lam > 0 and subset_size >= 1 or "
                         f"None, got {cfg.generations}, {cfg.lam!r} and {cfg.subset_size}")
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = len(inputs)
    if n == 0:
        raise ValueError("no training pairs")
    if cfg.subset_size and cfg.subset_size < n:
        order = np.random.default_rng((cfg.seed, 1)).permutation(n)
        chunks = [order[i:i + cfg.subset_size] for i in range(0, n, cfg.subset_size)]
    else:
        chunks = [slice(None)]
    history = TrainHistory()
    lam0 = cfg.lam
    prev_g = None
    for s, chunk in enumerate(chunks):
        X, Y = inputs[chunk], targets[chunk]
        rng = np.random.default_rng(cfg.seed + s)
        gen0 = history.generations()
        lam = lam0
        prev_mse = None
        update = None
        for gen in range(gen0 + 1, gen0 + cfg.generations + 1):
            order = rng.permutation(len(X))
            with np.errstate(over="ignore", invalid="ignore"):
                mse, update = backprop_generation(mlp, X[order], Y[order], lam, cfg.momentum, update)
            history.rows.append((gen, mse, lam, None))
            if not np.isfinite(mse) or not all(np.isfinite(W).all() for W in mlp.weights):
                raise TrainingDivergedError(gen)
            if cfg.target_error is not None and mse <= cfg.target_error:
                break
            if cfg.adaptive and prev_mse is not None:
                if mse <= prev_mse:
                    lam = min(lam * cfg.lam_up, cfg.lam_max)
                else:
                    lam = max(lam * cfg.lam_down, cfg.lam_min)
            prev_mse = mse
        if not cfg.subset_size:
            continue
        probe = chunks[(s + 1) % len(chunks)]
        g = fitness_g(mlp, inputs[probe], targets[probe])
        history.rows[-1] = history.rows[-1][:3] + (g,)
        if prev_g is not None and g > prev_g:
            lam0 = min(lam0 * cfg.lam_up, cfg.lam_max)
        prev_g = g
    mlp.history = history
    return history


def fitness_g(mlp: Mlp, inputs: np.ndarray, targets: np.ndarray) -> float:
    """G = 1 - (fp rate + fn rate) for one output, 1 - error share else."""
    out = forward(mlp, inputs)
    targets = np.asarray(targets, dtype=float)
    if out.shape[1] == 1:
        pred = out[:, 0] >= 0.0
        actual = targets[:, 0] > 0.0
        pos = max(int(actual.sum()), 1)
        neg = max(int((~actual).sum()), 1)
        fp = int((pred & ~actual).sum()) / neg
        fn = int((~pred & actual).sum()) / pos
        return 1.0 - (fp + fn)
    errors = int((out.argmax(axis=1) != targets.argmax(axis=1)).sum())
    return 1.0 - errors / len(targets)
