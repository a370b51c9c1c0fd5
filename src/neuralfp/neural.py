"""Three-layer perceptrons with momentum backpropagation and adaptive rate.

Every neuron computes v = tanh(sum_k w_k x_k - w_0): weights carry an
explicit bias term against a fixed virtual input of -1 in slot 0.  Layer
weights are stored as (n_out, n_in + 1) matrices with the bias in column 0.

Training is online: weights update after every input/output pair, with a
momentum term folding in the previous update.  The learning rate lambda
adapts between generations: a generation that does not increase the error
scales lambda up, a worse one scales it down, both within fixed bounds.
Each generation visits the pairs in a freshly shuffled, seeded order.

One call of train is one run over all of its pairs.  A run ends at the
target error, at the generation cap, or on a plateau of its decisions
(Prechelt, "Early Stopping -- But When?", 1998): with `patience` set,
each generation measures fitness G on the run's rows, and the run stops
`patience` generations after the last one whose G beat every earlier G
of the run.  Each run logs why it stopped.  A TrainConfig
checks its ranges when it is built, so a run never starts on a bad one.

The per-pair kernel (_Workspace) allocates nothing: each step writes with
`out=` into buffers built once per generation, and a step that is the
same for both layers is one call on a flat buffer.  Each element still
goes through the same numpy operations, in the same order, as in the
plain formulas, and the -1 slot ahead of the buffered x and h turns the
bias column into one more product: upd + lam * (-delta) equals
upd - lam * delta bit for bit, since IEEE negation is exact.  So training
gives the same weights as a loop that allocates every intermediate, and
loss_gradient reads its gradient from the same kernel.

Fitness G summarizes a net against labeled data: for one output,
1 - (false positive rate + false negative rate) at threshold 0; for several,
1 - share of argmax mismatches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

# the adaptive schedule scales lambda by LAM_UP after a generation that did
# not raise the error and by LAM_DOWN after one that did, within LAM_MIN..LAM_MAX
LAM_UP, LAM_DOWN, LAM_MIN, LAM_MAX = 1.05, 0.7, 1e-6, 1.0


class TrainingDivergedError(RuntimeError):
    def __init__(self, generation: int):
        super().__init__(f"training diverged at generation {generation}")
        self.generation = generation


@dataclass(frozen=True)
class TrainConfig:
    generations: int = 200
    target_error: float | None = None
    lam: float = 0.01
    momentum: float = 0.8
    adaptive: bool = True
    # stop a run this many generations after its last rise in G; None: never
    patience: int | None = None
    seed: int = 0

    def __post_init__(self):
        in_range = {"generations": self.generations >= 1,  # nan fails every comparison
                    "seed": self.seed >= 0, "patience": self.patience is None or self.patience >= 1,
                    "target_error": self.target_error is None or 0 <= self.target_error < np.inf,
                    "lam": 0 < self.lam < np.inf, "momentum": 0 <= self.momentum < np.inf}
        if bad := [key for key, ok in in_range.items() if not ok]:
            raise ValueError("training needs generations >= 1, seed >= 0, patience >= 1 or None, finite "
                             "floats, target_error >= 0 or None, lam > 0 and momentum >= 0, got "
                             + ", ".join(f"{key}={getattr(self, key)!r}" for key in bad))


@dataclass
class TrainHistory:
    """Per-generation (generation, mse, lambda, G) rows.  train leaves G
    None; a model saved by an earlier version may hold a G on the last row
    of each subset run it trained, and keeps it."""

    rows: list[tuple[int, float, float, float | None]] = field(default_factory=list)

    def generations(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        lines = ["generation,mse,lambda,G"]
        for gen, mse, lam, g in self.rows:
            lines.append(f"{gen},{mse!r},{lam!r},{'' if g is None else repr(g)}")
        return "\n".join(lines) + "\n"


@dataclass
class Mlp:
    """Three-layer tanh perceptron: weights = [W1, W2], hidden then output layer."""

    weights: list[np.ndarray]
    history: TrainHistory | None = None

    def __post_init__(self):
        if not (len(self.weights) == 2 and all(w.ndim == 2 and w.shape[1] > 0 for w in self.weights)
                and self.weights[0].shape[0] + 1 == self.weights[1].shape[1]):
            raise ValueError("expected a 2-D hidden and output layer whose widths chain")

    @property
    def sizes(self) -> tuple[int, int, int]:
        W1, W2 = self.weights
        return W1.shape[1] - 1, W1.shape[0], W2.shape[0]


def init_mlp(sizes: tuple[int, int, int] | list[int], seed: int = 0) -> Mlp:
    """A net of (inputs, hidden, outputs) neurons; uniform init on [-r, r], r = 1/sqrt(fan-in)."""
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise ValueError(f"expected (inputs, hidden, outputs) sizes >= 1, got {sizes!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n, hidden, outputs = sizes
    rng = np.random.default_rng(seed)
    r1, r2 = 1.0 / np.sqrt(n + 1), 1.0 / np.sqrt(hidden + 1)
    W1 = rng.uniform(-r1, r1, size=(hidden, n + 1))
    return Mlp([W1, rng.uniform(-r2, r2, size=(outputs, hidden + 1))])


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output for one input vector (n,) or each row of a stack
    (..., n).  Each row is its own matrix-vector product on contiguous
    memory, so a row gets the same bits alone as inside any batch."""
    W1, W2 = mlp.weights
    h = np.tanh(np.matvec(W1[:, 1:], np.ascontiguousarray(x, dtype=float)) - W1[:, 0])
    return np.tanh(np.matvec(W2[:, 1:], h) - W2[:, 0])


def _flat(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A copy of arrays in one buffer, and a view of it shaped like each."""
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    return flat, [flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _extended(inputs: np.ndarray) -> np.ndarray:
    """Each input row behind the fixed -1 of the bias input: [-1, x]."""
    xe = np.empty((len(inputs), inputs.shape[1] + 1))
    xe[:, 0] = -1.0
    xe[:, 1:] = inputs
    return xe


class _Workspace:
    """Buffers for one net's online backprop, and the per-pair step on them.

    A pair's input arrives as [-1, x]; the hidden and output activations
    share one buffer [-1, h, v].  The weights, the momentum state and
    the gradient are each one flat copy; an element-wise operation gives
    each element the same bits however the elements are grouped, so one
    call on a flat buffer stands for one call per layer.
    """

    def __init__(self, mlp: Mlp, update: list[np.ndarray]):
        _, hidden, outputs = mlp.sizes
        act = np.empty(1 + hidden + outputs)
        act[0] = -1.0
        h_ext, h, out = act[:hidden + 1], act[1:hidden + 1], act[hidden + 1:]
        self.out = out
        # f'(a) = 1 - a^2 for both layers in one go; the -1 slot gives 0
        fprime = np.empty_like(act)
        fprime_h, fprime_out = fprime[1:hidden + 1], fprime[hidden + 1:]
        self.w, self.weights = _flat(mlp.weights)
        self.upd, self.updates = _flat(update)
        self.g, self.grad = _flat(mlp.weights)
        (W1, W2), (grad1, grad2) = self.weights, self.grad
        W1x, b1, W2h, b2, W2T = W1[:, 1:], W1[:, 0], W2[:, 1:], W2[:, 0], W2[:, 1:].T
        delta_h, delta_out, backsum = np.empty(hidden), np.empty(outputs), np.empty(hidden)
        delta_h_col, delta_out_col = delta_h[:, None], delta_out[:, None]
        matvec, matmul, multiply, subtract, tanh = np.matvec, np.matmul, np.multiply, np.subtract, np.tanh

        # numpy's call overhead on arrays of a few elements is the whole cost
        # here, so the step closes over its buffers rather than looking them
        # up, and passes each output buffer as the positional `out` argument,
        # which skips the keyword parsing
        def pair(xe: np.ndarray, y: np.ndarray, err: np.ndarray) -> None:
            """Forward [-1, x] as forward does, set err = y - v, and leave
            each layer's delta [-1, a] (minus E's gradient) in grad.

            Output delta: f'(v)(y - v); hidden: f'(h) * W2[:, 1:].T delta_out.
            """
            matvec(W1x, xe[1:], h)
            subtract(h, b1, h)
            tanh(h, h)
            matvec(W2h, h, out)
            subtract(out, b2, out)
            tanh(out, out)
            subtract(y, out, err)
            multiply(act, act, fprime)
            subtract(_ONE, fprime, fprime)
            multiply(fprime_out, err, delta_out)
            matmul(W2T, delta_out, backsum)
            multiply(fprime_h, backsum, delta_h)
            multiply(delta_h_col, xe, grad1)
            multiply(delta_out_col, h_ext, grad2)

        self.pair = pair


# a 0-d array passes its double to a ufunc without a Python float's conversion
_ONE = np.array(1.0)


def loss_gradient(mlp: Mlp, x: np.ndarray, target: np.ndarray) -> list[np.ndarray]:
    """Gradient of E = 1/2 sum (y - v)^2 with respect to every weight."""
    ws = _Workspace(mlp, mlp.weights)  # its momentum buffer goes unused
    ws.pair(_extended(np.asarray(x, dtype=float)[None, :])[0], np.asarray(target, dtype=float),
            np.empty(mlp.sizes[-1]))
    return [-g for g in ws.grad]


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
    forward pass, before its update) and the final momentum state, which
    is prev_update updated in place.  Each layer's update is
    mu * upd + lam * delta [-1, a].
    """
    if prev_update is None:
        prev_update = [np.zeros_like(W) for W in mlp.weights]
    ws = _Workspace(mlp, prev_update)
    pair, g, upd, w = ws.pair, ws.g, ws.upd, ws.w
    lam, momentum = np.array(lam), np.array(momentum)
    errors = np.empty(targets.shape)
    for xe, y, err in zip(_extended(inputs), targets, errors):
        pair(xe, y, err)
        g *= lam
        upd *= momentum
        upd += g
        w += upd
    for dst, src in zip(mlp.weights + prev_update, ws.weights + ws.updates):
        np.copyto(dst, src)
    # err @ err of each pair, summed in pair order
    total = 0.0
    n_out = targets.shape[1]
    for e in np.vecdot(errors, errors).tolist():
        total += e / n_out
    return total / len(inputs), prev_update


def train(mlp: Mlp, inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig) -> TrainHistory:
    """Train in place until the target error, a plateau of G or the generation cap.

    The lambda recorded per generation is the one that generation used;
    adaptation compares consecutive generation errors, ties counting as
    improvement.  Each call is one run: it records a fresh history,
    numbered from generation 1, and sets it as mlp.history.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if len(inputs) == 0:
        raise ValueError("no training pairs")
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    lam = cfg.lam
    prev_mse = best_g = update = None
    reason = "cap"
    for gen in range(1, cfg.generations + 1):
        order = rng.permutation(len(inputs))
        with np.errstate(over="ignore", invalid="ignore"):
            mse, update = backprop_generation(mlp, inputs[order], targets[order], lam, cfg.momentum, update)
        history.rows.append((gen, mse, lam, None))
        if not np.isfinite(mse) or not all(np.isfinite(W).all() for W in mlp.weights):
            raise TrainingDivergedError(gen)
        if cfg.target_error is not None and mse <= cfg.target_error:
            reason = "target"
            break
        if cfg.patience is not None:
            g = fitness_g(mlp, inputs, targets)
            if best_g is None or g > best_g:
                best_g, best_gen = g, gen
            elif gen - best_gen >= cfg.patience:
                reason = "plateau"
                break
        if cfg.adaptive and prev_mse is not None:
            lam = min(lam * LAM_UP, LAM_MAX) if mse <= prev_mse else max(lam * LAM_DOWN, LAM_MIN)
        prev_mse = mse
    best = f", G {best_g:.6g} (best at generation {best_gen})" if reason == "plateau" else ""
    log.info("training stopped (%s) at generation %d, mse %.6g%s", reason, gen, mse, best)
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
