"""Multilayer perceptrons with momentum backpropagation and adaptive rate.

Every neuron computes v = tanh(sum_k w_k x_k - w_0): weights carry an
explicit bias term against a fixed virtual input of -1 in slot 0.  Layer
weights are stored as (n_out, n_in + 1) matrices with the bias in column 0.

Training is online: weights update after every input/output pair, with a
momentum term folding in the previous update.  The learning rate lambda
adapts between generations: a generation that does not increase the error
scales lambda up, a worse one scales it down, both within fixed bounds.
Each generation visits the pairs in a freshly shuffled, seeded order.

A run ends at the target error, at the generation cap, or on a plateau
of its decisions (Prechelt, "Early Stopping -- But When?", 1998): with
`patience` set, each generation measures fitness G on the run's rows,
and the run stops `patience` generations after the last one whose G beat
every earlier G of the run.  Each run logs why it stopped.  A TrainConfig
checks its ranges when it is built, so a run never starts on a bad one.

The per-pair kernel (_Workspace) allocates nothing: each step writes with
`out=` into buffers built once per generation, and a step that is the
same for every layer is one call on a flat buffer.  Each element still
goes through the same numpy operations, in the same order, as in the
plain formulas, and the -1 slot of each buffered activation turns the
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
    subset_size: int | None = None
    # stop a run this many generations after its last rise in G; None: never
    patience: int | None = None
    seed: int = 0

    def __post_init__(self):
        in_range = {"generations": self.generations >= 1,  # nan fails every comparison
                    "seed": self.seed >= 0, "subset_size": self.subset_size is None or self.subset_size >= 1,
                    "patience": self.patience is None or self.patience >= 1,
                    "target_error": self.target_error is None or 0 <= self.target_error < np.inf,
                    "lam": 0 < self.lam < np.inf, "momentum": 0 <= self.momentum < np.inf}
        if bad := [key for key, ok in in_range.items() if not ok]:
            raise ValueError("training needs generations >= 1, seed >= 0, subset_size and patience >= 1 or "
                             "None, finite floats, target_error >= 0 or None, lam > 0 and momentum >= 0, got "
                             + ", ".join(f"{key}={getattr(self, key)!r}" for key in bad))


@dataclass
class TrainHistory:
    """Per-generation (generation, mse, lambda, G) rows. G is set only when
    subset training measures fitness at a subset boundary."""

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
    """Feed-forward tanh network; weights[l] maps layer l to layer l+1."""

    weights: list[np.ndarray]
    history: TrainHistory | None = None

    def __post_init__(self):
        if not (self.weights and all(w.ndim == 2 and w.shape[1] > 0 for w in self.weights)
                and all(a.shape[0] + 1 == b.shape[1] for a, b in zip(self.weights, self.weights[1:]))):
            raise ValueError("expected 2-D layers whose widths chain")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[1] - 1] + [w.shape[0] for w in self.weights])


def init_mlp(sizes: tuple[int, ...] | list[int], seed: int = 0) -> Mlp:
    """Uniform init on [-r, r] with r = 1/sqrt(fan-in), bias included."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    weights = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        r = 1.0 / np.sqrt(n_in + 1)
        weights.append(rng.uniform(-r, r, size=(n_out, n_in + 1)))
    return Mlp(weights)


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output for one input vector (n,) or each row of a stack
    (..., n).  Each row is its own matrix-vector product on contiguous
    memory, so a row gets the same bits alone as inside any batch."""
    a = np.ascontiguousarray(x, dtype=float)
    for W in mlp.weights:
        a = np.tanh(np.matvec(W[:, 1:], a) - W[:, 0])
    return a


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

    A pair's input arrives as [-1, x], and each later layer's output sits
    in one activation buffer behind a fixed -1.  The weights, the momentum
    state and the gradient are each one flat copy; an element-wise
    operation gives each element the same bits however the elements are
    grouped, so one call on a flat buffer stands for one call per layer.
    """

    def __init__(self, mlp: Mlp, update: list[np.ndarray]):
        sizes = mlp.sizes[1:]
        starts = np.cumsum([0] + [n + 1 for n in sizes])
        act = np.empty(starts[-1])
        act[starts[:-1]] = -1.0
        ext = [act[i:i + n + 1] for i, n in zip(starts, sizes)]
        self.out = out = ext[-1][1:]
        # f'(v) = 1 - v^2 for every layer in one go; the -1 slots give 0
        fprime_all = np.empty_like(act)
        fprime = [fprime_all[i + 1:i + 1 + n] for i, n in zip(starts, sizes)]
        self.w, self.weights = _flat(mlp.weights)
        self.upd, self.updates = _flat(update)
        self.g, self.grad = _flat(mlp.weights)
        delta = [np.empty(n) for n in sizes]
        delta_col = [d[:, None] for d in delta]
        # per layer: v, W[:, 1:], W[:, 0]
        forward_steps = [(e[1:], W[:, 1:], W[:, 0]) for e, W in zip(ext, self.weights)]
        # per hidden layer, last first: W[:, 1:].T of the layer above and its delta,
        # a buffer for the backpropagated sum, f'(v) and delta
        backward_steps = [(self.weights[l + 1][:, 1:].T, delta[l + 1], np.empty(sizes[l]),
                           fprime[l], delta[l]) for l in range(len(sizes) - 2, -1, -1)]
        # past the first layer: delta[:, None], [-1, a] below and the gradient view
        outer_steps = list(zip(delta_col[1:], ext, self.grad[1:]))
        delta_col0, grad0, fprime_out, delta_out = delta_col[0], self.grad[0], fprime[-1], delta[-1]
        matvec, matmul, multiply, subtract, tanh = np.matvec, np.matmul, np.multiply, np.subtract, np.tanh

        # numpy's call overhead on arrays of a few elements is the whole cost
        # here, so the step closes over its buffers rather than looking them
        # up, and passes each output buffer as the positional `out` argument,
        # which skips the keyword parsing
        def pair(xe: np.ndarray, y: np.ndarray, err: np.ndarray) -> None:
            """Forward [-1, x] as forward does, set err = y - v, and leave
            every layer's delta [-1, a] (minus E's gradient) in grad.

            Output delta: f'(v)(y - v); hidden: f'(v) * backpropagated sum.
            """
            a = xe[1:]
            for v, W, b in forward_steps:
                matvec(W, a, v)
                subtract(v, b, v)
                tanh(v, v)
                a = v
            subtract(y, out, err)
            multiply(act, act, fprime_all)
            subtract(_ONE, fprime_all, fprime_all)
            multiply(fprime_out, err, delta_out)
            for WT, above, s, fp, d in backward_steps:
                matmul(WT, above, s)
                multiply(fp, s, d)
            multiply(delta_col0, xe, grad0)
            for d, e, g in outer_steps:
                multiply(d, e, g)

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
    improvement.

    With cfg.subset_size, training runs over a seeded partition of the
    data, one full run per subset.  After each subset, fitness G is
    measured on the next subset in line (not yet trained on; the last
    wraps around to the first) and recorded on that run's final
    generation.  When G improved, the starting lambda of the next subset
    is raised.  A subset size covering all the data is one plain run
    plus one G.  Each subset run counts its own plateau patience.

    Each call records a fresh history, numbered from generation 1, and
    sets it as mlp.history.
    """
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
        prev_mse = best_g = update = None
        reason = "cap"
        for gen in range(gen0 + 1, gen0 + cfg.generations + 1):
            order = rng.permutation(len(X))
            with np.errstate(over="ignore", invalid="ignore"):
                mse, update = backprop_generation(mlp, X[order], Y[order], lam, cfg.momentum, update)
            history.rows.append((gen, mse, lam, None))
            if not np.isfinite(mse) or not all(np.isfinite(W).all() for W in mlp.weights):
                raise TrainingDivergedError(gen)
            if cfg.target_error is not None and mse <= cfg.target_error:
                reason = "target"
                break
            if cfg.patience is not None:
                g = fitness_g(mlp, X, Y)
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
        if not cfg.subset_size:
            continue
        probe = chunks[(s + 1) % len(chunks)]
        g = fitness_g(mlp, inputs[probe], targets[probe])
        history.rows[-1] = history.rows[-1][:3] + (g,)
        if prev_g is not None and g > prev_g:
            lam0 = min(lam0 * LAM_UP, LAM_MAX)
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
