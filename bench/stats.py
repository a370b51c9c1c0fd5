"""The benchmark's own arithmetic: percentiles, spreads, training usefulness.

Kept free of numpy and of neuralfp so that tests can check it on
hand-made inputs.
"""

from __future__ import annotations

import math
import statistics

# a tail percentile is reported only when at least this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1) of values.

    Raises ValueError unless at least MIN_TAIL_SAMPLES samples lie
    strictly above the returned rank, so a tail figure always rests on
    enough samples to mean something.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q!r} outside (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def quartile_spread(values) -> tuple[float, float]:
    """(median, (q3 - q1) / median) with statistics.quantiles' default method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median) if median else math.inf


def useful_generation_share(history, min_gain: float = 0.01) -> float:
    """Share of a training run's generations that still paid off.

    A generation is useful when its mse is at least min_gain (relative)
    below the mse of the last useful generation; the first generation is
    useful by definition.  Measuring against the last useful generation
    rather than the previous one lets slow, steady progress count.  The
    result is (index of the last useful generation) / (generations run),
    read from a neuralfp TrainHistory.
    """
    rows = history.rows
    if not rows:
        raise ValueError("empty training history")
    reference = rows[0][1]
    last_useful = 1
    for index, (_, mse, _, _) in enumerate(rows[1:], start=2):
        if mse <= reference * (1.0 - min_gain):
            last_useful = index
            reference = mse
    return last_useful / len(rows)
