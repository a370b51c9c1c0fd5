"""
What a Monte Carlo row costs: cold plans and warm ones
======================================================

`generate_dataset` compiles each signature object into a plan on its
first draw and keeps the plan while the object lives. `neuralfp generate`
parses its db afresh, so it always pays the compile: its plans are cold.
A caller that draws from the same parsed db twice, as the bench's corpus
step does after drawing its held-out rows, times warm plans. This script
prints both, in microseconds per row of `generate_dataset` (relevance
stage, seed 1), on two dbs and at two totals:

- demo: the demo db, whose 61 signatures draw 0 to 4 fields a row,
  1.7 on average;
- demo+large: the demo db plus `large_database(220)`, the bench's
  `corpus` recipe, whose machine-written signatures draw 3 to 15, 8.0
  on average.

Cold runs parse the db text again before the timed call (the parse is not
timed); warm runs repeat the call on a db that has drawn once. Each repeat
times every (db, total, cold/warm) cell in turn, so the cells see the
same machine state; the table gives the median and the quartiles over
the repeats. Run from the repository root:
`PYTHONPATH=src python demos/09_draw_cost.py`.
"""

import statistics
import time

from neuralfp.corpus import demo_database, large_database
from neuralfp.datagen import generate_dataset
from neuralfp.signatures import parse_fingerprint_db

REPEATS = 15
TOTALS = (1000, 3000)
DBS = {"demo": demo_database(), "demo+large": demo_database() + "\n" + large_database(220)}


def per_row_us(db, total: int) -> float:
    start = time.perf_counter_ns()
    generate_dataset(db, None, total, "relevance", seed=1)
    return (time.perf_counter_ns() - start) / 1e3 / total


warm_dbs = {name: parse_fingerprint_db(text) for name, text in DBS.items()}
for db in warm_dbs.values():
    generate_dataset(db, None, max(TOTALS), "relevance", seed=1)  # compiles every plan
times = {(name, total, plans): [] for name in DBS for total in TOTALS for plans in ("cold", "warm")}
for _ in range(REPEATS):
    for name, total, plans in times:
        db = parse_fingerprint_db(DBS[name]) if plans == "cold" else warm_dbs[name]
        times[name, total, plans].append(per_row_us(db, total))

print(f"{REPEATS} interleaved repeats; us per row of generate_dataset")
print(f"{'db':11} {'rows':>5} {'plans':5} {'median':>8} {'q1':>8} {'q3':>8}")
for (name, total, plans), samples in times.items():
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    print(f"{name:11} {total:5} {plans:5} {q2:8.2f} {q1:8.2f} {q3:8.2f}")
