"""
What one host costs: parse, encode, cascade, refiner
=====================================================

`neuralfp classify` runs once per target: it parses the observation text,
encodes it into the 568-neuron row, runs the cascade on that row and, for
a Windows host with an endpoint dump, the DCE-RPC refiner. This script
times each of those steps in microseconds per host, on two host sets:

- sampled: the hosts the bench's `scan` workload draws from the demo db
  (seed 1), whose values repeat a few dozen times each;
- varied: hosts whose every value varies (numbers from 0 to their field's
  bound in both hex cases, Flags and Ops strings over every letter plus
  unknown ones, unknown ACK, Class, IPID and TS values), the same hosts
  the encoder's and the parser's golden digests in tests/ pin.

Each repeat times one pass of every step in turn, so the steps see the
same machine state; the table gives the median and the quartiles over
the repeats. Warnings are silenced: a host with an unknown letter would
otherwise time the log handler, not the encoder. Run from the repository
root: `PYTHONPATH=src python demos/08_host_path.py`.
"""

import logging
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from hosts import scan_hosts, varied_observations  # noqa: E402

from neuralfp.corpus import demo_database  # noqa: E402
from neuralfp.encoding import encode_observation  # noqa: E402
from neuralfp.hierarchy import HierarchyConfig, classify_vector, train_hierarchy  # noqa: E402
from neuralfp.signatures import format_observation, parse_fingerprint_db, parse_observation  # noqa: E402

REPEATS = 15
HOSTS = 1000  # per host set
logging.getLogger("neuralfp").setLevel(logging.ERROR)

db = parse_fingerprint_db(demo_database())
# the scan workload's recipe: 30 generations and a Windows refiner
model = train_hierarchy(db, cfg=HierarchyConfig(seed=7, generations=30, windows=True))
sampled = scan_hosts(db, HOSTS)
host_sets = {
    "sampled": ([format_observation(obs) for obs, _ in sampled], [d for _, d in sampled if d]),
    "varied": ([format_observation(obs) for obs in varied_observations(HOSTS)], []),
}


def per_host_us(step, items) -> float:
    start = time.perf_counter_ns()
    for item in items:
        step(item)
    return (time.perf_counter_ns() - start) / 1e3 / max(len(items), 1)


print(f"{HOSTS} hosts per set, {REPEATS} interleaved repeats; us per host (per dump for the refiner)")
print(f"{'hosts':8} {'step':8} {'median':>8} {'q1':>8} {'q3':>8}")
for name, (texts, dumps) in host_sets.items():
    observations = [parse_observation(t) for t in texts]
    rows = [encode_observation(o) for o in observations]
    steps = {"parse": (parse_observation, texts), "encode": (encode_observation, observations),
             "cascade": (lambda row: classify_vector(model, row), rows),
             "refiner": (model.windows.classify, dumps)}
    times = {step: [] for step, (_, items) in steps.items() if items}
    for _ in range(REPEATS):
        for step in times:
            times[step].append(per_host_us(*steps[step]))
    for step, samples in times.items():
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        print(f"{name:8} {step:8} {q2:8.2f} {q1:8.2f} {q3:8.2f}")
