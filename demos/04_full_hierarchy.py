"""
End to end: corpus, cascade training, evaluation, verdicts
===========================================================

Trains the whole decision cascade (relevance filter, family net, one
version net per family) from Monte Carlo samples of a 61-signature
database, holds out 20% of the samples, and reads the scoreboard.
"""

import numpy as np

from neuralfp.corpus import demo_database
from neuralfp.datagen import Dataset, generate_dataset, sample_observation, signature_family
from neuralfp.hierarchy import (
    HierarchyConfig,
    classify,
    evaluate,
    report_classification,
    train_hierarchy,
)
from neuralfp.signatures import parse_fingerprint_db

db = parse_fingerprint_db(demo_database())
families = sorted({f for f in map(signature_family, db) if f})
print(f"database: {len(db)} signatures, families {families}")

# One big labeled sample pool, split 80/20. The training side is handed
# to every stage; each stage slices out the rows it cares about.
ds = generate_dataset(db, None, 4000, stage="relevance", seed=42)
order = np.random.default_rng(42).permutation(len(ds.inputs))
cut = int(0.8 * len(order))
fit, held = order[:cut], order[cut:]
heldout = Dataset(
    stage=ds.stage,
    inputs=ds.inputs[held],
    targets=ds.targets[held],
    labels=[ds.labels[i] for i in held],
    output_labels=ds.output_labels,
    seed=ds.seed,
)

model = train_hierarchy(
    db,
    cfg=HierarchyConfig(seed=7),
    corpus=(ds.inputs[fit], [ds.labels[i] for i in fit]),
)
print("trained stages:", list(model.stages()))
print()

print(evaluate(model, heldout).render())

# Two fresh observations the model has never seen.
rng = np.random.default_rng(1234)
for name in ("Linux Kernel 2.4.20", "Sun Solaris 10"):
    sig = next(s for s in db if s.name == name)
    print()
    print(f"--- fresh sample from {name} ---")
    print(report_classification(classify(model, sample_observation(sig, rng))))
