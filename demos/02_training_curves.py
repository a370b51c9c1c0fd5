"""
Adaptive versus fixed learning rate
====================================

Both runs start from the same weights and the same deliberately tiny
lambda (1e-6). The adaptive rule multiplies lambda by 1.05 after a
generation that did not increase the error and by 0.7 after one that
did, so it climbs out of the bad starting value on its own; the fixed
run is stuck with it.
"""

from neuralfp.corpus import family_task_database
from neuralfp.datagen import generate_dataset
from neuralfp.neural import TrainConfig, init_mlp, train
from neuralfp.preprocess import fit_pipeline
from neuralfp.signatures import parse_fingerprint_db

TARGET = 0.05

db = parse_fingerprint_db(family_task_database(20, seed=4))
ds = generate_dataset(db, None, 3000, stage="family", seed=9)
pipe = fit_pipeline(ds.inputs)
X = pipe.apply(ds.inputs)
print(f"family task: {X.shape[0]} samples, {X.shape[1]} reduced inputs, 6 outputs")


def run(adaptive, budget):
    net = init_mlp([X.shape[1], 20, 6], seed=9)
    cfg = TrainConfig(
        generations=budget,
        target_error=TARGET,
        lam=1e-6,
        momentum=0.8,
        adaptive=adaptive,
        seed=9,
    )
    return train(net, X, ds.targets, cfg)


adaptive = run(True, 400)
fixed = run(False, 2 * len(adaptive.rows))

print()
print("generation       adaptive mse   lambda         fixed mse")
for gen, mse, lam, _ in adaptive.rows:
    if gen % 8 == 0 or gen == len(adaptive.rows):
        fixed_mse = fixed.rows[gen - 1][1] if gen <= len(fixed.rows) else float("nan")
        print(f"{gen:10d}       {mse:12.6f}   {lam:.6e}   {fixed_mse:9.6f}")

print()
print(f"adaptive reached mse <= {TARGET} in {len(adaptive.rows)} generations")
last = fixed.rows[-1]
if last[1] <= TARGET:
    print(f"fixed lambda needed {len(fixed.rows)} generations")
else:
    print(f"fixed lambda still at mse {last[1]:.4f} after {len(fixed.rows)} generations")
print()
print("per-stage curves of a whole hierarchy come out of `neuralfp train --db <db>` (add")
print('{"adaptive": false} to its config for fixed lambda) and then `neuralfp export-curves`,')
print("one <stem>-<stage>.csv of generation,mse,lambda,G rows per stage")
