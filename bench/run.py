"""Run one benchmark workload on the checkout's own neuralfp and report it.

    python3 bench/run.py --workload scan --seed 3 --seconds 25 --trace 0

Workloads: train, scan, corpus (README.md says what each stresses).
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, from identical untraced passes repeated for
--seconds (at least three; each timing is scaled to a fixed machine
speed, see speed.py, and the median pass is kept); with --trace 1 the
run makes one untraced and one traced pass on the same inputs, checks
that their outputs are equal, and reports the per-layer metrics of the
traced pass.  Spans are written to bench/out/.  Exit code 0 means a result
was printed; 2 means no neuralfp source was found next to bench/.
"""

import os

# pinned before anything imports numpy, and passed on to CLI children
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = 3
IMPORT_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "scan", "corpus"))
    p.add_argument("--seed", type=int, required=True, help="workload seed: the inputs follow from it")
    p.add_argument("--seconds", type=float, required=True, help="measured time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cli_import_s(env: dict) -> float:
    """Median wall time of a bare interpreter that only imports neuralfp.cli."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import neuralfp.cli"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neuralfp" / "__init__.py").is_file():
        print(f"error: no neuralfp source at {SRC}; run inside a neuralfp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import neuralfp
    import layers
    import pipeline
    from speed import Speed
    from tracer import Tracer

    if not Path(neuralfp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported neuralfp from {neuralfp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    profile = pipeline.PROFILES[args.workload]
    env = pipeline.child_env(SRC)
    # One vCPU for the run and its CLI children: the two vCPUs change speed
    # independently, and the kernel samples must come from the CPU that does
    # the work they scale (see speed.py).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(json.dumps({"workload": args.workload, "seed": args.seed, "cpu": cpu, **environment()}))
    speed = Speed()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        work = Path(tmp)

        def warm_up(inputs):
            # a small pass through every in-process code path; its results are dropped
            small = dataclasses.replace(profile, corpus_rows=400, generations=2, cold_runs=0)
            pipeline.run_pass(small, pipeline.Inputs(inputs.db, inputs.hosts[:60], inputs.heldout),
                              work, Tracer(), speed, env)

        if args.trace == 0:
            # identical passes, each after its own set-up, until the next one
            # would overrun --seconds; setup_s is the median of the set-ups
            passes, setups = [], []
            deadline = None
            with speed.sampling():
                while True:
                    gc.collect()
                    start = speed.now()
                    inputs = pipeline.make_inputs(profile, args.seed)
                    setups.append((start, speed.now()))
                    if deadline is None:
                        warm_up(inputs)
                        deadline = time.perf_counter() + args.seconds
                    start = time.perf_counter()
                    p = pipeline.run_pass(profile, inputs, work, Tracer(), speed, env,
                                          check_reload=not passes)
                    took = time.perf_counter() - start
                    if passes:
                        p.attempted += 1
                        if p.outputs() != passes[0].outputs():
                            p.fail(f"pass {len(passes) + 1} outputs differ from pass 1")
                        p.drop_outputs()
                    passes.append(p)
                    if len(passes) >= MIN_PASSES and time.perf_counter() + took > deadline:
                        break
            setup_s = [speed.scaled(*interval) for interval in setups]
            attempted = sum(p.attempted for p in passes)
            failed = sum(p.failed for p in passes)
            errors = [e for p in passes for e in p.errors]
            metrics = pipeline.end_to_end(passes, inputs.hosts, setup_s, peak_rss_mb())
            catalog = pipeline.END_TO_END
            print(f"{len(passes)} passes of {len(inputs.hosts)} hosts, "
                  f"{len(passes[0].best_fit_s)} best-fit calls and {profile.cold_runs} cold runs each; "
                  f"pass walls {', '.join(f'{p.wall_s:.2f}' for p in passes)} s")
        else:
            # spans are timed on speed's clock, which leaves the sampling out
            tracer = Tracer(clock=speed.now)
            with speed.sampling():
                inputs = pipeline.make_inputs(profile, args.seed)
                warm_up(inputs)
                plain = pipeline.run_pass(profile, inputs, work, Tracer(), speed, env)
                layers.install(tracer)
                try:
                    tracer.rid = "setup"
                    inputs = pipeline.make_inputs(profile, args.seed)
                    traced = pipeline.run_pass(profile, inputs, work, tracer, speed, env)
                finally:
                    tracer.restore()
            attempted = plain.attempted + traced.attempted + 1
            failed = plain.failed + traced.failed
            errors = plain.errors + traced.errors
            if traced.outputs() != plain.outputs():
                failed += 1
                errors.append("traced pass outputs differ from the untraced pass")
            overhead = traced.wall_s / plain.wall_s - 1.0
            metrics = layers.per_layer(tracer.spans, traced, cli_import_s(env), overhead)
            catalog = layers.METRICS
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}; "
                  f"untraced pass {plain.wall_s:.2f} s, traced {traced.wall_s:.2f} s")

    print(f"speed: the reference kernel ran {speed.slowdown():.3f}x its nominal time "
          f"(median of {len(speed.kernel_s)} samples)")
    for name, (unit, _) in catalog.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    for line in errors[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in catalog.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
