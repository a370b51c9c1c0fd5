"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload scan --seeds 1-10

Runs `bench/run.py` once per seed, one run at a time, and prints for
every end-to-end metric the median and the spread: the distance between
the first and third quartile (statistics.quantiles, n=4) over the
median.  A spread above a third of the metric's bound in BENCHMARK.json
is flagged; setup_s is reported but not flagged, since its bound covers
the shift of its median only.  Each run's result line is appended to
bench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="a seed or a range such as 1-10")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    log = BENCH / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        reference = next((ln for ln in lines if ln.startswith("speed:")), "")
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, "reference": reference, **result}) + "\n")
        print(f"seed {seed}: correct {result['correct']}, failed {result['failed']}"
              f" of {result['attempted']}; {reference}", flush=True)
        results.append(result)

    flagged = 0
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median, spread = stats.quartile_spread(values) if len(values) > 1 else (values[0], 0.0)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = f"  > bound/3 ({bound / 3:.4f})"
            flagged += 1
        print(f"{name:48s} median {median:12.6g}  spread {spread:8.4f}{flag}")
    return 1 if flagged or not all(r["correct"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
