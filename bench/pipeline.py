"""One pass of the neuralfp user pipeline, sized by a workload profile.

Every workload runs the same pass, so every run reports every metric:

1. corpus: `generate` a relevance dataset from the signature db, `save`
   its container, `load` it back and `reduce` it (fit_pipeline), as
   `neuralfp generate` and `neuralfp reduce` do;
2. train: `train_hierarchy` on the loaded rows, `evaluate` the model on
   a held-out set of fresh samples and `save` it (the criterion-6
   recipe, resized);
3. scan: the classic `best_fit` baseline on every 10th host; cold
   `neuralfp classify` subprocesses, one at a time; and one operator
   classifying every host in turn with the saved and reloaded model, as
   `neuralfp classify` does (parse the observation, parse the dump if
   any, run the cascade).

The profiles differ in the db, the corpus size, the training length and
the host count, which decide where a pass spends its time.  Each
timing is scaled to a fixed machine speed by the samples of a reference
kernel taken during it (see speed.py), and a run repeats identical
passes and keeps, for each timing, the median over passes (see
README.md, "Noise").  Every call into neuralfp goes through a module
attribute, so that a traced pass sees it (see tracer.py).
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neuralfp import datagen, dcerpc, hierarchy, persistence, preprocess, signatures
from neuralfp.corpus import demo_database, large_database

import stats
from speed import Speed, scale_process


@dataclass(frozen=True)
class Profile:
    large_signatures: int  # machine-written irrelevant signatures appended to the demo db
    corpus_rows: int       # training rows generated, saved, loaded and reduced by each pass
    generations: int       # HierarchyConfig.generations; 300 is the default
    hosts: int             # hosts classified by each pass
    cold_runs: int         # cold CLI processes started by each pass


# Why these sizes: README.md, "Workloads".
PROFILES = {
    "train": Profile(large_signatures=0, corpus_rows=1000, generations=300, hosts=1500, cold_runs=6),
    "scan": Profile(large_signatures=0, corpus_rows=1000, generations=30, hosts=3000, cold_runs=6),
    "corpus": Profile(large_signatures=220, corpus_rows=1500, generations=30, hosts=1500, cold_runs=6),
}

# The training recipe is fixed, as in criterion 6: its dataset seed and
# its HierarchyConfig seed.  --seed draws what the model is judged and
# timed on: the held-out rows and the hosts.
CORPUS_SEED = 42
TRAINING_SEED = 7
HELDOUT_ROWS = 1000
HELDOUT_SEED_OFFSET = 1_000_000   # held-out rows come from a seed no corpus uses
BEST_FIT_EVERY = 10
HOST_ROUNDS = 2             # each host is classified this often per pass
DUMP_SHARE = 0.5           # share of Windows hosts that carry an endpoint dump
# criterion 6's held-out bounds
MIN_RELEVANCE_ACCURACY = 0.95
MIN_FAMILY_ACCURACY = 0.90
MIN_VERSION_ACCURACY = 0.80

EXIT_CODES = {"not relevant": 3, "unknown": 4}

# the end-to-end metrics: name -> (unit, better); bounds are in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "train_s": ("s", "lower"),
    "relevance_accuracy": ("share", "higher"),
    "family_accuracy": ("share", "higher"),
    "version_accuracy_min": ("share", "higher"),
    "perfect_match_share": ("share", "higher"),
    "hosts_per_s": ("1/s", "higher"),
    "host_latency_p50_ms": ("ms", "lower"),
    "host_latency_p95_ms": ("ms", "lower"),
    "verdict_accuracy": ("share", "higher"),
    "cold_classify_s": ("s", "lower"),
    "baseline_ms_p50": ("ms", "lower"),
    "corpus_rows_per_s": ("1/s", "higher"),
    "dataset_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class Host:
    obs_text: str
    dump_text: str | None
    family: str | None                    # ground truth; None when not relevant
    line: str | None
    triple: tuple[str, str, str] | None   # ground truth of the attached dump


@dataclass
class Inputs:
    db: list
    hosts: list[Host]
    heldout: object  # a relevance-stage Dataset of fresh samples


@dataclass
class PassResult:
    """What one pass measured and produced; timings are scaled (speed.py)."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    corpus_steps_s: list[float] = field(default_factory=list)  # generate, save, load, reduce
    corpus_rows: int = 0
    dataset_bytes: int = 0
    dataset_digest: str = ""
    reduce_kept: int = 0
    reduce_k: int = 0
    train_steps_s: list[float] = field(default_factory=list)   # train, evaluate, save
    model_bytes: int = 0
    model: object = None
    report: object = None
    host_s: list[list[float]] = field(default_factory=list)  # per round, per host
    loop_s: list[float] = field(default_factory=list)         # per round
    verdicts: list = field(default_factory=list)            # per host, None if it raised
    best_fit_s: list[float] = field(default_factory=list)   # per 10th host
    best_fit_hits: int = 0
    cold_s: list[float] = field(default_factory=list)       # per cold run
    cold_failed: int = 0
    cold_outputs: list[tuple[int, str | None]] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def drop_outputs(self) -> None:
        """Free what only the first pass needs to keep, once compared with it."""
        self.model = self.report = None
        self.verdicts = []
        self.cold_outputs = []

    def outputs(self) -> tuple:
        """Everything another pass on the same inputs must reproduce exactly."""
        r = self.report
        return (
            self.dataset_digest,
            (r.relevance_accuracy, r.family_accuracy, r.version_accuracy, r.categories),
            self.verdicts,
            self.best_fit_hits,
            self.cold_outputs,
        )


def make_inputs(profile: Profile, seed: int) -> Inputs:
    """Parse the db, draw the hosts and the held-out rows from seed."""
    text = demo_database()
    if profile.large_signatures:
        text += "\n" + large_database(profile.large_signatures)
    db = signatures.parse_fingerprint_db(text)
    rng = np.random.default_rng((seed, 1))
    dumps = dcerpc.synthetic_windows_corpus(seed=seed)
    hosts = []
    for _ in range(profile.hosts):
        sig = db[int(rng.integers(len(db)))]
        obs = datagen.sample_observation(sig, rng)
        family = datagen.signature_family(sig)
        dump_text = triple = None
        if family == "Windows" and rng.random() < DUMP_SHARE:
            emap, triple = dumps[int(rng.integers(len(dumps)))]
            dump_text = dcerpc.format_endpoint_dump(emap)
        hosts.append(Host(
            signatures.format_observation(obs), dump_text, family,
            datagen.signature_line(sig), triple,
        ))
    heldout = datagen.generate_dataset(db, None, HELDOUT_ROWS, stage="relevance",
                                       seed=seed + HELDOUT_SEED_OFFSET)
    return Inputs(db, hosts, heldout)


def verdict_right(host: Host, result) -> bool:
    """Relevance, family and, where the cascade attempted one, version or
    Windows triple all match the host's ground truth."""
    verdict = result.verdict
    if host.family is None:
        return verdict == "not relevant"
    if isinstance(verdict, str):
        return False
    family, line = verdict
    if family != host.family:
        return False
    if result.windows is not None:
        w = result.windows
        return (w.version, w.edition, w.service_pack) == host.triple
    return line is None or line == host.line


def depth(result) -> str:
    """The last cascade stage that ran: relevance, family, version or dcerpc."""
    last = result.stage_trace[-1]
    return "version" if last.startswith("version:") else last


def _same_dataset(a, b) -> bool:
    return (
        a.stage == b.stage
        and a.seed == b.seed
        and a.output_labels == b.output_labels
        and a.labels == b.labels
        and np.array_equal(a.inputs, b.inputs)
        and np.array_equal(a.targets, b.targets)
    )


def _digest(ds) -> str:
    h = hashlib.sha256(ds.inputs.tobytes())
    h.update(ds.targets.tobytes())
    return h.hexdigest()


def _timed(intervals: list[tuple[float, float]], speed: Speed, fn, *args, **kwargs):
    """Call fn, appending its (start, end) on speed's clock to intervals."""
    start = speed.now()
    result = fn(*args, **kwargs)
    intervals.append((start, speed.now()))
    return result


def _classify_host(model, host: Host):
    obs = signatures.parse_observation(host.obs_text)
    dump = dcerpc.parse_endpoint_dump(host.dump_text) if host.dump_text else None
    return hierarchy.classify(model, obs, dump), obs, dump


def cold_hosts(hosts: list[Host], n: int) -> list[Host]:
    """n hosts for the cold runs, taking the kinds in turn (not relevant,
    relevant without a dump, Windows with a dump), so that every seed
    starts the same mix of cascade depths."""
    kinds = ([h for h in hosts if h.family is None],
             [h for h in hosts if h.family is not None and not h.dump_text],
             [h for h in hosts if h.dump_text])
    return [kinds[i % 3][i // 3] for i in range(n)]


def _cold_expectation(result) -> tuple[int, str | None]:
    """Exit code and `Setting OS to` line `neuralfp classify` must print."""
    if isinstance(result.verdict, str):
        return EXIT_CODES[result.verdict], None
    return 0, f"Setting OS to {result.os_name()}"


def run_pass(profile: Profile, inputs: Inputs, work: Path, tracer, speed: Speed,
             child_env: dict, check_reload: bool = True) -> PassResult:
    """Run corpus, train and scan once, checking every output on the way.

    Timings are taken on speed's clock and scaled once the pass is over.
    check_reload=False skips re-classifying every host with the in-memory
    model; a pass whose outputs are compared with a checked pass need not
    repeat that check.
    """
    r = PassResult()
    db, hosts = inputs.db, inputs.hosts
    speed.sample()
    pass_start = speed.now()

    # 1. corpus ----------------------------------------------------------
    ds_path = work / "corpus.ds"
    corpus_steps = []
    tracer.rid = "dataset"
    ds = _timed(corpus_steps, speed, datagen.generate_dataset, db, None, profile.corpus_rows,
                stage="relevance", seed=CORPUS_SEED)
    _timed(corpus_steps, speed, persistence.save, ds, ds_path)
    loaded_ds = _timed(corpus_steps, speed, persistence.load, ds_path, expected_kind="dataset")
    tracer.rid = "reduce"
    reduction = _timed(corpus_steps, speed, preprocess.fit_pipeline, loaded_ds.inputs)
    r.attempted += 4
    r.corpus_rows = len(ds.inputs)
    r.dataset_bytes = ds_path.stat().st_size
    r.reduce_kept, r.reduce_k = len(reduction.kept), reduction.output_dim
    if not _same_dataset(ds, loaded_ds):
        r.fail("load(save(dataset)) differs from the dataset")
    r.dataset_digest = _digest(ds)
    del ds

    # 2. train -----------------------------------------------------------
    cfg = hierarchy.HierarchyConfig(seed=TRAINING_SEED, generations=profile.generations, windows=True)
    model_path = work / "os.model"
    train_steps = []
    tracer.rid = "train"
    model = _timed(train_steps, speed, hierarchy.train_hierarchy, db, cfg=cfg,
                   corpus=(loaded_ds.inputs, loaded_ds.labels))
    tracer.rid = "evaluate"
    report = _timed(train_steps, speed, hierarchy.evaluate, model, inputs.heldout)
    tracer.rid = "model"
    _timed(train_steps, speed, persistence.save, model, model_path)
    r.attempted += 3
    r.model, r.report = model, report
    r.model_bytes = model_path.stat().st_size
    low = [f"{fam} {acc:.3f}" for fam, acc in report.version_accuracy.items()
           if acc < MIN_VERSION_ACCURACY]
    if (report.relevance_accuracy < MIN_RELEVANCE_ACCURACY
            or report.family_accuracy < MIN_FAMILY_ACCURACY or low or not report.version_accuracy):
        r.fail(f"held-out accuracy below criterion 6: relevance {report.relevance_accuracy:.3f}, "
               f"family {report.family_accuracy:.3f}, low versions {low}")
    del loaded_ds

    loaded = persistence.load(model_path, expected_kind="hierarchy")
    r.attempted += 1

    # 3. scan: best-fit baseline on every 10th host -----------------------
    family_of = {s.name: datagen.signature_family(s) for s in db}
    best_fits = []
    for i in range(0, len(hosts), BEST_FIT_EVERY):
        tracer.rid = i
        start = speed.now()
        obs = signatures.parse_observation(hosts[i].obs_text)
        ranked = signatures.best_fit(db, obs, top=1)
        best_fits.append((start, speed.now()))
        r.attempted += 1
        r.best_fit_hits += family_of[ranked[0][0]] == hosts[i].family

    # 3. scan: cold `neuralfp classify`, one process at a time ------------
    tracer.enabled = False
    cold = cold_hosts(hosts, profile.cold_runs)
    expected = [_cold_expectation(_classify_host(loaded, h)[0]) for h in cold]
    tracer.enabled = True
    cold_runs = []
    references = [speed.reference_process(child_env)]
    for j, host in enumerate(cold):
        obs_path = work / f"host{j}.obs"
        obs_path.write_text(host.obs_text + "\n")
        cmd = [sys.executable, "-m", "neuralfp.cli", "classify",
               "--model", str(model_path), "--obs", str(obs_path)]
        if host.dump_text:
            dump_path = work / f"host{j}.dump"
            dump_path.write_text(host.dump_text)
            cmd += ["--dump", str(dump_path)]
        proc = _timed(cold_runs, speed, subprocess.run, cmd, capture_output=True, text=True,
                      env=child_env, timeout=120)
        references.append(speed.reference_process(child_env))
        r.attempted += 1
        setting = [ln for ln in proc.stdout.splitlines() if ln.startswith("Setting OS to ")]
        got = (proc.returncode, setting[-1] if setting else None)
        r.cold_outputs.append(got)
        if got != expected[j] or len(setting) > 1:
            r.cold_failed += 1
            r.fail(f"cold classify of host {j}: got {got}, expected {expected[j]}; "
                   f"stderr {proc.stderr.strip()[-300:]!r}")

    # 3. scan: closed-loop rounds over the hosts
    rounds, loops = [], []
    for _ in range(HOST_ROUNDS):
        verdicts, parsed, per_host = [], [], []
        loop_start = speed.now()
        for k, host in enumerate(hosts):
            tracer.rid = k
            start = speed.now()
            try:
                result, obs, dump = _classify_host(loaded, host)
            except Exception:
                r.fail(f"host {k}: {traceback.format_exc(limit=3)}")
                result = obs = dump = None
            per_host.append((start, speed.now()))
            verdicts.append(result)
            parsed.append((obs, dump))
        loops.append((loop_start, speed.now()))
        rounds.append(per_host)
        r.attempted += len(hosts)
    r.verdicts = verdicts

    # the saved-then-loaded model must reproduce the in-memory verdicts bit for bit
    tracer.enabled = False
    for k, result in enumerate(r.verdicts if check_reload else ()):
        if result is not None and hierarchy.classify(model, *parsed[k]) != result:
            r.fail(f"host {k}: reloaded model disagrees with the in-memory model")
    tracer.enabled = True
    wall = (pass_start, speed.now())
    tracer.rid = None

    speed.sample()  # so that the last timing has a sample after it

    def scaled(intervals):
        return [speed.scaled(*iv) for iv in intervals]

    r.corpus_steps_s, r.train_steps_s = scaled(corpus_steps), scaled(train_steps)
    r.best_fit_s = scaled(best_fits)
    r.cold_s = [scale_process(end - start, references[j], references[j + 1])
                for j, (start, end) in enumerate(cold_runs)]
    r.host_s, r.loop_s = [scaled(per_host) for per_host in rounds], scaled(loops)
    r.wall_s = speed.scaled(*wall)
    return r


def median_per_item(runs: list[list[float]]) -> list[float]:
    """Per item, the median of its timings over runs (passes or rounds)."""
    return [statistics.median(column) for column in zip(*runs)]


def end_to_end(passes: list[PassResult], hosts: list[Host], setup_s: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """The user-facing metrics of a run's untraced passes, by name.

    Quality comes from the first pass (every pass must agree with it);
    each timing is the median over passes per item (host, call, cold run,
    pipeline step), then summed or summarized over the items.
    """
    first = passes[0]
    report = first.report
    right = sum(verdict_right(h, v) for h, v in zip(hosts, first.verdicts) if v is not None)

    def per_item(attr):
        return median_per_item([getattr(p, attr) for p in passes])

    host_s = median_per_item([rnd for p in passes for rnd in p.host_s])
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "train_s": sum(per_item("train_steps_s")),
        "relevance_accuracy": report.relevance_accuracy,
        "family_accuracy": report.family_accuracy,
        "version_accuracy_min": min(report.version_accuracy.values()),
        "perfect_match_share": report.categories["perfect match"] / report.n,
        "hosts_per_s": len(hosts) / statistics.median(s for p in passes for s in p.loop_s),
        "host_latency_p50_ms": statistics.median(host_s) * 1e3,
        "host_latency_p95_ms": stats.tail_percentile(host_s, 0.95) * 1e3,
        "verdict_accuracy": right / len(hosts),
        "cold_classify_s": statistics.median(per_item("cold_s")),
        "baseline_ms_p50": statistics.median(per_item("best_fit_s")) * 1e3,
        "corpus_rows_per_s": first.corpus_rows / sum(per_item("corpus_steps_s")),
        "dataset_mb": first.dataset_bytes / 1e6,
    }


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env
